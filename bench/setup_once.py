"""Time one set-up in a fresh interpreter and print its seconds.

    python3 bench/setup_once.py

Set-up is importing api_evolve, then generating, rendering and re-parsing
the five corpus patches. run.py starts this script before a run and after
every pass, so that each set-up starts from an empty heap and an empty
module cache, as a user's first call does, whatever the run has built up.
"""

import importlib
import sys
from time import perf_counter

import run

sys.path.insert(0, str(run.ROOT / "src"))
t0 = perf_counter()
run.Bench.load_patches(importlib.import_module("api_evolve"))
print(perf_counter() - t0)
