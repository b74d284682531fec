"""require_balanced against check_balanced: on every text it returns None
exactly where check_balanced returns, and raises check_balanced's message
everywhere else. And check_balanced's bracket table against the tokens:
it pairs every bracket token as a stack over the tokens does.

It needs no pytest, so it also runs as a plain script:

    python tests/test_balance.py
"""

import random
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
sys.path.insert(0, str(REPO / "src"))

from api_evolve import engine, jast, patchgen, sigmap  # noqa: E402
from mutants import mutant  # noqa: E402


def _outcome(fn, text):
    try:
        return "returned", fn(text)
    except jast.UnbalancedSource as exc:
        return "raised", str(exc)


def _agree(texts):
    """Assert the contract on every text; return how many are balanced."""
    balanced = 0
    for text in texts:
        exact = _outcome(jast.check_balanced, text)
        fast = _outcome(jast.require_balanced, text)
        if exact[0] == "returned":
            assert fast == ("returned", None), repr(text[:300])
            balanced += 1
        else:
            assert fast == exact, repr(text[:300])
    return balanced


def corpus_texts():
    """Every corpus example, target and golden, and every fixture, with
    its line endings."""
    paths = sorted(REPO.glob("corpus/cases/*/example.java"))
    paths += sorted(REPO.glob("corpus/cases/*/targets/*.java"))
    paths += sorted(REPO.glob("corpus/cases/*/expected/*.java"))
    paths += sorted((TESTS / "fixtures").glob("*.java"))
    return [p.read_bytes().decode("utf-8") for p in paths]


def test_corpus_texts_agree():
    texts = corpus_texts()
    assert len(texts) >= 45
    assert _agree(texts) == len(texts)


def _mutants():
    texts = corpus_texts()
    rng = random.Random(61)
    return [mutant(rng, rng.choice(texts)) for _ in range(1500)]


def test_mutants_agree():
    mutants = _mutants()
    balanced = _agree(mutants)
    assert 300 < balanced < len(mutants) - 300


def _stack_partners(toks):
    """Each opening bracket token's start mapped to its closer's, by a
    plain stack over the tokens."""
    partners, opened = {}, []
    for t in toks:
        if t.value in ("(", "[", "{"):
            opened.append(t.start)
        elif t.value in (")", "]", "}"):
            partners[opened.pop()] = t.start
    assert not opened
    return partners


def test_the_bracket_table_pairs_every_bracket_token():
    # the parser and the member scan jump to a bracket's partner through
    # check_balanced's table, never pairing tokens themselves
    corpus = corpus_texts()
    rng = random.Random(89)
    balanced = 0
    for text in corpus + [mutant(rng, rng.choice(corpus)) for _ in range(2800)]:
        outcome, partner = _outcome(jast.check_balanced, text)
        if outcome == "raised":
            continue
        balanced += 1
        stack = _stack_partners(jast.tokenize(text))
        assert partner.keys() <= stack.keys(), repr(text[:300])
        assert {at: jast._close(text, partner, at) for at in stack} == stack, repr(text[:300])
    assert balanced > len(corpus) + 1000


def test_parse_and_update_fail_with_the_same_message():
    case = REPO / "corpus" / "cases" / "vibrate"
    sigs = (case / "mapping.txt").read_text(encoding="utf-8").splitlines()
    mapping = sigmap.ApiMapping(sigmap.parse_signature(sigs[0]), sigmap.parse_signature(sigs[1]))
    example = jast.parse((case / "example.java").read_text(encoding="utf-8"))
    patch = patchgen.generate_patch(example, mapping)
    faults = named = 0  # update parses a text that names the method, else only checks it
    for text in _mutants():
        exact = _outcome(jast.check_balanced, text)
        if exact[0] == "raised":
            faults += 1
            named += "vibrate" in text
            assert _outcome(jast.parse, text) == exact, repr(text[:300])
            assert _outcome(lambda t: engine.update(t, patch, mapping), text) == exact, \
                repr(text[:300])
    assert 100 < named < faults - 100


def test_random_strings_agree():
    rng = random.Random(4093)
    alphabet = "\"'/\\*{}()[]\n\rabxé"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(13)))
             for _ in range(6000)]
    balanced = _agree(texts)
    assert 500 < balanced < len(texts) - 500


def test_text_blocks_agree():
    # a `"""` and a line break open a text block, which may span lines
    # and hold brackets; `"""` with more on its line is three strings
    texts = ['class A { String s = """\n    {( json\n    """; }',
             'class A { String s = """\n    )\n    """; void m() { } }',
             'class A { String s = """a"""; void m() { f(s); } }',
             'class A { String s = """ ( """; }',
             'class A { String s = """\r\n  }\r\n  """; }']
    assert _agree(texts) == 5


def test_nesting_past_the_pass_limit_agrees():
    wrong = {")": "]", "]": "}", "}": ")"}
    texts = []
    for opener, closer in [("(", ")"), ("{", "}"), ("({[", "]})")]:
        deep = opener * 3000 + "x" + closer * 3000
        texts += [deep, "class A { %s }" % deep, deep[:-1], deep + closer[-1], deep[1:],
                  "(" + deep, deep.replace("x" + closer[0], "x" + wrong[closer[0]])]
    texts += ["(" * 3000 + '")"' + ")" * 3000, "{" * 3000 + "/* } */" + "}" * 2999]
    assert _agree(texts) == 7


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
