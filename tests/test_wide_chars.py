"""jast's scans, whose code runs are positive Latin-1 classes with a run
of characters past Latin-1 as one more special case, against the same
scans spelled with negated classes (negated_scans): on text that holds
é, Ω, 中 and 😀 in code, literals, comments and bracket groups, every scan,
the lexer and an update come out the same. And a guard on the patterns
themselves: the speed of the scans rests on their code runs being
positive classes, the cost of compiling them on no class reaching past
Latin-1, and a failed match staying linear on the run of wide characters
being taken whole."""

import random
import re
import time

import pytest

from api_evolve import engine, jast, patchgen

import negated_scans
from conftest import CORPUS
from mutants import mutant
from test_jast import _assert_lexers_agree

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

WIDE = ("é", "Ω", "中", "😀")

# @ stands for each wide character in turn
TABLE = [
    "class A@ { int x@ = 1; }",
    '@',
    'class A { String s = "@"; char c = \'@\'; String t = "a@b\\@"; }',
    'class A { char c = \'@@\'; String s = "@\\"@"; char d = \'\\@\'; }',
    'class A { String s = """\n  @ ( [ {\n  """; void m() { f(s); } }',
    'class A { String s = """\r\n  @\\""" ) ]\r\n  """; }',
    "class A { // @ ( [ {\n  void m() { } }",
    "class A { /* @ ) ] } */ void m() { } /* @* */ }",
    "class A { void m() { f(@); g(a[@]); h((@), [@], (x@y)); } }",
    "class A { void m() { f((@) + (a)); k[i@] = (int) @; } }",
    "class A { int[] a = { 1, @ }; void m() { if (b@) { f(); } else { g(\"@\"); } } }",
    "class A { void m() { if (c) /* @ */ f(@); /* @ */ else g('@'); } }",
    "class A { Runnable r = () -> { f(\"@\"); }; enum E@ { X(@), Y } }",
    "class A { void m() { x = a / @ / b; y = (@ / 2); } }",
    "class @@ { void @@@x(int @@) { f(@@ @@, @@); g[@@@] = (@@ + 1) * a(@@); } }",
    # unbalanced, unterminated, or opening nothing
    'class A { String s = "@; }',
    "class A { char c = '@; }",
    "class A { /* @ }",
    "class A { void m() { f(@]; } }",
    "class A { void m() { f((@); } }",
    "(@))",
    '"""\n@',
]


def _texts():
    table = [text.replace("@", w) for text in TABLE for w in WIDE]
    rng = random.Random(727)
    mutants = []
    for _ in range(1500):
        text = mutant(rng, rng.choice(table))
        i = rng.randrange(len(text) + 1)
        mutants.append(text[:i] + rng.choice(WIDE) + text[i:])
    return table, mutants


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except jast.UnbalancedSource as exc:
        return "raised", str(exc)


def _scans(text):
    """What the scans make of text: each balance check's verdict and
    message, or check_balanced's table, and for a balanced text the
    partner of each opening bracket token, the member end at each token
    but eof, and the blocks around each name, where apply asks for them."""
    seen = [_outcome(jast.check_balanced, text), _outcome(jast.require_balanced, text)]
    lexed = _outcome(jast._lex, text)
    if seen[0][0] == "returned" and lexed[0] == "returned":
        partner = seen[0][1]
        kinds, values, starts, _ends = lexed[1]
        seen.append([jast._close(text, partner, at)
                     for at, value in zip(starts, values) if value in ("(", "[", "{")])
        seen.append([jast._member_end(text, at, partner) for at in starts[:-1]])
        names = [at for at, kind in zip(starts, kinds) if kind == "ident"]
        seen.append([repr(found) for found in jast.blocks_around(text, partner, names)])
    return seen


def _negated(fn, *args):
    """fn(*args) with jast's scans spelled with negated classes."""
    with pytest.MonkeyPatch.context() as mp:
        for name, pattern in negated_scans.PATTERNS.items():
            mp.setattr(jast, name, pattern)
        return fn(*args)


def test_wide_characters_scan_as_in_the_negated_spelling():
    table, mutants = _texts()
    texts = table + mutants
    want = _negated(lambda: [_scans(text) for text in texts])
    got = [_scans(text) for text in texts]
    for text, mine, theirs in zip(texts, got, want):
        assert mine == theirs, repr(text)
    balanced = sum(seen[0][0] == "returned" for seen in got)
    assert 300 < balanced < len(texts) - 300


def test_wide_characters_lex_as_the_per_token_lexer_does():
    table, mutants = _texts()
    for text in table + mutants:
        _assert_lexers_agree(text)


def test_an_update_around_wide_characters_matches_the_negated_spelling(vibrate_mapping):
    example = (CORPUS / "cases" / "vibrate" / "example.java").read_text(encoding="utf-8")
    patch = patchgen.generate_patch(jast.parse(example), vibrate_mapping)
    text = ("class Buzz {\n    void buzz(android.os.Vibrator v, long ms) {\n"
            "        f(\"(中\", (Ω));\n        /* 中 */\n"
            "        v.vibrate(ms + \"Ω\".length());\n    }\n}\n")
    out, report = engine.update(text, patch, vibrate_mapping)
    assert (out, report) == _negated(engine.update, text, patch, vibrate_mapping)
    assert report.sites_updated == 1
    assert "/* 中 */" in out and 'v.vibrate(ms + "Ω".length());' in out


# -- the patterns themselves ---------------------------------------------------

SCANNERS = ("_TOKEN_RE", "_BRACKET_RE", "_MEMBER_RE", "_LITERAL_RE", "_ELSE_RE")


def _walk(parsed):
    """Every (op, av) of a parsed pattern, those nested in groups,
    branches, repeats and lookarounds too."""
    for op, av in parsed:
        yield op, av
        for part in av if isinstance(av, tuple) else ():
            for sub in part if isinstance(part, list) else [part]:
                if isinstance(sub, sre_parse.SubPattern):
                    yield from _walk(sub)


def _class_size(items) -> int:
    return sum(av[1] - av[0] + 1 if op is sre_parse.RANGE else 1
               for op, av in items if op is not sre_parse.NEGATE)


def _faults(pattern) -> list:
    """The repeated negated classes of more than one character, and the
    class ranges past U+00FF, in pattern."""
    faults = []
    for op, av in _walk(sre_parse.parse(pattern.pattern, pattern.flags)):
        if op is sre_parse.IN:
            faults += ["range %r" % (av_,) for op_, av_ in av
                       if op_ is sre_parse.RANGE and av_[1] > 0xff]
        elif op in (sre_parse.MAX_REPEAT, sre_parse.MIN_REPEAT) and av[1] > 1 and len(av[2]) == 1:
            (item, items), = av[2]
            if item is sre_parse.IN and (sre_parse.NEGATE, None) in items and _class_size(items) > 1:
                faults.append("repeated negated class %r" % (items,))
    return faults


# the negated classes the scans may repeat: a literal's body, and a run of
# characters past Latin-1
ALLOWED = set(_faults(re.compile("%s|%s|%s" % (jast._STR, jast._CHAR, jast._WIDE), re.VERBOSE)))


@pytest.mark.parametrize("name", SCANNERS)
def test_scan_code_runs_are_positive_latin1_classes(name):
    assert set(_faults(getattr(jast, name))) <= ALLOWED


def test_the_guard_sees_a_negated_run_and_a_wide_range():
    assert set(_faults(negated_scans.PATTERNS["_LITERAL_RE"])) - ALLOWED
    assert _faults(re.compile("a[^bc]*d"))
    assert _faults(re.compile("[a-\u0100]"))
    assert not _faults(re.compile(r"[^\n]*[^\x00-\xff][\x00-\xff]*"))


def test_a_failed_pair_swallow_takes_a_wide_run_whole():
    # the swallow of `(` fails at the `[`: a run of wide characters that it
    # could split would be tried split every way, 2**25 ways here
    text = "class A { void m() { f(" + "中" * 26 + "[0]); } }"
    start = time.perf_counter()
    assert _outcome(jast.check_balanced, text) == _negated(_outcome, jast.check_balanced, text)
    assert time.perf_counter() - start < 0.5
