import importlib
import random
import re
import tracemalloc

import pytest

from api_evolve import engine, jast, scope

from conftest import CORPUS, REPO, corpus_java_files
from mutants import mutant


def read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_minimal_class():
    unit = jast.parse("class A { void m() { v.vibrate(5); } }")
    assert len(unit.types) == 1
    tdecl = unit.types[0]
    assert tdecl.name == "A"
    assert [m.name for m in tdecl.methods] == ["m"]
    (stmt,) = tdecl.methods[0].body
    assert isinstance(stmt, jast.ExprStmt)
    call = stmt.expr
    assert isinstance(call, jast.MethodCall)
    assert isinstance(call.receiver, jast.Name) and call.receiver.identifier == "v"
    assert call.name == "vibrate"
    assert [a.lexeme for a in call.args] == ["5"]


def test_vibrate_example_structure(vibrate_example):
    unit = jast.parse(vibrate_example)
    wrapper = unit.types[0]
    assert wrapper.implicit
    fields = {f.name: f for f in wrapper.fields}
    assert fields["DURATION"].initializer.lexeme == "50"
    assert fields["AMPLITUDE"].initializer.lexeme == "175"
    method = next(m for m in wrapper.methods if m.name == "itemActivated")
    assert isinstance(method.body[0], jast.LocalVarDecl)
    assert isinstance(method.body[1], jast.If)


def test_opaque_statement_roundtrip():
    text = "class A { synchronized void weird() { assert x; } }"
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    # the member itself is outside the subset, preserved opaquely via text


def test_opaque_in_body():
    text = "class A { void m() { while (x) { a.f(); } } }"
    unit = jast.parse(text)
    (stmt,) = unit.types[0].methods[0].body
    assert isinstance(stmt, jast.OpaqueStmt)
    assert stmt.src == "while (x) { a.f(); }"
    assert jast.print_unit(unit) == text


@pytest.mark.parametrize("body, opaque", [
    ("{ if (x) } }", ["if (x)"]),
    ("if (x) a(); else }", ["if (x) a();", "else"]),
], ids=["if_without_a_statement", "else_without_a_statement"])
def test_an_if_that_does_not_parse_is_read_again_as_opaque(body, opaque):
    text = "class A { void m() { %s }" % body
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    stmts = [s for s, _chain in jast.iter_statements(unit.types[0].methods[0].body)]
    assert [s.src for s in stmts if isinstance(s, jast.OpaqueStmt)] == opaque
    assert not any(isinstance(s, jast.If) for s in stmts)


@pytest.mark.parametrize("path", corpus_java_files(), ids=lambda p: p.name)
def test_roundtrip_corpus(path):
    text = read(path)
    assert jast.print_unit(jast.parse(text)) == text


def test_unbalanced_raises():
    with pytest.raises(jast.UnbalancedSource):
        jast.parse("class A { void m() { ")
    with pytest.raises(jast.UnbalancedSource):
        jast.parse("class A } {")


def test_balanced_despite_literals():
    text = 'class A { void m() { String s = "}}}((("; } }'
    assert jast.print_unit(jast.parse(text)) == text


def test_splice_no_edits(vibrate_example):
    unit = jast.parse(vibrate_example)
    assert jast.splice(unit, []) == vibrate_example


def test_splice_two_disjoint_edits_match_sequential_oracle():
    text = "class A { void m() { a.f(); b.g(); } }"
    unit = jast.parse(text)
    stmts = unit.types[0].methods[0].body
    edits = [(stmts[0].span, "x.h();"), (stmts[1].span, "y.k();")]
    # naive oracle: apply one at a time, later edit first so offsets hold
    oracle = text[:stmts[1].span.start] + "y.k();" + text[stmts[1].span.end:]
    oracle = oracle[:stmts[0].span.start] + "x.h();" + oracle[stmts[0].span.end:]
    assert jast.splice(unit, edits) == oracle
    assert jast.splice(unit, list(reversed(edits))) == oracle


def test_splice_overlap_rejected():
    unit = jast.parse("class A { void m() { a.f(); } }")
    (stmt,) = unit.types[0].methods[0].body
    overlapping = [(stmt.span, "x;"), (jast.Span(stmt.span.start + 1, stmt.span.end), "y;")]
    with pytest.raises(jast.OverlappingEdits):
        jast.splice(unit, overlapping)


def test_splice_insert_only_touches_inserted_region():
    text = "class A {\n    void m() {\n        a.f();\n    }\n}\n"
    unit = jast.parse(text)
    (stmt,) = unit.types[0].methods[0].body
    inserted = "if (x) {\n            b.g();\n        } else {\n            a.f();\n        }"
    out = jast.splice(unit, [(stmt.span, inserted)])
    assert out.startswith(text[:stmt.span.start])
    assert out.endswith(text[stmt.span.end:])
    assert inserted in out


@pytest.mark.parametrize("path", corpus_java_files(), ids=lambda p: p.name)
def test_span_order_monotone(path):
    unit = jast.parse(read(path))
    for tdecl, _ in jast.iter_types(unit):
        for m in tdecl.methods:
            starts = [s.span.start for s, _ in jast.iter_statements(m.body)]
            siblings = [s.span for s in m.body]
            for a, b in zip(siblings, siblings[1:]):
                assert a.end <= b.start  # siblings do not overlap
            assert all(st >= m.span.start for st in starts)


def test_newline_style_preserved():
    text = "class A {\r\n    void m() {\r\n        a.f();\r\n    }\r\n}\r\n"
    unit = jast.parse(text)
    assert unit.newline == "\r\n"
    assert jast.print_unit(unit) == text


# -- lexer ----------------------------------------------------------------------

def toks(text):
    return [(t.kind, t.value, t.start, t.end) for t in jast.tokenize(text)]


LEX_TABLE = {
    "string_escaped_backslash": ('s = "\\\\";', [
        ("ident", "s", 0, 1), ("punct", "=", 2, 3), ("str", '"\\\\"', 4, 8),
        ("punct", ";", 8, 9)]),
    "char_escaped_quote": ("c = '\\'';", [
        ("ident", "c", 0, 1), ("punct", "=", 2, 3), ("char", "'\\''", 4, 8),
        ("punct", ";", 8, 9)]),
    "string_escaped_newline": ('"a\\\nb"', [("str", '"a\\\nb"', 0, 6)]),
    "char_spans_newline": ("c = '\n';", [
        ("ident", "c", 0, 1), ("punct", "=", 2, 3), ("char", "'\n'", 4, 7),
        ("punct", ";", 7, 8)]),
    "line_comment_at_eof": ("a; // end", [("ident", "a", 0, 1), ("punct", ";", 1, 2)]),
    "line_comment_then_code": ("// x\ny", [("ident", "y", 5, 6)]),
    "block_comment_stars": ("/* ** */x", [("ident", "x", 8, 9)]),
    "block_comment_slash_star_slash": ("/*/ */y", [("ident", "y", 6, 7)]),
    "brackets_in_literals_and_comments": ('"(" /* { */ \'[\' // )', [
        ("str", '"("', 0, 3), ("char", "'['", 12, 15)]),
    "crlf": ("a\r\nb", [("ident", "a", 0, 1), ("ident", "b", 3, 4)]),
    "numbers": ("0x1FL 1.5e-3f 1_000 .5 7d", [
        ("num", "0x1FL", 0, 5), ("num", "1.5e-3f", 6, 13), ("num", "1_000", 14, 19),
        ("num", ".5", 20, 22), ("num", "7d", 23, 25)]),
    "binary_and_underscored_numbers": ("0b1 0B10_1L 0x7f_ffL 1__0.5e1_0", [
        ("num", "0b1", 0, 3), ("num", "0B10_1L", 4, 11), ("num", "0x7f_ffL", 12, 20),
        ("num", "1__0.5e1_0", 21, 31)]),
    "text_block": ('s = """\n  "a" ""b\\""" (\n  """;', [
        ("ident", "s", 0, 1), ("punct", "=", 2, 3),
        ("str", '"""\n  "a" ""b\\""" (\n  """', 4, 29), ("punct", ";", 29, 30)]),
    "operators": ("a->b::c>>=d", [
        ("ident", "a", 0, 1), ("punct", "->", 1, 3), ("ident", "b", 3, 4),
        ("punct", "::", 4, 6), ("ident", "c", 6, 7), ("punct", ">>", 7, 9),
        ("punct", "=", 9, 10), ("ident", "d", 10, 11)]),
    "two_char_prefix": ("a<=b!c", [
        ("ident", "a", 0, 1), ("punct", "<=", 1, 3), ("ident", "b", 3, 4),
        ("punct", "!", 4, 5), ("ident", "c", 5, 6)]),
    "non_ascii_letter": ("café $x", [
        ("ident", "caf", 0, 3), ("punct", "é", 3, 4), ("ident", "$x", 5, 7)]),
    "non_ascii_space_and_formfeed": ("a\u00a0b\fc", [
        ("ident", "a", 0, 1), ("punct", "\u00a0", 1, 2), ("ident", "b", 2, 3),
        ("punct", "\f", 3, 4), ("ident", "c", 4, 5)]),
    "unicode_decimal_digit": ("x = ٣;", [
        ("ident", "x", 0, 1), ("punct", "=", 2, 3), ("num", "٣", 4, 5),
        ("punct", ";", 5, 6)]),
    "unbalanced_brackets_still_tokenize": ("a)]", [
        ("ident", "a", 0, 1), ("punct", ")", 1, 2), ("punct", "]", 2, 3)]),
    "empty": ("", []),
}


@pytest.mark.parametrize("text, expected", LEX_TABLE.values(), ids=LEX_TABLE.keys())
def test_tokenize_table(text, expected):
    assert toks(text) == expected + [("eof", "", len(text), len(text))]


LITERAL_ERRORS = {
    "unterminated_string": ('s = "abc', "unterminated string literal"),
    "string_broken_by_newline": ('s = "ab\ncd";', "unterminated string literal"),
    "string_ends_in_backslash": ('"\\', "unterminated string literal"),
    "unterminated_char": ("c = 'a", "unterminated char literal"),
    "unterminated_comment": ("a /* b", "unterminated block comment"),
    "comment_star_slash_overlap": ("/*/", "unterminated block comment"),
    "after_a_bracket_fault": ('f(]; s = "ab', "unterminated string literal"),
    # the first of two openers that open nothing is reported
    "char_before_string": ("c = 'a; s = \"b", "unterminated char literal"),
    "string_before_comment": ('s = "a; /* b', "unterminated string literal"),
}

BRACKET_ERRORS = {
    "unmatched_close": ("a)", "unmatched ')' at offset 1"),
    "mismatched_close": ("f(]", "unmatched ']' at offset 2"),
    "close_before_open": ("class A } {", "unmatched '}' at offset 8"),
    "unclosed_paren": ("{(", "unclosed ')'"),
    "unclosed_brace": ("class A { void m() { ", "unclosed '}'"),
}


@pytest.mark.parametrize("text, message", LITERAL_ERRORS.values(), ids=LITERAL_ERRORS.keys())
def test_unterminated_literal_raises_everywhere(text, message):
    for fn in (jast.tokenize, jast.check_balanced, jast.parse):
        with pytest.raises(jast.UnbalancedSource) as exc:
            fn(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("text, message", BRACKET_ERRORS.values(), ids=BRACKET_ERRORS.keys())
def test_bracket_fault_raised_by_parse_not_tokenize(text, message):
    jast.tokenize(text)
    for fn in (jast.check_balanced, jast.parse):
        with pytest.raises(jast.UnbalancedSource) as exc:
            fn(text)
        assert str(exc.value) == message


def test_a_block_comment_ends_at_its_first_star_slash():
    # every scanner shares one comment syntax: over seeded bodies, each one
    # ends a comment at the first `*/` after its `/*`, and raises on one
    # that never closes; a `;` or `)` in the body shows an end seen too soon
    rng = random.Random(4321)
    pieces = ["*", "**/", "/", "\n", "/**/", "/***/", ";", ")", "x"]
    closed = 0
    for _ in range(400):
        text = "a /*" + "".join(rng.choice(pieces) for _ in range(rng.randrange(8)))
        end = text.find("*/", 4) + 2
        if end < 2:
            for fn in (jast.tokenize, jast.check_balanced, jast.require_balanced):
                with pytest.raises(jast.UnbalancedSource, match="unterminated block comment"):
                    fn(text)
            continue
        closed += 1
        text = text[:end] + " ; )"
        assert toks(text)[:3] == [("ident", "a", 0, 1), ("punct", ";", end + 1, end + 2),
                                  ("punct", ")", end + 3, end + 4)]
        assert jast._member_end(text, 0, {}) == end + 2
        for fn in (jast.check_balanced, jast.require_balanced):
            with pytest.raises(jast.UnbalancedSource, match="unmatched '\\)' at offset %d$"
                               % (end + 3)):
                fn(text)
    assert 100 < closed < 350, closed
    # the same agreement on literals and on `/`: seeded runs of literals
    # that hold comment openers and brackets, char literals of brackets,
    # divisions and text blocks each end where every scanner ends them, so
    # the only `;` and `)` any scanner sees are the two after the run
    atoms = ['"//"', '"/*"', '"a({[b"', "'{'", "'('", "'\\''", "a / b", "a / /*c*/ b",
             '"""\n  ) } " /* \\""" ;\n  """', '"\\" ]"', "/* ( */", "// ; )\n", "x"]
    for _ in range(200):
        text = " ".join(rng.choice(atoms) for _ in range(rng.randrange(1, 7)))
        end = len(text)
        text += " ; )"
        puncts = [t for t in toks(text) if t[0] == "punct"]
        assert [t[1] for t in puncts[:-2]] == ["/"] * text.count(" / ")
        assert puncts[-2:] == [("punct", ";", end + 1, end + 2), ("punct", ")", end + 3, end + 4)]
        assert jast._member_end(text, 0, {}) == end + 2
        for fn in (jast.check_balanced, jast.require_balanced):
            with pytest.raises(jast.UnbalancedSource, match="unmatched '\\)' at offset %d$"
                               % (end + 3)):
                fn(text)


def test_superscript_digit_is_a_punct_token():
    # '²'.isdigit() is true but it is no decimal digit, so it cannot start a number
    assert toks("2²") == [("num", "2", 0, 1), ("punct", "²", 1, 2), ("eof", "", 2, 2)]
    text = "class A { int x = 2²; void m() { a.f(); } }"
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    assert [m.name for m in unit.types[0].methods] == ["m"]


def test_parse_lexes_once(monkeypatch, vibrate_example):
    # the parser reads the array lexer's lists; tokenize wraps the same lexer
    calls = []
    for name in ("tokenize", "_lex", "check_balanced", "require_balanced"):
        monkeypatch.setattr(jast, name, lambda *args, fn=getattr(jast, name), name=name:
                            calls.append(name) or fn(*args))
    jast.parse(vibrate_example)
    assert calls == ["check_balanced", "_lex"]


def _no_token(self, kind, value, start, end):
    raise AssertionError("a Token was built")


@pytest.mark.parametrize("path", corpus_java_files(), ids=lambda p: "/".join(p.parts[-3:]))
def test_a_parse_builds_no_token(path, monkeypatch):
    text = read(path)
    with monkeypatch.context() as m:
        m.setattr(jast.Token, "__init__", _no_token)
        full = jast.parse(text)
        partner = jast.check_balanced(text)
        jast.outline(text, partner, ["vibrate", "setSound"])
        for stmt, _chain in jast.iter_statements(full.types[-1].methods[-1].body):
            jast.parse_island(text, partner, stmt.start, stmt.end)
            jast.parse_stmt_text(stmt.src)
            for root in jast.stmt_exprs(stmt):
                jast.parse_expr_text(root.src)
        with pytest.raises(AssertionError, match="a Token was built"):
            jast.tokenize(text)


# The per-token lexer that the array lexer replaced, as the oracle of its
# kinds, values and offsets: one match per token, whose kind is the name of
# the alternative that matched, from the same literal and comment syntax.
_ORACLE_RE = re.compile(r"""
    (?:[ \t\r\n]+ | %s)*
    (?:
        (?P<str> %s)
      | (?P<char> %s)
      | (?P<num> 0[xX][0-9a-fA-F_]+[lL]? | 0[bB][01_]+[lL]?
                 | (?:\d[\d_]*\.[\d_]* | \.\d[\d_]*)(?:[eE][+-]?\d[\d_]*)?[fFdD]?
                 | \d[\d_]*(?:[eE][+-]?\d[\d_]*)?[fFdDlL]? )
      | (?P<ident> [A-Za-z_$][A-Za-z0-9_$]* )
      | (?P<bad> %s)
      | (?P<punct> [{}()\[\];,] | == | != | <= | >= | && | \|\| | \+\+ | -- | \+= | -= | \*=
                 | /= | %%= | -> | :: | << | >> | . )
      | (?P<eof> \Z )
    )""" % (jast._COMMENT, jast._STR, jast._CHAR, jast._BAD), re.VERBOSE | re.DOTALL)


def _oracle_tokens(text):
    out = []
    for m in _ORACLE_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise jast.UnbalancedSource(jast._UNTERMINATED[m[kind]])
        out.append((kind, m[kind], m.start(kind), m.end(kind)))
        if kind == "eof":
            return out


def _assert_lexers_agree(text):
    """The array lexer against the oracle and tokenize: the same rows, or
    the same error; a lex of a slice from one token's start to another's
    end is the rows of that run, then eof at the slice's end."""
    try:
        want = _oracle_tokens(text)
    except jast.UnbalancedSource as exc:
        for fn in (jast._lex, jast.tokenize):
            with pytest.raises(jast.UnbalancedSource, match="^%s$" % exc):
                fn(text)
        return
    assert list(zip(*jast._lex(text))) == want
    assert [(t.kind, t.value, t.start, t.end) for t in jast.tokenize(text)] == want
    first, last = len(want) // 3, 2 * len(want) // 3
    if first < last:
        run = want[first:last]
        end = run[-1][3]
        assert list(zip(*jast._lex(text, run[0][2], end))) == run + [("eof", "", end, end)]


def test_the_array_lexer_agrees_with_the_per_token_lexer(monkeypatch):
    # the corpus, the lexer tables above, then the benchmark's app_sweep
    # and generate_chains inputs of seed 0, read only
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    gen, reference = importlib.import_module("gen"), importlib.import_module("reference")
    templates = reference.load_templates(CORPUS)
    texts = [read(p) for p in corpus_java_files()]
    for text in texts:
        _assert_lexers_agree(text)
    for text, _want in list(LEX_TABLE.values()) + list(LITERAL_ERRORS.values()):
        _assert_lexers_agree(text)
    items = gen.app_sweep(0, templates) + gen.generate_chains(0, CORPUS)
    for item in items:
        _assert_lexers_agree(item.text)
    # seeded mutants of the corpus and of the small generated files, which
    # hold comments: cuts, deletions and stray quotes, comment openers and
    # brackets, so unterminated literals and comments too
    texts += [item.text for item in items if len(item.text) < 3000]
    rng = random.Random(2468)
    faults = set()
    for _ in range(800):
        text = mutant(rng, rng.choice(texts))
        if rng.random() < 0.5:  # two edits: two openers may open nothing
            text = mutant(rng, text)
        _assert_lexers_agree(text)
        try:
            _oracle_tokens(text)
        except jast.UnbalancedSource as exc:
            faults.add(str(exc))
    assert faults == {"unterminated string literal", "unterminated char literal",
                      "unterminated block comment"}


# A reserved word other than true, false, null, new, this and super starts
# no primary, so it is never a name or the name of a call: each of these
# statements is opaque, cut where it was cut before.
RESERVED_WORD_STATEMENTS = {
    "do_while": ("do { go(); } while (c);", ["do { go(); }", "while (c);"]),
    "while_block": ("while (c) { go(); }", ["while (c) { go(); }"]),
    "break": ("break;", ["break;"]),
    "continue": ("continue;", ["continue;"]),
    "primitive_name": ("int;", ["int;"]),
    "synchronized_block": ("synchronized (k) { go(); }", ["synchronized (k) { go(); }"]),
}


@pytest.mark.parametrize("body, opaque", RESERVED_WORD_STATEMENTS.values(),
                         ids=RESERVED_WORD_STATEMENTS.keys())
def test_a_reserved_word_is_never_a_name_or_a_call_name(body, opaque):
    text = "class A { void m() { %s } }" % body
    stmts = jast.parse(text).types[0].methods[0].body
    assert [type(s) for s in stmts] == [jast.OpaqueStmt] * len(opaque)
    assert [s.src for s in stmts] == opaque
    # and so is each as an island, in place
    partner = jast.check_balanced(text)
    islands = [jast.parse_island(text, partner, s.start, s.end)[0] for s in stmts]
    assert [(type(s), s.src) for s in islands] == [(jast.OpaqueStmt, o) for o in opaque]
    with pytest.raises(jast.ParseError):
        jast.parse_expr_text(body.split(" ")[0].rstrip(";"))


@pytest.mark.parametrize("text, shape", [
    ("Foo.class", (jast.FieldAccess, "class")),
    ("this.x", (jast.FieldAccess, "x")),
    ("super.go()", (jast.MethodCall, "go")),
    ("this(1)", (jast.MethodCall, "this")),
    ("new A()", (jast.ObjectCreation, "A")),
    ("null", (jast.Literal, "null")),
])
def test_the_words_that_start_a_primary_still_do(text, shape):
    e = jast.parse_expr_text(text)
    assert type(e) is shape[0]
    assert shape[1] in (getattr(e, "identifier", None), getattr(e, "name", None),
                        getattr(e, "type_name", None), getattr(e, "lexeme", None))


MALFORMED_HEADERS = {
    # text, package, imports, header_end
    "truncated_package": ("package com.ex", None, [], 0),
    "split_import": ("import android.os.Vib rator;\nclass A {}", None, [], 28),
    "empty_import_segment": ("import a.;\nimport b.C;\nclass A {}", None, ["b.C"], 22),
    "package_then_bad_import": ("package p;\nimport a.;\nclass A {}", "p", [], 21),
    "unterminated_import": ("import a.b\nclass A { int x; }", None, [], 0),
}


@pytest.mark.parametrize("text, package, imports, header_end", MALFORMED_HEADERS.values(),
                         ids=MALFORMED_HEADERS.keys())
def test_malformed_header_is_skipped(text, package, imports, header_end):
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    assert (unit.package_name, unit.imports, unit.header_end) == (package, imports, header_end)


@pytest.mark.parametrize("text, imports", [
    ("import static a.B.c;\nclass A {}\n", ["a.B.c"]),
    ("import a.b.*;\nclass A {}\n", ["a.b.*"]),
], ids=["static_import", "on_demand_import"])
def test_well_formed_import_forms(text, imports):
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    assert unit.imports == imports and unit.header_end == text.index("\n")
    assert [t.name for t in unit.types] == ["A"]


def test_a_throws_clause_is_part_of_the_method():
    text = "class A { void m() throws X, Y { f(); } }"
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    (m,) = unit.types[0].methods
    assert m.name == "m" and m.src == "void m() throws X, Y { f(); }"
    assert [s.src for s in m.body] == ["f();"]


def test_a_bodyless_method_is_a_member():
    text = "abstract class A { abstract void n(); }"
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    (m,) = unit.types[0].methods
    assert (m.name, m.modifiers, m.arity, m.body, m.body_span) == (
        "n", frozenset({"abstract"}), 0, [], None)
    assert m.src == "abstract void n();"


@pytest.mark.parametrize("text", [
    "List<(> x; )",
    "{ List<(> x; ) }",
    "class A ( { } )",
    "class A [ { } ]",
])
def test_verbatim_regions_stay_balanced(text):
    # a type or class header that would swallow half a bracket pair is
    # not taken for one, so the unmatched half cannot end the statement
    assert jast.print_unit(jast.parse(text)) == text


def test_generic_and_array_types_still_parse():
    unit = jast.parse("class A implements C<D[]> { Map<String, byte[]> x; }")
    (tdecl,) = unit.types
    assert tdecl.name == "A" and [f.type_name for f in tdecl.fields] == ["Map<String, byte[]>"]


def _fault(fn, text):
    try:
        fn(text)
    except jast.UnbalancedSource as exc:
        return str(exc)
    return None


def test_check_balanced_faults_exactly_where_parse_does():
    texts = [read(p) for p in corpus_java_files()]
    rng = random.Random(20081)
    texts += [mutant(rng, rng.choice(texts)) for _ in range(1200)]
    faults = [_fault(jast.parse, t) for t in texts]
    assert faults == [_fault(jast.check_balanced, t) for t in texts]
    assert 300 < sum(f is not None for f in faults) < len(texts) - 300


# -- islands: blocks_around, parse_island and outline ---------------------------

def _islands(text, names):
    """blocks_around at every occurrence of names, as whole words, in text."""
    found = sorted(m.start() for name in names for m in re.finditer(r"\b%s\b" % name, text))
    return list(jast.blocks_around(text, jast.check_balanced(text), found))


def _items_in_code(text, names):
    """The member or statement, stripped, around each occurrence of names
    in code, not in a comment or literal."""
    return [text[start:end].strip() for at, _blocks, start, end in _islands(text, names)
            if jast.token_before(text, start, at) is not None]


class _RecordingRegex:
    """A compiled regex whose match calls record the token start they find."""

    def __init__(self, regex):
        self.regex, self.starts = regex, []

    def match(self, text, pos):
        m = self.regex.match(text, pos)
        self.starts.append(m.start(2))
        return m

    def __getattr__(self, name):
        return getattr(self.regex, name)


NAME_FREE_METHOD = ("class A { void m() { int x = 1; } "
                    "void n(Vibrator v) { if (v == null) { return; } v.vibrate(5); } }")
NESTED_CLASS = "class A { static class B { int y; void k() { int z = 1; } } }"


def test_name_free_method_body_gives_no_inner_tokens(monkeypatch):
    # the way to a site lexes the headers of the blocks it descends into,
    # and no token of a member or statement it steps over: not m, and not
    # the if before the site
    text = NAME_FREE_METHOD
    recording = _RecordingRegex(jast._TOKEN_RE)
    monkeypatch.setattr(jast, "_TOKEN_RE", recording)
    ((_at, blocks, start, end),) = _islands(text, ["vibrate"])
    monkeypatch.undo()
    values = {t.start: t.value for t in jast.tokenize(text)}
    assert [values[p] for p in recording.starts] == ["class", "A", "{", "void", "n", "(", "{"]
    assert (text[start:end].strip(), [b[2] for b in blocks]) == (
        "v.vibrate(5);", ["file", "class", "stmt"])
    full_n = jast.parse(text).types[0].methods[1]
    island, _starts = jast.parse_island(text, jast.check_balanced(text), start, end)
    assert island.span == full_n.body[1].span and jast.ast_equal(island, full_n.body[1])


def test_class_literal_opens_no_type_body():
    # `Foo.class` opens no type body: the lambda's block holds statements,
    # and the call is its own island; a local class's body is a type body
    text = "class A { void m() { run(Foo.class, () -> { int x = 1; vibrate(); }); } }"
    ((_at, blocks, start, end),) = _islands(text, ["vibrate"])
    assert [b[2] for b in blocks] == ["file", "class", "stmt", "stmt"]
    assert text[start:end].strip() == "vibrate();"
    text = text.replace("Foo.class, () ->", "class L")
    ((_at, blocks, start, end),) = _islands(text, ["vibrate"])
    assert [b[2] for b in blocks] == ["file", "class", "stmt", "class"]


def test_name_free_type_bodies_are_lexed():
    # an outline holds what the full parse reads of each member, of a
    # class in classes alone, whose own text names a name, and no class
    # that names none; a member of a local class is none
    text = NESTED_CLASS
    partner = jast.check_balanced(text)
    assert jast.outline(text, partner, ["vibrate"]).types == []
    methods, types = scope.members(jast.outline(text, partner, ["k"]))
    assert sorted(methods) == [("k", 0)] and sorted(types) == []
    methods, types = scope.members(jast.outline(text, partner, ["B"]))
    assert sorted(methods) == [("k", 0)] and sorted(types) == ["B"]
    local = "class A { void m() { class L { void k() { } } } }"
    methods, types = scope.members(jast.outline(local, jast.check_balanced(local), ["k"]))
    assert sorted(methods) == [] and sorted(types) == []


def test_deep_nesting_is_only_seen_where_the_name_is():
    # a method or statement that never names the name is stepped over,
    # and one that does parses as an island at any depth
    deep = "x = %s1%s;" % ("(" * 300, ")" * 300)
    elsewhere = "class A { void k() { %s } void m() { v.vibrate(5); } }" % deep
    assert jast.print_unit(jast.parse(elsewhere)) == elsewhere
    ((_at, _blocks, start, end),) = _islands(elsewhere, ["vibrate"])
    assert elsewhere[start:end].strip() == "v.vibrate(5);"
    deep_site = deep.replace("1", "v.vibrate(5)")
    text = "class A { void m() { %s v.vibrate(5); } }" % deep_site
    partner = jast.check_balanced(text)
    first, second = _islands(text, ["vibrate"])
    assert jast.parse_island(text, partner, first[2], first[3])[0].src == deep_site
    assert jast.parse_island(text, partner, second[2], second[3])[0].src == "v.vibrate(5);"


# Members whose end is hard to find, each with a call of `go` in it, and
# the member or statement that holds that call.
BOUNDARY_MEMBERS = {
    "array_initializer": ("int[] a = {go(), 2};", "int[] a = {go(), 2};"),
    "anonymous_class_field": ("Runnable r = new Runnable() { public void run() { go(); } };",
                              "go();"),
    "block_lambda_field": ("Runnable r = () -> { go(); };", "go();"),
    "static_initializer": ("static { go(); }", "go();"),
    "instance_initializer": ("{ go(); }", "go();"),
    "semicolon_in_annotation": ('@A(";") void m() { go(); }', "go();"),
    "generic_method": ("<T> void m(T t) { go(); }", "go();"),
    "nested_interface": ("interface I { void go(); }", "void go();"),
    "nested_enum": ("enum E { X, Y; void go() { } }", "void go() { }"),
    "name_in_a_comment_only": ("void m() { // then vibrate\n go(); }", "// then vibrate\n go();"),
    "nested_class": ("static class N { int k; void go() { } }", "void go() { }"),
    "semicolon_in_class_header": ("static class N extends M; void go() { }", "void go() { }"),
    "semicolon_in_brackets": ("int y[;] void go() { }", "int y[;] void go() { }"),
}


@pytest.mark.parametrize("member, go_item", BOUNDARY_MEMBERS.values(), ids=BOUNDARY_MEMBERS.keys())
@pytest.mark.parametrize("keep", [{"vibrate"}, {"vibrate", "go"}], ids=["skipped", "kept"])
def test_member_ends_where_the_full_parse_ends_it(member, go_item, keep):
    text = ("class A {\n    int before;\n    %s\n    void s(Vibrator v) { v.vibrate(5); }\n"
            "    int after;\n}\n" % member)
    (s,) = [m for m in jast.parse(text).types[0].methods if m.name == "s"]
    # the member walk steps over the hard member to s, as the full parse has it
    ((_at, blocks, start, end),) = jast.blocks_around(text, jast.check_balanced(text), [s.start])
    assert text[start:end].strip() == s.src and [b[2] for b in blocks] == ["file", "class"]
    # each call in code is in the member or statement that holds it
    assert _items_in_code(text, keep) == ([go_item] if "go" in keep else []) + [s.body[0].src]


# Statements whose end is hard to find, each with a call of `go` in it,
# and the statement that holds that call when it is not the whole one.
BOUNDARY_STATEMENTS = {
    "if_else_braces": ("if (c) { go(); } else { x = 1; }", "go();"),
    "if_else_bare": ("if (c) go(); else x = 1;", None),
    "if_else_mixed": ("if (c) { x = 1; } else go();", None),
    "nested_if_else_bare": ("if (c) if (d) go(); else x = 1; else x = 2;", None),
    "else_if_chain": ("if (c) { x = 1; } else if (d) { go(); } else if (e) x = 2; else { x = 3; }",
                      "go();"),
    "comment_before_else": ("if (c) { x = 1; } /* } else */ // ;\n        else { go(); }",
                            "go();"),
    "do_while": ("do { go(); } while (c);", "go();"),
    "try_catch_finally": ("try { x = 1; } catch (E e) { go(); } finally { x = 2; }", "go();"),
    "switch": ("switch (c) { case 1: go(); break; default: { x = 1; } }", "case 1: go();"),
    "labelled_loop": ("outer: for (int i = 0; i < 3; i++) { if (i == 1) continue outer; go(); }",
                      "go();"),
    "local_class": ("class L { int y; void run() { go(); } }", "go();"),
    "anonymous_class_call": ("new R() { public void run() { go(); } }.run();", "go();"),
    "array_initializers": ("int[] a = {go()}, b = {2};", None),
    "block_lambda_argument": ("run(() -> { go(); }, () -> { x = 1; });", "go();"),
    "block_lambda_local": ("Runnable r = () -> { go(); };", "go();"),
    "top_level_equality": ("boolean same = go() == null;", None),
    "equality_before_a_block": ("r = c == d ? () -> { go(); } : null;", "go();"),
    "text_block": ('s = """\n            ; } {\n            """ + go();', None),
    "for_ever": ("for (;;) { go(); }", "go();"),
}


def _boundary_text(stmt):
    return ("class A {\n    void s(Vibrator v) {\n        int before = 1;\n        %s\n"
            "        v.vibrate(5);\n        int after = 2;\n    }\n}\n" % stmt)


@pytest.mark.parametrize("stmt, go_item", BOUNDARY_STATEMENTS.values(),
                         ids=BOUNDARY_STATEMENTS.keys())
@pytest.mark.parametrize("keep", [{"vibrate"}, {"vibrate", "go"}], ids=["skipped", "kept"])
def test_statement_ends_where_the_full_parse_ends_it(stmt, go_item, keep):
    text = _boundary_text(stmt)
    (s,) = jast.parse(text).types[0].methods
    # the statement walk steps over each statement as the full parse has it
    walked = jast.blocks_around(text, jast.check_balanced(text), [t.start for t in s.body])
    assert [text[start:end].strip() for _at, _blocks, start, end in walked] == [
        t.src for t in s.body]
    # each call is in the statement that holds it
    found = _items_in_code(text, keep)
    assert found == ([go_item or stmt] if "go" in keep else []) + [s.body[-2].src]
    assert s.body[-2].src == "v.vibrate(5);" and s.body[-1].src == "int after = 2;"


def test_a_site_in_the_first_of_many_methods_scans_no_other_method(monkeypatch):
    # after the last offset in a body, the walk steps over nothing more:
    # the 199 methods after the site's are never scanned
    first = "    void m0(Vibrator v) {\n        int x = 0;\n        v.vibrate(5);\n    }\n"
    rest = "".join("    void m%d() {\n        go(%d);\n    }\n" % (i, i) for i in range(1, 200))
    text = "class A {\n%s%s}\n" % (first, rest)
    calls = []
    member_end = jast._member_end
    monkeypatch.setattr(jast, "_member_end", lambda *args: calls.append(args[1])
                        or member_end(*args))
    ((_at, _blocks, start, end),) = _islands(text, ["vibrate"])
    assert len(calls) <= 4, len(calls)
    assert text[start:end].strip() == "v.vibrate(5);"


@pytest.mark.parametrize("fn, text", [
    (jast.parse_expr_text, "a)"),
    (jast.parse_expr_text, "(a"),
    (jast.parse_expr_text, "a +"),
    (jast.parse_stmt_text, "x = 1; y = 2;"),
    (jast.parse_stmt_text, "}"),
], ids=["trailing_close", "unclosed_paren", "missing_operand", "two_statements",
        "stray_close"])
def test_text_parsers_raise_the_public_error(fn, text):
    with pytest.raises(jast.ParseError):
        fn(text)


def test_unterminated_literal_is_a_parse_error():
    assert issubclass(jast.UnbalancedSource, jast.ParseError)
    with pytest.raises(jast.ParseError, match="unterminated string"):
        jast.parse_expr_text('"abc')


def test_deep_nesting_is_a_parse_error_not_a_recursion_error():
    # nesting of any depth parses
    deep = "(" * 300 + "1" + ")" * 300
    text = "class A { void m(Vibrator v) { x = %s; v.vibrate(5); } }" % deep
    assert jast.print_unit(jast.parse(text)) == text
    e = jast.parse_expr_text(deep)
    for _ in range(300):
        assert isinstance(e, jast.Paren)
        e = e.inner
    assert isinstance(e, jast.Literal) and e.lexeme == "1"


def test_patch_depth_nesting_still_parses():
    # generated patches nest up to 84 parentheses
    nested = "(" * 100 + "1" + ")" * 100
    text = "class A { void m(Vibrator v) { x = %s; v.vibrate(5); } }" % nested
    assert jast.print_unit(jast.parse(text)) == text
    assert jast.render_expr(jast.parse_expr_text(nested)) == nested


def test_parse_memory_is_linear_in_depth():
    # a node indexes the unit's text: no level holds a copy of the levels
    # below it, so the tree costs a fixed multiple of the text at any depth
    for depth in (2000, 8000):
        text = "class A { void f() { int x = %s1%s; } }\n" % ("(a + " * depth, ")" * depth)
        tracemalloc.start()
        try:
            unit = jast.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert unit.types[0].methods[0].body[0].init.src == text[text.index("(a"):text.index(";")]
        assert peak < 400 * len(text), (depth, peak / len(text))


def test_node_eq_and_repr_take_no_frame_a_level():
    # nodes compare by identity and repr shallowly, so neither recurses
    # into the tree; ast_equal is the structural comparison
    text = "(a + " * 10000 + "1" + ")" * 10000
    x, y = jast.parse_expr_text(text), jast.parse_expr_text(text)
    assert x == x and x != y
    assert repr(x) == "Paren(span=Span(start=0, end=%d))" % len(text)
    assert repr(x.inner.rhs) == "Paren(span=Span(start=5, end=%d))" % (len(text) - 1)
    assert jast.ast_equal(x, y)
    assert not jast.ast_equal(x, jast.parse_expr_text(text.replace("1", "2")))


def _parsed_nodes(unit):
    """Every node of unit: types, members, statements and expressions."""
    for tdecl, _outer in jast.iter_types(unit):
        yield tdecl
        for fdecl in tdecl.fields:
            yield fdecl
            if fdecl.initializer is not None:
                yield from jast.iter_exprs(fdecl.initializer)
        for mdecl in tdecl.methods:
            yield mdecl
            for stmt, _chain in jast.iter_statements(mdecl.body):
                yield stmt
                for root in jast.stmt_exprs(stmt):
                    yield from jast.iter_exprs(root)


@pytest.mark.parametrize("path", corpus_java_files() + sorted(CORPUS.glob("cases/*/expected/*.java")),
                         ids=lambda p: "/".join(p.parts[-3:]))
def test_src_is_a_view_of_the_unit_text(path, monkeypatch):
    text = read(path)
    with monkeypatch.context() as m:  # a parse builds no Span: positions are ints
        m.setattr(jast.Span, "__init__", _no_span)
        unit = jast.parse(text)
    nodes = list(_parsed_nodes(unit))
    assert nodes
    for node in nodes:
        assert node.unit_text is unit.text  # one shared string, no copy
        assert type(node.start) is int and type(node.end) is int
        assert node.span == jast.Span(node.start, node.end)  # a view, built on access
        assert node.src == text[node.start:node.end]
        if isinstance(node, (jast.MethodDecl, jast.TypeDecl)):
            assert node.body_span == (None if node.body_start is None
                                      else jast.Span(node.body_start, node.body_end))
    empty = {id(n.modifiers) for n in nodes if hasattr(n, "modifiers") and not n.modifiers}
    assert len(empty) <= 1  # declarations without modifiers share one set
    for stmt in nodes:
        for root in jast.stmt_exprs(stmt):
            copy = jast.rebuild(root, jast.child_exprs(root))  # over the parsed children
            assert copy.start is copy.end is copy.span is copy.src is None
            for copy in (jast.fold(root, jast.rebuild),
                         engine.substitute_expr(root, engine.MetaBinding())):
                assert all(e.src is None and e.span is None for e in jast.iter_exprs(copy))
        if isinstance(stmt, (jast.ExprStmt, jast.Return, jast.LocalVarDecl)):
            copy = engine.substitute_stmt(stmt, engine.MetaBinding())
            assert copy.src is None and copy.span is None
            for root in jast.stmt_exprs(copy):
                assert all(e.src is None for e in jast.iter_exprs(root))


def _no_span(self, start, end):
    raise AssertionError("a Span was built")


def _shared_texts(unit) -> bool:
    """Whether, within unit, each identifier of a Name and each type text
    is one string object per distinct value."""
    seen = {}
    for node in _parsed_nodes(unit):
        texts = [node.identifier] if type(node) is jast.Name else [
            getattr(node, f) for f in ("type_name", "return_type") if hasattr(node, f)]
        if isinstance(node, jast.MethodDecl):
            texts += [t for param in node.params for t in param]
        if any(seen.setdefault(t, t) is not t for t in texts):
            return False
    return True


def test_a_parsed_tree_is_lean_on_benchmark_inputs(monkeypatch):
    # the benchmark's generate_chains examples of seed 0, read only: the
    # memory a parse holds, per source byte, as tracemalloc counts it
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    texts = [item.text for item in importlib.import_module("gen").generate_chains(0, CORPUS)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        units = [jast.parse(text) for text in texts]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_byte = held / sum(map(len, texts))
    assert per_byte <= 10, per_byte
    # within a unit, one string per distinct identifier and type text; the
    # equal modifier sets of every unit are one object
    assert all(_shared_texts(unit) for unit in units)
    sets = {}
    for unit in units:
        for node in _parsed_nodes(unit):
            mods = getattr(node, "modifiers", None)
            if mods is not None:
                assert sets.setdefault(mods, mods) is mods
    assert len(sets) > 2, sets


def test_iter_exprs_walks_a_deep_chain_in_pre_order():
    chain = jast.parse_expr_text(" + ".join("t%d" % i for i in range(5000)))
    # a left-deep chain in pre-order: the operators from the root down, the
    # first operand, then each operator's right operand from the bottom up
    ops = []
    e = chain
    while isinstance(e, jast.Binary):
        ops.append(e)
        e = e.lhs
    want = ops + [e] + [b.rhs for b in reversed(ops)]
    got = list(jast.iter_exprs(chain))
    assert len(got) == 9999
    assert all(a is b for a, b in zip(got, want))
    assert [n.identifier for n in got[4999:]] == ["t%d" % i for i in range(5000)]


def test_iter_exprs_order_matches_a_recursive_walk():
    def walk(e):
        yield e
        for c in jast.child_exprs(e):
            yield from walk(c)

    e = jast.parse_expr_text("a.f(b + -c * k, new T((int) d, (e = g)), h.i).m()")
    assert [id(x) for x in jast.iter_exprs(e)] == [id(x) for x in walk(e)]


# -- render_expr round trip ------------------------------------------------------

def _strip_parens(e):
    return _strip_parens(e.inner) if isinstance(e, jast.Paren) else jast.rebuild(
        e, [_strip_parens(c) for c in jast.child_exprs(e)])


def _leaf(rng):
    return rng.choice([jast.Name(rng.choice("abcdt")), jast.Literal("int", str(rng.randrange(9))),
                       jast.Literal("string", '"s"'), jast.Literal("bool", "true")])


def _receiver(rng, depth):
    """Any expression but a number, whose `5.` would lex as a float."""
    e = _tree(rng, depth)
    return e if not (isinstance(e, jast.Literal) and e.kind == "int") else jast.Name("r")


def _tree(rng, depth):
    """A synthesized expression without Paren nodes."""
    if depth == 0:
        return _leaf(rng)
    sub = lambda: _tree(rng, depth - 1)  # noqa: E731
    kind = rng.randrange(9)
    if kind == 0:
        return jast.Binary(rng.choice(list(jast.BINARY_LEVEL)), sub(), sub())
    if kind == 1:
        return jast.Unary(rng.choice("!-+~"), sub())
    if kind == 2:  # the parser reads `(int) -x` as a subtraction
        operand = sub()
        while isinstance(operand, jast.Unary):
            operand = sub()
        return jast.Cast(rng.choice(["int", "long", "String"]), operand)
    if kind == 3:
        lhs = rng.choice([jast.Name("x"), jast.FieldAccess(_receiver(rng, depth - 1), "f")])
        return jast.Assign(lhs, sub())
    if kind == 4:
        return jast.FieldAccess(_receiver(rng, depth - 1), "g")
    if kind == 5:
        receiver = rng.choice([None, _receiver(rng, depth - 1)])
        return jast.MethodCall(receiver, "m", [sub() for _ in range(rng.randrange(3))])
    if kind == 6:
        return jast.ObjectCreation("T", [sub() for _ in range(rng.randrange(3))])
    return _leaf(rng)


def _round_trips(tree):
    text = jast.render_expr(tree)
    assert jast.ast_equal(_strip_parens(jast.parse_expr_text(text)), tree), text


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_render_keeps_every_binary_operator_pairing(side):
    a, b, c = jast.Name("a"), jast.Name("b"), jast.Name("c")
    for outer in jast.BINARY_LEVEL:
        for inner in jast.BINARY_LEVEL:
            nested = jast.Binary(inner, a, b)
            _round_trips(jast.Binary(outer, nested, c) if side == "lhs"
                         else jast.Binary(outer, c, nested))


def test_render_keeps_operands_and_receivers_apart():
    x, y = jast.Name("x"), jast.Name("y")
    loose = [jast.Binary("+", x, y), jast.Unary("-", x), jast.Cast("int", x),
             jast.Assign(jast.Name("z"), x)]
    for op in "!-+~":
        for inner in "!-+~":
            _round_trips(jast.Unary(op, jast.Unary(inner, x)))
    for e in loose:
        _round_trips(jast.MethodCall(e, "m", []))
        _round_trips(jast.FieldAccess(e, "f"))
    assign = loose[3]
    for tree in (jast.Binary("*", assign, y), jast.Binary("*", y, assign),
                 jast.Unary("-", assign), jast.Cast("int", assign)):
        _round_trips(tree)


def test_render_round_trips_random_synthesized_trees():
    rng = random.Random(20201214)
    for _ in range(600):
        _round_trips(_tree(rng, rng.randrange(1, 5)))
