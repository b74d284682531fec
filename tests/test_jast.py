import random

import pytest

from api_evolve import jast

from conftest import corpus_java_files


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
    assert stmt.text == "while (x) { a.f(); }"
    assert jast.print_unit(unit) == text


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


def test_render_stmt_synthesized():
    stmt = jast.If(jast.parse_expr_text("x > 0"),
                   jast.Block([jast.ExprStmt(jast.parse_expr_text("a.f()"))]),
                   jast.Block([jast.ExprStmt(jast.parse_expr_text("a.g()"))]))
    rendered = jast.render_stmt(stmt)
    assert rendered.splitlines() == [
        "if (x > 0) {",
        "    a.f();",
        "} else {",
        "    a.g();",
        "}",
    ]


def test_else_keyword_on_own_line_after_apply():
    # the renderer's if/else convention places "} else {" on its own line
    stmt = jast.parse_stmt_text("if (a) { x.f(); } else { x.g(); }")
    assert "} else {" in jast.render_stmt(stmt).splitlines()


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
        ("num", "0x1FL", 0, 5), ("num", "1.5e-3f", 6, 13), ("num", "1", 14, 15),
        ("ident", "_000", 15, 19), ("punct", ".", 20, 21), ("num", "5", 21, 22),
        ("num", "7d", 23, 25)]),
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


def test_superscript_digit_is_a_punct_token():
    # '²'.isdigit() is true but it is no decimal digit, so it cannot start a number
    assert toks("2²") == [("num", "2", 0, 1), ("punct", "²", 1, 2), ("eof", "", 2, 2)]
    text = "class A { int x = 2²; void m() { a.f(); } }"
    unit = jast.parse(text)
    assert jast.print_unit(unit) == text
    assert [m.name for m in unit.types[0].methods] == ["m"]


def test_parse_lexes_once(monkeypatch, vibrate_example):
    calls = []
    for name in ("tokenize", "check_balanced"):
        monkeypatch.setattr(jast, name, lambda text, fn=getattr(jast, name), name=name:
                            calls.append(name) or fn(text))
    jast.parse(vibrate_example)
    assert calls == ["tokenize"]


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


def _mutant(rng, text):
    """One seeded edit of the kind a truncated or hand-edited file shows."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(5)
    if op == 0:
        return text[:i]
    if op == 1:
        return text[:i] + text[i + rng.randint(1, 20):]
    if op == 2:
        return text[:i] + rng.choice("\"'/*{}()[];<>") + text[i:]
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    if op == 3:
        return "\n".join(lines[:k + 1] + lines[k:])
    return "\n".join(lines[:k] + lines[k + 1:])


def _fault(fn, text):
    try:
        fn(text)
    except jast.UnbalancedSource as exc:
        return str(exc)
    return None


def test_check_balanced_faults_exactly_where_parse_does():
    texts = [read(p) for p in corpus_java_files()]
    rng = random.Random(20081)
    texts += [_mutant(rng, rng.choice(texts)) for _ in range(1200)]
    faults = [_fault(jast.parse, t) for t in texts]
    assert faults == [_fault(jast.check_balanced, t) for t in texts]
    assert 300 < sum(f is not None for f in faults) < len(texts) - 300
