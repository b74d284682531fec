import importlib
import random

import pytest

from api_evolve import jast, sigmap

from conftest import CORPUS, REPO, corpus_java_files


def test_parse_signature_full():
    sig = sigmap.parse_signature("android.os.Vibrator#vibrate(long, int)")
    assert sig.class_name == "android.os.Vibrator"
    assert sig.method_name == "vibrate"
    assert sig.param_types == ("long", "int")
    assert sig.arity == 2


def test_parse_signature_no_params():
    sig = sigmap.parse_signature("android.widget.TimePicker#getCurrentMinute()")
    assert sig.param_types == ()
    assert sig.arity == 0


def test_parse_signature_array_and_generics():
    sig = sigmap.parse_signature("a.B#m(long[], java.util.List<java.lang.String>)")
    assert sig.param_types == ("long[]", "java.util.List<java.lang.String>")


@pytest.mark.parametrize("bad", [
    "", "no-hash", "a.B#", "a.B#m", "#m()", "a.B#m(", "a.B#m)", "a.B m()",
])
def test_parse_signature_malformed(bad):
    with pytest.raises(sigmap.MalformedSignature):
        sigmap.parse_signature(bad)


def test_simple_name():
    assert sigmap.simple_name("android.os.VibrationEffect") == "VibrationEffect"
    assert sigmap.simple_name("long") == "long"
    assert sigmap.simple_name("long[]") == "long[]"


def test_signatures_are_values_hashed_and_frozen():
    text = "android.os.Vibrator#vibrate(long)"
    sig = sigmap.parse_signature(text)
    assert sig == sigmap.parse_signature(text) and sig is not sigmap.parse_signature(text)
    assert {sig, sigmap.parse_signature(text)} == {sig}
    other = sigmap.parse_signature(text.replace("long", "int"))
    assert sig != other
    assert repr(sig) == ("ApiSignature(class_name='android.os.Vibrator', "
                         "method_name='vibrate', param_types=('long',))")
    mapping = sigmap.ApiMapping(sig, other)
    assert hash(mapping) == hash(sigmap.ApiMapping(sigmap.parse_signature(text), other))
    for value, name in ((sig, "method_name"), (mapping, "deprecated")):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(value, name)


def test_mapping_rejects_identity():
    sig = sigmap.parse_signature("a.B#m(int)")
    with pytest.raises(sigmap.MalformedSignature):
        sigmap.ApiMapping(sig, sig)


def test_find_invocations_name_and_arity():
    unit = jast.parse(
        "class A {\n"
        "    void m(Vibrator v) {\n"
        "        v.vibrate(50);\n"
        "        v.vibrate(50, 1);\n"
        "        other.vibrate(9);\n"
        "    }\n"
        "}\n")
    sig = sigmap.parse_signature("android.os.Vibrator#vibrate(long)")
    sites = sigmap.find_invocations(unit, sig)
    assert [s.call.src for s in sites] == ["v.vibrate(50)", "other.vibrate(9)"]
    assert all(s.enclosing_method.name == "m" for s in sites)


def test_find_invocations_source_order_across_methods():
    unit = jast.parse(
        "class A {\n"
        "    void a(Vibrator v) { v.vibrate(1); }\n"
        "    void b(Vibrator v) { v.vibrate(2); }\n"
        "}\n")
    sig = sigmap.parse_signature("android.os.Vibrator#vibrate(long)")
    sites = sigmap.find_invocations(unit, sig)
    assert [s.call.args[0].lexeme for s in sites] == ["1", "2"]
    assert sites[0].call.span.start < sites[1].call.span.start


def test_find_invocations_field_initializer():
    unit = jast.parse(
        "class A {\n"
        "    Spanned s = Html.fromHtml(raw);\n"
        "}\n")
    sig = sigmap.parse_signature("android.text.Html#fromHtml(java.lang.String)")
    (site,) = sigmap.find_invocations(unit, sig)
    assert site.enclosing_stmt is None
    assert site.field is not None and site.field.name == "s"


def test_find_invocations_nested_expression():
    unit = jast.parse(
        "class A {\n"
        "    void m(TimePicker tp) {\n"
        "        int x = tp.getCurrentMinute() + 1;\n"
        "    }\n"
        "}\n")
    sig = sigmap.parse_signature("android.widget.TimePicker#getCurrentMinute()")
    (site,) = sigmap.find_invocations(unit, sig)
    assert site.call.name == "getCurrentMinute"
    assert isinstance(site.enclosing_stmt, jast.LocalVarDecl)


@pytest.mark.parametrize("ptype", [
    "Map<String, Long>", "Map<String, List<Long>>", "Map<String, List<Set<Long>>>",
    "Map<List<Long>, List<Long>>"])
def test_sites_found_after_a_type_that_closes_several_levels(ptype):
    text = "class A { void m(Vibrator v, %s d) { v.vibrate(5); } }" % ptype
    unit = jast.parse(text)
    sig = sigmap.parse_signature("android.os.Vibrator#vibrate(long)")
    sites = sigmap.find_invocations(unit, sig)
    assert [s.enclosing_method.params for s in sites] == [[("Vibrator", "v"), (ptype, "d")]]
    assert jast.print_unit(unit) == text


@pytest.mark.parametrize("ptype", ["List<Long>>", "List<Long>> <X<Y>"])
def test_type_arguments_closed_too_often_are_not_a_type(ptype):
    unit = jast.parse("class A { void m(%s d) { v.vibrate(5); } }" % ptype)
    assert unit.types[0].methods == []


def _unpruned_sites(unit, sig):
    """find_invocations without the text test: every expression of every
    field initializer and statement is walked."""
    sites = []
    for tdecl, outer in jast.iter_types(unit):
        for fdecl in tdecl.fields:
            if fdecl.initializer is None:
                continue
            for e in jast.iter_exprs(fdecl.initializer):
                if sigmap._matches(e, sig):
                    sites.append(sigmap.CallSite(e, None, None, tdecl, field=fdecl,
                                                 outer_types=outer))
        for mdecl in tdecl.methods:
            for stmt, chain in jast.iter_statements(mdecl.body):
                for root in jast.stmt_exprs(stmt):
                    for e in jast.iter_exprs(root):
                        if sigmap._matches(e, sig):
                            sites.append(sigmap.CallSite(e, stmt, mdecl, tdecl,
                                                         stmt_chain=chain, outer_types=outer))
    sites.sort(key=lambda s: s.call.span.start)
    return sites


def _identity(site):
    return (id(site.call), id(site.enclosing_stmt), tuple(map(id, site.stmt_chain)),
            id(site.enclosing_method), id(site.enclosing_type), id(site.field),
            tuple(map(id, site.outer_types)))


SEARCH_NAMES = ("vibrate", "setSound", "fromHtml", "getCurrentMinute", "createOneShot",
                "makeAttrs", "build", "v")


def _site_mutant(rng, text):
    """A seeded edit: a deleted run, a duplicated line, a truncation, or a
    call of one of the searched names put in at a random offset."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(4)
    if op == 0:
        return text[:i] + text[i + rng.randint(1, 30):]
    if op == 1:
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        return "\n".join(lines[:k + 1] + lines[k:])
    if op == 2:
        return text[:i]
    call = "x.%s(%s);" % (rng.choice(SEARCH_NAMES), ", ".join(["a"] * rng.randrange(3)))
    return text[:i] + call + text[i:]


def test_pruned_search_finds_what_the_full_walk_finds():
    texts = [p.read_bytes().decode("utf-8") for p in corpus_java_files()]  # CRLF kept
    rng = random.Random(9090)
    texts += [_site_mutant(rng, rng.choice(texts)) for _ in range(200)]
    units = found = 0
    for text in texts:
        for name in SEARCH_NAMES:
            try:
                unit = jast.parse(text)
            except jast.ParseError:
                continue
            units += 1
            for arity in range(4):
                sig = sigmap.ApiSignature("", name, ("?",) * arity)
                want = [_identity(s) for s in _unpruned_sites(unit, sig)]
                assert [_identity(s) for s in sigmap.find_invocations(unit, sig)] == want
                found += len(want)
    # neither every text failing to parse nor no site found would show anything
    assert units > 1000 and found > 150


def test_search_walks_only_statements_that_name_the_method(monkeypatch):
    filler = "".join("    int f%d(int a) { int b = a * 2; if (b > 3) { b = b + 1; } return b; }\n"
                     % i for i in range(30))
    text = ("class A {\n%s"
            "    void m(Vibrator v, int d) {\n"
            "        int x = d + 1;\n"
            "        if (x > 0) { v.vibrate(x); } else { x = 0; }\n"
            "    }\n}\n" % filler)
    unit = jast.parse(text)
    every = [s for t, _ in jast.iter_types(unit) for m in t.methods
             for s, _ in jast.iter_statements(m.body)]
    naming = [s for s in every if "vibrate" in s.src]
    walked = []
    stmt_exprs = jast.stmt_exprs
    monkeypatch.setattr(jast, "stmt_exprs", lambda s: walked.append(s) or stmt_exprs(s))
    (site,) = sigmap.find_invocations(unit, sigmap.parse_signature("a.V#vibrate(long)"))
    assert site.enclosing_method.name == "m"
    assert len(every) > 150
    assert [id(s) for s in walked] == [id(s) for s in naming] and len(naming) == 3


def test_search_enters_only_statements_that_hold_the_name(monkeypatch):
    # on the benchmark's generate_chains examples of seed 0, each of whose
    # chain methods holds up to 150 statements: every statement whose
    # expression the search reads, or below which it looks, holds an
    # occurrence of the method's name, found by bisecting its statement
    # list, not by visiting the statements in front of it
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    gen = importlib.import_module("gen")
    units = [jast.parse(item.text) for item in gen.generate_chains(0, CORPUS)]
    sig = sigmap.parse_signature("android.os.Vibrator#vibrate(long)")
    visited = []
    for name in ("stmt_exprs", "child_stmts"):
        monkeypatch.setattr(jast, name, lambda s, fn=getattr(jast, name): visited.append(s) or fn(s))
    found = [sigmap.find_invocations(unit, sig) for unit in units]
    monkeypatch.undo()
    every = [s for unit in units for t, _ in jast.iter_types(unit) for m in t.methods
             for s, _ in jast.iter_statements(m.body)]
    holding = {id(s) for s in every if s.unit_text.find("vibrate", s.start, s.end) >= 0}
    assert {id(s) for s in visited} == holding
    assert len(every) > 20 * len(holding) and sum(map(len, found)) >= len(units)
