import pytest

from api_evolve import jast, sigmap


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
