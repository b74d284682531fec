"""Random straight-line programs with an independently interpreted answer.

Each generated program declares integer constants and a method of local
declarations and reassignments, ending in ``use(<name>);``.  The expected
value of the used variable is computed by direct sequential interpretation
of the statement texts, completely independent of the resolver under test.
"""

import random

from api_evolve import dataflow, jast, scope, sigmap

OPS = ["+", "-", "*"]  # operators whose semantics match the interpreter host


def gen_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        if names and rng.random() < 0.6:
            return rng.choice(names)
        return str(rng.randint(0, 9))
    r = rng.random()
    if r < 0.12:
        return "-" + gen_expr(rng, names, 0)
    if r < 0.27:
        return "(" + gen_expr(rng, names, depth - 1) + ")"
    op = rng.choice(OPS)
    return "%s %s %s" % (gen_expr(rng, names, depth - 1), op,
                         gen_expr(rng, names, depth - 1))


def _interp(expr_src, env):
    return eval(expr_src, {"__builtins__": {}}, dict(env))


def generate(rng):
    """Return (program_text, variable_name, expected_int_value)."""
    lines = ["class P {"]
    env = {}
    fields = []
    for i in range(rng.randint(0, 3)):
        name = "F%d" % i
        expr = gen_expr(rng, fields, 1)
        env[name] = _interp(expr, env)
        lines.append("    static final int %s = %s;" % (name, expr))
        fields.append(name)
    lines.append("    void m() {")
    scope = list(fields)
    locals_ = []
    for i in range(rng.randint(3, 8)):
        expr = gen_expr(rng, scope, 2)
        if locals_ and rng.random() < 0.3:
            name = rng.choice(locals_)
            lines.append("        %s = %s;" % (name, expr))
        else:
            name = "v%d" % i
            lines.append("        int %s = %s;" % (name, expr))
            locals_.append(name)
            scope.append(name)
        env[name] = _interp(expr, env)
    target = rng.choice(locals_ or scope)
    lines.append("        use(%s);" % target)
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n", target, env[target]


def resolve_used_arg(text):
    """Parse the program and resolve the argument of the use(...) marker."""
    unit = jast.parse(text)
    site = sigmap.find_invocations(unit, sigmap.ApiSignature("", "use", ("?",)))[-1]
    return dataflow.resolve_expression(site.call.args[0], scope.at_site(site, unit))


def check_one(rng):
    """Generate one program; return (ok, program_text, detail)."""
    text, target, expected = generate(rng)
    value = resolve_used_arg(text)
    if not value.resolved:
        return False, text, "unresolved %s" % target
    rendered = jast.render_expr(value.expr)
    try:
        got = eval(rendered, {"__builtins__": {}}, {})
    except NameError:
        return False, text, "not ground: %s" % rendered
    if got != expected:
        return False, text, "%s -> %s = %r, expected %r" % (
            target, rendered, got, expected)
    return True, text, rendered
