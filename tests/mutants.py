"""Seeded edits of source text, of the kind a truncated or hand-edited
file shows. It needs no pytest, so a plain script can use it too."""


def mutant(rng, text):
    """One seeded edit: a cut, a deletion, an inserted quote, comment
    opener or bracket, or a duplicated or dropped line."""
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
