"""Print the parse-error corpus that tests/test_dsl.py pins, as JSON.

Each entry is a malformed input and str() of the ParseError that
qid.dsl.parse raises on it, or null when it parses.  The inputs are every
identity side of the bundled registry with one token deleted, duplicated
or replaced (random.Random(27)), a quarter of them spread over several
lines, three inputs the CI job also checks, and one input for each other
message the parser has.  The file was written by
the parser that tokenised with one Match object per token:

    PYTHONPATH=src python scripts/parse_error_corpus.py > tests/data/parse_errors.json
"""

import json
import random
import re

from qid import ParseError, dsl, load_registry

#: a token of the DSL, found here without qid's own tokenizer
TOKEN = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|[-+*/^(),]")
#: the other messages: bounds, call arguments, nesting, empty input
OTHERS = ("1/0", "3/00*q", "SUBST(q, 0)", "SUBST(f1, -2)", "EXTRACT(q, 2, -1)",
          "f1^9223372036854775808", "f1^-99999999999999999999", "q^--2",
          "0" * 6000 + "7", "2/" + "9" * 4400, "(" * 101 + "q" + ")" * 101,
          "-" * 101 + "q", "-(" * 50 + "q" + ")" * 50, "MT(X1)", "MT(q)",
          "AL(q, 2)", "AL(q, 2, 3)", "J(2, 3)", "J(-q^-2, 4", "J(-q^-2 4)",
          "f00", "f01^2*F1", "", "   \n  ", "q\n\n  @", "1 2", "q)",
          "f1 +\n  \n(f2 ^ 3", "EXTRACT(f1, 0, 0)", "SUBST(f1)")
REPLACEMENTS = ("(", ")", "+", "-", "*", "/", "^", ",", "q", "f0", "f3",
                "7", "0", "MT", "J", "P", "B1", "@", ".")


def inputs():
    rng = random.Random(27)
    sides = [s for r in load_registry() if r.kind == "identity"
             for s in (r.lhs, r.rhs)]
    for side in sides:
        spans = [m.span() for m in TOKEN.finditer(side)]
        for how in ("delete", "duplicate", "replace"):
            s, e = rng.choice(spans)
            middle = {"delete": "", "duplicate": 2 * side[s:e],
                      "replace": rng.choice(REPLACEMENTS)}[how]
            src = side[:s] + middle + side[e:]
            if rng.random() < 0.25:
                src = src.replace(" ", "\n", rng.randint(1, 5))
            yield src
    yield "1" + "0" * 5000
    yield "EXTRACT(f1, 3, 3)"
    yield "P(q, 1, 2)"
    yield from OTHERS


def outcome(src: str):
    try:
        dsl.parse(src)
    except ParseError as exc:
        return str(exc)
    return None


if __name__ == "__main__":
    print(json.dumps([{"src": s, "error": outcome(s)} for s in inputs()],
                     indent=0))
