"""Expression DSL for transcribing identities.

Grammar (whitespace-insensitive, left-associative binaries, ^ > */ > +-):

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | factor
    factor := atom ("^" int)?
    atom   := rat | "q" | "f" INT | "(" expr ")" | call
    call   := NAME "(" args ")"   with NAME in {AL, J, P, MT, EXTRACT, SUBST}
    rat    := INT ("/" INT)?      (the "/" is folded into the literal only
                                   when the denominator is not itself raised
                                   to a power, so 8/4^2 means 8/(4^2))
    sm     := ("-")? "q" ("^" int)?   (signed-monomial call argument;
                                       q^0 denotes +1, -q^0 denotes -1)

AL(x, base, z) is the Appell-Lerch sum m(x, q^base, z); J(z, base) is
j(z;q^base); P(a, step, n) the finite Pochhammer product; MT(sel) a mock
theta series; EXTRACT(e, m, r), 0 <= r < m, residue-class dissection;
SUBST(e, m), m >= 1, the substitution q -> q^m.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .mock_theta import SELECTORS
from .qproducts import SignedMonomial
from .record import Record


# -- AST --------------------------------------------------------------------
# Fields are child nodes, ints, the Fraction of a Lit, the SignedMonomial
# arguments of AL/J/P, or the selector string of an MT.

class Lit(Record):
    __slots__ = __match_args__ = ("value",)


class Q(Record):
    __slots__ = __match_args__ = ()


class F(Record):
    __slots__ = __match_args__ = ("k",)


class Add(Record):
    __slots__ = __match_args__ = ("left", "right")


class Sub(Record):
    __slots__ = __match_args__ = ("left", "right")


class Mul(Record):
    __slots__ = __match_args__ = ("left", "right")


class Div(Record):
    __slots__ = __match_args__ = ("left", "right")


class Neg(Record):
    __slots__ = __match_args__ = ("operand",)


class Pow(Record):
    __slots__ = __match_args__ = ("base", "exp")


class AL(Record):
    __slots__ = __match_args__ = ("x", "base", "z")


class J(Record):
    __slots__ = __match_args__ = ("z", "base")


class P(Record):
    __slots__ = __match_args__ = ("a", "step", "n")


class MT(Record):
    __slots__ = __match_args__ = ("sel",)


class Extract(Record):
    __slots__ = __match_args__ = ("expr", "m", "r")


class Subst(Record):
    __slots__ = __match_args__ = ("expr", "m")

    def _check(self):
        if self.m < 1:
            raise ValueError(f"SUBST power {self.m} is not positive")


CALL_NAMES = ("AL", "J", "P", "MT", "EXTRACT", "SUBST")

#: Deepest nesting of parentheses, call arguments and unary minus the
#: parser accepts.  Every walk over a tree recurses at most a few frames
#: per level, and only there: a flat chain such as a sum of thousands of
#: terms is walked in a loop.  So an input nested deeper is a ParseError
#: rather than a RecursionError.  The registry nests at most 4 deep.
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^(),])")
#: any character no token starts with, other than whitespace
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z\-+*/^(),]")
_KINDS = ("", "INT", "NAME", "OP")


class _Parser:
    def __init__(self, src: str):
        self.src = src = src.rstrip()
        bad = _BAD_CHAR_RE.search(src)
        if bad:
            self.fail(f"unexpected character {bad.group()!r}", bad.start())
        # (kind, text, offset); finditer skips only whitespace, since every
        # other character starts a token.  An offset becomes a line and a
        # column only in fail().  End of input sits one past the start of
        # the last token.
        self.toks = [(_KINDS[m.lastindex], m.group(), m.start())
                     for m in _TOKEN_RE.finditer(src)]
        self.toks.append(("EOF", "", self.toks[-1][2] + 1 if self.toks else 1))
        self.i = 0
        self.depth = 0

    def fail(self, message, offset: int, expected=()):
        src = self.src
        raise ParseError(message, src.count("\n", 0, offset) + 1,
                         offset - src.rfind("\n", 0, offset), expected)

    def peek(self, ahead: int = 0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "EOF":
            self.i += 1
        return t

    def error(self, expected):
        kind, text, offset = self.peek()
        self.fail(f"unexpected {text or 'end of input'!r}", offset, expected)

    def enter(self, offset: int):
        """One level deeper (see MAX_NESTING); the caller steps back out."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} deep", offset)

    def expect_op(self, op: str):
        if self.peek()[:2] == ("OP", op):
            return self.next()
        self.error({f"'{op}'"})

    def expect_int(self) -> int:
        neg = False
        if self.peek()[:2] == ("OP", "-"):
            self.next()
            neg = True
        kind, text, _ = self.peek()
        if kind != "INT":
            self.error({"integer"})
        self.next()
        return -int(text) if neg else int(text)

    # grammar -------------------------------------------------------------

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "EOF":
            self.error({"operator", "end of input"})
        return e

    def expr(self):
        self.enter(self.peek()[2])
        e = self.term()
        while self.peek()[:2] in (("OP", "+"), ("OP", "-")):
            op = self.next()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        self.depth -= 1
        return e

    def term(self):
        e = self.unary()
        while self.peek()[:2] in (("OP", "*"), ("OP", "/")):
            op = self.next()[1]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.peek()[:2] == ("OP", "-"):
            self.enter(self.next()[2])
            e = Neg(self.unary())
            self.depth -= 1
            return e
        return self.factor()

    def factor(self):
        a = self.atom()
        if self.peek()[:2] == ("OP", "^"):
            self.next()
            return Pow(a, self.expect_int())
        return a

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "INT":
            self.next()
            # rational literal INT/INT, unless the denominator is powered
            if self.peek()[:2] == ("OP", "/") and self.peek(1)[0] == "INT" \
                    and self.peek(2)[:2] != ("OP", "^"):
                self.next()
                den = int(self.next()[1])
                if den == 0:
                    self.fail("zero denominator in rational literal", offset)
                return Lit(Fraction(int(text), den))
            return Lit(Fraction(int(text)))
        if kind == "NAME":
            if text == "q":
                self.next()
                return Q()
            fm = re.fullmatch(r"f(0*[1-9]\d*)", text)  # f_k needs k >= 1
            if fm:
                self.next()
                return F(int(fm.group(1)))
            if text in CALL_NAMES:
                return self.call()
            self.error({"'q'", "'f<k>'", *(f"'{n}'" for n in CALL_NAMES)})
        if kind == "OP" and text == "(":
            self.next()
            e = self.expr()
            self.expect_op(")")
            return e
        self.error({"number", "'q'", "'f<k>'", "'('", "call"})

    def call(self):
        name = self.next()[1]
        self.expect_op("(")
        if name == "AL":
            x = self.signed_monomial()
            self.expect_op(",")
            base = self.expect_int()
            self.expect_op(",")
            z = self.signed_monomial()
            node = AL(x, base, z)
        elif name == "J":
            z = self.signed_monomial()
            self.expect_op(",")
            node = J(z, self.expect_int())
        elif name == "P":
            a = self.signed_monomial()
            self.expect_op(",")
            step = self.expect_int()
            self.expect_op(",")
            node = P(a, step, self.expect_int())
        elif name == "MT":
            kind, sel, _ = self.peek()
            if kind != "NAME" or sel not in SELECTORS:
                self.error({f"'{s}'" for s in SELECTORS})
            self.next()
            node = MT(sel)
        elif name == "EXTRACT":
            e = self.expr()
            self.expect_op(",")
            m = self.expect_int()
            self.expect_op(",")
            r = self.expect_int()
            if not 0 <= r < m:
                self.fail(f"EXTRACT residue {r} not in [0, {m})",
                          self.peek()[2])
            node = Extract(e, m, r)
        else:  # SUBST
            e = self.expr()
            self.expect_op(",")
            offset, m = self.peek()[2], self.expect_int()
            if m < 1:
                self.fail(f"SUBST power {m} is not positive", offset)
            node = Subst(e, m)
        self.expect_op(")")
        return node

    def signed_monomial(self) -> SignedMonomial:
        sign = 1
        if self.peek()[:2] == ("OP", "-"):
            self.next()
            sign = -1
        if self.peek()[:2] != ("NAME", "q"):
            self.error({"'q'", "'-q'"})
        self.next()
        exp = 1
        if self.peek()[:2] == ("OP", "^"):
            self.next()
            exp = self.expect_int()
        return SignedMonomial(sign, exp)


def parse(src: str):
    return _Parser(src).parse()


#: the operator each binary node prints as, and its precedence level
_BINARY = {Add: ("+", 1), Sub: ("-", 1), Mul: ("*", 2), Div: ("/", 2)}


def _joins(node, left) -> bool:
    """Whether the left operand prints inside node's parentheses: an
    operator of node's level, unless a bare integer would end it before a
    "/", which the parser would fold into a rational literal."""
    return (_BINARY.get(type(left), (0, 0))[1] == _BINARY[type(node)][1]
            and not (type(node) is Div and type(left.right) is Lit
                     and left.right.value.denominator == 1))


def print_expr(e) -> str:
    """Render an AST so that parse(print_expr(e)) == e, parenthesizing
    every operator but a left operand on its own level: (a+b-c) parses as
    ((a+b)-c), so a chain of k terms is printed in a loop and nests one
    level deep, not k."""
    if type(e) in _BINARY:
        parts = []
        while True:
            parts += (print_expr(e.right), _BINARY[type(e)][0])
            if not _joins(e, e.left):
                break
            e = e.left
        parts.append(print_expr(e.left))
        return "(" + "".join(reversed(parts)) + ")"
    match e:
        case Lit(v):
            return str(v.numerator) if v.denominator == 1 \
                else f"({v.numerator}/{v.denominator})"
        case Q():
            return "q"
        case F(k):
            return f"f{k}"
        case Neg(a):
            return f"(-{print_expr(a)})"
        case Pow(Pow() as a, n):
            return f"({print_expr(a)})^{n}"
        case Pow(a, n):
            return f"{print_expr(a)}^{n}"
        case AL(x, base, z):
            return f"AL({x}, {base}, {z})"
        case J(z, base):
            return f"J({z}, {base})"
        case P(a, step, n):
            return f"P({a}, {step}, {n})"
        case MT(sel):
            return f"MT({sel})"
        case Extract(inner, m, r):
            return f"EXTRACT({print_expr(inner)}, {m}, {r})"
        case Subst(inner, m):
            return f"SUBST({print_expr(inner)}, {m})"
    raise TypeError(f"not an expression node: {e!r}")
