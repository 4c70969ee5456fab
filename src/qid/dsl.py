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
theta series; EXTRACT(e, m, r) residue-class dissection; SUBST(e, m) the
substitution q -> q^m.
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


CALL_NAMES = ("AL", "J", "P", "MT", "EXTRACT", "SUBST")

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^(),]))")


class _Lexer:
    def __init__(self, src: str):
        src = src.rstrip()
        self.src = src
        self.tokens: list[tuple[str, str, int, int]] = []  # (kind, text, line, col)
        line, col, pos = 1, 1, 0
        while pos < len(src):
            m = _TOKEN_RE.match(src, pos)
            if not m or m.end() == pos:
                bad = pos
                while src[bad].isspace():
                    bad += 1
                nl = src.count("\n", 0, bad)
                col_ = bad - (src.rfind("\n", 0, bad) + 1) + 1
                raise ParseError(f"unexpected character {src[bad]!r}", nl + 1, col_)
            ws_end = m.start(m.lastindex)
            line += src.count("\n", pos, ws_end)
            last_nl = src.rfind("\n", 0, ws_end)
            col = ws_end - last_nl if last_nl >= 0 else ws_end + 1
            kind = ("INT", "NAME", "OP")[m.lastindex - 1]
            self.tokens.append((kind, m.group(m.lastindex), line, col))
            pos = m.end()
        self.tokens.append(("EOF", "", line, col + 1))


class _Parser:
    def __init__(self, src: str):
        self.toks = _Lexer(src).tokens
        self.i = 0

    def peek(self, ahead: int = 0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "EOF":
            self.i += 1
        return t

    def error(self, expected):
        kind, text, line, col = self.peek()
        what = text or "end of input"
        raise ParseError(f"unexpected {what!r}", line, col, expected)

    def expect_op(self, op: str):
        kind, text, line, col = self.peek()
        if kind == "OP" and text == op:
            return self.next()
        self.error({f"'{op}'"})

    def expect_int(self) -> int:
        neg = False
        if self.peek()[:2] == ("OP", "-"):
            self.next()
            neg = True
        kind, text, line, col = self.peek()
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
        e = self.term()
        while self.peek()[:2] in (("OP", "+"), ("OP", "-")):
            op = self.next()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
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
            self.next()
            return Neg(self.unary())
        return self.factor()

    def factor(self):
        a = self.atom()
        if self.peek()[:2] == ("OP", "^"):
            self.next()
            return Pow(a, self.expect_int())
        return a

    def atom(self):
        kind, text, line, col = self.peek()
        if kind == "INT":
            self.next()
            # rational literal INT/INT, unless the denominator is powered
            if self.peek()[:2] == ("OP", "/") and self.peek(1)[0] == "INT" \
                    and self.peek(2)[:2] != ("OP", "^"):
                self.next()
                den = int(self.next()[1])
                if den == 0:
                    raise ParseError("zero denominator in rational literal", line, col)
                return Lit(Fraction(int(text), den))
            return Lit(Fraction(int(text)))
        if kind == "NAME":
            if text == "q":
                self.next()
                return Q()
            fm = re.fullmatch(r"f(\d+)", text)
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
            kind, sel, line, col = self.peek()
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
                raise ParseError(f"EXTRACT residue {r} not in [0, {m})",
                                 *self.peek()[2:])
            node = Extract(e, m, r)
        else:  # SUBST
            e = self.expr()
            self.expect_op(",")
            node = Subst(e, self.expect_int())
        self.expect_op(")")
        return node

    def signed_monomial(self) -> SignedMonomial:
        sign = 1
        if self.peek()[:2] == ("OP", "-"):
            self.next()
            sign = -1
        kind, text, line, col = self.peek()
        if kind != "NAME" or text != "q":
            self.error({"'q'", "'-q'"})
        self.next()
        exp = 1
        if self.peek()[:2] == ("OP", "^"):
            self.next()
            exp = self.expect_int()
        return SignedMonomial(sign, exp)


def parse(src: str):
    return _Parser(src).parse()


def _sm_text(sm: SignedMonomial) -> str:
    return ("-" if sm.sign < 0 else "") + (f"q^{sm.exp}" if sm.exp != 1 else "q")


def print_expr(e) -> str:
    """Render an AST so that parse(print_expr(e)) == e (fully parenthesized)."""
    match e:
        case Lit(v):
            return str(v.numerator) if v.denominator == 1 \
                else f"({v.numerator}/{v.denominator})"
        case Q():
            return "q"
        case F(k):
            return f"f{k}"
        case Add(a, b):
            return f"({print_expr(a)}+{print_expr(b)})"
        case Sub(a, b):
            return f"({print_expr(a)}-{print_expr(b)})"
        case Mul(a, b):
            return f"({print_expr(a)}*{print_expr(b)})"
        case Div(a, b):
            return f"({print_expr(a)}/{print_expr(b)})"
        case Neg(a):
            return f"(-{print_expr(a)})"
        case Pow(a, n):
            return f"{print_expr(a)}^{n}"
        case AL(x, base, z):
            return f"AL({_sm_text(x)}, {base}, {_sm_text(z)})"
        case J(z, base):
            return f"J({_sm_text(z)}, {base})"
        case P(a, step, n):
            return f"P({_sm_text(a)}, {step}, {n})"
        case MT(sel):
            return f"MT({sel})"
        case Extract(inner, m, r):
            return f"EXTRACT({print_expr(inner)}, {m}, {r})"
        case Subst(inner, m):
            return f"SUBST({print_expr(inner)}, {m})"
    raise TypeError(f"not an expression node: {e!r}")
