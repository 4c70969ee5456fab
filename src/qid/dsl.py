"""Expression DSL for transcribing identities.

Grammar (whitespace-insensitive, left-associative binaries, ^ > */ > +-):

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | factor
    factor := atom ("^" int)?     (|int| <= MAX_POW_EXPONENT, 2^63 - 1)
    atom   := rat | "q" | "f" INT | "(" expr ")" | call
    call   := NAME "(" arg ("," arg)* ")"   (NAME and its args: CALLS)
    rat    := INT ("/" INT)?      (the "/" is folded into the literal only
                                   when the denominator is not itself raised
                                   to a power, so 8/4^2 means 8/(4^2))
    sm     := ("-")? "q" ("^" int)?   (signed-monomial call argument;
                                       q^0 denotes +1, -q^0 denotes -1)

An integer other than a power exponent has at most 4300 digits after its
leading zeros (outcome.max_digits: fewer where the interpreter's own
limit is lower), counted before it is read.

CALLS is the one description of the calls: each node class in it lists
the kind of each argument, for the parser, print_expr and tree walks.
AL(x, base, z) is the Appell-Lerch sum m(x, q^base, z); J(z, base) is
j(z;q^base); MT(sel) a mock theta series; EXTRACT(e, m, r), 0 <= r < m,
residue-class dissection; SUBST(e, m), m >= 1, the substitution q -> q^m.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .mock_theta import SELECTORS
from .outcome import max_digits
from .qproducts import SignedMonomial
from .record import Record
from .series import MAX_POW_EXPONENT


# -- AST --------------------------------------------------------------------
# Fields are child nodes, ints, the Fraction of a Lit, the SignedMonomial
# arguments of AL/J, or the selector string of an MT.

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


_EXPONENT_ERROR = ("power exponent out of range: its absolute value is above "
                   f"the limit {MAX_POW_EXPONENT}")


class Pow(Record):
    __slots__ = __match_args__ = ("base", "exp")

    def _check(self):
        if abs(self.exp) > MAX_POW_EXPONENT:
            raise ValueError(_EXPONENT_ERROR)


# The kinds of call argument; an EXPR argument is a child node.
EXPR, INT, MONO, SEL = ("expression", "integer", "signed monomial",
                        "mock-theta selector")


class Call(Record):
    """A call node: name is how the DSL spells it, kinds the kind of each
    field in order."""

    __slots__ = ()

    def operands(self) -> tuple:
        """The arguments that are expressions, in order."""
        return tuple([a for kind, a in zip(self.kinds, self._astuple())
                      if kind is EXPR])


class AL(Call):
    __slots__ = __match_args__ = ("x", "base", "z")
    name, kinds = "AL", (MONO, INT, MONO)


class J(Call):
    __slots__ = __match_args__ = ("z", "base")
    name, kinds = "J", (MONO, INT)


class MT(Call):
    __slots__ = __match_args__ = ("sel",)
    name, kinds = "MT", (SEL,)


class Extract(Call):
    __slots__ = __match_args__ = ("expr", "m", "r")
    name, kinds = "EXTRACT", (EXPR, INT, INT)


class Subst(Call):
    __slots__ = __match_args__ = ("expr", "m")
    name, kinds = "SUBST", (EXPR, INT)

    def _check(self):
        if self.m < 1:
            raise ValueError(f"SUBST power {self.m} is not positive")


#: The one description of the DSL calls: each name and its node class.  A
#: new call is a Call subclass listed here and an engine._eval case.
CALLS = {c.name: c for c in (AL, J, MT, Extract, Subst)}

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
_F_RE = re.compile(r"f(0*[1-9]\d*)")  # f_k needs k >= 1


class _Parser:
    def __init__(self, src: str):
        self.src = src = src.rstrip()
        bad = _BAD_CHAR_RE.search(src)
        if bad:
            self.fail(f"unexpected character {bad.group()!r}", bad.start())
        # (kind, text, offset); finditer skips only whitespace, since every
        # other character starts a token.  An offset becomes a line and a
        # column only in fail().  End of input sits one past the start of
        # the last token; next() stops at the first of three EOF tokens,
        # so peek(2) never runs past the end.
        self.toks = [(_KINDS[m.lastindex], m.group(), m.start())
                     for m in _TOKEN_RE.finditer(src)]
        self.toks += [("EOF", "", self.toks[-1][2] + 1 if self.toks else 1)] * 3
        self.i = 0
        self.depth = 0
        self.max_digits = max_digits()

    def fail(self, message, offset: int, expected=()):
        src = self.src
        raise ParseError(message, src.count("\n", 0, offset) + 1,
                         offset - src.rfind("\n", 0, offset), expected)

    def peek(self, ahead: int = 0):
        return self.toks[self.i + ahead]

    def at(self, text: str) -> bool:
        """Whether the next token spells text, an operator or "q": no other
        token, nor the EOF token's "", spells either."""
        return self.toks[self.i][1] == text

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
        if self.at(op):
            return self.next()
        self.error({f"'{op}'"})

    def expect_int(self) -> int:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        kind, text, offset = self.peek()
        if kind != "INT":
            self.error({"integer"})
        self.next()
        value = self.read_int(text, offset)
        return -value if neg else value

    def read_int(self, digits: str, offset: int) -> int:
        """The integer a run of digits spells, refused above max_digits()
        digits after its leading zeros, so that int() never meets the
        interpreter's own limit, on any CPython version."""
        digits = digits.lstrip("0")
        limit = self.max_digits
        if len(digits) > limit:
            self.fail(f"integer literal with {len(digits)} digits (the limit "
                      f"is {limit})", offset)
        return int(digits or "0")

    # grammar -------------------------------------------------------------

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "EOF":
            self.error({"operator", "end of input"})
        return e

    def expr(self):
        self.enter(self.peek()[2])
        e = self.term()
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        self.depth -= 1
        return e

    def term(self):
        e = self.unary()
        while self.at("*") or self.at("/"):
            op = self.next()[1]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.at("-"):
            self.enter(self.next()[2])
            e = Neg(self.unary())
            self.depth -= 1
            return e
        return self.factor()

    def factor(self):
        a = self.atom()
        if self.at("^"):
            self.next()
            # the exponent's digits are counted before int() reads them
            kind, text, offset = self.peek(self.at("-"))
            digits = text.lstrip("0")
            if kind == "INT" and (len(digits) > len(str(MAX_POW_EXPONENT))
                                  or int(digits or 0) > MAX_POW_EXPONENT):
                self.fail(_EXPONENT_ERROR, offset)
            return Pow(a, self.expect_int())
        return a

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "INT":
            self.next()
            # rational literal INT/INT, unless the denominator is powered
            if self.at("/") and self.peek(1)[0] == "INT" \
                    and self.peek(2)[1] != "^":
                self.next()
                den = self.read_int(*self.next()[1:])
                if den == 0:
                    self.fail("zero denominator in rational literal", offset)
                return Lit(Fraction(self.read_int(text, offset), den))
            return Lit(Fraction(self.read_int(text, offset)))
        if kind == "NAME":
            if text == "q":
                self.next()
                return Q()
            fm = _F_RE.fullmatch(text)
            if fm:
                self.next()
                return F(self.read_int(fm.group(1), offset))
            if text in CALLS:
                return self.call()
            self.error({"'q'", "'f<k>'", *(f"'{n}'" for n in CALLS)})
        if kind == "OP" and text == "(":
            self.next()
            e = self.expr()
            self.expect_op(")")
            return e
        self.error({"number", "'q'", "'f<k>'", "'('", "call"})

    def call(self):
        cls = CALLS[self.next()[1]]
        self.expect_op("(")
        args = []
        for kind in cls.kinds:
            if args:
                self.expect_op(",")
            start = self.i
            args.append(_READERS[kind](self))
        if cls is Extract and not 0 <= args[2] < args[1]:
            self.fail(f"EXTRACT residue {args[2]} not in [0, {args[1]})",
                      self.peek()[2])
        try:
            node = cls(*args)
        except ValueError as exc:  # a rule of the node, on its last argument
            self.fail(str(exc), self.toks[start][2])
        self.expect_op(")")
        return node

    def signed_monomial(self) -> SignedMonomial:
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        if not self.at("q"):
            self.error({"'q'", "'-q'"})
        self.next()
        exp = 1
        if self.at("^"):
            self.next()
            exp = self.expect_int()
        return SignedMonomial(sign, exp)

    def selector(self) -> str:
        if self.peek()[1] not in SELECTORS:
            self.error({f"'{s}'" for s in SELECTORS})
        return self.next()[1]


_READERS = {EXPR: _Parser.expr, INT: _Parser.expect_int,
            MONO: _Parser.signed_monomial, SEL: _Parser.selector}


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
        case Call():
            args = [print_expr(a) if kind is EXPR else str(a)
                    for kind, a in zip(e.kinds, e._astuple())]
            return f"{e.name}({', '.join(args)})"
    raise TypeError(f"not an expression node: {e!r}")
