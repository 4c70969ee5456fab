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

Each node has an eta form, what it is as an eta-quotient term or sum,
read from its children's by the rule FORM_RULES gives for its class.
parse(src, forms) records each node's form as it builds the node, and
eta_forms finds them by the same rule for a tree built elsewhere.  The
parser reads src's tokens as strings from one regex pass and builds its
nodes from their slots' setters.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, QidError
from .mock_theta import SELECTORS
from .outcome import max_digits
from .qproducts import SignedMonomial
from .record import Record
from .series import MAX_LITERAL_BITS, MAX_POW_EXPONENT, check_bits


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

_TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|[-+*/^(),]")
#: any character no token starts with, other than whitespace
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z\-+*/^(),]")
#: the most digits an exponent within MAX_POW_EXPONENT has
_EXPONENT_DIGITS = len(str(MAX_POW_EXPONENT))


# -- eta forms ----------------------------------------------------------------
# A node's eta form is (monomial, summable).  monomial is the node as one
# eta-quotient term (coeff, qpow, {k: e}) built from literals, q, f_k, *,
# /, ^ and unary minus; summable is True when the node is a sum of such
# terms (see engine._summands).  Where either fails it is a Rejected naming
# the first offending node from the left.  A coefficient stays an int
# until a non-integral literal, or a division or negative power of a
# coefficient other than +-1, makes it a Fraction; a literal power
# estimated above MAX_LITERAL_BITS raises QidError.  A node's form is read
# from its children's alone, by the rule FORM_RULES gives for its class:
# the parser applies it to each node it builds (parse with forms) and
# eta_forms to a tree built elsewhere, so both give the same forms.

class Rejected(Record):
    """Why a subtree is not an eta quotient: the reason and the node it
    names, rendered only when an error reports it."""

    __slots__ = __match_args__ = ("reason", "node")

    def error(self) -> QidError:
        return QidError(f"{self.reason}: {print_expr(self.node)}")


def reciprocal(c):
    """1/c for a nonzero int or Fraction c; an int stays one when c is +-1."""
    return c if c == 1 or c == -1 else Fraction(1, c)


def times(a: dict, b: dict, sign: int) -> dict:
    """The exponent map {k: e} of a product (sign 1) or quotient (sign -1)
    of eta quotients with exponent maps a and b."""
    ex = dict(a)
    for k, v in b.items():
        ex[k] = ex.get(k, 0) + sign * v
    return ex


def _lit_form(node, forms):
    v = node.value
    return (v.numerator if v.denominator == 1 else v, 0, {}), True


def _q_form(node, forms):
    return (1, 1, {}), True


def _f_form(node, forms):
    return (1, 0, {node.k: 1}), True


def _mul_form(node, forms):
    ma, mb = forms[id(node.left)][0], forms[id(node.right)][0]
    if type(ma) is Rejected:
        return ma, ma
    if type(mb) is Rejected:
        return mb, mb
    (ca, pa, ea), (cb, pb, eb) = ma, mb
    ex = dict(ea)  # times(ea, eb, 1), in the commonest rule
    for k, v in eb.items():
        ex[k] = ex.get(k, 0) + v
    return (ca * cb, pa + pb, ex), True


def _div_form(node, forms):
    ma, mb = forms[id(node.left)][0], forms[id(node.right)][0]
    if type(ma) is Rejected:
        return ma, ma
    if type(mb) is Rejected:
        return mb, mb
    (ca, pa, ea), (cb, pb, eb) = ma, mb
    if not cb:
        mono = Rejected("division by zero", node)
        return mono, mono
    return (ca * reciprocal(cb), pa - pb, times(ea, eb, -1)), True


def _pow_form(node, forms):
    mono = forms[id(node.base)][0]
    if type(mono) is Rejected:
        return mono, mono
    c, p, ex = mono
    k = node.exp
    if c == 1:  # 1^k is 1, as an int or a Fraction
        return (c, p * k, {f: v * k for f, v in ex.items()}), True
    if k < 0 and not c:
        mono = Rejected("division by zero", node)
        return mono, mono
    if c not in (0, 1, -1):
        check_bits(f"literal power {print_expr(node)}",
                   abs(k) * max(c.numerator.bit_length(),
                                c.denominator.bit_length()),
                   MAX_LITERAL_BITS)
    return (c ** k if k >= 0 else reciprocal(c) ** -k, p * k,
            {f: v * k for f, v in ex.items()}), True


def _sum_form(node, forms):
    sa, sb = forms[id(node.left)][1], forms[id(node.right)][1]
    return (_rejected("not an eta-quotient term", node),
            sa if sa is not True else sb)


def _neg_form(node, forms):
    mono, summable = forms[id(node.operand)]
    if type(mono) is Rejected:
        return mono, summable
    c, p, ex = mono
    return (-c, p, ex), summable


def _other_form(node, forms):
    """A call, or any other node: no eta quotient."""
    mono = _rejected("not an eta-quotient term", node)
    return mono, mono


#: each node class and the rule of its eta form; _other_form for the calls
FORM_RULES = {Lit: _lit_form, Q: _q_form, F: _f_form, Add: _sum_form,
              Sub: _sum_form, Mul: _mul_form, Div: _div_form, Neg: _neg_form,
              Pow: _pow_form}


def children(node) -> tuple:
    """The child nodes of node, left to right."""
    kind = type(node)
    if kind in _BINARY:
        return node.left, node.right
    if kind is Pow:
        return (node.base,)
    if kind is Neg:
        return (node.operand,)
    if isinstance(node, Call):
        return node.operands()
    return ()


def record_form(node, forms: dict):
    """Record node's eta form in forms, where its children's are, and
    return node."""
    forms[id(node)] = FORM_RULES.get(type(node), _other_form)(node, forms)
    return node


def eta_forms(root) -> dict:
    """Every node's eta form, for a tree that parse did not record forms
    of: id(node) maps to (monomial, summable).  The nodes are listed
    parents first from a stack and visited in reverse, children before
    parents and left before right, as the parser builds them, so a sum of
    thousands of terms needs no recursion and a literal power is refused
    where parse would refuse it.  The caller keeps root alive while it
    reads the map."""
    forms: dict = {}
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(children(node))
    for node in reversed(nodes):
        record_form(node, forms)
    return forms


# -- parser -------------------------------------------------------------------

_new = object.__new__


def _maker(cls):
    """Build a cls node of one or two fields by position: object.__new__
    and the slots' setters, without Record.__init__'s argument binding.
    cls._check runs where cls defines one."""
    check = cls._check
    if len(cls._setters) == 1:
        (set_a,) = cls._setters

        def make(a):
            node = _new(cls)
            set_a(node, a)
            return node
    else:
        set_a, set_b = cls._setters

        def make(a, b):
            node = _new(cls)
            set_a(node, a)
            set_b(node, b)
            return node
    if check is Record._check:
        return make

    def make_checked(a, b):  # a Pow
        node = _new(cls)
        set_a(node, a)
        set_b(node, b)
        check(node)
        return node
    return make_checked


_make_lit, _make_f, _make_neg, _make_pow, _rejected = map(
    _maker, (Lit, F, Neg, Pow, Rejected))
#: each binary operator's node maker and eta-form rule
_BINARY_OPS = {op: (_maker(cls), FORM_RULES[cls])
               for op, cls in (("+", Add), ("-", Sub), ("*", Mul), ("/", Div))}


class _Parser:
    __slots__ = ("src", "toks", "i", "depth", "max_digits", "forms",
                 "form_error")

    def __init__(self, src: str, forms: dict | None):
        self.src = src = src.rstrip()
        bad = _BAD_CHAR_RE.search(src)
        if bad:
            self.fail_at(f"unexpected character {bad.group()!r}", bad.start())
        # the tokens as strings: findall skips only whitespace, since every
        # other character starts a token.  A token's offset is found again
        # only when an error names it.  The three "" after them are the
        # end of input, so a look two tokens ahead never runs past the
        # list, and no token is consumed without being matched, so the
        # position never passes the first ""
        self.toks = _TOKEN_RE.findall(src) + ["", "", ""]
        self.i = 0
        self.depth = 0
        self.max_digits = max_digits()
        # eta forms recorded as nodes are built, or None; a form's
        # QidError is raised once the whole input has parsed, so a later
        # syntax error is reported first, as when the forms were found
        # after parsing
        self.forms = forms
        self.form_error = None

    def fail_at(self, message, offset: int, expected=()):
        src = self.src
        raise ParseError(message, src.count("\n", 0, offset) + 1,
                         offset - src.rfind("\n", 0, offset), expected)

    def fail(self, message, i: int, expected=()):
        """Raise at token i; the end of input sits one past the start of
        the last token."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.src)]
        offset = (starts[i] if i < len(starts)
                  else starts[-1] + 1 if starts else 1)
        self.fail_at(message, offset, expected)

    def error(self, expected):
        self.fail(f"unexpected {self.toks[self.i] or 'end of input'!r}",
                  self.i, expected)

    def enter(self, i: int):
        """One level deeper (see MAX_NESTING) at token i; the caller steps
        back out."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} deep", i)

    def expect_op(self, op: str):
        if self.toks[self.i] != op:
            self.error({f"'{op}'"})
        self.i += 1

    def expect_int(self) -> int:
        neg = self.toks[self.i] == "-"
        self.i += neg
        i = self.i
        if not self.toks[i].isdigit():
            self.error({"integer"})
        self.i = i + 1
        value = self.read_int(self.toks[i], i)
        return -value if neg else value

    def read_int(self, digits: str, i: int) -> int:
        """The integer a run of digits in token i spells, refused above
        max_digits() digits after its leading zeros, so that int() never
        meets the interpreter's own limit, on any CPython version."""
        digits = digits.lstrip("0")
        limit = self.max_digits
        if len(digits) > limit:
            self.fail(f"integer literal with {len(digits)} digits (the limit "
                      f"is {limit})", i)
        return int(digits or "0")

    def note(self, node, rule):
        """Record node's form by rule, when forms are recorded."""
        forms = self.forms
        if forms is not None:
            forms[id(node)] = rule(node, forms)
        return node

    # grammar -------------------------------------------------------------

    def parse(self):
        e = self.expr()
        if self.toks[self.i]:
            self.error({"operator", "end of input"})
        if self.form_error is not None:
            raise self.form_error
        return e

    def expr(self):
        self.enter(self.i)
        e = self.term()
        toks = self.toks
        while (op := toks[self.i]) == "+" or op == "-":
            self.i += 1
            make, rule = _BINARY_OPS[op]
            e = make(e, self.term())
            if self.forms is not None:
                self.forms[id(e)] = rule(e, self.forms)
        self.depth -= 1
        return e

    def term(self):
        e = self.unary()
        toks = self.toks
        while (op := toks[self.i]) == "*" or op == "/":
            self.i += 1
            make, rule = _BINARY_OPS[op]
            e = make(e, self.unary())
            if self.forms is not None:
                self.forms[id(e)] = rule(e, self.forms)
        return e

    def unary(self):
        if self.toks[self.i] != "-":
            return self.factor()
        self.i += 1
        self.enter(self.i - 1)
        e = self.note(_make_neg(self.unary()), _neg_form)
        self.depth -= 1
        return e

    def factor(self):
        a = self.atom()
        toks = self.toks
        if toks[self.i] != "^":
            return a
        # the exponent, its digits counted before int() reads them
        neg = toks[self.i + 1] == "-"
        self.i = i = self.i + 1 + neg
        if not toks[i].isdigit():
            self.error({"integer"})
        digits = toks[i].lstrip("0")
        if len(digits) > _EXPONENT_DIGITS \
                or (k := int(digits or "0")) > MAX_POW_EXPONENT:
            self.fail(_EXPONENT_ERROR, i)
        self.i = i + 1
        e = _make_pow(a, -k if neg else k)
        forms = self.forms
        if forms is not None:
            try:
                forms[id(e)] = _pow_form(e, forms)
            except QidError as exc:  # no further forms: the first refused
                self.forms, self.form_error = None, exc
        return e

    def atom(self):
        toks, i = self.toks, self.i
        text = toks[i]
        digits = text[1:]
        if text[:1] == "f" and digits.isdigit() and digits.strip("0"):
            self.i = i + 1  # f_k needs k >= 1
            e = _make_f(self.read_int(digits, i))
            if self.forms is not None:
                self.forms[id(e)] = _f_form(e, self.forms)
            return e
        if text.isdigit():
            # rational literal INT/INT, unless the denominator is powered
            if toks[i + 1] == "/" and toks[i + 2].isdigit() \
                    and toks[i + 3] != "^":
                self.i = i + 3
                den = self.read_int(toks[i + 2], i + 2)
                if den == 0:
                    self.fail("zero denominator in rational literal", i)
                value = Fraction(self.read_int(text, i), den)
            else:
                self.i = i + 1
                value = Fraction(self.read_int(text, i))
            return self.note(_make_lit(value), _lit_form)
        if text == "q":
            self.i = i + 1
            e = _new(Q)  # Q has no field
            if self.forms is not None:
                self.forms[id(e)] = _q_form(e, self.forms)
            return e
        if text in CALLS:
            return self.call()
        if text[:1].isalpha():
            self.error({"'q'", "'f<k>'", *(f"'{n}'" for n in CALLS)})
        if text == "(":
            self.i = i + 1
            e = self.expr()
            self.expect_op(")")
            return e
        self.error({"number", "'q'", "'f<k>'", "'('", "call"})

    def call(self):
        cls = CALLS[self.toks[self.i]]
        self.i += 1
        self.expect_op("(")
        args = []
        for kind in cls.kinds:
            if args:
                self.expect_op(",")
            start = self.i
            args.append(_READERS[kind](self))
        if cls is Extract and not 0 <= args[2] < args[1]:
            self.fail(f"EXTRACT residue {args[2]} not in [0, {args[1]})",
                      self.i)
        try:
            node = cls(*args)
        except ValueError as exc:  # a rule of the node, on its last argument
            self.fail(str(exc), start)
        self.expect_op(")")
        return self.note(node, _other_form)

    def signed_monomial(self) -> SignedMonomial:
        sign = -1 if self.toks[self.i] == "-" else 1
        self.i += sign < 0
        if self.toks[self.i] != "q":
            self.error({"'q'", "'-q'"})
        self.i += 1
        exp = 1
        if self.toks[self.i] == "^":
            self.i += 1
            exp = self.expect_int()
        return SignedMonomial(sign, exp)

    def selector(self) -> str:
        text = self.toks[self.i]
        if text not in SELECTORS:
            self.error({f"'{s}'" for s in SELECTORS})
        self.i += 1
        return text


_READERS = {EXPR: _Parser.expr, INT: _Parser.expect_int,
            MONO: _Parser.signed_monomial, SEL: _Parser.selector}


def parse(src: str, forms: dict | None = None):
    """The tree src spells; ParseError says where and why it does not.

    With forms, a dict, each node's eta form (see FORM_RULES) is recorded
    in it as the node is built, keyed by id(node), and a literal power
    the forms refuse raises its QidError once src has parsed."""
    return _Parser(src, forms).parse()


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
