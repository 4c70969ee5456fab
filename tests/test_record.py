"""The Record base class: value semantics of every qid record type, and the
import cost it exists to keep down."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import qid
from qid import dsl
from qid.appell_lerch import AppellLerchSpec
from qid.engine import IdentityRecord
from qid.errors import NonGenericParameterError
from qid.outcome import VerificationOutcome
from qid.paramcheck import ParamProofOutcome, PPolynomial
from qid.qproducts import EtaExpression, EtaMonomial, SignedMonomial
from qid.series import TruncatedLaurentSeries


def test_equality_and_hash_are_per_class():
    a, b = dsl.F(1), dsl.Q()
    assert dsl.Add(a, b) == dsl.Add(dsl.F(1), dsl.Q())
    assert hash(dsl.Add(a, b)) == hash(dsl.Add(dsl.F(1), dsl.Q()))
    # same fields, different node kind
    assert dsl.Add(a, b) != dsl.Sub(a, b)
    assert dsl.Mul(a, b) != dsl.Div(a, b)
    assert dsl.Add(a, b) != dsl.Add(b, a)
    assert dsl.Q() == dsl.Q() and dsl.Q() != dsl.F(1)
    assert dsl.F(1) != (1,)

    memo = {dsl.parse("f1*f2"): "product", dsl.parse("f1/f2"): "quotient"}
    assert memo[dsl.Mul(dsl.F(1), dsl.F(2))] == "product"
    assert memo[dsl.parse("f1 / f2")] == "quotient"
    assert len({dsl.Add(a, b), dsl.Sub(a, b), dsl.Add(a, b)}) == 2


def test_records_are_immutable():
    node = dsl.Pow(dsl.F(2), 3)
    with pytest.raises(AttributeError):
        node.exp = 4
    with pytest.raises(AttributeError):
        del node.base
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node == dsl.Pow(dsl.F(2), 3)

    s = TruncatedLaurentSeries(0, 2, (1, 2, 4), 6)
    with pytest.raises(AttributeError):
        s.order = 5
    with pytest.raises(AttributeError):
        del s.coeffs
    assert (s.order, s.coeffs, s.den) == (2, (1, 2, 4), 6)


def test_series_is_normalised_and_unhashable():
    s = TruncatedLaurentSeries(0, 2, (2, 4, -6), -4)
    assert (s.coeffs, s.den) == ((-1, -2, 3), 2)
    assert s == TruncatedLaurentSeries(-1, 2, (0, -1, -2, 3), 2)
    with pytest.raises(TypeError):
        hash(s)
    with pytest.raises(ValueError):
        TruncatedLaurentSeries(0, 2, (1, 2))
    with pytest.raises(ZeroDivisionError):
        TruncatedLaurentSeries(0, 0, (1,), 0)


def test_keyword_and_default_construction():
    rec = IdentityRecord(id="x", tier="core", anchor="a", lhs="f1", rhs="f1")
    assert rec == IdentityRecord("x", "core", "a", "identity", "f1", "f1",
                                 200, "", 0, 0, 0, 0)
    assert (rec.kind, rec.default_order, rec.count) == ("identity", 200, 0)
    assert IdentityRecord("x", "core", anchor="a", count=3).count == 3
    assert VerificationOutcome("pass", 4) == VerificationOutcome("pass", 4, None, "")
    assert (EtaExpression().terms, EtaExpression().den) == ((), 1)
    assert PPolynomial() == PPolynomial(())
    assert ParamProofOutcome("NotZero") == ParamProofOutcome("NotZero", "", None)


@pytest.mark.parametrize("args, kwargs, word", [
    ((), {"id": "x", "tier": "core"}, "missing"),
    (("x", "core", "a"), {"bogus": 1}, "unexpected|unknown"),
    (("x", "core", "a"), {"tier": "core"}, "repeated|multiple"),
    (tuple(range(13)), {}, "13"),
])
def test_bad_construction_raises_type_error(args, kwargs, word):
    with pytest.raises(TypeError, match=word):
        IdentityRecord(*args, **kwargs)


def test_bad_positional_count_raises_type_error():
    with pytest.raises(TypeError):
        dsl.Add(dsl.Q())
    with pytest.raises(TypeError):
        dsl.Q(1)
    with pytest.raises(TypeError):
        SignedMonomial(1, 2, 3)


def test_repr_keeps_field_names():
    assert repr(SignedMonomial(-1, 2)) == "SignedMonomial(sign=-1, exp=2)"
    assert repr(dsl.Lit(Fraction(1, 2))) == "Lit(value=Fraction(1, 2))"
    assert repr(dsl.Q()) == "Q()"
    assert repr(VerificationOutcome("pass", 3)) == \
        "VerificationOutcome(status='pass', compared_order=3, " \
        "first_mismatch=None, message='')"
    assert repr(AppellLerchSpec(SignedMonomial(1, 1), 2, SignedMonomial(-1, 0))) == \
        "AppellLerchSpec(x=SignedMonomial(sign=1, exp=1), base=2, " \
        "z=SignedMonomial(sign=-1, exp=0))"


def test_positional_match_patterns():
    def shape(node):
        match node:
            case dsl.Pow(dsl.F(k), e):
                return ("eta power", k, e)
            case dsl.AL(SignedMonomial(sx, ex), base, z):
                return ("AL", sx, ex, base, z.exp)
            case dsl.Add(left, right) | dsl.Sub(left, right):
                return ("sum", shape(left), shape(right))
            case dsl.F(k):
                return ("f", k)
            case dsl.Q():
                return ("q",)
        return None

    assert shape(dsl.parse("f3^-7")) == ("eta power", 3, -7)
    assert shape(dsl.parse("AL(-q^2, 3, q)")) == ("AL", -1, 2, 3, 1)
    assert shape(dsl.parse("f1 - q")) == ("sum", ("f", 1), ("q",))
    assert shape(dsl.parse("f1 * q")) is None

    match VerificationOutcome("fail", 5, (2, Fraction(1), Fraction(0))):
        case VerificationOutcome("fail", order, (e, _, _)):
            assert (order, e) == (5, 2)
        case _:
            pytest.fail("outcome did not match")


def test_checks_still_raise():
    with pytest.raises(ValueError):
        SignedMonomial(0, 1)
    with pytest.raises(ValueError):
        SignedMonomial(sign=2, exp=1)
    with pytest.raises(ValueError):
        EtaMonomial(1, 0, ((1, 2), (2, 0)))
    with pytest.raises(ValueError):
        EtaMonomial(Fraction(1), 0, ((1, 2),))
    with pytest.raises(ValueError):
        AppellLerchSpec(SignedMonomial(1, 1), 0, SignedMonomial(1, 0))
    with pytest.raises(NonGenericParameterError):
        AppellLerchSpec(SignedMonomial(1, 1), 3, SignedMonomial(1, 2))
    with pytest.raises(ValueError):
        VerificationOutcome("fail", 3)
    with pytest.raises(ValueError):
        VerificationOutcome("pass", 3, (0, Fraction(1), Fraction(2)))
    # the checks pass on valid values
    AppellLerchSpec(SignedMonomial(-1, 1), 3, SignedMonomial(1, 2))
    EtaMonomial(1, 0, ((1, 2),))


def test_copy_and_pickle_round_trip():
    for value in (dsl.parse("AL(q, 2, -q) + f1^3"),
                  IdentityRecord("x", "core", "a", count=3),
                  TruncatedLaurentSeries(-1, 2, (1, 0, 2, 3), 5)):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_import_avoids_heavy_modules():
    """Every qid process imports qid.cli and qid.engine, loads the registry
    and runs a command; none of that may pull in dataclasses (and with it
    inspect), importlib.resources, or argparse (and with it gettext and
    locale), and param-check of an expression whose terms fall into two
    classes needs no mpmath.  -S keeps site-packages' .pth files from
    importing them first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qid.__file__)))
    code = (
        "import io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import qid.cli, qid.engine\n"
        "assert len(qid.engine.load_registry()) > 0\n"
        "sys.stdout = io.StringIO()\n"
        "assert qid.cli.main(['list']) == 0\n"
        "assert qid.cli.main(['param-check', '--expr',\n"
        "                     'f1^4 - q*f12^2*f2^2']) == 1\n"
        "assert sys.stdout.getvalue().endswith('\\nNotZero\\n  residual "
        "polynomial: 1, times (2)^(4/3)*(1-p)^(17/12)*(1+p)^(1/4)\\n')\n"
        "sys.stdout = sys.__stdout__\n"
        "heavy = ('dataclasses', 'inspect', 'importlib.resources',\n"
        "         'argparse', 'gettext', 'locale', 'mpmath')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
