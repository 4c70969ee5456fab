"""Exact verification of q-series identities: truncated Laurent series over
the rationals, eta products, Appell-Lerch sums, mock theta series, and a
registry-driven identity checker."""

from .appell_lerch import AppellLerchSpec, appell_lerch_m
from .dissection import dissect_extract
from .engine import (IdentityRecord, check_congruence, eval_expr,
                     expr_to_eta, load_registry, report_json, run_suite,
                     verify)
from .errors import (NonGenericParameterError, NotInvertibleError, ParseError,
                     QidError, ThetaVanishesError, TruncationError,
                     UnsupportedEtaIndexError)
from .mock_theta import SELECTORS, mock_theta_series
from .outcome import VerificationOutcome, compare_series
from .paramcheck import ParamProofOutcome, PPolynomial, prove_zero
from .qproducts import (EtaExpression, EtaMonomial, SignedMonomial,
                        eta_expression, eta_expression_eval, eta_power,
                        theta_j)
from .series import TruncatedLaurentSeries

__all__ = [
    "AppellLerchSpec", "appell_lerch_m", "dissect_extract",
    "IdentityRecord", "check_congruence", "eval_expr", "expr_to_eta",
    "load_registry", "report_json", "run_suite", "verify",
    "NonGenericParameterError", "NotInvertibleError", "ParseError",
    "QidError", "ThetaVanishesError", "TruncationError",
    "UnsupportedEtaIndexError", "SELECTORS",
    "mock_theta_series", "VerificationOutcome", "compare_series",
    "ParamProofOutcome", "PPolynomial", "prove_zero",
    "EtaExpression", "EtaMonomial", "SignedMonomial", "eta_expression",
    "eta_expression_eval", "eta_power",
    "theta_j", "TruncatedLaurentSeries",
]

__version__ = "0.1.0"
