"""Exact verification of q-series identities: truncated Laurent series over
the rationals, eta products, Appell-Lerch sums, mock theta series, and a
registry-driven identity checker."""

from .appell_lerch import (AppellLerchSpec, appell_lerch_m,
                           change_z_identity_check, cube_decomposition_check)
from .dissection import dissect_extract, dissect_reconstruct
from .engine import (IdentityRecord, check_congruence, eval_expr,
                     expr_to_eta, load_registry, report_json, run_suite,
                     verify)
from .errors import (NonGenericParameterError, NotInvertibleError, ParseError,
                     QidError, ThetaVanishesError, TruncationError,
                     UnsupportedEtaIndexError, WindowUnstableError)
from .mock_theta import SELECTORS, mock_theta_coefficient, mock_theta_series
from .outcome import VerificationOutcome, compare_series
from .paramcheck import (BASE_VECTORS, ParamProofOutcome, ParamVector,
                         PPolynomial, param_vector_of_term, prove_zero,
                         series_zero_crosscheck)
from .qproducts import (EtaExpression, EtaMonomial, SignedMonomial,
                        eta_expression, eta_expression_eval, eta_f,
                        eta_monomial, eta_power, pochhammer_finite, theta_j)
from .series import TruncatedLaurentSeries

__all__ = [
    "AppellLerchSpec", "appell_lerch_m", "change_z_identity_check",
    "cube_decomposition_check", "dissect_extract", "dissect_reconstruct",
    "IdentityRecord", "check_congruence", "eval_expr", "expr_to_eta",
    "load_registry", "report_json", "run_suite", "verify",
    "NonGenericParameterError", "NotInvertibleError", "ParseError",
    "QidError", "ThetaVanishesError", "TruncationError",
    "UnsupportedEtaIndexError", "WindowUnstableError", "SELECTORS",
    "mock_theta_coefficient", "mock_theta_series", "VerificationOutcome",
    "compare_series",
    "BASE_VECTORS", "ParamProofOutcome", "ParamVector", "PPolynomial",
    "param_vector_of_term", "prove_zero", "series_zero_crosscheck",
    "EtaExpression", "EtaMonomial", "SignedMonomial", "eta_expression",
    "eta_expression_eval", "eta_f", "eta_monomial", "eta_power",
    "pochhammer_finite", "theta_j", "TruncatedLaurentSeries",
]

__version__ = "0.1.0"
