"""Special functions and contour integration for Gamma/zeta kernel identities.

The package evaluates Gamma and zeta functions on the complex plane, computes
vertical-line and rectangle contour integrals of three kernel families,
matches them against closed forms and residue sums, and bundles the whole
battery behind a verification suite and a CLI.

Numerical kernels live in a compiled extension when it is importable, and
in a pure-Python twin otherwise.
"""
from ._backend import BACKEND
from ._version import __version__
from . import contour, residues, specfun, verify, zeta
from .contour import (GAMMA_POWER, ZETA_GAMMA_POWER, ZETA_ZETA_GAMMA,
                      IntegrandFamily, QuadratureResult, RectangleSpec,
                      VerticalLineSpec, gamma_power, integrand_eval,
                      integrate_real_improper, integrate_rectangle,
                      integrate_segment, integrate_vertical,
                      zeta_gamma_power, zeta_zeta_gamma)
from .errors import (ConfigError, DomainViolation, IndexBeyondTable,
                     MBZetaError, NotAPole, OverflowRegime, PoleOnBoundary,
                     PoleOnCircle, PoleOnPath, PoleProximity,
                     ToleranceUnreachable, UnknownCaseKind, UsageError)
from .residues import (PoleLocation, ResidueTerm, TailStudy,
                       asymptotic_tail_terms, classify_pole, enumerate_poles,
                       numerical_residue, residue_at)
from .specfun import bernoulli, beta, gamma, log_gamma
from .verify import (CheckEntry, DecayStudy, EnvelopeFit, IdentityCase,
                     VerificationReport, check_identity, check_rectangle,
                     decay_study, default_config, fit_envelope, run_suite)
from .zeta import (ZetaEvalConfig, double_sum_oracle, hurwitz_zeta,
                   riemann_zeta, zeta_negative_integer)

__all__ = [
    "__version__", "BACKEND",
    "contour", "residues", "specfun", "verify", "zeta",
    # contour
    "GAMMA_POWER", "ZETA_GAMMA_POWER", "ZETA_ZETA_GAMMA", "IntegrandFamily",
    "QuadratureResult", "RectangleSpec", "VerticalLineSpec", "gamma_power",
    "integrand_eval", "integrate_real_improper", "integrate_rectangle",
    "integrate_segment", "integrate_vertical", "zeta_gamma_power",
    "zeta_zeta_gamma",
    # errors
    "MBZetaError", "ConfigError", "DomainViolation", "IndexBeyondTable",
    "NotAPole", "OverflowRegime", "PoleOnBoundary", "PoleOnCircle",
    "PoleOnPath", "PoleProximity", "ToleranceUnreachable", "UnknownCaseKind",
    "UsageError",
    # residues
    "PoleLocation", "ResidueTerm", "TailStudy", "asymptotic_tail_terms",
    "classify_pole", "enumerate_poles", "numerical_residue", "residue_at",
    # specfun
    "bernoulli", "beta", "gamma", "log_gamma",
    # verify
    "CheckEntry", "DecayStudy", "EnvelopeFit", "IdentityCase",
    "VerificationReport", "check_identity", "check_rectangle", "decay_study",
    "default_config", "fit_envelope", "run_suite",
    # zeta
    "ZetaEvalConfig", "double_sum_oracle", "hurwitz_zeta", "riemann_zeta",
    "zeta_negative_integer",
]
