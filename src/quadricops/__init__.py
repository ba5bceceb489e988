"""Exact-arithmetic engine for differential operators on the quadric cone.

Modules:
  poly        sparse rational polynomials on packed exponent vectors,
              single-divisor normal forms, the Q-Laurent function class,
              and exact elimination on sparse rows (rref_add, rref,
              subtract_row)
  weyl        the Weyl algebra: normal orders, one-sided divisions, symbols
  lie         the conformal orthogonal Lie algebra and its rational group
  coneops     operators on the cone, the three realizations, generator
              words and the quadric Fourier automorphism
  shapovalov  the invariant pairing element as a polynomial in the Euler
              operator, held as a one-variable Poly
  momentorbit moment map, descent, orbit relations, Poisson bracket
  harmonic    Kelvin transform, harmonic decomposition, worked examples
  exprparse   expression grammar shared with the CLI
  suites      named verification suites and report emission
  cli         command-line entry point

Importing the package loads every engine module but ``suites``: its public
names (``SuiteReport``, ``UnknownSuite``, ``emit``, ``run_suite``) load it
on first access through the module ``__getattr__`` (PEP 562), so a process
that never verifies a suite does not pay for it.  Nor does it load
``fractions``, ``decimal`` or ``re``: ``poly`` imports the rational type on
the first non-integral value and ``exprparse`` compiles its grammar on the
first parse.
"""

from .poly import (ExponentOverflow, Poly, QLaurent, divides_exactly,
                   normal_form_mod_single, q_form, reduce_mod)
from .weyl import (NotDivisible, WeylOp, euler_op, is_zero_extensional,
                   laplacian_op)
from .lie import (DegenerateCell, GroupElt, LieElt, NotQLaurent, basis,
                  bruhat_factor, levi, so_q_basis, u, u_op, w0)
from .coneops import (ConeOp, GenWord, NotNormalizing, grading,
                      is_ideal_preserving, letter_op, phi, rho_amb,
                      rho_tilde, tau, tau_hat)
from .shapovalov import (FactorsDoNotCommute, NotScalar, euler_to_weyl,
                         fourier_euler_image, fourier_roots_bezout,
                         scalar_on_graded, shapovalov_closed,
                         shapovalov_expand, shapovalov_series)
from .momentorbit import (check_descent, moment, orbit_matrix, phase_euler,
                          poisson, symbol_invariant, verify_orbit_relations)
from .harmonic import (CertificateError, SymmetryCert, bessel_check,
                       boundary_phase_check, exp_harmonicity_defect,
                       harmonic_count, harmonic_decompose, harmonic_dimension,
                       is_higher_symmetry, kelvin, kelvin_intertwine_defect,
                       laplacian_qlaurent, n2_counterexample)
from .exprparse import ParseError, UsageError, parse, to_text

__all__ = [
    "ExponentOverflow", "Poly", "QLaurent", "divides_exactly",
    "normal_form_mod_single", "q_form", "reduce_mod",
    "NotDivisible", "WeylOp", "euler_op", "is_zero_extensional",
    "laplacian_op",
    "DegenerateCell", "GroupElt", "LieElt", "NotQLaurent", "basis",
    "bruhat_factor", "levi", "so_q_basis", "u", "u_op", "w0",
    "ConeOp", "GenWord", "NotNormalizing", "grading",
    "is_ideal_preserving", "letter_op", "phi", "rho_amb", "rho_tilde",
    "tau", "tau_hat",
    "FactorsDoNotCommute", "NotScalar", "euler_to_weyl", "fourier_euler_image",
    "fourier_roots_bezout", "scalar_on_graded", "shapovalov_closed",
    "shapovalov_expand", "shapovalov_series",
    "check_descent", "moment", "orbit_matrix", "phase_euler", "poisson",
    "symbol_invariant", "verify_orbit_relations",
    "CertificateError", "SymmetryCert", "bessel_check",
    "boundary_phase_check", "exp_harmonicity_defect", "harmonic_decompose",
    "harmonic_count", "harmonic_dimension", "is_higher_symmetry", "kelvin",
    "kelvin_intertwine_defect", "laplacian_qlaurent", "n2_counterexample",
    "ParseError", "UsageError", "parse", "to_text",
    "SuiteReport", "UnknownSuite", "emit", "run_suite",
]

__version__ = "1.0.0"

# the public names of the suites module, loaded on first access
_SUITE_NAMES = frozenset({"SuiteReport", "UnknownSuite", "emit", "run_suite"})


def __getattr__(name):
    if name in _SUITE_NAMES:
        from . import suites
        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUITE_NAMES)
