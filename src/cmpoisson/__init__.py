"""Exact Poisson algebra of trace polynomials on Calogero-Moser matrix pairs.

Symbolic core: cyclic-word trace polynomials over Q[n, n^-1] with the
standard and traceless-corrected brackets, Cayley-Hamilton reduction, and a
pinned identity catalog.  Numeric side: rank-one variety sampling, exact
splice gradients, symplectic flow certification, and Lie-closure membership
certificates.  Model spaces (plane, cylinder, torus) and direct products
carry exact symbolic closures.
"""

from .ring import QnCoeff
from .words import CyclicWord, Word, canonicalize, splice_cuts
from .poly import PLAIN, TRACELESS, TracePolynomial
from .grammar import PolynomialParseError, format_polynomial, parse_polynomial
from .bracket import (
    BracketCatalogEntry,
    bracket,
    bracket_standard,
    bracket_traceless,
    jacobi_check,
    verify_catalog,
)
from .cm import (
    CMPoint,
    MatrixPair,
    PointEvaluator,
    PointPool,
    child_rng,
    evaluate,
    numeric_bracket,
    numeric_gradient,
    sample_cm,
    symplectic_pullback_residual,
)
from .flows import FlowFamily, apply_family, certify_symplectic, family_hamiltonian, ode_flow
from .closure import (
    LieClosureBasis,
    MembershipCertificate,
    build_closure,
    check_membership,
    standard_generators,
)
from .models import (
    LaurentPoly2,
    ProductSpace,
    LaurentAdapter,
    TraceAdapter,
    model_bracket,
    model_generation,
    product_bracket,
)
from .chains import replay_lemma_chain

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
