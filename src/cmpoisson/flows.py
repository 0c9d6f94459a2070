"""The four explicit symplectic automorphism families and a Hamiltonian integrator.

With A = X - (tr X/n) I, B = Y - (tr Y/n) I, the families and their
Hamiltonian functions (for the vector-field convention
V_H = sum dH/dY_jk d/dX_kj - dH/dX_jk d/dY_kj, i.e. dF/dt = {F, H}) are

    shearB     (X, Y) -> (X, Y - 2t A)                               H = tr A^2
    shearA     (X, Y) -> (X + 2t B, Y)                               H = tr B^2
    cubicShear (X, Y) -> (X, Y - 3t A^2 + (3t/n) tr(A^2) I)          H = tr A^3
    scaling    (X, Y) -> (A e^{2tu} + tr X/n I, B e^{-2tu} + tr Y/n I), u = tr AB,
                                                                     H = (tr AB)^2

Each formula is the global flow of its Hamiltonian on
M_n + M_n, so it is holomorphic symplectic everywhere and restricts to the
traceless rank-one locus.  `certify_symplectic` proves the flow property
exactly mod p on the traceless Calogero-Moser space, for every t at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from .bracket import bracket_traceless
from .cm import CMPoint, child_rng, gradient_function
from .modp import PRIME, ExactPool, to_mod_p
from .poly import TRACELESS, TracePolynomial
from .words import FIRST, SECOND

FAMILY_IDS = ("shearB", "shearA", "cubicShear", "scaling")

# an RK4 endpoint's tolerance, looser than the sampler's cm.RANK_TOL: the
# endpoint also carries the rounding and truncation of the integration
FLOW_RANK_TOL = 1e-9

# the exact certificate's points and t: streams 0 and 1 of one fixed seed
CERTIFICATE_SEED = 0
CERTIFICATE_POINTS = 4


@dataclass(frozen=True)
class FlowFamily:
    id: str
    t: complex

    def __post_init__(self):
        if self.id not in FAMILY_IDS:
            raise ValueError(f"unknown family {self.id!r}; choose from {FAMILY_IDS}")


def family_hamiltonian(fam: FlowFamily | str) -> TracePolynomial:
    """The generating Hamiltonian of a family: tr A^2, tr B^2, tr A^3, (tr AB)^2."""
    fam_id = fam.id if isinstance(fam, FlowFamily) else fam
    if fam_id == "shearB":
        return TracePolynomial.trace(((FIRST, 2),), TRACELESS)
    if fam_id == "shearA":
        return TracePolynomial.trace(((SECOND, 2),), TRACELESS)
    if fam_id == "cubicShear":
        return TracePolynomial.trace(((FIRST, 3),), TRACELESS)
    if fam_id == "scaling":
        return TracePolynomial.trace(((FIRST, 1), (SECOND, 1)), TRACELESS) ** 2
    raise ValueError(f"unknown family {fam_id!r}")


def _traceless_image(fam: FlowFamily, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The traceless parts (A', B') of a family's image; tr X and tr Y are conserved.

    The shears also run exactly over Q: with a Fraction t and object arrays of
    integers, every entry comes out a Fraction."""
    t = fam.t
    n = A.shape[0]
    if fam.id == "shearB":
        return A, B - 2 * t * A
    if fam.id == "shearA":
        return A + 2 * t * B, B
    if fam.id == "cubicShear":
        A2 = A @ A
        return A, B - 3 * t * A2 + (3 * t / n) * np.trace(A2) * np.eye(n, dtype=int)
    # split form: A and B scale by exp(+-2tu); the equivalent
    # X + A(e^c - 1) cancels catastrophically when e^c ~ 0
    with np.errstate(all="ignore"):  # an image beyond double range stays inf or nan, silently
        w = np.exp(2 * t * np.trace(A @ B))
        return A * w, B / w


def family_map(fam: FlowFamily) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Closed-form point map of a family on ambient matrix pairs."""

    def mapper(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        eye = np.eye(X.shape[0], dtype=complex)
        cX, cY = np.trace(X) / X.shape[0] * eye, np.trace(Y) / X.shape[0] * eye
        Ap, Bp = _traceless_image(fam, X - cX, Y - cY)
        return Ap + cX, Bp + cY

    return mapper


def ode_flow(
    h: TracePolynomial,
    pt: CMPoint,
    t: complex,
    steps: int,
    return_error: bool = False,
):
    """Integrate the Hamiltonian flow of h from 0 to t with fixed-step RK4.

    The field is dX/dtau = (dh/dY)^T, dY/dtau = -(dh/dX)^T (so that
    dF/dtau = {F, h}), from h's gradient compiled once for both integrations.
    RK4 runs on the stacked state [X, Y]: each arithmetic step of a stage is
    one array operation on both matrices, and each entry rounds as it would
    with X and Y stepped apart.
    With return_error=True also integrates at half the step size and returns
    the Richardson estimate of the returned (coarse) endpoint's error,
    16/15 |z_fine - z_coarse| (max entry): z_fine - z_coarse = 15/16 of it.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    gradient = gradient_function(h, pt.pair.n)
    start = np.stack((pt.pair.X, pt.pair.Y))

    def integrate(num_steps: int) -> np.ndarray:
        Z = start
        # a real t / num_steps enters the products as the complex (dt, +0)
        dt = complex(t / num_steps)
        # dt [dY^T, -dX^T] as (dt, -dt) [dY^T, dX^T]: negating both parts of dt
        # is exact, so (-dt) dX^T equals dt (-dX^T) bit for bit, signed zeros included
        scale = np.array([dt, -dt]).reshape(2, 1, 1)

        def field(Zc: np.ndarray) -> np.ndarray:
            return scale * gradient.stacked(Zc)[::-1].transpose(0, 2, 1)

        with np.errstate(all="ignore"):  # an overflow is caught after its step
            for _ in range(num_steps):
                k1 = field(Z)
                k2 = field(Z + k1 / 2)
                k3 = field(Z + k2 / 2)
                k4 = field(Z + k3)
                Z = Z + (k1 + 2 * k2 + 2 * k3 + k4) / 6
                if not np.isfinite(Z).all():
                    raise FloatingPointError("non-finite state during integration")
        return Z

    Z1 = integrate(steps)
    out = CMPoint.from_matrices(Z1[0], Z1[1], pt.traceless, pt.seed, pt.index)
    if not return_error:
        return out
    Z2 = integrate(2 * steps)
    err = float(np.abs(Z2 - Z1).max() * 16 / 15)
    return out, err


def endpoint_verdict(miss: float, end: CMPoint, err: float) -> str:
    """The verdict on an RK4 endpoint `end` with Richardson error estimate err,
    where miss measures how far it is from what the exact flow gives (its rank
    residual, or its relative gap to a closed-form image): "pass" when the miss
    is below FLOW_RANK_TOL; "unresolved" when err, relative to
    max(1, max |entry| of end), reaches that tolerance, so the endpoint cannot
    show a defect; "FAIL" otherwise."""
    if miss < FLOW_RANK_TOL:
        return "pass"
    scale = max(1.0, np.abs(end.pair.X).max(), np.abs(end.pair.Y).max())
    return "unresolved" if err / scale >= FLOW_RANK_TOL else "FAIL"


@dataclass
class FlowCertificate:
    family: str
    t: complex
    n: int
    generators: int
    points: int
    prime: int
    passed: bool


def invariant_generators(n: int) -> list[TracePolynomial]:
    """The straight words tr(A^i B^j), 2 <= i + j <= n: Weyl's polarized power
    sums, which generate C[h + h*]^{S_n} and, through Etingof and Ginzburg's
    gr C[CM_n] = C[h + h*]^{S_n} (Invent. Math. 147, 2002), the functions on
    the traceless Calogero-Moser space."""
    return [TracePolynomial.trace(((FIRST, i), (SECOND, d - i)), TRACELESS)
            for d in range(2, n + 1) for i in range(d + 1)]


def exact_image(fam_id: str, t: int, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A family's image mod PRIME of stacked traceless points (X, Y) at t mod
    PRIME: the shears by `_traceless_image` over Q, reduced; scaling as
    (tA, B/t), t standing for the unit w = e^{2t tr AB}."""
    if fam_id == "scaling":
        return X * t % PRIME, Y * pow(t, -1, PRIME) % PRIME
    fam = FlowFamily(fam_id, Fraction(t))
    images = [_traceless_image(fam, A.astype(object), B.astype(object)) for A, B in zip(X, Y)]
    return tuple(np.vectorize(to_mod_p, otypes=[np.int64])(np.array(m)) for m in zip(*images))


@cache
def exact_certificate(fam_id: str, n: int) -> bool:
    """Whether the family's map is the flow of its Hamiltonian H on the
    traceless Calogero-Moser space of n x n matrices, for every t at once.

    At CERTIFICATE_POINTS random traceless rank-one points mod PRIME and a
    random t mod PRIME, the image must pass the exact locus test of ExactPool
    and every generator f must pull back to exp(t ad_H) f, ad_H f = {f, H}.
    For the shears the series ends within deg f + 1 terms, since ad_H lowers
    the degree in one letter.  For scaling, {f, H} = 2 (a - b) tr(AB) f for f
    of bidegree (a, b), with n symbolic, and tr AB is constant along the flow,
    so exp(t ad_H) f = w^(a - b) f with w = e^{2t tr AB}; the image (wA, B/w)
    is checked at a free unit w, so no value can overflow.  Both sides are
    polynomials in t and the point, so a nonzero difference of degree d
    survives the check with probability at most d/PRIME (Schwartz, J. ACM
    27(4), 1980); a map that leaves the locus fails."""
    pool = ExactPool.sample(n, CERTIFICATE_POINTS, CERTIFICATE_SEED)
    t = int(child_rng(CERTIFICATE_SEED, 1).integers(2, PRIME))
    h = family_hamiltonian(fam_id)
    X, Y = exact_image(fam_id, t, pool.X, pool.Y)
    try:
        image = ExactPool(X, Y)
    except ValueError:  # the image leaves the traceless rank-one locus
        return False
    u = TracePolynomial.trace(((FIRST, 1), (SECOND, 1)), TRACELESS)
    for f in invariant_generators(n):
        if fam_id == "scaling":
            a, b = f.bidegree()
            if bracket_traceless(f, h) != 2 * (a - b) * u * f:
                return False
            pulled = pow(t, a - b, PRIME) * pool.values(f) % PRIME
        else:
            pulled, term, coeff = pool.values(f), f, 1
            for k in range(1, f.degree() + 2):
                term = bracket_traceless(term, h)
                if term.is_zero():
                    break
                coeff = coeff * t * pow(k, -1, PRIME) % PRIME
                pulled = (pulled + coeff * pool.values(term)) % PRIME
            else:
                return False  # a series that does not end is no shear's
        if (image.values(f) != pulled).any():
            return False
    return True


def certify_symplectic(fam: FlowFamily, pts: list[CMPoint]) -> FlowCertificate:
    """Certify the family on the traceless Calogero-Moser space of the points'
    n by `exact_certificate`: its map is the flow of its Hamiltonian, so it is
    symplectic there and keeps the locus, at every t.  The points give only n;
    the verdict does not read fam.t."""
    n = pts[0].pair.n
    return FlowCertificate(fam.id, fam.t, n, len(invariant_generators(n)), CERTIFICATE_POINTS, PRIME,
                           exact_certificate(fam.id, n))
