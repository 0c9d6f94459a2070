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
traceless rank-one locus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cm import (
    CMPoint,
    MatrixPair,
    gradient_function,
    pullback_residual,
    rank_residual,
    trace_residual,
)
from .poly import TRACELESS, TracePolynomial
from .words import FIRST, SECOND

FAMILY_IDS = ("shearB", "shearA", "cubicShear", "scaling")

# certificate tolerances, looser than the sampler's cm.RANK_TOL and
# cm.TRACE_TOL: a flow's image also carries the rounding of the map or the ODE
SYMPLECTIC_TOL = 1e-7
FLOW_RANK_TOL = 1e-9
FLOW_TRACE_TOL = 1e-10


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
    """The traceless parts (A', B') of a family's image; tr X and tr Y are conserved."""
    t = fam.t
    n = A.shape[0]
    if fam.id == "shearB":
        return A, B - 2 * t * A
    if fam.id == "shearA":
        return A + 2 * t * B, B
    if fam.id == "cubicShear":
        A2 = A @ A
        return A, B - 3 * t * A2 + (3 * t / n) * np.trace(A2) * np.eye(n)
    # split form: A and B scale by exp(+-2tu); the equivalent
    # X + A(e^c - 1) cancels catastrophically when e^c ~ 0
    with np.errstate(all="ignore"):  # a non-finite image is caught by its rank test
        w = np.exp(2 * t * np.trace(A @ B))
        return A * w, B / w


def _central_split(X: np.ndarray, Y: np.ndarray):
    """(A, B, tr X/n I, tr Y/n I) for one pair or a stack of pairs."""
    n = X.shape[-1]
    eye = np.eye(n, dtype=complex)
    cX = (np.trace(X, axis1=-2, axis2=-1) / n)[..., None, None] * eye
    cY = (np.trace(Y, axis1=-2, axis2=-1) / n)[..., None, None] * eye
    return X - cX, Y - cY, cX, cY


def family_map(fam: FlowFamily) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Closed-form point map of a family on ambient matrix pairs."""

    def mapper(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        A, B, cX, cY = _central_split(X, Y)
        Ap, Bp = _traceless_image(fam, A, B)
        return Ap + cX, Bp + cY

    return mapper


def family_jacobian(fam: FlowFamily, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The closed-form Jacobian of a family at (X, Y), in the flattened (X, Y)
    coordinates of `cm.symplectic_structure_matrix`.

    Column b is the image of the b-th of the 2n^2 basis directions (dX, dY),
    all computed at once as a (2n^2, n, n) stack.  The shears are linear, so
    their image of the direction stack is their Jacobian, and cubicShear has
    dB' = dB - 3t(dA A + A dA) + (6t/n) tr(A dA) I.

    For scaling the result is the Jacobian of the flow followed by the
    rescaling (X, Y) -> (A/s + (tr X/n) I, s B + (tr Y/n) I), s = e^{2tu} at
    the point: dA' = dA + 2t du A, dB' = dB - 2t du B, du = tr(dA B + A dB).
    For any scalar s the rescaling preserves tr(dX ^ dY) exactly (tr dA =
    tr dB = 0 kills the cross terms), so the composition is symplectic exactly
    when the flow is, and its entries stay O(1) however large |t tr AB| is.
    """
    n = X.shape[0]
    dim = n * n
    units = np.eye(dim, dtype=complex).reshape(dim, n, n)
    zeros = np.zeros_like(units)
    dA, dB, dcX, dcY = _central_split(np.concatenate([units, zeros]), np.concatenate([zeros, units]))
    A, B, _, _ = _central_split(X, Y)
    t = fam.t
    if fam.id in ("shearB", "shearA"):
        dAp, dBp = _traceless_image(fam, dA, dB)
    elif fam.id == "cubicShear":
        trace_term = (6 * t / n) * np.einsum("ij,bji->b", A, dA)[:, None, None] * np.eye(n)
        dAp, dBp = dA, dB - 3 * t * (dA @ A + A @ dA) + trace_term
    else:
        du = (np.einsum("bij,ji->b", dA, B) + np.einsum("ij,bji->b", A, dB))[:, None, None]
        dAp, dBp = dA + 2 * t * du * A, dB - 2 * t * du * B
    images = np.concatenate([(dAp + dcX).reshape(2 * dim, dim), (dBp + dcY).reshape(2 * dim, dim)], axis=1)
    return images.T


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
    out = CMPoint.from_matrices(Z1[0], Z1[1], pt.traceless, pt.seed, pt.index, pt.lambda_const)
    if not return_error:
        return out
    Z2 = integrate(2 * steps)
    err = float(np.abs(Z2 - Z1).max() * 16 / 15)
    return out, err


@dataclass
class FlowCheckRecord:
    family: str
    t: complex
    n: int
    point_id: int
    symplectic_residual: float
    rank_residual: float
    trace_residual: float
    passed: bool


@dataclass
class FlowReport:
    records: list[FlowCheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def certify_symplectic(fam: FlowFamily, pts: list[CMPoint]) -> FlowReport:
    """Certify that a family is symplectic and preserves the rank condition and
    the traceless locus on the given sample points.

    The symplectic residual comes from the closed-form `family_jacobian`.  The
    rank test uses [A', B'] + lambda I of the traceless image parts, which
    equals [X', Y'] + lambda I and stays resolvable when the trace parts dwarf
    a scaled B' = B e^{-2tu}."""
    report = FlowReport()
    for idx, pt in enumerate(pts):
        X, Y = pt.pair.X, pt.pair.Y
        n = pt.pair.n
        res = pullback_residual(family_jacobian(fam, X, Y), n)
        A, B, cX, cY = _central_split(X, Y)
        Ap, Bp = _traceless_image(fam, A, B)
        rres = rank_residual(MatrixPair(n, Ap, Bp), pt.lambda_const)
        tres = trace_residual(MatrixPair(n, Ap + cX, Bp + cY)) if pt.traceless else 0.0
        ok = res < SYMPLECTIC_TOL and rres < FLOW_RANK_TOL and tres < FLOW_TRACE_TOL
        report.records.append(FlowCheckRecord(fam.id, fam.t, n, idx, res, rres, tres, ok))
    return report
