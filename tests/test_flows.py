"""Flow families: closed forms, the integrator, and symplectic certification."""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from cmpoisson import flows
from cmpoisson.closure import POOL_MARGIN, dimension
from cmpoisson.cm import (
    CMPoint,
    GradientPlan,
    MatrixPair,
    diagonal_normal_form,
    evaluate,
    numeric_gradient,
    sample_cm,
    symplectic_pullback_residual,
)
from cmpoisson.flows import (
    FAMILY_IDS,
    FlowFamily,
    certify_symplectic,
    family_hamiltonian,
    family_map,
    invariant_generators,
    ode_flow,
)
from cmpoisson.grammar import format_polynomial as F, parse_polynomial as P
from cmpoisson.modp import LAMBDAS, PRIME, Echelon, ExactPool, to_mod_p
from cmpoisson.poly import TRACELESS
from conftest import apply_family, ode_gap


def max_entry_diff(a, b):
    return float(
        max(np.abs(a.pair.X - b.pair.X).max(), np.abs(a.pair.Y - b.pair.Y).max())
    )


def test_all_families_are_identity_at_zero():
    pt = sample_cm(3, traceless=True, seed=1)
    for fid in FAMILY_IDS:
        out = apply_family(FlowFamily(fid, 0.0), pt)
        assert max_entry_diff(out, pt) == 0.0


def test_one_parameter_group_law():
    pt = sample_cm(3, traceless=True, seed=2)
    for fid in FAMILY_IDS:
        ts, ss = 0.37 + 0.1j, -0.21 + 0.05j
        composed = apply_family(FlowFamily(fid, ts), apply_family(FlowFamily(fid, ss), pt))
        direct = apply_family(FlowFamily(fid, ts + ss), pt)
        assert max_entry_diff(composed, direct) < 1e-12


def test_scaling_preserves_crossed_trace():
    pt = sample_cm(3, traceless=True, seed=3)
    out = apply_family(FlowFamily("scaling", 0.8 + 0.3j), pt)
    before = evaluate(P("tr(A B)", TRACELESS), pt)
    after = evaluate(P("tr(A B)", TRACELESS), out)
    assert abs(before - after) <= 1e-10 * max(1.0, abs(before))


def test_family_hamiltonians():
    assert F(family_hamiltonian("shearB")) == "tr(A^2)"
    assert F(family_hamiltonian("shearA")) == "tr(B^2)"
    assert F(family_hamiltonian("cubicShear")) == "tr(A^3)"
    assert F(family_hamiltonian("scaling")) == "tr(A B)*tr(A B)"
    with pytest.raises(ValueError):
        FlowFamily("spin", 1.0)


def test_families_preserve_invariants():
    for n in (2, 3):
        pt = sample_cm(n, traceless=True, seed=4)
        for fid in FAMILY_IDS:
            out = apply_family(FlowFamily(fid, 0.4 + 0.2j), pt)
            assert out.rank_residual < 1e-9
            assert out.trace_residual < 1e-10


def test_integrator_matches_quadratic_shear():
    pt = sample_cm(3, traceless=True, seed=5)
    fam = FlowFamily("shearB", 0.3)
    closed = apply_family(fam, pt)
    integ = ode_flow(family_hamiltonian(fam), pt, 0.3, 200)
    assert max_entry_diff(integ, closed) < 1e-8


def test_integrator_matches_cubic_shear_on_traceless_locus():
    pt = sample_cm(3, traceless=True, seed=6)
    fam = FlowFamily("cubicShear", 0.25 + 0.1j)
    closed = apply_family(fam, pt)
    integ = ode_flow(family_hamiltonian(fam), pt, fam.t, 200)
    assert max_entry_diff(integ, closed) < 1e-8


def test_crossed_trace_flow_scales_eigenfunctions():
    # along the flow of tr AB, tr A^j B^k scales by e^{(j-k)t}
    pt = sample_cm(3, traceless=True, seed=7)
    t = 0.4
    out = ode_flow(P("tr(A B)", TRACELESS), pt, t, 200)
    before = evaluate(P("tr(A^2 B)", TRACELESS), pt)
    after = evaluate(P("tr(A^2 B)", TRACELESS), out)
    assert abs(after - np.exp(t) * before) <= 1e-7 * max(1.0, abs(before))


def test_integrator_error_estimate_tracks_truth():
    fam = FlowFamily("scaling", 0.5)
    for seed in (8, 9, 10):
        pt = sample_cm(2, traceless=True, seed=seed)
        closed = apply_family(fam, pt)
        for steps in (20, 50, 200):
            out, est = ode_flow(family_hamiltonian(fam), pt, 0.5, steps, return_error=True)
            assert 0.5 <= max_entry_diff(out, closed) / est <= 2, (seed, steps)


def one_shot_rk4(h, pt, t, steps, stages=None):
    """RK4 as ode_flow takes it, on X and Y apart, with a fresh gradient of h at
    every stage; appends each stage's state [X, Y] to `stages` if given."""
    X, Y = pt.pair.X.copy(), pt.pair.Y.copy()
    dt = t / steps

    def field(Xc, Yc):
        if stages is not None:
            stages.append(np.stack((Xc, Yc)))
        dX, dY = numeric_gradient(h, CMPoint(MatrixPair(pt.pair.n, Xc, Yc), pt.traceless, 0.0, 0.0))
        return dt * dY.T, dt * -dX.T

    for _ in range(steps):
        k1x, k1y = field(X, Y)
        k2x, k2y = field(X + k1x / 2, Y + k1y / 2)
        k3x, k3y = field(X + k2x / 2, Y + k2y / 2)
        k4x, k4y = field(X + k3x, Y + k3y)
        X = X + (k1x + 2 * k2x + 2 * k3x + k4x) / 6
        Y = Y + (k1y + 2 * k2y + 2 * k3y + k4y) / 6
    return X, Y


MIXED_HAMILTONIAN = "tr(A^2 B)*tr(B^2) + 1/3*tr(A B A B^2)"


def with_negative_zero_imaginary_parts(pt):
    """pt with Y replaced by Re Y - 0i: where a field entry is 0 (all of dX
    for shearA), the sign of that zero decides the sign of a stage's zero."""
    Y = np.empty_like(pt.pair.Y)
    Y.real = pt.pair.Y.real
    Y.imag = -0.0
    return CMPoint(MatrixPair(pt.pair.n, pt.pair.X, Y), pt.traceless, 0.0, 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_compiled_field_carries_no_state_between_stages(n, monkeypatch):
    # the gradient compiled once per integration must give at every stage
    # what a freshly computed gradient gives, and the stacked RK4 must reach
    # every stage state that stepping X and Y apart reaches, bit for bit
    seen = []
    stacked = GradientPlan.stacked
    monkeypatch.setattr(GradientPlan, "stacked", lambda plan, Z: seen.append(Z) or stacked(plan, Z))
    pt = sample_cm(n, traceless=True, seed=14)
    hamiltonians = [family_hamiltonian(fid) for fid in FAMILY_IDS] + [P(MIXED_HAMILTONIAN, TRACELESS)]
    for point in (pt, with_negative_zero_imaginary_parts(pt)):
        for t in (0.3 + 0.1j, 0.3):
            for h in hamiltonians:
                seen.clear()
                out = ode_flow(h, point, t, 5)
                states = [Z.tobytes() for Z in seen]
                stages = []
                X, Y = one_shot_rk4(h, point, t, 5, stages)
                assert out.pair.X.tobytes() == X.tobytes() and out.pair.Y.tobytes() == Y.tobytes(), F(h)
                assert states == [Z.tobytes() for Z in stages], (F(h), t)


def test_error_estimate_leaves_the_endpoint_unchanged():
    pt = sample_cm(3, traceless=True, seed=15)
    for h in [family_hamiltonian(fid) for fid in FAMILY_IDS] + [P(MIXED_HAMILTONIAN, TRACELESS)]:
        plain = ode_flow(h, pt, 0.2 + 0.1j, 7)
        out, est = ode_flow(h, pt, 0.2 + 0.1j, 7, return_error=True)
        assert out.pair.X.tobytes() == plain.pair.X.tobytes(), F(h)
        assert out.pair.Y.tobytes() == plain.pair.Y.tobytes(), F(h)
        assert 0.0 < est < 1e-3


@pytest.mark.parametrize("return_error", [False, True])
def test_diverging_integration_raises(return_error):
    # e^{2t tr AB} at t = 50 leaves double range; of the first points at
    # seed 0, index 2 is the one whose 400-step integration overflows
    pt = sample_cm(2, traceless=True, seed=0, index=2)
    with pytest.raises(FloatingPointError, match="^non-finite state during integration$"):
        ode_flow(family_hamiltonian("scaling"), pt, 50.0, 400, return_error=return_error)


def test_integrator_rejects_bad_steps():
    pt = sample_cm(2, traceless=True, seed=8)
    with pytest.raises(ValueError):
        ode_flow(P("tr(A^2)", TRACELESS), pt, 1.0, 0)


@pytest.mark.parametrize(
    "miss, err, verdict",
    [(0.0, 1.0, "pass"), (0.999e-9, 1.0, "pass"), (1e-6, 8e-9, "unresolved"), (1e-6, 7e-9, "FAIL"),
     (1e-6, 0.0, "FAIL")],
)
def test_endpoint_verdict_rule(miss, err, verdict):
    # an endpoint whose largest entry is 8: the estimate is judged relative to 8
    end = CMPoint.from_matrices(np.diag([8.0, -8.0]), np.zeros((2, 2)), traceless=True)
    assert flows.endpoint_verdict(miss, end, err) == verdict


def test_certification_passes_for_families():
    for n in (1, 2, 3, 4):
        pts = [sample_cm(n, traceless=True, seed=9)]
        for fid in FAMILY_IDS:
            cert = certify_symplectic(FlowFamily(fid, 1 + 1j), pts)
            assert cert.passed, (fid, n)
            assert (cert.family, cert.n, cert.generators, cert.points, cert.prime) == (
                fid, n, len(invariant_generators(n)), flows.CERTIFICATE_POINTS, PRIME)


def test_certifier_flags_non_symplectic_jacobian(monkeypatch, fresh_certificates):
    # (X, Y) -> (X, 2Y) scales the symplectic form and leaves the locus
    monkeypatch.setattr(flows, "_traceless_image", lambda fam, A, B: (A, 2 * B))
    pts = [sample_cm(2, traceless=True, seed=9)]
    assert not certify_symplectic(FlowFamily("shearB", 0.5), pts).passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_invariant_generators_generate(n):
    # the products of degree <= 8 of the words the certificate checks span the
    # functions of degree <= 8 on the traceless CM space (Molien's dimension)
    target = dimension(n, 8)
    pool = ExactPool.sample(n, target + POOL_MARGIN, seed=0)
    gens = invariant_generators(n)
    columns, degrees = [pool.values(g) for g in gens], [g.degree() for g in gens]
    echelon = Echelon(len(pool))
    for size in range(5):  # every generator has degree >= 2
        for factors in combinations_with_replacement(range(len(columns)), size):
            if sum(degrees[i] for i in factors) <= 8:
                row = np.ones(len(pool), dtype=np.int64)
                for i in factors:
                    row = row * columns[i] % PRIME
                echelon.add(row)
    assert echelon.rank == target


def test_kernel_shear_conserves_its_factor():
    # h = (tr AB)^2: the factor 2 tr AB is constant along the flow
    pt = sample_cm(3, traceless=True, seed=10)
    traj = ode_flow(family_hamiltonian("scaling"), pt, 0.6 + 0.2j, 100)
    before = evaluate(P("2*tr(A B)", TRACELESS), pt)
    after = evaluate(P("2*tr(A B)", TRACELESS), traj)
    assert abs(before - after) <= 1e-8 * max(1.0, abs(before))


def test_completeness_witnesses_at_large_parameters():
    pt = sample_cm(2, traceless=True, seed=11)
    for fid in ("shearB", "shearA", "cubicShear"):
        for t in (1e3, 1e3 * 1j):
            Xp, Yp = family_map(FlowFamily(fid, t))(pt.pair.X, pt.pair.Y)
            assert np.all(np.isfinite(Xp)) and np.all(np.isfinite(Yp))
    # the exponential family: |t| = 1e3 along the direction keeping 2t tr(AB)
    # imaginary, so the modulus-1 exponential stays in double range
    A, B = pt.pair.X, pt.pair.Y
    u = np.trace(A @ B)
    t = 1e3 * 1j * np.conj(u) / abs(u)
    assert abs(t) == pytest.approx(1e3)
    Xp, Yp = family_map(FlowFamily("scaling", t))(A, B)
    assert np.all(np.isfinite(Xp)) and np.all(np.isfinite(Yp))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_family_jacobian_matches_finite_differences(fid, n):
    # the finite-difference Jacobian of the float map pulls the symplectic
    # form back to itself: an oracle on family_map beside the exact certificate
    pt = sample_cm(n, traceless=True, seed=13)
    assert symplectic_pullback_residual(family_map(FlowFamily(fid, 0.3 + 0.2j)), pt) < 1e-8


def gaussian_mod_p(z):
    """a + bi in F_p, with i the square root of -1 that is -lambda."""
    z = np.asarray(z, dtype=complex)
    i_p = -LAMBDAS[PRIME] % PRIME
    reduce = np.vectorize(lambda v: (to_mod_p(Fraction(v.real)) + to_mod_p(Fraction(v.imag)) * i_p) % PRIME,
                          otypes=[np.int64])
    return reduce(z)


@pytest.mark.parametrize("fid", ["shearB", "shearA", "cubicShear"])
def test_family_map_is_the_exact_image(fid):
    # at this point and t the float entries and images are dyadic Gaussian
    # rationals, so exact, and they reduce mod p
    X, Y = diagonal_normal_form(np.array([-2.0, 0.0, 2.0]), np.array([0.5, -0.25, -0.25]))
    t = 0.5 + 0.25j
    Xf, Yf = family_map(FlowFamily(fid, t))(X, Y)
    Xp, Yp = flows.exact_image(fid, int(gaussian_mod_p(t)), gaussian_mod_p(X)[None], gaussian_mod_p(Y)[None])
    assert np.array_equal(gaussian_mod_p(Xf), Xp[0]) and np.array_equal(gaussian_mod_p(Yf), Yp[0])


@pytest.mark.parametrize("factor", [1, 3])
def test_wrong_scaling_exponent_fails_the_integrator_comparison(monkeypatch, factor):
    # the free unit of the exact certificate cannot see w = e^{2t tr AB}; the
    # RK4 comparison of criterion 5 (t = 0.1 and 0.3, gap below 1e-8) does
    def image(fam, A, B):
        w = np.exp(factor * fam.t * np.trace(A @ B))
        return A * w, B / w

    monkeypatch.setattr(flows, "_traceless_image", image)
    for n in (2, 3):
        pt = sample_cm(n, traceless=True, seed=506)
        assert all(ode_gap(FlowFamily("scaling", t), pt) > 1e-8 for t in (0.1, 0.3))


def test_scaling_certifies_at_the_t50_fault_points():
    # these failed on finite-difference truncation (up to 8.2e-5) and on the
    # rank residual of the stored image (up to 1.0, with B e^{-2tu} drowned
    # in the trace part)
    for n in (2, 3):
        pts = [sample_cm(n, traceless=True, seed=505, index=i) for i in range(10)]
        assert certify_symplectic(FlowFamily("scaling", 50.0), pts).passed


SCALING_T10_PAIRS = {
    2: [(0, 3), (23, 0), (55, 0)],
    3: [(6, 4), (6, 6), (9, 4), (19, 2), (26, 5), (28, 0), (28, 2), (39, 10), (41, 1),
        (41, 2), (45, 8), (51, 4), (62, 5), (66, 11), (69, 4), (70, 11)],
}


def test_scaling_certifies_at_the_t10_pairs():
    # finite differences gave residuals of 1.1e-7 to 1.7e-6 at these points
    for n, pairs in SCALING_T10_PAIRS.items():
        pts = [sample_cm(n, traceless=True, seed=s, index=i) for s, i in pairs]
        assert certify_symplectic(FlowFamily("scaling", 10.0), pts).passed
