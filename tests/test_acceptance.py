"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time
from itertools import product as iter_product

import numpy as np

from cmpoisson.bracket import (
    EXACT,
    bracket,
    bracket_standard,
    bracket_traceless,
    jacobi_check,
    leading_part,
    tail_is_low_degree,
    verify_catalog,
)
from cmpoisson.catalog import load_catalog_entries, make_bracketformular_entry
from cmpoisson.chains import load_chain_records, replay_lemma_chain
from cmpoisson.closure import MembershipChecker, build_closure, standard_generators
from cmpoisson.cm import (
    PointEvaluator,
    diagonal_normal_form,
    evaluate,
    finite_difference_gradient,
    numeric_bracket,
    numeric_gradient,
    sample_cm,
)
from cmpoisson.flows import FAMILY_IDS, FlowFamily, certify_symplectic
from cmpoisson.grammar import parse_polynomial as P
from cmpoisson.modp import ExactPool
from cmpoisson.models import (
    CYLINDER,
    PLANE,
    TORUS,
    LaurentAdapter,
    LaurentPoly2,
    ProductSpace,
    TraceAdapter,
    default_generators,
    model_generation,
    product_bracket,
)
from cmpoisson.poly import PLAIN, TRACELESS
from conftest import ode_gap, random_polynomial, straight_product_poly, straight_word_products


def report(number: int, label: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({label}): {status} -- {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def test_criterion_1_exact_bracket_catalog():
    start = time.monotonic()
    entries = [e for e in load_catalog_entries() if e.kind == EXACT]
    result = verify_catalog(entries, n_value=3, sample_count=0)
    elapsed = time.monotonic() - start
    failing = [r.id for r in result.results if r.status != "pass"]
    report(
        1,
        "exact bracket catalog, exponents <= 5, n symbolic",
        not failing and elapsed < 10.0,
        f"{len(entries)} identities, failures {failing[:4]}, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_leading_term_law():
    start = time.monotonic()
    tuples = [
        (j, k, p, q)
        for j, k, p, q in iter_product(range(11), repeat=4)
        if 0 < j + k + p + q <= 10
    ]
    # the exact tail check mod p is strictly stronger than the float fit
    # residual < 1e-8 it replaced
    pools = {n: ExactPool.sample(n, 100, seed=100) for n in (2, 3)}
    symbolic_failures = []
    tail_failures = []
    tails = 0
    for j, k, p, q in tuples:
        entry = make_bracketformular_entry(j, k, p, q)
        computed = bracket_traceless(entry.lhs, entry.rhs)
        bound = j + k + p + q - 6
        if leading_part(computed, bound) != entry.expected.straighten():
            symbolic_failures.append((j, k, p, q))
            continue
        diff = computed - entry.expected
        if diff.is_zero():
            continue
        tails += 1
        for n in (2, 3):
            if not tail_is_low_degree(diff, bound, pools[n]):
                tail_failures.append((j, k, p, q, n))
    elapsed = time.monotonic() - start
    report(
        2,
        "weighted leading-term law, all exponent tuples <= 10",
        not symbolic_failures and not tail_failures,
        f"{len(tuples)} tuples, {tails} nonzero tails exact mod p at n = 2 and 3, "
        f"failures {tail_failures[:4]}, {elapsed:.0f}s",
    )


def test_criterion_3_symbolic_numeric_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 5))
        mode = PLAIN if rng.integers(0, 2) else TRACELESS
        pt = sample_cm(n, traceless=True, seed=55, index=int(rng.integers(0, 1000)))
        f = random_polynomial(rng, mode, max_degree=5)
        g = random_polynomial(rng, mode, max_degree=5)
        sym = bracket_standard(f, g) if mode == PLAIN else bracket_traceless(f, g)
        a = evaluate(sym, pt)
        b = numeric_bracket(f, g, pt)
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        checked += 1
    elapsed = time.monotonic() - start
    report(
        3,
        "evaluate(bracket) vs numeric bracket on 200 random triples",
        worst < 1e-9 and elapsed < 60.0,
        f"worst relative disagreement {worst:.2e} (< 1e-9), {elapsed:.0f}s (< 60s)",
    )


def test_criterion_4_sampler():
    start = time.monotonic()
    worst_rank = 0.0
    worst_trace = 0.0
    for n in (1, 2, 3, 4):
        for i in range(1000):
            pt = sample_cm(n, traceless=True, seed=404, index=i)
            worst_rank = max(worst_rank, pt.rank_residual)
            worst_trace = max(worst_trace, pt.trace_residual)
    X, Y = diagonal_normal_form(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
    closed_form = np.array_equal(
        X @ Y - Y @ X - 1j * np.eye(2), -1j * np.array([[1, -1], [-1, 1]])
    )
    elapsed = time.monotonic() - start
    report(
        4,
        "sampler: 1000 points per n in {1,2,3,4} + closed form",
        worst_rank < 1e-10 and worst_trace < 1e-12 and closed_form,
        f"worst rank residual {worst_rank:.2e} (< 1e-10), worst trace residual "
        f"{worst_trace:.2e}, exact 2x2 form {closed_form}, {elapsed:.0f}s",
    )


def test_criterion_5_flow_families():
    start = time.monotonic()
    # the exact certificate: each family's map is the flow of its Hamiltonian
    # on the traceless CM space, at every t (it replaces the float symplectic,
    # rank and trace bounds 1e-7, 1e-9 and 1e-10 on sampled images)
    pts = {n: [sample_cm(n, traceless=True, seed=505)] for n in (2, 3)}
    failed = [
        (fid, n) for n in (2, 3) for fid in FAMILY_IDS
        if not certify_symplectic(FlowFamily(fid, 1.0), pts[n]).passed
    ]
    # ode_flow vs closed form at steps = 400.  The shear families' fields are
    # constant along trajectories, so RK4 is exact at any t; the exponential
    # family is checked where 400 fixed steps resolve the O(steps^-4) error
    # below 1e-8 (|2 t tr AB| moderate).
    gaps = []
    for n in (2, 3):
        pt = sample_cm(n, traceless=True, seed=506)
        for fid in FAMILY_IDS:
            for t in (0.1, 0.3) if fid == "scaling" else (0.1, 1.0, 1 + 1j, 10.0):
                gaps.append(ode_gap(FlowFamily(fid, t), pt))
    elapsed = time.monotonic() - start
    report(
        5,
        "four flow families: exact certificate + integrator match",
        not failed and all(g < 1e-8 for g in gaps),
        f"exact certificate failed for {failed}, ode {max(gaps):.2e} (< 1e-8), {elapsed:.0f}s",
    )


def test_criterion_6_generation_at_desk_scale():
    start = time.monotonic()
    failures = []
    totals = {}
    for n, depth, target_degree in ((2, 8, 6), (3, 10, 8)):
        basis = build_closure(
            standard_generators(), depth_cap=depth, degree_cap=8, n_value=n, seed=0
        )
        checker = MembershipChecker(basis)
        targets = straight_word_products(target_degree)
        totals[n] = len(targets)
        for words in targets:
            cert = checker.check(straight_product_poly(words))
            if cert.status != "member":
                failures.append((n, words, cert.status))
    elapsed = time.monotonic() - start
    report(
        6,
        "generation: every product degree <= 6 (n=2) / <= 8 (n=3) certified",
        not failures and elapsed < 600.0,
        f"{totals[2]} + {totals[3]} exact certificates, "
        f"failures {failures[:3]}, {elapsed:.0f}s (< 10 min)",
    )


def test_criterion_7_lemma_replays():
    start = time.monotonic()
    failures = []
    for record in load_chain_records():
        rep = replay_lemma_chain(record, n_value=3, sample_count=40, seed=0)
        if not rep.passed:
            failures.append(record["lemma_id"])
    elapsed = time.monotonic() - start
    report(
        7,
        "lemma chains: power ladders (k <= 5) and rightward transport",
        not failures,
        f"{len(load_chain_records())} chains, failures {failures[:4]}, {elapsed:.0f}s",
    )


def test_criterion_8_model_spaces_and_products():
    start = time.monotonic()
    plane = model_generation(PLANE, default_generators(PLANE, 8), 8)
    cylinder = model_generation(CYLINDER, default_generators(CYLINDER, 4), 4)
    torus = model_generation(TORUS, default_generators(TORUS, 4), 4)
    coverage_ok = plane.passed and cylinder.passed and torus.passed

    space = ProductSpace(LaurentAdapter(PLANE), LaurentAdapter(PLANE))
    f = space.embed_left(LaurentPoly2.monomial(PLANE, (2, 1)))
    g = space.embed_right(LaurentPoly2.monomial(PLANE, (1, 2)))
    cross_zero = product_bracket(f, g).is_zero()
    polarization = (2 * (f * g)) == ((f + g) ** 2 - f ** 2 - g ** 2)

    mspace = ProductSpace(TraceAdapter(), TraceAdapter())
    mf = mspace.embed_left(P("tr(A^2)", TRACELESS))
    mg = mspace.embed_right(P("tr(A B)", TRACELESS))
    cross_zero &= product_bracket(mf, mg).is_zero()
    polarization &= (2 * (mf * mg)) == ((mf + mg) ** 2 - mf ** 2 - mg ** 2)
    elapsed = time.monotonic() - start
    report(
        8,
        "model spaces: exact coverage + product identities",
        coverage_ok and cross_zero and polarization,
        f"coverage plane/cylinder/torus = {plane.passed}/{cylinder.passed}/"
        f"{torus.passed}, cross-factor zero {cross_zero}, polarization "
        f"{polarization}, {elapsed:.0f}s",
    )


def test_criterion_9_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(909)

    failures = []
    for case in range(500):
        mode = PLAIN if case % 2 else TRACELESS
        f = random_polynomial(rng, mode, max_degree=4, max_terms=1)
        g = random_polynomial(rng, mode, max_degree=4, max_terms=1)
        h = random_polynomial(rng, mode, max_degree=4, max_terms=1)
        if not (bracket(f, g) + bracket(g, f)).is_zero():
            failures.append(("antisymmetry", case))
        if bracket(f * g, h) != f * bracket(g, h) + g * bracket(f, h):
            failures.append(("leibniz", case))
        if not jacobi_check(f, g, h).is_zero():
            failures.append(("jacobi", case))

    worst_ch = 0.0
    for case in range(100):
        n = 2 + case % 2
        pt = sample_cm(n, traceless=False, seed=910, index=case)
        p = random_polynomial(rng, PLAIN, max_degree=6)
        ev = PointEvaluator(pt)
        a = ev.poly_value(p)
        b = ev.poly_value(p.cayley_hamilton_reduce(n))
        worst_ch = max(worst_ch, abs(a - b) / max(1.0, abs(a)))

    worst_grad = 0.0
    for case in range(100):
        traceless = bool(case % 2)
        pt = sample_cm(3, traceless=traceless, seed=911, index=case)
        p = random_polynomial(rng, TRACELESS if traceless else PLAIN, max_degree=5)
        gx, gy = numeric_gradient(p, pt)
        fx, fy = finite_difference_gradient(p, pt)
        scale = max(1.0, np.abs(gx).max(), np.abs(gy).max())
        worst_grad = max(
            worst_grad, max(np.abs(gx - fx).max(), np.abs(gy - fy).max()) / scale
        )
    elapsed = time.monotonic() - start
    report(
        9,
        "property suites: bracket laws, reduction, gradients",
        not failures and worst_ch < 1e-10 and worst_grad < 1e-6,
        f"500 exact bracket-law triples (failures {failures[:2]}), reduction "
        f"residual {worst_ch:.2e} (< 1e-10), gradient residual {worst_grad:.2e} "
        f"(< 1e-6), {elapsed:.0f}s",
    )
