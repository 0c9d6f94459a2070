"""The four benchmark workloads.

A workload makes its inputs from the seed when it is constructed, lists its
operations in ops(), and checks the outputs of the operations that did not
fail in check().  One round runs every operation once, in a fixed order, so every
round of a workload attempts the same operations.  An operation returns
(ok, output); ok is the program's own verdict, and an operation whose verdict
is negative, or which raises, counts as failed.  check() returns the list of
problems found by the independent references in oracle.py; an empty list
means the outputs are correct.

Program functions are looked up through their modules at call time, so the
wrappers that tracing.py installs see the calls made from here.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

import oracle

bracket, catalog, chains, closure, cm, flows, grammar, models, poly, ring, words = (
    importlib.import_module(f"cmpoisson.{name}")
    for name in ("bracket", "catalog", "chains", "closure", "cm", "flows",
                 "grammar", "models", "poly", "ring", "words")
)
PLAIN, TRACELESS = poly.PLAIN, poly.TRACELESS

DEGREE_CAP = 8                  # the CLI's default --degree
FAULT_SEED = 505                # fixed points of the scaling |t| = 50 fault
FAULT_T = 50.0
SHEAR_TS = (0.1, 1.0, 1 + 1j, 10.0)
SCALING_TS = (0.1, 0.5j, 1.0)
ODE_STEPS = 400
FD_TOL = 1e-8                   # central-difference bracket, relative to its terms


def trace_poly(mode, runs, coeff=1, n_power=0):
    """coeff * n^n_power * tr(word); a run list of (letter, exponent)."""
    return poly.TracePolynomial.trace(runs, mode, ring.QnCoeff.of(coeff, n_power))


def product_poly(mode, words_runs, coeff: Fraction, n_power: int):
    factors = tuple(words.canonicalize(tuple(r)) for r in words_runs)
    return poly.TracePolynomial(mode, [(((0, 0), factors), ring.QnCoeff.of(coeff, n_power))])


def straight_products(max_degree: int):
    """Every multiset of straight words A^p B^q (p + q >= 2) of total degree
    <= max_degree, as tuples of (p, q)."""
    factors = [(p, d - p) for d in range(2, max_degree + 1) for p in range(d + 1)]
    out = []

    def extend(start, remaining, chosen):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(factors)):
            if sum(factors[i]) <= remaining:
                extend(i, remaining - sum(factors[i]), chosen + [factors[i]])

    extend(0, max_degree, [])
    return out


def straight_runs(p: int, q: int):
    return [r for r in ((0, p), (1, q)) if r[1]]


class Workload:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 7])

    def ops(self):
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

class Generation(Workload):
    """Lie closure of the four standard generators at n = 2 and n = 3 at the
    CLI's default caps, then a membership certificate for every straight
    product of degree <= TARGET_DEGREE[n], as in acceptance criterion 6."""

    CHECK_POINTS = 40
    # Certificates fit to 1e-8 on their own points; away from them the
    # least-squares coefficients of degree-8 targets miss by up to about 3e-8
    # at n = 3 (and 2e-7 at n = 2, a degree this workload does not certify).
    FRESH_TOL = 1e-6

    TARGET_DEGREE = {2: 6, 3: 8}

    def __init__(self, seed):
        super().__init__(seed)
        self.targets = {n: straight_products(d) for n, d in self.TARGET_DEGREE.items()}
        self.checkers = {}

    def ops(self):
        for n in (2, 3):
            yield f"closure n={n}", lambda n=n: self.build(n)
            for t in self.targets[n]:
                yield f"membership n={n} {t}", lambda n=n, t=t: self.certify(n, t)

    def build(self, n):
        basis = closure.build_closure(
            closure.standard_generators(), depth_cap=closure.default_depth_cap(n),
            degree_cap=DEGREE_CAP, n_value=n, seed=self.seed,
        )
        self.checkers[n] = closure.MembershipChecker(basis)
        return True, basis

    def certify(self, n, target):
        words_runs = [straight_runs(p, q) for p, q in target]
        cert = self.checkers[n].check(product_poly(TRACELESS, words_runs, Fraction(1), 0))
        return cert.valid, (words_runs, cert.coefficients)

    def check(self, outputs):
        problems = []
        for n in (2, 3):
            basis = outputs.get(f"closure n={n}")
            if basis is None:
                continue
            if len(basis.elements) != oracle.MODP_RANK[n]:
                problems.append(
                    f"closure n={n} has {len(basis.elements)} elements, "
                    f"exact rank mod p is {oracle.MODP_RANK[n]}"
                )
            X, Y = oracle.sample_points(n, self.CHECK_POINTS, np.random.default_rng([self.seed, n]))
            ev = oracle.Evaluator(X, Y)
            values = np.array([ev.value(e) for e in basis.elements]).T
            for t in self.targets[n]:
                out = outputs.get(f"membership n={n} {t}")
                if out is None:
                    continue
                words_runs, coeffs = out
                target = product_poly(TRACELESS, words_runs, Fraction(1), 0)
                c = np.array(coeffs)
                # rounding in a sum scales with its terms, so measure against them
                size = np.maximum(np.abs(values) @ np.abs(c), 1.0)
                gap = float(np.max(np.abs(values @ c - ev.value(target)) / size))
                if not gap < self.FRESH_TOL:
                    problems.append(f"membership n={n} {t}: combination misses target by {gap:.1e}")
        return problems


# ----------------------------------------------------------------------
# leading_law
# ----------------------------------------------------------------------

def law_template(j, k, p, q):
    """Leading part of {tr A^j B^k, tr A^p B^q} by the weighted bidegree law:
    (jq - kp) tr A^{j+p-1}B^{k+q-1} - (jq/n) tr A^{j-1}B^k tr A^pB^{q-1}
    + (kp/n) tr A^jB^{k-1} tr A^{p-1}B^q."""
    out = poly.TracePolynomial.zero(TRACELESS)
    for coeff, n_power, pairs in (
        (j * q - k * p, 0, [(j + p - 1, k + q - 1)]),
        (-j * q, -1, [(j - 1, k), (p, q - 1)]),
        (k * p, -1, [(j, k - 1), (p - 1, q)]),
    ):
        if coeff:
            out = out + product_poly(
                TRACELESS, [straight_runs(a, b) for a, b in pairs], Fraction(coeff), n_power
            )
    return out


class LeadingLaw(Workload):
    """All exponent tuples with 0 < j+k+p+q <= 10: exact bracket, leading part
    against the closed-form template, tail fitted on 100-point pools at
    n = 2 and n = 3."""

    POOL = 100
    TOL = 1e-8
    FD_SAMPLE = 20

    def __init__(self, seed):
        super().__init__(seed)
        self.tuples = [
            t for t in iter_product(range(11), repeat=4) if 0 < sum(t) <= 10
        ]
        self.pools = {
            n: [cm.PointEvaluator(cm.sample_cm(n, traceless=True, seed=seed, index=i))
                for i in range(self.POOL)]
            for n in (2, 3)
        }

    def ops(self):
        for t in self.tuples:
            yield f"law {t}", lambda t=t: self.law(*t)

    def law(self, j, k, p, q):
        entry = catalog.make_bracketformular_entry(j, k, p, q)
        computed = bracket.bracket_traceless(entry.lhs, entry.rhs)
        bound = j + k + p + q - 6
        lead = bracket.leading_part(computed, bound)
        if lead != entry.expected.straighten():
            return False, None
        diff = computed - entry.expected
        residuals = []
        if not diff.is_zero():
            residuals = [
                bracket.fit_tail_on_variety(diff, computed, bound, self.pools[n]) for n in (2, 3)
            ]
        return all(r < self.TOL for r in residuals), (computed, lead)

    def check(self, outputs):
        problems = []
        for t in self.tuples:
            out = outputs.get(f"law {t}")
            if out is None:
                continue
            if out[1] != law_template(*t).straighten():
                problems.append(f"law {t}: leading part differs from the template")
        X, Y = oracle.sample_points(3, self.FD_SAMPLE, self.rng)
        picks = self.rng.choice(len(self.tuples), self.FD_SAMPLE, replace=False)
        for i, pick in enumerate(picks):
            j, k, p, q = t = self.tuples[pick]
            out = outputs.get(f"law {t}")
            if out is None:
                continue
            f = trace_poly(TRACELESS, straight_runs(j, k))
            g = trace_poly(TRACELESS, straight_runs(p, q))
            value = oracle.Evaluator(X[i:i + 1], Y[i:i + 1]).value(out[0])[0]
            gap = oracle.fd_bracket_gap(value, f, g, X[i], Y[i])
            if not gap < FD_TOL:
                problems.append(f"law {t}: bracket differs from central differences by {gap:.1e}")
        return problems


# ----------------------------------------------------------------------
# flows
# ----------------------------------------------------------------------

class Flows(Workload):
    """certify_symplectic for the four families at several t, and RK4
    integration against the closed form, at n = 2 and n = 3.

    The scaling certifications at t = 50 on the fixed points FAULT_SEED/0..9
    fail today on an exactly symplectic map (finite-difference truncation in
    the pullback residual); they run in every round, whatever the seed."""

    # More points at n = 3 make the median operation an n = 3 shear
    # certification, not whichever of several smaller groups lies nearest.
    POINTS = {2: 4, 3: 12}

    def __init__(self, seed):
        super().__init__(seed)
        self.points = {
            n: [cm.sample_cm(n, traceless=True, seed=seed, index=i) for i in range(count)]
            for n, count in self.POINTS.items()
        }
        self.fault_points = {
            n: [cm.sample_cm(n, traceless=True, seed=FAULT_SEED, index=i) for i in range(10)]
            for n in (2, 3)
        }
        self.ode_points = {n: cm.sample_cm(n, traceless=True, seed=seed, index=100) for n in (2, 3)}

    def ops(self):
        for n in (2, 3):
            for fam in flows.FAMILY_IDS:
                for t in SCALING_TS if fam == "scaling" else SHEAR_TS:
                    for i, pt in enumerate(self.points[n]):
                        yield (f"certify {fam} t={t} n={n} point={self.seed}/{i}",
                               lambda fam=fam, t=t, pt=pt: self.certify(fam, t, pt))
            for i, pt in enumerate(self.fault_points[n]):
                yield (f"certify scaling t={FAULT_T} n={n} point={FAULT_SEED}/{i}",
                       lambda pt=pt: self.certify("scaling", FAULT_T, pt))
            for fam in flows.FAMILY_IDS:
                for t in (0.1,) if fam == "scaling" else (0.1, 1 + 1j):
                    yield (f"ode {fam} t={t} n={n} point={self.seed}/100",
                           lambda fam=fam, t=t, n=n: self.integrate(fam, t, self.ode_points[n]))

    def certify(self, fam, t, pt):
        report = flows.certify_symplectic(flows.FlowFamily(fam, t), [pt])
        return report.passed, (fam, t, pt)

    def integrate(self, fam, t, pt):
        end = flows.ode_flow(flows.family_hamiltonian(fam), pt, t, ODE_STEPS)
        return True, (fam, t, pt, end)

    def check(self, outputs):
        problems = []
        for name, out in outputs.items():
            if name.startswith("certify"):
                fam, t, pt = out
                if t == FAULT_T:
                    # the image scales as exp(+-100 Re tr AB): not representable
                    # in double precision, so there is no image to test
                    continue
                X, Y = pt.pair.X, pt.pair.Y
                Xp, Yp = flows.family_map(flows.FlowFamily(fam, t))(X, Y)
                Xr, Yr = oracle.closed_form(fam, t, X, Y)
                gap = max(oracle.relative_gap(Xp, Xr), oracle.relative_gap(Yp, Yr))
                rank, trace = oracle.locus_residuals(Xp, Yp)
                if not (gap < 1e-12 and rank < 1e-8 and trace < 1e-10):
                    problems.append(
                        f"{name}: image off the locus (closed form {gap:.1e}, "
                        f"rank {rank:.1e}, trace {trace:.1e})"
                    )
            else:
                fam, t, pt, end = out
                Xr, Yr = oracle.closed_form(fam, t, pt.pair.X, pt.pair.Y)
                scale = max(1.0, np.abs(Xr).max(), np.abs(Yr).max())
                gap = max(np.abs(end.pair.X - Xr).max(), np.abs(end.pair.Y - Yr).max()) / scale
                if not gap < 1e-8:
                    problems.append(f"{name}: RK4 misses the closed form by {gap:.1e}")
        return problems


# ----------------------------------------------------------------------
# symbolic
# ----------------------------------------------------------------------

# Fixed input shapes keep the work per round the same for every seed: the
# seed picks letter orders and coefficients, not sizes.  A shape is a tuple
# of factor bidegrees.
TRIPLE_SHAPES = [
    ((1, 1),), ((2, 1),), ((1, 2),), ((2, 2),), ((3, 1),), ((1, 3),),
    ((1, 1), (1, 1)), ((2, 0), (0, 2)), ((1, 1), (2, 0)), ((0, 2), (1, 1)),
    ((4, 0),), ((0, 4),),
]
# Cayley-Hamilton inputs: run lists whose long runs need rewriting at n = 2, 3
CH_WORDS = [
    ((0, 3),), ((0, 4), (1, 1)), ((0, 3), (1, 2)), ((0, 2), (1, 4)), ((0, 5), (1, 1)),
    ((0, 3), (1, 3)), ((0, 6),), ((1, 4), (0, 1), (1, 1)), ((0, 4),), ((1, 3), (0, 3)),
]


class Symbolic(Workload):
    """Exact identity checks: the catalog with n symbolic, antisymmetry,
    Leibniz and Jacobi on random triples in both modes, Cayley-Hamilton
    reductions at n = 2 and 3, lemma-chain replays, model-space generation
    and product identities."""

    TRIPLES = 500
    REDUCTIONS = 200

    def __init__(self, seed, catalog_entries, chain_records):
        super().__init__(seed)
        self.entries = [e for e in catalog_entries if e.kind == bracket.EXACT]
        self.chains = chain_records
        self.triples = [
            tuple(self.shaped(PLAIN if i % 2 else TRACELESS, TRIPLE_SHAPES[(i * s + s) % 12])
                  for s in (1, 5, 7))
            for i in range(self.TRIPLES)
        ]
        self.reductions = []
        for i in range(self.REDUCTIONS):
            mode = PLAIN if i % 2 else TRACELESS
            a, b = CH_WORDS[i % 10], CH_WORDS[(3 * i + 1) % 10]
            self.reductions.append((2 + (i // 2) % 2, self.coeff_poly(mode, [[a], [b, b[:1]]])))

    def shaped(self, mode, shape):
        words_runs = []
        for a, b in shape:
            letters = self.rng.permutation([0] * a + [1] * b)
            words_runs.append(list(words.runs_from_letters([int(x) for x in letters])))
        return self.coeff_poly(mode, [words_runs])

    def coeff_poly(self, mode, terms):
        """Sum of products of the given words with random coefficients in Q[n, 1/n]."""
        out = poly.TracePolynomial.zero(mode)
        for words_runs in terms:
            coeff = Fraction(int(self.rng.integers(1, 5)) * int(self.rng.choice([-1, 1])),
                             int(self.rng.integers(1, 4)))
            out = out + product_poly(mode, words_runs, coeff, int(self.rng.integers(-1, 2)))
        return out

    def ops(self):
        for e in self.entries:
            yield f"catalog {e.id}", lambda e=e: self.catalog_entry(e)
        for i, (f, g, h) in enumerate(self.triples):
            yield f"antisymmetry {i}", lambda f=f, g=g: self.antisymmetry(f, g)
            yield f"leibniz {i}", lambda f=f, g=g, h=h: (
                bracket.bracket(f * g, h) == f * bracket.bracket(g, h) + g * bracket.bracket(f, h), None)
            yield f"jacobi {i}", lambda f=f, g=g, h=h: (bracket.jacobi_check(f, g, h).is_zero(), None)
        for i, (n, p) in enumerate(self.reductions):
            yield f"reduce {i} n={n}", lambda n=n, p=p: (True, p.cayley_hamilton_reduce(n))
        for record in self.chains:
            yield f"chain {record['lemma_id']}", lambda r=record: (
                chains.replay_lemma_chain(r, n_value=3, sample_count=40, seed=self.seed).passed, None)
        for space, cap in ((models.PLANE, 8), (models.CYLINDER, 4), (models.TORUS, 4)):
            yield f"model {space}", lambda s=space, c=cap: (
                models.model_generation(s, models.default_generators(s, c), c).passed, None)
        yield "product plane x plane", self.plane_product
        yield "product trace x trace", self.trace_product

    def catalog_entry(self, e):
        report = bracket.verify_catalog([e], n_value=3, sample_count=0)
        return report.passed, e

    def antisymmetry(self, f, g):
        fg = bracket.bracket(f, g)
        return (fg + bracket.bracket(g, f)).is_zero(), (f, g, fg)

    def plane_product(self):
        space = models.ProductSpace(models.LaurentAdapter(models.PLANE), models.LaurentAdapter(models.PLANE))
        f = space.embed_left(models.LaurentPoly2.monomial(models.PLANE, (2, 1)))
        g = space.embed_right(models.LaurentPoly2.monomial(models.PLANE, (1, 2)))
        ok = models.product_bracket(f, g).is_zero() and 2 * (f * g) == (f + g) ** 2 - f ** 2 - g ** 2
        return ok, None

    def trace_product(self):
        space = models.ProductSpace(models.TraceAdapter(), models.TraceAdapter())
        f = space.embed_left(trace_poly(TRACELESS, [(0, 2)]))
        g = space.embed_right(trace_poly(TRACELESS, [(0, 1), (1, 1)]))
        ok = models.product_bracket(f, g).is_zero() and 2 * (f * g) == (f + g) ** 2 - f ** 2 - g ** 2
        return ok, None

    def check(self, outputs):
        problems = []
        X, Y = oracle.random_matrices(3, 1, self.rng)
        at = oracle.Evaluator(X, Y)

        def fd_agrees(name, f, g, value):
            gap = oracle.fd_bracket_gap(value, f, g, X[0], Y[0])
            if not gap < FD_TOL:
                problems.append(f"{name}: bracket differs from central differences by {gap:.1e}")

        for name, out in outputs.items():
            if name.startswith("catalog"):
                fd_agrees(name, out.lhs, out.rhs, at.value(out.expected)[0])
            elif name.startswith("antisymmetry"):
                f, g, fg = out
                fd_agrees(name, f, g, at.value(fg)[0])
            elif name.startswith("reduce"):
                i = int(name.split()[1])
                n, p = self.reductions[i]
                Xn, Yn = oracle.random_matrices(n, 3, self.rng)
                ev = oracle.Evaluator(Xn, Yn)
                gap = oracle.relative_gap(ev.value(out), ev.value(p))
                if not gap < 1e-9:
                    problems.append(f"{name}: reduced polynomial differs by {gap:.1e}")
        for record in self.chains:
            if f"chain {record['lemma_id']}" in outputs:
                problems += self.chain_problems(record, X, Y, at)
        return problems

    def chain_problems(self, record, X, Y, at):
        """Exact steps whose operands are known must be true brackets."""
        known = []
        problems = []
        for idx, step in enumerate(record["steps"]):
            expected = parse(step["expected"])
            sides = []
            for text in (step["lhs"], step["rhs"]):
                sides.append(known[int(text[1:])] if text.startswith("$") else parse(text))
            exact = step["kind"] == bracket.EXACT and None not in sides
            known.append(expected if exact else None)
            if exact:
                gap = oracle.fd_bracket_gap(at.value(expected)[0], *sides, X[0], Y[0])
                if not gap < FD_TOL:
                    problems.append(f"chain {record['lemma_id']} step {idx}: off by {gap:.1e}")
        return problems


def parse(text):
    return grammar.parse_polynomial(text, TRACELESS)


def make(name: str, seed: int, catalog_entries, chain_records) -> Workload:
    if name == "symbolic":
        return Symbolic(seed, catalog_entries, chain_records)
    return {"generation": Generation, "leading_law": LeadingLaw, "flows": Flows}[name](seed)
