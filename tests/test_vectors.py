import itertools

import numpy as np
import pytest

from conftest import block_solves, match_planted, near_product_mixture
from sepcheck.certify import separability_check
from sepcheck.errors import NonGeneric, RankSumTooHigh
from sepcheck.fixtures import (
    GeneratorSpec,
    haar_unitary,
    haar_vector,
    random_separable,
    random_separable_rank_deficient,
    tiles_upb_state,
)
from sepcheck.numlin import DEFAULT_TOL, numerical_rank, range_basis
from sepcheck.state import (
    BipartiteState,
    ProductVector,
    partial_transpose,
    support_compress,
    swap_parties,
)
from sepcheck.vectors import (
    POLISH_STEPS,
    KernelData,
    MultiPoly,
    _accept_candidate,
    _eligible_set,
    _polish_alpha,
    _solve_by_resultant,
    back_substitute,
    constraint_matrix,
    eliminate,
    enumerate_eligible,
    kernel_data,
    minor_polynomials,
    track_coupled,
)


class TestKernelData:
    def test_rank_n_state_kernel_dimension(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=1))
        kd = kernel_data(st)
        assert kd.k == 9 - 3

    def test_full_rank_state_rejected(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=27, seed=2))
        assert numerical_rank(st.rho) == 9
        with pytest.raises(RankSumTooHigh):
            kernel_data(st)

    def test_tiles_kernel_dims(self):
        kd = kernel_data(tiles_upb_state())
        assert kd.k == 5 and kd.kt == 5
        assert kd.k + kd.kt >= 3 + 3 - 2

    def test_components_reassemble(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=4, seed=3))
        kd = kernel_data(st)
        for i in range(kd.k):
            rebuilt = np.concatenate([kd.k_comps[i, m] for m in range(2)])
            assert np.allclose(rebuilt, kd.k_rho[:, i])


class TestConstraintMatrix:
    def test_planted_alpha_drops_rank(self):
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=4))
        kd = kernel_data(st)
        w, pv = dec.terms[0]
        alpha = pv.e / pv.e[0]
        a = constraint_matrix(kd, alpha)
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] < 1e-10 * sv[0]
        # the kernel of A contains the planted Bob vector
        _, _, vh = np.linalg.svd(a)
        f = vh[-1].conj()
        assert abs(np.vdot(f, pv.f / np.linalg.norm(pv.f))) > 1 - 1e-9

    def test_generic_alpha_full_rank(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=5))
        kd = kernel_data(st)
        alpha = np.concatenate([[1.0], haar_vector(2, rng)])
        a = constraint_matrix(kd, alpha)
        assert numerical_rank(a) == 3

    def test_scalar_alice_rows(self):
        # the partial transpose is the identity map on a scalar Alice side,
        # so the transpose-kernel rows coincide with the state-kernel ones
        st, _ = random_separable(GeneratorSpec(dims=(1, 3), term_count=2, seed=6))
        kd = kernel_data(st)
        assert kd.kt == kd.k
        a = constraint_matrix(kd, np.ones(1))
        assert a.shape == (kd.k + kd.kt, 3)
        assert np.allclose(a[:kd.k], a[kd.k:], atol=1e-12)


class TestMultiPoly:
    def test_arithmetic(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = (x + 2.0) * (y - 1.0)
        assert abs(p.evaluate([3.0, 4.0]) - (5.0 * 3.0)) < 1e-14
        assert p.degree_in(0) == 1 and p.degree_in(1) == 1

    def test_conj_pair_swaps_halves(self):
        p = MultiPoly(2, {(1, 0): 1j, (0, 2): 2.0})
        q = p.conj_pair()
        assert q.terms[(0, 1)] == -1j
        assert q.terms[(2, 0)] == 2.0

    def test_coefficients_in_match_evaluate(self):
        # the coefficients in one slot at each row of values, summed at that
        # row's value of the slot, agree with the term-by-term evaluation
        from sepcheck.vectors import _coefficients_in

        rng = np.random.default_rng(3)
        polys = _through(rng.normal(size=(2, 3)), 3, 3, rng)
        values = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        coeffs = _coefficients_in(polys, 1, values)
        for t, p in enumerate(polys):
            for b, v in enumerate(values):
                assert np.polyval(coeffs[t, ::-1, b], v[1]) == pytest.approx(p.evaluate(v), rel=1e-12)


class TestMinorPolynomials:
    def test_m2_single_minor_pair(self):
        # one minor plus its conjugate partner in the limiting 2xN case
        st, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=3, seed=1))
        kd = kernel_data(st)
        assert (kd.k, kd.kt) == (1, 1)
        polys = minor_polynomials(kd)
        assert len(polys) == 2
        assert all(p.total_degree() <= 2 for p in polys)

    def test_degree_bounded_by_bob_dimension(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=2))
        kd = kernel_data(st)
        for p in minor_polynomials(kd):
            assert p.total_degree() <= 3

    def test_planted_roots_vanish(self):
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=7))
        kd = kernel_data(st)
        polys = minor_polynomials(kd)
        for w, pv in dec.terms:
            alpha = pv.e / pv.e[0]
            vals = np.array([alpha[1], alpha[2], np.conj(alpha[1]), np.conj(alpha[2])])
            for p in polys:
                assert abs(p.normalized().evaluate(vals)) < 1e-9

    @pytest.mark.parametrize("dims,k,which", [((3, 3), 4, "k"), ((4, 4), 6, "k"), ((2, 4), 5, "both")],
                             ids=["3x3-k", "4x4-k", "2x4-both"])
    def test_interpolated_minors_match_numeric_determinants(self, dims, k, which):
        # each minor equals the determinant of the base rows and its final
        # row evaluated at a random point, up to its normalization constant
        from sepcheck.vectors import _minor_system, _symbolic_rows

        st, _ = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=k))
        rows = _symbolic_rows(kernel_data(st), which)
        n, nvars = dims[1], 2 * (dims[0] - 1)
        minors = _minor_system(rows, n, nvars, np.random.default_rng(0))
        assert len(minors) == len(rows) - (n - 1)
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(5):
            x = rng.normal(size=nvars) + 1j * rng.normal(size=nvars)
            numeric = rows[:, 0] + np.einsum("v,rvc->rc", x, rows[:, 1:])
            dets = [np.linalg.det(np.vstack([numeric[:n - 1], numeric[r]]))
                    for r in range(n - 1, len(rows))]
            ratios.append([p.evaluate(x) / d for p, d in zip(minors, dets)])
        ratios = np.array(ratios)
        assert np.all(np.abs(ratios - ratios[0]) <= 1e-10 * np.abs(ratios[0]))


class TestEliminate:
    def test_linear_system(self):
        # z - c together with its conjugate partner
        c = 0.3 - 0.7j
        z = MultiPoly.variable(2, 0)
        zbar = MultiPoly.variable(2, 1)
        system = [z - c, zbar - np.conj(c)]
        elim = eliminate(system)
        assert elim.degree_bound == 1
        assignments, complete = back_substitute(elim)
        assert complete and len(assignments) == 1
        sol = assignments[0]
        assert abs(sol[0] - c) < 1e-12
        assert abs(sol[1] - np.conj(c)) < 1e-12

    def test_two_variable_product_system(self):
        # (x - 1)(x - 2) = 0 with y - x = 0: solutions (1,1), (2,2)
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        system = [(x - 1.0) * (x - 2.0), y - x]
        elim = eliminate(system)
        assignments, complete = back_substitute(elim)
        assert complete
        sols = sorted((round(a[0].real), round(a[1].real)) for a in assignments)
        assert sols == [(1, 1), (2, 2)]

    def test_inconsistent_system_has_no_roots(self):
        x = MultiPoly.variable(2, 0)
        system = [x - 1.0, x - 2.0]
        elim = eliminate(system)
        assignments, _ = back_substitute(elim)
        assert assignments == []

    def test_proportional_pair_is_nongeneric(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x * y + 2.0 * x + 1.0
        with pytest.raises(NonGeneric):
            eliminate([p, p * (0.5 + 0.1j)])

    def test_least_favorable_degree_bound(self, rng):
        # five kernel rows on a 3x3 system, no transpose-kernel rows: the
        # cascade must end in a univariate polynomial of degree at most 18
        from sepcheck.vectors import KernelData, _minor_system, _symbolic_rows

        g = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        basis = np.linalg.qr(g)[0]
        proj = basis @ basis.conj().T
        kmat = np.linalg.qr(np.eye(9) - proj)[0][:, :5]
        kd = KernelData(3, 3, kmat, np.zeros((9, 0)),
                        kmat.T.reshape(5, 3, 3), np.zeros((0, 3, 3)))
        system = _minor_system(_symbolic_rows(kd, "k"), 3, 4, rng)
        assert len(system) == 3
        elim = eliminate(system)
        assert elim.degree_bound <= 18
        assignments, _ = back_substitute(elim)
        assert len(assignments) <= 18

    def test_inconsistent_branch_is_complete(self):
        # the terminal root y = 1 leaves a nonzero constant for x, which no
        # x solves: the empty set is the whole answer
        x, y, z = (MultiPoly.variable(3, v) for v in range(3))
        for system in ([y - 1.0, x * y - x + 1.0],
                       [z - 1.0, y * z - y + 1.0, x - y]):
            assert back_substitute(eliminate(system)) == ([], True)

    @pytest.mark.parametrize("seed", [
        pytest.param(s, marks=pytest.mark.xfail(
            strict=True, reason="the cascade loses planted roots in three unknowns "
                                "and still claims complete (FOUND in CHANGES.md)"))
        if s in (1, 21) else s for s in range(30)])
    def test_three_slot_planted_roots(self, seed):
        # four quadrics in three unknowns through three planted points: every
        # point is among the assignments
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assignments, complete = back_substitute(eliminate(_through(points, 2, 4, rng)))
        assert complete
        for point in points:
            assert min((max(abs(a[s] - v) for s, v in enumerate(point)) for a in assignments),
                       default=np.inf) < 1e-6


def _through(points, degree, count, rng):
    """``count`` random polynomials of total degree ``degree`` that vanish at
    every point of ``points``, one slot per coordinate."""
    slots = len(points[0])
    monos = [e for d in range(degree + 1)
             for e in itertools.product(range(d + 1), repeat=slots) if sum(e) == d]
    at = np.array([[np.prod(np.asarray(p) ** e) for e in monos] for p in points])
    null = np.linalg.svd(at)[2][len(points):].conj().T
    coeffs = null @ (rng.normal(size=(null.shape[1], count))
                     + 1j * rng.normal(size=(null.shape[1], count)))
    return [MultiPoly(slots, dict(zip(monos, c))) for c in coeffs.T]


def _solutions(assignments):
    return sorted((round(a[0].real, 8), round(a[1].real, 8)) for a in assignments)


class TestSolveByResultant:
    def test_planted_roots_recovered(self):
        # three cubics through four planted points: the first two meet in
        # 3 x 3 = 9 points, the resultant's degree, and the third keeps the four
        rng = np.random.default_rng(61)
        points = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        assignments, complete, degree = _solve_by_resultant(_through(points, 3, 3, rng))
        assert complete and degree == 9
        assert len(assignments) == 4
        for x, y in points:
            assert min(abs(a[0] - x) + abs(a[1] - y) for a in assignments) < 1e-9

    def test_agrees_with_elimination(self):
        # TestEliminate's product system: solutions (1, 1) and (2, 2)
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        system = [(x - 1.0) * (x - 2.0), y - x]
        assignments, complete, degree = _solve_by_resultant(system)
        cascade, cascade_complete = back_substitute(eliminate(system))
        assert complete and cascade_complete and degree == 2
        assert _solutions(assignments) == _solutions(cascade) == [(1.0, 1.0), (2.0, 2.0)]

    def test_one_unknown_agrees_with_elimination(self):
        # no polynomial involves y: the roots of the lowest-degree polynomial
        # that the other keeps, and its degree, the cascade's terminal degree
        x = MultiPoly.variable(2, 0)
        system = [(x - 1.0) * (x - 2.0), (x - 1.0) * (x + 3.0) * (x - 0.5j)]
        assignments, complete, degree = _solve_by_resultant(system)
        elim = eliminate(system)
        cascade, cascade_complete = back_substitute(elim)
        assert complete and cascade_complete and degree == elim.degree_bound == 2
        assert [set(a) for a in assignments] == [{0}]
        assert assignments[0][0] == pytest.approx(1.0) and cascade[0][0] == pytest.approx(1.0)
        assert len(cascade) == 1

    def test_inconsistent_pair_has_no_roots(self):
        # parallel lines: the resultant is a nonzero constant
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        assert _solve_by_resultant([x + y, x + y + 1.0]) == ([], True, 0)

    def test_common_factor_is_nongeneric(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        line = x + 0.5 * y + (1.0 - 0.3j)
        with pytest.raises(NonGeneric, match="resultant"):
            _solve_by_resultant([line * (x - 2.0 * y), line * (3.0 * x + y - 1.0)])


class TestRouting:
    # minor systems in one or two unknowns (every M = 2 system, the M = 3
    # block systems) are solved by the resultant; three or more unknowns
    # stay on the elimination cascade
    @staticmethod
    def _eliminations(monkeypatch):
        import sepcheck.vectors

        calls = []
        original = sepcheck.vectors.eliminate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sepcheck.vectors, "eliminate", counting)
        return calls

    @pytest.mark.parametrize("case,solver,minor_systems", [
        (((3, 3), 4), "_solve_by_resultant", 1),
        ("tiles", "_solve_by_resultant", 1),
        (((3, 3), 6), "track_coupled", 0),
        (((3, 4), 8), "track_coupled", 0),
        (((2, 4), 6), "_solve_by_resultant", 1),
        (((2, 4), 4), "_solve_by_resultant", 1),
    ], ids=["3x3-k4", "tiles", "3x3-k6", "3x4-k8", "2x4-k6", "2x4-k4"])
    def test_routing_table(self, monkeypatch, case, solver, minor_systems):
        # each input reaches one solver; a kernel with fewer than M + N - 2
        # rows gives fewer than M - 1 minors, so it builds no block system
        import sepcheck.vectors

        calls = []

        def recording(name):
            original = getattr(sepcheck.vectors, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("_minor_system", "_solve_by_resultant", "track_coupled", "eliminate"):
            monkeypatch.setattr(sepcheck.vectors, name, recording(name))
        if case == "tiles":
            st = tiles_upb_state()
        else:
            st, _ = random_separable(GeneratorSpec(dims=case[0], term_count=case[1], seed=5))
        enumerate_eligible(st, seed=5)
        assert set(calls) - {"_minor_system"} == {solver}
        assert calls.count("_minor_system") == minor_systems

    @pytest.mark.parametrize("dims,k,seed", [((3, 3), 4, 4), ((3, 3), 5, 5), ((3, 4), 7, 11),
                                             ((2, 4), 6, 6), ((2, 6), 9, 9), ((2, 4), 4, 4)])
    def test_two_unknowns_skip_the_cascade(self, monkeypatch, dims, k, seed):
        eliminations = self._eliminations(monkeypatch)
        solves = block_solves(monkeypatch)
        st, dec = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))
        es = enumerate_eligible(st, seed=seed)
        assert match_planted(es.vectors, [pv for _, pv in dec.terms]) == k
        assert eliminations == [] and len(solves) >= 1

    @pytest.mark.parametrize("dims,k,seed", [((3, 3), 4, 4), ((3, 3), 5, 5), ((3, 4), 7, 11)])
    def test_two_unknowns_cost(self, monkeypatch, dims, k, seed):
        # the minors come from numeric determinants, not polynomial
        # products, and the resultant's x-roots from stacked companion
        # eigensolves: its own roots are the only np.roots call of a solve
        products, roots = [], []
        original_mul, original_roots = MultiPoly.__mul__, np.roots

        def counting_mul(self, other):
            products.append(other)
            return original_mul(self, other)

        def counting_roots(p):
            roots.append(p)
            return original_roots(p)

        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        monkeypatch.setattr(MultiPoly, "__rmul__", counting_mul)
        monkeypatch.setattr(np, "roots", counting_roots)
        solves = block_solves(monkeypatch)
        st, dec = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))
        es = enumerate_eligible(st, seed=seed)
        assert match_planted(es.vectors, [pv for _, pv in dec.terms]) == k
        assert products == []
        assert 1 <= len(solves) and len(roots) <= len(solves)

    def test_accurate_roots_are_not_polished_again(self, monkeypatch):
        # the resultant's roots of 3x3 4-term block systems are mostly
        # within the polish floor already, so the ten searches together make
        # few Gauss-Newton steps
        calls = _count_linalg(monkeypatch, "pinv")
        for seed in range(10):
            st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=seed))
            es = enumerate_eligible(st, seed=seed)
            assert match_planted(es.vectors, [pv for _, pv in dec.terms]) == 4
        assert len(calls) <= 8

    def test_three_unknowns_stay_on_the_cascade(self, monkeypatch):
        # a 4x4 block system; the first elimination is enough to see the route
        class Routed(Exception):
            pass

        eliminations = []

        def first(*args, **kwargs):
            eliminations.append(args)
            raise Routed

        import sepcheck.vectors

        monkeypatch.setattr(sepcheck.vectors, "eliminate", first)
        solves = block_solves(monkeypatch)
        st, _ = random_separable(GeneratorSpec(dims=(4, 4), term_count=6, seed=1))
        with pytest.raises(Routed):
            enumerate_eligible(st, seed=1)
        assert len(eliminations) == 1 and solves == []
        system = eliminations[0][0]
        assert len(frozenset().union(*(p.support() for p in system))) >= 3


class TestEnumerateEligible:
    def test_planted_recovery_3x3(self):
        for k in (4, 5):
            st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=k, seed=k))
            es = enumerate_eligible(st, seed=k + 10)
            planted = [pv for _, pv in dec.terms]
            assert match_planted(es.vectors, planted) == k
            assert es.exhaustive

    @pytest.mark.parametrize("dims,k,seed,count", [((3, 5), 8, 3002, 8), ((3, 5), 9, 3003, 9),
                                                   ((2, 8), 12, 1, 22)],
                             ids=["3x5-8-3002", "3x5-9-3003", "2x8-12-1"])
    def test_planted_recovery(self, dims, k, seed, count):
        # the elimination cascade found 5 of 8, 6 of 9 and 5 of 12 here and
        # still claimed exhaustive=True
        st, dec = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))
        es = enumerate_eligible(st, seed=seed)
        assert match_planted(es.vectors, [pv for _, pv in dec.terms]) == k
        assert len(es.vectors) == count
        assert es.exhaustive
        assert separability_check(st, seed=seed).status == "Separable"

    def test_tiles_exhaustively_empty(self):
        es = enumerate_eligible(tiles_upb_state(), seed=9)
        assert es.vectors == ()
        assert es.exhaustive
        assert es.degree_bound <= 18

    def test_soundness_of_returned_vectors(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=8))
        es = enumerate_eligible(st, seed=8)
        kd = kernel_data(st)
        pr = np.linalg.qr(st.rho)[0][:, :numerical_rank(st.rho)]
        for pv in es.vectors:
            e = pv.e / np.linalg.norm(pv.e)
            f = pv.f / np.linalg.norm(pv.f)
            a = constraint_matrix(kd, e / e[np.argmax(np.abs(e))])
            assert np.max(np.abs(a @ f)) < 1e-5
            v = np.kron(e, f)
            # membership in both ranges
            from sepcheck.numlin import range_basis

            pr = range_basis(st.rho)
            assert np.linalg.norm(v - pr @ (pr.conj().T @ v)) < 1e-6
            pt = range_basis(partial_transpose(st))
            vt = np.kron(e.conj(), f)
            assert np.linalg.norm(vt - pt @ (pt.conj().T @ vt)) < 1e-6

    def test_seed_invariance_of_physical_set(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=17))
        sets = []
        for seed in (1, 2, 3):
            es = enumerate_eligible(st, seed=seed)
            sets.append(es.vectors)
        assert all(len(vs) == len(sets[0]) for vs in sets)
        for vs in sets[1:]:
            assert match_planted(vs, list(sets[0]), overlap=1 - 1e-8) == len(sets[0])

    def test_consistency_with_rank_n_decomposition(self):
        # the eligible set of a rank-N separable state contains the vectors
        # of its exact decomposition
        from sepcheck.canon import decompose_rank_n

        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=19))
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=19)
        es = enumerate_eligible(st, seed=19)
        found = [pv for _, pv in dec.terms]
        assert match_planted(es.vectors, found, overlap=1 - 1e-8) == 3

    def test_mixed_path_2x4(self):
        st, dec = random_separable(GeneratorSpec(dims=(2, 4), term_count=5, seed=21))
        kd = kernel_data(st)
        assert kd.k < 4 and kd.kt < 4  # genuinely coupled system
        es = enumerate_eligible(st, seed=21)
        assert match_planted(es.vectors, [pv for _, pv in dec.terms]) == 5

    def test_nongeneric_detected_on_2x2_rank3(self):
        # three planted product vectors force the two bilinear minor curves
        # to share a component: the eligible set is a continuum
        st, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=3, seed=1))
        with pytest.raises(NonGeneric):
            enumerate_eligible(st, seed=1)

    def test_candidate_count_bounded_by_degree(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=23))
        es = enumerate_eligible(st, seed=23)
        assert len(es.vectors) <= es.degree_bound

    def test_overdetermined_coupled_system_3x4(self):
        # eight terms on 3x4 leave four rows in each kernel block: one minor
        # per block, too few to pin alpha, so the coupled system is solved.
        # It has 8 rows for 7 unknowns and every planted vector is a root.
        st, dec = random_separable(GeneratorSpec(dims=(3, 4), term_count=8, seed=2003))
        kd = kernel_data(st)
        assert (kd.k, kd.kt) == (4, 4)
        es = enumerate_eligible(st, seed=2003)
        assert match_planted(es.vectors, [pv for _, pv in dec.terms]) == 8
        assert es.exhaustive
        assert len(es.vectors) <= es.degree_bound
        assert separability_check(st, seed=2003).status == "Separable"

    def test_coupled_2x6_system_is_path_tracked(self):
        # eight terms on 2x6 leave four rows in each kernel block, fewer than
        # N = 6, so the coupled system is solved.  Kept as 3 + 4 rows it is
        # square with C(3, 1) C(4, 1) = 12 paths; elimination bounded the
        # same system by a degree-16 terminal polynomial.
        st, dec = random_separable(GeneratorSpec(dims=(2, 6), term_count=8, seed=21))
        kd = kernel_data(st)
        assert (kd.k, kd.kt) == (4, 4)
        es = enumerate_eligible(st, seed=21)
        assert es.degree_bound == 12
        assert match_planted(es.vectors, [pv for _, pv in dec.terms]) == 8
        assert es.exhaustive

    def test_rank_deficient_coupled_system_is_nongeneric(self):
        # four of the six terms lie on the product pencil (e_a + t e_b) x f0,
        # so the support compresses to 2x3 with k = kt = 2 and A(alpha) has
        # rank 2 < 3 at every alpha: a continuum of product vectors
        st, _ = random_separable_rank_deficient((2, 4), 4, 6, seed=5)
        sc, _ = support_compress(st)
        kd = kernel_data(sc)
        assert (sc.dim_a, sc.dim_b, kd.k, kd.kt) == (2, 3, 2, 2)
        with pytest.raises(NonGeneric, match="continuum"):
            enumerate_eligible(sc, seed=5)

    def test_rank_deficient_coupled_system_is_inconclusive(self):
        st, _ = random_separable_rank_deficient((2, 4), 4, 6, seed=5)
        verdict = separability_check(st, seed=5)
        assert (verdict.status, verdict.reason) == ("Inconclusive", "NonGeneric")
        assert "continuum" in verdict.diagnostics["eligible_error"]

    def test_path_tracked_reruns_are_identical(self):
        # rank 6 on 3x3: k = kt = 3 = N, the square coupled system
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=6, seed=2002))
        first = enumerate_eligible(st, seed=2002)
        second = enumerate_eligible(st, seed=2002)
        assert first.degree_bound == 9
        assert (first.exhaustive, first.degree_bound) == (second.exhaustive, second.degree_bound)
        assert len(first.vectors) == len(second.vectors) == 6
        for u, v in zip(first.vectors, second.vectors):
            assert np.array_equal(u.e, v.e) and np.array_equal(u.f, v.f)


class TestTrackCoupled:
    def test_continuum_of_solutions_is_not_exhaustive(self):
        # every kernel row annihilates one Bob vector f0, so (alpha, beta, f0)
        # solves the coupled system for any alpha and beta: the paths end on
        # that continuum, singular, and no completeness may be claimed
        rng = np.random.default_rng(4)
        f0 = haar_vector(3, rng)
        proj = np.eye(3) - np.outer(f0, f0.conj())

        def comps():
            g = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
            return np.einsum("ab,imb->ima", proj, g)

        kc, ktc = comps(), comps()
        kd = KernelData(3, 3, kc.reshape(3, 9).T, ktc.reshape(3, 9).T, kc, ktc)
        candidates, complete, paths = track_coupled(kd, (3, 3), rng)
        assert paths == 9
        assert not complete


def _count_linalg(monkeypatch, *names):
    """Record every call to the named numpy.linalg functions."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _decomposed(kd, alphas):
    """The arguments of _polish_alpha for a stack of starts (or one start):
    the starts and the SVD of their constraint matrices."""
    alphas = np.atleast_2d(alphas)
    _, svals, vh = np.linalg.svd(constraint_matrix(kd, alphas))
    return kd, alphas, svals, vh


class TestPolish:
    def test_perturbed_planted_root_converges(self, monkeypatch):
        st, dec = random_separable(GeneratorSpec(dims=(3, 4), term_count=7, seed=11))
        kd = kernel_data(st)
        rng = np.random.default_rng(11)
        # each Gauss-Newton step is one stacked least-squares solve
        calls = _count_linalg(monkeypatch, "pinv")
        for _, pv in dec.terms:
            alpha = pv.e / pv.e[0]
            alpha[1:] += 1e-6 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            args = _decomposed(kd, alpha)
            calls.clear()
            (alpha,), (f,) = _polish_alpha(*args)
            assert len(calls) <= POLISH_STEPS
            e, fn = alpha / np.linalg.norm(alpha), f / np.linalg.norm(f)
            assert np.max(np.abs(constraint_matrix(kd, e) @ fn)) <= 1e-12

    def test_planted_root_takes_no_step(self, monkeypatch):
        # a start already at a root is within the polish floor, so it is
        # kept as it is, with no stacked least-squares solve
        st, dec = random_separable(GeneratorSpec(dims=(3, 4), term_count=7, seed=11))
        kd = kernel_data(st)
        calls = _count_linalg(monkeypatch, "pinv")
        for _, pv in dec.terms:
            start = pv.e / pv.e[0]
            args = _decomposed(kd, start)
            calls.clear()
            (alpha,), _ = _polish_alpha(*args)
            assert calls == []
            assert np.array_equal(alpha, start)

    def test_random_start_is_rejected(self):
        # the tiles state has no eligible vector, so no start can reach one
        kd = kernel_data(tiles_upb_state())
        rng = np.random.default_rng(12)
        for _ in range(10):
            alphas, fs = _polish_alpha(*_decomposed(kd, haar_vector(3, rng)))
            assert np.all(np.isfinite(alphas)) and np.all(np.isfinite(fs))
            assert _accept_candidate(kd, alphas, fs, DEFAULT_TOL) == []

    def test_cascade_polish_cost_2x4_k6(self, monkeypatch):
        # an underdetermined coupled system, solved by the cascade, whose
        # imprecise roots once cost thousands of decompositions to polish
        st, dec = random_separable(GeneratorSpec(dims=(2, 4), term_count=6, seed=4006))
        calls = _count_linalg(monkeypatch, "svd", "lstsq", "pinv")
        es = enumerate_eligible(st, seed=4006)
        assert len(calls) <= 100
        assert len(es.vectors) == 8 and es.exhaustive
        found = [np.kron(pv.e, pv.f) for pv in es.vectors]
        for _, pv in dec.terms:
            planted = np.kron(pv.e / np.linalg.norm(pv.e), pv.f / np.linalg.norm(pv.f))
            overlap = max(abs(np.vdot(planted, v)) for v in found)
            assert np.sqrt(max(0.0, 2.0 - 2.0 * overlap)) <= 1e-6

    def test_each_candidate_start_is_decomposed_once(self, monkeypatch):
        # the screen's SVD of A(alpha) also gives the polish its first Bob
        # part, so no matrix of the search is decomposed twice
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=6, seed=4006))
        original = np.linalg.svd
        seen = []

        def recording(a, *args, **kwargs):
            seen.append(np.asarray(a).tobytes())
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        es = enumerate_eligible(st, seed=4006)
        assert len(es.vectors) == 8
        assert len(seen) == len(set(seen))


class TestBatchedPolish:
    # 3x4 with 7 terms, a block system: a planted root stops at once, the
    # root perturbed by 1e-3 takes a few steps, a stalled start one
    ST, DEC = random_separable(GeneratorSpec(dims=(3, 4), term_count=7, seed=11))

    def _starts(self, kd, monkeypatch):
        planted = [pv.e / pv.e[0] for _, pv in self.DEC.terms]
        perturbed = planted[0] + np.r_[0.0, 1e-3, -1e-3]
        calls = _count_linalg(monkeypatch, "pinv")
        rng = np.random.default_rng(13)
        for _ in range(20):
            start = haar_vector(3, rng)
            start = start / start[0]
            args = _decomposed(kd, start)
            calls.clear()
            (alpha,), _ = _polish_alpha(*args)
            if len(calls) == 1 and np.array_equal(alpha, start):
                return planted, perturbed, start
        raise AssertionError("no start stalls after one step")

    def test_batch_equals_one_element_batches(self, monkeypatch):
        kd = kernel_data(self.ST)
        planted, perturbed, stalled = self._starts(kd, monkeypatch)
        batch = [planted[0], perturbed, stalled]
        alphas, fs = _polish_alpha(*_decomposed(kd, np.array(batch)))
        for start, alpha, f in zip(batch, alphas, fs):
            (alone,), (f_alone,) = _polish_alpha(*_decomposed(kd, start))
            assert np.max(np.abs(alpha - alone)) <= 1e-12
            assert np.max(np.abs(f - f_alone)) <= 1e-12
        assert np.array_equal(alphas[2], stalled)
        e, fn = alphas[1] / np.linalg.norm(alphas[1]), fs[1] / np.linalg.norm(fs[1])
        assert np.max(np.abs(constraint_matrix(kd, e) @ fn)) <= 1e-12

    def test_starts_keep_arrival_order(self, monkeypatch):
        # one stacked screen hands the polish every start with
        # s_min / s_max <= 0.05, in arrival order and near-duplicates
        # included; the duplicates collapse after acceptance, in _dedupe
        import sepcheck.vectors

        kd = kernel_data(self.ST)
        planted, perturbed, stalled = self._starts(kd, monkeypatch)
        batch = [stalled, planted[1], planted[1], planted[1] + np.r_[0.0, 1e-10, -1e-10],
                 perturbed, planted[0], stalled]
        received = []
        original = sepcheck.vectors._polish_alpha

        def recording(kd, alphas, svals, vh):
            received.extend(alphas)
            return original(kd, alphas, svals, vh)

        monkeypatch.setattr(sepcheck.vectors, "_polish_alpha", recording)
        es = _eligible_set(kd, DEFAULT_TOL, np.eye(3), (np.eye(3), np.eye(4)), batch, True, 0)
        svals = [np.linalg.svd(constraint_matrix(kd, alpha), compute_uv=False) for alpha in batch]
        expected = [alpha for alpha, sv in zip(batch, svals) if sv[-1] <= 0.05 * sv[0]]
        assert len(expected) == 5
        assert np.array_equal(received, expected)
        assert len(es.vectors) == 2
        assert match_planted(es.vectors, [pv for _, pv in self.DEC.terms[:2]]) == 2


def _range_distances(st, e, f):
    """Distances of e x f from R(rho) and of conj(e) x f from R(rho^T_A),
    by explicit projection onto the two range bases."""
    out = []
    for op, v in ((st.rho, np.kron(e, f)), (partial_transpose(st), np.kron(e.conj(), f))):
        pr = range_basis(op)
        out.append(float(np.linalg.norm(v - pr @ (pr.conj().T @ v))))
    return out


def _null_bob(rows):
    """A unit Bob vector annihilated by the given rows (fewer rows than N)."""
    return np.linalg.svd(rows)[2][-1].conj()


class TestAcceptCandidate:
    STATES = [GeneratorSpec(dims=(3, 3), term_count=4, seed=41),
              GeneratorSpec(dims=(2, 4), term_count=5, seed=42)]

    @pytest.mark.parametrize("spec", STATES, ids=["3x3_k4", "2x4_k5"])
    def test_block_norms_are_the_range_distances(self, spec):
        st, dec = random_separable(spec)
        kd = kernel_data(st)
        rng = np.random.default_rng(spec.seed)
        for _ in range(20):
            e, f = haar_vector(spec.dims[0], rng), haar_vector(spec.dims[1], rng)
            res = constraint_matrix(kd, e) @ f
            blocks = [np.linalg.norm(res[:kd.k]), np.linalg.norm(res[kd.k:])]
            assert blocks == pytest.approx(_range_distances(st, e, f), abs=1e-12)
        hits = _accept_candidate(kd, np.array([pv.e for _, pv in dec.terms]),
                                 np.array([pv.f for _, pv in dec.terms]), DEFAULT_TOL)
        assert len(hits) == spec.term_count and max(key for _, key in hits) <= 1e-12

    @pytest.mark.parametrize("spec", STATES, ids=["3x3_k4", "2x4_k5"])
    def test_stack_equals_rows(self, spec):
        # one stacked call decides each candidate as a call on its row alone:
        # planted vectors, random ones and vectors in one range only
        st, dec = random_separable(spec)
        kd = kernel_data(st)
        rng = np.random.default_rng(spec.seed)
        alphas = [pv.e for _, pv in dec.terms]
        fs = [pv.f for _, pv in dec.terms]
        for _ in range(5):
            e = haar_vector(spec.dims[0], rng)
            a = constraint_matrix(kd, e)
            alphas += [e, e, e]
            fs += [haar_vector(spec.dims[1], rng), _null_bob(a[:kd.k]), _null_bob(a[kd.k:])]
        order = rng.permutation(len(alphas))
        alphas, fs = np.array(alphas)[order], np.array(fs)[order]
        stacked = _accept_candidate(kd, alphas, fs, DEFAULT_TOL)
        rows = [hit for a, f in zip(alphas, fs)
                for hit in _accept_candidate(kd, a[None], f[None], DEFAULT_TOL)]
        assert len(stacked) == len(rows) == spec.term_count
        for (pv, key), (pv_row, key_row) in zip(stacked, rows):
            assert np.array_equal(pv.e, pv_row.e) and np.array_equal(pv.f, pv_row.f)
            assert key == key_row
            # the key is the one-candidate residual, up to summation order
            assert key == pytest.approx(np.max(np.abs(constraint_matrix(kd, pv.e) @ pv.f)), abs=1e-15)

    def test_one_range_alone_is_rejected(self):
        # on 2x4 with 5 terms each kernel block has 3 rows on 4 Bob
        # coordinates, so any Alice vector pairs with a Bob vector that
        # satisfies one block exactly; the other block then fails
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=5, seed=42))
        kd = kernel_data(st)
        assert (kd.k, kd.kt) == (3, 3)
        rng = np.random.default_rng(43)
        for _ in range(10):
            e = haar_vector(2, rng)
            a = constraint_matrix(kd, e)
            # e x f in R(rho), its partner outside R(rho^T_A)
            f = _null_bob(a[:kd.k])
            dist, dist_ta = _range_distances(st, e, f)
            assert dist <= 1e-12 and dist_ta > DEFAULT_TOL.root_abs
            assert _accept_candidate(kd, e[None], f[None], DEFAULT_TOL) == []
            # the converse
            f = _null_bob(a[kd.k:])
            dist, dist_ta = _range_distances(st, e, f)
            assert dist_ta <= 1e-12 and dist > DEFAULT_TOL.root_abs
            assert _accept_candidate(kd, e[None], f[None], DEFAULT_TOL) == []


class TestScalarAlice:
    def test_rank_one_state_is_its_own_eligible_vector(self):
        f = haar_vector(3, np.random.default_rng(44))
        st = BipartiteState(1, 3, np.outer(f, f.conj()))
        es = enumerate_eligible(st, seed=44)
        assert (len(es.vectors), es.exhaustive, es.degree_bound) == (1, True, 1)
        assert abs(np.vdot(es.vectors[0].f, f)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_two_state_is_a_continuum(self):
        rng = np.random.default_rng(45)
        f, g = haar_vector(3, rng), haar_vector(3, rng)
        st = BipartiteState(1, 3, np.outer(f, f.conj()) + np.outer(g, g.conj()))
        with pytest.raises(NonGeneric, match="continuum"):
            enumerate_eligible(st, seed=45)


class TestOneBlockSystem:
    # 3x4 with 6 terms: both kernels pin alpha, and the state kernel's block
    # system, complete on its own, gives the whole set
    ST, DEC = random_separable(GeneratorSpec(dims=(3, 4), term_count=6, seed=1932334634))

    def test_one_solve_finds_every_vector(self, monkeypatch):
        # the elimination cascade once lost three of the six roots here
        solves = block_solves(monkeypatch)
        es = enumerate_eligible(self.ST, seed=1932334634)
        assert len(solves) == 1 and es.exhaustive
        assert match_planted(es.vectors, [pv for _, pv in self.DEC.terms]) == len(es.vectors) == 6

    def test_tiles_takes_one_solve(self, monkeypatch):
        # an empty set is not a reason to solve the other kernel's system
        solves = block_solves(monkeypatch)
        verdict = separability_check(tiles_upb_state(), seed=9)
        assert (verdict.status, verdict.reason) == ("Entangled", "NoEligibleVectors")
        assert len(solves) == 1

    def test_lost_roots_leave_the_verdict_undecided(self, monkeypatch):
        # a solve that loses two of the six roots gets no second chance: the
        # four vectors left do not reconstruct the state, and the lift says so
        block_solves(monkeypatch, lossy=True)
        verdict = separability_check(self.ST, seed=1932334634)
        assert (verdict.status, verdict.reason) == ("Inconclusive", "BudgetExhausted")
        assert verdict.diagnostics["eligible_count"] == 4
        assert "reconstruction residual" in verdict.diagnostics["eligible_error"]


class TestBlockLoopFallback:
    # near-product 3x5 with 8 terms: both kernels are large enough for a
    # block system, but each one's resultant vanishes identically, so the
    # search falls through to the coupled system and the tracker finds the
    # whole set.  The benchmark pool never takes this route.

    def test_vanished_block_resultants_fall_back_to_tracking(self, monkeypatch):
        import sepcheck.vectors

        outcomes = []
        solve = sepcheck.vectors._solve_by_resultant

        def recording(system):
            try:
                result = solve(system)
            except NonGeneric as exc:
                outcomes.append(str(exc))
                raise
            outcomes.append("solved")
            return result

        tracked = []
        track = sepcheck.vectors.track_coupled

        def counting(*args, **kwargs):
            tracked.append(args)
            return track(*args, **kwargs)

        monkeypatch.setattr(sepcheck.vectors, "_solve_by_resultant", recording)
        monkeypatch.setattr(sepcheck.vectors, "track_coupled", counting)
        verdict = separability_check(near_product_mixture((3, 5), 8, 0), seed=0)
        assert outcomes == ["resultant vanished identically"] * 2
        assert len(tracked) == 1
        assert verdict.status == "Separable"
        assert verdict.diagnostics["eligible_count"] == 8


def _swapped(dims, k, seed):
    """A planted state with the parties exchanged, and its planted vectors."""
    st, dec = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))
    return swap_parties(st), [ProductVector(pv.f, pv.e) for _, pv in dec.terms]


def _padded(dims, k, seed, into):
    """A planted state carried into the larger space ``into`` by local
    isometries, and its planted vectors carried along."""
    st, dec = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))
    rng = np.random.default_rng(seed)
    va = haar_unitary(into[0], rng)[:, :dims[0]]
    vb = haar_unitary(into[1], rng)[:, :dims[1]]
    w = np.kron(va, vb)
    padded = BipartiteState(*into, w @ st.rho @ w.conj().T, normalized=True)
    return padded, [ProductVector(va @ pv.e, vb @ pv.f) for _, pv in dec.terms]


class TestInputFrame:
    # the search runs on the supported space with Alice on the smaller side,
    # as the paper states it, and answers in the input's own frame; the 3x3
    # state padded into 3x4 is a control that needs neither step
    @pytest.mark.parametrize("case", [
        pytest.param(lambda: _swapped((2, 4), 5, 0), id="swapped-2x4-k5-s0"),
        pytest.param(lambda: _swapped((2, 4), 5, 1), id="swapped-2x4-k5-s1"),
        pytest.param(lambda: _swapped((2, 6), 7, 0), id="swapped-2x6-k7-s0"),
        pytest.param(lambda: _swapped((3, 4), 6, 1932334634), id="swapped-3x4-k6-s1932334634"),
        pytest.param(lambda: _padded((2, 4), 5, 0, (3, 4)), id="2x4-k5-s0-padded-3x4"),
        pytest.param(lambda: _padded((2, 4), 5, 0, (2, 5)), id="2x4-k5-s0-padded-2x5"),
        pytest.param(lambda: _padded((3, 3), 4, 0, (3, 4)), id="3x3-k4-s0-padded-3x4"),
    ])
    def test_every_planted_vector_in_the_input_frame(self, case):
        st, planted = case()
        es = enumerate_eligible(st, seed=0)
        assert es.exhaustive
        assert match_planted(es.vectors, planted) == len(planted)
        assert {(len(pv.e), len(pv.f)) for pv in es.vectors} == {(st.dim_a, st.dim_b)}


class TestDegenerateRows:
    def test_shared_bob_kernel_rows_rejected(self):
        # kernel vectors all sharing one Bob direction make the base rows
        # identically dependent as polynomial rows
        from sepcheck.errors import NonGeneric
        from sepcheck.vectors import KernelData

        rng = np.random.default_rng(3)
        x = haar_vector(3, rng)
        alices = [haar_vector(3, rng) for _ in range(3)]
        cols = [np.kron(a, x) for a in alices]
        kmat = np.column_stack(cols)
        kd = KernelData(3, 3, kmat, np.zeros((9, 0)),
                        kmat.T.reshape(3, 3, 3), np.zeros((0, 3, 3)))
        with pytest.raises(NonGeneric):
            minor_polynomials(kd)
