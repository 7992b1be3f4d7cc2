import numpy as np
import pytest

from conftest import match_planted
from sepcheck.certify import separability_check
from sepcheck.errors import NonGeneric, RankSumTooHigh
from sepcheck.fixtures import (
    GeneratorSpec,
    haar_vector,
    random_separable,
    random_separable_rank_deficient,
    tiles_upb_state,
)
from sepcheck.numlin import DEFAULT_TOL, numerical_rank
from sepcheck.state import partial_transpose, support_compress
from sepcheck.vectors import (
    POLISH_STEPS,
    KernelData,
    MultiPoly,
    _accept_candidate,
    _polish_alpha,
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

    def test_substitute(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x * y + x
        out = p.substitute({1: 2.0})
        assert out.support() == frozenset({0})
        assert abs(out.evaluate([5.0, 0.0]) - 15.0) < 1e-14


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


class TestEnumerateEligible:
    def test_planted_recovery_3x3(self):
        for k in (4, 5):
            st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=k, seed=k))
            es = enumerate_eligible(st, seed=k + 10)
            planted = [pv for _, pv in dec.terms]
            assert match_planted(es.vectors, planted) == k
            assert es.exhaustive

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


def _polish(kd, alpha):
    """_polish_alpha from a start whose constraint matrix it decomposes itself."""
    _, svals, vh = np.linalg.svd(constraint_matrix(kd, alpha))
    return _polish_alpha(kd, alpha, svals, vh)


class TestPolish:
    def test_perturbed_planted_root_converges(self, monkeypatch):
        st, dec = random_separable(GeneratorSpec(dims=(3, 4), term_count=7, seed=11))
        kd = kernel_data(st)
        rng = np.random.default_rng(11)
        calls = _count_linalg(monkeypatch, "lstsq")
        for _, pv in dec.terms:
            alpha = pv.e / pv.e[0]
            alpha[1:] += 1e-6 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            calls.clear()
            alpha, f = _polish(kd, alpha)
            assert len(calls) <= POLISH_STEPS
            e, fn = alpha / np.linalg.norm(alpha), f / np.linalg.norm(f)
            assert np.max(np.abs(constraint_matrix(kd, e) @ fn)) <= 1e-12

    def test_random_start_is_rejected(self):
        # the tiles state has no eligible vector, so no start can reach one
        kd = kernel_data(tiles_upb_state())
        rng = np.random.default_rng(12)
        for _ in range(10):
            alpha, f = _polish(kd, haar_vector(3, rng))
            assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(f))
            assert _accept_candidate(kd, alpha, f, DEFAULT_TOL) is None

    def test_cascade_polish_cost_2x4_k6(self, monkeypatch):
        # an underdetermined coupled system, solved by the cascade, whose
        # imprecise roots once cost thousands of decompositions to polish
        st, dec = random_separable(GeneratorSpec(dims=(2, 4), term_count=6, seed=4006))
        calls = _count_linalg(monkeypatch, "svd", "lstsq")
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


class TestStop:
    # 3x4 with 6 terms: both kernels pin alpha, and the first block system
    # loses three roots to coefficient noise
    ST, _ = random_separable(GeneratorSpec(dims=(3, 4), term_count=6, seed=1932334634))

    def test_declined_stop_returns_the_union(self):
        seen = []
        union = enumerate_eligible(self.ST, seed=1932334634)
        lazy = enumerate_eligible(self.ST, seed=1932334634,
                                  stop=lambda es: seen.append(es) or False)
        assert len(seen) == 1 and len(seen[0].vectors) == 3
        assert (lazy.exhaustive, lazy.degree_bound) == (union.exhaustive, union.degree_bound)
        assert len(lazy.vectors) == len(union.vectors) == 6
        for u, v in zip(union.vectors, lazy.vectors):
            assert np.array_equal(u.e, v.e) and np.array_equal(u.f, v.f)

    def test_accepted_stop_returns_the_first_set(self):
        seen = []
        es = enumerate_eligible(self.ST, seed=1932334634, stop=lambda es: seen.append(es) or True)
        assert seen == [es]


class TestDegenerateRows:
    def test_shared_bob_kernel_rows_rejected(self):
        # kernel vectors all sharing one Bob direction make every base-row
        # choice identically dependent as polynomial rows
        from sepcheck.errors import DegenerateRowChoice
        from sepcheck.vectors import KernelData

        rng = np.random.default_rng(3)
        x = haar_vector(3, rng)
        alices = [haar_vector(3, rng) for _ in range(3)]
        cols = [np.kron(a, x) for a in alices]
        kmat = np.column_stack(cols)
        kd = KernelData(3, 3, kmat, np.zeros((9, 0)),
                        kmat.T.reshape(3, 3, 3), np.zeros((0, 3, 3)))
        with pytest.raises(DegenerateRowChoice):
            minor_polynomials(kd)
