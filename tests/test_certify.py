import numpy as np
import pytest

from conftest import (
    block_solves,
    near_product_mixture,
    near_product_pure_state,
    near_product_rank_n_state,
    orthogonal_product_mixture,
)
from sepcheck.certify import (
    BsaResult,
    bsa_decompose,
    certify_by_subsets,
    kernel_witness_bound,
    nnls,
    separability_check,
    spectral_ball_check,
    verdict_to_json,
)
from sepcheck.errors import PreconditionFailed
from sepcheck.fixtures import (
    GeneratorSpec,
    haar_unitary,
    haar_vector,
    isotropic_family,
    maximally_mixed,
    random_ppt,
    random_separable,
    random_separable_rank_deficient,
    tiles_upb_state,
    tiles_vectors,
    werner_family,
)
from sepcheck.numlin import DEFAULT_TOL, frob, numerical_rank
from sepcheck.state import (
    BipartiteState,
    ProductVector,
    partial_transpose,
    reconstruction,
    support_compress,
    swap_parties,
)
from sepcheck.vectors import EligibleSet, enumerate_eligible


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return BipartiteState(2, 2, np.outer(v, v.conj()), normalized=True)


class TestSpectralBall:
    def test_maximally_mixed_2x2(self):
        # lambda_min = 1/4 >= 1/6
        assert spectral_ball_check(maximally_mixed(2, 2))

    def test_pure_state_fails(self):
        assert not spectral_ball_check(bell_phi_plus())

    def test_werner_ball_radius_meets_ppt_boundary(self):
        # oracle sweep: for this family the smallest eigenvalue is (1-p)/4,
        # so the ball radius 1/6 is crossed exactly at the PPT boundary 1/3
        radius = 1.0 / 6.0
        p_star = None
        for p in np.linspace(0.0, 1.0, 2001):
            wmin = np.linalg.eigvalsh(werner_family(float(p)).rho)[0]
            if wmin >= radius:
                p_star = float(p)
        assert abs(p_star - 1.0 / 3.0) < 1e-3
        assert spectral_ball_check(werner_family(p_star - 1e-3))
        assert not spectral_ball_check(werner_family(p_star + 2e-3))

    def test_not_tight_for_separable_mixtures(self, rng):
        # a product-state admixture keeps the state separable at any p while
        # the smallest eigenvalue (1-p)/4 drops below the ball radius: the
        # sufficient condition is not necessary
        e = np.array([1.0, 0.0], dtype=complex)
        v = np.kron(e, e)
        for p in (0.5, 0.8):
            # separable by construction (product state plus white noise)
            rho = p * np.outer(v, v.conj()) + (1 - p) * np.eye(4) / 4.0
            s = BipartiteState(2, 2, rho, normalized=True)
            assert not spectral_ball_check(s)
            from sepcheck.state import is_ppt

            assert is_ppt(s)


class TestCertifyBySubsets:
    def test_two_term_exact_solve(self, rng):
        p1 = ProductVector(haar_vector(2, rng), haar_vector(3, rng))
        p2 = ProductVector(haar_vector(2, rng), haar_vector(3, rng))
        rho = 0.3 * p1.projector() + 0.7 * p2.projector()
        st = BipartiteState(2, 3, rho, normalized=True)
        es = EligibleSet((p1, p2), exhaustive=True, degree_bound=2)
        verdict = certify_by_subsets(st, es)
        assert verdict.status == "Separable"
        weights = sorted(w for w, _ in verdict.certificate.terms)
        assert np.allclose(weights, [0.3, 0.7], atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_dependent_projectors_give_independent_certificate(self, seed):
        # one Alice vector with the Bob vectors of two orthonormal bases of
        # C^2: both Bob pairs sum to the identity, so the four projectors
        # have feature rank 3, and the certificate must drop the dependence
        def feature_rank(pvs):
            feats = np.column_stack([
                np.concatenate([pv.projector().ravel().real, pv.projector().ravel().imag])
                for pv in pvs
            ])
            return np.linalg.matrix_rank(feats, tol=1e-8)

        rng = np.random.default_rng(seed)
        e = haar_vector(2, rng)
        bases = (haar_unitary(2, rng), haar_unitary(2, rng))
        pvs = tuple(ProductVector(e, b[:, j]) for b in bases for j in range(2))
        assert feature_rank(pvs) == 3
        rho = sum(pv.projector() for pv in pvs) / 4.0
        st = BipartiteState(2, 2, rho)
        es = EligibleSet(pvs, exhaustive=True, degree_bound=4)
        verdict = certify_by_subsets(st, es)
        assert verdict.status == "Separable"
        terms = [pv for _, pv in verdict.certificate.terms]
        assert len(terms) == 2
        assert feature_rank(terms) == 2

    def test_enumerated_set_of_a_swapped_state_certifies_it(self):
        # the eligible search answers in the 4x2 frame of its input, so its
        # set certifies that input directly
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=5, seed=0))
        swapped = swap_parties(st)
        verdict = certify_by_subsets(swapped, enumerate_eligible(swapped))
        assert verdict.status == "Separable"
        assert verdict.certificate.residual <= DEFAULT_TOL.residual_abs

    def test_empty_exhaustive_set_is_entangled(self):
        st = tiles_upb_state()
        es = EligibleSet((), exhaustive=True, degree_bound=0)
        verdict = certify_by_subsets(st, es)
        assert verdict.status == "Entangled"
        assert verdict.reason == "NoEligibleVectors"

    def test_empty_exhaustive_set_on_an_unresolved_spectrum_is_inconclusive(self):
        # the smallest kept eigenvalue is 2.5e-5 of the largest, under
        # rank_rel / root_abs, so the empty set rules out no vector
        st = support_compress(near_product_mixture((3, 3), 4, 1))[0]
        es = EligibleSet((), exhaustive=True, degree_bound=0)
        verdict = certify_by_subsets(st, es)
        assert (verdict.status, verdict.reason) == ("Inconclusive", "BudgetExhausted")
        assert verdict.diagnostics["eligible_error"].startswith("spectral gap 2.501e-05")

    def test_empty_non_exhaustive_set_is_inconclusive(self):
        st = tiles_upb_state()
        es = EligibleSet((), exhaustive=False, degree_bound=0)
        verdict = certify_by_subsets(st, es)
        assert verdict.status == "Inconclusive"
        assert verdict.reason == "NonGeneric"
        assert verdict.certificate is None

    def test_missing_vector_is_inconclusive_not_entangled(self):
        # a set that claims to be exhaustive but lacks a planted vector: the
        # state is outside the cone of the given projectors, and the verdict
        # must stay undecided with the residual that decided it
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=32))
        es = EligibleSet(tuple(pv for _, pv in dec.terms[:2]), exhaustive=True,
                         degree_bound=3)
        verdict = certify_by_subsets(st, es)
        assert verdict.status == "Inconclusive"
        assert verdict.reason == "BudgetExhausted"
        assert verdict.diagnostics["nnls_residual"] > DEFAULT_TOL.residual_abs
        # the lift's reason travels with the verdict
        assert "reconstruction residual" in verdict.diagnostics["eligible_error"]


class TestNnls:
    def test_matches_scipy_reference(self):
        # the numpy solver against scipy's on seeded problems: plain random,
        # linearly dependent columns (exact in floating point, from integer
        # factors and duplicated columns) and targets inside the cone
        import scipy.optimize

        rng = np.random.default_rng(2024)
        for trial in range(240):
            m, n = int(rng.integers(2, 30)), int(rng.integers(1, 30))
            kind = trial % 4
            a = rng.normal(size=(m, n))
            if kind == 1:
                r = int(rng.integers(1, n + 1))
                a = (rng.integers(-4, 5, size=(m, r)) @ rng.integers(-4, 5, size=(r, n)))
                a = a.astype(float)
            elif kind == 3:
                a[:, rng.integers(0, n, size=n // 2)] = a[:, :1]
            if kind >= 2:
                b = a @ (np.abs(rng.normal(size=n)) * (rng.random(n) < 0.5))
            else:
                b = rng.normal(size=m)
            x, rnorm = nnls(a, b)
            _, ref = scipy.optimize.nnls(a, b)
            assert np.all(x >= 0.0), trial
            assert rnorm == pytest.approx(np.linalg.norm(a @ x - b), abs=1e-12)
            assert rnorm <= ref + 1e-12 * max(1.0, np.linalg.norm(b)), trial

    def test_positive_weights_sit_on_independent_columns(self):
        # Lawson-Hanson admits a column only at positive gradient, and the
        # residual is orthogonal to the passive columns, so a column that
        # depends on them never enters: plant a duplicated column and one
        # equal to the sum of two others, with targets inside the cone that
        # use them and targets outside it
        import scipy.optimize

        rng = np.random.default_rng(1974)
        for trial in range(200):
            m, n = int(rng.integers(4, 25)), int(rng.integers(3, 12))
            base = rng.normal(size=(m, n))
            i, j, k = rng.choice(n, size=3, replace=False)
            a = np.column_stack([base, base[:, i], base[:, j] + base[:, k]])
            a = a[:, rng.permutation(n + 2)]
            if trial % 2:
                b = a @ (rng.random(n + 2) * (rng.random(n + 2) < 0.7))
            else:
                b = rng.normal(size=m)
            x, rnorm = nnls(a, b)
            _, ref = scipy.optimize.nnls(a, b)
            positive = x > 0.0
            assert np.linalg.matrix_rank(a[:, positive], tol=1e-10) == positive.sum(), trial
            assert rnorm == pytest.approx(ref, abs=1e-9 * max(1.0, np.linalg.norm(b))), trial



class TestBsa:
    def test_exact_decomposition_reaches_one(self):
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=1))
        res = bsa_decompose(st, [pv for _, pv in dec.terms])
        assert res.converged
        assert abs(res.lam - 1.0) <= 1e-6
        assert np.linalg.norm(res.delta_rho) <= 1e-6

    def test_monotone_lambda_trace(self):
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=2))
        res = bsa_decompose(st, [pv for _, pv in dec.terms])
        trace = res.lam_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_mixture_with_tiles(self):
        tiles = tiles_upb_state()
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=3))
        for mu in (0.2, 0.5, 0.8):
            mixed = BipartiteState(3, 3, mu * st.rho + (1 - mu) * tiles.rho, normalized=True)
            res = bsa_decompose(mixed, [pv for _, pv in dec.terms])
            assert res.lam >= mu - 1e-4
            # the split is exact by construction
            recon = reconstruction(
                [(w, pv) for w, pv in zip(res.weights, [pv for _, pv in dec.terms]) if w > 0],
                3, 3)
            remainder = mixed.rho - recon
            assert np.linalg.eigvalsh(remainder)[0] >= -1e-8
            rem_state = BipartiteState(3, 3, remainder + 1e-13 * np.eye(9))
            assert np.linalg.eigvalsh(partial_transpose(rem_state))[0] >= -1e-8

    @pytest.mark.parametrize("i", [2, 14, 26])
    def test_trace_monotone_with_probes_outside_the_decomposition(self, i):
        # six planted terms mixed with tiles at mu = 0.8, plus two Haar
        # product probes that are not in the decomposition
        mu = 0.8
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=6, seed=9000 + i))
        mixed = BipartiteState(3, 3, mu * st.rho + (1 - mu) * tiles_upb_state().rho,
                               normalized=True)
        rng = np.random.default_rng(i)
        projs = [pv for _, pv in dec.terms] + [
            ProductVector(haar_vector(3, rng), haar_vector(3, rng)) for _ in range(2)]
        res = bsa_decompose(mixed, projs, max_iters=200)
        trace = res.lam_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        remainder = mixed.rho - reconstruction(
            [(w, pv) for w, pv in zip(res.weights, projs) if w > 0], 3, 3)
        rem_pt = remainder.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
        assert np.linalg.eigvalsh(remainder)[0] >= -1e-9
        assert np.linalg.eigvalsh(rem_pt)[0] >= -1e-9
        assert res.lam >= mu - 1e-4

    def test_tight_residual_tolerance_still_reaches_the_optimum(self):
        # sweep input 103: five planted 3x3 terms and one Haar probe, mixed
        # at mu = 0.95 with I/9.  The pair pass starts at a fixed gain, so a
        # tight reconstruction tolerance converges to the same lambda instead
        # of creeping along single-index sweeps until max_iters runs out.
        from sepcheck.numlin import Tolerances

        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=9103))
        mixed = BipartiteState(3, 3, 0.95 * st.rho + 0.05 * np.eye(9) / 9, normalized=True)
        rng = np.random.default_rng(103)
        projs = [pv for _, pv in dec.terms] + [
            ProductVector(haar_vector(3, rng), haar_vector(3, rng))]
        reference = bsa_decompose(mixed, projs, max_iters=200)
        res = bsa_decompose(mixed, projs, Tolerances(residual_abs=1e-12), max_iters=2000)
        assert reference.converged and res.converged
        # the default tolerance stops while sweeps still gain ~1e-8 each
        assert abs(res.lam - reference.lam) <= 1e-7
        remainder = mixed.rho - reconstruction(
            [(w, pv) for w, pv in zip(res.weights, projs) if w > 0], 3, 3)
        rem_pt = remainder.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
        assert np.linalg.eigvalsh(remainder)[0] >= -1e-9
        assert np.linalg.eigvalsh(rem_pt)[0] >= -1e-9

    def test_empty_projector_list(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=2, seed=4))
        res = bsa_decompose(st, [])
        assert res.lam == 0.0
        assert np.allclose(res.delta_rho, st.rho)

    def test_tiles_alone_gets_nothing(self):
        # no product vector lies in the range of the tiles state, so no
        # weight can be subtracted against it
        tiles = tiles_upb_state()
        probes = [pv for _, pv in random_separable(
            GeneratorSpec(dims=(3, 3), term_count=3, seed=5))[1].terms]
        res = bsa_decompose(tiles, probes)
        assert res.lam <= 1e-9


class TestKernelWitness:
    def test_product_projector_witness(self, rng):
        # a single product projector inside the kernel bounds the transposed
        # rank by MN - 1
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=6))
        # build sigma as a product projector orthogonal to R(rho): use the
        # orthogonal-mixture helper on the planted terms
        terms = [pv for _, pv in random_separable(
            GeneratorSpec(dims=(3, 3), term_count=2, seed=7))[1].terms]
        rho = orthogonal_product_mixture(terms, (3, 3), seed=8)
        w, pv = 1.0, terms[0]
        sigma = BipartiteState(3, 3, pv.projector(), normalized=True)
        assert kernel_witness_bound(rho, sigma)
        assert numerical_rank(partial_transpose(rho)) <= 9 - 1

    def test_tiles_in_kernel(self):
        # the mixture of the five tiles vectors has the tiles state's range
        # as its kernel, giving the bound r(rho^T_A) <= 9 - 4 = 5
        tiles = tiles_upb_state()
        vecs = tiles_vectors()
        rho = BipartiteState(
            3, 3, sum(pv.projector() for pv in vecs) / 5.0, normalized=True)
        assert kernel_witness_bound(rho, tiles)
        assert numerical_rank(partial_transpose(rho)) <= 9 - 4

    def test_precondition_failure(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=9, seed=9))
        sigma = tiles_upb_state()
        with pytest.raises(PreconditionFailed):
            kernel_witness_bound(st, sigma)


class TestPipeline:
    def test_bell_state_npt_with_witness(self):
        verdict = separability_check(bell_phi_plus())
        assert verdict.status == "Entangled"
        assert verdict.reason == "NPT"
        assert verdict.diagnostics["method"] == "npt"
        w = verdict.diagnostics["npt_witness"]
        vec = np.array([complex(a, b) for a, b in w])
        pt = partial_transpose(bell_phi_plus())
        val = np.real(np.vdot(vec, pt @ vec))
        assert val < -1e-9

    def test_planted_rank_n_separable(self):
        for dims in [(2, 3), (3, 3), (3, 4)]:
            st, _ = random_separable(GeneratorSpec(dims=dims, term_count=dims[1], seed=10))
            verdict = separability_check(st, seed=10)
            assert verdict.status == "Separable"
            assert len(verdict.certificate.terms) == dims[1]
            assert verdict.certificate.residual <= 1e-8

    def test_tiles_pipeline(self):
        verdict = separability_check(tiles_upb_state(), seed=11)
        assert verdict.status == "Entangled"
        assert verdict.reason == "NoEligibleVectors"
        assert verdict.diagnostics["method"] == "eligible_vectors"

    def test_spectral_ball_path(self):
        verdict = separability_check(maximally_mixed(2, 2))
        assert verdict.status == "Separable"
        assert verdict.reason == "SpectralBall"
        assert verdict.certificate is None

    def test_higher_rank_separable_through_subsets(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=12))
        verdict = separability_check(st, seed=12)
        assert verdict.status == "Separable"
        assert verdict.certificate.residual <= 1e-8
        assert verdict.diagnostics["method"] == "eligible_vectors"

    def test_certificate_respects_caratheodory_bound(self):
        for seed in (13, 14):
            st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=seed))
            verdict = separability_check(st, seed=seed)
            assert verdict.status == "Separable"
            r = verdict.diagnostics["rank"]
            rt = verdict.diagnostics["rank_ta"]
            assert len(verdict.certificate.terms) <= min(r * r, rt * rt)

    def test_rank_n_and_subsets_agree(self):
        # pipeline consistency: the rank-N path and the eligible-vector path
        # must agree on rank-N separable states
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=15))
        via_rank = separability_check(st, seed=15)
        es = enumerate_eligible(st, seed=15)
        via_subsets = certify_by_subsets(st, es)
        assert via_rank.status == via_subsets.status == "Separable"

    def test_rank_below_local_entangled(self):
        # an entangled pure state embedded in 2x2: rank 1 below local rank 2
        verdict = separability_check(bell_phi_plus())
        # NPT dominates for this state; construct a PPT variant is impossible,
        # so check the reason tag ordering instead: NPT is reported first
        assert verdict.reason == "NPT"

    def test_verdict_json_round_trip(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=3, seed=16))
        verdict = separability_check(st, seed=16)
        doc = verdict_to_json(verdict)
        assert doc["status"] == "Separable"
        assert doc["certificate"] is not None
        import json

        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text)["status"] == "Separable"


class TestPipelineEdges:
    def test_canonical_mismatch_is_inconclusive(self):
        # a loosened PSD floor lets a near-product NPT state through to the
        # rank-N stage, whose canonical blocks are then not normal, so the
        # joint diagonalization cannot clear their off-diagonal mass
        from sepcheck.numlin import Tolerances

        verdict = separability_check(near_product_rank_n_state(), Tolerances(psd_abs=1e-2))
        assert (verdict.status, verdict.reason) == ("Inconclusive", "BudgetExhausted")
        assert verdict.diagnostics["method"] == "rank_n_decomposition"
        assert "joint diagonalization" in verdict.diagnostics["rank_n_error"]

    @staticmethod
    def _skewed_rank_n_state(m, n, seed):
        # max(m, n) Haar product terms with weights spread over seven decades
        rng = np.random.default_rng(seed)
        weights = 10.0 ** rng.uniform(-7, 0, size=max(m, n))
        terms = [(float(w), ProductVector(haar_vector(m, rng), haar_vector(n, rng)))
                 for w in weights]
        return BipartiteState(m, n, reconstruction(terms, m, n))

    @pytest.mark.parametrize("m, n, seed", [(3, 4, 2540), (4, 4, 10), (4, 4, 1048),
                                            (4, 4, 2255), (3, 3, 1178), (3, 3, 1680)])
    def test_skewed_weights_rank_n_separable(self, m, n, seed):
        # the 4x4 canonical blocks miss the normality and commutator
        # identities at 1x residual_abs in the filtered frame, yet their
        # terms reconstruct the input to 1e-12; the 3x3 blocks, read from
        # one Alice block row, carry no rotation rounding for the joint
        # diagonalization to trip on
        st = self._skewed_rank_n_state(m, n, seed)
        verdict = separability_check(st, seed=0)
        assert verdict.diagnostics["method"] == "rank_n_decomposition"
        assert verdict.status == "Separable"
        assert verdict.certificate.residual <= 1e-8

    @pytest.mark.parametrize("m, n, seed, cause", [
        # compression cuts a direction that carries ~1e-8 of rho (item 2a)
        (3, 3, 316, "reconstruction residual"),
        # no Haar draw clears the local-block rank cutoff (item 2b)
        (4, 4, 1249, "no full-rank direction"),
    ])
    def test_skewed_weights_rank_n_undecided_stays_sound(self, m, n, seed, cause):
        # states the rank-N stage leaves undecided (ROADMAP item 2): never
        # Entangled, never certified above tolerance, and the verdict says why
        st = self._skewed_rank_n_state(m, n, seed)
        verdict = separability_check(st, seed=0)
        assert verdict.diagnostics["method"] == "rank_n_decomposition"
        assert verdict.status != "Entangled"
        if verdict.certificate is not None:
            residual = frob(st.rho - reconstruction(verdict.certificate.terms, m, n))
            assert residual <= DEFAULT_TOL.residual_abs * max(1.0, frob(st.rho))
        else:
            assert verdict.diagnostics["rank_n_error"].startswith(cause)

    @pytest.mark.parametrize("k, seed, method", [(3, 0, "rank_n_decomposition"),
                                                 (4, 2, "eligible_vectors")])
    def test_near_product_certificate_reconstructs_the_input(self, k, seed, method):
        # compression drops a direction that still carries ~1e-5 of rho, so
        # a certificate of the compressed state can miss the input by that
        # much; it is accepted only if it reconstructs the input itself
        st = near_product_mixture((3, 3), k, seed)
        verdict = separability_check(st, seed=0)
        assert verdict.diagnostics["method"] == method
        assert verdict.diagnostics["compressed_dims"] == [2, 3]
        assert verdict.status != "Entangled"
        if verdict.certificate is not None:
            residual = frob(st.rho - reconstruction(verdict.certificate.terms, 3, 3))
            assert residual <= DEFAULT_TOL.residual_abs * max(1.0, frob(st.rho))

    def test_empty_set_on_an_unresolved_spectrum_is_inconclusive(self):
        # a separable near-product mixture whose smallest kept eigenvalue is
        # 2.5e-5 of the largest: the kernels are known only to rank_rel over
        # that gap, coarser than root_abs, so the empty exhaustive set it
        # gets rules out nothing (it used to answer Entangled here)
        st = near_product_mixture((3, 3), 4, 1)
        for seed in range(3):
            verdict = separability_check(st, seed=seed)
            assert verdict.diagnostics["method"] == "eligible_vectors"
            assert (verdict.diagnostics["eligible_count"],
                    verdict.diagnostics["eligible_exhaustive"]) == (0, True)
            assert (verdict.status, verdict.reason) == ("Inconclusive", "BudgetExhausted")
            assert verdict.diagnostics["eligible_error"].startswith(
                "spectral gap 2.501e-05 below rank_rel / root_abs = 1.000e-03")

    def test_near_product_sweep_on_the_tracked_family(self):
        # 2x4 with five terms: the eligible search path-tracks the coupled
        # system, so a lost path could turn a separable input Entangled
        statuses = []
        for seed in range(60):
            st = near_product_mixture((2, 4), 5, seed)
            verdict = separability_check(st, seed=0)
            statuses.append(verdict.status)
            if verdict.certificate is not None:
                residual = frob(st.rho - reconstruction(verdict.certificate.terms, 2, 4))
                assert residual <= DEFAULT_TOL.residual_abs * max(1.0, frob(st.rho))
        assert "Entangled" not in statuses
        assert statuses.count("Separable") >= 55

    def test_direction_not_found_is_inconclusive(self, monkeypatch):
        import sepcheck.canon
        from sepcheck.errors import DirectionNotFound

        def fail(*args, **kwargs):
            raise DirectionNotFound("no full-rank direction")

        monkeypatch.setattr(sepcheck.canon, "find_full_rank_direction", fail)
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=12))
        verdict = separability_check(st, seed=0)
        assert (verdict.status, verdict.reason) == ("Inconclusive", "BudgetExhausted")
        assert verdict.diagnostics["method"] == "rank_n_decomposition"
        assert verdict.diagnostics["rank_n_error"] == "no full-rank direction"

    def test_rank_below_local_detected_under_loose_psd(self):
        # a near-product entangled pure state whose partial-transpose
        # negativity hides below a loosened PSD floor: the rank test still
        # convicts it (global rank one below local rank two)
        from sepcheck.numlin import Tolerances

        verdict = separability_check(near_product_pure_state(), Tolerances(psd_abs=1e-2), seed=0)
        assert verdict.status == "Entangled"
        assert verdict.reason == "RankBelowLocal"
        assert verdict.diagnostics["method"] == "rank_below_local"

    def test_out_of_window_full_rank_is_inconclusive(self):
        e = np.array([1.0, 0.0], dtype=complex)
        v = np.kron(e, e)
        rho = 0.6 * np.outer(v, v.conj()) + 0.4 * np.eye(4) / 4.0
        st = BipartiteState(2, 2, rho, normalized=True)
        verdict = separability_check(st, seed=0)
        assert verdict.status == "Inconclusive"
        assert verdict.reason == "BudgetExhausted"
        assert verdict.diagnostics["method"] == "none"

    def test_degenerate_rows_are_inconclusive(self):
        # the extra terms sit on a product pencil, so the compressed 2x2
        # state's kernel rows are identically dependent as polynomials
        st, _ = random_separable_rank_deficient((2, 3), 3, 4, seed=5)
        verdict = separability_check(st, seed=0)
        assert verdict.status == "Inconclusive"
        assert verdict.reason == "NonGeneric"
        assert "identically dependent" in verdict.diagnostics["eligible_error"]
        assert verdict.diagnostics["method"] == "eligible_vectors"
        # a search that raised describes no set
        assert not {"eligible_count", "eligible_exhaustive", "nnls_residual"} & verdict.diagnostics.keys()

    def test_input_dims_survive_the_eligible_path(self):
        # a 3x3 eligible-path state embedded in 3x4: the verdict reports the
        # input's dimensions next to the compressed ones
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=12))
        lift = np.kron(np.eye(3), np.eye(4, 3))
        embedded = BipartiteState(3, 4, lift @ st.rho @ lift.T, normalized=True)
        verdict = separability_check(embedded, seed=12)
        assert verdict.diagnostics["method"] == "eligible_vectors"
        assert verdict.status == "Separable"
        assert verdict.diagnostics["dims"] == [3, 4]
        assert verdict.diagnostics["compressed_dims"] == [3, 3]

    @pytest.mark.parametrize("family, expected", [
        ("npt", 1),
        ("spectral_ball", 1),
        ("rank_n_decomposition", 2),
        ("rank_n_swapped", 2),
        ("eligible_vectors", 3),
        ("eligible_swapped", 3),
    ])
    def test_verdict_decomposes_each_operator_once(self, monkeypatch, family, expected):
        # svd, eigh and eigvalsh calls on MN x MN matrices inside the
        # pipeline.  The state's own spectrum comes from its constructor and
        # the pipeline's one eigh of rho^T_A answers the NPT test and
        # rank_ta, so an NPT or spectral-ball verdict needs nothing else.  A
        # rank-N verdict adds the decomposition's PPT gate, also when it
        # swaps the parties (M > N): the swapped state keeps the spectrum.
        # An eligible one adds the two kernel bases; the Haar-rotated state
        # keeps the spectrum too, and so does the party swap that puts
        # Alice on the smaller side before the search.
        def planted(dims, k, seed):
            return random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))[0]

        st, seed = {
            "npt": (random_ppt(GeneratorSpec((3, 3), family="ppt-random", p=0.0, seed=3)), 3),
            "spectral_ball": (isotropic_family(3, 0.1), 0),
            "rank_n_decomposition": (planted((3, 3), 3, 5), 5),
            "rank_n_swapped": (planted((3, 2), 3, 3), 3),
            "eligible_vectors": (planted((3, 3), 5, 12), 12),
            "eligible_swapped": (swap_parties(planted((2, 4), 5, 12)), 12),
        }[family]
        mn = st.dim_a * st.dim_b
        calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, _name=name, _original=original, **kwargs):
                if np.shape(a) == (mn, mn):
                    calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        verdict = separability_check(st, seed=seed)
        monkeypatch.undo()
        method = {"rank_n_swapped": "rank_n_decomposition",
                  "eligible_swapped": "eligible_vectors"}.get(family, family)
        assert verdict.diagnostics["method"] == method
        assert verdict.status == ("Entangled" if family == "npt" else "Separable")
        assert len(calls) == expected, calls

    @pytest.mark.parametrize("k", [4, 5])
    def test_eligible_verdict_compresses_once(self, monkeypatch, k):
        # the pipeline compresses the state once; the search frame of the
        # compressed state takes it as it is, with no second pair of range
        # bases of the reduced operators
        import sepcheck.state

        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=k, seed=k))
        calls = []
        original = sepcheck.state.range_basis

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sepcheck.state, "range_basis", counting)
        verdict = separability_check(st, seed=k)
        assert verdict.diagnostics["method"] == "eligible_vectors"
        assert verdict.status == "Separable"
        assert len(calls) == 2

    def test_bsa_nonconvergence_flag(self):
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=41))
        res = bsa_decompose(st, [pv for _, pv in dec.terms], max_iters=1)
        assert isinstance(res, BsaResult)
        assert not res.converged
        assert res.iterations == 1


class TestSecondBlockSystem:
    # Both kernels of these states pin alpha, so each gives a block system
    # that is complete on its own; the second one is never built.

    def test_first_block_decides(self, monkeypatch):
        calls = block_solves(monkeypatch)
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=7))
        verdict = separability_check(st, seed=7)
        assert verdict.status == "Separable"
        assert len(calls) == 1
