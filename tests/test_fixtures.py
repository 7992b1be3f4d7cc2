import numpy as np
import pytest

from sepcheck.fixtures import (
    GeneratorSpec,
    generate,
    isotropic_family,
    maximally_mixed,
    random_ppt,
    random_separable,
    random_separable_rank_deficient,
    tiles_upb_state,
    tiles_vectors,
    werner_family,
)
from sepcheck.numlin import numerical_rank
from sepcheck.state import BipartiteState, is_ppt, partial_transpose, reconstruction


class TestRandomSeparable:
    def test_single_term_is_pure_product(self):
        st, dec = random_separable(GeneratorSpec(dims=(2, 3), term_count=1, seed=0))
        assert numerical_rank(st.rho) == 1
        assert len(dec.terms) == 1

    def test_rank_n_instances(self):
        for dims in [(2, 3), (3, 3), (3, 4)]:
            st, dec = random_separable(GeneratorSpec(dims=dims, term_count=dims[1], seed=5))
            assert numerical_rank(st.rho) == dims[1]

    def test_full_rank_with_many_terms(self):
        m, n = 2, 2
        st, _ = random_separable(GeneratorSpec(dims=(m, n), term_count=m * n * n, seed=5))
        assert numerical_rank(st.rho) == m * n

    def test_deterministic_in_seed(self):
        a, da = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=42))
        b, db = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=42))
        assert np.array_equal(a.rho, b.rho)
        for (wa, pa), (wb, pb) in zip(da.terms, db.terms):
            assert wa == wb
            assert np.array_equal(pa.e, pb.e)
            assert np.array_equal(pa.f, pb.f)

    def test_planted_residual_tiny(self):
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=5, seed=1))
        res = np.linalg.norm(st.rho - reconstruction(dec.terms, 3, 3))
        assert res <= 1e-12

    def test_target_ranks_rejection(self):
        spec = GeneratorSpec(dims=(2, 2), term_count=4, target_ranks=(4, 4), seed=3)
        st, _ = random_separable(spec)
        assert numerical_rank(st.rho) == 4
        assert numerical_rank(partial_transpose(st)) == 4

    def test_infeasible_target_raises(self):
        spec = GeneratorSpec(dims=(2, 2), term_count=1, target_ranks=(3, None), seed=3)
        with pytest.raises(ValueError):
            random_separable(spec)


class TestRankDeficient:
    def test_rank_below_terms(self):
        st, dec = random_separable_rank_deficient((3, 3), rank=3, terms=6, seed=2)
        assert numerical_rank(st.rho) == 3
        assert len(dec.terms) == 6
        assert is_ppt(st)


class TestWerner:
    def test_p_zero_is_maximally_mixed(self):
        assert np.allclose(werner_family(0.0).rho, np.eye(4) / 4.0)

    def test_p_one_is_pure(self):
        st = werner_family(1.0)
        assert numerical_rank(st.rho) == 1

    def test_ppt_boundary(self):
        assert is_ppt(werner_family(1.0 / 3.0 - 1e-6))
        assert not is_ppt(werner_family(1.0 / 3.0 + 1e-3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner_family(1.5)


class TestTiles:
    def test_vectors_are_orthonormal_products(self):
        vs = [pv.vec() for pv in tiles_vectors()]
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.allclose(gram, np.eye(5), atol=1e-12)

    def test_vectors_are_unextendible(self):
        # a product vector e x f orthogonal to all five splits them into a
        # subset S with e orthogonal to its Alice parts and the rest with f
        # orthogonal to their Bob parts; both need a rank-deficient span, and
        # no split of the five gives two
        vectors = tiles_vectors()
        for mask in range(2 ** len(vectors)):
            alice = [pv.e for i, pv in enumerate(vectors) if mask >> i & 1]
            bob = [pv.f for i, pv in enumerate(vectors) if not mask >> i & 1]
            ranks = [np.linalg.matrix_rank(np.array(part)) if part else 0 for part in (alice, bob)]
            assert max(ranks) == 3

    def test_ranks_via_svd_oracle(self):
        st = tiles_upb_state()
        # oracle: count singular values above a scale cutoff directly
        sv = np.linalg.svd(st.rho, compute_uv=False)
        assert int(np.sum(sv > 1e-12 * sv[0])) == 4
        sv_t = np.linalg.svd(partial_transpose(st), compute_uv=False)
        assert int(np.sum(sv_t > 1e-12 * sv_t[0])) == 4

    def test_is_ppt(self):
        assert is_ppt(tiles_upb_state())

    def test_fixed_point_of_support_compress(self):
        from sepcheck.state import support_compress

        st = tiles_upb_state()
        out, _ = support_compress(st)
        assert (out.dim_a, out.dim_b) == (3, 3)

    def test_byte_stable(self):
        a = tiles_upb_state()
        b = tiles_upb_state()
        assert np.array_equal(a.rho, b.rho)


class TestOtherFamilies:
    def test_maximally_mixed(self):
        st = maximally_mixed(2, 3)
        assert np.allclose(st.rho, np.eye(6) / 6.0)

    def test_isotropic_limits(self):
        assert np.allclose(isotropic_family(3, 0.0).rho, np.eye(9) / 9.0)
        assert numerical_rank(isotropic_family(3, 1.0).rho) == 1

    def test_random_ppt_is_ppt_and_deterministic(self):
        spec = GeneratorSpec(dims=(2, 3), family="ppt-random", seed=6)
        a = random_ppt(spec)
        b = random_ppt(spec)
        assert is_ppt(a)
        assert np.array_equal(a.rho, b.rho)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 4)])
    def test_random_ppt_admixture_is_the_closed_form(self, monkeypatch, dims):
        # mixing in I/MN with weight t maps each eigenvalue l of W^T_A to
        # (1 - t) l + t/MN, so the admixture is solved for, not bisected
        m, n = dims
        mn = m * n
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = rng.normal(size=(mn, mn)) + 1j * rng.normal(size=(mn, mn))
            w = g @ g.conj().T
            w /= np.trace(w).real
            lam = np.linalg.eigvalsh(partial_transpose(BipartiteState(m, n, w)))[0]

            calls = []
            for name in ("svd", "eigh", "eigvalsh"):
                original = getattr(np.linalg, name)

                def counting(a, *args, _name=name, _original=original, **kwargs):
                    if np.shape(a) == (mn, mn):
                        calls.append(_name)
                    return _original(a, *args, **kwargs)

                monkeypatch.setattr(np.linalg, name, counting)
            spec = GeneratorSpec(dims=dims, family="ppt-random", seed=seed)
            st = random_ppt(spec)
            monkeypatch.undo()
            assert len(calls) <= 2
            assert np.array_equal(st.rho, random_ppt(spec).rho)

            # the output lies on the segment from W to I/MN, at weight t
            d = np.eye(mn) / mn - w
            t = np.vdot(d, st.rho - w).real / np.vdot(d, d).real
            assert np.linalg.norm(st.rho - (w + t * d)) < 1e-12
            # t* = l / (l - 1/MN) plus the 0.01 margin, or none for a PPT draw
            expected = 0.0 if lam >= 0.0 else min(1.0, lam / (lam - 1.0 / mn) + 0.01)
            assert t == pytest.approx(expected, abs=1e-12)
            wmin = np.linalg.eigvalsh(partial_transpose(st))[0]
            assert wmin == pytest.approx((1.0 - t) * lam + t / mn, abs=1e-12)
            assert wmin >= 0.0

    def test_generate_dispatch(self):
        st, planted = generate(GeneratorSpec(dims=(3, 3), family="tiles-upb"))
        assert planted is None
        st, planted = generate(GeneratorSpec(dims=(2, 2), term_count=2, seed=1))
        assert planted is not None

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(dims=(2, 2), family="nonsense")
