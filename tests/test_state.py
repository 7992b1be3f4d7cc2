import json

import numpy as np
import pytest

from sepcheck.fixtures import GeneratorSpec, haar_unitary, haar_vector, random_separable
from sepcheck.numlin import Tolerances, inv_sqrt_on_range, numerical_rank
from sepcheck.state import (
    BipartiteState,
    Decomposition,
    ProductVector,
    block,
    canonicalize,
    is_ppt,
    lift_decomposition,
    local_filter,
    partial_transpose,
    reduced_a,
    reduced_b,
    state_from_json,
    state_to_json,
    support_compress,
    swap_parties,
)


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return BipartiteState(2, 2, np.outer(v, v.conj()), normalized=True)


def manual_partial_transpose(rho, m, n):
    """Independent elementwise construction: out[m mu, n nu] = in[n mu, m nu]."""
    out = np.zeros_like(rho)
    for a in range(m):
        for b in range(m):
            for mu in range(n):
                for nu in range(n):
                    out[a * n + mu, b * n + nu] = rho[b * n + mu, a * n + nu]
    return out


class TestConstruction:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            BipartiteState(2, 2, m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BipartiteState(2, 2, np.diag([1.0, 1.0, 1.0, -0.5]))

    def test_normalized_trace_enforced(self):
        with pytest.raises(ValueError):
            BipartiteState(2, 2, np.eye(4) / 2.0, normalized=True)
        BipartiteState(2, 2, np.eye(4) / 4.0, normalized=True)

    def test_shape_must_match_dims(self):
        with pytest.raises(ValueError):
            BipartiteState(2, 3, np.eye(4))

    def test_product_vector_nonzero(self):
        with pytest.raises(ValueError):
            ProductVector(np.zeros(2), np.ones(2))

    def test_product_vector_is_the_kron_product(self, rng):
        # the index convention of the module: |i>_A (x) |j>_B is row i N + j
        for m, n in [(1, 3), (2, 2), (3, 4), (4, 2)]:
            e, f = haar_vector(m, rng), haar_vector(n, rng)
            assert np.array_equal(ProductVector(e, f).vec(), np.kron(e, f))

    def test_decomposition_weights_positive(self):
        pv = ProductVector(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            Decomposition(((0.0, pv),), 0.0)


class TestPartialTranspose:
    def test_product_state_conjugates_alice(self, rng):
        e = haar_vector(2, rng)
        f = haar_vector(3, rng)
        v = np.kron(e, f)
        s = BipartiteState(2, 3, np.outer(v, v.conj()))
        w = np.kron(e.conj(), f)
        assert np.allclose(partial_transpose(s), np.outer(w, w.conj()), atol=1e-12)

    def test_involution(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=5, seed=3))
        pt = partial_transpose(st)
        again = partial_transpose(BipartiteState(2, 3, pt))
        assert np.allclose(again, st.rho, atol=1e-12)

    def test_matches_elementwise_definition(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(3, 2), term_count=4, seed=5))
        assert np.allclose(partial_transpose(st),
                           manual_partial_transpose(st.rho, 3, 2), atol=1e-14)

    def test_bell_minimum_eigenvalue(self):
        # independent oracle: eigendecomposition of the elementwise transpose
        s = bell_phi_plus()
        oracle = np.linalg.eigvalsh(manual_partial_transpose(s.rho, 2, 2))
        assert abs(oracle[0] - (-0.5)) < 1e-12
        assert abs(np.linalg.eigvalsh(partial_transpose(s))[0] - (-0.5)) < 1e-12

    def test_preserves_trace_and_hermiticity(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=6, seed=9))
        pt = partial_transpose(st)
        assert abs(np.trace(pt) - np.trace(st.rho)) < 1e-13
        assert np.linalg.norm(pt - pt.conj().T) < 1e-13

    def test_trace_pairing_identity(self, rng):
        # trace(X Y) = trace(X^T_A Y^T_A) for random Hermitian X, Y
        for seed in range(3):
            r = np.random.default_rng(seed)
            x = r.normal(size=(6, 6)) + 1j * r.normal(size=(6, 6))
            x = 0.1 * (x + x.conj().T)
            y = r.normal(size=(6, 6)) + 1j * r.normal(size=(6, 6))
            y = 0.1 * (y + y.conj().T)
            xs = BipartiteState(2, 3, x + np.eye(6))
            ys = BipartiteState(2, 3, y + np.eye(6))
            lhs = np.trace(xs.rho @ ys.rho)
            rhs = np.trace(partial_transpose(xs) @ partial_transpose(ys))
            assert abs(lhs - rhs) < 1e-10


class TestIsPpt:
    def test_product_projector(self, rng):
        e = haar_vector(2, rng)
        f = haar_vector(2, rng)
        v = np.kron(e, f)
        assert is_ppt(BipartiteState(2, 2, np.outer(v, v.conj())))

    def test_bell_is_npt(self):
        assert not is_ppt(bell_phi_plus())

    def test_werner_boundary_matches_sweep_oracle(self):
        # oracle: eigenvalues of the elementwise partial transpose over a
        # parameter sweep locate the PPT boundary at p = 1/3
        from sepcheck.fixtures import werner_family

        boundary = None
        ps = np.linspace(0.0, 1.0, 401)
        for p in ps:
            s = werner_family(float(p))
            wmin = np.linalg.eigvalsh(manual_partial_transpose(s.rho, 2, 2))[0]
            if wmin < -1e-12 and boundary is None:
                boundary = p
        assert abs(boundary - 1.0 / 3.0) < 5e-3
        for p in (0.0, 0.2, 1.0 / 3.0 - 1e-6, 1.0 / 3.0 + 1e-3, 0.8):
            assert is_ppt(werner_family(p)) == (p <= 1.0 / 3.0 + 1e-9)


class TestBlocksAndReductions:
    def test_principal_blocks_psd(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=1))
        for i in range(3):
            b = block(st, i, i)
            assert np.linalg.eigvalsh(b)[0] >= -1e-12

    def test_block_of_pinned_alice(self, rng):
        eta = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho = np.zeros((9, 9), dtype=complex)
        rho[:3, :3] = eta  # |0><0| (x) eta
        st = BipartiteState(3, 3, rho, normalized=True)
        assert np.allclose(block(st, 0, 0), eta)
        assert np.allclose(block(st, 1, 1), 0.0)

    def test_trace_identity(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(3, 4), term_count=5, seed=2))
        total = sum(np.trace(block(st, i, i)) for i in range(3))
        assert abs(total - st.trace) < 1e-12

    def test_block_index_range(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=2, seed=0))
        with pytest.raises(IndexError):
            block(st, 2, 0)

    def test_reduced_of_product_projector(self, rng):
        e = haar_vector(3, rng)
        f = haar_vector(2, rng)
        v = np.kron(e, f)
        st = BipartiteState(3, 2, np.outer(v, v.conj()), normalized=True)
        assert np.allclose(reduced_a(st), np.outer(e, e.conj()), atol=1e-12)
        assert np.allclose(reduced_b(st), np.outer(f, f.conj()), atol=1e-12)

    def test_reduced_of_maximally_mixed(self):
        st = BipartiteState(2, 3, np.eye(6) / 6.0, normalized=True)
        assert np.allclose(reduced_a(st), np.eye(2) / 2.0)
        assert np.allclose(reduced_b(st), np.eye(3) / 3.0)

    def test_reduced_matches_direct_summation(self):
        # oracle: sum the planted terms' local projectors directly
        st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=6, seed=4))
        direct_a = sum(w * np.outer(pv.e, pv.e.conj()) for w, pv in dec.terms)
        direct_b = sum(w * np.outer(pv.f, pv.f.conj()) for w, pv in dec.terms)
        assert np.allclose(reduced_a(st), direct_a, atol=1e-12)
        assert np.allclose(reduced_b(st), direct_b, atol=1e-12)


class TestLocalFilter:
    def test_identity_filter(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=3, seed=7))
        out = local_filter(st, "B", np.eye(3))
        assert np.allclose(out.rho, st.rho)

    def test_unitary_preserves_spectrum(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=4, seed=8))
        u = haar_unitary(3, rng)
        out = local_filter(st, "B", u)
        assert np.allclose(np.linalg.eigvalsh(out.rho), np.linalg.eigvalsh(st.rho),
                           atol=1e-11)

    def test_inv_sqrt_filter_flattens_block(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=6, seed=9))
        e = block(st, 1, 1)
        assert numerical_rank(e) == 2
        v = inv_sqrt_on_range(e)
        out = local_filter(st, "B", v)
        # conjugating Bob by V maps the (1,1) block to V E V
        assert np.allclose(block(out, 1, 1), np.eye(2), atol=1e-10)

    @staticmethod
    def _count_eigvalsh(monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def test_haar_rotation_keeps_the_spectrum(self, monkeypatch, rng):
        # the eligible search's rotation: a unitary filter is a similarity,
        # so the output keeps the input's spectrum without decomposing again
        for dims, k, seed in [((2, 3), 4, 8), ((3, 3), 5, 12), ((3, 4), 6, 2)]:
            st, _ = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))
            q = haar_unitary(dims[0], rng)
            calls = self._count_eigvalsh(monkeypatch)
            out = local_filter(st, "A", q.conj().T)
            monkeypatch.undo()
            assert calls == []
            assert out.eigenvalues is st.eigenvalues
            err = np.max(np.abs(out.eigenvalues - np.linalg.eigvalsh(out.rho)))
            assert err <= 1e-12 * np.linalg.norm(st.rho)
            assert np.array_equal(out.rho, out.rho.conj().T)

    def test_non_unitary_filter_is_validated(self, monkeypatch, rng):
        # a scaled or slightly perturbed unitary is no similarity: the output
        # runs its own PSD check and gets its own spectrum
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=4, seed=8))
        u = haar_unitary(3, rng)
        for v in (2.0 * u, u * (1.0 + 1e-10)):
            calls = self._count_eigvalsh(monkeypatch)
            out = local_filter(st, "B", v)
            monkeypatch.undo()
            assert calls == [(6, 6)]
            assert np.array_equal(out.eigenvalues, np.linalg.eigvalsh(out.rho))
        assert np.allclose(local_filter(st, "B", 2.0 * u).eigenvalues, 4.0 * st.eigenvalues,
                           atol=1e-12)

    def test_invertible_filter_preserves_ranks(self, rng):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=4, seed=11))
        v = haar_unitary(3, rng) @ np.diag([1.0, 2.0, 0.5]).astype(complex)
        out = local_filter(st, "B", v)
        assert numerical_rank(out.rho) == numerical_rank(st.rho)
        pt_in = partial_transpose(st)
        pt_out = partial_transpose(out)
        assert numerical_rank(pt_out) == numerical_rank(pt_in)


class TestSupportCompress:
    def test_supported_state_unchanged(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=6, seed=12))
        out, (va, vb) = support_compress(st)
        assert (out.dim_a, out.dim_b) == (2, 3)

    def test_pinned_corner(self):
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.0  # |00><00| inside 3x3
        st = BipartiteState(3, 3, rho, normalized=True)
        out, _ = support_compress(st)
        assert (out.dim_a, out.dim_b) == (1, 1)

    def test_embedded_round_trip(self, rng):
        # rank-2 separable state spanning 2x2 embedded in 3x4
        sub, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=2, seed=13))
        ua = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
        ub = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
        w = np.kron(ua, ub)
        st = BipartiteState(3, 4, w @ sub.rho @ w.conj().T, normalized=True)
        out, (va, vb) = support_compress(st)
        assert (out.dim_a, out.dim_b) == (2, 2)
        lift = np.kron(va, vb)
        assert np.linalg.norm(lift @ out.rho @ lift.conj().T - st.rho) < 1e-10
        assert numerical_rank(reduced_a(out)) == 2
        assert numerical_rank(reduced_b(out)) == 2

    @pytest.mark.parametrize("case", ["supported", "embedded"])
    def test_compressed_state_comes_back_at_once(self, monkeypatch, case):
        # a state support_compress returned is its own compression: the same
        # tolerances give it back with identity isometries and no range
        # basis, other tolerances measure again, and a copy is not marked
        import sepcheck.state

        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=6, seed=12))
        if case == "embedded":
            w = np.kron(np.eye(3, 2), np.eye(4, 3))
            st = BipartiteState(3, 4, w @ st.rho @ w.T, normalized=True)
        sc, _ = support_compress(st)
        calls = []
        original = sepcheck.state.range_basis

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sepcheck.state, "range_basis", counting)
        again, (va, vb) = support_compress(sc)
        assert again is sc and calls == []
        assert np.array_equal(va, np.eye(2)) and np.array_equal(vb, np.eye(3))
        support_compress(sc, Tolerances(rank_rel=1e-8))
        assert len(calls) == 2
        support_compress(swap_parties(sc))
        assert len(calls) == 4


class TestSwapAndCanonicalize:
    def test_swap_parties_round_trip(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=5, seed=3))
        back = swap_parties(swap_parties(st))
        assert np.allclose(back.rho, st.rho)
        assert np.array_equal(back.eigenvalues, st.eigenvalues)

    def test_swapped_state_keeps_the_spectrum(self):
        # a permutation similarity: the swapped state reads the input's
        # eigenvalues, which match its own matrix's
        for dims, k, seed in [((2, 4), 5, 3), ((3, 2), 3, 3), ((4, 3), 4, 3)]:
            st, _ = random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))
            out = swap_parties(st)
            assert (out.dim_a, out.dim_b, out.normalized) == (dims[1], dims[0], st.normalized)
            err = np.max(np.abs(out.eigenvalues - np.linalg.eigvalsh(out.rho)))
            assert err <= 1e-12 * np.linalg.norm(st.rho)
            assert not out.eigenvalues.flags.writeable and not out.rho.flags.writeable

    def test_lift_restores_the_party_order_of_swapped_terms(self):
        # a 3x2 state embedded in 4x3 compresses to 3x2, Alice on the larger
        # side, so its terms are built in the swapped 2x3 frame; the lift
        # recognises them by their first factor's width and puts them back
        rng = np.random.default_rng(8)
        sub, dec = random_separable(GeneratorSpec(dims=(3, 2), term_count=4, seed=8))
        ua = np.linalg.qr(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))[0]
        ub = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
        w = np.kron(ua, ub)
        st = BipartiteState(4, 3, w @ sub.rho @ w.conj().T, normalized=True)
        out, (va, vb) = support_compress(st)
        assert (out.dim_a, out.dim_b) == (3, 2)
        compressed = [(wt, va.conj().T @ ua @ pv.e, vb.conj().T @ ub @ pv.f)
                      for wt, pv in dec.terms]
        swapped = [(wt, ProductVector(f, e)) for wt, e, f in compressed]
        lifted = lift_decomposition(swapped, va, vb, st)
        assert [(len(pv.e), len(pv.f)) for _, pv in lifted.terms] == [(4, 3)] * 4
        assert lifted.residual <= 1e-14
        direct = lift_decomposition([(wt, ProductVector(e, f)) for wt, e, f in compressed],
                                    va, vb, st)
        for (w1, pv1), (w2, pv2) in zip(lifted.terms, direct.terms):
            assert w1 == w2 and np.array_equal(pv1.e, pv2.e) and np.array_equal(pv1.f, pv2.f)

    def test_canonicalize_sorts_and_pins_phases(self, rng):
        pv1 = ProductVector(1j * haar_vector(2, rng), haar_vector(2, rng))
        pv2 = ProductVector(haar_vector(2, rng), -haar_vector(2, rng))
        dec = canonicalize(Decomposition(((0.25, pv1), (0.75, pv2)), 0.0))
        weights = [w for w, _ in dec.terms]
        assert weights == sorted(weights, reverse=True)
        for _, pv in dec.terms:
            for vec in (pv.e, pv.f):
                lead = vec[int(np.argmax(np.abs(vec)))]
                assert abs(lead.imag) < 1e-12 and lead.real > 0


class TestJsonDocument:
    def test_round_trip(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=4, seed=21))
        doc = state_to_json(st)
        back = state_from_json(doc)
        assert back.dim_a == 2 and back.dim_b == 3
        assert np.allclose(back.rho, st.rho)
        assert back.normalized

    def test_rejects_dimension_mismatch(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=3, seed=22))
        doc = state_to_json(st)
        doc["dim_b"] = 3
        with pytest.raises(ValueError):
            state_from_json(doc)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            state_from_json({"dim_a": 2})

    def test_serialization_is_plain_json(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 2), term_count=2, seed=23))
        text = json.dumps(state_to_json(st), sort_keys=True)
        assert json.loads(text)["dim_a"] == 2
