import numpy as np
import pytest

from conftest import match_planted, near_product_pure_state
from sepcheck.canon import (
    CanonicalForm,
    decompose_rank_n,
    find_full_rank_direction,
    to_canonical_form,
)
from sepcheck.errors import DirectionNotFound, NotPPT, RankTooLow
from sepcheck.fixtures import GeneratorSpec, haar_unitary, haar_vector, random_separable
from sepcheck.numlin import DEFAULT_TOL, Tolerances, frob, numerical_rank
from sepcheck.state import (
    BipartiteState,
    ProductVector,
    partial_transpose,
    reconstruction,
)


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return BipartiteState(2, 2, np.outer(v, v.conj()), normalized=True)


class TestFindDirection:
    def test_generic_separable_states(self):
        for dims in [(2, 3), (3, 3), (3, 4)]:
            st, _ = random_separable(GeneratorSpec(dims=dims, term_count=dims[1], seed=4))
            a = find_full_rank_direction(st, DEFAULT_TOL, seed=1)
            r = st.rho.reshape(dims[0], dims[1], dims[0], dims[1])
            e = np.einsum("m,minj,n->ij", a.conj(), r, a)
            assert numerical_rank(e) == dims[1]

    def test_scalar_alice(self):
        st, _ = random_separable(GeneratorSpec(dims=(1, 3), term_count=3, seed=5))
        a = find_full_rank_direction(st, DEFAULT_TOL, seed=0)
        assert a.shape == (1,)

    def test_planted_deficient_direction_rejected(self, rng):
        # all Alice parts orthogonal to a0, so <a0|rho|a0> = 0
        a0 = haar_vector(3, rng)
        from sepcheck.numlin import kernel_basis

        comp = kernel_basis(a0.conj().reshape(1, -1))
        terms = []
        for _ in range(3):
            e = comp @ haar_vector(2, rng)
            terms.append((1.0 / 3.0, ProductVector(e, haar_vector(3, rng))))
        st = BipartiteState(3, 3, reconstruction(terms, 3, 3))
        with pytest.raises(ValueError):
            to_canonical_form(st, a0, DEFAULT_TOL)

    def test_budget_exhaustion(self):
        # a state whose local blocks never reach rank N: rank below Bob rank
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=2, seed=6))
        with pytest.raises(DirectionNotFound):
            find_full_rank_direction(st, DEFAULT_TOL, seed=0)


class TestToCanonicalForm:
    def test_two_qubit_classical_mixture(self):
        # rho = (|00><00| + |11><11|) / 2 with a = (|0> + |1|)/sqrt(2):
        # direct 4x4 computation puts the filtered off-diagonal block B
        # in diagonal (hence normal) form
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        st = BipartiteState(2, 2, rho, normalized=True)
        a = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        cf = to_canonical_form(st, a, DEFAULT_TOL)
        b = cf.blocks[0]
        assert np.allclose(b - np.diag(np.diag(b)), 0.0, atol=1e-10)
        assert np.linalg.norm(b @ b.conj().T - b.conj().T @ b) < 1e-10

    def test_planted_commuting_family_round_trip(self, rng):
        # forward construction: Z = [C_1, C_2, I] from a shared eigenbasis,
        # then rho = Z^dag Z; the recovered blocks must reproduce the state
        n = 3
        u = haar_unitary(n, rng)
        c1 = u @ np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)) @ u.conj().T
        c2 = u @ np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)) @ u.conj().T
        z = np.hstack([c1, c2, np.eye(n)])
        st = BipartiteState(3, n, z.conj().T @ z)
        a = np.array([0.0, 0.0, 1.0], dtype=complex)
        cf = to_canonical_form(st, a, DEFAULT_TOL)
        m, nn = 3, n
        rho1 = np.kron(cf.alice_basis.conj().T, np.eye(nn)) @ st.rho @ np.kron(cf.alice_basis, np.eye(nn))
        wk = np.kron(np.eye(m), cf.filter)
        rho2 = wk @ rho1 @ wk
        rebuilt = np.zeros_like(rho2)
        full = list(cf.blocks) + [np.eye(nn)]
        for i in range(m):
            for j in range(m):
                rebuilt[i * nn:(i + 1) * nn, j * nn:(j + 1) * nn] = full[i].conj().T @ full[j]
        assert np.linalg.norm(rebuilt - rho2) < 1e-9 * max(1.0, frob(rho2))

    def test_m2_block_identity(self):
        # for M = 2 the (0,0) block of the filtered state equals B^dag B
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=3, seed=8))
        a = find_full_rank_direction(st, DEFAULT_TOL, seed=2)
        cf = to_canonical_form(st, a, DEFAULT_TOL)
        b = cf.blocks[0]
        rho1 = np.kron(cf.alice_basis.conj().T, np.eye(3)) @ st.rho @ np.kron(cf.alice_basis, np.eye(3))
        wk = np.kron(np.eye(2), cf.filter)
        rho2 = wk @ rho1 @ wk
        assert np.linalg.norm(rho2[:3, :3] - b.conj().T @ b) < 1e-9

    def test_kernel_family_witness_m2(self, rng):
        # |phi_f> = |0>|f> + |1>|-B f> annihilates the filtered state
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=4, seed=9))
        a = find_full_rank_direction(st, DEFAULT_TOL, seed=3)
        cf = to_canonical_form(st, a, DEFAULT_TOL)
        b = cf.blocks[0]
        rho1 = np.kron(cf.alice_basis.conj().T, np.eye(4)) @ st.rho @ np.kron(cf.alice_basis, np.eye(4))
        wk = np.kron(np.eye(2), cf.filter)
        sigma = wk @ rho1 @ wk
        for _ in range(5):
            f = haar_vector(4, rng)
            phi = np.concatenate([f, -(b @ f)])
            assert np.linalg.norm(sigma @ phi) < 1e-9 * max(1.0, frob(sigma))

    @pytest.mark.parametrize("dims", [(2, 3), (3, 4), (4, 5)])
    def test_blocks_match_the_rotated_filtered_state(self, dims):
        # oracle: rotate a to the last Alice slot with the explicit unitary,
        # filter Bob on the whole state, read its last Alice block row
        m, n = dims
        st, _ = random_separable(GeneratorSpec(dims=dims, term_count=n, seed=17))
        a = find_full_rank_direction(st, DEFAULT_TOL, seed=5)
        cf = to_canonical_form(st, a, DEFAULT_TOL)
        u = cf.alice_basis
        assert np.linalg.norm(u.conj().T @ u - np.eye(m)) < 1e-12
        assert np.linalg.norm(u[:, -1] - a) < 1e-12
        rho1 = np.kron(u.conj().T, np.eye(n)) @ st.rho @ np.kron(u, np.eye(n))
        e_last = rho1[(m - 1) * n:, (m - 1) * n:]
        lam, v = np.linalg.eigh(0.5 * (e_last + e_last.conj().T))
        w = (v / np.sqrt(lam)) @ v.conj().T
        wk = np.kron(np.eye(m), w)
        rho2 = wk @ rho1 @ wk
        assert np.linalg.norm(cf.filter - w) <= 1e-12 * np.linalg.norm(w)
        assert len(cf.blocks) == m - 1
        for j, c in enumerate(cf.blocks):
            oracle = rho2[(m - 1) * n:, j * n:(j + 1) * n]
            assert np.linalg.norm(c - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_reads_one_block_row_without_kron(self, monkeypatch):
        # the blocks come from <a| rho |u_k> alone: no MN x MN rotation or
        # filter is formed
        st, _ = random_separable(GeneratorSpec(dims=(4, 5), term_count=5, seed=18))
        a = find_full_rank_direction(st, DEFAULT_TOL, seed=6)
        calls = []
        kron = np.kron

        def counting_kron(*args, **kwargs):
            calls.append(args)
            return kron(*args, **kwargs)

        monkeypatch.setattr(np, "kron", counting_kron)
        cf = to_canonical_form(st, a, DEFAULT_TOL)
        assert len(cf.blocks) == 3
        assert calls == []

    def test_transpose_commutator_witness_m3(self, rng):
        # on 3 x N: |Phi_f> = |1>|f> - |2>|C_1^dag f> maps under the partial
        # transpose into the first Alice slot with amplitude [C_1^dag, C_0] f,
        # which must vanish for a commuting canonical family
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=10))
        a = find_full_rank_direction(st, DEFAULT_TOL, seed=4)
        cf = to_canonical_form(st, a, DEFAULT_TOL)
        c0, c1 = cf.blocks
        n = 3
        rho1 = np.kron(cf.alice_basis.conj().T, np.eye(n)) @ st.rho @ np.kron(cf.alice_basis, np.eye(n))
        wk = np.kron(np.eye(3), cf.filter)
        sigma = BipartiteState(3, n, wk @ rho1 @ wk)
        pt = partial_transpose(sigma)
        for _ in range(5):
            f = haar_vector(n, rng)
            phi = np.concatenate([np.zeros(n), f, -(c1.conj().T @ f)])
            image = pt @ phi
            assert np.linalg.norm(image) < 1e-8 * max(1.0, frob(sigma.rho))
            comm = c1.conj().T @ c0 - c0 @ c1.conj().T
            assert np.linalg.norm(comm @ f) < 1e-8


class TestDecomposeRankN:
    def test_recovers_planted_projectors_3x3(self):
        st, planted = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=12))
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=12)
        assert len(dec.terms) == 3
        found = [pv for _, pv in dec.terms]
        assert match_planted(found, [pv for _, pv in planted.terms]) == 3

    def test_rank4_on_2x4(self):
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=4, seed=13))
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=13)
        assert len(dec.terms) == 4
        assert dec.residual <= 1e-8

    def test_pure_product_state(self, rng):
        e = haar_vector(3, rng)
        f = haar_vector(3, rng)
        v = np.kron(e, f)
        st = BipartiteState(3, 3, np.outer(v, v.conj()), normalized=True)
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=0)
        assert len(dec.terms) == 1

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1)], ids=["1x3", "3x1"])
    def test_scalar_side_takes_the_canonical_construction(self, monkeypatch, dims):
        # one Alice dimension in the search frame: an empty block family,
        # so the joint eigenbasis is the identity and the terms are W^-1's
        # columns, from the same direction and canonical form as any M
        import sepcheck.canon

        calls = []
        original = sepcheck.canon.to_canonical_form

        def counting(*args, **kwargs):
            cf = original(*args, **kwargs)
            calls.append(cf)
            return cf

        monkeypatch.setattr(sepcheck.canon, "to_canonical_form", counting)
        st, _ = random_separable(GeneratorSpec(dims=dims, term_count=3, seed=19))
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=19)
        assert [len(cf.blocks) for cf in calls] == [0]
        assert len(dec.terms) == 3
        assert dec.residual <= 1e-8

    def test_swapped_dims(self):
        # Alice larger than Bob: handled by the internal party swap
        st, _ = random_separable(GeneratorSpec(dims=(4, 2), term_count=4, seed=14))
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=14)
        assert len(dec.terms) == 4
        assert dec.residual <= 1e-8

    def test_bob_vectors_linearly_independent(self):
        st, _ = random_separable(GeneratorSpec(dims=(3, 4), term_count=4, seed=15))
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=15)
        stack = np.array([pv.f for _, pv in dec.terms])
        assert numerical_rank(stack) == 4

    def test_rejects_npt(self):
        with pytest.raises(NotPPT):
            decompose_rank_n(bell_phi_plus(), DEFAULT_TOL, seed=0)

    def test_rejects_rank_below_local(self):
        # the loosened PSD floor lets the entangled state through the PPT
        # gate, and the rank gate convicts it
        with pytest.raises(RankTooLow, match="rank 1 below Bob rank 2"):
            decompose_rank_n(near_product_pure_state(), Tolerances(psd_abs=1e-2), seed=0)
        # rank 2 on a 2x3-supported space: compression keeps Bob rank 2,
        # so this decomposes fine; assert it does NOT raise
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=2, seed=3))
        dec = decompose_rank_n(st, DEFAULT_TOL, seed=3)
        assert len(dec.terms) == 2

    def test_residual_and_weights(self):
        for dims in [(2, 2), (2, 3), (3, 3)]:
            st, _ = random_separable(GeneratorSpec(dims=dims, term_count=dims[1], seed=16))
            dec = decompose_rank_n(st, DEFAULT_TOL, seed=16)
            assert all(w > 0 for w, _ in dec.terms)
            total = sum(w for w, _ in dec.terms)
            assert abs(total - st.trace) < 1e-8

    def test_rank3_corollary_smoke(self):
        # every rank-3 PPT state over a Bob-rank-3 space decomposes
        from conftest import rank3_separable

        for seed in range(6):
            st, _ = rank3_separable((3, 3), seed)
            dec = decompose_rank_n(st, DEFAULT_TOL, seed=seed)
            assert dec.residual <= 1e-8
