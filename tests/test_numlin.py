import numpy as np
import pytest

from sepcheck.errors import CanonicalMismatch
from sepcheck.fixtures import haar_unitary, haar_vector
from sepcheck.numlin import (
    DEFAULT_TOL,
    Tolerances,
    inv_sqrt_on_range,
    joint_diagonalize,
    kernel_basis,
    numerical_rank,
    pseudo_inverse,
    range_basis,
)


def test_tolerances_validated():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(psd_abs=0.5)
    Tolerances()  # defaults are legal


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_constructed_cutoff(self):
        tol = Tolerances(rank_rel=1e-10)
        assert numerical_rank(np.diag([1.0, 1e-14, 0.0]), tol) == 1

    def test_rank_one_projector(self, rng):
        e = haar_vector(3, rng)
        f = haar_vector(4, rng)
        v = np.kron(e, f)
        assert numerical_rank(np.outer(v, v.conj())) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_rejects_nonfinite(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            numerical_rank(m)


class TestKernelAndRange:
    def test_identity_kernel_empty(self):
        assert kernel_basis(np.eye(4)).shape == (4, 0)

    def test_zero_matrix_kernel(self):
        basis = kernel_basis(np.zeros((2, 2)))
        assert basis.shape == (2, 2)
        assert np.allclose(basis.conj().T @ basis, np.eye(2))

    def test_constructed_rank2_hermitian(self, rng):
        # known spectral factors: V diag(1, 2, 0, 0) V^dag
        v = haar_unitary(4, rng)
        m = v @ np.diag([1.0, 2.0, 0.0, 0.0]).astype(complex) @ v.conj().T
        basis = kernel_basis(m)
        assert basis.shape == (4, 2)
        assert np.linalg.norm(m @ basis) <= DEFAULT_TOL.residual_abs * np.linalg.norm(m)
        top = range_basis(m)
        assert top.shape == (4, 2)
        # spans the top-2 spectral subspace of the construction
        spectral = v[:, :2]
        overlap = np.linalg.svd(spectral.conj().T @ top, compute_uv=False)
        assert np.allclose(overlap, 1.0, atol=1e-10)

    def test_identity_range(self):
        assert range_basis(np.eye(5)).shape == (5, 1)[0:1] + (5,)

    def test_rank_one_range(self, rng):
        v = haar_vector(4, rng)
        basis = range_basis(np.outer(v, v.conj()))
        assert basis.shape == (4, 1)
        assert abs(abs(np.vdot(basis[:, 0], v)) - 1.0) < 1e-12

    def test_rank_plus_kernel_counts(self, rng):
        for n, r in [(3, 1), (4, 2), (5, 5), (6, 0)]:
            g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)) if r else np.zeros((n, 1))
            m = g @ g.conj().T if r else np.zeros((n, n), dtype=complex)
            assert numerical_rank(m) + kernel_basis(m).shape[1] == n


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_penrose_identities(self, rng):
        for _ in range(5):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            m = a.conj().T @ a
            x = pseudo_inverse(m)
            tol = DEFAULT_TOL.residual_abs * max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(x @ m @ x - x) <= tol
            assert np.linalg.norm(m @ x @ m - m) <= tol
            assert np.linalg.norm(m @ x - (m @ x).conj().T) <= tol
            assert np.linalg.norm(x @ m - (x @ m).conj().T) <= tol

    def test_rejects_non_hermitian(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(ValueError):
            pseudo_inverse(m)


class TestInvSqrtOnRange:
    def test_identity(self):
        assert np.allclose(inv_sqrt_on_range(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(inv_sqrt_on_range(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))

    def test_full_rank_product_check(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = a.conj().T @ a + 0.5 * np.eye(4)
        x = inv_sqrt_on_range(c)
        assert np.linalg.norm(x @ c @ x - np.eye(4)) <= 1e-10 * np.linalg.norm(c)

    def test_vanishes_on_kernel(self, rng):
        v = haar_unitary(3, rng)
        m = v @ np.diag([2.0, 1.0, 0.0]).astype(complex) @ v.conj().T
        x = inv_sqrt_on_range(m)
        kern = v[:, 2]
        assert np.linalg.norm(x @ kern) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            inv_sqrt_on_range(np.diag([1.0, -0.5]))


class TestJointDiagonalize:
    def test_already_diagonal(self):
        u, table = joint_diagonalize([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        # identity up to phase and permutation
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)
        assert np.allclose(table[:, 0], [1.0, 2.0])
        assert np.allclose(table[:, 1], [3.0, 4.0])

    def test_normal_matrix_with_adjoint(self, rng):
        u0 = haar_unitary(4, rng)
        d = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
        b = u0 @ d @ u0.conj().T
        u, _ = joint_diagonalize([b, b.conj().T])
        off = u.conj().T @ b @ u
        off -= np.diag(np.diag(off))
        assert np.linalg.norm(off) < 1e-10 * np.linalg.norm(b)

    def test_shared_eigenbasis_family(self, rng):
        u0 = haar_unitary(5, rng)
        family = [
            u0 @ np.diag(rng.normal(size=5) + 1j * rng.normal(size=5)) @ u0.conj().T
            for _ in range(3)
        ]
        u, table = joint_diagonalize(family)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12
        for k, c in enumerate(family):
            d = u.conj().T @ c @ u
            off = d - np.diag(np.diag(d))
            assert np.linalg.norm(off) <= DEFAULT_TOL.residual_abs * np.linalg.norm(c)
            assert np.allclose(sorted(np.diag(d), key=lambda z: (z.real, z.imag)),
                               sorted(table[:, k], key=lambda z: (z.real, z.imag)))

    def test_degeneracy_resolved_by_second_member(self, rng):
        u0 = haar_unitary(4, rng)
        c1 = u0 @ np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex) @ u0.conj().T
        c2 = u0 @ np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex) @ u0.conj().T
        _, table = joint_diagonalize([c1, c2])
        # the second member splits the first one's degenerate eigenspaces,
        # so every eigenvalue pair comes back once, in no promised order
        assert np.allclose(table.imag, 0.0, atol=1e-9)
        pairs = {tuple(int(round(v)) for v in row) for row in table.real}
        assert pairs == {(1, 1), (1, 2), (2, 3), (2, 4)}
        assert np.allclose(table.real, np.round(table.real), atol=1e-9)

    def test_rejects_non_commuting(self, rng):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(CanonicalMismatch):
            joint_diagonalize([a, b])

    def test_rejects_non_normal(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(CanonicalMismatch):
            joint_diagonalize([nilpotent, np.eye(2, dtype=complex)])
