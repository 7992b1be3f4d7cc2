"""Tolerance-aware numerical linear algebra shared by every other module.

Matrices are dense complex numpy arrays throughout.  All operations are pure
functions of their inputs; the cutoffs travel explicitly in a
:class:`Tolerances` value instead of hiding in module state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CanonicalMismatch

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_cmatrix",
    "frob",
    "numerical_rank",
    "kernel_basis",
    "range_basis",
    "pseudo_inverse",
    "inv_sqrt_on_range",
    "joint_diagonalize",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs used throughout the library.

    rank_rel
        relative singular-value cutoff for rank decisions
    psd_abs
        absolute eigenvalue floor for positivity tests, scaled by the trace
        in :meth:`psd_floor`
    residual_abs
        absolute Frobenius residual for reconstruction checks
    root_abs
        absolute tolerance for polynomial-root verification
    """

    rank_rel: float = 1e-9
    psd_abs: float = 1e-9
    residual_abs: float = 1e-8
    root_abs: float = 1e-6

    def __post_init__(self):
        for name in ("rank_rel", "psd_abs", "residual_abs", "root_abs"):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2], got {value!r}")

    def psd_floor(self, trace: float) -> float:
        """How far below zero an eigenvalue of an operator with this trace may go."""
        return self.psd_abs * max(1.0, abs(trace))


DEFAULT_TOL = Tolerances()


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-d array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def frob(m) -> float:
    return float(np.linalg.norm(m, "fro"))


def _hermitize(m: np.ndarray, tol: Tolerances, what: str = "matrix") -> np.ndarray:
    scale = max(1.0, frob(m))
    if frob(m - m.conj().T) > tol.residual_abs * scale:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return 0.5 * (m + m.conj().T)


def _rank(s: np.ndarray, tol: Tolerances) -> int:
    """Count of singular values, or Hermitian |eigenvalues|, above rank_rel times the largest."""
    return int(np.count_nonzero(s > tol.rank_rel * np.max(s, initial=0.0)))


def numerical_rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel`` times the largest one."""
    return _rank(np.linalg.svd(as_cmatrix(m), compute_uv=False), tol)


def kernel_basis(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical null space, one vector per column.

    The returned array has shape (cols, cols - numerical_rank(m)).
    """
    _, s, vh = np.linalg.svd(as_cmatrix(m))
    return vh[_rank(s, tol):].conj().T


def range_basis(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical column space, one vector per column."""
    u, s, _ = np.linalg.svd(as_cmatrix(m))
    return u[:, :_rank(s, tol)]


def pseudo_inverse(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian PSD matrix via its eigenbasis."""
    a = _hermitize(as_cmatrix(m), tol)
    w, v = np.linalg.eigh(a)
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if wmax <= 0.0:
        return np.zeros_like(a)
    inv = np.where(np.abs(w) > tol.rank_rel * wmax, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (v * inv) @ v.conj().T


def inv_sqrt_on_range(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root on the range of a Hermitian PSD matrix.

    The result X satisfies X m X = projector onto range(m) and vanishes on
    the kernel of m.  Inputs with an eigenvalue below -psd_abs (trace scaled)
    are rejected.
    """
    a = _hermitize(as_cmatrix(m), tol)
    w, v = np.linalg.eigh(a)
    if w.size and float(w[0]) < -tol.psd_floor(float(np.trace(a).real)):
        raise ValueError("matrix is not positive semidefinite within tolerance")
    wmax = float(np.max(w)) if w.size else 0.0
    if wmax <= 0.0:
        return np.zeros_like(a)
    keep = w > tol.rank_rel * wmax
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    return (v * inv_sqrt) @ v.conj().T


# Cap on the Jacobi sweeps of joint_diagonalize.
MAX_SWEEPS = 100


def joint_diagonalize(family, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Common eigenbasis of a commuting family of normal matrices.

    Runs simultaneous Jacobi sweeps on the Hermitian and anti-Hermitian parts
    of the family, which keeps degenerate eigenvalues of one member paired
    correctly through the others.  Returns ``(U, table)`` where U is unitary
    and ``table[i, k]`` holds the k-th member's eigenvalue on the i-th
    column of U, in the order the sweeps leave them.  Only the result is
    tested, since a family is jointly diagonalizable exactly when it is
    normal and commuting: off-diagonal mass of some ``U^dag C_k U`` above
    ``residual_abs * max(1, ||C_k||_F)`` raises CanonicalMismatch.
    """
    mats = [as_cmatrix(c) for c in family]
    if not mats:
        raise ValueError("cannot diagonalize an empty family")
    n = mats[0].shape[0]
    for c in mats:
        if c.shape != (n, n):
            raise ValueError("family members must be square and equally sized")

    # Hermitian / anti-Hermitian split: 2K Hermitian matrices sharing the basis.
    parts = []
    for c in mats:
        parts.append(0.5 * (c + c.conj().T))
        parts.append((c - c.conj().T) / 2j)
    a = np.stack(parts)  # (2K, n, n)

    u = np.eye(n, dtype=complex)
    rot_tol = 1e-14
    for _ in range(MAX_SWEEPS):
        changed = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                # Givens angles from the principal axis of the 3x3 moment
                # matrix of the (p, q) sub-blocks (extended Jacobi update).
                app = a[:, p, p].real
                aqq = a[:, q, q].real
                apq = a[:, p, q]
                h = np.stack([app - aqq, 2.0 * apq.real, 2.0 * apq.imag])
                g = h @ h.T
                _, vecs = np.linalg.eigh(g)
                x, y, z = vecs[:, -1]
                if x < 0.0:
                    x, y, z = -x, -y, -z
                r = np.sqrt(x * x + y * y + z * z)
                if r <= 0.0:
                    continue
                c = np.sqrt((x + r) / (2.0 * r))
                s = (y - 1j * z) / np.sqrt(2.0 * r * (x + r))
                if abs(s) <= rot_tol:
                    continue
                changed = True
                # A <- J^dag A J with J = [[c, -conj(s)], [s, c]] on rows/cols p, q.
                col_p = a[:, :, p].copy()
                col_q = a[:, :, q].copy()
                a[:, :, p] = c * col_p + s * col_q
                a[:, :, q] = -np.conj(s) * col_p + c * col_q
                row_p = a[:, p, :].copy()
                row_q = a[:, q, :].copy()
                a[:, p, :] = c * row_p + np.conj(s) * row_q
                a[:, q, :] = -s * row_p + c * row_q
                ucol_p = u[:, p].copy()
                ucol_q = u[:, q].copy()
                u[:, p] = c * ucol_p + s * ucol_q
                u[:, q] = -np.conj(s) * ucol_p + c * ucol_q
        if not changed:
            break

    diags = []
    for c in mats:
        d = u.conj().T @ c @ u
        off = d - np.diag(np.diag(d))
        if frob(off) > tol.residual_abs * max(1.0, frob(c)):
            raise CanonicalMismatch("joint diagonalization left off-diagonal mass")
        diags.append(np.diag(d))
    return u, np.stack(diags, axis=1)
