"""Rank-lowering subtraction of product projectors.

For a PPT state, if some Bob vector f puts |a_i, f> in the kernel for all
but one direction of an Alice basis, the image of the remaining direction is
itself a product vector |a_M, g>, and subtracting it with the right weight
lowers the ranks of both the state and its partial transpose by exactly one
while preserving positivity on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoAlignment, RankDropViolation
from .numlin import DEFAULT_TOL, Tolerances, _rank, as_cmatrix, frob, kernel_basis, numerical_rank, pseudo_inverse
from .state import BipartiteState, partial_transpose

__all__ = ["ReductionStep", "Alignment", "probe_kernel_alignment", "subtract_product"]


@dataclass(frozen=True)
class ReductionStep:
    """One accepted subtraction: basis, kernel direction f, image direction g.

    The weight satisfies lam^-1 = <a_M, g| rho^+ |a_M, g> = <g|f>, with the
    distinguished Alice direction stored in the last basis column.
    """

    alice_basis: np.ndarray
    f: np.ndarray
    g: np.ndarray
    lam: float

    @property
    def vector(self) -> np.ndarray:
        """The unnormalized product vector a_M (x) g being subtracted."""
        return np.kron(self.alice_basis[:, -1], self.g)


@dataclass(frozen=True)
class Alignment:
    """Outcome of a kernel-alignment probe.

    case "kernel": |a_M, f> also lies in the kernel (state embeddable in a
    smaller Bob space).  case "image": rho |a_M, f> = |a_M, g> with the twin
    relation on the partial transpose; ``step`` carries the subtraction.
    """

    case: str
    f: np.ndarray
    g: np.ndarray | None
    step: ReductionStep | None


def _check_unitary(u: np.ndarray, tol: Tolerances) -> np.ndarray:
    u = as_cmatrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError("Alice basis must be square")
    dev = frob(u.conj().T @ u - np.eye(u.shape[0]))
    if dev > max(1e-10, tol.residual_abs):
        raise ValueError("Alice basis is not unitary within tolerance")
    return u


def probe_kernel_alignment(
    s: BipartiteState, alice_basis, tol: Tolerances = DEFAULT_TOL
) -> Alignment:
    """Search for f with |a_i, f> in K(rho) for all but the last basis column.

    The candidate f's form the common kernel of the Bob-space slices of rho
    along a_1 .. a_{M-1}, obtained from one stacked-matrix kernel.  Each
    candidate is classified: either |a_M, f> is annihilated too, or its image
    is a product vector |a_M, g> (checked together with the twin relation on
    the partial transpose).  Raises NoAlignment when no candidate fits.
    """
    u = _check_unitary(alice_basis, tol)
    m, n = s.dim_a, s.dim_b
    if u.shape[0] != m:
        raise ValueError("Alice basis dimension mismatch")
    if m < 2:
        raise NoAlignment("alignment probing needs at least two Alice dimensions")

    eye_b = np.eye(n)
    slices = [s.rho @ np.kron(u[:, i:i + 1], eye_b) for i in range(m - 1)]
    stacked = np.vstack(slices)
    candidates = kernel_basis(stacked, tol)
    if candidates.shape[1] == 0:
        raise NoAlignment("no common Bob kernel direction for this basis")

    a_last = u[:, -1]
    scale = max(1.0, frob(s.rho))
    pt = partial_transpose(s)
    for idx in range(candidates.shape[1]):
        f = candidates[:, idx]
        v = np.kron(a_last, f)
        w = s.rho @ v
        if np.linalg.norm(w) <= tol.residual_abs * scale:
            return Alignment("kernel", f, None, None)
        # g is the Bob component of the image along a_M; the image must be
        # exactly a_M (x) g for a PPT state satisfying the kernel condition.
        g = a_last.conj() @ w.reshape(m, n)
        if np.linalg.norm(w - np.kron(a_last, g)) > tol.residual_abs * scale:
            continue
        wt = pt @ np.kron(a_last.conj(), f)
        if np.linalg.norm(wt - np.kron(a_last.conj(), g)) > tol.residual_abs * scale:
            continue
        vg = np.kron(a_last, g)
        lam_inv = float(np.real(np.vdot(vg, pseudo_inverse(s.rho, tol) @ vg)))
        gf = complex(np.vdot(g, f))
        lam_inv_t = float(np.real(np.vdot(
            np.kron(a_last.conj(), g), pseudo_inverse(pt, tol) @ np.kron(a_last.conj(), g))))
        checks = max(abs(lam_inv - gf), abs(lam_inv_t - gf))
        if checks > tol.residual_abs * max(1.0, abs(gf)) * 10.0 or lam_inv <= 0.0:
            continue
        step = ReductionStep(u, f, g, 1.0 / lam_inv)
        return Alignment("image", f, g, step)
    raise NoAlignment("kernel directions exist but none classifies consistently")


def subtract_product(
    s: BipartiteState, step: ReductionStep, tol: Tolerances = DEFAULT_TOL
) -> BipartiteState:
    """Remove lam |a_M, g><a_M, g| and verify the predicted rank drops.

    Both the rank of the state and the rank of its partial transpose must
    fall by exactly one, and both must stay PSD; anything else raises
    RankDropViolation (a tolerance failure or an invalid step).
    """
    v = step.vector
    rho1 = s.rho - step.lam * np.outer(v, v.conj())

    r_before = _rank(np.abs(s.eigenvalues), tol)
    rt_before = numerical_rank(partial_transpose(s), tol)
    try:
        out = BipartiteState(s.dim_a, s.dim_b, rho1, normalized=False, tol=tol)
    except ValueError as exc:
        raise RankDropViolation(f"subtraction broke positivity: {exc}") from exc
    r_after = _rank(np.abs(out.eigenvalues), tol)
    w_after = np.linalg.eigvalsh(partial_transpose(out))
    rt_after = _rank(np.abs(w_after), tol)
    if float(w_after[0]) < -tol.psd_floor(out.trace):
        raise RankDropViolation("subtraction broke the PPT property")
    if r_after != r_before - 1 or rt_after != rt_before - 1:
        raise RankDropViolation(
            f"rank drop ({r_before}->{r_after}, {rt_before}->{rt_after}) is not (1, 1)")
    return out
