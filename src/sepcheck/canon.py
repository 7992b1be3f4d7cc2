"""Canonical-form construction and the rank-N product decomposition.

A PPT state of rank N supported on M x N (M <= N) is separable with exactly
N product terms, rho = sum_i |e_i f_i><e_i f_i|, and the f_i are linearly
independent.  For an Alice direction a the local block
<a| rho |a> = sum_i |<a|e_i>|^2 |f_i><f_i| therefore has full rank N unless
a is orthogonal to some e_i, a proper algebraic set that a Haar draw misses
with probability one.  With such an a in the last Alice slot and Bob
filtered, the state takes the form Z^dag Z with Z = [C_1, ..., C_{M-1}, I],
where the C_k are a commuting family of normal matrices; their joint
eigenvectors yield the N terms.  That is the only route: there is no
subtraction fallback, and an input on which every draw fails is not
decomposed.  ``joint_diagonalize`` tests the family only through its result,
and ``lift_decomposition`` checks the terms against the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionFailed,
    DirectionNotFound,
    NotPPT,
    RankTooLow,
)
from .numlin import (
    DEFAULT_TOL,
    Tolerances,
    frob,
    inv_sqrt_on_range,
    joint_diagonalize,
    kernel_basis,
    numerical_rank,
    pseudo_inverse,
)
from .state import (
    BipartiteState,
    Decomposition,
    ProductVector,
    is_ppt,
    lift_decomposition,
    support_compress,
    swap_parties,
)

# No canon code calls reduce.  The import keeps sepcheck.reduce loaded
# wherever canon is, because perfbench/tracing.py indexes sys.modules for
# it; it goes with the reduce spans (ROADMAP item 1).
from . import reduce  # noqa: F401

__all__ = [
    "CanonicalForm",
    "find_full_rank_direction",
    "to_canonical_form",
    "decompose_rank_n",
]

# Haar draws before find_full_rank_direction gives up.  On a valid input
# each draw fails with probability zero.
DIRECTION_DRAWS = 64


@dataclass(frozen=True)
class CanonicalForm:
    """Filtered block form of a rank-N PPT state.

    ``alice_basis`` is the unitary whose last column is the direction with a
    full-rank local block; ``filter`` is the Bob-side inverse square root
    applied symmetrically; ``blocks`` are the C_1 .. C_{M-1} read off the
    last Alice block row of the filtered state.
    """

    filter: np.ndarray
    alice_basis: np.ndarray
    blocks: tuple[np.ndarray, ...]


def _local_block(s: BipartiteState, a: np.ndarray) -> np.ndarray:
    """The N x N matrix <a| rho |a> for a vector a on Alice's side."""
    r = s.rho.reshape(s.dim_a, s.dim_b, s.dim_a, s.dim_b)
    return np.einsum("m,minj,n->ij", a.conj(), r, a)


def _block_rank(s: BipartiteState, e: np.ndarray, tol: Tolerances) -> int:
    """Rank of a local block anchored on the state's scale, not the block's.

    A direction nearly orthogonal to the Alice support produces a uniformly
    tiny block whose relative rank looks full; comparing against the state
    scale rejects it (and with it the numerically useless filter it implies).
    """
    sv = np.linalg.svd(e, compute_uv=False)
    scale = max(frob(s.rho), 1e-300)
    return int(np.count_nonzero(sv > tol.rank_rel * scale))


def find_full_rank_direction(
    s: BipartiteState, tol: Tolerances = DEFAULT_TOL, seed=0
) -> np.ndarray:
    """Alice unit vector a with <a| rho |a> of full rank N.

    On a valid input the block sum_i |<a|e_i>|^2 |f_i><f_i| loses rank only
    for a orthogonal to some e_i, so the first Haar draw succeeds almost
    surely.  Raises DirectionNotFound after DIRECTION_DRAWS failed draws.
    """
    rng = np.random.default_rng(seed)
    m, n = s.dim_a, s.dim_b
    for _ in range(DIRECTION_DRAWS):
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        a = a / np.linalg.norm(a)
        if _block_rank(s, _local_block(s, a), tol) == n:
            return a
    raise DirectionNotFound(f"no full-rank direction in {DIRECTION_DRAWS} Haar draws")


def _complete_basis(a: np.ndarray) -> np.ndarray:
    """Unitary with a (normalized) as its last column."""
    a = a / np.linalg.norm(a)
    comp = kernel_basis(a.conj().reshape(1, -1))
    return np.hstack([comp, a.reshape(-1, 1)])


def to_canonical_form(
    s: BipartiteState, a: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> CanonicalForm:
    """Rotate a to the last Alice slot, filter Bob, and read off the blocks.

    On a PPT rank-N input, block (i, j) of the filtered state equals
    C_i^dag C_j with C_{M-1} = I, and the C_k are normal and commute.
    Nothing is checked here: ``joint_diagonalize`` raises CanonicalMismatch
    on blocks it cannot diagonalize, and ``lift_decomposition`` measures the
    reconstruction, which those identities are, against the input.
    """
    m, n = s.dim_a, s.dim_b
    u = _complete_basis(np.asarray(a, dtype=complex).reshape(-1))
    if u.shape[0] != m:
        raise ValueError("direction dimension does not match Alice's space")

    rho1 = np.kron(u.conj().T, np.eye(n)) @ s.rho @ np.kron(u, np.eye(n))
    e_last = rho1[(m - 1) * n:, (m - 1) * n:]
    if _block_rank(s, e_last, tol) != n:
        raise ValueError("the chosen direction has a rank-deficient local block")
    w = inv_sqrt_on_range(e_last, tol)
    wk = np.kron(np.eye(m), w)
    rho2 = wk @ rho1 @ wk

    blocks = [rho2[(m - 1) * n:, j * n:(j + 1) * n].copy() for j in range(m - 1)]
    return CanonicalForm(w, u, tuple(blocks))


def _terms_from_canonical(
    cf: CanonicalForm, n: int, tol: Tolerances
) -> list[tuple[float, ProductVector]]:
    """Assemble the N product terms from the joint eigenbasis of the blocks."""
    w_inv = pseudo_inverse(cf.filter, tol)  # filter is PD on the full space
    u_b, table = joint_diagonalize(list(cf.blocks), tol)
    terms = []
    for i in range(n):
        e_rot = np.concatenate([table[i, :].conj(), [1.0]])
        e = cf.alice_basis @ e_rot
        f = w_inv @ u_b[:, i]
        weight = float(np.linalg.norm(e) ** 2 * np.linalg.norm(f) ** 2)
        terms.append((weight, ProductVector(e / np.linalg.norm(e), f / np.linalg.norm(f))))
    return terms


def decompose_rank_n(
    s: BipartiteState, tol: Tolerances = DEFAULT_TOL, seed=0
) -> Decomposition:
    """Exact N-term product decomposition of a rank-N PPT state.

    Pipeline: compress to the supported space; check PPT and that the global
    rank equals the larger local dimension; draw a full-rank Alice direction
    and decompose through the canonical form, with the parties swapped when
    Alice's side is the larger one.  The terms are lifted back once, by
    :func:`lift_decomposition`, which checks them against the input ``s``
    itself, not its compression.  The result has exactly N terms, linearly
    independent vectors on the rank side, and reconstructs ``s`` within
    ``residual_abs * max(1, ||rho||_F)``.  Any other outcome raises
    DecompositionFailed (DirectionNotFound included), CanonicalMismatch (from
    ``joint_diagonalize``), NotPPT or RankTooLow.
    """
    rng = np.random.default_rng(seed)
    sc, (va, vb) = support_compress(s, tol)
    terms = _decompose_supported(sc, tol, rng)

    # the local vectors on the larger (rank-carrying) side are independent
    large_side = [pv.e if sc.dim_a > sc.dim_b else pv.f for _, pv in terms]
    if numerical_rank(np.array(large_side), tol) != len(terms):
        raise DecompositionFailed("decomposition vectors on the rank side are dependent")
    return lift_decomposition(terms, va, vb, s, tol)


def _decompose_supported(
    sc: BipartiteState, tol: Tolerances, rng: np.random.Generator
) -> list[tuple[float, ProductVector]]:
    if sc.dim_a > sc.dim_b:
        flipped = _decompose_supported(swap_parties(sc), tol, rng)
        return [(w, ProductVector(pv.f, pv.e)) for w, pv in flipped]
    m, n = sc.dim_a, sc.dim_b
    if not is_ppt(sc, tol):
        raise NotPPT("the state has a negative partial transpose")
    r = numerical_rank(sc.rho, tol)
    if r < n:
        raise RankTooLow(f"rank {r} below Bob rank {n}: distillable, hence entangled")
    if r > n:
        raise ValueError(f"rank {r} exceeds the supported Bob dimension {n}")

    if m == 1:
        w, v = np.linalg.eigh(sc.rho)
        terms = []
        for i in range(n):
            if w[i] <= tol.psd_floor(sc.trace):
                raise DecompositionFailed("rank-N state produced a negligible eigenvalue")
            terms.append((float(w[i]), ProductVector(np.ones(1, dtype=complex), v[:, i])))
        return terms

    cf = to_canonical_form(sc, find_full_rank_direction(sc, tol, rng), tol)
    return _terms_from_canonical(cf, n, tol)
