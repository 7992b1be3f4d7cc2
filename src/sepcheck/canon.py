"""Canonical-form construction and the rank-N product decomposition.

A PPT state of rank N supported on M x N (M <= N) is separable with exactly
N product terms, rho = sum_i |e_i f_i><e_i f_i|, and the f_i are linearly
independent.  For an Alice direction a the local block
<a| rho |a> = sum_i |<a|e_i>|^2 |f_i><f_i| therefore has full rank N unless
a is orthogonal to some e_i, a proper algebraic set that a Haar draw misses
with probability one.  With such an a in the last Alice slot and Bob
filtered, the state takes the form Z^dag Z with Z = [C_1, ..., C_{M-1}, I],
where the C_k, read from one Alice block row, are a commuting family of
normal matrices; their joint eigenvectors yield the N terms.  For M = 1
the family is empty and the filtered state is the identity, so the same
construction gives the terms with the identity as eigenbasis.  That is the
only route, for every M: there is no subtraction fallback and no separate
M = 1 case, and an input on which every draw fails is not decomposed.
``joint_diagonalize`` tests the family only through its result,
``lift_decomposition`` checks the terms against the input, and every
breakdown is a DecompositionFailed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DirectionNotFound, NotPPT, RankTooLow
from .numlin import (
    DEFAULT_TOL,
    Tolerances,
    _rank,
    frob,
    inv_sqrt_on_range,
    joint_diagonalize,
    kernel_basis,
)
from .state import (
    BipartiteState,
    Decomposition,
    ProductVector,
    is_ppt,
    lift_decomposition,
    search_frame,
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

    ``alice_basis`` is the unitary whose last column is the direction a with
    a full-rank local block; ``filter`` is W, the inverse square root of
    <a| rho |a>; ``blocks`` are the C_k = W <a| rho |u_k> W, k < M, the last
    Alice block row of the filtered state in that basis.
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
    """Read the blocks C_k = W <a| rho |u_k> W, k < M, from one Alice block row.

    u_1 .. u_M is an orthonormal Alice basis ending in a, and W is the
    inverse square root of <a| rho |a>.  On a PPT rank-N input the filtered
    state is Z^dag Z with Z = [C_1, ..., C_{M-1}, I], and the C_k are normal
    and commute.  Only the rank of <a| rho |a> is checked here:
    ``joint_diagonalize`` raises CanonicalMismatch on blocks it cannot
    diagonalize, and ``lift_decomposition`` measures the reconstruction.
    """
    m, n = s.dim_a, s.dim_b
    u = _complete_basis(np.asarray(a, dtype=complex).reshape(-1))
    if u.shape[0] != m:
        raise ValueError("direction dimension does not match Alice's space")

    r = s.rho.reshape(m, n, m, n)
    row = np.einsum("m,minj,nk->kij", u[:, -1].conj(), r, u)
    if _block_rank(s, row[-1], tol) != n:
        raise ValueError("the chosen direction has a rank-deficient local block")
    w = inv_sqrt_on_range(row[-1], tol)
    return CanonicalForm(w, u, tuple(w @ c @ w for c in row[:-1]))


def _terms_from_canonical(cf: CanonicalForm, tol: Tolerances) -> list[tuple[float, ProductVector]]:
    """The N product terms from the joint eigenbasis of the blocks.

    Term i is (u_1 .. u_M)(conj(c_i), 1) (x) W^-1 v_i, with v_i the i-th
    joint eigenvector and c_i its eigenvalues.  An empty family (M = 1)
    has the identity as eigenbasis and no eigenvalues.  W is positive
    definite, since ``to_canonical_form`` has passed the rank of its
    block, so one solve maps the eigenbasis back.  Each term is handed
    over unnormalized with weight one, in the order ``joint_diagonalize``
    leaves them: ``state.canonicalize`` normalizes the vectors, folds their
    norms into the weight and orders the terms.
    """
    n = len(cf.filter)
    u_b, table = (joint_diagonalize(list(cf.blocks), tol) if cf.blocks
                  else (np.eye(n, dtype=complex), np.zeros((n, 0), dtype=complex)))
    f = np.linalg.solve(cf.filter, u_b)
    return [(1.0, ProductVector(cf.alice_basis @ np.concatenate([table[i].conj(), [1.0]]), f[:, i]))
            for i in range(n)]


def decompose_rank_n(
    s: BipartiteState, tol: Tolerances = DEFAULT_TOL, seed=0
) -> Decomposition:
    """Exact N-term product decomposition of a rank-N PPT state.

    One pass in one frame, the :func:`search_frame` of ``s`` (compressed,
    Alice on the smaller side: the paper's M <= N): check PPT and that the
    rank, read from the state's spectrum, equals Bob's dimension N, build
    the terms from a full-rank direction, the canonical form and its joint
    eigenbasis (for every M, M = 1 included), and lift once:
    :func:`lift_decomposition` puts the terms back in the input's party
    order and space and checks them against ``s`` itself within
    ``residual_abs * max(1, ||rho||_F)``.
    Raises NotPPT or RankTooLow (entangled), ValueError (rank above N), or
    DecompositionFailed, DirectionNotFound and CanonicalMismatch included.
    """
    rng = np.random.default_rng(seed)
    sc, (va, vb) = search_frame(s, tol)
    n = sc.dim_b
    if not is_ppt(sc, tol):
        raise NotPPT("the state has a negative partial transpose")
    r = _rank(np.abs(sc.eigenvalues), tol)
    if r < n:
        raise RankTooLow(f"rank {r} below Bob rank {n}: distillable, hence entangled")
    if r > n:
        raise ValueError(f"rank {r} exceeds the supported Bob dimension {n}")

    cf = to_canonical_form(sc, find_full_rank_direction(sc, tol, rng), tol)
    return lift_decomposition(_terms_from_canonical(cf, tol), va, vb, s, tol)
