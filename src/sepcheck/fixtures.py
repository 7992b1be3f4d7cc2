"""Deterministic state generators and canonical test states.

Every generator is a pure function of its seed: regenerating with the same
spec is bit-identical, which the CLI relies on for reproducible documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import DEFAULT_TOL, Tolerances, _rank, numerical_rank
from .state import BipartiteState, Decomposition, ProductVector, _transpose_a, partial_transpose, reconstruction

__all__ = [
    "GeneratorSpec",
    "FAMILIES",
    "haar_vector",
    "haar_unitary",
    "random_separable",
    "random_separable_rank_deficient",
    "random_ppt",
    "werner_family",
    "isotropic_family",
    "maximally_mixed",
    "tiles_upb_state",
    "tiles_vectors",
    "generate",
]

FAMILIES = (
    "separable-random",
    "ppt-random",
    "werner",
    "isotropic",
    "tiles-upb",
    "maximally-mixed",
)

# Draws random_separable makes before it gives up on ``target_ranks``.
MAX_RETRIES = 200


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one generated state.

    ``target_ranks`` optionally pins (r(rho), r(rho^T_A)); it is met by
    rejection sampling with a bounded retry budget.  ``p`` is the mixing
    parameter of the werner / isotropic / ppt-random families.
    """

    dims: tuple[int, int]
    family: str = "separable-random"
    term_count: int | None = None
    target_ranks: tuple[int, int | None] | None = None
    seed: int = 0
    p: float | None = None

    def __post_init__(self):
        m, n = self.dims
        if m < 1 or n < 1:
            raise ValueError("dims must be at least 1x1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.term_count is not None and self.term_count < 1:
            raise ValueError("term_count must be positive")


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _assemble(terms, dim_a, dim_b, normalized=True) -> tuple[BipartiteState, Decomposition]:
    rho = reconstruction(terms, dim_a, dim_b)
    state = BipartiteState(dim_a, dim_b, rho, normalized=normalized)
    return state, Decomposition(tuple(terms), 0.0)  # exact by construction


def random_separable(
    spec: GeneratorSpec, tol: Tolerances = DEFAULT_TOL
) -> tuple[BipartiteState, Decomposition]:
    """Mixture of Haar-random product projectors with Dirichlet weights.

    Returns the state together with its planted decomposition.  When
    ``target_ranks`` is set, draws are rejected until the ranks match, for
    at most MAX_RETRIES draws.
    """
    m, n = spec.dims
    k = spec.term_count if spec.term_count is not None else m * n
    rng = np.random.default_rng(spec.seed)
    for _ in range(MAX_RETRIES):
        weights = rng.dirichlet(np.ones(k))
        terms = [
            (float(w), ProductVector(haar_vector(m, rng), haar_vector(n, rng)))
            for w in weights
        ]
        state, dec = _assemble(terms, m, n)
        if spec.target_ranks is None:
            return state, dec
        r_target, rt_target = spec.target_ranks
        if _rank(np.abs(state.eigenvalues), tol) == r_target and (
                rt_target is None or numerical_rank(partial_transpose(state), tol) == rt_target):
            return state, dec
    raise ValueError(f"could not hit target ranks {spec.target_ranks} in {MAX_RETRIES} draws")


def random_separable_rank_deficient(
    dims: tuple[int, int], rank: int, terms: int, seed=0
) -> tuple[BipartiteState, Decomposition]:
    """Separable state with more terms than its rank.

    The extra terms live on a two-dimensional product pencil
    (e_a + t e_b) (x) f_0, which spans only span{e_a (x) f_0, e_b (x) f_0};
    the remaining rank - 2 directions come from generic product vectors.
    Requires terms >= rank >= 2 and rank <= min(dims) * max(dims).
    """
    m, n = dims
    if rank < 2 or terms < rank:
        raise ValueError("need terms >= rank >= 2")
    if m < 2:
        raise ValueError("the pencil construction needs dim_a >= 2")
    rng = np.random.default_rng(seed)
    e_a = haar_vector(m, rng)
    e_b = haar_vector(m, rng)
    f_0 = haar_vector(n, rng)
    pencil = terms - rank + 2
    out = []
    for _ in range(pencil):
        t = rng.normal() + 1j * rng.normal()
        e = e_a + t * e_b
        out.append(ProductVector(e / np.linalg.norm(e), f_0))
    for _ in range(rank - 2):
        out.append(ProductVector(haar_vector(m, rng), haar_vector(n, rng)))
    weights = rng.dirichlet(np.ones(len(out)))
    term_list = [(float(w), pv) for w, pv in zip(weights, out)]
    return _assemble(term_list, m, n)


def random_ppt(spec: GeneratorSpec) -> BipartiteState:
    """Full-rank random state mixed toward the identity until PPT holds.

    Draws a Wishart state W and mixes in I/MN with weight t, which maps every
    eigenvalue l of W^T_A to (1 - t) l + t/MN.  With l the smallest one, the
    partial transpose turns nonnegative at t* = l / (l - 1/MN), and t keeps a
    safety margin of 0.01 past it.  ``spec.p`` overrides the admixture.
    """
    m, n = spec.dims
    mn = m * n
    rng = np.random.default_rng(spec.seed)
    g = rng.normal(size=(mn, mn)) + 1j * rng.normal(size=(mn, mn))
    w = g @ g.conj().T
    w /= np.trace(w).real
    pi = np.eye(mn) / mn
    if spec.p is not None:
        t = float(spec.p)
    else:
        lam = float(np.linalg.eigvalsh(_transpose_a(w, m, n))[0])
        t = 0.0 if lam >= 0.0 else min(1.0, lam / (lam - 1.0 / mn) + 0.01)
    mix = (1.0 - t) * w + t * pi
    return BipartiteState(m, n, mix, normalized=True)


def werner_family(p: float) -> BipartiteState:
    """2x2 mixture p |Phi+><Phi+| + (1 - p) I/4; PPT iff p <= 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    rho = p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return BipartiteState(2, 2, rho, normalized=True)


def isotropic_family(d: int, p: float) -> BipartiteState:
    """d x d mixture of the maximally entangled state with white noise."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    phi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        phi[i * d + i] = 1.0 / np.sqrt(d)
    rho = p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(d * d) / (d * d)
    return BipartiteState(d, d, rho, normalized=True)


def maximally_mixed(dim_a: int, dim_b: int) -> BipartiteState:
    mn = dim_a * dim_b
    return BipartiteState(dim_a, dim_b, np.eye(mn) / mn, normalized=True)


def tiles_vectors() -> list[ProductVector]:
    """The five 'tiles' product vectors on 3x3 (mutually orthonormal)."""
    s2 = 1.0 / np.sqrt(2.0)
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 0.0, 1.0], dtype=complex)
    ones = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3.0)
    return [
        ProductVector(e0, s2 * (e0 - e1)),
        ProductVector(s2 * (e0 - e1), e2),
        ProductVector(e2, s2 * (e1 - e2)),
        ProductVector(s2 * (e1 - e2), e0),
        ProductVector(ones, ones),
    ]


def _validate_upb(vectors: list[ProductVector]) -> None:
    # Orthonormal product vectors.
    vs = [pv.vec() for pv in vectors]
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    if not np.allclose(gram, np.eye(len(vs)), atol=1e-12):
        raise AssertionError("tiles vectors are not orthonormal")
    # Unextendible: no subset split allows a product vector orthogonal to all
    # five.  e must kill the Alice parts of S, f the Bob parts of the rest;
    # both need the respective span to be rank-deficient.
    k = len(vectors)
    for mask in range(2 ** k):
        sel = [bool(mask >> i & 1) for i in range(k)]
        alice = np.array([vectors[i].e for i in range(k) if sel[i]])
        bob = np.array([vectors[i].f for i in range(k) if not sel[i]])
        a_rank = np.linalg.matrix_rank(alice) if alice.size else 0
        b_rank = np.linalg.matrix_rank(bob) if bob.size else 0
        if a_rank < 3 and b_rank < 3:
            raise AssertionError("tiles set admits an orthogonal product vector")


def tiles_upb_state() -> BipartiteState:
    """Normalized projector onto the orthocomplement of the tiles vectors.

    A 3x3 PPT entangled state of rank 4 whose range contains no product
    vector.  The construction is validated on every call: the five vectors
    are mutually orthonormal products and unextendible.
    """
    vectors = tiles_vectors()
    _validate_upb(vectors)
    proj = sum(pv.projector() for pv in vectors)
    rho = (np.eye(9) - proj) / 4.0
    return BipartiteState(3, 3, rho, normalized=True)


def generate(spec: GeneratorSpec) -> tuple[BipartiteState, Decomposition | None]:
    """Dispatch a spec to its family generator.

    Separable families return, as second element, the planted decomposition;
    families without a planted certificate return None there.
    """
    if spec.family == "separable-random":
        return random_separable(spec)
    if spec.family == "ppt-random":
        return random_ppt(spec), None
    if spec.family == "werner":
        return werner_family(spec.p if spec.p is not None else 0.0), None
    if spec.family == "isotropic":
        m, n = spec.dims
        if m != n:
            raise ValueError("isotropic family needs equal dims")
        return isotropic_family(m, spec.p if spec.p is not None else 0.0), None
    if spec.family == "tiles-upb":
        if spec.dims != (3, 3):
            raise ValueError("tiles family is defined on 3x3")
        return tiles_upb_state(), None
    if spec.family == "maximally-mixed":
        return maximally_mixed(*spec.dims), None
    raise ValueError(f"unknown family {spec.family!r}")
