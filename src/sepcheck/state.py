"""Bipartite density matrices on C^M (x) C^N and their basic operations.

Index convention (fixed, bit-exact): the product basis vector
|i>_A (x) |j>_B maps to row ``i * dim_b + j``, matching ``numpy.kron``.
Partial transposition and complex conjugation of Alice vectors are always
taken in this computational basis.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionFailed
from .numlin import DEFAULT_TOL, Tolerances, _hermitize, _rank, as_cmatrix, frob, range_basis

__all__ = [
    "BipartiteState",
    "ProductVector",
    "Decomposition",
    "partial_transpose",
    "is_ppt",
    "block",
    "reduced_a",
    "reduced_b",
    "local_filter",
    "support_compress",
    "search_frame",
    "lift_vector",
    "lift_decomposition",
    "swap_parties",
    "reconstruction",
    "state_report",
    "canonicalize",
    "vector_to_json",
    "state_to_json",
    "state_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "read_json",
    "write_json",
    "load_state",
]


class BipartiteState:
    """Hermitian PSD matrix on a two-party product space, with dimensions.

    Unnormalized states are first class: local filters break normalization
    and all rank/kernel logic ignores it.  ``rho`` is validated (finite,
    Hermitian, PSD within tolerance) and stored read-only; treat instances
    as immutable values.  ``eigenvalues`` keeps the ascending spectrum of
    ``rho`` that the PSD check computes, read-only too: the rank of ``rho``
    is ``numlin._rank`` of its moduli and its smallest eigenvalue is the
    first entry, so no reader decomposes ``rho`` again, nor the permutation
    and unitary copies that :func:`swap_parties` and :func:`local_filter` make.
    ``_compressed`` holds the tolerances under which :func:`support_compress`
    returned this state, and None on every other state.
    """

    __slots__ = ("dim_a", "dim_b", "rho", "eigenvalues", "normalized", "_compressed")

    def __init__(self, dim_a: int, dim_b: int, rho, normalized: bool = False,
                 tol: Tolerances = DEFAULT_TOL):
        dim_a = int(dim_a)
        dim_b = int(dim_b)
        if dim_a < 1 or dim_b < 1:
            raise ValueError("dimensions must be at least 1")
        mat = as_cmatrix(rho)
        mn = dim_a * dim_b
        if mat.shape != (mn, mn):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dim_a}x{dim_b}")
        mat = _hermitize(mat, tol, "density matrix")
        tr = float(np.trace(mat).real)
        floor = tol.psd_floor(tr)
        w = np.linalg.eigvalsh(mat)
        if w[0] < -floor:
            raise ValueError(f"density matrix has eigenvalue {w[0]:.3e} below -{floor:.3e}")
        if normalized and abs(tr - 1.0) > tol.residual_abs:
            raise ValueError(f"trace {tr!r} differs from 1 beyond tolerance")
        mat.setflags(write=False)
        w.setflags(write=False)
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.rho = mat
        self.eigenvalues = w
        self.normalized = bool(normalized)
        self._compressed = None

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def __repr__(self):
        tag = "normalized" if self.normalized else "unnormalized"
        return f"BipartiteState({self.dim_a}x{self.dim_b}, trace={self.trace:.6g}, {tag})"


def _similar(s: BipartiteState, dim_a: int, dim_b: int, rho, normalized: bool) -> BipartiteState:
    # a state similar to the validated ``s``: hermitized as the constructor
    # does, but with the spectrum of ``s`` in place of a PSD check
    out = object.__new__(BipartiteState)
    out.rho = _hermitize(rho, DEFAULT_TOL, "density matrix")
    out.rho.setflags(write=False)
    out.dim_a, out.dim_b, out.eigenvalues, out.normalized = dim_a, dim_b, s.eigenvalues, normalized
    out._compressed = None
    return out


@dataclass(frozen=True)
class ProductVector:
    """A pair (e, f) of nonzero local vectors; carrier of decomposition terms."""

    e: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e, dtype=complex).reshape(-1)
        f = np.asarray(self.f, dtype=complex).reshape(-1)
        if not np.any(e) or not np.any(f):
            raise ValueError("product vector components must be nonzero")
        e.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)

    def vec(self) -> np.ndarray:
        """The joint vector e (x) f in the computational product basis."""
        return (self.e[:, None] * self.f[None, :]).reshape(-1)

    def projector(self) -> np.ndarray:
        v = self.vec()
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class Decomposition:
    """Weighted product projectors plus the reconstruction residual."""

    terms: tuple[tuple[float, ProductVector], ...]
    residual: float

    def __post_init__(self):
        terms = tuple((float(w), pv) for w, pv in self.terms)
        for w, _ in terms:
            if not 0.0 < w < np.inf:
                raise ValueError(f"decomposition weights must be positive and finite, got {w!r}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "residual", float(self.residual))

    def __len__(self):
        return len(self.terms)


def reconstruction(terms, dim_a: int, dim_b: int) -> np.ndarray:
    """Sum of weighted product projectors as an MN x MN matrix."""
    mn = dim_a * dim_b
    out = np.zeros((mn, mn), dtype=complex)
    for w, pv in terms:
        v = pv.vec()
        out += w * np.outer(v, v.conj())
    return out


def _axes_view(s: BipartiteState) -> np.ndarray:
    return s.rho.reshape(s.dim_a, s.dim_b, s.dim_a, s.dim_b)


def _transpose_a(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    # the partial transpose of a bare MN x MN matrix
    r = rho.reshape(dim_a, dim_b, dim_a, dim_b).transpose(2, 1, 0, 3)
    return np.ascontiguousarray(r).reshape(rho.shape)


def partial_transpose(s: BipartiteState) -> np.ndarray:
    """Transpose on Alice's indices: block (i, j) of the output is block (j, i)."""
    return _transpose_a(s.rho, s.dim_a, s.dim_b)


def state_report(s: BipartiteState, pt_eigenvalues: np.ndarray,
                 tol: Tolerances = DEFAULT_TOL) -> dict:
    """Dimensions, trace, ranks, local ranks and kernel dimensions of ``s``.

    The rank of rho reads ``s.eigenvalues``; ``pt_eigenvalues`` is the
    spectrum of the partial transpose, which the caller's PPT test computed.
    The local ranks are the widths of the isometries of
    :func:`support_compress`, so a state that it returned, as the pipeline
    reports on, costs no decomposition of a reduced operator here.
    """
    mn = s.dim_a * s.dim_b
    rank = _rank(np.abs(s.eigenvalues), tol)
    rank_ta = _rank(np.abs(pt_eigenvalues), tol)
    _, (va, vb) = support_compress(s, tol)
    return {"dims": [s.dim_a, s.dim_b], "trace": s.trace, "rank": rank, "rank_ta": rank_ta,
            "local_rank_a": va.shape[1], "local_rank_b": vb.shape[1],
            "kernel_dim": mn - rank, "kernel_dim_ta": mn - rank_ta}


def is_ppt(s: BipartiteState, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the partial transpose has no eigenvalue below the PSD floor."""
    return float(np.linalg.eigvalsh(partial_transpose(s))[0]) >= -tol.psd_floor(s.trace)


def block(s: BipartiteState, i: int, j: int) -> np.ndarray:
    """The N x N submatrix <i_A| rho |j_A>."""
    if not (0 <= i < s.dim_a and 0 <= j < s.dim_a):
        raise IndexError(f"Alice block index ({i}, {j}) out of range for M={s.dim_a}")
    n = s.dim_b
    return s.rho[i * n:(i + 1) * n, j * n:(j + 1) * n].copy()


def reduced_a(s: BipartiteState) -> np.ndarray:
    """Alice's reduced operator; entry (i, j) is the trace of block (i, j)."""
    return np.einsum("injn->ij", _axes_view(s))


def reduced_b(s: BipartiteState) -> np.ndarray:
    """Bob's reduced operator: the sum of the diagonal Alice blocks."""
    return np.einsum("imin->mn", _axes_view(s))


def local_filter(s: BipartiteState, side: str, v) -> BipartiteState:
    """Sandwich the state with V on one side: rho -> (V (x) I) rho (V (x) I)^dag.

    Unnormalized output.  With invertible V the operation is reversible and
    preserves the PPT property and both global ranks; non-invertible V acts
    as a projection-like map and loses reversibility.  A unitary V is a
    similarity, so the output keeps the spectrum of ``s``.
    """
    mat = as_cmatrix(v)
    if side == "A":
        if mat.shape != (s.dim_a, s.dim_a):
            raise ValueError("filter dimension does not match Alice's space")
        w = np.kron(mat, np.eye(s.dim_b))
    elif side == "B":
        if mat.shape != (s.dim_b, s.dim_b):
            raise ValueError("filter dimension does not match Bob's space")
        w = np.kron(np.eye(s.dim_a), mat)
    else:
        raise ValueError("side must be 'A' or 'B'")
    rho = w @ s.rho @ w.conj().T
    # this close to unitary, V moves no eigenvalue by more than ~1e-13 ||rho||
    if frob(mat @ mat.conj().T - np.eye(len(mat))) <= 1e-13:
        return _similar(s, s.dim_a, s.dim_b, rho, normalized=False)
    return BipartiteState(s.dim_a, s.dim_b, rho, normalized=False)


def support_compress(
    s: BipartiteState, tol: Tolerances = DEFAULT_TOL
) -> tuple[BipartiteState, tuple[np.ndarray, np.ndarray]]:
    """Restrict the state to the ranges of its reduced operators.

    Returns the compressed state, whose local ranks are full, together with
    the pair of local isometries (Va, Vb) undoing the compression:
    ``rho = (Va (x) Vb) rho_c (Va (x) Vb)^dag``.  A state this function
    returned under the same tolerances is its own compression, so it comes
    back at once with identity isometries.
    """
    if s._compressed == tol:
        return s, (np.eye(s.dim_a, dtype=complex), np.eye(s.dim_b, dtype=complex))
    va = range_basis(reduced_a(s), tol)
    vb = range_basis(reduced_b(s), tol)
    if va.shape[1] == s.dim_a:
        va = np.eye(s.dim_a, dtype=complex)
    if vb.shape[1] == s.dim_b:
        vb = np.eye(s.dim_b, dtype=complex)
    if va.shape[1] == s.dim_a and vb.shape[1] == s.dim_b:
        s._compressed = tol
        return s, (va, vb)
    w = np.kron(va, vb)
    rho_c = w.conj().T @ s.rho @ w
    out = BipartiteState(va.shape[1], vb.shape[1], rho_c, normalized=s.normalized, tol=tol)
    out._compressed = tol
    return out, (va, vb)


def search_frame(
    s: BipartiteState, tol: Tolerances = DEFAULT_TOL
) -> tuple[BipartiteState, tuple[np.ndarray, np.ndarray]]:
    """The frame in which the paper's constructions run: the supported
    M x N space with M <= N.

    :func:`support_compress` restricts ``s`` to its supported space, and
    :func:`swap_parties` exchanges the parties when Alice's compressed side
    is the larger one.  Returns that state with the isometries (Va, Vb) of
    the compression; :func:`lift_vector` carries a vector of the frame back
    to the party order and space of ``s``.
    """
    sc, isometries = support_compress(s, tol)
    if sc.dim_a > sc.dim_b:
        sc = swap_parties(sc)
    return sc, isometries


def lift_vector(pv: ProductVector, va: np.ndarray, vb: np.ndarray) -> ProductVector:
    """Carry a product vector of a :func:`search_frame` back through (Va, Vb).

    A frame is swapped only when Alice's compressed side is the larger
    one, so a vector whose first factor lacks Alice's compressed width
    comes from a swapped frame, and this, the one inverse of
    :func:`swap_parties`, puts its factors back in the input's party order.
    """
    if len(pv.e) == va.shape[1]:
        return ProductVector(va @ pv.e, vb @ pv.f)
    return ProductVector(va @ pv.f, vb @ pv.e)


def lift_decomposition(terms, va: np.ndarray, vb: np.ndarray, s: BipartiteState,
                       tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Carry terms on the compressed space of ``s``, in either party order,
    back to ``s``.

    Each term goes through :func:`lift_vector`.  The result is
    canonicalized and its residual is measured against ``s`` itself.  This
    is the one acceptance check of a certificate: no terms, or a residual
    above ``residual_abs * max(1, ||rho||_F)``, raise DecompositionFailed.
    """
    lifted = [(w, lift_vector(pv, va, vb)) for w, pv in terms]
    if not lifted:
        raise DecompositionFailed("a certificate needs at least one term")
    residual = frob(s.rho - reconstruction(lifted, s.dim_a, s.dim_b))
    if residual > tol.residual_abs * max(1.0, frob(s.rho)):
        raise DecompositionFailed(f"reconstruction residual {residual:.3e} too large")
    return canonicalize(Decomposition(tuple(lifted), residual))


def swap_parties(s: BipartiteState) -> BipartiteState:
    """Exchange the roles of Alice and Bob; a permutation keeps the spectrum."""
    r = _axes_view(s).transpose(1, 0, 3, 2)
    return _similar(s, s.dim_b, s.dim_a, np.ascontiguousarray(r).reshape(s.rho.shape), s.normalized)


def canonicalize(dec: Decomposition) -> Decomposition:
    """Deterministic presentation: weights descending, phases pinned.

    The global phase of each local vector is fixed so its largest-magnitude
    component is real positive; the vectors are normalized with the norms
    folded into the weight.
    """
    fixed = []
    for w, pv in dec.terms:
        e = pv.e / np.linalg.norm(pv.e)
        f = pv.f / np.linalg.norm(pv.f)
        weight = w * float(np.linalg.norm(pv.e) ** 2 * np.linalg.norm(pv.f) ** 2)
        for vec in (e, f):
            idx = int(np.argmax(np.abs(vec)))
            phase = vec[idx] / abs(vec[idx])
            vec *= phase.conjugate()
        fixed.append((weight, ProductVector(e, f)))
    fixed.sort(key=lambda t: -t[0])
    return Decomposition(tuple(fixed), dec.residual)


# ---------------------------------------------------------------------------
# JSON documents: complex numbers are [re, im] pairs
# ---------------------------------------------------------------------------

def vector_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _from_pairs(pairs, shape: tuple, what: str) -> np.ndarray:
    """Complex array of ``shape`` from nested [re, im] pairs, bit for bit."""
    try:
        a = np.array(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must hold [re, im] number pairs: {exc}") from None
    if a.shape != (*shape, 2):
        raise ValueError(f"{what} has shape {a.shape}, expected {(*shape, 2)}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a.view(complex)[..., 0]


def state_to_json(s: BipartiteState) -> dict:
    return {
        "dim_a": s.dim_a,
        "dim_b": s.dim_b,
        "matrix": [vector_to_json(row) for row in s.rho],
    }


def state_from_json(doc: dict, tol: Tolerances = DEFAULT_TOL) -> BipartiteState:
    try:
        dim_a = int(doc["dim_a"])
        dim_b = int(doc["dim_b"])
        rows = doc["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    mn = dim_a * dim_b
    mat = _from_pairs(rows, (mn, mn), f"matrix of a {dim_a}x{dim_b} state")
    tr = float(np.trace(mat).real)
    normalized = abs(tr - 1.0) <= tol.residual_abs
    return BipartiteState(dim_a, dim_b, mat, normalized=normalized, tol=tol)


def decomposition_to_json(dec: Decomposition) -> dict:
    """The decomposition document: weighted product terms and the residual."""
    return {
        "terms": [
            {"weight": w, "e": vector_to_json(pv.e), "f": vector_to_json(pv.f)}
            for w, pv in dec.terms
        ],
        "residual": dec.residual,
    }


def decomposition_from_json(doc: dict, dim_a: int, dim_b: int) -> Decomposition:
    """Read a decomposition document whose terms live on C^dim_a (x) C^dim_b."""
    try:
        terms = [
            (float(t["weight"]),
             ProductVector(_from_pairs(t["e"], (dim_a,), f"term {i} e"),
                           _from_pairs(t["f"], (dim_b,), f"term {i} f")))
            for i, t in enumerate(doc["terms"])
        ]
        return Decomposition(tuple(terms), float(doc["residual"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed decomposition document: {exc!r}") from None


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(doc, path=None) -> None:
    """Write a document as sorted, indented JSON to ``path``, or to stdout."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_state(path, tol: Tolerances = DEFAULT_TOL) -> BipartiteState:
    return state_from_json(read_json(path), tol)
