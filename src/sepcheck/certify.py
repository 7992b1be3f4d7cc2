"""Separability verdicts: prechecks, NNLS certification, BSA, pipeline.

The pipeline first compresses to the supported space and rules out NPT and
rank-deficient (distillable) inputs.  Rank-N states are decomposed exactly;
states inside the rank-sum window go through the eligible-vector search and
one nonnegative least-squares solve over the finite candidate set weighs
its projectors.  Either certificate is lifted back to the input once and
accepted only if it reconstructs the input (``lift_decomposition``).  The
best-separable-approximation iteration is a separate stage, not part of
this decision; its updates are closed-form, so the module needs nothing
beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DecompositionFailed,
    NonGeneric,
    NotPPT,
    PreconditionFailed,
    RankSumTooHigh,
    RankTooLow,
)
from .numlin import DEFAULT_TOL, Tolerances, _rank, frob, numerical_rank, pseudo_inverse, range_basis
from .state import (
    BipartiteState,
    Decomposition,
    ProductVector,
    decomposition_to_json,
    is_ppt,
    lift_decomposition,
    partial_transpose,
    state_report,
    support_compress,
    vector_to_json,
)
from .vectors import EligibleSet, enumerate_eligible

__all__ = [
    "Verdict",
    "BsaResult",
    "spectral_ball_check",
    "certify_by_subsets",
    "bsa_decompose",
    "kernel_witness_bound",
    "separability_check",
    "verdict_to_json",
]

SEPARABLE = "Separable"
ENTANGLED = "Entangled"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a separability check with its certificate or reason."""

    status: str
    reason: str | None = None
    certificate: Decomposition | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BsaResult:
    """Best-separable-approximation split rho = sum_i L_i P_i + (1-lambda) d_rho."""

    weights: np.ndarray
    lam: float
    delta_rho: np.ndarray
    converged: bool
    iterations: int
    lam_trace: tuple[float, ...]


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares, min ||a x - b|| over x >= 0.

    The Lawson-Hanson active-set method, returning ``(x, rnorm)`` as
    ``scipy.optimize.nnls`` does.  After 3 * columns outer iterations it
    returns its current iterate, which is always nonnegative.  Its positive
    weights sit on linearly independent columns: a column dependent on the
    passive ones has zero gradient and never enters.
    """
    n = a.shape[1]
    tol = 10.0 * max(a.shape) * np.finfo(float).eps * max(1.0, float(np.abs(a).sum(axis=0).max()))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        grad = a.T @ (b - a @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocking = np.flatnonzero(passive & (z <= 0.0))
            if blocking.size == 0:
                break
            # step back to the boundary: the first weight to reach zero leaves
            # the passive set, so this loop ends after at most n solves
            ratios = x[blocking] / np.maximum(x[blocking] - z[blocking], np.finfo(float).tiny)
            k = int(np.argmin(ratios))
            x += ratios[k] * (z - x)
            x[blocking[k]] = 0.0
            passive &= x > tol
        x = z
    return x, float(np.linalg.norm(a @ x - b))


# No sepcheck code calls this.  It stays only because perfbench/tracing.py
# looks the name up with a bare getattr; it goes once the tracer skips
# absent names (ROADMAP item 1).

def minimize_scalar(*args, **kwargs):
    """``scipy.optimize.minimize_scalar``, imported on the first call."""
    from scipy.optimize import minimize_scalar as _minimize_scalar

    return _minimize_scalar(*args, **kwargs)


def spectral_ball_check(s: BipartiteState, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Sufficient condition: smallest eigenvalue at least 1 / (2 + MN).

    Applies to normalized full-rank states; a False answer carries no
    information about separability.
    """
    mn = s.dim_a * s.dim_b
    return float(s.eigenvalues[0]) >= 1.0 / (2.0 + mn) - tol.psd_abs


# ---------------------------------------------------------------------------
# Convex certificates over a finite candidate set
# ---------------------------------------------------------------------------

def _features(p: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each in a stack, along
    the last axis: the upper triangle, real parts over imaginary parts."""
    upper = p[(..., *np.triu_indices(p.shape[-1]))]
    return np.concatenate([upper.real, upper.imag], axis=-1)


def certify_by_subsets(
    s: BipartiteState, es: EligibleSet, tol: Tolerances = DEFAULT_TOL
) -> Verdict:
    """Decide separability over an exhaustive finite set of eligible vectors.

    An empty exhaustive set certifies entanglement when the spectral gap,
    the smallest eigenvalue modulus that the rank rule keeps over the
    largest, is at least ``rank_rel / root_abs`` for both the state and its
    partial transpose; below that the kernels are not resolved to
    ``root_abs``, and the verdict is inconclusive with the gap in
    ``eligible_error``.  Otherwise one nonnegative least-squares solve over
    all candidate projectors weighs them; its residual is reported as
    ``nnls_residual``.  Lawson-Hanson keeps the positive weights on
    linearly independent projectors (see :func:`nnls`), which bounds the
    certificate by min(r^2, r_ta^2) terms, and the certificate must pass
    :func:`lift_decomposition`'s residual check.  One that fails is
    inconclusive, never entangled, since the set may miss a vector although
    it claims to be exhaustive; the check's message goes to
    ``eligible_error``.
    """
    eye = (np.eye(s.dim_a, dtype=complex), np.eye(s.dim_b, dtype=complex))
    pt_eigenvalues = np.linalg.eigvalsh(partial_transpose(s))
    diag = state_report(s, pt_eigenvalues, tol)
    return _certify_eligible(s, s, eye, es, pt_eigenvalues, tol, diag)


def _kept_ratio(eigenvalues: np.ndarray, tol: Tolerances) -> float:
    """Smallest |eigenvalue| that ``numlin._rank`` counts, over the largest."""
    mod = np.sort(np.abs(eigenvalues))
    return float(mod[-_rank(mod, tol)] / mod[-1])


def _certify_eligible(
    s: BipartiteState,
    sc: BipartiteState,
    isometries: tuple[np.ndarray, np.ndarray],
    es: EligibleSet,
    pt_eigenvalues: np.ndarray,
    tol: Tolerances,
    diag: dict,
) -> Verdict:
    # certify_by_subsets on the compression sc of s, with sc's report and
    # the spectrum of its partial transpose already measured; the
    # certificate is lifted to s and checked there
    diag = dict(diag)
    if len(es.vectors) == 0:
        if not es.exhaustive:
            return Verdict(INCONCLUSIVE, "NonGeneric", None, diag)
        # Davis-Kahan: the kernels are known to rank_rel over the gap, and
        # candidates are accepted at root_abs
        gap = min(_kept_ratio(sc.eigenvalues, tol), _kept_ratio(pt_eigenvalues, tol))
        bound = tol.rank_rel / tol.root_abs
        if gap < bound:
            diag["eligible_error"] = (
                f"spectral gap {gap:.3e} below rank_rel / root_abs = {bound:.3e}: the "
                "kernels are not resolved to root_abs, so an empty set rules out nothing")
            return Verdict(INCONCLUSIVE, "BudgetExhausted", None, diag)
        return Verdict(ENTANGLED, "NoEligibleVectors", None, diag)

    projs = list(es.vectors)
    # the projectors |v><v| of all candidates at once, one column each
    e, f = np.array([pv.e for pv in projs]), np.array([pv.f for pv in projs])
    vecs = (e[:, :, None] * f[:, None, :]).reshape(len(projs), -1)      # kron(e, f) rows
    feats = _features(np.einsum("ci,cj->cij", vecs, vecs.conj())).T
    sol, rnorm = nnls(feats, _features(sc.rho))
    diag["nnls_residual"] = rnorm
    terms = [(float(w), pv) for w, pv in zip(sol, projs) if w > tol.residual_abs]
    try:
        cert = lift_decomposition(terms, *isometries, s, tol)
    except DecompositionFailed as exc:
        diag["eligible_error"] = str(exc)
        return Verdict(INCONCLUSIVE, "BudgetExhausted", None, diag)
    return Verdict(SEPARABLE, None, cert, diag)


# ---------------------------------------------------------------------------
# Best separable approximation
# ---------------------------------------------------------------------------

_SAFE = 1.0 - 1e-12  # keeps accumulated float error from breaking positivity
# A single-index sweep gaining less than this starts the pair pass.  It is
# a constant, not residual_abs: single-index sweeps creep toward the
# frontier, so a tight tolerance would hold the pair pass back until
# max_iters ran out, far below the reachable lambda.
_PAIR_TRIGGER = 1e-8


def _inverse_gram(x: np.ndarray, vs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """<v_a| x^+ |v_b> over the unit columns of vs, zero for any outside range(x).

    The largest weight of v that x can give up is 1 / <v| x^+ |v>, and none
    when v sticks out of the range of x.
    """
    xp = pseudo_inverse(x, tol)
    inside = np.linalg.norm(x @ (xp @ vs) - vs, axis=0) <= 1e-7
    return (vs.conj().T @ xp @ vs) * np.outer(inside, inside)


def _pair_weights(grams: np.ndarray) -> tuple[float, float]:
    """Largest w_i + w_j with x - w_i P_i - w_j P_j PSD on every side.

    On a side with q_i, q_j the diagonal and c = |<v_j|x^+|v_i>|,
    Sherman-Morrison gives the largest w_j once t P_i is taken away:
    h(t) = u / (q_j u + t c^2) with u = 1 - t q_i, for 0 <= t < 1 / q_i.
    Each t + h(t) is concave with its peak at t* = (q_j - c) / (q_i q_j - c^2),
    so the maximum of t + min(h_1, h_2) lies at an endpoint, a side's t* or
    a crossing h_1 = h_2, a root of a quadratic.
    """
    qi, qj, c = grams[:, 0, 0].real, grams[:, 1, 1].real, np.abs(grams[:, 0, 1])
    d = qi * qj - c * c
    t_end = _SAFE / qi.max()
    dq, c2 = qj[1] - qj[0], c * c
    crossing = np.roots([qi[0] * qi[1] * dq - qi[0] * c2[1] + qi[1] * c2[0],
                         c2[1] - c2[0] - (qi[0] + qi[1]) * dq,
                         dq])
    ts = np.concatenate([[0.0, t_end], (qj - c)[d > 0] / d[d > 0], crossing.real])
    ts = np.clip(ts, 0.0, t_end)[:, None]
    u = 1.0 - ts * qi
    h = np.min(u / (qj * u + ts * c2), axis=1)
    best = int(np.argmax(ts[:, 0] + h))
    return float(ts[best, 0]), _SAFE * float(h[best])


def bsa_decompose(
    s: BipartiteState,
    projectors: list[ProductVector],
    tol: Tolerances = DEFAULT_TOL,
    max_iters: int = 400,
) -> BsaResult:
    """Maximize the separable weight over a fixed set of product projectors.

    Cyclic single-index maximization sets each weight to the largest value
    keeping both the remainder and its partial transpose PSD; once a sweep
    gains less than 1e-8, pairwise sweeps maximize two weights jointly along
    the feasibility frontier in closed form.  Both remainders are kept up
    to date, so each step costs one pseudo-inverse per side.  A pair update
    that would lower the total weight is rejected, so pair updates never
    lower it; single-index updates carry no such guarantee.  The iteration has
    converged once a sweep with its pair pass gains less than
    ``residual_abs``.
    """
    k = len(projectors)
    rest = [s.rho.copy(), partial_transpose(s)]
    if k == 0:
        return BsaResult(np.zeros(0), 0.0, rest[0], True, 0, (0.0,))

    units = [(pv.e / np.linalg.norm(pv.e), pv.f / np.linalg.norm(pv.f)) for pv in projectors]
    vecs = [np.column_stack([np.kron(e, f) for e, f in units]),
            np.column_stack([np.kron(e.conj(), f) for e, f in units])]

    def take(i: int, dw: float) -> None:
        # subtract dw more of projector i from both remainders
        for r, v in zip(rest, vecs):
            r -= dw * np.outer(v[:, i], v[:, i].conj())

    def grams(*idx: int) -> np.ndarray:
        return np.array([_inverse_gram(r, v[:, list(idx)], tol) for r, v in zip(rest, vecs)])

    weights = np.zeros(k)
    lam_trace = [0.0]
    converged = False
    while not converged and len(lam_trace) <= max_iters:
        before = lam_trace[-1]
        for i in range(k):
            take(i, -weights[i])
            q = grams(i)[:, 0, 0].real
            weights[i] = _SAFE / q.max() if q.min() > 0.0 else 0.0
            take(i, weights[i])
        after = float(np.sum(weights))
        if after - before < _PAIR_TRIGGER:
            for i in range(k):
                for j in range(i + 1, k):
                    total, pair = float(np.sum(weights)), weights[[i, j]]
                    take(i, -pair[0])
                    take(j, -pair[1])
                    gs = grams(i, j)
                    # a zero diagonal means that weight is pinned at 0
                    if np.all(np.diagonal(gs, axis1=1, axis2=2).real > 0.0):
                        weights[[i, j]] = _pair_weights(gs)
                        if float(np.sum(weights)) <= total:
                            weights[[i, j]] = pair
                    take(i, weights[i])
                    take(j, weights[j])
            after = float(np.sum(weights))
            converged = after - before < tol.residual_abs
        lam_trace.append(after)

    lam = float(np.sum(weights))
    delta = rest[0] / (1.0 - lam) if lam < 1.0 - tol.residual_abs else np.zeros_like(rest[0])
    return BsaResult(weights.copy(), lam, delta, converged, len(lam_trace) - 1,
                     tuple(lam_trace))


# ---------------------------------------------------------------------------
# Kernel witness
# ---------------------------------------------------------------------------

def kernel_witness_bound(
    s: BipartiteState, sigma: BipartiteState, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Rank bound from a PPT state sitting inside the kernel.

    With R(sigma) inside K(rho), the kernel of the partial transpose of rho
    contains the range of sigma's partial transpose, so
    r(rho^T_A) <= MN - r(sigma^T_A).  A False return signals a tolerance
    inconsistency, since the bound is a theorem.
    """
    if s.dim_a != sigma.dim_a or s.dim_b != sigma.dim_b:
        raise PreconditionFailed("witness dimensions do not match the state")
    if not is_ppt(sigma, tol):
        raise PreconditionFailed("witness state is not PPT")
    r_sigma = range_basis(sigma.rho, tol)
    overlap = frob(s.rho @ r_sigma)
    if overlap > tol.residual_abs * max(1.0, frob(s.rho)):
        raise PreconditionFailed("the witness range is not inside the kernel")
    mn = s.dim_a * s.dim_b
    r_ta = numerical_rank(partial_transpose(s), tol)
    r_sigma_ta = numerical_rank(partial_transpose(sigma), tol)
    return r_ta <= mn - r_sigma_ta


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def separability_check(
    s: BipartiteState,
    tol: Tolerances = DEFAULT_TOL,
    seed=0,
) -> Verdict:
    """Full decision pipeline for one state.

    Stages: support compression; NPT test (with witness eigenvector); global
    rank below a local rank means distillable; the spectral-ball sufficient
    condition; the exact rank-N decomposition; the eligible-vector search
    with NNLS certification when the rank-sum window applies; otherwise
    inconclusive.  ``diagnostics["method"]`` names the deciding stage.
    The rank-N and eligible stages each run in their own ``search_frame``
    and answer in the input's party order, as every verdict does.
    """
    from .canon import decompose_rank_n

    rng = np.random.default_rng(seed)
    sc, (va, vb) = support_compress(s, tol)
    w, vecs = np.linalg.eigh(partial_transpose(sc))
    diag = state_report(sc, w, tol)
    diag["compressed_dims"] = [sc.dim_a, sc.dim_b]
    diag["dims"] = [s.dim_a, s.dim_b]

    if float(w[0]) < -tol.psd_floor(sc.trace):
        witness = np.kron(va.conj(), vb) @ vecs[:, 0]
        diag["npt_eigenvalue"] = float(w[0])
        diag["npt_witness"] = vector_to_json(witness)
        diag["method"] = "npt"
        return Verdict(ENTANGLED, "NPT", None, diag)

    m, n = sc.dim_a, sc.dim_b
    r = diag["rank"]
    if r < max(m, n):
        diag["method"] = "rank_below_local"
        return Verdict(ENTANGLED, "RankBelowLocal", None, diag)

    if sc.normalized and r == m * n and spectral_ball_check(sc, tol):
        diag["method"] = "spectral_ball"
        return Verdict(SEPARABLE, "SpectralBall", None, diag)

    if r == max(m, n):
        diag["method"] = "rank_n_decomposition"
        try:
            cert = decompose_rank_n(s, tol, rng)
        except (NotPPT, RankTooLow, DecompositionFailed) as exc:
            # no certificate at this tolerance, but no evidence of
            # entanglement either: PPT and the rank passed the screens above,
            # so a gate that disagrees sits at a tolerance edge.  The cause
            # goes with the verdict
            diag["rank_n_error"] = str(exc)
            return Verdict(INCONCLUSIVE, "BudgetExhausted", None, diag)
        return Verdict(SEPARABLE, None, cert, diag)

    rank_sum = r + diag["rank_ta"]
    if rank_sum <= 2 * m * n - m - n + 2:
        diag["method"] = "eligible_vectors"
        try:
            es = enumerate_eligible(sc, tol, rng)
        except (NonGeneric, RankSumTooHigh) as exc:
            diag["eligible_error"] = str(exc)
            return Verdict(INCONCLUSIVE, "NonGeneric", None, diag)
        diag |= {"eligible_count": len(es.vectors), "eligible_exhaustive": es.exhaustive}
        return _certify_eligible(s, sc, (va, vb), es, w, tol, diag)

    diag["method"] = "none"
    return Verdict(INCONCLUSIVE, "BudgetExhausted", None, diag)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def verdict_to_json(v: Verdict) -> dict:
    cert = None if v.certificate is None else decomposition_to_json(v.certificate)["terms"]
    return {
        "status": v.status,
        "reason": v.reason,
        "certificate": cert,
        "diagnostics": v.diagnostics,
    }
