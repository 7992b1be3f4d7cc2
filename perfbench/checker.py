"""Independent checker for separability verdicts and BSA results.

Uses numpy and the input matrix only; it reads the public fields of
``Verdict`` / ``BsaResult`` (or their JSON forms) and never calls into
``sepcheck``.  The thresholds are copies of those pinned in
``tests/test_acceptance.py``, kept here on purpose so that a change to the
program's tolerances cannot silently loosen the benchmark's scoring.

Every check returns a list of problems; an empty list means the evidence
holds.  Ground truth is compared separately by :func:`contradicts`.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh
from numpy.linalg import matrix_rank as _matrix_rank
from numpy.linalg import norm as _norm
from numpy.linalg import svd as _svd

# Thresholds copied from tests/test_acceptance.py.
RESIDUAL_REL = 1e-8       # reconstruction residual <= 1e-8 * max(1, ||rho||)
UNIT_TOL = 1e-8           # local vectors have unit norm
INDEPENDENCE_TOL = 1e-8   # matrix_rank tolerance for projector independence
RANK_REL = 1e-9           # relative singular-value cutoff for ranks
PSD_FLOOR = 1e-8          # BSA remainders PSD on both sides to -1e-8
LAMBDA_SLACK = 1e-4       # BSA reaches lambda >= mu - 1e-4
EXACT_LAMBDA_TOL = 1e-6   # exact separable inputs reach lambda = 1 within 1e-6
MONOTONE_SLACK = 1e-12    # lambda trace non-decreasing
BALL_SLACK = 1e-9         # spectral-ball eigenvalue floor slack


def partial_transpose(rho: np.ndarray, m: int, n: int) -> np.ndarray:
    return rho.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def rank(mat: np.ndarray) -> int:
    s = _svd(mat, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL * s[0]))


def min_eig(mat: np.ndarray) -> float:
    return float(_eigvalsh(0.5 * (mat + mat.conj().T))[0])


def _projector(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    v = np.kron(e, f)
    return np.outer(v, v.conj())


def check_certificate(rho: np.ndarray, m: int, n: int, terms) -> list[str]:
    """``terms`` is a sequence of (weight, e, f) with numpy vectors."""
    problems = []
    if not terms:
        return ["empty certificate"]
    recon = np.zeros_like(rho, dtype=complex)
    feats = []
    for idx, (w, e, f) in enumerate(terms):
        e = np.asarray(e, dtype=complex)
        f = np.asarray(f, dtype=complex)
        if not w > 0.0:
            problems.append(f"term {idx}: weight {w!r} not positive")
        if e.shape != (m,) or f.shape != (n,):
            problems.append(f"term {idx}: local vector shapes {e.shape}, {f.shape}")
            continue
        if abs(_norm(e) - 1.0) > UNIT_TOL or abs(_norm(f) - 1.0) > UNIT_TOL:
            problems.append(f"term {idx}: local vectors not unit")
        p = _projector(e, f)
        recon += w * p
        feats.append(np.concatenate([p.ravel().real, p.ravel().imag]))
    if problems:
        return problems
    scale = max(1.0, float(_norm(rho)))
    residual = float(_norm(rho - recon))
    if residual > RESIDUAL_REL * scale:
        problems.append(f"reconstruction residual {residual:.3e}")
    r = rank(rho)
    rt = rank(partial_transpose(rho, m, n))
    if len(terms) > min(r * r, rt * rt):
        problems.append(f"{len(terms)} terms exceed min(r^2, rt^2) = {min(r * r, rt * rt)}")
    if _matrix_rank(np.column_stack(feats), tol=INDEPENDENCE_TOL) != len(terms):
        problems.append("certificate projectors are linearly dependent")
    return problems


def check_verdict(rho: np.ndarray, m: int, n: int, status: str, reason,
                  terms, diagnostics: dict) -> list[str]:
    """Validate the evidence a verdict carries.

    ``terms`` is the certificate as (weight, e, f) triples or None.
    """
    if status == "Separable":
        if terms is not None:
            return check_certificate(rho, m, n, terms)
        if reason == "SpectralBall":
            bound = 1.0 / (2.0 + m * n) - BALL_SLACK
            if abs(float(np.trace(rho).real) - 1.0) > RESIDUAL_REL:
                return ["spectral ball used on an unnormalized state"]
            if min_eig(rho) < bound:
                return [f"smallest eigenvalue below the ball bound {bound:.4f}"]
            return []
        return ["separable verdict without certificate"]
    if status == "Entangled":
        if terms is not None:
            return ["entangled verdict carries a certificate"]
        if reason == "NPT":
            w = np.array([complex(a, b) for a, b in diagnostics.get("npt_witness", [])])
            if w.shape != (m * n,):
                return ["NPT verdict without a witness of the right size"]
            val = float(np.real(np.vdot(w, partial_transpose(rho, m, n) @ w)))
            if not val < 0.0:
                return [f"NPT witness gives <w|rho^TA|w> = {val:.3e}, not negative"]
            return []
        if reason == "RankBelowLocal":
            r = rank(rho)
            r_a = rank(np.einsum("injn->ij", rho.reshape(m, n, m, n)))
            r_b = rank(np.einsum("imin->mn", rho.reshape(m, n, m, n)))
            if not r < max(r_a, r_b):
                return [f"rank {r} is not below the local ranks ({r_a}, {r_b})"]
            return []
        return []
    if status == "Inconclusive":
        return [] if terms is None else ["inconclusive verdict carries a certificate"]
    return [f"unknown status {status!r}"]


def contradicts(status: str, truth: str | None) -> bool:
    """True when a verdict contradicts the known ground truth."""
    if truth == "separable":
        return status == "Entangled"
    if truth == "entangled":
        return status == "Separable"
    return False


def check_bsa(rho: np.ndarray, m: int, n: int, projectors, weights, lam: float,
              lam_trace, mu: float) -> list[str]:
    """Validate a best-separable-approximation split.

    ``projectors`` are (e, f) pairs; ``mu`` is the planted separable weight
    (1.0 for an exact separable input).
    """
    problems = []
    trace = [float(x) for x in lam_trace]
    if any(b < a - MONOTONE_SLACK for a, b in zip(trace, trace[1:])):
        problems.append("lambda trace decreases")
    if lam < mu - LAMBDA_SLACK:
        problems.append(f"lambda {lam:.6f} below planted weight {mu}")
    if mu >= 1.0 and abs(lam - 1.0) > EXACT_LAMBDA_TOL:
        problems.append(f"exact input reaches lambda {lam:.9f}, not 1")
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0):
        problems.append("negative BSA weight")
    if abs(float(np.sum(weights)) - lam) > 1e-9 * max(1.0, abs(lam)):
        problems.append("lambda differs from the weight sum")
    remainder = rho.astype(complex)
    for w, (e, f) in zip(weights, projectors):
        if w > 0.0:
            e = np.asarray(e, dtype=complex)
            f = np.asarray(f, dtype=complex)
            remainder = remainder - w * _projector(e / _norm(e), f / _norm(f))
    if min_eig(remainder) < -PSD_FLOOR:
        problems.append("BSA remainder is not PSD")
    if min_eig(partial_transpose(remainder, m, n)) < -PSD_FLOOR:
        problems.append("BSA remainder partial transpose is not PSD")
    return problems
