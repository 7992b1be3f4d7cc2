"""Numerical homotopy continuation for the coupled eligible-vector system.

The constraint rows of the eligible-vector search are bilinear: a state-kernel
row reads alpha^T K f and a transpose-kernel row beta^T L f, where beta stands
in for conj(alpha).  Once squared, the system is solved by tracking every
multihomogeneous Bezout path of a linear homotopy from a start system whose
roots are known (Sommese & Wampler, *The Numerical Solution of Systems of
Polynomials*, 2005; Morgan & Sommese, 1987).  All paths advance together as
one batch of small numpy solves.

The module is imported on first use: most inputs never reach it.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["BilinearHomotopy"]

# Relative Newton-correction size that counts as on the path while tracking,
# and the largest first correction a step may need (larger ones risk a jump
# to a neighbouring path, so the step is halved instead).
TRACK_TOL = 1e-9
TRACK_JUMP = 1e-3
# Step-size limits in t, and the per-path step budget.
STEP_MAX = 0.1
STEP_MIN = 1e-12
MAX_STEPS = 2000
# Condition number of the endpoint Jacobian above which a path ended at a
# singular (multiple or non-isolated) solution.
SINGULAR_COND = 1e8


class BilinearHomotopy:
    """H(x, t) = (1 - t) F(x) + gamma t G(x) on x = (alpha, beta, f).

    F holds the squared constraint rows alpha^T K_i f (state kernel) and
    beta^T L_j f (transpose kernel), where beta stands in for conj(alpha);
    the start system G replaces each row by a product of linear forms
    (e_i . alpha)(d_i . f), whose roots are linear solves.  Three random
    affine charts u . alpha = v . beta = c . f = 1 fix the projective
    scales, so every path of a zero-dimensional target ends at a finite
    point.  The random complex gamma keeps the paths apart for t in (0, 1].

    Every row of F and of G is a quadratic form x^T Q x, so its gradient is
    (Q + Q^T) x and, by Euler's identity, its value half the gradient dotted
    with x.  The symmetrized forms of all rows of both systems are stored as
    one (dim, 2 rows dim) tensor, and one matmul gives every gradient.
    """

    def __init__(self, k_rows: np.ndarray, kt_rows: np.ndarray, rng: np.random.Generator):
        r, self.m, self.n = k_rows.shape
        rt = kt_rows.shape[0]
        m, n = self.m, self.n

        def _draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        # state rows first, then transpose rows, in both systems
        self.r = r
        self.rows = rows = r + rt
        e_k, d_k, e_kt, d_kt = _draw(r, m), _draw(r, n), _draw(rt, m), _draw(rt, n)
        self.e, self.d = np.concatenate([e_k, e_kt]), np.concatenate([d_k, d_kt])
        self.charts = (_draw(m), _draw(m), _draw(n))
        self.gamma = complex(np.exp(2j * np.pi * rng.uniform()))
        self.dim = dim = 2 * m + n
        self.chart_jac = np.zeros((3, dim), dtype=complex)
        for i, (lo, vec) in enumerate(zip((0, m, 2 * m), self.charts)):
            self.chart_jac[i, lo:lo + len(vec)] = vec

        # forms[0] target, forms[1] start; a row's Alice block sits at alpha
        # for state rows and at beta for transpose rows, its Bob block at f
        forms = np.zeros((2, rows, dim, dim), dtype=complex)
        forms[0, :r, :m, 2 * m:] = k_rows
        forms[0, r:, m:2 * m, 2 * m:] = kt_rows
        forms[1, :r, :m, 2 * m:] = e_k[:, :, None] * d_k[:, None, :]
        forms[1, r:, m:2 * m, 2 * m:] = e_kt[:, :, None] * d_kt[:, None, :]
        forms += forms.swapaxes(-1, -2)
        self.grad_tensor = forms.transpose(2, 0, 1, 3).reshape(dim, 2 * rows * dim)

    def evaluate(self, x: np.ndarray, t: np.ndarray):
        """H, its Jacobian in x and its t-derivative, batched over paths."""
        p, rows, dim = x.shape[0], self.rows, self.dim
        grads = (x @ self.grad_tensor).reshape(p, 2, rows * dim)
        # per path: [[1 - t, gamma t], [-1, gamma]] maps the (F, G)
        # gradients to those of H and of dH/dt
        mix = np.empty((p, 2, 2), dtype=complex)
        mix[:, 0, 0] = 1.0 - t
        mix[:, 0, 1] = self.gamma * t
        mix[:, 1, 0] = -1.0
        mix[:, 1, 1] = self.gamma
        both = (mix @ grads).reshape(p, 2, rows, dim)
        values = 0.5 * (both @ x[:, None, :, None])[..., 0]
        jac = np.empty((p, dim, dim), dtype=complex)
        jac[:, :rows] = both[:, 0]
        jac[:, rows:] = self.chart_jac
        h = np.empty((p, dim), dtype=complex)
        h[:, :rows] = values[:, 0]
        h[:, rows:] = x @ self.chart_jac.T - 1.0
        ht = np.zeros((p, dim), dtype=complex)
        ht[:, :rows] = values[:, 1]
        return h, jac, ht

    def start_points(self) -> np.ndarray:
        """Every root of the start system, one per multihomogeneous path.

        A root picks M-1 state rows whose alpha factor vanishes and M-1
        transpose rows whose beta factor vanishes; the f factor vanishes on
        the N-1 rows left over.  With the charts each group is then one
        square linear solve.
        """
        m, r, rows = self.m, self.r, self.rows
        u, v, c = self.charts
        # each solve's last row is its chart, the others vanishing factors
        rhs_a = np.zeros(m, dtype=complex)
        rhs_a[-1] = 1.0
        rhs_f = np.zeros(self.n, dtype=complex)
        rhs_f[-1] = 1.0
        points = []
        for sa in itertools.combinations(range(r), m - 1):
            a = np.linalg.solve(np.vstack([self.e[list(sa)], u]), rhs_a)
            for sb in itertools.combinations(range(r, rows), m - 1):
                b = np.linalg.solve(np.vstack([self.e[list(sb)], v]), rhs_a)
                rest = [i for i in range(rows) if i not in sa + sb]
                f = np.linalg.solve(np.vstack([self.d[rest], c]), rhs_f)
                points.append(np.concatenate([a, b, f]))
        return np.array(points)

    def _newton(self, x, t):
        h, jac, _ = self.evaluate(x, t)
        dx = _batched_solve(jac, h)
        return x - dx, np.linalg.norm(dx, axis=1) / (1.0 + np.linalg.norm(x, axis=1))

    def _tangent(self, x, t):
        _, jac, ht = self.evaluate(x, t)
        return -_batched_solve(jac, ht)

    def track(self) -> tuple[np.ndarray, np.ndarray]:
        """Track every start root from t = 1 to t = 0.

        All paths advance together: an RK4 predictor along dx/dt, then
        three Newton corrections.  A step is accepted when the
        correction settles below TRACK_TOL and its first correction stays
        below TRACK_JUMP; otherwise the path's step halves.  Three accepted
        steps in a row double it.  Returns the endpoints, refined by Newton
        at t = 0, and a per-path flag: True for a finite nonsingular
        endpoint reached by no other path, False for a failed or singular
        path and for paths that met.
        """
        x = self.start_points()
        p = x.shape[0]
        t = np.ones(p)
        step = np.full(p, 0.05)
        streak = np.zeros(p, dtype=int)
        active = np.ones(p, dtype=bool)
        failed = np.zeros(p, dtype=bool)
        for _ in range(MAX_STEPS):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            xa, ta = x[idx], t[idx]
            dt = -np.minimum(step[idx], ta)
            half = ta + 0.5 * dt
            k1 = self._tangent(xa, ta)
            k2 = self._tangent(xa + 0.5 * dt[:, None] * k1, half)
            k3 = self._tangent(xa + 0.5 * dt[:, None] * k2, half)
            k4 = self._tangent(xa + dt[:, None] * k3, ta + dt)
            xn = xa + dt[:, None] / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tn = ta + dt
            xn, first = self._newton(xn, tn)
            size = first
            for _ in range(2):
                xn, size = self._newton(xn, tn)
            ok = (size <= TRACK_TOL) & (first <= TRACK_JUMP) & np.all(np.isfinite(xn), axis=1)
            good, bad = idx[ok], idx[~ok]
            x[good], t[good] = xn[ok], tn[ok]
            streak[good] += 1
            grow = good[streak[good] >= 3]
            step[grow] = np.minimum(2.0 * step[grow], STEP_MAX)
            streak[grow] = 0
            step[bad] *= 0.5
            streak[bad] = 0
            failed[bad[step[bad] < STEP_MIN]] = True
            active = ~failed & (t > 0.0)
        failed |= t > 0.0

        zero = np.zeros(p)
        for _ in range(3):
            x, _ = self._newton(x, zero)
        _, jac, _ = self.evaluate(x, zero)
        svals = np.linalg.svd(jac, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = svals[:, 0] / svals[:, -1]
        regular = ~failed & np.all(np.isfinite(x), axis=1) & (cond < SINGULAR_COND)
        # a nonsingular root ends one path only: two paths meeting there mean
        # that one of them jumped, and the root it left may be missing
        for i, j in itertools.combinations(np.flatnonzero(regular), 2):
            if np.linalg.norm(x[i] - x[j]) <= 1e-8 * (1.0 + np.linalg.norm(x[i])):
                regular[[i, j]] = False
        return x, regular


def _batched_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # an exactly singular Jacobian in the batch: every path of this
        # call fails its step test, or ends non-regular at t = 0
        return np.full(rhs.shape, np.nan, dtype=complex)
