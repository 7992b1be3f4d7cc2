"""Numerical homotopy continuation for the coupled eligible-vector system.

The constraint rows of the eligible-vector search are bilinear: a state-kernel
row reads alpha^T K f and a transpose-kernel row beta^T L f, where beta stands
in for conj(alpha).  Once squared, the system is solved by tracking every
multihomogeneous Bezout path of a linear homotopy from a start system whose
roots are known (Sommese & Wampler, *The Numerical Solution of Systems of
Polynomials*, 2005; Morgan & Sommese, 1987).  All paths advance together as
one batch of small numpy solves.  Each path is tracked projectively, in
charts that move with it; fixed random charts hold only the start points
and the endpoints.

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
# The first correction a step size aims at, as a fraction of TRACK_JUMP.
STEP_AIM = 0.05
# Step-size limits in t, and the bound on batch iterations (each advances
# every active path by one attempted step).
STEP_MAX = 0.25
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
    scales of the start points and of the endpoints, so every path of a
    zero-dimensional target ends at a finite point.  Between them a path
    is tracked in moving charts through its current point (see ``track``),
    where its coordinates stay of unit size.  The random complex gamma
    keeps the paths apart for t in (0, 1].

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
        # the fixed charts u, v, c as one covector, a block per group
        self.chart = np.concatenate([_draw(m), _draw(m), _draw(n)])
        self.gamma = complex(np.exp(2j * np.pi * rng.uniform()))
        self.dim = dim = 2 * m + n
        self.group_mask = np.zeros((3, dim))
        for i, (lo, hi) in enumerate(((0, m), (m, 2 * m), (2 * m, dim))):
            self.group_mask[i, lo:hi] = 1.0

        # forms[0] target, forms[1] start; a row's Alice block sits at alpha
        # for state rows and at beta for transpose rows, its Bob block at f
        forms = np.zeros((2, rows, dim, dim), dtype=complex)
        forms[0, :r, :m, 2 * m:] = k_rows
        forms[0, r:, m:2 * m, 2 * m:] = kt_rows
        forms[1, :r, :m, 2 * m:] = e_k[:, :, None] * d_k[:, None, :]
        forms[1, r:, m:2 * m, 2 * m:] = e_kt[:, :, None] * d_kt[:, None, :]
        forms += forms.swapaxes(-1, -2)
        self.grad_tensor = forms.transpose(2, 0, 1, 3).reshape(dim, 2 * rows * dim)

    def evaluate(self, x: np.ndarray, t: np.ndarray, chart: np.ndarray | None = None):
        """H, its Jacobian in x and its t-derivative, batched over paths.

        ``chart`` holds each path's chart covector, a block per group (the
        last three rows of H are chart . x_g - 1); the fixed charts when None.
        """
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
        if chart is None:
            chart = self.chart
        jac = np.empty((p, dim, dim), dtype=complex)
        jac[:, :rows] = both[:, 0]
        jac[:, rows:] = chart[..., None, :] * self.group_mask
        h = np.empty((p, dim), dtype=complex)
        h[:, :rows] = values[:, 0]
        h[:, rows:] = (x * chart) @ self.group_mask.T - 1.0
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
        u, v, c = self.chart[:m], self.chart[m:2 * m], self.chart[2 * m:]
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

    def _newton(self, x, t, chart=None):
        h, jac, _ = self.evaluate(x, t, chart)
        dx = _batched_solve(jac, h)
        return x - dx, np.linalg.norm(dx, axis=1) / (1.0 + np.linalg.norm(x, axis=1))

    def _tangent(self, x, t, chart=None):
        _, jac, ht = self.evaluate(x, t, chart)
        return -_batched_solve(jac, ht)

    def _rechart(self, x, tangent):
        """Each group of x scaled to unit norm, and the tangent carried along.

        H is homogeneous in each group, so the scaled point is on the path,
        and the tangent divided by the group norm is a tangent there, in
        whatever chart it was taken.  In the new chart conj(x_g) . x_g = 1,
        which moves with the point, the tangent has no component along x_g.
        """
        scale = np.sqrt(np.abs(x) ** 2 @ self.group_mask.T) @ self.group_mask
        x, tangent = x / scale, tangent / scale
        along = (x.conj() * tangent) @ self.group_mask.T @ self.group_mask
        return x, tangent - along * x

    def track(self) -> tuple[np.ndarray, np.ndarray]:
        """Track every start root from t = 1 to t = 0.

        All paths advance together: an RK4 predictor along dx/dt, then
        three Newton corrections.  A step is accepted when the correction
        settles below TRACK_TOL and its first correction stays below
        TRACK_JUMP; otherwise the path's step halves.  Each path is tracked
        in its own moving charts: after an accepted step every group is
        scaled to unit norm and the next step corrects in the chart through
        that point, so no coordinate grows on the way, whatever the fixed
        charts make of the path.  The first correction measures the
        predictor error, which is O(h^5), so the next step aims it at
        STEP_AIM TRACK_JUMP.  The last correction's Jacobian also gives the
        tangent at the new point, the next step's first RK4 stage.

        The endpoints are scaled back to the fixed charts and refined by
        Newton at t = 0.  Returns them and a per-path flag: True for a
        finite nonsingular endpoint reached by no other path, False for a
        failed or singular path and for paths that met.
        """
        x = self.start_points()
        p = x.shape[0]
        t = np.ones(p)
        x, tangent = self._rechart(x, self._tangent(x, t))
        step = np.full(p, 0.05)
        active = np.ones(p, dtype=bool)
        failed = np.zeros(p, dtype=bool)
        for _ in range(MAX_STEPS):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            xa, ta, chart = x[idx], t[idx], x[idx].conj()
            dt = -np.minimum(step[idx], ta)
            half = ta + 0.5 * dt
            k1 = tangent[idx]
            k2 = self._tangent(xa + 0.5 * dt[:, None] * k1, half, chart)
            k3 = self._tangent(xa + 0.5 * dt[:, None] * k2, half, chart)
            k4 = self._tangent(xa + dt[:, None] * k3, ta + dt, chart)
            xn = xa + dt[:, None] / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tn = ta + dt
            xn, first = self._newton(xn, tn, chart)
            xn, _ = self._newton(xn, tn, chart)
            # the last correction and the tangent share one Jacobian
            h, jac, ht = self.evaluate(xn, tn, chart)
            both = _batched_solve(jac, np.stack([h, ht], axis=-1))
            size = np.linalg.norm(both[..., 0], axis=1) / (1.0 + np.linalg.norm(xn, axis=1))
            xn = xn - both[..., 0]
            ok = (size <= TRACK_TOL) & (first <= TRACK_JUMP) & np.all(np.isfinite(xn), axis=1)
            good, bad = idx[ok], idx[~ok]
            x[good], tangent[good] = self._rechart(xn[ok], -both[ok, :, 1])
            t[good] = tn[ok]
            with np.errstate(divide="ignore"):
                gain = (STEP_AIM * TRACK_JUMP / first[ok]) ** 0.2
            step[good] = np.minimum(step[good] * np.clip(gain, 0.5, 2.0), STEP_MAX)
            step[bad] *= 0.5
            failed[bad[step[bad] < STEP_MIN]] = True
            active = ~failed & (t > 0.0)
        failed |= t > 0.0

        x = x / ((x * self.chart) @ self.group_mask.T @ self.group_mask)
        zero = np.zeros(p)
        for _ in range(3):
            x, _ = self._newton(x, zero)
        _, jac, _ = self.evaluate(x, zero)
        svals = np.linalg.svd(jac, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = svals[:, 0] / svals[:, -1]
        regular = ~failed & np.all(np.isfinite(x), axis=1) & (cond < SINGULAR_COND)
        return x, _unshared(x, regular)


def _unshared(x: np.ndarray, regular: np.ndarray) -> np.ndarray:
    """``regular`` cleared on every pair of regular endpoints that meet.

    A nonsingular root ends one path only: two paths meeting there mean that
    one of them jumped, and the root it left may be missing.  Endpoints i < j
    meet when |x_i - x_j| <= 1e-8 (1 + |x_i|).
    """
    ends = np.flatnonzero(regular)
    pts = x[ends]
    near = (np.linalg.norm(pts[:, None] - pts[None], axis=-1)
            <= 1e-8 * (1.0 + np.linalg.norm(pts, axis=1))[:, None])
    near = np.triu(near, k=1)
    out = regular.copy()
    out[ends[near.any(axis=0) | near.any(axis=1)]] = False
    return out


def _batched_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """jac[i]^-1 rhs[i] for every path i; rhs holds one vector or columns.

    A path whose Jacobian is exactly singular gets NaN, so it alone fails
    its step test (or ends non-regular at t = 0).
    """
    cols = rhs if rhs.ndim == jac.ndim else rhs[..., None]
    try:
        out = np.linalg.solve(jac, cols)
    except np.linalg.LinAlgError:
        out = np.full(cols.shape, np.nan, dtype=complex)
        for i in range(len(jac)):
            try:
                out[i] = np.linalg.solve(jac[i], cols[i])
            except np.linalg.LinAlgError:
                pass
    return out if rhs.ndim == jac.ndim else out[..., 0]
