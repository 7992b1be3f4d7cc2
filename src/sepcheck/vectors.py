"""Enumeration of eligible product vectors.

A product vector can appear in a separable decomposition only if it lies in
the range of the state and its Alice-conjugated partner lies in the range of
the partial transpose.  Both conditions become orthogonality constraints
against the two kernels, collected in a matrix A(alpha, alpha*) whose rank
must drop below N.  Two solvers find the Alice parts alpha:

* Elimination.  Vanishing minors of A give polynomial equations in the
  Alice coordinates; iterated cross-multiplication reduces them to a single
  univariate polynomial whose roots are back-substituted.  This solves the
  single-kernel block systems (a kernel with at least N rows gives minors
  holomorphic in alpha or in alpha*) and the underdetermined coupled
  systems.
* Homotopy continuation.  When no block system applies and
  k + k_T >= 2M + N - 3, the bilinear system A(alpha, beta) f = 0 (beta
  standing in for alpha*) is square or overdetermined, M = 2 included.  It
  is squared by random row combinations and all of its multihomogeneous
  Bezout paths are tracked numerically; endpoints with beta = conj(alpha)
  are kept.

Either way the candidates are refined by Gauss-Newton on the bilinear
constraints, accepted when both row blocks of A(e) f, the two range
distances, are small, and deduplicated into the finite eligible set.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRowChoice, NonGeneric, RankSumTooHigh
from .numlin import DEFAULT_TOL, Tolerances, kernel_basis
from .state import BipartiteState, ProductVector, lift_vector, local_filter, partial_transpose, search_frame

__all__ = [
    "KernelData",
    "MultiPoly",
    "EligibleSet",
    "Elimination",
    "kernel_data",
    "constraint_matrix",
    "minor_polynomials",
    "eliminate",
    "back_substitute",
    "track_coupled",
    "enumerate_eligible",
]

# Relative size below which polynomial coefficients are treated as zero.
POLY_EPS = 1e-12
# Relative threshold against the pre-cancellation scale for deciding that a
# cross-multiplication eliminant vanished identically (non-generic system).
CANCEL_REL = 1e-9
# Lenient residual gate for intermediate root filtering; high-degree
# eliminants carry noise floors far above machine precision, so only
# egregiously wrong branches are cut here.  The final physical residual
# checks are the authoritative filter.
BRANCH_EPS = 3e-2
MAX_BRANCHES = 4096
# Step cap of the Gauss-Newton candidate polish; a candidate near an isolated
# root converges quadratically, in a few steps.
POLISH_STEPS = 8


# ---------------------------------------------------------------------------
# Kernel data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelData:
    """Orthonormal kernel bases with their Alice-block expansions.

    ``k_comps[i, m]`` is the Bob vector multiplying |m>_A in the i-th kernel
    vector of the state, ``kt_comps`` likewise for the partial transpose.
    The distance of a unit vector from either range is the norm of its
    coordinates along the matching kernel basis (see
    :func:`_accept_candidate`).
    """

    dim_a: int
    dim_b: int
    k_rho: np.ndarray        # (MN, k)
    k_rho_ta: np.ndarray     # (MN, kt)
    k_comps: np.ndarray      # (k, M, N)
    kt_comps: np.ndarray     # (kt, M, N)

    @property
    def k(self) -> int:
        return self.k_rho.shape[1]

    @property
    def kt(self) -> int:
        return self.k_rho_ta.shape[1]


def kernel_data(s: BipartiteState, tol: Tolerances = DEFAULT_TOL) -> KernelData:
    """Kernel bases of the state and its partial transpose, with components.

    Requires k(rho) + k(rho^T_A) >= M + N - 2, the regime in which the
    eligible-vector search applies; smaller kernels raise RankSumTooHigh.
    """
    m, n = s.dim_a, s.dim_b
    kr = kernel_basis(s.rho, tol)
    kt = kernel_basis(partial_transpose(s), tol)
    if kr.shape[1] + kt.shape[1] < m + n - 2:
        raise RankSumTooHigh(
            f"kernel dims {kr.shape[1]} + {kt.shape[1]} below {m + n - 2}")
    k_comps = kr.T.reshape(kr.shape[1], m, n)
    kt_comps = kt.T.reshape(kt.shape[1], m, n)
    return KernelData(m, n, kr, kt, k_comps, kt_comps)


def constraint_matrix(kd: KernelData, alpha) -> np.ndarray:
    """The stacked constraint matrix A(alpha, alpha*) acting on Bob vectors.

    Rows are sum_m alpha_m <k_i^m| for the state kernel and
    sum_m alpha_m* <kt_i^m| for the transposed kernel; a product vector with
    Alice part alpha exists iff this matrix is rank deficient, its Bob part
    spanning the kernel.
    """
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    if alpha.shape[0] != kd.dim_a:
        raise ValueError("alpha length must match Alice's dimension")
    rows = []
    if kd.k:
        rows.append(np.einsum("m,imn->in", alpha, kd.k_comps.conj()))
    if kd.kt:
        rows.append(np.einsum("m,imn->in", alpha.conj(), kd.kt_comps.conj()))
    if not rows:
        return np.zeros((0, kd.dim_b), dtype=complex)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over the paired variables
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial in the free Alice coordinates and their conjugates.

    With Alice dimension M and the normalisation alpha_1 = 1 baked in, slots
    0 .. M-2 hold alpha_2 .. alpha_M and slots M-1 .. 2M-3 their conjugate
    partners.  Terms map exponent tuples to complex coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for exp, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[tuple(exp)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        p = cls(nvars)
        c = complex(c)
        if c != 0:
            p.terms[(0,) * nvars] = c
        return p

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1.0})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        out = MultiPoly(self.nvars)
        out.terms = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.terms.get(exp, 0.0) + c
            if v == 0:
                out.terms.pop(exp, None)
            else:
                out.terms[exp] = v
        return out

    def __neg__(self):
        out = MultiPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            out = MultiPoly(self.nvars)
            c0 = complex(other)
            if c0 != 0:
                out.terms = {e: c * c0 for e, c in self.terms.items()}
            return out
        out = MultiPoly(self.nvars)
        acc: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc[exp] = acc.get(exp, 0.0) + c1 * c2
        out.terms = {e: c for e, c in acc.items() if c != 0}
        return out

    __rmul__ = __mul__

    # -- inspection ---------------------------------------------------------

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_zero(self, eps: float = 0.0) -> bool:
        return self.max_abs() <= eps

    def support(self) -> frozenset[int]:
        out = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    out.add(i)
        return frozenset(out)

    def degree_in(self, var: int) -> int:
        return max((exp[var] for exp in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(exp) for exp in self.terms), default=0)

    # -- transforms ----------------------------------------------------------

    def conj_pair(self) -> "MultiPoly":
        """Complex conjugation with the variable swap alpha_i <-> alpha_i*."""
        half = self.nvars // 2
        out = MultiPoly(self.nvars)
        for exp, c in self.terms.items():
            swapped = tuple(exp[half:]) + tuple(exp[:half])
            out.terms[swapped] = c.conjugate()
        return out

    def trimmed(self, rel_eps: float = POLY_EPS) -> "MultiPoly":
        m = self.max_abs()
        if m == 0.0:
            return MultiPoly(self.nvars)
        cut = rel_eps * m
        out = MultiPoly(self.nvars)
        out.terms = {e: c for e, c in self.terms.items() if abs(c) > cut}
        return out

    def normalized(self) -> "MultiPoly":
        m = self.max_abs()
        if m == 0.0:
            return MultiPoly(self.nvars)
        out = MultiPoly(self.nvars)
        out.terms = {e: c / m for e, c in self.terms.items()}
        return out

    def evaluate(self, values) -> complex:
        values = np.asarray(values, dtype=complex).reshape(-1)
        total = 0.0 + 0.0j
        for exp, c in self.terms.items():
            term = c
            for i, e in enumerate(exp):
                if e:
                    term *= values[i] ** e
            total += term
        return complex(total)

    def substitute(self, assignment: dict[int, complex]) -> "MultiPoly":
        """Partially evaluate the given variable slots."""
        out_terms: dict[tuple[int, ...], complex] = {}
        for exp, c in self.terms.items():
            val = c
            new_exp = list(exp)
            for var, value in assignment.items():
                e = exp[var]
                if e:
                    val *= value ** e
                new_exp[var] = 0
            key = tuple(new_exp)
            out_terms[key] = out_terms.get(key, 0.0) + val
        out = MultiPoly(self.nvars)
        out.terms = {e: c for e, c in out_terms.items() if c != 0}
        return out

    def univariate_coeffs(self, var: int) -> dict[int, "MultiPoly"]:
        """Coefficients as polynomials in the remaining variables."""
        out: dict[int, MultiPoly] = {}
        for exp, c in self.terms.items():
            d = exp[var]
            rest = list(exp)
            rest[var] = 0
            coeff = out.setdefault(d, MultiPoly(self.nvars))
            key = tuple(rest)
            coeff.terms[key] = coeff.terms.get(key, 0.0) + c
        return {d: p for d, p in out.items() if not p.is_zero()}

    def shift_down(self, var: int, amount: int = 1) -> "MultiPoly":
        """Divide by var^amount, assuming every term carries that power."""
        out = MultiPoly(self.nvars)
        for exp, c in self.terms.items():
            if exp[var] < amount:
                raise ValueError("polynomial is not divisible by the variable")
            new_exp = list(exp)
            new_exp[var] -= amount
            out.terms[tuple(new_exp)] = c
        return out

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, nterms={len(self.terms)}, deg={self.total_degree()})"


def _poly_det(rows: list[list[MultiPoly]], nvars: int) -> MultiPoly:
    """Determinant of a small matrix of polynomials by Leibniz expansion."""
    n = len(rows)
    det = MultiPoly(nvars)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity via inversion count
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        if inv % 2:
            sign = -1
        prod = MultiPoly.constant(nvars, sign)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        det = det + prod
    return det


# ---------------------------------------------------------------------------
# Symbolic constraint rows and minors
# ---------------------------------------------------------------------------

def _symbolic_rows(kd: KernelData, which: str) -> list[list[MultiPoly]]:
    """Rows of A as vectors of polynomials in the paired variables.

    ``which`` selects 'k' (state-kernel rows, linear in alpha), 'kt'
    (transpose-kernel rows, linear in alpha*) or 'both' in stacked order.
    """
    m, n = kd.dim_a, kd.dim_b
    nvars = 2 * (m - 1)
    rows: list[list[MultiPoly]] = []

    def _row(comps: np.ndarray, offset: int) -> list[MultiPoly]:
        entries = []
        for col in range(n):
            p = MultiPoly.constant(nvars, comps[0, col].conjugate())
            for mm in range(1, m):
                coeff = comps[mm, col].conjugate()
                if coeff != 0:
                    exp = [0] * nvars
                    exp[offset + mm - 1] = 1
                    p = p + MultiPoly(nvars, {tuple(exp): coeff})
            entries.append(p)
        return entries

    if which in ("k", "both"):
        for i in range(kd.k):
            rows.append(_row(kd.k_comps[i], 0))
    if which in ("kt", "both"):
        for i in range(kd.kt):
            rows.append(_row(kd.kt_comps[i], m - 1))
    return rows


def _minor_system(rows: list[list[MultiPoly]], n: int, nvars: int,
                  rng: np.random.Generator | None = None) -> list[MultiPoly]:
    """All N x N minors built from a base of N-1 rows plus each remaining row.

    The base is the first N-1 rows; if those are identically dependent as
    polynomial rows (checked at random numeric probes), the row order is
    rotated before giving up with DegenerateRowChoice.
    """
    total = len(rows)
    if total < n:
        raise DegenerateRowChoice(f"need at least {n} rows, have {total}")
    rng = rng or np.random.default_rng(0)

    def _base_ok(order: list[int]) -> bool:
        for _ in range(3):
            z = rng.normal(size=nvars // 2) + 1j * rng.normal(size=nvars // 2)
            values = np.concatenate([z, z.conj()])
            numeric = np.array([
                [rows[r][c].evaluate(values) for c in range(n)] for r in order[:n - 1]
            ])
            if np.linalg.matrix_rank(numeric, tol=1e-10) == n - 1:
                return True
        return False

    orders = [list(range(total))]
    for shift in range(1, total):
        orders.append(list(range(shift, total)) + list(range(shift)))
    for order in orders:
        if not _base_ok(order):
            continue
        base = [rows[r] for r in order[:n - 1]]
        minors = []
        for r in order[n - 1:]:
            det = _poly_det(base + [rows[r]], nvars).trimmed()
            if not det.is_zero(POLY_EPS):
                minors.append(det.normalized())
        if minors:
            return minors
    raise DegenerateRowChoice("every base-row choice is identically dependent")


def minor_polynomials(kd: KernelData, rng: np.random.Generator | None = None) -> list[MultiPoly]:
    """Vanishing-minor polynomials of A plus their conjugate partners.

    Uses the first N-1 stacked rows as the base and all remaining rows as
    final rows (over-determination sharpens the root filtering); the
    conjugates, inequivalent under the variable pairing, double the system.
    """
    rows = _symbolic_rows(kd, "both")
    nvars = 2 * (kd.dim_a - 1)
    minors = _minor_system(rows, kd.dim_b, nvars, rng)
    return minors + [p.conj_pair() for p in minors]


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

@dataclass
class Stage:
    """Polynomials consumed while eliminating one variable; they solve it
    during back-substitution once the later variables are known."""

    var: int
    solvers: list[MultiPoly]


@dataclass
class Elimination:
    """Terminal univariate polynomial plus the back-substitution chain."""

    terminal_var: int
    terminal: MultiPoly | None
    filters: list[MultiPoly] = field(default_factory=list)
    chain: list[Stage] = field(default_factory=list)
    inconsistent: bool = False

    @property
    def degree_bound(self) -> int:
        if self.inconsistent or self.terminal is None:
            return 0
        return self.terminal.degree_in(self.terminal_var)


def _cross(a: MultiPoly, pa: MultiPoly, b: MultiPoly, pb: MultiPoly) -> MultiPoly | None:
    """a*pa - b*pb, or None when the difference cancels to numerical zero.

    The zero test compares against the pre-cancellation product scale, so a
    difference made purely of rounding noise is recognized as an identically
    vanishing eliminant instead of being renormalized into garbage.
    """
    left = a * pa
    right = b * pb
    scale = max(left.max_abs(), right.max_abs())
    diff = (left - right).trimmed()
    if scale == 0.0 or diff.max_abs() <= CANCEL_REL * scale:
        return None
    return diff


def _pair_eliminant(p: MultiPoly, q: MultiPoly, var: int, max_steps: int = 200) -> MultiPoly:
    """A polynomial free of ``var`` vanishing on all common roots of p and q.

    Equal degrees are reduced symmetrically: the leading-coefficient cross
    product kills the top power while the trailing-coefficient cross product
    (divided by the variable) kills the bottom one, so both degrees fall by
    one per round.  Unequal degrees take a pseudo-division step.  A pair
    that cancels to zero signals a non-generic system.
    """
    p = p.normalized().trimmed()
    q = q.normalized().trimmed()
    for _ in range(max_steps):
        dp = p.degree_in(var)
        dq = q.degree_in(var)
        if dp == 0 and not p.is_zero(POLY_EPS):
            return p
        if dq == 0 and not q.is_zero(POLY_EPS):
            return q
        if p.is_zero(POLY_EPS) or q.is_zero(POLY_EPS):
            raise NonGeneric("eliminant vanished identically")
        if dp < dq:
            p, q, dp, dq = q, p, dq, dp
        cp = p.univariate_coeffs(var)
        cq = q.univariate_coeffs(var)
        if dp == dq:
            lead = _cross(cq[dq], p, cp[dp], q)
            tp = cp.get(0)
            tq = cq.get(0)
            trail = None
            if tp is not None and tq is not None:
                diff = _cross(tq, p, tp, q)
                if diff is not None and min(
                    (exp[var] for exp in diff.terms), default=0
                ) >= 1:
                    trail = diff.shift_down(var).trimmed().normalized()
            if lead is not None:
                lead = lead.normalized()
            if trail is not None and lead is not None:
                p, q = lead, trail
            elif lead is not None:
                p, q = q, lead
            elif trail is not None:
                p, q = q, trail
            else:
                raise NonGeneric("cross-multiplication cancelled identically")
        else:
            shift_exp = [0] * q.nvars
            shift_exp[var] = dp - dq
            shifted = q * MultiPoly(q.nvars, {tuple(shift_exp): 1.0})
            reduced = _cross(cq[dq], p, cp[dp], shifted)
            if reduced is None:
                raise NonGeneric("pseudo-division step cancelled identically")
            p = reduced.normalized()
    raise NonGeneric("pair elimination did not terminate")


def eliminate(system: list[MultiPoly], tol: Tolerances = DEFAULT_TOL) -> Elimination:
    """Triangularize a polynomial system down to one terminal variable.

    Variables are consumed in ascending slot order; at each step, every
    polynomial touching the variable is paired against the lowest-degree one
    and replaced by eliminants free of it, while the consumed polynomials
    become the variable's solvers for back-substitution.  Raises NonGeneric
    when a variable is unconstrained or an eliminant vanishes identically.
    """
    polys = [p.normalized().trimmed() for p in system]
    polys = [p for p in polys if not p.is_zero(POLY_EPS)]
    if not polys:
        raise NonGeneric("the polynomial system vanishes identically")

    def _active(ps):
        out = set()
        for p in ps:
            out |= p.support()
        return out

    # A nonzero constant equation is unsatisfiable: empty solution set.
    def _inconsistent(ps):
        return any(not p.support() and not p.is_zero(POLY_EPS) for p in ps)

    chain: list[Stage] = []
    while True:
        if _inconsistent(polys):
            return Elimination(-1, None, [], chain, inconsistent=True)
        active = _active(polys)
        if len(active) == 0:
            # Everything reduced to (numerically) zero constants.
            raise NonGeneric("system collapsed to identical zeros")
        if len(active) == 1:
            break
        terminal_candidate = max(active)
        var = min(v for v in active if v != terminal_candidate)
        touching = [p for p in polys if var in p.support()]
        rest = [p for p in polys if var not in p.support()]
        if not touching:
            raise NonGeneric(f"variable slot {var} is unconstrained")
        if len(touching) == 1:
            chain.append(Stage(var, touching))
            polys = rest
            if not polys:
                raise NonGeneric("system is under-determined")
            continue
        touching.sort(key=lambda p: (p.degree_in(var), len(p.terms)))
        base = touching[0]
        # Enough eliminants to keep the remaining variables determined; the
        # full pairwise set grows quadratically in size and noise without
        # adding information the physical filters would not recover.
        cap = len(active) + 1
        eliminants = []
        for other in touching[1:1 + cap]:
            e = _pair_eliminant(base, other, var)
            if e.is_zero(POLY_EPS):
                raise NonGeneric("eliminant vanished identically")
            eliminants.append(e.normalized().trimmed())
        chain.append(Stage(var, touching))
        polys = rest + eliminants

    terminal_var = next(iter(_active(polys)))
    with_var = [p for p in polys if terminal_var in p.support()]
    constants = [p for p in polys if terminal_var not in p.support()]
    if any(not c.is_zero(POLY_EPS) for c in constants):
        return Elimination(-1, None, [], chain, inconsistent=True)
    with_var.sort(key=lambda p: p.degree_in(terminal_var))
    terminal = with_var[0]
    filters = with_var[1:]
    return Elimination(terminal_var, terminal, filters, chain)


def _univar_roots(p: MultiPoly, var: int) -> np.ndarray:
    """Roots of a univariate polynomial slice via the companion matrix."""
    coeffs_by_deg = {}
    for exp, c in p.terms.items():
        coeffs_by_deg[exp[var]] = coeffs_by_deg.get(exp[var], 0.0) + c
    deg = max(coeffs_by_deg, default=0)
    vec = np.zeros(deg + 1, dtype=complex)
    for d, c in coeffs_by_deg.items():
        vec[deg - d] = c
    # trim negligible leading coefficients before building the companion
    mx = np.max(np.abs(vec))
    if mx == 0.0:
        return np.array([], dtype=complex)
    lead = 0
    while lead < deg and abs(vec[lead]) <= POLY_EPS * mx:
        lead += 1
    vec = vec[lead:]
    if vec.size <= 1:
        return np.array([], dtype=complex)
    return np.roots(vec)


def back_substitute(elim: Elimination, tol: Tolerances = DEFAULT_TOL) -> tuple[list[dict[int, complex]], bool]:
    """All variable assignments compatible with the elimination chain.

    Returns the assignments and a completeness flag; the flag drops when a
    degenerate branch (all solvers vanishing under a partial assignment) had
    to be discarded.  Filtering here is deliberately lenient: the physical
    residual tests downstream are the authoritative gate.
    """
    if elim.inconsistent:
        return [], True
    complete = True
    roots = _univar_roots(elim.terminal, elim.terminal_var)
    assignments: list[dict[int, complex]] = []
    for r in roots:
        ok = True
        for flt in elim.filters:
            val = abs(flt.normalized().evaluate(_dense_values(flt.nvars, {elim.terminal_var: r})))
            bound = BRANCH_EPS * max(1.0, abs(r)) ** max(1, flt.degree_in(elim.terminal_var))
            if val > bound:
                ok = False
                break
        if ok:
            assignments.append({elim.terminal_var: complex(r)})

    for stage in reversed(elim.chain):
        new_assignments: list[dict[int, complex]] = []
        for asg in assignments:
            subs = [p.substitute(asg).trimmed() for p in stage.solvers]
            subs = [p for p in subs if not p.is_zero(POLY_EPS * 10)]
            candidates = [p for p in subs if stage.var in p.support()]
            if not candidates:
                # Solvers vanished: the variable is undetermined along this
                # branch; drop it but report incompleteness.
                complete = False
                continue
            candidates.sort(key=lambda p: p.degree_in(stage.var))
            base = candidates[0]
            branch_roots = _univar_roots(base.normalized(), stage.var)
            for r in branch_roots:
                ok = True
                for other in candidates[1:]:
                    val = abs(other.normalized().evaluate(
                        _dense_values(other.nvars, {**asg, stage.var: r})))
                    bound = BRANCH_EPS * max(1.0, abs(r)) ** max(1, other.degree_in(stage.var))
                    if val > bound:
                        ok = False
                        break
                if ok:
                    new = dict(asg)
                    new[stage.var] = complex(r)
                    new_assignments.append(new)
        if len(new_assignments) > MAX_BRANCHES:
            raise NonGeneric("back-substitution branch count exploded")
        assignments = new_assignments
    return assignments, complete


def _dense_values(nvars: int, assignment: dict[int, complex]) -> np.ndarray:
    out = np.zeros(nvars, dtype=complex)
    for k, v in assignment.items():
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# The coupled system by homotopy continuation
# ---------------------------------------------------------------------------

def _square_split(k: int, kt: int, m: int, n: int) -> tuple[int, int] | None:
    """Rows kept per kernel block for a square bilinear system.

    The unknowns are alpha and beta in P^{M-1} and f in P^{N-1}, so a square
    system takes k' + kt' = 2M + N - 3 rows with k', kt' >= M - 1 (fewer rows
    in a block leave its Alice variable a continuum).  Among the admissible
    splits the one with the fewest multihomogeneous Bezout paths
    C(k', M-1) C(kt', M-1) wins; None when no split exists.
    """
    need = 2 * m + n - 3
    best = None
    for kk in range(m - 1, k + 1):
        kkt = need - kk
        if m - 1 <= kkt <= kt:
            paths = math.comb(kk, m - 1) * math.comb(kkt, m - 1)
            if best is None or paths < best[0]:
                best = (paths, kk, kkt)
    return None if best is None else (best[1], best[2])


def track_coupled(kd: KernelData, split: tuple[int, int], rng: np.random.Generator,
                  tol: Tolerances = DEFAULT_TOL) -> tuple[list[np.ndarray], bool, int]:
    """Alice candidates of the coupled system by homotopy continuation.

    Each kernel block is squared to its ``split`` row count by random
    combinations, the square system is path-tracked, and the endpoints are
    kept when beta = conj(alpha); every row, the unsquared ones included, is
    tested after the polish (see :func:`_accept_candidate`).
    Returns the candidates (first coordinate one), the completeness flag
    (every path reached a finite nonsingular endpoint of its own) and the
    path count.
    """
    from .homotopy import BilinearHomotopy

    def _squared(comps: np.ndarray, rows: int) -> np.ndarray:
        g = rng.normal(size=(comps.shape[0], rows)) + 1j * rng.normal(size=(comps.shape[0], rows))
        mix = np.linalg.qr(g)[0].T
        return np.einsum("ji,imn->jmn", mix, comps.conj())

    hom = BilinearHomotopy(_squared(kd.k_comps, split[0]), _squared(kd.kt_comps, split[1]), rng)
    x, regular = hom.track()
    m = kd.dim_a
    candidates = []
    for point in x:
        a, b, f = point[:m], point[m:2 * m], point[2 * m:]
        if not np.all(np.isfinite(point)) or a[0] == 0 or b[0] == 0:
            continue
        alpha, beta = a / a[0], b / b[0]
        if np.linalg.norm(beta - alpha.conj()) > tol.root_abs * np.linalg.norm(alpha):
            continue
        candidates.append(alpha)
    return candidates, bool(np.all(regular)), len(x)


# ---------------------------------------------------------------------------
# Eligible set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EligibleSet:
    """Product vectors compatible with both range constraints.

    On the elimination path (block systems, underdetermined coupled
    systems) ``exhaustive`` is True when the elimination certified a
    finite, complete candidate set, and ``degree_bound`` bounds how many
    candidates the terminal polynomial can produce.  On the path-tracked
    path (square or overdetermined coupled systems, any M) ``exhaustive``
    is True when every path is accounted for: each ended at a finite
    nonsingular point that no other path reached.  ``degree_bound`` is then
    the number of paths, which bounds the number of isolated solutions.
    """

    vectors: tuple[ProductVector, ...]
    exhaustive: bool
    degree_bound: int


def _polish_alpha(kd: KernelData, alpha: np.ndarray, svals: np.ndarray,
                  vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A candidate alpha and its Bob part f, refined by Gauss-Newton.

    The state-kernel rows alpha^T conj(K_i) f are bilinear in (alpha, f) and
    the conjugated transposed-kernel rows alpha^T L_j conj(f) in
    (alpha, conj f), so the residual is real-differentiable in the free
    coordinates.  alpha_1 is pinned to one and f to the chart c.f = 1, with
    c = conj(f_0) and f_0 the smallest right singular vector of A at the
    start; each step is then one real least-squares solve, and an isolated
    root is reached quadratically.  The best iterate is kept: iteration
    stops when the relative residual stops falling, reaches 1e-15 of the
    row scale, or after POLISH_STEPS steps.  ``svals`` and ``vh`` are the
    singular values and right singular vectors of A at the start.
    """
    alpha = np.asarray(alpha, dtype=complex).reshape(-1).copy()
    m, n = kd.dim_a, kd.dim_b
    f = vh[-1].conj()
    chart = f.conj()
    floor = 1e-15 * float(svals[0]) / np.linalg.norm(alpha)
    kc, lt = kd.k_comps.conj(), kd.kt_comps
    k, kt = kd.k, kd.kt
    jac = np.zeros((k + kt + 1, m - 1 + n), dtype=complex)   # d/d(alpha, f)
    jac_bar = np.zeros_like(jac)                             # d/d conj(f)
    jac[-1, m - 1:] = chart
    best, best_res = (alpha, f), np.inf
    for step in range(POLISH_STEPS + 1):
        ka, la = alpha @ kc, alpha @ lt
        r = np.concatenate([ka @ f, la @ f.conj(), [chart @ f - 1.0]])
        res = np.linalg.norm(r[:-1]) / (np.linalg.norm(alpha) * np.linalg.norm(f))
        if not res < best_res:
            break
        best, best_res = (alpha, f), res
        if res <= floor or step == POLISH_STEPS:
            break
        jac[:k, :m - 1] = (kc @ f)[:, 1:]
        jac[:k, m - 1:] = ka
        jac[k:k + kt, :m - 1] = (lt @ f.conj())[:, 1:]
        jac_bar[k:k + kt, m - 1:] = la
        p, q = jac + jac_bar, jac - jac_bar
        real = np.block([[p.real, -q.imag], [p.imag, q.real]])
        sol, *_ = np.linalg.lstsq(real, -np.concatenate([r.real, r.imag]), rcond=None)
        dz = sol[:m - 1 + n] + 1j * sol[m - 1 + n:]
        alpha = np.concatenate([[1.0 + 0.0j], alpha[1:] + dz[:m - 1]])
        f = f + dz[m - 1:]
    return best


def _accept_candidate(
    kd: KernelData, alpha: np.ndarray, f: np.ndarray, tol: Tolerances
) -> tuple[ProductVector, float] | None:
    """The unit product vector e x f and its ranking key max|A(e) f|, or None.

    The row blocks of A(e) f have the norms dist(e x f, R(rho)) and
    dist(conj(e) x f, R(rho^T_A)); both must be within ``root_abs``.
    """
    e = alpha / np.linalg.norm(alpha)
    fn = f / np.linalg.norm(f)
    res = constraint_matrix(kd, e) @ fn
    if max(np.linalg.norm(res[:kd.k]), np.linalg.norm(res[kd.k:])) > tol.root_abs:
        return None
    return ProductVector(e, fn), float(np.max(np.abs(res), initial=0.0))


def _dedupe(vectors: list[ProductVector], tol: Tolerances) -> list[ProductVector]:
    kept: list[ProductVector] = []
    for pv in vectors:
        duplicate = False
        for other in kept:
            overlap = abs(np.vdot(other.e, pv.e)) * abs(np.vdot(other.f, pv.f))
            if overlap >= 1.0 - max(tol.root_abs, 1e-9):
                duplicate = True
                break
        if not duplicate:
            kept.append(pv)
    return kept


class _Candidates:
    """Alice starts, each clustered, screened and polished once, in arrival order.

    Near-identical starts are clustered and hopeless ones dropped before the
    (comparatively expensive) polish: true roots make the constraint matrix
    strongly rank deficient already at the unpolished start.  The screen's
    SVD also gives the polish its first Bob part.
    """

    def __init__(self, kd: KernelData, tol: Tolerances, q: np.ndarray,
                 isometries: tuple[np.ndarray, np.ndarray]):
        self.kd, self.tol, self.q, self.isometries = kd, tol, q, isometries
        self.starts: list[np.ndarray] = []
        self.accepted: list[tuple[float, ProductVector]] = []

    def add(self, raw: list[np.ndarray]) -> None:
        for alpha in raw:
            if any(np.linalg.norm(alpha - seen) < 1e-8 * max(1.0, np.linalg.norm(seen))
                   for seen in self.starts):
                continue
            _, svals, vh = np.linalg.svd(constraint_matrix(self.kd, alpha))
            if svals[0] > 0 and svals[-1] / svals[0] > 0.05:
                continue
            self.starts.append(alpha)
            hit = _accept_candidate(self.kd, *_polish_alpha(self.kd, alpha, svals, vh),
                                    self.tol)
            if hit is not None:
                pv, res = hit
                self.accepted.append((res, pv))

    def eligible(self, exhaustive: bool, degree_bound: int) -> EligibleSet:
        # keep the best-polished representative of each duplicate cluster,
        # then undo the Alice rotation q and lift out of the search frame
        ranked = sorted(self.accepted, key=lambda t: t[0])
        found = _dedupe([pv for _, pv in ranked], self.tol)
        restored = tuple(lift_vector(ProductVector(self.q @ pv.e, pv.f), *self.isometries)
                         for pv in found)
        return EligibleSet(restored, exhaustive=exhaustive, degree_bound=degree_bound)


def _alphas(assignments: list[dict[int, complex]], m: int) -> list[np.ndarray]:
    """Alice vectors (first coordinate one) of back-substituted assignments."""
    raw = []
    for asg in assignments:
        alpha = np.ones(m, dtype=complex)
        for slot in range(m - 1):
            alpha[slot + 1] = asg.get(slot, np.conj(asg.get(m - 1 + slot, 0.0)))
        raw.append(alpha)
    return raw


def enumerate_eligible(
    s: BipartiteState, tol: Tolerances = DEFAULT_TOL, seed=0,
    stop: Callable[[EligibleSet], bool] | None = None,
) -> EligibleSet:
    """The finite set of product vectors compatible with both ranges.

    Any state is taken.  The search runs in the :func:`state.search_frame`
    of ``s``, its supported space with Alice on the smaller side, where the
    paper states the system; every vector it returns, and every vector it
    hands to ``stop``, is carried back by :func:`state.lift_vector` to the
    party order and space of ``s``.

    A seeded random Alice rotation first makes every sought vector generic
    in the computational basis (nonzero first coordinate).  Each kernel
    large enough to pin the Alice coordinates on its own provides a
    holomorphic minor system, solved by elimination; with two such kernels
    the set is the union of both systems' vectors.  Otherwise the coupled
    system links the coordinates with their conjugates: with
    k + k_T >= 2M + N - 3 it is square or overdetermined and is solved by
    homotopy continuation (see :func:`track_coupled`), for M = 2 as for
    larger M; when it is underdetermined its minors are eliminated jointly.
    Before tracking, A is checked at one random alpha: rank below N there
    means rank below N at every alpha, a continuum of product vectors, and
    raises NonGeneric.  Candidates are refined by Gauss-Newton (see
    :func:`_polish_alpha`), accepted on their two range distances (see
    :func:`_accept_candidate`) and deduplicated up to phase.  All random
    draws come from ``seed``, so reruns are identical.

    ``stop``, when given, sees the first block system's set, in the frame
    of ``s``, whenever a second block system is still to be solved; if it
    returns True that set is returned as is, and the second system is
    never built.  The random draws are taken in the same order either way,
    so a search that goes on returns the same union as one without
    ``stop``.
    """
    rng = np.random.default_rng(seed)
    sf, isometries = search_frame(s, tol)
    m, n = sf.dim_a, sf.dim_b

    if m == 1:
        # on a scalar Alice side every range vector is a product vector, so
        # the set is finite only on a one-dimensional support
        if n > 1:
            raise NonGeneric("scalar Alice side with rank > 1 has a continuum of product vectors")
        one = ProductVector(np.ones(1, dtype=complex), np.ones(1, dtype=complex))
        return EligibleSet((lift_vector(one, *isometries),), exhaustive=True, degree_bound=1)

    from .fixtures import haar_unitary

    q = haar_unitary(m, rng)
    srot = local_filter(sf, "A", q.conj().T)
    kd = kernel_data(srot, tol)
    nvars = 2 * (m - 1)
    candidates = _Candidates(kd, tol, q, isometries)

    # Prefer equations in the alpha coordinates alone: whenever a kernel
    # block has at least N rows its vanishing minors are holomorphic in one
    # half of the variables (the transposed block after conjugate pairing),
    # which keeps the elimination cascade shallow.  Every block system is
    # complete on its own; the second one matters only when the first loses
    # a root to coefficient noise, so it is solved after the first one's
    # vectors have gone to ``stop``, and its candidates join the first's.
    # The coupled system is the fallback: path-tracked when it is square or
    # overdetermined (its elimination loses roots to coefficient noise for
    # M >= 3, and its Leibniz minors dominate the cost for M = 2), eliminated
    # otherwise.  Systems are capped at two equations beyond the unknown
    # count; dropped minors stay enforced through the physical filters.
    cap = (m - 1) + 2
    completes: list[bool] = []
    bounds: list[int] = []
    for which in [w for w, rows in (("k", kd.k), ("kt", kd.kt)) if rows >= n]:
        if completes and stop is not None:
            first = candidates.eligible(completes[0], bounds[0])
            if stop(first):
                return first
        side = _minor_system(_symbolic_rows(kd, which), n, nvars, rng)
        if which == "kt":
            side = [p.conj_pair() for p in side]
        if len(side) < m - 1:
            continue
        side.sort(key=lambda p: len(p.terms))
        try:
            elim = eliminate(side[:cap], tol)
            assignments, comp = back_substitute(elim, tol)
        except NonGeneric:
            continue
        candidates.add(_alphas(assignments, m))
        completes.append(comp)
        bounds.append(elim.degree_bound)

    split = None if completes else _square_split(kd.k, kd.kt, m, n)
    if completes:
        complete = any(completes)
        degree_bound = min(bounds)
    elif split is not None:
        # rank below N at a generic alpha means rank below N at every alpha:
        # each alpha has a product vector, a continuum no path count covers
        probe = rng.normal(size=m) + 1j * rng.normal(size=m)
        svals = np.linalg.svd(constraint_matrix(kd, probe), compute_uv=False)
        if svals[-1] <= tol.rank_rel * svals[0]:
            raise NonGeneric("the constraint matrix is rank deficient at a generic alpha: "
                             "the product vectors form a continuum")
        raw, complete, degree_bound = track_coupled(kd, split, rng, tol)
        candidates.add(raw)
    else:
        system = minor_polynomials(kd, rng)
        elim = eliminate(system, tol)
        assignments, complete = back_substitute(elim, tol)
        degree_bound = elim.degree_bound
        candidates.add(_alphas(assignments, m))
    return candidates.eligible(complete, degree_bound)

