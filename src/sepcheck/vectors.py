"""Enumeration of eligible product vectors.

A product vector can appear in a separable decomposition only if it lies in
the range of the state and its Alice-conjugated partner lies in the range of
the partial transpose.  Both conditions become orthogonality constraints
against the two kernels, collected in a matrix A(alpha, alpha*) whose rank
must drop below N.  Its rows are a numeric linear pencil in the Alice
coordinates and their conjugates, and its N x N minors, the polynomial
equations, are interpolated exactly from batched numeric determinants at
roots of unity by one inverse DFT.  Three solvers find the Alice parts alpha:

* One resultant.  A kernel with at least M + N - 2 rows gives at least
  M - 1 vanishing minors of A holomorphic in alpha (or in alpha*), a block
  system; one such system is solved per search.  With two unknowns
  (M = 3, or the underdetermined M = 2 coupled system in alpha_2 and its
  conjugate) the Sylvester resultant of its two sparsest minors, a
  polynomial of degree at most N^2 in one coordinate, gives every root,
  and each root's other coordinate follows from the minors themselves, by
  one stacked companion eigensolve per base degree.  With one unknown
  (the M = 2 block systems) that eigensolve alone gives the roots.
* Elimination.  Iterated cross-multiplication of sparse polynomials
  reduces the minors to a single univariate polynomial; its roots, and
  then each eliminated coordinate at every branch at once, come from the
  resultant's root step.  This solves the systems in three or more
  unknowns: the block systems for M >= 4 and the underdetermined coupled
  systems for M >= 3.
* Homotopy continuation.  When no block system applies and
  k + k_T >= 2M + N - 3, the bilinear system A(alpha, beta) f = 0 (beta
  standing in for alpha*) is square or overdetermined, M = 2 included.  It
  is squared by random row combinations and all of its multihomogeneous
  Bezout paths are tracked numerically, and the Alice part of every
  finite endpoint is a candidate.

Whatever the solver, its candidates are screened by one stacked SVD,
refined together by Gauss-Newton on the bilinear constraints, accepted when
both row blocks of A(e) f, the two range distances, are small, and
deduplicated into the finite eligible set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonGeneric, RankSumTooHigh
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
# Relative residual at which the polish stops a candidate (see _polish_alpha).
POLISH_FLOOR = 1e-13


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
    spanning the kernel.  A stack of Alice vectors, shape (..., M), gives
    the stack of their matrices, shape (..., k + kt, N).
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape[-1:] != (kd.dim_a,):
        raise ValueError("alpha length must match Alice's dimension")
    return np.concatenate([np.einsum("...m,imn->...in", alpha, kd.k_comps.conj()),
                           np.einsum("...m,imn->...in", alpha.conj(), kd.kt_comps.conj())],
                          axis=-2)


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


# ---------------------------------------------------------------------------
# Constraint rows and their minors
# ---------------------------------------------------------------------------

def _symbolic_rows(kd: KernelData, which: str) -> np.ndarray:
    """Rows of A as a linear pencil in the paired variables.

    ``which`` selects 'k' (state-kernel rows, linear in alpha), 'kt'
    (transpose-kernel rows, linear in alpha*) or 'both' in stacked order.
    The result has shape (rows, 1 + nvars, N): ``rows[r, 0]`` is row r's
    constant part and ``rows[r, 1 + v]`` its coefficient of variable slot v,
    so row r at the slot values x is ``rows[r, 0] + x @ rows[r, 1:]``.
    """
    m, n = kd.dim_a, kd.dim_b
    parts = []
    for comps, offset, name in ((kd.k_comps, 0, "k"), (kd.kt_comps, m - 1, "kt")):
        if which in (name, "both"):
            part = np.zeros((comps.shape[0], 2 * m - 1, n), dtype=complex)
            part[:, 0] = comps[:, 0].conj()
            part[:, 1 + offset:m + offset] = comps[:, 1:].conj()
            parts.append(part)
    return np.concatenate(parts)


def _minor_system(rows: np.ndarray, n: int, nvars: int,
                  rng: np.random.Generator | None = None) -> list[MultiPoly]:
    """All N x N minors built from a base of N-1 rows plus each remaining row.

    ``rows`` is a pencil from :func:`_symbolic_rows`, and the base is its
    first N-1 rows.  A base that is rank deficient at three random numeric
    probes is identically dependent, and a base whose minors all vanish
    gives no equation; either raises NonGeneric.  The minors come from
    :func:`_interpolated_minors`.
    """
    if len(rows) < n:
        raise NonGeneric(f"need at least {n} rows, have {len(rows)}")
    rng = rng or np.random.default_rng(0)
    base = rows[:n - 1]
    for _ in range(3):
        z = rng.normal(size=nvars // 2) + 1j * rng.normal(size=nvars // 2)
        numeric = base[:, 0] + np.einsum("v,rvc->rc", np.concatenate([z, z.conj()]), base[:, 1:])
        if np.linalg.matrix_rank(numeric, tol=1e-10) == n - 1:
            break
    else:
        raise NonGeneric("the base rows are identically dependent")
    minors = _interpolated_minors(rows, n, nvars)
    if not minors:
        raise NonGeneric("the rows are identically dependent: every minor vanishes")
    return minors


def _interpolated_minors(rows: np.ndarray, n: int, nvars: int) -> list[MultiPoly]:
    """The minors of the first N-1 pencil rows with each later row, trimmed
    and normalized, the identically vanishing ones left out.

    Each minor has degree at most N in each variable slot and total degree
    at most N, so its coefficients follow exactly from its values on the
    tensor grid of (N+1)-th roots of unity over the slots the rows involve:
    one batched determinant gives every minor there, and one inverse DFT
    interpolates them.
    """
    active = np.flatnonzero(np.any(rows[:, 1:] != 0, axis=(0, 2)))
    size = n + 1
    powers = np.array(list(itertools.product(range(size), repeat=active.size)),
                      dtype=int).reshape(-1, active.size)
    at_grid = rows[:, None, 0] + np.einsum("ga,rac->rgc", np.exp(-2j * np.pi * powers / size),
                                           rows[:, 1 + active])
    finals = at_grid[n - 1:, :, None]
    base = np.broadcast_to(at_grid[:n - 1].swapaxes(0, 1), finals.shape[:2] + (n - 1, n))
    dets = np.linalg.det(np.concatenate([base, finals], axis=2))
    coeffs = np.fft.ifftn(dets.reshape((-1,) + (size,) * active.size),
                          axes=range(1, 1 + active.size)).reshape(len(dets), -1)
    exps = np.zeros((len(powers), nvars), dtype=int)
    exps[:, active] = powers
    minors = []
    for c in np.where(powers.sum(axis=1) <= n, coeffs, 0):
        top = np.max(np.abs(c))
        if top <= POLY_EPS:
            continue
        keep = np.abs(c) > POLY_EPS * top
        poly = MultiPoly(nvars)
        poly.terms = dict(zip(map(tuple, exps[keep].tolist()), (c[keep] / top).tolist()))
        minors.append(poly)
    return minors


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


def eliminate(system: list[MultiPoly]) -> Elimination:
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


def _coefficients_in(polys: list[MultiPoly], var: int, values: np.ndarray) -> np.ndarray:
    """Ascending coefficients in slot ``var`` of each polynomial, with the
    other slots set to each row of ``values``: shape (polys, width, rows)."""
    out = np.zeros((len(polys), 1 + max(p.degree_in(var) for p in polys), len(values)), dtype=complex)
    for t, p in enumerate(polys):
        exps = np.array(list(p.terms))
        rest = exps * (np.arange(p.nvars) != var)
        monos = np.prod(values[:, None] ** rest, axis=2) * np.array(list(p.terms.values()))
        np.add.at(out[t], exps[:, var], monos.T)
    return out


def back_substitute(elim: Elimination) -> tuple[list[dict[int, complex]], bool]:
    """All variable assignments compatible with the elimination chain.

    The terminal polynomial and the filters give the terminal variable's
    roots, and each stage, latest first, solves its variable at every
    assignment so far; both steps are the resultant's root step (see
    :func:`_branch_roots`), with the solvers' coefficients evaluated at
    every assignment at once.  Returns the assignments and a completeness
    flag that drops when every solver of a stage vanishes under an
    assignment, leaving its variable undetermined.  Filtering here is
    deliberately lenient: the physical residual tests downstream are the
    authoritative gate.
    """
    if elim.inconsistent:
        return [], True
    stages = [Stage(elim.terminal_var, [elim.terminal] + elim.filters)] + elim.chain[::-1]
    values = np.zeros((1, elim.terminal.nvars), dtype=complex)
    complete = True
    for stage in stages:
        roots, ok, _ = _branch_roots(_coefficients_in(stage.solvers, stage.var, values))
        complete &= ok
        values = np.repeat(values, [len(r) for r in roots], axis=0)
        values[:, stage.var] = np.concatenate([np.zeros(0, dtype=complex), *roots])
        if len(values) > MAX_BRANCHES:
            raise NonGeneric("back-substitution branch count exploded")
    return [{s.var: complex(row[s.var]) for s in stages} for row in values], complete


# ---------------------------------------------------------------------------
# One or two unknowns by one resultant
# ---------------------------------------------------------------------------

def _trim_leading(vec: np.ndarray) -> np.ndarray:
    """Ascending coefficients without the top ones negligible against the
    largest (all of them for the zero polynomial)."""
    mx = np.max(np.abs(vec), initial=0.0)
    keep = np.flatnonzero(np.abs(vec) > POLY_EPS * mx)
    return vec[:keep[-1] + 1] if mx > 0.0 else vec[:0]


def _branch_roots(subs: np.ndarray) -> tuple[list[np.ndarray], bool, np.ndarray]:
    """The roots in one variable of a polynomial system at each branch.

    ``subs[t, :, b]`` holds polynomial t's ascending coefficients in the
    variable at branch b.  Each polynomial is normalized by its largest
    coefficient, with the top ones negligible against it set to zero, and
    at each branch the live one of lowest degree is the base.  Every branch
    whose base has degree d joins one stacked eigensolve of d x d companion
    matrices, and a root x is kept where every other live polynomial p has
    |p(x)| <= BRANCH_EPS max(1, |x|)^max(1, deg p).  Where every polynomial
    vanishes the variable is undetermined, and a base of degree zero, a
    nonzero constant, has no root.

    Returns the kept roots per branch, a completeness flag that drops when
    some branch has no live polynomial, and the base degree per branch
    (zero where none is live).
    """
    width = subs.shape[1]
    mags = np.abs(subs)
    top = mags.max(axis=1)
    live = top > POLY_EPS * 10
    degree = width - 1 - np.argmax((mags > POLY_EPS * top[:, None])[:, ::-1], axis=1)
    subs = np.where(np.arange(width)[:, None] <= degree[:, None], subs, 0) / np.where(live, top, 1)[:, None]

    complete = bool(np.all(live.any(axis=0)))
    base = np.argmin(np.where(live, degree, width), axis=0)
    cols = np.arange(subs.shape[2])
    base_degree = np.where(live.any(axis=0), degree[base, cols], 0)
    kept = [np.zeros(0, dtype=complex)] * subs.shape[2]
    for d in sorted(set(base_degree[base_degree > 0].tolist())):
        group = np.flatnonzero(base_degree == d)
        coeffs = subs[base[group], :, group]
        companion = np.zeros((group.size, d, d), dtype=complex)
        companion[:, 0] = -coeffs[:, d - 1::-1] / coeffs[:, d:d + 1]
        companion[:, 1:, :-1] = np.eye(d - 1)
        xs = np.linalg.eigvals(companion)
        vals = np.abs(np.einsum("twg,gwi->tgi", subs[:, :, group],
                                xs[:, None, :] ** np.arange(width)[:, None]))
        others = live[:, group] & (np.arange(len(subs))[:, None] != base[group])
        bound = BRANCH_EPS * np.maximum(1.0, np.abs(xs)) ** np.maximum(1, degree[:, group])[..., None]
        ok = np.all((vals <= bound) | ~others[..., None], axis=0)
        for r, x, keep in zip(group, xs, ok):
            kept[r] = x[keep]
    return kept, complete, base_degree


def _solve_by_resultant(system: list[MultiPoly]) -> tuple[list[dict[int, complex]], bool, int]:
    """All common roots of polynomials in slots 0 (x) and 1 (y), or in slot 0 alone.

    The two sparsest polynomials that involve both slots (the two sparsest
    when fewer do), of degrees dp, dq in x and total degrees tp, tq, have a
    Sylvester resultant in x that is a polynomial in y of degree at most
    dq tp + dp tq - dp dq <= tp tq.  It is interpolated by one inverse DFT
    from the determinants of the Sylvester matrix at K roots of unity, K the
    first power of two above that bound.  Each root of the resultant fixes
    y, and the x-roots at every such y come from one root step (see
    :func:`_branch_roots`, which the elimination cascade's back-substitution
    shares): the roots of the lowest-degree substituted polynomial that every
    other polynomial keeps.  When no polynomial involves y there is no
    resultant: the x-step runs at one y, and the assignments hold x alone.

    Returns the assignments, a completeness flag that drops when a root of
    the resultant leaves every polynomial identically zero in x, and the
    degree of the trimmed resultant (of the base polynomial for one
    unknown).  Raises NonGeneric when the resultant vanishes against its
    pre-cancellation scale, the Hadamard bound of the Sylvester matrix: the
    pair shares a factor, a curve of solutions.
    """
    dense = []
    for p in system:
        c = np.zeros((p.degree_in(0) + 1, p.degree_in(1) + 1), dtype=complex)
        for exp, v in p.terms.items():
            c[exp[0], exp[1]] = v
        dense.append(c)
    if all(c.shape[1] == 1 for c in dense):
        ys, resultant = np.zeros(1, dtype=complex), None
    else:
        i, j = sorted(range(len(system)),
                      key=lambda t: (system[t].support() != {0, 1}, len(system[t].terms)))[:2]
        dp, dq = dense[i].shape[0] - 1, dense[j].shape[0] - 1
        if dp + dq == 0:
            raise NonGeneric("slot 0 is unconstrained")
        bound = dq * system[i].total_degree() + dp * system[j].total_degree() - dp * dq
        k = 1 << bound.bit_length()
        nodes = np.exp(-2j * np.pi * np.arange(k) / k)
        # coefficients in x, ascending, at each node
        cp, cq = ((c @ nodes ** np.arange(c.shape[1])[:, None]).T for c in (dense[i], dense[j]))
        syl = np.zeros((nodes.size, dp + dq, dp + dq), dtype=complex)
        for r in range(dq):
            syl[:, r, r:r + dp + 1] = cp[:, ::-1]
        for r in range(dp):
            syl[:, dq + r, r:r + dq + 1] = cq[:, ::-1]
        det = np.linalg.det(syl)
        scale = np.max(np.linalg.norm(cp, axis=1) ** dq * np.linalg.norm(cq, axis=1) ** dp)
        if np.max(np.abs(det)) <= CANCEL_REL * scale:
            raise NonGeneric("resultant vanished identically")
        resultant = _trim_leading(np.fft.ifft(det)[:bound + 1])
        ys = np.roots(resultant[::-1])

    # the coefficients in x of every polynomial at every root y
    width = max(c.shape[0] for c in dense)
    subs = np.zeros((len(dense), width, ys.size), dtype=complex)
    for t, c in enumerate(dense):
        subs[t, :c.shape[0]] = c @ ys ** np.arange(c.shape[1])[:, None]
    xs, complete, base_degree = _branch_roots(subs)
    if resultant is None:
        return [{0: complex(x)} for x in xs[0]], complete, int(base_degree[0])
    return ([{0: complex(x), 1: complex(y)} for y, row in zip(ys, xs) for x in row],
            complete, len(resultant) - 1)


def _solve_minors(system: list[MultiPoly], m: int) -> tuple[list[np.ndarray], bool, int]:
    """Alice starts (first coordinate one) of a minor system, with the
    solver's completeness flag and degree bound.

    The solver follows the number of unknowns: a system in slots 0 and 1 or
    in slot 0 alone (every M = 2 minor system, the M = 3 block systems)
    takes one resultant (see :func:`_solve_by_resultant`), one in three or
    more slots the elimination cascade (see :func:`eliminate`,
    :func:`back_substitute`).
    """
    if frozenset().union(*(p.support() for p in system)) <= {0, 1}:
        assignments, complete, degree_bound = _solve_by_resultant(system)
    else:
        elim = eliminate(system)
        assignments, complete = back_substitute(elim)
        degree_bound = elim.degree_bound
    starts = [np.array([1.0] + [asg[slot] for slot in range(m - 1)], dtype=complex)
              for asg in assignments]
    return starts, complete, degree_bound


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


def track_coupled(kd: KernelData, split: tuple[int, int],
                  rng: np.random.Generator) -> tuple[list[np.ndarray], bool, int]:
    """Alice candidates of the coupled system by homotopy continuation.

    Each kernel block is squared to its ``split`` row count by random
    combinations, and the square system in (alpha, beta, f) is
    path-tracked.  The alpha of every finite endpoint is a candidate: the
    polish and the acceptance test evaluate A(alpha, conj(alpha)), with
    every row, the unsquared ones included, so the acceptance test alone
    decides whether an endpoint is physical (see :func:`_accept_candidate`).
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
    a = x[:, :kd.dim_a]
    keep = np.all(np.isfinite(x), axis=1) & (a[:, 0] != 0)
    return list(a[keep] / a[keep, :1]), bool(np.all(regular)), len(x)


# ---------------------------------------------------------------------------
# Eligible set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EligibleSet:
    """Product vectors compatible with both range constraints.

    On the polynomial paths (block systems, underdetermined coupled
    systems) ``exhaustive`` is True when the resultant or the elimination
    certified a finite, complete candidate set, and ``degree_bound`` is the
    degree of the resultant or terminal polynomial, which bounds how many
    candidates its roots can produce.  On the path-tracked
    path (square or overdetermined coupled systems, any M) ``exhaustive``
    is True when every path is accounted for: each ended at a finite
    nonsingular point that no other path reached.  ``degree_bound`` is then
    the number of paths, which bounds the number of isolated solutions.
    """

    vectors: tuple[ProductVector, ...]
    exhaustive: bool
    degree_bound: int


def _polish_alpha(kd: KernelData, alphas: np.ndarray, svals: np.ndarray,
                  vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate alphas and their Bob parts f, refined by Gauss-Newton.

    The state-kernel rows alpha^T conj(K_i) f are bilinear in (alpha, f) and
    the conjugated transposed-kernel rows alpha^T L_j conj(f) in
    (alpha, conj f), so the residual is real-differentiable in the free
    coordinates.  alpha_1 is pinned to one and f to the chart c.f = 1, with
    c = conj(f_0) and f_0 the smallest right singular vector of A at the
    start; each step is then one real least-squares solve, and an isolated
    root is reached quadratically.  The best iterate is kept: a candidate
    stops when its relative residual stops falling, reaches POLISH_FLOOR
    of the row scale, or after POLISH_STEPS steps.  The floor sits a
    hundred times above the residual's own rounding error, about 1e-15 of
    the row scale: below it a step cannot be told from rounding, so an
    accurate start, a resultant root say, takes no step at all, while the
    1e-8 reconstruction check of a certificate keeps a wide margin.

    The candidates are polished together: ``alphas`` is (B, M), and
    ``svals`` and ``vh`` are the singular values and right singular vectors
    of A at each start.  Each step stacks the least-squares systems of the
    candidates still running into one pseudo-inverse, with the cutoff of
    ``np.linalg.lstsq``; a stopped candidate takes no further part, so each
    result is the one the candidate would reach alone.  Returns the (B, M)
    alphas and (B, N) Bob parts of the best iterates.
    """
    alpha = np.asarray(alphas, dtype=complex).copy()
    m, n = kd.dim_a, kd.dim_b
    f = vh[:, -1].conj()
    chart = f.conj()
    floor = POLISH_FLOOR * svals[:, 0] / np.linalg.norm(alpha, axis=1)
    kc, lt = kd.k_comps.conj(), kd.kt_comps
    k, kt = kd.k, kd.kt
    best_alpha, best_f = alpha.copy(), f.copy()
    best_res = np.full(len(alpha), np.inf)
    run = np.arange(len(alpha))          # candidates still iterating
    for step in range(POLISH_STEPS + 1):
        a, b = alpha[run], f[run]
        ka = np.einsum("bm,imn->bin", a, kc)
        la = np.einsum("bm,imn->bin", a, lt)
        r = np.concatenate([np.einsum("bin,bn->bi", ka, b), np.einsum("bin,bn->bi", la, b.conj()),
                            np.einsum("bn,bn->b", chart[run], b)[:, None] - 1.0], axis=1)
        res = (np.linalg.norm(r[:, :-1], axis=1)
               / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)))
        better = res < best_res[run]
        improved = run[better]
        best_alpha[improved], best_f[improved], best_res[improved] = a[better], b[better], res[better]
        go = better & (res > floor[run]) & (step < POLISH_STEPS)
        run, a, b, ka, la, r = run[go], a[go], b[go], ka[go], la[go], r[go]
        if run.size == 0:
            break
        jac = np.zeros((run.size, k + kt + 1, m - 1 + n), dtype=complex)   # d/d(alpha, f)
        jac_bar = np.zeros_like(jac)                                     # d/d conj(f)
        jac[:, :k, :m - 1] = np.einsum("imn,bn->bim", kc, b)[:, :, 1:]
        jac[:, :k, m - 1:] = ka
        jac[:, k:k + kt, :m - 1] = np.einsum("imn,bn->bim", lt, b.conj())[:, :, 1:]
        jac[:, -1, m - 1:] = chart[run]
        jac_bar[:, k:k + kt, m - 1:] = la
        p, q = jac + jac_bar, jac - jac_bar
        real = np.block([[p.real, -q.imag], [p.imag, q.real]])
        rhs = -np.concatenate([r.real, r.imag], axis=1)
        cut = np.finfo(float).eps * max(real.shape[1:])     # np.linalg.lstsq's default
        sol = np.einsum("bij,bj->bi", np.linalg.pinv(real, rcond=cut), rhs)
        dz = sol[:, :m - 1 + n] + 1j * sol[:, m - 1 + n:]
        alpha[run, 0] = 1.0
        alpha[run, 1:] = a[:, 1:] + dz[:, :m - 1]
        f[run] = b + dz[:, m - 1:]
    return best_alpha, best_f


def _accept_candidate(
    kd: KernelData, alphas: np.ndarray, fs: np.ndarray, tol: Tolerances
) -> list[tuple[ProductVector, float]]:
    """The accepted candidates of a stack, as unit product vectors e x f with
    their ranking keys max|A(e) f|, in stack order.

    ``alphas`` is (B, M) and ``fs`` (B, N).  The row blocks of A(e) f have
    the norms dist(e x f, R(rho)) and dist(conj(e) x f, R(rho^T_A)); a
    candidate is accepted when both are within ``root_abs``.  One residual
    einsum decides the whole stack.
    """
    e = alphas / np.linalg.norm(alphas, axis=1, keepdims=True)
    fn = fs / np.linalg.norm(fs, axis=1, keepdims=True)
    res = np.einsum("bin,bn->bi", constraint_matrix(kd, e), fn)
    dist = np.maximum(np.linalg.norm(res[:, :kd.k], axis=1), np.linalg.norm(res[:, kd.k:], axis=1))
    keys = np.max(np.abs(res), axis=1, initial=0.0)
    ok = dist <= tol.root_abs
    return [(ProductVector(a, b), float(key)) for a, b, key in zip(e[ok], fn[ok], keys[ok])]


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


def _eligible_set(kd: KernelData, tol: Tolerances, q: np.ndarray,
                  isometries: tuple[np.ndarray, np.ndarray], starts: list[np.ndarray],
                  exhaustive: bool, degree_bound: int) -> EligibleSet:
    """The eligible set of one search, from its Alice starts.

    Hopeless starts are dropped before the (comparatively expensive) polish:
    true roots make the constraint matrix strongly rank deficient already at
    the unpolished start.  One stacked SVD screens every start, and its
    singular vectors give the polish its first Bob parts; the kept starts
    are polished together (see :func:`_polish_alpha`) and the polished
    stack is accepted on its range distances in one call (see
    :func:`_accept_candidate`).  Duplicates keep their best-polished
    representative, and the survivors are rotated back by q and lifted out
    of the search frame.
    """
    hits = []
    if starts:
        alphas = np.array(starts)
        _, svals, vh = np.linalg.svd(constraint_matrix(kd, alphas))
        keep = svals[:, -1] <= 0.05 * svals[:, 0]
        if keep.any():
            hits = _accept_candidate(kd, *_polish_alpha(kd, alphas[keep], svals[keep], vh[keep]), tol)
    accepted = sorted(hits, key=lambda t: t[1])
    found = _dedupe([pv for pv, _ in accepted], tol)
    restored = tuple(lift_vector(ProductVector(q @ pv.e, pv.f), *isometries) for pv in found)
    return EligibleSet(restored, exhaustive=exhaustive, degree_bound=degree_bound)


def enumerate_eligible(s: BipartiteState, tol: Tolerances = DEFAULT_TOL, seed=0) -> EligibleSet:
    """The finite set of product vectors compatible with both ranges.

    Any state is taken.  The search runs in the :func:`state.search_frame`
    of ``s``, its supported space with Alice on the smaller side, where the
    paper states the system; every vector it returns is carried back by
    :func:`state.lift_vector` to the party order and space of ``s``.

    A seeded random Alice rotation first makes every sought vector generic
    in the computational basis (nonzero first coordinate).  A kernel large
    enough to pin the Alice coordinates on its own provides a holomorphic
    minor system.  Such a block system is complete on its own, so the first
    one solved, the state kernel's before the transposed one's, gives the
    set.  Otherwise the coupled system links the coordinates with their
    conjugates: with k + k_T >= 2M + N - 3 it is square or overdetermined
    and is solved by homotopy continuation (see :func:`track_coupled`), for
    M = 2 as for larger M; when it is underdetermined its minors are solved
    jointly.  A minor system in one or two unknowns (M = 2 or 3) takes one
    resultant, one in three or more elimination (see :func:`_solve_minors`).
    Before tracking, A is checked at one random alpha: rank below N there
    means rank below N at every alpha, a continuum of product vectors, and
    raises NonGeneric.  Candidates are refined by Gauss-Newton (see
    :func:`_polish_alpha`), accepted on their two range distances (see
    :func:`_accept_candidate`) and deduplicated up to phase.  All random
    draws come from ``seed``, so reruns are identical.
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

    # Prefer equations in the alpha coordinates alone: whenever a kernel
    # block has at least M + N - 2 rows, its base of N - 1 rows with each
    # later row gives at least M - 1 minors, holomorphic in one half of the
    # variables (the transposed block after conjugate pairing).  Every block
    # system is complete on its own, so the first one solved gives the set;
    # the other kernel's is built only when this one gives no system (fewer
    # than M - 1 minors, or a solve that raises NonGeneric).  The solver
    # follows the unknown count (see :func:`_solve_minors`).
    # The coupled system is the fallback: path-tracked when it is square or
    # overdetermined (its elimination loses roots to coefficient noise for
    # M >= 3, and for M = 2 its terminal polynomial outgrows the path count,
    # degree 16 against 12 paths on an 8-term 2x6 state), solved by its
    # minors otherwise.  Systems are capped at two equations beyond the
    # unknown count; dropped minors stay enforced through the physical filters.
    cap = (m - 1) + 2
    for which in [w for w, rows in (("k", kd.k), ("kt", kd.kt)) if rows >= m + n - 2]:
        side = _minor_system(_symbolic_rows(kd, which), n, nvars, rng)
        if which == "kt":
            side = [p.conj_pair() for p in side]
        if len(side) < m - 1:
            continue
        side.sort(key=lambda p: len(p.terms))
        try:
            solved = _solve_minors(side[:cap], m)
        except NonGeneric:
            continue
        break
    else:
        split = _square_split(kd.k, kd.kt, m, n)
        if split is None:
            solved = _solve_minors(minor_polynomials(kd, rng), m)
        else:
            # rank below N at a generic alpha means rank below N at every
            # alpha: each alpha has a product vector, a continuum no path
            # count covers
            probe = rng.normal(size=m) + 1j * rng.normal(size=m)
            svals = np.linalg.svd(constraint_matrix(kd, probe), compute_uv=False)
            if svals[-1] <= tol.rank_rel * svals[0]:
                raise NonGeneric("the constraint matrix is rank deficient at a generic alpha: "
                                 "the product vectors form a continuum")
            solved = track_coupled(kd, split, rng)
    return _eligible_set(kd, tol, q, isometries, *solved)
