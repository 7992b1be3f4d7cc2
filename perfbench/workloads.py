"""Seeded inputs for the three workloads.

Each workload is a fixed sequence of *rounds*; a round is a fixed list of
operations whose inputs are drawn from ``(workload seed, round, slot)``.
The same seed always gives the same inputs, and every run executes every
round of its pool at least once, so each run scores the same inputs and the
family mix stays the same from run to run.  Ground truth
travels with each input: ``truth`` is ``"separable"``, ``"entangled"`` or
None (unknown), and ``decidable`` marks inputs on which the paper's criteria
must reach a verdict, so that ``Inconclusive`` there counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sepcheck.fixtures import (
    GeneratorSpec,
    isotropic_family,
    random_separable,
    random_separable_rank_deficient,
    tiles_upb_state,
    werner_family,
)
from sepcheck.state import BipartiteState

# rank_n: planted N-term states (N = the larger local dimension) ...
RANK_N_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 5)]
# ... rank-deficient pencils: (dims, rank, terms) ...
# (all compress to a rank-N support: the global rank equals the larger side)
PENCILS = [((3, 3), 3, 5), ((3, 4), 3, 5), ((4, 4), 4, 6)]
# ... NPT Wishart controls ...
NPT_DIMS = [(2, 3), (3, 3)]
# ... and one Werner and one d=3 isotropic state per round, cycling the grids.
WERNER_P = [0.0, 0.1, 0.2, 0.3, 0.4, 0.55, 0.7, 0.85, 1.0]
ISOTROPIC_P = [0.0, 0.08, 0.15, 0.2, 0.22, 0.24, 0.3, 0.5, 0.75, 1.0]

# eligible: planted mixtures inside the rank-sum window, (dims, terms, copies
# per round).  The 3x3 criterion-5 shape is weighted up: it is the paper's
# main case, and its cheap states keep the median inside one dense cluster.
ELIGIBLE_FAMILIES = [
    ((3, 3), 4, 4), ((3, 3), 5, 4), ((3, 3), 6, 2),
    ((2, 4), 5, 1), ((2, 4), 6, 1),
    ((2, 6), 7, 1), ((2, 6), 8, 1),
    ((3, 4), 6, 1), ((3, 4), 7, 1),
]
# The slowest families run once per run, in round 0, next to the 4x4 state
# under the wall cap (6 or 7 terms by seed parity).  Their 0.3-2.5 s per
# state would otherwise dominate the measured time, so they run once, and
# their generator seeds are fixed (dims, terms, seed): drawn from --seed,
# their cost swung the run's total by seconds from one seed to the next.
ELIGIBLE_ONCE = [((3, 4), 8, 3001), ((3, 5), 8, 3002), ((3, 5), 9, 3003)]
ELIGIBLE_4X4_TERMS = (6, 7)
# Pinned states of known defects, (dims, terms, generator and pipeline seed),
# run in round 0 of every run so that the baseline counts them: 3x4 with 8
# terms and seed 2003 gets Entangled/NoEligibleVectors with exhaustive=True.
KNOWN_DEFECTS = [((3, 4), 8, 2003)]
# pencils whose compressed support is not rank-N; they land in the window
ELIGIBLE_PENCILS = [((2, 3), 3, 4), ((2, 4), 4, 6)]
# small families for the tiny self-test size
ELIGIBLE_TINY = [((3, 3), 4, 1), ((2, 4), 5, 1)]


@dataclass
class Case:
    """One operation's input and what the checker needs to score it."""

    family: str
    state: BipartiteState
    seed: int
    truth: str | None = None
    decidable: bool = True
    planted: list = field(default_factory=list)  # (e, f) pairs, unit vectors
    capped: bool = False                         # run under the wall cap


def gen_seed(seed: int, rnd: int, slot: int) -> int:
    """Generator seed of one input, a pure function of its coordinates."""
    return int(np.random.SeedSequence([seed, rnd, slot]).generate_state(1)[0])


def _planted(dec) -> list:
    return [(pv.e / np.linalg.norm(pv.e), pv.f / np.linalg.norm(pv.f)) for _, pv in dec.terms]


def _separable(dims, terms, s, family, decidable=True, capped=False) -> Case:
    st, dec = random_separable(GeneratorSpec(dims=dims, term_count=terms, seed=s))
    return Case(family, st, s, "separable", decidable, _planted(dec), capped=capped)


def wishart_npt(dims, s) -> Case:
    """Full-rank Wishart state, redrawn until its partial transpose is
    clearly negative (ground truth: entangled)."""
    m, n = dims
    rng = np.random.default_rng(s)
    while True:
        g = rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
        w = g @ g.conj().T
        w /= np.trace(w).real
        pt = w.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)
        if np.linalg.eigvalsh(pt)[0] < -1e-3:
            return Case(f"npt_{m}x{n}", BipartiteState(m, n, w, normalized=True), s, "entangled")


def rank_n_round(seed: int, rnd: int) -> list[Case]:
    cases = []
    slot = 0
    for dims in RANK_N_DIMS:
        s = gen_seed(seed, rnd, slot)
        cases.append(_separable(dims, max(dims), s, f"rank_n_{dims[0]}x{dims[1]}"))
        slot += 1
    for dims, r, k in PENCILS:
        s = gen_seed(seed, rnd, slot)
        st, dec = random_separable_rank_deficient(dims, r, k, seed=s)
        cases.append(Case(f"pencil_{dims[0]}x{dims[1]}_r{r}", st, s, "separable", True,
                          _planted(dec)))
        slot += 1
    for dims in NPT_DIMS:
        cases.append(wishart_npt(dims, gen_seed(seed, rnd, slot)))
        slot += 1
    p = WERNER_P[(seed + rnd) % len(WERNER_P)]
    cases.append(Case("werner", werner_family(p), gen_seed(seed, rnd, slot),
                      "separable" if p <= 1.0 / 3.0 else "entangled"))
    slot += 1
    p = ISOTROPIC_P[(seed + rnd) % len(ISOTROPIC_P)]
    if p <= 2.0 / 11.0:
        truth, decidable = "separable", True     # spectral ball applies
    elif p <= 0.25:
        truth, decidable = "separable", False    # no criterion of the paper applies
    else:
        truth, decidable = "entangled", True     # NPT
    cases.append(Case("isotropic_3", isotropic_family(3, p), gen_seed(seed, rnd, slot),
                      truth, decidable))
    return cases


def eligible_round(seed: int, rnd: int, tiny: bool = False) -> list[Case]:
    cases = []
    slot = 0
    for dims, k, copies in ELIGIBLE_TINY if tiny else ELIGIBLE_FAMILIES:
        for _ in range(copies):
            cases.append(_separable(dims, k, gen_seed(seed, rnd, slot),
                                    f"eligible_{dims[0]}x{dims[1]}_k{k}"))
            slot += 1
    if not tiny:
        for dims, r, k in ELIGIBLE_PENCILS:
            s = gen_seed(seed, rnd, slot)
            st, dec = random_separable_rank_deficient(dims, r, k, seed=s)
            cases.append(Case(f"pencil_{dims[0]}x{dims[1]}_r{r}", st, s, "separable", True,
                              _planted(dec)))
            slot += 1
    if rnd == 0:
        for dims, k, s in [] if tiny else ELIGIBLE_ONCE:
            cases.append(_separable(dims, k, s, f"eligible_{dims[0]}x{dims[1]}_k{k}"))
        for dims, k, s in [] if tiny else KNOWN_DEFECTS:
            cases.append(_separable(dims, k, s, f"pinned_{dims[0]}x{dims[1]}_k{k}_seed{s}"))
        k = ELIGIBLE_4X4_TERMS[seed % 2]
        cases.append(_separable((4, 4), k, gen_seed(seed, rnd, slot), f"eligible_4x4_k{k}",
                                capped=True))
        slot += 1
    cases.append(Case("tiles", tiles_upb_state(), gen_seed(seed, rnd, slot), "entangled"))
    # interleave the families, so that a run cut short mid-round keeps the mix
    order = np.random.default_rng([seed, rnd]).permutation(len(cases))
    return [cases[i] for i in order]

