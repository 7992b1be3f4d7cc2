"""Separability is invariant under the symmetries of the problem.

rho^T_A (for PPT rho), complex conjugation, the party swap and local
unitaries U (x) V all map separable states to separable states and
entangled ones to entangled ones.  The paper's conditions are symmetric in
rho and rho^T_A (e (x) f for rho, conj(e) (x) f for rho^T_A), so a decided
verdict must not flip between Separable and Entangled under these maps, nor
under the pipeline seed.  The inputs and seeds are fixed.
"""

import numpy as np
import pytest

from conftest import near_product_mixture
from sepcheck.certify import separability_check
from sepcheck.fixtures import GeneratorSpec, haar_unitary, random_separable, tiles_upb_state
from sepcheck.state import BipartiteState, local_filter, partial_transpose, swap_parties

INPUTS = (
    [("near_product", dims, k, seed)
     for dims, k in [((3, 3), 4), ((3, 3), 5), ((2, 4), 5), ((3, 4), 6)]
     for seed in range(8)]
    + [("random_separable", dims, k, seed)
       for dims, k in [((3, 3), 4), ((3, 3), 5), ((2, 4), 5), ((2, 4), 6), ((3, 4), 6)]
       for seed in range(3)]
    + [("tiles", (3, 3), 4, None)]
)


def _state(family, dims, k, seed) -> BipartiteState:
    if family == "near_product":
        return near_product_mixture(dims, k, seed)
    if family == "random_separable":
        return random_separable(GeneratorSpec(dims=dims, term_count=k, seed=seed))[0]
    return tiles_upb_state()


def _local_unitary(s: BipartiteState) -> BipartiteState:
    rng = np.random.default_rng(7)
    u = haar_unitary(s.dim_a, rng)
    v = haar_unitary(s.dim_b, rng)
    return local_filter(local_filter(s, "A", u), "B", v)


def _images(s: BipartiteState) -> dict:
    # the input under each map, with the pipeline seed it runs at
    m, n = s.dim_a, s.dim_b
    return {
        **{f"identity@{seed}": (s, seed) for seed in range(3)},
        "partial_transpose": (BipartiteState(m, n, partial_transpose(s), s.normalized), 0),
        "conjugate": (BipartiteState(m, n, s.rho.conj(), s.normalized), 0),
        "swap": (swap_parties(s), 0),
        "local_unitary": (_local_unitary(s), 0),
    }


@pytest.mark.parametrize("family, dims, k, seed", INPUTS,
                         ids=[f"{f}-{d[0]}x{d[1]}-{k}-{s}" for f, d, k, s in INPUTS])
def test_verdict_respects_the_symmetries(family, dims, k, seed):
    s = _state(family, dims, k, seed)
    verdicts = {name: separability_check(image, seed=ps)
                for name, (image, ps) in _images(s).items()}
    statuses = {name: v.status for name, v in verdicts.items()}
    assert not {"Separable", "Entangled"} <= set(statuses.values()), statuses
    # with unequal compressed sides, both party orders run the search in
    # the same frame (Alice on the smaller side)
    m_c, n_c = verdicts["identity@0"].diagnostics["compressed_dims"]
    if m_c != n_c:
        assert statuses["swap"] == statuses["identity@0"], statuses
