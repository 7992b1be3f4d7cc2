import itertools
import math

import numpy as np
import pytest

from sepcheck.homotopy import BilinearHomotopy, _batched_solve, _unshared

# (M, N, state rows, transpose rows): square systems, 2M + N - 3 rows
SHAPES = [(2, 4, 2, 3), (2, 6, 3, 4), (3, 3, 3, 3), (3, 4, 4, 3)]


def _homotopy(m, n, r, rt, seed):
    rng = np.random.default_rng(seed)
    k_rows = rng.normal(size=(r, m, n)) + 1j * rng.normal(size=(r, m, n))
    kt_rows = rng.normal(size=(rt, m, n)) + 1j * rng.normal(size=(rt, m, n))
    return BilinearHomotopy(k_rows, kt_rows, rng), rng


@pytest.mark.parametrize("shape", SHAPES)
def test_derivatives_match_central_differences(shape):
    hom, rng = _homotopy(*shape, seed=sum(shape))
    p, dim = 5, hom.dim
    x = rng.normal(size=(p, dim)) + 1j * rng.normal(size=(p, dim))
    t = rng.uniform(size=p)
    h, jac, ht = hom.evaluate(x, t)
    assert h.shape == (p, dim) and jac.shape == (p, dim, dim) and ht.shape == (p, dim)
    step = 1e-5
    # H is holomorphic in x, so one complex direction per column suffices
    for col in range(dim):
        dx = np.zeros(dim, dtype=complex)
        dx[col] = step * np.exp(0.3j * col)
        diff = (hom.evaluate(x + dx, t)[0] - hom.evaluate(x - dx, t)[0]) / (2 * dx[col])
        np.testing.assert_allclose(jac[:, :, col], diff, rtol=1e-7, atol=1e-7 * np.abs(jac).max())
    diff_t = (hom.evaluate(x, t + step)[0] - hom.evaluate(x, t - step)[0]) / (2 * step)
    np.testing.assert_allclose(ht, diff_t, rtol=1e-7, atol=1e-7 * np.abs(ht).max())


@pytest.mark.parametrize("shape", SHAPES)
def test_start_points_solve_the_start_system(shape):
    m, n, r, rt = shape
    hom, _ = _homotopy(*shape, seed=7 * sum(shape))
    x = hom.start_points()
    assert x.shape == (math.comb(r, m - 1) * math.comb(rt, m - 1), 2 * m + n)
    h, _, _ = hom.evaluate(x, np.ones(len(x)))
    scale = 1.0 + np.linalg.norm(x, axis=1) ** 2
    assert np.all(np.abs(h).max(axis=1) <= 1e-10 * scale)


def _tracked(shape):
    # three systems per shape, each a fresh draw
    return [_homotopy(*shape, seed=100 * s + sum(shape))[0] for s in (1, 2, 3)]


@pytest.mark.parametrize("shape", SHAPES)
def test_track_ends_every_path_at_its_own_root(shape):
    for hom in _tracked(shape):
        x, regular = hom.track()
        assert x.shape == hom.start_points().shape
        assert np.all(regular)
        norms = np.linalg.norm(x, axis=1)
        for i, j in itertools.combinations(range(len(x)), 2):
            assert np.linalg.norm(x[i] - x[j]) > 1e-8 * (1.0 + norms[i])
        h, _, _ = hom.evaluate(x, np.zeros(len(x)))
        assert np.all(np.abs(h).max(axis=1) <= 1e-10 * (1.0 + norms ** 2))
        m = hom.m
        for lo, hi in ((0, m), (m, 2 * m), (2 * m, hom.dim)):
            np.testing.assert_allclose(x[:, lo:hi] @ hom.chart[lo:hi], 1.0, rtol=0, atol=1e-12)


def test_track_step_economy(monkeypatch):
    # every Jacobian the tracker uses comes from one evaluate call; the
    # twelve systems above took 4,857 of them with fixed charts and
    # streak-doubled steps
    calls = []
    original = BilinearHomotopy.evaluate

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BilinearHomotopy, "evaluate", counting)
    for shape in SHAPES:
        for hom in _tracked(shape):
            assert np.all(hom.track()[1])
    assert len(calls) <= 3400


def test_track_flags_paths_that_meet(monkeypatch):
    # two copies of one start root end at one endpoint: neither counts,
    # since the root the second one should have reached may be missing
    hom = _tracked(SHAPES[2])[0]
    starts = hom.start_points()
    starts[3] = starts[0]
    monkeypatch.setattr(hom, "start_points", lambda: starts)
    x, regular = hom.track()
    assert np.linalg.norm(x[0] - x[3]) <= 1e-8 * (1.0 + np.linalg.norm(x[0]))
    assert not regular[0] and not regular[3]
    assert regular.sum() == len(x) - 2


def test_unshared_matches_the_pairwise_rule():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
    x[4] = x[1]
    x[7] = x[2] + 1e-9                       # within the tolerance of x[2]
    x[8] = x[5] + 1e-7                       # outside it
    regular = np.ones(9, dtype=bool)
    regular[6] = False
    x[6] = x[0]                              # a non-regular path is no witness
    expected = regular.copy()
    for i, j in itertools.combinations(np.flatnonzero(regular), 2):
        if np.linalg.norm(x[i] - x[j]) <= 1e-8 * (1.0 + np.linalg.norm(x[i])):
            expected[[i, j]] = False
    out = _unshared(x, regular)
    np.testing.assert_array_equal(out, expected)
    assert list(np.flatnonzero(~out)) == [1, 2, 4, 6, 7]
    assert regular[1]                        # the input is left as it was


@pytest.mark.parametrize("cols", [None, 2])
def test_batched_solve_isolates_a_singular_jacobian(cols):
    rng = np.random.default_rng(3)
    jac = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    jac[1] = 0.0
    shape = (3, 5) if cols is None else (3, 5, cols)
    rhs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = _batched_solve(jac, rhs)
    assert out.shape == shape
    assert np.all(np.isnan(out[1]))
    for i in (0, 2):
        np.testing.assert_array_equal(out[i], np.linalg.solve(jac[i], rhs[i]))
