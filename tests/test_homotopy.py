import math

import numpy as np
import pytest

from sepcheck.homotopy import BilinearHomotopy

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
