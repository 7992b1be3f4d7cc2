"""Shared construction helpers for the test suites."""

import os
from pathlib import Path

import numpy as np
import pytest

import sepcheck
from sepcheck.fixtures import haar_vector
from sepcheck.numlin import kernel_basis
from sepcheck.state import BipartiteState, ProductVector, reconstruction


@pytest.fixture(autouse=True, scope="session")
def _subprocess_pythonpath():
    """Let ``python -m sepcheck.cli`` subprocesses import the package under
    test, also from a checkout where it is not installed."""
    src = str(Path(sepcheck.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


def phase_distance(u, v):
    """min over phases of ||u - exp(i phi) v|| for unit vectors."""
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(u, v)))))


def product_overlap(pv_a: ProductVector, pv_b: ProductVector) -> float:
    ea = pv_a.e / np.linalg.norm(pv_a.e)
    fa = pv_a.f / np.linalg.norm(pv_a.f)
    eb = pv_b.e / np.linalg.norm(pv_b.e)
    fb = pv_b.f / np.linalg.norm(pv_b.f)
    return float(abs(np.vdot(ea, eb)) * abs(np.vdot(fa, fb)))


def match_planted(found, planted, overlap=1.0 - 1e-10):
    """How many planted product vectors appear among the found ones."""
    hits = 0
    for p in planted:
        if any(product_overlap(p, v) > overlap for v in found):
            hits += 1
    return hits


def random_psd(n, rank, rng, dtype=complex):
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return g @ g.conj().T


def planted_reduction_instance(dims, seed, k=None, lam=0.5):
    """A state of the form rho' + lam |a_M, g><a_M, g| with rho' avoiding f.

    rho' is a separable mixture living on C^M (x) f_perp, so |a_i, f> lies
    in the kernel for every Alice direction; g keeps a component along f.
    The computational basis (with its last vector distinguished) is the
    probing basis.  Returns (state, alice_basis, f, g, lam, rho_prime).
    """
    m, n = dims
    rng = np.random.default_rng(seed)
    f = haar_vector(n, rng)
    perp = kernel_basis(f.conj().reshape(1, -1))  # n x (n-1)
    k = k if k is not None else n
    terms = []
    weights = rng.dirichlet(np.ones(k))
    for w in weights:
        e = haar_vector(m, rng)
        h = haar_vector(n - 1, rng)
        terms.append((float(w), ProductVector(e, perp @ h)))
    rho_prime = reconstruction(terms, m, n)
    while True:
        g = haar_vector(n, rng)
        if abs(np.vdot(g, f)) > 0.2:
            break
    a_last = np.zeros(m, dtype=complex)
    a_last[-1] = 1.0
    v = np.kron(a_last, g)
    rho = rho_prime + lam * np.outer(v, v.conj())
    state = BipartiteState(m, n, rho, normalized=False)
    return state, np.eye(m, dtype=complex), f, g, lam, rho_prime


def rank3_separable(dims, seed):
    """Random rank-3 separable state whose Bob rank is 3 (decomposable family).

    Alternates between three generic product terms and richer mixtures with
    extra terms confined to spans of the first ones, keeping the global rank
    at three while the Bob side stays full.
    """
    m, n = dims
    assert n == 3
    rng = np.random.default_rng(seed)
    style = seed % 3
    if m == 1 or style == 0:
        vecs = [(haar_vector(m, rng), haar_vector(n, rng)) for _ in range(3)]
    elif style == 1:
        # one shared Alice direction carrying three Bob directions plus a
        # dependent fourth term inside their span (Alice rank 1)
        e0 = haar_vector(m, rng)
        f0, f1, f2 = (haar_vector(n, rng) for _ in range(3))
        mix = f0 + (rng.normal() + 1j * rng.normal()) * f1
        vecs = [(e0, f0), (e0, f1), (e0, f2), (e0, mix / np.linalg.norm(mix))]
    else:
        # Alice span of dimension two across three independent Bob vectors
        e0 = haar_vector(m, rng)
        e1 = haar_vector(m, rng)
        t = rng.normal() + 1j * rng.normal()
        pencil = (e0 + t * e1) / np.linalg.norm(e0 + t * e1)
        f0, f1, f2 = (haar_vector(n, rng) for _ in range(3))
        vecs = [(e0, f0), (e1, f1), (pencil, f2)]
    weights = rng.dirichlet(np.ones(len(vecs)))
    terms = [(float(w), ProductVector(e, f)) for w, (e, f) in zip(weights, vecs)]
    rho = reconstruction(terms, m, n)
    return BipartiteState(m, n, rho, normalized=True), terms


def orthogonal_product_mixture(sigma_terms, dims, seed, samples_per_split=2):
    """Separable state whose range is orthogonal to every given product term.

    For each split of the given terms, product vectors are sampled with the
    Alice part orthogonal to one side's Alice vectors and the Bob part
    orthogonal to the other side's Bob vectors, whenever both orthogonal
    complements are nontrivial.
    """
    m, n = dims
    rng = np.random.default_rng(seed)
    k = len(sigma_terms)
    out = []
    for mask in range(2 ** k):
        sel = [bool(mask >> i & 1) for i in range(k)]
        alice = np.array([sigma_terms[i].e for i in range(k) if sel[i]]).reshape(-1, m)
        bob = np.array([sigma_terms[i].f for i in range(k) if not sel[i]]).reshape(-1, n)
        a_comp = kernel_basis(alice.conj()) if alice.size else np.eye(m, dtype=complex)
        b_comp = kernel_basis(bob.conj()) if bob.size else np.eye(n, dtype=complex)
        if a_comp.shape[1] == 0 or b_comp.shape[1] == 0:
            continue
        for _ in range(samples_per_split):
            e = a_comp @ haar_vector(a_comp.shape[1], rng)
            f = b_comp @ haar_vector(b_comp.shape[1], rng)
            out.append(ProductVector(e, f))
    if not out:
        raise ValueError("no orthogonal product vectors exist for these terms")
    weights = rng.dirichlet(np.ones(len(out)))
    terms = [(float(w), pv) for w, pv in zip(weights, out)]
    rho = reconstruction(terms, m, n)
    rho /= np.trace(rho).real
    return BipartiteState(m, n, rho, normalized=True)


def near_product_rank_n_state(eps=1e-3, seed=0):
    """A rank-3 2x3 state from three Haar product vectors, the first pushed
    off the product set by eps times a Gaussian vector.

    Under a PSD floor of 1e-3 or looser it passes the PPT screen, and its
    canonical-form blocks are not normal within tolerance.
    """
    rng = np.random.default_rng(seed)
    vs = [np.kron(haar_vector(2, rng), haar_vector(3, rng)) for _ in range(3)]
    vs[0] = vs[0] + eps * (rng.normal(size=6) + 1j * rng.normal(size=6))
    rho = sum(np.outer(v, v.conj()) for v in vs)
    return BipartiteState(2, 3, rho / np.trace(rho).real, normalized=True)


def near_product_pure_state(eps=4e-5):
    """The entangled pure 2x2 state sqrt(1 - eps)|00> + sqrt(eps)|11>.

    Its partial transpose has the eigenvalue -sqrt(eps (1 - eps)), so under
    a PSD floor of 1e-2 it passes the PPT screen; its global rank 1 stays
    below its local rank 2.
    """
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(1 - eps)
    v[3] = np.sqrt(eps)
    return BipartiteState(2, 2, np.outer(v, v.conj()), normalized=True)


def near_product_mixture(dims, k, seed):
    """k equal-weight product terms whose Alice vectors crowd around one.

    Each Alice vector is a Haar vector g plus 10^U(-6, -1) times a fresh
    Haar vector, normalized; each Bob vector is Haar.  The local direction
    off g then carries so little of the state that support compression
    cuts it, although it still holds up to ~1e-5 of rho in Frobenius norm.
    """
    m, n = dims
    rng = np.random.default_rng(seed)
    g = haar_vector(m, rng)
    terms = []
    for _ in range(k):
        e = g + 10 ** rng.uniform(-6, -1) * haar_vector(m, rng)
        terms.append((1.0 / k, ProductVector(e / np.linalg.norm(e), haar_vector(n, rng))))
    return BipartiteState(m, n, reconstruction(terms, m, n), normalized=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
