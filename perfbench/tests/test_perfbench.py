"""Self-tests of the benchmark: tiny runs, metric names, checker, tracer.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import sepcheck.certify  # noqa: E402
import sepcheck.numlin  # noqa: E402
import sepcheck.vectors  # noqa: E402
from sepcheck.fixtures import GeneratorSpec, random_separable, tiles_upb_state  # noqa: E402
from sepcheck.state import BipartiteState  # noqa: E402

from perfbench import checker, harness, tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in BENCH["end_to_end"]]
LAYER = [m["name"] for m in BENCH["per_layer"]]


def _run(capsys, workload, trace, seed=3):
    harness.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["rank_n", "eligible", "cli"])
def test_tiny_run_prints_the_declared_metrics(capsys, workload):
    for trace, names in ((0, E2E), (1, LAYER)):
        detail, result = _run(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == names
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert np.isfinite(metric["value"])
        if trace == 0:
            assert result["metrics"]["setup_s"]["value"] > 0
            assert result["metrics"]["states_per_s"]["value"] > 0
            assert len(detail["verdict_digest"]) == 64


def test_capped_state_counts_as_failure_and_names_a_layer(capsys):
    detail, result = _run(capsys, "eligible", 1)
    capped = [f for f in detail["failures"].values() if "capped" in f["labels"]]
    assert capped and all(f["failed"] == f["ops"] for f in capped)
    timeouts = sum(m["value"] for n, m in result["metrics"].items() if n.endswith(".timeouts"))
    assert timeouts >= 1


def test_same_seed_gives_the_same_digest(capsys):
    first, _ = _run(capsys, "rank_n", 0, seed=11)
    second, _ = _run(capsys, "rank_n", 0, seed=11)
    assert first["verdict_digest"] == second["verdict_digest"]


def test_without_the_library_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank_n",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout


# -- checker ---------------------------------------------------------------

def _certified(seed=5):
    st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=seed))
    v = sepcheck.certify.separability_check(st, seed=seed)
    assert v.status == "Separable"
    return st, [(w, pv.e, pv.f) for w, pv in v.certificate.terms], v


def test_checker_accepts_a_valid_certificate():
    st, terms, v = _certified()
    assert checker.check_verdict(st.rho, 3, 3, v.status, v.reason, terms, v.diagnostics) == []


def test_checker_rejects_a_perturbed_weight():
    st, terms, v = _certified()
    w, e, f = terms[0]
    bad = [(w * (1 + 1e-4), e, f)] + terms[1:]
    assert checker.check_verdict(st.rho, 3, 3, "Separable", None, bad, v.diagnostics)


def test_checker_rejects_a_flipped_verdict():
    st, _, v = _certified()
    assert checker.contradicts("Entangled", "separable")
    assert checker.check_verdict(st.rho, 3, 3, "Entangled", "NPT", None, v.diagnostics)
    tiles = tiles_upb_state()
    assert checker.contradicts("Separable", "entangled")
    assert checker.check_verdict(tiles.rho, 3, 3, "Separable", None, None, {})
    # a witness taken from a PPT state cannot show a negative expectation
    fake = {"npt_witness": [[1.0, 0.0]] + [[0.0, 0.0]] * 8}
    assert checker.check_verdict(st.rho, 3, 3, "Entangled", "NPT", None, fake)


def test_checker_rejects_a_non_psd_bsa_remainder():
    tiles = tiles_upb_state()
    st, dec = random_separable(GeneratorSpec(dims=(3, 3), term_count=4, seed=8001))
    mixed = BipartiteState(3, 3, 0.5 * st.rho + 0.5 * tiles.rho, normalized=True)
    projs = [pv for _, pv in dec.terms]
    res = sepcheck.certify.bsa_decompose(mixed, projs, max_iters=200)
    pairs = [(pv.e, pv.f) for pv in projs]
    args = (mixed.rho, 3, 3, pairs)
    assert checker.check_bsa(*args, res.weights, res.lam, res.lam_trace, 0.5) == []
    inflated = res.weights * 1.05
    problems = checker.check_bsa(*args, inflated, float(np.sum(inflated)), res.lam_trace, 0.5)
    assert any("PSD" in p for p in problems)


# -- tracer ----------------------------------------------------------------

def _bindings():
    mods = [sys.modules["sepcheck"]] + [sys.modules[f"sepcheck.{m}"] for m in tracing.MODULES]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    snap.update({("numpy.linalg", k): getattr(np.linalg, k) for k in tracing.LINALG})
    snap[("MultiPoly", "__mul__")] = sepcheck.vectors.MultiPoly.__mul__
    return snap


def test_tracer_wraps_every_binding_and_restores_them():
    import sepcheck.cli  # noqa: F401  (every traced module must be loaded)
    import sepcheck.reduce  # noqa: F401

    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        # the copies made by "from .numlin import numerical_rank" are wrapped too
        assert sepcheck.certify.numerical_rank is not before[("sepcheck.certify", "numerical_rank")]
        assert sepcheck.numlin.numerical_rank is not before[("sepcheck.numlin", "numerical_rank")]
        st, _ = random_separable(GeneratorSpec(dims=(3, 3), term_count=3, seed=2))
        sepcheck.certify.separability_check(st, seed=2)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    times = tracer.self_times()
    assert times["certify.separability_check"][0] == 1
    assert times["canon.decompose_rank_n"][0] >= 1
    assert tracer.counts.get("vectors.MultiPoly.mul.calls", 0) == 0
    total = sum(s for _, s in times.values())
    outer = [e - s for n, s, e, p in tracer.spans if p == -1]
    assert total == pytest.approx(sum(outer), rel=1e-9)
