"""Benchmark harness: one closed-loop caller, one state at a time.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``

The caller runs every round of its workload's input pool once (see
``workloads.py``), then repeats rounds 1.. until ``--seconds`` of program
time have been measured; each operation is timed alone and scored
afterwards by the independent checker, outside the timed region.  The
result's ``attempted`` and ``failed`` count distinct inputs of the pool, so
they depend on the seed alone; an input fails if any of its runs fails.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the same untraced run is followed by a traced
replay of the first rounds, and the last line carries the per-layer
metrics.  A ``detail`` line before it records failure counts, verdict
digests, the tail percentile with its sample count, and the toolchain.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sepcheck.canon  # noqa: F401  (imported lazily by the pipeline; tracing needs it loaded)
import sepcheck.certify
import sepcheck.cli
from sepcheck.certify import verdict_to_json
from sepcheck.fixtures import GeneratorSpec, random_separable, tiles_upb_state
from sepcheck.state import state_to_json

from . import checker
from .tracing import LINALG, Tracer
from .workloads import Case, wishart_npt, eligible_round, gen_seed, rank_n_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = HERE / "out"

WARM_ROUND = 1_000_000  # round index reserved for warm-up inputs
TINY_CAP_S = 0.3
PLANTED_DISTANCE = 1e-6  # recovery threshold copied from tests/test_acceptance.py
LINALG_SPANS = set(LINALG.values())


class Capped(Exception):
    """Raised by the wall-cap alarm; the tracer names the interrupted layer."""

    def __init__(self):
        super().__init__("per-state wall cap reached")
        self.cap_layer = None


def _alarm(signum, frame):
    raise Capped()


@dataclass
class Outcome:
    """One scored operation."""

    family: str
    latency: float
    label: str                       # status.reason, command name, or "capped"
    failed: bool = False
    wrong: bool = False
    problems: list = field(default_factory=list)  # evidence the checker rejects
    error: str = ""                  # exception or timeout instead of an output
    record: str = ""                 # canonical output, hashed into the digest
    cap_layer: str | None = None
    key: int = 0                     # identity of the input, shared by its repeats


def verdict_label(status: str, reason) -> str:
    return f"{status}.{reason or 'none'}"


def _terms(v):
    if v.certificate is None:
        return None
    return [(w, pv.e, pv.f) for w, pv in v.certificate.terms]


def score_verdict(case: Case, status: str, reason, terms, diagnostics) -> tuple[bool, bool, list]:
    m, n = case.state.dim_a, case.state.dim_b
    problems = checker.check_verdict(case.state.rho, m, n, status, reason, terms, diagnostics)
    wrong = checker.contradicts(status, case.truth)
    failed = bool(problems) or wrong or (status == "Inconclusive" and case.decidable)
    return failed, wrong, problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class InProcess:
    """Workloads that call the library in the harness process."""

    unit = "states"

    def __init__(self, name: str, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        spec = SPEC["workloads"][name]
        self.pool_rounds = 1 if tiny else spec["pool_rounds"]
        self.cap_s = TINY_CAP_S if tiny else SPEC["cap_s"]
        self.pool: list[list[Case]] = []
        self._scores: dict[int, tuple] = {}

    def checked(self, case: Case, record: str, check) -> tuple:
        """``check()`` of an output, reused when a pooled input repeats.

        Pool rounds repeat within a run; an output byte-identical to the one
        already checked for the same input gets the same score.
        """
        memo = self._scores.get(id(case))
        if memo is None or memo[0] != record:
            memo = (record, check())
            self._scores[id(case)] = memo
        return memo[1]

    def make_round(self, rnd: int) -> list[Case]:
        raise NotImplementedError

    def setup(self) -> None:
        self.pool = [self.make_round(r) for r in range(self.pool_rounds)]
        for case in self.warmup_cases():
            self.run_case(case)

    def warmup_cases(self) -> list[Case]:
        return [c for c in self.make_round(WARM_ROUND) if not c.capped]

    def round_cases(self, rnd: int) -> list[Case]:
        """Round ``rnd`` of the pool; past its end, rounds 1.. repeat (never 0)."""
        if rnd < len(self.pool) or len(self.pool) == 1:
            return self.pool[min(rnd, len(self.pool) - 1)]
        return self.pool[1 + (rnd - 1) % (len(self.pool) - 1)]

    def call(self, case: Case):
        # looked up on the module at call time, so the tracer's wrapper is used
        return sepcheck.certify.separability_check(case.state, seed=case.seed)

    def run_case(self, case: Case) -> Outcome:
        start = time.perf_counter()
        try:
            if case.capped:
                previous = signal.signal(signal.SIGALRM, _alarm)
                signal.setitimer(signal.ITIMER_REAL, self.cap_s)
                try:
                    out = self.call(case)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    signal.signal(signal.SIGALRM, previous)
            else:
                out = self.call(case)
        except Capped as exc:
            return Outcome(case.family, self.cap_s, "capped", failed=True,
                           record=f"{case.family}:capped", cap_layer=exc.cap_layer)
        except Exception as exc:  # a failed operation is scored, not fatal
            return Outcome(case.family, time.perf_counter() - start, "error", failed=True,
                           error=f"{type(exc).__name__}: {exc}",
                           record=f"{case.family}:error:{type(exc).__name__}")
        elapsed = time.perf_counter() - start
        return self.score(case, out, elapsed)

    def score(self, case: Case, v, elapsed: float) -> Outcome:
        record = json.dumps(verdict_to_json(v), sort_keys=True)
        failed, wrong, problems = self.checked(case, record, lambda: score_verdict(
            case, v.status, v.reason, _terms(v), v.diagnostics))
        return Outcome(case.family, elapsed, verdict_label(v.status, v.reason), failed, wrong,
                       problems, record=record)

    def cleanup(self) -> None:
        pass


class RankN(InProcess):
    def make_round(self, rnd):
        return rank_n_round(self.seed, rnd)


class Eligible(InProcess):
    def make_round(self, rnd):
        return eligible_round(self.seed, rnd, self.tiny)

    def warmup_cases(self):
        # one eligible-path state and the tiles control; the heavy families
        # and the capped 4x4 state are left out of set-up
        cases = eligible_round(self.seed, WARM_ROUND, tiny=True)
        return [c for c in cases if not c.capped]


# -- CLI workload -----------------------------------------------------------

@dataclass
class Command:
    kind: str                  # generate, inspect, ppt, certify_rank_n, ...
    argv: list
    case: Case | None = None   # the state the command reads, for scoring
    expect_exit: int | None = None


class Cli(InProcess):
    """One ``python -m sepcheck.cli`` process per command, in sequence."""

    unit = "commands"

    def __init__(self, name, seed, tiny):
        super().__init__(name, seed, tiny)
        self.workdir = OUT / f"cli-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def _write(self, name: str, case: Case) -> str:
        with open(self.workdir / name, "w", encoding="utf-8") as fh:
            json.dump(state_to_json(case.state), fh, sort_keys=True, indent=2)
        return name

    def make_round(self, rnd):
        s = [gen_seed(self.seed, rnd, slot) for slot in range(5)]
        rank_n = Case("cli_rank_n", random_separable(
            GeneratorSpec(dims=(3, 3), term_count=3, seed=s[0]))[0], s[0], "separable")
        eligible = Case("cli_eligible", random_separable(
            GeneratorSpec(dims=(3, 3), term_count=4, seed=s[1]))[0], s[1], "separable")
        tiles = Case("cli_tiles", tiles_upb_state(), s[2], "entangled")
        npt = wishart_npt((3, 3), s[3])
        tag = f"r{rnd}"
        files = {c.family: self._write(f"{tag}_{c.family}.json", c)
                 for c in (rank_n, eligible, tiles, npt)}
        gen_out = f"{tag}_generated.json"
        return [
            Command("generate", ["generate", gen_out, "--family", "separable-random",
                                 "--dims", "3", "3", "--terms", "4", "--seed", str(s[4])], None, 0),
            Command("inspect", ["inspect", files["cli_eligible"]], eligible, 0),
            Command("ppt", ["ppt", files[npt.family]], npt, 1),
            Command("certify_rank_n", ["certify", files["cli_rank_n"], "--seed", str(s[0])],
                    rank_n, 0),
            Command("certify_eligible", ["certify", files["cli_eligible"], "--seed", str(s[1])],
                    eligible, 0),
            Command("certify_tiles", ["certify", files["cli_tiles"], "--seed", str(s[2])],
                    tiles, 1),
        ]

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.pool = [self.make_round(r) for r in range(self.pool_rounds)]
        warm = self.make_round(WARM_ROUND)
        self.run_case(warm[3])  # one cold start: interpreter, imports, file cache

    def run_case(self, cmd: Command) -> Outcome:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "sepcheck.cli", *cmd.argv],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            return Outcome(cmd.kind, time.perf_counter() - start, "timeout", failed=True,
                           error="command timed out", record=f"{cmd.kind}:timeout")
        elapsed = time.perf_counter() - start
        return self.score_command(cmd, proc.returncode, proc.stdout.decode(), elapsed)

    def score_command(self, cmd: Command, code: int, stdout: str, elapsed: float) -> Outcome:
        problems: list = []
        wrong = failed = False
        label = cmd.kind
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            doc = None
            problems.append("stdout is not JSON")
        if code != cmd.expect_exit:
            problems.append(f"exit code {code}, expected {cmd.expect_exit}")
        if doc is not None:
            if cmd.kind == "generate":
                problems += self._check_generated(cmd.argv[1], doc)
            elif cmd.kind == "inspect":
                rho, m, n = cmd.case.state.rho, cmd.case.state.dim_a, cmd.case.state.dim_b
                if doc.get("rank") != checker.rank(rho) or doc.get("rank_ta") != checker.rank(
                        checker.partial_transpose(rho, m, n)):
                    problems.append("inspect ranks disagree with the checker")
            elif cmd.kind == "ppt":
                rho, m, n = cmd.case.state.rho, cmd.case.state.dim_a, cmd.case.state.dim_b
                wmin = checker.min_eig(checker.partial_transpose(rho, m, n))
                if doc.get("ppt") is not False or abs(doc.get("min_eigenvalue", 0.0) - wmin) > 1e-9:
                    problems.append("ppt report disagrees with the checker")
            else:
                terms = None
                if doc.get("certificate") is not None:
                    terms = [(t["weight"], _vec(t["e"]), _vec(t["f"])) for t in doc["certificate"]]
                status, reason = doc.get("status"), doc.get("reason")
                label = verdict_label(status, reason)
                failed, wrong, verdict_problems = score_verdict(
                    cmd.case, status, reason, terms, doc.get("diagnostics", {}))
                problems += verdict_problems
        failed = failed or bool(problems)
        return Outcome(cmd.kind, elapsed, label, failed, wrong, problems,
                       record=f"{cmd.kind}:{code}:{stdout}")

    def _check_generated(self, name: str, doc: dict) -> list:
        try:
            state = json.loads((self.workdir / name).read_text(encoding="utf-8"))
            sidecar = json.loads((self.workdir / (name + ".decomp.json")).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            return [f"generated files unreadable: {exc}"]
        m, n = state["dim_a"], state["dim_b"]
        rho = np.array([[complex(a, b) for a, b in row] for row in state["matrix"]])
        terms = [(t["weight"], _vec(t["e"]), _vec(t["f"])) for t in sidecar["terms"]]
        problems = checker.check_certificate(rho, m, n, terms)
        if doc.get("planted_terms") != len(terms) or abs(np.trace(rho).real - 1.0) > 1e-8:
            problems.append("generate report disagrees with its files")
        return problems

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _vec(pairs) -> np.ndarray:
    return np.array([complex(a, b) for a, b in pairs])


WORKLOADS = {"rank_n": RankN, "eligible": Eligible, "cli": Cli}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(wl: InProcess, seconds: float):
    """Run operations until ``seconds`` of operation time are measured.

    Every round of the pool completes once, so each run scores the same
    inputs; afterwards the run stops at the first operation boundary past
    ``seconds``.  Returns the outcomes, the measured seconds and the number
    of rounds started.
    """
    outcomes: list[Outcome] = []
    busy = 0.0
    rnd = 0
    while busy < seconds or rnd < len(wl.pool):
        for case in wl.round_cases(rnd):
            if rnd >= len(wl.pool) and busy >= seconds:
                break
            out = wl.run_case(case)
            out.key = id(case)
            busy += out.latency
            outcomes.append(out)
        rnd += 1
    return outcomes, busy, rnd


def digest(outcomes: list[Outcome]) -> str:
    """sha256 of the canonical outputs (sorted-key verdict JSON, CLI stdout)."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.record.encode())
        h.update(b"\n")
    return h.hexdigest()


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus fresh set-ups in child processes."""
    samples = [first]
    for _ in range(0 if args.tiny else SPEC["setup_repeats"] - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, timeout=170, check=True)
        samples.append(float(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]))
    return samples


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

def _subprocess_ms(argv: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
    return (time.perf_counter() - start) * 1e3


def cli_import_metrics(env: dict, repeats: int) -> dict:
    """Interpreter start, ``import sepcheck.cli`` and its scipy.optimize share."""
    py = sys.executable
    interp = statistics.median(_subprocess_ms([py, "-c", "pass"], env) for _ in range(repeats))
    full = statistics.median(_subprocess_ms([py, "-c", "import sepcheck.cli"], env)
                             for _ in range(repeats))
    proc = subprocess.run([py, "-X", "importtime", "-c", "import sepcheck.cli"], env=env,
                          capture_output=True, timeout=120, check=True)
    scipy_opt = 0.0
    for line in proc.stderr.decode().splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.optimize":
            scipy_opt = int(parts[1]) / 1e3  # cumulative microseconds
    return {"cli.interpreter_ms": interp, "cli.import_ms": full - interp,
            "cli.import.scipy_optimize_ms": scipy_opt}


def _planted_recovery(case: Case, es, counts: dict) -> None:
    if es is None or not case.planted:
        return
    found = [np.kron(pv.e, pv.f) for pv in es.vectors]
    if found and found[0].shape[0] != case.state.rho.shape[0]:
        return  # the search ran on a compressed support; vectors not comparable
    missing = 0
    for e, f in case.planted:
        planted = np.kron(e, f)
        best = min((np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(planted, v)))) for v in found),
                   default=np.inf)
        if best <= PLANTED_DISTANCE:
            counts["vectors.planted.found"] += 1
        else:
            missing += 1
        counts["vectors.planted.total"] += 1
    if missing and es.exhaustive:
        counts["vectors.false_exhaustive"] += 1


def replay(wl: InProcess, rounds: int, tracer: Tracer | None = None):
    """Run the first rounds again in this process; returns outcomes and busy seconds.

    CLI commands go through ``sepcheck.cli.main`` instead of a child process.
    With a tracer, planted-vector recovery is scored against each search.
    """
    outcomes, busy = [], 0.0
    for rnd in range(rounds):
        for case in wl.round_cases(rnd):
            if isinstance(wl, Cli):
                out = cli_in_process(wl, case)
            else:
                if tracer is not None:
                    tracer.last_eligible = None
                out = wl.run_case(case)
                if tracer is not None:
                    _planted_recovery(case, tracer.last_eligible, tracer.counts)
            busy += out.latency
            outcomes.append(out)
    return outcomes, busy


def cli_in_process(wl: Cli, cmd: Command) -> Outcome:
    """Call ``sepcheck.cli.main`` in this process with the command's argv."""
    argv = list(cmd.argv)
    argv[1] = str(wl.workdir / argv[1])
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = sepcheck.cli.main(argv)
    elapsed = time.perf_counter() - start
    return Outcome(cmd.kind, elapsed, f"exit{code}", record=sink.getvalue())


def layer_metrics(tracer: Tracer, outcomes: list[Outcome]) -> dict:
    """Every per-layer metric of BENCHMARK.json; layers that did not run read 0."""
    values = {m["name"]: 0.0 for m in BENCH["per_layer"]}
    times = tracer.self_times()
    for name, (calls, self_s) in times.items():
        values[f"{name}.calls"] = float(calls)
        values[f"{name}.self_ms"] = self_s * 1e3
    values["numlin.linalg.self_ms"] = 1e3 * sum(
        self_s for name, (_, self_s) in times.items() if name in LINALG_SPANS)
    for key, val in tracer.counts.items():
        values[key] = float(val)
    total = tracer.counts.get("vectors.planted.total", 0.0)
    values["vectors.planted_recovery"] = (
        tracer.counts.get("vectors.planted.found", 0.0) / total if total else 0.0)
    for out in outcomes:
        key = f"certify.verdict.{out.label}"
        if key in values:
            values[key] += 1.0
        if out.label == "capped":
            # the outermost span is always open, so a cap outside every inner
            # span belongs to the pipeline itself
            key = f"{out.cap_layer or 'certify'}.timeouts"
            values[key] = values.get(key, 0.0) + 1.0
    return {m["name"]: values[m["name"]] for m in BENCH["per_layer"]}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    p.add_argument("--tiny", action="store_true",
                   help="one small round per pool, short wall cap, one set-up sample")
    return p.parse_args(argv)


def main(argv=None, t0: float | None = None) -> dict:
    """Run one benchmark invocation; prints the result and returns it."""
    t0 = time.perf_counter() if t0 is None else t0
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    spec = SPEC["workloads"][args.workload]
    wl = WORKLOADS[args.workload](args.workload, args.seed, args.tiny)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            result = {"setup_s": setup_s}
            print(json.dumps(result))
            return result

        outcomes, busy, rounds = measure(wl, args.seconds)
        latencies = [o.latency for o in outcomes]
        attempted = len({o.key for o in outcomes})
        failed = len({o.key for o in outcomes if o.failed})
        wrong = len({o.key for o in outcomes if o.wrong})
        percentile = spec["tail_percentile"]
        tail_s = float(np.percentile(latencies, percentile))
        pool_ops = sum(len(r) for r in wl.pool)
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "unit": wl.unit, "rounds": rounds, "attempted": attempted,
            "fail_rate": failed / attempted, "wrong_verdicts": wrong,
            "failures": _failure_table(outcomes),
            "tail_percentile": percentile, "samples": len(outcomes),
            "samples_beyond_tail": sum(x > tail_s for x in latencies),
            "verdict_digest": digest(outcomes[:pool_ops]), "digest_ops": pool_ops,
            "peak_rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "environment": environment(),
        }
        if args.trace:
            metrics = traced_metrics(wl, args, outcomes, detail)
            names = [m["name"] for m in BENCH["per_layer"]]
        else:
            samples = setup_samples(args, setup_s)
            detail["setup_samples_s"] = samples
            metrics = {
                "setup_s": statistics.median(samples),
                "states_per_s": len(outcomes) / busy,
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail_s * 1e3,
                "success_rate": 1.0 - failed / attempted,
                "verdict_accuracy": 1.0 - wrong / attempted,
                # the work of the cli workload happens in its child processes
                "peak_rss_mb": detail["peak_rss_children_mb" if isinstance(wl, Cli)
                                      else "peak_rss_self_mb"],
            }
            names = [m["name"] for m in BENCH["end_to_end"]]
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        result = {
            "correct": not any(o.problems for o in outcomes),
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": units[n]} for n in names},
        }
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps(result))
        return result
    finally:
        wl.cleanup()


def traced_metrics(wl: InProcess, args, outcomes: list[Outcome], detail: dict) -> dict:
    """Per-layer metrics from a traced replay of the first rounds.

    The tracing overhead compares the replay with the untraced timings of the
    same rounds in the measured run, so both sides see the same mix.
    """
    rounds = 1 if args.tiny else SPEC["workloads"][args.workload]["trace_rounds"]
    rounds, ops = _whole_rounds(wl, len(outcomes), rounds)
    untraced_rate = ops / sum(o.latency for o in outcomes[:ops])
    if isinstance(wl, Cli):
        # both sides of the overhead are in-process sepcheck.cli.main calls; the
        # first replay pays the pipeline's lazy imports and is dropped
        replay(wl, rounds)
        plain, plain_busy = replay(wl, rounds)
        untraced_rate = len(plain) / plain_busy
    tracer = Tracer()
    with tracer:
        traced, busy = replay(wl, rounds, tracer)
    metrics = layer_metrics(tracer, traced)
    if isinstance(wl, Cli):
        metrics.update(cli_import_metrics(wl.env, 1 if args.tiny else 3))
    traced_rate = len(traced) / busy
    metrics["trace.overhead_states_per_s"] = untraced_rate - traced_rate
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(spans_path)
    detail.update({
        "traced_rounds": rounds, "traced_states_per_s": traced_rate,
        "untraced_states_per_s": untraced_rate,
        "planted_vectors": tracer.counts.get("vectors.planted.total", 0.0),
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
    })
    return metrics


def _whole_rounds(wl: InProcess, done: int, limit: int) -> tuple[int, int]:
    """How many leading rounds (at most ``limit``) the first ``done`` operations cover."""
    rounds = ops = 0
    while rounds < limit and ops + len(wl.round_cases(rounds)) <= done:
        ops += len(wl.round_cases(rounds))
        rounds += 1
    return rounds, ops


def _failure_table(outcomes: list[Outcome]) -> dict:
    """Per family: operations, failures, wrong verdicts, and the labels seen."""
    table: dict = {}
    for o in outcomes:
        row = table.setdefault(o.family, {"ops": 0, "failed": 0, "wrong": 0, "labels": {},
                                          "problems": []})
        if o.error and o.error not in row["problems"]:
            row["problems"].append(o.error)
        row["ops"] += 1
        row["failed"] += o.failed
        row["wrong"] += o.wrong
        row["labels"][o.label] = row["labels"].get(o.label, 0) + 1
        for p in o.problems:
            if p not in row["problems"]:
                row["problems"].append(p)
    return table
