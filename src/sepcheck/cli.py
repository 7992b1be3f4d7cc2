"""Command-line front end; every command prints one JSON document.

Exit codes are a stable contract: 0 separable / success, 1 entangled,
2 inconclusive / not converged, 3 error.  Usage errors, bad input documents,
flag or SEPCHECK_SEED values and unwritable outputs all exit 3 with one
``error:`` line; output files are written before stdout.  All randomized
behavior is reproducible from --seed alone; SEPCHECK_SEED provides the
environment default that an explicit --seed overrides.  Each command imports
the stage it runs, so ``inspect`` and ``ppt`` never load the solver.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from .errors import (
    DecompositionFailed,
    NonGeneric,
    NotPPT,
    RankSumTooHigh,
    RankTooLow,
    SepcheckError,
)
from .fixtures import FAMILIES, GeneratorSpec, generate
from .numlin import Tolerances
from .state import (
    decomposition_from_json,
    decomposition_to_json,
    load_state,
    partial_transpose,
    read_json,
    state_report,
    state_to_json,
    vector_to_json,
    write_json,
)

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3
EXIT_BY_STATUS = {"Separable": EXIT_SEPARABLE, "Entangled": EXIT_ENTANGLED,
                  "Inconclusive": EXIT_INCONCLUSIVE}


def _load(args) -> None:
    """Read every input of a command onto ``args``.

    Sets ``tol``, the resolved ``seed``, the ``state`` read from ``path``
    and, for ``bsa``, the ``projectors`` read from their decomposition
    document.  Any bad input raises ``ValueError`` or ``OSError``.
    """
    args.tol = Tolerances(rank_rel=args.tol_rank, psd_abs=args.tol_psd,
                          residual_abs=args.tol_residual, root_abs=args.tol_root)
    if args.seed is None:
        env = os.environ.get("SEPCHECK_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:
            raise ValueError(f"SEPCHECK_SEED must be an integer, got {env!r}") from None
    if "path" in args:
        args.state = load_state(args.path, args.tol)
    if "projectors" in args:
        doc = read_json(args.projectors)
        dec = decomposition_from_json(doc, args.state.dim_a, args.state.dim_b)
        args.projectors = [pv for _, pv in dec.terms]


def cmd_inspect(args) -> int:
    s = args.state
    w = np.linalg.eigvalsh(partial_transpose(s))
    report = state_report(s, w, args.tol)
    report["dim_a"], report["dim_b"] = report.pop("dims")
    rank_sum = report["rank"] + report["rank_ta"]
    bound = 2 * s.dim_a * s.dim_b - s.dim_a - s.dim_b + 2
    report.update(ppt=bool(w[0] >= -args.tol.psd_floor(s.trace)), rank_sum=rank_sum,
                  rank_sum_bound=bound, rank_sum_within_bound=rank_sum <= bound)
    write_json(report)
    return 0


def cmd_certify(args) -> int:
    from .certify import separability_check, verdict_to_json

    verdict = separability_check(args.state, args.tol, seed=args.seed)
    if verdict.certificate is not None:
        write_json(decomposition_to_json(verdict.certificate),
                   args.certificate_out or f"{args.path}.certificate.json")
    write_json(verdict_to_json(verdict))
    return EXIT_BY_STATUS[verdict.status]


def cmd_generate(args) -> int:
    state, planted = generate(GeneratorSpec(
        dims=(args.dims[0], args.dims[1]),
        family=args.family,
        term_count=args.terms,
        target_ranks=tuple(args.ranks) if args.ranks else None,
        seed=args.seed,
        p=args.p,
    ))
    write_json(state_to_json(state), args.out)
    if planted is not None:
        write_json(decomposition_to_json(planted), f"{args.out}.decomp.json")
    write_json({"path": str(args.out), "family": args.family,
                "dims": [args.dims[0], args.dims[1]],
                "planted_terms": len(planted.terms) if planted else None})
    return 0


def cmd_ppt(args) -> int:
    s = args.state
    # is_ppt's test, on the one eigenvalue both outputs need
    wmin = float(np.linalg.eigvalsh(partial_transpose(s))[0])
    ppt = wmin >= -args.tol.psd_floor(s.trace)
    write_json({"ppt": ppt, "min_eigenvalue": wmin})
    return EXIT_SEPARABLE if ppt else EXIT_ENTANGLED


def cmd_decompose(args) -> int:
    from .canon import decompose_rank_n

    try:
        dec = decompose_rank_n(args.state, args.tol, seed=args.seed)
    except (NotPPT, RankTooLow) as exc:
        print(f"entangled: {exc}", file=sys.stderr)
        return EXIT_ENTANGLED
    except (DecompositionFailed, ValueError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    doc = decomposition_to_json(dec)
    if args.out:
        write_json(doc, args.out)
    write_json(doc)
    return EXIT_SEPARABLE


def cmd_eligible(args) -> int:
    from .vectors import enumerate_eligible

    try:
        es = enumerate_eligible(args.state, args.tol, seed=args.seed)
    except (NonGeneric, RankSumTooHigh) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    write_json({
        "count": len(es.vectors),
        "exhaustive": es.exhaustive,
        "degree_bound": es.degree_bound,
        "vectors": [{"e": vector_to_json(pv.e), "f": vector_to_json(pv.f)}
                    for pv in es.vectors],
    })
    return 0


def cmd_bsa(args) -> int:
    from .certify import bsa_decompose

    result = bsa_decompose(args.state, args.projectors, args.tol, max_iters=args.max_iters)
    write_json({
        "lambda": result.lam,
        "weights": [float(w) for w in result.weights],
        "converged": result.converged,
        "iterations": result.iterations,
        "lambda_trace": [float(x) for x in result.lam_trace],
    })
    return EXIT_SEPARABLE if result.converged else EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcheck",
        description="Constructive separability checks for low-rank bipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol = Tolerances()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=tol.rank_rel,
                        help="relative singular-value cutoff for ranks")
    common.add_argument("--tol-psd", type=float, default=tol.psd_abs,
                        help="absolute eigenvalue floor for positivity")
    common.add_argument("--tol-residual", type=float, default=tol.residual_abs,
                        help="absolute Frobenius residual for reconstructions")
    common.add_argument("--tol-root", type=float, default=tol.root_abs,
                        help="absolute tolerance for polynomial roots")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: SEPCHECK_SEED or 0)")

    def command(name, func, help_text, positional="path"):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    command("inspect", cmd_inspect, "print ranks, kernel dims and PPT status")

    p = command("certify", cmd_certify, "run the full separability pipeline")
    p.add_argument("--certificate-out", default=None,
                   help="where to write the certificate sidecar (default: <path>.certificate.json)")

    p = command("generate", cmd_generate, "write a state document from a family spec", "out")
    p.add_argument("--family", choices=FAMILIES, default="separable-random")
    p.add_argument("--dims", type=int, nargs=2, default=(3, 3), metavar=("M", "N"))
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--ranks", type=int, nargs=2, default=None, metavar=("R", "RT"))
    p.add_argument("--p", type=float, default=None, help="mixing parameter")

    command("ppt", cmd_ppt, "test the partial transpose for positivity")

    p = command("decompose", cmd_decompose, "exact rank-N product decomposition")
    p.add_argument("--out", default=None, help="write the decomposition document here")

    command("eligible-vectors", cmd_eligible, "enumerate eligible product vectors")

    p = command("bsa", cmd_bsa, "best separable approximation over given projectors")
    p.add_argument("--projectors", required=True,
                   help="decomposition document supplying the product vectors")
    p.add_argument("--max-iters", type=int, default=400,
                   help="iteration cap for the separable-approximation sweep")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "inconclusive" here;
        # --help exits 0
        return EXIT_ERROR if exc.code else 0
    try:
        _load(args)
        return args.func(args)
    except Exception as exc:
        # exits 1 and 2 are verdicts, so every failure exits 3; only a
        # failure that is not a bad input or output keeps its traceback
        if not isinstance(exc, (OSError, ValueError, SepcheckError)):
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
