"""Command-line front end with machine-readable output.

Exit codes are a stable contract: 0 separable / success, 1 entangled,
2 inconclusive / not converged, 3 error.  All randomized behavior is
reproducible from --seed alone; SEPCHECK_SEED provides the environment
default that an explicit --seed overrides.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .certify import bsa_decompose, separability_check, verdict_to_json
from .errors import NonGeneric, RankSumTooHigh, SepcheckError
from .fixtures import FAMILIES, GeneratorSpec, generate
from .numlin import Tolerances, numerical_rank
from .state import (
    BipartiteState,
    Decomposition,
    ProductVector,
    is_ppt,
    load_state,
    partial_transpose,
    reduced_a,
    reduced_b,
    state_to_json,
)
from .vectors import enumerate_eligible

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3


def _dump(doc, stream=None) -> None:
    stream = stream or sys.stdout
    json.dump(doc, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _write_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _vector_pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _decomposition_doc(dec: Decomposition) -> dict:
    return {
        "terms": [
            {"weight": float(w), "e": _vector_pairs(pv.e), "f": _vector_pairs(pv.f)}
            for w, pv in dec.terms
        ],
        "residual": float(dec.residual),
    }


def _decomposition_from_doc(doc: dict) -> list[ProductVector]:
    vectors = []
    for term in doc["terms"]:
        e = np.array([complex(p[0], p[1]) for p in term["e"]])
        f = np.array([complex(p[0], p[1]) for p in term["f"]])
        vectors.append(ProductVector(e, f))
    return vectors


def _tolerances(args) -> Tolerances:
    return Tolerances(
        rank_rel=args.tol_rank,
        psd_abs=args.tol_psd,
        residual_abs=args.tol_residual,
        root_abs=args.tol_root,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float, default=1e-9,
                        help="relative singular-value cutoff for ranks")
    parser.add_argument("--tol-psd", type=float, default=1e-9,
                        help="absolute eigenvalue floor for positivity")
    parser.add_argument("--tol-residual", type=float, default=1e-8,
                        help="absolute Frobenius residual for reconstructions")
    parser.add_argument("--tol-root", type=float, default=1e-6,
                        help="absolute tolerance for polynomial roots")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default: SEPCHECK_SEED or 0)")
    parser.add_argument("--budget-directions", type=int, default=64,
                        help="attempt budget for the full-rank direction search")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return int(os.environ.get("SEPCHECK_SEED", "0"))
    except ValueError:
        return 0


def _inspect_report(s: BipartiteState, tol: Tolerances) -> dict:
    m, n = s.dim_a, s.dim_b
    pt = partial_transpose(s)
    r = numerical_rank(s.rho, tol)
    rt = numerical_rank(pt, tol)
    return {
        "dim_a": m,
        "dim_b": n,
        "trace": s.trace,
        "rank": r,
        "rank_ta": rt,
        "local_rank_a": numerical_rank(reduced_a(s), tol),
        "local_rank_b": numerical_rank(reduced_b(s), tol),
        "kernel_dim": m * n - r,
        "kernel_dim_ta": m * n - rt,
        "ppt": is_ppt(s, tol),
        "rank_sum": r + rt,
        "rank_sum_bound": 2 * m * n - m - n + 2,
        "rank_sum_within_bound": r + rt <= 2 * m * n - m - n + 2,
    }


def cmd_inspect(args) -> int:
    tol = _tolerances(args)
    try:
        s = load_state(args.path, tol)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = _inspect_report(s, tol)
    if args.format == "json":
        _dump(report)
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
    return 0


def cmd_certify(args) -> int:
    tol = _tolerances(args)
    try:
        s = load_state(args.path, tol)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    verdict = separability_check(
        s, tol, seed=_resolve_seed(args), direction_budget=args.budget_directions)
    doc = verdict_to_json(verdict)
    if args.format == "json":
        _dump(doc)
    else:
        print(f"status: {verdict.status}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
        if verdict.certificate is not None:
            print(f"certificate terms: {len(verdict.certificate.terms)}")
            print(f"certificate residual: {verdict.certificate.residual:.3e}")
    if verdict.certificate is not None:
        cert_path = args.certificate_out or (str(args.path) + ".certificate.json")
        _write_json(_decomposition_doc(verdict.certificate), cert_path)
    if verdict.status == "Separable":
        return EXIT_SEPARABLE
    if verdict.status == "Entangled":
        return EXIT_ENTANGLED
    return EXIT_INCONCLUSIVE


def cmd_generate(args) -> int:
    try:
        spec = GeneratorSpec(
            dims=(args.dims[0], args.dims[1]),
            family=args.family,
            term_count=args.terms,
            target_ranks=tuple(args.ranks) if args.ranks else None,
            seed=_resolve_seed(args),
            p=args.p,
        )
        state, planted = generate(spec)
    except (ValueError, SepcheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write_json(state_to_json(state), args.out)
    if planted is not None:
        _write_json(_decomposition_doc(planted), str(args.out) + ".decomp.json")
    if args.format == "text":
        print(f"wrote {args.out}")
    else:
        _dump({"path": str(args.out), "family": args.family,
               "dims": [args.dims[0], args.dims[1]],
               "planted_terms": len(planted.terms) if planted else None})
    return 0


def cmd_ppt(args) -> int:
    tol = _tolerances(args)
    try:
        s = load_state(args.path, tol)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    pt = partial_transpose(s)
    wmin = float(np.linalg.eigvalsh(pt)[0])
    ppt = is_ppt(s, tol)
    if args.format == "json":
        _dump({"ppt": ppt, "min_eigenvalue": wmin})
    else:
        print(f"ppt: {ppt} (min eigenvalue {wmin:.3e})")
    return EXIT_SEPARABLE if ppt else EXIT_ENTANGLED


def cmd_decompose(args) -> int:
    from .canon import decompose_rank_n
    from .errors import DecompositionFailed, NotPPT, RankTooLow

    tol = _tolerances(args)
    try:
        s = load_state(args.path, tol)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        dec = decompose_rank_n(s, tol, seed=_resolve_seed(args),
                               direction_budget=args.budget_directions)
    except (NotPPT, RankTooLow) as exc:
        print(f"entangled: {exc}", file=sys.stderr)
        return EXIT_ENTANGLED
    except (DecompositionFailed, ValueError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    doc = _decomposition_doc(dec)
    if args.format == "json":
        _dump(doc)
    else:
        print(f"terms: {len(dec.terms)}  residual: {dec.residual:.3e}")
    if args.out:
        _write_json(doc, args.out)
    return EXIT_SEPARABLE


def cmd_eligible(args) -> int:
    tol = _tolerances(args)
    try:
        s = load_state(args.path, tol)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        es = enumerate_eligible(s, tol, seed=_resolve_seed(args))
    except (NonGeneric, RankSumTooHigh) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    doc = {
        "count": len(es.vectors),
        "exhaustive": es.exhaustive,
        "degree_bound": es.degree_bound,
        "vectors": [
            {"e": _vector_pairs(pv.e), "f": _vector_pairs(pv.f)} for pv in es.vectors
        ],
    }
    if args.format == "json":
        _dump(doc)
    else:
        print(f"eligible vectors: {doc['count']} (exhaustive: {es.exhaustive})")
    return 0


def cmd_bsa(args) -> int:
    tol = _tolerances(args)
    try:
        s = load_state(args.path, tol)
        with open(args.projectors, encoding="utf-8") as fh:
            projectors = _decomposition_from_doc(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    result = bsa_decompose(s, projectors, tol, max_iters=args.max_iters)
    doc = {
        "lambda": result.lam,
        "weights": [float(w) for w in result.weights],
        "converged": result.converged,
        "iterations": result.iterations,
        "lambda_trace": [float(x) for x in result.lam_trace],
    }
    if args.format == "json":
        _dump(doc)
    else:
        print(f"lambda: {result.lam:.6f} converged: {result.converged}")
    return EXIT_SEPARABLE if result.converged else EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcheck",
        description="Constructive separability checks for low-rank bipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="print ranks, kernel dims and PPT status")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("certify", help="run the full separability pipeline")
    p.add_argument("path")
    p.add_argument("--certificate-out", default=None,
                   help="where to write the certificate sidecar (default: <path>.certificate.json)")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("generate", help="write a state document from a family spec")
    p.add_argument("out")
    p.add_argument("--family", choices=FAMILIES, default="separable-random")
    p.add_argument("--dims", type=int, nargs=2, default=(3, 3), metavar=("M", "N"))
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--ranks", type=int, nargs=2, default=None, metavar=("R", "RT"))
    p.add_argument("--p", type=float, default=None, help="mixing parameter")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ppt", help="test the partial transpose for positivity")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("decompose", help="exact rank-N product decomposition")
    p.add_argument("path")
    p.add_argument("--out", default=None, help="write the decomposition document here")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eligible-vectors", help="enumerate eligible product vectors")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_eligible)

    p = sub.add_parser("bsa", help="best separable approximation over given projectors")
    p.add_argument("path")
    p.add_argument("--projectors", required=True,
                   help="decomposition document supplying the product vectors")
    p.add_argument("--max-iters", type=int, default=400,
                   help="iteration cap for the separable-approximation sweep")
    _add_common(p)
    p.set_defaults(func=cmd_bsa)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SepcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
