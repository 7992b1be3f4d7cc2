"""Span tracing of the ``sepcheck`` layers, installed from outside the program.

:class:`Tracer` replaces every ``sepcheck`` module binding of the traced
functions with a wrapper that records a span (name, start, end, parent id).
``from .numlin import numerical_rank`` copies the function object into the
importing module, so each copy is replaced, not just the defining one.  The
``numpy.linalg`` primitives are wrapped too, and counted only while a
``sepcheck`` span is open, so the harness's own checks do not pollute them.
``MultiPoly.__mul__`` is counted without a span: a 2x6 state makes tens of
thousands of multiplications.  :meth:`Tracer.uninstall` restores every
original binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Spans to record: (module, function name) -> span name.
SPANS = {
    ("state", "support_compress"): "state.support_compress",
    ("state", "partial_transpose"): "state.partial_transpose",
    ("state", "is_ppt"): "state.is_ppt",
    ("numlin", "numerical_rank"): "numlin.numerical_rank",
    ("numlin", "range_basis"): "numlin.range_basis",
    ("numlin", "kernel_basis"): "numlin.kernel_basis",
    ("numlin", "pseudo_inverse"): "numlin.pseudo_inverse",
    ("numlin", "inv_sqrt_on_range"): "numlin.inv_sqrt_on_range",
    ("numlin", "joint_diagonalize"): "numlin.joint_diagonalize",
    ("canon", "decompose_rank_n"): "canon.decompose_rank_n",
    ("canon", "find_full_rank_direction"): "canon.find_full_rank_direction",
    ("canon", "to_canonical_form"): "canon.to_canonical_form",
    ("reduce", "probe_kernel_alignment"): "reduce.probe_kernel_alignment",
    ("reduce", "subtract_product"): "reduce.subtract_product",
    ("vectors", "enumerate_eligible"): "vectors.enumerate_eligible",
    # minor construction: the public entry and the per-block helper that
    # enumerate_eligible calls directly share one name
    ("vectors", "minor_polynomials"): "vectors.minor_polynomials",
    ("vectors", "_minor_system"): "vectors.minor_polynomials",
    ("vectors", "eliminate"): "vectors.eliminate",
    ("vectors", "back_substitute"): "vectors.back_substitute",
    ("certify", "separability_check"): "certify.separability_check",
    ("certify", "spectral_ball_check"): "certify.spectral_ball_check",
    ("certify", "certify_by_subsets"): "certify.certify_by_subsets",
    ("certify", "bsa_decompose"): "certify.bsa_decompose",
    ("certify", "nnls"): "certify.nnls",
    ("certify", "minimize_scalar"): "certify.minimize_scalar",
    ("cli", "main"): "cli.main",
}

# numpy.linalg primitives, all reported under the numlin layer.
LINALG = {
    "svd": "numlin.svd",
    "eigh": "numlin.eigh",
    "eigvalsh": "numlin.eigh",
    "lstsq": "numlin.lstsq",
    "qr": "numlin.qr",
    "matrix_rank": "numlin.matrix_rank",
}

MODULES = ("state", "numlin", "canon", "reduce", "vectors", "certify", "cli", "fixtures")


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        # [name, start, end, parent id]; a span's id is its index here
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.last_eligible = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, linalg: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if linalg and not stack:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # the innermost open span owns an interrupting wall cap
                if hasattr(exc, "cap_layer") and exc.cap_layer is None:
                    exc.cap_layer = name.split(".")[0]
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "vectors.enumerate_eligible":
                tracer.last_eligible = result
                tracer.counts["vectors.degree_bound.sum"] += result.degree_bound
                tracer.counts["vectors.candidates.accepted"] += len(result.vectors)
            elif name == "certify.bsa_decompose":
                tracer.counts["certify.bsa.iterations"] += result.iterations
            return result

        return wrapper

    def _count_calls(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in every sepcheck module."""
        mods = [sys.modules["sepcheck"]] + [sys.modules[f"sepcheck.{m}"] for m in MODULES]
        wrappers = {}
        for (mod_name, fn_name), span in SPANS.items():
            original = getattr(sys.modules[f"sepcheck.{mod_name}"], fn_name)
            wrappers[id(original)] = (original, self._wrap(span, original))
        for module in mods:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(module, attr, hit[1])
        for attr, span in LINALG.items():
            self._replace(np.linalg, attr, self._wrap(span, getattr(np.linalg, attr), linalg=True))
        poly = sys.modules["sepcheck.vectors"].MultiPoly
        self._replace(poly, "__mul__", self._count_calls("vectors.MultiPoly.mul.calls", poly.__mul__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        A span's self time is its duration minus the time its direct
        children cover; children never overlap because the program is
        single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name][0] += 1
            out[name][1] += (end - start) - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        """Write the spans out, one record per span, in opening order."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)
            ], fh)
