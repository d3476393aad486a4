"""Spans around ``hypernorm``'s public functions, for the traced run.

The modules import each other's functions by name (``from .sdp import
solve_sdp``), so a wrapper must replace the name where the caller looks it
up: ``hypernorm.dps.solve_sdp``, not ``hypernorm.sdp.solve_sdp``.  Methods are
wrapped on their class, which every caller shares.

Spans (name, start, end, parent span, item id) stay in memory until the run
ends.  A span's self time is its duration minus the durations of its direct
children; the children nest inside it, so the self times of a pass plus the
time outside every span add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from hypernorm import dps, lasserre, oracles, reductions, sdp, sse, tensorsdp


def _observe_solve(counts, args, sol):
    counts["sdp.iterations"] += sol.iterations
    counts["sdp.maxiter_stops"] += sol.status == "max-iter"


def _observe_problem(counts, args, _):
    problem = args[0]
    counts["sdp.rows"] += problem.m
    counts["sdp.svec_dim"] += problem.svec_dim


def _observe_a22(counts, args, res):
    if isinstance(res, tensorsdp.A22Result):
        counts["tensorsdp.a22_iterations"] += res.iterations


def _observe_norm_oracle(counts, args, res):
    counts["oracles.starts"] += res.trace.get("starts", 0)
    counts["oracles.improving_starts"] += res.trace.get("improving_starts", 0)


MR = tensorsdp.MomentRelaxation

# (owner, attribute, span name, observer) for every wrapped lookup site
TARGETS = (
    [(mod, "solve_sdp", "sdp.solve_sdp", _observe_solve) for mod in (tensorsdp, dps, lasserre)]
    + [(mod, "norm_2_to_q_lower", "oracles.norm_2_to_q_lower", _observe_norm_oracle)
       for mod in (oracles, tensorsdp, sse, reductions)]
    + [(mod, "h_sep_lower", "oracles.h_sep_lower", None) for mod in (oracles, reductions)]
    + [
        (sdp.SdpProblem, "__init__", "sdp.SdpProblem", _observe_problem),
        (tensorsdp, "objective_expand", "polybasis.objective_expand", None),
        (MR, "__init__", "tensorsdp.MomentRelaxation", None),
        (MR, "certificate", "tensorsdp.certificate", None),
        (MR, "extract_pseudoexpectation", "tensorsdp.extract_pseudoexpectation", None),
        (tensorsdp, "a22_value", "tensorsdp.a22_value", _observe_a22),
        (tensorsdp, "index_symmetrize", "tensorsdp.index_symmetrize", None),
        (reductions, "inj_sym4_lower", "oracles.inj_sym4_lower", None),
        (dps, "dps_value", "dps.dps_value", None),
        (dps, "h_ext", "dps.h_ext", None),
        (dps, "partial_transpose", "linalg.partial_transpose", None),
        (lasserre, "solve_lasserre_maxcut", "lasserre.solve_lasserre_maxcut", None),
        (lasserre, "solve_sos_maxcut", "lasserre.solve_sos_maxcut", None),
        (lasserre, "lasserre_roundtrip", "lasserre.lasserre_roundtrip", None),
        (lasserre, "validate_pef", "pseudoexp.validate_pef", None),
        (sse, "sse_decide", "sse.sse_decide", None),
        (sse, "expansion_profile", "sse.expansion_profile", None),
        (sse, "check_norm_implies_expansion", "sse.check_norm_implies_expansion", None),
        (reductions, "build_tensor_forms", "reductions.build_tensor_forms", None),
    ]
)
SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, item id]
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else -1, tracer.item]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if observe is not None:
                observe(tracer.counts, args, out)
            return out

        return wrapper

    def install(self):
        for owner, attr, name, observe in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, observe))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self, first: int = 0) -> dict:
        """Self time per span name over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for s, c in zip(spans, child):
            out[s[0]] += (s[2] - s[1]) - c
        return out
