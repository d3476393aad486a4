#!/usr/bin/env python3
"""Benchmark of the certified 2->4 norm bounds of ``hypernorm``.

    python3 perfbench/run.py --workload moment-cert --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's items in a closed loop, each item
starting after the previous one is checked, and repeats whole passes until
``--seconds`` is spent (at least two, so every output is seen twice).  Each
item's outputs must pass its check and repeat bitwise in every pass.

Other tenants of a shared host change the speed of its cores by up to 1.7x
over minutes, so ``wall_s`` scales each item's time to a reference machine
speed, measured by a fixed probe run between items (``speed.py``).  The raw
times are printed beside it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics of the traced ones, the
time outside every span and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  The matrices are small (at most a
# few hundred rows), a second thread bought 13 % on an idle moment-cert pass
# and lost it again whenever another process shared the two cores; see
# NOTES.md.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed    # numpy only; the script's own directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_PASSES = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["moment-cert", "random-a22", "sep-graph"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_benchmark():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    return workloads


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter through ``import
    hypernorm`` to the generated inputs, over several child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(t1 - t0)
    return statistics.median(samples)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HYPERNORM_THREADS")},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": wl.name,
        "seed": seed,
        "budgets": wl.budgets,
        "items": [item.id for item in wl.items],
    }


def run_pass(wl, workloads, tracer=None):
    """One closed-loop pass; returns per-item times and outcomes, plus spans
    and counts when traced.  A plain pass also probes the machine speed
    before the first item and after each one, and keeps every item's time
    corrected to the reference speed; the probes are not part of ``wall``."""
    done, times, corrected, probes = {}, {}, {}, []
    first_span = 0
    if tracer is not None:
        first_span = len(tracer.spans)
        tracer.counts = Counter()
        tracer.install()
    else:
        probes.append(speed.probe())
    wall = 0.0
    try:
        for item in wl.items:
            if tracer is not None:
                tracer.item = item.id
            t = time.perf_counter()
            try:
                out = item.run(done)
            except Exception as exc:     # an item that raises is a failed item, not a failed run
                out = workloads.Outcome({}, None, f"{type(exc).__name__}: {exc}")
            times[item.id] = time.perf_counter() - t
            wall += times[item.id]
            done[item.id] = out
            if tracer is None:
                probes.append(speed.probe())
                corrected[item.id] = speed.corrected(times[item.id], *probes[-2:])
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec = {"wall": wall, "times": times, "corrected": corrected, "probes": probes,
           "outcomes": done, "traced": tracer is not None}
    if tracer is not None:
        rec["self"] = tracer.self_times(first_span)
        rec["counts"] = tracer.counts
    return rec


def measure(wl, workloads, seconds, tracer=None):
    """Passes until the next one would overrun ``seconds``; with a tracer,
    plain and traced passes alternate."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, workloads, tracer if traced else None))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def judge(wl, workloads, passes):
    """Count attempts and failures; a run is incorrect when an item outside
    the known failures fails, or any output differs between passes."""
    attempted = failed = 0
    unexpected = []
    first = passes[0]["outcomes"]
    for k, p in enumerate(passes):
        for item in wl.items:
            out = p["outcomes"][item.id]
            differs = repr(out.fingerprint) != repr(first[item.id].fingerprint)
            attempted += 1
            failed += out.failure is not None or differs
            if differs:
                unexpected.append((item.id, f"pass {k} output {out.fingerprint} differs from pass 0"))
            if out.failure is not None and item.id not in workloads.KNOWN_FAILURES:
                unexpected.append((item.id, out.failure))
    traced = [p for p in passes if p["traced"]]
    if any(p["counts"] != traced[0]["counts"] for p in traced):
        unexpected.append(("trace", "counts differ between traced passes"))
    return attempted, failed, unexpected


def bracket_rel_max(outcomes) -> float:
    widths = [(hi - lo) / lo for lo, hi in (o.bracket for o in outcomes.values() if o.bracket)]
    return max(widths)


def end_to_end(passes, wl, setup_s, attempted, failed):
    item_medians = [statistics.median(p["corrected"][item.id] for p in passes) for item in wl.items]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(item_medians), "s"),
        "setup_s": (setup_s, "s"),
        "bracket_rel_max": (bracket_rel_max(passes[0]["outcomes"]), "ratio"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


COUNT_METRICS = ("sdp.iterations", "sdp.maxiter_stops", "sdp.rows", "sdp.svec_dim",
                 "tensorsdp.a22_iterations", "oracles.starts")
CALL_METRICS = ("polybasis.objective_expand", "tensorsdp.index_symmetrize", "linalg.partial_transpose")


def per_layer(passes, span_names):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def med(f):
        return statistics.median(f(p) for p in traced)

    out = {f"{name}.self_s": (med(lambda p, n=name: p["self"][n]), "s") for name in span_names}
    counts = traced[0]["counts"]
    for name in COUNT_METRICS:
        out[name] = (counts[name], "count")
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (counts[name + ".calls"], "count")
    iters = counts["sdp.iterations"]
    out["sdp.ms_per_iter"] = (med(lambda p: 1e3 * p["self"]["sdp.solve_sdp"] / iters) if iters else 0.0, "ms")
    starts = counts["oracles.starts"]
    out["oracles.improving_ratio"] = (counts["oracles.improving_starts"] / starts if starts else 0.0, "ratio")
    traced_wall = med(lambda p: p["wall"])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.unspanned_s"] = (med(lambda p: p["wall"] - sum(p["self"].values())), "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(p["wall"] for p in plain), "s")
    return out


def write_spans(tracer, workload, seed):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    fields = ("name", "start", "end", "parent", "item")
    path.write_text(json.dumps([dict(zip(fields, s)) for s in tracer.spans]))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_benchmark()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("provenance " + json.dumps(provenance(wl, args.seed)))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    passes = measure(wl, workloads, args.seconds, tracer)
    attempted, failed, unexpected = judge(wl, workloads, passes)

    plain = [p for p in passes if not p["traced"]]
    for item in wl.items:
        raw = statistics.median(p["times"][item.id] for p in plain)
        ref = statistics.median(p["corrected"][item.id] for p in plain)
        why = passes[0]["outcomes"][item.id].failure
        status = "ok" if why is None else ("KNOWN FAILURE: " if item.id in workloads.KNOWN_FAILURES
                                           else "FAILED: ") + why
        print(f"item {item.id:26s} {raw:8.3f} s raw {ref:8.3f} s at reference speed  {status}")
    for item_id, why in unexpected:
        print(f"unexpected failure {item_id}: {why}")
    print(f"passes {len(passes)} (plain walls: {', '.join('%.3f' % p['wall'] for p in plain)} s; "
          f"median probe {1e3 * statistics.median(x for p in plain for x in p['probes']):.3f} ms, "
          f"reference {1e3 * speed.REFERENCE_PROBE_S:.3f} ms)")

    if args.trace:
        metrics = per_layer(passes, tracing.SPAN_NAMES)
        print(f"spans written to {write_spans(tracer, args.workload, args.seed)}")
        wall = metrics["trace.wall_s"][0]
        for name, (value, unit) in metrics.items():
            share = f"  {100 * value / wall:5.1f} % of traced wall" if unit == "s" and wall > 0 else ""
            print(f"{name:45s} {value:14.6g} {unit}{share}")
    else:
        metrics = end_to_end(passes, wl, setup_s, attempted, failed)
        raw_wall = sum(statistics.median(p["times"][item.id] for p in plain) for item in wl.items)
        print(f"{'raw wall_s (not corrected for machine speed)':45s} {raw_wall:14.6g} s")
        print(f"{'fail_frac':45s} {failed / attempted:14.6g} ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name:45s} {value:14.6g} {unit}")

    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
