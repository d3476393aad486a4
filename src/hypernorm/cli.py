"""Command-line frontend: every subcommand reads JSON/graph files, runs one
experiment, and writes a machine-readable JSON report (stdout or --out) with
the full configuration echoed for reproducibility.  A short human summary
goes to stderr.  Exit codes: 0 success, 2 validation/precondition failure,
3 solver non-convergence (including a ``RuntimeError`` raised by a solver).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .core import OperatorInstance, load_matrix, matrix_to_json, random_operator
from .dps import dps_value, h_ext
from .lasserre import lasserre_roundtrip
from .oracles import elementary_norms, h_sep_lower, norm_2_to_q_lower
from .reductions import GADGET_KAPPA, build_tensor_forms, complex_to_real, m1_pipeline, pad_and_project
from .sdp import SolveOptions
from .sse import expansion_profile, check_norm_implies_expansion, parse_graph_text, sse_decide
from .tensorsdp import a22_value, certify_hypercontractivity, tensor_sdp


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(matrix_to_json(x) if x.ndim == 2 else x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _load_instance(path, convention):
    return OperatorInstance(load_matrix(path), convention)


def _opts(args):
    return SolveOptions(tol=args.tol, max_iter=args.max_iter)


def _cmd_norm24(args):
    inst = _load_instance(args.infile, args.convention)
    ora = norm_2_to_q_lower(inst, args.q, restarts=args.restarts, seed=args.seed)
    en = elementary_norms(inst)
    search = {key: ora.trace[key] for key in ("form", "starts", "steps", "newton_steps", "improving_starts")}
    return {"norm_lower": ora.value, "norm_lower_fourth": ora.value**4,
            "witness": list(map(float, np.real(ora.witness[0])))
            if not inst.is_complex else None,
            "elementary": en, "search": search}, 0


def _cmd_tensorsdp(args):
    inst = _load_instance(args.infile, args.convention)
    res = tensor_sdp(inst, args.level, _opts(args))
    ora = norm_2_to_q_lower(inst, 4, restarts=args.restarts, seed=args.seed)
    rec = res.record(oracle=ora.value**4, seed=args.seed)
    return rec, 0 if res.status == "optimal" else 3


def _cmd_certify_hyper(args):
    hc = certify_hypercontractivity(args.l, args.d, restarts=args.restarts, seed=args.seed,
                                    opts=_opts(args))
    return hc.record(seed=args.seed), 0 if hc.status == "optimal" else 3


def _cmd_sse_analyze(args):
    with open(args.graph) as fh:
        g = parse_graph_text(fh.read())
    prof = expansion_profile(g, args.delta, seed=args.seed)
    out = {"n": g.n, "degree": g.degree, "delta": args.delta,
           "phi": prof.phi, "argmin": list(prof.argmin), "cp_argmin": prof.cp_argmin,
           "exhaustive": prof.exhaustive}
    if args.lam is not None:
        chk = check_norm_implies_expansion(g, args.lam, args.q, restarts=args.restarts, seed=args.seed)
        out["norm_check"] = {"lambda": args.lam, "q": args.q, "norm_lower": chk.norm_lower,
                             "norm_upper_fourth": chk.norm_upper_fourth,
                             "violations": _jsonable(chk.violations), "passed": chk.passed}
    return out, 0


def _cmd_sse_decide(args):
    with open(args.graph) as fh:
        g = parse_graph_text(fh.read())
    v = sse_decide(g, args.delta, args.nu, restarts=args.restarts, seed=args.seed)
    return v.__dict__, 0


def _cmd_quantum_hsep(args):
    m = load_matrix(args.infile)
    if args.na is not None and args.na < 1:
        raise ValueError(f"--na must be >= 1, got {args.na}")
    na = int(round(np.sqrt(m.shape[0]))) if args.na is None else args.na
    nb = m.shape[0] // na
    res = h_sep_lower(m, (na, nb), restarts=args.restarts, seed=args.seed)
    return {"value": res.value, "dims": [na, nb],
            "starts": res.trace["starts"], "steps": res.trace["steps"]}, 0


def _cmd_quantum_dps(args):
    m = load_matrix(args.infile)
    n = int(round(np.sqrt(m.shape[0])))
    res = dps_value(m, n, r=args.r, ppt=not args.no_ppt, opts=_opts(args), return_details=True)
    return {"value": res.value, "bound": res.bound,
            "bound_kind": "bound is the weak-duality upper bound on the level-r value; "
                          "value is <C, X> at the last iterate, which may lie outside the PSD "
                          "cone, so value can exceed bound",
            "r": args.r, "ppt": not args.no_ppt,
            "status": res.status}, 0 if res.status == "optimal" else 3


def _cmd_quantum_hext(args):
    m = load_matrix(args.infile)
    n = int(round(np.sqrt(m.shape[0])))
    return {"value": h_ext(m, n, r=args.r), "r": args.r}, 0


def _write_artifacts(prefix, command, args, pairs, extra=None):
    """Matrix JSON payloads plus one provenance sidecar for every reduce run."""
    from hypernorm.core import save_matrix
    from hypernorm.reductions import input_hash

    written = []
    for kind, payload in pairs:
        path = f"{prefix}_{kind}.json"
        save_matrix(path, payload.reshape(payload.shape[0], -1)
                    if payload.ndim > 2 else payload)
        written.append({"kind": kind, "path": path, "shape": list(payload.shape)})
    prov = {"command": command,
            "input": args.infile,
            "input_sha256": input_hash(load_matrix(args.infile)),
            "seed": args.seed,
            "parameters": extra or {},
            "artifacts": written}
    with open(f"{prefix}_provenance.json", "w") as fh:
        json.dump(_jsonable(prov), fh, indent=2)
    return written


def _cmd_reduce_tensor_forms(args):
    inst = _load_instance(args.infile, args.convention)
    forms, audit = build_tensor_forms(inst, audit=args.audit, restarts=args.restarts, seed=args.seed)
    out = {"A22": matrix_to_json(forms["A22"]),
           "A4_shape": list(forms["A4"].shape), "A3_shape": list(forms["A3"].shape)}
    if args.out_prefix:
        out["artifacts"] = _write_artifacts(
            args.out_prefix, "reduce tensor-forms", args,
            [("A22", forms["A22"]), ("A4", forms["A4"]), ("A3", forms["A3"])],
            {"convention": args.convention})
    if audit is not None:
        out["audit"] = audit.__dict__
        return out, 0 if audit.passed else 2
    return out, 0


def _cmd_reduce_m1(args):
    m0 = load_matrix(args.infile)
    n = int(round(np.sqrt(m0.shape[0])))
    rep = m1_pipeline(m0, n, k=args.k, restarts=args.restarts, seed=args.seed)
    out = {"hsep_m1": rep.hsep_m1, "hsep_m2": rep.hsep_m2,
           "norm_a1_fourth": rep.norm_a1_fourth, "design_residual": rep.design_residual,
           "m1_psd_violation": rep.m1_psd_violation, "m1_leq_identity": rep.m1_leq_identity,
           "delta_threshold": None if args.delta is None else 1.0 - args.delta / 2.0}
    if args.out_prefix:
        pairs = [("M1", rep.m1), ("A1", rep.a1)]
        if rep.m2 is not None:
            pairs += [("M2", rep.m2), ("A2", rep.a2)]
        out["artifacts"] = _write_artifacts(args.out_prefix, "reduce m1", args, pairs,
                                            {"k": args.k, "delta": args.delta})
    return out, 0


def _cmd_reduce_realify(args):
    ac = load_matrix(args.infile)
    ar = complex_to_real(ac)
    return {"matrix": matrix_to_json(ar), "kappa": GADGET_KAPPA}, 0


def _cmd_reduce_pad(args):
    inst = _load_instance(args.infile, "expectation")
    rep = pad_and_project(inst, args.eps, seed=args.seed, m_pad=args.m_pad)
    return {"sigma_min": rep.sigma_min, "alpha": rep.alpha, "b_norm24": rep.b_norm24,
            "padded_rows": rep.padded.m, "projector": matrix_to_json(rep.projector)}, 0


def _cmd_random_suite(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    rows = []
    for seed in range(args.seed, args.seed + args.seeds):
        inst = random_operator(args.dist, args.n, args.m, seed)
        res = a22_value(inst, _opts(args), return_details=True)
        ora = norm_2_to_q_lower(inst, 4, restarts=args.restarts, seed=seed)
        rows.append({"seed": seed, "a22": res.value, "upper": res.bound, "status": res.status,
                     "iterations": res.iterations, "witnesses": res.witnesses, "oracle": ora.value,
                     "oracle_floor": (3.0 / (1.0 + 2.0 / args.n)) ** 0.25})
    ok = all(r["status"] == "optimal" for r in rows)
    return {"dist": args.dist, "n": args.n, "m": args.m, "threshold": 3.5,
            "runs": rows}, 0 if ok else 3


def _cmd_lasserre(args):
    with open(args.graph) as fh:
        g = parse_graph_text(fh.read())
    rep = lasserre_roundtrip(g, _opts(args))
    ok = rep.lasserre_status == rep.sos_status == "optimal"
    kind = ("lasserre_bound and sos_bound are the weak-duality upper bounds on the two relaxations; "
            "lasserre_value and sos_value are the primal objectives of the solver's points: where "
            "lasserre_witnesses or sos_witnesses is positive, that solve stopped on a pair anchored on "
            "that many optimal cuts, and its value is that of an optimal cut's rank-one moment matrix; "
            "where it is 0, the loop's own point")
    return {**rep.__dict__, "bound_kind": kind}, 0 if ok else 3


def build_parser():
    p = argparse.ArgumentParser(prog="hypernorm",
                                description="hypercontractive norm relaxations and oracles")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(parent, name, func, infile=False, convention=False, seed=False, restarts=False,
                solver=False, **kw):
        """A subcommand running ``func``, given --out and only the shared flags it reads."""
        sp = parent.add_parser(name, **kw)
        sp.set_defaults(func=func)
        sp.add_argument("--out", default=None, help="write the JSON report here")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if restarts:
            sp.add_argument("--restarts", type=int, default=64)
        if solver:
            sp.add_argument("--tol", type=float, default=1e-8)
            sp.add_argument("--max-iter", dest="max_iter", type=int, default=200_000)
        if infile:
            sp.add_argument("--in", dest="infile", required=True, help="matrix JSON file")
        if convention:
            sp.add_argument("--convention", choices=["counting", "expectation"],
                            default="counting")
        return sp

    sp = command(sub, "norm24", _cmd_norm24, infile=True, convention=True, seed=True,
                 restarts=True, help="oracle lower bound and elementary norms")
    sp.add_argument("--q", type=int, default=4)

    sp = command(sub, "tensorsdp", _cmd_tensorsdp, infile=True, convention=True, seed=True,
                 restarts=True, solver=True, help="level-d relaxation with certificate")
    sp.add_argument("--level", type=int, default=4)

    sp = command(sub, "certify-hyper", _cmd_certify_hyper, seed=True, restarts=True, solver=True,
                 help="fourth-moment certificate for cube polynomials")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)

    sse = sub.add_parser("sse", help="small-set expansion analysis")
    ssesub = sse.add_subparsers(dest="sse_command", required=True)
    sp = command(ssesub, "analyze", _cmd_sse_analyze, seed=True, restarts=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--q", type=int, default=4)
    sp = command(ssesub, "decide", _cmd_sse_decide, seed=True, restarts=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--nu", type=float, required=True)

    q = sub.add_parser("quantum", help="separability relaxations")
    qsub = q.add_subparsers(dest="quantum_command", required=True)
    sp = command(qsub, "hsep", _cmd_quantum_hsep, infile=True, seed=True, restarts=True)
    sp.add_argument("--na", type=int, default=None)
    sp = command(qsub, "dps", _cmd_quantum_dps, infile=True, solver=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--no-ppt", action="store_true")
    sp = command(qsub, "hext", _cmd_quantum_hext, infile=True)
    sp.add_argument("--r", type=int, default=1)

    red = sub.add_parser("reduce", help="hardness-pipeline constructions")
    redsub = red.add_subparsers(dest="reduce_command", required=True)
    sp = command(redsub, "tensor-forms", _cmd_reduce_tensor_forms, infile=True,
                 convention=True, seed=True, restarts=True)
    sp.add_argument("--audit", action="store_true")
    sp.add_argument("--out-prefix", default=None)
    sp = command(redsub, "m1", _cmd_reduce_m1, infile=True, seed=True, restarts=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--out-prefix", default=None)
    command(redsub, "realify", _cmd_reduce_realify, infile=True)
    sp = command(redsub, "pad", _cmd_reduce_pad, infile=True, seed=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--m-pad", dest="m_pad", type=int, default=None)

    sp = command(sub, "random-suite", _cmd_random_suite, seed=True, restarts=True, solver=True,
                 help="a22 values and oracle floors on random operators")
    sp.add_argument("--dist", choices=["sign", "gaussian", "unit"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seeds", type=int, default=5)

    sp = command(sub, "lasserre", _cmd_lasserre, solver=True,
                 help="Max Cut vector/moment roundtrip")
    sp.add_argument("--graph", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    t0 = time.time()
    try:
        results, code = args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        # a solver that fails at run time is non-convergence, not bad input
        code = 3 if isinstance(exc, RuntimeError) else 2
        _write_report({"command": args.command, "config": _jsonable(config), "error": str(exc)},
                      args.out)
        print(f"error: {exc}", file=sys.stderr)
        return code
    report = {"command": args.command, "config": _jsonable(config),
              "results": _jsonable(results), "wall_time": time.time() - t0}
    _write_report(report, args.out)
    print(f"{args.command}: done in {report['wall_time']:.2f}s (exit {code})", file=sys.stderr)
    return code


def _write_report(report, out):
    """The JSON report to the --out file when one is given, else to stdout."""
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
