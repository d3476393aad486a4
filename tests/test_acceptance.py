"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantities (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not configurable.  The random-operator rule is
``value <= max(3.5, certified lower bound)``: the relaxation must certify 3.5
unless an explicit unit vector shows that the norm itself is above 3.5, and
then it must match that vector's fourth power to solver tolerance.  See the
criterion-2 notes in the README.
"""

import time

import numpy as np
import pytest

from hypernorm.core import OperatorInstance, random_operator
from hypernorm.dps import dps_value, h_ext
from hypernorm.lasserre import lasserre_roundtrip
from hypernorm.oracles import h_sep_lower, norm_2_to_q_lower
from hypernorm.reductions import (
    build_tensor_forms,
    complex_to_real,
    m1_pipeline,
    realify_vector,
)
from hypernorm.sdp import SdpProblem, SolveOptions, solve_sdp
from hypernorm.sse import (
    check_norm_implies_expansion,
    complete_graph,
    cycle_graph,
    heavy_set_extract,
    petersen_graph,
    subexp_decide,
    subspace_instance,
)
from hypernorm.tensorsdp import a22_matrix, a22_value, certify_hypercontractivity, tensor_sdp

from tests.conftest import phi_state
from tests.test_sse import planted_instances


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- 1. hypercontractivity certificates -------------------------------------


@pytest.mark.parametrize("l,d", [(3, 1), (4, 1), (5, 1), (4, 2)])
def test_criterion_1_hypercontractivity(l, d):
    t0 = time.time()
    hc = certify_hypercontractivity(l, d, restarts=32, seed=0)
    dt = time.time() - t0
    ok = (hc.value <= 9.0**d + 1e-4
          and hc.value >= hc.oracle_fourth - 1e-4
          and hc.certificate.residual <= 1e-6
          and dt <= 120.0)
    assert report(f"1 (l={l}, d={d})", ok,
                  f"value={hc.value:.6f} <= {9.0 ** d} oracle4={hc.oracle_fourth:.6f} "
                  f"sos_residual={hc.certificate.residual:.2e} time={dt:.1f}s")


# -- 2. random-operator suite ------------------------------------------------


@pytest.mark.parametrize("dist", ["sign", "gaussian", "unit"])
@pytest.mark.parametrize("n", [4, 8])
def test_criterion_2_random_operators(dist, n):
    m = 50 * n * n
    floor = (3.0 / (1.0 + 2.0 / n)) ** 0.25 - 0.05
    threshold = 3.5
    ok = True
    per_seed, oras = [], []
    t0 = time.time()
    for seed in range(5):
        inst = random_operator(dist, n, m, seed)
        res = a22_value(inst, SolveOptions(tol=1e-7, max_iter=20_000), return_details=True)
        assert res.status == "optimal"
        ora = norm_2_to_q_lower(inst, 4, restarts=64, seed=seed)
        oras.append(ora.value)
        # |Ax|^4 of the oracle's unit witness, evaluated here from the matrix:
        # the relaxation contains (x(x)x)(x(x)x)^T, so its value is at least this.
        x = ora.witness[0] / np.linalg.norm(ora.witness[0])
        low = float(np.sum((inst.quartic_rows(4) @ x) ** 4))
        tol = 1e-5 * max(1.0, abs(res.value))
        ok &= low - tol <= res.value <= max(threshold, low) + tol
        applied = "low" if low > threshold else threshold
        per_seed.append(f"{res.value:.5f}/low={low:.5f}/gap={res.value - low:+.1e}/<={applied}")
    dt = time.time() - t0
    ok &= all(o >= floor for o in oras) and dt <= 600.0
    assert report(f"2 ({dist}, n={n})", ok,
                  f"a22={per_seed} (a22 <= max({threshold}, low)) "
                  f"oracle={['%.3f' % o for o in oras]} (floor {floor:.3f}) time={dt:.1f}s")


# -- 3. quantum fixtures -----------------------------------------------------


def test_criterion_3_quantum_fixtures():
    t0 = time.time()
    details = []
    ok = True
    for n in (2, 3):
        hs = h_sep_lower(phi_state(n).astype(complex), (n, n), restarts=24, seed=0).value
        dp = dps_value(phi_state(n), n, r=1, ppt=True)
        ok &= abs(hs - 1.0 / n) <= 1e-3 and abs(dp - 1.0 / n) <= 1e-3
        details.append(f"n={n}: hsep={hs:.6f} dps1={dp:.6f} (target {1.0 / n:.6f})")
    he = h_ext(phi_state(2), 2, r=2)
    ok &= he >= 0.5 - 1e-9
    dt = time.time() - t0
    ok &= dt <= 120.0
    assert report("3", ok, "; ".join(details) + f"; hext(r=2)={he:.6f} >= 0.5; time={dt:.1f}s")


# -- 4. formulation equivalence ----------------------------------------------


def test_criterion_4_formulation_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_a22, worst_dps = 0.0, 0.0
    for _ in range(5):
        inst = OperatorInstance(rng.normal(size=(4, 3)))
        v = tensor_sdp(inst, 4).value
        va = a22_value(inst)
        vd = dps_value(a22_matrix(inst), 3, r=1, ppt=True,
                       opts=SolveOptions(tol=1e-9, max_iter=200_000))
        worst_a22 = max(worst_a22, abs(va - v) / max(1.0, abs(v)))
        worst_dps = max(worst_dps, abs(vd - v) / max(1.0, abs(v)))
    dt = time.time() - t0
    ok = worst_a22 <= 1e-5 and worst_dps <= 1e-4 and dt <= 300.0
    assert report("4", ok, f"max |a22 - moment|/scale = {worst_a22:.2e} (tol 1e-5); "
                           f"max |dps1 - moment|/scale = {worst_dps:.2e} (tol 1e-4); time={dt:.1f}s")


# -- 5. five-way equivalence audit -------------------------------------------


def test_criterion_5_equivalence_audit():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    ok = True
    for _ in range(5):
        inst = OperatorInstance(rng.normal(size=(4, 3)))
        _, audit = build_tensor_forms(inst, audit=True, restarts=64, seed=1, tol=1e-6)
        ok &= audit.passed
        worst = max(worst, audit.max_pairwise_gap)
    dt = time.time() - t0
    ok &= dt <= 300.0
    assert report("5", ok, f"max pairwise gap over 5 instances = {worst:.2e} (tol 1e-6); time={dt:.1f}s")


# -- 6. exhaustive SSE checks -------------------------------------------------


def test_criterion_6_sse_exhaustive():
    t0 = time.time()
    ok = True
    details = []
    for g, name in [(cycle_graph(6), "C6"), (cycle_graph(12), "C12"),
                    (complete_graph(4), "K4"), (petersen_graph(), "Petersen")]:
        for lam in (0.4, 0.9):
            chk = check_norm_implies_expansion(g, lam, 4, restarts=48, seed=0, slack=1e-6)
            ok &= chk.passed
            details.append(f"{name}@{lam}:{'ok' if chk.passed else len(chk.violations)}")
    for seed in range(100):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(6, 40))
        ntarget = int(rng.integers(2, max(3, k // 2)))
        p = rng.uniform(size=k)
        p /= p.sum()
        while np.sum(p * p) > 1.0 / ntarget:
            p = 0.5 * p + 0.5 / k
        gvals = rng.normal(size=k)
        _, info = heavy_set_extract(p, gvals, ntarget)
        ok &= info["achieved"] >= info["bound"] - 1e-12
    dt = time.time() - t0
    ok &= dt <= 300.0
    assert report("6", ok, " ".join(details) + f"; heavy-set 100 cases; time={dt:.1f}s")


# -- 7. hardness pipeline ------------------------------------------------------


def test_criterion_7_hardness_pipeline():
    t0 = time.time()
    v0 = np.kron([1.0, 0.0], [0.0, 1.0])
    case_y = m1_pipeline(np.outer(v0, v0).astype(complex), 2, k=1, restarts=32, seed=0)
    case_n = m1_pipeline(0.5 * np.eye(4).astype(complex), 2, k=2, restarts=32, seed=0)
    gadget_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ac = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = np.sum(np.abs(complex_to_real(ac) @ realify_vector(z)) ** 4)
        rhs = np.sum(np.abs(ac @ z) ** 4)
        gadget_ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    dt = time.time() - t0
    ok = (abs(case_y.hsep_m1 - 1.0) <= 1e-6
          and case_n.hsep_m1 <= 0.75 + 1e-3
          and abs(case_n.hsep_m2 - case_n.hsep_m1**2) <= 1e-3
          and gadget_ok and dt <= 300.0)
    assert report("7", ok,
                  f"caseY={case_y.hsep_m1:.8f} caseN={case_n.hsep_m1:.6f} (<=0.751) "
                  f"amplified={case_n.hsep_m2:.6f}~{case_n.hsep_m1 ** 2:.6f} "
                  f"gadget_exact={gadget_ok} time={dt:.1f}s")


# -- 8. subexponential decider --------------------------------------------------


def test_criterion_8_subexp_decider():
    t0 = time.time()
    c, C = 1.4, 2.0
    agree = 0
    gates_checked = 0
    for inst, spiky in planted_instances():
        v = subexp_decide(inst, 4, c, C, seed=3, restart_cap=256)
        if v.reason == "gate":
            rows = inst.quadratic_rows()
            u, s, _ = np.linalg.svd(rows)
            rank = int(np.sum(s > 1e-10))
            ora = norm_2_to_q_lower(subspace_instance(u[:, :rank], 4), 4, restarts=512, seed=0)
            assert ora.value >= C - 1e-6
            gates_checked += 1
        agree += v.verdict == ("LARGE" if spiky else "SMALL")
    dt = time.time() - t0
    ok = agree == 20 and dt <= 300.0
    assert report("8", ok, f"verdict agreement {agree}/20; gates confirmed {gates_checked}; time={dt:.1f}s")


# -- 9. Lasserre <-> SoS roundtrip -----------------------------------------------


def test_criterion_9_lasserre_roundtrip():
    t0 = time.time()
    rep = lasserre_roundtrip(cycle_graph(5))
    dt = time.time() - t0
    ok = rep.value_gap <= 1e-5 and dt <= 60.0
    assert report("9", ok, f"lass={rep.lasserre_value:.8f} sos={rep.sos_value:.8f} "
                           f"gap={rep.value_gap:.2e} moment_discrepancy={rep.max_moment_discrepancy:.2e} "
                           f"time={dt:.1f}s")


# -- 10. solver unit suite ---------------------------------------------------------


def test_criterion_10_solver_suite():
    t0 = time.time()
    worst = 0.0
    certs_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 10))
        cmat = rng.normal(size=(k, k))
        cmat = (cmat + cmat.T) / 2
        p = SdpProblem([k], [cmat], [[(0, i, i, 1.0) for i in range(k)]], [1.0], trace_bound=1.0)
        sol = solve_sdp(p, SolveOptions(tol=1e-9))
        lam = float(np.linalg.eigvalsh(cmat)[-1])
        worst = max(worst, abs(sol.primal_obj - lam) / max(1.0, abs(lam)))
        certs_ok &= sol.bound >= lam - 1e-9
        if seed < 10:
            rough = solve_sdp(p, SolveOptions(max_iter=10))
            certs_ok &= rough.bound >= lam - 1e-9
    dt = time.time() - t0
    ok = worst <= 1e-6 and certs_ok and dt <= 180.0
    assert report("10", ok, f"max lambda_max recovery error {worst:.2e} (tol 1e-6); "
                            f"certificates valid incl. 10 under-converged solves; time={dt:.1f}s")
