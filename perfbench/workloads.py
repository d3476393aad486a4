"""The benchmark's three workloads: inputs drawn from a seed, the calls into
``hypernorm`` that each item makes, and the check every output must pass.

Every public function is reached through its module attribute
(``tensorsdp.tensor_sdp``, not a name imported into this file) so that the
traced run can wrap it where the package itself looks it up.

An item returns an :class:`Outcome`.  ``fingerprint`` holds the outputs that
must repeat bitwise when the same input is solved again (values, bounds and
iteration counts); ``bracket`` is ``(lower, upper)`` for items whose result
certifies an interval for the fourth power of a 2->4 norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypernorm import dps, lasserre, oracles, reductions, sse, tensorsdp
from hypernorm.core import OperatorInstance
from hypernorm.sdp import SolveOptions

# Iteration budget B of every generic SDP call.  At the 200 000-iteration
# defaults single items take 40-230 s.  At B three moment items still run to
# the budget, so a smarter stop rule shows; their brackets are the same to
# three digits as at 5000 iterations, and a moment-cert pass fits twice into
# one run.
SDP_BUDGET = 2000
SDP_TOL = 1e-8
# The a22 projector engine runs with the settings of acceptance criterion 2.
A22_TOL = 1e-7
A22_BUDGET = 20_000
ORACLE_RESTARTS = 64

# Items whose check fails at the commit that defined the benchmark.  They
# stay in the workload and count in ``failed``; they do not make a run
# incorrect, so the benchmark still measures a tree that carries them.
# ``lasserre_roundtrip`` on C6 returns a primal-feasible X of value 0.8178,
# below the true max cut 1.0, with dual infeasibility stuck at 0.0148 at 5k,
# 50k and 200k iterations.
KNOWN_FAILURES = frozenset({"maxcut-C6"})


@dataclass
class Outcome:
    fingerprint: dict
    bracket: tuple | None = None
    failure: str | None = None


@dataclass
class Item:
    id: str
    run: Callable[[dict], Outcome]   # takes the outcomes of earlier items of the pass


@dataclass
class Workload:
    name: str
    items: list
    budgets: dict


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _fail_unless(cond: bool, why: str) -> str | None:
    return None if cond else why


def _sdp_opts() -> SolveOptions:
    return SolveOptions(tol=SDP_TOL, max_iter=SDP_BUDGET)


def random_operator(dist: str, n: int, m: int, rng: np.random.Generator) -> OperatorInstance:
    """The row ensembles of acceptance criterion 2, in the expectation convention."""
    if dist == "sign":
        a = rng.choice([-1.0, 1.0], size=(m, n))
    elif dist == "gaussian":
        a = rng.normal(size=(m, n))
    else:
        a = rng.normal(size=(m, n))
        a *= np.sqrt(n) / np.linalg.norm(a, axis=1)[:, None]
    return OperatorInstance(a / np.sqrt(n), "expectation")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


# The workload seed does not draw fresh random operators.  On fresh draws the
# generic ADMM either converges in 100-350 iterations or runs to the budget,
# so at 5000 iterations one moment-cert pass swung from 11.5 s to 21 s over
# seeds 0-4 and the bracket by five orders of magnitude.  Instead the seed relabels fixed base
# instances (criterion 2's sampler at its own seeds): a signed permutation of
# the variables and a permutation of the rows or vertices.  Every input
# changes bit for bit, every relaxation keeps its value and difficulty.


def relabel(inst: OperatorInstance, rng: np.random.Generator) -> OperatorInstance:
    """The same norm problem under a signed permutation of the variables and
    a permutation of the rows."""
    a = inst.matrix
    rows, cols = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
    signs = rng.choice([-1.0, 1.0], size=a.shape[1])
    return OperatorInstance(a[rows][:, cols] * signs, inst.convention)


def relabel_graph(g, rng: np.random.Generator):
    p = rng.permutation(g.n)
    return sse.RegularGraph(g.n, [(int(p[u]), int(p[v])) for u, v in g.edges])


# ---------------------------------------------------------------------------
# moment-cert: tensor_sdp with certificate and SoS residual, plus the oracle
# ---------------------------------------------------------------------------


def _moment_item(item_id: str, inst: OperatorInstance, level: int, oracle_seed: int) -> Item:
    def run(done):
        res = tensorsdp.tensor_sdp(inst, level, _sdp_opts())
        ora = oracles.norm_2_to_q_lower(inst, 4, restarts=ORACLE_RESTARTS, seed=oracle_seed)
        lower = ora.value ** 4
        cert = res.certificate
        fp = {"value": res.value, "bound": cert.bound, "residual": cert.residual,
              "oracle4": lower, "iterations": res.iterations}
        scale = max(1.0, abs(lower))
        failure = (_fail_unless(_finite(fp.values()), "non-finite output")
                   or _fail_unless(cert.bound >= lower - 1e-9 * scale,
                                   f"bound {cert.bound!r} below oracle^4 {lower!r}")
                   or _fail_unless(cert.residual <= 1e-6, f"SoS residual {cert.residual:.3e} > 1e-6"))
        return Outcome(fp, (lower, cert.bound), failure)

    return Item(item_id, run)


def moment_cert(seed: int) -> Workload:
    specs = [("L4-gauss-n4-m800", "gaussian", 4, 800, 4),
             ("L4-sign-n8-m3200", "sign", 8, 3200, 4),
             ("L4-gauss-n8-m64", "gaussian", 8, 64, 4),
             ("L6-gauss-n6-m36", "gaussian", 6, 36, 6),
             ("L8-gauss-n4-m16", "gaussian", 4, 16, 8)]
    rng = _rng(seed, 1)
    items = [_moment_item(item_id, relabel(random_operator(dist, n, m, np.random.default_rng(0)), rng),
                          level, seed)
             for item_id, dist, n, m, level in specs]
    # criterion 1 at l=4, d=2: the 11-variable hypercontractivity case
    items.append(_moment_item("L4-hyper-l4-d2", relabel(tensorsdp.low_degree_instance(4, 2), rng),
                              4, seed))
    return Workload("moment-cert", items, {"sdp_max_iter": SDP_BUDGET, "sdp_tol": SDP_TOL,
                                           "oracle_restarts": ORACLE_RESTARTS})


# ---------------------------------------------------------------------------
# random-a22: the projector ADMM and the oracle, never the generic solver
# ---------------------------------------------------------------------------


def _a22_item(item_id: str, inst: OperatorInstance, oracle_seed: int) -> Item:
    def run(done):
        res = tensorsdp.a22_value(inst, SolveOptions(tol=A22_TOL, max_iter=A22_BUDGET),
                                  return_details=True)
        ora = oracles.norm_2_to_q_lower(inst, 4, restarts=ORACLE_RESTARTS, seed=oracle_seed)
        lower = ora.value ** 4
        fp = {"value": res.value, "bound": res.bound, "oracle4": lower,
              "iterations": res.iterations}
        scale = max(1.0, abs(lower))
        failure = (_fail_unless(_finite(fp.values()), "non-finite output")
                   or _fail_unless(res.bound >= res.value,
                                   f"bound {res.bound!r} below value {res.value!r}")
                   or _fail_unless(res.value >= lower - 1e-5 * scale,
                                   f"value {res.value!r} below oracle^4 {lower!r}"))
        return Outcome(fp, (lower, res.bound), failure)

    return Item(item_id, run)


def random_a22(seed: int) -> Workload:
    n = 8
    m = 50 * n * n
    rng = _rng(seed, 2)
    items = [_a22_item(f"a22-{dist}-n{n}-m{m}-base{base}",
                       relabel(random_operator(dist, n, m, np.random.default_rng(base)), rng), seed)
             for dist, base in itertools.product(("sign", "gaussian", "unit"), (0, 1))]
    return Workload("random-a22", items, {"a22_max_iter": A22_BUDGET, "a22_tol": A22_TOL,
                                          "oracle_restarts": ORACLE_RESTARTS})


# ---------------------------------------------------------------------------
# sep-graph: multi-block DPS programs, Max Cut, SSE checks and the audit
# ---------------------------------------------------------------------------


def phi_state(n: int) -> np.ndarray:
    """Density matrix of the maximally entangled state on C^n (x) C^n."""
    phi = sum(np.kron(np.eye(n)[:, i], np.eye(n)[:, i]) for i in range(n)) / np.sqrt(n)
    return np.outer(phi, phi)


def _hsep_item(item_id: str, m: np.ndarray, n: int, seed: int) -> Item:
    def run(done):
        val = oracles.h_sep_lower(m, (n, n), restarts=24, seed=seed).value
        return Outcome({"value": val}, None,
                       _fail_unless(abs(val - 1.0 / n) <= 1e-3, f"h_sep {val!r} != 1/{n}"))

    return Item(item_id, run)


def _dps_phi_item(item_id: str, m: np.ndarray, n: int, r: int, hsep_id: str) -> Item:
    def run(done):
        res = dps.dps_value(m, n, r=r, ppt=True, opts=_sdp_opts(), return_details=True)
        hsep = done[hsep_id].fingerprint["value"]
        fp = {"value": res.value, "iterations": res.iterations}
        failure = (_fail_unless(_finite(fp.values()), "non-finite output")
                   or _fail_unless(abs(res.value - 1.0 / n) <= 1e-3, f"DPS {res.value!r} != 1/{n}")
                   or _fail_unless(res.value >= hsep - 1e-6, f"DPS {res.value!r} below h_sep {hsep!r}"))
        return Outcome(fp, None, failure)

    return Item(item_id, run)


def _dps_item(item_id: str, m: np.ndarray, n: int, r: int) -> Item:
    def run(done):
        res = dps.dps_value(m, n, r=r, ppt=True, opts=_sdp_opts(), return_details=True)
        fp = {"value": res.value, "iterations": res.iterations}
        return Outcome(fp, None, _fail_unless(_finite(fp.values()), "non-finite output"))

    return Item(item_id, run)


def _hext_item(item_id: str, m: np.ndarray, n: int, r: int) -> Item:
    def run(done):
        val = dps.h_ext(m, n, r=r)
        # h_ext relaxes h_Sep, which is 1/n on the maximally entangled state
        return Outcome({"value": val}, None,
                       _fail_unless(val >= 1.0 / n - 1e-9, f"h_ext {val!r} below 1/{n}"))

    return Item(item_id, run)


def exact_max_cut(g) -> float:
    """Largest fraction of edges cut, by enumerating all 2^n cuts."""
    best = 0
    for mask in range(1 << (g.n - 1)):
        best = max(best, sum(((mask >> u) ^ (mask >> v)) & 1 for u, v in g.edges))
    return best / len(g.edges)


def _maxcut_item(item_id: str, g) -> Item:
    def run(done):
        rep = lasserre.lasserre_roundtrip(g, _sdp_opts())
        exact = exact_max_cut(g)
        fp = {"lasserre": rep.lasserre_value, "sos": rep.sos_value}
        failure = (_fail_unless(_finite(fp.values()), "non-finite output")
                   or _fail_unless(min(rep.lasserre_value, rep.sos_value) >= exact - 1e-6,
                                   f"relaxations {rep.lasserre_value!r}, {rep.sos_value!r} "
                                   f"below the exact max cut {exact!r}")
                   or _fail_unless(rep.value_gap <= 1e-5, f"relaxations differ by {rep.value_gap:.3e}"))
        return Outcome(fp, None, failure)

    return Item(item_id, run)


def _sse_decide_item(item_id: str, g, seed: int) -> Item:
    def run(done):
        v = sse.sse_decide(g, delta=1e-3, nu=0.1, seed=seed)
        ok = math.isfinite(v.value) and v.verdict in ("sse", "not-sse", "inconclusive-parameters")
        return Outcome({"value": v.value, "verdict": v.verdict}, None,
                       _fail_unless(ok, f"verdict {v.verdict!r} with value {v.value!r}"))

    return Item(item_id, run)


def _profile_item(item_id: str, g, seed: int) -> Item:
    def run(done):
        rep = sse.expansion_profile(g, 0.25, seed=seed)
        ok = math.isfinite(rep.phi) and rep.exhaustive
        return Outcome({"phi": rep.phi, "subsets": rep.subsets_checked}, None,
                       _fail_unless(ok, f"phi {rep.phi!r}, exhaustive={rep.exhaustive}"))

    return Item(item_id, run)


def _norm_expansion_item(item_id: str, g, seed: int) -> Item:
    def run(done):
        chk = sse.check_norm_implies_expansion(g, 0.4, 4, restarts=48, seed=seed, slack=1e-6)
        lower = chk.norm_lower ** 4
        fp = {"norm_lower": chk.norm_lower, "upper4": chk.norm_upper_fourth,
              "worst_slack": chk.worst_slack}
        failure = (_fail_unless(_finite(fp.values()), "non-finite output")
                   or _fail_unless(chk.passed, f"{len(chk.violations)} violated subsets"))
        return Outcome(fp, (lower, chk.norm_upper_fourth), failure)

    return Item(item_id, run)


def _audit_item(item_id: str, inst: OperatorInstance, seed: int) -> Item:
    def run(done):
        _, audit = reductions.build_tensor_forms(inst, audit=True, restarts=ORACLE_RESTARTS,
                                                 seed=seed, tol=1e-6)
        fp = {"norm_fourth": audit.norm_fourth, "sdp_upper": audit.sdp_upper,
              "gap": audit.max_pairwise_gap}
        failure = (_fail_unless(_finite(fp.values()), "non-finite output")
                   or _fail_unless(audit.passed, f"audit failed, pairwise gap {audit.max_pairwise_gap:.3e}"))
        return Outcome(fp, (audit.norm_fourth, audit.sdp_upper), failure)

    return Item(item_id, run)


def sep_graph(seed: int) -> Workload:
    rng = _rng(seed, 3)
    small = relabel(OperatorInstance(np.random.default_rng(0).normal(size=(4, 3))), rng)
    m22 = tensorsdp.a22_matrix(small)
    # a maximally entangled state rotated by local diagonal unitaries: a
    # genuinely complex Hermitian input whose DPS value is still 1/2
    u = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, size=2)))
    v = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, size=2)))
    phi2c = np.kron(u, v) @ phi_state(2).astype(complex) @ np.kron(u, v).conj().T
    phi3, phi4 = phi_state(3), phi_state(4)
    c5, k5, c6, cubic = (relabel_graph(g, rng) for g in (sse.cycle_graph(5), sse.complete_graph(5),
                                                        sse.cycle_graph(6),
                                                        sse.random_regular_graph(16, 3, seed=0)))
    # C12 and Petersen keep their labels.  Relabelling rotates their degenerate
    # eigenspaces, and the relaxation that check_norm_implies_expansion solves
    # with its own default budget then took 63 s instead of 0.16 s (NOTES.md).
    c12, petersen = sse.cycle_graph(12), sse.petersen_graph()
    items = [
        _hsep_item("hsep-phi4", phi4, 4, seed),
        _dps_phi_item("dps-phi4-r2", phi4, 4, 2, "hsep-phi4"),
        _hsep_item("hsep-phi3", phi3, 3, seed),
        _dps_phi_item("dps-phi3-r3", phi3, 3, 3, "hsep-phi3"),
        _hsep_item("hsep-phi2c", phi2c, 2, seed),
        _dps_phi_item("dps-phi2c-r1", phi2c, 2, 1, "hsep-phi2c"),
        _dps_item("dps-a22-r1", m22, 3, 1),
        _dps_item("dps-a22-r2", m22, 3, 2),
        _hext_item("hext-phi4-r2", phi4, 4, 2),
        _maxcut_item("maxcut-C5", c5),
        _maxcut_item("maxcut-K5", k5),
        _maxcut_item("maxcut-C6", c6),
    ]
    for name, g in (("C12", c12), ("Petersen", petersen)):
        items += [_sse_decide_item(f"sse-decide-{name}", g, seed),
                  _profile_item(f"profile-{name}", g, seed),
                  _norm_expansion_item(f"norm-expansion-{name}", g, seed)]
    items.append(_sse_decide_item("sse-decide-cubic16", cubic, seed))
    items.append(_audit_item("audit-4x3", small, seed))
    return Workload("sep-graph", items, {"sdp_max_iter": SDP_BUDGET, "sdp_tol": SDP_TOL,
                                         "oracle_restarts": ORACLE_RESTARTS})


WORKLOADS = {"moment-cert": moment_cert, "random-a22": random_a22, "sep-graph": sep_graph}
