import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from hypernorm import sse
from hypernorm.core import OperatorInstance
from hypernorm.tensorsdp import SIZE_LIMITS
from hypernorm.sse import (
    RegularGraph,
    check_expansion_implies_norm,
    check_norm_implies_expansion,
    complete_graph,
    cycle_graph,
    disjoint_matching,
    expansion_profile,
    graph_to_text,
    heavy_set_extract,
    parse_graph_text,
    petersen_graph,
    random_regular_graph,
    sse_decide,
    subexp_decide,
    subspace_instance,
    top_projector_norm,
)


# References: subsets scored one at a time from the edge list, as the package
# did before it scored them as one table of integer endpoint counts.


def _ref_phi(g, subset):
    """Fraction of edge endpoints from the subset that land outside it."""
    inside = np.zeros(g.n, dtype=bool)
    inside[list(set(subset))] = True
    stay = leave = 0
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if inside[a]:
                if inside[b]:
                    stay += 1
                else:
                    leave += 1
    return leave / (stay + leave)


def _ref_cp(g, subset):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] += 1.0
        a[v, u] += 1.0
    s = sorted(set(subset))
    p = (a / g.degree)[s].sum(axis=0) / len(s)
    return float(np.sum(p * p))


def _ref_local_search(g, delta, seed):
    """(phi, argmin, subsets_checked) of expansion_profile's heuristic, one
    swap scored at a time."""
    max_size = int(np.floor(delta * g.n + 1e-12))
    rng = np.random.default_rng(seed)
    best, best_s, checked = np.inf, None, 0
    for _ in range(64):
        size = int(rng.integers(1, max_size + 1))
        cur = list(rng.choice(g.n, size=size, replace=False))
        val = _ref_phi(g, cur)
        improved = True
        while improved:
            improved = False
            for swap_out in list(cur):
                for swap_in in range(g.n):
                    if swap_in in cur:
                        continue
                    cand = [x for x in cur if x != swap_out] + [swap_in]
                    cv = _ref_phi(g, cand)
                    checked += 1
                    if cv < val:
                        cur, val = cand, cv
                        improved = True
                        break
                if improved:
                    break
        if val < best:
            best, best_s = val, tuple(sorted(cur))
    return best, best_s, checked


def _ref_violations(g, lam, q, norm_lower, upper4, slack):
    violations = []
    exponent = (q - 2) / q
    for k in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), k):
            mu = len(s) / g.n
            phi = _ref_phi(g, s)
            margin = phi - (1.0 - lam - norm_lower**2 * mu**exponent)
            if margin < -slack:
                violations.append({"subset": s, "phi": phi, "margin": margin})
            sound = phi - (1.0 - lam - np.sqrt(upper4) * mu**exponent)
            if sound < -1e-9:
                violations.append({"subset": s, "phi": phi, "margin": sound, "side": "sdp"})
    return violations


def multigraph(n, d, seed):
    """A d-regular configuration-model multigraph: repeated edges are kept,
    draws with a self-loop are redrawn."""
    rng = np.random.default_rng(seed)
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), d))
        edges = [(int(stubs[2 * i]), int(stubs[2 * i + 1])) for i in range(n * d // 2)]
        if all(u != v for u, v in edges):
            return RegularGraph(n, edges)


def has_repeated_edges(g):
    return len({tuple(sorted(e)) for e in g.edges}) < len(g.edges)


class TestGraphBasics:
    def test_regularity_enforced(self):
        with pytest.raises(ValueError):
            RegularGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            RegularGraph(2, [(0, 0)])

    def test_normalized_adjacency_doubly_stochastic(self):
        g = petersen_graph()
        na = g.normalized_adjacency()
        assert np.allclose(na.sum(axis=0), 1.0)
        assert np.allclose(na, na.T)

    def test_phi_hand_counts_on_cycles(self):
        c6 = cycle_graph(6)
        assert c6.phi([0]) == 1.0
        assert c6.phi([0, 1]) == 0.5
        assert np.isclose(c6.phi([0, 1, 2]), 1.0 / 3.0)
        assert np.isclose(c6.collision_probability([0]), 0.5)

    def test_phi_complement_balance(self):
        # endpoints from S either stay or leave; the two fractions sum to 1
        g = petersen_graph()
        for s in [(0,), (0, 1, 2), (1, 3, 5, 7)]:
            inside = set(s)
            stay = sum((u in inside) + (v in inside) == 2 for u, v in g.edges) * 2
            total = g.degree * len(s)
            assert np.isclose(g.phi(s), 1.0 - stay / total)

    def test_file_roundtrip(self):
        g = petersen_graph()
        back = parse_graph_text(graph_to_text(g))
        assert back.n == g.n and sorted(back.edges) == sorted(g.edges)


class TestSubsetTable:
    @pytest.mark.parametrize("n,d,seed", [(6, 4, 0), (8, 3, 1), (9, 4, 2), (10, 5, 3)])
    def test_phi_and_cp_match_the_per_edge_reference(self, n, d, seed):
        g = multigraph(n, d, seed)
        assert has_repeated_edges(g)
        subsets = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
        rows = np.zeros((len(subsets), n), dtype=int)
        for t, s in enumerate(subsets):
            rows[t, list(s)] = 1
        phi, cp = g.evaluate_subsets(rows)
        assert np.array_equal(phi, [_ref_phi(g, s) for s in subsets])
        want = np.array([_ref_cp(g, s) for s in subsets])
        assert np.max(np.abs(cp - want) / want) <= 1e-15
        for t in (0, len(subsets) // 2, len(subsets) - 1):
            assert g.phi(subsets[t]) == phi[t]
            assert g.collision_probability(subsets[t]) == cp[t]

    def test_adjacency_counts_both_directions_and_repeats(self):
        g = RegularGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)])
        a = g.adjacency()
        assert g.degree == 3 and a[0, 1] == a[1, 0] == 2.0 and a[0, 2] == 1.0
        assert np.array_equal(g.normalized_adjacency(), a / 3)

    def test_empty_subset_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError, match="nonempty"):
            g.phi([])
        with pytest.raises(ValueError, match="nonempty"):
            g.evaluate_subsets(np.array([[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]]))

    @pytest.mark.parametrize("g,delta", [
        (cycle_graph(8), 0.5),
        (petersen_graph(), 0.3),
        (multigraph(10, 5, 3), 0.4),
        (multigraph(12, 3, 4), 0.25),
    ])
    def test_exhaustive_profile_matches_the_reference_scan(self, g, delta):
        rep = expansion_profile(g, delta)
        max_size = int(np.floor(delta * g.n + 1e-12))
        subsets = [s for k in range(1, max_size + 1) for s in itertools.combinations(range(g.n), k)]
        best = min(subsets, key=lambda s: _ref_phi(g, s))     # the first minimizer
        assert (rep.phi, rep.argmin, rep.subsets_checked) == (_ref_phi(g, best), best, len(subsets))
        assert abs(rep.cp_argmin - _ref_cp(g, best)) <= 1e-15 * _ref_cp(g, best)

    @pytest.mark.parametrize("g,delta,seed", [
        (disjoint_matching(12), 1 / 12, 1),
        (random_regular_graph(24, 3, seed=0), 0.125, 0),
        (multigraph(20, 4, 5), 0.2, 2),
    ])
    def test_local_search_matches_the_one_swap_reference(self, g, delta, seed):
        rep = expansion_profile(g, delta, seed=seed)
        assert not rep.exhaustive
        assert (rep.phi, rep.argmin, rep.subsets_checked) == _ref_local_search(g, delta, seed)

    @pytest.mark.parametrize("g,delta,seed,checked,phi,argmin", [
        (disjoint_matching(12), 1 / 12, 1, 2637, 0.0, (20, 21)),
        (random_regular_graph(24, 3, seed=0), 0.125, 0, 3158, 1 / 3, (1, 2, 4)),
        (random_regular_graph(40, 3, seed=0), 0.1, 0, 7956, 1 / 3, (3, 10, 27, 35)),
        (random_regular_graph(60, 4, seed=0), 0.1, 0, 19320, 5 / 12, (4, 9, 17, 39, 50, 59)),
    ])
    def test_local_search_results_and_plain_int_argmin(self, g, delta, seed, checked, phi, argmin):
        rep = expansion_profile(g, delta, seed=seed)
        assert (rep.subsets_checked, rep.phi, rep.argmin) == (checked, phi, argmin)
        assert all(type(v) is int for v in rep.argmin)

    def test_violations_keep_order_keys_and_types(self, monkeypatch):
        # a negative slack and a tiny relaxation bound make both sides report
        bound = SimpleNamespace(certificate=SimpleNamespace(bound=1e-3))
        monkeypatch.setattr(sse, "tensor_sdp", lambda inst, level: bound)
        g = cycle_graph(8)
        chk = check_norm_implies_expansion(g, 0.4, 4, restarts=8, slack=-1.0)
        assert chk.violations == _ref_violations(g, 0.4, 4, chk.norm_lower, 1e-3, -1.0)
        assert {v.get("side") for v in chk.violations} == {None, "sdp"}
        for v in chk.violations:
            assert type(v["phi"]) is float and type(v["margin"]) is float
            assert all(type(x) is int for x in v["subset"])


class TestExpansionProfile:
    def test_k4_singletons(self):
        rep = expansion_profile(complete_graph(4), 0.25)
        assert rep.phi == 1.0 and len(rep.argmin) == 1

    def test_c8_quarter(self):
        rep = expansion_profile(cycle_graph(8), 0.25)
        assert np.isclose(rep.phi, 0.5)
        assert rep.exhaustive

    def test_c8_matches_full_enumeration_oracle(self):
        g = cycle_graph(8)
        rep = expansion_profile(g, 0.5)
        best = min(g.phi(s) for k in range(1, 5)
                   for s in itertools.combinations(range(8), k))
        assert np.isclose(rep.phi, best)

    def test_delta_too_small(self):
        with pytest.raises(ValueError):
            expansion_profile(cycle_graph(8), 0.01)

    def test_heuristic_mode_flagged(self):
        g = disjoint_matching(12)   # 24 vertices
        rep = expansion_profile(g, 1.0 / 12.0, seed=1)
        assert not rep.exhaustive
        assert rep.phi == 0.0       # an edge pair never leaves


class TestTopProjector:
    def test_k4_constants(self):
        rep = top_projector_norm(complete_graph(4), 0.5, 4, restarts=8)
        assert rep.dim == 1
        assert abs(rep.norm_lower - 1.0) <= 1e-9
        assert np.allclose(rep.projector, np.full((4, 4), 0.25))

    def test_full_space_dimension_bound(self):
        g = complete_graph(4)
        rep = top_projector_norm(g, -0.999999, 4, restarts=8)
        assert rep.dim == 4
        assert rep.norm_lower >= 4 ** (0.5 - 0.25) - 1e-6

    def test_c12_duality_cross_check(self):
        # evaluated independently in test_oracles via the dual exponent
        rep = top_projector_norm(cycle_graph(12), 0.5, 4, restarts=32)
        assert rep.dim == 5
        assert rep.norm_lower >= 1.0


class TestNormImpliesExpansion:
    @pytest.mark.parametrize("g,lam", [
        (complete_graph(4), 0.5),
        (cycle_graph(6), 0.9),
        (petersen_graph(), 0.4),
    ])
    def test_holds_exhaustively(self, g, lam):
        chk = check_norm_implies_expansion(g, lam, 4, restarts=32)
        assert chk.passed, chk.violations[:3]
        assert chk.subsets_checked == 2**g.n - 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            check_norm_implies_expansion(disjoint_matching(8), 0.5, 4)

    def test_relaxation_side_follows_the_level_4_limit(self, monkeypatch):
        # C12's eigenspace at lambda = 1/2 has dimension 5
        g = cycle_graph(12)
        assert check_norm_implies_expansion(g, 0.5, 4, restarts=8).norm_upper_fourth is not None
        monkeypatch.setitem(SIZE_LIMITS, 4, 4)
        assert check_norm_implies_expansion(g, 0.5, 4, restarts=8).norm_upper_fourth is None


class TestExpansionImpliesNorm:
    def test_constants_only_trivial(self):
        # 8-regular complete graph on 9 vertices: single vertices have cp 1/8,
        # matching e = 2^(c q)/lam exactly at c = 0.5, lam = 0.5, q = 4
        chk = check_expansion_implies_norm(complete_graph(9), 0.5, 4, delta=1 / 9, c=0.5)
        assert chk.hypothesis_met
        assert chk.ratio <= chk.bound
        assert chk.passed

    def test_default_constant_never_met_at_desk_scale(self):
        chk = check_expansion_implies_norm(cycle_graph(6), 0.5, 4, delta=1 / 3)
        assert not chk.hypothesis_met and chk.passed
        assert chk.hypothesis_witness is not None

    def test_low_dimensional_eigenspace(self):
        chk = check_expansion_implies_norm(cycle_graph(12), 0.9, 4, delta=1 / 12, c=0.12)
        if chk.hypothesis_met:
            assert chk.passed

    def test_expander_fixture(self):
        g = random_regular_graph(14, 3, seed=5)
        chk = check_expansion_implies_norm(g, 0.5, 4, delta=1 / 14, c=0.14)
        assert chk.passed
        if chk.hypothesis_met:
            assert chk.ratio <= chk.bound + 1e-4


class TestHeavySet:
    def test_uniform_constant(self):
        t, info = heavy_set_extract(np.full(10, 0.1), np.ones(10), 10)
        assert len(t) == 10 and info["achieved"] >= info["bound"] - 1e-12

    def test_indicator_recovery(self):
        n = 5
        p = np.full(2 * n, 1 / (2 * n))
        g = np.zeros(2 * n)
        g[:n] = 1.0
        t, info = heavy_set_extract(p, g, n)
        assert set(t) == set(range(n))
        assert info["achieved"] >= info["bound"] - 1e-12

    def test_hundred_seeded_cases(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(6, 40))
            n = int(rng.integers(2, max(3, k // 2)))
            p = rng.uniform(size=k)
            p /= p.sum()
            while np.sum(p * p) > 1.0 / n:
                p = 0.5 * p + 0.5 / k
            g = rng.normal(size=k)
            t, info = heavy_set_extract(p, g, n)
            assert len(t) == n
            assert info["achieved"] >= info["bound"] - 1e-12

    def test_cp_precondition_enforced(self):
        p = np.array([0.9, 0.1])
        with pytest.raises(ValueError):
            heavy_set_extract(p, np.ones(2), 2)


def hadamard(k):
    h = np.array([[1.0]])
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def planted_instances(n_out=32, count=20):
    """Projectors with known flat (char-span) or spiky behavior.

    Flat instances span degree-1 characters, whose ratio never exceeds
    3^(1/4); spiky ones either contain a coordinate vector (ratio
    n_out^(1/4)) or are wide coordinate projectors that trip the dimension
    gate outright.
    """
    h = hadamard(5) / 1.0
    flat_rows = [1, 2, 4, 8, 16]       # degree-1 characters: ratio <= 3^(1/4)
    out = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        spiky = seed % 2 == 1
        if spiky and seed % 10 == 3:
            wide = np.zeros((n_out, n_out))
            dim = 23 + (seed % 2)
            wide[:dim, :dim] = np.eye(dim)
            out.append((OperatorInstance(wide, "expectation"), True))
            continue
        if spiky:
            dim = int(rng.integers(2, 5))
            cols = [np.eye(n_out)[:, int(rng.integers(0, n_out))]]
            cols += [h[:, int(i)] / np.sqrt(n_out) for i in rng.choice(flat_rows, size=dim - 1, replace=False)]
        else:
            dim = int(rng.integers(1, 6))
            cols = [h[:, int(i)] / np.sqrt(n_out) for i in rng.choice(flat_rows, size=dim, replace=False)]
        u = np.linalg.qr(np.array(cols).T)[0]
        out.append((OperatorInstance(u @ u.T, "expectation"), spiky))
    return out


class TestSubexp:
    def test_gate_fires_on_wide_coordinate_projector(self):
        p = np.zeros((16, 16))
        p[:10, :10] = np.eye(10)
        v = subexp_decide(OperatorInstance(p, "expectation"), 4, 1.2, 1.5)
        assert v.verdict == "LARGE" and v.reason == "gate"

    def test_constants_projector_small(self):
        p = np.full((8, 8), 1 / 8)
        v = subexp_decide(OperatorInstance(p, "expectation"), 4, 1.2, 1.5)
        assert v.verdict == "SMALL" and v.value <= 1.0 + 1e-9

    def test_sigma_gate(self):
        inst = OperatorInstance(2.0 * np.eye(6), "expectation")
        v = subexp_decide(inst, 4, 1.5, 2.0)
        assert v.verdict == "LARGE" and v.reason == "gate"

    def test_twenty_planted_instances_match_ground_truth(self):
        from hypernorm.oracles import norm_2_to_q_lower

        c, C = 1.4, 2.0
        agree = 0
        for inst, spiky in planted_instances():
            v = subexp_decide(inst, 4, c, C, seed=3, restart_cap=256)
            truth = "LARGE" if spiky else "SMALL"
            if v.reason == "gate":
                # gate soundness: a high-budget oracle confirms the claim
                rows = inst.quadratic_rows()
                u, s, _ = np.linalg.svd(rows)
                rank = int(np.sum(s > 1e-10))
                ora = norm_2_to_q_lower(subspace_instance(u[:, :rank], 4), 4,
                                        restarts=512, seed=0)
                assert ora.value >= C - 1e-6
            agree += v.verdict == truth
        assert agree == 20

    def test_never_small_when_oracle_certified_large(self):
        # spiky instance well above C can never come back SMALL
        p = np.zeros((32, 32))
        p[0, 0] = 1.0
        v = subexp_decide(OperatorInstance(p, "expectation"), 4, 1.1, 1.5)
        assert v.verdict == "LARGE"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            subexp_decide(OperatorInstance(np.eye(2), "expectation"), 4, 2.0, 1.5)


class TestSseDecide:
    def test_disjoint_matchings_not_sse(self):
        g = disjoint_matching(140)
        v = sse_decide(g, delta=1.0 / 140, nu=0.1, restarts=64)
        assert v.verdict == "not-sse"
        # ground truth: an edge never expands
        assert g.phi([0, 1]) == 0.0

    def test_strong_expander_sse_side(self):
        g = petersen_graph()
        v = sse_decide(g, delta=1e-5, nu=0.1, restarts=32)
        assert v.verdict == "sse"
        # ground truth by enumeration at a sensible scale: every small set
        # expands well (the minimizer is an outer-cycle path with phi = 5/9)
        rep = expansion_profile(g, 0.3)
        assert np.isclose(rep.phi, 5.0 / 9.0)

    def test_overlapping_thresholds_inconclusive(self):
        v = sse_decide(cycle_graph(12), delta=0.25, nu=0.1, restarts=16)
        assert v.verdict == "inconclusive-parameters"
        assert v.yes_threshold < v.value < v.no_threshold
