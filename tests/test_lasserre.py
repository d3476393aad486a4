import itertools

import numpy as np
import pytest

from hypernorm import lasserre
from hypernorm.polybasis import monomial_basis, multilinear_reduce
from hypernorm.sdp import MomentProgram, SolveOptions
from hypernorm.lasserre import lasserre_roundtrip, lasserre_to_pe, solve_lasserre_maxcut, solve_sos_maxcut
from hypernorm.pseudoexp import validate_pef
from hypernorm.sse import RegularGraph, complete_graph, cycle_graph
from tests.test_tensorsdp import dict_moment_classes, same_bits


def exact_maxcut(g):
    return max(sum((b[u] - b[v]) ** 2 / 4 for u, v in g.edges) / len(g.edges)
               for b in itertools.product([-1, 1], repeat=g.n))


def test_single_edge_both_one():
    rep = lasserre_roundtrip(RegularGraph(2, [(0, 1)]))
    assert abs(rep.lasserre_value - 1.0) <= 1e-6
    assert abs(rep.sos_value - 1.0) <= 1e-6
    assert rep.converted_pe_valid


def test_c5_roundtrip_agreement():
    rep = lasserre_roundtrip(cycle_graph(5))
    assert rep.value_gap <= 1e-5
    assert rep.max_moment_discrepancy <= 1e-6
    assert abs(rep.lasserre_converted_objective - rep.lasserre_value) <= 1e-6
    assert abs(rep.sos_converted_objective - rep.sos_value) <= 1e-6
    assert rep.converted_pe_valid
    assert rep.converted_gram_min_eig >= -1e-6
    # both relaxations upper-bound the true cut
    assert rep.lasserre_value >= exact_maxcut(cycle_graph(5)) - 1e-6


def test_converted_gram_min_eig_flags_a_moment_out_of_range(monkeypatch):
    # E[x0 x1] = 1.5 puts [[1, 1.5], [1.5, 1]] (rows {}, {0, 1}) in the
    # converted Gram matrix, whose smallest eigenvalue is then at most -0.5
    g = cycle_graph(5)
    val, pe, sol = solve_sos_maxcut(g)
    pe.moments[(1, 1, 0, 0, 0)] = 1.5
    monkeypatch.setattr(lasserre, "solve_sos_maxcut", lambda g, opts: (val, pe, sol))
    assert lasserre_roundtrip(g).converted_gram_min_eig <= -0.5 + 1e-6


def test_k3_matches_exact_cut():
    g = complete_graph(3)
    rep = lasserre_roundtrip(g)
    exact = exact_maxcut(g)
    assert np.isclose(exact, 2.0 / 3.0)
    assert rep.value_gap <= 1e-5
    assert rep.lasserre_value >= exact - 1e-6


def test_sos_solution_is_valid_pef():
    _, pe, _ = solve_sos_maxcut(cycle_graph(5))
    rep = validate_pef(pe, 1e-6)
    assert rep.passed


def test_lasserre_gram_constraints_hold():
    val, y, sets, _ = solve_lasserre_maxcut(cycle_graph(5))
    idx = {s: k for k, s in enumerate(sets)}
    assert abs(y[idx[frozenset()], idx[frozenset()]] - 1.0) <= 1e-6
    # symmetric-difference consistency on a few classes
    a, b = idx[frozenset([0])], idx[frozenset([1])]
    ab = idx[frozenset([0, 1])]
    assert abs(y[a, b] - y[idx[frozenset()], ab]) <= 1e-6


def test_lasserre_to_pe_reports_an_inconsistent_pair():
    # <v_{0}, v_{0,1}> lies in the class of {1} but on no disjoint split of
    # {1}, so a read over splits alone would miss this perturbation
    _, y, sets, _ = solve_lasserre_maxcut(cycle_graph(5))
    idx = {s: k for k, s in enumerate(sets)}
    a, b = idx[frozenset([0])], idx[frozenset([0, 1])]
    bumped = y.copy()
    bumped[a, b] += 1e-3
    bumped[b, a] += 1e-3
    assert lasserre_to_pe(y, sets, 5)[1] <= 1e-6
    assert lasserre_to_pe(bumped, sets, 5)[1] >= 1e-3


@pytest.mark.parametrize("n", [6, 8])
def test_even_cycles_reach_the_full_cut(n):
    g = cycle_graph(n)
    rep = lasserre_roundtrip(g)
    exact = exact_maxcut(g)
    assert min(rep.lasserre_value, rep.sos_value) >= exact - 1e-6
    assert rep.value_gap <= 1e-5
    assert rep.lasserre_status == rep.sos_status == "optimal"


@pytest.mark.parametrize("max_iter", [1, 2, 10])
@pytest.mark.parametrize("graph", [cycle_graph(5), complete_graph(5)], ids=["C5", "K5"])
def test_bounds_hold_for_any_dual_point(graph, max_iter):
    # the weak-duality bound holds whether or not the solver converged
    exact = exact_maxcut(graph)
    opts = SolveOptions(max_iter=max_iter)
    assert solve_lasserre_maxcut(graph, opts)[3].bound >= exact
    assert solve_sos_maxcut(graph, opts)[2].bound >= exact


def test_roundtrip_bounds_are_tight_at_the_optimum():
    rep = lasserre_roundtrip(cycle_graph(5))
    for value, bound in ((rep.lasserre_value, rep.lasserre_bound), (rep.sos_value, rep.sos_bound)):
        assert value - 1e-6 <= bound <= value + 1e-6


def dict_spread_objective(objective, classes, size):
    """C with each coefficient spread evenly over its class's entries, as
    ``polybasis.spread_objective`` built it from the class dict."""
    C = np.zeros((size, size))
    for mono, c in objective.terms.items():
        pos = classes[mono]
        weight = sum(2.0 if i != j else 1.0 for i, j in pos)
        for i, j in pos:
            C[i, j] += c / weight
            if i != j:
                C[j, i] += c / weight
    return C


C8_RELABELLED = [3, 6, 0, 7, 2, 5, 1, 4]


@pytest.mark.parametrize("g", [RegularGraph(2, [(0, 1)]), cycle_graph(5), complete_graph(5), cycle_graph(6),
                               RegularGraph(8, [(C8_RELABELLED[u], C8_RELABELLED[(u + 1) % 8]) for u in range(8)])],
                         ids=["K2", "C5", "K5", "C6", "C8-relabelled"])
def test_sos_program_matches_dict_build_bitwise(g):
    # the reduced classes, grouped from the monomials' dict classes as
    # solve_sos_maxcut grouped them before integer codes
    n = g.n
    basis = monomial_basis(n, 2)
    classes = {}
    for mono, pos in dict_moment_classes(basis).items():
        classes.setdefault(tuple(e % 2 for e in mono), []).extend(pos)
    C = dict_spread_objective(multilinear_reduce(lasserre._cut_objective(g)), classes, len(basis))
    ref = MomentProgram.from_classes(len(basis), classes, C, [{(0,) * n: 1.0}], [1.0], trace_bound=len(basis))
    got = lasserre._sos_program(g)
    assert got.keys == ref.keys
    assert same_bits(got._labels, ref._labels)
    assert same_bits(got.C[0], ref.C[0]) and same_bits(got.R, ref.R) and same_bits(got.b, ref.b)
