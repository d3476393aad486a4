import itertools

import numpy as np
import pytest

from hypernorm import lasserre, sdp
from hypernorm.polybasis import Polynomial, monomial_basis, multilinear_reduce
from hypernorm.sdp import ANCHOR_AT, MomentProgram, SolveOptions, solve_sdp
from hypernorm.lasserre import lasserre_roundtrip, lasserre_to_pe, solve_lasserre_maxcut, solve_sos_maxcut
from hypernorm.pseudoexp import validate_pef
from hypernorm.sse import RegularGraph, complete_graph, cycle_graph
from tests.test_sdp import assert_same_solution
from tests.test_tensorsdp import dict_moment_classes, same_bits


# the complete bipartite graph K3,3, whose optimal cut severs every edge
K33 = RegularGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])


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
    # an anchored Gram matrix has entries exactly +-1, where 2^-10 is exact
    bumped = y.copy()
    bumped[a, b] += 2.0 ** -10
    bumped[b, a] += 2.0 ** -10
    assert lasserre_to_pe(y, sets, 5)[1] <= 1e-6
    assert lasserre_to_pe(bumped, sets, 5)[1] >= 2.0 ** -10


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


def cut_polynomial(g):
    """The cut value as a polynomial, the mean over edges of (x_u - x_v)^2 / 4,
    expanded edge by edge."""
    n = g.n
    obj = Polynomial.constant(n, 0.0)
    w = 1.0 / (4.0 * len(g.edges))
    for u, v in g.edges:
        d = Polynomial.variable(n, u) - Polynomial.variable(n, v)
        obj = obj + w * (d * d)
    return obj


C8_RELABELLED = [3, 6, 0, 7, 2, 5, 1, 4]
PROGRAM_GRAPHS = pytest.mark.parametrize(
    "g", [RegularGraph(2, [(0, 1)]), cycle_graph(5), complete_graph(5), cycle_graph(6),
          RegularGraph(8, [(C8_RELABELLED[u], C8_RELABELLED[(u + 1) % 8]) for u in range(8)])],
    ids=["K2", "C5", "K5", "C6", "C8-relabelled"])


@PROGRAM_GRAPHS
def test_sos_program_matches_dict_build_bitwise(g):
    # the reduced classes, grouped from the monomials' dict classes as
    # solve_sos_maxcut grouped them before integer codes
    n = g.n
    basis = monomial_basis(n, 2)
    classes = {}
    for mono, pos in dict_moment_classes(basis).items():
        classes.setdefault(tuple(e % 2 for e in mono), []).extend(pos)
    zero = np.zeros((len(basis), len(basis)))
    ref = MomentProgram.from_classes(len(basis), classes, zero, [{(0,) * n: 1.0}], [1.0], trace_bound=len(basis))
    got = program_and_exponents(g, "moment")[0]
    assert got.keys == ref.keys
    assert same_bits(got._labels, ref._labels)
    assert same_bits(got.R, ref.R) and same_bits(got.b, ref.b)
    # C sits on the degree-1 rows, not spread over the classes, so it is
    # checked by its class sums: the coefficients of the reduced polynomial
    terms = multilinear_reduce(cut_polynomial(g)).terms
    sums = dict(zip(got.keys, got.class_sums(got.C[0]).tolist()))
    assert sums == {key: terms.get(key, 0.0) for key in got.keys}


@PROGRAM_GRAPHS
def test_the_vector_program_is_the_moment_programs_block_on_the_multilinear_rows(g):
    vector, rows = program_and_exponents(g, "gram")
    moment, basis = program_and_exponents(g, "moment")
    at = np.flatnonzero(basis.max(axis=1) <= 1)
    assert np.array_equal(basis[at], rows)
    block = np.ix_(at, at)
    assert same_bits(vector.C[0], moment.C[0][block])
    # the same partition of the block's positions: each vector class is one
    # moment class, and every moment class shows in the block
    size = len(basis)
    labels = vector._labels.reshape(len(rows), len(rows))
    image = moment._labels.reshape(size, size)[block]
    pairs = np.unique(np.stack([labels.ravel(), image.ravel()]), axis=1)
    assert pairs.shape[1] == vector.svec_dim == moment.svec_dim
    assert np.array_equal(pairs[0], np.arange(vector.svec_dim))
    assert [moment.keys[c] for c in pairs[1]] == vector.keys
    assert same_bits(vector.R, moment.R[:, pairs[1]]) and same_bits(vector.b, moment.b)


# ---------------------------------------------------------------------------
# the solves anchored on the optimal cuts
# ---------------------------------------------------------------------------


def cuts_of_size(g, count):
    """The sign vectors cutting exactly ``count`` edges, as columns."""
    return np.array([x for x in itertools.product([-1.0, 1.0], repeat=g.n)
                     if sum(x[u] != x[v] for u, v in g.edges) == count]).T


def program_and_exponents(g, kind):
    """A Max Cut program and the exponent rows of its lifts z(x) = x^beta."""
    if kind == "gram":
        rows = lasserre._rows(lasserre._cut_sets(g.n), g.n)
    else:
        rows = np.array(monomial_basis(g.n, 2))
    return lasserre._cut_program(g, rows), rows


def anchored_solve(g, kind, opts):
    """``solve_lasserre_maxcut`` or ``solve_sos_maxcut``, as its solution."""
    return solve_lasserre_maxcut(g, opts)[3] if kind == "gram" else solve_sos_maxcut(g, opts)[2]


def test_the_optimal_cuts_are_enumerated_with_both_signs():
    cuts = lasserre._optimal_cuts(cycle_graph(5))
    assert cuts.shape == (5, 10)
    assert {tuple(x) for x in cuts.T} == {tuple(x) for x in cuts_of_size(cycle_graph(5), 4).T}
    assert {tuple(x) for x in lasserre._optimal_cuts(cycle_graph(6)).T} == {(1.0, -1.0) * 3, (-1.0, 1.0) * 3}


@pytest.mark.parametrize("kind", ["gram", "moment"])
@pytest.mark.parametrize("g", [cycle_graph(5), cycle_graph(6), complete_graph(4), cycle_graph(7), K33],
                         ids=["C5", "C6", "K4", "C7", "K33"])
def test_a_tight_relaxation_stops_at_the_first_attempt_on_an_optimal_cut(g, kind):
    exact = exact_maxcut(g)
    sol = anchored_solve(g, kind, SolveOptions(tol=1e-8))
    assert sol.status == "optimal" and sol.iterations == min(ANCHOR_AT) == 10
    assert sol.witnesses == lasserre._optimal_cuts(g).shape[1]
    # the value is that of a cut's rank-one moment matrix, up to the rounding of <C, X>
    assert abs(sol.primal_obj - exact) <= 1e-15
    assert np.linalg.matrix_rank(sol.X[0]) == 1 and set(np.abs(np.diag(sol.X[0]))) == {1.0}
    assert sol.bound >= exact


@pytest.mark.parametrize("kind", ["gram", "moment"])
def test_k5_is_not_tight_and_its_anchored_solve_is_the_loops(kind):
    g = complete_graph(5)
    opts = SolveOptions(tol=1e-8)
    sol = anchored_solve(g, kind, opts)
    assert sol.witnesses == 0 and sol.iterations > 100
    assert sol.primal_obj >= 0.625 - 1e-6 > exact_maxcut(g)
    assert_same_solution(sol, solve_sdp(program_and_exponents(g, kind)[0], opts))


@pytest.mark.parametrize("max_iter", [10, 30, 100])
@pytest.mark.parametrize("kind", ["gram", "moment"])
def test_an_anchor_on_non_optimal_cuts_keeps_the_bound_and_never_stops(kind, max_iter):
    # a cut of a cycle severs an even number of edges, so C5's non-optimal
    # cuts sever 2 (value 0.4 < 0.8): every anchored pair's bound is weak
    # duality, so it stays above the exact cut, and no attempt passes
    g = cycle_graph(5)
    problem, exps = program_and_exponents(g, kind)
    hook, bounds = lasserre._CutAnchor(problem, exps, cuts_of_size(g, 2)), []

    def spy(sol):
        pair = hook(sol)
        bounds.append(sdp._solution(problem, *pair[:3], "optimal", sol.iterations).bound)
        return pair

    opts = SolveOptions(tol=1e-9, max_iter=max_iter)
    sol = solve_sdp(problem, opts, anchor=spy)
    assert len(bounds) == len([k for k in ANCHOR_AT if k <= max_iter]) >= 1
    assert min(bounds) >= exact_maxcut(g)
    assert sol.witnesses == 0 and sol.iterations == max_iter and sol.bound >= exact_maxcut(g)
    assert_same_solution(sol, solve_sdp(problem, opts))


def test_every_solve_stops_at_eight_vertices():
    g = cycle_graph(9)
    for solve in (solve_lasserre_maxcut, solve_sos_maxcut, lasserre_roundtrip):
        with pytest.raises(ValueError, match="limited to 8 vertices"):
            solve(g)


def test_the_roundtrip_reports_iterations_and_witnesses():
    # C5's anchored stop is pinned through the CLI report in tests/test_cli.py
    rep = lasserre_roundtrip(complete_graph(5), SolveOptions(tol=1e-8))
    assert rep.lasserre_witnesses == rep.sos_witnesses == 0
    assert (rep.lasserre_iterations, rep.sos_iterations) == (147, 188)
