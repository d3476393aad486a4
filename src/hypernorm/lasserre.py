"""Max Cut solved two ways: the level-2 vector (Gram) relaxation over subsets
of at most two vertices, and the level-4 moment relaxation over the cube
ideal, together with the conversions between them.

Cut value is expectation-normalized: the mean over edges of (x_i - x_j)^2 / 4
for cube-valued x, so a graph whose best cut severs every edge scores 1.

The conversions: a Gram solution induces a level-4 functional by reading the
moment of a multilinear monomial off any split into two half-sets (the
symmetric-difference constraints make the split irrelevant), reducing general
monomials modulo x_i^2 = 1; a moment solution restricted to multilinear
monomials of degree at most 2 is itself a Gram matrix for the vector program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import gram_factor, psd_project
from .polybasis import Polynomial, moment_classes, monomial_basis, multilinear_reduce, spread_objective
from .pseudoexp import PseudoExpectation, pseudo_expect, validate_pef
from .sdp import MomentProgram, SolveOptions, solve_sdp
from .sse import RegularGraph

__all__ = ["lasserre_roundtrip", "RoundtripReport", "solve_lasserre_maxcut", "solve_sos_maxcut"]


def _cut_sets(n):
    sets = [frozenset()]
    sets += [frozenset([i]) for i in range(n)]
    sets += [frozenset(p) for p in itertools.combinations(range(n), 2)]
    return sets


def _cut_classes(sets) -> dict:
    """Map each symmetric difference S ^ T to the Gram positions (a, b), a <= b,
    whose inner product <v_S, v_T> it determines."""
    classes: dict = {}
    for a in range(len(sets)):
        for b in range(a, len(sets)):
            classes.setdefault(tuple(sorted(sets[a] ^ sets[b])), []).append((a, b))
    return classes


def _cube_ideal(n):
    """The generators x_i^2 - 1 of the cube ideal."""
    return [Polynomial(n, {tuple(2 * (t == i) for t in range(n)): 1.0, (0,) * n: -1.0})
            for i in range(n)]


def _reduce(mono):
    return tuple(e % 2 for e in mono)


def solve_lasserre_maxcut(g: RegularGraph, opts: SolveOptions | None = None):
    """Vector relaxation over {v_S : |S| <= 2} with consistent inner products."""
    n = g.n
    sets = _cut_sets(n)
    idx = {s: k for k, s in enumerate(sets)}
    N = len(sets)
    C = np.zeros((N, N))
    w = 1.0 / (4.0 * len(g.edges))
    for u, v in g.edges:
        iu, iv = idx[frozenset([u])], idx[frozenset([v])]
        C[iu, iu] += w
        C[iv, iv] += w
        C[iu, iv] -= w
        C[iv, iu] -= w
    problem = MomentProgram(N, _cut_classes(sets), C, [{(): 1.0}], [1.0])
    sol = solve_sdp(problem, opts or SolveOptions(tol=1e-9))
    return sol.primal_obj, sol.X[0], sets, sol


def _cut_objective(g: RegularGraph) -> Polynomial:
    n = g.n
    obj = Polynomial.constant(n, 0.0)
    w = 1.0 / (4.0 * len(g.edges))
    for u, v in g.edges:
        xu, xv = Polynomial.variable(n, u), Polynomial.variable(n, v)
        d = xu - xv
        obj = obj + w * (d * d)
    return obj


def solve_sos_maxcut(g: RegularGraph, opts: SolveOptions | None = None):
    """Level-4 moment relaxation over the ideal <x_i^2 - 1>: moment-matrix
    positions are classed by the multilinear reduction of their monomial."""
    n = g.n
    if n > 8:
        raise ValueError("moment relaxation limited to 8 vertices")
    basis = monomial_basis(n, 2)
    classes: dict = {}
    for mono, pos in moment_classes(basis).items():
        classes.setdefault(_reduce(mono), []).extend(pos)
    C = spread_objective(multilinear_reduce(_cut_objective(g)), classes, len(basis))
    problem = MomentProgram(len(basis), classes, C, [{(0,) * n: 1.0}], [1.0])
    sol = solve_sdp(problem, opts or SolveOptions(tol=1e-9))
    values = problem.values(sol.X[0])
    moments = {mono: values[_reduce(mono)] for mono in monomial_basis(n, 4)}
    return sol.primal_obj, PseudoExpectation(n, 4, moments, _cube_ideal(n)), sol


def lasserre_to_pe(y: np.ndarray, sets, n: int) -> tuple[PseudoExpectation, float]:
    """Read a level-4 functional off the Gram matrix; also report the largest
    spread among splits that must agree."""
    idx = {s: k for k, s in enumerate(sets)}
    spread = 0.0

    def multilinear_moment(mono_set):
        vals = []
        members = sorted(mono_set)
        for r in range(len(members) + 1):
            for combo in itertools.combinations(members, r):
                s, t = frozenset(combo), frozenset(mono_set) - frozenset(combo)
                if s in idx and t in idx:
                    vals.append(y[idx[s], idx[t]])
        return float(np.mean(vals)), float(np.max(vals) - np.min(vals))

    moments = {}
    for alpha in monomial_basis(n, 4):
        mono_set = {i for i, e in enumerate(_reduce(alpha)) if e}
        val, sp = multilinear_moment(mono_set)
        moments[alpha] = val
        spread = max(spread, sp)
    return PseudoExpectation(n, 4, moments, _cube_ideal(n)), spread


def pe_to_lasserre(pe: PseudoExpectation, psd_slack: float = 1e-7):
    """Gram vectors over multilinear sets from the moment matrix restriction."""
    n = pe.n
    sets = _cut_sets(n)
    N = len(sets)
    y = np.empty((N, N))
    for a, s in enumerate(sets):
        for b, t in enumerate(sets):
            mono = tuple((1 if i in (s ^ t) else 0) for i in range(n))
            y[a, b] = pe.moments[mono]
    vectors = gram_factor(psd_project(y, sym_tol=1e-6), psd_tol=psd_slack)
    return y, vectors, sets


@dataclass
class RoundtripReport:
    lasserre_value: float
    sos_value: float
    value_gap: float
    max_moment_discrepancy: float
    lasserre_converted_objective: float
    sos_converted_objective: float
    converted_pe_valid: bool
    converted_gram_consistency: float
    lasserre_status: str
    sos_status: str


def lasserre_roundtrip(g: RegularGraph, opts: SolveOptions | None = None,
                       tol: float = 1e-6) -> RoundtripReport:
    """Solve both relaxations independently and convert each optimum across."""
    if g.n > 8:
        raise ValueError("roundtrip limited to 8 vertices")
    lass_val, y, sets, lass_sol = solve_lasserre_maxcut(g, opts)
    sos_val, pe, sos_sol = solve_sos_maxcut(g, opts)

    pe_from_lass, spread = lasserre_to_pe(y, sets, g.n)
    obj = _cut_objective(g)
    lass_conv_obj = pseudo_expect(pe_from_lass, obj)
    rep = validate_pef(pe_from_lass, tol=max(tol, 1e-6))

    y_from_pe, _, sets2 = pe_to_lasserre(pe)
    idx = {s: k for k, s in enumerate(sets2)}
    gram_spread = 0.0
    for pos in _cut_classes(sets2).values():
        vals = [y_from_pe[a, b] for a, b in pos]
        gram_spread = max(gram_spread, float(np.max(vals) - np.min(vals)))
    w = 1.0 / (4.0 * len(g.edges))
    sos_conv_obj = 0.0
    for u, v in g.edges:
        iu, iv = idx[frozenset([u])], idx[frozenset([v])]
        sos_conv_obj += w * (y_from_pe[iu, iu] + y_from_pe[iv, iv] - 2 * y_from_pe[iu, iv])

    return RoundtripReport(
        lasserre_value=lass_val,
        sos_value=sos_val,
        value_gap=abs(lass_val - sos_val),
        max_moment_discrepancy=max(spread, gram_spread),
        lasserre_converted_objective=lass_conv_obj,
        sos_converted_objective=float(sos_conv_obj),
        converted_pe_valid=rep.passed,
        converted_gram_consistency=gram_spread,
        lasserre_status=lass_sol.status,
        sos_status=sos_sol.status,
    )
