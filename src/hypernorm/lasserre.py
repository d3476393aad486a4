"""Max Cut solved two ways: the level-2 vector (Gram) relaxation over subsets
of at most two vertices, and the level-4 moment relaxation over the cube
ideal, together with the conversions between them.

Cut value is expectation-normalized: the mean over edges of (x_i - x_j)^2 / 4
for cube-valued x, so a graph whose best cut severs every edge scores 1.

The conversions: a Gram solution induces a level-4 functional by reading the
moment of a multilinear monomial off its symmetric-difference class, the Gram
positions (S, T) with S ^ T the monomial's support (the class constraints make
them equal), reducing general monomials modulo x_i^2 = 1; a moment solution
restricted to multilinear monomials of degree at most 2 is itself a Gram
matrix for the vector program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .polybasis import CodeClasses, Polynomial, monomial_basis, multilinear_reduce
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


def _class_spread(y: np.ndarray, classes: dict) -> tuple[dict, float]:
    """The mean of y over each class's positions, by key, and the largest
    spread of y within one class."""
    means, spread = {}, 0.0
    for key, pos in classes.items():
        vals = y[tuple(np.asarray(pos).T)]
        means[key] = float(np.mean(vals))
        spread = max(spread, float(np.max(vals) - np.min(vals)))
    return means, spread


def _cut_gram(g: RegularGraph, sets) -> np.ndarray:
    """C with <C, Y> the cut value of the Gram matrix Y over ``sets``: the
    mean over edges of |v_u - v_v|^2 / 4."""
    idx = {s: k for k, s in enumerate(sets)}
    C = np.zeros((len(sets), len(sets)))
    w = 1.0 / (4.0 * len(g.edges))
    for u, v in g.edges:
        iu, iv = idx[frozenset([u])], idx[frozenset([v])]
        C[iu, iu] += w
        C[iv, iv] += w
        C[iu, iv] -= w
        C[iv, iu] -= w
    return C


def _cube_ideal(n):
    """The generators x_i^2 - 1 of the cube ideal."""
    return [Polynomial(n, {tuple(2 * (t == i) for t in range(n)): 1.0, (0,) * n: -1.0})
            for i in range(n)]


def _reduce(mono):
    return tuple(e % 2 for e in mono)


def solve_lasserre_maxcut(g: RegularGraph, opts: SolveOptions | None = None):
    """Vector relaxation over {v_S : |S| <= 2} with consistent inner products.

    Returns the value, the Gram matrix, its row sets and the solution, whose
    ``bound`` is the weak-duality bound of the solver's dual point.
    """
    sets = _cut_sets(g.n)
    # every diagonal position lies in the class of the empty set, which the
    # row fixes to 1, so tr Y is exactly the number of sets
    problem = MomentProgram.from_classes(len(sets), _cut_classes(sets), _cut_gram(g, sets), [{(): 1.0}], [1.0],
                                         trace_bound=len(sets))
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


def _sos_program(g: RegularGraph) -> MomentProgram:
    """The level-4 moment program of Max Cut over the ideal <x_i^2 - 1>: its
    classes, keyed by the reduced exponent tuples, are those of the monomials'
    multilinear reductions."""
    n = g.n
    basis = np.array(monomial_basis(n, 2)).reshape(-1, n)
    # a monomial reduces to its odd part, a subset of the variables; as a bit
    # mask, that of x^(beta_i + beta_j) is the XOR of those of beta_i and beta_j
    bits = 1 << np.arange(n)
    mask = basis % 2 @ bits
    i, j = np.triu_indices(len(basis))
    classes = CodeClasses(mask[i] ^ mask[j])
    first = classes.first
    keys = list(map(tuple, ((basis[i[first]] + basis[j[first]]) % 2).tolist()))
    objective = multilinear_reduce(_cut_objective(g))
    terms = np.array(list(objective.terms), dtype=np.intp).reshape(-1, n)
    c = np.zeros(len(keys))
    c[classes.of(terms @ bits)] = list(objective.terms.values())
    # each coefficient spread evenly over the entries of its class
    weight = np.bincount(classes.labels, np.where(i == j, 1.0, 2.0))
    C = np.zeros((len(basis), len(basis)))
    C[i, j] = C[j, i] = (c / weight)[classes.labels]
    # every diagonal monomial reduces to the constant, so tr X is exactly N
    R = np.zeros((1, len(keys)))
    R[0, classes.of(0)] = 1.0
    return MomentProgram(len(basis), classes.labels, C, R, [1.0], trace_bound=len(basis), keys=keys)


def solve_sos_maxcut(g: RegularGraph, opts: SolveOptions | None = None):
    """Level-4 moment relaxation over the ideal <x_i^2 - 1>: moment-matrix
    positions are classed by the multilinear reduction of their monomial.

    Returns the value, the pseudo-expectation and the solution, whose
    ``bound`` is the weak-duality bound of the solver's dual point.
    """
    n = g.n
    if n > 8:
        raise ValueError("moment relaxation limited to 8 vertices")
    problem = _sos_program(g)
    sol = solve_sdp(problem, opts or SolveOptions(tol=1e-9))
    values = problem.values(sol.X[0])
    moments = {mono: values[_reduce(mono)] for mono in monomial_basis(n, 4)}
    return sol.primal_obj, PseudoExpectation(n, 4, moments, _cube_ideal(n)), sol


def lasserre_to_pe(y: np.ndarray, sets, n: int) -> tuple[PseudoExpectation, float]:
    """Read a level-4 functional off the Gram matrix, each moment from the
    symmetric-difference class of its multilinear reduction; also report the
    largest spread within a class, which a consistent Gram matrix keeps at 0."""
    means, spread = _class_spread(y, _cut_classes(sets))
    moments = {alpha: means[tuple(i for i, e in enumerate(alpha) if e % 2)]
               for alpha in monomial_basis(n, 4)}
    return PseudoExpectation(n, 4, moments, _cube_ideal(n)), spread


def pe_to_lasserre(pe: PseudoExpectation):
    """The Gram matrix over multilinear sets of size <= 2 that the moments
    determine: one moment per symmetric-difference class."""
    n = pe.n
    sets = _cut_sets(n)
    y = np.empty((len(sets), len(sets)))
    for key, pos in _cut_classes(sets).items():
        i, j = np.asarray(pos).T
        y[i, j] = y[j, i] = pe.moments[tuple(int(k in key) for k in range(n))]
    return y, sets


@dataclass
class RoundtripReport:
    lasserre_value: float
    sos_value: float
    lasserre_bound: float
    sos_bound: float
    value_gap: float
    max_moment_discrepancy: float
    lasserre_converted_objective: float
    sos_converted_objective: float
    converted_pe_valid: bool
    converted_gram_min_eig: float
    lasserre_status: str
    sos_status: str


def lasserre_roundtrip(g: RegularGraph, opts: SolveOptions | None = None) -> RoundtripReport:
    """Solve both relaxations independently and convert each optimum across."""
    if g.n > 8:
        raise ValueError("roundtrip limited to 8 vertices")
    lass_val, y, sets, lass_sol = solve_lasserre_maxcut(g, opts)
    sos_val, pe, sos_sol = solve_sos_maxcut(g, opts)

    pe_from_lass, spread = lasserre_to_pe(y, sets, g.n)
    lass_conv_obj = pseudo_expect(pe_from_lass, _cut_objective(g))
    rep = validate_pef(pe_from_lass, tol=1e-6)

    y_from_pe, sets = pe_to_lasserre(pe)
    sos_conv_obj = float(np.vdot(_cut_gram(g, sets), y_from_pe))

    return RoundtripReport(
        lasserre_value=lass_val,
        sos_value=sos_val,
        lasserre_bound=lass_sol.bound,
        sos_bound=sos_sol.bound,
        value_gap=abs(lass_val - sos_val),
        max_moment_discrepancy=spread,
        lasserre_converted_objective=lass_conv_obj,
        sos_converted_objective=sos_conv_obj,
        converted_pe_valid=rep.passed,
        converted_gram_min_eig=float(np.linalg.eigvalsh(y_from_pe)[0]),
        lasserre_status=lass_sol.status,
        sos_status=sos_sol.status,
    )
