"""Max Cut solved two ways: the level-2 vector (Gram) relaxation over subsets
of at most two vertices, and the level-4 moment relaxation over the cube
ideal, together with the conversions between them.

Cut value is expectation-normalized: the mean over edges of (x_i - x_j)^2 / 4
for cube-valued x, so a graph whose best cut severs every edge scores 1.

Both are one program over a basis of monomials x^beta, given by its exponent
rows: the moment matrix's positions (i, j) are classed by the odd part of
x^(beta_i + beta_j), its reduction modulo x_i^2 = 1, whose bit mask is the XOR
of the rows' masks; the constant's class is fixed to 1; and the objective is
L / (4|E|) on the degree-1 rows, L the graph's Laplacian.  The moment
program's basis is every monomial of degree at most 2; the vector program's
is the multilinear ones, the subsets of at most two vertices, so it is the
moment program's principal block on those rows (Laurent 2003).

The conversions read the classes by mask too: a Gram (or moment) matrix
induces a level-4 functional whose moment of x^alpha is the mean of the
matrix over the class of alpha's odd part (the class constraints make its
entries equal), and a functional determines the Gram matrix by one moment per
class.

Both solves are anchored on the graph's optimal cuts, enumerated exactly (at
most 8 vertices, so at most 256 sign vectors): on a tight relaxation the lift
z(x) of every optimal cut x lies in the kernel of the optimal dual slack, so
``sdp.KernelRepair`` turns the loop's rough dual point into one whose slack
vanishes on those lifts, and the solver stops when that pair passes its own
weak-duality test.  The value is then that of an optimal cut's rank-one
moment matrix z z^T, the exact cut value; the bound needs no witness to hold.
Where the relaxation is not tight (K5: 0.625 against 0.6) no attempt passes
and the loop's own point is returned, bitwise as without the hook.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .polybasis import CodeClasses, Polynomial, monomial_basis
from .pseudoexp import PseudoExpectation, validate_pef
from .sdp import KernelRepair, MomentProgram, SolveOptions, solve_sdp
from .sse import RegularGraph

__all__ = ["lasserre_roundtrip", "RoundtripReport", "solve_lasserre_maxcut", "solve_sos_maxcut"]

# the vertex limit of every solve here, which bounds the cut enumeration
MAX_VERTICES = 8


def _cut_sets(n):
    sets = [frozenset()]
    sets += [frozenset([i]) for i in range(n)]
    sets += [frozenset(p) for p in itertools.combinations(range(n), 2)]
    return sets


def _rows(sets, n):
    """The exponent rows of the multilinear monomials prod_{i in S} x_i, S in ``sets``."""
    return np.array([[int(i in s) for i in range(n)] for s in sets]).reshape(-1, n)


def _masks(exps):
    """The odd part of each exponent row, the variables of odd exponent, as a bit mask."""
    return exps % 2 @ (1 << np.arange(exps.shape[1]))


def _classes(exps):
    """The upper-triangle positions (i, j) of a matrix over the monomials with
    exponent rows ``exps``, classed by the odd part of x^(beta_i + beta_j),
    which as a bit mask is the XOR of the rows' masks: ``(classes, i, j,
    keys)``, the keys the classes' odd parts as exponent tuples."""
    mask = _masks(exps)
    i, j = np.triu_indices(len(exps))
    classes = CodeClasses(mask[i] ^ mask[j])
    first = classes.first
    return classes, i, j, list(map(tuple, ((exps[i[first]] + exps[j[first]]) % 2).tolist()))


def _cut_matrix(g: RegularGraph, exps) -> np.ndarray:
    """C with <C, X> the cut value of the moment matrix X over the monomials
    with exponent rows ``exps``, the mean over edges of E (x_u - x_v)^2 / 4:
    L / (4|E|) on the degree-1 rows, L the Laplacian of ``g``."""
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    # the coefficients of x_u - x_v on the rows, one row per edge
    d = (exps.sum(axis=1) == 1) * (exps[:, u] - exps[:, v]).T
    return d.T @ d / (4.0 * len(g.edges))


def _cut_program(g: RegularGraph, exps) -> MomentProgram:
    """The Max Cut program over the monomials with exponent rows ``exps``, the
    constant among them: moment matrices constant on the classes of
    :func:`_classes`, with the constant's class fixed to 1, and the objective
    of :func:`_cut_matrix`."""
    classes, _, _, keys = _classes(exps)
    R = np.zeros((1, len(classes)))
    R[0, classes.of(0)] = 1.0
    # every diagonal monomial reduces to the constant, so tr X is exactly N
    return MomentProgram(len(exps), classes.labels, _cut_matrix(g, exps), R, [1.0], trace_bound=len(exps), keys=keys)


def _cube_ideal(n):
    """The generators x_i^2 - 1 of the cube ideal."""
    return [Polynomial(n, {tuple(2 * (t == i) for t in range(n)): 1.0, (0,) * n: -1.0})
            for i in range(n)]


def _pseudo_expectation(y: np.ndarray, exps) -> tuple[PseudoExpectation, float]:
    """The level-4 functional that the matrix ``y`` over the monomials with
    exponent rows ``exps`` induces, each moment the mean of y over the class
    of its monomial's odd part, and the largest spread of y within one class,
    which a matrix constant on the classes keeps at 0."""
    n = exps.shape[1]
    classes, i, j, _ = _classes(exps)
    vals = y[i, j]
    hi, lo = np.full(len(classes), -np.inf), np.full(len(classes), np.inf)
    np.maximum.at(hi, classes.labels, vals)
    np.minimum.at(lo, classes.labels, vals)
    mean = np.bincount(classes.labels, vals) / np.bincount(classes.labels)
    basis = monomial_basis(n, 4)
    moments = mean[classes.of(_masks(np.array(basis).reshape(-1, n)))]
    return PseudoExpectation(n, 4, dict(zip(basis, moments.tolist())), _cube_ideal(n)), float((hi - lo).max())


def _optimal_cuts(g: RegularGraph) -> np.ndarray:
    """Every x in {+-1}^n of maximal integer cut count, both signs, as the
    columns of an array."""
    x = 1.0 - 2.0 * ((np.arange(2 ** g.n)[:, None] >> np.arange(g.n)) & 1)
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    cut = (x[:, u] != x[:, v]).sum(axis=1)
    return x[cut == cut.max()].T


class _CutAnchor:
    """The anchor hook of one Max Cut solve, anchored on the sign vectors in
    the columns of ``cuts``: their lifts z(x) = x^beta over the exponent rows
    ``exps``, an orthonormal basis of whose span is the repair's kernel set,
    and the rank-one moment matrix of the first lift as the primal point.  The
    witnesses do not change, so the ``sdp.KernelRepair`` is built once, at
    the first attempt.  The hook returns ``(X, y, S, witnesses)``."""

    def __init__(self, problem: MomentProgram, exps: np.ndarray, cuts: np.ndarray):
        self.problem, self.count = problem, cuts.shape[1]
        self.lifts = np.prod(cuts.T[:, None, :] ** exps, axis=2).T
        self.repair = None

    def __call__(self, sol):
        if self.repair is None:
            # the eigenvectors of Z Z^T of nonzero eigenvalue span the lifts
            w, u = np.linalg.eigh(self.lifts @ self.lifts.T)
            self.repair = KernelRepair(self.problem, u[:, w > w[-1] * len(w) * np.finfo(float).eps])
        return self.repair(sol, self.lifts[:, 0], self.count)


def _solve_anchored(g: RegularGraph, basis, what: str, opts: SolveOptions | None):
    """``solve_sdp`` on the Max Cut program over the exponent rows
    ``basis(g.n)``, anchored on the optimal cuts of ``g``, and those rows;
    the rows are built only once ``g`` has passed the size check."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"{what} limited to {MAX_VERTICES} vertices")
    exps = basis(g.n)
    problem = _cut_program(g, exps)
    return solve_sdp(problem, opts or SolveOptions(tol=1e-9), anchor=_CutAnchor(problem, exps, _optimal_cuts(g))), exps


def solve_lasserre_maxcut(g: RegularGraph, opts: SolveOptions | None = None):
    """Vector relaxation over {v_S : |S| <= 2} with consistent inner products,
    anchored on the optimal cuts (see the module docstring).

    Returns the value, the Gram matrix, its row sets and the solution, whose
    ``bound`` is the weak-duality bound of its dual point and whose
    ``witnesses`` counts the optimal cuts of a certified stop (0 for the
    loop's own point).
    """
    sol, _ = _solve_anchored(g, lambda n: _rows(_cut_sets(n), n), "vector relaxation", opts)
    return sol.primal_obj, sol.X[0], _cut_sets(g.n), sol


def solve_sos_maxcut(g: RegularGraph, opts: SolveOptions | None = None):
    """Level-4 moment relaxation over the ideal <x_i^2 - 1>: moment-matrix
    positions are classed by the multilinear reduction of their monomial.
    The solve is anchored on the optimal cuts (see the module docstring).

    Returns the value, the pseudo-expectation and the solution, whose
    ``bound`` is the weak-duality bound of its dual point and whose
    ``witnesses`` counts the optimal cuts of a certified stop (0 for the
    loop's own point).
    """
    sol, exps = _solve_anchored(g, lambda n: np.array(monomial_basis(n, 2)).reshape(-1, n), "moment relaxation", opts)
    return sol.primal_obj, _pseudo_expectation(sol.X[0], exps)[0], sol


def lasserre_to_pe(y: np.ndarray, sets, n: int) -> tuple[PseudoExpectation, float]:
    """Read a level-4 functional off the Gram matrix, each moment from the
    symmetric-difference class of its multilinear reduction; also report the
    largest spread within a class, which a consistent Gram matrix keeps at 0."""
    return _pseudo_expectation(y, _rows(sets, n))


def pe_to_lasserre(pe: PseudoExpectation):
    """The Gram matrix over multilinear sets of size <= 2 that the moments
    determine: one moment per symmetric-difference class."""
    sets = _cut_sets(pe.n)
    classes, i, j, keys = _classes(_rows(sets, pe.n))
    y = np.empty((len(sets), len(sets)))
    y[i, j] = y[j, i] = np.array([pe.moments[key] for key in keys])[classes.labels]
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
    lasserre_iterations: int
    sos_iterations: int
    lasserre_witnesses: int
    sos_witnesses: int


def lasserre_roundtrip(g: RegularGraph, opts: SolveOptions | None = None) -> RoundtripReport:
    """Solve both relaxations independently and convert each optimum across;
    each converted objective is <C, Y> of the vector program's objective."""
    lass_val, y, sets, lass_sol = solve_lasserre_maxcut(g, opts)
    sos_val, pe, sos_sol = solve_sos_maxcut(g, opts)
    C = _cut_matrix(g, _rows(sets, g.n))
    pe_from_lass, spread = lasserre_to_pe(y, sets, g.n)
    y_from_pe, _ = pe_to_lasserre(pe)
    return RoundtripReport(
        lasserre_value=lass_val,
        sos_value=sos_val,
        lasserre_bound=lass_sol.bound,
        sos_bound=sos_sol.bound,
        value_gap=abs(lass_val - sos_val),
        max_moment_discrepancy=spread,
        lasserre_converted_objective=float(np.vdot(C, pe_to_lasserre(pe_from_lass)[0])),
        sos_converted_objective=float(np.vdot(C, y_from_pe)),
        converted_pe_valid=validate_pef(pe_from_lass, tol=1e-6).passed,
        converted_gram_min_eig=float(np.linalg.eigvalsh(y_from_pe)[0]),
        lasserre_status=lass_sol.status,
        sos_status=sos_sol.status,
        lasserre_iterations=lass_sol.iterations,
        sos_iterations=sos_sol.iterations,
        lasserre_witnesses=lass_sol.witnesses,
        sos_witnesses=sos_sol.witnesses,
    )
