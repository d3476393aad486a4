"""Self-contained solver for semidefinite programs

    maximize <C, X>  subject to  X in an affine set,  X >= 0 (block diagonal),

that returns, with every solution, an upper bound valid for every feasible X:
weak duality plus an eigenvalue shift of the dual slack.  The blocks may be
real symmetric or, as in a DPS program with a complex input, complex
Hermitian; every inner product and norm is the real Frobenius product
Re <A, B>, so <C, X> is real and the PSD cone is the Hermitian one.

Two problem types state the affine set.  :class:`MomentProgram` states
moment matrices: each block of X is constant on classes of positions, a class
may span blocks, and a few rows hold on the class values; it is projected by
weighted class means and one Cholesky-factored correction.  Its special case
:class:`SdpProblem` takes linear rows ``<A_i, X> = b_i`` on entries, every
upper-triangle position its own class.  The private ``dps._LinkedBlocks``
ties the partial transposes of a DPS program's main block to its other
blocks.  :func:`solve_sdp` reads a problem only through ``blocks`` (the block
sizes), ``C`` (the objective blocks), ``b`` (the right-hand sides, paired with
the dual vector y), ``project`` (the orthogonal projection onto the affine
set, with its multiplier), ``dual_slack`` (the solver's slack moved onto the
dual affine set) and ``trace_bound`` (an a-priori bound on tr X over the
feasible set, stated where the program is built).  It runs one
Douglas-Rachford (ADMM) loop on any of them, alternating the projection with
a rank-aware projection onto the PSD cone under an adaptive penalty: near an
optimum a tight moment relaxation is close to rank one, while the blocks of a
DPS program are often of full rank.  ``project`` returns self-adjoint
blocks (a :class:`MomentProgram` exactly so), which the PSD step takes as
they are; the loop updates its iterates in place in buffers allocated once
per solve.  It is fully deterministic: the same problem and options produce
bitwise-identical iterates.

A caller may pass an anchor hook, which proposes a primal-dual pair built
from the loop's point at iterations ``ANCHOR_AT`` without changing the loop;
the solver judges the pair with the same weak-duality bound and residuals as
its own point, and stops on it only if it passes the same test.  Without a
hook the loop is unchanged.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .linalg import SELF_ADJOINT_TOL, _check_self_adjoint, _psd_project

__all__ = ["SdpProblem", "MomentProgram", "SdpSolution", "SolveOptions", "solve_sdp"]

ADAPT_EVERY = 100      # iterations between penalty updates
DEPENDENT = 1e-12      # squared pivot over squared norm of a dependent row
# iterations at which an anchor hook is tried: 10, 30, 100, 300, ..., so that
# its attempts cost a small share of the loop's iterations
ANCHOR_AT = frozenset(k * 10**e for e in range(1, 8) for k in (1, 3))
# the residuals that decide whether a stop is optimal
GATED = ("primal_infeas", "dual_infeas", "gap")


@dataclass
class SolveOptions:
    tol: float = 1e-7
    max_iter: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


class MomentProgram:
    """Block-diagonal matrices X_b = ss_b * M_b, ss_b = s_b s_b^T, with the
    M_b constant on classes of positions.

    ``blocks`` lists the block sizes, ``C`` the objective blocks and ``scale``
    the positive vectors s_b (all ones by default); a single size, matrix and
    vector state one block.  ``labels`` gives the class index of every
    upper-triangle position, block after block, each block's positions in
    row-major order (``np.triu_indices``); the classes are numbered from 0,
    each holds at least one position, and a class may span blocks.  Row r of
    ``R`` holds the coefficients of a linear equation on the class values,
    with right-hand side b[r].  ``keys`` names the classes for :meth:`values`
    (their indices by default); :meth:`from_classes` states the classes and
    rows by key instead.  A row that depends on earlier rows is dropped with a
    warning if its b agrees and rejected otherwise; ``m`` counts the rows kept
    and ``svec_dim`` the classes.  ``trace_bound`` bounds tr X over the
    feasible set.
    """

    def __init__(self, blocks, labels, C, R, b, *, trace_bound, scale=None, keys=None):
        one = np.ndim(blocks) == 0
        if one:
            blocks, C, scale = [blocks], [C], [scale]
        self.blocks = [int(n) for n in blocks]
        self.C = [np.asarray(c, dtype=float) for c in C]
        R, b = np.array(R, dtype=float, ndmin=2), np.asarray(b, dtype=float)
        self.trace_bound = float(trace_bound)
        scale = [None] * len(self.blocks) if scale is None else scale
        if not self.blocks or min(self.blocks) < 1:
            raise ValueError("block sizes must be positive")
        if not (len(self.C) == len(scale) == len(self.blocks) and len(R) == len(b) > 0):
            raise ValueError("need one objective block and scale per block, and one b per row")
        if not (all(np.isfinite(c).all() for c in self.C) and np.isfinite(b).all()):
            raise ValueError("objective blocks and right-hand sides must be finite")
        if not (math.isfinite(self.trace_bound) and self.trace_bound > 0):
            raise ValueError(f"trace bound must be positive and finite, got {trace_bound}")
        ss = []
        for n, c, s in zip(self.blocks, self.C, scale):
            if c.shape != (n, n) or not np.allclose(c, c.T, atol=1e-12 * max(1.0, np.abs(c).max())):
                raise ValueError(f"objective blocks must be symmetric and {n} x {n}")
            s = np.ones(n) if s is None else np.asarray(s, dtype=float)
            if s.shape != (n,) or not (np.isfinite(s).all() and (s > 0).all()):
                raise ValueError(f"scale must be {n} finite positive numbers")
            ss.append(np.outer(s, s).ravel())
        self._ss = np.concatenate(ss)
        self._ends = np.cumsum([n * n for n in self.blocks])
        self.keys = list(range(R.shape[1])) if keys is None else list(keys)
        self._labels = self._label(np.asarray(labels), R.shape[1])
        if len(self.keys) != R.shape[1]:
            raise ValueError("need one key per class")
        # <E_c, E_c> for the scaled class direction E_c = ss * [class c]
        self._weights = self._sums(self._ss * self._ss)
        self._first = np.unique(self._labels, return_index=True)[1]
        gram = (R / self._weights) @ R.T
        potrf, self._potrs = sla.get_lapack_funcs(("potrf", "potrs"), (gram,))
        # the upper Cholesky factor of the Gram matrix of the rows kept
        self._chol, info = potrf(gram)
        if info or (np.diag(self._chol) ** 2 <= DEPENDENT * np.diag(gram)).any():
            keep, self._chol = _independent_rows(gram, b)
            R, b = R[keep], b[keep]
        self.R, self.b, self.m, self.svec_dim = R, b, len(b), len(self.keys)

    @classmethod
    def from_classes(cls, blocks, classes, C, rows, b, *, trace_bound, scale=None):
        """The program whose ``classes`` map each key to the upper-triangle
        positions ``(block, i, j)`` of one class, or ``(i, j)`` for one block,
        every position in exactly one class, and whose ``rows`` are dicts from
        class key to coefficient."""
        sizes = [int(blocks)] if np.ndim(blocks) == 0 else [int(n) for n in blocks]
        keys = list(classes)
        col = {key: k for k, key in enumerate(keys)}
        R = np.zeros((len(rows), len(keys)))
        for r, row in enumerate(rows):
            for key, c in row.items():
                if key not in col:
                    raise ValueError(f"row {r} names {key!r}, which is not a class")
                R[r, col[key]] += c
        counts = [len(pos) for pos in classes.values()]
        width = 2 if np.ndim(blocks) == 0 else 3
        pos = np.array(list(itertools.chain.from_iterable(classes.values())), dtype=np.intp).reshape(-1, width)
        blk, i, j = (0 * pos[:, 0], *pos.T) if width == 2 else pos.T
        i, j = np.minimum(i, j), np.maximum(i, j)
        # a block past the end of the list has size 0, so it holds no position
        n = np.array(sizes + [0])[np.minimum(blk, len(sizes))]
        if (pos < 0).any() or (j >= n).any():
            raise ValueError("a class names a position outside the blocks")
        tri = np.array([n * (n + 1) // 2 for n in sizes])
        # the row-major index of (i, j) among the upper-triangle positions
        at = (np.cumsum(tri) - tri)[blk] + i * n - i * (i - 1) // 2 + j - i
        labels = np.full(tri.sum(), -1)
        labels[at] = np.repeat(np.arange(len(keys)), counts)
        if len(pos) != len(labels) or (labels < 0).any():
            raise ValueError("classes must cover every upper-triangle position exactly once")
        return cls(blocks, labels, C, R, b, trace_bound=trace_bound, scale=scale, keys=keys)

    def _label(self, tri, count):
        """Each position's class index, over the blocks raveled end to end,
        from the classes of the upper-triangle positions."""
        if tri.shape != (sum(n * (n + 1) // 2 for n in self.blocks),) or tri.dtype.kind not in "iu":
            raise ValueError("need one integer class index per upper-triangle position")
        if tri.min() < 0 or tri.max() >= count or (np.bincount(tri, minlength=count) == 0).any():
            raise ValueError(f"class indices must run over 0..{count - 1}, each holding a position")
        labels, start = np.empty(self._ends[-1], dtype=np.intp), 0
        for n, end in zip(self.blocks, self._ends):
            block = labels[end - n * n:end].reshape(n, n)
            i, j = np.triu_indices(n)
            block[i, j] = block[j, i] = tri[start:start + len(i)]
            start += len(i)
        return labels

    def _sums(self, flat: np.ndarray) -> np.ndarray:
        return np.bincount(self._labels, weights=flat, minlength=len(self.keys))

    def _split(self, flat: np.ndarray) -> list:
        """The blocks of a vector raveled like :meth:`_label`'s labels."""
        if len(self.blocks) == 1:
            return [flat.reshape(self.blocks[0], -1)]
        return [x.reshape(n, n) for x, n in zip(np.split(flat, self._ends[:-1]), self.blocks)]

    def class_sums(self, *mats) -> np.ndarray:
        """The sum of the blocks ``mats`` over each class's positions, in key order."""
        return self._sums(_ravel(mats))

    def class_values(self, *X) -> np.ndarray:
        """The class values of M for the blocks X of the program's form, in class order."""
        return (_ravel(X) / self._ss)[self._first]

    def values(self, *X) -> dict:
        """The class values of M for the blocks X of the program's form, by key."""
        return dict(zip(self.keys, self.class_values(*X).tolist()))

    def project(self, V):
        """Orthogonal projection of V onto the blocks ``ss * m[labels]`` whose
        class values m satisfy ``R m = b``, as ``(X, w)``: the least-squares
        class values minus the correction ``R^T w``.  The blocks are exactly
        symmetric, since the labels and ss are."""
        m = self._sums(self._ss * _ravel(V))
        m /= self._weights
        w, info = self._potrs(self._chol, self.R @ m - self.b, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        fix = self.R.T @ w
        fix /= self._weights
        m -= fix
        x = m.take(self._labels)
        x *= self._ss
        return self._split(x), w

    def null_part(self, v: np.ndarray) -> np.ndarray:
        """v (blocks raveled end to end) minus its orthogonal projection onto
        the scaled class directions E_c: the part whose scaled class sums
        vanish, so adding it to a dual slack keeps it on the dual affine set."""
        return v - self._ss * (self._sums(self._ss * v) / self._weights)[self._labels]

    def class_projector(self):
        """The orthogonal projection onto the span of the scaled class
        directions E_c, which :meth:`null_part` subtracts, as a sparse matrix
        over the positions of the blocks raveled end to end: the entries
        ``(p, q, ss_p ss_q / <E_c, E_c>)`` for every ordered pair of positions
        p, q of one class c."""
        order = np.argsort(self._labels, kind="stable")
        sizes = np.bincount(self._labels)
        label = self._labels[order]
        reps = sizes[label]
        p = np.repeat(order, reps)
        # the k-th partner of a position is the k-th position of its class
        k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        q = order[np.repeat(np.cumsum(sizes)[label] - sizes[label], reps) + k]
        return p, q, self._ss[p] * self._ss[q] / self._weights[self._labels[p]]

    def dual_slack(self, sol):
        """The solver's slack S moved onto the dual affine set: dual
        feasibility asks only that ``<C + S, E_c>`` equal ``(R^T y)_c`` for
        every class, so S absorbs the difference along the E_c."""
        S = _ravel(sol.S)
        fix = (self.R.T @ sol.y - self._sums(self._ss * (_ravel(self.C) + S))) / self._weights
        return self._split(S + self._ss * fix[self._labels])


def _ravel(mats) -> np.ndarray:
    return mats[0].ravel() if len(mats) == 1 else np.concatenate([m.ravel() for m in mats])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The real Frobenius product Re <a, b>; on real vectors it equals a @ b bit for bit."""
    return float(np.vdot(a, b).real)


def _independent_rows(gram: np.ndarray, b: np.ndarray):
    """The rows, in order, that do not depend on earlier rows, and the upper
    Cholesky factor of their Gram matrix, from the Gram matrix of all rows:
    row k depends on earlier rows when its squared pivot in that factor would
    be at most ``DEPENDENT * gram[k, k]``."""
    U = np.zeros_like(gram)   # upper Cholesky factor of the kept rows' Gram matrix
    keep = []
    for k in range(len(b)):
        n = len(keep)
        x = sla.solve_triangular(U[:n, :n], gram[keep, k], trans="T")
        pivot = gram[k, k] - x @ x
        if pivot > DEPENDENT * gram[k, k]:
            U[:n, n], U[n, n] = x, math.sqrt(pivot)
            keep.append(k)
            continue
        a = sla.solve_triangular(U[:n, :n], x)   # row k = sum_i a_i (row keep[i])
        if abs(b[k] - a @ b[keep]) > 1e-9 * max(1.0, abs(b[k]), np.abs(a) @ np.abs(b[keep])):
            raise ValueError(f"row {k} depends on earlier rows, but not its right-hand side")
        warnings.warn(f"dropping row {k}, a duplicate or combination of earlier rows")
    if not keep:
        raise ValueError("every row is identically zero")
    return keep, np.asfortranarray(U[:len(keep), :len(keep)])


class SdpProblem(MomentProgram):
    """Block-diagonal standard-form SDP: the :class:`MomentProgram` with every
    upper-triangle position its own class, keyed ``(block, i, j)``, i <= j.

    Each constraint is a list of ``(block, i, j, c)`` entries, each adding
    ``c * X[i, j]`` of that block to the constraint functional, with the
    scalar b.  Entries at ``(i, j)`` and ``(j, i)`` both count, so a symmetric
    A enters as ``A[i, i]`` and as ``2 * A[i, j]`` once per pair ``i < j``.
    Rows in general form imply no ``trace_bound``, so the caller states it.
    """

    def __init__(self, blocks, C, constraints, b, *, trace_bound):
        blocks = [int(n) for n in blocks]
        keys = [(k, i, j) for k, n in enumerate(blocks) for i in range(n) for j in range(i, n)]
        col = {key: t for t, key in enumerate(keys)}
        R = np.zeros((len(constraints), len(keys)))
        for r, entries in enumerate(constraints):
            for blk, i, j, c in entries:
                key = (blk, min(i, j), max(i, j))
                if key not in col:
                    raise ValueError(f"row {r} names {key!r}, which is not a class")
                R[r, col[key]] += c
        super().__init__(blocks, np.arange(len(keys)), C, R, b, trace_bound=trace_bound, keys=keys)


@dataclass
class SdpSolution:
    """The solver's primal point and dual point: its last iterate, or an
    anchor hook's pair (``witnesses`` > 0, the number of witnesses the hook
    used).  ``bound`` is ``b^T y + trace_bound * slack_shift`` with
    ``slack_shift`` = ``max(0, -lambda_min(dual_slack))``: every feasible X has
    ``<C, X> = b^T y - <S, X> <= bound`` whether or not the solver converged."""

    X: list
    y: np.ndarray
    S: list
    primal_obj: float
    dual_obj: float
    residuals: dict
    status: str
    iterations: int
    slack_shift: float
    bound: float
    witnesses: int = 0


def solve_sdp(problem, opts: SolveOptions | None = None, anchor=None) -> SdpSolution:
    """Douglas-Rachford splitting between ``problem.project`` and the PSD
    cone, for a :class:`MomentProgram` (an :class:`SdpProblem` included) or any
    problem with the attributes that the module docstring lists.

    X is the affine iterate, Z its PSD partner and U the scaled multiplier of
    X = Z; the penalty rho moves by factors of two every ``ADAPT_EVERY``
    iterations to balance the primal and dual residuals.  Z is the PSD part of
    X + U.  While the last iteration's positive count of a block is small,
    only its positive eigenpairs are computed; while that count is close to
    the block size, only its negative ones.
    ``project`` must return self-adjoint blocks of C's dtype; the blocks of
    the first projection are checked (ValueError otherwise), and the PSD
    steps then take them as they are, so only a block that is exactly
    self-adjoint gives the iterates of a symmetrized one bit for bit.  The
    loop keeps its iterates in flat buffers allocated once and updated in
    place; ``project`` is handed views of one of them, which the next
    iteration overwrites, so it must not keep them.
    Residuals in the result are recomputed from the returned point, and the
    result carries ``bound`` and ``slack_shift`` (see :class:`SdpSolution`),
    an upper bound on every feasible objective value whatever the status.

    ``anchor``, optional, is called at the iterations in ``ANCHOR_AT`` with an
    :class:`SdpSolution` holding the loop's X, y and S (S as in the result;
    its objective values, residuals and bound are not set).  It returns
    ``(X, y, S, count)``: primal blocks in the affine set, a dual point and
    the count to report as ``witnesses``.  The loop's own state is not
    touched.  That pair's bound and residuals are computed as for the loop's
    point, and the solve stops on it when the primal and dual infeasibility
    and the gap are all within ``tol``; otherwise the attempt is dropped and
    the loop goes on.

    The status is ``"optimal"`` when the returned pair is primal- and
    dual-feasible with a gap within tol, from either source: an anchored
    pair whose recomputed residuals are within ``tol``, or the loop's point
    when the loop met ``tol`` and its recomputed residuals are within
    10 * tol.  It is ``"inaccurate"`` when the loop met ``tol`` but those
    are not, ``"max-iter"`` when ``max_iter`` iterations ran out and
    ``"infeasible-suspected"`` when an iterate's norm passed 1e12.
    """
    opts = opts or SolveOptions()
    P = problem
    # every iterate lives on the blocks raveled end to end; a block is a view
    ends = list(itertools.accumulate(n * n for n in P.blocks))
    spans = [(e - n * n, e, (n, n)) for e, n in zip(ends, P.blocks)]

    def split(flat: np.ndarray) -> list:
        return [flat[a:e].reshape(shape) for a, e, shape in spans]

    c_in = _ravel(P.C)   # a view of the caller's C when there is one block
    norm_c = math.sqrt(_dot(c_in, c_in))
    scale = max(1.0, norm_c)
    c = c_in / scale
    # on real vectors np.dot equals _dot bit for bit, without the conversions
    dot = _dot if np.iscomplexobj(c) else np.dot
    rho = 1.0
    c_rho = c   # C / rho, rebuilt only when rho changes
    z, z_old = np.zeros_like(c), np.empty_like(c)
    u = np.zeros_like(c)
    # buffers updated in place: t = Z - U + C/rho enters the projection,
    # v = X + U the PSD step, z and z_old swap at each PSD step, which writes
    # each block of Z into its view, and r holds X - Z and then Z - Z_old
    t, v, r = np.empty_like(c), np.empty_like(c), np.empty_like(c)
    t_blocks, v_blocks = split(t), split(v)
    z_blocks, z_old_blocks = split(z), split(z_old)
    ranks = [None] * len(P.blocks)   # each block's positive count at the last PSD step
    status = "max-iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        np.subtract(z, u, out=t)
        np.add(t, c_rho, out=t)
        X, w = P.project(t_blocks)
        y = rho * w
        x = _ravel(X)
        nx = math.sqrt(dot(x, x))
        if not nx <= 1e12:
            status = "infeasible-suspected"
            break
        if it == 1:
            # a problem's projection returns self-adjoint blocks; the PSD
            # step takes that on trust after this check and reads one
            # triangle, so the rounding of a block that is self-adjoint only
            # within tolerance changes the iterates by as much
            for xb in X:
                _check_self_adjoint(xb, SELF_ADJOINT_TOL)
        z, z_old, z_blocks, z_old_blocks = z_old, z, z_old_blocks, z_blocks
        np.add(x, u, out=v)
        ranks = [_psd_project(vb, k, out=zb)[1] for vb, k, zb in zip(v_blocks, ranks, z_blocks)]
        np.subtract(v, z, out=u)
        if not rho * math.sqrt(dot(u, u)) <= 1e12:
            status = "infeasible-suspected"
            break
        # S - dual_slack = rho * scale * (Z - Z_old) when every position is its
        # own class (coarser classes move S less), so rd bounds the dual
        # infeasibility the result reports
        np.subtract(x, z, out=r)
        rp = math.sqrt(dot(r, r)) / (1.0 + nx)
        np.subtract(z, z_old, out=r)
        rd = rho * scale * math.sqrt(dot(r, r)) / (1.0 + norm_c)
        pobj, dobj = scale * dot(c, x), scale * float(P.b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if max(rp, rd, gap) <= opts.tol:
            status = "optimal"
            break
        if anchor is not None and it in ANCHOR_AT:
            X_a, y_a, S_a, count = anchor(SdpSolution(X, y * scale, split(-(rho * scale) * u), math.nan,
                                                      math.nan, {}, status, it, math.nan, math.nan))
            sol = _solution(P, X_a, y_a, S_a, "optimal", it)
            if max(sol.residuals[k] for k in GATED) <= opts.tol:
                sol.witnesses = count
                return sol
        if it % ADAPT_EVERY == 0 and (rp > 10.0 * rd or rd > 10.0 * rp):
            new = min(rho * 2.0, 1e6) if rp > rd else max(rho / 2.0, 1e-6)
            u *= rho / new
            rho = new
            c_rho = c / rho

    # the multiplier of X = Z is rho * U; C was divided by scale
    sol = _solution(P, X, y * scale, split(-(rho * scale) * u), status, it)
    if status == "optimal" and max(sol.residuals[k] for k in GATED) > 10 * opts.tol:
        sol.status = "inaccurate"
    return sol


def _solution(P, X, y, S, status, it) -> SdpSolution:
    """The result for the primal blocks X and the dual point (y, S): the
    weak-duality bound of (y, S) and the residuals of the pair."""
    c_in, x = _ravel(P.C), _ravel(X)
    nx, norm_c = math.sqrt(_dot(x, x)), math.sqrt(_dot(c_in, c_in))
    sol = SdpSolution(X, y, S, _dot(c_in, x), float(P.b @ y), {}, status, it, math.nan, math.nan)
    slack = P.dual_slack(sol)
    lam = min(float(np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0]) for s in slack)
    sol.slack_shift = max(0.0, -lam)
    sol.bound = sol.dual_obj + P.trace_bound * sol.slack_shift
    # X satisfies the affine constraints by construction; its primal
    # infeasibility is its distance to the PSD cone (nan for a non-finite X,
    # which stopped the loop as infeasible-suspected)
    eigs = [np.linalg.eigvalsh(xb) if np.isfinite(xb).all() else np.full(len(xb), math.nan)
            for xb in X]
    rp = math.sqrt(sum(float(np.sum(np.minimum(e, 0.0) ** 2)) for e in eigs)) / (1.0 + nx)
    d = _ravel(S) - _ravel(slack)
    rd = math.sqrt(_dot(d, d)) / (1.0 + norm_c)
    gap = abs(sol.primal_obj - sol.dual_obj) / (1.0 + abs(sol.primal_obj) + abs(sol.dual_obj))
    sol.residuals = {"primal_infeas": rp, "dual_infeas": rd, "gap": gap,
                     "min_eig": min(float(e[0]) for e in eigs)}
    return sol
