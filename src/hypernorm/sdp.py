"""Self-contained solver for semidefinite programs

    maximize <C, X>  subject to  X in an affine set,  X >= 0 (block diagonal),

that returns, with every solution, an upper bound valid for every feasible X:
weak duality plus an eigenvalue shift of the dual slack.

Three problem types state the affine set.  :class:`SdpProblem` lists linear
rows ``<A_i, X> = b_i``.  :class:`MomentProgram` states a moment matrix: X is
constant on each class of positions, and a few rows hold on the class values.
The private ``dps._LinkedBlocks`` ties the partial transposes of a DPS
program's main block to its other blocks.  :func:`solve_sdp` reads a problem
only through ``blocks`` (the block sizes), ``C`` (the objective blocks), ``b``
(the right-hand sides, paired with the dual vector y), ``project`` (the
orthogonal projection onto the affine set, with its multiplier), ``dual_slack``
(the solver's slack moved onto the dual affine set) and ``trace_bound`` (an
a-priori bound on tr X over the feasible set, stated where the program is
built).  It runs one Douglas-Rachford (ADMM) loop on any of them,
alternating the projection with the projection onto the PSD cone under an
adaptive penalty.  The PSD step passes each block's positive count from the
previous iteration to :func:`~hypernorm.linalg.psd_project`, which computes
only the positive eigenpairs while that count is small and only the negative
ones while it is close to the block size: near an optimum a tight moment
relaxation is close to rank one, while the blocks of a DPS program are often
of full rank.  The loop is fully deterministic: the same problem and options
produce bitwise-identical iterates.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import psd_project

__all__ = ["SdpProblem", "MomentProgram", "SdpSolution", "SolveOptions", "solve_sdp"]

ADAPT_EVERY = 100      # iterations between penalty updates


@dataclass
class SolveOptions:
    tol: float = 1e-7
    max_iter: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


def _check_objective(blocks, C, b, trace_bound):
    """C and b as float arrays and the trace bound as a float, once C is
    symmetric of the block shapes and all three are finite."""
    C = [np.asarray(Cb, dtype=float) for Cb in C]
    b = np.asarray(b, dtype=float)
    if not (all(np.isfinite(Cb).all() for Cb in C) and np.isfinite(b).all()):
        raise ValueError("objective blocks and right-hand sides must be finite")
    for s, Cb in zip(blocks, C):
        if Cb.shape != (s, s):
            raise ValueError("objective block shape mismatch")
        if not np.allclose(Cb, Cb.T, atol=1e-12 * max(1.0, np.abs(Cb).max())):
            raise ValueError("objective blocks must be symmetric")
    trace_bound = float(trace_bound)
    if not (math.isfinite(trace_bound) and trace_bound > 0):
        raise ValueError(f"trace bound must be positive and finite, got {trace_bound}")
    return C, b, trace_bound


class SdpProblem:
    """Block-diagonal standard-form SDP.

    Constraints are supplied as entry lists: each constraint is a list of
    ``(block, i, j, c)`` tuples, each adding ``c * X[i, j]`` to the
    constraint functional of that block, together with the scalar b.  Entries
    at ``(i, j)`` and ``(j, i)`` both count, so a symmetric matrix A enters as
    ``A[i, i]`` on the diagonal and ``2 * A[i, j]`` once per pair ``i < j``.
    ``trace_bound`` bounds tr X over the feasible set; rows in general
    form do not imply one, so the caller states it.
    """

    def __init__(self, blocks, C, constraints, b, *, trace_bound):
        self.blocks = [int(s) for s in blocks]
        if any(s < 1 for s in self.blocks):
            raise ValueError("block sizes must be positive")
        if len(constraints) != len(b) or len(constraints) == 0:
            raise ValueError("need at least one constraint with matching b")
        self.C, self.b, self.trace_bound = _check_objective(self.blocks, C, b, trace_bound)

        # svec layout: per block, diagonal then strict upper triangle (row-major),
        # off-diagonal coordinates scaled by sqrt(2) so <A, X> is a dot product.
        self._offsets = []
        off = 0
        self._triu = []
        for s in self.blocks:
            iu = np.triu_indices(s)
            self._triu.append(iu)
            self._offsets.append(off)
            off += s * (s + 1) // 2
        self.svec_dim = off

        rows, cols, vals = [], [], []
        seen = {}
        keep = []
        for k, entries in enumerate(constraints):
            coords = {}
            for blk, i, j, c in entries:
                s = self.blocks[blk]
                if not (0 <= i < s and 0 <= j < s):
                    raise ValueError(f"entry ({i},{j}) out of range for block {blk} of size {s}")
                p = self._svec_index(blk, i, j)
                # X[i, j] is the svec coordinate over sqrt(2) off the diagonal
                w = 1.0 if i == j else np.sqrt(2.0) / 2.0
                coords[p] = coords.get(p, 0.0) + float(c) * w
            coords = {p: v for p, v in coords.items() if v != 0.0}
            if not coords:
                raise ValueError(f"constraint {k} is identically zero")
            sig = tuple(sorted(coords.items()))
            if sig in seen:
                prev = seen[sig]
                if abs(self.b[k] - self.b[prev]) > 1e-12:
                    raise ValueError(f"constraints {prev} and {k} are identical with different b")
                warnings.warn(f"dropping duplicate constraint row {k}")
                continue
            seen[sig] = k
            keep.append(k)
            r = len(keep) - 1
            for p, v in coords.items():
                rows.append(r)
                cols.append(p)
                vals.append(v)
        self.b = self.b[keep]
        self.m = len(keep)
        self.A = sp.csr_matrix((vals, (rows, cols)), shape=(self.m, self.svec_dim))

    def _svec_index(self, blk, i, j):
        s = self.blocks[blk]
        if i > j:
            i, j = j, i
        # position of (i, j) in row-major upper triangle of an s x s matrix
        return self._offsets[blk] + i * s - i * (i - 1) // 2 + (j - i)

    def svec(self, mats) -> np.ndarray:
        out = np.empty(self.svec_dim)
        for blk, m in enumerate(mats):
            iu = self._triu[blk]
            v = m[iu].copy()
            v[iu[0] != iu[1]] *= np.sqrt(2.0)
            s0 = self._offsets[blk]
            out[s0 : s0 + v.size] = v
        return out

    def smat(self, v: np.ndarray):
        mats = []
        for blk, s in enumerate(self.blocks):
            iu = self._triu[blk]
            s0 = self._offsets[blk]
            seg = v[s0 : s0 + s * (s + 1) // 2].copy()
            seg[iu[0] != iu[1]] /= np.sqrt(2.0)
            m = np.zeros((s, s))
            m[iu] = seg
            m = m + m.T - np.diag(np.diag(m))
            mats.append(m)
        return mats

    def operator(self, y: np.ndarray):
        """The symmetric matrices of sum_i y_i A_i, per block."""
        return self.smat(self.A.T @ y)

    def constraint_values(self, X) -> np.ndarray:
        return self.A @ self.svec(X)

    @functools.cached_property
    def _solve_normal(self):
        """A solver for the constraint Gram matrix A A^T."""
        AAt = (self.A @ self.A.T).tocsc()
        try:
            lu = spla.splu(AAt)
            probe = np.ones(self.m)
            if np.linalg.norm(AAt @ lu.solve(probe) - probe) <= 1e-6 * np.sqrt(self.m):
                return lu.solve
        except RuntimeError:
            pass
        # dependent constraint rows survived presolve; fall back to the
        # minimum-norm solve, which projects onto the row space and keeps the
        # iteration valid for consistent systems
        warnings.warn("constraint Gram matrix is rank deficient; using pseudo-inverse solves")
        pinv = np.linalg.pinv(AAt.toarray(), rcond=1e-12)
        return lambda r: pinv @ r

    def project(self, V):
        """Orthogonal projection of V onto the rows' affine set, as
        ``(X, w)`` with ``X = V - sum_i w_i A_i``."""
        v = self.svec(V)
        w = self._solve_normal(self.A @ v - self.b)
        return self.smat(v - self.A.T @ w), w

    def dual_slack(self, sol):
        """``sum_i y_i A_i - C`` per block: dual-feasible once it is PSD."""
        return [Ab - Cb for Ab, Cb in zip(self.operator(sol.y), self.C)]


class MomentProgram:
    """A one-block program over matrices X = ss * M, ss = s s^T, with M
    constant on classes of positions.

    ``classes`` maps each key to the upper-triangle positions ``(i, j)`` of
    one class, and every position of the ``size x size`` matrix lies in
    exactly one class.  ``rows`` are linear equations on the class values,
    each a dict from class key to coefficient, with right-hand sides ``b``.
    ``scale`` is the positive vector s (all ones by default), and
    ``trace_bound`` bounds tr X over the feasible set.
    """

    def __init__(self, size, classes, C, rows, b, *, trace_bound, scale=None):
        size = int(size)
        self.blocks = [size]
        if len(rows) != len(b) or len(rows) == 0:
            raise ValueError("need at least one row with matching b")
        self.C, self.b, self.trace_bound = _check_objective(self.blocks, [C], b, trace_bound)
        s = np.ones(size) if scale is None else np.asarray(scale, dtype=float)
        if s.shape != (size,) or not (np.isfinite(s).all() and (s > 0).all()):
            raise ValueError(f"scale must be {size} finite positive numbers")
        self._ss = np.outer(s, s)
        self.keys = list(classes)
        labels = np.full((size, size), -1)
        for k, pos in enumerate(classes.values()):
            i, j = np.asarray(pos).T
            labels[i, j] = k
            labels[j, i] = k
        if sum(len(pos) for pos in classes.values()) != size * (size + 1) // 2 or (labels < 0).any():
            raise ValueError("classes must cover every upper-triangle position exactly once")
        self._labels = labels
        # <E_c, E_c> for the scaled class direction E_c = ss * [class c]
        self._weights = self.class_sums(self._ss * self._ss)
        self._first = np.unique(labels, return_index=True)[1]
        col = {key: k for k, key in enumerate(self.keys)}
        self.R = np.zeros((len(rows), len(self.keys)))
        for r, row in enumerate(rows):
            for key, c in row.items():
                self.R[r, col[key]] += c
        self._chol = sla.cho_factor((self.R / self._weights) @ self.R.T)
        self._potrs, = sla.get_lapack_funcs(("potrs",), (self._chol[0],))

    def class_sums(self, M: np.ndarray) -> np.ndarray:
        """The sum of M over each class's positions, in key order."""
        return np.bincount(self._labels.ravel(), weights=M.ravel(), minlength=len(self.keys))

    def values(self, X: np.ndarray) -> dict:
        """The class values of M for an X of the program's form, by key."""
        return dict(zip(self.keys, (X / self._ss).ravel()[self._first].tolist()))

    def project(self, V):
        """Orthogonal projection of V onto the matrices ``ss * m[labels]``
        whose class values m satisfy ``R m = b``, as ``(X, w)``: the
        least-squares class values minus the correction ``R^T w``."""
        mean = self.class_sums(self._ss * V[0]) / self._weights
        c, lower = self._chol
        w, info = self._potrs(c, self.R @ mean - self.b, lower=lower, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        m = mean - (self.R.T @ w) / self._weights
        return [self._ss * m[self._labels]], w

    def dual_slack(self, sol):
        """The solver's slack S moved onto the dual affine set: dual
        feasibility asks only that ``<C + S, E_c>`` equal ``(R^T y)_c`` for
        every class, so S absorbs the difference along the E_c."""
        S = sol.S[0]
        fix = (self.R.T @ sol.y - self.class_sums(self._ss * (self.C[0] + S))) / self._weights
        return [S + self._ss * fix[self._labels]]


@dataclass
class SdpSolution:
    """The solver's last iterate and its dual point.  ``bound`` is
    ``b^T y + trace_bound * slack_shift`` with ``slack_shift`` =
    ``max(0, -lambda_min(dual_slack))``: every feasible X has
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


def _inner(A, B) -> float:
    return float(sum(np.vdot(a, b) for a, b in zip(A, B)))


def _norm(mats) -> float:
    return math.sqrt(_inner(mats, mats))


def solve_sdp(problem, opts: SolveOptions | None = None) -> SdpSolution:
    """Douglas-Rachford splitting between ``problem.project`` and the PSD
    cone, for an :class:`SdpProblem` or a :class:`MomentProgram`.

    X is the affine iterate, Z its PSD partner and U the scaled multiplier of
    X = Z; the penalty rho moves by factors of two every ``ADAPT_EVERY``
    iterations to balance the primal and dual residuals.  Z is the PSD part of
    X + U.  While the last iteration's positive count of a block is small,
    only its positive eigenpairs are computed; while that count is close to
    the block size, only its negative ones.
    Residuals in the result are recomputed from the returned point, and the
    result carries ``bound`` and ``slack_shift`` (see :class:`SdpSolution`),
    an upper bound on every feasible objective value whatever the status.
    """
    opts = opts or SolveOptions()
    P = problem
    norm_c = _norm(P.C)
    scale = max(1.0, norm_c)
    C = [Cb / scale for Cb in P.C]
    rho = 1.0
    C_rho = C   # C / rho, rebuilt only when rho changes
    Z = [np.zeros_like(Cb) for Cb in C]
    U = [np.zeros_like(Cb) for Cb in C]
    ranks = [None] * len(C)   # each block's positive count at the last PSD step
    status = "max-iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        X, w = P.project([z - u + c for z, u, c in zip(Z, U, C_rho)])
        y = rho * w
        nx = _norm(X)
        if not nx <= 1e12:
            status = "infeasible-suspected"
            break
        Z_old = Z
        V = [x + u for x, u in zip(X, U)]
        Z, ranks = zip(*[psd_project(v, k) for v, k in zip(V, ranks)])
        U = [v - z for v, z in zip(V, Z)]
        if not rho * _norm(U) <= 1e12:
            status = "infeasible-suspected"
            break
        # S - dual_slack = rho * scale * (Z - Z_old) for rows (a MomentProgram
        # moves S less), so rd bounds the dual infeasibility the result reports
        rp = _norm([x - z for x, z in zip(X, Z)]) / (1.0 + nx)
        rd = rho * scale * _norm([z - zo for z, zo in zip(Z, Z_old)]) / (1.0 + norm_c)
        pobj, dobj = scale * _inner(C, X), scale * float(P.b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if max(rp, rd, gap) <= opts.tol:
            status = "optimal"
            break
        if it % ADAPT_EVERY == 0 and (rp > 10.0 * rd or rd > 10.0 * rp):
            new = min(rho * 2.0, 1e6) if rp > rd else max(rho / 2.0, 1e-6)
            U = [u * (rho / new) for u in U]
            rho = new
            C_rho = [c / rho for c in C]

    # the multiplier of X = Z is rho * U; C was divided by scale
    y = y * scale
    sol = SdpSolution(X, y, [-(rho * scale) * u for u in U], _inner(P.C, X), float(P.b @ y),
                      {}, status, it, math.nan, math.nan)
    slack = P.dual_slack(sol)
    lam = min(float(np.linalg.eigvalsh((s + s.T) / 2.0)[0]) for s in slack)
    sol.slack_shift = max(0.0, -lam)
    sol.bound = sol.dual_obj + P.trace_bound * sol.slack_shift
    # X satisfies the affine constraints by construction; its primal
    # infeasibility is its distance to the PSD cone
    eigs = [np.linalg.eigvalsh(x) for x in X]
    rp = math.sqrt(sum(float(np.sum(np.minimum(e, 0.0) ** 2)) for e in eigs)) / (1.0 + _norm(X))
    rd = _norm([s - t for s, t in zip(sol.S, slack)]) / (1.0 + norm_c)
    gap = abs(sol.primal_obj - sol.dual_obj) / (1.0 + abs(sol.primal_obj) + abs(sol.dual_obj))
    sol.residuals = {"primal_infeas": rp, "dual_infeas": rd, "gap": gap,
                     "min_eig": min(float(e[0]) for e in eigs)}
    if status == "optimal" and max(rp, rd, gap) > 10 * opts.tol:
        sol.status = "max-iter"
    return sol
