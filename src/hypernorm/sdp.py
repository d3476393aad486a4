"""Self-contained solver for standard-form semidefinite programs

    maximize <C, X>  subject to  <A_i, X> = b_i,  X >= 0 (block diagonal),

plus rigorous post-processing that turns any dual vector into a certified
upper bound via weak duality and an eigenvalue shift.

The solver is a two-block ADMM (alternating projections onto the affine
constraint set and the PSD cone) with over-relaxation, a diagonal scaling
pass, and an adaptive penalty parameter.  It is fully deterministic: the same
problem and options produce bitwise-identical iterates.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SdpProblem", "SdpSolution", "DualCertificate", "SolveOptions", "solve_sdp",
           "certified_upper_bound", "equality_rows"]


@dataclass
class SolveOptions:
    tol: float = 1e-7
    max_iter: int = 200_000
    rho: float = 1.6          # over-relaxation on the multiplier step
    mu: float = 1.0           # initial penalty
    adapt_every: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.adapt_every < 1:
            raise ValueError(f"adapt_every must be at least 1, got {self.adapt_every}")


class SdpProblem:
    """Block-diagonal standard-form SDP.

    Constraints are supplied as entry lists: each constraint is a list of
    ``(block, i, j, c)`` tuples, each adding ``c * X[i, j]`` to the
    constraint functional of that block, together with the scalar b.  Entries
    at ``(i, j)`` and ``(j, i)`` both count, so a symmetric matrix A enters as
    ``A[i, i]`` on the diagonal and ``2 * A[i, j]`` once per pair ``i < j``.
    """

    def __init__(self, blocks, C, constraints, b):
        self.blocks = [int(s) for s in blocks]
        if any(s < 1 for s in self.blocks):
            raise ValueError("block sizes must be positive")
        self.C = [np.asarray(Cb, dtype=float) for Cb in C]
        for s, Cb in zip(self.blocks, self.C):
            if Cb.shape != (s, s):
                raise ValueError("objective block shape mismatch")
            if not np.allclose(Cb, Cb.T, atol=1e-12 * max(1.0, np.abs(Cb).max())):
                raise ValueError("objective blocks must be symmetric")
        if len(constraints) != len(b) or len(constraints) == 0:
            raise ValueError("need at least one constraint with matching b")
        self.b = np.asarray(b, dtype=float)

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
        self.kept_rows = keep
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

    def objective(self, X) -> float:
        return float(sum(np.sum(Cb * Xb) for Cb, Xb in zip(self.C, X)))


@dataclass
class SdpSolution:
    X: list
    y: np.ndarray
    S: list
    primal_obj: float
    dual_obj: float
    residuals: dict
    status: str
    iterations: int


@dataclass
class DualCertificate:
    y: np.ndarray
    slack_shift: float
    bound: float


def _psd_part(m: np.ndarray):
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    pos = w > 0
    if not np.any(pos):
        return np.zeros_like(m)
    vp = v[:, pos]
    return (vp * w[pos]) @ vp.T


def equality_rows(classes: dict) -> list:
    """Entry lists of the rows X[p] - X[p'] = 0 (b = 0) on block 0 that tie
    consecutive positions of each class together, classes in sorted-key order.

    ``classes`` maps a key to its list of ``(i, j)`` positions.
    """
    return [[(0, i0, j0, 1.0), (0, i1, j1, -1.0)]
            for key in sorted(classes)
            for (i0, j0), (i1, j1) in itertools.pairwise(classes[key])]


def solve_sdp(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Run ADMM on the problem; residuals in the result are recomputed from scratch."""
    opts = opts or SolveOptions()
    P = problem

    # Ruiz-style diagonal pass: normalize constraint rows, then b and C by scalars.
    row_norms = np.sqrt(np.asarray(P.A.multiply(P.A).sum(axis=1)).ravel())
    row_norms = np.where(row_norms > 1e-14, row_norms, 1.0)
    D = sp.diags(1.0 / row_norms)
    A = (D @ P.A).tocsr()
    b = P.b / row_norms
    sigma_b = max(1.0, np.linalg.norm(b))
    b = b / sigma_b
    sigma_c = max(1.0, np.sqrt(sum(np.sum(Cb * Cb) for Cb in P.C)))
    # internal minimization form
    cmin = -P.svec(P.C) / sigma_c

    AAt = (A @ A.T).tocsc()
    solve_normal = None
    try:
        lu = spla.splu(AAt)
        probe = np.ones(P.m)
        if np.linalg.norm(AAt @ lu.solve(probe) - probe) <= 1e-6 * np.sqrt(P.m):
            solve_normal = lu.solve
    except RuntimeError:
        pass
    if solve_normal is None:
        # dependent constraint rows survived presolve; fall back to the
        # minimum-norm solve, which projects onto the row space and keeps the
        # iteration valid for consistent systems
        warnings.warn("constraint Gram matrix is rank deficient; using pseudo-inverse solves")
        pinv = np.linalg.pinv(AAt.toarray(), rcond=1e-12)
        solve_normal = lambda r: pinv @ r

    xv = np.zeros(P.svec_dim)
    yv = np.zeros(P.m)
    sv = np.zeros(P.svec_dim)

    mu = opts.mu
    rho = opts.rho
    status = "max-iter"
    it = 0
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(cmin)
    for it in range(1, opts.max_iter + 1):
        rhs = -(mu * (A @ xv - b) + A @ (sv - cmin))
        yv = solve_normal(rhs)
        v = cmin - A.T @ yv - mu * xv
        sv = P.svec([_psd_part(m) for m in P.smat(v)])
        resid = A.T @ yv + sv - cmin
        xv = xv + (rho / mu) * resid

        if not np.all(np.isfinite(xv)) or np.linalg.norm(xv) > 1e12:
            status = "infeasible-suspected"
            break

        pinf = np.linalg.norm(A @ xv - b) / norm_b
        dinf = np.linalg.norm(resid) / norm_c
        pobj = float(cmin @ xv)
        dobj = float(b @ yv)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if max(pinf, dinf, gap) <= opts.tol:
            status = "optimal"
            break
        if it % opts.adapt_every == 0:
            if pinf > 10.0 * dinf:
                mu = max(mu / 2.0, 1e-6)
            elif dinf > 10.0 * pinf:
                mu = min(mu * 2.0, 1e6)

    # internal minimization of <-C, X>: the max-form dual vector is -y
    X = P.smat(xv * sigma_b)
    y = -yv * sigma_c / row_norms
    S = P.smat(sv * sigma_c)

    # independent residual recomputation on the original data
    rp = np.linalg.norm(P.constraint_values(X) - P.b) / (1.0 + np.linalg.norm(P.b))
    dual_mats = P.operator(y)
    rd = np.sqrt(sum(np.linalg.norm(Sb - (Ab - Cb)) ** 2 for Sb, Ab, Cb in zip(S, dual_mats, P.C)))
    rd /= 1.0 + np.sqrt(sum(np.linalg.norm(Cb) ** 2 for Cb in P.C))
    pobj = P.objective(X)
    dobj = float(P.b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    min_eig = min(float(np.linalg.eigvalsh((Xb + Xb.T) / 2.0)[0]) for Xb in X)
    residuals = {"primal_infeas": float(rp), "dual_infeas": float(rd), "gap": float(gap), "min_eig": min_eig}
    if status == "optimal" and max(rp, rd, gap) > 10 * opts.tol:
        status = "max-iter"
    return SdpSolution(X, y, S, pobj, dobj, residuals, status, it)


def certified_upper_bound(problem: SdpProblem, sol: SdpSolution, trace_bound: float) -> DualCertificate:
    """A bound valid for every primal-feasible X, from weak duality plus a shift.

    For any y, ``<C, X> = <C - sum y_i A_i, X> + b^T y`` and the first term is
    at most ``max(0, lambda_max(C - sum y_i A_i)) * tr(X)``; the caller supplies
    an a-priori bound on tr(X) over the feasible set.
    """
    if trace_bound is None or trace_bound <= 0:
        raise ValueError("a positive a-priori trace bound is required")
    dual_mats = problem.operator(sol.y)
    shift = 0.0
    for Cb, Ab in zip(problem.C, dual_mats):
        lam = float(np.linalg.eigvalsh((Cb - Ab + Cb.T - Ab.T) / 2.0)[-1])
        shift = max(shift, lam)
    shift = max(0.0, shift)
    bound = float(problem.b @ sol.y) + trace_bound * shift
    return DualCertificate(y=sol.y.copy(), slack_shift=shift, bound=bound)
