"""Symmetric-extension relaxations of the separability support function.

``dps_value(M, n, r, ppt=True)`` maximizes <M, tr_{3..r+1} sigma> over density
operators sigma supported on (first system) (x) (r-fold symmetric subspace),
optionally requiring every partial transpose of sigma to be PSD.  The
symmetric subspace enters through the isometry L = I (x) W_r onto its
coordinates (W_s = ``sym_isometry(s, n)``, W_0 = [[1]]), so the main PSD
block X holds sigma in those coordinates.  PPT block k is the image
T_k(X) = W_k^T PT_k(L X L^T) W_k of the main block, where PT_k transposes the
first factor or not and the first s of the r extension factors, and
W_k = I (x) W_s (x) W_(r-s).  PT_k(L X L^T) is unchanged by permutations
among the transposed extension factors and among the others, so it equals
Pi_k PT_k(L X L^T) Pi_k with Pi_k = W_k W_k^T: the block loses nothing by
living on that support, and has size n * binom(n+s-1, s) *
binom(n+r-s-1, r-s) instead of n^(r+1) (Gatermann-Parrilo 2004; Phi_3 at
r=3: [30, 54, 54, 30] instead of [30, 81, 81, 81]).  L and W_k are
isometries and a partial transpose permutes entries, so T_k^T T_k = I, and
the affine set {(X, T_1 X, ..., T_K X) : tr X = 1} has a closed-form
projection: average block 0 with the pulled-back PPT blocks, shift the
trace, push the result forward.  The dual slack is repaired the same way.
Every row of L and of W_k has one nonzero, so each entry of a PPT block is
one entry of X times a positive weight; the program holds these sources and
weights for all K blocks, built once from the partial transposes' gather
indices by merging the K * n^(2r+2) terms of PT_k(L X L^T) (Phi_3 at r=3:
19 683 terms, 6732 entries), and applies the T_k as one gather and one
product and their adjoints as one ``bincount``, never forming an
n^(r+1)-sized matrix.

``h_ext(M, n, r)`` is the eigenvalue relaxation without PPT: the top
eigenvalue of M (x) I^(r-1) restricted to the extension subspace.

Real symmetric inputs yield real SDPs (an optimal extension can always be
conjugated to a real one).  Complex Hermitian inputs yield complex Hermitian
blocks of the same sizes: L and W_k are real, and a partial transpose of a
Hermitian matrix is Hermitian, so every formula above holds verbatim and the
solver's PSD projection takes the Hermitian blocks directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TensorShape
from .linalg import SELF_ADJOINT_TOL, _check_self_adjoint, kron, partial_transpose, sym_isometry
from .sdp import SolveOptions, solve_sdp

__all__ = ["dps_value", "h_ext", "DpsResult"]


def _check_bipartite(m: np.ndarray, n: int):
    if m.shape != (n * n, n * n):
        raise ValueError(f"expected an {n * n} x {n * n} matrix on C^{n} (x) C^{n}")
    _check_self_adjoint(m, SELF_ADJOINT_TOL)


def _ppt_subsets(r: int):
    """Nontrivial partial transposes up to complementation and B-permutations,
    as factor lists: the first factor or not, then the first s of the r
    extension factors."""
    seen = {(0, 0)}
    out = []
    for a in (0, 1):
        for s in range(r + 1):
            key = min((a, s), (1 - a, r - s))
            if key in seen:
                continue
            seen.add(key)
            out.append(([0] if a else []) + list(range(1, 1 + s)))
    return out


def _one_per_row(m: np.ndarray):
    """The column and the value of the one nonzero in each row of m."""
    cols = np.argmax(m != 0, axis=1)
    if np.count_nonzero(m) != len(m) or not m[np.arange(len(m)), cols].all():
        raise ValueError("expected exactly one nonzero in each row")
    return cols, m[np.arange(len(m)), cols]


def _gather(shape: TensorShape, sub) -> np.ndarray:
    """The index that gathers PT_sub(m) from a raveled d x d matrix m."""
    d = shape.total
    return partial_transpose(np.arange(d * d).reshape(d, d), shape, sub).ravel()


def _scatter_add(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount`` of real or complex weights."""
    if np.iscomplexobj(weights):
        return np.bincount(index, weights.real, size) + 1j * np.bincount(index, weights.imag, size)
    return np.bincount(index, weights, size)


class _LinkedBlocks:
    """The DPS program over blocks (X, T_1 X, ..., T_K X), all PSD and of
    the input's dtype.

    Maximize Re <C_0, X> subject to tr X = 1, with
    T_k(X) = W_k^T PT_k(L X L^T) W_k.  Each T_k is a Frobenius isometry, so
    each block has trace 1 and the trace bound of the whole program is 1 + K.

    With i(p), l(p) the column and value of row p's nonzero in L, and
    a(p), w_k(p) those in W_k, T_k adds l(p') l(q') w_k(p) w_k(q) X[i(p'), i(q')]
    to entry (a(p), a(q)) of block k for each (p, q), (p', q') = PT_k(p, q).
    Merged by target, every entry of every block has exactly one source, so
    the map is held as one source index and one weight per entry of the PPT
    blocks raveled end to end.
    """

    def __init__(self, obj: np.ndarray, lift: np.ndarray, n: int, r: int, subsets):
        self.subsets = subsets
        shape = TensorShape((n,) * (r + 1))
        size = lift.shape[1]
        row, l = _one_per_row(lift)
        # entry (p', q') of L X L^T is l(p') l(q') X[i(p'), i(q')]
        source, weight = (row[:, None] * size + row).ravel(), np.outer(l, l).ravel()
        src, coef, self.blocks = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], [size]
        for sub in subsets:
            # sub is the first factor or not, then extension factors 1..t, so
            # PT_k(L X L^T) lives on C^n (x) Sym^t (x) Sym^(r-t)
            t = len(sub) - (0 in sub)
            col, w = _one_per_row(kron(np.eye(n), sym_isometry(t, n), sym_isometry(r - t, n)))
            s = int(col.max()) + 1
            g = _gather(shape, sub)
            target = (col[:, None] * s + col).ravel()
            src_k = np.empty(s * s, dtype=np.intp)
            src_k[target] = source[g]
            if not np.array_equal(src_k[target], source[g]):
                raise AssertionError("a PPT block entry with more than one source")
            src.append(src_k)
            coef.append(np.bincount(target, np.outer(w, w).ravel() * weight[g], s * s))
            self.blocks.append(s)
        self._src, self._coef = np.concatenate(src), np.concatenate(coef)
        self._ends = np.cumsum([0] + [s * s for s in self.blocks[1:]])
        self.C = [obj] + [np.zeros((s, s), dtype=obj.dtype) for s in self.blocks[1:]]
        self.b = np.array([1.0])
        self.trace_bound = float(len(self.blocks))

    def _part(self, k: int) -> slice:
        """Block k's entries in the map."""
        return slice(self._ends[k], self._ends[k + 1])

    def _forward(self, x: np.ndarray, part=slice(None)) -> np.ndarray:
        """The PPT entries of the map's ``part`` that block 0 equal to x fixes."""
        out = x.ravel()[self._src[part]]
        out *= self._coef[part]
        return out

    def _adjoint(self, flat: np.ndarray, part=slice(None)) -> np.ndarray:
        """The block-0 matrix that the PPT entries ``flat`` of the map's
        ``part`` pull back to."""
        size = self.blocks[0]
        return _scatter_add(self._src[part], flat * self._coef[part], size * size).reshape(size, size)

    def image(self, x: np.ndarray, k: int) -> np.ndarray:
        """T_k(x), the PPT block k that block 0 fixes."""
        return self._forward(x, self._part(k)).reshape(self.blocks[k + 1], -1)

    def coimage(self, v: np.ndarray, k: int) -> np.ndarray:
        """T_k^T(v), the adjoint of :meth:`image`."""
        return self._adjoint(v.ravel(), self._part(k))

    def pull_back(self, mats) -> np.ndarray:
        """M_0 + sum_k T_k^T(M_k): the adjoint of X -> (X, T_1 X, ..., T_K X)."""
        if len(mats) == 1:
            return mats[0]
        return mats[0] + self._adjoint(np.concatenate([m.ravel() for m in mats[1:]]))

    def push(self, x: np.ndarray) -> list:
        tail = self._forward(x)
        return [x] + [tail[self._part(k)].reshape(s, s) for k, s in enumerate(self.blocks[1:])]

    def project(self, V):
        """Orthogonal projection onto the linked blocks with tr X = 1, as
        ``(blocks, w)`` with w the multiplier of the trace row."""
        links = len(self.blocks)
        xbar = self.pull_back(V) / links
        w = (np.trace(xbar).real - 1.0) * links / self.blocks[0]
        return self.push(xbar - (w / links) * np.eye(self.blocks[0])), np.array([w])

    def dual_slack(self, sol):
        """The solver's slack S moved onto the dual affine set
        (C_0 + S_0) + sum_k T_k^T(C_k + S_k) = y I by the least change,
        which is a pushed-forward block-0 matrix."""
        fix = sol.y[0] * np.eye(self.blocks[0]) - self.pull_back(
            [c + s for c, s in zip(self.C, sol.S)])
        return [s + f for s, f in zip(sol.S, self.push(fix / len(self.blocks)))]


@dataclass
class DpsResult:
    """A level-r solve.  ``value`` is <C, X> at the solver's last affine
    iterate, which need not be PSD, so it is not a lower bound on the
    level-r value and can exceed ``bound`` (Phi_2 at r=2: 0.5000000105
    against 0.5000000062); ``bound`` is the weak-duality upper bound."""

    value: float
    bound: float
    status: str
    iterations: int
    residuals: dict
    r: int
    ppt: bool


def _compressed(m: np.ndarray, n: int, r: int):
    """The lift L = I (x) W onto C^n (x) (sym subspace) and the self-adjoint
    part of L^T (M (x) I^(r-1)) L."""
    if r < 1:
        raise ValueError(f"extension level r must be >= 1, got {r}")
    lift = np.kron(np.eye(n), sym_isometry(r, n))
    obj = lift.T @ kron(m, *([np.eye(n)] * (r - 1))) @ lift
    return lift, (obj + obj.conj().T) / 2.0


def _dps_program(m: np.ndarray, n: int, r: int, ppt: bool) -> _LinkedBlocks:
    if n > 4 or r > 3:
        raise ValueError("desk-scale limits: n <= 4, r <= 3")
    m = np.asarray(m)
    _check_bipartite(m, n)
    complex_input = np.iscomplexobj(m) and np.linalg.norm(np.imag(m)) > 1e-13
    lift, obj = _compressed(m.astype(complex) if complex_input else np.real(m).astype(float), n, r)
    return _LinkedBlocks(obj, lift, n, r, _ppt_subsets(r) if ppt else [])


def dps_value(m: np.ndarray, n: int, r: int = 1, ppt: bool = True,
              opts: SolveOptions | None = None, return_details: bool = False):
    """Level-r symmetric-extension value for a self-adjoint M on C^n (x) C^n.

    The value is <C, X> at the solver's last affine iterate, which need not
    be PSD: it is not a lower bound on the level-r value, and it can exceed
    the bound.  With ``return_details`` the result (a :class:`DpsResult`)
    also carries ``bound``, a weak-duality upper bound on the level-r value
    that holds whether or not the solver converged.
    """
    problem = _dps_program(m, n, r, ppt)
    sol = solve_sdp(problem, opts or SolveOptions(tol=1e-8, max_iter=100_000))
    res = DpsResult(value=sol.primal_obj, bound=sol.bound, status=sol.status,
                    iterations=sol.iterations, residuals=sol.residuals, r=r, ppt=ppt)
    return res if return_details else res.value


def h_ext(m: np.ndarray, n: int, r: int = 1) -> float:
    """Top eigenvalue of M (x) I^(r-1) restricted to C^n (x) (sym subspace)."""
    m = np.asarray(m)
    _check_bipartite(m, n)
    if n ** (r + 1) > 4096:
        raise ValueError("extension space exceeds the desk-scale limit")
    return float(np.linalg.eigvalsh(_compressed(m, n, r)[1])[-1])
