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


class _LinkedBlocks:
    """The DPS program over blocks (X, T_1 X, ..., T_K X), all PSD and of
    the input's dtype.

    Maximize Re <C_0, X> subject to tr X = 1, with
    T_k(X) = W_k^T PT_k(L X L^T) W_k.  Each T_k is a Frobenius isometry, so
    each block has trace 1 and the trace bound of the whole program is 1 + K.
    """

    def __init__(self, obj: np.ndarray, lift: np.ndarray, n: int, r: int, subsets):
        self.lift, self.subsets = lift, subsets
        shape = TensorShape((n,) * (r + 1))
        d = shape.total
        # PT_k permutes the entries of a d x d matrix and is an involution, so
        # one gather index serves it and its inverse
        entries = np.arange(d * d).reshape(d, d)
        self.gather = [partial_transpose(entries, shape, sub).ravel() for sub in subsets]
        # sub is the first factor or not, then extension factors 1..t, so
        # PT_k(L X L^T) lives on C^n (x) Sym^t (x) Sym^(r-t)
        self.support = [kron(np.eye(n), sym_isometry(t, n), sym_isometry(r - t, n))
                        for t in (len(sub) - (0 in sub) for sub in subsets)]
        self.blocks = [lift.shape[1]] + [w.shape[1] for w in self.support]
        self.C = [obj] + [np.zeros((s, s), dtype=obj.dtype) for s in self.blocks[1:]]
        self.b = np.array([1.0])
        self.trace_bound = float(len(self.blocks))

    def _transpose(self, m: np.ndarray, k: int) -> np.ndarray:
        """PT_k(m) for a full-size m, by the gather index."""
        return m.ravel()[self.gather[k]].reshape(m.shape)

    def image(self, x: np.ndarray, k: int) -> np.ndarray:
        """T_k(x), the PPT block k that block 0 fixes."""
        w = self.support[k]
        return w.T @ self._transpose(self.lift @ x @ self.lift.T, k) @ w

    def coimage(self, v: np.ndarray, k: int) -> np.ndarray:
        """T_k^T(v), the adjoint of :meth:`image`."""
        w = self.support[k]
        return self.lift.T @ self._transpose(w @ v @ w.T, k) @ self.lift

    def pull_back(self, mats) -> np.ndarray:
        """M_0 + sum_k T_k^T(M_k): the adjoint of X -> (X, T_1 X, ..., T_K X)."""
        out = mats[0]
        for k, m in enumerate(mats[1:]):
            out = out + self.coimage(m, k)
        return out

    def push(self, x: np.ndarray) -> list:
        return [x] + [self.image(x, k) for k in range(len(self.subsets))]

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

    With ``return_details`` the result also carries ``bound``, a weak-duality
    upper bound on the level-r value that holds whether or not the solver
    converged.
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
