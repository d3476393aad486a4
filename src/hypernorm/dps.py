"""Symmetric-extension relaxations of the separability support function.

``dps_value(M, n, r, ppt=True)`` maximizes <M, tr_{3..r+1} sigma> over density
operators sigma supported on (first system) (x) (r-fold symmetric subspace),
optionally requiring every partial transpose of sigma to be PSD.  The
symmetric subspace enters through an isometry onto its coordinates, which
shrinks the main PSD block; each partial transpose is a separate PSD block
tied to the main one by entrywise equality rows.

``h_ext(M, n, r)`` is the eigenvalue relaxation without PPT: the top
eigenvalue of M (x) I^(r-1) restricted to the extension subspace.

Real symmetric inputs yield real SDPs (an optimal extension can always be
conjugated to a real one).  Complex Hermitian inputs are solved through the
2d x 2d real embedding [[Re,-Im],[Im,Re]] with explicit invariance rows, under
which Hermitian-PSD and embedded-real-PSD coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TensorShape
from .linalg import kron, partial_transpose, real_embedding, sym_isometry
from .sdp import SdpProblem, SolveOptions, solve_sdp

__all__ = ["dps_value", "h_ext", "DpsResult"]


def _check_bipartite(m: np.ndarray, n: int):
    if m.shape != (n * n, n * n):
        raise ValueError(f"expected an {n * n} x {n * n} matrix on C^{n} (x) C^{n}")
    if np.linalg.norm(m - m.conj().T) > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise ValueError("input must be self-adjoint")


def _ppt_subsets(r: int):
    """Nontrivial partial transposes up to complementation and B-permutations."""
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


def _sym_basis(dim):
    for a in range(dim):
        for b in range(a, dim):
            e = np.zeros((dim, dim))
            e[a, b] = 1.0
            e[b, a] = 1.0
            yield a, b, e


def _linking_rows(images, blocks: int, size: int) -> list:
    """Rows Y_k[i, j] = sum_(a, b) image_k(a, b)[i, j] * X[a, b], tying each
    PPT block k + 1 entrywise to the partial transpose of block 0's lift."""
    cons = []
    for k in range(blocks):
        for i in range(size):
            for j in range(i, size):
                entries = [(k + 1, i, j, 1.0)]
                for (a, bb), mats in images.items():
                    c = mats[k][i, j]
                    if abs(c) > 1e-14:
                        entries.append((0, a, bb, -float(c)))
                cons.append(entries)
    return cons


@dataclass
class DpsResult:
    value: float
    status: str
    iterations: int
    residuals: dict
    r: int
    ppt: bool


def dps_value(m: np.ndarray, n: int, r: int = 1, ppt: bool = True,
              opts: SolveOptions | None = None, return_details: bool = False):
    """Level-r symmetric-extension value for a self-adjoint M on C^n (x) C^n."""
    if n > 4 or r > 3:
        raise ValueError("desk-scale limits: n <= 4, r <= 3")
    m = np.asarray(m)
    _check_bipartite(m, n)
    if n ** (2 * (r + 1)) > 200_000:
        raise ValueError("extension space too large for the dense assembly")
    complex_input = np.iscomplexobj(m) and np.linalg.norm(np.imag(m)) > 1e-13

    w = sym_isometry(r, n)
    lift = np.kron(np.eye(n), w)              # n^(r+1) x dim, dim = n * binom(n+r-1, r)
    dim = lift.shape[1]
    dfull = lift.shape[0]
    shape_full = TensorShape((n,) * (r + 1))
    work = m.astype(complex) if complex_input else np.real(m).astype(float)
    obj_full = kron(work, *([np.eye(n)] * (r - 1))) if r > 1 else work
    obj = lift.T @ obj_full @ lift
    obj = (obj + obj.conj().T) / 2.0
    subsets = _ppt_subsets(r) if ppt else []

    def push(basis_mat):
        """Partial transposes of the lifted basis element, one per PPT block."""
        full = lift @ basis_mat @ lift.T
        return [partial_transpose(full, shape_full, s) for s in subsets]

    if not complex_input:
        blocks = [dim] + [dfull] * len(subsets)
        C = [obj] + [np.zeros((dfull, dfull)) for _ in subsets]
        images = {(a, bb): push(e) for a, bb, e in _sym_basis(dim)}
        cons = [[(0, i, i, 1.0) for i in range(dim)]] + _linking_rows(images, len(subsets), dfull)
        b = [1.0] + [0.0] * (len(cons) - 1)
        problem = SdpProblem(blocks, C, cons, b)
        sol = solve_sdp(problem, opts or SolveOptions(tol=1e-8, max_iter=100_000))
        value = sol.primal_obj
    else:
        value, sol = _dps_complex_embedded(obj, lift, shape_full, subsets, opts)
    res = DpsResult(value=value, status=sol.status, iterations=sol.iterations,
                    residuals=sol.residuals, r=r, ppt=ppt)
    return res if return_details else res.value


def _unembed(s: np.ndarray) -> np.ndarray:
    """The complex matrix whose real embedding is the J-invariant part of s."""
    d = s.shape[0] // 2
    re = (s[:d, :d] + s[d:, d:]) / 2.0
    im = (s[d:, :d] - s[:d, d:]) / 2.0
    return re + 1j * im


def _dps_complex_embedded(obj, lift, shape_full, subsets, opts):
    """Complex Hermitian program through the real embedding.

    Variables: S = embedding of sigma (2*dim), plus one 2*dfull block per
    partial transpose.  Rows: trace of S is 2; S commutes with the complex
    structure J (so S is exactly an embedded Hermitian matrix); each PPT block
    equals the embedding of the partially transposed lift of sigma(S).
    """
    dim = lift.shape[1]
    dfull = lift.shape[0]
    D, DF = 2 * dim, 2 * dfull
    blocks = [D] + [DF] * len(subsets)
    C = [real_embedding(obj) / 2.0] + [np.zeros((DF, DF)) for _ in subsets]
    cons = [[(0, i, i, 1.0) for i in range(D)]]
    b = [2.0]

    # J-invariance: S[a, b] = S[a+dim, b+dim] and S[a, b+dim] + S[b, a+dim] = 0
    for a in range(dim):
        for bb in range(a, dim):
            cons.append([(0, a, bb, 1.0), (0, a + dim, bb + dim, -1.0)])
            b.append(0.0)
    for a in range(dim):
        for bb in range(a, dim):
            if a == bb:
                cons.append([(0, a, a + dim, 1.0)])
            else:
                cons.append([(0, a, bb + dim, 1.0), (0, bb, a + dim, 1.0)])
            b.append(0.0)

    # linking rows: Y_k = embedding of (lift sigma(S) lift^H)^{T_subset}
    images = {}
    for a, bb, e in _sym_basis(D):
        full = lift @ _unembed(e) @ lift.conj().T
        images[(a, bb)] = [real_embedding(partial_transpose(full, shape_full, s))
                           for s in subsets]
    link = _linking_rows(images, len(subsets), DF)
    cons += link
    b += [0.0] * len(link)
    problem = SdpProblem(blocks, C, cons, b)
    sol = solve_sdp(problem, opts or SolveOptions(tol=1e-8, max_iter=100_000))
    return sol.primal_obj, sol


def h_ext(m: np.ndarray, n: int, r: int = 1) -> float:
    """Top eigenvalue of M (x) I^(r-1) restricted to C^n (x) (sym subspace)."""
    m = np.asarray(m)
    _check_bipartite(m, n)
    if n ** (r + 1) > 4096:
        raise ValueError("extension space exceeds the desk-scale limit")
    w = sym_isometry(r, n)
    lift = np.kron(np.eye(n), w)
    obj_full = kron(m, *([np.eye(n)] * (r - 1))) if r > 1 else m
    compressed = lift.conj().T @ obj_full @ lift
    return float(np.linalg.eigvalsh((compressed + compressed.conj().T) / 2.0)[-1])
