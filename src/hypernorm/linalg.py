"""Dense linear-algebra kernels: eigendecompositions, PSD projection,
permutation operators on tensor powers, partial transpose/trace, and Gram
factorization.

All functions are pure; inputs are never mutated.  Tolerances are parameters
with stated defaults rather than hidden constants.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg as sla

from .core import TensorShape

__all__ = [
    "sym_eig",
    "psd_project",
    "perm_operator",
    "apply_perm",
    "compose_perms",
    "sym_projector",
    "sym_isometry",
    "partial_transpose",
    "partial_trace",
    "kron",
    "real_embedding",
    "reorder_factors",
]

SELF_ADJOINT_TOL = 1e-10

# psd_project computes only the positive eigenpairs (LAPACK's MRRR driver
# ``evr`` on the interval (0, inf)) when at most N / SUBSET_RATIO of them are
# expected and N >= SUBSET_MIN_SIZE; otherwise a full ``eigh`` is faster.
# Measured with one BLAS thread on the solver's own iterates, subset time
# over full time: N=36 0.58 at k=2, 0.95 at k=6, 1.05 at k=7; N=45 0.88 at
# k=6, 1.10 at k=8; N=84 0.59 at k=6, 0.89 at k=9; N=22 0.99 at k=2.
SUBSET_MIN_SIZE = 24
SUBSET_RATIO = 6


def _check_self_adjoint(m: np.ndarray, tol: float):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.linalg.norm(m)
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if np.linalg.norm(m - m.conj().T) > tol * max(1.0, scale):
        raise ValueError("matrix is not self-adjoint within tolerance")


def sym_eig(m: np.ndarray, sym_tol: float = SELF_ADJOINT_TOL):
    """Eigendecomposition of a self-adjoint matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as orthonormal columns.
    """
    m = np.asarray(m)
    _check_self_adjoint(m, sym_tol)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def psd_project(m: np.ndarray, rank_hint: int | None = None,
                sym_tol: float = SELF_ADJOINT_TOL) -> tuple[np.ndarray, int]:
    """Nearest (Frobenius) positive-semidefinite matrix and its rank.

    Returns ``(p, k)``: p is rebuilt from the k positive eigenpairs of m,
    which is m with its negative eigenvalues clipped.  ``rank_hint`` is a
    guess at k, such as the count of the previous iterate; when it is small
    only the positive eigenpairs are computed.  Either way every positive
    eigenpair is found, so the hint changes the running time and the result
    only by rounding.
    """
    m = np.asarray(m)
    _check_self_adjoint(m, sym_tol)
    h = (m + m.conj().T) / 2.0
    n = h.shape[0]
    if rank_hint is not None and n >= SUBSET_MIN_SIZE and SUBSET_RATIO * rank_hint <= n:
        w, v = sla.eigh(h, driver="evr", subset_by_value=(0.0, np.inf), check_finite=False)
    else:
        w, v = np.linalg.eigh(h)
        first = np.searchsorted(w, 0.0, side="right")
        w, v = w[first:], v[:, first:]
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0, w.size


def _check_perm(pi):
    pi = tuple(pi)
    if sorted(pi) != list(range(len(pi))):
        raise ValueError(f"not a permutation of 0..{len(pi) - 1}: {pi}")
    return pi


def apply_perm(pi, v: np.ndarray, n: int) -> np.ndarray:
    """Apply the factor permutation operator to a vector of length n^r.

    Maps ``x_1 (x) ... (x) x_r`` to ``x_pi(1) (x) ... (x) x_pi(r)`` (0-based
    ``pi``), using the row-major factor-1-slowest index convention.
    """
    pi = _check_perm(pi)
    r = len(pi)
    t = np.asarray(v).reshape((n,) * r)
    return np.transpose(t, axes=pi).reshape(-1)


def perm_operator(pi, n: int) -> np.ndarray:
    """Matrix of the operator permuting tensor factors according to ``pi``."""
    pi = _check_perm(pi)
    r = len(pi)
    dim = n**r
    out = np.zeros((dim, dim))
    eye = np.eye(dim)
    for j in range(dim):
        out[:, j] = apply_perm(pi, eye[:, j], n)
    return out


def compose_perms(pi, sigma):
    """The permutation ``tau`` with ``perm_operator(tau) = perm_operator(pi) @ perm_operator(sigma)``."""
    pi, sigma = _check_perm(pi), _check_perm(sigma)
    return tuple(sigma[pi[k]] for k in range(len(pi)))


def sym_projector(r: int, n: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (F^n)^(x r)."""
    if r < 1:
        raise ValueError("tensor power must be >= 1")
    dim = n**r
    acc = np.zeros((dim, dim))
    for pi in itertools.permutations(range(r)):
        acc += perm_operator(pi, n)
    return acc / math.factorial(r)


def sym_isometry(r: int, n: int) -> np.ndarray:
    """Isometry from the symmetric subspace coordinates into (F^n)^(x r).

    Columns are an orthonormal basis of the symmetric subspace, one per
    multiset of size r from [n]; the column count is binom(n+r-1, r).
    """
    dim = n**r
    cols = []
    for combo in itertools.combinations_with_replacement(range(n), r):
        vec = np.zeros(dim)
        for perm in set(itertools.permutations(combo)):
            idx = 0
            for p in perm:
                idx = idx * n + p
            vec[idx] = 1.0
        cols.append(vec / np.linalg.norm(vec))
    return np.array(cols).T


def _as_two_sided_tensor(x: np.ndarray, shape: TensorShape):
    d = shape.total
    if x.shape != (d, d):
        raise ValueError(f"matrix shape {x.shape} does not match tensor shape {shape.dims}")
    return x.reshape(shape.dims + shape.dims)


def partial_transpose(x: np.ndarray, shape: TensorShape, subsystems) -> np.ndarray:
    """Transpose the tensor factors listed in ``subsystems`` (0-based)."""
    r = shape.rank
    subsystems = sorted(set(subsystems))
    if any(s < 0 or s >= r for s in subsystems):
        raise ValueError(f"subsystem out of range for rank-{r} shape: {subsystems}")
    t = _as_two_sided_tensor(np.asarray(x), shape)
    axes = list(range(2 * r))
    for s in subsystems:
        axes[s], axes[s + r] = axes[s + r], axes[s]
    return np.transpose(t, axes).reshape(shape.total, shape.total)


def partial_trace(x: np.ndarray, shape: TensorShape, subsystems) -> np.ndarray:
    """Trace out the tensor factors listed in ``subsystems`` (0-based)."""
    r = shape.rank
    subsystems = sorted(set(subsystems))
    if any(s < 0 or s >= r for s in subsystems):
        raise ValueError(f"subsystem out of range for rank-{r} shape: {subsystems}")
    t = _as_two_sided_tensor(np.asarray(x), shape)
    for k, s in enumerate(subsystems):
        t = np.trace(t, axis1=s - k, axis2=s + r - 2 * k)
    keep = int(np.prod([shape.dims[k] for k in range(r) if k not in subsystems]))
    return t.reshape(keep, keep)


def reorder_factors(x: np.ndarray, shape: TensorShape, order) -> np.ndarray:
    """Conjugate a matrix on a tensor product by a relabeling of the factors.

    ``order[k]`` names the old factor that lands in slot k of the output.
    """
    r = shape.rank
    order = _check_perm(order)
    t = _as_two_sided_tensor(np.asarray(x), shape)
    axes = list(order) + [o + r for o in order]
    new_dims = tuple(shape.dims[o] for o in order)
    d = int(np.prod(new_dims))
    return np.transpose(t, axes).reshape(d, d)


def kron(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m))
    return out


def real_embedding(h: np.ndarray) -> np.ndarray:
    """The 2n x 2n real image [[Re, -Im], [Im, Re]] of a complex matrix.

    For Hermitian ``h`` the image is symmetric, and it is PSD iff ``h`` is.
    """
    re, im = np.real(h), np.imag(h)
    return np.block([[re, -im], [im, re]])
