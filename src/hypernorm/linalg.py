"""Dense linear-algebra kernels: eigendecompositions, PSD projection,
permutation operators on tensor powers, the symmetric-subspace isometry and
partial transposes.

All functions are pure; inputs are never mutated.  The public functions
check and symmetrize their input; the private ``_psd_project``, which the SDP
loop calls once per block and iteration, trusts its caller to pass an exactly
self-adjoint matrix and reads one triangle of it.  The fixed thresholds are
named constants with their reasons stated next to them: ``SELF_ADJOINT_TOL``
and ``SUBSET_RATIO`` here, and ``core.RANK_RTOL`` for ``image_basis``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.linalg as sla

from .core import RANK_RTOL, TensorShape

__all__ = [
    "sym_eig",
    "image_basis",
    "psd_project",
    "perm_operator",
    "sym_isometry",
    "partial_transpose",
    "kron",
    "reorder_factors",
]

# A matrix counts as self-adjoint when |m - m^*|_F <= SELF_ADJOINT_TOL * max(1, |m|_F).
SELF_ADJOINT_TOL = 1e-10

# psd_project computes only one side of the spectrum (LAPACK's MRRR driver
# ``evr`` on (0, inf) or on (-inf, 0]) when at most N / SUBSET_RATIO
# eigenpairs are expected on that side; otherwise a full ``eigh`` is faster.
# Measured by scripts/psd_crossover.py with one BLAS thread, one-sided time
# over full time, positive side / negative side (medians of three runs of the
# unchecked step; a cell within 0.05 of an earlier run keeps that figure):
#   N=12  0.78/0.75 at k=3,   0.89/0.88 at k=4,   0.96/1.01 at k=6
#   N=22  0.65/0.63 at k=4,   0.92/0.93 at k=7,   1.30/1.30 at k=11
#   N=36  0.80/0.79 at k=6,   0.95/0.92 at k=9,   1.15/1.16 at k=12
#   N=45  0.80/0.75 at k=8,   0.88/0.80 at k=9,   1.03/0.88 at k=11
#   N=70  0.92/0.86 at k=12,  1.03/0.99 at k=14,  1.16/1.14 at k=18
#   N=84  0.89/0.83 at k=14,  0.98/0.91 at k=17,  1.13/1.04 at k=21
# At k = N/5 the ratio is about 1 from N=70 up and lower below, and at
# k = N/4 about 1 at N=36 and above 1 from N=45 up; at N=4 it is 0.74/0.76
# at k=1, so no size floor is set.
SUBSET_RATIO = 5


def _check_self_adjoint(m: np.ndarray, tol: float):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.linalg.norm(m)
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if np.linalg.norm(m - m.conj().T) > tol * max(1.0, scale):
        raise ValueError("matrix is not self-adjoint within tolerance")


def sym_eig(m: np.ndarray):
    """Eigendecomposition of a matrix that is self-adjoint within ``SELF_ADJOINT_TOL``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as orthonormal columns.
    """
    m = np.asarray(m)
    _check_self_adjoint(m, SELF_ADJOINT_TOL)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def image_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the numerical image of ``a``: its left
    singular vectors whose singular values exceed ``RANK_RTOL`` times the largest."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : int(np.sum(s > RANK_RTOL * max(s[0], 1e-300)))]


@functools.cache
def _evr_driver(n: int, complex_: bool):
    """LAPACK's ``?syevr`` (``?heevr`` for complex) and its optimal workspace
    sizes for order n, as ``(driver, sizes)``."""
    name = "heevr" if complex_ else "syevr"
    drv, query = sla.get_lapack_funcs((name, name + "_lwork"),
                                      dtype=np.complex128 if complex_ else np.float64)
    *sizes, info = query(n, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {name} workspace query failed (info={info})")
    keys = ("lwork", "lrwork", "liwork") if complex_ else ("lwork", "liwork")
    return drv, {k: int(x.real) for k, x in zip(keys, sizes)}


def _eig_interval(h: np.ndarray, lo: float, hi: float):
    """The eigenpairs of the self-adjoint h whose eigenvalues lie in (lo, hi],
    ascending, or None where the driver fails (info > 0), as MRRR can on a
    tightly clustered spectrum.  The driver works on a copy, so h is left
    unchanged."""
    drv, sizes = _evr_driver(h.shape[0], h.dtype.kind == "c")
    w, v, m, _, info = drv(h, compute_v=1, range="V", lower=1, vl=lo, vu=hi, **sizes)
    if info < 0:
        raise np.linalg.LinAlgError(f"LAPACK evr rejected argument {-info}")
    return None if info else (w[:m], v[:, :m])


def psd_project(m: np.ndarray, rank_hint: int | None = None) -> tuple[np.ndarray, int]:
    """Nearest (Frobenius) positive-semidefinite matrix and its rank.

    Returns ``(p, k)``: p is m with its negative eigenvalues clipped, and k
    the count of its positive eigenvalues.  ``rank_hint`` is a guess at k,
    such as the count of the previous iterate.  When it is small, only the
    positive eigenpairs are computed and p is rebuilt from them; when it is
    close to N, only the negative ones, and p is m minus their part.  Either
    way every eigenpair of that side is found, so the hint changes the
    running time and the result only by rounding.
    """
    m = np.asarray(m)
    _check_self_adjoint(m, SELF_ADJOINT_TOL)
    return _psd_project((m + m.conj().T) / 2.0, rank_hint)


def _transpose(a: np.ndarray) -> np.ndarray:
    return a.T


def _conj_transpose(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _psd_project(h: np.ndarray, rank_hint: int | None = None,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """:func:`psd_project` of a square, finite h that the caller has made
    exactly self-adjoint: the eigensolvers read only one triangle of it, and
    the negative-side path subtracts from h itself.  h is left unchanged, and
    the output is symmetrized in place, so it is exactly self-adjoint.  With
    ``out``, an array of h's shape and dtype that does not overlap h, the
    result is written there and ``out`` is returned, with the same bits."""
    adj = _conj_transpose if h.dtype.kind == "c" else _transpose
    n = h.shape[0]
    subset = rank_hint is not None and n > 0   # the evr wrappers reject order 0
    # a side whose driver fails falls back to the full eigh below
    positive = subset and SUBSET_RATIO * rank_hint <= n and _eig_interval(h, 0.0, np.inf)
    negative = subset and SUBSET_RATIO * (n - rank_hint) <= n and _eig_interval(h, -np.inf, 0.0)
    if positive:
        w, v = positive
        out, k = np.matmul(v * w, adj(v), out=out), w.size
    elif negative:
        w, v = negative
        k = n - w.size
        out = np.matmul(v * w, adj(v), out=out)
        if k:
            np.subtract(h, out, out=out)
        else:
            out.fill(0.0)
    else:
        w, v = np.linalg.eigh(h)
        first = np.searchsorted(w, 0.0, side="right")
        w, v = w[first:], v[:, first:]
        out, k = np.matmul(v * w, adj(v), out=out), w.size
    # the same bits as (out + adj(out)) / 2: halving is exact
    out += adj(out)
    out *= 0.5
    return out, k


def _check_perm(pi):
    pi = tuple(pi)
    if sorted(pi) != list(range(len(pi))):
        raise ValueError(f"not a permutation of 0..{len(pi) - 1}: {pi}")
    return pi


def perm_operator(pi, n: int) -> np.ndarray:
    """Matrix of the operator permuting tensor factors according to ``pi``
    (0-based): it maps ``x_1 (x) ... (x) x_r`` to ``x_pi(1) (x) ... (x) x_pi(r)``
    in the row-major factor-1-slowest index convention."""
    pi = _check_perm(pi)
    r = len(pi)
    dim = n**r
    return np.eye(dim).reshape((n,) * r + (dim,)).transpose(pi + (r,)).reshape(dim, dim)


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
