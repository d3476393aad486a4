"""Heuristic global maximizers that produce certified *lower* bounds:
2->q operator norms, injective norms of symmetric 4-tensors and 3-tensors,
and the separability support function h_Sep via seesaw alternation.

Every oracle re-evaluates its witness before returning, so the reported value
is exactly the objective at the returned feasible point.  Restarts draw their
own seeds from the caller's seed plus the restart index, which makes results
reproducible and monotone in the restart budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .core import OperatorInstance

__all__ = [
    "OracleResult",
    "norm_2_to_q_lower",
    "inj_sym4_lower",
    "inj3_lower",
    "h_sep_lower",
    "elementary_norms",
]

GRID_POINTS = 10_000


@dataclass
class OracleResult:
    value: float
    witness: tuple
    restarts: int
    trace: dict = field(default_factory=dict)


def _unit(x):
    nrm = np.linalg.norm(x)
    return x / nrm if nrm > 0 else x


# A lifted factor is built from row blocks of at most this many entries of K,
# so a tall input never holds K whole.
_LIFT_BLOCK_ENTRIES = 1 << 22


def _tensor_power(x, k):
    """Column-wise Kronecker power: column s of the result is x[:, s]^(x)k,
    first factor slowest; k = 0 gives a row of ones."""
    x = np.ascontiguousarray(x)      # keeps each product C-ordered, so the reshape is a view
    out = np.ones((1, x.shape[1]), dtype=x.dtype)
    for _ in range(k):
        out = (out[:, None, :] * x[None, :, :]).reshape(-1, x.shape[1])
    return out


def _pow2_scaled(a):
    """a times the power of two that brings its largest entry into [1/2, 1)
    (exact), and the exponent that undoes it."""
    _, exp = np.frexp(np.abs(a).max())
    return a * np.ldexp(1.0, -int(exp)), int(exp)


def _abs2(w):
    return w * w if not np.iscomplexobj(w) else w.real * w.real + w.imag * w.imag


class _PowerObjective:
    """sum_i |<r_i, x>|^q and its power-step direction R^H(|u|^(q-2) u), u = Rx,
    on the columns of an n x S array of points.

    Both forms evaluate sum_j |(F x^(x)lift)_j|^power with power * lift = q:
    the rows themselves (F = R, lift 1, power q), or the lifted form
    (lift q/2, power 2) with F^H F = K^H K for K the rows r_i^(x)(q/2), whose
    direction is F^H F x^(x)(q/2) contracted with conj(x)^(x)(q/2 - 1).
    """

    def __init__(self, factor, lift, power):
        self.factor, self.lift, self.power = factor, lift, power
        self.adjoint = factor.conj().T
        self.form = "lifted" if lift > 1 else "rows"

    @classmethod
    def for_rows(cls, rows, q):
        """The lifted form where its factor, n^(q/2) square, costs no more per
        point than the rows (n^q <= m n, which makes m >= n^(q/2)); else the rows."""
        m, n = rows.shape
        if n**q > m * n:
            return cls(rows, 1, q)
        p = q // 2
        width = n**p
        block = max(width, _LIFT_BLOCK_ENTRIES // width)
        f = np.zeros((0, width), dtype=rows.dtype)
        for s in range(0, m, block):
            # [f; next rows of K], built transposed in C order so that LAPACK
            # factors it in place, and freed before the next block is built
            stacked = np.hstack([f.T, _tensor_power(rows[s:s + block].T, p)]).T
            f = sla.qr(stacked, mode="raw", overwrite_a=True, check_finite=False)[1]
            del stacked
        return cls(f, p, 2)

    def __call__(self, x):
        """Values and directions at the columns of x."""
        w = self.factor @ _tensor_power(x, self.lift)
        a = _abs2(w)
        if self.power > 2:
            b = a
            for _ in range(self.power // 2 - 2):
                b = b * a
            w, a = b * w, b * a          # |w|^(power-2) w and |w|^power
        h = self.adjoint @ w
        if self.lift > 1:
            z = _tensor_power(x.conj(), self.lift - 1)
            h = np.einsum("ijs,js->is", h.reshape(x.shape[0], -1, x.shape[1]), z)
        return np.sum(a, axis=0), h


def _power_ascent(objective, x, iters=300, rtol=1e-14):
    """Power steps x <- normalize(direction) on every column of x at once;
    monotone for this convex objective.

    A column stops when a step gains no more than rtol relative (keeping the
    step only if it is strictly better), on a zero direction, or after iters
    steps; stopped columns leave the active set.  Returns the final points,
    their values and the steps each column took.
    """
    x = x.copy()
    val, g = objective(x)
    steps = np.zeros(x.shape[1], dtype=int)
    active = np.arange(x.shape[1])
    for _ in range(iters):
        gn = np.linalg.norm(g, axis=0)
        live = gn > 0
        active, g, gn = active[live], g[:, live], gn[live]
        if active.size == 0:
            break
        x_new = g / gn
        val_new, g = objective(x_new)
        steps[active] += 1
        better = val_new > val[active]
        go_on = val_new > val[active] * (1 + rtol)
        x[:, active[better]] = x_new[:, better]
        val[active[better]] = val_new[better]
        active, g = active[go_on], g[:, go_on]
    return x, val, steps


def _linesearch_polish(fun, grad, x, iters=60):
    """Projected gradient on the sphere with doubling/halving step search."""
    val = fun(x)
    step = 1.0
    for _ in range(iters):
        g = grad(x)
        g = g - np.real(np.vdot(x, g)) * x
        gn = np.linalg.norm(g)
        if gn < 1e-15 * max(1.0, abs(val)):
            break
        improved = False
        while step > 1e-18:
            cand = _unit(x + step * g)
            cv = fun(cand)
            if cv > val:
                x, val = cand, cv
                improved = True
                step *= 2.0
                break
            step /= 2.0
        if not improved:
            break
    return x, val


def _fibonacci_sphere(k):
    """k nearly uniform points on S^2."""
    i = np.arange(k) + 0.5
    phi = np.arccos(1 - 2 * i / k)
    theta = np.pi * (1 + 5**0.5) * i
    return np.stack([np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1)


def _grid_starts(n):
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        ang = np.linspace(0, np.pi, 4096, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        return _fibonacci_sphere(GRID_POINTS)
    return None


def _starts(rows, n, restarts, seed, complex_field):
    rng = np.random.default_rng(seed)
    starts = []
    # largest rows and the top right-singular vector are good deterministic seeds
    norms = np.linalg.norm(rows, axis=1)
    for i in np.argsort(norms)[::-1][:4]:
        if norms[i] > 0:
            starts.append(_unit(rows[i].conj()))
    try:
        _, _, vt = np.linalg.svd(rows, full_matrices=False)
        starts.append(vt[0].conj())
    except np.linalg.LinAlgError:
        pass
    for r in range(restarts):
        sub = np.random.default_rng(np.random.SeedSequence([seed, r]))
        x = sub.normal(size=n)
        if complex_field:
            x = x + 1j * sub.normal(size=n)
        starts.append(_unit(x))
    return starts


def norm_2_to_q_lower(instance: OperatorInstance, q: int = 4, restarts: int = 64, seed: int = 0) -> OracleResult:
    """Lower bound on the 2->q norm (declared convention) by multistart ascent.

    Every start runs in one batched power ascent (see :class:`_PowerObjective`
    for the lifted form it uses on tall inputs); the best is polished by line
    search on the rows.  For real inputs with at most 3 columns a
    deterministic coarse grid is run first, which makes those cases
    effectively exhaustive.  The rows are scaled by a power of two near their
    largest entry, which is exact and keeps the q-th powers in range.
    """
    if q < 4 or q % 2 != 0:
        raise ValueError("q must be even and >= 4")
    if restarts < 1:
        raise ValueError("need at least one restart")
    rows = instance.quartic_rows(q)
    n = instance.n
    if not np.any(rows):
        return OracleResult(0.0, (np.zeros(n),), restarts)
    rows, exp = _pow2_scaled(rows)

    objective = _PowerObjective.for_rows(rows, q)
    starts = _starts(rows, n, restarts, seed, instance.is_complex)
    grid = None if instance.is_complex else _grid_starts(n)
    if grid is not None:
        vals, _ = objective(grid.T)
        top = np.argsort(vals)[::-1][:8]
        starts = [grid[i] for i in top] + starts
    xs, vals, steps = _power_ascent(objective, np.stack(starts, axis=1))
    best, improvements = -np.inf, 0
    for s, val in enumerate(vals):
        if val > best:
            best_s, best = s, val
            improvements += 1

    on_rows = _PowerObjective(rows, 1, q)

    def fun(x):
        return float(on_rows(x[:, None])[0][0])

    def grad(x):
        return q * on_rows(x[:, None])[1][:, 0]

    best_x, _ = _linesearch_polish(fun, grad, xs[:, best_s])
    best_x = _unit(best_x)
    value = np.ldexp(fun(best_x) ** (1.0 / q), exp)
    trace = {"objective_power": q, "form": objective.form, "starts": len(starts),
             "improving_starts": improvements, "steps": int(steps.sum()), "grid_pass": grid is not None}
    return OracleResult(float(value), (best_x,), restarts, trace=trace)


def _check_sym4(t, tol=1e-8):
    scale = max(1.0, np.abs(t).max())
    for pi in itertools.permutations(range(4)):
        if np.abs(np.transpose(t, pi) - t).max() > tol * scale:
            raise ValueError("tensor is not symmetric under index permutations")


def inj_sym4_lower(t: np.ndarray, restarts: int = 64, seed: int = 0) -> OracleResult:
    """Lower bound on the injective norm max |<T, x^(x)4>| of a symmetric 4-tensor.

    Per sign s, all starts run as one batched power ascent on the lifted form
    <x(x)x, P x(x)x> = s <T, x^(x)4> + sigma (unit x), P = s T22 + sigma S4,
    with S4 = (vec I vec I^T + I + swap)/3 the matrix of ||x||^4.  S4 >= 2/3
    on Sym^2 and both vanish on Alt^2, so sigma = 1.5 max(0, -lambda_min(s T22))
    makes P PSD; being index-symmetric too, P makes each step monotone (the
    fixed-shift power method of Kolda and Mayo).  The best point is polished.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 4 or len(set(t.shape)) != 1:
        raise ValueError("expected an n x n x n x n tensor")
    if not np.isfinite(t).all():
        raise ValueError("tensor has non-finite entries")
    t, exp = _pow2_scaled(t)
    _check_sym4(t)
    n = t.shape[0]
    t22 = t.reshape(n * n, n * n)
    ii = np.einsum("ij,kl->ijkl", np.eye(n), np.eye(n))
    s4 = (ii + ii.transpose(0, 2, 1, 3) + ii.transpose(0, 3, 2, 1)).reshape(n * n, n * n) / 3.0
    grid = _grid_starts(n)

    best, n_starts, n_steps = -np.inf, 0, 0
    for sign in (1.0, -1.0):
        sigma = 1.5 * max(0.0, -float(np.linalg.eigvalsh(sign * t22)[0]))
        w, v = np.linalg.eigh(sign * t22 + sigma * s4)
        objective = _PowerObjective(np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T, 2, 2)
        starts = []
        if grid is not None:
            vals, _ = objective(grid.T)
            starts += [grid[i] for i in np.argsort(vals)[::-1][:4]]
        for r in range(restarts):
            rng = np.random.default_rng(np.random.SeedSequence([seed, r, int(sign > 0)]))
            starts.append(_unit(rng.normal(size=n)))
        xs, vals, steps = _power_ascent(objective, np.stack(starts, axis=1))
        n_starts, n_steps = n_starts + len(starts), n_steps + int(steps.sum())
        s = int(np.argmax(vals))
        if vals[s] - sigma > best:
            best, best_sign, best_x = vals[s] - sigma, sign, xs[:, s]

    signed = best_sign * t22

    def fun(x):
        xx = np.kron(x, x)
        return float(xx @ signed @ xx)

    def grad(x):
        return 4.0 * (signed @ np.kron(x, x)).reshape(n, n) @ x

    best_x, _ = _linesearch_polish(fun, grad, best_x)
    best_x = _unit(best_x)
    value = np.ldexp(abs(fun(best_x)), exp)
    return OracleResult(float(value), (best_x,), restarts,
                        trace={"starts": n_starts, "steps": n_steps})


def inj3_lower(t: np.ndarray, restarts: int = 64, seed: int = 0) -> OracleResult:
    """Lower bound on the injective norm of a 3-tensor by alternating maximization."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError("expected a 3-tensor")
    dims = t.shape
    ts, exp = _pow2_scaled(t)
    best, best_w = -np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        x, y, z = (_unit(rng.normal(size=d)) for d in dims)
        val = 0.0
        for _ in range(200):
            x = _unit(np.einsum("ijk,j,k->i", ts, y, z))
            y = _unit(np.einsum("ijk,i,k->j", ts, x, z))
            z = _unit(np.einsum("ijk,i,j->k", ts, x, y))
            new = float(np.einsum("ijk,i,j,k->", ts, x, y, z))
            if abs(new - val) <= 1e-14 * max(1.0, abs(new)):
                val = new
                break
            val = new
        if abs(val) > best:
            best, best_w = abs(val), (x, y, z)
    x, y, z = best_w
    value = abs(float(np.einsum("ijk,i,j,k->", t, x, y, z)))
    return OracleResult(value, best_w, restarts)


def _contract_left(m4, y):
    # <x (x) y, M (x (x) y)> as a quadratic form in x
    return np.einsum("ajbl,j,l->ab", m4, y.conj(), y)


def _contract_right(m4, x):
    return np.einsum("ajbl,a,b->jl", m4, x.conj(), x)


def h_sep_lower(m: np.ndarray, dims: tuple[int, int], restarts: int = 64, seed: int = 0,
                dim_limit: int = 64, psd_tol: float = 1e-9) -> OracleResult:
    """Lower bound on max <x (x) y, M (x (x) y)> over unit x, y, by seesaw.

    Each half-step replaces one factor by the top eigenvector of the operator
    obtained by contracting the other factor, so the value never decreases.
    For 2x2 problems a coarse product-state grid seeds the polish pass.
    psd_tol and the stop rule are relative to the largest entry of M.
    """
    na, nb = dims
    m = np.asarray(m)
    if m.shape != (na * nb, na * nb):
        raise ValueError("matrix shape does not match subsystem dimensions")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if na * nb > dim_limit:
        raise ValueError(f"dimension {na * nb} exceeds limit {dim_limit}")
    ms, exp = _pow2_scaled(m)
    lam_min = float(np.linalg.eigvalsh((ms + ms.conj().T) / 2.0)[0])
    if lam_min < -psd_tol:
        raise ValueError(f"matrix is not PSD within tolerance (min eig {np.ldexp(lam_min, exp):.3e})")
    m4 = ms.reshape(na, nb, na, nb)
    cplx = np.iscomplexobj(m)

    def value(mat, x, y):
        v = np.kron(x, y)
        return float(np.real(np.vdot(v, mat @ v)))

    def seesaw(x, y, iters=300):
        val = value(ms, x, y)
        for _ in range(iters):
            mx = _contract_left(m4, y)
            w, v = np.linalg.eigh((mx + mx.conj().T) / 2.0)
            x = v[:, -1]
            my = _contract_right(m4, x)
            w, v = np.linalg.eigh((my + my.conj().T) / 2.0)
            y = v[:, -1]
            new = value(ms, x, y)
            if new - val <= 1e-14 * max(1.0, abs(new)):
                return x, y, new
            val = new
        return x, y, val

    starts = []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        x = rng.normal(size=na) + (1j * rng.normal(size=na) if cplx else 0.0)
        y = rng.normal(size=nb) + (1j * rng.normal(size=nb) if cplx else 0.0)
        starts.append((_unit(x), _unit(y)))
    if na == 2 and nb == 2:
        for xa in _bloch_grid(cplx):
            for yb in _bloch_grid(cplx)[::3]:
                starts.append((xa, yb))

    best, best_w = -np.inf, None
    for x0, y0 in starts:
        x, y, val = seesaw(x0, y0)
        if val > best:
            best, best_w = val, (x, y)
    x, y = best_w
    return OracleResult(value(m, x, y), (x, y), restarts)


def _bloch_grid(cplx, k=8):
    out = []
    for theta in np.linspace(0, np.pi, k):
        phis = np.linspace(0, 2 * np.pi, k, endpoint=False) if cplx else [0.0, np.pi]
        for phi in phis:
            out.append(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
                       if cplx else np.array([np.cos(theta / 2), np.cos(phi) * np.sin(theta / 2)]))
    return out


def elementary_norms(instance: OperatorInstance) -> dict:
    """Closed-form norms: 2->2, 2->infinity, and their Hoelder product Z."""
    two_two = instance.two_to_two()
    two_inf = instance.two_to_infty()
    return {"two_to_two": two_two, "two_to_infty": two_inf, "Z": two_two**2 * two_inf**2}
