"""Heuristic global maximizers that produce certified *lower* bounds:
2->q operator norms, injective norms of symmetric 4-tensors and 3-tensors,
and the separability support function h_Sep via seesaw alternation.

Every oracle re-evaluates its witness before returning, so the reported value
is exactly the objective at the returned feasible point.  Restarts draw their
own seeds from the caller's seed plus the restart index, which makes results
reproducible and monotone in the restart budget up to rounding: the batched
loops use matrix products whose rounding may change with the batch size, so a
larger budget can report a value a few ulps lower.

Every oracle runs all its starts at once, as the columns or rows of stacked
arrays, and a start leaves the active set when it meets its own stop rule.
The 2->q and symmetric 4-tensor oracles share one power ascent, on the rows
or on a PSD Gram matrix of tensor powers (see :class:`_PowerObjective`); this
is the power step of Kolda and Mayo's shifted power method on the PSD
flattening.  It converges only linearly, so they finish the best start with
Riemannian Newton steps on the sphere (:func:`_newton_finish`), taken only
where the tangent Hessian is negative definite and the step short, and
quadratically convergent there; a degenerate or complex best point stays
as the ascent left it.  ``inj3_lower`` alternates over stacked factors with
one product per update, and ``h_sep_lower`` runs a stacked seesaw.
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
# h_sep_lower rejects an M with an eigenvalue below -HSEP_PSD_TOL times its largest entry.
HSEP_PSD_TOL = 1e-9
# A start counts as improving when it beats every earlier one by more than this, relative.
IMPROVING_RTOL = 1e-12
# A seesaw start stops after _SEESAW_STEPS steps, or at a gain of at most _SEESAW_RTOL relative.
_SEESAW_STEPS = 300
_SEESAW_RTOL = 1e-14


@dataclass
class OracleResult:
    value: float
    witness: tuple
    restarts: int
    trace: dict = field(default_factory=dict)


def _unit(x):
    nrm = np.linalg.norm(x)
    return x / nrm if nrm > 0 else x


# The lifted form's Gram matrix is accumulated over row blocks of at most this
# many entries of K, so a tall input never holds K whole.
_LIFT_BLOCK_ENTRIES = 1 << 22


def _tensor_power(x, k):
    """Column-wise Kronecker power, k >= 1: column s of the result is
    x[:, s]^(x)k, first factor slowest."""
    x = np.ascontiguousarray(x)      # keeps each product C-ordered, so the reshape is a view
    out = x
    for _ in range(k - 1):
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

    The rows form (lift 1) evaluates both on R itself, two products per
    evaluation.  The lifted form (lift p = q/2) works on the n^p x n^p Gram
    matrix G = K^H K of K, the rows r_i^(x)p, since |<r_i, x>|^q =
    |<r_i^(x)p, x^(x)p>|^2: the direction is G x^(x)p contracted with
    conj(x)^(x)(p-1), and the value Re <x^(x)p, G x^(x)p> is its inner
    product with x, so one product per evaluation.  For q = 4 on real rows G
    is ``polybasis.quartic_gram``.  Any PSD G invariant under permutations of
    the p tensor factors makes the power step monotone; ``inj_sym4_lower``
    passes its own.
    """

    def __init__(self, matrix, lift, q):
        self.matrix, self.lift, self.q = matrix, lift, q
        self.form = "lifted" if lift > 1 else "rows"
        if lift == 1:
            self.adjoint = matrix.conj().T

    @classmethod
    def for_rows(cls, rows, q, gram=None):
        """The lifted form where G, n^(q/2) square, costs no more per point
        than the rows (n^q <= m n, which makes m >= n^(q/2)); else the rows.
        ``gram``, when given, is that G, formed by the caller."""
        m, n = rows.shape
        if n**q > m * n:
            return cls(rows, 1, q)
        if gram is not None:
            return cls(gram, q // 2, q)
        p = q // 2
        width = n**p
        block = max(width, _LIFT_BLOCK_ENTRIES // width)
        gram = np.zeros((width, width), dtype=rows.dtype)
        for s in range(0, m, block):
            # column i of k is r_i^(x)p; it is freed before the next block is built
            k = _tensor_power(rows[s:s + block].T, p)
            gram += k.conj() @ k.T
            del k
        return cls(gram, p, q)

    def evaluate(self, x):
        """Values and directions at the columns of x, and the product that
        :meth:`curvature` reads: |Rx|^(q-2) on the rows, G x^(x)p on the
        lifted form."""
        if self.lift == 1:
            w = self.matrix @ x
            a = _abs2(w)
            b = a
            for _ in range(self.q // 2 - 2):
                b = b * a
            return np.sum(b * a, axis=0), self.adjoint @ (b * w), b
        n, s = x.shape
        h = (self.matrix @ _tensor_power(x, self.lift)).reshape(n, -1, s)
        d = np.einsum("ijs,js->is", h, _tensor_power(x.conj(), self.lift - 1))
        return np.einsum("is,is->s", x.conj(), d).real, d, h

    def __call__(self, x):
        """Values and directions at the columns of x."""
        return self.evaluate(x)[:2]

    def curvature(self, x, product):
        """M = T(., ., x, ..., x), q - 2 slots filled, at the real columns of x
        (an S x n x n stack), from :meth:`evaluate`'s product at x; the
        Hessian of the value is q (q - 1) M.  On the rows it is
        R^T diag(|Rx|^(q-2)) R; on the lifted form it is G x^(x)p with p - 2
        more factors contracted, so at q = 4 it is that product itself."""
        if self.lift == 1:
            return (self.matrix.T[None, :, :] * product.T[:, None, :]) @ self.matrix
        n, s = x.shape
        m = product.reshape(n, n, -1, s)
        if self.lift > 2:
            m = np.einsum("ijks,ks->ijs", m, _tensor_power(x, self.lift - 2))[:, :, None]
        return m[:, :, 0].transpose(2, 0, 1)


def _power_ascent(objective, x, iters=300, rtol=1e-14):
    """Power steps x <- normalize(direction) on every column of x at once;
    monotone for this convex objective.

    A column stops when a step gains no more than rtol relative (keeping the
    step only if it is strictly better), on a zero direction, or after iters
    steps.  The live columns are kept as their own compact arrays, and a
    column is written back, with its step count, only when it stops; while
    every live column improves, a step just replaces them.  Returns the final
    points, their values and the steps each column took.
    """
    x = x.copy()
    val, g, _ = objective.evaluate(x)
    steps = np.full(x.shape[1], iters)
    active, xa, va = np.arange(x.shape[1]), x, val
    for it in range(iters):
        if active.size == 0:
            break
        gn = np.sqrt(np.einsum("is,is->s", g.conj(), g).real)
        if not gn.all():
            live = gn > 0
            out = active[~live]
            x[:, out], val[out], steps[out] = xa[:, ~live], va[~live], it
            active, xa, va, g, gn = active[live], xa[:, live], va[live], g[:, live], gn[live]
            if active.size == 0:
                break
        x_new = g / gn
        val_new, g, _ = objective.evaluate(x_new)
        go_on = val_new > va * (1 + rtol)
        if go_on.all():
            xa, va = x_new, val_new
            continue
        better = val_new > va
        xb, vb = np.where(better, x_new, xa), np.where(better, val_new, va)
        stop = ~go_on
        out = active[stop]
        x[:, out], val[out], steps[out] = xb[:, stop], vb[stop], it + 1
        active, xa, va, g = active[go_on], xb[:, go_on], vb[go_on], g[:, go_on]
    x[:, active], val[active] = xa, va
    return x, val, steps


def _best_start(vals):
    """The first start of the largest value, and how many starts beat every
    earlier one by more than IMPROVING_RTOL relative (so starts that reach
    the same optimum a few ulps apart count once)."""
    running = np.maximum.accumulate(vals)
    gain = vals[1:] - running[:-1]
    return int(np.argmax(vals)), 1 + int(np.count_nonzero(gain > IMPROVING_RTOL * np.abs(running[:-1])))


# The Newton finish takes at most _NEWTON_STEPS steps, each only where the
# tangent Hessian is below -_NEWTON_MARGIN times the value and the step is at
# most _NEWTON_RADIUS long; _NEWTON_RTOL is its stop rule.
_NEWTON_STEPS = 8
_NEWTON_MARGIN = 1e-6
_NEWTON_RADIUS = 0.1
_NEWTON_RTOL = 1e-14


def _newton_finish(objective, x):
    """Riemannian Newton steps on the unit sphere from the real unit point x
    (Absil, Mahony and Sepulchre 2008, ch. 6): the final point, the steps
    taken, and whether a step met the stop rule.

    With M = T(., ., x, ..., x) from :meth:`_PowerObjective.curvature` and d
    the power direction (M x = d, <x, d> = f), the gradient is q (d - f x)
    and the tangent Hessian q (B - f P), with P = I - x x^T and
    B = (q - 1) P M P, whose kernel holds x.  The Hessian is negative
    definite on the tangent space exactly when B's largest eigenvalue is
    below f, and the step then solves (f I - B) xi = d - f x, which is
    tangent since f I - B maps x to f x.  A step is taken only where that
    eigenvalue is below (1 - _NEWTON_MARGIN) f and |xi| <= _NEWTON_RADIUS,
    and kept if the value rises.  The finish stops at the first step that is
    declined, and at the first that moves the value by at most _NEWTON_RTOL
    relative either way: that meets the stop rule, and the step is kept even
    if the value fell by that much, since the value can no longer resolve
    the distance to the maximum and Newton's point is the nearer one.  Near
    a strict local maximum it converges quadratically; at a degenerate one
    the Hessian test declines and x is returned unchanged.  A point whose
    tangent gradient is exactly zero (every point at n = 1) meets the stop
    rule with no step.  This is the one finish of both oracles and of the
    moment relaxation's witnesses.
    """
    q = objective.q
    val, d, product = objective.evaluate(x[:, None])
    if not np.any(d[:, 0] - val[0] * x):
        return x, 0, True
    for k in range(_NEWTON_STEPS):
        f, dx = val[0], d[:, 0]
        xd = np.outer(x, dx)
        b = (q - 1) * (objective.curvature(x[:, None], product)[0] - xd - xd.T + f * np.outer(x, x))
        w, u = np.linalg.eigh(b)
        if not w[-1] < (1 - _NEWTON_MARGIN) * f:
            return x, k, False
        xi = u @ ((u.T @ (dx - f * x)) / (f - w))
        if xi @ xi > _NEWTON_RADIUS**2:
            return x, k, False
        y = _unit(x + xi)
        new, d_new, p_new = objective.evaluate(y[:, None])
        if new[0] <= f * (1 + _NEWTON_RTOL):
            # no gain beyond _NEWTON_RTOL: converged, unless the value fell by more
            done = bool(new[0] >= f * (1 - _NEWTON_RTOL))
            return (y if done else x), k + 1, done
        x, val, d, product = y, new, d_new, p_new
    return x, _NEWTON_STEPS, False


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
    for the lifted form it uses on tall inputs); a real best start is
    finished by Newton steps on the same form (:func:`_newton_finish`), else
    kept as the ascent left it, and its value is computed on the rows.  The
    trace gives the ``form``, ``starts``, ``improving_starts`` (starts that
    beat every earlier one by more than ``IMPROVING_RTOL``), power ``steps``
    over all starts, the finish's ``newton_steps`` and ``newton_converged``
    (False where it declined or did not run).  For real inputs with at most
    3 columns a deterministic coarse grid is run first, which makes those cases
    effectively exhaustive.  The rows are scaled by a power of two near their
    largest entry, which is exact and keeps the q-th powers in range.
    """
    if q < 4 or q % 2 != 0:
        raise ValueError("q must be even and >= 4")
    if restarts < 1:
        raise ValueError("need at least one restart")
    rows = instance.quartic_rows(q)
    n = instance.n
    rows, exp = _pow2_scaled(rows)

    objective = _PowerObjective.for_rows(rows, q)
    starts = _starts(rows, n, restarts, seed, instance.is_complex)
    grid = None if instance.is_complex else _grid_starts(n)
    if grid is not None:
        vals, _ = objective(grid.T)
        top = np.argsort(vals)[::-1][:8]
        starts = [grid[i] for i in top] + starts
    xs, vals, steps = _power_ascent(objective, np.stack(starts, axis=1))
    best_s, improvements = _best_start(vals)

    best_x, newton_steps, converged = xs[:, best_s], 0, False
    if not instance.is_complex:
        best_x, newton_steps, converged = _newton_finish(objective, best_x)
    value = np.ldexp(float(_PowerObjective(rows, 1, q)(best_x[:, None])[0][0]) ** (1.0 / q), exp)
    trace = {"objective_power": q, "form": objective.form, "starts": len(starts),
             "improving_starts": improvements, "steps": int(steps.sum()),
             "newton_steps": newton_steps, "newton_converged": converged, "grid_pass": grid is not None}
    return OracleResult(float(value), (best_x,), restarts, trace=trace)


def _check_sym4(t, tol=1e-8):
    scale = max(1.0, np.abs(t).max())
    for pi in itertools.permutations(range(4)):
        if np.abs(np.transpose(t, pi) - t).max() > tol * scale:
            raise ValueError("tensor is not symmetric under index permutations")


def inj_sym4_lower(t: np.ndarray, restarts: int = 64, seed: int = 0) -> OracleResult:
    """Lower bound on the injective norm max |<T, x^(x)4>| of a symmetric 4-tensor.

    Per sign s, all starts run as one batched power ascent on the lifted form
    with P itself as its Gram matrix:
    <x(x)x, P x(x)x> = s <T, x^(x)4> + sigma (unit x), P = s T22 + sigma S4,
    with S4 = (vec I vec I^T + I + swap)/3 the matrix of ||x||^4.  S4 >= 2/3
    on Sym^2 and both vanish on Alt^2, so sigma = 1.5 max(0, -lambda_min(s T22))
    makes P PSD; being index-symmetric too, P makes each step monotone (the
    fixed-shift power method of Kolda and Mayo).  The best point is finished
    by Newton steps on its sign's P, and returned as the ascent left it where
    they decline; the value is |<x(x)x, s T22 x(x)x>|.  The trace gives
    ``starts``, power ``steps``, ``newton_steps`` and ``newton_converged``.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
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
        objective = _PowerObjective(sign * t22 + sigma * s4, 2, 4)
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
            best, best_sign, best_x, best_objective = vals[s] - sigma, sign, xs[:, s], objective

    best_x, newton_steps, converged = _newton_finish(best_objective, best_x)
    xx = np.kron(best_x, best_x)
    value = np.ldexp(abs(float(xx @ (best_sign * t22) @ xx)), exp)
    return OracleResult(float(value), (best_x,), restarts,
                        trace={"starts": n_starts, "steps": n_steps, "newton_steps": newton_steps,
                               "newton_converged": converged})


def _unit_rows(w):
    """w with each nonzero row scaled to unit norm, in place, and the row norms."""
    nrm = np.linalg.norm(w, axis=1)
    np.divide(w, nrm[:, None], out=w, where=nrm[:, None] > 0)
    return w, nrm


def inj3_lower(t: np.ndarray, restarts: int = 64, seed: int = 0) -> OracleResult:
    """Lower bound on the injective norm max <T, x (x) y (x) z> of a 3-tensor
    over unit x, y, z, by alternating maximization.

    All restarts run at once on stacked S x d arrays: each update sets one
    factor of every active start to the normalized contraction of T with the
    other two, one product of their outer-product rows with T flattened to
    put that factor's index last.  After the z update the value is the norm
    of that contraction, so no separate value is computed.  A start stops
    when a sweep moves its value by at most 1e-14 relative, or after 200
    sweeps, and leaves the active set.  The best witness is re-evaluated on T.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError("expected a 3-tensor")
    d0, d1, d2 = t.shape
    ts, _ = _pow2_scaled(t)
    starts = []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        starts.append([_unit(rng.normal(size=d)) for d in t.shape])
    x, y, z = (np.array(f) for f in zip(*starts))
    tx = ts.transpose(1, 2, 0).reshape(d1 * d2, d0)
    ty = ts.transpose(0, 2, 1).reshape(d0 * d2, d1)
    tz = ts.reshape(d0 * d1, d2)
    val = np.zeros(restarts)
    active, ya, za = np.arange(restarts), y, z
    for _ in range(200):
        xa = _unit_rows(_outer_rows(ya, za) @ tx)[0]
        ya = _unit_rows(_outer_rows(xa, za) @ ty)[0]
        za, new = _unit_rows(_outer_rows(xa, ya) @ tz)
        go_on = np.abs(new - val[active]) > 1e-14 * np.maximum(1.0, new)
        x[active], y[active], z[active], val[active] = xa, ya, za, new
        active, ya, za = active[go_on], ya[go_on], za[go_on]
        if active.size == 0:
            break
    s = int(np.argmax(val))
    best_w = (x[s], y[s], z[s])
    value = abs(float(np.einsum("ijk,i,j,k->", t, *best_w)))
    return OracleResult(value, best_w, restarts)


def _bloch_grid(cplx, k=8):
    """Unit vectors of C^2 (R^2 when not cplx) on a Bloch-sphere grid: k polar
    angles, slowest, times k azimuths (0 and pi for real states), as rows."""
    phis = np.linspace(0, 2 * np.pi, k, endpoint=False) if cplx else np.array([0.0, np.pi])
    theta = np.repeat(np.linspace(0, np.pi, k), len(phis))
    phase = np.exp(1j * np.tile(phis, k)) if cplx else np.cos(np.tile(phis, k))
    return np.stack([np.cos(theta / 2), phase * np.sin(theta / 2)], axis=1)


def _outer_rows(a, b):
    """Row s is a_s (x) b_s; with a = conj(z), <z, A z> = outer . vec(A)."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], a.shape[1] * b.shape[1])


def _seesaw(pair, x, y):
    """Seesaw on every row of x (S, na) and y (S, nb) at once.

    pair[(a, b), (j, l)] = H[(a, j), (b, l)] for a Hermitian H.  The rows
    conj(y) (x) y times pair^T are the na x na operators H contracted with y
    on the second factor, and conj(x) (x) x times pair those contracted with x
    on the first.  Each step sets x, then y, to the top eigenvector of its
    operator (one product and one stacked eigh per half-step); the top
    eigenvalue after the y half-step is <x (x) y, H x (x) y>, the step's value.
    A row stops when a step gains no more than _SEESAW_RTOL relative, or
    after _SEESAW_STEPS steps, and leaves the active set.  Returns the final
    points, their values and the steps each row took.
    """
    x, y = x.copy(), y.copy()
    na, nb = x.shape[1], y.shape[1]
    oy = _outer_rows(y.conj(), y)
    val = np.real(np.sum((_outer_rows(x.conj(), x) @ pair) * oy, axis=1))
    steps = np.zeros(x.shape[0], dtype=int)
    active = np.arange(x.shape[0])
    for _ in range(_SEESAW_STEPS):
        if active.size == 0:
            break
        x_new = np.linalg.eigh((oy @ pair.T).reshape(-1, na, na))[1][:, :, -1]
        w, v = np.linalg.eigh((_outer_rows(x_new.conj(), x_new) @ pair).reshape(-1, nb, nb))
        y_new, new = v[:, :, -1], w[:, -1]
        go_on = new - val[active] > _SEESAW_RTOL * np.maximum(1.0, np.abs(new))
        x[active], y[active], val[active] = x_new, y_new, new
        steps[active] += 1
        active = active[go_on]
        oy = _outer_rows(y_new[go_on].conj(), y_new[go_on])
    return x, y, val, steps


def h_sep_lower(m: np.ndarray, dims: tuple[int, int], restarts: int = 64, seed: int = 0,
                dim_limit: int = 64) -> OracleResult:
    """Lower bound on max <x (x) y, M (x (x) y)> over unit x, y, by seesaw.

    Each half-step replaces one factor by the top eigenvector of the operator
    obtained by contracting the other factor, so the value never decreases;
    the top eigenvalue after the y half-step is the value itself.  All starts
    run as one batched seesaw (see :func:`_seesaw`): one matrix product and one
    stacked eigh per half-step.  The starts are ``restarts`` random product
    states and, for 2x2 problems, the products of a Bloch-sphere grid with a
    third of it.  ``HSEP_PSD_TOL`` and the stop rule are relative to the
    largest entry of M; the best witness is re-evaluated on M as given.  The
    trace gives ``starts``, ``improving_starts`` (starts that beat every
    earlier one) and ``steps`` (seesaw steps over all starts).
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    na, nb = dims
    m = np.asarray(m)
    if m.shape != (na * nb, na * nb):
        raise ValueError("matrix shape does not match subsystem dimensions")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if na * nb > dim_limit:
        raise ValueError(f"dimension {na * nb} exceeds limit {dim_limit}")
    hs, exp = _pow2_scaled(m)  # the Hermitian part, in place: at most two more copies of M live
    hs += hs.conj().T
    hs *= 0.5
    # hs + tol I has a Cholesky factor iff lambda_min(hs) > -tol (LAPACK factors
    # the Fortran-order copy in place); the spectrum is needed only when it fails
    shifted = np.array(hs, order="F")
    shifted.flat[::na * nb + 1] += HSEP_PSD_TOL
    try:
        sla.cholesky(shifted, lower=True, overwrite_a=True, check_finite=False)
    except sla.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(hs)[0])
        if lam_min < -HSEP_PSD_TOL:
            raise ValueError(f"matrix is not PSD within tolerance (min eig {np.ldexp(lam_min, exp):.3e})")
    del shifted
    cplx = np.iscomplexobj(m)

    xs, ys = [], []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        x = rng.normal(size=na) + (1j * rng.normal(size=na) if cplx else 0.0)
        y = rng.normal(size=nb) + (1j * rng.normal(size=nb) if cplx else 0.0)
        xs.append(_unit(x))
        ys.append(_unit(y))
    xs, ys = np.array(xs), np.array(ys)
    if na == 2 and nb == 2:
        grid = _bloch_grid(cplx)
        sub = grid[::3]
        xs = np.concatenate([xs, np.repeat(grid, len(sub), axis=0)])
        ys = np.concatenate([ys, np.tile(sub, (len(grid), 1))])

    pair = hs.reshape(na, nb, na, nb).transpose(0, 2, 1, 3).reshape(na * na, nb * nb)
    del hs
    xs, ys, vals, steps = _seesaw(pair, xs, ys)
    best_s, improvements = _best_start(vals)
    x, y = xs[best_s], ys[best_s]
    v = np.kron(x, y)
    trace = {"starts": len(vals), "improving_starts": improvements, "steps": int(steps.sum())}
    return OracleResult(float(np.real(np.vdot(v, m @ v))), (x, y), restarts, trace=trace)


def elementary_norms(instance: OperatorInstance) -> dict:
    """Closed-form norms: 2->2, 2->infinity, and their Hoelder product Z."""
    two_two = instance.two_to_two()
    two_inf = instance.two_to_infty()
    return {"two_to_two": two_two, "two_to_infty": two_inf, "Z": two_two**2 * two_inf**2}
