import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from hypernorm import oracles
from hypernorm.core import OperatorInstance, random_operator
from hypernorm.dps import dps_value, h_ext
from hypernorm.oracles import (
    elementary_norms,
    h_sep_lower,
    inj3_lower,
    inj_sym4_lower,
    norm_2_to_q_lower,
)
from hypernorm.oracles import _PowerObjective, _best_start, _newton_finish, _power_ascent, _starts
from hypernorm.polybasis import quartic_gram
from tests.conftest import phi_complex, phi_state


def _ref_quartic_value(rows, x, q):
    u = rows @ x
    return float(np.sum(np.abs(u) ** q))


def _ref_power_ascent(rows, x, q, iters=300, rtol=1e-14):
    """The sequential one-start ascent that the batched loop replaced, kept as
    the reference; it also returns the number of power steps it took."""
    val = _ref_quartic_value(rows, x, q)
    steps = 0
    for _ in range(iters):
        u = rows @ x
        g = rows.conj().T @ (np.abs(u) ** (q - 2) * u)
        gn = np.linalg.norm(g)
        if gn == 0:
            break
        x_new = g / gn
        steps += 1
        val_new = _ref_quartic_value(rows, x_new, q)
        if val_new <= val * (1 + rtol):
            x, val = (x_new, val_new) if val_new > val else (x, val)
            break
        x, val = x_new, val_new
    return x, val, steps


# (matrix, q, form the objective must choose)
PARITY_CASES = {
    "real-lifted": (lambda rng: rng.normal(size=(400, 4)), 4, "lifted"),
    "n1": (lambda rng: rng.normal(size=(7, 1)), 4, "lifted"),
    "rows": (lambda rng: rng.normal(size=(12, 6)), 4, "rows"),
    "complex-lifted": (lambda rng: rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3)), 4, "lifted"),
    "q6-lifted": (lambda rng: rng.normal(size=(300, 3)), 6, "lifted"),
    "q8-lifted": (lambda rng: rng.normal(size=(300, 2)), 8, "lifted"),
    "complex-rows": (lambda rng: rng.normal(size=(12, 6)) + 1j * rng.normal(size=(12, 6)), 4, "rows"),
    "complex-q6-rows": (lambda rng: rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3)), 6, "rows"),
}


def _parity_case(name, rng):
    make, q, form = PARITY_CASES[name]
    inst = OperatorInstance(make(rng))
    rows = inst.quartic_rows(q)
    starts = _starts(rows, inst.n, 16, 0, inst.is_complex)
    return rows, q, form, starts


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_objective_matches_rows(name, rng):
    rows, q, form, starts = _parity_case(name, rng)
    objective = _PowerObjective.for_rows(rows, q)
    assert objective.form == form
    vals, dirs = objective(np.stack(starts, axis=1))
    for s, x in enumerate(starts):
        u = rows @ x
        ref_dir = rows.conj().T @ (np.abs(u) ** (q - 2) * u)
        ref_val = _ref_quartic_value(rows, x, q)
        assert abs(vals[s] - ref_val) <= 1e-12 * ref_val
        assert np.linalg.norm(dirs[:, s] - ref_dir) <= 1e-12 * np.linalg.norm(ref_dir)


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_batched_ascent_matches_sequential(name, rng):
    # The two forms round differently, by about 1e-15 relative, and the stop
    # rule compares gains of 1e-14 relative: a start may stop one step
    # earlier or later, never for another reason.
    rows, q, _, starts = _parity_case(name, rng)
    xs, vals, steps = _power_ascent(_PowerObjective.for_rows(rows, q), np.stack(starts, axis=1))
    for s, x0 in enumerate(starts):
        _, ref_val, ref_steps = _ref_power_ascent(rows, x0, q)
        assert abs(vals[s] - ref_val) <= 1e-12 * ref_val
        assert abs(steps[s] - ref_steps) <= 1
        assert (steps[s] == 300) == (ref_steps == 300)
        assert abs(_ref_quartic_value(rows, xs[:, s], q) - vals[s]) <= 1e-12 * vals[s]


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_batched_ascent_keeps_the_sequential_stop_rule(name, rng):
    # at a coarse rtol no rounding can move a stop: the steps match exactly,
    # and a last step that gains less than rtol is kept when it gains at all
    rows, q, _, starts = _parity_case(name, rng)
    xs, vals, steps = _power_ascent(_PowerObjective.for_rows(rows, q), np.stack(starts, axis=1), rtol=1e-3)
    for s, x0 in enumerate(starts):
        _, ref_val, ref_steps = _ref_power_ascent(rows, x0, q, rtol=1e-3)
        assert steps[s] == ref_steps
        assert abs(vals[s] - ref_val) <= 1e-12 * ref_val
        assert abs(_ref_quartic_value(rows, xs[:, s], q) - vals[s]) <= 1e-12 * vals[s]


class _RefQrObjective:
    """The QR-factor form that the Gram form replaced, kept as the reference:
    sum_j |(F x^(x)lift)_j|^power with power * lift = q, on the rows (F = R,
    lift 1) or on F, the R factor of a chained qr(K) over the row blocks of K
    (F^H F = K^H K), lift q/2 and power 2."""

    def __init__(self, factor, lift, power):
        self.factor, self.lift, self.power = factor, lift, power
        self.adjoint = factor.conj().T

    @classmethod
    def for_rows(cls, rows, q):
        m, n = rows.shape
        if n**q > m * n:
            return cls(rows, 1, q)
        p = q // 2
        width = n**p
        block = max(width, oracles._LIFT_BLOCK_ENTRIES // width)
        f = np.zeros((0, width), dtype=rows.dtype)
        for s in range(0, m, block):
            k = np.stack([_kron_power(r, p) for r in rows[s:s + block]])
            f = scipy.linalg.qr(np.vstack([f, k]), mode="r")[0][:width]
        return cls(f, p, 2)

    def __call__(self, x):
        w = self.factor @ np.stack([_kron_power(c, self.lift) for c in x.T], axis=1)
        a = np.abs(w) ** self.power
        h = self.adjoint @ (np.abs(w) ** (self.power - 2) * w)
        if self.lift > 1:
            z = np.stack([_kron_power(c.conj(), self.lift - 1) for c in x.T], axis=1)
            h = np.einsum("ijs,js->is", h.reshape(x.shape[0], -1, x.shape[1]), z)
        return np.sum(a, axis=0), h


def _kron_power(v, k):
    out = np.ones(1, dtype=v.dtype)
    for _ in range(k):
        out = np.kron(out, v)
    return out


def _ref_batched_ascent(objective, x, iters=300, rtol=1e-14):
    """The batched ascent as it ran on the QR-factor form, kept as the
    reference: it gathers and scatters the active columns on every step."""
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


@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_gram_form_matches_the_qr_factor_form(name, blocked, rng, monkeypatch):
    # blocked: one block per n^(q/2) rows of K, so every lifted case chains
    # at least 18 blocks
    rows, q, form, starts = _parity_case(name, rng)
    if blocked:
        monkeypatch.setattr(oracles, "_LIFT_BLOCK_ENTRIES", 1)
    x0 = np.stack(starts, axis=1)
    objective, ref = _PowerObjective.for_rows(rows, q), _RefQrObjective.for_rows(rows, q)
    assert objective.form == form and (ref.lift > 1) == (form == "lifted")
    vals, dirs = objective(x0)
    ref_vals, ref_dirs = ref(x0)
    assert np.all(np.abs(vals - ref_vals) <= 1e-12 * ref_vals)
    assert np.all(np.linalg.norm(dirs - ref_dirs, axis=0) <= 1e-12 * np.linalg.norm(ref_dirs, axis=0))
    # near the 1e-14 stop the two forms' rounding can move a stop by a step
    # or two, so only the values are compared
    xs, vals, _ = _power_ascent(objective, x0)
    _, ref_vals, _ = _ref_batched_ascent(ref, x0)
    assert np.all(np.abs(vals - ref_vals) <= 1e-12 * ref_vals)
    assert np.all(np.abs(ref(xs)[0] - vals) <= 1e-12 * vals)


@pytest.mark.parametrize("q, cplx", [(4, False), (4, True), (6, False), (6, True)])
def test_lifted_gram_over_row_blocks(monkeypatch, rng, q, cplx):
    # one block per n^(q/2) rows of K chains 25 blocks at q = 4 and 12 at q = 6
    shape = (400, 4) if q == 4 else (300, 3)
    a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0.0)
    k = np.stack([_kron_power(r, q // 2) for r in a])
    gram = k.conj().T @ k
    whole = _PowerObjective.for_rows(a, q)
    monkeypatch.setattr(oracles, "_LIFT_BLOCK_ENTRIES", 1)
    blocked = _PowerObjective.for_rows(a, q)
    for g in (whole.matrix, blocked.matrix):
        assert g.shape == gram.shape and g.dtype == a.dtype
        assert np.linalg.norm(g - gram) <= 1e-12 * np.linalg.norm(gram)


def test_lifted_gram_is_the_quartic_gram(rng):
    a = rng.normal(size=(300, 4))
    g = _PowerObjective.for_rows(a, 4).matrix
    assert np.array_equal(g, g.T)
    assert np.linalg.norm(g - quartic_gram(a)) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("n,seed", [(2, 8), (3, 8), (4, 3)])
def test_sym4_gram_matches_its_square_root_factor(n, seed):
    # the ascent on P itself against the ascent on the eigh square root of P
    # (clipped at 0), for both signs of an indefinite tensor
    g = np.random.default_rng(seed)
    a = g.normal(size=(n + 2, n))
    c = g.choice([-1.0, 1.0], n + 2) * g.uniform(0.5, 2.0, n + 2)
    t22 = np.einsum("i,ia,ib,ic,id->abcd", c, a, a, a, a).reshape(n * n, n * n)
    ii = np.einsum("ij,kl->ijkl", np.eye(n), np.eye(n))
    s4 = (ii + ii.transpose(0, 2, 1, 3) + ii.transpose(0, 3, 2, 1)).reshape(n * n, n * n) / 3.0
    x0 = g.normal(size=(n, 16))
    x0 /= np.linalg.norm(x0, axis=0)
    for sign in (1.0, -1.0):
        sigma = 1.5 * max(0.0, -float(np.linalg.eigvalsh(sign * t22)[0]))
        p = sign * t22 + sigma * s4
        w, v = np.linalg.eigh(p)
        ref = _RefQrObjective(np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T, 2, 2)
        _, vals, _ = _power_ascent(_PowerObjective(p, 2, 4), x0)
        _, ref_vals, _ = _ref_batched_ascent(ref, x0)
        assert np.all(np.abs(vals - ref_vals) <= 1e-12 * ref_vals.max())


@pytest.mark.parametrize("m", [2, 8])
def test_zero_direction_stops_in_place(m):
    # column 1 is zero, so e_1 has a zero value and a zero direction in both forms
    rows = np.zeros((m, 2))
    rows[:, 0] = np.arange(1.0, m + 1)
    objective = _PowerObjective.for_rows(rows, 4)
    assert objective.form == ("lifted" if m == 8 else "rows")
    x0 = np.array([[0.0, 0.6], [1.0, 0.8]])
    xs, vals, steps = _power_ascent(objective, x0)
    assert np.array_equal(xs[:, 0], x0[:, 0]) and vals[0] == 0.0 and steps[0] == 0
    assert abs(vals[1] - np.sum(rows[:, 0] ** 4)) <= 1e-12 * vals[1]


def _ref_power_ascent_loop(objective, x, iters=300, rtol=1e-14):
    """The batched power ascent as it ran before the live columns got their
    own compact arrays, kept as the reference for complex inputs."""
    x = x.copy()
    val, g = objective(x)
    steps = np.zeros(x.shape[1], dtype=int)
    active = np.arange(x.shape[1])
    for _ in range(iters):
        gn = np.sqrt(np.einsum("is,is->s", g.conj(), g).real)
        if not gn.all():
            live = gn > 0
            active, g, gn = active[live], g[:, live], gn[live]
        if active.size == 0:
            break
        x_new = g / gn
        val_new, g = objective(x_new)
        steps[active] += 1
        full = active.size == x.shape[1]
        old = val if full else val[active]
        better = val_new > old
        go_on = val_new > old * (1 + rtol)
        if full and better.all() and go_on.all():
            x, val = x_new, val_new
            continue
        x[:, active[better]] = x_new[:, better]
        val[active[better]] = val_new[better]
        active, g = active[go_on], g[:, go_on]
    return x, val, steps


@pytest.mark.parametrize("name", [n for n in sorted(PARITY_CASES) if n.startswith("complex")])
def test_complex_ascent_is_unchanged_bit_for_bit(name, rng):
    rows, q, _, starts = _parity_case(name, rng)
    x0 = np.stack(starts, axis=1)
    for rtol in (1e-14, 1e-3):
        got = _power_ascent(_PowerObjective.for_rows(rows, q), x0, rtol=rtol)
        ref = _ref_power_ascent_loop(_PowerObjective.for_rows(rows, q), x0, rtol=rtol)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_best_start_counts_ulp_ties_once():
    one = 3.0
    ulp = np.nextafter(one, 4.0)
    assert _best_start(np.array([one, ulp])) == (1, 1)
    assert _best_start(np.array([one, one * (1 + 1e-9)])) == (1, 2)
    # the running best is the one to beat, not the previous start
    assert _best_start(np.array([one, 2.0, ulp, 4.0])) == (3, 2)


def _riemannian_gradient(rows, x, q):
    """grad f on the sphere at the real unit x, f = sum_i <r_i, x>^q."""
    u = rows @ x
    g = q * rows.T @ u ** (q - 1)
    return g - (x @ g) * x


def _oracle_starts(instance, q, restarts, seed):
    """The 2->q oracle's scaled rows, their scale exponent, its objective and
    its starts as columns, recomputed from its own pieces."""
    rows, exp = oracles._pow2_scaled(instance.quartic_rows(q))
    objective = _PowerObjective.for_rows(rows, q)
    starts = _starts(rows, instance.n, restarts, seed, instance.is_complex)
    grid = None if instance.is_complex else oracles._grid_starts(instance.n)
    if grid is not None:
        vals, _ = objective(grid.T)
        starts = [grid[i] for i in np.argsort(vals)[::-1][:8]] + starts
    return rows, exp, objective, np.stack(starts, axis=1)


def _ascent_best(instance, q, restarts, seed):
    """The oracle's scaled rows, their scale exponent, its objective and the
    best column of its power ascent."""
    rows, exp, objective, x0 = _oracle_starts(instance, q, restarts, seed)
    xs, vals, _ = _power_ascent(objective, x0)
    return rows, exp, objective, xs[:, _best_start(vals)[0]]


def _power_only_best(instance, q, restarts, seed):
    """The largest value over the oracle's own starts of the power ascent run
    to convergence (no step cap in practice), on the oracle's scaled rows."""
    _, exp, objective, x0 = _oracle_starts(instance, q, restarts, seed)
    _, vals, _ = _power_ascent(objective, x0, iters=100_000)
    return np.ldexp(vals.max() ** (1.0 / q), exp)


# (dist, n, m, q, form the oracle works on)
FINISH_CASES = {
    "sign-lifted-q4": ("sign", 4, 80, 4, "lifted"),
    "gaussian-rows-q4": ("gaussian", 5, 20, 4, "rows"),
    "unit-lifted-q4": ("unit", 4, 100, 4, "lifted"),
    "gaussian-lifted-q6": ("gaussian", 3, 300, 6, "lifted"),
    "sign-rows-q6": ("sign", 4, 40, 6, "rows"),
    "unit-rows-q6": ("unit", 5, 30, 6, "rows"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FINISH_CASES))
def test_newton_finish_reaches_the_converged_power_optimum(name, seed):
    dist, n, m, q, form = FINISH_CASES[name]
    inst = random_operator(dist, n, m, seed)
    res = norm_2_to_q_lower(inst, q, restarts=16, seed=seed)
    assert res.trace["form"] == form and res.trace["newton_steps"] >= 1 and res.trace["newton_converged"] is True
    assert res.value >= _power_only_best(inst, q, 16, seed) * (1 - 1e-12)
    rows, x = inst.quartic_rows(q), res.witness[0]
    f = np.sum((rows @ x) ** q)
    assert abs(f ** (1.0 / q) - res.value) <= 1e-12 * res.value
    assert np.linalg.norm(_riemannian_gradient(rows, x, q)) <= 1e-9 * f


def _sym4_instance(seed, sign):
    """sum_i c_i a_i^(x)4 over unit a_i with mixed-sign c: sign * 3 on a_0
    and +-0.3 on the 4 others, so the largest |<T, x^4>| (at least
    3 - 4 * 0.3) is reached where sign * <T, x^4> > 0."""
    g = np.random.default_rng(seed)
    a = g.normal(size=(5, 4))
    a /= np.linalg.norm(a, axis=1)[:, None]
    c = np.array([3.0 * sign, 0.3, -0.3, 0.3, -0.3])
    return np.einsum("i,ia,ib,ic,id->abcd", c, a, a, a, a)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_newton_finish_on_inj_sym4_for_both_signs(seed, sign):
    t = _sym4_instance(seed, sign)
    res = inj_sym4_lower(t, restarts=16, seed=seed)
    x = res.witness[0]
    signed = np.einsum("abcd,a,b,c,d->", t, x, x, x, x)
    assert np.sign(signed) == sign and abs(abs(signed) - res.value) <= 1e-12 * res.value
    assert set(res.trace) == {"starts", "steps", "newton_steps", "newton_converged"}
    assert res.trace["newton_steps"] >= 1 and res.trace["newton_converged"] is True
    grad = 4.0 * np.einsum("abcd,b,c,d->a", t, x, x, x)
    assert np.linalg.norm(grad - (x @ grad) * x) <= 1e-9 * res.value
    # against the power ascent run to convergence on the same starts and
    # shifted forms, for both signs
    n = t.shape[0]
    ts, exp = oracles._pow2_scaled(t)
    t22 = ts.reshape(n * n, n * n)
    ii = np.einsum("ij,kl->ijkl", np.eye(n), np.eye(n))
    s4 = (ii + ii.transpose(0, 2, 1, 3) + ii.transpose(0, 3, 2, 1)).reshape(n * n, n * n) / 3.0
    ref = 0.0
    for sg in (1.0, -1.0):
        sigma = 1.5 * max(0.0, -float(np.linalg.eigvalsh(sg * t22)[0]))
        starts = [oracles._unit(np.random.default_rng(np.random.SeedSequence([seed, r, int(sg > 0)]))
                                .normal(size=n)) for r in range(16)]
        _, vals, _ = _power_ascent(_PowerObjective(sg * t22 + sigma * s4, 2, 4), np.stack(starts, axis=1),
                                   iters=100_000)
        ref = max(ref, vals.max() - sigma)
    assert res.value >= np.ldexp(ref, exp) * (1 - 1e-12)


def _c12_instance():
    from hypernorm.linalg import sym_eig
    from hypernorm.sse import cycle_graph, subspace_instance

    w, v = sym_eig(cycle_graph(12).normalized_adjacency())
    return subspace_instance(v[:, w >= 0.5 - 1e-12], 4)


def _circle_plateau():
    # sum_k <(cos t_k, sin t_k, 0), x>^4 over 6 equally spaced t_k is
    # (9 / 4) (x_1^2 + x_2^2)^2, so every unit vector of the first two
    # coordinates is a maximum, with a flat direction along the circle
    t = np.pi * np.arange(6) / 6
    rows = np.stack([np.cos(t), np.sin(t), np.zeros(6)], axis=1)
    return OperatorInstance(np.vstack([rows, [[0.0, 0.0, 1.0]]]))


def _assert_ascent_witness(res, inst, q, restarts, seed):
    """The witness is the ascent's best column bit for bit, and the value is
    the rows' value there."""
    rows, exp, _, x = _ascent_best(inst, q, restarts, seed)
    assert np.array_equal(res.witness[0], x)
    f = np.ldexp(_ref_quartic_value(rows, x, q) ** (1.0 / q), exp)
    assert abs(res.value - f) <= 1e-14 * f


@pytest.mark.parametrize("make", [_c12_instance, _circle_plateau], ids=["C12", "circle"])
def test_degenerate_maximum_declines_newton(make):
    # the tangent Hessian at the best point is singular: the finish takes no
    # step, and the witness is the ascent's best column as it stands
    inst = make()
    res = norm_2_to_q_lower(inst, 4, restarts=16, seed=3)
    assert res.trace["newton_steps"] == 0 and res.trace["newton_converged"] is False
    _assert_ascent_witness(res, inst, 4, 16, 3)


def test_newton_finish_declines_on_the_plateau_itself():
    rows = _circle_plateau().quartic_rows(4)
    x = np.array([0.6, 0.8, 0.0])
    for form in (_PowerObjective(rows, 1, 4), _PowerObjective.for_rows(np.vstack([rows] * 20), 4)):
        y, taken, done = _newton_finish(form, x)
        assert y is x and taken == 0 and not done


def test_one_column_finishes_with_no_step(monkeypatch):
    # the sphere of R^1 is {-1, 1}: no tangent direction, so no Newton step,
    # and the result is the one with the finish removed
    inst = OperatorInstance(np.arange(1.0, 11.0)[:, None])
    res = norm_2_to_q_lower(inst, 4, restarts=8)
    assert res.trace["newton_steps"] == 0 and res.trace["newton_converged"] is True
    assert abs(res.value ** 4 - np.sum(np.arange(1.0, 11.0) ** 4)) <= 1e-12 * res.value ** 4
    monkeypatch.setattr(oracles, "_newton_finish", lambda objective, x: (x, 0, False))
    ref = norm_2_to_q_lower(inst, 4, restarts=8)
    assert res.value == ref.value and np.array_equal(res.witness[0], ref.witness[0])


def test_complex_inputs_skip_the_finish(rng, monkeypatch):
    a = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    res = norm_2_to_q_lower(OperatorInstance(a), 4, restarts=8, seed=2)
    assert res.trace["newton_steps"] == 0 and res.trace["newton_converged"] is False
    _assert_ascent_witness(res, OperatorInstance(a), 4, 8, 2)

    def fail(*args):
        raise AssertionError("the Newton finish ran on a complex point")

    monkeypatch.setattr(oracles, "_newton_finish", fail)
    ref = norm_2_to_q_lower(OperatorInstance(a), 4, restarts=8, seed=2)
    assert res.value == ref.value and np.array_equal(res.witness[0], ref.witness[0])


def _ref_linesearch_polish(fun, grad, x, iters=60):
    """The projected-gradient polish with a doubling/halving step search that
    ran where the Newton finish declines, kept as the reference."""
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
            cand = oracles._unit(x + step * g)
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


def _ref_polished_value(inst, q, restarts, seed):
    """The 2->q oracle's value as it was with the line-search polish: the
    Newton finish where it met its stop rule, else the polish on the rows
    from where it stopped (from the ascent's point on complex inputs)."""
    rows, exp, objective, x = _ascent_best(inst, q, restarts, seed)
    on_rows = _PowerObjective(rows, 1, q)

    def fun(x):
        return float(on_rows(x[:, None])[0][0])

    def grad(x):
        return q * on_rows(x[:, None])[1][:, 0]

    done = False
    if not inst.is_complex:
        x, _, done = _newton_finish(objective, x)
    if not done:
        x = oracles._unit(_ref_linesearch_polish(fun, grad, x)[0])
    return np.ldexp(fun(x) ** (1.0 / q), exp)


def _gate_case(name, rng):
    if name == "C12":
        return _c12_instance(), 4
    if name == "circle":
        return _circle_plateau(), 4
    make, q, _ = PARITY_CASES[name]
    return OperatorInstance(make(rng)), q


@pytest.mark.parametrize("name", sorted(PARITY_CASES) + ["C12", "circle"])
def test_no_value_lost_without_the_line_search(name, rng):
    # dropping the polish loses at most rounding where the finish declines or
    # does not run, and changes no bit where it converges
    inst, q = _gate_case(name, rng)
    res = norm_2_to_q_lower(inst, q, restarts=16, seed=3)
    ref = _ref_polished_value(inst, q, 16, 3)
    assert res.value >= ref * (1 - 1e-13)
    assert res.trace["newton_converged"] is (not inst.is_complex and name not in ("C12", "circle"))
    if res.trace["newton_converged"]:
        assert res.value == ref


class TestNorm2ToQ:
    def test_identity_counting(self):
        res = norm_2_to_q_lower(OperatorInstance(np.eye(5)), 4, restarts=8)
        assert abs(res.value - 1.0) <= 1e-9
        # witness concentrates on one coordinate
        assert np.isclose(np.abs(res.witness[0]).max(), 1.0, atol=1e-5)

    def test_single_unit_row(self):
        res = norm_2_to_q_lower(OperatorInstance(np.array([[0.6, 0.8]])), 4, restarts=8)
        assert abs(res.value - 1.0) <= 1e-9
        assert np.allclose(np.abs(res.witness[0]), [0.6, 0.8], atol=1e-6)

    def test_sign_matrix_gaussian_floor(self, rng):
        # scaled sign rows in the expectation convention clear the universal
        # Gaussian test-vector floor (3 / (1 + 2/n))^(1/4)
        a = rng.choice([-1.0, 1.0], size=(8, 4)) / 2.0
        res = norm_2_to_q_lower(OperatorInstance(a, "expectation"), 4, restarts=32, seed=1)
        assert res.value >= (3.0 / 1.5) ** 0.25 - 1e-9

    def test_witness_reevaluation_identity(self, rng):
        inst = OperatorInstance(rng.normal(size=(6, 4)))
        res = norm_2_to_q_lower(inst, 4, restarts=8, seed=3)
        rows = inst.quartic_rows()
        val = float(np.sum((rows @ res.witness[0]) ** 4)) ** 0.25
        assert abs(val - res.value) <= 1e-10
        assert abs(np.linalg.norm(res.witness[0]) - 1.0) <= 1e-12

    def test_restart_monotonicity(self, rng):
        inst = OperatorInstance(rng.normal(size=(12, 6)))
        vals = [norm_2_to_q_lower(inst, 4, restarts=k, seed=11).value for k in (2, 4, 8, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_matrix(self):
        res = norm_2_to_q_lower(OperatorInstance(np.zeros((3, 3))), 4)
        assert res.value == 0.0
        # the ordinary path: a full trace, and a unit start as the witness
        assert res.trace.keys() == norm_2_to_q_lower(OperatorInstance(np.eye(3)), 4).trace.keys()
        assert res.trace["steps"] == 0
        assert np.linalg.norm(res.witness[0]) == pytest.approx(1.0)

    def test_q6(self, rng):
        res = norm_2_to_q_lower(OperatorInstance(np.eye(3)), 6, restarts=8)
        assert abs(res.value - 1.0) <= 1e-9

    @pytest.mark.parametrize("shape", [(6, 4), (200, 2)])
    def test_scale_equivariance(self, rng, shape):
        a = rng.normal(size=shape)
        base = norm_2_to_q_lower(OperatorInstance(a), 4, restarts=8, seed=1).value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for c in (2.0**-660, 1e-8, 1.0, 1e8, 2.0**660):
                val = norm_2_to_q_lower(OperatorInstance(c * a), 4, restarts=8, seed=1).value
                assert abs(val - c * base) <= 1e-12 * c * base

    def test_trace_reports_form_and_steps(self, rng):
        for shape, form in (((300, 4), "lifted"), ((12, 6), "rows")):
            res = norm_2_to_q_lower(OperatorInstance(rng.normal(size=shape)), 4, restarts=8)
            assert res.trace["form"] == form
            assert res.trace["starts"] == 8 + 5
            assert res.trace["starts"] <= res.trace["steps"] <= 300 * res.trace["starts"]
            assert 1 <= res.trace["improving_starts"] <= res.trace["starts"]
            assert 0 <= res.trace["newton_steps"] <= oracles._NEWTON_STEPS
            assert isinstance(res.trace["newton_converged"], bool)

    def test_bad_q(self):
        with pytest.raises(ValueError):
            norm_2_to_q_lower(OperatorInstance(np.eye(2)), 3)


class TestInjSym4:
    def test_rank_one(self):
        t = np.zeros((2, 2, 2, 2))
        t[0, 0, 0, 0] = 1.0
        assert abs(inj_sym4_lower(t, restarts=8).value - 1.0) <= 1e-8

    def test_cross_oracle_agreement(self, rng):
        a = rng.normal(size=(5, 3))
        t = np.einsum("ia,ib,ic,id->abcd", a, a, a, a)
        v4 = inj_sym4_lower(t, restarts=32, seed=2).value
        v24 = norm_2_to_q_lower(OperatorInstance(a), 4, restarts=32, seed=2).value
        assert abs(v4 - v24**4) <= 1e-8 * max(1.0, v4)

    def test_negative_definite_direction(self):
        # |<T, x^4>| maximization must look at both signs
        t = np.zeros((2, 2, 2, 2))
        t[0, 0, 0, 0] = -2.0
        t[1, 1, 1, 1] = 1.0
        assert abs(inj_sym4_lower(t, restarts=8).value - 2.0) <= 1e-8

    def test_asymmetric_rejected(self, rng):
        t = rng.normal(size=(2, 2, 2, 2))
        with pytest.raises(ValueError):
            inj_sym4_lower(t)

    def test_tiny_asymmetric_rejected(self, rng):
        # the symmetry check is relative to the largest entry, not absolute
        with pytest.raises(ValueError):
            inj_sym4_lower(1e-20 * rng.normal(size=(2, 2, 2, 2)))

    @pytest.mark.parametrize("n,seed,restarts", [(2, 8, 16), (3, 8, 16), (4, 3, 4)])
    def test_indefinite_matches_dense_grid(self, n, seed, restarts):
        # sum_i c_i a_i^(x)4 with mixed-sign c: neither sign of <T, x^4> is
        # definite, so both shifted ascents matter (n = 4 has no start grid);
        # the reference is an independent dense sample of the sphere,
        # polished by scipy
        g = np.random.default_rng(seed)
        a = g.normal(size=(n + 2, n))
        c = g.choice([-1.0, 1.0], n + 2) * g.uniform(0.5, 2.0, n + 2)
        t = np.einsum("i,ia,ib,ic,id->abcd", c, a, a, a, a)

        def f(x):
            x = x / np.linalg.norm(x)
            return abs(float(np.einsum("abcd,a,b,c,d->", t, x, x, x, x)))

        if n == 2:
            ang = np.linspace(0, np.pi, 20_000, endpoint=False)
            pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        elif n == 3:
            th, ph = np.meshgrid(np.linspace(0, np.pi, 200), np.linspace(0, 2 * np.pi, 400, endpoint=False))
            pts = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1).reshape(-1, 3)
        else:
            pts = g.normal(size=(200_000, n))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
        signed = np.einsum("abcd,sa,sb,sc,sd->s", t, pts, pts, pts, pts)
        assert signed.max() > 0 > signed.min()
        ref = max(-scipy.optimize.minimize(lambda x: -f(x), pts[i], method="BFGS",
                                           options={"gtol": 1e-12}).fun
                  for i in np.argsort(np.abs(signed))[::-1][:5])
        res = inj_sym4_lower(t, restarts=restarts, seed=0)
        assert abs(res.value - ref) <= 1e-9 * ref
        assert abs(f(res.witness[0]) - res.value) <= 1e-12 * res.value
        assert res.trace["starts"] == 2 * (restarts + (4 if n <= 3 else 0))
        assert res.trace["starts"] <= res.trace["steps"] <= 300 * res.trace["starts"]


def _ref_inj3(t, restarts, seed):
    """The sequential one-restart alternation that the batched one replaced,
    over the same starts, kept as the reference."""
    ts = oracles._pow2_scaled(t)[0]
    unit = oracles._unit
    best, best_w = -np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        x, y, z = (unit(rng.normal(size=d)) for d in t.shape)
        val = 0.0
        for _ in range(200):
            x = unit(np.einsum("ijk,j,k->i", ts, y, z))
            y = unit(np.einsum("ijk,i,k->j", ts, x, z))
            z = unit(np.einsum("ijk,i,j->k", ts, x, y))
            new = float(np.einsum("ijk,i,j,k->", ts, x, y, z))
            if abs(new - val) <= 1e-14 * max(1.0, abs(new)):
                val = new
                break
            val = new
        if abs(val) > best:
            best, best_w = abs(val), (x, y, z)
    return abs(float(np.einsum("ijk,i,j,k->", t, *best_w)))


def _rank_one3(rng):
    return np.einsum("i,j,k->ijk", *(rng.normal(size=d) for d in (3, 2, 4)))


INJ3_REF_CASES = {
    "gauss-3x4x5": lambda rng: rng.normal(size=(3, 4, 5)),
    "flattening-4x4x5": lambda rng: (lambda a: np.einsum("ia,ib->abi", a, a))(rng.normal(size=(5, 4))),
    "rank-one": _rank_one3,
    "ones-2x2x2": lambda rng: np.ones((2, 2, 2)),
    "thin-1x3x2": lambda rng: rng.normal(size=(1, 3, 2)),
    "sparse": lambda rng: np.where(rng.random((3, 3, 3)) < 0.2, rng.normal(size=(3, 3, 3)), 0.0),
    "zero": lambda rng: np.zeros((2, 3, 2)),
}


class TestInj3:
    @pytest.mark.parametrize("name", sorted(INJ3_REF_CASES))
    def test_batched_matches_sequential(self, name, rng):
        t = INJ3_REF_CASES[name](rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = inj3_lower(t, restarts=12, seed=3)
        ref = _ref_inj3(t, 12, 3)
        assert res.value >= ref * (1 - 1e-12)
        x, y, z = res.witness
        assert res.value == abs(float(np.einsum("ijk,i,j,k->", t, x, y, z)))
        assert all(v.shape == (d,) for v, d in zip(res.witness, t.shape))

    def test_cross_oracle(self, rng):
        a = rng.normal(size=(5, 3))
        t3 = np.einsum("ia,ib->abi", a, a)
        v3 = inj3_lower(t3, restarts=32, seed=2).value
        v24 = norm_2_to_q_lower(OperatorInstance(a), 4, restarts=32, seed=2).value
        assert abs(v3**2 - v24**4) <= 1e-7 * max(1.0, v24**4)


def _ref_h_sep(m, dims, restarts, seed, iters=300):
    """The sequential one-start seesaw that the batched one replaced, over the
    same starts, kept as the reference."""
    na, nb = dims
    cplx = np.iscomplexobj(m)
    ms = m / np.abs(m).max()
    m4 = ms.reshape(na, nb, na, nb)

    def value(mat, x, y):
        v = np.kron(x, y)
        return float(np.real(np.vdot(v, mat @ v)))

    def top(h):
        return np.linalg.eigh((h + h.conj().T) / 2.0)[1][:, -1]

    starts = []
    for r in range(restarts):
        g = np.random.default_rng(np.random.SeedSequence([seed, r]))
        x = g.normal(size=na) + (1j * g.normal(size=na) if cplx else 0.0)
        y = g.normal(size=nb) + (1j * g.normal(size=nb) if cplx else 0.0)
        starts.append((x / np.linalg.norm(x), y / np.linalg.norm(y)))
    if dims == (2, 2):
        bloch = [np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)]) if cplx
                 else np.array([np.cos(t / 2), np.cos(p) * np.sin(t / 2)])
                 for t in np.linspace(0, np.pi, 8)
                 for p in (np.linspace(0, 2 * np.pi, 8, endpoint=False) if cplx else [0.0, np.pi])]
        starts += [(xa, yb) for xa in bloch for yb in bloch[::3]]
    best, best_w = -np.inf, None
    for x, y in starts:
        val = value(ms, x, y)
        for _ in range(iters):
            x = top(np.einsum("ajbl,j,l->ab", m4, y.conj(), y))
            y = top(np.einsum("ajbl,a,b->jl", m4, x.conj(), x))
            new = value(ms, x, y)
            stop, val = new - val <= 1e-14 * max(1.0, abs(new)), new
            if stop:
                break
        if val > best:
            best, best_w = val, (x, y)
    return value(m, *best_w), len(starts)


def _psd(rng, d, cplx=False):
    g = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if cplx else 0.0)
    return g @ g.conj().T / d


HSEP_REF_CASES = {
    "real-2x3": (lambda rng: _psd(rng, 6), (2, 3)),
    "real-3x3": (lambda rng: _psd(rng, 9), (3, 3)),
    "complex-2x2": (lambda rng: _psd(rng, 4, cplx=True), (2, 2)),
    "phi2": (lambda rng: phi_complex(2), (2, 2)),
    "phi3": (lambda rng: phi_complex(3), (3, 3)),
}


class TestHSep:
    def test_large_input_holds_at_most_two_more_copies(self, rng, monkeypatch):
        # a 900 x 900 complex PSD input near a product state (so the seesaw
        # takes a few steps): the Hermitian part is formed in the scaled copy
        # and dropped once the pair matrix is built, bit for bit the seesaw
        # input (M + M^H) / 2 of the scaled M
        x = rng.normal(size=(30, 1)) + 1j * rng.normal(size=(30, 1))
        a = np.kron(x, x) + 0.1 * (rng.normal(size=(900, 2)) + 1j * rng.normal(size=(900, 2)))
        m = a @ a.conj().T
        tracemalloc.start()
        try:
            value = h_sep_lower(m, (30, 30), restarts=1, dim_limit=900).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * m.nbytes
        seen = []
        seesaw = oracles._seesaw

        def record(pair, *rest):
            seen.append(pair.copy())
            return seesaw(pair, *rest)

        monkeypatch.setattr(oracles, "_seesaw", record)
        assert h_sep_lower(m, (30, 30), restarts=1, dim_limit=900).value == value
        ms = oracles._pow2_scaled(m)[0]
        ref = ((ms + ms.conj().T) / 2.0).reshape(30, 30, 30, 30).transpose(0, 2, 1, 3).reshape(900, 900)
        assert np.array_equal(seen[0], ref)

    @pytest.mark.parametrize("name", sorted(HSEP_REF_CASES))
    def test_batched_matches_sequential(self, name, rng):
        make, dims = HSEP_REF_CASES[name]
        m = make(rng)
        res = h_sep_lower(m, dims, restarts=12, seed=3)
        ref, n_starts = _ref_h_sep(m, dims, 12, 3)
        assert res.value >= ref - 1e-12 * max(1.0, ref)
        assert res.trace["starts"] == n_starts

    def test_trace_keys(self, rng):
        for dims, restarts, grid in (((2, 3), 8, 0), ((2, 2), 8, 16 * 6)):
            res = h_sep_lower(_psd(rng, dims[0] * dims[1]), dims, restarts=restarts)
            assert set(res.trace) == {"starts", "improving_starts", "steps"}
            assert res.trace["starts"] == restarts + grid
            assert res.trace["starts"] <= res.trace["steps"] <= 300 * res.trace["starts"]
            assert 1 <= res.trace["improving_starts"] <= res.trace["starts"]

    @pytest.mark.parametrize("k", range(3))
    def test_real_2x2_matches_dense_grid(self, k):
        m = _psd(np.random.default_rng(100 + k), 4)
        ang = np.linspace(0, np.pi, 512, endpoint=False)
        units = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        prods = (units[:, None, :, None] * units[None, :, None, :]).reshape(-1, 4)
        vals = np.einsum("si,ij,sj->s", prods, m, prods)

        def neg(t):
            v = np.kron([np.cos(t[0]), np.sin(t[0])], [np.cos(t[1]), np.sin(t[1])])
            return -(v @ m @ v)

        s = int(np.argmax(vals))
        out = scipy.optimize.minimize(neg, [ang[s // 512], ang[s % 512]], method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-14})
        best = max(vals[s], -out.fun)
        assert abs(h_sep_lower(m, (2, 2), restarts=8).value - best) <= 1e-6 * max(1.0, best)

    @pytest.mark.parametrize("dims, cplx", [((3, 3), False), ((2, 3), True), ((3, 2), False)])
    def test_monotone_in_restarts(self, rng, dims, cplx):
        # 16 restarts run the 8 starts of the smaller budget and 8 more; only
        # the rounding of the batched products may differ, by a few ulps
        for _ in range(4):
            m = _psd(rng, dims[0] * dims[1], cplx)
            few = h_sep_lower(m, dims, restarts=8, seed=1).value
            assert h_sep_lower(m, dims, restarts=16, seed=1).value >= few * (1 - 1e-14)

    @pytest.mark.parametrize("call", [
        lambda r: h_sep_lower(np.eye(9), (3, 3), restarts=r),
        lambda r: inj3_lower(np.ones((2, 2, 2)), restarts=r),
        lambda r: inj_sym4_lower(np.ones((2, 2, 2, 2)), restarts=r),
    ], ids=["h_sep_lower", "inj3_lower", "inj_sym4_lower"])
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_no_restarts(self, call, restarts):
        with pytest.raises(ValueError, match="need at least one restart"):
            call(restarts)

    def test_identity(self):
        assert abs(h_sep_lower(np.eye(6).astype(complex), (2, 3), restarts=4).value - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_maximally_entangled(self, n):
        res = h_sep_lower(phi_state(n).astype(complex), (n, n), restarts=16)
        assert abs(res.value - 1.0 / n) <= 1e-6

    def test_rank_one_product(self, rng):
        x = rng.normal(size=2)
        x /= np.linalg.norm(x)
        y = rng.normal(size=3)
        y /= np.linalg.norm(y)
        m = np.outer(np.kron(x, y), np.kron(x, y))
        assert abs(h_sep_lower(m, (2, 3), restarts=8).value - 1.0) <= 1e-8

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            h_sep_lower(-np.eye(4), (2, 2))

    def test_rejects_tiny_non_psd(self):
        # the PSD test is relative to the largest entry, not absolute
        with pytest.raises(ValueError):
            h_sep_lower(-1e-20 * np.eye(4), (2, 2))

    def test_monotone_seesaw_value_is_witnessed(self, rng):
        m = rng.normal(size=(6, 6))
        m = m @ m.T
        res = h_sep_lower(m, (2, 3), restarts=8, seed=5)
        x, y = res.witness
        v = np.kron(x, y)
        assert abs(np.real(np.vdot(v, m @ v)) - res.value) <= 1e-10 * max(1, res.value)


def _scale_cases():
    g = np.random.default_rng(3)
    a = g.normal(size=(5, 3))
    c = np.array([1.0, -1.5, 0.8, -0.6, 1.2])
    t4 = np.einsum("i,ia,ib,ic,id->abcd", c, a, a, a, a)
    b = np.abs(g.normal(size=(5, 3)))
    t3 = np.einsum("ia,ib->abi", b, b)
    m = g.normal(size=(9, 9))
    return [
        pytest.param(lambda x: inj_sym4_lower(x, restarts=8, seed=0).value, t4, id="inj_sym4"),
        pytest.param(lambda x: inj3_lower(x, restarts=8, seed=0).value, t3, id="inj3"),
        pytest.param(lambda x: h_sep_lower(x, (3, 3), restarts=4, seed=0).value, m @ m.T, id="h_sep"),
    ]


@pytest.mark.parametrize("oracle,x", _scale_cases())
def test_oracles_scale_invariant(oracle, x):
    # each oracle scales its input by a power of two, so its stop rules are
    # relative: value(c x) / c equals value(x) at any magnitude
    base = oracle(x)
    for c in (1e-20, 1e-8, 1e8):
        assert abs(oracle(c * x) / c - base) <= 1e-12 * base, c


class TestElementaryNorms:
    def test_identity(self):
        en = elementary_norms(OperatorInstance(np.eye(7)))
        assert en == {"two_to_two": 1.0, "two_to_infty": 1.0, "Z": 1.0}

    def test_pythagorean_row(self):
        en = elementary_norms(OperatorInstance(np.array([[3.0, 4.0]])))
        assert np.isclose(en["two_to_two"], 5.0)
        assert np.isclose(en["two_to_infty"], 5.0)
        assert np.isclose(en["Z"], 625.0)

    def test_z_dominates_oracle_fourth(self, rng):
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            inst = OperatorInstance(r2.normal(size=(7, 4)), "expectation")
            en = elementary_norms(inst)
            ora = norm_2_to_q_lower(inst, 4, restarts=16, seed=seed)
            assert ora.value**4 <= en["Z"] + 1e-9


def test_projector_norm_duality(rng):
    # ||P||_{2->4} equals ||P||_{4/3->2} for self-adjoint projectors; evaluate
    # the dual side by an independent scipy maximization in expectation norms
    from hypernorm.sse import cycle_graph, subspace_instance, top_projector_norm

    g = cycle_graph(12)
    rep = top_projector_norm(g, 0.5, 4, restarts=64, seed=0)
    p = rep.projector
    nv = g.n

    def neg_ratio(f):
        pf = p @ f
        num = np.sqrt(np.mean(pf**2))
        den = np.mean(np.abs(f) ** (4 / 3)) ** 0.75
        return -num / den if den > 1e-12 else 0.0

    best = 0.0
    for s in range(12):
        f0 = np.random.default_rng(s).normal(size=nv)
        out = scipy.optimize.minimize(neg_ratio, f0, method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        best = max(best, -out.fun)
    assert abs(best - rep.norm_lower) <= 1e-4 * max(1.0, best)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda m: dps_value(m, 2),
    lambda m: h_ext(m, 2),
    lambda m: h_sep_lower(m, (2, 2)),
    lambda m: inj_sym4_lower(m.reshape(2, 2, 2, 2)),
], ids=["dps_value", "h_ext", "h_sep_lower", "inj_sym4_lower"])
def test_nonfinite_input_rejected(call, bad):
    m = np.eye(4)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        call(m)
