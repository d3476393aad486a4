import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hypernorm import dps, lasserre, linalg, sdp, tensorsdp
from hypernorm.core import random_operator
from hypernorm.dps import dps_value
from hypernorm.lasserre import solve_lasserre_maxcut, solve_sos_maxcut
from hypernorm.oracles import norm_2_to_q_lower
from hypernorm.polybasis import objective_expand
from hypernorm.sdp import MomentProgram, SdpProblem, SolveOptions, solve_sdp
from hypernorm.sse import cycle_graph
from hypernorm.tensorsdp import MomentRelaxation, a22_value
from tests.conftest import phi_complex, phi_state


def lam_max_problem(diag):
    n = len(diag)
    return SdpProblem([n], [np.diag(diag)], [[(0, i, i, 1.0) for i in range(n)]], [1.0], trace_bound=1.0)


def random_bounded(seed, n=8, m=10):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, n))
    c = (c + c.T) / 2
    x0 = rng.normal(size=(n, n))
    x0 = x0 @ x0.T + 0.1 * np.eye(n)
    cons = [[(0, i, i, 1.0) for i in range(n)]]
    b = [float(np.trace(x0))]
    for _ in range(m - 1):
        ak = rng.normal(size=(n, n))
        ak = (ak + ak.T) / 2
        cons.append([(0, i, j, ak[i, j] if i == j else 2.0 * ak[i, j])
                     for i in range(n) for j in range(i, n)])
        b.append(float(np.sum(ak * x0)))
    return SdpProblem([n], [c], cons, b, trace_bound=b[0]), x0


class TestSolve:
    def test_lambda_max(self):
        sol = solve_sdp(lam_max_problem([1.0, 2.0, 3.0]), SolveOptions(tol=1e-9))
        assert sol.status == "optimal"
        assert abs(sol.primal_obj - 3.0) <= 1e-6
        assert sol.residuals["min_eig"] >= -1e-7

    def test_zero_objective(self):
        sol = solve_sdp(lam_max_problem([0.0, 0.0]))
        assert abs(sol.primal_obj) <= 1e-6

    def test_random_kkt_suite(self):
        for seed in range(5):
            p, _ = random_bounded(seed)
            sol = solve_sdp(p, SolveOptions(tol=1e-8))
            assert sol.status == "optimal"
            slack = p.dual_slack(sol)[0]
            comp = abs(np.sum(sol.X[0] * slack))
            scale = max(1.0, abs(sol.primal_obj))
            assert comp <= 10 * 1e-8 * scale * 10

    def test_determinism_bitwise(self):
        p1, _ = random_bounded(3)
        p2, _ = random_bounded(3)
        s1 = solve_sdp(p1, SolveOptions(tol=1e-8))
        s2 = solve_sdp(p2, SolveOptions(tol=1e-8))
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.X[0], s2.X[0])
        assert np.array_equal(s1.y, s2.y)

    def test_duplicate_rows_dropped_with_warning(self):
        cons = [[(0, i, i, 1.0) for i in range(2)], [(0, i, i, 1.0) for i in range(2)]]
        with pytest.warns(UserWarning, match="duplicate"):
            p = SdpProblem([2], [np.eye(2)], cons, [1.0, 1.0], trace_bound=1.0)
        assert p.m == 1

    def test_contradictory_duplicates_rejected(self):
        cons = [[(0, 0, 0, 1.0)], [(0, 0, 0, 1.0)]]
        with pytest.raises(ValueError):
            SdpProblem([1], [np.eye(1)], cons, [1.0, 2.0], trace_bound=1.0)

    def test_block_diagonal(self):
        # max x + 2y s.t. x <= 1, y <= 0.5 as two 1x1 blocks
        p = SdpProblem([1, 1], [np.array([[1.0]]), np.array([[2.0]])],
                       [[(0, 0, 0, 1.0)], [(1, 0, 0, 1.0)]], [1.0, 0.5], trace_bound=1.5)
        sol = solve_sdp(p, SolveOptions(tol=1e-10))
        assert abs(sol.primal_obj - 2.0) <= 1e-7


class TestCertificate:
    def test_lambda_max_certificate(self):
        p = lam_max_problem([1.0, 2.0, 3.0])
        sol = solve_sdp(p, SolveOptions(tol=1e-9))
        assert 3.0 - 1e-9 <= sol.bound <= 3.0 + 1e-5

    def test_under_converged_still_valid(self):
        p = lam_max_problem([1.0, 2.0, 3.0])
        sol = solve_sdp(p, SolveOptions(max_iter=10))
        assert sol.bound >= 3.0 - 1e-12

    def test_weak_duality_on_feasible_points(self):
        for seed in range(4):
            p, x0 = random_bounded(seed)
            sol = solve_sdp(p, SolveOptions(tol=1e-8))
            assert sol.bound >= float(np.sum(p.C[0] * x0)) - 1e-9
            assert sol.bound >= sol.primal_obj - 1e-6 * max(1, abs(sol.primal_obj))


class TestEntryContract:
    def test_entries_add_c_times_x_ij(self):
        rng = np.random.default_rng(11)
        n = 6
        for _ in range(5):
            x = rng.normal(size=(n, n))
            x = (x + x.T) / 2
            cons = []
            for _ in range(4):
                entries = [(0, int(i), int(j), float(c)) for i, j, c in
                           zip(rng.integers(0, n, 8), rng.integers(0, n, 8), rng.normal(size=8))]
                # the same off-diagonal pair entered from both sides
                entries += [(0, 1, 4, 0.7), (0, 4, 1, -0.3)]
                cons.append(entries)
            p = SdpProblem([n], [np.eye(n)], cons, [0.0] * len(cons), trace_bound=1.0)
            assert p.m == len(cons)
            got = p.R @ np.array(list(p.values(x).values()))
            want = np.array([sum(c * x[i, j] for _, i, j, c in entries) for entries in cons])
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")},
                                 {"tol": float("inf")}, {"max_iter": 0}])
def test_solve_options_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        SolveOptions(**bad)


def rows_program(C=np.eye(2), b=(1.0,), trace_bound=1.0):
    """max <C, X> subject to tr X = b, in row form."""
    return SdpProblem([2], [C], [[(0, 0, 0, 1.0), (0, 1, 1, 1.0)]], list(b), trace_bound=trace_bound)


def classes_program(C=np.eye(2), b=(1.0,), trace_bound=1.0):
    """The same program with every position its own class."""
    return MomentProgram.from_classes(2, {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 1)]}, C, [{0: 1.0, 2: 1.0}],
                                      list(b), trace_bound=trace_bound)


PROGRAM_TYPES = pytest.mark.parametrize("build", [rows_program, classes_program],
                                        ids=["SdpProblem", "MomentProgram"])


@PROGRAM_TYPES
@pytest.mark.parametrize("trace_bound", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_rejects_bad_trace_bound(build, trace_bound):
    build()
    with pytest.raises(ValueError, match="trace bound"):
        build(trace_bound=trace_bound)


@PROGRAM_TYPES
@pytest.mark.parametrize("bad", [{"b": [np.nan]}, {"b": [np.inf]}, {"C": np.diag([np.nan, 1.0])},
                                 {"C": np.diag([np.inf, 1.0])}], ids=["b-nan", "b-inf", "C-nan", "C-inf"])
def test_rejects_nonfinite_objective_or_rhs(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(**bad)


def rows_with(entry):
    """A row program over blocks of sizes 2 and 3 whose one constraint is ``entry``."""
    return SdpProblem([2, 3], [np.eye(2), np.eye(3)], [[entry]], [1.0], trace_bound=1.0)


def classes_with(pos):
    """A class program whose last class is ``pos``: (i, j) in one block of size 2, or
    (block, i, j) in two blocks of size 1."""
    if len(pos) == 2:
        return MomentProgram.from_classes(2, {0: [(0, 0)], 1: [(0, 1)], 2: [pos]}, np.eye(2), [{0: 1.0}], [1.0],
                                          trace_bound=1.0)
    return MomentProgram.from_classes([1, 1], {0: [(0, 0, 0)], 1: [pos]}, [np.eye(1)] * 2, [{0: 1.0}], [1.0],
                                      trace_bound=1.0)


@pytest.mark.parametrize("build, good, bad", [
    (rows_with, (1, 0, 0, 1.0), (-1, 0, 0, 1.0)), (rows_with, (1, 0, 0, 1.0), (2, 0, 0, 1.0)),
    (rows_with, (1, 2, 0, 1.0), (1, -1, 0, 1.0)), (rows_with, (1, 2, 0, 1.0), (1, 3, 0, 1.0)),
    (classes_with, (1, 1), (-1, -1)), (classes_with, (1, 1), (2, 2)),
    (classes_with, (1, 0, 0), (-1, 0, 0)), (classes_with, (1, 0, 0), (2, 0, 0)),
], ids=["rows-block-negative", "rows-block-too-large", "rows-position-negative", "rows-position-too-large",
        "classes-position-negative", "classes-position-too-large", "classes-block-negative",
        "classes-block-too-large"])
def test_rejects_out_of_range_indices(build, good, bad):
    build(good)
    with pytest.raises(ValueError):
        build(bad)


def test_counts_rows_and_classes():
    with pytest.warns(UserWarning, match="duplicate"):
        p = SdpProblem([2, 3], [np.eye(2), np.eye(3)],
                       [[(0, 0, 0, 1.0)], [(1, 2, 1, 1.0)], [(0, 0, 0, 1.0)]], [1.0, 0.0, 1.0], trace_bound=1.0)
    assert (p.m, p.svec_dim) == (2, 3 + 6)


# r1: tr X = 1; r2: X00 - X22 + X01 = -0.1 (both hold at diag(0.3, 0.3, 0.4)); r3 = r1 + r2
DEPENDENT_C = np.array([[1.0, 0.2, -0.3], [0.2, 0.5, 0.4], [-0.3, 0.4, 0.8]])
ROW_ENTRIES = [[(0, i, i, 1.0) for i in range(3)], [(0, 0, 0, 1.0), (0, 2, 2, -1.0), (0, 0, 1, 1.0)]]
CLASS_ROWS = [{"d01": 2.0, "d2": 1.0}, {"d01": 1.0, "d2": -1.0, "o01": 1.0}]


def dependent_rows_program(extra):
    """The program above in row form, with the third row r1 + r2 when
    ``extra`` gives its right-hand side."""
    cons, b = list(ROW_ENTRIES), [1.0, -0.1]
    if extra is not None:
        cons, b = cons + [ROW_ENTRIES[0] + ROW_ENTRIES[1]], b + [extra]
    return SdpProblem([3], [DEPENDENT_C], cons, b, trace_bound=1.0)


def dependent_classes_program(extra):
    """The same over classes: X00 = X11, X02 = X12."""
    classes = {"d01": [(0, 0), (1, 1)], "d2": [(2, 2)], "o01": [(0, 1)], "o02": [(0, 2), (1, 2)]}
    rows, b = list(CLASS_ROWS), [1.0, -0.1]
    if extra is not None:
        rows, b = rows + [{"d01": 3.0, "d2": 0.0, "o01": 1.0}], b + [extra]
    return MomentProgram.from_classes(3, classes, DEPENDENT_C, rows, b, trace_bound=1.0)


@pytest.mark.parametrize("build", [dependent_rows_program, dependent_classes_program],
                         ids=["SdpProblem", "MomentProgram"])
def test_dependent_rows(build):
    with pytest.warns(UserWarning, match="row 2"):
        p = build(0.9)
    assert p.m == 2
    opts = SolveOptions(tol=1e-9)
    got, want = solve_sdp(p, opts), solve_sdp(build(None), opts)
    assert got.status == want.status == "optimal"
    assert abs(got.primal_obj - want.primal_obj) <= 1e-9
    assert abs(got.bound - want.bound) <= 1e-9
    with pytest.raises(ValueError, match="right-hand side"):
        build(1.4)


class TestSeveralBlocks:
    """Block 1 is a scaled copy of block 0: one class per position pair, over
    both blocks.  The value is lambda_max(C_0 + ss * C_1)."""

    n = 4

    def program(self):
        rng = np.random.default_rng(5)
        c0, c1 = (rng.normal(size=(self.n, self.n)) for _ in range(2))
        c0, c1 = (c0 + c0.T) / 2, (c1 + c1.T) / 2
        s = rng.uniform(0.5, 2.0, size=self.n)
        classes = {(i, j): [(0, i, j), (1, i, j)] for i in range(self.n) for j in range(i, self.n)}
        p = MomentProgram.from_classes([self.n, self.n], classes, [c0, c1], [{(i, i): 1.0 for i in range(self.n)}],
                                       [1.0], trace_bound=1.0 + float(np.max(s)) ** 2, scale=[None, s])
        return p, np.outer(s, s)

    def test_projection_and_dual_slack_contract(self):
        p, ss = self.program()
        rng = np.random.default_rng(6)
        V = [rng.normal(size=(self.n, self.n)) for _ in range(2)]
        V = [(v + v.T) / 2 for v in V]
        X, _ = p.project(V)
        assert np.allclose(X[1], ss * X[0], rtol=0, atol=1e-15)
        assert abs(np.trace(X[0]) - 1.0) <= 1e-14
        vals = p.values(*X)
        assert all(vals[(i, j)] == X[0][i, j] for i, j in vals)
        X2, _ = p.project(X)
        assert all(np.allclose(a, b, rtol=0, atol=1e-14) for a, b in zip(X, X2))
        sol = SimpleNamespace(S=[(v + v.T) / 2 for v in (rng.normal(size=(self.n, self.n)) for _ in range(2))],
                              y=rng.normal(size=1))
        S = p.dual_slack(sol)
        sums = p.class_sums(p.C[0] + S[0], ss * (p.C[1] + S[1]))
        assert np.allclose(sums, p.R.T @ sol.y, rtol=0, atol=1e-12)

    def test_agrees_with_row_form(self):
        moment, ss = self.program()
        n = self.n
        ties = [[(1, i, j, 1.0), (0, i, j, -ss[i, j])] for i in range(n) for j in range(i, n)]
        rows = SdpProblem([n, n], moment.C, [[(0, i, i, 1.0) for i in range(n)]] + ties, [1.0] + [0.0] * len(ties),
                          trace_bound=moment.trace_bound)
        lam = float(np.linalg.eigvalsh(moment.C[0] + ss * moment.C[1])[-1])
        for p in (moment, rows):
            sol = solve_sdp(p, SolveOptions(tol=1e-9))
            assert sol.status == "optimal"
            assert abs(sol.primal_obj - lam) <= 1e-6 * max(1.0, abs(lam))
            assert sol.bound >= lam - 1e-9


def random_moment_program(seed, size=7, nclasses=9, nrows=3, scale=None):
    """A class map drawn at random over the upper triangle, with random rows."""
    rng = np.random.default_rng(seed)
    classes = {}
    for p, (i, j) in enumerate(zip(*np.triu_indices(size))):
        key = int(rng.integers(nclasses)) if p >= nclasses else p
        classes.setdefault(key, []).append((int(i), int(j)))
    rows = [{key: float(rng.normal()) for key in classes} for _ in range(nrows)]
    p = MomentProgram.from_classes(size, classes, np.eye(size), rows, rng.normal(size=nrows), trace_bound=1.0,
                                   scale=scale)
    return p, classes, rows


def random_scales(seed, size=7):
    return [None, np.random.default_rng(200 + seed).uniform(0.5, 2.0, size=size)]


def random_slack(seed, p, size=7):
    rng = np.random.default_rng(300 + seed)
    s = rng.normal(size=(size, size))
    return SimpleNamespace(S=[(s + s.T) / 2], y=rng.normal(size=len(p.b)))


class TestMomentProgram:
    def test_projection_contract(self):
        for seed in range(5):
            for scale in random_scales(seed):
                self.check_projection(seed, scale)

    def check_projection(self, seed, scale):
        p, classes, rows = random_moment_program(seed, scale=scale)
        ss = np.ones((7, 7)) if scale is None else np.outer(scale, scale)
        rng = np.random.default_rng(100 + seed)
        v = rng.normal(size=(7, 7))
        v = (v + v.T) / 2
        (x,), _ = p.project([v])
        # class-constant once the scale is divided out (exactly when unscaled,
        # to the rounding of that division otherwise)
        m = x / ss
        for pos in classes.values():
            vals = [m[i, j] for i, j in pos] + [m[j, i] for i, j in pos]
            spread = max(vals) - min(vals)
            assert spread == 0.0 if scale is None else spread <= 1e-15 * max(1.0, max(map(abs, vals)))
        # the rows hold on the class values
        vals = p.values(x)
        got = [sum(c * vals[key] for key, c in row.items()) for row in rows]
        assert np.allclose(got, p.b, rtol=0, atol=1e-12)
        # idempotent
        (x2,), _ = p.project([x])
        assert np.allclose(x2, x, rtol=0, atol=1e-12)
        # v - x is orthogonal to the directions of the affine set: the scaled
        # class-constant matrices whose class values lie in the rows' kernel
        basis = np.linalg.svd(p.R)[2][p.R.shape[0]:]
        for k in basis:
            d = np.zeros((7, 7))
            for key, pos in classes.items():
                for i, j in pos:
                    d[i, j] = d[j, i] = k[p.keys.index(key)]
            assert abs(np.sum((v - x) * ss * d)) <= 1e-12 * max(1.0, np.linalg.norm(v))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_dual_slack_contract(self, seed, scaled):
        # dual feasibility on the class directions: <C + S, E_c> = (R^T y)_c
        scale = random_scales(seed)[scaled]
        p, _, _ = random_moment_program(seed, scale=scale)
        ss = np.ones((7, 7)) if scale is None else np.outer(scale, scale)
        sol = random_slack(seed, p)
        (s,) = p.dual_slack(sol)
        assert np.allclose(p.class_sums(ss * (p.C[0] + s)), p.R.T @ sol.y, rtol=0, atol=1e-12)

    def test_unit_scale_is_bitwise_the_default(self):
        for seed in range(3):
            a, _, _ = random_moment_program(seed)
            b, _, _ = random_moment_program(seed, scale=np.ones(7))
            v = np.random.default_rng(seed).normal(size=(7, 7))
            v = (v + v.T) / 2
            (xa,), wa = a.project([v])
            (xb,), wb = b.project([v])
            assert np.array_equal(xa, xb) and np.array_equal(wa, wb)
            sol = random_slack(seed, a)
            assert np.array_equal(a.dual_slack(sol)[0], b.dual_slack(sol)[0])

    @pytest.mark.parametrize("bad", [np.zeros(7), -np.ones(7), np.r_[np.ones(6), np.nan],
                                     np.ones(6), np.r_[np.ones(6), np.inf]],
                             ids=["zero", "negative", "nan", "short", "inf"])
    def test_rejects_bad_scale(self, bad):
        with pytest.raises(ValueError):
            random_moment_program(0, scale=bad)

    def test_lambda_max_agrees_with_row_form(self):
        rng = np.random.default_rng(7)
        n = 6
        c = rng.normal(size=(n, n))
        c = (c + c.T) / 2
        rows_form = SdpProblem([n], [c], [[(0, i, i, 1.0) for i in range(n)]], [1.0], trace_bound=1.0)
        classes = {(i, j): [(i, j)] for i in range(n) for j in range(i, n)}
        moment_form = MomentProgram.from_classes(n, classes, c, [{(i, i): 1.0 for i in range(n)}], [1.0],
                                                 trace_bound=1.0)
        opts = SolveOptions(tol=1e-9)
        a, b = solve_sdp(rows_form, opts), solve_sdp(moment_form, opts)
        assert a.status == b.status == "optimal"
        assert abs(a.primal_obj - b.primal_obj) <= 1e-7
        lam = float(np.linalg.eigvalsh(c)[-1])
        assert abs(b.primal_obj - lam) <= 1e-6
        assert b.bound >= lam - 1e-12

    def test_rejects_classes_that_miss_positions(self):
        with pytest.raises(ValueError):
            MomentProgram.from_classes(2, {0: [(0, 0)], 1: [(1, 1)]}, np.eye(2), [{0: 1.0}], [1.0], trace_bound=1.0)

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 1, 2], [0, 1, 3], [0, -1, 2], [0, 2, 2], [0.0, 1.0, 2.0]],
                             ids=["short", "long", "past-the-classes", "negative", "empty-class", "not-integer"])
    def test_rejects_bad_labels(self, labels):
        # one integer class index per upper-triangle position, every class of R's columns used
        MomentProgram(2, np.array([0, 1, 2]), np.eye(2), [[1.0, 0.0, 1.0]], [1.0], trace_bound=1.0)
        with pytest.raises(ValueError):
            MomentProgram(2, np.array(labels), np.eye(2), [[1.0, 0.0, 1.0]], [1.0], trace_bound=1.0)

    def test_labels_and_classes_state_the_same_program(self):
        p, classes, rows = random_moment_program(3)
        keys = list(classes)
        tri = np.empty(28, dtype=np.intp)
        for k, pos in enumerate(classes.values()):
            for i, j in pos:
                tri[i * 7 - i * (i - 1) // 2 + j - i] = k
        R = [[row.get(key, 0.0) for key in keys] for row in rows]
        q = MomentProgram(7, tri, np.eye(7), R, p.b, trace_bound=1.0, keys=keys)
        assert np.array_equal(q._labels, p._labels) and np.array_equal(q.R, p.R) and q.keys == p.keys

    def test_class_pairs_state_the_projection_that_null_part_subtracts(self):
        p, _, _ = random_moment_program(5, scale=random_scales(5)[1])
        size = p.blocks[0]
        cell, b, b2, coef = p.class_pairs()
        # the entry (a * N + a2, b, b2, w) is D[(a, b), (a2, b2)] = w
        a, a2 = np.divmod(cell, size)
        D = np.zeros((size * size, size * size))
        np.add.at(D, (a * size + b, a2 * size + b2), coef)
        v = np.random.default_rng(1).normal(size=size * size)
        assert np.allclose(D @ v, v - p.null_part(v), rtol=0, atol=1e-12)
        assert np.allclose(D @ D, D, rtol=0, atol=1e-12) and np.allclose(D, D.T, rtol=0, atol=0)


def a22_program(n=8):
    """The value, bound, status and iterations of an a22 solve (N = n(n+1)/2)."""
    res = a22_value(random_operator("sign", n, 50 * n * n, 0), return_details=True)
    return res.value, res.bound, res.status, res.iterations


def l4_program(n=8):
    """The same for a level-4 moment relaxation (N = (n+1)(n+2)/2)."""
    relax = MomentRelaxation(objective_expand(random_operator("gaussian", n, 64, 0)), n, 4)
    sol = solve_sdp(relax.problem, SolveOptions(tol=1e-8))
    return sol.primal_obj, sol.bound, sol.status, sol.iterations


def dps_program():
    """The same for a DPS program whose blocks are nearly full rank (N = 4)."""
    res = dps_value(phi_state(2), 2, 1, return_details=True)
    return res.value, res.bound, res.status, res.iterations


@pytest.mark.parametrize("program, side", [(a22_program, "pos"), (l4_program, "pos"), (dps_program, "neg")],
                         ids=["a22-n8", "L4-n8", "dps-phi2"])
def test_rank_hint_keeps_the_iterates(program, side, monkeypatch, evr_calls):
    value, bound, status, iterations = program()
    assert side in evr_calls  # the one-sided path ran
    monkeypatch.setattr(sdp, "_psd_project", lambda m, rank_hint=None, out=None: linalg._psd_project(m, out=out))
    evr_calls.clear()
    value_full, bound_full, status_full, iterations_full = program()
    assert not evr_calls
    assert (status, iterations) == (status_full, iterations_full)
    assert abs(value - value_full) <= 1e-10 * abs(value_full)
    assert abs(bound - bound_full) <= 1e-10 * abs(bound_full)


class FixedProjection:
    """A two-block problem whose projection always returns the same blocks."""

    blocks = [2, 3]
    C = [np.eye(2), np.eye(3)]
    b = np.array([1.0])
    trace_bound = 5.0

    def __init__(self, out):
        self.out = out

    def project(self, V):
        return [x.copy() for x in self.out], np.array([0.0])

    def dual_slack(self, sol):
        return sol.S


def test_rejects_a_projection_that_is_not_self_adjoint():
    skew = np.eye(3)
    skew[0, 2] = 1e-3
    with pytest.raises(ValueError, match="not self-adjoint"):
        solve_sdp(FixedProjection([np.eye(2), skew]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_iterate_stops_before_the_psd_step(bad, monkeypatch, evr_calls):
    steps = []
    monkeypatch.setattr(sdp, "_psd_project", lambda m, rank_hint=None, out=None: steps.append(m))
    broken = np.eye(3)
    broken[1, 1] = bad
    sol = solve_sdp(FixedProjection([np.eye(2), broken]))
    assert (sol.status, sol.iterations) == ("infeasible-suspected", 1)
    assert not steps and not evr_calls


@pytest.fixture
def solved(monkeypatch):
    """Every (problem, solution) pair solved while the test runs, through the
    ``solve`` it is handed or the package's own entry points."""
    seen = []

    def solve(problem, opts=None, **kwargs):
        sol = sdp.solve_sdp(problem, opts, **kwargs)
        seen.append((problem, sol))
        return sol

    for mod in (tensorsdp, lasserre, dps):
        monkeypatch.setattr(mod, "solve_sdp", solve)
    return solve, seen


def oracle_fourth(instance):
    """|A x|_4^4 at the oracle's unit witness x: a feasible relaxation value."""
    return norm_2_to_q_lower(instance, 4, restarts=8, seed=0).value ** 4


L4_INSTANCE = random_operator("gaussian", 4, 16, 0)
# Pauli Y (x) I: top eigenvalue 1 with a purely imaginary matrix, so the
# slack shift must come from the Hermitian slack, not from its real part
IMAGINARY_OBJECTIVE = np.kron([[0.0, -1.0j], [1.0j, 0.0]], np.eye(2))
A22_INSTANCE = random_operator("sign", 4, 32, 1)

# each problem type: one solve, a feasible objective value, and whether every
# feasible X has tr X equal to the trace bound (so for the moment relaxation
# too: its one row E |x|^d = 1 is tr X)
EVERY_PROBLEM_TYPE = {
    "rows-lambda-max": (lambda solve, opts: solve(lam_max_problem([1.0, 2.0, 3.0]), opts),
                        3.0, True),
    "moment-L4": (lambda solve, opts: solve(MomentRelaxation(objective_expand(L4_INSTANCE), 4, 4).problem,
                                            opts),
                  oracle_fourth(L4_INSTANCE), True),
    "a22": (lambda solve, opts: a22_value(A22_INSTANCE, opts), oracle_fourth(A22_INSTANCE), True),
    # the best cut of C5 severs 4 of its 5 edges
    "maxcut-gram-C5": (lambda solve, opts: solve_lasserre_maxcut(cycle_graph(5), opts), 0.8, True),
    "maxcut-moment-C5": (lambda solve, opts: solve_sos_maxcut(cycle_graph(5), opts), 0.8, True),
    # h_Sep of the maximally entangled state on C^n (x) C^n is 1/n
    "dps-real-r2": (lambda solve, opts: dps_value(phi_state(3), 3, r=2, opts=opts), 1.0 / 3.0, True),
    "dps-complex-r1": (lambda solve, opts: dps_value(phi_complex(2), 2, r=1, opts=opts), 0.5, True),
    "dps-complex-r2": (lambda solve, opts: dps_value(phi_complex(2), 2, r=2, opts=opts), 0.5, True),
    # without PPT blocks the level-1 value is the top eigenvalue
    "dps-imaginary-noppt-r1": (lambda solve, opts: dps_value(IMAGINARY_OBJECTIVE, 2, r=1, ppt=False, opts=opts),
                               1.0, True),
}


@pytest.mark.parametrize("max_iter", [1, 2, 10, None], ids=["iter1", "iter2", "iter10", "converged"])
@pytest.mark.parametrize("case", list(EVERY_PROBLEM_TYPE))
def test_every_problem_type_bounds_its_feasible_set(case, max_iter, solved):
    # the bound holds for any dual point; the trace pin checks the problem's
    # stated trace bound itself, which the bound scales
    run, feasible, exact = EVERY_PROBLEM_TYPE[case]
    solve, seen = solved
    run(solve, None if max_iter is None else SolveOptions(max_iter=max_iter))
    ((problem, sol),) = seen
    assert sol.bound >= feasible - 1e-12
    if max_iter is None:
        assert sol.status == "optimal"
        trace = sum(float(np.trace(x).real) for x in sol.X)
        assert trace <= problem.trace_bound * (1 + 1e-6)
        if exact:
            assert abs(trace - problem.trace_bound) <= 1e-6 * problem.trace_bound


# ---------------------------------------------------------------------------
# the loop against a reference: the same loop on fresh temporaries, with a PSD
# step that symmetrizes its input first
# ---------------------------------------------------------------------------
def _ref_psd_project(m, rank_hint=None):
    """The PSD step that symmetrizes its input and then its output."""
    adj = (lambda a: a.conj().T) if np.iscomplexobj(m) else np.transpose
    h = (m + adj(m)) / 2.0
    n = h.shape[0]
    subset = rank_hint is not None and n > 0
    if subset and linalg.SUBSET_RATIO * rank_hint <= n:
        w, v = linalg._eig_interval(h, 0.0, np.inf)
        out, k = (v * w) @ adj(v), w.size
    elif subset and linalg.SUBSET_RATIO * (n - rank_hint) <= n:
        w, v = linalg._eig_interval(h, -np.inf, 0.0)
        k = n - w.size
        out = h - (v * w) @ adj(v) if k else np.zeros_like(h)
    else:
        w, v = np.linalg.eigh(h)
        first = np.searchsorted(w, 0.0, side="right")
        w, v = w[first:], v[:, first:]
        out, k = (v * w) @ adj(v), w.size
    return (out + adj(out)) / 2.0, k


def _ref_solve_sdp(problem, opts=None):
    """``solve_sdp`` as one expression per step: every iterate a fresh array,
    split and raveled anew each iteration, and the PSD step
    :func:`_ref_psd_project`."""
    opts = opts or SolveOptions()
    P = problem
    ravel, dot = sdp._ravel, sdp._dot
    ends = list(itertools.accumulate(n * n for n in P.blocks))
    spans = [(e - n * n, e, (n, n)) for e, n in zip(ends, P.blocks)]

    def split(flat):
        return [flat[a:e].reshape(shape) for a, e, shape in spans]

    c_in = ravel(P.C)
    norm_c = math.sqrt(dot(c_in, c_in))
    scale = max(1.0, norm_c)
    c = c_in / scale
    rho = 1.0
    c_rho = c
    z = np.zeros_like(c)
    u = np.zeros_like(c)
    ranks = [None] * len(P.blocks)
    status = "max-iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        X, w = P.project(split(z - u + c_rho))
        y = rho * w
        x = ravel(X)
        nx = math.sqrt(dot(x, x))
        if not nx <= 1e12:
            status = "infeasible-suspected"
            break
        if it == 1:
            for xb in X:
                linalg._check_self_adjoint(xb, linalg.SELF_ADJOINT_TOL)
        z_old = z
        v = x + u
        Zb, ranks = zip(*[_ref_psd_project(vb, k) for vb, k in zip(split(v), ranks)])
        z = ravel(Zb)
        u = v - z
        if not rho * math.sqrt(dot(u, u)) <= 1e12:
            status = "infeasible-suspected"
            break
        d = x - z
        rp = math.sqrt(dot(d, d)) / (1.0 + nx)
        d = z - z_old
        rd = rho * scale * math.sqrt(dot(d, d)) / (1.0 + norm_c)
        pobj, dobj = scale * dot(c, x), scale * float(P.b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if max(rp, rd, gap) <= opts.tol:
            status = "optimal"
            break
        if it % sdp.ADAPT_EVERY == 0 and (rp > 10.0 * rd or rd > 10.0 * rp):
            new = min(rho * 2.0, 1e6) if rp > rd else max(rho / 2.0, 1e-6)
            u = u * (rho / new)
            rho = new
            c_rho = c / rho

    y = y * scale
    sol = sdp.SdpSolution(X, y, split(-(rho * scale) * u), dot(c_in, x), float(P.b @ y),
                          {}, status, it, math.nan, math.nan)
    slack = P.dual_slack(sol)
    lam = min(float(np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0]) for s in slack)
    sol.slack_shift = max(0.0, -lam)
    sol.bound = sol.dual_obj + P.trace_bound * sol.slack_shift
    eigs = [np.linalg.eigvalsh(xb) if np.isfinite(xb).all() else np.full(len(xb), math.nan)
            for xb in X]
    rp = math.sqrt(sum(float(np.sum(np.minimum(e, 0.0) ** 2)) for e in eigs)) / (1.0 + nx)
    d = ravel(sol.S) - ravel(slack)
    rd = math.sqrt(dot(d, d)) / (1.0 + norm_c)
    gap = abs(sol.primal_obj - sol.dual_obj) / (1.0 + abs(sol.primal_obj) + abs(sol.dual_obj))
    sol.residuals = {"primal_infeas": rp, "dual_infeas": rd, "gap": gap,
                     "min_eig": min(float(e[0]) for e in eigs)}
    if status == "optimal" and max(rp, rd, gap) > 10 * opts.tol:
        sol.status = "inaccurate"
    return sol


def solutions(run, solver, opts, monkeypatch):
    """The solutions of every solve that ``run`` makes with ``solver``,
    which runs the plain loop: an anchor hook is dropped."""
    seen = []

    def solve(problem, opts=None, anchor=None):
        seen.append(solver(problem, opts))
        return seen[-1]

    with monkeypatch.context() as patch:
        for mod in (tensorsdp, lasserre, dps):
            patch.setattr(mod, "solve_sdp", solve)
        run(solve, opts)
    return seen


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_solution(sol, ref, close=None):
    """Bitwise equal, or with ``close`` equal within that relative tolerance
    (of max(1, |value|)), in every field; status and iterations always equal."""
    assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
    assert sol.residuals.keys() == ref.residuals.keys()
    pairs = ([(a, b) for name in ("X", "S") for a, b in zip(getattr(sol, name), getattr(ref, name), strict=True)]
             + [(sol.y, ref.y)]
             + [(getattr(sol, f), getattr(ref, f)) for f in ("primal_obj", "dual_obj", "slack_shift", "bound")]
             + [(sol.residuals[k], ref.residuals[k]) for k in ref.residuals])
    for a, b in pairs:
        if close is None:
            assert same_bits(a, b)
        else:
            assert np.abs(np.subtract(a, b)).max() <= close * max(1.0, np.abs(b).max())


DPS_CASES = [case for case in EVERY_PROBLEM_TYPE if case.startswith("dps-")]


@pytest.mark.parametrize("max_iter", [1, 2, 10, None], ids=["iter1", "iter2", "iter10", "converged"])
@pytest.mark.parametrize("case", list(EVERY_PROBLEM_TYPE))
def test_the_loop_keeps_the_reference_iterates(case, max_iter, monkeypatch):
    # a moment program's projection is exactly symmetric, so skipping the
    # PSD step's symmetrization changes no bit; a DPS block
    # W^T PT(L X L^T) W is self-adjoint only up to rounding
    run = EVERY_PROBLEM_TYPE[case][0]
    opts = None if max_iter is None else SolveOptions(max_iter=max_iter)
    got = solutions(run, solve_sdp, opts, monkeypatch)
    want = solutions(run, _ref_solve_sdp, opts, monkeypatch)
    assert len(got) == len(want) == 1
    assert_same_solution(got[0], want[0], close=1e-12 if case in DPS_CASES else None)


def test_a22_keeps_the_reference_iterates(monkeypatch):
    inst = random_operator("sign", 8, 3200, 0)
    run = lambda solve, opts: a22_value(inst)
    (got,), (want,) = (solutions(run, s, None, monkeypatch) for s in (solve_sdp, _ref_solve_sdp))
    assert got.iterations > 100
    assert_same_solution(got, want)


def test_two_solves_of_one_problem_agree_and_leave_it_alone():
    # with one block the loop's C is a view of the problem's, so an in-place
    # update of it would corrupt the problem and the second solve
    problem = random_bounded(3)[0]
    C, b = problem.C[0].copy(), problem.b.copy()
    first = solve_sdp(problem, SolveOptions(max_iter=300))
    kept = [x.copy() for x in first.X + first.S]
    second = solve_sdp(problem, SolveOptions(max_iter=300))
    assert_same_solution(second, first)
    assert same_bits(problem.C[0], C) and same_bits(problem.b, b)
    assert all(same_bits(a, k) for a, k in zip(first.X + first.S, kept, strict=True))


def self_adjoint(rng, n, complex_):
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    return a + a.conj().T   # exactly self-adjoint


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("hint, side", [(1, "pos"), (10, "neg"), (None, None)], ids=["pos", "neg", "full"])
def test_psd_step_paths(hint, side, complex_, evr_calls):
    m = self_adjoint(np.random.default_rng(5), 10, complex_)
    kept = m.copy()
    p, k = linalg._psd_project(m, hint)
    assert evr_calls == ([side] if side else [])
    assert same_bits(m, kept)
    assert np.array_equal(p, p.conj().T)
    want, k_want = _ref_psd_project(m, hint)
    assert k == k_want and same_bits(p, want)
    # written into a buffer: the loop's view of its Z, with the same bits
    buf = np.full(2 * m.size, np.nan, dtype=m.dtype)[m.size:].reshape(m.shape)
    out, k_out = linalg._psd_project(m, hint, out=buf)
    assert out is buf and k_out == k and same_bits(buf, p) and same_bits(m, kept)


def test_the_loop_reports_an_inaccurate_stop():
    # the loop stops on its own residuals, but a dual slack moved by 1e-3 off
    # the solver's S puts the recomputed dual residual above 10 * tol
    problem = lam_max_problem([1.0, 2.0, 3.0])
    moved = SimpleNamespace(blocks=problem.blocks, C=problem.C, b=problem.b, project=problem.project,
                            trace_bound=problem.trace_bound,
                            dual_slack=lambda sol: [s + 1e-3 for s in problem.dual_slack(sol)])
    sol, plain = solve_sdp(moved), solve_sdp(problem)
    assert plain.status == "optimal" and sol.iterations == plain.iterations
    assert sol.status == "inaccurate"
    assert sol.residuals["dual_infeas"] > 10 * SolveOptions().tol
