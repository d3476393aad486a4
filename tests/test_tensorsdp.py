from types import SimpleNamespace

import numpy as np
import pytest

from hypernorm import lasserre, tensorsdp
from hypernorm.core import OperatorInstance, random_operator
from hypernorm.linalg import sym_isometry
from hypernorm.oracles import _pow2_scaled, _PowerObjective, norm_2_to_q_lower
from hypernorm.polybasis import (Polynomial, _exact_degree, _multinomial, monomial_basis, objective_expand,
                                  sphere_poly)
from hypernorm.pseudoexp import pseudo_expect, validate_pef
from hypernorm import sdp
from hypernorm.sdp import ANCHOR_AT, MomentProgram, SolveOptions, solve_sdp
from hypernorm.sse import RegularGraph, complete_graph, cycle_graph, subspace_instance, top_projector_norm
from hypernorm.tensorsdp import (
    MomentRelaxation,
    _Anchor,
    a22_matrix,
    a22_value,
    bcy_gap,
    certify_hypercontractivity,
    index_symmetrize,
    low_degree_instance,
    tensor_sdp,
)
from tests.test_sdp import _ref_solve_sdp, assert_same_solution


def sign_instance(m, n, seed=0):
    rng = np.random.default_rng(seed)
    return OperatorInstance(rng.choice([-1.0, 1.0], size=(m, n)))


class TestTensorSdp:
    def test_scalar(self):
        res = tensor_sdp(OperatorInstance(np.array([[2.0]])), 4)
        assert abs(res.value - 16.0) <= 1e-5

    def test_identity2_circle_maximum(self):
        res = tensor_sdp(OperatorInstance(np.eye(2)), 4)
        assert abs(res.value - 1.0) <= 1e-6
        assert validate_pef(res.pe, 1e-6).passed

    def test_pe_satisfies_sphere_ideal(self):
        res = tensor_sdp(sign_instance(6, 3), 4)
        rep = validate_pef(res.pe, 1e-6)
        assert rep.passed
        assert max(rep.constraint_residuals) <= 1e-6

    def test_sandwich_against_oracle_and_eigenbound(self):
        inst = sign_instance(6, 3)
        res = tensor_sdp(inst, 4)
        ora = norm_2_to_q_lower(inst, 4, restarts=32, seed=0)
        lam = float(np.linalg.eigvalsh(a22_matrix(inst))[-1])
        assert ora.value**4 - 1e-6 <= res.value <= lam + 1e-6

    def test_level_monotonicity(self, rng):
        inst = OperatorInstance(rng.normal(size=(4, 2)))
        v4 = tensor_sdp(inst, 4).value
        v6 = tensor_sdp(inst, 6).value
        v8 = tensor_sdp(inst, 8).value
        assert v6 <= v4 + 1e-5
        assert v8 <= v6 + 1e-5

    def test_scaling_covariance(self):
        inst = sign_instance(5, 3, seed=4)
        v1 = tensor_sdp(inst, 4).value
        v2 = tensor_sdp(OperatorInstance(2.0 * inst.matrix, inst.convention), 4).value
        assert abs(v2 - 16.0 * v1) <= 1e-8 * max(1.0, 16.0 * v1)

    def test_size_limits(self, rng):
        with pytest.raises(ValueError):
            tensor_sdp(OperatorInstance(rng.normal(size=(4, 21))), 4)
        with pytest.raises(ValueError):
            tensor_sdp(OperatorInstance(rng.normal(size=(4, 3))), 5)

    def test_certificate_identity(self):
        # the dual certificate reconstructs bound - objective as SOS + ideal part
        inst = sign_instance(6, 3, seed=1)
        res = tensor_sdp(inst, 4)
        cert = res.certificate
        assert cert.residual <= 1e-6
        assert cert.bound >= res.value - 1e-6 * max(1, res.value)

    def test_certificate_identity_level_six(self, rng):
        inst = OperatorInstance(rng.normal(size=(4, 2)))
        res = tensor_sdp(inst, 6)
        assert res.certificate.residual <= 1e-6
        assert res.certificate.bound >= res.value - 1e-6 * max(1, res.value)

    def test_bivariate_grid_exactness(self):
        # for two columns the relaxation is exact (bivariate quartic
        # nonnegativity is a sum of squares); compare to a fine circle grid
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            a = r2.normal(size=(5, 2))
            inst = OperatorInstance(a)
            theta = np.linspace(0, np.pi, 200_001)
            pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            truth = float(np.max(np.sum((pts @ a.T) ** 4, axis=1)))
            val = tensor_sdp(inst, 4).value
            assert truth - 1e-6 * max(1, truth) <= val <= truth + 1e-5 * max(1, truth)

    def test_certificate_valid_when_underconverged(self):
        inst = sign_instance(6, 3, seed=2)
        full = tensor_sdp(inst, 4)
        rough = tensor_sdp(inst, 4, opts=SolveOptions(max_iter=10))
        ora = norm_2_to_q_lower(inst, 4, restarts=16, seed=0)
        assert rough.certificate.bound >= ora.value**4 - 1e-9
        assert rough.certificate.bound >= full.value - 1e-5
        assert rough.certificate.residual <= 1e-6

    def test_relabelled_c12_projector_converges(self):
        # C12 with relabelled vertices rotates the degenerate top eigenspace;
        # the relaxation of its projector norm must still converge
        perm = [9, 2, 8, 3, 7, 4, 6, 11, 1, 5, 0, 10]
        g = RegularGraph(12, [(perm[u], perm[v]) for u, v in cycle_graph(12).edges])
        inst = subspace_instance(top_projector_norm(g, 0.4, 4, restarts=8).basis, 4)
        assert tensor_sdp(inst, 4).status == "optimal"


def _symbolic_residual(inst, cert, level):
    # bound |x|^d - objective |x|^(d-4) - sum_j R_j^2, expanded with Polynomial
    norm2 = sphere_poly(inst.n) + 1.0
    lift = Polynomial.constant(inst.n, 1.0)
    for _ in range(level // 2 - 2):
        lift = lift * norm2
    recon = cert.bound * (lift * norm2 * norm2) - objective_expand(inst) * lift
    for sq in cert.squares:
        recon = recon - sq * sq
    return recon.max_abs_coeff()


RESIDUAL_CASES = {
    "L4-sign-6x3": (lambda: sign_instance(6, 3), 4, None),
    "L6-gauss-4x2": (lambda: OperatorInstance(np.random.default_rng(3).normal(size=(4, 2))), 6, None),
    "L8-gauss-5x3": (lambda: OperatorInstance(np.random.default_rng(8).normal(size=(5, 3))), 8, None),
    "L4-hyper-3-1": (lambda: low_degree_instance(3, 1), 4, None),
    "L4-underconverged": (lambda: sign_instance(6, 3, seed=2), 4, SolveOptions(max_iter=10)),
}


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_certificate_residual_matches_symbolic_expansion(case):
    make, level, opts = RESIDUAL_CASES[case]
    inst = make()
    cert = tensor_sdp(inst, level, opts).certificate
    if case == "L4-underconverged":
        assert cert.shift > 0.0
    assert abs(_symbolic_residual(inst, cert, level) - cert.residual) <= 1e-12


@pytest.mark.parametrize("terms", [{(2, 0): 1.0, (0, 0): 1.0}, {(3, 0): 1.0}, {(6, 0): 1.0}],
                         ids=["mixed-degree", "odd-degree", "above-level"])
def test_relaxation_takes_forms_of_even_degree_only(terms):
    # only a form of even degree at most d equals a form of degree d on the sphere
    with pytest.raises(ValueError, match="form of even degree at most 4"):
        MomentRelaxation(Polynomial(2, terms), 2, 4)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_level_four_objective_is_the_a22_form_in_sym2_coordinates(n):
    # the closed-form objective block against Q^T A22 Q, the Sym^2 image of
    # the two-two flattening that a22_value solved before it moved onto the
    # moment program
    inst = random_operator("gaussian", n, 5 * n, n)
    C = MomentRelaxation(objective_expand(inst), n, 4).problem.C[0]
    Q = sym_isometry(2, n)
    ref = Q.T @ a22_matrix(inst) @ Q
    assert np.abs(C - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("level, inst", [(4, sign_instance(6, 3)),
                                         (6, OperatorInstance(np.random.default_rng(3).normal(size=(4, 2)))),
                                         (8, OperatorInstance(np.random.default_rng(8).normal(size=(5, 3))))],
                         ids=["L4", "L6", "L8"])
def test_extracted_pseudoexpectation_is_valid_and_attains_the_value(level, inst):
    # the moments below degree d come from E x^alpha |x|^(d - |alpha|), so the
    # functional meets the sphere constraint exactly and keeps the value
    res = tensor_sdp(inst, level)
    assert res.pe.level == level
    rep = validate_pef(res.pe, 1e-8)
    assert rep.passed
    assert abs(pseudo_expect(res.pe, objective_expand(inst)) - res.value) <= 1e-9 * max(1.0, res.value)


class TestA22:
    def test_identity_agrees(self):
        inst = OperatorInstance(np.eye(2))
        assert abs(a22_value(inst) - 1.0) <= 1e-6

    def test_engines_and_formulations_agree(self):
        inst = sign_instance(6, 3)
        v_proj = a22_value(inst)
        v_mom = tensor_sdp(inst, 4).value
        scale = max(1.0, abs(v_mom))
        assert abs(v_proj - v_mom) <= 1e-5 * scale

    def test_unsymmetrized_collapses_to_eigenvalue_with_gap(self, rng):
        # without permutation symmetry the program would be the top eigenvalue
        # of A22, and Gaussian-like rows make that strictly larger (the
        # identity-tensor direction has eigenvalue growing with n)
        n, m = 6, 720
        a = rng.normal(size=(m, n))
        inst = OperatorInstance(a / np.sqrt(n), "expectation")
        lam = float(np.linalg.eigvalsh(a22_matrix(inst))[-1])
        assert lam > a22_value(inst) + 0.5

    def test_rigorous_bound_dominates(self):
        # the weak-duality bound sits between the value and the eigenvalue
        # bound of the symmetrized form, and closes on the value
        inst = sign_instance(8, 3, seed=9)
        res = a22_value(inst, return_details=True)
        tol = 1e-7 * max(1, res.value)
        sym = index_symmetrize(a22_matrix(inst), 3)
        assert res.value - tol <= res.bound <= np.linalg.eigvalsh(sym)[-1] + tol
        assert res.bound - res.value <= 1e-5 * max(1, res.value)
        rough = a22_value(inst, SolveOptions(max_iter=10), return_details=True)
        ora = norm_2_to_q_lower(inst, 4, restarts=16, seed=0)
        assert rough.bound >= ora.value**4 - 1e-9


def index_class_a22(instance, opts):
    """The n^2 x n^2 program over the classes of positions sharing a 4-index
    multiset, as ``a22_value`` stated it before it moved to Sym^2
    coordinates; kept as the reference for the isometric form."""
    n = instance.n
    classes, trace = {}, {}
    for p in range(n * n):
        for q in range(p, n * n):
            key = tuple(sorted(divmod(p, n) + divmod(q, n)))
            classes.setdefault(key, []).append((p, q))
            if p == q:
                trace[key] = trace.get(key, 0.0) + 1.0
    problem = MomentProgram.from_classes(n * n, classes, a22_matrix(instance), [trace], [1.0], trace_bound=1.0)
    sol = solve_sdp(problem, opts)
    return sol, sol.bound


@pytest.mark.parametrize("inst", [sign_instance(6, 3), random_operator("gaussian", 4, 800, 0),
                                  random_operator("gaussian", 5, 50, 1)],
                         ids=["sign-6x3", "gaussian-4x800", "gaussian-5x50"])
def test_sym2_form_keeps_the_index_class_iterates(inst):
    # the isometry maps one program's iterates onto the other's, so both plain
    # loops stop at the same iteration with the same value and bound up to
    # rounding.  a22_value may stop earlier on an anchored pair: its value, of
    # a feasible point, lies below the loop's bound up to rounding and within
    # the loop's own accuracy (an optimal stop's residuals are within
    # 10 * tol) of its value
    opts = SolveOptions(tol=1e-9 if inst.n ** 2 <= 16 else 1e-8, max_iter=50_000)
    sol = solve_sdp(MomentRelaxation(objective_expand(inst), inst.n, 4).problem, opts)
    ref, ref_bound = index_class_a22(inst, opts)
    assert sol.status == ref.status == "optimal"
    assert sol.iterations == ref.iterations
    assert abs(sol.primal_obj - ref.primal_obj) <= 1e-12 * abs(ref.primal_obj)
    assert abs(sol.bound - ref_bound) <= 1e-12 * abs(ref_bound)
    res = a22_value(inst, opts, return_details=True)
    assert res.status == "optimal"
    assert res.value <= sol.bound * (1 + 1e-14)
    gap = abs(res.value - sol.primal_obj) / (1.0 + abs(res.value) + abs(sol.primal_obj))
    assert gap <= 10 * opts.tol


# ---------------------------------------------------------------------------
# the anchored solve
# ---------------------------------------------------------------------------


def anchored(inst, d=4):
    return MomentRelaxation(None, inst.n, d, rows=inst.quartic_rows())


def test_random_witnesses_keep_the_bound_sound_and_the_loop_running():
    # weak duality holds for any dual point, so 20 random unit witnesses only
    # loosen the anchored bound: it stays above oracle^4, and far enough
    # above the value that no attempt stops the loop
    inst = random_operator("gaussian", 5, 100, 3)
    relax = anchored(inst)
    floor = norm_2_to_q_lower(inst, 4, restarts=16, seed=0).value ** 4
    anchor, rng, bounds = _Anchor(relax), np.random.default_rng(7), []

    def random_witnesses(sol):
        w = rng.normal(size=(inst.n, 20))
        point = anchor.pair(sol, w / np.linalg.norm(w, axis=0))
        bounds.append(sdp._solution(relax.problem, *point[:3], "optimal", sol.iterations).bound)
        return point

    opts = SolveOptions(tol=1e-9)
    sol = solve_sdp(relax.problem, opts, anchor=random_witnesses)
    assert len(bounds) >= 3 and min(bounds) >= floor * (1 - 1e-12)
    assert sol.witnesses == 0
    assert_same_solution(sol, solve_sdp(relax.problem, opts))


@pytest.mark.parametrize("inst, d", [(random_operator("gaussian", 6, 1800, 0), 4),
                                     (random_operator("unit", 4, 32, 2), 6),
                                     (OperatorInstance(np.eye(3)), 4)],
                         ids=["L4-gaussian-6x1800", "L6-unit-4x32", "L4-identity-3"])
def test_a_certified_stop_returns_the_moment_matrix_of_a_witness(inst, d):
    relax = anchored(inst, d)
    anchor, seen = _Anchor(relax), []

    def spy(sol):
        seen.append(anchor.witnesses(sol.X[0]))
        return anchor.pair(sol, seen[-1])

    opts = SolveOptions(tol=1e-9)
    sol = solve_sdp(relax.problem, opts, anchor=spy)
    assert sol.status == "optimal" and sol.iterations in ANCHOR_AT
    assert sol.witnesses == seen[-1].shape[1] >= 1
    assert_same_solution(sol, relax.solve(opts))
    x = seen[-1][:, 0]
    assert abs(x @ x - 1.0) <= 1e-15
    z = relax._scale * np.prod(x ** np.array(relax.basis), axis=1)
    assert np.array_equal(sol.X[0], np.outer(z, z))
    p = float(np.sum((inst.quartic_rows() @ x) ** 4))
    assert abs(sol.primal_obj - p) <= 1e-14 * p
    assert sol.bound >= sol.primal_obj
    assert relax.certificate(sol).residual <= 1e-9


def dense_least_norm_repair(problem, G, Z):
    """The least-norm symmetric N, in unit-norm coordinates over its upper
    triangle, with zero scaled class sums and N Z = -G Z, as one lstsq."""
    size = len(G)
    units = []
    for i, j in zip(*np.triu_indices(size)):
        e = np.zeros((size, size))
        e[i, j] = e[j, i] = 1.0 if i == j else np.sqrt(0.5)
        units.append(e)
    system = np.array([np.concatenate([e.ravel() - problem.null_part(e.ravel()), (e @ Z).ravel()])
                       for e in units]).T
    rhs = np.concatenate([np.zeros(size * size), -(G @ Z).ravel()])
    return np.tensordot(np.linalg.lstsq(system, rhs, rcond=None)[0], units, axes=1)


def zero_class_sums(problem, rng):
    size = problem.blocks[0]
    g = rng.normal(size=(size, size))
    return problem.null_part((g + g.T).ravel()).reshape(size, size)


def tensor_lifts(k, rng):
    """A level-4 program (trace bound 1) and the lifts of k random unit witnesses."""
    inst = random_operator("gaussian", 5, 40, 4)
    relax = anchored(inst)
    x = rng.normal(size=(inst.n, k))
    x /= np.linalg.norm(x, axis=0)
    return relax.problem, relax._scale[:, None] * np.prod(x.T[:, None, :] ** np.array(relax.basis), axis=2).T


def cut_lifts(rng):
    """The vector Max Cut program of K5, whose feasible X have tr X = 16, and
    the lifts of two random cuts."""
    cuts = rng.choice([-1.0, 1.0], size=(5, 2))
    Z = np.array([[np.prod(x[sorted(s)]) for x in cuts.T] for s in lasserre._cut_sets(5)])
    return lasserre._cut_program(complete_graph(5), lasserre._rows(lasserre._cut_sets(5), 5)), Z


@pytest.mark.parametrize("case", [1, 2, "K5-cuts"])
def test_the_kernel_repair_is_the_least_norm_matrix_with_zero_class_sums(case):
    rng = np.random.default_rng(2)
    problem, Z = cut_lifts(rng) if case == "K5-cuts" else tensor_lifts(case, rng)
    assert problem.trace_bound == (16.0 if case == "K5-cuts" else 1.0)
    # zero class sums make z^T G z = 0 for every witness, so the system is consistent
    G = zero_class_sums(problem, rng)
    repair = sdp.KernelRepair(problem, Z)
    N = repair.fix(G)
    ref = dense_least_norm_repair(problem, G, Z)
    assert np.abs(N - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.abs((G + N) @ Z).max() <= 1e-10 * np.abs(G).max()
    # the pair from a rough dual point lies on the dual affine set (the slack
    # moves by (lam - y') I / T and y by T mu), and its bound is weak duality:
    # at least the value of the point it anchors on
    point = SimpleNamespace(y=np.array([0.3]), S=[zero_class_sums(problem, rng)])
    X, y, S, count = repair(point, Z[:, 0], 7)
    assert count == 7 and np.array_equal(X[0], np.outer(Z[:, 0], Z[:, 0]))
    on_set = problem.dual_slack(SimpleNamespace(y=y, S=S))[0]
    assert np.abs(on_set - S[0]).max() <= 1e-12 * max(1.0, np.abs(S[0]).max())
    sol = sdp._solution(problem, X, y, S, "optimal", 1)
    assert sol.bound >= sol.primal_obj
    assert np.linalg.eigvalsh(S[0])[0] >= -1e-12 * max(1.0, np.abs(S[0]).max())


def test_two_anchored_solves_agree_bitwise():
    inst = random_operator("sign", 8, 3200, 0)
    relax = anchored(inst)
    first, second = relax.solve(SolveOptions(tol=1e-7)), relax.solve(SolveOptions(tol=1e-7))
    assert first.witnesses >= 1
    assert_same_solution(second, first)
    assert a22_value(inst, return_details=True) == a22_value(inst, return_details=True)


def test_without_a_hook_the_loop_is_the_reference_loop():
    # the plain loop on the anchored program runs on: the hook alone stops it early
    inst = random_operator("gaussian", 6, 1800, 1)
    relax = anchored(inst)
    opts = SolveOptions(tol=1e-9)
    plain = solve_sdp(relax.problem, opts)
    assert_same_solution(plain, _ref_solve_sdp(relax.problem, opts))
    assert plain.witnesses == 0
    assert_same_solution(MomentRelaxation(objective_expand(inst), inst.n, 4).solve(opts), plain)
    assert relax.solve(opts).iterations < plain.iterations


# ---------------------------------------------------------------------------
# the build on integer monomial codes against the per-monomial dict build
# ---------------------------------------------------------------------------


def dict_moment_classes(basis):
    """Each monomial's upper-triangle positions (i, j), in row-major order, as
    ``polybasis.moment_classes`` stated them before integer codes."""
    exps = np.array(basis, dtype=np.intp).reshape(len(basis), -1)
    classes = {}
    for i in range(len(exps)):
        for j, mono in enumerate((exps[i] + exps[i:]).tolist(), start=i):
            classes.setdefault(tuple(mono), []).append((i, j))
    return classes


def dict_norm_power(n, j):
    deltas = _exact_degree(n, j)[1]
    return 2 * deltas, _multinomial(deltas)


class DictRelaxation:
    """``MomentRelaxation``'s build, extraction and anchor set-up as they were
    stated with per-monomial dicts, kept as the reference for the build on
    integer codes."""

    def __init__(self, objective, n, d):
        self.n, self.d = n, d
        exps = _exact_degree(n, d // 2)[1]
        self.basis = [tuple(beta) for beta in exps.tolist()]
        scale = np.sqrt(_multinomial(exps))
        classes = dict_moment_classes(self.basis)
        self.keys = list(classes)
        self.col = {key: t for t, key in enumerate(classes)}
        shifts, w = dict_norm_power(n, (d - objective.degree()) // 2)
        alphas = np.array(list(objective.terms), dtype=np.intp).reshape(-1, n)
        self.objective_vec = np.zeros(len(classes))
        np.add.at(self.objective_vec, self.class_of(alphas, shifts), np.outer(list(objective.terms.values()), w))
        i, j = np.array([p for pos in classes.values() for p in pos], dtype=np.intp).T
        C = np.zeros((len(exps), len(exps)))
        c = np.repeat(self.objective_vec / _multinomial(self.keys), [len(pos) for pos in classes.values()])
        C[i, j] = C[j, i] = c * (scale[i] * scale[j])
        shifts, w = dict_norm_power(n, d // 2)
        self.problem = MomentProgram.from_classes(len(exps), classes, C, [dict(zip(map(tuple, shifts.tolist()), w))],
                                                  [1.0], trace_bound=1.0, scale=scale)

    def class_of(self, a, b):
        keys = (a[:, None, :] + b[None, :, :]).reshape(-1, self.n).tolist()
        return np.array([self.col[tuple(g)] for g in keys], dtype=np.intp).reshape(len(a), len(b))

    def moments(self, X):
        top = np.array(list(self.problem.values(X).values()))
        moments = dict.fromkeys(monomial_basis(self.n, self.d), 0.0)
        for deg in range(0, self.d + 1, 2):
            alphas = _exact_degree(self.n, deg)[1]
            shifts, w = dict_norm_power(self.n, (self.d - deg) // 2)
            moments.update(zip(map(tuple, alphas.tolist()), (top[self.class_of(alphas, shifts)] @ w).tolist()))
        return moments

    def near(self):
        deltas = dict_norm_power(self.n, (self.d - 2) // 2)[0]
        index = {beta: k for k, beta in enumerate(self.basis)}
        return np.array([[index[tuple(beta)] for beta in (deltas // 2 + e).tolist()]
                         for e in np.eye(self.n, dtype=np.intp)], dtype=np.intp)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def relabelled(inst, seed):
    """The same norm problem under a signed permutation of the variables and
    a permutation of the rows."""
    rng = np.random.default_rng(seed)
    a = inst.matrix
    signs = rng.choice([-1.0, 1.0], size=a.shape[1])
    return OperatorInstance(a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])] * signs,
                            inst.convention)


BUILD_CASES = {
    "n1-L4": (lambda: random_operator("gaussian", 1, 3, 0), 4),
    "n2-L4": (lambda: random_operator("gaussian", 2, 8, 1), 4),
    "n4-L8": (lambda: random_operator("gaussian", 4, 16, 2), 8),
    "n6-L6": (lambda: random_operator("unit", 6, 36, 3), 6),
    "n8-L4": (lambda: random_operator("sign", 8, 64, 4), 4),
    "hyper-4-2-relabelled": (lambda: relabelled(low_degree_instance(4, 2), 5), 4),
    "a22-n30": (lambda: random_operator("gaussian", 30, 60, 6), 4),
}


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_code_build_matches_dict_build_bitwise(case):
    make, d = BUILD_CASES[case]
    inst = make()
    n, rows = inst.n, inst.quartic_rows()
    ref = DictRelaxation(objective_expand(inst), n, d)
    relax = MomentRelaxation(None, n, d, rows=rows)
    for got in (relax, MomentRelaxation(objective_expand(inst), n, d)):
        i, j = np.triu_indices(len(got.basis))
        first = got._classes.first
        assert list(map(tuple, (got._exps[i[first]] + got._exps[j[first]]).tolist())) == ref.keys
        assert got.basis == ref.basis
        P, Q = got.problem, ref.problem
        assert same_bits(P._labels, Q._labels) and same_bits(P._ss, Q._ss)
        assert same_bits(P.C[0], Q.C[0]) and same_bits(P.R, Q.R) and same_bits(P.b, Q.b)
        assert same_bits(got._objective_vec, ref.objective_vec)
    # extraction reads the same moments from any X of the program's form
    x = np.random.default_rng(0).normal(size=(len(relax.basis),) * 2)
    X = relax.problem.project([x + x.T])[0][0]
    got = relax.extract_pseudoexpectation(SimpleNamespace(X=[X])).moments
    want = ref.moments(X)
    assert list(got) == list(want) and same_bits(list(got.values()), list(want.values()))
    anchor = _Anchor(relax)
    assert same_bits(anchor.near, ref.near())
    assert all(same_bits(u, v) for u, v in zip(anchor.pairs, ref.problem.class_pairs()))
    # the power objective reuses the relaxation's quartic Gram matrix
    form = _PowerObjective.for_rows(_pow2_scaled(rows)[0], 4)
    assert anchor.objective.lift == form.lift
    assert np.allclose(anchor.objective.matrix, form.matrix, rtol=1e-14, atol=1e-14 * np.abs(form.matrix).max())


def test_build_reads_each_degree_once(monkeypatch):
    # a level-6 build with its extraction and anchor enumerates degrees 0..6 once each
    calls = []
    real = tensorsdp._exact_degree
    monkeypatch.setattr(tensorsdp, "_exact_degree", lambda n, deg: calls.append(deg) or real(n, deg))
    relax = MomentRelaxation(None, 4, 6, rows=random_operator("gaussian", 4, 32, 0).quartic_rows())
    relax.extract_pseudoexpectation(SimpleNamespace(X=[np.eye(len(relax.basis))]))
    _Anchor(relax)
    assert sorted(calls) == list(range(7))


def test_relaxation_takes_an_objective_or_rows():
    inst = random_operator("gaussian", 3, 9, 0)
    with pytest.raises(ValueError, match="either"):
        MomentRelaxation(objective_expand(inst), 3, 4, rows=inst.quartic_rows())
    with pytest.raises(ValueError, match="either"):
        MomentRelaxation(None, 3, 4)
    with pytest.raises(ValueError, match="real operator"):
        MomentRelaxation(None, 3, 4, rows=inst.quartic_rows() * 1j)


class TestBcy:
    def test_identity_all_equal(self):
        rep = bcy_gap(OperatorInstance(np.eye(4)), restarts=8)
        assert abs(rep.oracle_fourth - 1.0) <= 1e-6
        assert abs(rep.sdp_value - 1.0) <= 1e-5
        assert abs(rep.Z - 1.0) <= 1e-12
        assert abs(rep.implied_epsilon) <= 1e-5

    def test_single_unit_row(self):
        rep = bcy_gap(OperatorInstance(np.array([[0.6, 0.8]])), restarts=8)
        assert abs(rep.oracle_fourth - 1.0) <= 1e-8
        assert abs(rep.sdp_value - 1.0) <= 1e-5
        assert abs(rep.Z - 1.0) <= 1e-12

    def test_random_gaussian_sandwich(self, rng):
        inst = OperatorInstance(rng.normal(size=(32, 8)) / np.sqrt(8))
        rep = bcy_gap(inst, restarts=32, seed=0)
        assert rep.oracle_fourth <= rep.sdp_value + 1e-6
        assert rep.sdp_value <= rep.Z + 1e-5
        assert rep.implied_epsilon >= -1e-6 / rep.Z


class TestHyper:
    def test_degree_zero_constants(self):
        hc = certify_hypercontractivity(3, 0, restarts=4)
        assert abs(hc.value - 1.0) <= 1e-6
        assert hc.bound_claimed == 1.0

    def test_low_degree_instance_objective(self, rng):
        # the instance's quartic row sum equals E f^4 of the coefficient vector
        inst = low_degree_instance(3, 1)
        rows = inst.quartic_rows()
        from hypernorm.polybasis import chi_table

        table, _ = chi_table(3, 1)
        for _ in range(10):
            c = rng.normal(size=4)
            c /= np.linalg.norm(c)
            assert np.isclose(np.sum((rows @ c) ** 4), np.mean((table @ c) ** 4))

    def test_l4_d1_below_nine(self):
        hc = certify_hypercontractivity(4, 1, restarts=16)
        assert hc.value <= 9.0 + 1e-4
        assert hc.value >= hc.oracle_fourth - 1e-4
        assert hc.certificate.residual <= 1e-6

    def test_degree_one_projector_moment_solution_validates(self):
        # the solver output for the cube projector on 3 variables is a valid
        # level-4 functional satisfying the sphere ideal at 1e-6, and its
        # certificate reconstructs bound - objective as squares + ideal part
        res = tensor_sdp(low_degree_instance(3, 1), 4)
        rep = validate_pef(res.pe, 1e-6)
        assert rep.passed
        assert res.certificate.residual <= 1e-6
        assert res.certificate.squares  # nontrivial SOS part

    def test_size_guard(self):
        with pytest.raises(ValueError):
            certify_hypercontractivity(10, 2)

    @pytest.mark.parametrize("l,d", [(16, 0), (19, 1), (30, 0)])
    def test_cube_dimension_guard(self, l, d):
        # checked before the 2^l cube points are built
        with pytest.raises(ValueError, match=f"cube dimension {l} exceeds the limit 15"):
            certify_hypercontractivity(l, d)
