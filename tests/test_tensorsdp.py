import numpy as np
import pytest

from hypernorm.core import OperatorInstance, random_operator
from hypernorm.oracles import norm_2_to_q_lower
from hypernorm.polybasis import Polynomial, objective_expand, sphere_poly
from hypernorm.pseudoexp import validate_pef
from hypernorm.sdp import MomentProgram, SolveOptions, solve_sdp
from hypernorm.sse import RegularGraph, cycle_graph, subspace_instance, top_projector_norm
from hypernorm.tensorsdp import (
    a22_matrix,
    a22_value,
    bcy_gap,
    certify_hypercontractivity,
    index_symmetrize,
    low_degree_instance,
    tensor_sdp,
)


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


def _symbolic_residual(inst, cert):
    # bound - objective - sum_j R_j^2 - q (|x|^2 - 1), expanded with Polynomial
    recon = Polynomial.constant(inst.n, cert.bound) - objective_expand(inst)
    for sq in cert.squares:
        recon = recon - sq * sq
    recon = recon - cert.ideal_multiplier * sphere_poly(inst.n)
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
    assert abs(_symbolic_residual(inst, cert) - cert.residual) <= 1e-12


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
    problem = MomentProgram(n * n, classes, a22_matrix(instance), [trace], [1.0], trace_bound=1.0)
    sol = solve_sdp(problem, opts)
    return sol, sol.bound


@pytest.mark.parametrize("inst", [sign_instance(6, 3), random_operator("gaussian", 4, 800, 0),
                                  random_operator("gaussian", 5, 50, 1)],
                         ids=["sign-6x3", "gaussian-4x800", "gaussian-5x50"])
def test_sym2_form_keeps_the_index_class_iterates(inst):
    # the isometry maps one program's iterates onto the other's, so both stop
    # at the same iteration with the same value and bound up to rounding
    opts = SolveOptions(tol=1e-9 if inst.n ** 2 <= 16 else 1e-8, max_iter=50_000)
    res = a22_value(inst, opts, return_details=True)
    ref, ref_bound = index_class_a22(inst, opts)
    assert res.status == ref.status == "optimal"
    assert res.iterations == ref.iterations
    assert abs(res.value - ref.primal_obj) <= 1e-12 * abs(ref.primal_obj)
    assert abs(res.bound - ref_bound) <= 1e-12 * abs(ref_bound)


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
