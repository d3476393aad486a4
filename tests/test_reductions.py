import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypernorm
from hypernorm.core import OperatorInstance
from hypernorm.linalg import perm_operator
from hypernorm.oracles import norm_2_to_q_lower
from hypernorm.reductions import (
    GADGET_KAPPA,
    build_tensor_forms,
    complex_to_real,
    design_ensemble,
    exact_projector_map,
    m1_pipeline,
    pad_and_project,
    product_test_projector,
    realify_vector,
)


class TestDesigns:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_design_exact(self, n):
        ens = design_ensemble(n)
        assert ens.residual() <= 1e-12
        assert len(ens.vectors) == n + 3 ** (n - 1)
        assert np.array_equal(ens.vectors, design_ensemble(n).vectors)

    def test_rejects_large_n(self):
        for n in (0, 5):
            with pytest.raises(ValueError):
                design_ensemble(n)

    def test_import_graph_has_no_scipy_optimize(self):
        # a fresh interpreter: the test process itself may already hold them;
        # scipy.sparse alone adds about 15 ms to every start
        code = ("import sys, hypernorm.cli; "
                "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(hypernorm.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


def assert_product_test_checks(n):
    _, checks = product_test_projector(n)
    assert checks["idempotency"] <= 1e-12
    assert checks["rank"] == (n * (n + 1) // 2) ** 2 == checks["rank_expected"]
    assert checks["invariance"] <= 1e-12
    assert checks["design_sum"] <= 1e-12


class TestProductTest:
    def test_projector_checks_n2(self):
        assert_product_test_checks(2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_projector_checks_larger_n(self, n):
        assert_product_test_checks(n)

    def test_projector_structure(self):
        p, _ = product_test_projector(2)
        p13 = perm_operator((2, 1, 0, 3), 2)
        p24 = perm_operator((0, 3, 2, 1), 2)
        assert np.abs(p13 @ p - p).max() <= 1e-12
        assert np.abs(p24 @ p - p).max() <= 1e-12


class TestTensorForms:
    def test_identity_all_one(self):
        _, audit = build_tensor_forms(OperatorInstance(np.eye(2)), audit=True, restarts=16)
        for v in (audit.norm_fourth, audit.inj4, audit.inj3_squared, audit.hsep):
            assert abs(v - 1.0) <= 1e-8
        assert audit.passed

    def test_single_row_all_one(self):
        inst = OperatorInstance(np.array([[0.6, 0.8]]))
        _, audit = build_tensor_forms(inst, audit=True, restarts=16)
        assert audit.passed and abs(audit.norm_fourth - 1.0) <= 1e-8

    def test_random_audit(self, rng):
        inst = OperatorInstance(rng.normal(size=(4, 3)))
        forms, audit = build_tensor_forms(inst, audit=True, restarts=48)
        assert audit.passed
        assert audit.max_pairwise_gap <= 1e-6

    def test_a4_permutation_invariance_exact(self, rng):
        forms, _ = build_tensor_forms(OperatorInstance(rng.normal(size=(5, 3))))
        a4 = forms["A4"]
        for pi in itertools.permutations(range(4)):
            assert np.array_equal(np.transpose(a4, pi), a4)

    def test_a4_is_the_sum_of_fourth_powers(self, rng):
        rows = rng.normal(size=(5, 3))
        forms, _ = build_tensor_forms(OperatorInstance(rows))
        want = np.einsum("ia,ib,ic,id->abcd", rows, rows, rows, rows)
        assert np.allclose(forms["A4"], want, rtol=1e-13, atol=1e-13)

    def test_a22_psd(self, rng):
        forms, _ = build_tensor_forms(OperatorInstance(rng.normal(size=(5, 3))))
        assert np.linalg.eigvalsh(forms["A22"])[0] >= -1e-10


class TestGadget:
    def test_kappa_by_symbolic_expansion(self):
        sympy = pytest.importorskip("sympy")
        u, v = sympy.symbols("u v", real=True)
        entries = [(u + v) / sympy.sqrt(2), (u - v) / sympy.sqrt(2)]
        entries += [2 ** sympy.Rational(1, 4) * u / sympy.sqrt(2)] * 2
        entries += [2 ** sympy.Rational(1, 4) * v / sympy.sqrt(2)] * 2
        total = sympy.expand(sum(e**4 for e in entries))
        kappa = sympy.simplify(total / (u**2 + v**2) ** 2)
        assert kappa == sympy.Rational(3, 2) == sympy.nsimplify(GADGET_KAPPA)

    def test_exact_transfer_hundred_cases(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            ac = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            ar = complex_to_real(ac)
            zr = realify_vector(z)
            lhs = np.sum(np.abs(ar @ zr) ** 4)
            rhs = np.sum(np.abs(ac @ z) ** 4)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            assert abs(np.linalg.norm(zr) - np.linalg.norm(z)) <= 1e-12

    def test_scalar_one_and_rotation(self):
        a1 = complex_to_real(np.array([[1.0 + 0j]]))
        assert abs(np.sum((a1 @ realify_vector(np.array([1.0 + 0j]))) ** 4) - 1.0) <= 1e-12
        ai = complex_to_real(np.array([[1.0j]]))
        z = np.array([0.8 + 0.6j])
        assert np.isclose(np.sum(np.abs(ai @ realify_vector(z)) ** 4), abs(1j * z[0]) ** 4)

    def test_unnormalized_constant(self):
        raw = complex_to_real(np.array([[1.0 + 0j]]), normalize=False)
        val = np.sum((raw @ realify_vector(np.array([1.0 + 0j]))) ** 4)
        assert np.isclose(val, GADGET_KAPPA)

    def test_norm_transfer_via_oracle(self, rng):
        ac = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        vc = norm_2_to_q_lower(OperatorInstance(ac), 4, restarts=48, seed=0).value
        vr = norm_2_to_q_lower(OperatorInstance(complex_to_real(ac)), 4, restarts=48, seed=0).value
        assert abs(vc - vr) <= 1e-6 * max(1.0, vc)


class TestM1Pipeline:
    def test_case_y_product_eigenvector(self):
        v0 = np.kron([1.0, 0.0], [0.0, 1.0])
        m0 = np.outer(v0, v0).astype(complex)
        rep = m1_pipeline(m0, 2, k=1, restarts=24)
        assert abs(rep.hsep_m1 - 1.0) <= 1e-6
        assert rep.design_residual <= 1e-10
        assert rep.m1_psd_violation <= 1e-9
        assert rep.m1_leq_identity <= 1e-9
        assert abs(rep.norm_a1_fourth - rep.hsep_m1) <= 1e-6

    def test_case_n_shrinks(self):
        rep = m1_pipeline(0.5 * np.eye(4).astype(complex), 2, k=1, restarts=24)
        assert rep.hsep_m1 <= 0.75 + 1e-3

    def test_amplification_multiplicative(self):
        rep = m1_pipeline(0.5 * np.eye(4).astype(complex), 2, k=2, restarts=24)
        assert abs(rep.hsep_m2 - rep.hsep_m1**2) <= 1e-3

    def test_gadget_closes_the_audit(self):
        # realified A1 reproduces h_Sep(M1) through the real oracle
        v0 = np.kron([1.0, 0.0], [0.0, 1.0])
        m0 = np.outer(v0, v0).astype(complex)
        rep = m1_pipeline(m0, 2, k=1, restarts=24)
        ar = complex_to_real(rep.a1)
        vr = norm_2_to_q_lower(OperatorInstance(ar), 4, restarts=48, seed=1).value ** 4
        assert abs(vr - rep.hsep_m1) <= 1e-6

    def test_rejects_bad_m0(self):
        with pytest.raises(ValueError):
            m1_pipeline(2.0 * np.eye(4).astype(complex), 2)


class TestPadding:
    def test_projector_input_recovered(self):
        p = np.zeros((6, 6))
        p[:3, :3] = np.eye(3)
        rep = pad_and_project(OperatorInstance(p, "expectation"), eps=0.2, seed=0, m_pad=400)
        assert np.abs(rep.projector - p).max() <= 1e-10

    def test_quartic_mean_is_convex_combination(self, rng):
        a = rng.normal(size=(5, 4))
        rep = pad_and_project(OperatorInstance(a, "expectation"), eps=0.3, seed=1, m_pad=300)
        b = rep.padded.matrix[5:]
        rows = rep.padded.quartic_rows()
        for _ in range(10):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            f = 2.0 * x
            lhs = np.sum((rows @ x) ** 4)
            rhs = rep.alpha * np.mean((a @ f) ** 4) + (1 - rep.alpha) * np.mean((b @ f) ** 4)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_dvoretzky_block_narrow_norm(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            b = rng.normal(size=(2000, 6)) / np.sqrt(6)
            v = norm_2_to_q_lower(OperatorInstance(b, "expectation"), 4, restarts=24, seed=seed).value
            assert 3**0.25 - 0.15 <= v <= 3**0.25 + 0.15

    def test_sigma_min_flattened(self, rng):
        a = rng.normal(size=(8, 4))
        rep = pad_and_project(OperatorInstance(a, "expectation"), eps=0.3, seed=2, m_pad=500)
        assert rep.sigma_min >= 1.0 - 0.3

    def test_separation_survives_padding(self):
        rng = np.random.default_rng(9)
        iso = np.linalg.qr(rng.normal(size=(40, 6)))[0] * np.sqrt(40 / 6)
        spiky = np.zeros((40, 6))
        spiky[0, 0] = np.sqrt(40)
        spiky[1:7, 1:6] = np.linalg.qr(rng.normal(size=(6, 5)))[0] * 2
        i_no = OperatorInstance(iso, "expectation")
        i_yes = OperatorInstance(spiky, "expectation")
        vn = norm_2_to_q_lower(i_no, 4, restarts=16).value
        p_yes = pad_and_project(i_yes, 0.3, seed=2, c_small=vn, m_pad=500)
        p_no = pad_and_project(i_no, 0.3, seed=2, c_small=vn, m_pad=500)
        vy2 = norm_2_to_q_lower(p_yes.padded, 4, restarts=16).value
        vn2 = norm_2_to_q_lower(p_no.padded, 4, restarts=16).value
        assert vy2 > vn2 + 0.2
        assert vn2 <= 3**0.25 + 0.3

    def test_eps_range(self, rng):
        with pytest.raises(ValueError):
            pad_and_project(OperatorInstance(rng.normal(size=(3, 2)), "expectation"), eps=0.7)


class TestExactProjectorMap:
    def test_early_reject_on_large_sigma(self, rng):
        iso = np.linalg.qr(rng.normal(size=(20, 4)))[0] * np.sqrt(20 / 4)
        out = exact_projector_map(OperatorInstance(2.0 * iso, "expectation"), 2.0, 0.1)
        assert out["early_reject_small"] and out["verdict"] == "large"

    def test_near_isometry_maps_to_projector_test(self, rng):
        iso = np.linalg.qr(rng.normal(size=(20, 3)))[0] * np.sqrt(20 / 3)
        out = exact_projector_map(OperatorInstance(iso, "expectation"), 2.5, 0.2, restarts=16)
        assert not out["early_reject_small"]
        assert out["dim"] == 3
        assert out["verdict"] in ("small", "between")
