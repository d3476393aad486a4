import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypernorm.polybasis import Polynomial, monomial_basis
from hypernorm.pseudoexp import (
    PreconditionError,
    PseudoExpectation,
    adjoin_rounded_variable,
    check_pseudo_cauchy_schwarz,
    localized_moment_matrix,
    moment_matrix,
    pseudo_expect,
    validate_pef,
)


def point_mass(x, level=4):
    return PseudoExpectation.from_distribution([x], level)


class TestPseudoExpect:
    def test_normalization(self):
        pe = point_mass([1.0, 2.0])
        assert pseudo_expect(pe, Polynomial.constant(2, 1.0)) == 1.0

    def test_true_expectation(self):
        pe = point_mass([1.0, 2.0])
        assert np.isclose(pseudo_expect(pe, Polynomial(2, {(1, 2): 1.0})), 4.0)

    def test_symmetric_mixture_kills_odd_moments(self):
        pe = PseudoExpectation.from_distribution([[1.0, 2.0], [-1.0, -2.0]], 4)
        for alpha in [(1, 0), (0, 1), (3, 0), (1, 2)]:
            assert abs(pseudo_expect(pe, Polynomial(2, {alpha: 1.0}))) <= 1e-14

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            pseudo_expect(point_mass([1.0]), Polynomial(1, {(5,): 1.0}))


class TestMomentTable:
    def table(self, n=3, level=4):
        return {a: 0.5 for a in monomial_basis(n, level)}

    def test_a_complete_table_is_kept_bitwise(self):
        moments = {a: float(v) for a, v in zip(monomial_basis(3, 4), np.random.default_rng(0).normal(size=35))}
        pe = PseudoExpectation(3, 4, moments)
        assert list(pe.moments) == list(moments) and list(pe.moments.values()) == list(moments.values())
        # moments past the level ride along, as before
        assert (5, 0, 0) in PseudoExpectation(3, 4, {**moments, (5, 0, 0): 1.0}).moments

    @pytest.mark.parametrize("change", ["drop", "drop-add-high", "drop-add-negative", "drop-add-float",
                                        "drop-add-short", "drop-add-text"])
    def test_an_incomplete_table_is_rejected(self, change):
        # each extra key keeps the count at C(n + level, level), so only the
        # monomials themselves show the gap
        moments = self.table()
        del moments[(1, 1, 0)]
        extra = {"drop": None, "drop-add-high": (5, 0, 0), "drop-add-negative": (-1, 2, 0),
                 "drop-add-float": (0.5, 0.5, 0), "drop-add-short": (1, 1), "drop-add-text": ("a", "b", "c")}[change]
        if extra is not None:
            moments[extra] = 0.5
        with pytest.raises(ValueError, match=r"incomplete; first missing monomial \(1, 1, 0\)"):
            PseudoExpectation(3, 4, moments)

    def test_an_odd_level_is_rejected(self):
        with pytest.raises(ValueError, match="even"):
            PseudoExpectation(3, 3, self.table(level=3))


class TestValidate:
    def test_point_mass_rank_one(self):
        pe = point_mass([1.0, 2.0])
        rep = validate_pef(pe, 1e-10)
        assert rep.passed
        m = moment_matrix(pe)
        w = np.linalg.eigvalsh(m)
        assert np.sum(w > 1e-8 * w[-1]) == 1

    def test_corrupted_moment_detected(self):
        pe = point_mass([1.0, 2.0])
        bad = dict(pe.moments)
        bad[(2, 0)] += 1.0
        rep = validate_pef(PseudoExpectation(2, 4, bad), 1e-8)
        assert not rep.passed and rep.min_eig < -1e-8

    def test_constraint_residuals(self):
        # a distribution on the unit circle satisfies the sphere ideal
        pts = [[np.cos(t), np.sin(t)] for t in np.linspace(0, 2 * np.pi, 7, endpoint=False)]
        sphere = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        pe = PseudoExpectation.from_distribution(pts, 4, constraints=[sphere])
        rep = validate_pef(pe, 1e-10)
        assert rep.passed and max(rep.constraint_residuals) <= 1e-10

    @given(st.integers(2, 6).filter(lambda r: r % 2 == 0), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_distributions_always_validate(self, level, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        pts = rng.normal(size=(k, n))
        w = rng.uniform(0.1, 1.0, size=k)
        w /= w.sum()
        pe = PseudoExpectation.from_distribution(pts, level, weights=w)
        assert validate_pef(pe, 1e-10 * max(1.0, np.abs(pts).max() ** level)).passed


class TestPseudoCauchySchwarz:
    def test_equality_case(self):
        pe = point_mass([1.0, 2.0])
        p = Polynomial(2, {(1, 0): 1.0})
        assert check_pseudo_cauchy_schwarz(pe, p, p)

    def test_zero_square_forces_zero_cross(self):
        # a distribution supported on the line x1 = 0: E P^2 = 0 for P = x1
        pe = PseudoExpectation.from_distribution([[0.0, 1.0], [0.0, -2.0]], 4)
        p = Polynomial(2, {(1, 0): 1.0})
        q = Polynomial(2, {(0, 1): 3.0, (1, 0): -1.0})
        assert abs(pseudo_expect(pe, p * q)) <= 1e-8
        assert check_pseudo_cauchy_schwarz(pe, p, q, tol=1e-8)

    def test_random_fixture_suite(self, rng):
        for _ in range(25):
            pts = rng.normal(size=(4, 2))
            pe = PseudoExpectation.from_distribution(pts, 4)
            p = Polynomial(2, {tuple(rng.integers(0, 2, size=2)): float(rng.normal())})
            q = Polynomial(2, {tuple(rng.integers(0, 2, size=2)): float(rng.normal())})
            assert check_pseudo_cauchy_schwarz(pe, p, q, tol=1e-9)


class TestRounding:
    def test_true_binary_variable_unchanged(self):
        pe = PseudoExpectation.from_distribution([[0.0], [1.0]], 4, weights=[0.4, 0.6])
        out = adjoin_rounded_variable(pe, 0)
        assert np.isclose(out.moments[(0, 1)], pe.moments[(1,)])
        assert np.isclose(out.moments[(0, 2)], pe.moments[(1,)])
        assert np.isclose(out.moments[(1, 1)], pe.moments[(2,)])
        assert validate_pef(out, 1e-10).passed

    def test_half_point_mass(self):
        out = adjoin_rounded_variable(point_mass([0.5]), 0)
        assert np.isclose(out.moments[(0, 1)], 0.5)
        assert np.isclose(out.moments[(0, 2)], 0.5)
        assert validate_pef(out, 1e-10).passed
        v = Polynomial(2, {(0, 1): 1.0})
        assert abs(pseudo_expect(out, (v * v - v) * (v * v - v))) <= 1e-14

    def test_multilinear_agreement_is_exact(self, rng):
        pe = PseudoExpectation.from_distribution(rng.uniform(0, 1, size=(5, 2)), 4)
        out = adjoin_rounded_variable(pe, 1)
        # any polynomial linear in the new variable agrees with substituting x_1
        for _ in range(20):
            base = tuple(rng.integers(0, 3, size=2))
            if sum(base) > 3:
                continue
            lifted = pseudo_expect(out, Polynomial(3, {base + (1,): 1.0}))
            direct = pseudo_expect(pe, Polynomial(2, {(base[0], base[1] + 1): 1.0}))
            assert np.isclose(lifted, direct, atol=1e-14)

    def test_violating_precondition_rejected(self):
        pe = point_mass([2.0])
        with pytest.raises(PreconditionError):
            adjoin_rounded_variable(pe, 0)
        with pytest.raises(PreconditionError, match="not PSD"):
            adjoin_rounded_variable(pe, 0, check_precondition=False)

    def test_sos_witness_accepted(self):
        # x - x^2 = (x)(1 - x) has no plain SoS form, but with the constraint
        # x^2 - x = 0 in the ideal the witness multiplier -1 reproduces it
        pe = PseudoExpectation.from_distribution([[0.0], [1.0]], 4,
                                                 constraints=[Polynomial(1, {(2,): 1.0, (1,): -1.0})])
        out = adjoin_rounded_variable(pe, 0, witness=([], [-1.0]))
        assert validate_pef(out, 1e-10).passed

    def test_bad_witness_rejected(self):
        pe = PseudoExpectation.from_distribution([[0.0], [1.0]], 4,
                                                 constraints=[Polynomial(1, {(2,): 1.0, (1,): -1.0})])
        with pytest.raises(PreconditionError, match="witness"):
            adjoin_rounded_variable(pe, 0, witness=([Polynomial(1, {(1,): 1.0})], [0.0]))


def _double_loop_moment_matrix(pe):
    # moment_matrix before it became the constant-localizer case
    basis = monomial_basis(pe.n, pe.level // 2)
    m = np.empty((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            m[i, j] = pe.moments[tuple(x + y for x, y in zip(a, b))]
    return m


@pytest.mark.parametrize("n,level", [(1, 2), (2, 4), (3, 4), (2, 6)])
def test_moment_matrix_matches_double_loop(rng, n, level):
    pts = rng.normal(size=(5, n))
    pts[0] = 0.0
    pts[1, 0] = -0.0                     # signed zeros must survive bit for bit
    pe = PseudoExpectation.from_distribution(pts, level)
    pe.moments[(0,) * (n - 1) + (1,)] = -0.0
    got, ref = moment_matrix(pe), _double_loop_moment_matrix(pe)
    assert got.tobytes() == ref.tobytes()


def test_boundedness_relation_on_unit_box(rng):
    pts = rng.uniform(0, 1, size=(20, 2))
    pe = PseudoExpectation.from_distribution(pts, 4)
    for i in range(2):
        xi = Polynomial.variable(2, i)
        loc = localized_moment_matrix(pe, xi - xi * xi)
        assert np.linalg.eigvalsh(loc)[0] >= -1e-10


def test_json_roundtrip():
    pe = point_mass([1.0, 2.0])
    doc = pe.to_json()
    assert doc["level"] == 4 and doc["n"] == 2
    back = PseudoExpectation.from_json(doc)
    assert back.moments == pe.moments
