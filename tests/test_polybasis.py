import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypernorm.core import OperatorInstance
from hypernorm.linalg import sym_isometry
from hypernorm.polybasis import (
    FourierFunction,
    Polynomial,
    _exact_degree,
    _multinomial,
    chi_table,
    cube_points,
    low_degree_projector,
    monomial_basis,
    multilinear_reduce,
    objective_expand,
    quartic_gram,
)
from hypernorm.tensorsdp import a22_matrix


def test_monomial_basis_counts_and_order():
    mb = monomial_basis(3, 2)
    assert len(mb) == math.comb(5, 2)
    assert mb[0] == (0, 0, 0)
    degs = [sum(a) for a in mb]
    assert degs == sorted(degs)
    assert mb.index((1, 0, 0)) < mb.index((0, 1, 0)) < mb.index((0, 0, 1))


def _grlex_key(alpha):
    """Graded-lexicographic order: total degree first, then variable 1 heaviest."""
    return (sum(alpha), tuple(-e for e in alpha))


def _sorted_set_basis(n, r):
    # monomial_basis before the vectorized enumerator: count, dedupe, sort
    out = []
    for deg in range(r + 1):
        combos = set()
        for bars in itertools.combinations_with_replacement(range(n), deg):
            alpha = [0] * n
            for b in bars:
                alpha[b] += 1
            combos.add(tuple(alpha))
        out.extend(sorted(combos, key=_grlex_key))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_monomial_basis_matches_sorted_set_reference(n):
    for r in range(7):
        mb = monomial_basis(n, r)
        assert mb == _sorted_set_basis(n, r)
        assert mb == sorted(mb, key=_grlex_key)
        assert all(type(e) is int for alpha in mb for e in alpha)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("deg", range(4))
def test_enumerator_follows_sym_isometry_columns(n, deg):
    # column k of sym_isometry(deg, n) sits on the tensor positions whose
    # variable counts are exponent row k, and has multinomial(row k) of them
    index, exps = _exact_degree(n, deg)
    assert np.array_equal((index[:, :, None] == np.arange(n)).sum(axis=1), exps)
    w = sym_isometry(deg, n)
    positions = np.array(list(itertools.product(range(n), repeat=deg))).reshape(n**deg, deg)
    counts = (positions[:, :, None] == np.arange(n)).sum(axis=1)
    assert np.array_equal(w != 0, (counts[:, None, :] == exps[None, :, :]).all(axis=2))
    assert np.array_equal(np.count_nonzero(w, axis=0), _multinomial(exps))


def test_multinomial_is_exact():
    for n in range(1, 5):
        for deg in range(9):
            _, exps = _exact_degree(n, deg)
            ref = [math.factorial(deg) // math.prod(math.factorial(e) for e in alpha)
                   for alpha in exps.tolist()]
            assert _multinomial(exps).tolist() == [float(v) for v in ref]
    assert _multinomial([[20, 0], [10, 10]]).tolist() == [1.0, float(math.comb(20, 10))]


def test_polynomial_arithmetic(rng):
    p = Polynomial(2, {(1, 0): 2.0, (0, 2): 1.0})
    q = Polynomial(2, {(0, 1): -1.0, (0, 0): 0.5})
    for _ in range(20):
        x = rng.normal(size=2)
        assert np.isclose((p * q)(x), p(x) * q(x))
        assert np.isclose((p + q)(x), p(x) + q(x))
        assert np.isclose((p - 3.0)(x), p(x) - 3.0)
    assert (p - p).terms == {}


class TestObjectiveExpand:
    def test_scalar(self):
        assert objective_expand(OperatorInstance(np.array([[1.0]]))).terms == {(4,): 1.0}

    def test_identity2(self):
        p = objective_expand(OperatorInstance(np.eye(2)))
        assert p.terms == {(4, 0): 1.0, (0, 4): 1.0}

    def test_agrees_with_direct_evaluation(self, rng):
        a = rng.normal(size=(3, 2))
        p = objective_expand(OperatorInstance(a))
        for _ in range(100):
            x = rng.normal(size=2)
            direct = float(np.sum((a @ x) ** 4))
            assert abs(p(x) - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_expectation_convention(self, rng):
        a = rng.normal(size=(4, 3))
        p = objective_expand(OperatorInstance(a, "expectation"))
        for _ in range(30):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            f = np.sqrt(3) * x
            assert np.isclose(p(x), np.mean((a @ f) ** 4))

    def test_support_is_degree_four(self, rng):
        p = objective_expand(OperatorInstance(rng.normal(size=(5, 3))))
        assert all(sum(a) == 4 for a in p.terms)
        # diagonal operator: only pure fourth powers survive
        pd = objective_expand(OperatorInstance(np.diag([1.0, 2.0, 3.0])))
        assert set(pd.terms) == {(4, 0, 0), (0, 4, 0), (0, 0, 4)}

    def test_rejects_complex(self, rng):
        ac = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        with pytest.raises(ValueError):
            objective_expand(OperatorInstance(ac))


def _reference_expand(instance):
    # the per-row expansion objective_expand used before the Gram-matrix form
    n = instance.n
    terms: dict = {}
    for row in instance.quartic_rows():
        nz = [j for j in range(n) if row[j] != 0.0]
        for combo in itertools.combinations_with_replacement(nz, 4):
            alpha = [0] * n
            coeff = 1.0
            for j in combo:
                alpha[j] += 1
                coeff *= row[j]
            mult = math.factorial(4)
            for e in alpha:
                mult //= math.factorial(e)
            key = tuple(alpha)
            terms[key] = terms.get(key, 0.0) + mult * coeff
    return Polynomial(n, terms)


def _zeroed_rows():
    a = np.random.default_rng(5).normal(size=(6, 5))
    a[:, 3] = 0.0                        # a variable no row touches
    a[0, :2] = 0.0
    a[2, [0, 2, 4]] = 0.0
    a[4] = 0.0
    return OperatorInstance(a)


def _weighted_rows():
    rng = np.random.default_rng(6)
    w = rng.uniform(0.1, 1.0, size=7)
    return OperatorInstance(rng.normal(size=(7, 3)), "expectation", w / w.sum())


EXPAND_CASES = {
    "dense": lambda: OperatorInstance(np.random.default_rng(4).normal(size=(9, 4))),
    "exact-zeros": _zeroed_rows,
    "row-weights": _weighted_rows,
    "one-variable": lambda: OperatorInstance(np.random.default_rng(7).normal(size=(5, 1))),
}


def _factorial_table_expand(instance):
    # objective_expand before the shared multinomial helper
    n = instance.n
    gram = quartic_gram(instance.quartic_rows())
    combos = np.array(list(itertools.combinations_with_replacement(range(n), 4)))
    values = gram[combos[:, 0] * n + combos[:, 1], combos[:, 2] * n + combos[:, 3]]
    exps = (combos[:, :, None] == np.arange(n)).sum(axis=1)
    fact = np.array([1.0, 1.0, 2.0, 6.0, 24.0])
    mult = 24.0 / np.prod(fact[exps], axis=1)
    keep = np.flatnonzero(values)
    return Polynomial(n, {tuple(exps[t].tolist()): mult[t] * values[t] for t in keep})


@pytest.mark.parametrize("case", sorted(EXPAND_CASES) + ["n12"])
def test_objective_expand_matches_factorial_table_bitwise(case):
    inst = (EXPAND_CASES[case]() if case in EXPAND_CASES
            else OperatorInstance(np.random.default_rng(8).normal(size=(30, 12))))
    got, ref = objective_expand(inst), _factorial_table_expand(inst)
    assert [(a, c.hex()) for a, c in got.terms.items()] == [(a, c.hex()) for a, c in ref.terms.items()]


@pytest.mark.parametrize("case", sorted(EXPAND_CASES))
def test_objective_expand_matches_per_row_reference(case):
    inst = EXPAND_CASES[case]()
    got, ref = objective_expand(inst), _reference_expand(inst)
    assert set(got.terms) == set(ref.terms)
    scale = ref.max_abs_coeff()
    assert max(abs(got.terms[a] - c) for a, c in ref.terms.items()) <= 1e-12 * scale


@pytest.mark.parametrize("case", sorted(EXPAND_CASES))
def test_a22_matrix_is_the_pairwise_gram(case):
    inst = EXPAND_CASES[case]()
    rows = inst.quartic_rows()
    pairs = np.einsum("ia,ib->iab", rows, rows).reshape(rows.shape[0], -1)
    assert np.array_equal(a22_matrix(inst), pairs.T @ pairs)


class TestMultilinearReduce:
    def test_square_to_one(self):
        assert multilinear_reduce(Polynomial(2, {(2, 0): 1.0})).terms == {(0, 0): 1.0}

    def test_cubic(self):
        assert multilinear_reduce(Polynomial(2, {(3, 2): 1.0})).terms == {(1, 0): 1.0}

    def test_agreement_on_cube(self, rng):
        degs = [tuple(rng.integers(0, 3, size=4)) for _ in range(12)]
        p = Polynomial(4, {d: float(rng.normal()) for d in degs})
        r = multilinear_reduce(p)
        assert r.degree() <= 4 and all(max(a) <= 1 for a in r.terms)
        for w in cube_points(4):
            assert abs(p(w) - r(w)) <= 1e-12 * max(1.0, abs(p(w)))


class TestFourier:
    @given(st.lists(st.floats(-2, 2), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, vals):
        f = FourierFunction.from_values(np.array(vals), 3)
        assert np.isclose(np.mean(np.array(vals) ** 2), f.squared_two_norm(), atol=1e-12)

    def test_roundtrip(self, rng):
        f = FourierFunction(4, {frozenset(): 0.3, frozenset([0]): 1.0, frozenset([1, 2]): -0.5})
        g = FourierFunction.from_values(f.to_values(), 4)
        for a in f.coeffs:
            assert np.isclose(g.coeffs[a], f.coeffs[a])


class TestLowDegreeProjector:
    def test_full_degree_is_identity(self):
        assert np.allclose(low_degree_projector(3, 3), np.eye(8))

    def test_degree_zero_averages(self, rng):
        p = low_degree_projector(3, 0)
        v = rng.normal(size=8)
        assert np.allclose(p @ v, v.mean())

    def test_rank(self):
        p = low_degree_projector(3, 1)
        assert np.isclose(np.trace(p), 4)
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.T)

    def test_commutes_with_coordinate_permutations(self, rng):
        l, d = 4, 2
        p = low_degree_projector(l, d)
        perm = rng.permutation(l)
        pts = cube_points(l)
        lookup = {tuple(row): i for i, row in enumerate(pts)}
        sigma = np.zeros((2**l, 2**l))
        for i, row in enumerate(pts):
            sigma[lookup[tuple(row[perm])], i] = 1.0
        assert np.abs(sigma @ p @ sigma.T - p).max() <= 1e-12

    def test_projects_onto_low_degree_support(self):
        l, d = 4, 2
        p = low_degree_projector(l, d)
        f = FourierFunction(l, {frozenset([0, 1, 2]): 1.0, frozenset([1]): 2.0})
        out = FourierFunction.from_values(p @ f.to_values(), l)
        assert np.isclose(out.coeffs.get(frozenset([1]), 0.0), 2.0)
        assert abs(out.coeffs.get(frozenset([0, 1, 2]), 0.0)) <= 1e-12

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            low_degree_projector(3, 4)
