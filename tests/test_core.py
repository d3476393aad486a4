import json

import numpy as np
import pytest

from hypernorm.core import (
    OperatorInstance,
    TensorShape,
    matrix_from_json,
    matrix_to_json,
    random_operator,
)


def test_matrix_json_roundtrip_real(rng):
    a = rng.normal(size=(3, 5))
    doc = matrix_to_json(a)
    assert doc["scalar"] == "real" and doc["rows"] == 3 and doc["cols"] == 5
    back = matrix_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back, a)


def test_matrix_json_roundtrip_complex(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    doc = matrix_to_json(a)
    assert doc["scalar"] == "complex"
    assert np.allclose(matrix_from_json(doc), a)


def test_matrix_json_rejects_bad_headers():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "scalar": "real", "data": [[1.0, 2.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "scalar": "octonion", "data": [[1.0]]})


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        OperatorInstance(np.array([[np.inf, 1.0]]))


def test_tensor_shape_invariants():
    sh = TensorShape((2, 3, 2))
    assert sh.total == 12 and sh.rank == 3
    sh.check_vector(12)
    with pytest.raises(ValueError):
        sh.check_vector(11)
    with pytest.raises(ValueError):
        TensorShape((0, 2))


def test_convention_scalings_are_exact(rng):
    # expectation-convention norms computed from scaled rows agree with the
    # direct definition on functions f = sqrt(n) x
    a = rng.normal(size=(5, 3))
    inst = OperatorInstance(a, "expectation")
    rows4 = inst.quartic_rows()
    rows2 = inst.quadratic_rows()
    for _ in range(25):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        f = np.sqrt(3) * x
        assert np.isclose(np.sum((rows4 @ x) ** 4), np.mean((a @ f) ** 4))
        assert np.isclose(np.sum((rows2 @ x) ** 2), np.mean((a @ f) ** 2))
    assert np.isclose(inst.two_to_infty(), np.sqrt(3) * np.linalg.norm(a, axis=1).max())


def test_row_weights_validation(rng):
    a = rng.normal(size=(4, 2))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    inst = OperatorInstance(a, "expectation", row_weights=w)
    rows = inst.quartic_rows()
    x = rng.normal(size=2)
    assert np.isclose(np.sum((rows @ x) ** 4), 4.0 * np.sum(w * (a @ x) ** 4))
    with pytest.raises(ValueError):
        OperatorInstance(a, "expectation", row_weights=np.array([1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        OperatorInstance(a, "counting", row_weights=w)


def _reference_draw(dist, n, m, seed):
    # the sampler acceptance criterion 2 used before it moved into the package
    rng = np.random.default_rng(seed)
    if dist == "sign":
        a = rng.choice([-1.0, 1.0], size=(m, n))
    elif dist == "gaussian":
        a = rng.normal(size=(m, n))
    else:
        a = rng.normal(size=(m, n))
        a *= np.sqrt(n) / np.linalg.norm(a, axis=1)[:, None]
    return OperatorInstance(a / np.sqrt(n), "expectation")


@pytest.mark.parametrize("dist", ["sign", "gaussian", "unit"])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_operator_reproduces_reference_draws(dist, seed):
    n, m = 4, 800
    got = random_operator(dist, n, m, seed)
    ref = _reference_draw(dist, n, m, seed)
    assert got.convention == "expectation"
    assert np.array_equal(got.matrix, ref.matrix)


def test_random_operator_rejects_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution"):
        random_operator("cauchy", 4, 16, 0)
