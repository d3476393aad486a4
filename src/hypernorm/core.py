"""Core value types shared by every subsystem.

Conventions used throughout the package:

* Vectors use *counting* norms ``|v|_p = (sum |v_i|^p)^(1/p)``; functions on a
  finite set use *expectation* norms ``|f|_p = (mean |f(u)|^p)^(1/p)``.  An
  :class:`OperatorInstance` records which convention its 2->q norms are taken
  in, and all conversions between the two are exact dimension scalings done in
  one place (:meth:`OperatorInstance.quartic_rows` and friends).
* Dense matrices are plain numpy arrays.  The on-disk format is a small JSON
  document (see :func:`matrix_to_json` / :func:`matrix_from_json`) with complex
  entries stored as ``[re, im]`` pairs.
* Tensor indices flatten row-major with factor 1 slowest; every reshape in the
  package relies on this single convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TensorShape",
    "OperatorInstance",
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix",
    "save_matrix",
    "random_operator",
]


@dataclass(frozen=True)
class TensorShape:
    """Factor dimensions (d_1, ..., d_r) of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0 or any(d < 1 for d in self.dims):
            raise ValueError(f"factor dimensions must all be >= 1, got {self.dims}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))


def _require_finite(a: np.ndarray):
    if not np.all(np.isfinite(a.view(np.float64) if a.dtype == complex else a)):
        raise ValueError("matrix entries must be finite")


@dataclass
class OperatorInstance:
    """A dense operator together with the norm convention of its 2->q norms.

    ``convention`` is ``"counting"`` (rows act on counting-unit vectors, norms
    are sums) or ``"expectation"`` (the operator maps functions to functions,
    norms are means).  ``row_weights`` optionally assigns a measure to output
    coordinates of an expectation-convention instance; weights must sum to 1
    and default to the uniform measure.
    """

    matrix: np.ndarray
    convention: str = "counting"
    row_weights: np.ndarray | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.ndim != 2:
            raise ValueError("operator must be a 2-d matrix")
        if self.convention not in ("counting", "expectation"):
            raise ValueError(f"unknown norm convention {self.convention!r}")
        _require_finite(self.matrix)
        if self.row_weights is not None:
            w = np.asarray(self.row_weights, dtype=float)
            if w.shape != (self.matrix.shape[0],) or np.any(w < 0):
                raise ValueError("row_weights must be a nonnegative vector, one weight per row")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("row_weights must sum to 1")
            if self.convention != "expectation":
                raise ValueError("row_weights only make sense in the expectation convention")
            self.row_weights = w

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.matrix)

    def _weights(self) -> np.ndarray:
        if self.convention == "counting":
            return np.ones(self.m)
        if self.row_weights is not None:
            return self.row_weights
        return np.full(self.m, 1.0 / self.m)

    def quartic_rows(self, q: int = 4) -> np.ndarray:
        """Rows scaled so that ``|A f|_q^q = sum_i <row_i, x>^q`` over counting-unit x.

        For the counting convention the rows are returned unchanged.  For the
        expectation convention the exact scaling is ``(n^(q/2) * w_i)^(1/q)``
        per row, which absorbs both the input rescaling ``f = sqrt(n) x`` and
        the output measure.
        """
        if q % 2 != 0 or q < 2:
            raise ValueError("q must be even and >= 2")
        if self.convention == "counting":
            return self.matrix.copy()
        w = self._weights()
        scale = (float(self.n) ** (q / 2.0) * w) ** (1.0 / q)
        return self.matrix * scale[:, None]

    def quadratic_rows(self) -> np.ndarray:
        """Rows scaled so that ``|A f|_2^2 = sum_i <row_i, x>^2`` over counting-unit x."""
        return self.quartic_rows(q=2)

    def two_to_two(self) -> float:
        """Largest singular value in the declared convention."""
        return float(np.linalg.norm(self.quadratic_rows(), 2))

    def sigma_min_nonzero(self, rel_tol: float = 1e-10) -> float:
        """Smallest nonzero singular value in the declared convention."""
        s = np.linalg.svd(self.quadratic_rows(), compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0.0
        s = s[s > rel_tol * s[0]]
        return float(s[-1])

    def two_to_infty(self) -> float:
        """The 2->infinity norm: the largest row 2-norm, convention adjusted."""
        row_norms = np.linalg.norm(self.matrix, axis=1)
        if self.convention == "counting":
            return float(row_norms.max(initial=0.0))
        return float(np.sqrt(self.n) * row_norms.max(initial=0.0))


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode a dense matrix as ``{"rows", "cols", "scalar", "data"}``."""
    a = np.atleast_2d(np.asarray(a))
    _require_finite(a)
    if np.iscomplexobj(a):
        data = [[[float(v.real), float(v.imag)] for v in row] for row in a]
        scalar = "complex"
    else:
        data = [[float(v) for v in row] for row in a]
        scalar = "real"
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "scalar": scalar, "data": data}


def matrix_from_json(doc: dict) -> np.ndarray:
    """Decode a :func:`matrix_to_json` document; a malformed one raises ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError(f"matrix document must be a JSON object, got {type(doc).__name__}")
    missing = [k for k in ("rows", "cols", "scalar", "data") if k not in doc]
    if missing:
        raise ValueError(f"matrix document lacks {', '.join(missing)}")
    for key in ("rows", "cols"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValueError(f"matrix document field {key!r} must be an integer, got {doc[key]!r}")
    rows, cols, scalar, data = doc["rows"], doc["cols"], doc["scalar"], doc["data"]
    if scalar not in ("real", "complex"):
        raise ValueError(f"unknown scalar kind {scalar!r}")
    if not isinstance(data, list):
        raise ValueError(f"matrix document field 'data' must be a list of rows, got {data!r}")
    if len(data) != rows:
        raise ValueError(f"matrix document claims {rows} rows, data has {len(data)}")
    try:
        if scalar == "real":
            a = np.array(data, dtype=float)
        else:
            a = np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError) as exc:
        entry = "number" if scalar == "real" else "[re, im] pair of numbers"
        raise ValueError(f"matrix document field 'data' must hold one {entry} per entry: {exc}") from None
    if a.shape != (rows, cols):
        raise ValueError(f"matrix document shape mismatch: header {(rows, cols)}, data {a.shape}")
    _require_finite(a)
    return a


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(path, a: np.ndarray):
    with open(path, "w") as fh:
        json.dump(matrix_to_json(a), fh)


def random_operator(dist: str, n: int, m: int, seed: int) -> OperatorInstance:
    """An m x n random operator in the expectation convention, rows scaled by 1/sqrt(n).

    ``dist`` picks the row ensemble: ``"sign"`` (uniform +-1 entries),
    ``"gaussian"`` (standard normal entries) or ``"unit"`` (Gaussian rows
    rescaled to length sqrt(n)).  The draw is a function of ``seed`` alone.
    """
    rng = np.random.default_rng(seed)
    if dist == "sign":
        a = rng.choice([-1.0, 1.0], size=(m, n))
    elif dist == "gaussian":
        a = rng.normal(size=(m, n))
    elif dist == "unit":
        a = rng.normal(size=(m, n))
        a *= np.sqrt(n) / np.linalg.norm(a, axis=1)[:, None]
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    return OperatorInstance(a / np.sqrt(n), "expectation")
