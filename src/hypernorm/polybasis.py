"""Monomial bases, sparse polynomial arithmetic, moment-matrix classes,
Boolean-cube Fourier analysis, and expansion of quartic-form objectives into
coefficient form.

Monomials are exponent tuples over n variables ordered graded-lexicographically
(total degree first, then lexicographic with variable 1 heaviest); this fixed
order indexes every moment matrix in the package.  ``_exact_degree`` is the
package's one enumerator of monomials and ``_multinomial`` its one weight
|alpha|! / alpha!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import OperatorInstance

__all__ = [
    "monomial_basis",
    "Polynomial",
    "objective_expand",
    "quartic_gram",
    "multilinear_reduce",
    "moment_classes",
    "spread_objective",
    "FourierFunction",
    "chi_table",
    "low_degree_projector",
]


def monomial_basis(n: int, r: int) -> list[tuple[int, ...]]:
    """All exponent tuples over n variables with total degree <= r, graded-lex."""
    return [tuple(alpha) for deg in range(r + 1) for alpha in _exact_degree(n, deg)[1].tolist()]


def _exact_degree(n: int, deg: int):
    """The degree-``deg`` monomials over n variables as ``(index, exponent)`` arrays.

    Row t of the ``len x deg`` index array is a nondecreasing variable tuple,
    in ``combinations_with_replacement`` order; row t of the ``len x n``
    exponent array counts its variables.  Each multiset comes once, and that
    order is graded-lex on the exponents.
    """
    combos = list(itertools.combinations_with_replacement(range(n), deg))
    index = np.array(combos, dtype=np.intp).reshape(len(combos), deg)
    return index, (index[:, :, None] == np.arange(n)).sum(axis=1)


_FACTORIALS = np.array([math.factorial(k) for k in range(21)])  # 20! is the last one in int64


def _multinomial(exps) -> np.ndarray:
    """|alpha|! / prod_k alpha_k! for each exponent row, in exact integers."""
    exps = np.asarray(exps)
    return (_FACTORIALS[exps.sum(axis=-1)] // _FACTORIALS[exps].prod(axis=-1)).astype(float)


@dataclass
class Polynomial:
    """A real polynomial stored as a map from exponent tuple to coefficient."""

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for alpha, c in self.terms.items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != self.n or min(alpha, default=0) < 0:
                raise ValueError(f"bad exponent tuple {alpha} for {self.n} variables")
            c = float(c)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
        self.terms = {a: c for a, c in clean.items() if c != 0.0}

    @staticmethod
    def constant(n: int, c: float) -> "Polynomial":
        return Polynomial(n, {(0,) * n: c})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        e = [0] * n
        e[i] = 1
        return Polynomial(n, {tuple(e): 1.0})

    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return Polynomial(self.n, out)

    def __sub__(self, other):
        return self + (self._coerce(other) * -1.0)

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(self.n, {a: c * float(other) for a, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if np.isscalar(other):
            return Polynomial.constant(self.n, float(other))
        if other.n != self.n:
            raise ValueError("polynomials defined over different variable counts")
        return other

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for a, c in self.terms.items():
            total += c * np.prod(x ** np.array(a))
        return float(total)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


def sphere_poly(n: int) -> Polynomial:
    """The polynomial |x|^2 - 1 (counting norm)."""
    terms = {tuple(2 * int(i == j) for j in range(n)): 1.0 for i in range(n)}
    terms[(0,) * n] = -1.0
    return Polynomial(n, terms)


def quartic_gram(rows: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 Gram matrix sum_i (a_i (x) a_i)(a_i (x) a_i)^T of real rows.

    Entry ``[j*n + k, l*n + m]`` is sum_i a_ij a_ik a_il a_im, so
    ``<x (x) x, T (x (x) x)> = sum_i <a_i, x>^4``.
    """
    pairs = np.einsum("ia,ib->iab", rows, rows).reshape(rows.shape[0], -1)
    return pairs.T @ pairs


def objective_expand(instance: OperatorInstance) -> Polynomial:
    """Expand the quartic form sum_i w_i <a_i, x>^4 into coefficient form.

    The row weights are the exact convention scalings of the instance, so the
    resulting degree-4 polynomial evaluated on counting-unit x equals
    |A x|_4^4 in the instance's declared convention.  The coefficient of
    x^alpha is multinomial(alpha) times the quartic Gram entry at the sorted
    variable indices of alpha; monomials with an exactly zero coefficient are
    dropped.
    """
    if instance.is_complex:
        raise ValueError("quartic expansion needs a real operator; realify first")
    n = instance.n
    gram = quartic_gram(instance.quartic_rows())
    combos, exps = _exact_degree(n, 4)
    values = gram[combos[:, 0] * n + combos[:, 1], combos[:, 2] * n + combos[:, 3]]
    mult = _multinomial(exps)
    keep = np.flatnonzero(values)
    return Polynomial(n, dict(zip(map(tuple, exps[keep].tolist()), (mult * values)[keep].tolist())))


def multilinear_reduce(p: Polynomial) -> Polynomial:
    """Reduce modulo the ideal <x_i^2 - 1>: exponents taken mod 2."""
    out: dict = {}
    for alpha, c in p.terms.items():
        key = tuple(e % 2 for e in alpha)
        out[key] = out.get(key, 0.0) + c
    return Polynomial(p.n, out)


# ---------------------------------------------------------------------------
# Moment matrices.  Entry (i, j) of the moment matrix over a basis holds the
# moment of x^(basis[i] + basis[j]); the upper-triangle positions sharing a
# monomial form its class, listed in row-major order.
# ---------------------------------------------------------------------------


def moment_classes(basis) -> dict:
    """Map each monomial to the upper-triangle positions (i, j) that hold it."""
    exps = np.array(basis, dtype=np.intp).reshape(len(basis), -1)
    classes: dict = {}
    for i in range(len(exps)):
        for j, mono in enumerate((exps[i] + exps[i:]).tolist(), start=i):
            classes.setdefault(tuple(mono), []).append((i, j))
    return classes


def spread_objective(objective: Polynomial, classes: dict, size: int) -> np.ndarray:
    """Symmetric C with <C, X> = sum_a c_a x^a on every class-consistent X,
    each coefficient spread evenly over the entries of its class."""
    C = np.zeros((size, size))
    for mono, c in objective.terms.items():
        pos = classes.get(mono)
        if pos is None:
            raise ValueError(f"objective monomial {mono} not representable in the moment matrix")
        weight = sum(2.0 if i != j else 1.0 for i, j in pos)
        for i, j in pos:
            C[i, j] += c / weight
            if i != j:
                C[j, i] += c / weight
    return C


# ---------------------------------------------------------------------------
# Boolean-cube Fourier analysis.  Points of {+-1}^l are enumerated by the
# integers 0..2^l-1, bit k (k=0 most significant) giving coordinate x_k = +1
# for bit 0 and -1 for bit 1.  Subsets alpha of [l] are frozensets.
# ---------------------------------------------------------------------------


def cube_points(l: int) -> np.ndarray:
    """The 2^l x l matrix of +-1 coordinates in enumeration order."""
    pts = np.empty((2**l, l))
    for w in range(2**l):
        for k in range(l):
            pts[w, k] = 1.0 if (w >> (l - 1 - k)) & 1 == 0 else -1.0
    return pts


def chi_table(l: int, max_degree: int | None = None):
    """Character values chi_alpha(w) as a 2^l x (#subsets) matrix.

    Returns ``(table, subsets)`` with subsets of size <= max_degree ordered by
    (size, sorted members).
    """
    d = l if max_degree is None else max_degree
    if d > l:
        raise ValueError(f"degree {d} exceeds cube dimension {l}")
    pts = cube_points(l)
    subsets = []
    for size in range(d + 1):
        subsets.extend(itertools.combinations(range(l), size))
    cols = [np.prod(pts[:, list(s)], axis=1) if s else np.ones(2**l) for s in subsets]
    return np.array(cols).T, [frozenset(s) for s in subsets]


@dataclass
class FourierFunction:
    """A function on {+-1}^l given by its Fourier coefficients."""

    l: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for a, c in self.coeffs.items():
            a = frozenset(a)
            if any(i < 0 or i >= self.l for i in a):
                raise ValueError(f"subset {sorted(a)} out of range for cube dimension {self.l}")
            if c != 0.0:
                clean[a] = clean.get(a, 0.0) + float(c)
        self.coeffs = clean

    def to_values(self) -> np.ndarray:
        table, subsets = chi_table(self.l)
        vec = np.array([self.coeffs.get(s, 0.0) for s in subsets])
        return table @ vec

    @staticmethod
    def from_values(values, l: int) -> "FourierFunction":
        values = np.asarray(values, dtype=float)
        if values.shape != (2**l,):
            raise ValueError(f"expected 2^{l} values")
        table, subsets = chi_table(l)
        coeffs = table.T @ values / 2**l
        return FourierFunction(l, dict(zip(subsets, coeffs)))

    def squared_two_norm(self) -> float:
        """E f^2 via Parseval."""
        return float(sum(c * c for c in self.coeffs.values()))

    def degree(self) -> int:
        return max((len(a) for a in self.coeffs), default=0)


def low_degree_projector(l: int, d: int) -> np.ndarray:
    """Matrix on value vectors keeping Fourier mass on subsets of size <= d.

    Self-adjoint and idempotent for the expectation inner product on the cube
    (the uniform measure makes that coincide with plain matrix symmetry).
    """
    if not 0 <= d <= l:
        raise ValueError(f"need 0 <= d <= l, got d={d}, l={l}")
    if l > 12:
        raise ValueError("cube dimension limited to 12")
    table, _ = chi_table(l, d)
    return table @ table.T / 2**l
