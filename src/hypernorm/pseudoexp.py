"""Level-r pseudo-expectation functionals over a dense moment table.

A functional is represented by the moments of every monomial of degree at
most r.  Validation assembles the moment matrix M[a, b] = moment(a + b) over
half-degree monomials and checks the three defining properties: normalization
(moment of the empty monomial is 1), positivity (M is PSD up to slack), and
the claimed equality constraints, each imposed as the family of linear
conditions E[P * x^g] = 0 for all multipliers g of admissible degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polybasis import Polynomial, monomial_basis

__all__ = [
    "PseudoExpectation",
    "ValidationReport",
    "pseudo_expect",
    "validate_pef",
    "moment_matrix",
    "localized_moment_matrix",
    "check_pseudo_cauchy_schwarz",
    "adjoin_rounded_variable",
    "PreconditionError",
]


class PreconditionError(ValueError):
    pass


@dataclass
class PseudoExpectation:
    n: int
    level: int
    moments: dict
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        if self.level % 2 != 0 or self.level < 2:
            raise ValueError("level must be even and >= 2")
        self.moments = {tuple(a): float(v) for a, v in self.moments.items()}
        if not self._counted_complete():
            missing = next((a for a in monomial_basis(self.n, self.level) if a not in self.moments), None)
            if missing is not None:
                raise ValueError(f"moment table incomplete; first missing monomial {missing}")

    def _counted_complete(self) -> bool:
        """Whether the table holds every monomial of degree at most ``level``,
        found without enumerating them: the keys are distinct, so it does when
        C(n + level, level) of them are tuples of n non-negative Python ints of
        sum at most ``level``.  False only means the count does not show it."""
        n, level, keys = self.n, self.level, self.moments
        try:
            degrees = list(map(sum, keys))
        except TypeError:   # a key with entries that are not numbers
            return False
        valid = sum(1 for a, d in zip(keys, degrees)
                    if type(d) is int and d <= level and len(a) == n and min(a, default=0) >= 0)
        return valid == math.comb(n + level, level)

    @staticmethod
    def from_distribution(points, level: int, weights=None, constraints=None) -> "PseudoExpectation":
        """The true expectation functional of a finite distribution."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        k, n = pts.shape
        w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (k,) or abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
            raise ValueError("weights must be a probability vector over the points")
        moments = {}
        for alpha in monomial_basis(n, level):
            moments[alpha] = float(np.sum(w * np.prod(pts ** np.array(alpha), axis=1)))
        return PseudoExpectation(n, level, moments, list(constraints or []))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "level": self.level,
            "moments": [{"alpha": list(a), "value": v} for a, v in sorted(self.moments.items())],
        }

    @staticmethod
    def from_json(doc: dict) -> "PseudoExpectation":
        moments = {tuple(rec["alpha"]): float(rec["value"]) for rec in doc["moments"]}
        return PseudoExpectation(int(doc["n"]), int(doc["level"]), moments)


def pseudo_expect(pe: PseudoExpectation, p: Polynomial) -> float:
    if p.degree() > pe.level:
        raise ValueError(f"degree {p.degree()} exceeds level {pe.level}")
    return float(sum(c * pe.moments[a] for a, c in p.terms.items()))


def moment_matrix(pe: PseudoExpectation) -> np.ndarray:
    """M[a, b] = E[x^(a+b)] over monomials of degree <= r/2."""
    return localized_moment_matrix(pe, Polynomial.constant(pe.n, 1.0))


def localized_moment_matrix(pe: PseudoExpectation, loc: Polynomial) -> np.ndarray:
    """M[a, b] = E[loc * x^(a+b)] over multipliers of degree <= (r - deg loc)/2."""
    half = (pe.level - loc.degree()) // 2
    basis = monomial_basis(pe.n, half)
    m = np.empty((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            total = -0.0  # x + (-0.0) == x bitwise, so the constant localizer 1 gives the moments
            for g, c in loc.terms.items():
                total += c * pe.moments[tuple(x + y + z for x, y, z in zip(a, b, g))]
            m[i, j] = total
    return m


@dataclass
class ValidationReport:
    normalization_residual: float
    min_eig: float
    constraint_residuals: list
    passed: bool


def validate_pef(pe: PseudoExpectation, tol: float = 1e-8) -> ValidationReport:
    """Check normalization, positivity, and the linearized equality constraints."""
    zero = (0,) * pe.n
    norm_res = abs(pe.moments[zero] - 1.0)
    m = moment_matrix(pe)
    min_eig = float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])
    cres = []
    for p in pe.constraints:
        worst = 0.0
        for gamma in monomial_basis(pe.n, pe.level - p.degree()):
            mono = Polynomial(pe.n, {gamma: 1.0})
            worst = max(worst, abs(pseudo_expect(pe, p * mono)))
        cres.append(worst)
    passed = norm_res <= tol and min_eig >= -tol and all(r <= tol for r in cres)
    return ValidationReport(norm_res, min_eig, cres, passed)


def check_pseudo_cauchy_schwarz(pe: PseudoExpectation, p: Polynomial, q: Polynomial, tol: float = 1e-8) -> bool:
    """E[PQ] <= sqrt(E P^2) sqrt(E Q^2) + tol; E P^2 = 0 forces |E PQ| <= tol."""
    if 2 * p.degree() > pe.level or 2 * q.degree() > pe.level:
        raise ValueError("P and Q must have degree at most level/2")
    epq = pseudo_expect(pe, p * q)
    ep2 = max(pseudo_expect(pe, p * p), 0.0)
    eq2 = max(pseudo_expect(pe, q * q), 0.0)
    if ep2 <= tol * tol:
        return abs(epq) <= tol
    return epq <= np.sqrt(ep2) * np.sqrt(eq2) + tol


def adjoin_rounded_variable(pe: PseudoExpectation, i: int, tol: float = 1e-8,
                            witness=None, check_precondition: bool = True) -> PseudoExpectation:
    """Adjoin a 0/1-rounded copy of variable i.

    Requires the relation x_i^2 <= x_i for pe, certified either by the
    localized moment matrix of x_i - x_i^2 being PSD or by an explicit
    sum-of-squares witness ``(squares, multipliers)`` for
    x_i - x_i^2 = sum_j squares_j^2 + sum_k multipliers_k * constraint_k.

    The new variable satisfies E[(v^2 - v)^2] = 0 exactly, and agrees with
    x_i on every polynomial that is multilinear in v.
    """
    if pe.level != 4:
        raise ValueError("rounding is defined for level-4 functionals")
    if not 0 <= i < pe.n:
        raise ValueError("variable index out of range")
    n = pe.n
    xi = Polynomial.variable(n, i)
    relation = xi - xi * xi
    if witness is not None:
        squares, multipliers = witness
        recon = Polynomial.constant(n, 0.0)
        for s in squares:
            recon = recon + s * s
        for mult, con in zip(multipliers, pe.constraints):
            recon = recon + mult * con
        if (relation - recon).max_abs_coeff() > 1e-10:
            raise PreconditionError("sum-of-squares witness does not reproduce x_i - x_i^2")
    elif check_precondition:
        loc = localized_moment_matrix(pe, relation)
        lam = float(np.linalg.eigvalsh((loc + loc.T) / 2.0)[0])
        if lam < -tol:
            raise PreconditionError(f"relation x_i^2 <= x_i fails: localized min eig {lam:.3e}")

    moments = {}
    for alpha in monomial_basis(n + 1, pe.level):
        base, k = alpha[:n], alpha[n]
        if k == 0:
            moments[alpha] = pe.moments[base]
        else:
            # v^k reduces to x_i: |base| + 1 <= |base| + k <= level keeps it in the table
            moments[alpha] = pe.moments[tuple(e + (1 if j == i else 0) for j, e in enumerate(base))]
    out = PseudoExpectation(n + 1, pe.level, moments,
                            [_extend(p, n + 1) for p in pe.constraints])
    m = moment_matrix(out)
    lam = float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])
    if lam < -tol:
        raise PreconditionError(f"rounded moment matrix not PSD (min eig {lam:.3e}); "
                                "the relation x_i^2 <= x_i must fail for this functional")
    return out


def _extend(p: Polynomial, n_new: int) -> Polynomial:
    return Polynomial(n_new, {a + (0,) * (n_new - p.n): c for a, c in p.terms.items()})
