"""Moment relaxations of the quartic sphere-maximization problem.

``MomentRelaxation`` states the level-d relaxation in homogeneous form: on the
unit sphere p = p |x|^(d - deg p) (Reznick's uniform denominators), so it
maximizes E[p |x|^(d - deg p)] over degree-d moments whose moment matrix over
the degree-d/2 monomials is PSD, with the one row E |x|^d = 1.  ``tensor_sdp``
solves it for sum_i <a_i, x>^4 at level 4, 6 or 8; ``a22_value`` is its level-4
case, the program over PSD, trace-one, fully index-permutation-symmetric
n^2 x n^2 matrices paired with the two-two flattening; and
``certify_hypercontractivity`` runs it on the low-degree cube projector in
Fourier-coefficient coordinates.

Every solve returns a rigorous upper bound from a dual point (y, S): the bound
holds by weak duality whatever the dual point, and for moment problems it comes
with an explicit polynomial identity

    bound |x|^d - p(x) |x|^(d - 4) = sum_j R_j(x)^2

whose residual is reported; on the unit sphere its left side is bound - p(x).
The dual point is the solver loop's own, or, where ``MomentRelaxation.solve``
certifies an early stop, one anchored on witnesses x^ of the maximum: the
loop's dual slack with z(x^) forced into its kernel (see :class:`_Anchor` and
``sdp.KernelRepair``).
The value is then p at the best witness, the value of a feasible point (its
rank-one moment matrix), and the certified stop needs the bound within the
solver's tol of it.  Otherwise the value is <C, X> at the loop's last iterate,
which need not be PSD.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import OperatorInstance
from .oracles import _newton_finish, _pow2_scaled, _power_ascent, _PowerObjective
from .oracles import elementary_norms, norm_2_to_q_lower
from .polybasis import Polynomial, _exact_degree, _exponents, _multinomial, chi_table, index_codes, moment_classes
from .polybasis import quartic_coefficients, quartic_gram, sphere_poly, sum_codes
# the quartic expansion keeps its name here, where perfbench/tracing.py wraps it
from .polybasis import objective_expand  # noqa: F401
from .pseudoexp import PseudoExpectation
from .sdp import KernelRepair, MomentProgram, SolveOptions, solve_sdp

__all__ = [
    "MomentRelaxation",
    "TensorSdpResult",
    "SosCertificate",
    "tensor_sdp",
    "a22_matrix",
    "a22_value",
    "bcy_gap",
    "BcyReport",
    "certify_hypercontractivity",
    "HyperCertificate",
    "SIZE_LIMITS",
]

SIZE_LIMITS = {4: 20, 6: 10, 8: 6}

# An anchored attempt runs up to ANCHOR_STEPS power steps from the top
# ANCHOR_STARTS eigenvectors of the degree-2 pseudo-moments, and the points
# within WITNESS_RTOL of the best value are the witnesses; two whose inner
# product is within WITNESS_RTOL of +-1 count once.  After 50 steps the
# best point was still up to 5e-3 below the optimum on early random-a22
# iterates, too far for the Newton finish; 150 closed as early as 300 did.
ANCHOR_STARTS = 4
ANCHOR_STEPS = 150
WITNESS_RTOL = 1e-6


class MomentRelaxation:
    """Level-d moment SDP for maximizing a form of even degree on the unit sphere:
    X = s s^T o M over the degree-d/2 monomials x^beta, M[i, j] = E x^(beta_i + beta_j)
    and s_beta = sqrt((d/2)!/beta!), so that tr X = E |x|^d, the one row.

    The objective is a :class:`Polynomial`, or ``None`` with ``rows``, real
    rows r_i, for sum_i <r_i, x>^4, whose coefficients are read off the
    quartic Gram matrix of the rows without a polynomial in between;
    :meth:`solve` then looks for a witness-anchored certificate.  The build
    works on arrays: a monomial is found by its integer code
    (``polybasis.index_codes``), and each degree's monomials are enumerated
    once per relaxation."""

    def __init__(self, objective: Polynomial | None, n: int, d: int, rows: np.ndarray | None = None):
        if d % 2 != 0 or d < 4:
            raise ValueError("level must be even and >= 4")
        if (objective is None) == (rows is None):
            raise ValueError("give either an objective polynomial or the rows of a quartic form")
        self.n, self.d, self.rows = n, d, rows
        self._monomials = {}
        index, mult = self._degree(d // 2)
        self._exps = _exponents(index, n)
        self.basis = [tuple(beta) for beta in self._exps.tolist()]
        self._scale = np.sqrt(mult)
        self._classes, i, j = moment_classes(index, n)
        if rows is None:
            alphas, coef, e = self._terms(objective)
        else:
            if np.iscomplexobj(rows):
                raise ValueError("quartic expansion needs a real operator; realify first")
            gram = quartic_gram(rows)
            alphas, mult4 = self._degree(4)
            coef, e = quartic_coefficients(gram, alphas, mult4), 4
            # the anchor's power steps run on the rows scaled by 2^-s; the
            # lifted form's G is then this Gram matrix scaled exactly by 2^-4s
            scaled, s = _pow2_scaled(rows)
            self._power = _PowerObjective.for_rows(scaled, 4, gram=gram * 2.0 ** (-4 * s))
        # the coefficients of p |x|^(d - deg p) over the classes: p on the sphere
        shifts, w = self._norm_power((d - e) // 2)
        self._objective_vec = np.bincount(self._class_of(alphas, shifts).ravel(), np.outer(coef, w).ravel(),
                                          minlength=len(self._classes))
        # C[i, j] = s_i s_j c_g / (d!/g!): sum over beta + beta' = g of
        # (k!/beta!)(k!/beta'!) is (2k)!/g!, so <C, X> = sum_g c_g E x^g, and
        # this C is the representative of least norm in X's metric
        first = self._classes.first
        c = self._objective_vec / _multinomial(self._exps[i[first]] + self._exps[j[first]])
        C = np.zeros((len(index), len(index)))
        C[i, j] = C[j, i] = c[self._classes.labels] * (self._scale[i] * self._scale[j])
        # E |x|^d = 1, which is tr X: the class of x^(2 beta) weighted k!/beta!
        R = np.zeros((1, len(self._classes)))
        R[0, self._classes.labels[i == j]] = mult
        self.problem = MomentProgram(len(index), self._classes.labels, C, R, [1.0],
                                     trace_bound=1.0, scale=self._scale)

    def solve(self, opts: SolveOptions):
        """``solve_sdp`` on the program, anchored on witnesses (see
        :class:`_Anchor`) when the relaxation has ``rows``."""
        return solve_sdp(self.problem, opts, anchor=None if self.rows is None else _Anchor(self))

    def _degree(self, deg: int):
        """The degree-``deg`` monomials as ``(index, multinomial)`` arrays (see
        ``polybasis._exact_degree``), enumerated once per relaxation; their
        exponent rows, 10 MB at n = 30 and degree 4, are not kept."""
        if deg not in self._monomials:
            index, exps = _exact_degree(self.n, deg)
            self._monomials[deg] = index, _multinomial(exps)
        return self._monomials[deg]

    def _norm_power(self, j: int):
        """|x|^(2j) = sum_{|delta| = j} (j!/delta!) x^(2 delta): the variable-index
        rows of 2 delta and the weights."""
        index, mult = self._degree(j)
        return np.repeat(index, 2, axis=1), mult

    def _terms(self, objective: Polynomial):
        """The variable-index rows and coefficients of a form of even degree at
        most d, and its degree."""
        e = objective.degree()
        alphas = np.array(list(objective.terms), dtype=np.intp).reshape(-1, self.n)
        if len(set(alphas.sum(axis=1).tolist())) > 1 or e % 2 or e > self.d:
            raise ValueError(f"objective must be a form of even degree at most {self.d}")
        index = np.repeat(np.tile(np.arange(self.n), len(alphas)), alphas.ravel()).reshape(len(alphas), e)
        return index, np.array(list(objective.terms.values())), e

    def _class_of(self, a, b):
        """The class of x^(a_i + b_j) for variable-index rows a_i, b_j, as a len(a) x len(b) array."""
        return self._classes.of(sum_codes(a, b, self.n))

    def extract_pseudoexpectation(self, sol) -> PseudoExpectation:
        """E x^alpha = E x^alpha |x|^(d - |alpha|) from the degree-d moments, 0 at
        odd degree: the sphere constraint holds by construction."""
        top = self.problem.class_values(sol.X[0])
        moments = {}
        for deg in range(self.d + 1):
            index = self._degree(deg)[0]
            keys = map(tuple, _exponents(index, self.n).tolist())
            if deg % 2:
                moments.update(dict.fromkeys(keys, 0.0))
                continue
            shifts, w = self._norm_power((self.d - deg) // 2)
            moments.update(zip(keys, (top[self._class_of(index, shifts)] @ w).tolist()))
        return PseudoExpectation(self.n, self.d, moments, [sphere_poly(self.n)])

    def certificate(self, sol) -> "SosCertificate":
        """Rigorous upper bound plus the explicit sum-of-squares identity: with
        z = s o x^beta, z^T z = |x|^d and z^T (C + S) z = y |x|^d, so bound = y + shift
        has bound |x|^d - p |x|^(d - deg p) = z^T (S + shift I) z = sum_j R_j^2."""
        slack = self.problem.dual_slack(sol)[0]  # >= -shift, class sums fixed by y
        w, v = np.linalg.eigh((slack + slack.T) / 2.0 + sol.slack_shift * np.eye(len(self.basis)))
        w = np.maximum(w, 0.0)
        keep = w > 1e-14 * max(1.0, w[-1])
        factors = (v[:, keep] * np.sqrt(w[keep])).T * self._scale
        # the coefficients of bound |x|^d - p |x|^(d - deg p) - sum_j R_j^2, with
        # sum_j R_j^2 the class sums of the squares' Gram matrix
        target = sol.bound * self.problem.R[0] - self._objective_vec
        residual = float(np.max(np.abs(target - self.problem.class_sums(factors.T @ factors))))
        return SosCertificate(bound=sol.bound, shift=sol.slack_shift, basis=self.basis,
                              factors=factors, residual=residual)


class _Anchor:
    """The anchor hook of one solve of a :class:`MomentRelaxation` with rows:
    called with the loop's point, it returns a primal-dual pair anchored on
    witnesses read off that point, for ``solve_sdp`` to test (Kaltofen, Li,
    Yang and Zhi 2008; Henrion and Lasserre 2005).

    ANCHOR_STEPS power steps on sum_i <r_i, x>^4 from the top ANCHOR_STARTS
    eigenvectors of the degree-2 pseudo-moments E x_i x_j |x|^(d-2) of the
    loop's X, and the Newton finish of every point within WITNESS_RTOL of the
    best value, give the unit witnesses x_k, distinct up to sign, best first.
    Their lifts z_k = s o x_k^beta are the kernel vectors of a new
    ``sdp.KernelRepair`` at every attempt, since the witnesses change; the
    primal point is the rank-one moment matrix of the best.  The hook returns
    ``(X, y, S, witnesses)``.
    """

    def __init__(self, relax: MomentRelaxation):
        self.relax = relax
        n, d = relax.n, relax.d
        self.objective = relax._power
        # E x_i x_j |x|^(d-2) = sum_delta w_delta E x^(e_i + delta) x^(e_j + delta),
        # and near[i, t] is the basis position of x^(e_i + delta_t): the basis
        # codes ascend, as _exact_degree lists the sorted index rows in order
        deltas, self.w = relax._degree((d - 2) // 2)
        basis = index_codes(relax._degree(d // 2)[0], n)
        self.near = np.searchsorted(basis, sum_codes(np.arange(n)[:, None], deltas, n))
        self.pairs = relax.problem.class_pairs()

    def __call__(self, sol):
        return self.pair(sol, self.witnesses(sol.X[0]))

    def witnesses(self, X):
        """The unit witnesses read off the moment matrix X, distinct up to
        sign, best first, as the columns of an array."""
        objective, s = self.objective, self.relax._scale
        pm = (X / np.outer(s, s))[self.near[:, None, :], self.near[None, :, :]] @ self.w
        xs, vals, _ = _power_ascent(objective, np.linalg.eigh(pm)[1][:, -ANCHOR_STARTS:],
                                    iters=ANCHOR_STEPS)
        keep = np.flatnonzero(vals >= vals.max() * (1.0 - WITNESS_RTOL))
        xs = np.stack([_newton_finish(objective, xs[:, k])[0] for k in keep], axis=1)
        found = []
        for k in np.argsort(-objective(xs)[0], kind="stable"):
            if all(abs(xs[:, k] @ x) < 1.0 - WITNESS_RTOL for x in found):
                found.append(xs[:, k])
        return np.stack(found, axis=1)

    def pair(self, sol, witnesses):
        """The anchored ``(X, y, S, count)`` for the loop's point ``sol`` and
        the unit witnesses in the columns of ``witnesses``, X from the first."""
        s = self.relax._scale
        Z = s[:, None] * np.prod(witnesses.T[:, None, :] ** self.relax._exps, axis=2).T
        return KernelRepair(self.relax.problem, Z, self.pairs)(sol, Z[:, 0], Z.shape[1])


@dataclass
class SosCertificate:
    """bound |x|^d - objective |x|^(d - 4) = sum_j R_j^2 in coefficient arrays,
    with bound = y + shift for y the multiplier of E |x|^d = 1: row j of
    ``factors`` holds R_j over ``basis``, the degree-d/2 monomials."""

    bound: float
    shift: float
    basis: list
    factors: np.ndarray
    residual: float

    @property
    def squares(self) -> list:
        n = len(self.basis[0])
        return [Polynomial(n, dict(zip(self.basis, row))) for row in self.factors]


@dataclass
class TensorSdpResult:
    value: float
    pe: PseudoExpectation
    certificate: SosCertificate
    status: str
    iterations: int
    level: int
    witnesses: int

    def record(self, oracle: float | None = None, seed: int = 0) -> dict:
        return {
            "value": self.value,
            "certificate": {"bound": self.certificate.bound,
                            "residual": self.certificate.residual},
            "oracle": oracle,
            "formulation": "moment",
            "level": self.level,
            "status": self.status,
            "iterations": self.iterations,
            "witnesses": self.witnesses,
            "seed": seed,
        }


def tensor_sdp(instance: OperatorInstance, d: int = 4,
               opts: SolveOptions | None = None) -> TensorSdpResult:
    """Solve the level-d relaxation of max |A x|_4^4 over the unit sphere,
    anchored (:meth:`MomentRelaxation.solve`); ``witnesses`` in the result
    counts the witnesses of a certified stop, 0 for the loop's own point."""
    if d not in SIZE_LIMITS:
        raise ValueError(f"level must be one of {sorted(SIZE_LIMITS)}")
    if instance.n > SIZE_LIMITS[d]:
        raise ValueError(f"at level {d} the variable count is limited to {SIZE_LIMITS[d]}")
    relax = MomentRelaxation(None, instance.n, d, rows=instance.quartic_rows())
    opts = opts or SolveOptions(tol=1e-9 if len(relax.basis) <= 30 else 1e-8)
    sol = relax.solve(opts)
    if sol.status == "infeasible-suspected":
        raise RuntimeError("solver diverged on a feasible-by-construction program")
    return TensorSdpResult(value=sol.primal_obj, pe=relax.extract_pseudoexpectation(sol),
                           certificate=relax.certificate(sol), status=sol.status,
                           iterations=sol.iterations, level=d, witnesses=sol.witnesses)


# ---------------------------------------------------------------------------
# the symmetrized two-two formulation
# ---------------------------------------------------------------------------


def a22_matrix(instance: OperatorInstance) -> np.ndarray:
    """The n^2 x n^2 PSD form with <x (x) x, A22 (x (x) x)> = |A x|_4^4."""
    rows = instance.quartic_rows()
    if np.iscomplexobj(rows):
        raise ValueError("two-two form needs a real operator")
    return quartic_gram(rows)


def index_symmetrize(x: np.ndarray, n: int) -> np.ndarray:
    """Average an n^2 x n^2 matrix over all 24 permutations of its 4 tensor indices."""
    t = x.reshape(n, n, n, n)
    acc = np.zeros_like(t)
    for pi in _S4:
        acc += np.transpose(t, pi)
    return (acc / 24.0).reshape(n * n, n * n)


_S4 = list(itertools.permutations(range(4)))


@dataclass
class A22Result:
    value: float
    bound: float
    status: str
    iterations: int
    residuals: dict
    witnesses: int


def a22_value(instance: OperatorInstance, opts: SolveOptions | None = None,
              return_details: bool = False):
    """max <X, A22> over PSD, trace-one, index-permutation-symmetric X.

    Such X, and A22, live on Sym^2 (x) Sym^2, where M = Q^T X Q with
    Q = ``sym_isometry(2, n)`` is an isometry that commutes with the PSD
    projection.  M is the X of the level-4 :class:`MomentRelaxation`, whose
    objective block is Q^T A22 Q, so its solver loop keeps the n^2 x n^2
    program's iterates until it stops; without its scale the solver's
    residuals change metric and it stops short.  The solve is anchored
    (:meth:`MomentRelaxation.solve`): a certified stop returns the rank-one
    moment matrix of a witness instead of the loop's iterate.

    Returns the optimum; with ``return_details=True`` an :class:`A22Result`
    that also carries the weak-duality bound of the returned dual point,
    valid for every feasible X whether or not the solver converged, and the
    number of witnesses a certified stop used (0 for the loop's own point).
    """
    n = instance.n
    if n > 30:
        raise ValueError("two-two formulation limited to 30 variables")
    relax = MomentRelaxation(None, n, 4, rows=instance.quartic_rows())
    opts = opts or SolveOptions(tol=1e-9 if n * n <= 16 else 1e-8, max_iter=50_000)
    sol = relax.solve(opts)
    res = A22Result(sol.primal_obj, sol.bound, sol.status, sol.iterations, sol.residuals, sol.witnesses)
    return res if return_details else res.value


# ---------------------------------------------------------------------------
# additive-error report and the hypercontractivity certificate
# ---------------------------------------------------------------------------


@dataclass
class BcyReport:
    oracle: float
    oracle_fourth: float
    sdp_value: float
    Z: float
    implied_epsilon: float
    certificate_bound: float
    level: int


def bcy_gap(instance: OperatorInstance, d: int = 4, restarts: int = 64, seed: int = 0,
            opts: SolveOptions | None = None) -> BcyReport:
    """Sandwich report: oracle^4 <= relaxation value <= Hoelder bound Z."""
    res = tensor_sdp(instance, d, opts)
    ora = norm_2_to_q_lower(instance, 4, restarts=restarts, seed=seed)
    Z = elementary_norms(instance)["Z"]
    eps = (res.value - ora.value**4) / Z if Z > 0 else 0.0
    return BcyReport(oracle=ora.value, oracle_fourth=ora.value**4, sdp_value=res.value,
                     Z=Z, implied_epsilon=eps, certificate_bound=res.certificate.bound,
                     level=d)


@dataclass
class HyperCertificate:
    cube_dim: int
    degree: int
    value: float
    bound_claimed: float
    oracle_fourth: float
    certificate: SosCertificate
    status: str

    def record(self, seed: int = 0) -> dict:
        return {
            "value": self.value,
            "certificate": {"bound": self.certificate.bound,
                            "residual": self.certificate.residual},
            "oracle": self.oracle_fourth,
            "formulation": "moment",
            "level": 4,
            "bound_claimed": self.bound_claimed,
            "cube_dim": self.cube_dim,
            "degree": self.degree,
            "status": self.status,
            "seed": seed,
        }


def low_degree_instance(l: int, d: int) -> OperatorInstance:
    """The degree-<=d cube projector as an operator in coefficient coordinates.

    Columns index Fourier coefficients (counting-unit by Parseval); rows are
    cube points carrying the uniform measure, folded into a counting-form
    scaling of 2^(-l/4) per row so that the quartic row sum equals E f^4.
    """
    table, _ = chi_table(l, d)
    return OperatorInstance(table / 2 ** (l / 4.0), "counting")


def certify_hypercontractivity(l: int, d: int, restarts: int = 64, seed: int = 0,
                               opts: SolveOptions | None = None) -> HyperCertificate:
    """Certified bound on the fourth moment of degree-<=d cube polynomials.

    The relaxation variables are the Fourier coefficients up to degree d; the
    claimed bound is 9^d times the squared second moment.
    """
    nvars = sum(math.comb(l, j) for j in range(d + 1))
    if nvars > SIZE_LIMITS[4]:
        raise ValueError(f"coefficient space of size {nvars} exceeds the level-4 limit")
    inst = low_degree_instance(l, d)
    res = tensor_sdp(inst, 4, opts)
    ora = norm_2_to_q_lower(inst, 4, restarts=restarts, seed=seed)
    return HyperCertificate(cube_dim=l, degree=d, value=res.value,
                            bound_claimed=9.0**d, oracle_fourth=ora.value**4,
                            certificate=res.certificate, status=res.status)
