"""Moment relaxations of the quartic sphere-maximization problem.

``tensor_sdp`` solves the level-d relaxation: maximize the pseudo-expectation
of sum_i <a_i, x>^4 over level-d functionals satisfying E[(|x|^2 - 1) x^g] = 0
for every multiplier g of degree <= d - 2 (the linearized form of the sphere
constraint; pseudo Cauchy-Schwarz recovers the quadratic form exactly).

``a22_value`` solves the equivalent program over PSD, trace-one, fully
index-permutation-symmetric n^2 x n^2 matrices paired with the quartic form's
two-two flattening, in the Sym^2 coordinates where both live, and
``certify_hypercontractivity`` runs the relaxation on the low-degree cube
projector in Fourier-coefficient coordinates.

Every solve returns a rigorous upper bound extracted from the dual vector: the
bound holds by weak duality regardless of solver convergence, and for moment
problems it comes with an explicit polynomial identity

    bound - objective(x) = sum_j R_j(x)^2 + q(x) * (|x|^2 - 1)

whose re-substitution residual is reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import OperatorInstance
from .linalg import sym_isometry
from .oracles import elementary_norms, norm_2_to_q_lower
from .polybasis import Polynomial, _exact_degree, _multinomial, chi_table, moment_classes
from .polybasis import monomial_basis, objective_expand, quartic_gram, sphere_poly, spread_objective
from .pseudoexp import PseudoExpectation
from .sdp import MomentProgram, SolveOptions, solve_sdp

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


class MomentRelaxation:
    """Level-d moment SDP for maximizing a polynomial on the unit sphere."""

    def __init__(self, objective: Polynomial, n: int, d: int):
        if d % 2 != 0 or d < 4:
            raise ValueError("level must be even and >= 4")
        if objective.degree() > d:
            raise ValueError("objective degree exceeds the relaxation level")
        self.n, self.d = n, d
        self.basis = monomial_basis(n, d // 2)
        N = len(self.basis)
        classes = moment_classes(self.basis)
        # E[1] = 1, then E[x^g (|x|^2 - 1)] = 0 for every multiplier g
        rows = [{(0,) * n: 1.0}]
        self.sphere_gammas = monomial_basis(n, d - 2)
        for gamma in self.sphere_gammas:
            row = {gamma: -1.0}
            for k in range(n):
                row[tuple(g + 2 * (t == k) for t, g in enumerate(gamma))] = 1.0
            rows.append(row)
        C = spread_objective(objective, classes, N)
        # tr X = sum_a E x^(2a) <= sum_k E |x|^(2k) = d/2 + 1 on every feasible (PSD) moment matrix
        self.problem = MomentProgram(N, classes, C, rows, [1.0] + [0.0] * len(self.sphere_gammas),
                                     trace_bound=d // 2 + 1)
        self._objective_vec = np.array([objective.coefficient(key) for key in self.problem.keys])

    def extract_pseudoexpectation(self, sol) -> PseudoExpectation:
        return PseudoExpectation(self.n, self.d, self.problem.values(sol.X[0]),
                                 [sphere_poly(self.n)])

    def certificate(self, sol) -> "SosCertificate":
        """Rigorous upper bound plus the explicit sum-of-squares identity."""
        shift, bound = sol.slack_shift, sol.bound
        slack = self.problem.dual_slack(sol)[0]  # >= -shift, class sums fixed by y
        # diagonal Gram matrix of sum_k |x|^(2k): D[a] = multinomial(|a|; a) >= 1
        Dd = _multinomial(self.basis)
        w, v = np.linalg.eigh((slack + slack.T) / 2.0 + shift * np.diag(Dd))
        w = np.maximum(w, 0.0)
        keep = w > 1e-14 * max(1.0, w[-1])
        factors = (v[:, keep] * np.sqrt(w[keep])).T

        # q(x) = -sum_g y_g x^g - shift * W(x), where
        # (|x|^2 - 1) W(x) = sum_k |x|^(2k) - (d/2 + 1), i.e.
        # W(x) = sum_{j < d/2} (d/2 - j) |x|^(2j), nonzero only at even gamma
        g = np.array(self.sphere_gammas)
        W = np.where((g % 2).any(axis=1), 0.0,
                     (self.d // 2 - g.sum(axis=1) // 2) * _multinomial(g // 2))
        q = -sol.y[1:] - shift * W

        # bound - objective - q (|x|^2 - 1) - sum_j R_j^2 in class coordinates:
        # the rows map (bound, -q) to bound - q (|x|^2 - 1), and sum_j R_j^2
        # is the class sums of the squares' Gram matrix G = sum_j c_j c_j^T
        target = self.problem.R.T @ np.concatenate(([bound], -q)) - self._objective_vec
        residual = float(np.max(np.abs(target - self.problem.class_sums(factors.T @ factors))))
        return SosCertificate(bound=bound, shift=shift, basis=self.basis, factors=factors,
                              gammas=self.sphere_gammas, multiplier=q, residual=residual,
                              y=sol.y.copy())


@dataclass
class SosCertificate:
    """bound - objective = sum_j R_j^2 + q (|x|^2 - 1) in coefficient arrays:
    row j of ``factors`` holds R_j over ``basis``, ``multiplier`` holds q over
    ``gammas``.  ``squares`` and ``ideal_multiplier`` build the polynomials."""

    bound: float
    shift: float
    basis: list
    factors: np.ndarray
    gammas: list
    multiplier: np.ndarray
    residual: float
    y: np.ndarray

    @property
    def squares(self) -> list:
        n = len(self.basis[0])
        return [Polynomial(n, dict(zip(self.basis, row))) for row in self.factors]

    @property
    def ideal_multiplier(self) -> Polynomial:
        return Polynomial(len(self.basis[0]), dict(zip(self.gammas, self.multiplier)))


@dataclass
class TensorSdpResult:
    value: float
    pe: PseudoExpectation
    certificate: SosCertificate
    status: str
    iterations: int
    level: int

    def record(self, oracle: float | None = None, seed: int = 0) -> dict:
        return {
            "value": self.value,
            "certificate": {"bound": self.certificate.bound,
                            "residual": self.certificate.residual},
            "oracle": oracle,
            "formulation": "moment",
            "level": self.level,
            "seed": seed,
        }


def tensor_sdp(instance: OperatorInstance, d: int = 4,
               opts: SolveOptions | None = None) -> TensorSdpResult:
    """Solve the level-d relaxation of max |A x|_4^4 over the unit sphere."""
    if d not in SIZE_LIMITS:
        raise ValueError(f"level must be one of {sorted(SIZE_LIMITS)}")
    if instance.n > SIZE_LIMITS[d]:
        raise ValueError(f"at level {d} the variable count is limited to {SIZE_LIMITS[d]}")
    if instance.is_complex:
        raise ValueError("complex operators must be realified first")
    objective = objective_expand(instance)
    relax = MomentRelaxation(objective, instance.n, d)
    opts = opts or SolveOptions(tol=1e-9 if len(relax.basis) <= 30 else 1e-8)
    sol = solve_sdp(relax.problem, opts)
    if sol.status == "infeasible-suspected":
        raise RuntimeError("solver diverged on a feasible-by-construction program")
    pe = relax.extract_pseudoexpectation(sol)
    cert = relax.certificate(sol)
    return TensorSdpResult(value=sol.primal_obj, pe=pe, certificate=cert,
                           status=sol.status, iterations=sol.iterations,
                           level=d)


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


def a22_value(instance: OperatorInstance, opts: SolveOptions | None = None,
              return_details: bool = False):
    """max <X, A22> over PSD, trace-one, index-permutation-symmetric X.

    Such X, and A22, live on Sym^2 (x) Sym^2, where M = Q^T X Q with
    Q = ``sym_isometry(2, n)`` is an isometry that commutes with the PSD
    projection: solving for M keeps the n^2 x n^2 program's iterates.  M is
    the degree-2 moment matrix scaled by s_beta = sqrt(2!/beta!); without
    the scale the solver's residuals change metric and it stops short.

    Returns the optimum; with ``return_details=True`` an :class:`A22Result`
    that also carries the weak-duality bound of the solver's dual point,
    valid for every feasible X whether or not the solver converged.
    """
    n = instance.n
    if n > 30:
        raise ValueError("two-two formulation limited to 30 variables")
    Q = sym_isometry(2, n)
    basis = [tuple(beta) for beta in _exact_degree(n, 2)[1].tolist()]  # in Q's column order
    s2 = _multinomial(basis)  # 2!/beta!, the positions x^beta stands for
    trace = {tuple(2 * e for e in beta): c for beta, c in zip(basis, s2)}  # tr X = E|x|^4
    problem = MomentProgram(len(basis), moment_classes(basis), Q.T @ a22_matrix(instance) @ Q,
                            [trace], [1.0], trace_bound=1.0, scale=np.sqrt(s2))
    opts = opts or SolveOptions(tol=1e-9 if n * n <= 16 else 1e-8, max_iter=50_000)
    sol = solve_sdp(problem, opts)
    res = A22Result(sol.primal_obj, sol.bound, sol.status, sol.iterations, sol.residuals)
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
