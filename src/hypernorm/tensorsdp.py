"""Moment relaxations of the quartic sphere-maximization problem.

``tensor_sdp`` solves the level-d relaxation: maximize the pseudo-expectation
of sum_i <a_i, x>^4 over level-d functionals satisfying E[(|x|^2 - 1) x^g] = 0
for every multiplier g of degree <= d - 2 (the linearized form of the sphere
constraint; pseudo Cauchy-Schwarz recovers the quadratic form exactly).

``a22_value`` solves the equivalent program over PSD, trace-one, fully
index-permutation-symmetric n^2 x n^2 matrices paired with the quartic form's
two-two flattening, and ``certify_hypercontractivity`` runs the relaxation on
the low-degree cube projector in Fourier-coefficient coordinates.

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
import scipy.sparse as sp

from .core import OperatorInstance
from .oracles import elementary_norms, norm_2_to_q_lower
from .polybasis import Polynomial, chi_table, class_means, moment_classes, monomial_basis
from .polybasis import objective_expand, quartic_gram, sphere_poly, spread_objective
from .pseudoexp import PseudoExpectation
from .sdp import SdpProblem, SolveOptions, _psd_part, equality_rows, solve_sdp

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
        self.classes = classes = moment_classes(self.basis)
        # coefficient rows of the SoS residual: one per monomial of degree <= d
        row_of = {mono: r for r, mono in enumerate(classes)}
        inc_r, inc_c = [], []
        for r, pos in enumerate(classes.values()):
            for i, j in pos:
                inc_r.append(r)
                inc_c.append(i * N + j)
                if i != j:
                    inc_r.append(r)
                    inc_c.append(j * N + i)
        # incidence @ G.ravel() = coefficients of sum_ij G[i, j] x^(a_i + a_j)
        self._incidence = sp.csr_matrix((np.ones(len(inc_r)), (inc_r, inc_c)),
                                        shape=(len(classes), N * N))
        self._zero_row = row_of[(0,) * n]

        cons = [[(0, 0, 0, 1.0)]] + equality_rows(classes)
        b = [1.0] + [0.0] * (len(cons) - 1)
        self.sphere_gammas = monomial_basis(n, d - 2)
        self.sphere_row0 = len(cons)
        sph_r, sph_c, sph_v = [], [], []
        for col, gamma in enumerate(self.sphere_gammas):
            row = {}
            for k in range(n):
                up = tuple(g + (2 if t == k else 0) for t, g in enumerate(gamma))
                i, j = classes[up][0]
                row[(i, j)] = row.get((i, j), 0.0) + 1.0
                sph_r.append(row_of[up])
            i, j = classes[gamma][0]
            row[(i, j)] = row.get((i, j), 0.0) - 1.0
            cons.append([(0, i, j, c) for (i, j), c in row.items()])
            b.append(0.0)
            sph_r.append(row_of[gamma])
            sph_c.extend([col] * (n + 1))
            sph_v.extend([1.0] * n + [-1.0])
        # sphere @ q = coefficients of q(x) (|x|^2 - 1), q given on sphere_gammas
        self._sphere = sp.csr_matrix((sph_v, (sph_r, sph_c)),
                                     shape=(len(classes), len(self.sphere_gammas)))
        C = spread_objective(objective, classes, N)
        self._objective_vec = np.zeros(len(classes))
        for mono, c in objective.terms.items():
            self._objective_vec[row_of[mono]] = c
        self.problem = SdpProblem([N], [C], cons, b)
        if len(self.problem.kept_rows) != len(cons):
            raise AssertionError("moment relaxation produced duplicate constraint rows")

    @property
    def trace_bound(self) -> float:
        """tr X = sum_k E |x|^(2k) = d/2 + 1 for every feasible moment matrix."""
        return self.d // 2 + 1.0

    def extract_pseudoexpectation(self, sol) -> PseudoExpectation:
        return PseudoExpectation(self.n, self.d, class_means(sol.X[0], self.classes),
                                 [sphere_poly(self.n)])

    def certificate(self, sol) -> "SosCertificate":
        """Rigorous upper bound plus the explicit sum-of-squares identity."""
        n, d = self.n, self.d
        y = sol.y
        dual = self.problem.operator(y)[0]
        C = self.problem.C[0]
        slack = dual - C                       # >= 0 at exact dual feasibility
        lam_min = float(np.linalg.eigvalsh((slack + slack.T) / 2.0)[0])
        shift = max(0.0, -lam_min)
        # diagonal Gram matrix of sum_k |x|^(2k): D[a] = multinomial(|a|; a) >= 1
        Dd = np.array([_multinomial(a) for a in self.basis])
        shifted = (slack + slack.T) / 2.0 + shift * np.diag(Dd)
        bound = float(self.problem.b @ y) + shift * self.trace_bound

        w, v = np.linalg.eigh(shifted)
        w = np.maximum(w, 0.0)
        squares = []
        kept = []
        for k in range(len(w)):
            if w[k] <= 1e-14 * max(1.0, w[-1]):
                continue
            coeffs = np.sqrt(w[k]) * v[:, k]
            squares.append(Polynomial(n, {a: coeffs[t] for t, a in enumerate(self.basis)}))
            kept.append(coeffs)

        # q(x) = -sum_g y_g x^g - shift * W(x), where
        # (|x|^2 - 1) W(x) = sum_k |x|^(2k) - (d/2 + 1), i.e.
        # W(x) = sum_{j < d/2} (d/2 - j) |x|^(2j)
        terms = {}
        for t, gamma in enumerate(self.sphere_gammas):
            yg = y[self.sphere_row0 + t]
            if yg != 0.0:
                terms[gamma] = -yg
        for gamma in self.sphere_gammas:
            if any(e % 2 for e in gamma):
                continue
            c = float(d // 2 - sum(gamma) // 2) * _multinomial([e // 2 for e in gamma]) * (-shift)
            if c != 0.0:
                terms[gamma] = terms.get(gamma, 0.0) + c
        mult = Polynomial(n, terms)

        # bound - objective - q (|x|^2 - 1) - sum_j R_j^2, with sum_j R_j^2
        # the class sums of the squares' Gram matrix G = sum_j c_j c_j^T
        q = np.array([mult.coefficient(g) for g in self.sphere_gammas])
        target = -self._objective_vec - self._sphere @ q
        target[self._zero_row] += bound
        factors = np.array(kept).reshape(-1, len(w))
        gram = factors.T @ factors
        residual = float(np.max(np.abs(target - self._incidence @ gram.ravel())))
        return SosCertificate(bound=bound, shift=shift, squares=squares,
                              ideal_multiplier=mult, residual=residual, y=y.copy())


def _multinomial(alpha):
    out = math.factorial(sum(alpha))
    for e in alpha:
        out //= math.factorial(e)
    return float(out)


@dataclass
class SosCertificate:
    bound: float
    shift: float
    squares: list
    ideal_multiplier: Polynomial
    residual: float
    y: np.ndarray


@dataclass
class TensorSdpResult:
    value: float
    pe: PseudoExpectation
    certificate: SosCertificate
    status: str
    iterations: int
    level: int
    formulation: str = "moment"
    basis_size: int = 0

    def record(self, oracle: float | None = None, seed: int = 0) -> dict:
        return {
            "value": self.value,
            "certificate": {"bound": self.certificate.bound,
                            "residual": self.certificate.residual},
            "oracle": oracle,
            "formulation": self.formulation,
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
                           level=d, basis_size=len(relax.basis))


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


def _a22_projector_admm(C: np.ndarray, n: int, opts: SolveOptions):
    """ADMM for max <C, X> over {X PSD, tr X = 1, X index-permutation symmetric}.

    The affine step projects orthogonally onto the fixed subspace of the index
    action (orbit averaging) intersected with the trace constraint; the other
    step projects onto the PSD cone.
    """
    N = n * n
    sym_eye = index_symmetrize(np.eye(N), n)
    eye_norm = float(np.sum(np.eye(N) * sym_eye))
    scale = max(1.0, float(np.linalg.norm(C)))
    Cs = C / scale

    def proj_affine(m):
        y = index_symmetrize(m, n)
        return y + ((1.0 - np.trace(y)) / eye_norm) * sym_eye

    rho = 1.0
    Z = np.eye(N) / N
    U = np.zeros((N, N))
    X = Z.copy()
    status = "max-iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        X = proj_affine(Z - U + Cs / rho)
        Z_old = Z
        Z = _psd_part(X + U)
        U = U + X - Z
        rp = np.linalg.norm(X - Z) / (1.0 + np.linalg.norm(X))
        rd = rho * np.linalg.norm(Z - Z_old) / (1.0 + np.linalg.norm(U))
        if max(rp, rd) <= opts.tol:
            status = "optimal"
            break
        if it % opts.adapt_every == 0:
            if rp > 10 * rd:
                rho = min(rho * 2.0, 1e6)
                U = U / 2.0
            elif rd > 10 * rp:
                rho = max(rho / 2.0, 1e-6)
                U = U * 2.0
    value = float(np.sum(C * X))
    min_eig = float(np.linalg.eigvalsh((X + X.T) / 2.0)[0])
    residuals = {"primal_infeas": float(np.linalg.norm(X - Z) / (1.0 + np.linalg.norm(X))),
                 "min_eig": min_eig}
    return value, X, status, it, residuals


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

    Solved by a dedicated ADMM that enforces the symmetry by orbit averaging.
    Returns the optimum; with ``return_details=True`` an :class:`A22Result`
    that also carries the rigorous upper bound lambda_max(sym(A22)), valid for
    every feasible X since <A22, X> = <sym(A22), X> on the symmetric set.
    """
    n = instance.n
    if n > 30:
        raise ValueError("two-two formulation limited to 30 variables")
    C = a22_matrix(instance)
    bound = float(np.linalg.eigvalsh(index_symmetrize(C, n))[-1])
    opts = opts or SolveOptions(tol=1e-9 if n * n <= 16 else 1e-8, max_iter=50_000)
    value, X, status, it, residuals = _a22_projector_admm(C, n, opts)
    res = A22Result(value, bound, status, it, residuals)
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
