"""Explicit matrix constructions for the norm/separability reductions: the
quartic tensor forms and their equivalence audit, the product-test projector
with its fourth-moment design identity, the amplified hardness pipeline, the
complex-to-real gadget, and near-projector padding.

All constructions are pure; brute-force verifications live in the audit
routines and the test suite.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import OperatorInstance, TensorShape
from .linalg import image_basis, kron, perm_operator, reorder_factors, sym_eig
from .oracles import h_sep_lower, inj3_lower, inj_sym4_lower, norm_2_to_q_lower
from .polybasis import quartic_gram

__all__ = [
    "build_tensor_forms",
    "TensorFormsAudit",
    "DesignEnsemble",
    "design_ensemble",
    "product_test_projector",
    "m1_pipeline",
    "M1Report",
    "complex_to_real",
    "realify_vector",
    "GADGET_KAPPA",
    "pad_and_project",
    "PadReport",
    "exact_projector_map",
]


def input_hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# tensor forms A4 / A3 / A22 and the five-way equivalence audit
# ---------------------------------------------------------------------------


@dataclass
class TensorFormsAudit:
    norm_fourth: float
    inj4: float
    inj3_squared: float
    hsep: float
    sdp_upper: float
    max_pairwise_gap: float
    passed: bool


def build_tensor_forms(instance: OperatorInstance, audit: bool = False,
                       restarts: int = 64, seed: int = 0, tol: float = 1e-6):
    """The quartic forms of an operator: 4-tensor, 3-tensor, and PSD flattening.

    With ``audit=True`` (sizes up to 6 columns, 12 rows) the four independent
    lower-bound routes to the fourth power of the 2->4 norm are required to
    agree within tol, and the relaxation upper bound must close the loop.
    """
    rows = instance.quartic_rows()
    if np.iscomplexobj(rows):
        raise ValueError("tensor forms need a real operator; realify first")
    m, n = rows.shape
    a22 = quartic_gram(rows)
    # A4 = sum_i a_i^(x)4, read from A22 at each entry's sorted index tuple, so
    # permutation invariance holds bitwise, not just to rounding
    i, j, k, l = np.sort(np.indices((n,) * 4).reshape(4, -1), axis=0)
    a4 = a22[i * n + j, k * n + l].reshape((n,) * 4)
    a3 = np.einsum("ia,ib->abi", rows, rows)
    forms = {"A4": a4, "A3": a3, "A22": a22}
    if not audit:
        return forms, None
    if n > 6 or m > 12:
        raise ValueError("audit limited to 6 columns and 12 rows")
    v24 = norm_2_to_q_lower(instance, 4, restarts=restarts, seed=seed).value ** 4
    v4 = inj_sym4_lower(a4, restarts=restarts, seed=seed).value
    v3 = inj3_lower(a3, restarts=restarts, seed=seed).value ** 2
    vh = h_sep_lower(a22, (n, n), restarts=restarts, seed=seed).value
    from .tensorsdp import tensor_sdp

    upper = tensor_sdp(instance, 4).certificate.bound
    vals = [v24, v4, v3, vh]
    scale = max(1.0, max(vals))
    gap = (max(vals) - min(vals)) / scale
    passed = gap <= tol and upper >= max(vals) - tol * scale
    return forms, TensorFormsAudit(v24, v4, v3, vh, upper, gap, passed)


# ---------------------------------------------------------------------------
# fourth-moment design ensembles and the product-test projector
# ---------------------------------------------------------------------------


@dataclass
class DesignEnsemble:
    """Vectors z_i with sum_i (z_i z_i^*)^(x2) equal to the Gaussian fourth moment.

    The target is E[a a^* (x) a a^*] = (I + F)/2 for the complex Gaussian
    normalized so the product-test projector is reproduced exactly.
    """

    n: int
    vectors: np.ndarray  # k x n complex, weights absorbed into the lengths

    def fourth_moment(self) -> np.ndarray:
        """sum_i kron(z_i z_i^*, z_i z_i^*), the Gram of the product vectors z (x) z."""
        prods = np.einsum("ka,kb->kab", self.vectors, self.vectors).reshape(len(self.vectors), -1)
        return np.einsum("kp,kq->pq", prods, prods.conj())

    def residual(self) -> float:
        f = perm_operator((1, 0), self.n)
        target = (np.eye(self.n**2) + f) / 2.0
        return float(np.abs(self.fourth_moment() - target).max())


def design_ensemble(n: int) -> DesignEnsemble:
    """The exact fourth-moment design on C^n, 1 <= n <= 4, in closed form.

    The vectors are the n basis vectors, each scaled by (1/2)^(1/4), and the
    3^(n-1) phase vectors (1, w^c_1, ..., w^c_(n-1)) / sqrt(n) with
    w = e^(2 pi i/3) and c in Z_3^(n-1), each scaled by
    (n^2 / (2 * 3^(n-1)))^(1/4); n + 3^(n-1) vectors in all.

    Why the sum is exactly (I + F)/2: entry (i,k),(j,l) of (z z^*)^(x2) for a
    phase vector is w^(c_i - c_j + c_k - c_l) / n^2.  Fixing c_0 = 0 loses
    nothing, since (z z^*)^(x2) ignores a global phase, so the average over c
    is the average over all of Z_3^n.  The coefficient of c_t in the exponent
    is the count of t among (i, k) minus its count among (j, l), which lies in
    -2..2 and so vanishes mod 3 only when it is 0: the average is 1 when the
    multisets {i, k} and {j, l} agree, that is for i = j, k = l (the identity)
    or i = l, k = j (the swap F), and 0 otherwise.  With the weight, the phase
    vectors give (I + F)/2 except that the pattern i = j = k = l is counted
    once, with 1/2 instead of 1; the scaled basis vectors add the missing 1/2
    on that diagonal.  At n = 3 the phase vectors and the basis are the
    complete set of mutually unbiased bases (Klappenecker & Roetteler 2005).
    """
    if not 1 <= n <= 4:
        raise ValueError("designs constructed for 1 <= n <= 4 only")
    basis = np.eye(n, dtype=complex) * 0.5**0.25
    c = np.array(list(itertools.product((0,), *[range(3)] * (n - 1))))  # c_0 = 0
    phases = np.exp(2j * np.pi / 3 * c) / np.sqrt(n)
    phases *= (n**2 / (2.0 * 3 ** (n - 1))) ** 0.25
    return DesignEnsemble(n, np.vstack([basis, phases]))


def product_test_projector(n: int, seed: int = 0):
    """Projector onto vectors invariant under swapping factors (1,3) and (2,4).

    Returns the matrix together with self-checks: idempotency, rank (the
    squared symmetric-subspace dimension), invariance on x(x)y(x)x(x)y, and
    the reconstruction error of the design-sum identity.
    """
    if n > 4:
        raise ValueError("product-test projector limited to n <= 4")
    eye = np.eye(n**4)
    p13 = perm_operator((2, 1, 0, 3), n)
    p24 = perm_operator((0, 3, 2, 1), n)
    p = (eye + p13) / 2.0 @ (eye + p24) / 2.0
    checks = {"idempotency": float(np.abs(p @ p - p).max())}
    w = np.linalg.eigvalsh(p)
    checks["rank"] = int(np.sum(w > 0.5))
    checks["rank_expected"] = (n * (n + 1) // 2) ** 2
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    vec = kron(x, y, x, y)
    checks["invariance"] = float(np.abs(p @ vec - vec).max())
    ens = design_ensemble(n)
    checks["design_sum"] = float(np.abs(_design_product_sum(ens) - p).max())
    return p, checks


def _design_product_sum(ens: DesignEnsemble) -> np.ndarray:
    """sum_{i,j} (z_i z_i^* on systems 1,3) (x) (z_j z_j^* on systems 2,4).

    Built on the ordering (1,3,2,4) as a plain Kronecker product of two
    fourth-moment operators, then relabeled to (1,2,3,4).
    """
    n = ens.n
    m4 = ens.fourth_moment()
    shape = TensorShape((n, n, n, n))
    return reorder_factors(np.kron(m4, m4), shape, (0, 2, 1, 3))


# ---------------------------------------------------------------------------
# the amplified hardness pipeline
# ---------------------------------------------------------------------------


@dataclass
class M1Report:
    m1: np.ndarray
    m2: np.ndarray | None
    a1: np.ndarray
    a2: np.ndarray | None
    hsep_m1: float
    hsep_m2: float | None
    norm_a1_fourth: float
    design_residual: float
    m1_psd_violation: float
    m1_leq_identity: float


def m1_pipeline(m0: np.ndarray, n: int, k: int = 1, restarts: int = 48, seed: int = 0) -> M1Report:
    """Conjugate the product-test projector by sqrt(M0) and amplify by tensoring.

    ``m0`` acts on C^n (x) C^n with 0 <= M0 <= I.  The output separability cut
    for M1 groups systems as (1,2) | (3,4); the k-fold power groups all first
    halves against all second halves.  A1 has one row per pair of design
    vectors, (n + 3^(n-1))^2 rows: 25 at n = 2, 144 at n = 3.

    Cost at the limit, on a 2-core x86-64 host with OpenBLAS on both cores:
    n = 3, k = 1 takes about 0.03 s.  n = 3, k = 2 takes 11 s and peaks at
    2.8 GB resident (one run); 4.1 s of that is the Cholesky factorization in
    the PSD check of the 6561 x 6561 M2 in ``h_sep_lower``.
    """
    if n > 3 or k not in (1, 2):
        raise ValueError(f"pipeline limited to n <= 3 and k in (1, 2), got n={n}, k={k}")
    m0 = np.asarray(m0, dtype=complex)
    if m0.shape != (n * n, n * n):
        raise ValueError("M0 must act on C^n (x) C^n")
    w, v = sym_eig(m0)
    if w[-1] < -1e-9 or w[0] > 1.0 + 1e-9:
        raise ValueError(f"M0 eigenvalues must lie in [0, 1]; got [{w[-1]:.3e}, {w[0]:.3e}]")
    sqrt_m0 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    p, _ = product_test_projector(n, seed=seed)
    side = np.kron(sqrt_m0, sqrt_m0)
    # sqrt(M0) (x) sqrt(M0) acts on systems (1,2)(3,4); P was built on (1,2,3,4)
    # with the invariances on (1,3) and (2,4), matching the Wick arrangement.
    m1 = side @ p @ side.conj().T
    m1 = (m1 + m1.conj().T) / 2.0

    ens = design_ensemble(n)
    ws = []
    for zi in ens.vectors:
        for zj in ens.vectors:
            ws.append(sqrt_m0 @ np.kron(zi, zj))
    ws = np.array(ws)                      # (k_design^2) x n^2
    m1_design = DesignEnsemble(n * n, ws).fourth_moment()
    design_residual = float(np.abs(m1_design - m1).max())
    a1 = ws.conj()                         # rows w_{ij}^*

    lam = np.linalg.eigvalsh(m1)
    hsep1 = h_sep_lower(m1, (n * n, n * n), restarts=restarts, seed=seed,
                        dim_limit=n**4).value
    na1 = norm_2_to_q_lower(OperatorInstance(a1), 4, restarts=restarts, seed=seed).value ** 4

    m2 = a2 = None
    hsep2 = None
    if k == 2:
        shape = TensorShape((n * n, n * n, n * n, n * n))
        m2 = reorder_factors(np.kron(m1, m1), shape, (0, 2, 1, 3))
        a2 = np.kron(a1, a1)
        hsep2 = h_sep_lower(m2, (n**4, n**4), restarts=restarts, seed=seed,
                            dim_limit=n**8).value
    return M1Report(m1=m1, m2=m2, a1=a1, a2=a2, hsep_m1=hsep1, hsep_m2=hsep2,
                    norm_a1_fourth=na1, design_residual=design_residual,
                    m1_psd_violation=float(max(0.0, -lam[0])),
                    m1_leq_identity=float(max(0.0, lam[-1] - 1.0)))


# ---------------------------------------------------------------------------
# the complex -> real gadget
# ---------------------------------------------------------------------------

# |gadget(w)|_4^4 = KAPPA * |w|^4 per complex coordinate before normalization
GADGET_KAPPA = 1.5

_GADGET_BLOCK = np.array([
    [1.0, 1.0],
    [1.0, -1.0],
    [2.0**0.25, 0.0],
    [2.0**0.25, 0.0],
    [0.0, 2.0**0.25],
    [0.0, 2.0**0.25],
]) / np.sqrt(2.0)


def complex_to_real(ac: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Real matrix with the same 2->4 norm as the complex input.

    Each complex entry becomes a 6x2 block: the rotation matrix of complex
    multiplication followed by a fixed block whose fourth powers collapse to
    |w|^4 up to the constant 3/2; rows are rescaled by (2/3)^(1/4) so the
    transfer is exact.  Inputs embed by z -> (Re z_1, Im z_1, Re z_2, ...),
    which preserves 2-norms.
    """
    ac = np.atleast_2d(np.asarray(ac))
    m, n = ac.shape
    out = np.zeros((6 * m, 2 * n))
    for i in range(m):
        for j in range(n):
            alpha, beta = float(np.real(ac[i, j])), float(np.imag(ac[i, j]))
            rot = np.array([[alpha, -beta], [beta, alpha]])
            out[6 * i : 6 * i + 6, 2 * j : 2 * j + 2] = _GADGET_BLOCK @ rot
    if normalize:
        out *= GADGET_KAPPA ** -0.25
    return out


def realify_vector(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    out = np.empty(2 * z.size)
    out[0::2] = np.real(z)
    out[1::2] = np.imag(z)
    return out


# ---------------------------------------------------------------------------
# padding to a near-projector and the exact-projector reduction
# ---------------------------------------------------------------------------


@dataclass
class PadReport:
    padded: OperatorInstance
    projector: np.ndarray
    sigma_min: float
    alpha: float
    b_norm24: float


def pad_and_project(instance: OperatorInstance, eps: float, seed: int = 0,
                    c_small: float = 1.0, m_pad: int | None = None) -> PadReport:
    """Concatenate a random near-isometric block so singular values flatten.

    The padded operator carries measure alpha = delta / c^4 (delta = eps/2) on
    the original coordinates and 1 - alpha on the Gaussian block, so its
    quartic mean is the same convex combination.  Also returns the exact
    orthogonal projector onto the image of the input.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if instance.is_complex:
        raise ValueError("pad a real operator (realify first)")
    if m_pad is not None and m_pad < 1:
        raise ValueError(f"m_pad must be >= 1, got {m_pad}")
    a = instance.matrix
    m, kdim = a.shape
    delta = eps / 2.0
    alpha = min(0.5, delta / c_small**4)
    rng = np.random.default_rng(seed)
    mb = m_pad if m_pad is not None else max(int(math.ceil(4 * kdim**2 / delta**2)), 8 * kdim)
    b = rng.normal(size=(mb, kdim)) / np.sqrt(kdim)
    weights = np.concatenate([np.full(m, alpha / m), np.full(mb, (1.0 - alpha) / mb)])
    padded = OperatorInstance(np.vstack([a, b]), "expectation", row_weights=weights)

    u = image_basis(a)
    proj = u @ u.T
    b_inst = OperatorInstance(b, "expectation")
    b_norm = norm_2_to_q_lower(b_inst, 4, restarts=16, seed=seed).value
    return PadReport(padded=padded, projector=proj, sigma_min=padded.sigma_min_nonzero(),
                     alpha=alpha, b_norm24=b_norm)


def exact_projector_map(instance: OperatorInstance, big_threshold: float,
                        eps: float, restarts: int = 64, seed: int = 0) -> dict:
    """Case logic reducing near-isometries to exact projectors.

    Rejects the small case early when the top singular value exceeds 1 + eps;
    otherwise tests the projector onto the image against the thresholds
    (large: >= big_threshold, small: <= 3^(1/4) + eps).
    """
    sig_max = instance.two_to_two()
    if sig_max > 1.0 + eps:
        return {"early_reject_small": True, "verdict": "large", "sigma_max": sig_max}
    u = image_basis(instance.quadratic_rows())
    from .sse import subspace_instance

    proj_inst = subspace_instance(u, 4)
    val = norm_2_to_q_lower(proj_inst, 4, restarts=restarts, seed=seed).value
    verdict = "large" if val >= big_threshold else ("small" if val <= 3**0.25 + eps else "between")
    return {"early_reject_small": False, "verdict": verdict, "projector_norm": val,
            "sigma_max": sig_max, "dim": u.shape[1]}
