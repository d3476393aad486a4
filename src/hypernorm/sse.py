"""Expansion profiles of regular graphs and their interplay with the 2->q
norms of top-eigenspace projectors: exhaustive subset checks of the
norm-vs-expansion inequalities, the heavy-set extraction argument, and the
dimension-gated subexponential decision procedures.

Expansion is measured in the random-walk sense: Phi(S) is the probability
that one step from a uniform vertex of S leaves S; cp(G(S)) is the collision
probability of the endpoint distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import OperatorInstance
from .linalg import image_basis, sym_eig
from .oracles import norm_2_to_q_lower
from .tensorsdp import SIZE_LIMITS, tensor_sdp

__all__ = [
    "RegularGraph",
    "ExpansionReport",
    "expansion_profile",
    "top_projector_norm",
    "subspace_instance",
    "check_norm_implies_expansion",
    "check_expansion_implies_norm",
    "heavy_set_extract",
    "subexp_decide",
    "sse_decide",
    "cycle_graph",
    "complete_graph",
    "petersen_graph",
    "disjoint_matching",
    "random_regular_graph",
    "parse_graph_text",
    "graph_to_text",
]

EXACT_ENUMERATION_LIMIT = 16
REGULAR_GRAPH_TRIES = 200


@dataclass
class RegularGraph:
    """A regular multigraph whose subsets are scored as one table of exact
    integer endpoint counts (:meth:`evaluate_subsets`)."""

    n: int
    edges: list          # undirected pairs (u, v), multiplicities by repetition

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("self-loops are not supported")
        if self.n == 0 or len(self.edges) == 0:
            raise ValueError("graph must have vertices and edges")
        adj = np.zeros((self.n, self.n), dtype=np.int64)
        np.add.at(adj, tuple(np.transpose(self.edges)), 1)
        self._adj = adj + adj.T          # both directions, with multiplicities
        deg = self._adj.sum(axis=1)
        if not np.all(deg == deg[0]):
            raise ValueError(f"graph is not regular: degree spread {deg.min()}..{deg.max()}")
        self.degree = int(deg[0])

    def adjacency(self) -> np.ndarray:
        return self._adj.astype(float)

    def normalized_adjacency(self) -> np.ndarray:
        return self._adj / self.degree

    def evaluate_subsets(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Phi and cp of each subset, given as the 0/1 indicator rows of s.

        Row t of h = s A counts the edge endpoints from S_t that land on each
        vertex, d|S_t| in all, so Phi = (d|S| - <h, s>) / (d|S|) and
        cp = |h|^2 / (d|S|)^2: exact integer counts, each ratio rounded once.
        """
        s = np.asarray(s)
        hits, total = s @ self._adj, self.degree * s.sum(axis=1)
        if np.any(total == 0):
            raise ValueError("subset must be nonempty")
        phi = (total - np.einsum("ij,ij->i", hits, s)) / total
        return phi, np.einsum("ij,ij->i", hits, hits) / total**2

    def phi(self, subset) -> float:
        """Fraction of edge endpoints from the subset that land outside it."""
        return float(self.evaluate_subsets(self._indicator(subset))[0][0])

    def collision_probability(self, subset) -> float:
        """cp of the distribution: uniform vertex of the subset, then a random neighbor."""
        return float(self.evaluate_subsets(self._indicator(subset))[1][0])

    def _indicator(self, subset) -> np.ndarray:
        subset = list(subset)
        if not all(0 <= v < self.n for v in subset):
            raise ValueError(f"subset names a vertex outside 0..{self.n - 1}: {subset}")
        row = np.zeros((1, self.n), dtype=np.int64)
        row[0, subset] = 1
        return row


@dataclass
class ExpansionReport:
    delta: float
    phi: float
    argmin: tuple
    cp_argmin: float
    exhaustive: bool
    subsets_checked: int


def _subset_table(n, max_size) -> np.ndarray:
    """Indicator rows of the nonempty subsets of range(n) with at most
    max_size elements: by size, then in ``itertools.combinations`` order."""
    blocks = []
    for k in range(1, max_size + 1):
        members = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                              dtype=np.intp).reshape(-1, k)
        blocks.append(np.zeros((len(members), n), dtype=bool))
        np.put_along_axis(blocks[-1], members, True, axis=1)
    return np.concatenate(blocks)


def _members(row) -> tuple:
    return tuple(np.flatnonzero(row).tolist())


def expansion_profile(g: RegularGraph, delta: float, seed: int = 0) -> ExpansionReport:
    """Minimum expansion over nonempty subsets of measure at most delta.

    Up to 16 vertices every such subset is scored, as one table; beyond that
    a local search with no optimality claim (flagged in the report) scores
    each step's single swaps as one table and takes the first that lowers Phi.
    """
    max_size = int(math.floor(delta * g.n + 1e-12))
    if max_size < 1:
        raise ValueError(f"no nonempty subset has measure <= {delta} on {g.n} vertices")
    exhaustive = g.n <= EXACT_ENUMERATION_LIMIT
    if exhaustive:
        table = _subset_table(g.n, max_size)
        phi, _ = g.evaluate_subsets(table)
        first = int(np.argmin(phi))
        best, best_s, checked = phi[first], _members(table[first]), len(table)
    else:
        rng = np.random.default_rng(seed)
        eye = np.eye(g.n, dtype=np.int64)
        best, checked = np.inf, 0
        for _ in range(64):
            size = int(rng.integers(1, max_size + 1))
            cur = rng.choice(g.n, size=size, replace=False).tolist()
            val = g.phi(cur)
            while True:
                outside = np.setdiff1d(np.arange(g.n), cur)
                # swaps[p, q] is cur with its p-th member replaced by outside[q]
                swaps = eye[cur].sum(axis=0) - eye[cur][:, None] + eye[outside][None]
                phi, _ = g.evaluate_subsets(swaps.reshape(-1, g.n))
                better = np.flatnonzero(phi < val)
                if not better.size:
                    checked += phi.size
                    break
                first = int(better[0])
                checked += first + 1
                out_pos, in_pos = divmod(first, len(outside))
                cur = cur[:out_pos] + cur[out_pos + 1:] + [int(outside[in_pos])]
                val = phi[first]
            if val < best:
                best, best_s = val, tuple(sorted(cur))
    return ExpansionReport(delta=delta, phi=float(best), argmin=best_s,
                           cp_argmin=g.collision_probability(best_s),
                           exhaustive=exhaustive, subsets_checked=checked)


def subspace_instance(u: np.ndarray, q: int) -> OperatorInstance:
    """Operator whose counting 2->q norm is max |f|_q / |f|_2 over f = U c.

    ``u`` has counting-orthonormal columns spanning a subspace of functions on
    nv points with the uniform measure; the expectation-norm ratio folds into
    the single scaling nv^((q-2)/(2q)).
    """
    nv = u.shape[0]
    return OperatorInstance(u * nv ** ((q - 2) / (2.0 * q)), "counting")


@dataclass
class ProjectorNormReport:
    projector: np.ndarray
    basis: np.ndarray
    dim: int
    eigenvalues: np.ndarray
    norm_lower: float
    witness: np.ndarray


def top_projector_norm(g: RegularGraph, lam: float, q: int = 4, restarts: int = 64,
                       seed: int = 0) -> ProjectorNormReport:
    """Projector onto eigenvectors with eigenvalue >= lam, plus its norm oracle."""
    if not -1.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (-1, 1]")
    w, v = sym_eig(g.normalized_adjacency())
    keep = w >= lam - 1e-12
    u = v[:, keep]
    if u.shape[1] == 0:
        raise ValueError(f"no eigenvalues >= {lam}")
    inst = subspace_instance(u, q)
    ora = norm_2_to_q_lower(inst, q, restarts=restarts, seed=seed)
    f = u @ ora.witness[0]
    return ProjectorNormReport(projector=u @ u.T, basis=u, dim=u.shape[1],
                               eigenvalues=w[keep], norm_lower=ora.value, witness=f)


@dataclass
class NormExpansionCheck:
    lam: float
    q: int
    norm_lower: float
    norm_upper_fourth: float | None
    subsets_checked: int
    violations: list
    worst_slack: float
    passed: bool


def check_norm_implies_expansion(g: RegularGraph, lam: float, q: int = 4,
                                 restarts: int = 64, seed: int = 0,
                                 slack: float = 1e-6) -> NormExpansionCheck:
    """Verify Phi(S) >= 1 - lam - |P|^2 mu(S)^((q-2)/q) for every nonempty S.

    Every subset is scored at once, as one table of exact integer endpoint
    counts (:meth:`RegularGraph.evaluate_subsets`).  The oracle value (a lower
    bound on the projector norm) makes the tested right-hand side an
    over-estimate, so passing is strictly stronger than the inequality with
    the true norm.  For q=4 the report also carries the rigorous relaxation
    upper bound, making the check two-sided.
    """
    if g.n > 12:
        raise ValueError("all-subsets verification limited to 12 vertices")
    rep = top_projector_norm(g, lam, q, restarts, seed)
    upper4 = None
    if q == 4 and rep.dim <= SIZE_LIMITS[4]:
        inst = subspace_instance(rep.basis, 4)
        upper4 = tensor_sdp(inst, 4).certificate.bound
    table = _subset_table(g.n, g.n)
    phi, _ = g.evaluate_subsets(table)
    weight = np.array([(k / g.n) ** ((q - 2) / q) for k in range(g.n + 1)])[table.sum(axis=1)]
    margin = phi - (1.0 - lam - rep.norm_lower**2 * weight)
    sound = (phi - (1.0 - lam - np.sqrt(upper4) * weight) if upper4 is not None
             else np.full_like(phi, np.inf))
    violations = []
    for t in np.flatnonzero((margin < -slack) | (sound < -1e-9)):
        s, phi_s = _members(table[t]), float(phi[t])
        if margin[t] < -slack:
            violations.append({"subset": s, "phi": phi_s, "margin": float(margin[t])})
        if sound[t] < -1e-9:
            violations.append({"subset": s, "phi": phi_s, "margin": float(sound[t]), "side": "sdp"})
    return NormExpansionCheck(lam=lam, q=q, norm_lower=rep.norm_lower,
                              norm_upper_fourth=upper4, subsets_checked=len(table),
                              violations=violations, worst_slack=float(margin.min()),
                              passed=not violations)


@dataclass
class ExpansionNormCheck:
    lam: float
    q: int
    delta: float
    e_constant: float
    hypothesis_met: bool
    hypothesis_witness: tuple | None
    ratio: float | None
    bound: float
    passed: bool


def check_expansion_implies_norm(g: RegularGraph, lam: float, q: int, delta: float,
                                 c: float = 100.0, restarts: int = 64,
                                 seed: int = 0) -> ExpansionNormCheck:
    """If cp(G(S)) <= 1/(e |S|) for all small S, the top eigenspace has small q-norms.

    The hypothesis is verified by direct enumeration of cp over all subsets of
    measure at most delta, scored as one table of exact integer endpoint
    counts (``e = 2^(c q) / lam``, with the loose constant c exposed as a
    parameter); the first violating subset is the witness.  Only when it
    holds is the conclusion max |f|_q / |f|_2 <= 2 / sqrt(delta) tested by
    oracle maximization.
    """
    if g.n > 14:
        raise ValueError("hypothesis enumeration limited to 14 vertices")
    if q not in (4, 6):
        raise ValueError("q in {4, 6}")
    e = 2.0 ** (c * q) / lam
    max_size = int(math.floor(delta * g.n + 1e-12))
    if max_size < 1:
        raise ValueError("delta admits no nonempty subset")
    table = _subset_table(g.n, max_size)
    _, cp = g.evaluate_subsets(table)
    hit = np.flatnonzero(cp > 1.0 / (e * table.sum(axis=1)) + 1e-12)
    bound = 2.0 / math.sqrt(delta)
    if hit.size:
        return ExpansionNormCheck(lam, q, delta, e, False, _members(table[hit[0]]), None,
                                  bound, passed=True)
    ratio = top_projector_norm(g, lam, q, restarts, seed).norm_lower
    return ExpansionNormCheck(lam, q, delta, e, True, None, ratio, bound,
                              passed=ratio <= bound + 1e-4)


def heavy_set_extract(probs, g, n_target: int):
    """A set T of size N with E_{x in T} g^2 >= (E |g(D)|)^2 / 4.

    Requires cp(D) <= 1/N.  Following the two-case argument: if the N most
    probable points carry at least half of E|g|, Cauchy-Schwarz against the
    collision bound lands on them; otherwise the tail mass is flattened into
    uniform sets of size N and the best one is the N largest |g| values.
    """
    p = np.asarray(probs, dtype=float)
    gv = np.abs(np.asarray(g, dtype=float))
    if p.shape != gv.shape or p.ndim != 1:
        raise ValueError("probabilities and values must be equal-length vectors")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise ValueError("probs must be a probability vector")
    cp = float(np.sum(p * p))
    if cp > 1.0 / n_target + 1e-12:
        raise ValueError(f"collision probability {cp:.3e} exceeds 1/N = {1.0 / n_target:.3e}")
    beta = float(np.sum(p * gv))
    order_p = np.argsort(p)[::-1]
    head = order_p[:n_target]
    if float(np.sum(p[head] * gv[head])) >= beta / 2.0:
        t = head
    else:
        t = np.argsort(gv)[::-1][:n_target]
    t = tuple(sorted(int(i) for i in t))
    achieved = float(np.mean(gv[list(t)] ** 2))
    return t, {"bound": beta**2 / 4.0, "achieved": achieved, "cp": cp}


@dataclass
class SubexpVerdict:
    verdict: str                    # "LARGE" | "SMALL"
    reason: str                     # "gate" | "search"
    value: float | None
    sigma_min: float
    dim: int
    c: float
    C: float
    restarts: int
    restart_cap: int
    ambiguous: bool = False


def subexp_decide(instance: OperatorInstance, q: int, c: float, C: float,
                  seed: int = 0, restart_cap: int = 2**14) -> SubexpVerdict:
    """Distinguish small from large 2->q norm with a dimension gate.

    If the smallest nonzero singular value already exceeds c the small case is
    impossible.  If the image dimension exceeds C^2 n^(2/q) the norm is at
    least sqrt(dim)/n^(1/q) > C (every subspace contains a coordinate-spiky
    function of that ratio), so the gate soundly reports LARGE.  Otherwise a
    multistart oracle searches the image subspace with a budget of
    min(2^dim, cap) restarts.
    """
    if not 1.0 < c < C:
        raise ValueError("need 1 < c < C")
    sigma = instance.sigma_min_nonzero()
    u = image_basis(instance.quadratic_rows())
    rank = u.shape[1]
    n_out = instance.m
    if sigma > c:
        return SubexpVerdict("LARGE", "gate", None, sigma, rank, c, C, 0, restart_cap)
    if rank > C**2 * n_out ** (2.0 / q):
        return SubexpVerdict("LARGE", "gate", None, sigma, rank, c, C, 0, restart_cap)
    restarts = int(min(2**rank, restart_cap))
    ora = norm_2_to_q_lower(subspace_instance(u, q), q, restarts=restarts, seed=seed)
    value = ora.value
    if value >= C:
        return SubexpVerdict("LARGE", "search", value, sigma, rank, c, C, restarts, restart_cap)
    if value <= c:
        return SubexpVerdict("SMALL", "search", value, sigma, rank, c, C, restarts, restart_cap)
    verdict = "LARGE" if value >= math.sqrt(c * C) else "SMALL"
    return SubexpVerdict(verdict, "search", value, sigma, rank, c, C, restarts,
                         restart_cap, ambiguous=True)


@dataclass
class SseVerdict:
    verdict: str                    # "sse" | "not-sse" | "inconclusive-parameters"
    value: float
    yes_threshold: float
    no_threshold: float
    q_suggested: int
    dim: int
    delta: float
    nu: float


def sse_decide(g: RegularGraph, delta: float, nu: float, restarts: int = 256,
               seed: int = 0) -> SseVerdict:
    """Decide the expansion promise through the 2->4 norm of the lambda=1/2 eigenspace.

    A graph with a non-expanding set of measure delta forces the norm above
    1/(10 delta^(1/4)); a strong expander at measure delta^0.2 forces it below
    2/delta^0.1.  The verdict reports whichever side the measured norm rules
    out; overlapping thresholds can leave the parameters inconclusive.
    """
    if not 0 < nu < 1 or not 0 < delta < 1:
        raise ValueError("delta and nu must lie in (0, 1)")
    q_sugg = max(4, 2 * math.ceil(math.log2(1.0 / nu)))
    yes_thr = 1.0 / (10.0 * delta**0.25)
    no_thr = 2.0 / delta**0.1
    rep = top_projector_norm(g, 0.5, 4, restarts=restarts, seed=seed)
    value = rep.norm_lower
    can_be_yes = value >= yes_thr
    can_be_no = value <= no_thr + 1e-9
    if can_be_yes and not can_be_no:
        verdict = "not-sse"
    elif can_be_no and not can_be_yes:
        verdict = "sse"
    else:
        verdict = "inconclusive-parameters"
    return SseVerdict(verdict, value, yes_thr, no_thr, q_sugg, rep.dim, delta, nu)


# ---------------------------------------------------------------------------
# fixture graphs and the on-disk format
# ---------------------------------------------------------------------------


def cycle_graph(n: int) -> RegularGraph:
    return RegularGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> RegularGraph:
    return RegularGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen_graph() -> RegularGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return RegularGraph(10, outer + inner + spokes)


def disjoint_matching(pairs: int) -> RegularGraph:
    return RegularGraph(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])


def random_regular_graph(n: int, d: int, seed: int = 0) -> RegularGraph:
    """Configuration-model d-regular graph, resampled until simple and connected."""
    if n * d % 2:
        raise ValueError(f"a {d}-regular graph on {n} vertices needs n*d even, got n*d = {n * d}")
    rng = np.random.default_rng(seed)
    for _ in range(REGULAR_GRAPH_TRIES):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        edges = [(int(stubs[2 * i]), int(stubs[2 * i + 1])) for i in range(len(stubs) // 2)]
        if any(u == v for u, v in edges) or len({tuple(sorted(e)) for e in edges}) != len(edges):
            continue
        g = RegularGraph(n, edges)
        reach = np.arange(n) == 0        # the vertices reached from vertex 0 so far
        for _ in range(n - 1):
            reach = reach | (reach @ g._adj > 0)
        if reach.all():
            return g
    raise RuntimeError(f"could not sample a simple connected {d}-regular graph on {n} vertices")


def parse_graph_text(text: str) -> RegularGraph:
    """First line "n m", then m lines "u v" (0-indexed)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("graph file is empty: expected a header line \"n m\"")
    n, m = (int(t) for t in lines[0].split())
    if len(lines) - 1 != m:
        raise ValueError(f"header claims {m} edges, file has {len(lines) - 1}")
    return RegularGraph(n, [tuple(int(t) for t in ln.split()) for ln in lines[1:]])


def graph_to_text(g: RegularGraph) -> str:
    out = [f"{g.n} {len(g.edges)}"]
    out += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(out) + "\n"
