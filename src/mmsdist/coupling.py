"""Coupling functionals over explicit ground distances.

* the concentration functional of a coupling: the least r such that mass
  >= 1 - r sits on pairs within distance r (non-strict on both sides, per
  the definition it implements),
* the Levy-Prokhorov distance between two discrete measures, computed
  exactly by scanning distance breakpoints with a max-flow feasibility
  subproblem per breakpoint,
* Birkhoff decomposition of doubly stochastic grids,
* maximum bipartite matching under a distance cap (augmenting paths),
* the same-support overlap bound 1 - sum_i min(p_i, q_i).

Flows run on floats by default.  With ``exact=True`` the Prokhorov flow
runs on Python ints instead: the masses scaled by one power-of-two
denominator, so no flow arithmetic rounds and results are oracle-grade.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DEFAULT_TOL, Coupling, DegenerateSupportError, as_prob_vector

__all__ = [
    "ProkhorovResult",
    "BirkhoffDecomposition",
    "EpsMatching",
    "delta_of_coupling",
    "prokhorov_distance",
    "birkhoff_decompose",
    "epsilon_matching",
    "overlap_coupling_bound",
]

log = logging.getLogger("mmsdist")

_FLOW_EPS = 1e-14  # float residual capacity below this is saturated


@dataclass(frozen=True)
class ProkhorovResult:
    """Optimal value together with a coupling witness achieving it."""

    value: float
    coupling: Coupling
    breakpoint: float  # the distance level at which the optimum is realised


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutations reproducing a doubly stochastic grid.

    Each term is (coefficient, sigma) with sigma[i] the column matched to
    row i.
    """

    terms: tuple

    @property
    def size(self) -> int:
        return len(self.terms)

    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms])

    def reconstruct(self) -> np.ndarray:
        n = len(self.terms[0][1])
        out = np.zeros((n, n))
        for c, sigma in self.terms:
            out[np.arange(n), list(sigma)] += c
        return out


@dataclass(frozen=True)
class EpsMatching:
    """Maximum matching among pairs strictly closer than epsilon.

    ``pairs`` is an injective partial map as (left index, right index)
    tuples, sorted by left index.
    """

    pairs: tuple
    epsilon: float


# ---------------------------------------------------------------------------
# the concentration functional


def delta_of_coupling(c: Coupling, tol: float = DEFAULT_TOL) -> float:
    """Least r >= 0 with coupling mass >= 1 - r on pairs at distance <= r.

    Computed exactly as the minimum over sorted distinct pair distances d_k
    of max(d_k, 1 - C_k), with C_k the cumulative mass at d_k (plus the
    virtual level 0 when no pair sits at distance 0).
    """
    mass = c.mass.ravel()
    if float(mass.min(initial=0.0)) < -tol:
        raise ValueError("coupling has negative mass")
    total = float(mass.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"coupling mass totals {total}, expected 1")
    dist = c.ground_dist.ravel()
    order = np.argsort(dist, kind="stable")
    d_sorted = dist[order]
    cum = np.cumsum(mass[order])
    best = 1.0  # the virtual level r = 0 with no mass below it
    k = 0
    m = d_sorted.size
    while k < m:
        j = k
        while j + 1 < m and d_sorted[j + 1] == d_sorted[k]:
            j += 1
        val = max(float(d_sorted[k]), 1.0 - float(cum[j]))
        if val < best:
            best = val
        if d_sorted[k] >= best:
            break
        k = j + 1
    return float(best)


# ---------------------------------------------------------------------------
# max-flow machinery (one routine for float and integer capacities)


def _augment_max_flow(cap, flow, m, eps):
    """Push flow from node 0 to node m-1 until no augmenting path remains.

    Edmonds-Karp on an adjacency-matrix residual graph.  Capacities are
    floats, or Python ints with eps = 0 for exact runs (masses scaled by
    one power-of-two denominator).  Returns the value added.
    """
    added = cap[0][0] * 0  # zero of the right numeric type
    while True:
        prev = [-1] * m
        prev[0] = 0
        fringe = [0]
        while fringe and prev[m - 1] == -1:
            nxt = []
            for u in fringe:
                cu = cap[u]
                fu = flow[u]
                for v in range(m):
                    if prev[v] == -1 and cu[v] - fu[v] > eps:
                        prev[v] = u
                        nxt.append(v)
                        if v == m - 1:
                            break
            fringe = nxt
        if prev[m - 1] == -1:
            return added
        # bottleneck and update along the path
        path = []
        v = m - 1
        while v != 0:
            u = prev[v]
            path.append((u, v))
            v = u
        bottleneck = min(cap[u][v] - flow[u][v] for u, v in path)
        for u, v in path:
            flow[u][v] += bottleneck
            flow[v][u] -= bottleneck
        added += bottleneck


def _flow_network(p, q, zero):
    r, c = len(p), len(q)
    m = r + c + 2
    cap = [[zero] * m for _ in range(m)]
    for i in range(r):
        cap[0][1 + i] = p[i]
    for j in range(c):
        cap[1 + r + j][m - 1] = q[j]
    return cap, m


def _max_mass_within(p, q, dgrid, level, one, eps):
    """Maximum coupling mass placeable on pairs with distance <= level, in
    units where ``one`` is the total mass."""
    r, c = len(p), len(q)
    zero = one * 0
    cap, m = _flow_network(p, q, zero)
    two = one * 2  # any capacity >= total mass works for pair edges
    for i in range(r):
        di = dgrid[i]
        ci = cap[1 + i]
        for j in range(c):
            if di[j] <= level:
                ci[1 + r + j] = two
    flow = [[zero] * m for _ in range(m)]
    value = _augment_max_flow(cap, flow, m, eps)
    return value, flow


def _northwest_fill(rres, cres, mass, eps):
    """Deterministically spread residual marginals into `mass` (in place)."""
    i = j = 0
    r, c = len(rres), len(cres)
    while i < r and j < c:
        if rres[i] <= eps:
            i += 1
            continue
        if cres[j] <= eps:
            j += 1
            continue
        take = min(rres[i], cres[j])
        mass[i][j] += take
        rres[i] -= take
        cres[j] -= take


def prokhorov_distance(
    p,
    q,
    dist,
    tol: float = DEFAULT_TOL,
    exact: bool = False,
) -> ProkhorovResult:
    """Exact Levy-Prokhorov distance between two discrete measures over an
    explicit cross-distance grid.

    Scans the sorted distinct distance values; at level v a max-flow gives
    the largest coupling mass placeable on pairs within v, and the minimum
    over levels of max(v, 1 - flow(v)) is the distance.  The witness
    coupling extends the optimal flow by northwest-corner filling of the
    leftover mass (which provably lands on pairs beyond the optimal level).

    With ``exact=True`` no flow arithmetic rounds: every float mass is a
    dyadic rational, so scaled by the largest mass denominator (one power
    of two) the masses are Python ints and the flow runs on them.  Level
    values max(v, 1 - flow) are compared as exact rationals, and the
    witness masses are the correctly rounded quotients flow / denominator.
    """
    pv = as_prob_vector(p, tol, "first marginal")
    qv = as_prob_vector(q, tol, "second marginal")
    d = np.asarray(dist, dtype=float)
    if d.shape != (pv.size, qv.size):
        raise ValueError(
            f"distance grid shape {d.shape} does not match marginals "
            f"({pv.size}, {qv.size})"
        )
    if not np.isfinite(d).all():
        raise ValueError("distance grid has a non-finite entry")
    if d.size and float(d.min()) < -tol:
        raise ValueError(f"negative distance {float(d.min())}")

    P, Q, D = pv.tolist(), qv.tolist(), d.tolist()
    if exact:
        one = max(x.as_integer_ratio()[1] for x in P + Q)
        P = [a * (one // b) for a, b in map(float.as_integer_ratio, P)]
        Q = [a * (one // b) for a, b in map(float.as_integer_ratio, Q)]
        num, eps = Fraction, 0
    else:
        one, num, eps = 1.0, float, _FLOW_EPS

    levels = sorted({x for row in D for x in row})
    if not levels or levels[0] > 0.0:
        levels.insert(0, 0.0)

    # level values are Fractions when exact (one - fval is the mass left
    # unplaced, in units of 1/one), floats otherwise; levels stay floats
    # for the grid comparisons, since Fraction(float) keeps float order
    best_val = best_v = best_level = None
    probed = 0
    for level in levels:
        v = num(level)
        if best_val is not None and v >= best_val:
            break
        fval, _ = _max_mass_within(P, Q, D, level, one, eps)
        probed += 1
        val = max(v, num(one - fval) / one)
        if best_val is None or val < best_val:
            best_val, best_v, best_level = val, v, level

    # witness coupling at the optimal level
    fval, flow = _max_mass_within(P, Q, D, best_level, one, eps)
    r, c = len(P), len(Q)
    zero = one * 0
    mass = [[max(flow[1 + i][1 + r + j], zero) for j in range(c)] for i in range(r)]
    rres = [max(P[i] - sum(mass[i]), zero) for i in range(r)]
    cres = [max(Q[j] - sum(mass[i][j] for i in range(r)), zero) for j in range(c)]
    _northwest_fill(rres, cres, mass, eps)
    log.debug(
        "prokhorov: %d x %d atoms, %d levels probed, %d max-flow calls, exact=%s",
        r, c, probed, probed + 1, exact,
    )
    coupling = Coupling(
        mass=np.array([[x / one for x in row] for row in mass]),
        ground_dist=d,
    )
    return ProkhorovResult(
        value=max(0.0, float(best_val)),
        coupling=coupling,
        breakpoint=float(best_v),
    )


# ---------------------------------------------------------------------------
# bipartite matching and Birkhoff decomposition


def _max_matching(allowed: np.ndarray):
    """Maximum bipartite matching (Kuhn's augmenting paths).

    Scans vertices in index order, preferring free columns before
    augmenting through occupied ones, so identical supports match along
    the diagonal.
    """
    n_l, n_r = allowed.shape
    match_r = [-1] * n_r  # right -> left

    def try_assign(u, seen):
        for v in range(n_r):
            if allowed[u, v] and match_r[v] == -1 and not seen[v]:
                seen[v] = True
                match_r[v] = u
                return True
        for v in range(n_r):
            if allowed[u, v] and not seen[v]:
                seen[v] = True
                if try_assign(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    count = 0
    for u in range(n_l):
        if try_assign(u, [False] * n_r):
            count += 1
    match_l = [-1] * n_l
    for v, u in enumerate(match_r):
        if u != -1:
            match_l[u] = v
    return count, match_l


def epsilon_matching(dist_grid, epsilon: float) -> EpsMatching:
    """Maximum-cardinality matching among pairs at distance < epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = np.asarray(dist_grid, dtype=float)
    allowed = d < epsilon
    _, match_l = _max_matching(allowed)
    pairs = tuple((i, j) for i, j in enumerate(match_l) if j != -1)
    return EpsMatching(pairs=pairs, epsilon=float(epsilon))


_SUPPORT_EPS = 5e-13  # entries at or below this count as zero during peeling


def birkhoff_decompose(s, tol: float = DEFAULT_TOL) -> BirkhoffDecomposition:
    """Write a doubly stochastic grid as a convex combination of permutations.

    Repeatedly finds a perfect matching on the positive support, subtracts
    the minimum matched entry times that permutation and continues until
    the residual vanishes; at most (n-1)^2 + 1 terms are produced and the
    reconstruction reproduces the input to within the peeling threshold.
    """
    a = np.array(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square grid, got shape {a.shape}")
    n = a.shape[0]
    if float(a.min()) < -tol:
        raise ValueError(f"negative entry {float(a.min())}")
    rows = a.sum(axis=1)
    cols = a.sum(axis=0)
    if float(np.abs(rows - 1.0).max()) > tol or float(np.abs(cols - 1.0).max()) > tol:
        raise ValueError("grid is not doubly stochastic within tolerance")

    terms = []
    idx = np.arange(n)
    while float(a.max()) > 1e-12:
        count, match_l = _max_matching(a > _SUPPORT_EPS)
        if count < n:
            raise DegenerateSupportError(
                "residual support admits no perfect matching"
            )
        sigma = np.array(match_l)
        coeff = float(a[idx, sigma].min())
        terms.append((coeff, tuple(int(v) for v in sigma)))
        a[idx, sigma] -= coeff
    if not terms:  # the zero-residual corner case: n = 0 cannot occur here
        terms.append((1.0, tuple(range(n))))
    return BirkhoffDecomposition(terms=tuple(terms))


# ---------------------------------------------------------------------------
# same-support overlap bound


def overlap_coupling_bound(p, q, tol: float = DEFAULT_TOL) -> float:
    """1 - sum_i min(p_i, q_i): the diagonal-heavy coupling bound for two
    measures on the same finite metric space."""
    pv = as_prob_vector(p, tol, "first mass vector")
    qv = as_prob_vector(q, tol, "second mass vector")
    if pv.size != qv.size:
        raise ValueError(f"length mismatch: {pv.size} vs {qv.size}")
    return max(0.0, 1.0 - float(np.minimum(pv, qv).sum()))
