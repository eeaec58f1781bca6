"""The exclusion-tolerant matrix pseudo-metric and its permutation quotient.

For symmetric n x n grids A, B the distance is the infimum of rho > 0 such
that some index set lambda with |lambda| < n*rho covers every pair (i, j)
with |a_ij - b_ij| >= rho.  Equivalently (and this is how it is computed
exactly here),

    value = min over subsets lambda of max(|lambda|/n, max gap outside lambda),

where the inner minimisation over subsets reduces to a minimum-vertex-cover
problem per candidate gap threshold.  The value returned is the infimum
itself; the feasibility certificate (lambda, residual) holds for every rho
strictly above it.

The permutation quotient minimises over simultaneous row/column
permutations of B, exactly (depth-first search with prefix pruning) up to a
configurable size limit, or heuristically (greedy profile assignment plus
2-swap local search) above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, SizeLimitError

__all__ = [
    "DmWitness",
    "PiWitness",
    "dm_distance",
    "dpi_distance",
    "min_vertex_cover",
]


@dataclass(frozen=True)
class DmWitness:
    """Certified result of the exclusion-tolerant distance.

    ``excluded`` is the optimal index set lambda (0-based); ``max_residual``
    is the largest entry gap outside it.  Both |excluded| <= n*value and
    max_residual <= value hold by construction.
    """

    value: float
    excluded: tuple
    max_residual: float


@dataclass(frozen=True)
class PiWitness:
    """Result of the permutation-quotient distance.

    ``permutation[i]`` is the B-index aligned with A-index i, i.e. the value
    equals dm_distance(A, B[perm][:, perm]).  ``exact`` is False when the
    value is only a heuristic upper bound.
    """

    value: float
    permutation: tuple
    inner: DmWitness
    exact: bool


# ---------------------------------------------------------------------------
# exact minimum vertex cover


def min_vertex_cover(n: int, edges, max_size: int | None = None):
    """Exact minimum vertex cover by branch and bound.

    Args:
        n: number of vertices (0..n-1).
        edges: iterable of (i, j); a self-loop (i, i) forces i into the cover.
        max_size: optional budget; branches proving the optimum exceeds it
            are abandoned and None is returned.

    Returns:
        Sorted tuple of cover vertices, or None if every cover is larger
        than ``max_size``.

    Branching picks a maximum-degree vertex (lowest index on ties) and
    explores "v in cover" before "all neighbours of v in cover"; a greedy
    maximal matching provides the lower bound.  The result is deterministic.
    """
    adj = [0] * n
    forced = 0
    for i, j in edges:
        if i == j:
            forced |= 1 << i
        else:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    base = forced.bit_count()
    if max_size is not None and base > max_size:
        return None
    full = (1 << n) - 1
    alive0 = full & ~forced
    if forced:
        for v in range(n):
            adj[v] &= alive0

    # exclusive upper bound on the non-forced part of the cover
    bound0 = (max_size - base + 1) if max_size is not None else (n + 1)
    best = {"size": bound0, "mask": None}

    def matching_lb(alive: int) -> int:
        used = 0
        cnt = 0
        mm = alive
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            if used >> v & 1:
                continue
            nb = adj[v] & alive & ~used
            if nb:
                u = (nb & -nb).bit_length() - 1
                used |= (1 << v) | (1 << u)
                cnt += 1
        return cnt

    def rec(alive: int, cover: int, size: int) -> None:
        if size >= best["size"]:
            return
        # reductions: finish when edge-free, peel degree-1 vertices
        while True:
            pick = -1
            maxd = 0
            deg1 = -1
            mm = alive
            while mm:
                v = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                d = (adj[v] & alive).bit_count()
                if d > maxd:
                    maxd = d
                    pick = v
                if d == 1 and deg1 < 0:
                    deg1 = v
            if maxd == 0:
                best["size"] = size
                best["mask"] = cover
                return
            if deg1 >= 0:
                nb = adj[deg1] & alive
                u = (nb & -nb).bit_length() - 1
                alive &= ~((1 << u) | (1 << deg1))
                cover |= 1 << u
                size += 1
                if size >= best["size"]:
                    return
                continue
            break
        if size + matching_lb(alive) >= best["size"]:
            return
        v = pick
        nb = adj[v] & alive
        rec(alive & ~(1 << v), cover | (1 << v), size + 1)
        rec(alive & ~nb & ~(1 << v), cover | nb, size + nb.bit_count())

    rec(alive0, 0, 0)
    if best["mask"] is None:
        return None
    mask = best["mask"] | forced
    return tuple(i for i in range(n) if mask >> i & 1)


# ---------------------------------------------------------------------------
# the exclusion-tolerant distance


def _check_symmetric_pair(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"first matrix is not square: shape {a.shape}")
    if b.shape != a.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    for name, m in (("first", a), ("second", b)):
        if m.size and float(np.abs(m - m.T).max()) > tol:
            raise ValueError(f"{name} matrix is not symmetric within {tol}")
    return a, b


def _gap_pairs(a, b):
    """All pairs (i, j, |a_ij - b_ij|) with i <= j, diagonal included."""
    n = a.shape[0]
    g = np.abs(a - b)
    g = np.maximum(g, g.T)  # bitwise-symmetric gaps
    return [(i, j, float(g[i, j])) for i in range(n) for j in range(i, n)]


def _scan_pairs(pairs, denom, want_witness=False, good_enough=None):
    """Minimise max(threshold, cover_size/denom) over gap thresholds.

    ``pairs`` lists (i, j, gap) for i <= j.  Thresholds run over the
    distinct positive gaps in decreasing order plus 0; at threshold t the
    pairs with gap > t must be covered.  With ``good_enough`` set, returns
    as soon as the incumbent drops below it (the caller only needs to know
    whether the exact value clears that bar).
    """
    nverts = 0
    for i, j, _ in pairs:
        nverts = max(nverts, i + 1, j + 1)
    pos = [(g, i, j) for (i, j, g) in pairs if g > 0.0]
    pos.sort(key=lambda t: -t[0])
    thresholds = []
    for g, _, _ in pos:
        if not thresholds or g < thresholds[-1]:
            thresholds.append(g)
    thresholds.append(0.0)

    inc = math.inf
    best_cover: tuple = ()
    edges: list = []
    k = 0  # prefix of pos already in `edges`
    for t in thresholds:
        while k < len(pos) and pos[k][0] > t:
            edges.append((pos[k][1], pos[k][2]))
            k += 1
        if t >= inc:
            continue
        if not edges:
            cover: tuple | None = ()
        else:
            ms = None
            if inc < math.inf:
                ms = math.ceil(denom * inc) - 1
            cover = min_vertex_cover(nverts, edges, max_size=ms)
            if cover is None:
                break  # covers only grow as t shrinks
        c = len(cover)
        val = max(t, c / denom)
        if val < inc:
            inc = val
            best_cover = cover
            if good_enough is not None and inc < good_enough:
                return inc  # caller only probes against the bar
        if c / denom >= inc:
            break
    if not want_witness:
        return inc
    ex = set(best_cover)
    resid = 0.0
    for i, j, g in pairs:
        if i not in ex and j not in ex and g > resid:
            resid = g
    return inc, best_cover, resid


def dm_distance(a, b, tol: float = DEFAULT_TOL) -> DmWitness:
    """Exclusion-tolerant distance between two symmetric grids, with an
    optimal exclusion set as witness.

    The triangle inequality is not required of the inputs; any pair of
    symmetric grids of equal size is accepted.
    """
    a, b = _check_symmetric_pair(a, b, tol)
    n = a.shape[0]
    pairs = _gap_pairs(a, b)
    value, cover, resid = _scan_pairs(pairs, n, want_witness=True)
    return DmWitness(value=float(value), excluded=tuple(cover), max_residual=float(resid))


# ---------------------------------------------------------------------------
# permutation quotient


def _leaf_gaps(a_list, b_list, perm):
    n = len(perm)
    return [
        (i, j, abs(a_list[i][j] - b_list[perm[i]][perm[j]]))
        for i in range(n)
        for j in range(i, n)
    ]


def _dpi_exact(a, b):
    n = a.shape[0]
    a_list = a.tolist()
    b_list = b.tolist()
    perm = [-1] * n
    used = [False] * n
    best = {"value": math.inf, "perm": None, "witness": None}
    prefix: list = []  # stack of gap-pair lists, one chunk per depth
    # prefix pairs come in a fixed order per depth, so the gap tuple alone
    # keys the bound; structured matrices repeat patterns across branches
    memo: dict = {}

    def prefix_value(pairs) -> float:
        key = tuple(g for _, _, g in pairs)
        val = memo.get(key)
        if val is None:
            val = _scan_pairs(pairs, n)
            memo[key] = val
        return val

    def dfs(k: int) -> None:
        if k == n:
            pairs = [p for chunk in prefix for p in chunk]
            val, cover, resid = _scan_pairs(pairs, n, want_witness=True)
            if val < best["value"]:
                best["value"] = val
                best["perm"] = tuple(perm)
                best["witness"] = DmWitness(float(val), tuple(cover), float(resid))
            return
        ar = a_list[k]
        for j in range(n):
            if used[j]:
                continue
            perm[k] = j
            bt = b_list[j]
            chunk = [(t, k, abs(ar[t] - bt[perm[t]])) for t in range(k)]
            chunk.append((k, k, abs(ar[k] - bt[j])))
            prefix.append(chunk)
            lb = prefix_value([p for ch in prefix for p in ch])
            if lb < best["value"]:
                used[j] = True
                dfs(k + 1)
                used[j] = False
            prefix.pop()
        perm[k] = -1

    dfs(0)
    return PiWitness(
        value=float(best["value"]),
        permutation=best["perm"],
        inner=best["witness"],
        exact=True,
    )


def _dpi_heuristic(a, b):
    n = a.shape[0]
    a_list = a.tolist()
    b_list = b.tolist()
    order_a = np.argsort(a.sum(axis=1), kind="stable")
    order_b = np.argsort(b.sum(axis=1), kind="stable")
    perm = [0] * n
    for ra, rb in zip(order_a, order_b):
        perm[int(ra)] = int(rb)

    def value_of(p, bar=None):
        return _scan_pairs(_leaf_gaps(a_list, b_list, p), n, good_enough=bar)

    cur = value_of(perm)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                perm[i], perm[j] = perm[j], perm[i]
                trial = value_of(perm, bar=cur)
                if trial < cur:
                    cur = value_of(perm)  # exact value after an early-exit probe
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
    val, cover, resid = _scan_pairs(_leaf_gaps(a_list, b_list, perm), n, want_witness=True)
    return PiWitness(
        value=float(val),
        permutation=tuple(perm),
        inner=DmWitness(float(val), tuple(cover), float(resid)),
        exact=False,
    )


def dpi_distance(
    a,
    b,
    mode: str = "exact",
    exact_limit: int = 8,
    tol: float = DEFAULT_TOL,
) -> PiWitness:
    """Distance up to simultaneous row/column permutation.

    Exact mode runs a depth-first search over permutations with prefix
    pruning (a partial alignment is abandoned once its forced gaps already
    match the incumbent even after maximal allowed exclusion) and is limited
    to ``exact_limit`` points.  Heuristic mode returns an upper bound and is
    flagged ``exact=False``.  Ties are broken toward the lexicographically
    smallest permutation.
    """
    a, b = _check_symmetric_pair(a, b, tol)
    n = a.shape[0]
    if mode == "exact":
        if n > exact_limit:
            raise SizeLimitError(
                f"exact permutation search limited to n <= {exact_limit}, got {n}"
            )
        return _dpi_exact(a, b)
    if mode == "heuristic":
        return _dpi_heuristic(a, b)
    raise ValueError(f"unknown mode {mode!r}: expected 'exact' or 'heuristic'")
