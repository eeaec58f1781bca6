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

dm, the exact search and the heuristic read every gap by one rule: the
pair {t, k} with t <= k has gap |a_kt - b_kt| (the lower triangle, the
diagonal included).  On grids symmetric only within tol, this choice moves
dm by at most tol.

The permutation quotient minimises over simultaneous row/column
permutations of B, exactly (depth-first search with prefix pruning) up to a
configurable size limit, or heuristically (greedy profile assignment plus
2-swap local search) above it.  The exact search tries one row per class of
twins of B (rows whose swap leaves B unchanged, as repeated sample points
do), which cuts the search without changing the value or the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, SizeLimitError

__all__ = [
    "DPI_EXACT_LIMIT",
    "DmWitness",
    "PiWitness",
    "dm_distance",
    "dpi_distance",
    "min_vertex_cover",
]

DPI_EXACT_LIMIT = 8  # largest n that the exact permutation search accepts by default


@dataclass(frozen=True)
class DmWitness:
    """Certified result of the exclusion-tolerant distance.

    ``excluded`` is the optimal index set lambda (0-based); ``max_residual``
    is the largest gap |a_kt - b_kt| (t <= k) outside it.  Both
    |excluded| <= n*value and max_residual <= value hold by construction.
    """

    value: float
    excluded: tuple
    max_residual: float


@dataclass(frozen=True)
class PiWitness:
    """Result of the permutation-quotient distance.

    ``permutation[i]`` is the B-index aligned with A-index i, i.e. the value
    equals dm_distance(A, B[perm][:, perm]) and ``inner`` is that DmWitness;
    both read the gaps by the same rule, so this holds on grids asymmetric
    within tol too.  ``exact`` is False when the value is only a heuristic
    upper bound.
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


def _check_finite_symmetric(m, what, tol):
    """Raise ValueError unless every entry of ``m`` (one grid, or a stack of
    grids along the first axis) is finite and each grid is symmetric within
    tol."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has a non-finite entry")
    if m.size and float(np.abs(m - np.swapaxes(m, -1, -2)).max()) > tol:
        raise ValueError(f"{what} is not symmetric within {tol}")


def _check_symmetric_pair(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"first matrix is not square: shape {a.shape}")
    if b.shape != a.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    _check_finite_symmetric(a, "first matrix", tol)
    _check_finite_symmetric(b, "second matrix", tol)
    return a, b


def _row_gaps(ar, b_list, perm, k):
    """Row k of A against the rows t <= k before it, aligned by ``perm``:
    the pairs (t, k, |a_kt - b_perm[k]perm[t]|).  This is the one gap rule;
    on a grid asymmetric within tol it reads the lower triangle."""
    bk = b_list[perm[k]]
    return [(t, k, abs(ar[t] - bk[perm[t]])) for t in range(k + 1)]


def _aligned_scan(a_list, b_list, perm):
    """Every gap pair of A against B aligned by ``perm``, row by row, with
    the value and cover :func:`_scan_pairs` finds for them."""
    pairs = [p for k, ar in enumerate(a_list) for p in _row_gaps(ar, b_list, perm, k)]
    return (pairs, *_scan_pairs(pairs, len(a_list)))


def _scan_pairs(pairs, denom):
    """Minimise max(threshold, cover_size/denom) over gap thresholds.

    ``pairs`` lists (t, k, gap) for t <= k, as :func:`_row_gaps` builds
    them.  Thresholds run over the distinct positive gaps in decreasing
    order plus 0; at threshold t the pairs with gap > t must be covered.
    Returns the minimum and an optimal cover.
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
        share = len(cover) / denom if cover else 0.0  # n = 0: no pairs, no cover
        val = max(t, share)
        if val < inc:
            inc = val
            best_cover = cover
        if share >= inc:
            break
    return inc, best_cover


def _witness(pairs, value, cover) -> DmWitness:
    """The scan's result as a DmWitness, with the largest gap outside the
    cover as residual."""
    ex = set(cover)
    resid = 0.0
    for i, j, g in pairs:
        if i not in ex and j not in ex and g > resid:
            resid = g
    return DmWitness(float(value), tuple(cover), float(resid))


def dm_distance(a, b, tol: float = DEFAULT_TOL) -> DmWitness:
    """Exclusion-tolerant distance between two symmetric grids, with an
    optimal exclusion set as witness.

    The triangle inequality is not required of the inputs; any pair of
    symmetric grids of equal size is accepted.
    """
    a, b = _check_symmetric_pair(a, b, tol)
    return _witness(*_aligned_scan(a.tolist(), b.tolist(), range(a.shape[0])))


# ---------------------------------------------------------------------------
# permutation quotient


def _twin_prev(b_list):
    """For each row j of B, the largest i < j whose transposition with j
    fixes B (relabelling B by it gives B back), or -1.

    Fixing B is an equivalence (a conjugate of a fixing transposition fixes
    B too), so twins form classes and ``prev`` chains each class upwards.
    """
    n = len(b_list)
    prev = [-1] * n
    for j in range(n):
        bj = b_list[j]
        for i in range(j - 1, -1, -1):
            bi = b_list[i]
            if (
                bi[i] == bj[j]
                and bi[j] == bj[i]
                and all(
                    bi[x] == bj[x] and b_list[x][i] == b_list[x][j]
                    for x in range(n)
                    if x != i and x != j
                )
            ):
                prev[j] = i
                break
    return prev


def _is_relabelling(a_rows, a_sorted, b_rows, b_sorted, b_prev) -> bool:
    """Whether B aligned by some permutation equals A entry for entry under
    the gap rule (a_kt == the aligned B entry for t <= k), that is, whether
    the exact dpi of A and B is 0.0.

    The rows of A are placed in order.  Row j of B is tried for row k only
    when its sorted row ``b_sorted[j]`` equals ``a_sorted[k]`` (necessary on
    symmetric grids) and it is the lowest unused row of its twin class
    (``b_prev`` from :func:`_twin_prev`), so a failing test stays small.
    """
    n = len(a_rows)
    perm = [-1] * n
    used = [False] * n

    def place(k: int) -> bool:
        if k == n:
            return True
        ar = a_rows[k]
        for j in range(n):
            if used[j] or (b_prev[j] >= 0 and not used[b_prev[j]]) or b_sorted[j] != a_sorted[k]:
                continue
            bj = b_rows[j]
            if ar[k] == bj[j] and all(ar[t] == bj[perm[t]] for t in range(k)):
                perm[k] = j
                used[j] = True
                if place(k + 1):
                    return True
                used[j] = False
        return False

    return place(0)


def _check_exact_limit(n: int, limit: int = DPI_EXACT_LIMIT) -> None:
    """Raise :class:`SizeLimitError` when n exceeds the exact search's limit."""
    if n > limit:
        raise SizeLimitError(f"exact permutation search limited to n <= {limit}, got {n}")


def _dpi_exact(a_list, b_list):
    """Exact permutation search over grids given as nested lists, which the
    caller has checked finite and symmetric within tol.

    The search walks one memo tree.  Aligning row k of A to row j of B adds
    the k + 1 gap pairs :func:`_row_gaps` builds; the node for that step is
    keyed by their gap tuple under its parent and holds ``(value, cover,
    children)`` from one :func:`_scan_pairs` call on the whole prefix.
    Chunk lengths are fixed per depth, so prefixes with equal gap tuples
    reach the same node and each is scanned once.  A node's value bounds
    every completion of its prefix from below; at depth n - 1 it is the dm
    of the full alignment, and its cover is the witness's exclusion set.
    """
    n = len(a_list)
    if not n:
        return PiWitness(0.0, (), DmWitness(0.0, (), 0.0), exact=True)
    perm = [-1] * n
    used = [False] * n
    # twins give equal gaps, and the lex-smallest optimum places each twin
    # class in increasing order, so only the lowest unused twin is tried
    prev = _twin_prev(b_list)
    best = {"value": math.inf}
    pairs: list = []  # the prefix's gap pairs, extended and truncated in place

    def dfs(k: int, children: dict) -> None:
        ar = a_list[k]
        for j in range(n):
            if used[j] or (prev[j] >= 0 and not used[prev[j]]):
                continue
            perm[k] = j
            chunk = _row_gaps(ar, b_list, perm, k)
            pairs.extend(chunk)
            key = tuple(g for _, _, g in chunk)
            node = children.get(key)
            if node is None:
                node = children[key] = (*_scan_pairs(pairs, n), {})
            value, cover, sub = node
            if value < best["value"]:
                if k == n - 1:
                    best.update(value=value, perm=tuple(perm), witness=_witness(pairs, value, cover))
                else:
                    used[j] = True
                    dfs(k + 1, sub)
                    used[j] = False
            del pairs[-(k + 1) :]

    dfs(0, {})
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

    cur = _aligned_scan(a_list, b_list, perm)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                perm[i], perm[j] = perm[j], perm[i]
                trial = _aligned_scan(a_list, b_list, perm)
                if trial[1] < cur[1]:
                    cur = trial
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
    inner = _witness(*cur)
    return PiWitness(value=inner.value, permutation=tuple(perm), inner=inner, exact=False)


def dpi_distance(
    a,
    b,
    mode: str = "exact",
    exact_limit: int = DPI_EXACT_LIMIT,
    tol: float = DEFAULT_TOL,
) -> PiWitness:
    """Distance up to simultaneous row/column permutation.

    Exact mode runs a depth-first search over permutations with prefix
    pruning (a partial alignment is abandoned once its forced gaps already
    match the incumbent even after maximal allowed exclusion) and is limited
    to ``exact_limit`` points.  It also prunes twins (rows of B whose swap
    leaves B unchanged): each depth tries only the lowest unused row of a
    twin class, so twins are aligned in one order only.  Heuristic mode
    returns an upper bound and is flagged ``exact=False``.  Ties are broken
    toward the lexicographically smallest permutation.
    """
    a, b = _check_symmetric_pair(a, b, tol)
    n = a.shape[0]
    if mode == "exact":
        _check_exact_limit(n, exact_limit)
        return _dpi_exact(a.tolist(), b.tolist())
    if mode == "heuristic":
        return _dpi_heuristic(a, b)
    raise ValueError(f"unknown mode {mode!r}: expected 'exact' or 'heuristic'")
