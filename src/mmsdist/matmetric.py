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

The gap rule: one helper, :func:`_gaps`, reads every gap, for dm, both
dpi searches and the ensemble grids alike.  The pair {t, k} with t <= k
has gap |a_kt - b_kt| (the lower triangle, the diagonal included).  On
grids symmetric only within tol, this choice moves dm by at most tol.
Every cover is searched on a bitmask graph of gap pairs (:class:`_Graph`),
which each caller builds or updates in place of an edge list.

The permutation quotient dpi minimises dm over simultaneous row/column
permutations of B: exactly up to a size limit (:func:`_dpi_exact`), or
heuristically above it (:func:`_dpi_heuristic`, flagged ``exact=False``).
Both ask of an alignment only whether its dm is below the incumbent, by
one budgeted cover (:func:`_below`; the heuristic updates its graph for
each trial swap), and scan in full only an alignment that is, so in either
mode the value and witness are those of dm_distance(A, B[perm][:, perm]).
The dm and dpi grids between two ensembles' atoms are built here too
(:func:`_cross_grid`).
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from .core import DEFAULT_TOL, SizeLimitError, as_symmetric_grid

__all__ = [
    "DPI_EXACT_LIMIT",
    "DmWitness",
    "PiWitness",
    "dm_distance",
    "dpi_distance",
    "min_vertex_cover",
]

DPI_EXACT_LIMIT = 8  # largest n that the exact permutation search accepts by default

log = logging.getLogger("mmsdist")


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


class _Graph:
    """A graph on the vertices 0..n-1 held as the bitmasks that
    :func:`min_vertex_cover` searches: ``adj[v]`` has bit u for each edge
    {u, v}, u != v, and ``forced`` has bit v for each self-loop (v, v).

    It iterates as its pairs (i, j), i <= j, so it is also an edge list;
    :func:`min_vertex_cover` reads its masks without a rebuild.
    """

    __slots__ = ("adj", "forced")

    def __init__(self, n: int):
        self.adj = [0] * n
        self.forced = 0

    def __iter__(self):
        for i, nb in enumerate(self.adj):
            if self.forced >> i & 1:
                yield i, i
            for j in range(i + 1, len(self.adj)):
                if nb >> j & 1:
                    yield i, j

    def add(self, edges) -> None:
        """Add each edge (i, j) of ``edges``, a self-loop when i == j."""
        adj, forced = self.adj, self.forced
        for i, j in edges:
            if i == j:
                forced |= 1 << i
            else:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        self.forced = forced

    def set_row(self, k: int, gaps, value) -> None:
        """Make the edges at vertex k exactly the pairs {t, k} whose gap
        ``gaps[t]`` is at least ``value``; ``gaps`` covers every vertex."""
        row, bit = 0, 1 << k
        for t, g in enumerate(gaps):
            if g >= value:
                row |= 1 << t
        self.forced = (self.forced & ~bit) | (row & bit)
        row &= ~bit
        flip = row ^ self.adj[k]
        self.adj[k] = row
        while flip:
            x = flip & -flip
            flip ^= x
            self.adj[x.bit_length() - 1] ^= bit


@lru_cache(maxsize=16)
def _bits(n):
    """The masks 1 << v of the vertices v < n."""
    return tuple(1 << v for v in range(n))


def min_vertex_cover(n: int, edges, max_size: int | None = None, *, lower: int = 0):
    """Exact minimum vertex cover by branch and bound.

    Args:
        n: number of vertices (0..n-1), a non-negative integer.
        edges: iterable of (i, j); a self-loop (i, i) forces i into the
            cover.  The library passes its own bitmask graph
            (:class:`_Graph`), whose masks the search reads directly.
        max_size: optional budget; branches proving the optimum exceeds it
            are abandoned and None is returned.
        lower: a proven lower bound on the minimum cover size.  The search
            stops at the first cover of that size.  A value above the true
            minimum may return a cover that is not minimum.

    Returns:
        Sorted tuple of cover vertices, or None if every cover is larger
        than ``max_size``.

    Raises:
        ValueError: ``n`` is not a non-negative integer, or an edge names a
            vertex outside 0..n-1.

    The search runs on per-vertex neighbour bitmasks and a mask of the
    self-loops.  A node first peels degree-1 vertices, the lowest index
    first, putting each one's neighbour in the cover; the degree-1 set is
    kept as a bitmask updated from the removed vertex's neighbours, so a
    peel costs that vertex's degree.  With none left it branches on a
    maximum-degree vertex v (lowest index on ties), exploring "v in cover"
    before "all neighbours of v in cover"; a greedy maximal matching
    provides the lower bound.  The result is the first minimum cover in
    this depth-first order, the same with any budget, any valid ``lower``
    and either form of ``edges``.
    """
    try:
        if operator.index(n) < 0:
            raise TypeError
    except TypeError:
        raise ValueError(f"n must be a non-negative integer number of vertices, got {n!r}") from None
    if isinstance(edges, _Graph):
        graph = edges
    else:
        graph = _Graph(n)
        try:
            graph.add(edges)
        except (IndexError, TypeError, ValueError):  # a vertex >= n, < 0 or not an int
            raise ValueError(f"edges must be pairs of vertices in 0..{n - 1}") from None
    adj, forced = graph.adj, graph.forced
    if len(adj) != n or forced >> n:  # a self-loop on a vertex >= n
        raise ValueError(f"edges must be pairs of vertices in 0..{n - 1}")
    base = forced.bit_count()
    if max_size is not None and base > max_size:
        return None
    # forced vertices never enter ``alive``, and every degree is read
    # within ``alive``, so their bits in ``adj`` are never seen
    alive = sum(compress(_bits(n), adj)) & ~forced  # the vertices with an edge

    # exclusive upper bound on the non-forced part of the cover, and the
    # size at which a found cover is proven minimum
    best = (max_size - base + 1) if max_size is not None else (n + 1)
    goal = lower - base
    best_cover = None
    # a node is (alive, cover, size, touched): ``alive`` holds the vertices
    # with an edge left, ``touched`` those whose degree changed since the
    # parent's branching, which happens only when no vertex has degree 1
    stack = [(alive, 0, 0, alive)]
    while stack:
        alive, cover, size, touched = stack.pop()
        if size >= best:
            continue
        deg1 = 0
        while touched:
            x = touched & -touched
            touched ^= x
            d = (adj[x.bit_length() - 1] & alive).bit_count()
            if d == 1:
                deg1 |= x
            elif not d:
                alive ^= x
        while deg1:
            w = deg1 & -deg1
            u = adj[w.bit_length() - 1] & alive
            alive ^= w | u
            deg1 &= alive
            cover |= u
            size += 1
            if size >= best:
                break
            nb = adj[u.bit_length() - 1] & alive
            while nb:
                x = nb & -nb
                nb ^= x
                d = (adj[x.bit_length() - 1] & alive).bit_count()
                if d == 1:
                    deg1 |= x
                elif not d:
                    alive ^= x
                    deg1 &= alive
        if size >= best:
            continue
        if not alive:
            best = size
            best_cover = cover
            if size <= goal:
                break
            continue
        # one pass: the branching vertex and the matching lower bound
        pick = maxd = lb = used = 0
        mm = alive
        while mm:
            x = mm & -mm
            mm ^= x
            nb = adj[x.bit_length() - 1] & alive
            d = nb.bit_count()
            if d > maxd:
                maxd = d
                pick = x
            if not used & x:
                nb &= ~used
                if nb:
                    used |= x | (nb & -nb)
                    lb += 1
        if size + lb >= best:
            continue
        nb = adj[pick.bit_length() - 1] & alive
        rest = alive & ~nb & ~pick
        touched = 0
        mm = nb
        while mm:
            x = mm & -mm
            mm ^= x
            touched |= adj[x.bit_length() - 1]
        stack.append((rest, cover | nb, size + nb.bit_count(), touched & rest))
        stack.append((alive ^ pick, cover | pick, size + 1, nb))

    if best_cover is None:
        return None
    mask = best_cover | forced
    out = []
    while mask:
        x = mask & -mask
        mask ^= x
        out.append(x.bit_length() - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# the exclusion-tolerant distance


def _check_symmetric_pair(a, b, tol):
    a, b = as_symmetric_grid(a, tol, "first matrix"), as_symmetric_grid(b, tol, "second matrix")
    if b.shape != a.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def _gaps(a_list, b_list, perm, pairs, at_least=None):
    """The gap of each pair (t, k), t <= k, in ``pairs``, of A against B
    aligned by ``perm``; given ``at_least``, the bitmask graph
    (:class:`_Graph`) on all ``len(a_list)`` points of the pairs whose gap
    is at least it.

    This is the one gap rule: the pair {t, k} with t <= k has gap
    |a_kt - b_perm[k]perm[t]|, read in the lower triangle, the diagonal
    included, so the upper triangle of a grid asymmetric within tol is
    never read.  The graph form, which a decision needs, reads each gap
    once and keeps none.
    """
    if at_least is None:
        return [abs(a_list[k][t] - b_list[perm[k]][perm[t]]) for t, k in pairs]
    graph = _Graph(len(a_list))
    adj = graph.adj
    for t, k in pairs:
        if abs(a_list[k][t] - b_list[perm[k]][perm[t]]) >= at_least:
            if t == k:
                graph.forced |= 1 << t
            else:
                adj[t] |= 1 << k
                adj[k] |= 1 << t
    return graph


def _lower(n):
    """The pairs (t, k), t <= k < n, row by row."""
    return [(t, k) for k in range(n) for t in range(k + 1)]


@lru_cache(maxsize=32)
def _prefix(rows):
    """:func:`_lower` of ``rows``, kept for the exact walk, which asks a
    decision at every prefix of at most its size limit."""
    return tuple(_lower(rows))


def _aligned_pairs(a_list, b_list, perm):
    """Every gap pair (t, k, gap) of A against B aligned by ``perm``, t <= k,
    row by row, the gaps by :func:`_gaps`."""
    pairs = _lower(len(a_list))
    return [(t, k, g) for (t, k), g in zip(pairs, _gaps(a_list, b_list, perm, pairs))]


def _aligned_scan(a_list, b_list, perm):
    """:func:`_aligned_pairs`, with the value and cover :func:`_scan_pairs`
    finds for them."""
    pairs = _aligned_pairs(a_list, b_list, perm)
    return (pairs, *_scan_pairs(pairs, len(a_list)))


def _scan_pairs(pairs, denom, tally=None):
    """Minimise max(threshold, cover_size/denom) over gap thresholds.

    ``pairs`` lists (t, k, gap) for t <= k, row by row as
    :func:`_aligned_pairs` builds them, so the last pair has the largest k.
    Thresholds run over the distinct positive gaps in decreasing order
    plus 0; at threshold t the pairs with gap > t must be covered.  The
    largest gap, which needs no cover, seeds the incumbent.  Pairs come in
    decreasing gap order, so one bitmask graph (:class:`_Graph`) grows by
    each threshold's new pairs and every cover reads it as it stands.
    Since edges only grow, each cover starts from the last one's size as a
    proven lower bound, and is budgeted at the largest cover whose share
    is below the incumbent (:func:`_share_budget`).  Returns the minimum
    and an optimal cover; a ``tally`` list is set to [thresholds, cover
    calls].
    """
    nverts = pairs[-1][1] + 1 if pairs else 0
    pos = [p for p in pairs if p[2] > 0.0]
    pos.sort(key=operator.itemgetter(2), reverse=True)  # stable: ties stay in row order
    thresholds = sorted({p[2] for p in pos}, reverse=True)
    thresholds.append(0.0)

    inc, best_cover = thresholds[0], ()
    graph = _Graph(nverts)
    adj = graph.adj
    k = 0  # prefix of pos already in ``graph``
    low = calls = 0  # low: the last cover's size, which bounds the next
    for t in thresholds[1:]:
        while k < len(pos) and pos[k][2] > t:  # as _Graph.add, inlined for tiny scans
            i, j, _ = pos[k]
            if i == j:
                graph.forced |= 1 << i
            else:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
        calls += 1
        cover = min_vertex_cover(nverts, graph, max_size=_share_budget(inc, denom), lower=low)
        if cover is None:
            break  # covers only grow as t shrinks
        low = len(cover)
        share = len(cover) / denom
        val = max(t, share)
        if val < inc:
            inc = val
            best_cover = cover
        if share >= inc:
            break
    if tally is not None:
        tally[:] = len(thresholds), calls
    return inc, best_cover


def _share_budget(inc, denom):
    """The largest m <= denom whose share m / denom is below ``inc``, by
    the float division and comparison the scan makes; -1 when there is
    none.  ``denom`` is positive."""
    if inc > 1.0:
        return denom
    # the rounded product and the rounded shares each move the answer by at
    # most one from ceil(denom * inc) - 1
    m = math.ceil(denom * inc) - 1
    if (m + 1) / denom < inc:
        return m + 1
    if m / denom >= inc:
        return m - 1
    return m


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
    n = a.shape[0]
    pairs = _aligned_pairs(a.tolist(), b.tolist(), range(n))
    tally = [0, 0]
    value, cover = _scan_pairs(pairs, n, tally)
    log.debug("dm scan: n = %d, %d thresholds, %d cover calls", n, *tally)
    return _witness(pairs, value, cover)


# ---------------------------------------------------------------------------
# permutation quotient


def _twin_prev(b_list):
    """For each row j of B, the largest i < j whose transposition with j
    fixes B (relabelling B by it gives B back), or -1.

    Fixing B is an equivalence (a conjugate of a fixing transposition fixes
    B too), so twins form classes and ``prev`` chains each class upwards.
    The transposition of i and j fixes B when row i with entries i and j
    swapped equals row j, and column i with them swapped equals column j.
    """
    n = len(b_list)
    cols = [list(c) for c in zip(*b_list)]

    def swapped(v, i, j):
        v = list(v)
        v[i], v[j] = v[j], v[i]
        return v

    prev = [-1] * n
    for j in range(n):
        for i in range(j - 1, -1, -1):
            if swapped(b_list[i], i, j) == b_list[j] and swapped(cols[i], i, j) == cols[j]:
                prev[j] = i
                break
    return prev


def _alignments(m, prev, fits):
    """Every injective map of A's m rows into B's ``len(prev)`` rows whose
    every prefix fits, in lex order.

    Row k of A tries the rows of B in increasing order, and only the lowest
    unused row of each twin class (``prev`` from :func:`_twin_prev`; all -1
    tries every row).  A prefix is extended only when ``fits(perm, k + 1)``
    holds, ``perm[:k + 1]`` being the prefix; a full map is yielded as the
    walk's own list, which the walk goes on changing.  ``fits`` is asked
    afresh at each prefix, so what it answers may change between yields.
    The walk is iterative, so m is not bounded by the recursion limit.
    """
    n = len(prev)
    perm = [-1] * m
    used = [False] * n
    k = j = 0  # row k of A tries rows j, j + 1, ... of B
    while k >= 0:
        if k == m:
            yield perm
            j = n
        if j == n:  # row k fits nowhere further: move row k - 1 on
            k -= 1
            if k >= 0:
                j = perm[k]
                used[j] = False
                j += 1
            continue
        if not used[j] and (prev[j] < 0 or used[prev[j]]):
            perm[k] = j
            if fits(perm, k + 1):
                used[j] = True
                k, j = k + 1, 0
                continue
        j += 1


def _check_exact_limit(n: int, limit: int = DPI_EXACT_LIMIT) -> None:
    """Raise :class:`SizeLimitError` when n exceeds the exact search's limit."""
    if n > limit:
        raise SizeLimitError(f"exact permutation search limited to n <= {limit}, got {n}")


def _dpi_exact(a_list, b_list):
    """Exact permutation search over grids given as nested lists, which the
    caller has checked finite and symmetric within tol.

    The search is the walk of :func:`_alignments`.  A prefix's dm bounds
    every completion's from below, so a prefix fits when there is no
    incumbent yet or its dm is below the incumbent, which :func:`_below`
    decides with one budgeted vertex cover.  Each full alignment that fits
    is scanned by :func:`_scan_pairs` for the new incumbent and its cover,
    so the incumbent only falls and the first optimum in lex order is kept;
    the search stops at an incumbent of 0, which nothing is below.  Twins
    give equal gaps, and the lex-smallest optimum places each twin class in
    increasing order, so the walk's twin rule moves no witness.
    """
    n = len(a_list)
    if not n:
        return PiWitness(0.0, (), DmWitness(0.0, (), 0.0), exact=True)
    best, budget = math.inf, None  # budget is set with the first incumbent
    nodes = decisions = scans = 0

    def fits(perm, rows):
        nonlocal nodes, decisions
        nodes += 1
        if budget is None:  # every dm is below inf
            return True
        decisions += 1
        return _below(a_list, b_list, perm, rows, best, budget)

    for perm in _alignments(n, _twin_prev(b_list), fits):
        scans += 1
        pairs, best, cover = _aligned_scan(a_list, b_list, perm)
        best_perm, best_witness = tuple(perm), _witness(pairs, best, cover)
        if not best:  # no dm is below 0
            break
        budget = _share_budget(best, n)
    log.debug(
        "dpi exact: n = %d, %d nodes, %d decision calls, %d leaves scanned",
        n, nodes, decisions, scans,
    )
    return PiWitness(value=float(best), permutation=best_perm, inner=best_witness, exact=True)


def _below(a_list, b_list, perm, rows, value, budget) -> bool:
    """Whether the dm of the first ``rows`` rows of A against B aligned by
    ``perm``, over all ``len(a_list)`` points, is below ``value``
    (positive), given ``budget`` = :func:`_share_budget` of it.

    The scan's value is min over thresholds t of max(t, cover share), and
    covers shrink as t grows, so it is below ``value`` exactly when the
    pairs at or above ``value`` (those above the largest threshold below
    it) have a cover of at most ``budget`` vertices: one budgeted cover of
    their bitmask graph, built by :func:`_gaps`.
    """
    graph = _gaps(a_list, b_list, perm, _prefix(rows), value)
    return min_vertex_cover(len(a_list), graph, max_size=budget) is not None


def _dpi_heuristic(a, b):
    """Upper bound on dpi: rows paired by sorted row sums, then 2-swap
    local search until a pass accepts no swap.

    A swap is accepted when its dm is below the current value, decided by
    one budgeted cover as in :func:`_below` (no decision call is made once
    the value is 0), and only an accepted swap is scanned in full.  The
    bitmask graph of the pairs at or above the current value is kept for
    the current alignment: a trial swap of rows i and j changes only the
    pairs that touch i or j, so it resets those two rows and columns from
    :func:`_gaps` and restores the graph on reject.  An accepted swap moves
    the value, so the graph is rebuilt.  Logs one debug line with the
    passes, swaps and decision calls.
    """
    n = a.shape[0]
    a_list = a.tolist()
    b_list = b.tolist()
    order_a = np.argsort(a.sum(axis=1), kind="stable")
    order_b = np.argsort(b.sum(axis=1), kind="stable")
    perm = [0] * n
    for ra, rb in zip(order_a, order_b):
        perm[int(ra)] = int(rb)

    cur = _aligned_scan(a_list, b_list, perm)
    budget = _share_budget(cur[1], n) if n else -1
    lower = _lower(n)
    graph = _gaps(a_list, b_list, perm, lower, cur[1])
    touching = [[(min(t, k), max(t, k)) for t in range(n)] for k in range(n)]  # the pairs {t, k}
    passes = tested = accepted = decisions = 0
    improved = True
    while improved:
        improved = False
        passes += 1
        for i in range(n):
            for j in range(i + 1, n):
                tested += 1
                if budget < 0:  # cur is 0, and no value is below it
                    continue
                perm[i], perm[j] = perm[j], perm[i]
                kept, forced = graph.adj[:], graph.forced
                for k in (i, j):
                    graph.set_row(k, _gaps(a_list, b_list, perm, touching[k]), cur[1])
                decisions += 1
                if min_vertex_cover(n, graph, max_size=budget) is not None:
                    cur = _aligned_scan(a_list, b_list, perm)
                    budget = _share_budget(cur[1], n)
                    graph = _gaps(a_list, b_list, perm, lower, cur[1])
                    accepted += 1
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
                    graph.adj, graph.forced = kept, forced
    log.debug(
        "dpi heuristic: n = %d, %d passes, %d swaps tested, %d accepted, %d decision calls",
        n, passes, tested, accepted, decisions,
    )
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
    pruning (a partial alignment is abandoned once the dm of its aligned
    rows, which bounds every completion's, is not below the incumbent) and
    is limited to ``exact_limit`` points.  It also prunes twins (rows of B
    whose swap leaves B unchanged): each depth tries only the lowest unused
    row of a twin class, so twins are aligned in one order only.  Heuristic mode
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


def _sample_orbits(keys):
    """For each row of an int array (the dm grid's joint cells), the first
    row whose sorted entries equal its own: sorting relabels draws.  This
    is a first-member map: ``first[i] <= i`` is the first row of i's
    orbit."""
    srt = np.sort(keys, axis=1)
    rows = srt.view(np.dtype((np.void, srt.shape[1] * srt.itemsize))).ravel().tolist()
    first: dict = {}
    return [first.setdefault(r, p) for p, r in enumerate(rows)]


def _cross_grid(ens_x, ens_y, quotients, tol: float):
    """One grid per entry of ``quotients``: exact dpi (True; the caller
    checks the size limit) or dm (False) of every atom of the ensemble
    ``ens_x`` against every atom of ``ens_y``, all of one size,
    bit-identical to per-pair :func:`dpi_distance` or :func:`dm_distance`
    calls.

    Each side is checked (ValueError when a grid is non-finite or asymmetric
    beyond tol) and converted to nested lists once, before any distance.  A
    dm cell builds no witness, and a dpi cell keeps only the ``.value`` of
    :func:`_dpi_exact`.  Each grid is one pass over a first-member map of
    the atom pairs (pair (i, j) is ``i * ny + j``): the first pair of an
    orbit gets a distance, and every other pair copies it.  dpi is invariant
    under relabelling either grid, so its map is ``cx[i] * ny + cy[j]`` of
    the two sides' relabelling classes (:attr:`core.MatrixEnsemble.classes`).
    dm is invariant only under relabelling both grids by one permutation:
    pair (i, j) draws the joint cells ``t_i * k_y + u_j`` of the two sample
    tuples (:attr:`core.MatrixEnsemble.tuples`; k_y above every entry of
    ``u``), and pairs whose sorted cells are equal (:func:`_sample_orbits`)
    are one joint relabelling of each other.  Both maps relabel full grids
    exactly, and the gap rule reads the lower triangle, so without both
    records, or when some grid is not exactly symmetric, every pair is its
    own orbit.
    """
    sides = [as_symmetric_grid([m.entries for m in e.matrices()], tol, "ensemble atom") for e in (ens_x, ens_y)]
    (nx, rows_x), (ny, rows_y) = ((len(g), g.tolist()) for g in sides)
    symmetric = all(np.array_equal(g, g.swapaxes(1, 2)) for g in sides)

    def grid(quotient):
        rx, ry = ((e.classes if quotient else e.tuples) for e in (ens_x, ens_y))
        if rx is None or ry is None or not symmetric:
            orbit, path = range(nx * ny), f"{nx * ny} pairs, each {'solved' if quotient else 'scanned'}"
        elif quotient:
            orbit = (rx[:, None] * ny + ry).ravel().tolist()
            kx, ky = (np.count_nonzero(r == np.arange(r.size)) for r in (rx, ry))
            path = f"{kx} x {ky} classes, {kx * ky} class-pair dpi calls"
        else:
            cells = (rx[:, None, :] * (int(ry.max()) + 1) + ry[None, :, :]).reshape(nx * ny, -1)
            orbit = _sample_orbits(cells)
            path = f"{len(set(orbit))} joint orbits"
        log.debug("%s grid: %d x %d atoms -> %s", "dpi" if quotient else "dm", nx, ny, path)
        values = []
        for p, o in enumerate(orbit):
            if o == p:
                a, b = rows_x[p // ny], rows_y[p % ny]
                values.append(_dpi_exact(a, b).value if quotient else _aligned_scan(a, b, range(len(a)))[1])
            else:
                values.append(values[o])
        return np.array(values).reshape(nx, ny)

    return [grid(q) for q in quotients]
