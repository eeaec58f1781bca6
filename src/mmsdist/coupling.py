"""Coupling functionals over explicit ground distances.

* the concentration functional of a coupling: the least r such that mass
  >= 1 - r sits on pairs within distance r (non-strict on both sides, per
  the definition it implements),
* the Levy-Prokhorov distance between two discrete measures: the
  Hall/Strassen optimal-coupling value over an explicit ground grid,
* Birkhoff decomposition of doubly stochastic grids,
* maximum bipartite matching under a distance cap.

The integer-mass rule: the Prokhorov flow, the concentration functional
and the greedy net coupling of `ghp` run on Python ints, the masses over
one power-of-two denominator (:func:`_dyadic`, :func:`_same_denominator`).
One breakpoint search (:func:`_breakpoint`) gives all three values,
correctly rounded, and one greedy fill (:func:`_fill`) places every
coupling mass.  Every Prokhorov distance is solved by `_ProkhorovTo.solve`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import DEFAULT_TOL, Coupling, DegenerateSupportError, as_ground_grid, as_prob_vector

__all__ = [
    "ProkhorovResult",
    "BirkhoffDecomposition",
    "EpsMatching",
    "delta_of_coupling",
    "prokhorov_distance",
    "birkhoff_decompose",
    "epsilon_matching",
]

log = logging.getLogger("mmsdist")


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

    The minimum over the distinct pair distances v (and 0) of max(v, share
    of the mass beyond v), found by :func:`_breakpoint` on the masses scaled
    to integers (a mass within ``tol`` below 0 counts as 0): correctly
    rounded, and exactly 0 for a coupling with all its mass at distance 0.
    """
    mass = as_prob_vector(c.mass.ravel(), tol, "coupling mass")
    dist = as_ground_grid(c.ground_dist, tol, "coupling distance grid")
    return _delta(_dyadic(mass)[0], dist.ravel().tolist())


def _delta(masses, dist):
    """delta_of_coupling of flat lists of integer pair masses and distances."""
    at = {}  # distance -> the mass on pairs at that distance
    for x, m in zip(dist, masses):
        if m > 0:  # only levels that gain mass (and 0) can attain the minimum
            at[x] = at.get(x, 0) + m
    levels = sorted(at.keys() | {0.0})
    cum = list(accumulate(at.get(v, 0) for v in levels))
    return min(1.0, _breakpoint(levels, lambda k: cum[-1] - cum[k], cum[-1])[1])


# ---------------------------------------------------------------------------
# max-flow machinery


def _dyadic(x):
    """A float vector as exact Python ints over its largest (power-of-two)
    mass denominator: (ints, denominator)."""
    ratios = [v.as_integer_ratio() for v in np.asarray(x, dtype=float).tolist()]
    one = max((b for _, b in ratios), default=1)
    return [a * (one // b) for a, b in ratios], one


def _same_denominator(P, a, Q, b):
    """Int masses P over denominator a and Q over b, both powers of two,
    restated over max(a, b): (P, Q, max(a, b))."""
    one = max(a, b)
    P = [x * (one // a) for x in P] if a < one else P
    Q = [x * (one // b) for x in Q] if b < one else Q
    return P, Q, one


def _max_mass_within(P, Q, D, level):
    """Maximum coupling mass placeable on pairs with distance <= level.

    Edmonds-Karp on source -> rows -> columns -> sink: capacity P[i] into
    row i, Q[j] out of column j, pairs within ``level`` unbounded, all
    Python ints.  The BFS takes rows, near columns and flow-carrying rows
    in index order, a column's rows before the sink.  Returns the placed
    mass, the r x c flow and the residuals P - flow and Q - flow.

    While a direct path row -> column is left, the BFS augments along the
    first row with residual and its first near column with residual, so
    that first phase is :func:`_fill` over the rows' near columns in order.
    Residuals only fall, so no later path makes a direct one again, and the
    BFS runs only on longer paths: the flow and residuals are those of the
    plain BFS loop.
    """
    r, c = len(P), len(Q)
    near = [[j for j, x in enumerate(row) if x <= level] for row in D]
    flow = [[0] * c for _ in range(r)]
    rres, cres = list(P), list(Q)
    placed = _fill(enumerate(near), rres, cres, flow)
    while True:
        # reached[i]: None unreached, -1 from the source, else the column
        reached = [-1 if x > 0 else None for x in rres]
        fringe = [i for i, x in enumerate(reached) if x == -1]
        via = [-1] * c  # the row that reached each column
        end = -1
        while fringe and end < 0:
            cols = []
            for i in fringe:
                for j in near[i]:
                    if via[j] < 0:
                        via[j] = i
                        cols.append(j)
            fringe = []
            for j in cols:
                if cres[j] > 0:
                    end = j
                    break
                for i in range(r):
                    if reached[i] is None and flow[i][j] > 0:
                        reached[i] = j
                        fringe.append(i)
        if end < 0:
            return placed, flow, rres, cres
        # back from the sink: (row, its forward column, cancelled column or -1)
        path, j = [], end
        while j >= 0:
            i = via[j]
            path.append((i, j, reached[i]))
            j = reached[i]
        start = path[-1][0]
        bottleneck = min(cres[end], rres[start], *(flow[i][k] for i, _, k in path[:-1]))
        cres[end] -= bottleneck
        rres[start] -= bottleneck
        for i, j, k in path:
            flow[i][j] += bottleneck
            if k >= 0:
                flow[i][k] -= bottleneck
        placed += bottleneck


def _fill(rows, rres, cres, mass):
    """Greedy fill: for each (row, columns) in turn, each column takes all
    it can of both residual masses while both are positive, and the row
    stops once it is spent.  Adds to ``mass`` and lowers the residuals in
    place; returns the mass placed."""
    placed = 0
    for i, cols in rows:
        for j in cols:
            if rres[i] <= 0:  # not a truth test: a mass within tol below 0 is a negative int
                break
            if cres[j] > 0:
                take = min(rres[i], cres[j])
                mass[i][j] += take
                rres[i] -= take
                cres[j] -= take
                placed += take
    return placed


def _northwest(rres, cres):
    """Every row in order for :func:`_fill`, from the first column not yet
    spent when its turn comes: the northwest-corner rule in O(r + c) steps."""
    j, c = 0, len(cres)
    for i in range(len(rres)):
        while j < c and cres[j] <= 0:
            j += 1
        yield i, range(j, c)


def _greedy_delta(p, q, pairs, dist):
    """delta_of_coupling over ``dist`` of the coupling of p and q that
    :func:`_fill` builds on their integer masses over one denominator:
    each listed (row, column) pair in turn as a one-column row, then the
    northwest-corner rows for the rest."""
    rres, cres, _ = _same_denominator(*_dyadic(p), *_dyadic(q))
    mass = [[0] * len(cres) for _ in rres]
    _fill(((i, (j,)) for i, j in pairs), rres, cres, mass)
    _fill(_northwest(rres, cres), rres, cres, mass)
    return _delta([x for row in mass for x in row], np.ravel(dist).tolist())


def _first_true(pred, lo: int, hi: int) -> int:
    """Least k in [lo, hi) with pred(k), else hi, for a pred that is false
    up to some index and true from there on.

    Galloping search (Bentley & Yao, Inf. Process. Lett. 5, 1976): probes
    lo, lo + 1, lo + 3, lo + 7, ... (the last capped at hi - 1) until one is
    true, then bisects the gap behind it.  An answer lo + k with
    m = k.bit_length() >= 1 costs at most 2m probes: m + 1 gallop probes
    reach offset 2^m - 1 >= k, and the 2^(m-1) - 1 offsets left between
    the last two take at most m - 1 bisection probes (a cap only shortens
    that gap).  The answer lo costs one probe.  The bound is met at every
    k = 2^j.
    """
    start, off = lo, 0
    while lo < hi:
        k = min(start + off, hi - 1)
        if pred(k):
            hi = k
            break
        lo, off = k + 1, 2 * off + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _breakpoint(levels, unplaced, total):
    """(k, value): the least max(v_k, u_k / total) over the sorted distinct
    levels v_k and the first k attaining it, for integers u_k = unplaced(k)
    that never increase with k.  The levels with u_k <= v_k form a suffix
    from k*, and the minimum sits at k* or at the first level whose u_k
    equals u_(k*-1); galloping search finds both, calling ``unplaced`` once
    each for O(log N) of the N levels.  Levels and shares compare exactly;
    the value is the correctly rounded share or the level (-0.0 read as 0.0).
    """
    known = {}  # level index -> unplaced mass

    def u(k):
        if k not in known:
            known[k] = unplaced(k)
        return known[k]

    def at_most(x, k):  # x / total <= levels[k], exactly
        num, den = levels[k].as_integer_ratio()
        return x * den <= num * total

    def settled(k):
        # u_k is at most the unplaced mass of any known level below k, so
        # one of those may settle it without a call
        below = [i for i in known if i <= k]
        if below and at_most(known[max(below)], k):
            return True
        return at_most(u(k), k)

    pick = kstar = _first_true(settled, 0, len(levels))
    # before k* the value is the unplaced share, which does not increase:
    # its minimum is the share a of level k* - 1 (known, as the search
    # found it unsettled), first reached at a level j found by search, and
    # the first minimum overall when a / total <= v_k*
    if kstar:
        a = u(kstar - 1)
        if kstar == len(levels) or at_most(a, kstar):
            lo = 1 + max((k for k in known if known[k] > a), default=-1)
            hi = min(k for k in known if known[k] <= a)
            pick = _first_true(lambda k: u(k) <= a, lo, hi)
    value = u(pick) / total if pick < kstar else levels[pick]  # u(pick) is known
    return pick, max(0.0, value)


class _ProkhorovTo:
    """Prokhorov distances of many first marginals to one second marginal
    q over one grid: q's checks and integer masses, the grid's checks and
    its sorted distinct levels (with 0) are prepared once.  ``solve``, the
    one entry, gives ``prokhorov_distance(p, q, dist, tol).value`` bit for
    bit as its first item; ``flows`` counts the max-flows solved, one per
    level probed."""

    def __init__(self, q, dist, tol: float = DEFAULT_TOL):
        self.Q, self.one = _dyadic(as_prob_vector(q, tol, "second marginal"))
        self.d = as_ground_grid(dist, tol)
        self._fit(len(self.d))
        self.D = self.d.tolist()
        self.levels = sorted({x for row in self.D for x in row})
        if not self.levels or self.levels[0] > 0.0:
            self.levels.insert(0, 0.0)
        self.flows = 0

    def _fit(self, rows):  # the grid must be rows x (the size of q)
        if self.d.shape != (rows, len(self.Q)):
            raise ValueError(
                f"distance grid shape {self.d.shape} does not match marginals {(rows, len(self.Q))}"
            )

    def solve(self, pv):
        """(value, pick, flows, denominator) for a checked first marginal,
        with both masses as ints over one power-of-two denominator: ``pick``
        indexes the breakpoint level, ``flows`` maps each probed level to
        its [flow, row residuals, column residuals]."""
        self._fit(pv.size)
        P, Q, one = _same_denominator(*_dyadic(pv), self.Q, self.one)
        total = max(sum(P), sum(Q))
        flows = {}

        def unplaced(k):
            placed, *flows[k] = _max_mass_within(P, Q, self.D, self.levels[k])
            return total - placed

        pick, value = _breakpoint(self.levels, unplaced, total)
        self.flows += len(flows)
        return value, pick, flows, one


def prokhorov_distance(
    p,
    q,
    dist,
    tol: float = DEFAULT_TOL,
    exact: bool = False,
) -> ProkhorovResult:
    """Exact Levy-Prokhorov distance between two discrete measures over an
    explicit cross-distance grid.

    At level v a max-flow gives the largest coupling mass placeable on
    pairs within v, and the minimum over the sorted distinct levels v_k of
    max(v_k, unplaced share u_k) is the distance; the first level that
    attains it is the breakpoint.  The galloping search of
    :func:`_breakpoint` finds it, so a call solves O(log N) of its N level
    flows.  The witness coupling is the breakpoint's r x c flow, with its
    row and column residuals spread by northwest-corner filling (that
    leftover mass provably lands on pairs beyond the level).

    No arithmetic rounds: every float mass is a dyadic rational, so scaled
    by the largest mass denominator (one power of two) the masses are
    Python ints and the flow runs on them.  The unplaced mass is taken as a
    share of max(sum p, sum q), so identical measures give exactly 0;
    levels and shares are compared as exact integer cross products, the
    value is the correctly rounded share or the level itself, and the
    witness masses are the correctly rounded quotients flow / denominator.
    ``exact`` is accepted for compatibility and ignored: every call is
    exact.

    The call checks p, prepares q and the grid as :class:`_ProkhorovTo`,
    runs its ``solve`` and builds the witness from the breakpoint's flow.
    """
    pv = as_prob_vector(p, tol, "first marginal")
    to_q = _ProkhorovTo(q, dist, tol)
    value, pick, flows, one = to_q.solve(pv)
    log.debug(
        "prokhorov: %d x %d atoms, %d of %d levels probed, one max-flow each",
        pv.size, len(to_q.Q), len(flows), len(to_q.levels),
    )
    mass, rres, cres = flows[pick]
    _fill(_northwest(rres, cres), rres, cres, mass)
    coupling = Coupling(mass=np.array([[x / one for x in row] for row in mass]), ground_dist=to_q.d)
    # + 0.0 maps a -0.0 level to 0.0, as _breakpoint does for the value
    return ProkhorovResult(value=value, coupling=coupling, breakpoint=to_q.levels[pick] + 0.0)


# ---------------------------------------------------------------------------
# bipartite matching and Birkhoff decomposition


def _row_masks(allowed):
    """Each row of a 2-d bool array as a bitmask, bit v set for column v."""
    packed = np.packbits(allowed, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _max_matching(rows, n_r, before=None, first_row=0):
    """Maximum bipartite matching (Kuhn's augmenting paths) of the rows'
    allowed columns, each row a bitmask with bit v set when it may take
    column v: (number matched, column of each row or -1).

    Scans rows in index order, preferring the lowest free column before
    augmenting through occupied ones, so identical supports match along the
    diagonal.  The augmenting search keeps its own stack, so path length is
    not bounded by the interpreter's recursion limit.

    Row u's search reaches only rows matched before it, so the matching as
    it stood before row u depends on rows 0..u-1 alone.  A list ``before``
    of one slot per row records it, as (mask of matched columns, row of
    each column); a later call with the same list and ``first_row`` = s
    resumes from the matching before row s, and returns what a cold call
    returns as long as rows 0..s-1 have not changed since.
    """
    taken, match_r = before[first_row] if first_row else (0, [-1] * n_r)
    match_r = list(match_r)  # right -> left
    for root in range(first_row, len(rows)):
        if before is not None:
            before[root] = taken, list(match_r)
        seen = 0
        # frames: [left vertex, column that reached it, next column to try]
        stack = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            u, _, start = frame
            cand = rows[u] & ~seen
            if not start:  # first visit: take a free column if there is one
                free = cand & ~taken
                if free:
                    bit = free & -free
                    taken |= bit
                    match_r[bit.bit_length() - 1] = u
                    for k in range(len(stack) - 1, 0, -1):
                        match_r[stack[k][1]] = stack[k - 1][0]
                    break
            cand = cand >> start << start
            if cand:
                bit = cand & -cand
                v = bit.bit_length() - 1
                seen |= bit
                frame[2] = v + 1
                stack.append([match_r[v], v, 0])
            else:
                stack.pop()
    match_l = [-1] * len(rows)
    for v, u in enumerate(match_r):
        if u != -1:
            match_l[u] = v
    return n_r - match_r.count(-1), match_l


def _level_matchings(cross, levels):
    """For each of the increasing ``levels`` in turn, Kuhn's matching among
    the pairs of a checked grid strictly closer than it: (pairs, rows), the
    pairs as (left, right) tuples sorted by left index and ``rows`` the rows
    the search ran.

    The grid is sorted once, and each level ORs the pairs it newly admits
    into the row masks.  Rows only gain columns, so the search resumes at
    the lowest row that gained one (:func:`_max_matching`'s ``before``):
    every level's matching is the one a cold search gives.  A level that
    admits no pair repeats the previous matching without a search.
    """
    n_l, n_r = cross.shape
    flat = cross.ravel()
    order = np.argsort(flat, kind="stable")
    ends = np.searchsorted(flat[order], levels).tolist()  # entries < each level
    left, right = (k.tolist() for k in np.unravel_index(order, cross.shape))
    masks = [0] * n_l
    before = [(0, [-1] * n_r)] * n_l  # read by copy, so one shared empty matching
    pairs, done = (), 0
    for end in ends:
        if end == done:
            yield pairs, 0
            continue
        for k in range(done, end):
            masks[left[k]] |= 1 << right[k]
        first = min(left[done:end])
        _, match_l = _max_matching(masks, n_r, before, first)
        pairs = tuple((i, j) for i, j in enumerate(match_l) if j != -1)
        done = end
        yield pairs, n_l - first


def epsilon_matching(dist_grid, epsilon: float, tol: float = DEFAULT_TOL) -> EpsMatching:
    """Maximum-cardinality matching among pairs at distance < epsilon; the
    grid is checked as a ground grid at ``tol``."""
    if not epsilon > 0:  # NaN fails this too
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    [(pairs, _)] = _level_matchings(as_ground_grid(dist_grid, tol), [epsilon])
    return EpsMatching(pairs=pairs, epsilon=float(epsilon))


_SUPPORT_EPS = 5e-13  # entries at or below this count as zero during peeling


def birkhoff_decompose(s, tol: float = DEFAULT_TOL) -> BirkhoffDecomposition:
    """Write a doubly stochastic grid as a convex combination of permutations.

    Repeatedly finds a perfect matching on the positive support, subtracts
    the minimum matched entry times that permutation and continues until
    the residual vanishes; at most (n-1)^2 + 1 terms are produced and the
    reconstruction reproduces the input to within the peeling threshold.

    Peeling changes only the matched cells, so each matching after the
    first resumes Kuhn's search (:func:`_max_matching`) at the first row
    whose matched cell left the support, from the matching as it stood
    before that row: every term is the one a cold matching gives.  Logs one
    debug line with the size, the terms and the rows the search ran.
    """
    a = np.array(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square grid, got shape {a.shape}")
    as_ground_grid(a, tol, "grid")
    sums = np.concatenate([a.sum(axis=1), a.sum(axis=0)])
    if float(np.abs(sums - 1.0).max(initial=0.0)) > tol:  # the empty grid passes
        raise ValueError("grid is not doubly stochastic within tolerance")
    n = a.shape[0]

    terms = []
    idx = np.arange(n)
    support = _row_masks(a > _SUPPORT_EPS)
    before, first_row, matched = [None] * n, 0, 0
    while n and float(a.max()) > 1e-12:
        count, sigma = _max_matching(support, n, before, first_row)
        matched += n - first_row
        if count < n:
            raise DegenerateSupportError(
                "residual support admits no perfect matching"
            )
        coeff = float(a[idx, sigma].min())
        terms.append((coeff, tuple(sigma)))
        a[idx, sigma] -= coeff
        # the minimum cell is now exactly 0, so some row always loses a cell
        lost = np.flatnonzero(a[idx, sigma] <= _SUPPORT_EPS).tolist()
        for i in lost:
            support[i] &= ~(1 << sigma[i])
        first_row = lost[0]
    if not terms:  # the zero-residual corner case, with the empty permutation at n = 0
        terms.append((1.0, tuple(range(n))))
    log.debug("birkhoff: n = %d, %d terms, %d rows matched", n, len(terms), matched)
    return BirkhoffDecomposition(terms=tuple(terms))
