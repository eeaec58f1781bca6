"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: exhaustive
enumeration over exclusion subsets and permutations, feasibility bisection
over linear programs, direct recursion for matchings and covers, exact
rational scans over every level, and a dm that solves every threshold.
The searches that faster library code replaced are kept here too, as the
references their replacements must match byte for byte.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def _subset_tensors(n):
    """Boolean (2^n, n, n) pair masks and (2^n,) sizes of exclusion subsets."""
    masks = np.arange(1 << n)
    outside = ~((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    pairmask = outside[:, :, None] & outside[:, None, :]
    sizes = n - outside.sum(axis=1)
    return pairmask, sizes


def dm_bruteforce(a, b):
    """min over all exclusion subsets of max(|subset|/n, worst gap outside)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n = a.shape[0]
    gaps = np.abs(a - b)
    gaps = np.maximum(gaps, gaps.T)
    pairmask, sizes = _subset_tensors(n)
    worst = np.where(pairmask, gaps[None], -np.inf).max(axis=(1, 2))
    return float(np.maximum(worst, sizes / n).min())


def dpi_bruteforce(a, b):
    """min of the subset oracle over all simultaneous row/column permutations."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n = a.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    bp = b[perms[:, :, None], perms[:, None, :]]
    gaps = np.abs(a[None] - bp)
    gaps = np.maximum(gaps, gaps.transpose(0, 2, 1))
    pairmask, sizes = _subset_tensors(n)
    worst = np.where(pairmask[None], gaps[:, None], -np.inf).max(axis=(2, 3))
    vals = np.maximum(worst, (sizes / n)[None])
    return float(vals.min())


def prokhorov_lp_oracle(p, q, d, iters=60):
    """Feasibility bisection: the least r whose level-r transport LP can
    place mass >= 1 - r on pairs within r."""
    from scipy.optimize import linprog

    p = np.asarray(p, float)
    q = np.asarray(q, float)
    d = np.asarray(d, float)
    r, c = d.shape
    a_eq = np.zeros((r + c, r * c))
    for i in range(r):
        a_eq[i, i * c : (i + 1) * c] = 1.0
    for j in range(c):
        a_eq[r + j, j::c] = 1.0
    b_eq = np.concatenate([p, q])

    def max_mass(level):
        cost = -(d <= level).astype(float).ravel()
        res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert res.status == 0, res.message
        return -res.fun

    def feasible(level):
        return max_mass(level) >= 1.0 - level - 1e-12

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def delta_fraction_oracle(mass, dist):
    """Least r >= 0 with mass >= 1 - r on pairs within r, in exact
    rationals: the minimum over every pair distance v (and 0) of
    max(v, share of the mass total on pairs beyond v), at most 1, rounded
    once to a float."""
    m = [Fraction(x) for x in np.ravel(np.asarray(mass, dtype=object)).tolist()]
    d = [Fraction(x) for x in np.ravel(dist).tolist()]
    total = sum(m)
    best = Fraction(1)
    for v in set(d) | {Fraction(0)}:
        beyond = sum(x for x, e in zip(m, d) if e > v)
        best = min(best, max(v, beyond / total))
    return float(best)


def matching_bruteforce(allowed):
    """Maximum bipartite matching size by exhaustive recursion."""
    allowed = np.asarray(allowed, bool)
    n_l, n_r = allowed.shape
    best = 0

    def rec(i, used, cnt):
        nonlocal best
        if cnt > best:
            best = cnt
        if i == n_l or cnt + (n_l - i) <= best:
            return
        rec(i + 1, used, cnt)
        for j in range(n_r):
            if allowed[i, j] and not used >> j & 1:
                rec(i + 1, used | (1 << j), cnt + 1)

    rec(0, 0, 0)
    return best


def mvc_bruteforce(n, edges):
    """Minimum vertex cover size over all 2^n subsets."""
    best = None
    for mask in range(1 << n):
        if all((mask >> i & 1) or (mask >> j & 1) for i, j in edges):
            sz = mask.bit_count()
            if best is None or sz < best:
                best = sz
    return best


# The recursive branch and bound that ``matmetric.min_vertex_cover`` replaced,
# kept verbatim as its reference: the same tree in the same order, so both
# return the same first minimum cover.
def min_vertex_cover_recursive(n: int, edges, max_size: int | None = None):
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


def dm_every_threshold(a_list, b_list, perm):
    """dm of A against B aligned by ``perm``, as a DmWitness, by solving
    every gap threshold (largest first) with no budget and no early stop.

    The gap of {t, k}, t <= k, is |a_kt - b_perm[k]perm[t]|; at threshold t
    the pairs with gap > t are covered by the recursive kernel.  The witness
    takes the cover of the first threshold that attains the minimum.
    """
    from mmsdist import DmWitness

    n = len(a_list)
    if not n:
        return DmWitness(0.0, (), 0.0)
    pairs = [(t, k, abs(a_list[k][t] - b_list[perm[k]][perm[t]])) for k in range(n) for t in range(k + 1)]
    value, cover = math.inf, ()
    for level in sorted({g for _, _, g in pairs if g > 0.0} | {0.0}, reverse=True):
        c = min_vertex_cover_recursive(n, [(t, k) for t, k, g in pairs if g > level])
        if max(level, len(c) / n) < value:
            value, cover = max(level, len(c) / n), c
    resid = max((g for t, k, g in pairs if t not in cover and k not in cover), default=0.0)
    return DmWitness(float(value), cover, float(resid))


def dpi_heuristic_rescan(a, b):
    """The 2-swap heuristic that rescans every trial swap in full, kept as
    the reference for ``dpi_distance(..., mode="heuristic")``.

    Rows are seeded by sorted row sums; passes over the swaps (i, j),
    i < j, in order keep a swap only when its dm is strictly below the
    current one, until a pass keeps none.
    """
    from mmsdist import PiWitness

    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n = a.shape[0]
    a_list, b_list = a.tolist(), b.tolist()
    perm = [0] * n
    for ra, rb in zip(np.argsort(a.sum(axis=1), kind="stable"), np.argsort(b.sum(axis=1), kind="stable")):
        perm[int(ra)] = int(rb)
    cur = dm_every_threshold(a_list, b_list, perm)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                perm[i], perm[j] = perm[j], perm[i]
                trial = dm_every_threshold(a_list, b_list, perm)
                if trial.value < cur.value:
                    cur = trial
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
    return PiWitness(cur.value, tuple(perm), cur, exact=False)


# The threshold scan that ``matmetric._scan_pairs`` replaced, kept verbatim
# as its reference: it scans every threshold from the top, guards against
# thresholds at or above the incumbent and caches the cover budget.  It
# shares the vertex cover and the budget rule with the library, whose first
# minimum cover the witnesses must match, but none of the scan.
def scan_pairs(pairs, denom):
    """Minimise max(threshold, cover_size/denom) over gap thresholds.

    ``pairs`` lists (t, k, gap) for t <= k, row by row as
    :func:`_aligned_pairs` builds them, so the last pair has the largest k.
    Thresholds run over the distinct positive gaps in decreasing order
    plus 0; at threshold t the pairs with gap > t must be covered.
    Returns the minimum and an optimal cover.
    """
    from mmsdist.matmetric import _share_budget, min_vertex_cover

    if not pairs:
        return 0.0, ()  # no points
    nverts = pairs[-1][1] + 1
    pos = [(g, i, j) for (i, j, g) in pairs if g > 0.0]
    pos.sort(key=lambda t: -t[0])
    thresholds = []
    for g, _, _ in pos:
        if not thresholds or g < thresholds[-1]:
            thresholds.append(g)
    thresholds.append(0.0)

    inc = math.inf
    ms, ms_inc = None, inc  # the largest cover size whose share is below ms_inc
    best_cover: tuple = ()
    edges: list = []
    k = 0  # prefix of pos already in `edges`
    low = 0  # the last cover's size: edges only grow, so it bounds the next
    for t in thresholds:
        while k < len(pos) and pos[k][0] > t:
            edges.append((pos[k][1], pos[k][2]))
            k += 1
        if t >= inc:
            continue
        if not edges:
            cover: tuple | None = ()
        else:
            if ms_inc != inc:  # computed only for a call that needs it
                ms, ms_inc = _share_budget(inc, denom), inc
            cover = min_vertex_cover(nverts, edges, max_size=ms, lower=low)
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
    return inc, best_cover


# The exact search that ``matmetric._dpi_exact`` replaced, kept as its
# reference: the same lex-order tree, but every memo node holds its prefix's
# full threshold scan instead of one decision against the incumbent.
def dpi_exact_scan(a, b):
    """Exact dpi of two grids by a depth-first search that scans each
    distinct gap prefix in full.

    Aligning row k of A to row j of B adds the k + 1 gap pairs of row k;
    the node for that step is keyed by their gap tuple under its parent and
    holds ``(value, cover, children)`` from one threshold scan of the whole
    prefix.  A node whose value is not below the incumbent is pruned; at
    depth n - 1 the value is the dm of the full alignment, and its cover is
    the witness's exclusion set.  Each depth tries only the lowest unused
    row of a class of twins of B.
    """
    from mmsdist import DmWitness, PiWitness
    from mmsdist.matmetric import _gaps, _twin_prev, _witness

    a_list = np.asarray(a, float).tolist()
    b_list = np.asarray(b, float).tolist()
    n = len(a_list)
    if not n:
        return PiWitness(0.0, (), DmWitness(0.0, (), 0.0), exact=True)
    perm = [-1] * n
    used = [False] * n
    prev = _twin_prev(b_list)
    best_value, best_perm, best_witness = math.inf, None, None
    pairs: list = []
    levels = [{}] + [None] * (n - 1)
    k = j = 0
    while True:
        if j == n:
            k -= 1
            if k < 0:
                break
            j = perm[k]
            used[j] = False
            del pairs[-(k + 1) :]
            j += 1
            continue
        if used[j] or (prev[j] >= 0 and not used[prev[j]]):
            j += 1
            continue
        perm[k] = j
        row = [(t, k) for t in range(k + 1)]
        chunk = [(t, k, g) for (t, k), g in zip(row, _gaps(a_list, b_list, perm, row))]
        pairs.extend(chunk)
        key = tuple(g for _, _, g in chunk)
        node = levels[k].get(key)
        if node is None:
            node = levels[k][key] = (*scan_pairs(pairs, n), {})
        value, cover, sub = node
        if value < best_value:
            if k == n - 1:
                best_value, best_perm, best_witness = value, tuple(perm), _witness(pairs, value, cover)
            else:
                used[j] = True
                levels[k + 1] = sub
                k, j = k + 1, 0
                continue
        del pairs[-(k + 1) :]
        j += 1
    return PiWitness(value=float(best_value), permutation=best_perm, inner=best_witness, exact=True)


def embeddings_bruteforce(y, x, tol):
    """All distance-preserving injections, by scanning every arrangement."""
    dy = y.dist.entries
    dx = x.dist.entries
    out = []
    for arr in itertools.permutations(range(x.n), y.n):
        if all(
            abs(dy[i, j] - dx[arr[i], arr[j]]) <= tol
            for i in range(y.n)
            for j in range(y.n)
        ):
            out.append(tuple(arr))
    return sorted(out)


def max_mass_within_bfs(P, Q, D, level):
    """The bipartite Edmonds-Karp that the greedy first sweep now starts:
    a BFS for every augmenting path, direct ones included; returns what
    `coupling._max_mass_within` returns."""
    r, c = len(P), len(Q)
    near = [[j for j, x in enumerate(row) if x <= level] for row in D]
    flow = [[0] * c for _ in range(r)]
    rres, cres = list(P), list(Q)
    placed = 0
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


def northwest_fill(rres, cres, mass):
    """Deterministically spread residual marginals into `mass` (in place):
    the northwest-corner rule as a two-pointer walk, the reference for
    `coupling._fill` over `coupling._northwest` rows."""
    i = j = 0
    r, c = len(rres), len(cres)
    while i < r and j < c:
        if rres[i] <= 0:
            i += 1
            continue
        if cres[j] <= 0:
            j += 1
            continue
        take = min(rres[i], cres[j])
        mass[i][j] += take
        rres[i] -= take
        cres[j] -= take

def max_matching_cold(allowed):
    """Kuhn's matching from scratch, rows in index order and free columns
    first: (number matched, column of each row or -1)."""
    n_l, n_r = allowed.shape
    rows = allowed.tolist()
    match_r = [-1] * n_r  # right -> left

    def augment(root):
        seen = [False] * n_r
        # frames: [left vertex, column that reached it, next column to try]
        stack = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            u, _, start = frame
            row = rows[u]
            if start == 0:  # first visit: take a free column if there is one
                for v in range(n_r):
                    if row[v] and match_r[v] == -1 and not seen[v]:
                        seen[v] = True
                        match_r[v] = u
                        for k in range(len(stack) - 1, 0, -1):
                            match_r[stack[k][1]] = stack[k - 1][0]
                        return True
            for v in range(start, n_r):
                if row[v] and not seen[v]:
                    seen[v] = True
                    frame[2] = v + 1
                    stack.append([match_r[v], v, 0])
                    break
            else:
                stack.pop()
        return False

    count = 0
    for u in range(n_l):
        if augment(u):
            count += 1
    match_l = [-1] * n_l
    for v, u in enumerate(match_r):
        if u != -1:
            match_l[u] = v
    return count, match_l


def birkhoff_cold(s):
    """Birkhoff peeling with a cold matching for every term, on an already
    checked doubly stochastic grid: the terms tuple."""
    from mmsdist.coupling import _SUPPORT_EPS

    a = np.array(s, dtype=float)
    n = a.shape[0]
    if not n:
        return ((1.0, ()),)
    terms = []
    idx = np.arange(n)
    while float(a.max()) > 1e-12:
        count, match_l = max_matching_cold(a > _SUPPORT_EPS)
        assert count == n, "residual support admits no perfect matching"
        sigma = np.array(match_l)
        coeff = float(a[idx, sigma].min())
        terms.append((coeff, tuple(int(v) for v in sigma)))
        a[idx, sigma] -= coeff
    if not terms:
        terms.append((1.0, tuple(range(n))))
    return tuple(terms)


def net_bound_cold(x, y, tol: float = 1e-9):
    """The net strategy's bound with one cold matching per eps level, over
    the spaces' coordinates: the GhpBound."""
    from mmsdist.core import _euclidean_grid
    from mmsdist.coupling import _greedy_delta
    from mmsdist.ghp import _glue, _optimal_bound

    cross = _euclidean_grid(x.coords, y.coords)
    cross = np.where(cross < 0.0, 0.0, cross)
    values = set(cross.ravel().tolist())
    levels = sorted(v for v in values if v > 0)
    if not levels or min(values) == levels[-1]:
        levels = [math.inf]
    best, seen = None, set()
    for eps in levels:
        _, match_l = max_matching_cold(cross < eps)
        pairs = tuple((i, j) for i, j in enumerate(match_l) if j != -1)
        if not pairs or pairs in seen:
            continue
        seen.add(pairs)
        glued = _glue(x, y, [(i, j, float(cross[i, j])) for i, j in pairs], tol)
        val = _greedy_delta(x.mass, y.mass, pairs, glued.cross)
        if best is None or val < best[0]:
            best = (val, glued)
    return _optimal_bound(x, y, best[1], tol, "net")


def twin_prev_all(b_list):
    """The twin chains of the exact dpi search, each transposition (i, j)
    tested entry by entry: the diagonal and the (i, j) cell, then rows and
    columns i and j at every other index."""
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


def enumerate_matrix_ensemble_loop(space, n: int, budget: int = 10**6, tol: float = 1e-9):
    """The per-tuple enumeration that the vectorised pass replaced: one
    index array, gather and product per tuple, merged in a dict by matrix
    bytes in tuple order."""
    from mmsdist.core import BudgetError, DistanceMatrix, MatrixEnsemble

    if n < 1:
        raise ValueError("need at least one sample point")
    base = space.atom_space(tol)
    support = [i for i in range(base.n) if base.mass[i] > 0.0]
    k = len(support)
    if k == 0:
        raise ValueError("model space has empty support")
    if k**n > budget:
        raise BudgetError(f"{k}^{n} tuples exceed the budget of {budget}")
    d = base.dist.entries
    masses = base.mass
    acc: dict = {}
    order: list = []
    for tup in itertools.product(support, repeat=n):
        idx = np.array(tup)
        m = d[np.ix_(idx, idx)]
        prob = float(np.prod(masses[idx]))
        key = m.tobytes()
        if key in acc:
            acc[key][1] += prob
        else:
            acc[key] = [m, prob]
            order.append(key)
    atoms = tuple((DistanceMatrix(acc[key][0]), acc[key][1]) for key in order)
    return MatrixEnsemble(atoms=atoms, tol=tol)
