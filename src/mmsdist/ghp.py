"""Gromov-Hausdorff-Prokhorov bounds for finite metric measure spaces.

Upper bounds come from explicit witnesses: a gluing of the two spaces (a
pseudo-metric on the disjoint union extending both metrics, seeded by
bridge edges and completed by min-plus closure) together with a coupling of
the two measures; the bound is the concentration functional of that
coupling under the glued distances.  The only certified lower bound is the
uniform-mass case, where half the permutation-quotient matrix distance
bounds the space distance from below.

Exact computation of the space distance for general masses is not
attempted; the joint optimisation over gluings and couplings is a hard
bilinear problem, and the sandwich above is all the downstream checks need.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Coupling,
    DistanceMatrix,
    FiniteMMS,
    GluingError,
    _euclidean_grid,
    as_ground_grid,
    check_tol,
    theta_map,
)
from .coupling import (
    _greedy_delta,
    _level_matchings,
    delta_of_coupling,
    prokhorov_distance,
)
from .matmetric import DPI_EXACT_LIMIT, PiWitness, dpi_distance

__all__ = [
    "GluedSpace",
    "GhpBound",
    "StrategyError",
    "glue_by_relation",
    "ghp_upper_bound",
    "best_ghp_upper_bound",
    "ghp_bounds_uniform",
    "STRATEGIES",
]

STRATEGIES = ("permutation", "identify", "net")

log = logging.getLogger("mmsdist")


class StrategyError(ValueError):
    """The requested bounding strategy does not apply to these spaces."""


@dataclass(frozen=True, eq=False)
class GluedSpace:
    """Pseudo-metric on the disjoint union of two spaces extending both.

    ``cross[i, j]`` is the glued distance between left point i and right
    point j; ``bridges`` records the seed edges (i, j, length).  The
    restrictions to either side equal the original matrices exactly.
    """

    left: FiniteMMS
    right: FiniteMMS
    cross: np.ndarray
    bridges: tuple

    def full_matrix(self) -> np.ndarray:
        return _union(self.left.dist.entries, self.right.dist.entries, self.cross)


@dataclass(frozen=True, eq=False)
class GhpBound:
    """Certified bracket for the space distance.

    ``upper`` is realised by the witness (gluing, coupling); ``lower`` is
    nonzero only when the uniform sandwich applies.
    """

    upper: float
    lower: float
    glued: GluedSpace
    coupling: Coupling
    method: str


# ---------------------------------------------------------------------------
# gluing


def _union(dx: np.ndarray, dy: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """The grid on the disjoint union: both sides on the diagonal, the
    cross distances and their transpose off it."""
    return np.block([[dx, cross], [cross.T, dy]])


def _min_plus_closure(w: np.ndarray) -> np.ndarray:
    out = w.copy()
    m = out.shape[0]
    for k in range(m):
        np.minimum(out, out[:, k][:, None] + out[k, :][None, :], out=out)
    return out


def _glue(x: FiniteMMS, y: FiniteMMS, bridges, tol: float) -> GluedSpace:
    nl, nr = x.n, y.n
    dx, dy = x.dist.entries, y.dist.entries
    cross = np.full((nl, nr), np.inf)
    checked = []
    for i, j, t in bridges:
        # a fractional index names no point: it is outside both spaces
        if not (float(i).is_integer() and float(j).is_integer() and 0 <= i < nl and 0 <= j < nr):
            raise ValueError(f"bridge ({i}, {j}) is outside the {nl} x {nr} spaces")
        i, j, t = int(i), int(j), float(t)
        if not 0 <= t < np.inf:  # NaN fails this too
            raise ValueError(f"bridge length {t} is not finite and nonnegative")
        np.minimum(cross, dx[:, i][:, None] + t + dy[j, :][None, :], out=cross)
        checked.append((i, j, t))
    if not checked:
        raise ValueError("gluing needs at least one bridge")
    closed = _min_plus_closure(_union(dx, dy, cross))
    shrink = max(
        float((dx - closed[:nl, :nl]).max()),
        float((dy - closed[nl:, nl:]).max()),
    )
    if shrink > tol:
        raise GluingError(
            f"not isometric: gluing shortens internal distances by {shrink}"
        )
    return GluedSpace(left=x, right=y, cross=closed[:nl, nl:].copy(), bridges=tuple(checked))


def glue_by_relation(x: FiniteMMS, y: FiniteMMS, relation, t: float, tol: float = DEFAULT_TOL) -> GluedSpace:
    """Glue two spaces along a relation of index pairs, all at length t.

    Cross distances start from the one-bridge formula
    min over (i, j) in the relation of d_x(., i) + t + d_y(j, .) and are
    completed by min-plus closure over the union graph; the closure must
    not shorten any internal distance by more than tol, otherwise the
    relation is too distorted for this t and a :class:`GluingError` is
    raised.  An empty relation, an index that is not an integer or lies
    outside either space, or a t that is negative, NaN or infinite raises
    ValueError, and so does a tol that is not finite and >= 0.
    """
    check_tol(tol)
    return _glue(x, y, [(i, j, t) for i, j in relation], tol)


# ---------------------------------------------------------------------------
# upper-bound strategies


def _uniform(mass: np.ndarray, tol: float) -> bool:
    n = mass.size
    return bool(np.abs(mass - 1.0 / n).max() <= tol)


def _permutation_bound(
    x: FiniteMMS, y: FiniteMMS, tol: float, exact_limit: int, pi: PiWitness | None = None
) -> GhpBound:
    n = x.n
    if y.n != n:
        raise StrategyError("permutation strategy needs equal point counts")
    if not (_uniform(x.mass, tol) and _uniform(y.mass, tol)):
        raise StrategyError("permutation strategy needs uniform masses")
    if pi is None:
        mode = "exact" if n <= exact_limit else "heuristic"
        pi = dpi_distance(x.dist.entries, y.dist.entries, mode=mode, exact_limit=exact_limit, tol=tol)
    keep = [i for i in range(n) if i not in set(pi.inner.excluded)]
    t = pi.value
    if keep:
        bridges = [(i, pi.permutation[i], t) for i in keep]
    else:
        # everything excluded: bridge all matched pairs at half the worst gap
        a = x.dist.entries
        b = y.dist.entries[np.ix_(pi.permutation, pi.permutation)]
        t = max(float(np.abs(a - b).max()) / 2.0, tol)
        bridges = [(i, pi.permutation[i], t) for i in range(n)]
    glued = _glue(x, y, bridges, tol)
    mass = np.zeros((n, n))
    for i in range(n):
        mass[i, pi.permutation[i]] = x.mass[i]
    witness = Coupling(mass=mass, ground_dist=glued.cross)
    upper = delta_of_coupling(witness, tol)
    lower = pi.value / 2.0 if pi.exact else 0.0
    return GhpBound(upper=upper, lower=lower, glued=glued, coupling=witness, method="permutation")


def _optimal_bound(x: FiniteMMS, y: FiniteMMS, glued: GluedSpace, tol: float, method: str) -> GhpBound:
    """The bound of the optimal coupling of the two masses on a gluing."""
    res = prokhorov_distance(x.mass, y.mass, glued.cross, tol)
    return GhpBound(upper=res.value, lower=0.0, glued=glued, coupling=res.coupling, method=method)


def _identify_bound(x: FiniteMMS, y: FiniteMMS, tol: float) -> GhpBound:
    ix = {}
    for i, l in enumerate(x.labels):
        ix.setdefault(l, i)
    pairs = [(ix[l], j) for j, l in enumerate(y.labels) if l in ix]
    if not pairs:
        raise StrategyError("identify strategy needs shared labels")
    # a shared pair whose distances differ by g shrinks by g through its
    # two zero-length bridges, so _glue rejects non-isometric labels
    glued = _glue(x, y, [(i, j, 0.0) for i, j in pairs], tol)
    return _optimal_bound(x, y, glued, tol, "identify")


def _net_bound(x: FiniteMMS, y: FiniteMMS, tol: float, cross=None) -> GhpBound:
    if cross is None:
        if x.coords is None or y.coords is None:
            raise StrategyError(
                "net strategy needs an ambient cross-distance grid or coordinates"
            )
        try:
            cross = _euclidean_grid(x.coords, y.coords)
        except ValueError as exc:
            raise StrategyError(str(exc)) from None
    if np.shape(cross) != (x.n, y.n):
        raise StrategyError(f"cross grid shape {np.shape(cross)} does not match spaces")
    # checked once; an entry within tol below 0 reads as 0
    cross = as_ground_grid(cross, tol, "cross grid")
    cross = np.where(cross < 0.0, 0.0, cross)
    # sorted distinct positive entries (np.unique would import numpy.ma);
    # when none of them admits a pair (the match is strict, so the largest
    # admits all but the pairs at it), one level that admits every pair
    values = set(cross.ravel().tolist())
    candidates = sorted(v for v in values if v > 0)
    if not candidates or min(values) == candidates[-1]:
        candidates = [math.inf]
    best = None
    # equal pairs give equal bridges, gluing and value, and the strict <
    # keeps the first, so each distinct matching is glued once
    seen = set()
    searched = 0  # rows Kuhn's search ran, over all levels
    for pairs, rows in _level_matchings(cross, candidates):
        searched += rows
        if not pairs or pairs in seen:
            continue
        seen.add(pairs)
        bridges = [(i, j, float(cross[i, j])) for i, j in pairs]
        glued = _glue(x, y, bridges, tol)
        val = _greedy_delta(x.mass, y.mass, pairs, glued.cross)
        if best is None or val < best[0]:
            best = (val, glued)
    log.debug(
        "net: %d eps levels, %d distinct matchings glued, %d rows matched",
        len(candidates), len(seen), searched,
    )
    if best is None:
        raise StrategyError("no epsilon level yields a nonempty matching")
    return _optimal_bound(x, y, best[1], tol, "net")


def ghp_upper_bound(
    x: FiniteMMS,
    y: FiniteMMS,
    strategy: str = "permutation",
    tol: float = DEFAULT_TOL,
    exact_limit: int = DPI_EXACT_LIMIT,
    cross=None,
) -> GhpBound:
    """Certified upper bound on the space distance via one strategy.

    * ``permutation``: equal sizes, uniform masses; bridges the best
      permutation alignment outside its exclusion set at the dpi value and
      couples matched pairs (also fills in the uniform lower bound when the
      alignment was exact).
    * ``identify``: glues shared labels at length 0 and solves the
      optimal coupling on the glued space; shared labels whose distances
      differ by more than tol raise :class:`GluingError`, as the gluing
      would shorten one side.
    * ``net``: scans matching thresholds over an ambient cross-distance
      grid (from ``cross`` or the spaces' coordinates), glues each distinct
      matching once, scores it by the greedy coupling of
      :func:`coupling._greedy_delta`, and solves the optimal coupling on
      the best gluing.  When no positive level admits a pair, one level
      admitting every pair is used.

    Every value is exact and correctly rounded, and identical spaces give
    exactly 0 under every strategy.

    Raises :class:`StrategyError` when the strategy does not apply,
    :class:`GluingError` when its gluing is not isometric, and ValueError
    for a tol that is not finite and >= 0.
    """
    check_tol(tol)
    if strategy == "permutation":
        return _permutation_bound(x, y, tol, exact_limit)
    if strategy == "identify":
        return _identify_bound(x, y, tol)
    if strategy == "net":
        return _net_bound(x, y, tol, cross)
    raise ValueError(f"unknown strategy {strategy!r}")


def best_ghp_upper_bound(
    x: FiniteMMS,
    y: FiniteMMS,
    tol: float = DEFAULT_TOL,
    exact_limit: int = DPI_EXACT_LIMIT,
) -> GhpBound:
    """Smallest upper bound over the applicable strategies."""
    best = None
    for s in STRATEGIES:
        try:
            b = ghp_upper_bound(x, y, s, tol=tol, exact_limit=exact_limit)
        except (StrategyError, GluingError):
            continue
        if best is None or b.upper < best.upper:
            best = b
    if best is None:
        raise StrategyError("no strategy applies to these spaces")
    return best


def ghp_bounds_uniform(
    a: DistanceMatrix,
    b: DistanceMatrix,
    tol: float = DEFAULT_TOL,
    exact_limit: int = DPI_EXACT_LIMIT,
) -> GhpBound:
    """Two-sided bounds for the uniform spaces on two distance matrices.

    One exact permutation search gives both sides.  Lower bound: half the
    permutation-quotient distance.  Upper bound: the permutation strategy's
    bound, whose gluing and coupling are the witness; it is at most that
    distance, as the bridges sit at it and only the excluded share of the
    mass is coupled beyond it.  Requires the exact search, hence
    n <= exact_limit.
    """
    pi = dpi_distance(a.entries, b.entries, mode="exact", exact_limit=exact_limit, tol=tol)
    return _permutation_bound(theta_map(a), theta_map(b), tol, exact_limit, pi=pi)
