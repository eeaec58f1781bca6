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
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_TOL,
    Coupling,
    DistanceMatrix,
    FiniteMMS,
    GluingError,
    _euclidean_grid,
    theta_map,
)
from .coupling import (
    ProkhorovResult,
    _northwest_fill,
    _scaled_masses,
    delta_of_coupling,
    epsilon_matching,
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
        nl = self.left.n
        nr = self.right.n
        out = np.zeros((nl + nr, nl + nr))
        out[:nl, :nl] = self.left.dist.entries
        out[nl:, nl:] = self.right.dist.entries
        out[:nl, nl:] = self.cross
        out[nl:, :nl] = self.cross.T
        return out

    def full_labels(self) -> tuple:
        return tuple(f"L/{l}" for l in self.left.labels) + tuple(
            f"R/{l}" for l in self.right.labels
        )


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


def _min_plus_closure(w: np.ndarray) -> np.ndarray:
    out = w.copy()
    m = out.shape[0]
    for k in range(m):
        np.minimum(out, out[:, k][:, None] + out[k, :][None, :], out=out)
    return out


def _glue(x: FiniteMMS, y: FiniteMMS, bridges, tol: float) -> GluedSpace:
    bridges = tuple((int(i), int(j), float(t)) for i, j, t in bridges)
    if not bridges:
        raise ValueError("gluing needs at least one bridge")
    nl, nr = x.n, y.n
    dx, dy = x.dist.entries, y.dist.entries
    cross = np.full((nl, nr), np.inf)
    for i, j, t in bridges:
        if t < 0:
            raise ValueError(f"negative bridge length {t}")
        np.minimum(cross, dx[:, i][:, None] + t + dy[j, :][None, :], out=cross)
    w = np.zeros((nl + nr, nl + nr))
    w[:nl, :nl] = dx
    w[nl:, nl:] = dy
    w[:nl, nl:] = cross
    w[nl:, :nl] = cross.T
    closed = _min_plus_closure(w)
    shrink = max(
        float((dx - closed[:nl, :nl]).max()),
        float((dy - closed[nl:, nl:]).max()),
    )
    if shrink > tol:
        raise GluingError(
            f"not isometric: gluing shortens internal distances by {shrink}"
        )
    return GluedSpace(left=x, right=y, cross=closed[:nl, nl:].copy(), bridges=bridges)


def glue_by_relation(x: FiniteMMS, y: FiniteMMS, relation, t: float, tol: float = DEFAULT_TOL) -> GluedSpace:
    """Glue two spaces along a relation of index pairs, all at length t.

    Cross distances start from the one-bridge formula
    min over (i, j) in the relation of d_x(., i) + t + d_y(j, .) and are
    completed by min-plus closure over the union graph; the closure must
    not shorten any internal distance by more than tol, otherwise the
    relation is too distorted for this t and a :class:`GluingError` is
    raised.
    """
    if t < 0:
        raise ValueError("bridge length must be nonnegative")
    rel = tuple(relation)
    if not rel:
        raise ValueError("relation must be nonempty")
    return _glue(x, y, [(i, j, t) for i, j in rel], tol)


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
    t = max(pi.value, tol)
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


def _identify_bound(x: FiniteMMS, y: FiniteMMS, tol: float) -> GhpBound:
    ix = {}
    for i, l in enumerate(x.labels):
        ix.setdefault(l, i)
    pairs = [(ix[l], j) for j, l in enumerate(y.labels) if l in ix]
    if not pairs:
        raise StrategyError("identify strategy needs shared labels")
    for a, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[a:]:
            gap = abs(x.dist.entries[i, i2] - y.dist.entries[j, j2])
            if gap > tol:
                raise StrategyError(
                    f"shared labels are not isometric: gap {gap} on a shared pair"
                )
    glued = _glue(x, y, [(i, j, 0.0) for i, j in pairs], tol)
    res = prokhorov_distance(x.mass, y.mass, glued.cross, tol)
    return GhpBound(
        upper=res.value, lower=0.0, glued=glued, coupling=res.coupling, method="identify"
    )


def _greedy_coupling_on_pairs(p, q, pairs, shape):
    rres, cres, one = _scaled_masses(p, q)
    mass = [[0] * shape[1] for _ in range(shape[0])]
    for i, j in pairs:
        take = min(rres[i], cres[j])
        if take > 0:
            mass[i][j] += take
            rres[i] -= take
            cres[j] -= take
    _northwest_fill(rres, cres, mass)
    return np.array([[x / one for x in row] for row in mass])


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
    cross = np.asarray(cross, dtype=float)
    if cross.shape != (x.n, y.n):
        raise StrategyError(f"cross grid shape {cross.shape} does not match spaces")
    candidates = np.unique(cross)
    candidates = candidates[candidates > 0]
    best = None
    # equal pairs give equal bridges, gluing and value, and the strict <
    # keeps the first, so each distinct matching is glued once
    seen = set()
    for eps in candidates:
        matching = epsilon_matching(cross, float(eps))
        if not matching.pairs or matching.pairs in seen:
            continue
        seen.add(matching.pairs)
        bridges = [(i, j, float(cross[i, j])) for i, j in matching.pairs]
        glued = _glue(x, y, bridges, tol)
        mass = _greedy_coupling_on_pairs(x.mass, y.mass, matching.pairs, (x.n, y.n))
        val = delta_of_coupling(Coupling(mass=mass, ground_dist=glued.cross), tol)
        if best is None or val < best[0]:
            best = (val, glued)
    log.debug("net: %d eps levels, %d distinct matchings glued", len(candidates), len(seen))
    if best is None:
        raise StrategyError("no epsilon level yields a nonempty matching")
    _, glued = best
    res = prokhorov_distance(x.mass, y.mass, glued.cross, tol)
    return GhpBound(
        upper=res.value, lower=0.0, glued=glued, coupling=res.coupling, method="net"
    )


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
      permutation alignment outside its exclusion set and couples matched
      pairs (also fills in the uniform lower bound when the alignment was
      exact).
    * ``identify``: glues shared labels at length 0 (they must carry equal
      distances) and solves the optimal coupling on the glued space.
    * ``net``: scans matching thresholds over an ambient cross-distance
      grid (from ``cross`` or the spaces' coordinates), bridges the best
      matching and solves the optimal coupling.

    Raises :class:`StrategyError` when the strategy does not apply.
    """
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
    strategies=STRATEGIES,
    tol: float = DEFAULT_TOL,
    exact_limit: int = DPI_EXACT_LIMIT,
    cross=None,
) -> GhpBound:
    """Smallest upper bound over the applicable strategies."""
    best = None
    for s in strategies:
        try:
            b = ghp_upper_bound(x, y, s, tol=tol, exact_limit=exact_limit, cross=cross)
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
    permutation-quotient distance.  Upper bound: the smaller of that
    distance and the permutation strategy's bound, whose gluing and
    coupling are the witness.  Requires the exact search, hence
    n <= exact_limit.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    pi = dpi_distance(a.entries, b.entries, mode="exact", exact_limit=exact_limit, tol=tol)
    best = _permutation_bound(theta_map(a), theta_map(b), tol, exact_limit, pi=pi)
    return replace(best, upper=min(pi.value, best.upper))
