"""Model spaces, i.i.d. sampling of empirical spaces, exact enumeration of
matrix ensembles, epsilon-nets and hat spaces.

Randomness contract: all draws come from the counter-based Philox
generator, keyed as (seed, stream).  Identical (space, N, seed, stream)
yields bit-identical output, and per-trial streams reproduce serial runs
when trials are distributed across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetError,
    Coupling,
    DEFAULT_TOL,
    DistanceMatrix,
    FiniteMMS,
    MatrixEnsemble,
)

__all__ = [
    "ModelSpace",
    "NetPartition",
    "rng_stream",
    "empirical_space",
    "sample_indices",
    "enumerate_matrix_ensemble",
    "epsilon_net_partition",
    "hat_space",
]


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """A sampleable model space.

    Kinds: ``finite`` (an explicit space), ``circle`` (given circumference,
    arc-length metric, uniform measure), ``interval`` (the unit interval
    with uniform measure), ``euclideanPoints`` (a weighted point cloud with
    Euclidean distances).
    """

    kind: str
    space: FiniteMMS | None = None
    circumference: float = 1.0
    coords: np.ndarray | None = None
    weights: np.ndarray | None = None

    @staticmethod
    def finite(space: FiniteMMS) -> "ModelSpace":
        return ModelSpace(kind="finite", space=space)

    @staticmethod
    def circle(circumference: float = 1.0) -> "ModelSpace":
        if circumference <= 0:
            raise ValueError("circumference must be positive")
        return ModelSpace(kind="circle", circumference=float(circumference))

    @staticmethod
    def interval() -> "ModelSpace":
        return ModelSpace(kind="interval")

    @staticmethod
    def euclidean_points(coords, mass=None) -> "ModelSpace":
        c = np.asarray(coords, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        m = np.full(c.shape[0], 1.0 / c.shape[0]) if mass is None else np.asarray(mass, float)
        return ModelSpace(kind="euclideanPoints", coords=c, weights=m)

    def atom_space(self) -> FiniteMMS:
        """The underlying finite space, for the finitely supported kinds."""
        if self.kind == "finite":
            return self.space
        if self.kind == "euclideanPoints":
            return FiniteMMS(
                labels=tuple(f"p{i}" for i in range(self.coords.shape[0])),
                dist=DistanceMatrix.from_points(self.coords),
                mass=self.weights,
                coords=self.coords,
            )
        raise ValueError(f"model space of kind {self.kind!r} has no finite atom set")


def sample_indices(mass, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n atom indices from a discrete mass vector (cdf inversion)."""
    cum = np.cumsum(np.asarray(mass, dtype=float))
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, cum.size - 1)


def empirical_space(space: ModelSpace, n: int, seed: int, stream: int = 0) -> FiniteMMS:
    """Empirical space of n i.i.d. draws: sampled points with the induced
    distances and mass 1/n each.

    Repeated draws are kept as distinct points at distance zero (the result
    is a pseudo-metric space).  Deterministic given (space, n, seed, stream).
    """
    if n < 1:
        raise ValueError("need at least one sample point")
    rng = rng_stream(seed, stream)
    if space.kind == "finite":
        base = space.space
        idx = sample_indices(base.mass, n, rng)
        d = base.dist.entries[np.ix_(idx, idx)]
    elif space.kind == "euclideanPoints":
        idx = sample_indices(space.weights, n, rng)
        pts = space.coords[idx]
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
    elif space.kind == "circle":
        c = space.circumference
        pts = rng.random(n) * c
        gap = np.abs(pts[:, None] - pts[None, :])
        d = np.minimum(gap, c - gap)
    elif space.kind == "interval":
        pts = rng.random(n)
        d = np.abs(pts[:, None] - pts[None, :])
    else:
        raise ValueError(f"unknown model space kind {space.kind!r}")
    return FiniteMMS(
        labels=tuple(f"s{i}" for i in range(n)),
        dist=DistanceMatrix(d),
        mass=np.full(n, 1.0 / n),
    )


def enumerate_matrix_ensemble(
    space: ModelSpace, n: int, budget: int = 10**6
) -> MatrixEnsemble:
    """Exact distribution of the labelled distance matrix of n i.i.d. draws
    from a finitely supported model space.

    Iterates every tuple over the support (k^n of them, capped by
    ``budget``), accumulates the product probabilities and merges identical
    matrices.  Atom order is first occurrence in lexicographic tuple order.
    """
    if n < 1:
        raise ValueError("need at least one sample point")
    base = space.atom_space()
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
    return MatrixEnsemble(atoms=atoms)


@dataclass(frozen=True)
class NetPartition:
    """A finite net with its covering assignment.

    ``centers`` lists the chosen point indices; ``assignment[i]`` is the
    center (point index) of point i, always within epsilon of it.
    """

    centers: tuple
    assignment: tuple
    epsilon: float


def epsilon_net_partition(space: FiniteMMS, epsilon: float) -> NetPartition:
    """Greedy farthest-point net: repeatedly add the lowest-index point at
    distance > epsilon from every chosen center, then assign each point to
    its nearest center (ties to the earliest center)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = space.dist.entries
    n = space.n
    centers: list[int] = []
    dmin = np.full(n, np.inf)
    while True:
        far = np.where(dmin > epsilon)[0]
        if far.size == 0:
            break
        c = int(far[0])
        centers.append(c)
        dmin = np.minimum(dmin, d[:, c])
    to_centers = d[:, centers]
    assignment = tuple(int(centers[j]) for j in np.argmin(to_centers, axis=1))
    return NetPartition(centers=tuple(centers), assignment=assignment, epsilon=float(epsilon))


def hat_space(space: FiniteMMS, net: NetPartition):
    """Collapse a space onto its net centers, pushing the measure forward.

    Returns (hat, witness): the hat space carries mass mu(cell) at each
    center, and the witness coupling, supported on center x cell pairs,
    certifies that the two measures are within the net's epsilon on the
    original space.
    """
    centers = list(net.centers)
    pos = {c: k for k, c in enumerate(centers)}
    mass = np.zeros(len(centers))
    for i, c in enumerate(net.assignment):
        mass[pos[c]] += space.mass[i]
    hat = FiniteMMS(
        labels=tuple(space.labels[c] for c in centers),
        dist=space.dist.take(centers),
        mass=mass,
        coords=None if space.coords is None else space.coords[centers],
    )
    joint = np.zeros((len(centers), space.n))
    for i, c in enumerate(net.assignment):
        joint[pos[c], i] = space.mass[i]
    ground = space.dist.entries[np.ix_(centers, range(space.n))]
    witness = Coupling(mass=joint, ground_dist=ground)
    return hat, witness
