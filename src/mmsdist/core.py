"""Core value types: distance matrices, finite metric measure spaces,
couplings of discrete measures, and finitely supported matrix ensembles.

Conventions used across the package:

* all indices are 0-based,
* a single comparison tolerance (``DEFAULT_TOL`` unless the caller passes
  its own) resolves every strict-vs-non-strict threshold in the metric
  definitions,
* value types are frozen dataclasses wrapping read-only numpy arrays, so
  instances are immutable after construction and safe to share across
  parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "Violation",
    "ValidationError",
    "GluingError",
    "BudgetError",
    "SizeLimitError",
    "DegenerateSupportError",
    "DistanceMatrix",
    "FiniteMMS",
    "Coupling",
    "MatrixEnsemble",
    "check_distance_matrix",
    "validate_distance_matrix",
    "theta_map",
    "quotient_zero_distances",
]


# ---------------------------------------------------------------------------
# errors


@dataclass(frozen=True)
class Violation:
    """One violated structural constraint, with the offending indices."""

    kind: str  # "non_square" | "non_finite" | "negative" | "asymmetric" | "diagonal" | "triangle"
    indices: tuple
    detail: str

    def describe(self) -> str:
        return f"{self.kind}{self.indices}: {self.detail}"


class ValidationError(ValueError):
    """A matrix or measure failed its structural checks."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        head = "; ".join(v.describe() for v in self.violations[:6])
        tail = "" if len(self.violations) <= 6 else f"; +{len(self.violations) - 6} more"
        super().__init__(f"{len(self.violations)} violation(s): {head}{tail}")


class GluingError(ValueError):
    """The requested gluing is not isometric: it would shorten distances
    inside one of the glued spaces."""


class BudgetError(ValueError):
    """Exact enumeration would exceed the configured budget."""


class SizeLimitError(ValueError):
    """Exact search was requested above the configured size limit."""


class DegenerateSupportError(ValueError):
    """The positive support of a doubly stochastic matrix admits no perfect
    matching (numerical degeneracy beyond tolerance)."""


# ---------------------------------------------------------------------------
# small helpers


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def as_prob_vector(x, tol: float = DEFAULT_TOL, what: str = "mass vector") -> np.ndarray:
    """Validate and return a probability vector (finite, nonnegative, sums
    to 1)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{what} must be 1-dimensional")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} has a non-finite entry")
    if v.size and float(v.min()) < -tol:
        raise ValueError(f"{what} has a negative entry: {float(v.min())}")
    s = float(v.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"{what} sums to {s}, expected 1 within {tol}")
    return v


# ---------------------------------------------------------------------------
# distance matrices


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal satisfying the
    triangle inequality within tolerance.

    The constructor trusts its input; build untrusted data through
    :func:`validate_distance_matrix`.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def take(self, indices) -> "DistanceMatrix":
        """Submatrix on the given point indices (still a distance matrix)."""
        idx = np.asarray(indices, dtype=int)
        return DistanceMatrix(self.entries[np.ix_(idx, idx)])

    def diameter(self) -> float:
        return float(self.entries.max()) if self.n else 0.0

    @staticmethod
    def from_points(coords) -> "DistanceMatrix":
        """Euclidean distance matrix of a point cloud (rows = points)."""
        return DistanceMatrix(_euclidean_grid(coords, coords))


def _euclidean_grid(p, q) -> np.ndarray:
    """Euclidean distances between the rows of two point clouds; 1-D
    coordinates are one column."""
    p, q = (np.asarray(c, dtype=float) for c in (p, q))
    p, q = (c[:, None] if c.ndim == 1 else c for c in (p, q))
    if p.shape[1] != q.shape[1]:
        raise ValueError(f"coordinate dimensions differ: {p.shape[1]} vs {q.shape[1]}")
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def check_distance_matrix(entries, tol: float = DEFAULT_TOL) -> list[Violation]:
    """List every structural violation of the distance-matrix axioms.

    Checks, in order: squareness, finiteness, nonnegativity, symmetry, zero
    diagonal, and the triangle inequality at tolerance ``tol``.  A grid
    with NaN or inf entries reports only those, since comparisons with them
    say nothing about the other axioms.  An empty list means the grid is a
    valid (pseudo-)distance matrix.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return [Violation("non_square", tuple(a.shape), "input grid is not square")]
    n = a.shape[0]
    out: list[Violation] = [
        Violation("non_finite", (int(i), int(j)), f"entry {a[i, j]} is not finite")
        for i, j in zip(*np.where(~np.isfinite(a)))
    ]
    if out:
        return out
    for i, j in zip(*np.where(a < -tol)):
        out.append(Violation("negative", (int(i), int(j)), f"entry {a[i, j]} < 0"))
    asym = np.abs(a - a.T)
    for i, j in zip(*np.where(np.triu(asym, 1) > tol)):
        out.append(
            Violation("asymmetric", (int(i), int(j)), f"{a[i, j]} != {a[j, i]}")
        )
    for i in np.where(np.abs(np.diag(a)) > tol)[0]:
        out.append(Violation("diagonal", (int(i), int(i)), f"diagonal entry {a[i, i]} != 0"))
    for k in range(n):
        bad = a > a[:, k][:, None] + a[k, :][None, :] + tol
        for i, j in zip(*np.where(bad)):
            out.append(
                Violation(
                    "triangle",
                    (int(i), int(j), int(k)),
                    f"d({i},{j})={a[i, j]} > d({i},{k})+d({k},{j})={a[i, k] + a[k, j]}",
                )
            )
    return out


def validate_distance_matrix(entries, tol: float = DEFAULT_TOL) -> DistanceMatrix:
    """Validate a square grid and wrap it as a :class:`DistanceMatrix`.

    Raises :class:`ValidationError` carrying the full violation list when
    any axiom fails.
    """
    violations = check_distance_matrix(entries, tol)
    if violations:
        raise ValidationError(violations)
    return DistanceMatrix(np.asarray(entries, dtype=float))


# ---------------------------------------------------------------------------
# finite metric measure spaces


@dataclass(frozen=True, eq=False)
class FiniteMMS:
    """A finite (pseudo-)metric measure space: labelled points, a distance
    matrix over them and a probability mass vector.

    Zero distances between distinct points are allowed (pseudo-metric), and
    so are zero masses; comparisons in the Prokhorov style are insensitive
    to zero-mass points.  ``coords`` optionally records an ambient Euclidean
    realisation (used by the net-based bounds when present).
    """

    labels: tuple
    dist: DistanceMatrix
    mass: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "mass", _readonly(self.mass))
        if len(self.labels) != self.dist.n or self.mass.shape != (self.dist.n,):
            raise ValueError(
                f"inconsistent sizes: {len(self.labels)} labels, "
                f"{self.dist.n}x{self.dist.n} matrix, {self.mass.shape[0]} masses"
            )
        as_prob_vector(self.mass, DEFAULT_TOL, "mass vector")
        if self.coords is not None:
            c = _readonly(self.coords)
            if c.shape[0] != self.dist.n:
                raise ValueError("coords row count does not match point count")
            object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.dist.n


def theta_map(a: DistanceMatrix) -> FiniteMMS:
    """Uniform metric measure space on the rows of a distance matrix.

    Every singleton gets mass 1/n; labels are ``p0..p{n-1}``.
    """
    n = a.n
    return FiniteMMS(
        labels=tuple(f"p{i}" for i in range(n)),
        dist=a,
        mass=np.full(n, 1.0 / n),
    )


def quotient_zero_distances(space: FiniteMMS, tol: float = DEFAULT_TOL) -> FiniteMMS:
    """Merge points at mutual distance <= tol, summing masses (pushforward).

    Identification uses the transitive closure of the <= tol relation, so
    the result is a genuine metric space: distinct surviving points are at
    distance > tol.  Each merged class keeps the label of its lowest-index
    member.
    """
    n = space.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    d = space.dist.entries
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    reps = sorted({find(i) for i in range(n)})
    rep_pos = {r: k for k, r in enumerate(reps)}
    mass = np.zeros(len(reps))
    for i in range(n):
        mass[rep_pos[find(i)]] += space.mass[i]
    return FiniteMMS(
        labels=tuple(space.labels[r] for r in reps),
        dist=space.dist.take(reps),
        mass=mass,
        coords=None if space.coords is None else space.coords[reps],
    )


# ---------------------------------------------------------------------------
# couplings


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint mass on the product of two finite supports, together with the
    pairwise ground distances of the ambient space.

    ``mass[i, j]`` is the weight placed on the pair (left point i, right
    point j); ``ground_dist[i, j]`` is their distance in the common space.
    """

    mass: np.ndarray
    ground_dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _readonly(self.mass))
        object.__setattr__(self, "ground_dist", _readonly(self.ground_dist))
        if self.mass.shape != self.ground_dist.shape or self.mass.ndim != 2:
            raise ValueError(
                f"mass {self.mass.shape} and ground_dist {self.ground_dist.shape} "
                "must be 2-d grids of equal shape"
            )

    @property
    def rows(self) -> int:
        return self.mass.shape[0]

    @property
    def cols(self) -> int:
        return self.mass.shape[1]

    def row_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def total(self) -> float:
        return float(self.mass.sum())

    def check_marginals(self, p, q, tol: float = DEFAULT_TOL) -> None:
        """Raise if the marginals differ from the supplied vectors beyond tol."""
        gap_r = float(np.abs(self.row_marginal() - np.asarray(p, float)).max())
        gap_c = float(np.abs(self.col_marginal() - np.asarray(q, float)).max())
        if max(gap_r, gap_c) > tol:
            raise ValueError(
                f"coupling marginals off by {max(gap_r, gap_c)} (> {tol})"
            )


# ---------------------------------------------------------------------------
# matrix ensembles


@dataclass(frozen=True, eq=False)
class MatrixEnsemble:
    """Finitely supported distribution over distance matrices of one size."""

    atoms: tuple  # of (DistanceMatrix, probability)

    def __post_init__(self):
        atoms = tuple((m, float(p)) for m, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("ensemble needs at least one atom")
        n = atoms[0][0].n
        if any(m.n != n for m, _ in atoms):
            raise ValueError("ensemble atoms must share one dimension")
        as_prob_vector([p for _, p in atoms], what="atom probability vector")

    @property
    def n(self) -> int:
        return self.atoms[0][0].n

    @property
    def size(self) -> int:
        return len(self.atoms)

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    def matrices(self) -> list[DistanceMatrix]:
        return [m for m, _ in self.atoms]
