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

from dataclasses import InitVar, dataclass, field
from typing import Iterable

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
# small helpers and the input checks: one per kind of object, each taking
# the caller's tol and raising ValueError that names the argument (``what``)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is finite and >= 0 (every comparison
    with a NaN tol is false, which turns a check off)."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _check_entries(a: np.ndarray, what: str, tol: float | None = None) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry (NaN or inf)")
    if tol is not None and a.size and float(a.min()) < -tol:
        raise ValueError(f"{what} has a negative entry: {float(a.min())}")


def as_prob_vector(x, tol: float = DEFAULT_TOL, what: str = "mass vector") -> np.ndarray:
    """A probability vector: 1-d, finite, none below -tol, summing to 1 within tol."""
    check_tol(tol)
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{what} must be 1-dimensional")
    _check_entries(v, what, tol)
    s = float(v.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"{what} sums to {s}, expected 1 within {tol}")
    return v


def as_ground_grid(d, tol: float = DEFAULT_TOL, what: str = "distance grid") -> np.ndarray:
    """A grid of distances or masses: 2-d, finite, no entry below -tol."""
    check_tol(tol)
    a = np.asarray(d, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d {what}, got shape {a.shape}")
    _check_entries(a, what, tol)
    return a


def as_symmetric_grid(m, tol: float = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Square grids (one, or a stack along axis 0): finite, each symmetric within tol."""
    check_tol(tol)
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{what} is not square: shape {a.shape}")
    _check_entries(a, what)
    if a.size and float(np.abs(a - np.swapaxes(a, -1, -2)).max()) > tol:
        raise ValueError(f"{what} is not symmetric within {tol}")
    return a


def as_point_cloud(coords, what: str = "point cloud") -> np.ndarray:
    """Points as the rows of a 2-d array (1-d is one column): at least one, all finite."""
    c = np.asarray(coords, dtype=float)
    if not (c.ndim in (1, 2) and c.size and np.isfinite(c).all()):
        raise ValueError(f"{what} needs points with finite coordinates")
    return c[:, None] if c.ndim == 1 else c


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

    def diameter(self) -> float:
        return float(self.entries.max()) if self.n else 0.0

    @staticmethod
    def from_points(coords) -> "DistanceMatrix":
        """Euclidean distance matrix of a point cloud, read by
        :func:`as_point_cloud` (rows = points)."""
        return DistanceMatrix(_euclidean_grid(coords, coords))


def _euclidean_grid(p, q) -> np.ndarray:
    """Euclidean distances between the rows of two point clouds, each read
    by :func:`as_point_cloud`."""
    p, q = (as_point_cloud(c, "coords") for c in (p, q))
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
    valid (pseudo-)distance matrix.  A tol that is not finite and >= 0
    raises ValueError.
    """
    check_tol(tol)
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
    realisation (a point cloud, used by the net-based bounds when present).
    ``tol`` is the tolerance of the mass check; it is not stored.
    """

    labels: tuple
    dist: DistanceMatrix
    mass: np.ndarray
    coords: np.ndarray | None = None
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "mass", _readonly(self.mass))
        if len(self.labels) != self.dist.n or self.mass.shape != (self.dist.n,):
            raise ValueError(
                f"inconsistent sizes: {len(self.labels)} labels, "
                f"{self.dist.n}x{self.dist.n} matrix, masses of shape {self.mass.shape}"
            )
        as_prob_vector(self.mass, tol, "mass vector")
        if self.coords is not None:
            c = _readonly(self.coords)
            if c.ndim == 0 or c.shape[0] != self.dist.n:
                raise ValueError("coords row count does not match point count")
            as_point_cloud(c, "coords")
            object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.dist.n


def theta_map(a: DistanceMatrix) -> FiniteMMS:
    """Uniform metric measure space on the rows of a distance matrix.

    Every singleton gets mass 1/n; labels are ``p0..p{n-1}``.  A matrix
    with no rows has no uniform measure and raises ValueError.
    """
    n = a.n
    if not n:
        raise ValueError("uniform space needs at least one point")
    return FiniteMMS(
        labels=tuple(f"p{i}" for i in range(n)),
        dist=a,
        mass=np.full(n, 1.0 / n),
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

    def row_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def check_marginals(self, p, q, tol: float = DEFAULT_TOL) -> None:
        """Raise if the marginals differ from the supplied vectors beyond tol
        (a NaN differs from everything), or if p is not 1-d of the row count
        or q not 1-d of the column count."""
        check_tol(tol)
        for what, got, want in (("first", self.row_marginal(), p), ("second", self.col_marginal(), q)):
            want = np.asarray(want, dtype=float)
            if want.shape != got.shape:
                raise ValueError(f"{what} marginal has shape {want.shape}, expected {got.shape}")
            gap = float(np.abs(got - want).max(initial=0.0))
            if not gap <= tol:  # NaN fails this too
                raise ValueError(f"coupling {what} marginal off by {gap} (> {tol})")


# ---------------------------------------------------------------------------
# matrix ensembles


@dataclass(frozen=True, eq=False)
class MatrixEnsemble:
    """Finitely supported distribution over distance matrices of one size.

    An ensemble from :func:`sampling.enumerate_matrix_ensemble` also carries
    two records.  ``tuples[i]`` is atom i's first sample tuple, as positions
    among the space's support points (a read-only atoms x n int array), so
    atom i is the matrix of those points.  ``classes`` is the first-member
    map of the relabelling classes (a read-only int array): ``classes[i]``
    is the lowest atom whose matrix relabels atom i's exactly, byte for
    byte.  A hand-built ensemble has ``tuples = classes = None``.
    """

    atoms: tuple  # of (DistanceMatrix, probability)
    tol: InitVar[float] = DEFAULT_TOL  # of the probability check; not stored
    tuples: np.ndarray | None = field(default=None, init=False, repr=False)
    classes: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, tol):
        atoms = tuple((m, float(p)) for m, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("ensemble needs at least one atom")
        n = atoms[0][0].n
        if any(m.n != n for m, _ in atoms):
            raise ValueError("ensemble atoms must share one dimension")
        as_prob_vector([p for _, p in atoms], tol, "atom probability vector")

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
