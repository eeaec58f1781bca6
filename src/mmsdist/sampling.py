"""Model spaces, i.i.d. sampling of empirical spaces and exact enumeration
of matrix ensembles.

Randomness contract: all draws come from the counter-based Philox
generator, keyed as (seed, stream), each an integer in [0, 2**64).
Identical (space, N, seed, stream) yields bit-identical output, and
per-trial streams reproduce serial runs when trials are distributed across
workers.  A check's trial t draws from stream t (:func:`trial_streams`).
"""

from __future__ import annotations

import logging
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetError,
    DEFAULT_TOL,
    DistanceMatrix,
    FiniteMMS,
    MatrixEnsemble,
    as_point_cloud,
    as_prob_vector,
    check_tol,
)

__all__ = [
    "ModelSpace",
    "rng_stream",
    "trial_streams",
    "empirical_space",
    "sample_indices",
    "sample_counts",
    "enumerate_matrix_ensemble",
]

log = logging.getLogger("mmsdist")


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair, each an integer
    in [0, 2**64)."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not (isinstance(value, (int, np.integer)) and 0 <= int(value) < 2**64):
            raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """The streams of ``trials`` trials: for each t in ``range(trials)``, a
    generator in exactly the state ``rng_stream(seed, t)`` starts in.

    The seed is checked here, not at the first trial.  The yielded
    generator is the same object each time, re-keyed from a fresh state
    (never from the used one, whose buffered draws would leak into the next
    trial), and is valid only until the next one is taken.  A Philox
    stream's whole state is its key and a zero counter, so re-keying
    reaches each stream's start; building a generator per trial would cost
    more, as numpy's constructor also gathers OS entropy for a seed
    sequence that the key overrides."""
    rng = rng_stream(seed)
    fresh = rng.bit_generator.state

    def walk():
        for t in range(trials):
            fresh["state"]["key"][1] = t
            rng.bit_generator.state = fresh
            yield rng

    return walk()


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
        # NaN fails this too, and so does an int beyond the float range
        if not 0 < circumference <= sys.float_info.max:
            raise ValueError(f"circumference must be positive and finite, got {circumference}")
        return ModelSpace(kind="circle", circumference=float(circumference))

    @staticmethod
    def interval() -> "ModelSpace":
        return ModelSpace(kind="interval")

    @staticmethod
    def euclidean_points(coords, mass=None, tol: float = DEFAULT_TOL) -> "ModelSpace":
        """Weighted point cloud (rows are points; 1-D coordinates are one
        column); the weights, uniform by default, must be a probability
        vector within ``tol``, as :class:`FiniteMMS` masses are."""
        check_tol(tol)
        c = as_point_cloud(coords)
        m = np.full(len(c), 1.0 / len(c)) if mass is None else as_prob_vector(mass, tol, "weights")
        if m.shape != (len(c),):
            raise ValueError(f"{m.size} weights for {len(c)} points")
        return ModelSpace(kind="euclideanPoints", coords=c, weights=m)

    def atom_space(self, tol: float = DEFAULT_TOL) -> FiniteMMS:
        """The underlying finite space, for the finitely supported kinds."""
        if self.kind == "finite":
            return self.space
        if self.kind == "euclideanPoints":
            return FiniteMMS(
                labels=tuple(f"p{i}" for i in range(self.coords.shape[0])),
                dist=DistanceMatrix.from_points(self.coords),
                mass=self.weights,
                coords=self.coords,
                tol=tol,
            )
        raise ValueError(f"model space of kind {self.kind!r} has no finite atom set")


def sample_indices(mass, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n atom indices from a discrete mass vector (cdf inversion).

    ``mass`` must be a probability vector already checked by
    :func:`core.as_prob_vector`, as every mass of a :class:`FiniteMMS` or a
    :class:`ModelSpace` is: this checks nothing, so a NaN, negative or
    unnormalised mass gives meaningless indices, not an error."""
    cum = np.cumsum(np.asarray(mass, dtype=float))
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, cum.size - 1)


def sample_counts(mass, n: int, rng: np.random.Generator) -> np.ndarray:
    """How many of n draws from a discrete mass vector fall on each atom:
    ``np.bincount(sample_indices(mass, n, rng), minlength=len(mass))`` bit
    for bit, from the same n uniforms, leaving ``rng`` in the same state.

    The draws are sorted once and the cut points between atoms (the
    running maximum of the cumulative masses, so an entry within tol below
    zero is an empty bin) are located among them by one binary search each;
    the last atom takes every draw at or above the last cut, as
    :func:`sample_indices` clamps to it.  That is O(n log n + k log n),
    with no n-long index array.  ``mass`` is checked no more than by
    :func:`sample_indices`."""
    cum = np.cumsum(np.asarray(mass, dtype=float))
    cuts = np.concatenate(([-np.inf], np.maximum.accumulate(cum[:-1]), [np.inf]))
    u = rng.random(n)
    u.sort()
    below = np.searchsorted(u, cuts, side="left")  # the draws below each cut
    return below[1:] - below[:-1]


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
        d = DistanceMatrix.from_points(space.coords[idx]).entries
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
    space: ModelSpace, n: int, budget: int = 10**6, tol: float = DEFAULT_TOL
) -> MatrixEnsemble:
    """Exact distribution of the labelled distance matrix of n i.i.d. draws
    from a finitely supported model space.

    One vectorised pass over all k^n tuples of support points (capped by
    ``budget``): their index array is built arithmetically in lexicographic
    order, every sample matrix is gathered by one fancy index (as small
    integer codes, one per distinct distance by its bytes, so equal codes
    mean equal bytes), each tuple's probability is one product along the
    tuple, and identical matrices merge with their probabilities summed in
    tuple order.  Atom order is first occurrence in tuple order.

    The ensemble carries two records.  :attr:`MatrixEnsemble.tuples` holds
    the atoms' first tuples, as positions among the k support points (an
    atoms x n int array): atom i is the matrix of the support points
    ``tuples[i]``.  :attr:`MatrixEnsemble.classes` is the first-member map
    of the relabelling classes.  Permuting a tuple relabels its matrix
    exactly, and every relabelling of an atom is drawn by a permutation of
    its tuple, so the classes are the connected components of "drawn by
    tuples that sort alike" over all k^n tuples (:func:`_tuple_classes`).
    """
    if n < 1:
        raise ValueError("need at least one sample point")
    base = space.atom_space(tol)
    support = np.flatnonzero(base.mass > 0.0)
    k = support.size
    if k == 0:
        raise ValueError("model space has empty support")
    if k**n > budget:
        raise BudgetError(f"{k}^{n} tuples exceed the budget of {budget}")
    d = base.dist.entries
    seen: dict = {}  # one small code per distinct distance, by its bytes
    codes = [seen.setdefault(v, len(seen)) for v in d.view(np.int64).ravel().tolist()]
    code = np.array(codes, np.min_scalar_type(len(seen) - 1)).reshape(d.shape)
    place = k ** np.arange(n - 1, -1, -1)
    digits = np.arange(k**n)[:, None] // place % k  # row t: the digits of t in base k
    idx = support[digits]  # row t: the points of tuple t
    keys = code[idx[:, :, None], idx[:, None, :]].reshape(k**n, -1)
    keys = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
    probs = base.mass[idx].prod(axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct matrices in order of first occurrence
    atom_of = np.argsort(order)[inverse]  # the atom of every tuple
    first = first[order]  # the first tuple of every atom
    tuples = digits[first]
    classes = _tuple_classes(atom_of, np.sort(digits, axis=1) @ place, first.size)
    mats = d[idx[first, :, None], idx[first, None, :]]
    atoms = tuple(zip(map(DistanceMatrix, mats), np.bincount(atom_of, weights=probs).tolist()))
    ens = MatrixEnsemble(atoms=atoms, tol=tol)
    for name, record in (("tuples", tuples), ("classes", classes)):
        record.setflags(write=False)
        object.__setattr__(ens, name, record)
    log.debug("ensemble: n = %d, %d tuples -> %d atoms", n, k**n, len(atoms))
    return ens


def _tuple_classes(atom_of, sorted_key, size):
    """The first-member map of the components of "drawn by tuples that sort
    alike": tuple t draws atom ``atom_of[t]`` (of ``size``) and sorts to
    the base-k integer ``sorted_key[t]``.  Each pass gives every sorted
    tuple the lowest label of its atoms, then every atom the lowest label
    of its sorted tuples, until no label falls; labels stay within a
    component, so each ends at its lowest atom."""
    first, low = np.arange(size), np.empty(len(atom_of), dtype=int)
    while True:
        low.fill(size)
        np.minimum.at(low, sorted_key, first[atom_of])
        nxt = first.copy()
        np.minimum.at(nxt, atom_of, low[sorted_key])
        if np.array_equal(nxt, first):
            return first
        first = nxt
