"""Relative entropy between finite metric measure spaces: Kullback-Leibler
divergence minimised over exhaustively enumerated isometric embeddings,
listed by the lex-order walk that exact dpi runs on, without its twin rule."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_TOL, FiniteMMS, as_prob_vector, check_tol
from .matmetric import _alignments

__all__ = [
    "EmbeddingSet",
    "kl_divergence",
    "find_isometric_embeddings",
    "relative_entropy",
    "relative_entropy_witness",
]


@dataclass(frozen=True)
class EmbeddingSet:
    """All injective distance-preserving index maps found, in lexicographic
    order; ``maps[k][i]`` is the target index of source point i."""

    maps: tuple

    @property
    def count(self) -> int:
        return len(self.maps)


def kl_divergence(nu, mu, tol: float = DEFAULT_TOL) -> float:
    """Kullback-Leibler divergence D(nu || mu) in nats.

    Terms with nu_i = 0 contribute 0; any nu_i > 0 against mu_i = 0 gives
    infinity (absolute-continuity failure).
    """
    nv = as_prob_vector(nu, tol, "nu")
    mv = as_prob_vector(mu, tol, "mu")
    if nv.size != mv.size:
        raise ValueError(f"length mismatch: {nv.size} vs {mv.size}")
    return _kl(zip(nv, mv))


def _kl(pairs) -> float:
    """Sum of a*log(a/b) over the (nu_i, mu_i) pairs, unvalidated."""
    total = 0.0
    for a, b in pairs:
        if a <= 0.0:
            continue
        if b <= 0.0:
            return math.inf
        total += a * math.log(a / b)
    return total


def find_isometric_embeddings(y: FiniteMMS, x: FiniteMMS, tol: float = DEFAULT_TOL) -> EmbeddingSet:
    """All injective maps from y's points into x's preserving pairwise
    distances within tol, in lex order: the walk of exact dpi, each point's
    image checked against the images of the points before it."""
    check_tol(tol)
    if y.n > x.n:
        return EmbeddingSet(maps=())
    dy = y.dist.entries.tolist()
    dx = x.dist.entries.tolist()

    def fits(perm, rows):
        k = rows - 1
        row, drow = dy[k], dx[perm[k]]
        return all(abs(row[t] - drow[perm[t]]) <= tol for t in range(k))

    return EmbeddingSet(maps=tuple(map(tuple, _alignments(y.n, [-1] * x.n, fits))))


def relative_entropy_witness(y: FiniteMMS, x: FiniteMMS, tol: float = DEFAULT_TOL) -> tuple:
    """``(value, embedding, embedding_count)`` from one enumeration of the
    isometric embeddings of y into x: the minimum divergence of the
    pushed-forward measure against x's measure, the first embedding in
    enumeration order attaining it, and the number of embeddings.  With no
    embedding the value is infinity and the embedding None."""
    maps = find_isometric_embeddings(y, x, tol).maps
    if not maps:
        return math.inf, None, 0
    kls = [_kl(zip(y.mass, x.mass[list(iota)])) for iota in maps]
    k = kls.index(min(kls))
    return kls[k], maps[k], len(maps)


def relative_entropy(y: FiniteMMS, x: FiniteMMS, tol: float = DEFAULT_TOL) -> float:
    """The value of :func:`relative_entropy_witness`."""
    return relative_entropy_witness(y, x, tol)[0]
