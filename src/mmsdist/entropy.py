"""Relative entropy between finite metric measure spaces: Kullback-Leibler
divergence minimised over exhaustively enumerated isometric embeddings."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_TOL, FiniteMMS, as_prob_vector

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
    total = 0.0
    for a, b in zip(nv, mv):
        if a <= 0.0:
            continue
        if b <= 0.0:
            return math.inf
        total += a * math.log(a / b)
    return total


def find_isometric_embeddings(y: FiniteMMS, x: FiniteMMS, tol: float = DEFAULT_TOL) -> EmbeddingSet:
    """All injective maps from y's points into x's preserving pairwise
    distances within tol, by backtracking with partial-distance pruning."""
    dy = y.dist.entries.tolist()
    dx = x.dist.entries.tolist()
    m, n = y.n, x.n
    found: list = []
    if m > n:
        return EmbeddingSet(maps=())
    cur = [-1] * m
    used = [False] * n

    def dfs(k: int) -> None:
        if k == m:
            found.append(tuple(cur))
            return
        row = dy[k]
        for cand in range(n):
            if used[cand]:
                continue
            drow = dx[cand]
            if all(abs(row[t] - drow[cur[t]]) <= tol for t in range(k)):
                cur[k] = cand
                used[cand] = True
                dfs(k + 1)
                used[cand] = False
        cur[k] = -1

    dfs(0)
    return EmbeddingSet(maps=tuple(found))


def _pushforward_kl(nu, iota, mu) -> float:
    total = 0.0
    for j, a in enumerate(nu):
        if a <= 0.0:
            continue
        b = mu[iota[j]]
        if b <= 0.0:
            return math.inf
        total += a * math.log(a / b)
    return total


def relative_entropy_witness(y: FiniteMMS, x: FiniteMMS, tol: float = DEFAULT_TOL) -> tuple:
    """``(value, embedding, embedding_count)`` from one enumeration of the
    isometric embeddings of y into x: the minimum divergence of the
    pushed-forward measure against x's measure, the first embedding in
    enumeration order attaining it, and the number of embeddings.  With no
    embedding the value is infinity and the embedding None."""
    maps = find_isometric_embeddings(y, x, tol).maps
    if not maps:
        return math.inf, None, 0
    kls = [_pushforward_kl(y.mass, iota, x.mass) for iota in maps]
    k = kls.index(min(kls))
    return kls[k], maps[k], len(maps)


def relative_entropy(y: FiniteMMS, x: FiniteMMS, tol: float = DEFAULT_TOL) -> float:
    """The value of :func:`relative_entropy_witness`."""
    return relative_entropy_witness(y, x, tol)[0]
