import inspect
import math
import sys

import numpy as np
import pytest

from mmsdist import (
    DistanceMatrix,
    FiniteMMS,
    find_isometric_embeddings,
    kl_divergence,
    relative_entropy,
)
from mmsdist.sampling import rng_stream

from oracles import embeddings_bruteforce

TWO_PT = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
LINE3 = DistanceMatrix([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])


def _uniform(dist, labels=None):
    n = dist.n
    labels = labels or tuple(f"p{i}" for i in range(n))
    return FiniteMMS(labels, dist, np.full(n, 1.0 / n))


def test_kl_zero_on_equal():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_kl_two_point_example():
    p = 0.25
    val = kl_divergence([p, 1 - p], [0.5, 0.5])
    expected = math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)
    assert val == pytest.approx(expected, abs=1e-15)
    assert val == pytest.approx(0.1308, abs=5e-5)


def test_kl_absolute_continuity_failure():
    assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == math.inf


def test_kl_errors():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.4], [0.5, 0.5])


def test_kl_nonnegative_gibbs():
    rng = rng_stream(61)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        nu = rng.dirichlet(np.ones(n))
        mu = rng.dirichlet(np.ones(n))
        val = kl_divergence(nu, mu)
        assert val >= -1e-12
    # equality only at nu == mu
    mu = rng.dirichlet(np.ones(4))
    assert kl_divergence(mu, mu) == 0.0


def test_embeddings_identity_present():
    x = _uniform(LINE3)
    emb = find_isometric_embeddings(x, x)
    assert (0, 1, 2) in emb.maps


def test_embeddings_two_point_into_line():
    y = _uniform(TWO_PT)
    x = _uniform(LINE3)
    emb = find_isometric_embeddings(y, x)
    assert emb.maps == ((0, 1), (1, 0))


def test_embeddings_empty_when_diameters_clash():
    y = _uniform(DistanceMatrix([[0.0, 5.0], [5.0, 0.0]]))
    x = _uniform(DistanceMatrix([[0.0, 3.0], [3.0, 0.0]]))
    assert find_isometric_embeddings(y, x).maps == ()
    assert relative_entropy(y, x) == math.inf


def test_embeddings_match_bruteforce():
    rng = rng_stream(62)
    for _ in range(30):
        ny = int(rng.integers(1, 5))
        nx = int(rng.integers(ny, 7))
        xpts = rng.integers(0, 4, size=(nx, 1)).astype(float)
        x = _uniform(DistanceMatrix.from_points(xpts))
        sub = rng.permutation(nx)[:ny]
        y = _uniform(DistanceMatrix(x.dist.entries[np.ix_(sub, sub)]))
        emb = find_isometric_embeddings(y, x)
        assert list(emb.maps) == embeddings_bruteforce(y, x, 1e-9)
    # jittered planar lattice points at tol > 0, with m = n among them
    for _ in range(30):
        nx = int(rng.integers(1, 7))
        ny = int(rng.integers(1, nx + 1)) if rng.random() < 0.5 else nx
        xpts = rng.integers(0, 3, size=(nx, 2)) + rng.uniform(-1e-3, 1e-3, size=(nx, 2))
        ypts = xpts[rng.permutation(nx)[:ny]] + rng.uniform(-1e-3, 1e-3, size=(ny, 2))
        x, y = _uniform(DistanceMatrix.from_points(xpts)), _uniform(DistanceMatrix.from_points(ypts))
        for tol in (1e-3, 5e-3):
            assert list(find_isometric_embeddings(y, x, tol).maps) == embeddings_bruteforce(y, x, tol)


def test_embeddings_past_the_recursion_limit():
    # the search keeps no frame per point: with the recursion limit lowered
    # to 100 frames above this test's own, a 300-point space still embeds
    # in itself, by the identity alone
    x = _uniform(DistanceMatrix.from_points(rng_stream(65).random((300, 2))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        maps = find_isometric_embeddings(x, x).maps
    finally:
        sys.setrecursionlimit(limit)
    assert maps == (tuple(range(300)),)


def test_relative_entropy_self_is_zero():
    rng = rng_stream(63)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        s = FiniteMMS(
            tuple(f"p{i}" for i in range(n)),
            DistanceMatrix.from_points(rng.random((n, 2))),
            rng.dirichlet(np.ones(n)),
        )
        assert relative_entropy(s, s) == 0.0


def test_relative_entropy_two_point_example():
    p = 0.25
    x = _uniform(TWO_PT)
    y = FiniteMMS(("0", "1"), TWO_PT, np.array([p, 1 - p]))
    val = relative_entropy(y, x)
    expected = math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)
    assert val == pytest.approx(expected, abs=1e-12)
    # both embeddings give the same value because the target is uniform
    emb = find_isometric_embeddings(y, x)
    assert emb.count == 2


def test_relative_entropy_monotone_under_zero_mass_extension():
    # appending zero-mass points grows the embedding set without touching
    # the target measure, so the infimum can only drop
    rng = rng_stream(64)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        xpts = rng.integers(0, 3, size=(n, 1)).astype(float)
        x = FiniteMMS(
            tuple(f"p{i}" for i in range(n)),
            DistanceMatrix.from_points(xpts),
            rng.dirichlet(np.ones(n)),
        )
        extra = np.vstack([xpts, rng.integers(0, 3, size=(2, 1)).astype(float)])
        x_big = FiniteMMS(
            tuple(f"p{i}" for i in range(n + 2)),
            DistanceMatrix.from_points(extra),
            np.concatenate([x.mass, [0.0, 0.0]]),
        )
        ny = int(rng.integers(1, n + 1))
        sub = rng.permutation(n)[:ny]
        y = FiniteMMS(
            tuple(f"y{i}" for i in range(ny)),
            DistanceMatrix(x.dist.entries[np.ix_(sub, sub)]),
            rng.dirichlet(np.ones(ny)),
        )
        assert relative_entropy(y, x_big) <= relative_entropy(y, x) + 1e-12
