"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria cross-check every algorithm against independent brute-force
oracles (exhaustive exclusion subsets, all permutations, LP feasibility
bisection) and verify the headline inequalities: the sandwich
upper <= dpi <= 2*upper on random instances, the square-root bound for
sampled-matrix ensembles, its sharpness window, concentration of
empirical measures, and invariance of the ensemble distance under the two
ground metrics.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; any
assertion failure fails the corresponding criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from mmsdist import (
    DistanceMatrix,
    FiniteMMS,
    birkhoff_decompose,
    check_distance_matrix,
    dm_distance,
    dpi_distance,
    find_isometric_embeddings,
    ghp_bounds_uniform,
    glue_by_relation,
    kl_divergence,
    prokhorov_distance,
    relative_entropy,
    validate_distance_matrix,
)
from mmsdist.experiments import (
    check_finspc_sandwich,
    check_hoelder_small_n,
    check_sampling_convergence,
    check_sharp_exponent,
    check_group_invariance,
    random_euclidean_dmatrix,
)
from mmsdist.sampling import ModelSpace, empirical_space, rng_stream

from oracles import dm_bruteforce, dpi_bruteforce, prokhorov_lp_oracle

TOL = 1e-9


def _report(k, label, detail):
    print(f"[acceptance] criterion {k} ({label}): PASS ({detail})")


def _random_symmetric(rng, n, with_diagonal):
    m = rng.random((n, n)) * 2.0
    m = (m + m.T) / 2.0
    if not with_diagonal:
        np.fill_diagonal(m, 0.0)
    return m


def test_criterion_01_dm_oracle_equivalence():
    start = time.time()
    rng = rng_stream(1001)
    max_diff = 0.0
    for k in range(200):
        n = 2 + k % 5  # n in 2..6
        a = _random_symmetric(rng, n, with_diagonal=(k % 4 == 0))
        b = _random_symmetric(rng, n, with_diagonal=(k % 4 == 0))
        diff = abs(dm_distance(a, b).value - dm_bruteforce(a, b))
        max_diff = max(max_diff, diff)
        assert diff <= TOL
    elapsed = time.time() - start
    assert elapsed < 10.0
    assert max_diff == 0.0
    _report(1, "dm oracle", f"200 pairs, max diff {max_diff}, {elapsed:.2f}s")


def test_criterion_02_dpi_oracle_equivalence():
    start = time.time()
    rng = rng_stream(1002)
    max_diff = 0.0
    for k in range(100):
        n = 2 + k % 5
        a = _random_symmetric(rng, n, False)
        b = _random_symmetric(rng, n, False)
        diff = abs(dpi_distance(a, b).value - dpi_bruteforce(a, b))
        max_diff = max(max_diff, diff)
        assert diff <= TOL
    elapsed = time.time() - start
    assert elapsed < 30.0
    assert max_diff == 0.0
    _report(2, "dpi oracle", f"100 pairs, max diff {max_diff}, {elapsed:.2f}s")


def test_criterion_03_quarter_value_vs_hausdorff():
    eps = 0.01
    xs = [-eps, 0.0, eps, 1.0]
    ys = [0.0, eps, 1.0, 1.0 + eps]
    a = DistanceMatrix.from_points(np.array(xs)[:, None])
    b = DistanceMatrix.from_points(np.array(ys)[:, None])
    w = dpi_distance(a.entries, b.entries)
    assert w.value == 0.25
    # point-set Hausdorff gap of the two subsets of the line, for contrast
    fwd = max(min(abs(x - y) for y in ys) for x in xs)
    bwd = max(min(abs(x - y) for x in xs) for y in ys)
    hausdorff = max(fwd, bwd)
    assert hausdorff == pytest.approx(eps, abs=1e-15)
    _report(3, "quarter pair", f"d_pi=0.25 exactly while Hausdorff gap={hausdorff}")


def test_criterion_04_prokhorov_oracle():
    rng = rng_stream(1004)
    max_diff = 0.0
    for _ in range(100):
        r = int(rng.integers(2, 5))
        c = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(r))
        q = rng.dirichlet(np.ones(c))
        d = rng.random((r, c))
        got = prokhorov_distance(p, q, d).value
        want = prokhorov_lp_oracle(p, q, d)
        max_diff = max(max_diff, abs(got - want))
        assert abs(got - want) <= 1e-6
    path = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert prokhorov_distance([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], path).value == 0.5
    _report(4, "prokhorov oracle", f"100 instances, max diff {max_diff:.2e}, path=0.5")


def test_criterion_05_birkhoff():
    rng = rng_stream(1005)
    max_err = 0.0
    max_terms = 0
    for _ in range(100):
        s = np.zeros((5, 5))
        k = int(rng.integers(1, 10))
        for _ in range(k):
            s[np.arange(5), rng.permutation(5)] += 1.0
        s /= k
        dec = birkhoff_decompose(s)
        err = float(np.abs(dec.reconstruct() - s).max())
        max_err = max(max_err, err)
        max_terms = max(max_terms, dec.size)
        assert err <= 1e-12
        assert dec.size <= 17
    _report(5, "birkhoff", f"100 grids, max error {max_err:.2e}, max terms {max_terms}")


def test_criterion_06_finspc_sandwich():
    rng = rng_stream(1006)
    violations = 0
    for _ in range(200):
        a = random_euclidean_dmatrix(rng, 5)
        b = random_euclidean_dmatrix(rng, 5)
        bounds = ghp_bounds_uniform(a, b)
        dpi = dpi_distance(a.entries, b.entries).value
        if bounds.upper > dpi + TOL or dpi > 2.0 * bounds.upper + TOL:
            violations += 1
    assert violations == 0
    _report(6, "finspc sandwich", "200 pairs in D(5), zero violations")


def test_criterion_07_hoelder():
    start = time.time()
    worst = -math.inf
    for eps in (0.04, 0.1, 0.2):
        for n in range(2, 6):
            r = check_hoelder_small_n(eps, n)
            dp = r.observed["dp_ensemble"]
            worst = max(worst, dp - math.sqrt(eps))
            assert dp <= math.sqrt(eps) + TOL
            assert r.all_passed()
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(7, "hoelder 1/2", f"12 configs, worst margin {worst:.4f}, {elapsed:.2f}s")


def test_criterion_08_sharp_exponent():
    r = check_sharp_exponent(1.0, 0.75, 0.01, n=20)
    p = r.observed["p_matrix_nonzero"]
    thr = r.bound["c_eps_alpha"]
    assert 0.18 <= p <= 0.19
    assert p > thr
    assert thr == pytest.approx(0.01**0.75)
    assert r.bound["dp_lower_certified"] == pytest.approx(thr)
    assert r.all_passed()
    r2 = check_sharp_exponent(1.0, 0.75, 0.05, n=5)
    assert r2.all_passed()
    assert "dp_ensemble" in r2.observed
    assert r2.observed["dp_ensemble"] > r2.bound["c_eps_alpha"] + TOL
    assert not any("boundary" in note for note in r2.notes)
    _report(
        8,
        "sharp exponent",
        f"P(M!=0)={p:.4f} > {thr:.4f}; exact dp={r2.observed['dp_ensemble']:.4f}",
    )


def test_criterion_09_sampling_convergence():
    start = time.time()
    r = check_sampling_convergence(epsilon=0.1, n=1000, trials=200, seed=1009)
    freq = r.observed["frequency_above_3eps"]
    slack = r.bound["binomial_95_slack"]
    assert freq < 0.1
    assert r.all_passed()
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(9, "sampling convergence", f"freq={freq} (slack {slack:.4f}), {elapsed:.2f}s")


def test_criterion_10_group_invariance():
    r = check_group_invariance(n=3)
    gap = r.observed["gap"]
    assert gap <= 1e-9
    assert r.all_passed()
    _report(10, "group invariance", f"|dp_dm - dp_dpi| = {gap:.2e}")


def test_criterion_11_kl_example():
    p = 0.25
    expected = math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)
    val = kl_divergence([p, 1 - p], [0.5, 0.5])
    assert val == pytest.approx(expected, abs=1e-9)
    assert val == pytest.approx(0.13081203594113697, abs=1e-9)
    two = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
    x = FiniteMMS(("0", "1"), two, np.array([0.5, 0.5]))
    y = FiniteMMS(("0", "1"), two, np.array([p, 1 - p]))
    assert relative_entropy(y, x) == pytest.approx(expected, abs=1e-9)
    assert find_isometric_embeddings(y, x).count == 2
    _report(11, "kl example", f"value {val:.9f}, 2 embeddings")


def test_criterion_12_property_suites():
    # pseudo-metric axioms for the matrix distance, 1000 random triples
    rng = rng_stream(1012)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        a = _random_symmetric(rng, n, False)
        b = _random_symmetric(rng, n, False)
        c = _random_symmetric(rng, n, False)
        assert dm_distance(a, a).value == 0.0
        assert dm_distance(a, b).value == dm_distance(b, a).value
        assert dm_distance(a, c).value <= dm_distance(a, b).value + dm_distance(b, c).value + TOL

    # coupling-distance triangle inequality on one fixed 5-point ground space
    ground = DistanceMatrix.from_points(rng_stream(1013).random((5, 2))).entries
    rng = rng_stream(1014)
    for _ in range(500):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        s = rng.dirichlet(np.ones(5))
        dps = prokhorov_distance(p, s, ground).value
        dpq = prokhorov_distance(p, q, ground).value
        dqs = prokhorov_distance(q, s, ground).value
        assert dps <= dpq + dqs + TOL

    # gluing isometry preservation on 500 random gluings
    rng = rng_stream(1015)
    for _ in range(500):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x = FiniteMMS(
            tuple(f"x{i}" for i in range(nx)),
            DistanceMatrix.from_points(rng.random((nx, 2))),
            np.full(nx, 1.0 / nx),
        )
        y = FiniteMMS(
            tuple(f"y{i}" for i in range(ny)),
            DistanceMatrix.from_points(rng.random((ny, 2))),
            np.full(ny, 1.0 / ny),
        )
        k = int(rng.integers(1, min(nx, ny) + 1))
        rel = list(zip(rng.permutation(nx)[:k], rng.permutation(ny)[:k]))
        t = max(x.dist.diameter(), y.dist.diameter()) / 2.0 + 0.01
        g = glue_by_relation(x, y, rel, t)
        full = g.full_matrix()
        assert np.array_equal(full[:nx, :nx], x.dist.entries)
        assert np.array_equal(full[nx:, nx:], y.dist.entries)
        assert check_distance_matrix(full, tol=TOL) == []

    # determinism: byte-equal reports and samples across equal-seed runs
    r1 = check_finspc_sandwich(n=4, trials=5, seed=99)
    r2 = check_finspc_sandwich(n=4, trials=5, seed=99)
    assert r1.to_json().encode() == r2.to_json().encode()
    s1 = empirical_space(ModelSpace.circle(1.0), 50, seed=7, stream=3)
    s2 = empirical_space(ModelSpace.circle(1.0), 50, seed=7, stream=3)
    assert s1.dist.entries.tobytes() == s2.dist.entries.tobytes()
    _report(12, "property suites", "dm axioms x1000, dp triangle x500, gluing x500, determinism")
