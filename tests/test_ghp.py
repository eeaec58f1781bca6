import logging

import numpy as np
import pytest

from mmsdist import (
    Coupling,
    DistanceMatrix,
    FiniteMMS,
    GluingError,
    SizeLimitError,
    StrategyError,
    best_ghp_upper_bound,
    check_distance_matrix,
    delta_of_coupling,
    dpi_distance,
    epsilon_matching,
    ghp_bounds_uniform,
    ghp_upper_bound,
    glue_by_relation,
    prokhorov_distance,
    theta_map,
    validate_distance_matrix,
)
from mmsdist.experiments import sharp_pair
from mmsdist.ghp import _glue, _greedy_coupling_on_pairs, _net_bound
from mmsdist.matmetric import DPI_EXACT_LIMIT
from mmsdist.sampling import rng_stream

A_LINE = validate_distance_matrix([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])
B_LINE = validate_distance_matrix([[0.0, 2, 3], [2, 0, 1], [3, 1, 0]])


def _space(labels, points, mass=None):
    d = DistanceMatrix.from_points(points)
    m = np.full(d.n, 1.0 / d.n) if mass is None else np.asarray(mass, float)
    return FiniteMMS(tuple(labels), d, m, coords=np.asarray(points, float))


def test_glue_single_points():
    pt = FiniteMMS(("a",), DistanceMatrix([[0.0]]), [1.0])
    g = glue_by_relation(pt, pt, [(0, 0)], 0.2)
    assert g.cross[0, 0] == pytest.approx(0.2)


def test_glue_two_point_spaces():
    x = _space("ab", [[0.0], [1.0]])
    y = _space("cd", [[0.0], [1.5]])
    g = glue_by_relation(x, y, [(0, 0), (1, 1)], 0.5)
    # the shortcut x0 -> y0 -> y1 -> x1 has length 2.5 >= 1, so dx survives
    assert np.array_equal(g.full_matrix()[:2, :2], x.dist.entries)
    assert check_distance_matrix(g.full_matrix()) == []
    with pytest.raises(GluingError):
        glue_by_relation(x, y, [(0, 0), (1, 1)], 0.0)


def test_glue_requires_relation_and_nonneg_t():
    x = _space("ab", [[0.0], [1.0]])
    with pytest.raises(ValueError):
        glue_by_relation(x, x, [], 0.1)
    with pytest.raises(ValueError):
        glue_by_relation(x, x, [(0, 0)], -0.1)


def test_random_gluings_preserve_intra_distances():
    rng = rng_stream(41)
    for _ in range(60):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x = _space([f"x{i}" for i in range(nx)], rng.random((nx, 2)))
        y = _space([f"y{i}" for i in range(ny)], rng.random((ny, 2)))
        k = int(rng.integers(1, min(nx, ny) + 1))
        rel = [(int(i), int(j)) for i, j in zip(rng.permutation(nx)[:k], rng.permutation(ny)[:k])]
        t = float(max(x.dist.diameter(), y.dist.diameter())) / 2.0 + 0.05
        g = glue_by_relation(x, y, rel, t)
        full = g.full_matrix()
        assert np.array_equal(full[:nx, :nx], x.dist.entries)
        assert np.array_equal(full[nx:, nx:], y.dist.entries)
        assert check_distance_matrix(full, tol=1e-9) == []


def test_identify_identical_spaces_gives_zero():
    x = _space("abc", [[0.0], [1.0], [2.5]])
    b = ghp_upper_bound(x, x, "identify")
    assert b.upper == 0.0
    assert b.method == "identify"


def test_sharp_spaces_identify_upper_is_epsilon():
    for eps in (0.02, 0.1, 0.2):
        x, y = sharp_pair(1.0, eps)
        b = ghp_upper_bound(x, y, "identify")
        assert b.upper == pytest.approx(eps, abs=1e-12)
        assert delta_of_coupling(b.coupling) == pytest.approx(b.upper, abs=1e-9)


def test_permutation_strategy_on_line_pair():
    x, y = theta_map(A_LINE), theta_map(B_LINE)
    b = ghp_upper_bound(x, y, "permutation")
    assert b.upper <= 2e-9  # d_pi = 0, bridged at the tolerance floor
    assert b.lower == 0.0


def test_permutation_strategy_requires_uniform():
    x, _ = sharp_pair(1.0, 0.1)
    with pytest.raises(StrategyError):
        ghp_upper_bound(x, theta_map(A_LINE), "permutation")


def test_net_strategy_needs_and_uses_coords():
    x = _space("ab", [[0.0, 0.0], [1.0, 0.0]])
    y = _space("cd", [[0.05, 0.0], [1.05, 0.0]])
    b = ghp_upper_bound(x, y, "net")
    assert b.method == "net"
    assert b.upper <= 0.06
    plain = FiniteMMS(("a", "b"), x.dist, x.mass)
    with pytest.raises(StrategyError):
        ghp_upper_bound(plain, plain, "net")
    # an explicit cross grid substitutes for coordinates
    b2 = ghp_upper_bound(plain, plain, "net", cross=np.array([[0.01, 1.0], [1.0, 0.01]]))
    assert b2.upper <= 0.02


def test_net_strategy_reads_1d_coords_as_one_column():
    # flat coordinates are one column, as DistanceMatrix.from_points reads them
    flat = [_space("abc", [0.0, 1.0, 3.0]), _space("de", [0.05, 1.05])]
    cols = [_space("abc", [[0.0], [1.0], [3.0]]), _space("de", [[0.05], [1.05]])]
    got, want = ghp_upper_bound(*flat, "net"), ghp_upper_bound(*cols, "net")
    assert (got.upper, got.glued.bridges) == (want.upper, want.glued.bridges)
    assert got.glued.cross.tobytes() == want.glued.cross.tobytes()
    with pytest.raises(StrategyError, match="coordinate dimensions differ: 1 vs 2"):
        ghp_upper_bound(flat[0], _space("de", [[0.0, 0.0], [1.0, 0.0]]), "net")


def test_greedy_net_coupling_keeps_tiny_masses():
    # the net strategy's coupling runs on the exact scaled masses, so a
    # 1e-15 atom reaches the coupling instead of being cut as rounding noise
    mass = _greedy_coupling_on_pairs([1 - 1e-15, 1e-15], [1e-15, 1 - 1e-15], [(0, 0)], (2, 2))
    assert mass.tolist() == [[1e-15, 1 - 2e-15], [0.0, 1e-15]]
    assert mass.sum(axis=1).tolist() == [1 - 1e-15, 1e-15]
    assert mass.sum(axis=0).tolist() == [1e-15, 1 - 1e-15]


def test_bounds_uniform_above_the_exact_limit_raises_the_shared_error():
    a = DistanceMatrix.from_points(np.arange(DPI_EXACT_LIMIT + 1.0)[:, None])
    want = f"exact permutation search limited to n <= {DPI_EXACT_LIMIT}, got {DPI_EXACT_LIMIT + 1}"
    with pytest.raises(SizeLimitError, match=want):
        ghp_bounds_uniform(a, a)


def _coords_cross(x, y):
    diff = x.coords[:, None, :] - y.coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _net_bound_every_level(x, y, tol):
    """The net strategy gluing and scoring the matching of every eps level,
    repeats included; returns (value, gluing) of the best level."""
    cross = _coords_cross(x, y)
    best = None
    for eps in np.unique(cross[cross > 0]):
        pairs = epsilon_matching(cross, float(eps)).pairs
        if not pairs:
            continue
        glued = _glue(x, y, [(i, j, float(cross[i, j])) for i, j in pairs], tol)
        mass = _greedy_coupling_on_pairs(x.mass, y.mass, pairs, (x.n, y.n))
        val = delta_of_coupling(Coupling(mass=mass, ground_dist=glued.cross), tol)
        if best is None or val < best[0]:
            best = (val, glued)
    return best


def test_net_bound_equals_gluing_every_level(caplog):
    # half-step lattices tie many cross distances, so most eps levels
    # repeat a matching; skipping the repeats must keep the same gluing
    rng = rng_stream(45)
    for t in range(60):
        pts = [np.unique(rng.integers(0, 5, (int(rng.integers(2, 8)), 2)) / 2.0, axis=0) for _ in "xy"]
        x, y = (_space(range(len(q)), q, rng.dirichlet(np.ones(len(q))) if t % 2 else None) for q in pts)
        _, want = _net_bound_every_level(x, y, 1e-9)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="mmsdist"):
            got = _net_bound(x, y, 1e-9)
        assert got.glued.bridges == want.bridges
        assert got.glued.cross.tobytes() == want.cross.tobytes()
        ref = prokhorov_distance(x.mass, y.mass, want.cross)
        assert repr(got.upper) == repr(ref.value)
        assert got.coupling.mass.tobytes() == ref.coupling.mass.tobytes()
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("net")]
        cross = _coords_cross(x, y)
        levels = np.unique(cross[cross > 0])
        distinct = {epsilon_matching(cross, float(e)).pairs for e in levels} - {()}
        assert line == f"net: {levels.size} eps levels, {len(distinct)} distinct matchings glued"


def test_bounds_uniform_identical():
    b = ghp_bounds_uniform(A_LINE, A_LINE)
    assert (b.lower, b.upper) == (0.0, 0.0)


def test_bounds_uniform_bracket_on_grids_equal_within_tol():
    # B moves one entry of A by less than tol: the bracket is the exact
    # search's, lower = dpi / 2 <= upper <= dpi
    e = A_LINE.entries.copy()
    e[0, 1] += 4e-10
    e[1, 0] += 4e-10
    b = ghp_bounds_uniform(A_LINE, validate_distance_matrix(e))
    dpi = dpi_distance(A_LINE.entries, e).value
    assert 0.0 < b.lower == dpi / 2.0 <= b.upper <= dpi
    assert b.method == "permutation"


def test_bounds_uniform_quarter_pair():
    eps = 0.01
    x = validate_distance_matrix(DistanceMatrix.from_points([[-eps], [0.0], [eps], [1.0]]).entries)
    y = validate_distance_matrix(
        DistanceMatrix.from_points([[0.0], [eps], [1.0], [1.0 + eps]]).entries
    )
    b = ghp_bounds_uniform(x, y)
    assert b.lower == pytest.approx(0.125, abs=0)
    assert b.upper <= 0.25 + 1e-9
    assert b.lower <= b.upper


def test_bounds_uniform_sandwich_random():
    rng = rng_stream(42)
    for _ in range(30):
        a = validate_distance_matrix(DistanceMatrix.from_points(rng.random((4, 2))).entries)
        b = validate_distance_matrix(DistanceMatrix.from_points(rng.random((4, 2))).entries)
        bounds = ghp_bounds_uniform(a, b)
        dpi = dpi_distance(a.entries, b.entries).value
        assert bounds.lower <= bounds.upper + 1e-9
        assert bounds.upper <= dpi + 1e-9
        assert dpi <= 2.0 * bounds.upper + 1e-9
        assert delta_of_coupling(bounds.coupling) >= bounds.upper - 1e-9


def test_upper_bound_symmetry():
    rng = rng_stream(43)
    for _ in range(15):
        a = theta_map(validate_distance_matrix(DistanceMatrix.from_points(rng.random((4, 2))).entries))
        b = theta_map(validate_distance_matrix(DistanceMatrix.from_points(rng.random((4, 2))).entries))
        fwd = ghp_upper_bound(a, b, "permutation").upper
        bwd = ghp_upper_bound(b, a, "permutation").upper
        assert fwd == pytest.approx(bwd, abs=1e-9)


def test_relabelled_space_collapses_bounds():
    rng = rng_stream(44)
    for _ in range(15):
        a = validate_distance_matrix(DistanceMatrix.from_points(rng.random((5, 2))).entries)
        perm = rng.permutation(5)
        b = DistanceMatrix(a.entries[np.ix_(perm, perm)])
        bounds = ghp_bounds_uniform(a, b)
        assert bounds.lower == 0.0
        assert bounds.upper <= 1e-8


def test_best_strategy_picks_minimum():
    x, y = sharp_pair(1.0, 0.1)
    best = best_ghp_upper_bound(x, y)
    assert best.method == "identify"
    assert best.upper == pytest.approx(0.1, abs=1e-12)
