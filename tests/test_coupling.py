import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsdist import (
    Coupling,
    DistanceMatrix,
    birkhoff_decompose,
    delta_of_coupling,
    epsilon_matching,
    prokhorov_distance,
)
from mmsdist import coupling as coupling_mod
from mmsdist.core import DEFAULT_TOL, DegenerateSupportError
from mmsdist.sampling import rng_stream

from oracles import (
    birkhoff_cold,
    delta_fraction_oracle,
    matching_bruteforce,
    max_mass_within_bfs,
    max_matching_cold,
    northwest_fill,
    prokhorov_lp_oracle,
)

PATH_D = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_delta_examples():
    zero = Coupling(mass=[[0.6, 0.0], [0.0, 0.4]], ground_dist=[[0.0, 1.0], [1.0, 0.0]])
    assert delta_of_coupling(zero) == 0.0
    atom = Coupling(mass=[[1.0]], ground_dist=[[0.4]])
    assert delta_of_coupling(atom) == 0.4
    split = Coupling(mass=[[0.9, 0.1]], ground_dist=[[0.0, 1.0]])
    assert delta_of_coupling(split) == pytest.approx(0.1)
    # tied distances count together: level 0.25 holds 0.625 of the mass
    tied = Coupling(mass=[[0.25, 0.25], [0.125, 0.375]], ground_dist=[[0.25, 0.25], [0.0, 0.9]])
    assert delta_of_coupling(tied) == 0.375
    far = Coupling(mass=[[0.5, 0.5]], ground_dist=[[2.0, 3.0]])
    assert delta_of_coupling(far) == 1.0  # only the virtual level 0 is below 1


def test_delta_equals_the_level_scan():
    # ties, -0.0 and 0.0 levels; the float cumsum this replaced was 1 ulp
    # off on 142 of these 500 and returned -0.0 on 6
    rng = rng_stream(40)
    for _ in range(500):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        mass = rng.random((r, c)) * (rng.random((r, c)) < 0.7)
        mass[0, 0] += 0.1
        mass /= mass.sum()
        dist = rng.choice([-0.0, 0.0, 0.125, 0.5, 0.9, 2.0, float(rng.random())], size=(r, c))
        got = delta_of_coupling(Coupling(mass=mass, ground_dist=dist))
        assert repr(got) == repr(delta_fraction_oracle(mass, dist))


@st.composite
def _couplings(draw):
    """Integer weights with zeros normalised to a coupling grid, over
    distances with ties, -0.0 and 0.0, and the diagonal coupling of a
    random mass vector on a ground grid with a zero diagonal."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    w = np.array(draw(st.lists(st.integers(0, 4), min_size=r * c, max_size=r * c)), float)
    w[draw(st.integers(0, r * c - 1))] += 1.0
    level = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 2.0))
    dist = np.array(draw(st.lists(level, min_size=r * c, max_size=r * c))).reshape(r, c)
    p = np.array(draw(st.lists(st.integers(1, 9), min_size=r, max_size=r)), float)
    p /= p.sum()
    return (w / w.sum()).reshape(r, c), dist, p, np.where(np.eye(r, dtype=bool), 0.0, dist[:, :1])


@settings(max_examples=150, deadline=None)
@given(_couplings())
def test_delta_is_exact_and_zero_on_diagonal_couplings(inst):
    mass, dist, p, ground = inst
    assert repr(delta_of_coupling(Coupling(mass=mass, ground_dist=dist))) == repr(
        delta_fraction_oracle(mass, dist)
    )
    # the float cumsum missed 1 on such masses and gave 1.1e-16
    assert repr(delta_of_coupling(Coupling(mass=np.diag(p), ground_dist=ground))) == "0.0"


def test_delta_rejects_bad_mass():
    with pytest.raises(ValueError):
        delta_of_coupling(Coupling(mass=[[0.5]], ground_dist=[[0.0]]))
    with pytest.raises(ValueError):
        delta_of_coupling(Coupling(mass=[[1.5, -0.5]], ground_dist=[[0.0, 1.0]]))
    with pytest.raises(ValueError, match="NaN"):
        delta_of_coupling(Coupling(mass=[[0.5, 0.5]], ground_dist=[[0.0, np.nan]]))
    # a NaN mass used to pass both the sign and the total check and give 0.0
    for bad in ([[np.nan, 1.0]], [[np.inf, 1.0]], [[-np.inf, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            delta_of_coupling(Coupling(mass=bad, ground_dist=[[0.0, 1.0]]))


def test_prokhorov_identical_measures():
    p = [0.3, 0.7]
    r = prokhorov_distance(p, p, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert r.value == 0.0
    assert np.allclose(np.diag(r.coupling.mass), p)


@pytest.mark.parametrize("p", [[1 / 3] * 3, [0.1] * 10])
def test_prokhorov_identical_measures_give_exactly_zero(p):
    # the float sums of thirds and tenths miss 1; the unplaced mass is
    # measured against the mass total, so nothing is left over
    d = 1.0 - np.eye(len(p))
    r = prokhorov_distance(p, p, d)
    assert (r.value, r.breakpoint) == (0.0, 0.0)
    assert r.coupling.mass.tolist() == np.diag(p).tolist()


def test_prokhorov_keeps_masses_far_below_one():
    # a float flow that treated residuals below 1e-14 as saturated dropped
    # both 1e-15 masses here and returned 1.0 at breakpoint 0
    r = prokhorov_distance([1.0, 1e-15], [1e-15, 1.0], [[0.5, 1.0], [1.0, 0.5]])
    assert (r.value, r.breakpoint) == (0.999999999999998, 0.5)
    assert r.coupling.mass.tolist() == [[1e-15, 0.999999999999999], [0.0, 1e-15]]
    assert r.coupling.mass.sum(axis=1)[1] == 1e-15
    assert r.coupling.mass.sum(axis=0)[0] == 1e-15


def test_prokhorov_two_point_example():
    r = prokhorov_distance([1.0, 0.0], [0.7, 0.3], np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert r.value == pytest.approx(0.3)


def test_prokhorov_path_example():
    r = prokhorov_distance([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], PATH_D)
    assert r.value == 0.5
    assert r.coupling.mass[1, 1] == pytest.approx(0.5)
    assert r.coupling.mass[0, 2] == pytest.approx(0.5)


def test_prokhorov_errors():
    with pytest.raises(ValueError):
        prokhorov_distance([0.9, 0.2], [0.5, 0.5], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        prokhorov_distance([0.5, 0.5], [0.5, 0.5], np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        prokhorov_distance([0.5, 0.5], [0.5, 0.5], np.zeros((3, 2)))


def test_prokhorov_witness_achieves_value():
    rng = rng_stream(31)
    for _ in range(40):
        r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(r))
        q = rng.dirichlet(np.ones(c))
        d = rng.random((r, c))
        res = prokhorov_distance(p, q, d)
        res.coupling.check_marginals(p, q, tol=1e-9)
        assert delta_of_coupling(res.coupling) == pytest.approx(res.value, abs=1e-9)


def test_prokhorov_symmetry():
    rng = rng_stream(32)
    for _ in range(25):
        r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(r))
        q = rng.dirichlet(np.ones(c))
        d = rng.random((r, c))
        assert prokhorov_distance(p, q, d).value == pytest.approx(
            prokhorov_distance(q, p, d.T).value, abs=1e-12
        )


def test_prokhorov_matches_lp_oracle_quick():
    rng = rng_stream(33)
    for _ in range(20):
        r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(r))
        q = rng.dirichlet(np.ones(c))
        d = rng.random((r, c))
        assert prokhorov_distance(p, q, d).value == pytest.approx(
            prokhorov_lp_oracle(p, q, d), abs=1e-6
        )


def test_prokhorov_exact_rational_agrees_with_float():
    # every call is exact; the keyword is kept for callers and changes nothing
    rng = rng_stream(34)
    for _ in range(10):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(4))
        d = rng.random((3, 4))
        f = prokhorov_distance(p, q, d, exact=False)
        e = prokhorov_distance(p, q, d, exact=True)
        assert (repr(f.value), repr(f.breakpoint)) == (repr(e.value), repr(e.breakpoint))
        assert f.coupling.mass.tobytes() == e.coupling.mass.tobytes()


def test_prokhorov_triangle_on_fixed_ground_space():
    rng = rng_stream(35)
    d = DistanceMatrix.from_points(rng.random((5, 2))).entries
    for _ in range(60):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        s = rng.dirichlet(np.ones(5))
        dpq = prokhorov_distance(p, q, d).value
        dqs = prokhorov_distance(q, s, d).value
        dps = prokhorov_distance(p, s, d).value
        assert dps <= dpq + dqs + 1e-9


def test_birkhoff_identity():
    dec = birkhoff_decompose(np.eye(3))
    assert dec.terms == ((1.0, (0, 1, 2)),)


def test_birkhoff_half_half():
    dec = birkhoff_decompose([[0.5, 0.5], [0.5, 0.5]])
    assert dec.size == 2
    assert sorted(t[1] for t in dec.terms) == [(0, 1), (1, 0)]
    assert [t[0] for t in dec.terms] == [0.5, 0.5]


def test_birkhoff_uniform_three():
    dec = birkhoff_decompose(np.ones((3, 3)) / 3.0)
    assert dec.size == 3
    assert all(c == pytest.approx(1 / 3, abs=1e-15) for c in dec.coefficients())
    cells = {(i, s[i]) for _, s in dec.terms for i in range(3)}
    assert len(cells) == 9  # disjoint permutations
    assert np.abs(dec.reconstruct() - 1 / 3).max() < 1e-15


def test_birkhoff_random_reconstruction():
    rng = rng_stream(36)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 9))
        s = np.zeros((n, n))
        for _ in range(k):
            s[np.arange(n), rng.permutation(n)] += 1.0
        s /= k
        dec = birkhoff_decompose(s)
        assert np.abs(dec.reconstruct() - s).max() <= 1e-12
        assert dec.size <= (n - 1) ** 2 + 1
        assert abs(sum(dec.coefficients()) - 1.0) <= 1e-9


def test_birkhoff_rejects_non_doubly_stochastic():
    with pytest.raises(ValueError):
        birkhoff_decompose([[0.9, 0.0], [0.0, 0.9]])


def test_epsilon_matching_examples():
    m = epsilon_matching([[0.05, 20.0], [9.95, 10.0]], 0.1)
    assert m.pairs == ((0, 0),)
    m = epsilon_matching(np.zeros((3, 3)), 0.5)
    assert m.pairs == ((0, 0), (1, 1), (2, 2))
    m = epsilon_matching([[0.5, 0.05], [0.5, 0.95]], 0.6)
    assert m.pairs == ((0, 1), (1, 0))


def test_epsilon_matching_strictness_and_errors():
    # the pair at exactly epsilon is not allowed
    assert epsilon_matching([[0.5]], 0.5).pairs == ()
    with pytest.raises(ValueError):
        epsilon_matching([[0.5]], 0.0)


def test_epsilon_matching_maximum_cardinality():
    rng = rng_stream(37)
    for _ in range(40):
        r, c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        d = rng.random((r, c))
        eps = float(rng.random()) + 0.05
        m = epsilon_matching(d, eps)
        assert len(m.pairs) == matching_bruteforce(d < eps)
        assert all(d[i, j] < eps for i, j in m.pairs)
        assert len({j for _, j in m.pairs}) == len(m.pairs)  # injective


def _kuhn_recursive(allowed):
    """The recursive augmenting search that the iterative one replaced."""
    n_l, n_r = allowed.shape
    match_r = [-1] * n_r

    def try_assign(u, seen):
        for v in range(n_r):
            if allowed[u, v] and match_r[v] == -1 and not seen[v]:
                seen[v] = True
                match_r[v] = u
                return True
        for v in range(n_r):
            if allowed[u, v] and not seen[v]:
                seen[v] = True
                if try_assign(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    for u in range(n_l):
        try_assign(u, [False] * n_r)
    return match_r


def test_matching_pairs_follow_the_recursive_search():
    rng = rng_stream(41)
    for _ in range(300):
        r, c = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        d = rng.random((r, c))
        eps = float(rng.random()) + 0.01
        match_r = _kuhn_recursive(d < eps)
        want = tuple(sorted((u, v) for v, u in enumerate(match_r) if u != -1))
        assert epsilon_matching(d, eps).pairs == want


def test_epsilon_matching_long_augmenting_path():
    # row i allows columns i and i + 1 and the last row only column 0, so
    # the last row augments along a path through every row; a recursive
    # search hit the interpreter's recursion limit here
    n = 1201
    d = np.ones((n, n))
    d[np.arange(n - 1), np.arange(n - 1)] = 0.0
    d[np.arange(n - 1), np.arange(1, n)] = 0.0
    d[n - 1, 0] = 0.0
    m = epsilon_matching(d, 0.5)
    assert m.pairs == tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)


def test_overlap_dominates_prokhorov_on_shared_space():
    rng = rng_stream(38)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        d = DistanceMatrix.from_points(rng.random((n, 2))).entries
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        # the coupling that keeps min(p_i, q_i) on the diagonal moves mass 1 - sum of them
        overlap = 1.0 - float(np.minimum(p, q).sum())
        assert prokhorov_distance(p, q, d).value <= overlap + 1e-9


def test_prokhorov_rejects_nan_masses():
    # used to loop forever: NaN slipped through the sum-to-one check
    with pytest.raises(ValueError, match="non-finite"):
        prokhorov_distance([np.nan, np.nan], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        prokhorov_distance([0.5, 0.5], [np.nan, 1.0], [[0.0, 1.0], [1.0, 0.0]], exact=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("exact", [False, True])
def test_prokhorov_rejects_non_finite_grid(bad, exact):
    # a NaN ground distance used to give the value 0.0
    with pytest.raises(ValueError, match="non-finite"):
        prokhorov_distance([0.5, 0.5], [0.5, 0.5], [[0.0, bad], [1.0, 0.0]], exact=exact)


# ---------------------------------------------------------------------------
# the exact path: integer flows over one power-of-two denominator


@pytest.mark.parametrize("tiny", [1e-300, 5e-324])
def test_prokhorov_exact_masses_across_binary_exponents(tiny):
    # the common denominator is about 2^1049 (1e-300) or 2^1074 (the
    # smallest subnormal); at level 0.5 the flow 2 * tiny makes
    # 1 - flow < 1 exactly, so the exact scan moves the breakpoint off 0
    p, q = [1.0, tiny], [tiny, 1.0]
    d = [[0.5, 1.0], [1.0, 0.5]]
    r = prokhorov_distance(p, q, d, exact=True)
    assert (r.value, r.breakpoint) == (1.0, 0.5)
    assert r.coupling.mass.tolist() == [[tiny, 1.0], [0.0, tiny]]


def test_prokhorov_exact_zero_and_negative_masses():
    # a zero-mass atom gets no mass; level 0 places 0.75, level 0.5 all but 0.25
    d = [[0.0, 1.0], [0.0, 0.0], [1.0, 0.5]]
    r = prokhorov_distance([0.5, 0.0, 0.5], [0.25, 0.75], d, exact=True)
    assert (r.value, r.breakpoint) == (0.5, 0.5)
    assert r.coupling.mass.tolist() == [[0.25, 0.25], [0.0, 0.0], [0.0, 0.5]]
    # a mass negative within tol carries no flow and no leftover
    tiny = 2.0**-40
    d = [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]
    r = prokhorov_distance([0.5 + tiny, -tiny, 0.5], [0.5, 0.5], d, exact=True)
    assert (r.value, r.breakpoint) == (0.0, 0.0)
    assert r.coupling.mass.tolist() == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.5]]


def test_prokhorov_exact_ties_at_the_breakpoint():
    p, q = [0.75, 0.25], [0.5, 0.5]
    # levels 0 and 0.25 both give 0.25: the first one is kept and the
    # scan stops at the second without a flow
    r = prokhorov_distance(p, q, [[0.0, 0.25], [1.0, 0.0]], exact=True)
    assert (r.value, r.breakpoint) == (0.25, 0.0)
    assert r.coupling.mass.tolist() == [[0.5, 0.25], [0.0, 0.25]]
    # at level 0.25 the level equals 1 - flow
    r = prokhorov_distance(p, q, [[0.0, 1.0], [1.0, 0.25]], exact=True)
    assert (r.value, r.breakpoint) == (0.25, 0.25)
    assert r.coupling.mass.tolist() == [[0.5, 0.25], [0.0, 0.25]]


_weights = st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any)
_level = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 2.0))


@st.composite
def _instances(draw):
    """Small measures with zero masses and grids with many tied levels."""
    p = np.array(draw(_weights), float)
    q = np.array(draw(_weights), float)
    cells = draw(st.lists(_level, min_size=p.size * q.size, max_size=p.size * q.size))
    return p / p.sum(), q / q.sum(), np.array(cells).reshape(p.size, q.size)


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_prokhorov_exact_is_exactly_symmetric(inst):
    p, q, d = inst
    r = prokhorov_distance(p, q, d, exact=True)
    t = prokhorov_distance(q, p, d.T, exact=True)
    assert (r.value, r.breakpoint) == (t.value, t.breakpoint)


@settings(max_examples=25, deadline=None)
@given(_instances())
def test_prokhorov_exact_matches_oracle_and_witness(inst):
    p, q, d = inst
    r = prokhorov_distance(p, q, d, exact=True)
    assert r.value == pytest.approx(prokhorov_lp_oracle(p, q, d), abs=DEFAULT_TOL)
    r.coupling.check_marginals(p, q, tol=DEFAULT_TOL)
    assert delta_of_coupling(r.coupling) == pytest.approx(r.value, abs=DEFAULT_TOL)


@st.composite
def _one_grid_many_measures(draw):
    """A fixed second marginal p and its grid (tied levels, zero masses and
    n = 1 included), with one to four first marginals of the grid's rows."""
    q, p, d = draw(_instances())
    rows = st.lists(st.integers(0, 4), min_size=q.size, max_size=q.size).filter(any)
    more = [np.array(w, float) / sum(w) for w in draw(st.lists(rows, max_size=3))]
    return p, d, [q, *more]


@settings(max_examples=80, deadline=None)
@given(_one_grid_many_measures())
def test_prepared_grid_equals_prokhorov_distance(inst):
    # one prepared grid and measure serve every first marginal, with the
    # value of the full call bit for bit, zero levels also written as -0.0
    p, d, qs = inst
    for grid in (d, np.where(d == 0, -0.0, d)):
        to_p = coupling_mod._ProkhorovTo(p, grid)
        for q in qs:
            assert repr(to_p.solve(q)[0]) == repr(prokhorov_distance(q, p, grid).value)


def test_prepared_grid_on_the_smallest_grids():
    for level in (0.0, -0.0, 0.5):
        got = coupling_mod._ProkhorovTo([1.0], [[level]]).solve(np.array([1.0]))[0]
        assert repr(got) == repr(prokhorov_distance([1.0], [1.0], [[level]]).value)
    # no measure is empty, so only the search reaches the 0 x 0 grid: one
    # level, 0, at which the empty flow leaves nothing unplaced
    levels = [0.0]
    unplaced = lambda k: -coupling_mod._max_mass_within([], [], [], levels[k])[0]
    pick, value = coupling_mod._breakpoint(levels, unplaced, 0)
    assert (repr(value), pick, levels) == ("0.0", 0, [0.0])
    with pytest.raises(ValueError, match="first marginal sums to 0.0"):
        prokhorov_distance([], [], np.zeros((0, 0)))


def test_prepared_grid_rejects_what_prokhorov_distance_rejects():
    d = np.ones((3, 2))
    with pytest.raises(ValueError, match=re.escape("does not match marginals (2, 2)")):
        coupling_mod._ProkhorovTo([0.5, 0.5], d).solve(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=re.escape("does not match marginals (2, 2)")):
        prokhorov_distance([0.5, 0.5], [0.5, 0.5], d)
    with pytest.raises(ValueError, match=re.escape("does not match marginals (3, 3)")):
        coupling_mod._ProkhorovTo([0.5, 0.25, 0.25], d)
    with pytest.raises(ValueError, match="non-finite"):
        coupling_mod._ProkhorovTo([1.0], [[math.nan]])
    with pytest.raises(ValueError, match="first marginal sums to 0.9"):
        prokhorov_distance([0.4, 0.5], [1.0, 0.0], d[:2])


@pytest.mark.parametrize("exact", [False, True])
def test_prokhorov_logs_its_flows(monkeypatch, caplog, exact):
    calls = []
    types = set()

    def counting_flow(P, Q, D, level):
        calls.append(1)
        types.update(type(x) for x in P + Q)
        return flow(P, Q, D, level)

    flow = coupling_mod._max_mass_within
    monkeypatch.setattr(coupling_mod, "_max_mass_within", counting_flow)
    rng = rng_stream(39)
    p, q, d = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3)), rng.random((4, 3))
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        prokhorov_distance(p, q, d, exact=exact)
    lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("prokhorov")]
    # one max-flow per level probed: the breakpoint's flow is the witness
    assert lines == [f"prokhorov: 4 x 3 atoms, {len(calls)} of 13 levels probed, one max-flow each"]
    assert len(calls) > 1
    assert types == {int}  # float masses become scaled ints whatever the keyword


def _augment_max_flow(cap, flow, m):
    """Edmonds-Karp from node 0 to node m-1 on a dense residual matrix: the
    generic network the bipartite flow replaced."""
    added = 0
    while True:
        prev = [-1] * m
        prev[0] = 0
        fringe = [0]
        while fringe and prev[m - 1] == -1:
            nxt = []
            for u in fringe:
                for v in range(m):
                    if prev[v] == -1 and cap[u][v] > flow[u][v]:
                        prev[v] = u
                        nxt.append(v)
                        if v == m - 1:
                            break
            fringe = nxt
        if prev[m - 1] == -1:
            return added
        path = []
        v = m - 1
        while v != 0:
            path.append((prev[v], v))
            v = prev[v]
        bottleneck = min(cap[u][v] - flow[u][v] for u, v in path)
        for u, v in path:
            flow[u][v] += bottleneck
            flow[v][u] -= bottleneck
        added += bottleneck


def _dense_max_mass_within(P, Q, D, level):
    """The same max-flow on nodes source, rows, columns, sink, with pair
    capacity twice the larger mass total; returns what `_max_mass_within`
    returns."""
    r, c = len(P), len(Q)
    m = r + c + 2
    big = 2 * max(sum(P), sum(Q))
    cap = [[0] * m for _ in range(m)]
    cap[0][1 : 1 + r] = P
    for j in range(c):
        cap[1 + r + j][m - 1] = Q[j]
    for i in range(r):
        for j in range(c):
            if D[i][j] <= level:
                cap[1 + i][1 + r + j] = big
    flow = [[0] * m for _ in range(m)]
    placed = _augment_max_flow(cap, flow, m)
    mass = [flow[1 + i][1 + r : 1 + r + c] for i in range(r)]
    rres = [max(P[i] - sum(mass[i]), 0) for i in range(r)]
    cres = [max(Q[j] - sum(row[j] for row in mass), 0) for j in range(c)]
    return placed, mass, rres, cres


def _flow_instances():
    """Seeded small instances: Dirichlet, uniform and integer-weight masses
    with zeros, masses negative within tol, 1e-300 and 5e-324 masses,
    continuous and tied levels."""
    rng = rng_stream(41)
    for t in range(300):
        r, c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        ms = []
        for k in (r, c):
            kind = int(rng.integers(3))
            if kind == 0:
                w = rng.dirichlet(np.ones(k))
            elif kind == 1:
                w = np.full(k, 1.0 / k)
            else:
                w = rng.integers(0, 4, k).astype(float)
                w[0] += 1.0
                w /= w.sum()
            ms.append(w)
        p, q = ms
        if r > 1 and t % 10 == 0:
            tiny = [2.0**-40, 1e-300, 5e-324][t // 10 % 3]
            moved = -tiny if tiny == 2.0**-40 else tiny
            p[0] += p[1] - moved
            p[1] = moved
        if t % 2:
            d = rng.random((r, c))
        else:
            d = rng.integers(0, 5, (r, c)) / 4.0
        yield p, q, d


def test_bipartite_flow_equals_the_dense_network(monkeypatch):
    results = []
    for p, q, d in _flow_instances():
        r = prokhorov_distance(p, q, d)
        P, Q, _ = coupling_mod._same_denominator(*coupling_mod._dyadic(p), *coupling_mod._dyadic(q))
        for level in sorted(set(d.ravel())):
            placed, mass, rres, cres = coupling_mod._max_mass_within(P, Q, d.tolist(), level)
            want = _dense_max_mass_within(P, Q, d.tolist(), level)
            assert (placed, mass) == want[:2]
            assert [max(x, 0) for x in rres] == want[2]
            assert [max(x, 0) for x in cres] == want[3]
        results.append((p, q, d, r))
    monkeypatch.setattr(coupling_mod, "_max_mass_within", _dense_max_mass_within)
    for p, q, d, r in results:
        ref = prokhorov_distance(p, q, d)
        assert (repr(r.value), repr(r.breakpoint)) == (repr(ref.value), repr(ref.breakpoint))
        assert r.coupling.mass.tobytes() == ref.coupling.mass.tobytes()


# ---------------------------------------------------------------------------
# the galloping search against the level-by-level scan it replaced


def _prokhorov_scan(p, q, d):
    """One max-flow per sorted level until a level reaches the best value
    so far, in exact rationals: (value, breakpoint, coupling mass)."""
    P, Q, one = coupling_mod._same_denominator(*coupling_mod._dyadic(p), *coupling_mod._dyadic(q))
    D = np.asarray(d, dtype=float).tolist()
    total = max(sum(P), sum(Q))
    levels = sorted({x for row in D for x in row})
    if not levels or levels[0] > 0.0:
        levels.insert(0, 0.0)
    best = None
    for level in levels:
        v = Fraction(level)
        if best is not None and v >= best[0]:
            break
        placed, *witness = coupling_mod._max_mass_within(P, Q, D, level)
        val = max(v, Fraction(total - placed, total))
        if best is None or val < best[0]:
            best = val, v, witness
    val, v, (mass, rres, cres) = best
    northwest_fill(rres, cres, mass)
    return max(0.0, float(val)), float(v), np.array([[x / one for x in row] for row in mass])


def _assert_search_equals_scan(monkeypatch, p, q, d):
    calls = []
    flow = coupling_mod._max_mass_within

    def counting_flow(*args):
        calls.append(1)
        return flow(*args)

    with monkeypatch.context() as m:
        m.setattr(coupling_mod, "_max_mass_within", counting_flow)
        r = prokhorov_distance(p, q, d)
    value, breakpoint, mass = _prokhorov_scan(p, q, d)
    assert (repr(r.value), repr(r.breakpoint)) == (repr(value), repr(breakpoint))
    assert r.coupling.mass.tobytes() == mass.tobytes()
    n_levels = len({float(x) for x in np.ravel(d)} | {0.0})
    assert len(calls) <= 4 * math.ceil(math.log2(n_levels)) + 4


def test_galloping_search_equals_the_level_scan(monkeypatch):
    # the flow instances, again with their zero levels written as -0.0,
    # then 1 x 1 grids and larger continuous grids with hundreds of levels
    for p, q, d in _flow_instances():
        _assert_search_equals_scan(monkeypatch, p, q, d)
        if (d == 0).any():
            _assert_search_equals_scan(monkeypatch, p, q, np.where(d == 0, -0.0, d))
    for level in (0.0, -0.0, 0.5, 2.0):
        _assert_search_equals_scan(monkeypatch, [1.0], [1.0], [[level]])
    rng = rng_stream(42)
    for n in (12, 16, 20, 24):
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        _assert_search_equals_scan(monkeypatch, p, q, rng.random((n, n)))


@st.composite
def _search_instances(draw):
    """Integer weights with zeros, the last mass moved to 5e-324 or to
    -2^-40 (negative within tol), and levels with ties, -0.0 and 0.0."""
    ms = []
    for _ in range(2):
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(any)), float)
        w /= w.sum()
        if w.size > 1:
            tiny = draw(st.sampled_from([0.0, 5e-324, -(2.0**-40)]))
            w[0] += w[-1] - tiny
            w[-1] = tiny
        ms.append(w)
    p, q = ms
    level = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 2.0))
    cells = draw(st.lists(level, min_size=p.size * q.size, max_size=p.size * q.size))
    return p, q, np.array(cells).reshape(p.size, q.size)


@settings(max_examples=150, deadline=None)
@given(_search_instances())
def test_galloping_search_equals_the_level_scan_property(inst):
    with pytest.MonkeyPatch.context() as mp:
        _assert_search_equals_scan(mp, *inst)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_birkhoff_and_matching_reject_non_finite_grids(bad):
    # a NaN failed every comparison: birkhoff_decompose([[nan, 0], [0, 1]])
    # returned one term and epsilon_matching treated it as "not close"
    with pytest.raises(ValueError, match="non-finite"):
        birkhoff_decompose([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        epsilon_matching([[bad, 0.0], [0.0, 1.0]], 0.5)


@pytest.mark.parametrize("grid", [[1.0, 2.0], 0.5, np.zeros((2, 2, 2))])
def test_epsilon_matching_rejects_a_grid_that_is_not_2d(grid):
    # a flat grid failed with "not enough values to unpack"
    shape = np.shape(grid)
    with pytest.raises(ValueError, match=re.escape(f"expected a 2-d distance grid, got shape {shape}")):
        epsilon_matching(grid, 1.5)


def test_birkhoff_of_the_empty_grid_is_the_empty_permutation():
    # failed inside numpy ("zero-size array to reduction operation minimum")
    dec = birkhoff_decompose(np.zeros((0, 0)))
    assert dec.terms == ((1.0, ()),)
    assert dec.reconstruct().shape == (0, 0)


def test_epsilon_matching_checks_its_grid_at_the_callers_tol():
    grid = [[-1e-7, 1.0], [1.0, 0.0]]
    assert epsilon_matching(grid, 0.5, tol=1e-6).pairs == ((0, 0), (1, 1))
    with pytest.raises(ValueError, match="distance grid has a negative entry: -1e-07"):
        epsilon_matching(grid, 0.5)


def test_epsilon_matching_rejects_nan_epsilon():
    # used to return an empty matching
    with pytest.raises(ValueError, match="positive"):
        epsilon_matching([[0.0]], np.nan)


@st.composite
def _planar_triple(draw):
    """One cloud of 1-6 points in the unit square (half-step lattice points,
    which tie, or arbitrary ones) and three mass vectors on it whose integer
    weights may be zero."""
    k = draw(st.integers(1, 6))
    coord = st.one_of(st.integers(0, 2).map(lambda v: v / 2), st.floats(0.0, 1.0))
    pts = np.array(draw(st.lists(coord, min_size=2 * k, max_size=2 * k))).reshape(k, 2)
    masses = []
    for _ in range(3):
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), dtype=float)
        w[draw(st.integers(0, k - 1))] += 1.0
        masses.append(w / w.sum())
    return DistanceMatrix.from_points(pts).entries, masses


@settings(max_examples=100, deadline=None)
@given(_planar_triple())
def test_prokhorov_triangle_inequality(inst):
    ground, (p, q, s) = inst
    dps = prokhorov_distance(p, s, ground).value
    assert dps <= prokhorov_distance(p, q, ground).value + prokhorov_distance(q, s, ground).value + 1e-9


# ---------------------------------------------------------------------------
# the augmenting-path kernels against the cold searches they shortcut


@st.composite
def _residuals(draw):
    """Integer row and column residuals with zeros, negative ints (a mass
    within tol below 0, scaled), unequal totals and 0 x c or r x 0 shapes,
    and a starting mass grid of their shape."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rres = draw(st.lists(st.integers(-3, 6), min_size=r, max_size=r))
    cres = draw(st.lists(st.integers(-3, 6), min_size=c, max_size=c))
    mass = [draw(st.lists(st.integers(0, 3), min_size=c, max_size=c)) for _ in range(r)]
    return rres, cres, mass


@settings(max_examples=300, deadline=None)
@given(_residuals())
def test_fill_over_northwest_rows_equals_the_two_pointer_walk(inst):
    rres, cres, mass = inst
    want = [list(rres), list(cres), [list(row) for row in mass]]
    northwest_fill(*want)
    before = sum(map(sum, mass))
    placed = coupling_mod._fill(coupling_mod._northwest(rres, cres), rres, cres, mass)
    assert [rres, cres, mass] == want
    assert placed == sum(map(sum, mass)) - before


@settings(max_examples=150, deadline=None)
@given(_search_instances())
def test_flow_sweep_equals_the_bfs_at_every_level(inst):
    # masses with zeros, 5e-324 and -2^-40 (a negative int once scaled)
    p, q, d = inst
    P, Q, _ = coupling_mod._same_denominator(*coupling_mod._dyadic(p), *coupling_mod._dyadic(q))
    D = d.tolist()
    for level in sorted({x for row in D for x in row} | {-0.0}):
        assert coupling_mod._max_mass_within(P, Q, D, level) == max_mass_within_bfs(P, Q, D, level)


@settings(max_examples=150, deadline=None)
@given(_search_instances())
def test_prepared_grid_solves_one_flow_per_level_probed(inst):
    p, q, d = inst
    calls = []
    flow = coupling_mod._max_mass_within

    def counting_flow(*args):
        calls.append(args[3])
        return flow(*args)

    to_q = coupling_mod._ProkhorovTo(q, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling_mod, "_max_mass_within", counting_flow)
        _, _, flows, _ = to_q.solve(np.asarray(p))
    assert len(calls) == len(flows) == to_q.flows
    assert sorted(calls) == sorted(to_q.levels[k] for k in flows)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
def test_galloping_probes_stay_within_their_bound(lo, size, k):
    # probes at offsets 0, 1, 3, ..., 2^m - 1 for m = k.bit_length() reach
    # the answer lo + k, and the bisection of the 2^(m-1) - 1 offsets
    # between the last two probes takes at most m - 1 more: 2 m in all, and
    # one probe for k = 0 (tight at every power of two); capping a probe at
    # hi - 1 only shortens the gap
    hi, k = lo + size, min(k, size)
    probes = []

    def pred(x):
        probes.append(x)
        return x >= lo + k

    assert coupling_mod._first_true(pred, lo, hi) == lo + k
    assert len(probes) <= max(1, 2 * k.bit_length())
    assert all(lo <= x < hi for x in probes)


def _permutation_sum(rng, n, k, ties):
    """A doubly stochastic n x n grid: k random permutations with integer
    (tied) or continuous weights."""
    w = rng.integers(1, 4, k).astype(float) if ties else rng.random(k) + 0.2
    w /= w.sum()
    s = np.zeros((n, n))
    for wi in w:
        s[np.arange(n), rng.permutation(n)] += wi
    return s


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
def test_birkhoff_resume_equals_cold_matchings(n, k, ties, seed):
    s = _permutation_sum(np.random.default_rng(seed), n, k, ties)
    assert repr(birkhoff_decompose(s).terms) == repr(birkhoff_cold(s))


def test_birkhoff_resume_equals_cold_matchings_up_to_n_40():
    rng = rng_stream(43)
    for ties in (False, True):
        for n in range(1, 41):
            s = _permutation_sum(rng, n, max(1, n // 2), ties)
            assert repr(birkhoff_decompose(s).terms) == repr(birkhoff_cold(s))


def test_birkhoff_resume_still_rejects_a_support_without_perfect_matching():
    # sums within tol of 1, but the residual after the diagonal sits on one cell
    s = [[1.0, 1e-10], [0.0, 1.0]]
    with pytest.raises(AssertionError, match="no perfect matching"):
        birkhoff_cold(s)
    with pytest.raises(DegenerateSupportError, match="no perfect matching"):
        birkhoff_decompose(s)


def test_birkhoff_logs_its_terms_and_matched_rows(caplog):
    s = _permutation_sum(rng_stream(44), 30, 15, False)
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        dec = birkhoff_decompose(s)
        birkhoff_decompose(np.eye(3))
        birkhoff_decompose(np.zeros((0, 0)))
    lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("birkhoff")]
    rows = int(re.fullmatch(rf"birkhoff: n = 30, {dec.size} terms, (\d+) rows matched", lines[0]).group(1))
    # the first term matches every row, each later one at least the row it resumes at
    assert 30 + dec.size - 1 <= rows < 30 * dec.size
    assert lines[1:] == ["birkhoff: n = 3, 1 terms, 3 rows matched", "birkhoff: n = 0, 1 terms, 0 rows matched"]


def test_bitmask_matching_equals_the_cold_matching():
    # rectangular grids of every density, with the empty and full corners
    rng = rng_stream(48)
    grids = [np.zeros((0, 4), bool), np.zeros((4, 0), bool), np.zeros((0, 0), bool)]
    grids += [np.full((3, 5), True), np.full((5, 3), True), np.full((4, 4), False)]
    for _ in range(1500):
        r, c = (int(k) for k in rng.integers(0, 13, size=2))
        grids.append(rng.random((r, c)) < rng.random())
    for g in grids:
        got = coupling_mod._max_matching(coupling_mod._row_masks(g), g.shape[1])
        assert got == max_matching_cold(g)


def test_level_matchings_equal_cold_matchings_at_every_level():
    # 1-decimal entries tie, so most levels admit several pairs at once or none
    rng = rng_stream(49)
    for _ in range(300):
        r, c = (int(k) for k in rng.integers(0, 10, size=2))
        cross = np.round(rng.random((r, c)), 1)
        levels = sorted(set(cross.ravel().tolist()) | {0.05, 0.55, math.inf})
        got = list(coupling_mod._level_matchings(cross, levels))
        last = ()
        for eps, (pairs, rows) in zip(levels, got):
            _, match_l = max_matching_cold(cross < eps)
            assert pairs == tuple((i, j) for i, j in enumerate(match_l) if j != -1)
            # no search when a level admits no pair, else from some row on
            assert (rows == 0 and pairs == last) or 0 < rows <= r
            last = pairs
