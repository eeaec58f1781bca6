import gc
import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsdist import (
    DistanceMatrix,
    DmWitness,
    FiniteMMS,
    ModelSpace,
    SizeLimitError,
    dm_distance,
    dpi_distance,
    min_vertex_cover,
)
from mmsdist import matmetric
from mmsdist.matmetric import (
    PiWitness,
    _alignments,
    _scan_pairs,
    _share_budget,
    _twin_prev,
)
from mmsdist.sampling import enumerate_matrix_ensemble, rng_stream

from oracles import (
    dm_bruteforce,
    dpi_bruteforce,
    dpi_exact_scan,
    dpi_heuristic_rescan,
    min_vertex_cover_recursive,
    mvc_bruteforce,
    scan_pairs,
    twin_prev_all,
)

A_LINE = np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])  # points {0, 1, 3}
B_LINE = np.array([[0.0, 2, 3], [2, 0, 1], [3, 1, 0]])  # points {0, 2, 3}


def _random_symmetric(rng, n, with_diagonal=False):
    m = rng.random((n, n)) * 2.0
    m = (m + m.T) / 2.0
    if not with_diagonal:
        np.fill_diagonal(m, 0.0)
    return m


def test_dm_identical_matrices():
    w = dm_distance(A_LINE, A_LINE)
    assert w.value == 0.0 and w.excluded == () and w.max_residual == 0.0


def test_dm_two_point_example():
    w = dm_distance([[0, 1], [1, 0]], [[0, 3], [3, 0]])
    assert w.value == 0.5
    assert len(w.excluded) == 1
    assert w.max_residual == 0.0


def test_dm_line_example():
    w = dm_distance(A_LINE, B_LINE)
    assert w.value == pytest.approx(1 / 3, abs=0)
    assert w.excluded == (1,)


def test_dm_infimum_at_a_gap_value():
    # all three gaps 0.5: covering the triangle costs 2/3, so the infimum
    # sits exactly at the gap value with no exclusions
    a = np.zeros((3, 3))
    b = np.full((3, 3), 0.5)
    np.fill_diagonal(b, 0.0)
    w = dm_distance(a, b)
    assert w.value == 0.5 and w.excluded == ()


def test_dm_errors():
    with pytest.raises(ValueError):
        dm_distance([[0, 1], [1, 0]], [[0.0]])
    with pytest.raises(ValueError):
        dm_distance([[0, 1], [2, 0]], [[0, 1], [1, 0]])


def test_dm_oracle_equivalence_quick():
    rng = rng_stream(21)
    for k in range(40):
        n = 2 + k % 4
        a = _random_symmetric(rng, n, with_diagonal=(k % 5 == 0))
        b = _random_symmetric(rng, n, with_diagonal=(k % 5 == 0))
        assert dm_distance(a, b).value == dm_bruteforce(a, b)


def test_dm_witness_invariants():
    rng = rng_stream(22)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = _random_symmetric(rng, n)
        b = _random_symmetric(rng, n)
        w = dm_distance(a, b)
        assert len(w.excluded) <= n * w.value + 1e-9
        assert w.max_residual <= w.value + 1e-9


def test_dm_sup_metric_below_one_over_n():
    rng = rng_stream(23)
    hits = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = _random_symmetric(rng, n)
        b = a + rng.random((n, n)) * 0.05
        b = (b + b.T) / 2.0
        np.fill_diagonal(b, 0.0)
        w = dm_distance(a, b)
        if w.value < 1.0 / n:
            hits += 1
            assert w.value == pytest.approx(float(np.abs(a - b).max()), abs=0)
            assert w.excluded == ()
    assert hits > 50  # the regime is actually exercised


def test_dm_pseudo_metric_axioms_sample():
    rng = rng_stream(24)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = _random_symmetric(rng, n)
        b = _random_symmetric(rng, n)
        c = _random_symmetric(rng, n)
        assert dm_distance(a, a).value == 0.0
        assert dm_distance(a, b).value == dm_distance(b, a).value
        assert dm_distance(a, c).value <= dm_distance(a, b).value + dm_distance(b, c).value + 1e-9


def test_dpi_identity():
    w = dpi_distance(A_LINE, A_LINE)
    assert w.value == 0.0
    assert w.permutation == (0, 1, 2)
    assert w.exact


def test_dpi_line_reversal():
    w = dpi_distance(A_LINE, B_LINE)
    assert w.value == 0.0
    assert w.permutation == (2, 1, 0)


def test_dpi_quarter_pair():
    eps = 0.01
    x = DistanceMatrix.from_points([[-eps], [0.0], [eps], [1.0]])
    y = DistanceMatrix.from_points([[0.0], [eps], [1.0], [1.0 + eps]])
    w = dpi_distance(x.entries, y.entries)
    assert w.value == 0.25
    assert len(w.inner.excluded) == 1


def test_dpi_oracle_equivalence_quick():
    rng = rng_stream(25)
    for k in range(20):
        n = 2 + k % 4
        a = _random_symmetric(rng, n)
        b = _random_symmetric(rng, n)
        assert dpi_distance(a, b).value == dpi_bruteforce(a, b)


def test_dpi_le_dm():
    rng = rng_stream(26)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = _random_symmetric(rng, n)
        b = _random_symmetric(rng, n)
        assert dpi_distance(a, b).value <= dm_distance(a, b).value + 1e-12


def test_heuristic_upper_bounds_exact():
    rng = rng_stream(27)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = _random_symmetric(rng, n)
        b = _random_symmetric(rng, n)
        h = dpi_distance(a, b, mode="heuristic")
        e = dpi_distance(a, b, mode="exact")
        assert not h.exact and e.exact
        assert h.value >= e.value - 1e-12
        # the heuristic witness is self-consistent
        bp = b[np.ix_(h.permutation, h.permutation)]
        assert dm_distance(a, bp).value == h.value


def test_dpi_size_limit():
    rng = rng_stream(28)
    a = _random_symmetric(rng, 9)
    b = _random_symmetric(rng, 9)
    with pytest.raises(SizeLimitError):
        dpi_distance(a, b, mode="exact")
    w = dpi_distance(a, b, mode="heuristic")
    assert not w.exact
    w2 = dpi_distance(a, b, mode="exact", exact_limit=9)
    assert w2.value <= w.value + 1e-12


def test_min_vertex_cover_against_bruteforce():
    rng = rng_stream(29)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        edges = []
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.35:
                    edges.append((i, j))
        cover = min_vertex_cover(n, edges)
        assert cover is not None
        covered = all(i in cover or j in cover for i, j in edges)
        assert covered
        assert len(cover) == mvc_bruteforce(n, edges)
        cap = mvc_bruteforce(n, edges)
        assert min_vertex_cover(n, edges, max_size=cap - 1) is None or cap == 0


@pytest.mark.parametrize(
    "edges", [[(5, 5)], [(0, 5)], [(5, 0)], [(-1, 0)], [(0, -1)], [(-1, -1)], [(-3, 1)], [(0, 1.5)], [(0.5, 1)]]
)
def test_min_vertex_cover_rejects_vertices_outside_the_graph(edges):
    with pytest.raises(ValueError, match=r"0\.\.1"):
        min_vertex_cover(2, edges)


@pytest.mark.parametrize("n", [-1, 2.5, "3"])
def test_min_vertex_cover_rejects_a_bad_vertex_count(n):
    with pytest.raises(ValueError, match=rf"^n must be a non-negative integer .*, got {re.escape(repr(n))}$"):
        min_vertex_cover(n, [])


@st.composite
def _graph(draw):
    """A graph on 0 <= n <= 9 vertices; edges may repeat, run either way
    or be self-loops."""
    n = draw(st.integers(0, 9))
    if not n:
        return n, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


@settings(max_examples=150, deadline=None)
@given(_graph())
def test_min_vertex_cover_matches_the_recursive_kernel(graph):
    # same tree, same order: every budget and every valid lower bound gives
    # the cover (or None) the recursive kernel returns, from the edge list
    # and from the library's bitmask graph of it, which iterates as its edges
    n, edges = graph
    masks = matmetric._Graph(n)
    masks.add(edges)
    assert sorted(masks) == sorted({(min(i, j), max(i, j)) for i, j in edges})
    opt = len(min_vertex_cover_recursive(n, edges))
    for max_size in [None, *range(-1, n + 1)]:
        want = min_vertex_cover_recursive(n, edges, max_size)
        for lower in range(opt + 1):
            for form in (edges, masks):
                assert min_vertex_cover(n, form, max_size, lower=lower) == want


def _integer_grid(rng, n):
    m = rng.integers(0, 3, size=(n, n)).astype(float)
    return np.tril(m) + np.tril(m, -1).T


def test_witnesses_are_unchanged_under_the_recursive_kernel(monkeypatch):
    # dm, exact and heuristic dpi on random, twin-rich and integer grids:
    # the reprs with the recursive kernel patched in are the same bytes
    rng = rng_stream(34)
    kinds = ["random", "lattice", "equilateral", "zero"]
    cases = []
    for t, n in enumerate([*range(9), 12, 16, 24, 32, 48, 64] * 6):
        pair = [_random_symmetric(rng, n, with_diagonal=True) for _ in range(2)]
        if t % 3 == 1:
            pair = [_sampled(rng, kinds[t % 4], n) for _ in range(2)]
        elif t % 3 == 2:
            pair = [_integer_grid(rng, n) for _ in range(2)]
        modes = ["dm"] + ["exact"] * (n <= 7) + ["heuristic"] * (n <= 12)
        cases += [(mode, *pair) for mode in modes]

    def run():
        return [
            repr(dm_distance(a, b) if mode == "dm" else dpi_distance(a, b, mode=mode))
            for mode, a, b in cases
        ]

    got = run()
    monkeypatch.setattr(
        matmetric,
        "min_vertex_cover",
        lambda n, edges, max_size=None, lower=0: min_vertex_cover_recursive(n, edges, max_size),
    )
    assert got == run()


def test_calls_leave_no_cyclic_garbage():
    rng = rng_stream(35)
    a, b = _random_symmetric(rng, 6), _random_symmetric(rng, 6)
    c, d = _random_symmetric(rng, 10), _random_symmetric(rng, 10)
    calls = [
        lambda: min_vertex_cover(6, [(0, 1), (1, 2), (2, 0), (3, 3), (4, 5)]),
        lambda: dm_distance(a, b),
        lambda: dpi_distance(a, b, mode="exact"),
        lambda: dpi_distance(c, d, mode="heuristic"),
    ]
    for call in calls:
        call()
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dm_and_dpi_reject_non_finite(bad):
    # a NaN entry used to give dm = 0.0 with an empty exclusion set
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    broken = np.array([[0.0, bad], [bad, 0.0]])
    for first, second in ((good, broken), (broken, good)):
        with pytest.raises(ValueError, match="non-finite"):
            dm_distance(first, second)
        for mode in ("exact", "heuristic"):
            with pytest.raises(ValueError, match="non-finite"):
                dpi_distance(first, second, mode=mode)


def test_dm_and_dpi_on_empty_grids():
    # the cover share |lambda|/n used to divide by n = 0
    empty = np.zeros((0, 0))
    assert dm_distance(empty, empty) == DmWitness(0.0, (), 0.0)
    for mode in ("exact", "heuristic"):
        w = dpi_distance(empty, empty, mode=mode)
        assert (w.value, w.permutation, w.inner) == (0.0, (), DmWitness(0.0, (), 0.0))


@pytest.mark.parametrize("b", [0.0, 0.5, 2.0])
def test_dm_and_dpi_on_one_point(b):
    # n = 1 grids may carry a diagonal entry; excluding the point costs 1
    w = dm_distance([[0.0]], [[b]])
    assert w.value == min(b, 1.0) == dm_bruteforce([[0.0]], [[b]])
    assert w.excluded == (() if b < 1.0 else (0,))
    p = dpi_distance([[0.0]], [[b]])
    assert (p.value, p.permutation, p.inner) == (w.value, (0,), w)


# ---------------------------------------------------------------------------
# one gap rule: the dpi witness is the dm witness of the aligned grid


def _aligned(b, perm):
    p = np.asarray(perm, dtype=int)
    return b[np.ix_(p, p)]


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_dpi_witness_is_dm_of_the_aligned_grid_within_tol(mode):
    # both triangles moved apart by 5e-10 < tol: dm, the exact search and
    # the heuristic read every gap by the same rule, so the promise holds
    rng = rng_stream(33)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        a, b = (_random_symmetric(rng, n) for _ in range(2))
        upper = np.triu_indices(n, 1)
        for m in (a, b):
            m[upper] += rng.choice([-5e-10, 5e-10], size=upper[0].size)
        w = dpi_distance(a, b, mode=mode)
        inner = dm_distance(a, _aligned(b, w.permutation))
        assert w.value == inner.value and w.inner == inner


@st.composite
def _symmetric_pair(draw):
    """Two exactly symmetric grids of 0 <= n <= 6 points, diagonal included."""
    n = draw(st.integers(0, 6))
    mats = []
    for _ in range(2):
        m = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n * n, max_size=n * n)))
        m = m.reshape(n, n)
        mats.append(np.triu(m) + np.triu(m, 1).T)
    return mats


@settings(max_examples=80, deadline=None)
@given(_symmetric_pair())
def test_exact_dpi_at_most_dm(pair):
    a, b = pair
    assert dpi_distance(a, b).value <= dm_distance(a, b).value


@settings(max_examples=80, deadline=None)
@given(_symmetric_pair(), st.sampled_from(["exact", "heuristic"]))
def test_dpi_witness_is_dm_of_the_aligned_grid(pair, mode):
    a, b = pair
    w = dpi_distance(a, b, mode=mode)
    inner = dm_distance(a, _aligned(b, w.permutation))
    assert w.value == inner.value and w.inner == inner


# ---------------------------------------------------------------------------
# twin pruning


def _dpi_exact_unpruned(a, b):
    """The exact search before twin pruning, kept as the reference: every
    unused row of B is tried at every depth."""
    n = a.shape[0]
    a_list = a.tolist()
    b_list = b.tolist()
    perm = [-1] * n
    used = [False] * n
    best = {"value": math.inf, "perm": None, "witness": None}
    prefix: list = []
    memo: dict = {}

    def prefix_value(pairs) -> float:
        key = tuple(g for _, _, g in pairs)
        val = memo.get(key)
        if val is None:
            val = scan_pairs(pairs, n)[0]
            memo[key] = val
        return val

    def dfs(k: int) -> None:
        if k == n:
            pairs = [p for chunk in prefix for p in chunk]
            val, cover = scan_pairs(pairs, n)
            resid = max((g for i, j, g in pairs if i not in cover and j not in cover), default=0.0)
            if val < best["value"]:
                best["value"] = val
                best["perm"] = tuple(perm)
                best["witness"] = DmWitness(float(val), tuple(cover), float(resid))
            return
        ar = a_list[k]
        for j in range(n):
            if used[j]:
                continue
            perm[k] = j
            bt = b_list[j]
            chunk = [(t, k, abs(ar[t] - bt[perm[t]])) for t in range(k)]
            chunk.append((k, k, abs(ar[k] - bt[j])))
            prefix.append(chunk)
            lb = prefix_value([p for ch in prefix for p in ch])
            if lb < best["value"]:
                used[j] = True
                dfs(k + 1)
                used[j] = False
            prefix.pop()
        perm[k] = -1

    dfs(0)
    return PiWitness(float(best["value"]), best["perm"], best["witness"], True)


EQUILATERAL = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def _ground(rng, kind):
    """Distance matrix of a small ground space; sampling it repeats points."""
    k = int(rng.integers(1, 5))
    if kind == "equilateral":
        return EQUILATERAL
    if kind == "zero":
        return np.zeros((k, k))
    if kind == "lattice":
        pts = rng.integers(0, 4, size=(k, 2)) * 0.5
    else:
        pts = rng.random((k, 2))
    return DistanceMatrix.from_points(pts).entries


def _sampled(rng, kind, n):
    d = _ground(rng, kind)
    idx = rng.integers(0, d.shape[0], size=n)
    return d[np.ix_(idx, idx)]


def test_twin_pruned_search_equals_the_unpruned_search():
    # samples of 1-4 points repeat rows; the lex-smallest optimum places
    # twins in increasing order, so pruning must not move any witness
    rng = rng_stream(30)
    kinds = ["random", "lattice", "equilateral", "zero"]
    for t in range(1040):
        n = t % 8 if t < 160 else int(rng.integers(2, 7))
        a = _sampled(rng, kinds[t % 4], n)
        b = _sampled(rng, kinds[(t // 4) % 4], n)
        assert repr(dpi_distance(a, b)) == repr(_dpi_exact_unpruned(a, b))


def test_twin_pruning_on_grids_asymmetric_within_tol():
    # a transposition fixes B only when rows and columns both match, so an
    # asymmetry below tol splits a twin pair instead of moving the witness
    rng = rng_stream(31)
    for t in range(200):
        n = int(rng.integers(2, 7))
        a = _sampled(rng, "lattice", n)
        b = _sampled(rng, "lattice", n)
        i, j = rng.integers(0, n, size=2)
        b[i, j] += 1e-12 * (t % 3 - 1)
        assert repr(dpi_distance(a, b)) == repr(_dpi_exact_unpruned(a, b))


def test_twin_chains_equal_the_entry_by_entry_test():
    # sampled grids repeat rows (twins); a shift below tol in one cell, or
    # in a cell and its mirror, splits a pair or keeps it
    rng = rng_stream(47)
    kinds = ["random", "lattice", "equilateral", "zero"]
    for t in range(600):
        n = t % 8 if t < 80 else int(rng.integers(2, 8))
        b = _sampled(rng, kinds[t % 4], n)
        if n and t % 3:
            i, j = rng.integers(0, n, size=2)
            b[i, j] += 4e-10
            if t % 3 == 2:
                b[j, i] += 4e-10
        b_list = b.tolist()
        assert _twin_prev(b_list) == twin_prev_all(b_list)


def test_exact_search_scans_each_prefix_once(monkeypatch):
    # only a full alignment whose dm is below the incumbent is scanned, so
    # no scan sees the gap pairs of an earlier one
    scanned: list = []

    def spy(pairs, denom):
        scanned.append(tuple(pairs))
        return _scan_pairs(pairs, denom)

    monkeypatch.setattr(matmetric, "_scan_pairs", spy)
    rng = rng_stream(33)
    kinds = ["random", "lattice", "equilateral", "zero"]
    for t in range(200):
        n = int(rng.integers(1, 7))
        a = _sampled(rng, kinds[t % 4], n)
        b = _sampled(rng, kinds[(t // 4) % 4], n)
        scanned.clear()
        w = dpi_distance(a, b, mode="exact")
        assert scanned and len(set(scanned)) == len(scanned)
        assert repr(w) == repr(_dpi_exact_unpruned(a, b))


_GRID_KINDS = st.sampled_from(["random", "lattice", "equilateral", "zero"])


@settings(max_examples=100, deadline=None)
@given(st.tuples(_GRID_KINDS, _GRID_KINDS), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_exact_search_scans_at_most_one_leaf_per_dm_value(kinds, n, seed):
    # the cost law: a leaf is scanned only when its dm is below the
    # incumbent, so the scanned values strictly decrease and there are no
    # more of them than distinct dm values over all alignments
    rng = rng_stream(seed)
    a, b = (_sampled(rng, kind, n) for kind in kinds)
    values = {dm_distance(a, b[np.ix_(p, p)]).value for p in itertools.permutations(range(n))}
    scanned: list = []

    def spy(pairs, denom):
        out = _scan_pairs(pairs, denom)
        scanned.append(out[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matmetric, "_scan_pairs", spy)
        dpi_distance(a, b, mode="exact")
    assert all(x > y for x, y in zip(scanned, scanned[1:]))
    assert set(scanned) <= values and len(scanned) <= len(values)


def _reference_labels(mats):
    """Class of each matrix: the first earlier class whose representative
    it matches at unpruned dpi 0.0."""
    reps: list = []
    labels = []
    for m in mats:
        for k, r in enumerate(reps):
            if _dpi_exact_unpruned(r, m).value == 0.0:
                labels.append(k)
                break
        else:
            labels.append(len(reps))
            reps.append(m)
    return labels


def _three_point_space(d01, d02, d12):
    d = np.array([[0.0, d01, d02], [d01, 0.0, d12], [d02, d12, 0.0]])
    space = FiniteMMS(labels=("a", "b", "c"), dist=DistanceMatrix(d), mass=np.full(3, 1 / 3))
    return ModelSpace.finite(space)


@pytest.mark.parametrize("sides, n", [((1.0, 1.5, 2.0), 4), ((1.0, 1.0, 2.0), 4), ((1.0, 1.0, 1.0), 5)])
def test_relabelling_classes_match_the_unpruned_search(sides, n):
    ens = enumerate_matrix_ensemble(_three_point_space(*sides), n)
    labels = _reference_labels([m.entries for m in ens.matrices()])
    assert ens.classes.tolist() == [labels.index(k) for k in labels]


@st.composite
def _class_spaces(draw):
    """A space of 1-4 points and a sample size n = 1-5 with at most 81
    tuples: lattice points (ties, coincident points), a regular polygon
    (whose isometries merge atoms of different multisets) or random points,
    with integer weights, zeros allowed."""
    kind = draw(st.sampled_from(["lattice", "polygon", "random"]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, max(m for m in range(1, 6) if k**m <= 81)))
    if kind == "lattice":
        pts = np.array(draw(st.lists(st.integers(0, 2), min_size=2 * k, max_size=2 * k)), float).reshape(k, 2) / 2
    elif kind == "polygon":
        angles = 2 * np.pi * np.arange(k) / k
        pts = np.c_[np.cos(angles), np.sin(angles)]
    else:
        pts = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k))).reshape(k, 2)
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), float)
    if not weights.any():
        weights[draw(st.integers(0, k - 1))] = 1.0
    space = FiniteMMS(tuple(f"p{i}" for i in range(k)), DistanceMatrix.from_points(pts), weights / weights.sum())
    return ModelSpace.finite(space), n


@settings(max_examples=80, deadline=None)
@given(_class_spaces())
def test_enumerated_classes_are_the_unpruned_partition(inst):
    # on exactly symmetric atoms, the classes read off the tuples are the
    # classes of unpruned dpi 0, as a read-only first-member map
    space, n = inst
    ens = enumerate_matrix_ensemble(space, n)
    labels = _reference_labels([m.entries for m in ens.matrices()])
    assert ens.classes.tolist() == [labels.index(k) for k in labels]
    assert not ens.classes.flags.writeable


@st.composite
def _ensemble_pair(draw):
    """The ensembles of two spaces of 1-3 uniform points at one sample size
    n = 1-4, at most 27 tuples each; coordinates on a half-step lattice
    (coincident points, ties) or in [0, 1.5]."""
    n = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(0, 3).map(lambda v: v / 2), st.floats(0.0, 1.5))
    ensembles = []
    for _ in range(2):
        k = draw(st.integers(1, 3 if n <= 3 else 2))
        pts = np.array(draw(st.lists(coord, min_size=2 * k, max_size=2 * k))).reshape(k, 2)
        space = FiniteMMS(tuple(f"p{i}" for i in range(k)), DistanceMatrix.from_points(pts), np.full(k, 1 / k))
        ensembles.append(enumerate_matrix_ensemble(ModelSpace.finite(space), n))
    return ensembles


@settings(max_examples=60, deadline=None)
@given(_ensemble_pair())
def test_dpi_grid_runs_one_dpi_per_pair_of_class_starts(ensembles):
    # cost law: one exact dpi per pair of class starts, and no other matrix
    # comparison (the search is stubbed, so any comparison made is outside it)
    calls, outside = [], []

    def stub(a, b):
        calls.append(1)
        return PiWitness(0.0, (), DmWitness(0.0, (), 0.0), exact=True)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matmetric, "_dpi_exact", stub)
        for name in ("_aligned_scan", "_alignments", "_twin_prev", "_below", "min_vertex_cover"):
            mp.setattr(matmetric, name, lambda *args, **kwargs: outside.append(1))
        matmetric._cross_grid(*ensembles, (True,), 1e-9)
    starts = [np.count_nonzero(e.classes == np.arange(e.size)) for e in ensembles]
    assert len(calls) == starts[0] * starts[1] and not outside


@st.composite
def _twin_rich_pair(draw, min_n=0):
    """Two samples of min_n <= n <= 6 points from 1-3-point spaces on a
    half-step lattice, plus a relabelling of each."""
    n = draw(st.integers(min_n, 6))
    mats = []
    for _ in range(2):
        k = draw(st.integers(1, 3))
        halves = draw(st.lists(st.integers(0, 3), min_size=2 * k, max_size=2 * k))
        pts = np.array(halves, float).reshape(k, 2) / 2
        idx = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        mats.append(DistanceMatrix.from_points(pts).entries[np.ix_(idx, idx)])
    perms = [np.array(draw(st.permutations(range(n))), dtype=int) for _ in range(2)]
    return mats[0], mats[1], perms


@settings(max_examples=80, deadline=None)
@given(_twin_rich_pair(min_n=1))  # the oracle enumerates no permutation at n = 0
def test_dpi_on_twin_rich_samples_matches_bruteforce(inst):
    a, b, _ = inst
    assert dpi_distance(a, b).value == dpi_bruteforce(a, b)


@settings(max_examples=80, deadline=None)
@given(_twin_rich_pair())
def test_dpi_on_twin_rich_samples_ignores_relabelling(inst):
    a, b, (p, q) = inst
    value = dpi_distance(a, b).value
    assert dpi_distance(a[np.ix_(p, p)], b).value == value
    assert dpi_distance(a, b[np.ix_(q, q)]).value == value


def _twins(b):
    """twins[i][j]: whether swapping rows and columns i and j leaves B
    unchanged."""
    n = len(b)

    def swapped(i, j):
        s = list(range(n))
        s[i], s[j] = j, i
        return b[np.ix_(s, s)]

    return [[np.array_equal(swapped(i, j), b) for j in range(n)] for i in range(n)]


def _twin_ordered(b):
    """The permutations that place each twin class of B in increasing
    order, in lex order, by brute force."""
    n = len(b)
    twins = _twins(b)
    return [
        p
        for p in itertools.permutations(range(n))
        if all(p.index(i) < p.index(j) for i in range(n) for j in range(i + 1, n) if twins[i][j])
    ]


@settings(max_examples=100, deadline=None)
@given(_twin_rich_pair())
def test_alignment_walk_places_each_twin_class_in_increasing_order(inst):
    _, b, _ = inst
    n = len(b)
    walked = [tuple(p) for p in _alignments(n, _twin_prev(b.tolist()), lambda perm, rows: True)]
    twins = _twins(b)
    expected = _twin_ordered(b)
    sizes = {}
    for j in range(n):
        first = twins[j].index(True)  # the lowest row of j's class
        sizes[first] = sizes.get(first, 0) + 1
    assert walked == expected
    assert len(walked) == math.factorial(n) // math.prod(math.factorial(c) for c in sizes.values())


class _Logged(logging.Handler):
    """The ``mmsdist`` debug lines starting with ``prefix`` logged while in
    use (``caplog`` is function-scoped, which hypothesis rejects)."""

    def __init__(self, prefix):
        super().__init__()
        self.prefix, self.lines = prefix, []

    def __enter__(self):
        logger = logging.getLogger("mmsdist")
        self._level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        logger = logging.getLogger("mmsdist")
        logger.removeHandler(self)
        logger.setLevel(self._level)

    def emit(self, record):
        if record.getMessage().startswith(self.prefix):
            self.lines.append(record.getMessage())


@settings(max_examples=100, deadline=None)
@given(_twin_rich_pair(min_n=1))  # n = 0 logs no walk
def test_exact_walk_reaches_only_twin_ordered_prefixes(inst):
    # cost law: the walk asks each prefix once, and only prefixes that
    # place each twin class of B in increasing order
    a, b, _ = inst
    with _Logged("dpi exact") as log:
        dpi_distance(a, b)
    (line,) = log.lines
    prefixes = {p[:k] for p in _twin_ordered(b) for k in range(1, len(b) + 1)}
    assert int(re.search(r"(\d+) nodes", line).group(1)) <= len(prefixes)


def test_alignment_walk_extends_no_rejected_prefix():
    b = _random_symmetric(rng_stream(34), 4, with_diagonal=True)
    asked = []

    def fits(perm, rows):
        asked.append(tuple(perm[:rows]))
        return perm[:rows] != [1, 0]

    walked = [tuple(p) for p in _alignments(4, _twin_prev(b.tolist()), fits)]
    assert walked == [p for p in itertools.permutations(range(4)) if p[:2] != (1, 0)]
    assert (1, 0) in asked and not [p for p in asked if len(p) > 2 and p[:2] == (1, 0)]
    assert len(set(asked)) == len(asked)


# ---------------------------------------------------------------------------
# dm pseudo-metric properties


@st.composite
def _grid_triple(draw):
    """Three symmetric n x n grids (0 <= n <= 5, diagonals included) whose
    entries mix half-steps, which tie, with arbitrary floats in [0, 2]."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(0, 4).map(lambda v: v / 2), st.floats(0.0, 2.0))
    grids = []
    for _ in range(3):
        m = np.zeros((n, n))
        m[np.tril_indices(n)] = draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
        grids.append(np.tril(m) + np.tril(m, -1).T)
    return grids


@settings(max_examples=100, deadline=None)
@given(_grid_triple())
def test_dm_is_symmetric(grids):
    a, b, _ = grids
    assert dm_distance(a, b).value == dm_distance(b, a).value


@settings(max_examples=100, deadline=None)
@given(_grid_triple())
def test_dm_triangle_inequality(grids):
    a, b, c = grids
    assert dm_distance(a, c).value <= dm_distance(a, b).value + dm_distance(b, c).value + 1e-9


# ---------------------------------------------------------------------------
# share budgets and the heuristic's decision calls


def test_share_budget_is_the_largest_share_below():
    # by the float division the scan makes, also one ulp either side of
    # every share and above 1
    for denom in range(1, 70):
        for m in range(denom + 1):
            share = m / denom
            for inc in (math.nextafter(share, -1.0), share, math.nextafter(share, 2.0), 1.5, 1e308):
                want = max((k for k in range(denom + 1) if k / denom < inc), default=-1)
                assert _share_budget(inc, denom) == want


@st.composite
def _gap_list(draw):
    """The (t, k, gap) pairs of 0 <= n <= 9 points, t <= k, row by row as
    ``_aligned_pairs`` builds them, diagonal self-loops included: gaps all
    zero, tied on thirds and halves (some equal to shares m / n),
    arbitrary, or zero off the diagonal."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["zero", "ties", "floats", "diagonal"]))
    gaps = st.floats(0.0, 2.0) if kind == "floats" else st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 1.0])
    pairs = []
    for k in range(n):
        for t in range(k + 1):
            off = kind == "zero" or (kind == "diagonal" and t < k)
            pairs.append((t, k, 0.0 if off else draw(gaps)))
    return pairs, n


@settings(max_examples=300, deadline=None)
@given(_gap_list())
def test_scan_pairs_equals_the_reference_scan(case):
    pairs, n = case
    assert repr(_scan_pairs(pairs, n)) == repr(scan_pairs(pairs, n))


def test_dm_one_ulp_above_a_share_matches_the_oracle():
    # 3 * x rounds to 1.0, so a budget of ceil(3x) - 1 stopped the scan
    # before the cover of one vertex (share 1/3 < x) and returned x
    x = math.nextafter(1 / 3, 1.0)
    a = np.array([[0.0, x, 0.1], [x, 0.0, 0.1], [0.1, 0.1, 0.0]])
    b = np.zeros((3, 3))
    want = dm_bruteforce(a, b)
    assert want == 1 / 3
    assert dm_distance(a, b).value == want
    assert dpi_distance(a, b).value == dpi_bruteforce(a, b) == want
    assert dpi_distance(a, b, mode="heuristic").value == want


def test_dm_with_gaps_near_the_float_limit():
    # the budget of such a value overflowed ceil()
    a = np.array([[0.0, 1e308], [1e308, 0.0]])
    b = np.zeros((2, 2))
    assert dm_distance(a, b).value == dm_bruteforce(a, b) == 0.5
    assert dpi_distance(a, b, mode="heuristic").value == 0.5


@st.composite
def _tie_rich_pair(draw):
    """Two grids of 0 <= n <= 10 points, diagonal included, whose entries
    are thirds and halves (gaps tie with each other and with the shares
    m / n), arbitrary floats or all zero.  A is symmetric; B is symmetric,
    or its upper triangle is moved by tol / 2 (symmetric only within tol),
    so a gap read from the upper triangle differs from the rule's."""
    n = draw(st.integers(0, 10))
    entries = draw(
        st.sampled_from(
            [st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 1.0]), st.floats(0.0, 2.0), st.just(0.0)]
        )
    )
    mats = []
    for _ in range(2):
        m = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
        mats.append(np.triu(m) + np.triu(m, 1).T)
    mats[1][np.triu_indices(n, 1)] += draw(st.sampled_from([0.0, 5e-10, -5e-10]))
    return mats


# tied gaps, B's upper triangle moved by -tol / 2: a heuristic whose swap
# update read a gap from the upper triangle would take other swaps here
_SKEWED_TIES = [
    np.array([[1, 1 / 3, 1 / 3, 2 / 3], [1 / 3, 1 / 3, 1 / 3, 0], [1 / 3, 1 / 3, 0, 0.5], [2 / 3, 0, 0.5, 0.5]]),
    np.array([[1 / 3, 1, 1 / 3, 1], [1, 2 / 3, 0.5, 0], [1 / 3, 0.5, 0, 1 / 3], [1, 0, 1 / 3, 1 / 3]])
    - 5e-10 * np.triu(np.ones((4, 4)), 1),
]


@settings(max_examples=150, deadline=None)
@given(_tie_rich_pair())
@example(_SKEWED_TIES)
def test_heuristic_equals_the_full_rescan(pair):
    a, b = pair
    assert repr(dpi_distance(a, b, mode="heuristic")) == repr(dpi_heuristic_rescan(a, b))


def test_dm_logs_its_scan(caplog):
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        dm_distance(np.zeros((0, 0)), np.zeros((0, 0)))
        dm_distance(np.zeros((3, 3)), np.zeros((3, 3)))
        dm_distance(A_LINE, B_LINE)
    # with no positive gap the scan makes no cover; the line pair's one
    # positive gap, 1, seeds the incumbent and threshold 0 takes one cover
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("dm scan")] == [
        "dm scan: n = 0, 1 thresholds, 0 cover calls",
        "dm scan: n = 3, 1 thresholds, 0 cover calls",
        "dm scan: n = 3, 2 thresholds, 1 cover calls",
    ]


@settings(max_examples=150, deadline=None)
@given(_tie_rich_pair())
def test_dm_scan_cost_law(pair):
    # T is the number of distinct positive gaps plus 0, the largest gap
    # takes no cover, and every cover the scan makes is counted
    a, b = pair
    n = len(a)
    gaps = {abs(a[k, t] - b[k, t]) for k in range(n) for t in range(k + 1)}
    calls, lines = [], []
    cover = matmetric.min_vertex_cover

    def spy(*args, **kwargs):
        calls.append(1)
        return cover(*args, **kwargs)

    class Lines(logging.Handler):
        def emit(self, record):
            lines.append(record.getMessage())

    logger, handler = logging.getLogger("mmsdist"), Lines()
    level = logger.level
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matmetric, "min_vertex_cover", spy)
        logger.setLevel(logging.DEBUG)
        logger.addHandler(handler)
        try:
            dm_distance(a, b)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
    (line,) = [x for x in lines if x.startswith("dm scan")]
    got_n, thresholds, covers = map(int, re.findall(r"\d+", line))
    assert got_n == n and thresholds == len(gaps - {0.0}) + 1
    assert covers == len(calls) <= max(thresholds - 1, 0)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_heuristic_equals_the_full_rescan_on_the_smallest_grids(n):
    rng = rng_stream(41)
    for a, b in [
        (np.zeros((n, n)), np.zeros((n, n))),
        (np.zeros((n, n)), _integer_grid(rng, n)),
        (_random_symmetric(rng, n, with_diagonal=True), _random_symmetric(rng, n, with_diagonal=True)),
    ]:
        assert repr(dpi_distance(a, b, mode="heuristic")) == repr(dpi_heuristic_rescan(a, b))


def test_heuristic_witness_at_n13_is_pinned():
    # recorded with the full rescan of every trial swap
    rng = rng_stream(17)
    a, b = (_random_symmetric(rng, 13) for _ in range(2))
    assert repr(dpi_distance(a, b, mode="heuristic")) == (
        "PiWitness(value=0.40418723441650983, permutation=(6, 0, 11, 4, 3, 2, 7, 9, 5, 1, 12, 10, 8), "
        "inner=DmWitness(value=0.40418723441650983, excluded=(3, 6, 7, 9, 11), "
        "max_residual=0.40418723441650983), exact=False)"
    )


def test_heuristic_logs_its_swaps(caplog):
    def lines():
        return [r.getMessage() for r in caplog.records if r.getMessage().startswith("dpi heuristic")]

    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        dpi_distance(np.zeros((4, 4)), np.zeros((4, 4)), mode="heuristic")
    # a value of 0 needs no decision call
    assert lines() == ["dpi heuristic: n = 4, 1 passes, 6 swaps tested, 0 accepted, 0 decision calls"]

    caplog.clear()
    rng = rng_stream(17)
    a, b = (_random_symmetric(rng, 13) for _ in range(2))
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        dpi_distance(a, b, mode="heuristic")
    (line,) = lines()
    n, passes, tested, accepted, decisions = map(int, re.findall(r"\d+", line))
    assert n == 13 and passes >= 2 and tested == passes * 78
    # every swap before the value reaches 0 is one decision call
    assert 0 < accepted < decisions == tested


# ---------------------------------------------------------------------------
# the exact search's decision calls


def _symmetric_from(entries, n):
    """The symmetric n x n grid whose upper triangle, diagonal included, is
    ``entries`` read row by row."""
    m = np.zeros((n, n))
    m[np.triu_indices(n)] = entries
    return np.triu(m) + np.triu(m, 1).T


@st.composite
def _exact_pair(draw):
    """Two grids of 0 <= n <= 7 points of one kind: random floats, half-step
    lattices, thirds against sevenths (gaps tie with the shares m / 7),
    all zero against a lattice or zero, samples of two-point spaces (the
    ensemble atoms), or lattices moved apart by 5e-10 across the diagonal."""
    n = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["random", "lattice", "thirds-sevenths", "zero", "two-class", "asymmetric"]))
    size = n * (n + 1) // 2

    def grid(values):
        return _symmetric_from(draw(st.lists(values, min_size=size, max_size=size)), n)

    half_steps = st.integers(0, 3).map(lambda v: v / 2)
    if kind == "random":
        return grid(st.floats(0.0, 2.0)), grid(st.floats(0.0, 2.0))
    if kind == "thirds-sevenths":
        return grid(st.integers(0, 3).map(lambda v: v / 3)), grid(st.integers(0, 7).map(lambda v: v / 7))
    if kind == "zero":
        return np.zeros((n, n)), grid(draw(st.sampled_from([half_steps, st.just(0.0)])))
    if kind == "two-class":
        mats = []
        for _ in range(2):
            d = draw(st.sampled_from([0.5, 1.0]))
            idx = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=int)
            mats.append(np.array([[0.0, d], [d, 0.0]])[np.ix_(idx, idx)])
        return tuple(mats)
    a, b = grid(half_steps), grid(half_steps)
    if kind == "asymmetric":
        upper = np.triu_indices(n, 1)
        moves = st.lists(st.sampled_from([-5e-10, 5e-10]), min_size=upper[0].size, max_size=upper[0].size)
        for m in (a, b):
            m[upper] += np.array(draw(moves))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_exact_pair())
def test_exact_search_equals_the_scan_per_node_search(pair):
    a, b = pair
    assert repr(dpi_distance(a, b)) == repr(dpi_exact_scan(a, b))


@settings(max_examples=200, deadline=None)
@given(_exact_pair())
def test_exact_search_decides_nothing_before_its_first_incumbent(pair):
    # the cost law: with no incumbent every prefix passes, so the search
    # runs straight to its first leaf and scans it before any _below call
    calls: list = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matmetric, "_below", counted("below", matmetric._below))
        mp.setattr(matmetric, "_scan_pairs", counted("scan", matmetric._scan_pairs))
        dpi_distance(*pair)
    assert calls[:1] == (["scan"] if len(pair[0]) else [])


def test_exact_witness_at_n8_is_pinned():
    # recorded with the scan-per-node search
    rng = rng_stream(42)
    a, b = (_symmetric_from(rng.random(36) * 2, 8) for _ in range(2))
    assert repr(dpi_distance(a, b)) == (
        "PiWitness(value=0.39103674783300546, permutation=(2, 6, 7, 0, 3, 1, 5, 4), "
        "inner=DmWitness(value=0.39103674783300546, excluded=(0, 1, 2), "
        "max_residual=0.39103674783300546), exact=True)"
    )


def test_exact_search_logs_its_decisions(caplog, monkeypatch):
    def lines():
        return [r.getMessage() for r in caplog.records if r.getMessage().startswith("dpi exact")]

    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        dpi_distance(np.zeros((4, 4)), np.zeros((4, 4)))
    # every row of B is a twin: one path, entered with no incumbent, whose
    # leaf gives 0 and ends the search
    assert lines() == ["dpi exact: n = 4, 4 nodes, 0 decision calls, 1 leaves scanned"]

    calls = {"below": 0, "scan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(matmetric, "_below", counted("below", matmetric._below))
    monkeypatch.setattr(matmetric, "_scan_pairs", counted("scan", matmetric._scan_pairs))
    rng = rng_stream(43)
    a, b = (_random_symmetric(rng, 6, with_diagonal=True) for _ in range(2))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        dpi_distance(a, b)
    (line,) = lines()
    n, nodes, decisions, leaves = map(int, re.findall(r"\d+", line))
    assert (n, decisions, leaves) == (6, calls["below"], calls["scan"])
    assert nodes >= n and 0 < leaves < nodes
