import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from mmsdist import experiments, matmetric
from mmsdist.matmetric import PiWitness, _is_relabelling, _scan_pairs, _twin_prev
from mmsdist.sampling import enumerate_matrix_ensemble, rng_stream

from oracles import dm_bruteforce, dpi_bruteforce, mvc_bruteforce

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
            val = _scan_pairs(pairs, n)[0]
            memo[key] = val
        return val

    def dfs(k: int) -> None:
        if k == n:
            pairs = [p for chunk in prefix for p in chunk]
            val, cover = _scan_pairs(pairs, n)
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


def test_exact_search_scans_each_prefix_once(monkeypatch):
    # equal gap prefixes share one memo node, and the depth n - 1 scan is
    # the full alignment's dm, so no leaf scans its prefix a second time
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


def _matches(a, b):
    """The relabelling matcher on two grids, with its per-atom inputs."""
    rows_a, rows_b = a.tolist(), b.tolist()
    sorted_a = [tuple(sorted(r)) for r in rows_a]
    sorted_b = [tuple(sorted(r)) for r in rows_b]
    return _is_relabelling(rows_a, sorted_a, rows_b, sorted_b, _twin_prev(rows_b))


def test_matcher_decides_relabelling():
    rng = rng_stream(32)
    for t in range(300):
        n = int(rng.integers(0, 7))
        a = _sampled(rng, ("lattice", "equilateral", "zero")[t % 3], n)
        p = rng.permutation(n)
        b = a[np.ix_(p, p)] if t % 2 else _sampled(rng, "lattice", n)
        assert _matches(a, b) == (_dpi_exact_unpruned(a, b).value == 0.0)


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
    mats = [m.entries for m in enumerate_matrix_ensemble(_three_point_space(*sides), n).matrices()]
    labels = experiments._relabelling_classes(mats, 1e-9)[0]
    assert labels.tolist() == _reference_labels(mats)


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


@settings(max_examples=60, deadline=None)
@given(_twin_rich_pair())
def test_matcher_on_twin_rich_relabellings(inst):
    a, b, (p, q) = inst
    assert _matches(a, a[np.ix_(p, p)]) and _matches(b[np.ix_(q, q)], b)
    expected = _dpi_exact_unpruned(a, b).value == 0.0
    assert _matches(a, b) == expected
    assert _matches(a[np.ix_(p, p)], b[np.ix_(q, q)]) == expected


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
