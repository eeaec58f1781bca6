import dataclasses
import itertools
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsdist import (
    BudgetError,
    DistanceMatrix,
    FiniteMMS,
    MatrixEnsemble,
    ModelSpace,
    check_distance_matrix,
    empirical_space,
    enumerate_matrix_ensemble,
)
from mmsdist import matmetric
from mmsdist.experiments import two_point_space
from mmsdist.core import DEFAULT_TOL
from mmsdist.sampling import rng_stream, sample_counts, sample_indices, trial_streams
from oracles import enumerate_matrix_ensemble_loop


def test_single_sample():
    s = empirical_space(ModelSpace.interval(), 1, seed=0)
    assert s.n == 1
    assert s.mass[0] == 1.0
    assert s.dist.entries[0, 0] == 0.0


def test_empirical_two_point_entry_law():
    # off-diagonal entries are 2C exactly when the two draws differ:
    # P = 2 eps (1 - eps) per entry
    eps = 0.2
    space = ModelSpace.finite(two_point_space(2.0, eps, "x"))
    hits = 0
    trials = 4000
    for t in range(trials):
        s = empirical_space(space, 2, seed=5, stream=t)
        if s.dist.entries[0, 1] == 2.0:
            hits += 1
    p_hat = hits / trials
    p_true = 2 * eps * (1 - eps)
    assert abs(p_hat - p_true) < 4 * np.sqrt(p_true * (1 - p_true) / trials)


def test_empirical_circle_valid_and_bounded():
    s = empirical_space(ModelSpace.circle(1.0), 3, seed=7)
    assert check_distance_matrix(s.dist.entries) == []
    assert float(s.dist.entries.max()) <= 0.5


def test_empirical_kinds_all_validate():
    spaces = [
        ModelSpace.interval(),
        ModelSpace.circle(2.5),
        ModelSpace.euclidean_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.2, 0.3, 0.5]),
        ModelSpace.finite(two_point_space(0.5, 0.3, "x")),
    ]
    for k, sp in enumerate(spaces):
        s = empirical_space(sp, 6, seed=11, stream=k)
        assert check_distance_matrix(s.dist.entries) == []
        assert np.all(s.mass == 1.0 / 6)


def test_empirical_determinism_bitwise():
    sp = ModelSpace.circle(1.0)
    a = empirical_space(sp, 10, seed=123, stream=4)
    b = empirical_space(sp, 10, seed=123, stream=4)
    assert a.dist.entries.tobytes() == b.dist.entries.tobytes()
    c = empirical_space(sp, 10, seed=123, stream=5)
    assert a.dist.entries.tobytes() != c.dist.entries.tobytes()
    # a point cloud's sample distances are from_points of the same draws
    coords = rng_stream(7).random((6, 2))
    pts = ModelSpace.euclidean_points(coords, [0.1, 0.3, 0.1, 0.2, 0.2, 0.1])
    e = empirical_space(pts, 10, seed=123, stream=4)
    idx = sample_indices(pts.weights, 10, rng_stream(123, 4))
    want = DistanceMatrix.from_points(coords[idx]).entries
    assert e.dist.entries.tobytes() == want.tobytes()
    assert empirical_space(pts, 10, seed=123, stream=4).dist.entries.tobytes() == want.tobytes()


def test_empirical_rejects_empty():
    with pytest.raises(ValueError):
        empirical_space(ModelSpace.interval(), 0, seed=0)


def _state(rng):
    """A generator's whole state, buffer included, as comparable values."""
    s = rng.bit_generator.state
    return (
        s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
        s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"],
    )


@st.composite
def _walks(draw):
    """(seed, trials, uses): a seed as an int, np.uint64 or np.int64, and per
    trial how many doubles and uint32 values it draws (an odd count of
    either leaves the Philox buffer part-used)."""
    seed = draw(st.integers(0, 2**64 - 1))
    seed = draw(st.sampled_from([int, np.uint64] + [np.int64] * (seed < 2**63)))(seed)
    trials = draw(st.integers(0, 6))
    uses = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), min_size=trials, max_size=trials))
    return seed, trials, uses


@settings(max_examples=200, deadline=None)
@given(_walks())
@example((0, 3, [(1, 1), (3, 0), (0, 1)]))
@example((2**64 - 1, 3, [(5, 3), (0, 1), (2, 2)]))
@example((np.uint64(2**64 - 1), 2, [(1, 0), (0, 0)]))
@example((np.int64(7), 0, []))
def test_trial_streams_start_each_trial_where_rng_stream_does(inst):
    seed, trials, uses = inst
    walked = []
    for t, rng in enumerate(trial_streams(seed, trials)):
        want = rng_stream(seed, t)
        assert _state(rng) == _state(want)
        doubles, words = uses[t]
        assert rng.random(doubles).tolist() == want.random(doubles).tolist()
        got = rng.integers(2**32, size=words, dtype=np.uint32)
        assert got.tolist() == want.integers(2**32, size=words, dtype=np.uint32).tolist()
        assert rng.random() == want.random()
        walked.append(rng)
    assert len(walked) == trials
    assert all(rng is walked[0] for rng in walked)  # one generator, re-keyed


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "0", None])
@pytest.mark.parametrize("trials", [0, 3])
def test_trial_streams_check_the_seed_before_the_first_trial(seed, trials):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        trial_streams(seed, trials)


class _Draws:
    """A generator stand-in whose one ``random(n)`` call returns set draws."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


@st.composite
def _count_draws(draw):
    """(mass, n, seed, hits): k = 1-8 integer weights, any of them zero
    (leading, interior or trailing), scaled to sum to 1, 1 - tol or 1 + tol;
    ``hits`` pairs a draw with a cumulative mass it is set to exactly."""
    weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(any))
    mass = np.array(weights, dtype=float) / sum(weights)
    mass *= 1.0 + draw(st.sampled_from([-1, 0, 1])) * DEFAULT_TOL
    n = draw(st.integers(1, 2000))
    hits = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, mass.size - 1)), max_size=20))
    return mass, n, draw(st.integers(0, 2**64 - 1)), hits


@settings(max_examples=300, deadline=None)
@given(_count_draws())
@example((np.array([1.0]), 1, 0, []))
@example((np.array([1.0]), 2000, 0, []))
@example((np.array([0.0, 0.5, 0.0, 0.5, 0.0]), 1, 3, [(0, 1)]))
@example((np.array([0.0, 0.5, 0.0, 0.5, 0.0]) * (1.0 - DEFAULT_TOL), 2000, 3, [(0, 1), (1, 0)]))
def test_sample_counts_equals_the_counted_indices(inst):
    mass, n, seed, hits = inst
    got_rng, want_rng = rng_stream(seed), rng_stream(seed)
    got = sample_counts(mass, n, got_rng)
    want = np.bincount(sample_indices(mass, n, want_rng), minlength=mass.size)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_rng.random() == want_rng.random()
    # draws that fall exactly on a cut point go to the atom above it
    u = rng_stream(seed).random(n)
    cum = np.cumsum(mass)
    for i, j in hits:
        u[i] = min(cum[j], np.nextafter(1.0, 0.0))
    want = np.bincount(sample_indices(mass, n, _Draws(u)), minlength=mass.size)
    assert sample_counts(mass, n, _Draws(u)).tolist() == want.tolist()


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("j", [0, 1, -1])
def test_sample_counts_leave_a_slightly_negative_mass_empty(k, j):
    mass = np.full(k, 1.0 / k)
    mass[j] = -DEFAULT_TOL / 2
    mass[j + 1 if j + 1 < k else 0] += 1.0 - mass.sum()
    cum = np.cumsum(mass)
    # one draw in each gap where the cumulative mass steps down
    inside = [(a + b) / 2 for a, b in zip(cum[1:], cum[:-1]) if 0 <= a < b < 1]
    for seed in range(20):
        u = np.concatenate([inside, rng_stream(seed).random(500 - len(inside))])
        counts = sample_counts(mass, 500, _Draws(u))
        assert counts.min() >= 0 and counts.sum() == 500 and counts[j] == 0


def test_ensemble_single_draw():
    ens = enumerate_matrix_ensemble(ModelSpace.finite(two_point_space(2.0, 0.1, "x")), 1)
    assert ens.size == 1
    assert ens.atoms[0][0].entries.tolist() == [[0.0]]
    assert ens.atoms[0][1] == pytest.approx(1.0)


def test_ensemble_two_point_two_draws():
    eps = 0.1
    ens = enumerate_matrix_ensemble(ModelSpace.finite(two_point_space(2.0, eps, "x")), 2)
    probs = {m.entries.tobytes(): p for m, p in ens.atoms}
    zero = np.zeros((2, 2)).tobytes()
    far = np.array([[0.0, 2.0], [2.0, 0.0]]).tobytes()
    assert probs[zero] == pytest.approx((1 - eps) ** 2 + eps**2)
    assert probs[far] == pytest.approx(2 * eps * (1 - eps))
    assert ens.probabilities().sum() == pytest.approx(1.0)


def test_ensemble_budget():
    sp = ModelSpace.finite(two_point_space(1.0, 0.5, "x"))
    with pytest.raises(BudgetError):
        enumerate_matrix_ensemble(sp, 21, budget=10**6)


def test_ensemble_constructor_invariants():
    from mmsdist import MatrixEnsemble

    one = DistanceMatrix(np.zeros((1, 1)))
    two = DistanceMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        MatrixEnsemble(atoms=((one, 0.5), (two, 0.5)))
    with pytest.raises(ValueError):
        MatrixEnsemble(atoms=((one, 0.5),))
    with pytest.raises(ValueError):
        MatrixEnsemble(atoms=((one, 1.5), (one, -0.5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ensemble_rejects_non_finite_probabilities(bad):
    # NaN passed both the sign and the sum check, since every NaN comparison is false
    from mmsdist import MatrixEnsemble

    m = DistanceMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        MatrixEnsemble(atoms=((m, bad), (m, 1.0)))


def test_ensemble_matches_monte_carlo_chisquare():
    # two-point space, two draws: the matrix is zero or the far matrix
    eps = 0.1
    sp = ModelSpace.finite(two_point_space(2.0, eps, "x"))
    ens = enumerate_matrix_ensemble(sp, 2)
    expected = {m.entries.tobytes(): p for m, p in ens.atoms}
    trials = 100_000
    counts = dict.fromkeys(expected, 0)
    base = sp.space
    for t in range(trials):
        rng = rng_stream(2024, t)
        idx = sample_indices(base.mass, 2, rng)
        m = base.dist.entries[np.ix_(idx, idx)]
        counts[m.tobytes()] += 1
    chi2 = sum(
        (counts[k] - trials * p) ** 2 / (trials * p) for k, p in expected.items()
    )
    assert chi2 < 6.635  # 99th percentile of chi-square with 1 dof


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_circle_needs_a_positive_finite_circumference(bad):
    # NaN and inf were accepted and gave all-NaN sample matrices
    with pytest.raises(ValueError, match="circumference must be positive and finite"):
        ModelSpace.circle(bad)


def test_circle_rejects_an_int_beyond_the_float_range():
    # converting it to float raised OverflowError past the range check
    with pytest.raises(ValueError, match="circumference must be positive and finite"):
        ModelSpace.circle(10**400)
    assert ModelSpace.circle(10**300).circumference == 1e300


@pytest.mark.parametrize(
    "coords, mass, message",
    [
        ([[0.0], [1.0]], [0.9, 0.9], "weights sums to 1.8"),  # drew point 0 90 % of the time
        ([[0.0], [1.0]], [1.5, -0.5], "weights has a negative entry"),
        ([[0.0], [1.0]], [1.0], "1 weights for 2 points"),
        ([[0.0], [1.0]], [[0.5, 0.5]], "weights must be 1-dimensional"),
        ([], None, "needs points with finite coordinates"),  # raised ZeroDivisionError
        ([[0.0, np.nan], [1.0, 0.0]], None, "finite coordinates"),  # gave NaN matrices
        ([[0.0, np.inf], [1.0, 0.0]], [0.5, 0.5], "finite coordinates"),
        (5, None, "needs points with finite coordinates"),  # raised TypeError
    ],
)
def test_euclidean_points_checks_its_input(coords, mass, message):
    with pytest.raises(ValueError, match=message):
        ModelSpace.euclidean_points(coords, mass)



# ---------------------------------------------------------------------------
# the vectorised enumeration and its orbit record

TOL = 1e-9


@st.composite
def _ensemble_spaces(draw, max_tuples=256):
    """A space of k = 1-4 points and a sample size n = 1-5 with k^n <=
    max_tuples.  Kinds: random points; a half-step lattice with repeated
    points; a regular polygon (ties up to rounding); random points with
    zero masses; random points whose grid is asymmetric within tol."""
    kind = draw(st.sampled_from(["random", "lattice", "polygon", "zero mass", "asymmetric"]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, max(m for m in range(1, 6) if k**m <= max_tuples)))
    if kind == "lattice":
        pts = np.array(draw(st.lists(st.integers(0, 2), min_size=2 * k, max_size=2 * k)), float).reshape(k, 2) / 2
    elif kind == "polygon":
        angle = 2 * np.pi * np.arange(k) / k
        pts = np.column_stack([np.cos(angle), np.sin(angle)])
    else:
        unit = st.floats(0.0, 1.0, allow_subnormal=False)
        pts = np.array(draw(st.lists(unit, min_size=2 * k, max_size=2 * k))).reshape(k, 2)
    d = DistanceMatrix.from_points(pts).entries.copy()
    if kind == "asymmetric":
        skew = st.floats(-TOL / 2, TOL / 2, allow_subnormal=False)
        d += np.array(draw(st.lists(skew, min_size=k * k, max_size=k * k))).reshape(k, k) * (1 - np.eye(k))
        d = np.abs(d)
    low = 0 if kind == "zero mass" else 1
    weights = np.array(draw(st.lists(st.integers(low, 4), min_size=k, max_size=k)), float)
    if not weights.any():
        weights[draw(st.integers(0, k - 1))] = 1.0
    space = FiniteMMS(labels=tuple(f"p{i}" for i in range(k)), dist=DistanceMatrix(d), mass=weights / weights.sum())
    return ModelSpace.finite(space), n


def _bytes(ens):
    return [(m.entries.tobytes(), repr(p)) for m, p in ens.atoms]


@settings(max_examples=150, deadline=None)
@given(_ensemble_spaces())
def test_enumeration_equals_the_per_tuple_loop(inst):
    space, n = inst
    ens = enumerate_matrix_ensemble(space, n)
    assert ens.n == n
    assert _bytes(ens) == _bytes(enumerate_matrix_ensemble_loop(space, n))


def test_enumeration_keeps_matrices_apart_by_their_bytes():
    # points 0 and 1 coincide at a stored -0.0, which equals 0.0 but has
    # other bytes: the tuples 00 and 01 give two atoms, as in the loop
    d = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    space = ModelSpace.finite(FiniteMMS(labels=("a", "b", "c"), dist=DistanceMatrix(d), mass=np.full(3, 1 / 3)))
    ens = enumerate_matrix_ensemble(space, 2)
    assert ens.size == 3
    assert _bytes(ens) == _bytes(enumerate_matrix_ensemble_loop(space, 2))


@settings(max_examples=150, deadline=None)
@given(_ensemble_spaces())
def test_orbit_record_points_to_an_earlier_exact_relabelling(inst):
    # the orbit record is what the sample-orbit rule reads off the tuple
    # record: each atom's first atom whose tuple sorts alike
    space, n = inst
    ens = enumerate_matrix_ensemble(space, n)
    mats = [m.entries for m in ens.matrices()]
    orbit = matmetric._sample_orbits(ens.tuples)
    assert len(orbit) == ens.size
    perms = [list(p) for p in itertools.permutations(range(n))]
    for i, j in enumerate(orbit):
        assert 0 <= j <= i
        assert sorted(ens.tuples[i]) == sorted(ens.tuples[j])
        assert any(np.array_equal(mats[i][np.ix_(p, p)], mats[j]) for p in perms)


@settings(max_examples=150, deadline=None)
@given(_ensemble_spaces())
def test_tuple_record_draws_each_atom(inst):
    # atom i is, byte for byte, the matrix of the support points tuples[i],
    # and its record is the first tuple in lex order that draws it
    space, n = inst
    ens = enumerate_matrix_ensemble(space, n)
    d = space.space.dist.entries
    support = np.flatnonzero(space.space.mass > 0.0)
    assert ens.tuples.shape == (ens.size, n) and not ens.tuples.flags.writeable
    drawn = {}
    for t in itertools.product(range(support.size), repeat=n):
        drawn.setdefault(d[np.ix_(support[list(t)], support[list(t)])].tobytes(), list(t))
    assert [drawn[m.entries.tobytes()] for m in ens.matrices()] == ens.tuples.tolist()


@settings(max_examples=100, deadline=None)
@given(_ensemble_spaces(max_tuples=64))
def test_orbit_record_keeps_every_relabelling_class(inst):
    # classes[i] is the lowest atom that relabels atom i byte for byte
    # (grids asymmetric within tol too), and each sample orbit lies in one
    # class
    space, n = inst
    ens = enumerate_matrix_ensemble(space, n)
    mats = [m.entries for m in ens.matrices()]
    atom = {m.tobytes(): i for i, m in enumerate(mats)}
    perms = [list(p) for p in itertools.permutations(range(n))]
    first = ens.classes.tolist()
    assert first == [min(atom.get(m[np.ix_(p, p)].tobytes(), i) for p in perms) for i, m in enumerate(mats)]
    assert all(first[j] == first[i] for i, j in enumerate(matmetric._sample_orbits(ens.tuples)))


@settings(max_examples=60, deadline=None)
@given(_ensemble_spaces(max_tuples=64), st.data())
def test_orbit_record_leaves_both_cross_grids_unchanged(inst, data):
    # the enumerated ensembles, which carry the tuple record, and the same
    # atoms built by hand, which do not, give the same bytes
    space_x, n = inst
    space_y = data.draw(_ensemble_spaces(max_tuples=64).filter(lambda s: s[1] >= n)
                        .map(lambda s: s[0]))
    ens = [enumerate_matrix_ensemble(s, n) for s in (space_x, space_y)]
    hand_built = [MatrixEnsemble(atoms=e.atoms) for e in ens]
    plain = matmetric._cross_grid(*hand_built, (True, False), TOL)
    with_record = matmetric._cross_grid(*ens, (True, False), TOL)
    assert [g.tobytes() for g in with_record] == [g.tobytes() for g in plain]


def test_only_an_enumerated_ensemble_has_a_tuple_record():
    m = DistanceMatrix(np.zeros((2, 2)))
    hand_built = MatrixEnsemble(atoms=((m, 1.0),))
    enumerated = enumerate_matrix_ensemble(ModelSpace.finite(two_point_space(1.0, 0.25, "x")), 2)
    assert [f.name for f in dataclasses.fields(MatrixEnsemble) if not f.init] == ["tuples", "classes"]
    assert hand_built.tuples is None and enumerated.tuples.tolist() == [[0, 0], [0, 1]]
    assert hand_built.classes is None and enumerated.classes.tolist() == [0, 1]
    assert matmetric._sample_orbits(enumerated.tuples) == [0, 1]
    # the record is not part of the value: reprs are those of the atoms alone
    assert repr(enumerated) == repr(MatrixEnsemble(atoms=enumerated.atoms))


def test_enumeration_logs_tuples_and_atoms(caplog):
    # two points, three draws: 8 tuples and 4 matrices, since a tuple and its
    # complement agree; the first tuples 000, 001, 010, 011 sort to the
    # orbits of atoms 0, 1, 1, 3, and the tuple 110, a relabelling of 011,
    # draws atom 1, so atom 3 joins atom 1's class
    space = ModelSpace.finite(two_point_space(1.0, 0.25, "x"))
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        ens = enumerate_matrix_ensemble(space, 3)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("ensemble:")]
    assert lines == ["ensemble: n = 3, 8 tuples -> 4 atoms"]
    assert matmetric._sample_orbits(ens.tuples) == [0, 1, 1, 3]
    assert ens.classes.tolist() == [0, 1, 1, 1]
