import numpy as np
import pytest

from mmsdist import (
    BudgetError,
    DistanceMatrix,
    ModelSpace,
    check_distance_matrix,
    empirical_space,
    enumerate_matrix_ensemble,
)
from mmsdist.experiments import two_point_space
from mmsdist.sampling import rng_stream, sample_indices


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

