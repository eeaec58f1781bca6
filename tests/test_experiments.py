import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsdist import (
    DistanceMatrix,
    FiniteMMS,
    MatrixEnsemble,
    ModelSpace,
    SizeLimitError,
    dm_distance,
    dpi_distance,
    prokhorov_distance,
)
from mmsdist import coupling, experiments, matmetric, sampling
from mmsdist.experiments import (
    check_finspc_sandwich,
    check_group_invariance,
    check_hoelder_small_n,
    check_sampling_convergence,
    check_sharp_exponent,
    four_point_square,
    sharp_pair,
    sharp_window,
    two_point_space,
    write_report,
    write_report_csv,
)
from mmsdist.matmetric import DPI_EXACT_LIMIT
from mmsdist.sampling import enumerate_matrix_ensemble


def test_finspc_sandwich_small():
    r = check_finspc_sandwich(n=4, trials=25, seed=2)
    assert r.all_passed()
    assert r.observed["violations"] == 0


def test_hoelder_report_fields():
    r = check_hoelder_small_n(0.1, 3, mc_trials=10, seed=1)
    assert r.all_passed()
    assert r.observed["dp_ensemble"] <= math.sqrt(0.1) + 1e-9
    assert r.observed["ghp_upper"] == pytest.approx(0.1, abs=1e-12)
    assert r.observed["mc_violations"] == 0


@pytest.mark.parametrize("mc_trials", [0, 2])
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_hoelder_rejects_a_bad_seed_at_any_mc_trials(seed, mc_trials):
    # at mc_trials=0 no trial drew, and a seed of -1 was reported as given
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        check_hoelder_small_n(0.1, 3, seed=seed, mc_trials=mc_trials)


def test_hoelder_rejects_large_epsilon():
    with pytest.raises(ValueError):
        check_hoelder_small_n(0.3, 3)


def test_asymptotic_trend_two_point():
    # the limsup statement checked as a finite trend: exact ensemble
    # distance stays below twice the space bound for N = 2..6
    eps = 0.2
    for n in range(2, 7):
        r = check_hoelder_small_n(eps, n)
        assert r.observed["dp_ensemble"] <= 2.0 * r.observed["ghp_upper"] + 1e-9


def test_sharp_window_and_example():
    n_min, lo, hi = sharp_window(1.0, 0.75, 0.01)
    assert lo < n_min < hi
    assert lo == pytest.approx(0.5 / 0.01**0.75)
    # N = 20 sits in the window and reproduces the reference numbers
    r = check_sharp_exponent(1.0, 0.75, 0.01, n=20)
    assert r.all_passed()
    assert 0.18 < r.observed["p_matrix_nonzero"] < 0.19
    assert r.bound["c_eps_alpha"] == pytest.approx(0.01**0.75)
    # 2^20 tuples exceed the budget too, but the limit is checked first
    assert r.notes == (
        f"exact permutation search limited to n <= {DPI_EXACT_LIMIT}, got 20; exact ensemble step skipped",
    )


def test_sharp_window_accepts_the_n_it_picks_at_a_rounding_edge():
    # N*C*eps^alpha rounds to 0.5 at N = 10, just above lo = 9.999999999999998:
    # a second window test by that product rejected the N the window picked
    c, alpha, eps = 0.12704377430556815, 0.5120066003356747, 0.1618180734164729
    n, lo, hi = sharp_window(c, alpha, eps)
    assert (n, n * c * eps**alpha) == (10, 0.5) and lo < n < hi
    r = check_sharp_exponent(c, alpha, eps)
    assert r.observed["window_n"] == 10 and r.config["n"] == 10
    assert r.all_passed()


def test_sharp_exact_branch():
    r = check_sharp_exponent(1.0, 0.75, 0.05, n=5)
    assert r.all_passed()
    assert r.observed["dp_ensemble"] > r.bound["c_eps_alpha"]
    assert not any("boundary" in note for note in r.notes)


def test_sharp_skips_exact_step_when_grid_exceeds_budget():
    # 2^5 = 32 tuples fit the budget, but the 16 x 16 atom grid does not
    n, eps, alpha = 5, 0.15, 0.75
    r = check_sharp_exponent(c=0.65 / (n * eps**alpha), alpha=alpha, epsilon=eps, n=n, budget=40)
    assert "dp_ensemble" not in r.observed
    assert "dp_exceeds_threshold" not in r.passed
    assert r.notes == ("16 x 16 grid exceeds the budget of 40; exact ensemble step skipped",)


def test_sharp_rejects_bad_n():
    with pytest.raises(ValueError):
        check_sharp_exponent(1.0, 0.75, 0.01, n=100)
    with pytest.raises(ValueError):
        # C*eps^alpha > 1 pushes the whole window below 1: no integer N
        check_sharp_exponent(3.0, 0.75, 0.5)


def test_sampling_convergence_small():
    r = check_sampling_convergence(epsilon=0.1, n=400, trials=40, seed=5)
    assert r.all_passed()
    assert r.observed["frequency_above_3eps"] < 0.1 + r.bound["binomial_95_slack"]


def test_sampling_convergence_trivial_space():
    one = ModelSpace.euclidean_points([[0.0]], [1.0])
    r = check_sampling_convergence(space=one, epsilon=0.1, n=50, trials=10, seed=0)
    assert r.observed["max_dp"] == 0.0
    assert r.observed["frequency_above_3eps"] == 0.0


def test_sampling_convergence_mean_decreases_with_n():
    means = [
        check_sampling_convergence(epsilon=0.1, n=n, trials=40, seed=8).observed["mean_dp"]
        for n in (50, 200, 1000)
    ]
    assert means[0] >= means[1] >= means[2]


def test_sampling_convergence_report_at_its_defaults():
    # recorded before the trials ran on one prepared grid
    assert check_sampling_convergence().to_json() == """{
  "bound": {
    "binomial_95_slack": 0.041577878733768996,
    "epsilon": 0.1
  },
  "config": {
    "epsilon": 0.1,
    "n": 1000,
    "seed": 0,
    "tol": 1e-09,
    "trials": 200
  },
  "name": "sampling_convergence",
  "notes": [],
  "observed": {
    "frequency_above_3eps": 0.0,
    "max_dp": 0.05499999999999999,
    "mean_dp": 0.021740000000000016
  },
  "passed": {
    "frequency_below_eps": true
  }
}"""


@pytest.mark.parametrize(
    "check, kwargs, want",
    [
        (check_finspc_sandwich, dict(n=4, trials=25, seed=2), """{
  "bound": {
    "tolerance": 1e-09
  },
  "config": {
    "n": 4,
    "seed": 2,
    "tol": 1e-09,
    "trials": 25
  },
  "name": "finspc_sandwich",
  "notes": [],
  "observed": {
    "max_dpi_minus_2upper": -0.22759954113674097,
    "max_upper_minus_dpi": 0.0,
    "violations": 0
  },
  "passed": {
    "dpi_le_2upper": true,
    "upper_le_dpi": true
  }
}"""),
        (check_hoelder_small_n, dict(epsilon=0.1, n=3, mc_trials=10, seed=1), """{
  "bound": {
    "sqrt_eps": 0.31622776601683794,
    "sqrt_ghp_upper": 0.31622776601683794
  },
  "config": {
    "budget": 1000000,
    "epsilon": 0.1,
    "mc_trials": 10,
    "n": 3,
    "seed": 1,
    "tol": 1e-09
  },
  "name": "hoelder_small_n",
  "notes": [
    "per-sample bound checked on coupled draws"
  ],
  "observed": {
    "atoms_x": 4,
    "atoms_y": 4,
    "dp_ensemble": 0.27,
    "ghp_upper": 0.1,
    "mc_trials": 10,
    "mc_violations": 0,
    "mc_worst_gap": 0.0
  },
  "passed": {
    "dp_le_sqrt_eps": true,
    "dp_le_sqrt_ghp_upper": true,
    "per_sample_cases_bound": true
  }
}"""),
        (check_sampling_convergence, dict(n=997, trials=300, seed=12345), """{
  "bound": {
    "binomial_95_slack": 0.03394819582834999,
    "epsilon": 0.1
  },
  "config": {
    "epsilon": 0.1,
    "n": 997,
    "seed": 12345,
    "tol": 1e-09,
    "trials": 300
  },
  "name": "sampling_convergence",
  "notes": [],
  "observed": {
    "frequency_above_3eps": 0.0,
    "max_dp": 0.04964894684052157,
    "mean_dp": 0.022107154797726524
  },
  "passed": {
    "frequency_below_eps": true
  }
}"""),
    ],
    ids=["finspc", "hoelder mc_trials", "sampconv"],
)
def test_multi_trial_reports_are_pinned(check, kwargs, want):
    # recorded when every trial built its own generator by rng_stream(seed, t)
    assert check(**kwargs).to_json() == want


def test_sampling_convergence_at_tol_zero_takes_its_own_masses():
    # each trial's counts / n sums to 1 only within rounding, and a check of
    # it at tol 0 failed every run ("first marginal sums to 0.9999999999999999")
    got = check_sampling_convergence(n=997, trials=50, tol=0.0)
    want = check_sampling_convergence(n=997, trials=50)
    assert (got.observed, got.passed) == (want.observed, want.passed)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(trials=0), "need at least one trial"),
        (dict(trials=-3), "need at least one trial"),
        (dict(epsilon=math.nan), "epsilon must lie in"),
        (dict(epsilon=0.0), "epsilon must lie in"),
        (dict(epsilon=-0.1), "epsilon must lie in"),
        (dict(epsilon=1.5), "epsilon must lie in"),
        (dict(n=0), "need at least one sample point"),
    ],
)
def test_sampling_convergence_rejects_bad_settings_before_sampling(monkeypatch, kwargs, message):
    # trials=0 divided by zero and a NaN or non-positive epsilon passed
    # silently, after every trial had been sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the settings")

    monkeypatch.setattr(experiments, "sample_indices", no_sampling)
    monkeypatch.setattr(experiments, "sample_counts", no_sampling)
    monkeypatch.setattr(experiments, "trial_streams", no_sampling)
    with pytest.raises(ValueError, match=message):
        check_sampling_convergence(**kwargs)


def test_sampling_convergence_logs_its_flows(monkeypatch, caplog):
    calls = []
    flow = coupling._max_mass_within

    def counting_flow(*args):
        calls.append(1)
        return flow(*args)

    monkeypatch.setattr(coupling, "_max_mass_within", counting_flow)
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        check_sampling_convergence(n=100, trials=30, seed=3)
    lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith(("sampconv", "prokhorov"))]
    # the square's levels: 0, its side and its diagonal; no per-trial
    # prokhorov line, as no trial builds a witness
    assert lines == [f"sampconv: 30 trials on 4 x 4 atoms, 3 levels, {len(calls)} max-flows solved, one per level probed"]
    assert 30 <= len(calls) <= 3 * 30


def test_group_invariance_two_point():
    r = check_group_invariance(n=3)
    assert r.all_passed()
    assert r.observed["gap"] <= 1e-9
    assert "desym_gap" in r.observed


def test_group_invariance_identical_spaces():
    sp = ModelSpace.finite(two_point_space(0.5, 0.1, "x"))
    r = check_group_invariance(sp, sp, n=2)
    assert r.observed["dp_under_dm"] == 0.0
    assert r.observed["dp_under_dpi"] == 0.0


def test_reports_are_deterministic_and_serializable(tmp_path):
    r1 = check_finspc_sandwich(n=4, trials=6, seed=9)
    r2 = check_finspc_sandwich(n=4, trials=6, seed=9)
    assert r1.to_json() == r2.to_json()
    out = tmp_path / "report.json"
    write_report(r1, out)
    payload = json.loads(out.read_text())
    assert payload["name"] == "finspc_sandwich"
    assert set(payload) == {"name", "config", "observed", "bound", "passed", "notes"}
    csv_path = tmp_path / "report.csv"
    write_report_csv(r1, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "report,section,key,value"
    assert len(lines) > 5


def test_four_point_square_geometry():
    s = four_point_square()
    assert s.n == 4
    d = s.dist.entries
    assert d[0, 3] == pytest.approx(math.sqrt(2.0))
    assert np.all(s.mass == 0.25)


def test_sharp_skips_exact_step_above_dpi_limit():
    # 2^9 tuples and the 256 x 256 grid fit the budget, but exact dpi does not
    n, eps, alpha = DPI_EXACT_LIMIT + 1, 0.1, 0.75
    r = check_sharp_exponent(c=0.7 / (n * eps**alpha), alpha=alpha, epsilon=eps, n=n)
    assert "dp_ensemble" not in r.observed
    assert r.passed == {"marginal_exceeds_threshold": True}
    assert r.notes == (
        f"exact permutation search limited to n <= {DPI_EXACT_LIMIT}, got {n}; "
        "exact ensemble step skipped",
    )


def test_sharp_defaults_skip_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ensembles enumerated although the exact step is skipped")

    monkeypatch.setattr(experiments, "enumerate_matrix_ensemble", refuse)
    r = check_sharp_exponent()
    assert r.observed["window_n"] > DPI_EXACT_LIMIT
    assert r.notes[0].endswith("exact ensemble step skipped")


@pytest.mark.parametrize(
    "check",
    [lambda n: check_group_invariance(n=n), lambda n: check_hoelder_small_n(0.1, n)],
    ids=["gpaction", "hoelder"],
)
def test_dpi_limit_raises_before_enumerating(monkeypatch, check):
    def refuse(*args, **kwargs):
        raise AssertionError("ensembles enumerated although a dpi grid is over the limit")

    monkeypatch.setattr(experiments, "enumerate_matrix_ensemble", refuse)
    with pytest.raises(SizeLimitError, match=f"limited to n <= {DPI_EXACT_LIMIT}, got {DPI_EXACT_LIMIT + 1}"):
        check(DPI_EXACT_LIMIT + 1)


def test_hoelder_above_dpi_limit_raises_before_classifying(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("atoms classified although the dpi grid is over the limit")

    monkeypatch.setattr(matmetric, "_dpi_exact", refuse)
    monkeypatch.setattr(sampling, "_tuple_classes", refuse)
    with pytest.raises(SizeLimitError, match=f"limited to n <= {DPI_EXACT_LIMIT}, got 9"):
        check_hoelder_small_n(0.1, 9)


def _two_point_model(diameter, eps, label):
    return ModelSpace.finite(two_point_space(diameter, eps, label))


def _three_point_model(d01, d02, d12, mass):
    d = np.array([[0.0, d01, d02], [d01, 0.0, d12], [d02, d12, 0.0]])
    return ModelSpace.finite(FiniteMMS(labels=("a", "b", "c"), dist=DistanceMatrix(d), mass=np.array(mass)))


def _finite_model(dist):
    return ModelSpace.finite(FiniteMMS(("a", "b", "c"), DistanceMatrix(np.array(dist, float)), np.full(3, 1 / 3)))


@pytest.mark.parametrize(
    "x, y, n",
    [
        (*(ModelSpace.finite(s) for s in sharp_pair(0.25, 0.1)), 5),  # hoelder
        (_two_point_model(0.5, 0.1, "x"), _two_point_model(1.0, 0.1, "y"), 4),  # gpaction
        (_three_point_model(1.0, 1.5, 2.0, [0.5, 0.3, 0.2]), _three_point_model(1.0, 1.0, 2.0, [0.2, 0.2, 0.6]), 3),
        # symmetric only within tol: relabelling classes would move 24 dpi cells by up to 4e-10
        (_finite_model([[0, 0.5, 1.0], [0.5000000004, 0, 0.7], [1.0, 0.7, 0]]),
         _finite_model([[0, 0.6, 1.0], [0.6, 0, 0.5], [1.0, 0.5000000004, 0]]), 3),
    ],
)
def test_class_grid_equals_per_atom_dpi(x, y, n):
    ens_x, ens_y, grids, values = experiments._ensemble_grids(x, y, n, (True, False), 10**6, 1e-9)
    p, q = ens_x.probabilities(), ens_y.probabilities()
    for grid, value, distance in zip(grids, values, (dpi_distance, dm_distance)):
        per_atom = np.array(
            [[distance(a.entries, b.entries).value for b in ens_y.matrices()] for a in ens_x.matrices()]
        )
        assert grid.shape == (ens_x.size, ens_y.size)
        assert grid.tobytes() == per_atom.tobytes()
        assert repr(value) == repr(prokhorov_distance(p, q, grid, tol=1e-9).value)


@pytest.mark.parametrize("distance", [dm_distance, dpi_distance])
def test_cross_grid_checks_every_atom_before_any_distance(monkeypatch, distance):
    def refuse(*args, **kwargs):
        raise AssertionError("a distance was computed before the atoms were checked")

    monkeypatch.setattr(matmetric, "_aligned_scan", refuse)
    monkeypatch.setattr(matmetric, "_dpi_exact", refuse)
    ens_x = enumerate_matrix_ensemble(_two_point_model(0.5, 0.1, "x"), 3)
    atoms_y = [m.entries for m in enumerate_matrix_ensemble(_two_point_model(1.0, 0.1, "y"), 3).matrices()]
    skew = np.zeros((3, 3))
    skew[0, 1] = 1e-6
    bad = {
        "non-finite": atoms_y + [np.diag([0.0, math.nan, 0.0])],
        "not symmetric within 1e-09": atoms_y + [skew],
    }
    for message, atoms in bad.items():
        ens = MatrixEnsemble(atoms=[(DistanceMatrix(a), 1 / len(atoms)) for a in atoms])
        with pytest.raises(ValueError, match=message):
            matmetric._cross_grid(ens_x, ens, (distance is dpi_distance,), 1e-9)
        with pytest.raises(ValueError, match=message):
            matmetric._cross_grid(ens, ens_x, (distance is dpi_distance,), 1e-9)


@st.composite
def _small_spaces(draw):
    """A model space of 1-3 points with integer weights, zeros allowed:
    lattice points (ties and coincident points), random points, or random
    points whose grid is asymmetric within tol (an independent offset in
    (0, 5e-10] added to each entry above the diagonal)."""
    kind = draw(st.sampled_from(["lattice", "random", "asymmetric"]))
    k = draw(st.integers(1, 3))
    if kind == "lattice":
        pts = np.array(draw(st.lists(st.integers(0, 2), min_size=2 * k, max_size=2 * k)), float) / 2
    else:
        pts = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k)))
    d = DistanceMatrix.from_points(pts.reshape(k, 2)).entries.copy()
    if kind == "asymmetric":
        m = k * (k - 1) // 2
        d[np.triu_indices(k, 1)] += draw(st.lists(st.floats(0.0, 5e-10, exclude_min=True), min_size=m, max_size=m))
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), float)
    if not weights.any():
        weights[draw(st.integers(0, k - 1))] = 1.0
    space = FiniteMMS(tuple(f"p{i}" for i in range(k)), DistanceMatrix(d), weights / weights.sum())
    return ModelSpace.finite(space)


@st.composite
def _small_space_pairs(draw):
    """Two spaces of :func:`_small_spaces` and a sample size of 1-5 whose
    tuples number at most 32 on either side."""
    x, y = draw(_small_spaces()), draw(_small_spaces())
    k = max(s.space.n for s in (x, y))
    return x, y, draw(st.integers(1, max(n for n in range(1, 6) if k**n <= 32)))


class _GridLog(logging.Handler):
    """The ``dm grid`` and ``dpi grid`` lines logged, and the
    :func:`matmetric._aligned_scan` calls made, while in use."""

    def __enter__(self):
        self.lines, self.scans = [], 0
        scan, logger = matmetric._aligned_scan, logging.getLogger("mmsdist")

        def counting(*args):
            self.scans += 1
            return scan(*args)

        self._patch = pytest.MonkeyPatch()
        self._patch.setattr(matmetric, "_aligned_scan", counting)
        self._level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        logger = logging.getLogger("mmsdist")
        logger.removeHandler(self)
        logger.setLevel(self._level)
        self._patch.undo()

    def emit(self, record):
        if record.getMessage().startswith(("dm grid", "dpi grid")):
            self.lines.append(record.getMessage())


def _exactly_symmetric(*ensembles):
    return all(np.array_equal(m.entries, m.entries.T) for e in ensembles for m in e.matrices())


@settings(max_examples=80, deadline=None)
@given(_small_space_pairs())
def test_dm_grid_equals_per_pair_dm(inst):
    # bit for bit, whether the grid scans one pair per joint sample orbit
    # (exactly symmetric atoms) or every pair (asymmetric within tol, or an
    # ensemble built by hand, which has no tuple record)
    x, y, n = inst
    with _GridLog() as log:
        ens_x, ens_y, (grid,), _ = experiments._ensemble_grids(x, y, n, (False,), 10**6, 1e-9)
    per_pair = np.array([[dm_distance(a.entries, b.entries).value for b in ens_y.matrices()] for a in ens_x.matrices()])
    assert grid.shape == (ens_x.size, ens_y.size)
    assert grid.tobytes() == per_pair.tobytes()
    path = "joint orbits" if _exactly_symmetric(ens_x, ens_y) else "pairs, each scanned"
    assert log.lines[0].endswith(path)

    hand_built = [MatrixEnsemble(atoms=e.atoms) for e in (ens_x, ens_y)]
    assert [e.tuples for e in hand_built] == [None, None]
    with _GridLog() as log:
        (plain,) = matmetric._cross_grid(*hand_built, (False,), 1e-9)
    assert plain.tobytes() == grid.tobytes()
    assert log.lines == [f"dm grid: {ens_x.size} x {ens_y.size} atoms -> {grid.size} pairs, each scanned"]


@settings(max_examples=80, deadline=None)
@given(_small_space_pairs())
def test_dm_grid_scans_once_per_joint_orbit(inst):
    # cost law: Z scans for Z joint orbits, and Z is at most the number of
    # pairs and the number of multisets of n joint cells
    x, y, n = inst
    with _GridLog() as log:
        ens_x, ens_y, *_ = experiments._ensemble_grids(x, y, n, (False,), 10**6, 1e-9)
    nx, ny = ens_x.size, ens_y.size
    if not _exactly_symmetric(ens_x, ens_y):
        assert log.lines == [f"dm grid: {nx} x {ny} atoms -> {nx * ny} pairs, each scanned"]
        assert log.scans == nx * ny
        return
    c = np.count_nonzero(x.space.mass) * np.count_nonzero(y.space.mass)
    z = log.scans
    assert log.lines == [f"dm grid: {nx} x {ny} atoms -> {z} joint orbits"]
    assert z <= min(nx * ny, math.comb(n + c - 1, n))


@settings(max_examples=60, deadline=None)
@given(_small_space_pairs())
def test_dpi_grid_equals_per_pair_dpi(inst):
    # bit for bit, whether the grid solves one pair per pair of relabelling
    # classes (exactly symmetric atoms) or every pair (asymmetric within tol)
    x, y, n = inst
    with _GridLog() as log:
        ens_x, ens_y, (grid,), _ = experiments._ensemble_grids(x, y, n, (True,), 10**6, 1e-9)
    per_pair = np.array([[dpi_distance(a.entries, b.entries).value for b in ens_y.matrices()] for a in ens_x.matrices()])
    assert grid.tobytes() == per_pair.tobytes()
    path = "class-pair dpi calls" if _exactly_symmetric(ens_x, ens_y) else "pairs, each solved"
    assert log.lines[0].endswith(path)


def test_gpaction_dm_grid_logs_its_joint_orbits(caplog):
    # 2 x 2 joint cells and 4 draws: every atom's first tuple starts at
    # point 0, so a pair's cells are (0, 0) and any multiset of 3 of the 4
    # cells, C(6, 3) = 20 joint orbits for the 8 x 8 atom pairs
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        check_group_invariance(n=4)
    lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("dm grid")]
    assert lines == ["dm grid: 8 x 8 atoms -> 20 joint orbits"]


def test_group_invariance_checks_each_side_once(monkeypatch):
    # the dm and the dpi grid of the check read one checked stack per side
    checked = []
    check = matmetric.as_symmetric_grid

    def spy(m, tol, what):
        checked.append(what)
        return check(m, tol, what)

    monkeypatch.setattr(matmetric, "as_symmetric_grid", spy)
    check_group_invariance(n=4)
    assert checked == ["ensemble atom"] * 2


def test_class_holds_atoms_of_different_multisets():
    # the tuples (a, a, b) and (a, b, b) draw different multisets with
    # different probabilities but give relabelled matrices
    ens = enumerate_matrix_ensemble(_three_point_model(1.0, 1.5, 2.0, [0.5, 0.3, 0.2]), 3)
    aab, abb, aac = (ens.tuples.tolist().index(t) for t in ([0, 0, 1], [0, 1, 1], [0, 0, 2]))
    assert ens.classes[abb] == ens.classes[aab] == aab
    assert ens.classes[aac] == aac


def test_class_grid_logs_its_work(monkeypatch, caplog):
    calls = []
    search = matmetric._dpi_exact

    def counting_dpi(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(matmetric, "_dpi_exact", counting_dpi)
    with caplog.at_level(logging.DEBUG, logger="mmsdist"):
        r = check_hoelder_small_n(0.1, 5)
    lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("dpi grid")]
    atoms = r.observed["atoms_x"], r.observed["atoms_y"]
    assert lines == [f"dpi grid: {atoms[0]} x {atoms[1]} atoms -> 3 x 3 classes, 9 class-pair dpi calls"]
    assert len(calls) == 9 < atoms[0] * atoms[1]
