import json
import math

import numpy as np
import pytest

from mmsdist import ModelSpace
from mmsdist.experiments import (
    binomial_tail_above,
    check_finspc_sandwich,
    check_group_invariance,
    check_hoelder_small_n,
    check_sampling_convergence,
    check_sharp_exponent,
    four_point_square,
    sharp_window,
    two_point_space,
    write_report,
    write_report_csv,
)
from mmsdist.sampling import rng_stream


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
    assert any("budget" in note for note in r.notes)


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


def test_binomial_tail_bound():
    # the exact tail beats the generic Markov estimate: for p < eps < 1/4,
    # P(B > N sqrt(eps)) < sqrt(eps)
    rng = rng_stream(71)
    for _ in range(50):
        eps = float(rng.random()) * 0.2 + 0.01
        p = float(rng.random()) * eps * 0.99
        n = int(rng.integers(1, 40))
        tail = binomial_tail_above(n, p, n * math.sqrt(eps))
        assert tail < math.sqrt(eps)


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
