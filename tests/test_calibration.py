import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriage.calibration import (
    CalibrationItem,
    CalibrationPoint,
    CalibrationProfile,
    default_grid,
    profile_to_csv,
    read_selection_summary,
    select_threshold,
    simulate_at_tau,
    sweep,
    write_selection_summary,
)
from cotriage.errors import CotriageError


def oracle_point(items, tau):
    """Independent re-derivation of the routing simulation."""
    acc = []
    toks = []
    accepted = []
    for it in items:
        take_greedy = it.score >= tau
        accepted.append(take_greedy)
        acc.append(it.greedy_correct if take_greedy else it.multi_correct)
        toks.append(it.greedy_tokens if take_greedy else it.greedy_tokens + it.multi_tokens)
    baseline = sum(it.multi_tokens for it in items) / len(items)
    mean_tokens = sum(toks) / len(items)
    return (
        sum(acc) / len(items),
        mean_tokens,
        1.0 - mean_tokens / baseline,
        sum(accepted) / len(items),
    )


def random_items(rng, n):
    return [
        CalibrationItem(
            question_id=f"q{i}",
            score=float(rng.uniform(0, 1)),
            greedy_correct=bool(rng.integers(0, 2)),
            greedy_tokens=int(rng.integers(50, 400)),
            multi_correct=bool(rng.integers(0, 2)),
            multi_tokens=int(rng.integers(500, 4000)),
        )
        for i in range(n)
    ]


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert grid[1] == 0.05 and grid[7] == 0.35
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_simulation_matches_oracle():
    rng = np.random.default_rng(0)
    items = random_items(rng, 200)
    for tau in default_grid():
        pt = simulate_at_tau(items, tau)
        acc, toks, red, rate = oracle_point(items, tau)
        assert abs(pt.accuracy - acc) < 1e-12
        assert abs(pt.mean_tokens - toks) < 1e-12
        assert abs(pt.token_reduction - red) < 1e-12
        assert abs(pt.accept_rate - rate) < 1e-12


def test_boundary_identities():
    rng = np.random.default_rng(1)
    items = random_items(rng, 500)
    low = simulate_at_tau(items, 0.0)
    assert low.accept_rate == 1.0
    assert low.accuracy == sum(i.greedy_correct for i in items) / len(items)
    assert low.mean_tokens == sum(i.greedy_tokens for i in items) / len(items)

    high = simulate_at_tau(items, max(i.score for i in items) + 1e-9)
    assert high.accept_rate == 0.0
    assert high.accuracy == sum(i.multi_correct for i in items) / len(items)
    assert high.token_reduction <= 0.0  # sunk greedy cost makes full escalation costlier


def test_accept_rate_monotone_in_tau():
    rng = np.random.default_rng(2)
    items = random_items(rng, 100)
    profile = sweep(items)
    rates = [pt.accept_rate for pt in profile.points]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_empty_items_rejected():
    with pytest.raises(CotriageError, match="cannot route zero items"):
        simulate_at_tau([], 0.5)


def test_multi_path_route_costing_nothing_is_rejected():
    items = [CalibrationItem(f"q{i}", 0.5, True, 10, True, 0) for i in range(3)]
    for profile_of in (sweep, lambda items: simulate_at_tau(items, 0.5)):
        with pytest.raises(CotriageError, match="every multi-path route costs 0 tokens"):
            profile_of(items)


def _profile(points):
    return CalibrationProfile(points=points)


def test_selection_prefers_max_reduction_within_floor():
    pts = [
        CalibrationPoint(0.2, 0.800, 900.0, 0.70, 0.9),  # below the accuracy floor
        CalibrationPoint(0.4, 0.817, 1500.0, 0.50, 0.7),
        CalibrationPoint(0.6, 0.820, 1500.0, 0.50, 0.5),
        CalibrationPoint(0.8, 0.820, 2100.0, 0.30, 0.3),
    ]
    profile = _profile(pts)
    # floor = 0.995 * 0.820 = 0.8159; the tie at reduction 0.50 goes to tau 0.4
    assert select_threshold(profile) == 0.4


def test_selection_always_exists():
    pts = [CalibrationPoint(i / 4, 0.5 + i / 100, 100.0 - i, i / 10.0, 1.0) for i in range(5)]
    assert select_threshold(_profile(pts)) in [p.tau for p in pts]


@pytest.mark.parametrize("max_rel_drop", [-0.1, 1.5, float("nan")])
def test_max_rel_drop_outside_zero_one_is_rejected(max_rel_drop):
    pts = [CalibrationPoint(i / 4, 0.5 + i / 100, 100.0 - i, i / 10.0, 1.0) for i in range(5)]
    with pytest.raises(ValueError, match="max_rel_drop"):
        select_threshold(_profile(pts), max_rel_drop=max_rel_drop)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30)
def test_selected_tau_is_feasible_and_on_grid(n, seed):
    items = random_items(np.random.default_rng(seed), n)
    profile = sweep(items)
    tau = select_threshold(profile)
    grid = [pt.tau for pt in profile.points]
    assert tau in grid
    max_acc = max(pt.accuracy for pt in profile.points)
    chosen = profile.points[grid.index(tau)]
    assert chosen.accuracy >= 0.995 * max_acc - 1e-12


def test_profile_csv_and_summary(tmp_path):
    items = random_items(np.random.default_rng(4), 50)
    profile = sweep(items)
    tau = select_threshold(profile)
    csv_path = tmp_path / "calibration.csv"
    profile_to_csv(profile, csv_path)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21
    assert set(rows[0]) == {"tau", "accuracy", "mean_tokens", "token_reduction", "accept_rate"}
    assert float(rows[0]["tau"]) == 0.0

    summary_path = tmp_path / "selection.json"
    point = write_selection_summary(profile, tau, summary_path, 0.005, "cer", 7)
    doc = read_selection_summary(summary_path)
    assert point.tau == tau and point in profile.points
    assert (doc["token_reduction"], doc["accept_rate"]) == (point.token_reduction, point.accept_rate)
    assert doc["selected_tau"] == tau
    assert doc["baseline_method"] == "cer" and doc["max_rel_drop"] == 0.005
    assert json.loads(summary_path.read_text())["budget"] == 7

