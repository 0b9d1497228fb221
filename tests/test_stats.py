import csv
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from labench.errors import (
    CaseSetMismatch,
    ConstantSample,
    DegeneratePartition,
    DegenerateSample,
    EmptyCases,
)
from labench.stats import (
    TeamResult,
    aggregate,
    build_leaderboard,
    compare_groups,
    correlate,
    leaderboard_from_summary,
    mean_std,
    welch_ttest,
)

from oracles import t_two_tailed_p_quadrature

DATA = Path(__file__).parent / "data"


def _published_rows():
    with open(DATA / "published_rankings.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _case(dice=0.9, stsd=1.0, hd=8.0):
    # one per-case row as labench.cli.read_case_csv returns it
    return {
        "dice": dice,
        "iou": dice / (2 - dice),
        "sensitivity": 0.9,
        "specificity": 0.999,
        "hd_mm": hd,
        "stsd_mm": stsd,
        "diameter_err_pct": 0.0,
        "volume_err_pct": 0.0,
    }


def _team(team_id, dices, stsd=1.0, attributes=None):
    cases = {f"case_{i:02d}": _case(d, stsd=stsd) for i, d in enumerate(dices)}
    return TeamResult(team_id=team_id, cases=cases, attributes=attributes or {})


# --- aggregation -----------------------------------------------------------


def test_mean_std_conventions():
    assert mean_std([0.5]) == (0.5, 0.0)
    m, s = mean_std([0.9, 0.94])
    assert m == pytest.approx(0.92)
    assert s == pytest.approx(0.028284271247, abs=1e-9)
    with pytest.raises(EmptyCases):
        mean_std([])


def test_aggregate_skips_absent_distances():
    cases = {"a": _case(0.9), "b": _case(0.8)}
    team = TeamResult("t", cases)
    stats = aggregate(team)
    assert stats["dice"][0] == pytest.approx(0.85)

    partial = {
        "a": _case(0.9),
        "b": {
            "dice": 0.0, "iou": 0.0, "sensitivity": 0.0, "specificity": 1.0,
            "hd_mm": None, "stsd_mm": None, "diameter_err_pct": 100.0, "volume_err_pct": 100.0,
        },
    }
    stats = aggregate(TeamResult("t", partial))
    assert stats["hd_mm"] == (8.0, 0.0)  # only the defined case counts


def test_aggregate_published_row_shape():
    rows = _published_rows()
    xia = next(r for r in rows if r["team_id"] == "xia")
    assert float(xia["dice_mean"]) == 93.2
    assert float(xia["dice_std"]) == 2.2


# --- welch -----------------------------------------------------------------


def test_welch_identical_samples():
    assert welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_welch_separated_samples():
    xs = [10.0, 10.01, 9.99, 10.0]
    ys = [0.0, 0.01, -0.01, 0.0]
    assert welch_ttest(xs, ys) < 1e-6


@pytest.mark.parametrize(
    "xs, ys",
    [
        pytest.param([2.0, 4.0, 6.0, 8.0], [1.0, 2.0, 3.0], id="small"),
        pytest.param(
            [math.sin(i) for i in range(400)],
            [0.15 + math.cos(i) for i in range(500)],
            id="large-df",
        ),
        pytest.param(
            [10.0, 10.4, 9.7, 10.1, 9.9, 10.3], [8.0, 8.3, 7.9, 8.1, 8.2], id="p-below-1e-6"
        ),
        pytest.param(
            [0.91, 0.93, 0.95],
            [0.80, 0.86, 0.83, 0.88, 0.79, 0.90, 0.84, 0.87, 0.81, 0.85, 0.89, 0.82],
            id="unequal-n",
        ),
    ],
)
def test_welch_fixed_samples_match_quadrature(xs, ys):
    p = welch_ttest(xs, ys)
    # recompute t and df to feed the quadrature oracle
    m1 = sum(xs) / len(xs)
    m2 = sum(ys) / len(ys)
    v1 = sum((x - m1) ** 2 for x in xs) / (len(xs) - 1) / len(xs)
    v2 = sum((y - m2) ** 2 for y in ys) / (len(ys) - 1) / len(ys)
    t = (m1 - m2) / math.sqrt(v1 + v2)
    df = (v1 + v2) ** 2 / (v1**2 / (len(xs) - 1) + v2**2 / (len(ys) - 1))
    assert p == pytest.approx(t_two_tailed_p_quadrature(t, df), rel=1e-6)


def test_welch_degenerate_samples():
    with pytest.raises(DegenerateSample):
        welch_ttest([1.0], [1.0, 2.0])
    with pytest.raises(DegenerateSample):
        welch_ttest([1.0, 1.0], [2.0, 2.0])
    assert welch_ttest([1.0, 1.0], [1.0, 1.0]) == 1.0


@given(st.integers(0, 2**31 - 1))
def test_welch_symmetry(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    xs = rng.normal(0.0, 1.0, size=6).tolist()
    ys = rng.normal(0.4, 2.0, size=5).tolist()
    assert welch_ttest(xs, ys) == pytest.approx(welch_ttest(ys, xs), abs=1e-12)


# --- correlate ----------------------------------------------------------------


def test_correlate_trivial_lines():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert correlate(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)
    assert correlate(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_correlate_matches_direct_formula():
    xs = [1.0, 2.0, 4.0, 5.0, 9.0]
    ys = [2.0, 1.0, 5.0, 3.0, 8.0]
    mx, my = sum(xs) / 5, sum(ys) / 5
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    assert correlate(xs, ys) == pytest.approx(num / den, abs=1e-12)


def test_correlate_affine_invariance_and_sign_flip():
    xs = [0.3, 1.2, 2.2, 5.0]
    ys = [4.0, 2.0, 6.0, 3.0]
    base = correlate(xs, ys)
    assert correlate([3 * x + 7 for x in xs], ys) == pytest.approx(base, abs=1e-12)
    assert correlate([-x for x in xs], ys) == pytest.approx(-base, abs=1e-12)


def test_correlate_constant_sample_errors():
    with pytest.raises(ConstantSample):
        correlate([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# --- groups ---------------------------------------------------------------------


def test_compare_groups_single_group_degenerate():
    teams = [_team("a", [0.9, 0.91], attributes={"cnn_count": "double"})]
    with pytest.raises(DegeneratePartition):
        compare_groups(teams, "cnn_count")


def test_compare_groups_published_fixture_means():
    # two-group fixture whose team means average to the published 92.8 / 90.3
    doubles = [
        _team("d1", [0.93, 0.93], attributes={"cnn_count": "double"}),
        _team("d2", [0.926, 0.926], attributes={"cnn_count": "double"}),
    ]
    singles = [
        _team("s1", [0.9, 0.9], attributes={"cnn_count": "single"}),
        _team("s2", [0.906, 0.906], attributes={"cnn_count": "single"}),
    ]
    comp = compare_groups(doubles + singles, "cnn_count")
    assert comp.groups["double"] == (2, pytest.approx(0.928))
    assert comp.groups["single"] == (2, pytest.approx(0.903))
    assert comp.p_value is not None


def test_compare_groups_order_invariance():
    teams = [
        _team("a", [0.93, 0.94], attributes={"dim": "3D"}),
        _team("b", [0.90, 0.91], attributes={"dim": "2D"}),
        _team("c", [0.88, 0.89], attributes={"dim": "2D"}),
    ]
    a = compare_groups(teams, "dim")
    b = compare_groups(list(reversed(teams)), "dim")
    assert a.groups == b.groups
    assert a.p_value == pytest.approx(b.p_value)


# --- leaderboard ------------------------------------------------------------------


def test_single_team_leaderboard():
    board = build_leaderboard([_team("solo", [0.9, 0.92])])
    assert board.ranking == ("solo",)
    assert board.rows[0].p_value is None


def test_two_team_ordering_and_significance():
    a = _team("alpha", [0.95, 0.95, 0.95])
    b = _team("beta", [0.80, 0.80, 0.80])
    board = build_leaderboard([a, b])
    assert board.ranking == ("alpha", "beta")
    board2 = build_leaderboard([b, a])
    assert board2.ranking == ("alpha", "beta")


def test_leaderboard_tie_break_by_stsd_then_id():
    a = _team("zeta", [0.9, 0.9], stsd=0.5)
    b = _team("eta", [0.9, 0.9], stsd=0.9)
    c = _team("theta", [0.9, 0.9], stsd=0.9)
    board = build_leaderboard([b, a, c])
    assert board.ranking == ("zeta", "eta", "theta")


def test_leaderboard_case_set_mismatch():
    a = _team("a", [0.9, 0.9])
    b = TeamResult("b", {"other": _case(0.8)})
    with pytest.raises(CaseSetMismatch):
        build_leaderboard([a, b])


def test_adding_team_preserves_existing_relative_order():
    a = _team("a", [0.95, 0.94])
    b = _team("b", [0.90, 0.91])
    c = _team("c", [0.93, 0.92])
    two = build_leaderboard([a, b]).ranking
    three = build_leaderboard([a, b, c]).ranking
    assert [t for t in three if t in two] == list(two)


def test_published_ordering_reproduced():
    rows = _published_rows()
    board = leaderboard_from_summary(rows)
    ranked = list(board.ranking)

    # grouped by printed dice mean; order within tie groups is the
    # deterministic stsd/id rule rather than the figure's print order
    printed_groups = [
        ["xia"], ["huang"], ["bian"], ["yang", "vesal"], ["lee", "puybareau"],
        ["chen"], ["xu"], ["jia"], ["liu"], ["borra"], ["devente"],
        ["preetha"], ["qiao"], ["nunez"], ["savioli"],
    ]
    pos = 0
    for group in printed_groups:
        chunk = ranked[pos:pos + len(group)]
        assert sorted(chunk) == sorted(group)
        pos += len(group)
    assert pos == len(ranked)
    # dice means are non-increasing down the board
    dices = [row.means["dice"] for row in board.rows]
    assert all(x >= y for x, y in zip(dices, dices[1:]))


def test_published_iou_dice_identity_within_half_point():
    rows = _published_rows()
    within = 0
    for row in rows:
        d = float(row["dice_mean"]) / 100.0
        predicted_iou = 100.0 * d / (2.0 - d)
        if abs(predicted_iou - float(row["iou_mean"])) <= 0.5:
            within += 1
    assert within >= 15


def test_aggregate_bounded_metric_stays_bounded(rng):
    dices = rng.uniform(0.0, 1.0, size=30).tolist()
    stats = aggregate(_team("t", dices))
    assert 0.0 <= stats["dice"][0] <= 1.0
