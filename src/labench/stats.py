"""Cross-case aggregation, significance testing and leaderboard building.

Significance uses the two-tailed Welch (unequal-variance) t-test. Its
t-distribution tail, a regularized incomplete beta function, is computed
in this module (:func:`_t_tail`), so ranking imports no scipy. It is
within 1e-12 relative of scipy's ``betainc`` for df 1 to 1e4 and |t| up
to 50; the tests hold it to 1e-11 with scipy as the reference. A team's
leaderboard p-value compares its per-case Dice sample against the pooled
per-case Dice of all other teams; that pooling choice is recorded in the
JSON report metadata.

The module computes values only; :mod:`labench.cli` reads the per-case
tables into :class:`TeamResult` rows and writes the leaderboard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    CaseSetMismatch,
    ConstantSample,
    DegeneratePartition,
    DegenerateSample,
    EmptyCases,
)

LEADERBOARD_METRICS = ("dice", "iou", "sensitivity", "specificity", "hd_mm", "stsd_mm")


@dataclass
class TeamResult:
    """One team's per-case rows, case id to {metric name: value}; a value is
    None where it is absent (the surface distances of an empty prediction)."""

    team_id: str
    cases: dict[str, dict[str, float | None]]
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class LeaderboardRow:
    team_id: str
    means: dict[str, float | None]
    stds: dict[str, float | None]
    p_value: float | None


# --- basic statistics -------------------------------------------------------


def mean_std(values) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation; std 0 for n = 1."""
    xs = [float(x) for x in values]
    n = len(xs)
    if n == 0:
        raise EmptyCases("cannot aggregate an empty sample")
    m = math.fsum(xs) / n
    if n == 1:
        return m, 0.0
    var = math.fsum((x - m) ** 2 for x in xs) / (n - 1)
    return m, math.sqrt(var)


def aggregate(team: TeamResult) -> dict[str, tuple[float | None, float | None]]:
    """Per-metric (mean, sample std) over a team's cases.

    hd/stsd values can be absent for empty predictions; those cases are
    skipped for that metric, and a metric with no defined values at all
    aggregates to (None, None).
    """
    if not team.cases:
        raise EmptyCases(f"team {team.team_id!r} has no cases")
    out: dict[str, tuple[float | None, float | None]] = {}
    for metric in LEADERBOARD_METRICS:
        values = [c[metric] for c in team.cases.values() if c[metric] is not None]
        out[metric] = mean_std(values) if values else (None, None)
    return out


def correlate(xs, ys) -> float:
    """Pearson product-moment correlation coefficient."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise DegenerateSample("correlation needs two equal-length samples of size >= 2")
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantSample("correlation of a constant sample is undefined")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


# --- Welch t-test ---------------------------------------------------------------


def welch_ttest(xs, ys) -> float:
    """Two-tailed p-value of Welch's unequal-variance t-test. The tail is
    :func:`_t_tail`, within 1e-12 relative of scipy's ``betainc`` (the
    tests' reference); identical samples give exactly 1.0."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n1, n2 = len(xs), len(ys)
    if n1 < 2 or n2 < 2:
        raise DegenerateSample("each sample needs at least two values")
    m1, s1 = mean_std(xs)
    m2, s2 = mean_std(ys)
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise DegenerateSample("sample variance is not finite")
    v1 = s1 * s1 / n1
    v2 = s2 * s2 / n2
    if v1 + v2 == 0.0:
        if m1 == m2:
            return 1.0
        raise DegenerateSample("both samples are constant; t statistic undefined")
    t = (m1 - m2) / math.sqrt(v1 + v2)
    df = (v1 + v2) ** 2 / (
        (v1 * v1 / (n1 - 1) if v1 else 0.0) + (v2 * v2 / (n2 - 1) if v2 else 0.0)
    )
    return _t_tail(t, df)


def _t_tail(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom: the
    regularized incomplete beta I_x(a, b), a = df/2, b = 1/2, x = df/(df+t²).

    Lentz's continued fraction, taken for I_{1-x}(b, a) = 1 - I_x(a, b)
    past x = (a+1)/(a+b+2), times a prefactor formed in log space. x and
    1 - x are each formed from t²/df, so neither inherits the other's rounding.
    """
    tt = t * t
    if tt == 0.0:  # also for 0 < |t| < 1e-154, whose tail rounds to 1
        return 1.0
    a = df / 2.0
    if a < 64.0:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:  # log Γ(a+½) - log Γ(a) with Stirling tails s, not two lgammas near a·log a
        s = [(1 / 12 - 1 / (360 * z * z)) / z for z in (a + 0.5, a)]
        log_ratio = a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5 + s[0] - s[1]
    front = math.exp(
        log_ratio - 0.5 * math.log(math.pi) - a * math.log1p(tt / df) - 0.5 * math.log1p(df / tt)
    )
    x = 1.0 / (1.0 + tt / df)
    swap = x > (a + 1.0) / (a + 2.5)
    p, q, z = (0.5, a, 1.0 / (1.0 + df / tt)) if swap else (a, 0.5, x)
    f, c, d = 1.0, 1.0, 0.0  # f = 1 + d1/(1 + d2/(1 + ...)), O(sqrt(a)) terms
    for k in range(1, 10_000):
        m = k // 2
        coef = (-(p + m) * (p + q + m) if k % 2 else m * (q - m)) * z / ((p + k - 1) * (p + k))
        d = 1.0 / (1.0 + coef * d or 1e-300)
        c = 1.0 + coef / c or 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 4e-16:
            break
    tail = front / (p * f)  # I_z(p, q)
    return 1.0 - tail if swap else tail


# --- group comparisons --------------------------------------------------------


@dataclass(frozen=True)
class GroupComparison:
    attribute: str
    groups: dict[str, tuple[int, float]]  # value -> (team count, mean of team means)
    p_value: float | None  # Welch over team means; only defined for 2 groups


def compare_groups(teams, attribute: str) -> GroupComparison:
    """Compare team-mean Dice, the metric of the paper's subgroup tests,
    across the groups an attribute induces.

    The p-value is a Welch test over the two groups' team-mean samples;
    with more than two groups (or a group too small to test) it is None.
    """
    buckets: dict[str, list[float]] = {}
    for team in teams:
        value = team.attributes.get(attribute)
        if value is None or value == "":
            continue
        team_mean = aggregate(team)["dice"][0]
        if team_mean is None:
            continue
        buckets.setdefault(str(value), []).append(team_mean)
    if len(buckets) < 2:
        raise DegeneratePartition(
            f"attribute {attribute!r} yields {len(buckets)} non-empty group(s); need >= 2"
        )
    groups = {
        value: (len(means), math.fsum(means) / len(means))
        for value, means in sorted(buckets.items())
    }
    p_value = None
    if len(buckets) == 2:
        (xs, ys) = buckets.values()
        try:
            p_value = welch_ttest(xs, ys)
        except DegenerateSample:
            p_value = None
    return GroupComparison(attribute=attribute, groups=groups, p_value=p_value)


# --- leaderboard ---------------------------------------------------------------


def _rank_key(row: LeaderboardRow):
    dice_mean = row.means.get("dice")
    stsd_mean = row.means.get("stsd_mm")
    return (
        -(dice_mean if dice_mean is not None else -math.inf),
        stsd_mean if stsd_mean is not None else math.inf,
        row.team_id,
    )


def build_leaderboard(teams) -> tuple[LeaderboardRow, ...]:
    """Rank teams by mean Dice (ties: lower mean STSD, then team id) and
    return their rows in rank order.

    All teams must share one case-id set. Each team's p-value is a Welch
    test of its per-case Dice against the concatenation of every other
    team's per-case Dice; it is None when only one team is ranked or the
    samples are too small.
    """
    teams = list(teams)
    if not teams:
        raise EmptyCases("no teams to rank")
    case_ids = set(teams[0].cases)
    for team in teams[1:]:
        if set(team.cases) != case_ids:
            raise CaseSetMismatch(
                f"team {team.team_id!r} case ids differ from {teams[0].team_id!r}"
            )

    rows = []
    for team in teams:
        stats = aggregate(team)
        p_value = None
        others = [
            c["dice"] for other in teams if other is not team for c in other.cases.values()
        ]
        if others:
            try:
                p_value = welch_ttest([c["dice"] for c in team.cases.values()], others)
            except DegenerateSample:
                p_value = None
        rows.append(
            LeaderboardRow(
                team_id=team.team_id,
                means={m: stats[m][0] for m in LEADERBOARD_METRICS},
                stds={m: stats[m][1] for m in LEADERBOARD_METRICS},
                p_value=p_value,
            )
        )
    rows.sort(key=_rank_key)
    return tuple(rows)


def leaderboard_from_summary(rows) -> tuple[LeaderboardRow, ...]:
    """Rank pre-aggregated per-team summary rows (no per-case data) and
    return them as leaderboard rows in rank order.

    Each row is a mapping with ``team_id`` and, as parsed numbers or None,
    ``<metric>_mean`` / ``<metric>_std`` entries and optionally
    ``p_value``; an entry left out reads as None. The ranking rule is
    identical to :func:`build_leaderboard` and unit-agnostic, so
    summaries quoted in percent rank the same as fractions.
    """
    board_rows = []
    for row in rows:
        board_rows.append(
            LeaderboardRow(
                team_id=str(row["team_id"]),
                means={m: row.get(f"{m}_mean") for m in LEADERBOARD_METRICS},
                stds={m: row.get(f"{m}_std") for m in LEADERBOARD_METRICS},
                p_value=row.get("p_value"),
            )
        )
    board_rows.sort(key=_rank_key)
    return tuple(board_rows)
