"""Pure helpers: the tail-percentile rule, invariant comparison and the
paired-comparison verdict. Standard library only, so the tests and the
compare script can import them without numpy or qsep."""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction

LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_xs, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(Fraction(str(p)) * len(sorted_xs) / 100))
    return sorted_xs[rank - 1]


def tail(samples, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile of LADDER with at least ``beyond`` samples
    above its rank, as (percentile, value). With fewer than 2*beyond
    samples no rung qualifies and the maximum is returned as p100."""
    xs = sorted(samples)
    n = len(xs)
    best = (100.0, xs[-1] if xs else 0.0)
    for p in LADDER:
        rank = max(1, math.ceil(Fraction(str(p)) * n / 100))
        if n - rank >= beyond:
            best = (p, xs[rank - 1])
    return best


def normalise(record):
    """JSON round trip, so tuples and lists compare equal."""
    return json.loads(json.dumps(record, sort_keys=True))


def invariant_mismatch(expected, got) -> str | None:
    """None when the unit's outcome equals its recorded invariant, else a
    description of the first differences."""
    if expected is None:
        return "no recorded invariant for this unit"
    got = normalise(got)
    expected = normalise(expected)
    if got == expected:
        return None
    if isinstance(got, dict) and isinstance(expected, dict):
        diffs = [f"{k}: recorded {expected.get(k)!r}, got {got.get(k)!r}"
                 for k in sorted(set(got) | set(expected)) if got.get(k) != expected.get(k)]
        return "; ".join(diffs[:4])
    return f"recorded {expected!r}, got {got!r}"


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    """Paired comparison of one metric (values listed pair by pair).

    A gain needs the change to win at least 9 in 10 pairs (ties count for
    neither side) and the medians to differ by more than the parent's
    interquartile range. When the parent's spread exceeds the bound, the
    metric is unresolved unless every change run beats every parent run.
    Otherwise it is a regression when the change's median is worse than
    the parent's by more than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    spread = iqr / pm if pm else math.inf
    delta = sign * (cm - pm)          # > 0 means the change is better
    pairs = len(parent)
    if pairs and wins * 10 >= 9 * pairs and delta > iqr:
        call = "gain"
    elif spread > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        call = "better in every run" if all_better else "unresolved"
    elif -delta > bound * abs(pm):
        call = "regression"
    else:
        call = "within bound"
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins,
            "pairs": pairs, "parent_spread": spread, "verdict": call}
