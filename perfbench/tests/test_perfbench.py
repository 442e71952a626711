"""Tests of the benchmark's own arithmetic: self time on a nested span
tree, the tail-percentile rule, invariant mismatch detection, the paired
comparison verdict and the round schedule.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, layer_metrics, self_times  # noqa: E402
from summary import invariant_mismatch, tail, verdict  # noqa: E402


def tree() -> Tracer:
    """harness [0, 100] > generators [10, 30] > scale_table [12, 17]
                        > detector   [40, 90] > query [50, 60], query [55, 70]
                                               > query [80, 95] (overruns parent)"""
    tr = Tracer()
    root = tr.add("harness.separation_experiment", 0, 100, a=2)
    gen = tr.add("generators.gen", 10, 30, parent=root)
    tr.add("generators.scale_table", 12, 17, parent=gen)
    det = tr.add("detectors.cert-collision", 40, 90, parent=root, a=40, b=1, c=1)
    tr.add("oracle.query", 50, 60, parent=det, a=16)
    tr.add("oracle.query", 55, 70, parent=det, a=16)
    tr.add("oracle.query", 80, 95, parent=det, a=8)
    return tr


def test_self_time_subtracts_union_of_children():
    tr = tree()
    selfs = self_times(tr.start, tr.end, tr.parent)
    # root: 100 minus children [10,30] and [40,90]
    assert selfs[0] == 100 - 20 - 50
    assert selfs[1] == 20 - 5
    assert selfs[2] == 5
    # detector: overlapping children merge to [50,70]; the overrun is clipped to [80,90]
    assert selfs[3] == 50 - 20 - 10
    assert selfs[4:] == [10, 15, 15]


def test_layer_metrics_from_span_tree():
    m = {k: v for k, (v, _) in layer_metrics(tree()).items()}
    assert m["harness.self_s"] == pytest.approx(30e-9)
    assert m["harness.trials"] == 2
    assert m["generators.self_s"] == pytest.approx(15e-9)
    assert m["generators.ms_per_call"] == pytest.approx(20e-6)
    assert m["generators.scale_table_s"] == pytest.approx(5e-9)
    assert m["oracle.queries"] == 40
    assert m["oracle.queries_per_call"] == pytest.approx(40 / 3)
    assert m["detectors.cert-collision.self_us_per_query"] == pytest.approx(20e-3 / 40)
    assert m["detectors.cert-collision.found_ratio"] == 1.0
    assert m["detectors.multiscale.calls"] == 0
    assert m["svg.render_ms"] == 0.0


def test_traced_wrapper_nests_and_counts():
    tr = Tracer()

    def inner(x):
        return [x] * x

    traced_inner = tr.wrap("oracle.query", inner, lambda r, a, k: (len(r), 0, 0))
    outer = tr.wrap("detectors.multiscale", lambda: traced_inner(3) + traced_inner(2))
    assert outer() == [3, 3, 3, 2, 2]
    assert list(tr.parent) == [-1, 0, 0]
    assert list(tr.a) == [0, 3, 2]
    with pytest.raises(ZeroDivisionError):
        tr.wrap("svg.line_chart", lambda: 1 / 0)()
    assert tr.end[3] >= tr.start[3] and not tr._stack


@pytest.mark.parametrize("n, pct", [
    (19, 100.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    samples = list(range(n, 0, -1))          # order must not matter
    got_pct, value = tail(samples)
    assert got_pct == pct
    if pct < 100:
        assert sum(1 for s in samples if s > value) >= 10
    else:
        assert value == n


def test_invariant_mismatch_is_detected():
    recorded = {"calls": [["cert-collision", "Found", 128, 9, [1, 2, 3]]], "queries": 128}
    same = {"calls": [("cert-collision", "Found", 128, 9, (1, 2, 3))], "queries": 128}
    assert invariant_mismatch(recorded, same) is None
    moved = {"calls": [["cert-collision", "Found", 129, 9, [1, 2, 3]]], "queries": 129}
    msg = invariant_mismatch(recorded, moved)
    assert "queries: recorded 128, got 129" in msg and "calls" in msg
    assert invariant_mismatch(None, same) == "no recorded invariant for this unit"


def test_verdict_rules():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [80, 81, 79, 80, 82, 78, 80, 81, 79, 101]     # wins 9 of 10
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert verdict(parent, parent, "lower", 0.1)["verdict"] == "within bound"
    slower = [p * 1.3 for p in parent]
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    noisy = [60, 140, 70, 130, 100, 65, 135, 100, 90, 110]
    assert verdict(noisy, noisy, "higher", 0.1)["verdict"] == "unresolved"


def test_rounds_hold_one_key_per_cell():
    from workloads import rounds
    cells = {"a": ["a1", "a2"], "b": ["b1", "b2", "b3"]}
    stream = rounds(cells, seed=7)
    batches = [next(stream) for _ in range(6)]
    assert all(sorted(k[0] for k in b) == ["a", "b"] for b in batches)
    assert sorted(b[[k[0] for k in b].index("b")] for b in batches[:3]) == ["b1", "b2", "b3"]
    again = rounds(cells, seed=7)
    assert [next(again) for _ in range(6)] == batches
