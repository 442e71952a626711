"""Pinned budget behaviour: every detector on a grid of oracle budgets.

``budget_snapshot.json`` holds, for each (setup, budget, relabel) triple,
the detector's result (status, queries, attempts, witness, details; the
battery's result dict), the oracle's final count and a sha256 of its
transcript. It was recorded at commit 346c08c, where each detector still
took its own ``budget=`` argument; the replay puts the same budget on the
oracle, a ``RecordingOracle`` that logs the transcript. The grid reaches
every clipping rule (a batch cut in the middle, a budget smaller than one
lockstep round) and every early refusal (claw's 2- and 3-query steps,
uniform-probe's 2*d star checks), so a change to how budgets are spent
shows up here.
Besides the fixed BUDGETS, each (setup, relabel) pair is cut one and two
queries before its unbudgeted run ends, which lands inside its last step.

The recording is kept as made, less the rows of the setups whose
detectors were deleted (path-k, edge-wedge and uniform-probe's wedge
target). MENDED lists the entries whose status differs from it on
purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qsep import (
    Certificate,
    CountedOracle,
    FixedPointParams,
    ScaleParams,
    cert_claw_search,
    cert_collision_search,
    cert_fixedpoint_search,
    cert_star_search,
    cert_starpath_search,
    collision_attempt_battery,
    corrupt_certificate,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
    multiscale_collision_search,
    uniform_probe_baseline,
)
from qsep.oracle import FunctionInstance, Witness, _jsonable, canonical_json
from recording_oracle import RecordingOracle

SNAPSHOT = Path(__file__).with_name("budget_snapshot.json")

BUDGETS = (None, -5, 0, 1, 2, 3, 4, 5, 7, 10, 17, 31, 100, 257, 500, 777,
           1000, 2500, 6000, 20000, 60000)
RELABEL_SEED = 7
SETUP_NAMES = (
    "battery", "battery-wide", "cert-collision", "cert-collision-free",
    "multiscale", "multiscale-free", "cert-claw", "cert-claw-free",
    "cert-fixedpoint", "cert-fixedpoint-follow", "cert-star",
    "cert-star-corrupt", "cert-starpath", "cert-starpath-corrupt",
    "uniform-fixed-point", "uniform-fixed-point-ring", "uniform-k-star")

# uniform-probe reported Exhausted when the budget clipped its last chunk
# short of the end; having probed only part of the domain it now reports
# BudgetExceeded, with the same queries, attempts and transcript
MENDED = {("uniform-fixed-point-ring", budget, relabel): "BudgetExceeded"
          for budget in (4094, 4095) for relabel in (False, True)}
# the shared collision walker reported Exhausted when the budget clipped
# its last round and max_attempts then stopped respawns, though the
# dropped lanes' walks never finished; it now reports BudgetExceeded,
# with the same queries, attempts and transcript
MENDED.update({
    ("cert-collision-free", 3796, False): "BudgetExceeded",
    ("cert-collision-free", 3797, False): "BudgetExceeded",
    ("cert-collision-free", 3800, True): "BudgetExceeded",
    ("cert-collision-free", 3801, True): "BudgetExceeded",
    ("multiscale-free", 2776, True): "BudgetExceeded",
})


def grid_budgets(unbudgeted: int) -> list:
    """BUDGETS plus cuts one and two queries short of an unbudgeted run."""
    cuts = [b for b in (unbudgeted - 1, unbudgeted - 2) if b not in BUDGETS]
    return list(BUDGETS) + cuts


def setups() -> dict:
    """name -> (instance, detector, positional args, keyword args)."""
    par = ScaleParams(i_min=2, i_max=5)
    fn, fc, _ = gen_collision_function(4096, par, seed=3)
    free, _, _ = gen_collision_function(1024, ScaleParams(2, 4), seed=1,
                                        b_override=0)
    claw, clc, _ = gen_claw_graph(4096, par, seed=7)
    claw_free, _, _ = gen_claw_graph(1024, ScaleParams(2, 4), seed=3,
                                     b_override=0)
    fp, fpc, _ = gen_fixedpoint_function(4096, FixedPointParams(), seed=2)
    fp_long, fplc, _ = gen_fixedpoint_function(
        1 << 14, FixedPointParams(cycle_len=1 << 11, feeder_len=8), seed=9)
    star, stc, _ = gen_star_graph(2048, "triangle", seed=9)
    sp, spc, _ = gen_starpath_graph(4096, 4, seed=29)
    ring = FunctionInstance(n=4096, succ=[(i + 1) % 4096 for i in range(4096)],
                            meta=None, info={})
    return {
        "battery": (fn, collision_attempt_battery, (fc.payload["t"], 3000),
                    {"seed": 1, "batch": 100}),
        "battery-wide": (fn, collision_attempt_battery, (5, 6000),
                         {"seed": 2, "batch": 512}),
        "cert-collision": (fn, cert_collision_search, (fc,), {"seed": 1}),
        "cert-collision-free": (free, cert_collision_search,
                                (Certificate("CollisionScale", {"t": 3}),),
                                {"seed": 0, "max_attempts": 3000}),
        "multiscale": (fn, multiscale_collision_search, (2, 5), {"seed": 1}),
        "multiscale-free": (free, multiscale_collision_search, (2, 4),
                            {"seed": 42, "max_attempts": 2000}),
        "cert-claw": (claw, cert_claw_search, (clc,), {"seed": 123}),
        "cert-claw-free": (claw_free, cert_claw_search,
                           (Certificate("ClawScale", {"t": 3}),),
                           {"seed": 1, "max_attempts": 300}),
        "cert-fixedpoint": (fp, cert_fixedpoint_search, (fpc,), {"seed": 3}),
        "cert-fixedpoint-follow": (fp_long, cert_fixedpoint_search, (fplc,),
                                   {"seed": 1, "max_iterations": 8}),
        "cert-star": (star, cert_star_search, (stc,), {"seed": 1}),
        "cert-star-corrupt": (star, cert_star_search,
                              (corrupt_certificate(stc, None, star.meta.extras),),
                              {"seed": 1}),
        "cert-starpath": (sp, cert_starpath_search, (spc,), {"seed": 5}),
        "cert-starpath-corrupt": (sp, cert_starpath_search,
                                  (corrupt_certificate(spc, 3, sp.meta.extras),),
                                  {"seed": 3}),
        "uniform-fixed-point": (fp, uniform_probe_baseline, ("fixed-point",),
                                {"seed": 1}),
        "uniform-fixed-point-ring": (ring, uniform_probe_baseline,
                                     ("fixed-point",), {"seed": 0}),
        "uniform-k-star": (sp, uniform_probe_baseline, ("k-star",),
                           {"seed": 2, "k": 4}),
    }


def _plain(obj):
    if isinstance(obj, Witness):
        return {"kind": obj.kind, "vertices": list(obj.vertices)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def summarize(result, oracle) -> dict:
    """The pinned record of one detector call."""
    res = result if isinstance(result, dict) else _jsonable(result)
    transcript = repr(oracle.transcript).encode()
    return {
        "result": json.loads(canonical_json(_plain(res))),
        "count": oracle.count,
        "transcript": hashlib.sha256(transcript).hexdigest(),
    }


def replay(setup, budget, relabel) -> dict:
    inst, fn, args, kwargs = setup
    oracle = RecordingOracle(inst, relabel_seed=RELABEL_SEED if relabel else None,
                             budget=budget)
    return summarize(fn(oracle, *args, **kwargs), oracle)


@pytest.fixture(scope="module")
def recorded():
    rows = json.loads(SNAPSHOT.read_text())
    table = {}
    for row in rows:
        table.setdefault(row["setup"], []).append(row)
    return table


@pytest.fixture(scope="module")
def grid():
    return setups()


def test_snapshot_covers_the_grid(recorded, grid):
    assert sorted(recorded) == sorted(grid) == sorted(SETUP_NAMES)
    for rows in recorded.values():
        for relabel in (False, True):
            mine = [r for r in rows if r["relabel"] == relabel]
            full = next(r["count"] for r in mine if r["budget"] is None)
            assert [r["budget"] for r in mine] == grid_budgets(full)


@pytest.mark.parametrize("name", SETUP_NAMES)
def test_budget_replay_matches_snapshot(name, recorded, grid):
    for row in recorded[name]:
        got = replay(grid[name], row["budget"], row["relabel"])
        want = {k: row[k] for k in ("result", "count", "transcript")}
        status = MENDED.get((name, row["budget"], row["relabel"]))
        if status is not None:
            want["result"] = {**want["result"], "status": status}
        assert got == want, (name, row["budget"], row["relabel"])


# the sweep below runs every SearchOutcome setup of the grid, plus
# cert-fixedpoint without primes on the fixed-point-free ring, where a
# budget just short of the end clips the last round of long walks; and
# each setup's extra budgets, here the ones at which cert-star's centre
# batch is clipped and drops the certified centre
SWEEP_EXTRA = {"cert-star": range(1960, 1990)}
SWEEP_NAMES = tuple(name for name in SETUP_NAMES
                    if not name.startswith("battery")) + ("cert-fixedpoint-ring",)


@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_a_run_cut_short_is_never_exhausted(name, grid):
    """Under a budget below its unbudgeted cost a run cannot end the way
    the unbudgeted run did, so it ends Found or BudgetExceeded, never
    Exhausted; checked at the grid's budgets and the last 64 before that
    cost."""
    if name == "cert-fixedpoint-ring":
        setup = (grid["uniform-fixed-point-ring"][0], cert_fixedpoint_search,
                 (Certificate("FixedPointPrimes", {"primes": []}),),
                 {"seed": 3, "max_iterations": 1})
    else:
        setup = grid[name]
    inst, fn, args, kwargs = setup
    for relabel in (False, True):
        relabel_seed = RELABEL_SEED if relabel else None
        cost = fn(CountedOracle(inst, relabel_seed=relabel_seed), *args,
                  **kwargs).queries
        budgets = {b for b in BUDGETS if b is not None}
        budgets |= set(range(cost - 64, cost)) | set(SWEEP_EXTRA.get(name, ()))
        for budget in sorted(b for b in budgets if b < cost):
            oracle = CountedOracle(inst, relabel_seed=relabel_seed, budget=budget)
            status = fn(oracle, *args, **kwargs).status
            assert status != "Exhausted", (name, budget, relabel)
