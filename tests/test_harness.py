"""Harness: expectation evaluators, trial runner, separation scaffolding, I/O."""

import hashlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qsep
from qsep import (
    FixedPointParams,
    ScaleParams,
    TrialConfig,
    analytic_cert_expectation,
    exact_cert_expectation,
    gen_collision_function,
    meta_cert_expectation,
    read_trials_csv,
    run_trials,
    separation_experiment,
    slope_fit,
    write_trials_csv,
)
from qsep import harness
from qsep.generators import FAMILIES, ParameterError
from qsep.harness import (SeparationPoint, SlopeSeries, _wilson, slope_experiment,
                           write_report_json)
from qsep.oracle import FunctionInstance, _relabel_maps
from recording_oracle import RecordingOracle

PAR = ScaleParams(i_min=2, i_max=5)


class TestExpectationEvaluators:
    def test_exact_on_tiny_hand_case(self):
        # 0 -> 1 -> 2 -> 0 cycle plus tail 3 -> 0: walk cap 4
        succ = np.array([1, 2, 0, 0])
        inst = FunctionInstance(n=4, succ=succ, meta=None, info={})
        exp = exact_cert_expectation(inst, t=2)
        # tau+sigma per start: 0+3, 0+3, 0+3, 1+3; cap W=4
        # successes: tau >= 1 and tau+sigma <= 4 -> only start 3
        assert exp.success_prob == Fraction(1, 4)
        assert exp.cost_per_attempt == Fraction(3 + 3 + 3 + 4, 4)
        assert exp.expected_total == Fraction(13, 1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_meta_equals_exact(self, seed):
        inst, _, _ = gen_collision_function(2048, PAR, seed=seed)
        a = exact_cert_expectation(inst)
        b = meta_cert_expectation(inst)
        assert a.success_prob == b.success_prob
        assert a.cost_per_attempt == b.cost_per_attempt
        assert a.expected_total == b.expected_total

    def test_meta_equals_exact_with_cycle_filler(self):
        inst, _, _ = gen_collision_function(2048, PAR, seed=7, filler="cycles")
        a = exact_cert_expectation(inst)
        b = meta_cert_expectation(inst)
        assert a.success_prob == b.success_prob
        assert a.cost_per_attempt == b.cost_per_attempt

    def test_witness_free_instance_has_no_expected_total(self):
        inst, _, _ = gen_collision_function(1024, ScaleParams(2, 4), seed=1,
                                            b_override=0)
        a = exact_cert_expectation(inst, t=3)
        b = meta_cert_expectation(inst, t=3)
        assert a.success_prob == 0 == b.success_prob
        assert a.expected_total is None and b.expected_total is None

    def test_graph_instance_is_refused(self):
        inst, _ = FAMILIES["claw-graph"].make(4096, 0)
        with pytest.raises(ValueError,
                           match="^exact enumeration needs a function instance$"):
            exact_cert_expectation(inst, t=2)

    @pytest.mark.parametrize("calc", [exact_cert_expectation,
                                      meta_cert_expectation])
    def test_instance_without_scale_needs_t(self, calc):
        inst, _ = FAMILIES["fixedpoint-fn"].make(4096, 0)  # no "t" extra
        with pytest.raises(ValueError,
                           match="^instance carries no scale; pass t explicitly$"):
            calc(inst)

    def test_structure_kind_outside_the_closed_form_is_refused(self):
        inst, _ = FAMILIES["fixedpoint-fn"].make(4096, 0)  # cycles and feeders
        with pytest.raises(ValueError,
                           match="^unexpected structure kind 'feeder'$"):
            meta_cert_expectation(inst, t=3)

    @pytest.mark.parametrize("change", [lambda m: m + [1], lambda m: m[1:]],
                             ids=["one more", "one fewer"])
    def test_witness_offsets_must_match_the_path_count(self, change):
        inst, _ = FAMILIES["collision-fn"].make(2048, 0, params=PAR)
        extras = inst.meta.extras
        extras["witness_offsets"] = change(extras["witness_offsets"])
        with pytest.raises(ValueError, match="^witness offset list does not "
                                             "match path structures$"):
            meta_cert_expectation(inst)

    @pytest.mark.parametrize("n, par", [(1 << 10, ScaleParams(2, 5)),
                                        (1 << 12, ScaleParams(2, 7))])
    @pytest.mark.parametrize("filler", ["fixed", "cycles"])
    def test_meta_equals_exact_at_every_scale(self, n, par, filler):
        instances = [gen_collision_function(n, par, seed=t, filler=filler,
                                            t_override=t)[0]
                     for t in range(par.i_min, par.i_max + 1)]
        instances.append(gen_collision_function(n, par, seed=1, filler=filler,
                                                b_override=0)[0])
        # t=None reads the instance's scale; the others cap walks below
        # and above the paths' length
        for inst in instances:
            for t in (None, *range(par.i_max + 2)):
                assert (exact_cert_expectation(inst, t)
                        == meta_cert_expectation(inst, t)), \
                    (inst.meta.extras["t"], t)

    @pytest.mark.parametrize("t", [62, 63, 64, 100])
    def test_a_cap_beyond_n_gives_the_law_of_a_cap_of_n(self, t):
        inst, _ = FAMILIES["collision-fn"].make(2048, 3, params=PAR)
        succ = np.random.default_rng(t).integers(0, 2048, 2048)
        walk = FunctionInstance(n=2048, succ=succ, meta=None, info={})
        whole = math.ceil(math.log2(2048))
        for calc, case in ((exact_cert_expectation, inst),
                           (meta_cert_expectation, inst),
                           (exact_cert_expectation, walk)):
            assert calc(case, t=t) == calc(case, t=whole)

    def test_analytic_tracks_exact_cost_per_attempt(self):
        par = ScaleParams(i_min=4, i_max=8, c=0.3)
        for seed in range(4):
            inst, cert, meta = gen_collision_function(1 << 16, par, seed=seed)
            exact = exact_cert_expectation(inst)
            _, cost_per, _ = analytic_cert_expectation(
                1 << 16, par, cert.payload["t"], meta.extras["rho"])
            rel = abs(cost_per / float(exact.cost_per_attempt) - 1)
            assert rel <= 0.05, (seed, rel)


class TestSlopeFit:
    def test_three_quarter_power(self):
        ns = np.array([2 ** k for k in range(12, 19)], dtype=float)
        fit = slope_fit(ns, ns ** 0.75)
        assert abs(fit.slope - 0.75) < 1e-12
        assert fit.r2 > 0.999999

    def test_linear_with_constant(self):
        ns = np.array([2 ** k for k in range(12, 19)], dtype=float)
        fit = slope_fit(ns, 7.0 * ns)
        assert abs(fit.slope - 1.0) < 1e-12

    def test_rejects_short_or_narrow_input(self):
        with pytest.raises(ValueError):
            slope_fit([1024.0, 2048.0], [10.0, 20.0])
        with pytest.raises(ValueError):
            slope_fit([1024.0, 1100.0, 1200.0], [1.0, 2.0, 3.0])

    def test_noisy_data_keeps_r2_meaningful(self):
        rng = np.random.default_rng(5)
        ns = np.array([2 ** k for k in range(10, 18)], dtype=float)
        ys = ns ** 0.5 * np.exp(rng.normal(0, 0.05, size=len(ns)))
        fit = slope_fit(ns, ys)
        assert 0.4 < fit.slope < 0.6
        assert fit.r2 > 0.9


class TestWilson:
    def test_endpoints_and_coverage(self):
        lo, hi = _wilson(0, 50)
        assert lo == 0.0 and 0 < hi < 0.15
        lo, hi = _wilson(50, 50)
        assert 0.85 < lo < 1 and hi == 1.0
        lo, hi = _wilson(25, 50)
        assert lo < 0.5 < hi


CFG = TrialConfig(
    generator="collision-fn",
    detector="cert-collision",
    n=2048,
    trials=8,
    master_seed=99,
    gen_kwargs={"params": {"i_min": 2, "i_max": 5}},
    det_kwargs={},
)


class TestRunTrials:
    def test_deterministic_rows(self):
        s1, rows1 = run_trials(CFG)
        s2, rows2 = run_trials(CFG)
        assert rows1 == rows2
        assert s1.successes == s2.successes
        assert s1.successes == 8  # certificate search should always land here

    def test_parallel_matches_serial(self):
        _, serial = run_trials(CFG)
        _, par = run_trials(CFG, workers=2)
        assert serial == par

    def test_relabel_invariance_of_success(self):
        plain = TrialConfig(**{**CFG.__dict__, "relabel": False})
        s_rel, _ = run_trials(CFG)
        s_plain, _ = run_trials(plain)
        assert s_rel.successes == s_plain.successes

    def test_zero_trials_flags_empty(self):
        cfg = TrialConfig(**{**CFG.__dict__, "trials": 0})
        stats, rows = run_trials(cfg)
        assert stats.empty and rows == []

    def test_budget_propagates(self):
        cfg = TrialConfig(
            generator="collision-fn", detector="multiscale", n=1024,
            trials=4, master_seed=7,
            gen_kwargs={"params": {"i_min": 2, "i_max": 4}, "b_override": 0},
            det_kwargs={"i_min": 2, "i_max": 4}, budget=400)
        stats, rows = run_trials(cfg)
        assert stats.successes == 0
        assert all(r["status"] == "BudgetExceeded" for r in rows)
        assert all(int(r["queries"]) <= 400 for r in rows)

    def test_config_hash_stable_and_sensitive(self):
        assert CFG.config_hash() == CFG.config_hash()
        other = TrialConfig(**{**CFG.__dict__, "master_seed": 100})
        assert other.config_hash() != CFG.config_hash()


class TestSeparationExperiment:
    def test_a_lane_keeps_its_seed_alone_or_paired(self):
        # a pilot spawns three children where a pair spawns four; the first
        # three must be the same draws
        def states(k):
            return [c.generate_state(4).tolist()
                    for c in np.random.SeedSequence([5, 0, 1 << 30]).spawn(k)]
        assert states(3) == states(4)[:3]

    def test_smoke_two_points(self):
        points = [
            SeparationPoint(
                x=s, n=4096,
                generator="collision-fn",
                gen_kwargs={"params": {"i_min": 2, "i_max": 2 + s, "c": 0.3}},
                cert_kwargs={},
                baseline_kwargs={"i_min": 2, "i_max": 2 + s},
            )
            for s in (2, 3)
        ]
        rep = separation_experiment(points, trials=6, master_seed=11,
                                    budget_factor=50.0, pilot_trials=4)
        assert rep.xs == [2, 3]
        assert len(rep.cert_stats) == 2 and len(rep.base_stats) == 2
        assert all(b >= 1 for b in rep.budgets)
        assert all(s.trials == 6 for s in rep.cert_stats)
        # paired rows for both sides of every trial
        assert len(rep.rows) == 2 * 2 * 6
        j = rep.to_jsonable()
        assert j["ratios"] == rep.ratios

    def test_deterministic(self):
        points = [SeparationPoint(
            x=2, n=2048,
            generator="collision-fn",
            gen_kwargs={"params": {"i_min": 2, "i_max": 4}},
            cert_kwargs={},
            baseline_kwargs={"i_min": 2, "i_max": 4},
        )]
        r1 = separation_experiment(points, trials=4, master_seed=5)
        r2 = separation_experiment(points, trials=4, master_seed=5)
        assert r1.rows == r2.rows and r1.budgets == r2.budgets


POINT = {"x": 2, "n": 1024, "generator": "collision-fn",
         "gen_kwargs": {"params": {"i_min": 2, "i_max": 4}},
         "baseline_kwargs": {"i_min": 2, "i_max": 4}}
SERIES = {"label": "walks", "generator": "fixedpoint-fn", "detector": "cert-fixedpoint",
          "det_kwargs": {"C": 2.0}, "ns": [1024, 4096], "trials": 2}


class TestRecords:
    """A direct call meets the rules a battery spec does."""

    @pytest.mark.parametrize("edit, message", [
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"x": math.nan}, "x must be finite, got nan"),
        ({"generator": "collision"}, "generator must be one of the generators "
         "claw-graph, collision-fn, fixedpoint-fn, star-graph, starpath-graph, "
         "got 'collision'"),
        ({"baseline_detector": "bogus"}, "baseline_detector must be one of the "
         "detectors cert-claw, cert-collision, cert-fixedpoint, cert-star, "
         "cert-starpath, multiscale, uniform-probe, got 'bogus'"),
        ({"cert_kwargs": {"bacth": 1}},
         "cert_kwargs names 'bacth', which cert-collision does not take"),
        ({"baseline_kwargs": {"i_min": 2}},
         "baseline_kwargs lacks 'i_max', which multiscale needs"),
        ({"gen_kwargs": {"params": {"c": "x"}}},
         "gen_kwargs.params.c must be float, got 'x'"),
    ])
    def test_separation_point_refuses(self, edit, message):
        with pytest.raises(ParameterError) as e:
            SeparationPoint(**{**POINT, **edit})
        assert str(e.value) == message

    @pytest.mark.parametrize("edit, message", [
        ({"ns": []}, "ns must be a non-empty list"),
        ({"ns": [1024, 0]}, "ns[1] must be >= 1, got 0"),
        ({"ns": [1024.0]}, "ns[0] must be int, got 1024.0"),
        ({"trials": -1}, "trials must be >= 0, got -1"),
        ({"budget": -1}, "budget must be >= 0, got -1"),
        ({"det_kwargs": {"C": 2.0, "k": 4}},
         "det_kwargs names 'k', which cert-fixedpoint does not take"),
    ])
    def test_slope_series_refuses(self, edit, message):
        with pytest.raises(ParameterError) as e:
            SlopeSeries(**{**SERIES, **edit})
        assert str(e.value) == message

    @pytest.mark.parametrize("edit, message", [
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"trials": -1}, "trials must be >= 0, got -1"),
        ({"budget": -1}, "budget must be >= 0, got -1"),
        ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
        ({"point": -1}, "point must be >= 0, got -1"),
        # an unknown name raised KeyError, an unknown keyword TypeError
        ({"generator": "nope"}, "generator must be one of the generators "
         "claw-graph, collision-fn, fixedpoint-fn, star-graph, starpath-graph, "
         "got 'nope'"),
        ({"detector": "nope"}, "detector must be one of the detectors cert-claw, "
         "cert-collision, cert-fixedpoint, cert-star, cert-starpath, multiscale, "
         "uniform-probe, got 'nope'"),
        ({"det_kwargs": {"bogus": 1}},
         "det_kwargs names 'bogus', which cert-collision does not take"),
        ({"gen_kwargs": {"params": {"i_min": "x"}}},
         "gen_kwargs.params.i_min must be int, got 'x'"),
    ])
    def test_trial_config_refuses(self, edit, message):
        with pytest.raises(ParameterError) as e:
            TrialConfig(**{**CFG.__dict__, **edit})
        assert str(e.value) == message

    @pytest.mark.parametrize("kw, message", [
        ({"trials": -1}, "trials must be >= 0, got -1"),
        ({"pilot_trials": 0}, "pilot_trials must be >= 1, got 0"),
        ({"budget_factor": 0}, "budget_factor must be a finite number > 0, got 0"),
        ({"budget_factor": math.inf}, "budget_factor must be a finite number > 0, got inf"),
    ])
    def test_separation_experiment_refuses_before_any_trial(self, monkeypatch, kw,
                                                            message):
        monkeypatch.setattr(harness, "_unit", None)
        with pytest.raises(ParameterError) as e:
            separation_experiment([SeparationPoint(**POINT)], **kw)
        assert str(e.value) == message

    def test_separation_experiment_defaults(self):
        rep = separation_experiment([SeparationPoint(**{**POINT, "n": 256})])
        assert [s.trials for s in rep.cert_stats + rep.base_stats] == [20, 20]
        assert rep.rows[0]["seed"] == 0

    def test_slope_experiment_refuses_a_repeated_label_before_any_trial(
            self, monkeypatch):
        monkeypatch.setattr(harness, "run_trials", None)
        series = [SlopeSeries(**SERIES), SlopeSeries(**{**SERIES, "ns": [2048]})]
        with pytest.raises(ParameterError) as e:
            slope_experiment(series)
        assert str(e.value) == "series[0] and series[1] share the label 'walks'"

    def test_slope_experiment_runs_each_n_as_run_trials_does(self):
        series = SlopeSeries(**{**SERIES, "label": "fp"})
        rows, summary, fits = slope_experiment([series], master_seed=4)
        expected = []
        for i, n in enumerate(series.ns):
            stats, trial_rows = run_trials(TrialConfig(
                "fixedpoint-fn", "cert-fixedpoint", n, 2, 4,
                det_kwargs={"C": 2.0}, point=i))
            expected.extend(trial_rows)
            assert summary[i] == {"label": "fp", "n": n, "trials": 2,
                                  "successes": stats.successes,
                                  "mean_queries": stats.mean_queries,
                                  "stderr_queries": stats.stderr_queries}
        assert rows == expected
        # two points are too few for a fit
        assert fits == {"fp": None}


# ---------------------------------------------------------------------------
# the relabel draw beside generation


SIDE_N = harness._SIDE_DRAW_MIN_N
SIDE_PARAMS = {"params": {"i_min": 2, "i_max": 5, "c": 0.3}}
SIDE_CFG = TrialConfig(generator="collision-fn", detector="cert-collision",
                       n=SIDE_N, trials=2, master_seed=17,
                       gen_kwargs=SIDE_PARAMS)


def _side_point():
    return SeparationPoint(x=4, n=SIDE_N, generator="collision-fn",
                           gen_kwargs=SIDE_PARAMS,
                           baseline_kwargs={"i_min": 2, "i_max": 5})


def _sep(seed, trials=2, pilot_trials=1):
    return separation_experiment([_side_point()], trials=trials,
                                 master_seed=seed, pilot_trials=pilot_trials)


class TestSideDraw:
    def test_side_thread_draws_once_and_oracles_hit(self, monkeypatch):
        # every draw is a memo miss made off the main thread; each oracle
        # built afterwards is a memo hit
        drawn_on = []

        def draw(n, seed):
            drawn_on.append(threading.current_thread())
            return _relabel_maps(n, seed)

        monkeypatch.setattr(harness, "_relabel_maps", draw)
        _relabel_maps.cache_clear()
        _sep(seed=3, trials=2, pilot_trials=1)
        info = _relabel_maps.cache_info()
        assert (info.misses, info.hits) == (3, 1 + 2 * 2)
        run_trials(SIDE_CFG)
        info = _relabel_maps.cache_info()
        assert (info.misses, info.hits) == (3 + 2, 5 + 2)
        assert len(drawn_on) == 5
        assert threading.main_thread() not in drawn_on

    def test_no_draw_beside_generation_below_threshold_or_unrelabelled(
            self, monkeypatch):
        def draw(n, seed):
            raise AssertionError("side draw below the threshold")

        monkeypatch.setattr(harness, "_relabel_maps", draw)
        run_trials(TrialConfig(**{**SIDE_CFG.__dict__, "n": SIDE_N // 2}))
        run_trials(TrialConfig(**{**SIDE_CFG.__dict__, "relabel": False}))

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        _sep(seed=4)
        assert threading.active_count() == before
        run_trials(SIDE_CFG)
        assert threading.active_count() == before

    def test_generator_error_raised_in_caller(self):
        cfg = TrialConfig(**{**SIDE_CFG.__dict__,
                             "gen_kwargs": {**SIDE_PARAMS, "t_override": 9}})
        before = threading.active_count()
        with pytest.raises(ParameterError, match="outside scale window"):
            run_trials(cfg)
        assert threading.active_count() == before

    def test_side_draw_error_raised_in_caller(self, monkeypatch):
        hooked = []

        def draw(n, seed):
            raise MemoryError("side draw failed")

        monkeypatch.setattr(harness, "_relabel_maps", draw)
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="side draw failed"):
            _sep(seed=5)
        with pytest.raises(MemoryError, match="side draw failed"):
            run_trials(SIDE_CFG)
        assert hooked == [] and threading.active_count() == before

    def test_worker_pool_runs_after_a_side_draw(self):
        # the pool forks this process: a thread kept alive past a side draw
        # would be missing in the children and could hang them
        script = (
            "from qsep.harness import TrialConfig, run_trials\n"
            f"cfg = TrialConfig(**{SIDE_CFG.__dict__!r})\n"
            "serial = run_trials(cfg)[1]\n"
            "assert run_trials(cfg, workers=2)[1] == serial\n"
        )
        src = str(Path(qsep.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], timeout=120,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True)
        assert done.returncode == 0, done.stderr.decode()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_and_transcripts_equal_the_serial_draw(self, seed,
                                                        monkeypatch):
        digests = []
        for key in ("cert-collision", "multiscale"):
            def run(oracle, cert, rng, _search=harness.DETECTORS[key], **kw):
                out = _search(oracle, cert, rng, **kw)
                digests.append(hashlib.sha256(repr(
                    oracle.transcript).encode()).hexdigest())
                return out
            monkeypatch.setitem(harness.DETECTORS, key, run)
        # _trial looks the oracle class up by name when it runs
        monkeypatch.setattr(harness, "CountedOracle", RecordingOracle)

        def recorded():
            digests.clear()
            rep = _sep(seed, trials=2, pilot_trials=2)
            return rep.rows, rep.budgets, list(digests)

        # a short switch interval interleaves the two threads finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            side = recorded()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(harness, "_SIDE_DRAW_MIN_N", SIDE_N + 1)
        assert side == recorded()
        assert len(side[2]) == 2 + 2 * 2

# ---------------------------------------------------------------------------
# the process's worker pool


def _pid_after(delay):
    # long enough that every worker takes some of a call's tasks
    time.sleep(delay)
    return os.getpid()


def _raise_value_error(i):
    raise ValueError(f"task {i} failed")


def _exit_worker(i):
    os._exit(3)


def _worker_pids(workers=2):
    """The pids a call's tasks ran on: every worker of the pool."""
    return set(harness._map(_pid_after, [(0.03,)] * (3 * workers), workers))


def _children():
    return {p.pid for p in multiprocessing.active_children()}


class TestWorkerPool:
    def test_calls_share_one_pool(self):
        first = _worker_pids()
        assert len(first) == 2 and os.getpid() not in first
        assert _worker_pids() == first
        assert first <= _children()

    def test_task_error_keeps_the_pool(self):
        pids = _worker_pids()
        with pytest.raises(ValueError, match="failed"):
            harness._map(_raise_value_error, [(i,) for i in range(4)], 2)
        assert _worker_pids() == pids

    def test_broken_pool_is_replaced(self):
        pids = _worker_pids()
        with pytest.raises(BrokenProcessPool):
            harness._map(_exit_worker, [(i,) for i in range(4)], 2)
        fresh = _worker_pids()
        assert len(fresh) == 2 and not fresh & pids
        assert _children() == fresh

    def test_another_worker_count_replaces_the_pool(self):
        two = _worker_pids(2)
        three = _worker_pids(3)
        assert len(three) == 3 and not three & two
        assert _children() == three
        assert _worker_pids(3) == three
        again = _worker_pids(2)
        assert not again & three and _children() == again

    def test_pool_of_another_pid_is_left_alone(self):
        # what a forked child sees: a pool its parent started
        pids = _worker_pids()
        pid, workers, parents = harness._pool
        harness._pool = (pid + 1, workers, parents)
        try:
            assert not _worker_pids() & pids
            assert harness._pool[0] == os.getpid()
            assert parents.submit(os.getpid).result() in pids
        finally:
            parents.shutdown()

    def test_separation_rows_equal_serial(self):
        points = [SeparationPoint(
            x=s, n=2048, generator="collision-fn",
            gen_kwargs={"params": {"i_min": 2, "i_max": 2 + s}},
            baseline_kwargs={"i_min": 2, "i_max": 2 + s}) for s in (2, 3)]
        serial = separation_experiment(points, trials=4, master_seed=23,
                                       pilot_trials=2)
        par = separation_experiment(points, trials=4, master_seed=23,
                                    pilot_trials=2, workers=2)
        assert par.rows == serial.rows and par.budgets == serial.budgets

    def test_process_exits_and_leaves_no_worker(self):
        script = (
            "import os\n"
            "from qsep.harness import _map\n"
            "def pid(i):\n"
            "    return os.getpid()\n"
            "pids = set()\n"
            "for _ in range(2):\n"
            "    pids |= set(_map(pid, [(i,) for i in range(8)], 2))\n"
            "print(*pids)\n"
        )
        src = str(Path(qsep.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], timeout=60,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        pids = [int(w) for w in done.stdout.split()]
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        # the pids go through a file: a pipe the workers inherit would keep
        # a reader waiting for as long as they live
        pid_file = tmp_path / "pids"
        script = (
            "import os, signal\n"
            "from qsep import harness\n"
            "harness._map(abs, [(-1,), (-2,)], 2)\n"
            f"with open({str(pid_file)!r}, 'w') as fh:\n"
            "    fh.write(' '.join(map(str, harness._pool[2]._processes)))\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = str(Path(qsep.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], timeout=60,
                              env={**os.environ, "PYTHONPATH": src},
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        assert done.returncode == -signal.SIGKILL
        pids = [int(p) for p in pid_file.read_text().split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))


def _running(pid) -> bool:
    """Whether pid is a live process: neither gone nor an unreaped zombie."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


class TestFileIO:
    def test_csv_round_trip_and_byte_determinism(self, tmp_path):
        _, rows = run_trials(CFG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(p1, rows)
        write_trials_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_trials_csv(p1)
        assert [r["seed"] for r in back] == [str(r["seed"]) for r in rows]
        assert [int(r["queries"]) for r in back] == \
            [int(r["queries"]) for r in rows]

    def test_report_json_sorted_and_newline_terminated(self, tmp_path):
        p = tmp_path / "rep.json"
        write_report_json(p, {"b": 1, "a": [2, 3]})
        data = p.read_bytes()
        assert data.endswith(b"\n")
        assert data.index(b'"a"') < data.index(b'"b"')
