"""Lazy-commitment session: coin law, inertness, and transcript consistency."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import qsep
from qsep import AdversarySession, CountedOracle, ScaleParams, gen_claw_graph

PAR3 = ScaleParams(i_min=2, i_max=4)  # three scales
N = 1024


def session(seed):
    return AdversarySession(N, PAR3, seed)


def red_end(s, scale):
    """The first end of the scale's first candidate row."""
    return int(s._blocks[s._table.index_of(scale)][0, 0])


class TestCoinLaw:
    def test_first_red_touch_heads_frequency(self):
        heads = 0
        trials = 2000
        for seed in range(trials):
            s = session(seed)
            s.probe_degree(red_end(s, 2))
            heads += s.is_resolved
        p_hat = heads / trials
        z = abs(p_hat - 1 / 3) / math.sqrt((1 / 3) * (2 / 3) / trials)
        assert z < 3.5, f"heads rate {p_hat:.4f}, z={z:.2f}"

    def test_last_alive_scale_is_certain_heads(self):
        forced = 0
        for seed in range(300):
            s = session(seed)
            for scale in (2, 3, 4):
                if s.is_resolved:
                    break
                s.probe_degree(red_end(s, scale))
            # after at most three red touches the drawing must be committed
            assert s.is_resolved
            assert len(s.alive_scales) == 1
            if s.good == 4:
                forced += 1
        assert forced > 0  # the two-tails-then-heads branch occurs

    def test_tails_conditional_good_is_uniform(self):
        counts = {3: 0, 4: 0}
        for seed in range(1200):
            s = session(seed)
            s.probe_degree(red_end(s, 2))
            if s.is_resolved:
                continue  # heads; not the branch under test
            assert s.alive_scales == (3, 4)
            s.finalize()
            counts[s.good] += 1
        total = sum(counts.values())
        assert total > 600
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01, f"post-tails split {counts}, p={p:.4f}"

    def test_blue_touch_resolves_uniformly(self):
        counts = {2: 0, 3: 0, 4: 0}
        for seed in range(900):
            s = session(seed)
            v = int(s._pool[0])
            s.probe_degree(v)
            assert s.is_resolved
            counts[s.good] += 1
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01, f"blue-resolve split {counts}, p={p:.4f}"

    def test_alive_never_empties(self):
        for seed in range(200):
            s = session(seed)
            while not s.is_resolved:
                assert len(s.alive_scales) >= 1
                s.probe_degree(red_end(s, s.alive_scales[0]))
            assert len(s.alive_scales) == 1


class TestInertProbes:
    def test_black_interior_and_spare(self):
        s = session(7)
        interior = int(s._blocks[0][0][1])   # inside a candidate path
        plain_end = int(s._blocks[0][-1][0])  # end of a non-candidate path
        assert s.probe_degree(interior) == 2
        assert s.probe_degree(plain_end) == 1
        if len(s._spare):
            assert s.probe_degree(int(s._spare[0])) == 0
        assert not s.is_resolved
        assert s.alive_scales == (2, 3, 4)
        assert s.probes == 3 if len(s._spare) else 2

    def test_neighbor_probe_touches_the_answer(self):
        # a candidate row's second element is black, and its neighbor 1
        # (backward) is the row's red first end, which the answer touches
        for seed in range(20):
            s = session(seed)
            row = s._blocks[0][0]
            assert s.probe_neighbor(int(row[1]), 1) == int(row[0])
            assert s.trace[-1]["event"] in ("heads", "tails")

    def test_dead_scale_end_answers_as_black(self):
        tails = 0
        for seed in range(20):
            s = session(seed)
            row = s._blocks[0][0]
            s.probe_degree(int(row[0]))
            if s.is_resolved:
                continue  # heads; not the branch under test
            tails += 1
            state = s._rng.bit_generator.state
            assert s.probe_degree(int(row[-1])) == 1
            assert s.trace[-1]["event"] is None
            assert s._rng.bit_generator.state == state
            assert s.alive_scales == (3, 4)
        assert tails > 0

    def test_finalize_idempotent(self):
        s = session(11)
        a = s.finalize()
        b = s.finalize()
        assert a is b
        assert s.is_resolved and s.good == a.meta.extras["t"]


class TestConsistency:
    def probe_script(self, rng, count):
        ops = []
        for _ in range(count):
            v = int(rng.integers(N))
            if rng.random() < 0.5:
                ops.append(("deg", v))
            else:
                ops.append(("nbr", v, int(rng.integers(3))))
        return ops

    def run_ops(self, target, ops):
        answers = []
        for op in ops:
            try:
                if op[0] == "deg":
                    answers.append(target.query_degree(op[1]))
                else:
                    answers.append(target.query_neighbor(op[1], op[2]))
            except IndexError:
                answers.append("index-error")
        return answers

    def test_pre_resolution_answers_match_final_instance(self):
        for seed in range(60):
            s = session(seed)
            ops = self.probe_script(np.random.default_rng(1000 + seed), 80)
            live = self.run_ops(s, ops)
            inst = s.finalize()
            replay = self.run_ops(CountedOracle(inst), ops)
            assert live == replay, f"seed {seed}: transcript diverges from instance"

    def test_untouched_finalize_good_marginal_uniform(self):
        counts = {2: 0, 3: 0, 4: 0}
        for seed in range(900):
            s = session(seed)
            s.finalize()
            counts[s.good] += 1
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01, f"untouched-finalize split {counts}, p={p:.4f}"

    def test_finalized_census_matches_offline_generator(self):
        # same committed scale => identical structural census
        for seed in range(5):
            s = session(seed)
            inst = s.finalize()
            t = s.good
            off, _, _ = gen_claw_graph(N, PAR3, seed=seed + 500, t_override=t)
            assert inst.meta.scale_census() == off.meta.scale_census()
            assert np.array_equal(np.sort(inst.degrees), np.sort(off.degrees))

    def test_trace_is_written_and_replayable(self, tmp_path):
        s = session(3)
        s.probe_degree(red_end(s, 2))
        s.probe_degree(5)
        s.finalize()
        path = tmp_path / "trace.jsonl"
        s.write_trace(path)
        import json
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["step"] == 0
        assert rows[0]["event"] in ("heads", "tails")
        assert rows[1]["I"] in (1, 2, 3)


def test_demo_03_replays_without_mismatch():
    demo = Path(__file__).parents[1] / "demos" / "03_lazy_adversary.py"
    src = str(Path(qsep.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "mismatches = 0" in done.stdout


class TestValidation:
    def test_out_of_range_probe_rejected(self):
        s = session(1)
        with pytest.raises(ValueError):
            s.probe_degree(N)
        with pytest.raises(ValueError):
            s.probe_degree(-1)
