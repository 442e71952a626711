"""Detector behavior: worked examples, soundness, budgets, oracle purity."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsep import (
    Certificate,
    CountedOracle,
    FixedPointParams,
    ScaleParams,
    Witness,
    brute_force_find,
    cert_claw_search,
    cert_collision_search,
    cert_fixedpoint_search,
    cert_star_search,
    cert_starpath_search,
    collision_attempt_battery,
    corrupt_certificate,
    exact_cert_expectation,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
    multiscale_collision_search,
    uniform_probe_baseline,
    validate_witness,
)
from qsep.detectors import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchOutcome,
)
from qsep.generators import ParameterError, _other
from qsep.oracle import (
    BudgetExceeded,
    FileFormatError,
    FunctionInstance,
    _unrelabel_witness,
    graph_from_edges,
)
from recording_oracle import RecordingOracle

PAR = ScaleParams(i_min=2, i_max=5)


def found_and_valid(instance, oracle, outcome):
    assert outcome.found, outcome.status
    raw = _unrelabel_witness(oracle, outcome.witness)
    assert validate_witness(instance, raw), (outcome.witness, raw)


class TestWorkedExamples:
    def test_brute_force_on_three_element_example(self):
        inst = FunctionInstance(n=3, succ=np.array([1, 0, 0]), meta=None, info={})
        hits = brute_force_find(inst, "collision")
        assert hits == [Witness("collision", (1, 2, 0))]


class TestCollisionDetectors:
    def test_battery_rate_matches_exact_enumeration(self):
        inst, cert, _ = gen_collision_function(4096, PAR, seed=3)
        p = float(exact_cert_expectation(inst).success_prob)
        res = collision_attempt_battery(CountedOracle(inst), cert.payload["t"],
                                        20000, seed=11)
        z = abs(res["success_rate"] - p) / math.sqrt(p * (1 - p) / 20000)
        assert z < 4, (res["success_rate"], p)
        assert res["attempts"] == 20000 and not res["truncated"]
        for w in res["witnesses"]:
            assert validate_witness(inst, w)

    def test_battery_budget_truncates(self):
        inst, cert, _ = gen_collision_function(4096, PAR, seed=3)
        o = CountedOracle(inst, budget=500)
        res = collision_attempt_battery(o, cert.payload["t"], 20000, seed=1)
        assert res["truncated"] and res["queries"] <= 500
        assert o.count == res["queries"]

    @pytest.mark.parametrize("kw, message", [
        (dict(t=-1, attempts=100), "t must be >= 0, got -1"),
        (dict(t=3, attempts=-1), "attempts must be >= 0, got -1"),
        (dict(t=3, attempts=100, batch=0), "batch must be >= 1, got 0")])
    def test_battery_refuses_nonsense_counts(self, kw, message):
        # batch=0 returned attempts 0; a negative t or attempts ended in a
        # bare ValueError
        inst = FunctionInstance(n=8, succ=np.arange(8), meta=None, info={})
        o = CountedOracle(inst)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            collision_attempt_battery(o, **kw)
        assert o.count == 0

    def test_cert_search_finds_and_validates(self):
        inst, cert, _ = gen_collision_function(4096, PAR, seed=5)
        for s in range(10):
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_collision_search(o, cert, seed=s)
            found_and_valid(inst, o, out)
            assert out.queries == o.count

    def test_cert_search_respects_budget_exactly(self):
        inst, _, _ = gen_collision_function(1024, ScaleParams(2, 4), seed=1,
                                            b_override=0)
        out = cert_collision_search(CountedOracle(inst, budget=777),
                                    Certificate("CollisionScale", {"t": 3}),
                                    seed=0)
        assert out.status == "BudgetExceeded" and out.queries <= 777

    def test_cert_search_exhausts_on_attempt_cap(self):
        inst, _, _ = gen_collision_function(1024, ScaleParams(2, 4), seed=1,
                                            b_override=0)
        out = cert_collision_search(CountedOracle(inst),
                                    Certificate("CollisionScale", {"t": 3}),
                                    seed=0, max_attempts=200)
        assert out.status == "Exhausted"
        assert out.attempts == 200

    def test_multiscale_finds_and_validates(self):
        inst, _, _ = gen_collision_function(4096, PAR, seed=7)
        for s in range(6):
            o = CountedOracle(inst, relabel_seed=s)
            out = multiscale_collision_search(o, 2, 5, seed=s)
            found_and_valid(inst, o, out)

    def test_multiscale_reaches_top_scale_witness(self):
        # witness only at the top of the window
        inst, _, _ = gen_collision_function(4096, PAR, seed=2, t_override=5)
        o = CountedOracle(inst)
        out = multiscale_collision_search(o, 2, 5, seed=9)
        found_and_valid(inst, o, out)

    def test_multiscale_budget_exact_on_witness_free_instance(self):
        inst, _, _ = gen_collision_function(1024, ScaleParams(2, 4), seed=1,
                                            b_override=0)
        for budget in (100, 500, 2500):
            out = multiscale_collision_search(CountedOracle(inst, budget=budget),
                                              2, 4, seed=42)
            assert out.status == "BudgetExceeded"
            assert out.queries <= budget


# The predecessor-map step and the two shared-map walkers as they were
# before they were folded into one loop, kept verbatim as the
# specification that loop must reproduce (outcome and transcript).

def _arrival(pred: dict, u: int, y: int):
    """Process one step u -> y against a predecessor map.

    Returns ("found", witness_prev) | ("stop", None) | ("go", None).
    """
    prev = pred.get(y, _MISSING)
    if prev is _MISSING:
        pred[y] = u
        return _GO
    if prev is None or prev == u:
        return _STOP
    return ("found", prev)


_MISSING = object()
_GO = ("go", None)
_STOP = ("stop", None)


def _clip(oracle, batch):
    """The prefix of a lockstep batch that the oracle's budget still pays
    for; BudgetExceeded when it pays for none of it."""
    rem = oracle.remaining()
    if rem is None or rem >= len(batch):
        return batch
    if rem == 0:
        raise BudgetExceeded("budget spent")
    return batch[:rem]


def _reference_cert_collision(oracle, cert: Certificate, seed=None,
                               batch: int = 16, max_attempts=None) -> SearchOutcome:
    """Walk forward up to 2^t steps per attempt at the certified scale t,
    sharing the predecessor map across attempts."""
    t = int(cert.payload["t"])
    rng = np.random.default_rng(seed)
    q0 = oracle.count
    n = oracle.n
    cap = 1 << t

    pred: dict = {}
    front = [0] * batch
    steps = [0] * batch
    attempts = 0
    live: list[int] = []

    def out(status, w=None):
        return SearchOutcome(status, w, oracle.count - q0, attempts, {"t": t})

    def spawn(lane: int) -> bool:
        nonlocal attempts
        if max_attempts is not None and attempts >= max_attempts:
            return False
        s = int(rng.integers(n))
        attempts += 1
        front[lane] = s
        steps[lane] = 0
        pred.setdefault(s, None)
        return True

    for lane in range(batch):
        if spawn(lane):
            live.append(lane)

    try:
        while live:
            live = _clip(oracle, live)
            ys = oracle.query_function_many([front[k] for k in live]).tolist()
            nxt_live = []
            for lane, y in zip(live, ys):
                u = front[lane]
                steps[lane] += 1
                kind, prev = _arrival(pred, u, y)
                if kind == "found":
                    return out(FOUND, Witness("collision", (u, prev, y)))
                if kind == "go" and steps[lane] < cap:
                    front[lane] = y
                    nxt_live.append(lane)
                elif spawn(lane):
                    nxt_live.append(lane)
            live = nxt_live
    except BudgetExceeded:
        return out(BUDGET_EXCEEDED)
    return out(EXHAUSTED)


def _reference_multiscale(oracle, i_min: int, i_max: int, seed=None,
                          max_attempts=None) -> SearchOutcome:
    """One walk per scale in strict round-robin, lowest scale first, one
    step per walk per round. A walk restarts at a fresh uniform element
    when it reaches 2^i steps or a terminal arrival. All walks share the
    predecessor map, so cross-walk arrivals certify collisions too."""
    rng = np.random.default_rng(seed)
    q0 = oracle.count
    n = oracle.n
    scales = list(range(int(i_min), int(i_max) + 1))
    caps = [1 << i for i in scales]
    s = len(scales)

    pred: dict = {}
    front = [0] * s
    steps = [0] * s
    attempts = 0

    def out(status, w=None):
        return SearchOutcome(status, w, oracle.count - q0, attempts,
                             {"scales": scales})

    def spawn(lane: int) -> bool:
        nonlocal attempts
        if max_attempts is not None and attempts >= max_attempts:
            return False
        x = int(rng.integers(n))
        attempts += 1
        front[lane] = x
        steps[lane] = 0
        pred.setdefault(x, None)
        return True

    lanes = [lane for lane in range(s) if spawn(lane)]
    try:
        while lanes:
            lanes = _clip(oracle, lanes)
            ys = oracle.query_function_many([front[k] for k in lanes]).tolist()
            nxt = []
            for lane, y in zip(lanes, ys):
                u = front[lane]
                steps[lane] += 1
                kind, prev = _arrival(pred, u, y)
                if kind == "found":
                    return out(FOUND, Witness("collision", (u, prev, y)))
                if kind == "go" and steps[lane] < caps[lane]:
                    front[lane] = y
                    nxt.append(lane)
                elif spawn(lane):
                    nxt.append(lane)
            lanes = nxt
    except BudgetExceeded:
        return out(BUDGET_EXCEEDED)
    return out(EXHAUSTED)


def _reference_battery(oracle, t, attempts, seed=None, batch=512):
    """The battery as first written: one predecessor dict per lane, one
    Python step per arrival. Kept as the specification the vectorised
    battery must reproduce exactly (result and transcript)."""
    rng = np.random.default_rng(seed)
    q0 = oracle.count
    n = oracle.n
    cap = 1 << int(t)
    starts = rng.integers(0, n, size=attempts)

    lanes = min(batch, attempts)
    front = [0] * lanes
    steps = [0] * lanes
    preds = [dict() for _ in range(lanes)]
    next_attempt = 0
    live = []

    def spawn(lane):
        nonlocal next_attempt
        if next_attempt >= attempts:
            return False
        s = int(starts[next_attempt])
        next_attempt += 1
        front[lane] = s
        steps[lane] = 0
        preds[lane] = {s: None}
        return True

    for lane in range(lanes):
        if spawn(lane):
            live.append(lane)

    successes = 0
    finished = 0
    sample_witnesses = []
    truncated = False
    while live:
        rem = oracle.remaining()
        if rem is not None and rem < len(live):
            live = live[:rem]
            truncated = True
            if not live:
                break
        ys = oracle.query_function_many([front[k] for k in live]).tolist()
        nxt_live = []
        for lane, y in zip(live, ys):
            u = front[lane]
            steps[lane] += 1
            kind, prev = _arrival(preds[lane], u, y)
            if kind == "go" and steps[lane] < cap:
                front[lane] = y
                nxt_live.append(lane)
                continue
            if kind == "found":
                successes += 1
                if len(sample_witnesses) < 32:
                    sample_witnesses.append(Witness("collision", (u, prev, y)))
            finished += 1
            if spawn(lane):
                nxt_live.append(lane)
        live = nxt_live

    return {
        "attempts": finished,
        "successes": successes,
        "queries": oracle.count - q0,
        "success_rate": successes / finished if finished else 0.0,
        "witnesses": sample_witnesses,
        "truncated": truncated,
    }


def _battery_run(fn, inst, relabel_seed, budget=None, **kw):
    o = RecordingOracle(inst, relabel_seed=relabel_seed, budget=budget)
    return fn(o, **kw), o.transcript


def _scalar_expectation(succ, t):
    """The exact enumerator's definition, one start at a time: the walk
    from x costs min(tau + sigma, 2^t) and succeeds iff tau >= 1 and
    tau + sigma <= 2^t (tau: distance to the cycle, sigma: its length)."""
    n, cap = len(succ), 1 << t
    cost = good = 0
    for x in range(n):
        first = {}
        y = x
        while y not in first:
            first[y] = len(first)
            y = int(succ[y])
        tau, sigma = first[y], len(first) - first[y]
        cost += min(tau + sigma, cap)
        good += tau >= 1 and tau + sigma <= cap
    return (Fraction(good, n), Fraction(cost, n),
            Fraction(cost, good) if good else None)



@st.composite
def functional_graphs(draw, heavy=False):
    """A map on [n]: uniform, or a shape that stretches one stopping rule
    of the exact enumerator (one tail of length n - 1 into a fixed point,
    one n-cycle, only fixed points), optionally relabelled. With `heavy`,
    also a map into at most four values, where nearly every element
    collides."""
    n = draw(st.integers(1, 200))
    shape = draw(st.sampled_from(["random", "tail", "cycle", "fixed"]
                                 + ["few"] * heavy))
    if shape in ("random", "few"):
        top = n - 1 if shape == "random" else min(n - 1, 3)
        return np.array(draw(st.lists(st.integers(0, top), min_size=n,
                                      max_size=n)), dtype=np.int64)
    base = {"tail": np.minimum(np.arange(n) + 1, n - 1),
            "cycle": (np.arange(n) + 1) % n,
            "fixed": np.arange(n)}[shape]
    if not draw(st.booleans()):
        return base
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    succ = np.empty(n, dtype=np.int64)
    succ[perm] = perm[base]
    return succ


class TestExactEnumeratorProperty:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(functional_graphs(), st.integers(0, 12))
    def test_matches_scalar_walks(self, succ, t):
        inst = FunctionInstance(n=len(succ), succ=succ, meta=None, info={})
        e = exact_cert_expectation(inst, t)
        assert ((e.success_prob, e.cost_per_attempt, e.expected_total)
                == _scalar_expectation(succ, t))


class TestBatteryDifferential:
    """The vectorised battery against the per-lane-dict reference."""

    @pytest.fixture(scope="class")
    def instance(self):
        return gen_collision_function(4096, PAR, seed=3)[0]

    @pytest.mark.parametrize("t", [2, 5, 8])
    @pytest.mark.parametrize("batch", [1, 7, 512, 1500])
    def test_matches_reference(self, instance, t, batch):
        for relabel_seed in (None, 4):
            kw = dict(t=t, attempts=1500, seed=t * 100 + batch, batch=batch)
            ref = _battery_run(_reference_battery, instance, relabel_seed, **kw)
            got = _battery_run(collision_attempt_battery, instance,
                               relabel_seed, **kw)
            assert got == ref
            assert got[0]["attempts"] == 1500 and not got[0]["truncated"]

    @pytest.mark.parametrize("t", [2, 5, 8])
    def test_matches_reference_under_budget(self, instance, t):
        for batch in (1, 7, 512):
            kw = dict(t=t, attempts=20000, seed=1, batch=batch, budget=500)
            ref = _battery_run(_reference_battery, instance, 9, **kw)
            got = _battery_run(collision_attempt_battery, instance, 9, **kw)
            assert got == ref
            assert got[0]["truncated"] and got[0]["queries"] == 500

    def test_matches_reference_on_random_functions(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 17, 1000):
            inst = FunctionInstance(n=n, succ=rng.integers(0, n, n),
                                    meta=None, info={})
            for t in (0, 1, 3, 11):
                kw = dict(t=t, attempts=300, seed=n + t, batch=13)
                assert (_battery_run(collision_attempt_battery, inst, None, **kw)
                        == _battery_run(_reference_battery, inst, None, **kw))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(functional_graphs(heavy=True), st.data())
    def test_matches_reference_on_drawn_maps(self, succ, data):
        # the preimage filter may miss no repeat, whatever the map's shape
        n = len(succ)
        attempts = data.draw(st.integers(1, 120))
        kw = dict(t=data.draw(st.integers(0, 9)), attempts=attempts,
                  batch=data.draw(st.sampled_from([attempts, 1, 7])
                                  | st.integers(1, attempts)),
                  seed=data.draw(st.integers(0, 2**32 - 1)),
                  budget=data.draw(st.none() | st.integers(0, 3000)))
        relabel_seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
        inst = FunctionInstance(n=n, succ=succ, meta=None, info={})
        assert (_battery_run(collision_attempt_battery, inst, relabel_seed, **kw)
                == _battery_run(_reference_battery, inst, relabel_seed, **kw))

    def test_exact_enumerator_matches_scalar_walks(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 17, 1000):
            for succ in (rng.integers(0, n, n), rng.permutation(n)):
                inst = FunctionInstance(n=n, succ=succ, meta=None, info={})
                for t in (0, 2, 6, 12):
                    e = exact_cert_expectation(inst, t)
                    assert ((e.success_prob, e.cost_per_attempt, e.expected_total)
                            == _scalar_expectation(succ, t)), (n, t)


def _walk_run(fn, inst, relabel_seed, budget, args, kw):
    o = RecordingOracle(inst, relabel_seed=relabel_seed, budget=budget)
    return fn(o, *args, **kw), o.transcript


def _walker_configs(n):
    """(shared walker, reference, positional args, keyword args)."""
    for t in (0, 3):
        cert = Certificate("CollisionScale", {"t": t})
        for batch in (1, 7, 16):
            yield (cert_collision_search, _reference_cert_collision, (cert,),
                   {"batch": batch, "seed": n + t + batch})
    for window in ((0, 0), (1, 3), (2, 6)):
        yield (multiscale_collision_search, _reference_multiscale, window,
               {"seed": n + sum(window)})


class TestWalkerDifferential:
    """The shared-map walker against the two walkers it replaced: the
    same outcome and transcript at every budget, except where a clipped
    round used to end in Exhausted (now BudgetExceeded)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    def test_matches_reference_on_random_functions(self, n):
        rng = np.random.default_rng(n)
        for succ in (rng.integers(0, n, n), rng.permutation(n)):
            inst = FunctionInstance(n=n, succ=succ, meta=None, info={})
            for new, ref, args, kw in _walker_configs(n):
                for max_attempts in (None, 1, 5, 40):
                    for relabel_seed in (None, 3):
                        self._compare(inst, new, ref, args,
                                      {**kw, "max_attempts": max_attempts},
                                      relabel_seed)

    @staticmethod
    def _compare(inst, new, ref, args, kw, relabel_seed):
        # without an attempt cap a collision-free walk never ends
        cap = 100 if kw["max_attempts"] is None else None
        full, _ = _walk_run(ref, inst, relabel_seed, cap, args, kw)
        q = full.queries
        lanes = 16
        budgets = {cap, -1, 0, 1, 2, 3, q // 3, q // 2,
                   *range(max(0, q - lanes - 1), q + 2)}
        for budget in budgets:
            want, want_tr = _walk_run(ref, inst, relabel_seed, budget, args, kw)
            got, got_tr = _walk_run(new, inst, relabel_seed, budget, args, kw)
            assert got_tr == want_tr, (kw, budget)
            if got != want:
                mended = dataclasses.replace(got, status=EXHAUSTED)
                assert (want.status, got.status, mended) == \
                    (EXHAUSTED, BUDGET_EXCEEDED, want), (kw, budget)
                assert got.queries == budget < q, (kw, budget)

    def test_clipped_last_round_is_budget_exceeded(self):
        # multiscale at budget 2,776 needs one query more than it may spend
        inst, _, _ = gen_collision_function(1024, ScaleParams(2, 4), seed=1,
                                            b_override=0)
        kw = {"seed": 42, "max_attempts": 2000}
        full, _ = _walk_run(multiscale_collision_search, inst, 7, None,
                            (2, 4), kw)
        assert (full.status, full.queries) == (EXHAUSTED, 2777)
        want, _ = _walk_run(_reference_multiscale, inst, 7, 2776, (2, 4), kw)
        got, _ = _walk_run(multiscale_collision_search, inst, 7, 2776,
                           (2, 4), kw)
        assert (want.status, got.status) == (EXHAUSTED, BUDGET_EXCEEDED)
        assert got.queries == want.queries == 2776


class TestNegativeBudget:
    """A negative budget allows nothing: no detector may spend a query."""

    def test_every_clipping_detector_spends_nothing(self):
        fn, fc, _ = gen_collision_function(4096, PAR, seed=3)
        fp, fpc, _ = gen_fixedpoint_function(4096, FixedPointParams(), seed=7)
        star, stc, _ = gen_star_graph(2048, "triangle", seed=9)
        runs = [
            (fn, lambda o: collision_attempt_battery(o, fc.payload["t"], 200,
                                                     seed=1)),
            (fn, lambda o: cert_collision_search(o, fc, seed=1)),
            (fn, lambda o: multiscale_collision_search(o, 2, 5, seed=1)),
            (fp, lambda o: cert_fixedpoint_search(o, fpc, seed=1)),
            (fp, lambda o: uniform_probe_baseline(o, "fixed-point", seed=1)),
            (star, lambda o: cert_star_search(o, stc, seed=1)),
        ]
        for inst, run in runs:
            o = CountedOracle(inst, budget=-5)
            res = run(o)
            if isinstance(res, dict):
                assert res["queries"] == 0 and res["truncated"]
            else:
                assert res.status == "BudgetExceeded" and res.queries == 0
            assert o.count == 0


class TestClawDetector:
    def test_finds_and_validates(self):
        inst, cert, _ = gen_claw_graph(4096, PAR, seed=7)
        for s in range(8):
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_claw_search(o, cert, seed=s)
            found_and_valid(inst, o, out)

    def test_witness_free_instance_exhausts(self):
        inst, _, _ = gen_claw_graph(1024, ScaleParams(2, 4), seed=3, b_override=0)
        out = cert_claw_search(CountedOracle(inst),
                               Certificate("ClawScale", {"t": 3}),
                               seed=1, max_attempts=300)
        assert out.status == "Exhausted" and out.witness is None

    def test_budget_honored(self):
        inst, cert, _ = gen_claw_graph(4096, PAR, seed=7)
        out = cert_claw_search(CountedOracle(inst, budget=20), cert, seed=123)
        assert out.queries <= 20


class TestFixedpointDetector:
    def test_single_iteration_success_rate(self):
        # high-effort setting: one round of walks alone should usually win
        inst, cert, _ = gen_fixedpoint_function(1 << 16, FixedPointParams(), seed=5)
        wins = 0
        for s in range(200):
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_fixedpoint_search(o, cert, seed=s, C=8.0, max_iterations=1)
            if out.found:
                wins += 1
                assert validate_witness(inst, _unrelabel_witness(o, out.witness))
        assert wins >= 100, f"only {wins}/200 single-iteration successes"

    def test_prime_follow_phase_rarely_false(self):
        # long host cycle: phase walks cannot finish it, so the residue
        # trigger carries the load
        inst, cert, _ = gen_fixedpoint_function(
            1 << 16, FixedPointParams(cycle_len=1 << 13, feeder_len=8), seed=9)
        follows = false_q = follow_q = 0
        for s in range(20):
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_fixedpoint_search(o, cert, seed=s, C=2.0, max_iterations=8)
            assert out.found
            d = out.details
            follows += d["triggers"]
            follow_q += d["follow_queries"]
            false_q += d["false_follow_queries"]
        assert follows >= 5, "trigger phase never exercised"
        assert false_q <= 0.05 * follow_q, (false_q, follow_q)

    def test_fixed_point_free_instance_never_found(self):
        inst, _, _ = gen_collision_function(1024, ScaleParams(2, 4, rho=0.25),
                                            seed=5, filler="cycles")
        assert brute_force_find(inst, "fixed-point") == []
        cert = Certificate("FixedPointPrimes", {"primes": [3]})
        out = cert_fixedpoint_search(CountedOracle(inst), cert, seed=0, C=1.0,
                                     max_iterations=3)
        assert out.status == "Exhausted" and out.witness is None

    def test_corrupt_certificate_exceeds_one_iteration_bound(self):
        # control for criterion 5's bound S(n, C) (fixedpoint_iteration_bound
        # in test_acceptance): one iteration of walks plus one follow around
        # the host cycle. On the same instances a wrong prime must cost more
        # than S on average, so that bound tells a right certificate from a
        # wrong one.
        n, C = 1 << 18, 2.0
        bound = (2 * math.ceil(C * math.ceil(math.sqrt(n)))
                 * math.ceil(C * math.ceil(n ** 0.25)) + int(n ** 0.75))
        queries = []
        for s in range(16):
            inst, cert, _ = gen_fixedpoint_function(n, FixedPointParams(), seed=s)
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_fixedpoint_search(
                o, corrupt_certificate(cert, s, inst.meta.extras), seed=s, C=C)
            found_and_valid(inst, o, out)
            queries.append(out.queries)
        assert np.mean(queries) > bound, (np.mean(queries), bound)

    def test_budget_honored(self):
        inst, cert, _ = gen_fixedpoint_function(4096, FixedPointParams(), seed=2)
        out = cert_fixedpoint_search(CountedOracle(inst, budget=150), cert,
                                     seed=3, C=2.0)
        assert out.queries <= 150


class TestStarDetector:
    def test_finds_planted_clique(self):
        inst, cert, _ = gen_star_graph(4096, "triangle", seed=23)
        for s in range(6):
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_star_search(o, cert, seed=s)
            found_and_valid(inst, o, out)
            assert set(_unrelabel_witness(o, out.witness).vertices) == \
                set(inst.meta.witness_locations[0])

    def test_empty_certificate_skips_enumeration(self):
        inst, _, _ = gen_star_graph(4096, "triangle", seed=23)
        out = cert_star_search(CountedOracle(inst),
                               Certificate("StarDegrees", {"degrees": []}),
                               seed=1)
        assert out.status == "Exhausted" and out.witness is None
        # sampling plus at most one hop and one degree check per sample,
        # but no center enumeration
        assert out.queries <= 2 * out.attempts + 100

    def test_query_bound_at_mid_size(self):
        inst, cert, _ = gen_star_graph(1 << 14, "triangle", seed=31)
        for s in range(5):
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_star_search(o, cert, seed=s)
            found_and_valid(inst, o, out)
            n = inst.n
            assert out.queries <= 40 * math.sqrt(n) * math.log2(n)

    def test_no_planted_clique_exhausts(self):
        inst, cert, _ = gen_star_graph(4096, 0, seed=11)
        assert cert.payload["degrees"] == []
        out = cert_star_search(CountedOracle(inst), cert, seed=2)
        assert out.status == "Exhausted"


class TestStarpathDetector:
    def test_finds_planted_center(self):
        inst, cert, _ = gen_starpath_graph(4096, 4, seed=29)
        for s in range(8):
            o = CountedOracle(inst, relabel_seed=s)
            out = cert_starpath_search(o, cert, seed=s)
            found_and_valid(inst, o, out)
            got = _unrelabel_witness(o, out.witness)
            assert got.vertices[0] == inst.meta.witness_locations[0][0]

    def test_corrupted_index_never_yields_invalid_witness(self):
        inst, cert, _ = gen_starpath_graph(4096, 4, seed=29)
        for seed in range(12):
            bad = corrupt_certificate(cert, seed, inst.meta.extras)
            assert bad.payload["index"] != cert.payload["index"]
            assert 1 <= bad.payload["index"] <= math.isqrt(4096)
            o = CountedOracle(inst, relabel_seed=seed,
                              budget=40 * math.isqrt(4096))
            out = cert_starpath_search(o, bad, seed=seed)
            if out.found:
                assert validate_witness(inst, _unrelabel_witness(o, out.witness))

    def test_backbone_walks_end_on_a_cycle_of_junctions(self):
        # every vertex of the cube graph has degree 3, so a walk along the
        # "backbone" never reaches a chain end; both walks stop after
        # 2 isqrt(n) + 5 steps and leave the budget unspent
        edges = [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b]
        cube = graph_from_edges(8, np.array(edges))
        cert = Certificate("BackboneIndex", {"index": 2, "k": 4})
        out = cert_starpath_search(CountedOracle(cube), cert, seed=0)
        assert out.status == EXHAUSTED and out.queries < 1000
        assert cert_starpath_search(CountedOracle(cube, budget=1000), cert,
                                    seed=0) == out

    def test_junction_walks_end_on_a_cycle_of_degree_2(self):
        # no vertex of the 16-cycle has degree 1 or >= 3, so a walk to a
        # junction never turns or stops; each of the 8 walks ends after 2n
        # steps with no junction, each step one neighbour query (the first
        # neighbour leads on round this cycle) and one degree query
        cycle = graph_from_edges(16, np.array([(i, (i + 1) % 16)
                                               for i in range(16)]))
        cert = Certificate("BackboneIndex", {"index": 2, "k": 4})
        out = cert_starpath_search(CountedOracle(cycle), cert, seed=0)
        assert out.status == EXHAUSTED and out.attempts == 8
        assert out.queries == 8 * (1 + 2 * 16 * 2)

    def test_budget_honored(self):
        inst, cert, _ = gen_starpath_graph(4096, 4, seed=29)
        out = cert_starpath_search(CountedOracle(inst, budget=30), cert, seed=5)
        assert out.queries <= 30
        assert out.status in ("Found", "BudgetExceeded")


# ---------------------------------------------------------------------------
# star-path search: differential against the nested-function search


def _reference_starpath_search(oracle, cert: Certificate, seed=None):
    """The star-path search before its rewrite around one probe step, kept
    as the specification the rewrite must reproduce (outcome and
    transcript), except that all 8 junction walks failing reported 9
    attempts here."""
    k = int(cert.payload["k"])
    k_star = int(cert.payload["index"])
    rng = np.random.default_rng(seed)
    q0 = oracle.count
    n = oracle.n
    attempts = 0
    deg, nbr = oracle.query_degree, oracle.query_neighbor

    def out(status, w=None):
        return SearchOutcome(status, w, oracle.count - q0, attempts,
                             {"index": k_star, "k": k})

    def neighbors(v, d):
        return [nbr(v, j) for j in range(d)]

    def star_at(v, d):
        """Assemble the k-star witness at a suspected center."""
        pend = []
        for w in neighbors(v, d):
            if deg(w) == 1:
                pend.append(w)
            if len(pend) == k:
                return Witness("k-star", (v, *pend))
        return None

    def check(v, d):
        if d >= k + 1:
            w = star_at(v, d)
            if w is not None:
                raise _FoundStar(w)

    class _FoundStar(Exception):
        def __init__(self, w):
            self.w = w

    def walk_to_junction(v):
        """Follow the chain until a degree>=3 vertex; turn around at ends."""
        d = deg(v)
        check(v, d)
        if d == 0:
            return None
        prev = None
        turned = False
        cur = v
        while True:
            if d >= 3:
                return cur
            if d == 1:
                if prev is not None:
                    if turned:
                        return None  # isolated path, no junction
                    turned = True
                    prev = None  # restart the walk from this endpoint
                nxt = nbr(cur, 0)
            else:
                nxt = nbr(cur, 0)
                if nxt == prev:
                    nxt = nbr(cur, 1)
            prev, cur = cur, nxt
            d = deg(cur)
            check(cur, d)

    def chain_step(cur, prev):
        """Next backbone vertex (degree 3, not prev); None at a chain end.
        Also reports the non-chain neighbors for side checks."""
        d = deg(cur)
        check(cur, d)
        nbrs = neighbors(cur, d)
        options = []
        for w in nbrs:
            if w == prev:
                continue
            dw = deg(w)
            check(w, dw)
            if dw >= 3:
                options.append(w)
        return nbrs, options

    def sweep_down(top, origin):
        """Descend a path from `top` away from `origin`, checking degrees."""
        prev, cur = origin, top
        while True:
            d = deg(cur)
            check(cur, d)
            if d == 1:
                return
            if d == 2:
                nxt = nbr(cur, 0)
                if nxt == prev:
                    nxt = nbr(cur, 1)
                prev, cur = cur, nxt
            else:
                return  # back on the backbone; stop

    try:
        attempts = 1
        junction = None
        for _ in range(8):
            junction = walk_to_junction(int(rng.integers(n)))
            if junction is not None:
                break
            attempts += 1
        if junction is None:
            return out(EXHAUSTED)

        # walk to a chain end, preferring the end with a degree-1 neighbor (v_1)
        prev = None
        cur = junction
        visited = 0
        while visited <= 2 * math.isqrt(n) + 4:
            visited += 1
            nbrs, options = chain_step(cur, prev)
            if not options:
                break
            prev, cur = cur, options[0]
        # cur is a chain end: v_1 iff some neighbor has degree 1
        d = deg(cur)
        end_nbrs = neighbors(cur, d)
        has_pendant = False
        for w in end_nbrs:
            dw = deg(w)
            check(w, dw)
            if dw == 1:
                has_pendant = True
        if not has_pendant:
            # we are at v_{s-1}; the true v_1 lies at the other chain end
            prev_dir = None
            back = cur
            while True:
                nbrs, options = chain_step(back, prev_dir)
                nxt = [w for w in options if w != prev_dir]
                if not nxt:
                    break
                prev_dir, back = back, nxt[0]
            cur = back
        # count along the chain from v_1 = cur to column k_star
        index = 1
        prev = None
        while index < k_star:
            nbrs, options = chain_step(cur, prev)
            forward = [w for w in options if w != prev]
            if not forward:
                # chain ends at v_{s-1}; columns s-1 and s sit past here
                two = [w for w in nbrs if w != prev]
                for w in two:
                    sweep_down(w, cur)
                return out(EXHAUSTED)
            prev, cur = cur, forward[0]
            index += 1
        # at v_{k*}: sweep every non-backbone direction downward
        d = deg(cur)
        for w in neighbors(cur, d):
            if w == prev:
                continue
            dw = deg(w)
            check(w, dw)
            if dw < 3:
                sweep_down(w, cur)
        return out(EXHAUSTED)
    except _FoundStar as hit:
        return out(FOUND, hit.w)
    except BudgetExceeded:
        return out(BUDGET_EXCEEDED)


def _starpath_run(fn, inst, cert, seed, budget, relabel_seed):
    o = RecordingOracle(inst, relabel_seed=relabel_seed, budget=budget)
    out = fn(o, cert, seed=seed)
    return out, hashlib.sha256(repr(o.transcript).encode()).hexdigest()


def _starpath_certs(inst, cert, s, seed):
    """The true certificate, a corrupted one, index 1, past the end of the
    backbone, and k = 2 and k = 0 (every vertex of degree >= 3 or >= 1
    then holds a star)."""
    yield cert
    yield corrupt_certificate(cert, seed, inst.meta.extras)
    for payload in ({"index": 1}, {"index": s + 3}, {"k": 2}, {"k": 0}):
        yield Certificate("BackboneIndex", {**cert.payload, **payload})


class TestStarpathDifferential:
    """The probe-step search against the nested-function search it
    replaced: the same outcome and transcript, except that 8 failed
    junction walks now count 8 attempts, not 9."""

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_matches_reference(self, n):
        s = math.isqrt(n)
        statuses = set()
        for gen_seed in range(3):
            inst, cert, _ = gen_starpath_graph(n, 4, seed=gen_seed)
            for c in _starpath_certs(inst, cert, s, gen_seed):
                for budget in (None, 7, 50, 300):
                    for relabel_seed in (None, 11 + gen_seed):
                        det_seed = 100 * gen_seed + (budget or 0)
                        want = _starpath_run(_reference_starpath_search, inst, c,
                                             det_seed, budget, relabel_seed)
                        got = _starpath_run(cert_starpath_search, inst, c,
                                            det_seed, budget, relabel_seed)
                        assert got == want, (gen_seed, c.payload, budget)
                        statuses.add(got[0].status)
        assert statuses == {FOUND, EXHAUSTED, BUDGET_EXCEEDED}

    @pytest.mark.parametrize("n", [12, 40, 200])
    def test_matches_reference_on_random_trees(self, n):
        # unlike generated instances, a tree can put a degree-1 vertex ahead
        # of other neighbours at a chain end, which must still all be probed
        rng = np.random.default_rng(n)
        for tree in range(6):
            parents = [int(rng.integers(i)) for i in range(1, n)]
            inst = graph_from_edges(n, np.array(list(zip(parents, range(1, n)))))
            for index, k in ((1, 4), (3, 3), (n, 4), (2, 2), (1, 0)):
                cert = Certificate("BackboneIndex", {"index": index, "k": k})
                for budget in (None, 7, 50, 300):
                    args = (inst, cert, tree, budget, tree or None)
                    assert _starpath_run(cert_starpath_search, *args) == \
                        _starpath_run(_reference_starpath_search, *args), args

    def test_no_junction_counts_eight_attempts(self):
        # a claw graph without witnesses has no vertex of degree >= 3, so
        # all 8 junction walks fail; the old search reported 9 attempts
        inst, _, _ = gen_claw_graph(1024, ScaleParams(2, 4), seed=3, b_override=0)
        cert = Certificate("BackboneIndex", {"index": 3, "k": 4})
        want, want_tr = _starpath_run(_reference_starpath_search, inst, cert, 0,
                                      None, None)
        got, got_tr = _starpath_run(cert_starpath_search, inst, cert, 0, None, None)
        assert (want.status, want.attempts, want.queries) == (EXHAUSTED, 9, 100)
        assert got == dataclasses.replace(want, attempts=8) and got_tr == want_tr


class TestUniformProbe:
    def test_fixed_point_sample_count_is_half_n(self):
        # single fixed point, samples drawn without replacement: the hit
        # index is uniform on 1..n, mean (n+1)/2
        n = 512
        succ = np.roll(np.arange(n), -1)
        succ[100] = 100
        succ[99] = 101  # keep it a function; 100 is the only fixed point
        inst = FunctionInstance(n=n, succ=succ, meta=None, info={})
        samples = []
        for s in range(60):
            out = uniform_probe_baseline(CountedOracle(inst), "fixed-point",
                                         seed=s)
            assert out.found and out.witness.vertices == (100,)
            samples.append(out.attempts)
        mean = np.mean(samples)
        target = (n + 1) / 2
        stderr = n / math.sqrt(12) / math.sqrt(len(samples))
        assert abs(mean - target) < 4 * stderr, (mean, target)

    def test_k_star_target_on_starpath(self):
        inst, _, _ = gen_starpath_graph(2048, 4, seed=3)
        o = CountedOracle(inst, relabel_seed=1)
        out = uniform_probe_baseline(o, "k-star", seed=2, k=4)
        found_and_valid(inst, o, out)

    def test_unsupported_target_rejected(self):
        inst = FunctionInstance(n=8, succ=np.arange(8), meta=None, info={})
        with pytest.raises(ParameterError):
            uniform_probe_baseline(CountedOracle(inst), "collision", seed=0)
        g = graph_from_edges(64, [(0, 1), (1, 2)])
        for target in ("edge", "wedge"):
            with pytest.raises(ParameterError, match="unsupported target"):
                uniform_probe_baseline(CountedOracle(g), target, seed=1)

    def test_budget_exceeded_status(self):
        inst = FunctionInstance(n=4096, succ=np.roll(np.arange(4096), -1),
                                meta=None, info={})
        out = uniform_probe_baseline(CountedOracle(inst, budget=100),
                                     "fixed-point", seed=0)
        assert out.status == "BudgetExceeded" and out.queries <= 100

    def test_budget_cut_is_not_exhausted(self):
        # the only fixed point is the last element seed 1 probes; a budget
        # that stops short of it must not report the search space empty
        n = 100
        last = int(np.random.default_rng(1).permutation(n)[-1])
        others = np.array([x for x in range(n) if x != last])
        succ = np.empty(n, dtype=np.int64)
        succ[others] = np.roll(others, -1)
        succ[last] = last
        inst = FunctionInstance(n=n, succ=succ, meta=None, info={})
        for budget in (10, 50, 99):
            out = uniform_probe_baseline(CountedOracle(inst, budget=budget),
                                         "fixed-point", seed=1)
            assert (out.status, out.queries) == ("BudgetExceeded", budget)
        out = uniform_probe_baseline(CountedOracle(inst, budget=100),
                                     "fixed-point", seed=1)
        assert out.found and out.witness.vertices == (last,)
        g = graph_from_edges(64, [])
        out = uniform_probe_baseline(CountedOracle(g, budget=40), "k-star",
                                     seed=1, k=4)
        assert (out.status, out.queries) == ("BudgetExceeded", 40)


class TestBruteForce:
    def test_collision_agreement_on_random_functions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 256
            succ = rng.integers(0, n, size=n)
            inst = FunctionInstance(n=n, succ=succ, meta=None, info={})
            hits = brute_force_find(inst, "collision")
            values, counts = np.unique(succ, return_counts=True)
            expected = int(sum(c * (c - 1) // 2 for c in counts))
            assert len(hits) == expected
            for w in hits[:50]:
                assert validate_witness(inst, w)

    def test_fixed_point_agreement(self):
        rng = np.random.default_rng(1)
        succ = rng.integers(0, 256, size=256)
        inst = FunctionInstance(n=256, succ=succ, meta=None, info={})
        hits = brute_force_find(inst, "fixed-point")
        assert len(hits) == int((succ == np.arange(256)).sum())

    def test_claw_count_matches_construction(self):
        inst, _, meta = gen_claw_graph(1024, ScaleParams(2, 4, rho=0.25), seed=9)
        hits = brute_force_find(inst, "claw")
        assert len(hits) == 2 * meta.extras["b_t"]
        for w in hits:
            assert validate_witness(inst, w)

    def test_clique_count_on_star_instance(self):
        inst, _, meta = gen_star_graph(1024, "triangle", seed=12)
        hits = brute_force_find(inst, "clique", h=3)
        assert len(hits) == 1
        assert set(hits[0].vertices) == set(meta.witness_locations[0])

    def test_size_guards(self):
        big = graph_from_edges(1 << 14, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="too large"):
            brute_force_find(big, "clique", h=3)


class TestCorruptCertificate:
    def test_each_kind_changes_payload(self):
        _, c1, m1 = gen_collision_function(1024, ScaleParams(2, 4, rho=0.25), seed=1)
        bad = corrupt_certificate(c1, 0, m1.extras)
        assert bad.kind == c1.kind and bad.payload["t"] != c1.payload["t"]
        assert 2 <= bad.payload["t"] <= 4

        _, c2, m2 = gen_fixedpoint_function(4096, FixedPointParams(), seed=2)
        bad = corrupt_certificate(c2, 0, m2.extras)
        assert bad.payload["primes"] != c2.payload["primes"]
        assert len(bad.payload["primes"]) == len(c2.payload["primes"])

        _, c3, m3 = gen_star_graph(1024, "triangle", seed=3)
        bad = corrupt_certificate(c3, 0, m3.extras)
        assert bad.payload["degrees"] != c3.payload["degrees"]

        _, c4, m4 = gen_starpath_graph(1024, 4, seed=4)
        bad = corrupt_certificate(c4, 0, m4.extras)
        assert bad.payload["index"] != c4.payload["index"]
        assert 1 <= bad.payload["index"] <= 32 and bad.payload["k"] == 4

    def test_wrong_scale_stays_inside_the_instance_window(self):
        # the true scale is the window's top; the next one up, drawn
        # without the meta, lies outside it
        inst, cert, _ = gen_collision_function(1024, ScaleParams(2, 5, rho=0.25),
                                               seed=1, t_override=5)
        assert cert.payload == {"t": 5}
        drawn = {corrupt_certificate(cert, s, inst.meta.extras).payload["t"]
                 for s in range(12)}
        assert drawn <= {2, 3, 4} and len(drawn) > 1
        assert corrupt_certificate(cert, 0).payload == {"t": 6}

    def test_without_meta_the_index_is_drawn_up_to_one_past_it(self):
        _, cert, _ = gen_starpath_graph(1024, 4, seed=4)
        idx = cert.payload["index"]
        for seed in range(8):
            got = corrupt_certificate(cert, seed).payload["index"]
            assert 1 <= got <= idx + 1 and got != idx

    def test_draws_match_a_list_of_the_other_values(self):
        # the wrong value is drawn by arithmetic; it must equal the draw
        # from an explicit list of the window's other values
        for lo, hi, value in [(2, 4, 3), (2, 4, 2), (2, 4, 4), (1, 64, 30),
                              (2, 4, 9), (1, 1, 5)]:
            for seed in range(20):
                choices = [i for i in range(lo, hi + 1) if i != value]
                rng = np.random.default_rng(seed)
                want = choices[int(rng.integers(len(choices)))]
                assert _other(np.random.default_rng(seed), lo, hi, value) == want

    def test_a_window_too_wide_to_draw_from_is_refused(self):
        # rng.integers takes no bound past int64, so a wider window is refused
        cert = Certificate("BackboneIndex", {"index": 3, "k": 4})
        for top in (1 << 62, 10 ** 30):
            with pytest.raises(ParameterError, match="too wide to draw"):
                corrupt_certificate(cert, 0, {"s": top + 1})
        wide = corrupt_certificate(cert, 0, {"s": 1 << 62})
        assert 1 <= wide.payload["index"] <= 1 << 62

    def test_single_scale_window_has_no_wrong_value(self):
        _, cert, meta = gen_collision_function(1024, ScaleParams(3, 3, rho=0.25),
                                               seed=1)
        with pytest.raises(ParameterError, match=r"\[3, 3\] holds no value but 3"):
            corrupt_certificate(cert, 0, meta.extras)

    @pytest.mark.parametrize("key, value, message", [
        ("scales", "x", "meta extras 'scales' must be a list of integers, got 'x'"),
        ("scales", [], "meta extras 'scales' must be a list of integers, got []"),
        ("scales", [2, 2.5], "meta extras 'scales' must be a list of integers, "
                             "got [2, 2.5]"),
        ("s", "x", "meta extras 's' must be an integer, got 'x'"),
        ("s", True, "meta extras 's' must be an integer, got True")])
    def test_malformed_meta_window_is_a_file_format_error(self, key, value, message):
        cert = Certificate("CollisionScale" if key == "scales" else "BackboneIndex",
                           {"t": 3} if key == "scales" else {"index": 3, "k": 4})
        with pytest.raises(FileFormatError) as e:
            corrupt_certificate(cert, 0, {key: value})
        assert str(e.value) == message


ALLOWED_SURFACE = {
    "n", "count", "remaining",
    "query_function", "query_function_many",
    "query_degree", "query_neighbor",
    "query_degree_many", "query_neighbor_many",
}


class _PureFacade:
    """Exposes only the query surface; anything else is a purity breach."""

    def __init__(self, oracle):
        self.__dict__["_o"] = oracle

    def __getattr__(self, name):
        if name in ALLOWED_SURFACE:
            return getattr(self.__dict__["_o"], name)
        raise AssertionError(f"detector touched non-query attribute {name!r}")


class TestOraclePurity:
    def test_function_detectors_use_only_the_query_surface(self):
        inst, cert, _ = gen_collision_function(2048, ScaleParams(2, 4), seed=6)
        o = _PureFacade(CountedOracle(inst))
        assert cert_collision_search(o, cert, seed=1).found
        o = _PureFacade(CountedOracle(inst))
        assert multiscale_collision_search(o, 2, 4, seed=1).found

        fp, fpc, _ = gen_fixedpoint_function(4096, FixedPointParams(), seed=7)
        o = _PureFacade(CountedOracle(fp))
        assert cert_fixedpoint_search(o, fpc, seed=1, C=4.0).found
        o = _PureFacade(CountedOracle(fp))
        assert uniform_probe_baseline(o, "fixed-point", seed=1).found
        bat = collision_attempt_battery(_PureFacade(CountedOracle(inst)),
                                        cert.payload["t"], 200, seed=2)
        assert bat["attempts"] == 200

    def test_graph_detectors_use_only_the_query_surface(self):
        claw, clc, _ = gen_claw_graph(2048, ScaleParams(2, 4), seed=8)
        o = _PureFacade(CountedOracle(claw))
        assert cert_claw_search(o, clc, seed=1).found

        star, stc, _ = gen_star_graph(2048, "triangle", seed=9)
        o = _PureFacade(CountedOracle(star))
        assert cert_star_search(o, stc, seed=1).found

        sp, spc, _ = gen_starpath_graph(2048, 4, seed=10)
        o = _PureFacade(CountedOracle(sp))
        assert cert_starpath_search(o, spc, seed=1).found
        o = _PureFacade(CountedOracle(sp))
        assert uniform_probe_baseline(o, "k-star", seed=1, k=4).found
