"""Monte Carlo measurement harness.

Three mutually checking evaluators for the certificate-guided collision
walk (full-start enumeration, a closed-form sum over the realized
structures, and an unfloored analytic form), seeded trial runners with a
per-trial witness soundness check, paired separation experiments with
pilot-calibrated budgets, and log-log slope fitting.

Seeding layout: every trial derives generator, relabeling, and detector
streams from SeedSequence([master_seed, point, trial]) spawns, so a run
is reproducible from the master seed alone and no stream is shared
between trial components. Wall-clock time is never written to output
files; timing belongs on stdout only.
"""

from __future__ import annotations

import atexit
import contextlib
import csv
import functools
import hashlib
import math
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from qsep.detectors import (
    FOUND,
    cert_claw_search,
    cert_collision_search,
    cert_fixedpoint_search,
    cert_star_search,
    cert_starpath_search,
    multiscale_collision_search,
    uniform_probe_baseline,
)
# the generators stay importable here, where perfbench wraps them
from qsep.generators import (  # noqa: F401
    FAMILIES,
    ParameterError,
    ScaleParams,
    _at_least,
    check_fields,
    check_type,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
    keywords_of,
)
from qsep.oracle import (
    KIND_CYCLE,
    KIND_ISOLATED,
    KIND_PATH,
    CountedOracle,
    _jsonable,
    _relabel_maps,
    _unrelabel_witness,
    canonical_json,
    read_text,
    validate_witness,
    write_json,
)

# ---------------------------------------------------------------------------
# exact evaluators for the capped collision walk


@dataclass(frozen=True)
class CertExpectation:
    """Per-attempt law of a capped forward walk from a uniform start.

    success_prob: P(walk certifies a collision before the cap)
    cost_per_attempt: E[queries spent by one walk]
    expected_total: E[queries until first success] under independent
    restarts (None when success is impossible).
    """

    success_prob: Fraction
    cost_per_attempt: Fraction
    expected_total: Fraction | None


def _law(good_sum: int, cost_sum: int, n: int) -> CertExpectation:
    """The law from its totals over all n starts."""
    return CertExpectation(Fraction(good_sum, n), Fraction(cost_sum, n),
                           Fraction(cost_sum, good_sum) if good_sum else None)


def _walk_cap(instance, t):
    """The walk's cap 2^t, clamped to n: a walk meets at most n distinct
    elements, so tau + sigma <= n and the clamp changes no law."""
    if t is None:
        t = instance.meta.extras.get("t")
        if t is None:
            raise ValueError("instance carries no scale; pass t explicitly")
    return min(1 << int(t), instance.n)


def exact_cert_expectation(instance, t=None) -> CertExpectation:
    """Enumerate every start of the capped walk on a function instance.

    Works for any functional graph; never reads structure metadata. The
    walk from x costs min(tau + sigma, 2^t) queries and succeeds exactly
    when tau >= 1 and tau + sigma <= 2^t, where tau is the distance from
    x to its cycle and sigma that cycle's length.

    Round k of the doubling holds jump = f^(2^k) and label[x], the least
    of x, f(x), ..., f^(2^k - 1)(x). It stops once label holds still, so
    it is the least element of x's forward orbit (on a cycle, the cycle's
    least), and the image of jump stops shrinking: image(f^a) =
    image(f^2a) leaves no off-cycle element at height a or more, so jump
    lands on a cycle from every start and its image is the cycle set.
    Pointer jumping with cycle elements as roots then gives tau. Both
    loops run about log2 of the longest tail or cycle rounds, not log2 n.
    """
    if instance.model != "function":
        raise ValueError("exact enumeration needs a function instance")
    cap = _walk_cap(instance, t)
    n = instance.n
    succ = instance.succ.astype(np.intp)
    jump, label, image = succ, np.arange(n), None
    while True:
        on_cycle = np.zeros(n, dtype=bool)
        on_cycle[jump] = True
        size = np.count_nonzero(on_cycle)
        nxt = np.minimum(label, label[jump])
        if size == image and np.array_equal(nxt, label):
            break
        label, image, jump = nxt, size, jump[jump]
    cyc_len = np.bincount(label[on_cycle], minlength=n)

    # tau[x] is the distance from x to root[x]; only starts whose root is
    # not yet on a cycle take part in a round
    root = np.where(on_cycle, np.arange(n), succ)
    tau = (~on_cycle).astype(np.int64)
    live = np.flatnonzero(~on_cycle)
    while live.size:
        hop = root[live]
        tau[live] += tau[hop]
        root[live] = root[hop]
        live = live[~on_cycle[root[live]]]

    walk = tau + cyc_len[label[root]]
    cost_sum = int(np.minimum(walk, cap).sum())
    good_sum = int(np.count_nonzero((tau >= 1) & (walk <= cap)))
    return _law(good_sum, cost_sum, n)


def meta_cert_expectation(instance, t=None) -> CertExpectation:
    """Closed-form sum over the realized structure list.

    A cycle of length lam contributes lam * min(lam, cap) cost and no
    successes. An open path of length L rewired at offset m has m tail
    starts j < m, whose walk costs min(L - j, cap) and succeeds when
    L - j <= cap (all but the first k = clip(L - cap, 0, m)), and L - m
    cycle starts costing min(L - m, cap) each. An isolated element costs
    one query. Must agree exactly with exact_cert_expectation at any t.
    The cost total is the whole walk cost over all n starts, at most n^2,
    so the int64 sums are exact for any n below 2^31.
    """
    cap = _walk_cap(instance, t)
    n = instance.n
    meta = instance.meta
    kinds, lengths = meta.kinds, np.diff(meta.offsets).astype(np.int64)
    other = ~np.isin(kinds, (KIND_PATH, KIND_CYCLE, KIND_ISOLATED))
    if other.any():
        kind = meta.kind_name(int(np.argmax(other)))
        raise ValueError(f"unexpected structure kind {kind!r}")
    m = np.asarray(meta.extras.get("witness_offsets", []), dtype=np.int64)
    path = lengths[kinds == KIND_PATH]
    if len(m) != len(path):
        raise ValueError("witness offset list does not match path structures")
    cyc = lengths[kinds == KIND_CYCLE]
    k = np.clip(path - cap, 0, m)
    tail = k * cap + (m - k) * path - (m * (m - 1) - k * (k - 1)) // 2
    cost_sum = int((cyc * np.minimum(cyc, cap)).sum()
                   + (tail + (path - m) * np.minimum(path - m, cap)).sum()
                   + lengths[kinds == KIND_ISOLATED].sum())
    good_sum = int((m - k).sum())
    return _law(good_sum, cost_sum, n)


def analytic_cert_expectation(n: int, params: ScaleParams, t: int,
                              rho: float) -> tuple[float, float, float]:
    """Unfloored analytic form of the per-attempt walk law.

    Path counts are kept real-valued (no floors) and the witness offset
    is averaged over its uniform range, so this tracks the realized
    instance only up to rounding and offset sampling noise. Returns
    (success_prob, cost_per_attempt, expected_total) as floats.
    """
    cap = float(1 << t)
    length = 1 << t
    a = {i: max(rho * n / params.beta ** i, 1.0)
         for i in range(params.i_min, params.i_max + 1)}
    b = min(max(rho * n ** (1.0 - params.c) / params.gamma ** t, 1.0), a[t])

    ms = np.arange(1, length - 1, dtype=np.float64)
    path_cost = float(np.mean(ms * length - ms * (ms - 1) / 2 + (length - ms) ** 2))
    path_good = float(np.mean(ms))

    cost = 0.0
    for i, a_i in a.items():
        cycles = a_i - (b if i == t else 0.0)
        cost += cycles * (1 << i) * min(float(1 << i), cap)
    cost += b * path_cost
    leftover = max(n - sum(a_i * (1 << i) for i, a_i in a.items()), 0.0)
    cost += leftover
    p = b * path_good / n
    per = cost / n
    return p, per, per / p


# ---------------------------------------------------------------------------
# registries


def _certless(search):
    """Give a certificate-free search the (oracle, cert, seed) signature;
    inspect.signature still reports the search's own keywords."""
    @functools.wraps(search)
    def run(oracle, cert, seed, **kw):
        return search(oracle, seed=seed, **kw)
    return run


DETECTORS = {
    "cert-collision": cert_collision_search,
    "multiscale": _certless(multiscale_collision_search),
    "cert-claw": cert_claw_search,
    "cert-fixedpoint": cert_fixedpoint_search,
    "cert-star": cert_star_search,
    "cert-starpath": cert_starpath_search,
    "uniform-probe": _certless(uniform_probe_baseline),
}

# the certificate kinds each certificate detector reads
CERT_KINDS = {f.detector: f.kinds for f in FAMILIES.values()}

# each detector's keywords past (oracle, cert, seed), read once from the
# signatures, which perfbench's wrappers keep, and each generator's, with
# its record's defaults
KEYWORDS = {
    **{name: {key: p for key, p in keywords_of(fn).items()
              if key not in ("oracle", "cert", "seed")} for name, fn in DETECTORS.items()},
    **{name: {key: keywords_of(globals()[f.generator])[key].replace(default=default)
              for key, default in f.keywords.items()} for name, f in FAMILIES.items()}}


def _check_lanes(record, *lanes) -> None:
    """Each (name field, kwargs field) of record names a registered generator
    or detector and holds an object of the keywords it takes, with a
    generator's params parsed."""
    for name_field, kwargs_field in lanes:
        table = FAMILIES if name_field == "generator" else DETECTORS
        name, kwargs = getattr(record, name_field), getattr(record, kwargs_field)
        if not (isinstance(name, str) and name in table):
            raise ParameterError(f"{name_field} must be one of the {name_field.split('_')[-1]}"
                                 f"s {', '.join(sorted(table))}, got {name!r}")
        check_fields(kwargs_field, kwargs, KEYWORDS[name], name)
        if table is FAMILIES:
            FAMILIES[name].arguments(kwargs, f"{kwargs_field}.params")


# The fewest bytes per element any command holds at its peak. Peak RSS
# slopes between n = 2^19 and 2^21 on a 2-core VM: 42 (a slope series of
# cert-collision), 62 (a separation point), 122 (adversary-test) and 183-332
# (gen, which also builds the files' JSON).
BYTES_PER_ELEMENT = 40


def check_size(n: int) -> None:
    """MemoryError, before anything is allocated, if n elements at
    BYTES_PER_ELEMENT bytes each exceed this machine's physical memory.
    Its entry names n, as _naming's does."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n * BYTES_PER_ELEMENT > have:
        err = MemoryError(f"{n} elements take at least {n * BYTES_PER_ELEMENT} bytes, "
                          f"more than the {have} bytes of physical memory")
        err.entry = f"n {n}"
        raise err


# ---------------------------------------------------------------------------
# trial running


def config_hash(obj) -> str:
    """First 12 hex digits of the sha256 of obj's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


@dataclass
class TrialConfig:
    generator: str
    detector: str
    n: int
    trials: int
    master_seed: int
    gen_kwargs: dict = field(default_factory=dict)
    det_kwargs: dict = field(default_factory=dict)
    budget: int | None = None
    relabel: bool = True
    point: int = 0

    def __post_init__(self):
        for name, lo in (("n", 1), ("trials", 0), ("budget", 0), ("master_seed", 0),
                         ("point", 0)):
            _at_least(name, getattr(self, name), lo)
        _check_lanes(self, ("generator", "gen_kwargs"), ("detector", "det_kwargs"))

    def config_hash(self) -> str:
        return config_hash(self)


def _wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class TrialStats:
    trials: int
    successes: int
    success_rate: float
    rate_ci95: tuple[float, float]
    mean_queries: float
    stderr_queries: float
    queries_ci95: tuple[float, float]
    status_counts: dict
    empty: bool = False

    @classmethod
    def from_rows(cls, rows) -> "TrialStats":
        qs = [r["queries"] for r in rows]
        statuses = [r["status"] for r in rows]
        m = len(rows)
        if m == 0:
            return cls(0, 0, 0.0, (0.0, 1.0), 0.0, 0.0, (0.0, 0.0), {}, empty=True)
        successes = sum(1 for s in statuses if s == FOUND)
        mean = float(np.mean(qs))
        stderr = float(np.std(qs, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        return cls(
            trials=m,
            successes=successes,
            success_rate=successes / m,
            rate_ci95=_wilson(successes, m),
            mean_queries=mean,
            stderr_queries=stderr,
            queries_ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
            status_counts=dict(Counter(statuses)),
        )


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def trial_budget(detector: str, det_kwargs: dict, n: int, budget):
    """The budget as given; else 16 n for a detector that takes max_attempts
    but got none, a restarting walker that would never end without a witness."""
    endless = "max_attempts" in KEYWORDS[detector] \
        and det_kwargs.get("max_attempts") is None
    return 16 * n if budget is None and endless else budget


def _trial(detector: str, instance, cert, rel_seed, budget, det_kwargs, seed,
           source: str | None = None):
    """Run `detector` once on a fresh oracle over `instance` under trial_budget
    and check its query accounting; every detector run comes here. Returns the
    outcome and whether its witness holds on `instance`, None without one.
    `source` names the generator of `cert` in a certificate-kind error."""
    kinds = CERT_KINDS.get(detector)
    if kinds and (cert is None or cert.kind not in kinds):
        got = "no --cert" if cert is None else f"a {cert.kind} certificate"
        raise ParameterError(f"{detector} needs a {' or '.join(kinds)} certificate, "
                             f"got {got}" + (f" from {source}" if source else ""))
    oracle = CountedOracle(instance, relabel_seed=rel_seed, budget=trial_budget(
        detector, det_kwargs, instance.n, budget))
    # looked up at call time: perfbench wraps the DETECTORS entries
    out = DETECTORS[detector](oracle, cert, seed, **det_kwargs)
    if out.queries != oracle.count:
        raise RuntimeError(
            f"query accounting drift: outcome {out.queries} vs oracle {oracle.count}")
    return out, validate_witness(instance, _unrelabel_witness(oracle, out.witness)) \
        if out.found else None


# Smallest n whose relabel draw runs beside generation. Timed on a 2-core
# Xeon VM: the draw (_relabel_maps, inverse scattered in int32) takes
# 0.08 ms at 2^12, 1.4 ms at 2^16, 2.9 ms at 2^17 and 37 ms at 2^20, the
# inverse's int64 cast 0.8 ms more at 2^20, and a thread's start and join
# 0.14 ms. A thread that wants the GIL back may wait a whole 5 ms
# switch interval, so the overlap pays only for draws long against that:
# generation plus draw took 1.1-2.2x as long with the thread at 2^12-2^14,
# 0.75x at 2^16 and 0.65x from 2^17 on. The gain at 2^16 turns into a loss
# when a worker pool already keeps both cores busy: two spawned workers
# each doing 300 generations plus draws at 2^16 took 1.64 s with the thread
# against 1.44 s without (medians of six runs).
_SIDE_DRAW_MIN_N = 1 << 17


def _generate(generator: str, n: int, gen_ss, rel_seed, gen_args):
    """FAMILIES[generator].make(n, rng(gen_ss), **gen_args) on this thread.

    For rel_seed not None and n >= _SIDE_DRAW_MIN_N, a side thread draws
    _relabel_maps(n, rel_seed) meanwhile and is joined before this returns,
    so the oracles built next find the maps in its memo. numpy releases the
    GIL while it shuffles and scatters, so the two draws overlap; they come
    from separate seeds, so neither changes. A generator error propagates
    once the side thread is joined; otherwise an error of the side draw is
    raised here.
    """
    def make():
        return FAMILIES[generator].make(n, np.random.default_rng(gen_ss), **gen_args)

    if rel_seed is None or n < _SIDE_DRAW_MIN_N:
        return make()
    failed = []

    def draw():
        try:
            _relabel_maps(n, rel_seed)
        except BaseException as err:  # re-raised by the caller below
            failed.append(err)

    side = threading.Thread(target=draw, name="qsep-relabel-draw")
    side.start()
    try:
        made = make()
    finally:
        side.join()
    if failed:
        raise failed[0]
    return made


@contextlib.contextmanager
def _naming(entry: str):
    """Tag a MemoryError raised inside with the battery entry it ran, for
    the CLI's error line."""
    try:
        yield
    except MemoryError as e:
        e.entry = entry
        raise


def _unit(head: dict, point: int, gen_args: dict, relabel: bool, budget,
          lanes) -> list[dict]:
    """Generate one instance from gen_args, the generator's arguments as
    Family.arguments builds them once per point, and run each (detector,
    det_kwargs) lane on it, all under `budget` and one relabeling; return a
    trial row per lane.
    SeedSequence([head["seed"], point, head["trial"]]) spawns generator,
    relabel and lane seeds in that order; a spawn's first children do not
    depend on how many it makes, so a lane's seed is the same alone or paired."""
    gen_ss, rel_ss, *lane_ss = np.random.SeedSequence(
        [head["seed"], point, head["trial"]]).spawn(2 + len(lanes))
    rel_seed = _seed_int(rel_ss) if relabel else None
    instance, cert = _generate(head["generator"], head["n"], gen_ss, rel_seed,
                               gen_args)
    scales = instance.meta.extras.get("scales")
    rows = []
    for (detector, det_kwargs), det_ss in zip(lanes, lane_ss):
        out, valid = _trial(detector, instance, cert, rel_seed, budget, det_kwargs,
                            np.random.default_rng(det_ss), head["generator"])
        if valid is False:
            raise RuntimeError(
                f"{detector} returned an invalid witness on trial {head['trial']} "
                f"(config {head['config']}, seed {head['seed']}, n {head['n']})")
        rows.append({**head, "detector": detector,
                     "s": len(scales) if scales is not None else "",
                     "status": out.status, "queries": out.queries})
    return rows


# This process's worker pool, (owner pid, workers, executor), or None.
_pool = None

# How often, in seconds, a pool worker checks that its parent is alive.
_PARENT_POLL_S = 0.5


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: a daemon thread ends this worker once `parent`, the
    pid that started the pool, is gone. Blocked on the call queue, a worker
    never sees its parent die, but its parent pid changes on reparenting."""
    def watch():
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)
    threading.Thread(target=watch, name="qsep-parent-watch", daemon=True).start()


def _executor(workers: int) -> ProcessPoolExecutor:
    """The pool of `workers` workers, started on first use and kept for
    every later call with the same count; another count replaces it. The
    pool belongs to the pid that started it, so a forked child starts its
    own."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _close_pool()
        _pool = (os.getpid(), workers, ProcessPoolExecutor(
            workers, initializer=_exit_with_parent, initargs=(os.getpid(),)))
    return _pool[2]


@atexit.register
def _close_pool() -> None:
    """Drop the pool, and shut it down if this process started it."""
    global _pool
    if _pool is not None:
        pid, _, executor = _pool
        _pool = None
        if pid == os.getpid():
            executor.shutdown()


def _map(fn, tasks, workers: int) -> list:
    """[fn(*task) for task in tasks], across the process's worker pool when
    workers > 1; results keep the order of tasks. A broken pool is dropped
    before its error propagates, so the next call starts a fresh one."""
    if workers > 1 and len(tasks) > 1:
        try:
            return list(_executor(workers).map(fn, *zip(*tasks), chunksize=1))
        except BrokenProcessPool:
            _close_pool()
            raise
    return [fn(*task) for task in tasks]


def run_trials(config: TrialConfig, workers: int = 1):
    """Run config.trials independent seeded trials; returns (stats, rows)."""
    head = {"config": config.config_hash(), "generator": config.generator,
            "n": config.n, "seed": config.master_seed}
    gen_args = FAMILIES[config.generator].arguments(config.gen_kwargs)
    rows = [row for row, in _map(_unit, [
        ({**head, "trial": i}, config.point, gen_args, config.relabel,
         config.budget, ((config.detector, config.det_kwargs),))
        for i in range(config.trials)], workers)]
    return TrialStats.from_rows(rows), rows


# ---------------------------------------------------------------------------
# paired separation experiments


@dataclass
class SeparationPoint:
    """One x-axis point of a separation experiment."""

    x: float
    n: int
    generator: str
    gen_kwargs: dict = field(default_factory=dict)
    cert_detector: str = "cert-collision"
    cert_kwargs: dict = field(default_factory=dict)
    baseline_detector: str = "multiscale"
    baseline_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ParameterError(f"x must be finite, got {self.x!r}")
        _at_least("n", self.n, 1)
        check_size(self.n)
        _check_lanes(self, ("generator", "gen_kwargs"), ("cert_detector", "cert_kwargs"),
                     ("baseline_detector", "baseline_kwargs"))


@dataclass
class SeparationReport:
    xs: list
    ns: list
    budgets: list
    pilot_found: list
    cert_stats: list
    base_stats: list
    rows: list

    @property
    def cert_means(self):
        return [s.mean_queries for s in self.cert_stats]

    @property
    def base_means(self):
        return [s.mean_queries for s in self.base_stats]

    @property
    def ratios(self):
        """Baseline over certificate mean per point; None where the
        certificate mean is 0, so the ratio is undefined."""
        return [b / c if c else None
                for b, c in zip(self.base_means, self.cert_means)]

    def to_jsonable(self) -> dict:
        return {
            "xs": list(self.xs),
            "ns": list(self.ns),
            "budgets": list(self.budgets),
            "cert": [_jsonable(s) for s in self.cert_stats],
            "baseline": [_jsonable(s) for s in self.base_stats],
            "ratios": self.ratios,
        }


def separation_experiment(points, trials: int = 20, master_seed: int = 0,
                          budget_factor: float = 50.0, pilot_trials: int = 6,
                          workers: int = 1) -> SeparationReport:
    """Paired query-cost comparison across a list of SeparationPoints.

    Per point: a small pilot of the certificate side, under trial_budget's
    default, fixes a query budget of budget_factor times the mean cost of its
    Found rows, then both sides run `trials` paired trials under that budget
    on fresh instances. A censored row's count bounds its cost from below, so
    a pilot without a Found row keeps the budget it ran under. A pilot trial
    is tagged trial + 2^30.
    """
    _at_least("trials", trials, 0)
    _at_least("pilot_trials", pilot_trials, 1)
    if not 0 < budget_factor < math.inf:
        raise ParameterError(f"budget_factor must be a finite number > 0, got {budget_factor!r}")
    budgets, pilot_found, cert_stats, base_stats, all_rows = [], [], [], [], []
    for idx, pt in enumerate(points):
        head = {"config": f"sep-{master_seed}-{idx}", "generator": pt.generator,
                "n": pt.n, "seed": master_seed}
        cert_lane = (pt.cert_detector, pt.cert_kwargs)
        gen_args = FAMILIES[pt.generator].arguments(pt.gen_kwargs)
        with _naming(f"points[{idx}] (n {pt.n})"):
            pilot_rows = [_unit({**head, "trial": i + (1 << 30)}, idx, gen_args,
                                True, None, (cert_lane,))[0] for i in range(pilot_trials)]
            found = [r["queries"] for r in pilot_rows if r["status"] == FOUND]
            budget = max(1, math.ceil(budget_factor * float(np.mean(found)))) \
                if found else trial_budget(*cert_lane, pt.n, None)
            lanes = (cert_lane, (pt.baseline_detector, pt.baseline_kwargs))
            pairs = _map(_unit, [({**head, "trial": i}, idx, gen_args, True,
                                  budget, lanes) for i in range(trials)], workers)
        rows_c = [c for c, _ in pairs]
        rows_b = [b for _, b in pairs]

        budgets.append(budget)
        pilot_found.append(len(found))
        cert_stats.append(TrialStats.from_rows(rows_c))
        base_stats.append(TrialStats.from_rows(rows_b))
        all_rows.extend(rows_c + rows_b)
    return SeparationReport([pt.x for pt in points], [pt.n for pt in points],
                            budgets, pilot_found, cert_stats, base_stats, all_rows)


# ---------------------------------------------------------------------------
# slope fitting


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float
    r2: float
    points: int


def slope_fit(xs, ys) -> SlopeFit:
    """OLS fit of log(y) against log(x).

    ValueError unless at least three positive points span a factor of four in x.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 3:
        raise ValueError("slope fit needs at least three points")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("slope fit needs positive values")
    if xs.max() / xs.min() < 4.0:
        raise ValueError("slope fit needs x values spanning a factor of four")
    lx, ly = np.log(xs), np.log(ys)
    mx = lx.mean()
    varx = float(((lx - mx) ** 2).sum())
    slope = float(((lx - mx) * (ly - ly.mean())).sum() / varx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    sse = float((resid ** 2).sum())
    sst = float(((ly - ly.mean()) ** 2).sum())
    dof = len(xs) - 2
    stderr = math.sqrt(sse / dof / varx) if dof > 0 else 0.0
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    return SlopeFit(slope, intercept, stderr, r2, len(xs))


def _fit(ns, means):
    """The log-log slope fit of means over ns, or None where slope_fit refuses them."""
    try:
        return slope_fit(ns, means)
    except ValueError:
        return None


@dataclass
class SlopeSeries:
    """One line of a slope experiment: detector's mean query count on
    generator's instances at each n of ns."""

    label: str
    generator: str
    detector: str
    ns: list
    trials: int = 10
    gen_kwargs: dict = field(default_factory=dict)
    det_kwargs: dict = field(default_factory=dict)
    budget: int | None = None

    def __post_init__(self):
        if not self.ns:
            raise ParameterError("ns must be a non-empty list")
        for i, n in enumerate(self.ns):
            check_type(f"ns[{i}]", n, "int")
            _at_least(f"ns[{i}]", n, 1)
            check_size(n)
        _at_least("trials", self.trials, 0)
        _at_least("budget", self.budget, 0)
        _check_lanes(self, ("generator", "gen_kwargs"), ("detector", "det_kwargs"))


def slope_experiment(series, master_seed: int = 0, workers: int = 1):
    """Run each SlopeSeries at each of its ns, series j's i-th n as point
    1000 j + i, under trial_budget; return the trial rows, a summary row per
    series and n, and each label's _fit of mean queries over n. Two series
    of one label are refused before any trial runs."""
    labels = {}
    for si, s in enumerate(series):
        first = labels.setdefault(s.label, si)
        if first != si:
            raise ParameterError(
                f"series[{first}] and series[{si}] share the label {s.label!r}")
    rows, summary, fits = [], [], {}
    for si, s in enumerate(series):
        means = []
        for ni, n in enumerate(s.ns):
            cfg = TrialConfig(s.generator, s.detector, n, s.trials, master_seed,
                              s.gen_kwargs, s.det_kwargs,
                              trial_budget(s.detector, s.det_kwargs, n, s.budget),
                              point=si * 1000 + ni)
            with _naming(f"series[{si}] (n {n})"):
                stats, trial_rows = run_trials(cfg, workers=workers)
            rows.extend(trial_rows)
            means.append(stats.mean_queries)
            summary.append({"label": s.label, "n": n, "trials": stats.trials,
                            "successes": stats.successes, "mean_queries": stats.mean_queries,
                            "stderr_queries": stats.stderr_queries})
        f = _fit([float(n) for n in s.ns], means)
        fits[s.label] = None if f is None else {
            "slope": f.slope, "intercept": f.intercept, "stderr": f.stderr, "r2": f.r2}
    return rows, summary, fits


# ---------------------------------------------------------------------------
# result files (byte-deterministic; no wall-clock content)


CSV_FIELDS = ["config", "generator", "detector", "n", "s",
              "trial", "seed", "status", "queries"]


def write_trials_csv(path, rows, config_hash: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if config_hash is not None:
            fh.write(f"# config {config_hash}\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_FIELDS})


def read_trials_csv(path) -> list[dict]:
    with read_text(path, newline="") as fh:
        body = (line for line in fh if not line.startswith("#"))
        return list(csv.DictReader(body))


# a report file is a qsep JSON file like any other
write_report_json = write_json
