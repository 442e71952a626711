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
import csv
import functools
import hashlib
import inspect
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
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
)
from qsep.oracle import (
    CountedOracle,
    _jsonable,
    _relabel_maps,
    _unrelabel_witness,
    canonical_json,
    index_dtype,
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


def _default_scale(instance, t):
    if t is not None:
        return int(t)
    t = instance.meta.extras.get("t")
    if t is None:
        raise ValueError("instance carries no scale; pass t explicitly")
    return int(t)


def exact_cert_expectation(instance, t=None) -> CertExpectation:
    """Enumerate every start of the capped walk on a function instance.

    Works for any functional graph; never reads structure metadata. The
    walk from x costs min(tau + sigma, 2^t) queries and succeeds exactly
    when tau >= 1 and tau + sigma <= 2^t, where tau is the distance from
    x to its cycle and sigma that cycle's length.
    """
    if instance.model != "function":
        raise ValueError("exact enumeration needs a function instance")
    t = _default_scale(instance, t)
    cap = 1 << t
    n = instance.n
    dtype = index_dtype(n)
    succ = instance.succ.astype(dtype)

    levels = max(1, math.ceil(math.log2(max(n, 2)))) + 1
    jumps = [succ]
    for _ in range(levels):
        jumps.append(jumps[-1][jumps[-1]])
    far = jumps[-1]  # 2^levels >= 2n steps: on-cycle for every start

    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[far] = True
    # label[x]: least element within 2^(levels+1) steps of x; on a cycle that
    # is the cycle's least element, so on-cycle label counts are cycle lengths
    label = np.arange(n, dtype=dtype)
    for jump in jumps:
        label = np.minimum(label, label[jump])
    cyc_len = np.bincount(label[on_cycle], minlength=n)
    sigma = cyc_len[label[far]]

    tau = np.zeros(n, dtype=np.int64)
    cur = np.arange(n, dtype=dtype)
    for k in range(levels, -1, -1):
        nxt = jumps[k][cur]
        off = ~on_cycle[nxt]
        tau[off] += 1 << k
        cur[off] = nxt[off]
    tau += ~on_cycle[np.arange(n)]

    cost = np.minimum(tau + sigma, cap)
    good = (tau >= 1) & (tau + sigma <= cap)
    cost_sum = int(cost.sum())
    good_sum = int(good.sum())
    return CertExpectation(
        Fraction(good_sum, n),
        Fraction(cost_sum, n),
        Fraction(cost_sum, good_sum) if good_sum else None,
    )


def meta_cert_expectation(instance, t=None) -> CertExpectation:
    """Closed-form sum over the realized structure list.

    A cycle of length lam contributes lam * min(lam, cap) cost and no
    successes; an open path of length L rewired at offset m contributes m
    successes and m*L - m*(m-1)/2 + (L-m)^2 cost; an isolated element
    costs one query. Must agree exactly with exact_cert_expectation.
    """
    t = _default_scale(instance, t)
    cap = 1 << t
    n = instance.n
    offsets = [int(m) for m in instance.meta.extras.get("witness_offsets", [])]
    path_idx = 0
    cost_sum = 0
    good_sum = 0
    for kind, length, _ in instance.meta.structures():
        if kind == "cycle":
            cost_sum += length * min(length, cap)
        elif kind == "path":
            m = offsets[path_idx]
            path_idx += 1
            good_sum += m
            cost_sum += m * length - m * (m - 1) // 2 + (length - m) ** 2
        elif kind == "isolated":
            cost_sum += length
        else:
            raise ValueError(f"unexpected structure kind {kind!r}")
    if path_idx != len(offsets):
        raise ValueError("witness offset list does not match path structures")
    return CertExpectation(
        Fraction(good_sum, n),
        Fraction(cost_sum, n),
        Fraction(cost_sum, good_sum) if good_sum else None,
    )


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
# signatures, which perfbench's wrappers keep
DETECTOR_KEYWORDS = {
    name: {key: p for key, p in inspect.signature(fn).parameters.items()
           if key not in ("oracle", "cert", "seed")}
    for name, fn in DETECTORS.items()}


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
    endless = "max_attempts" in DETECTOR_KEYWORDS[detector] \
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


def _generate(generator: str, n: int, gen_ss, rel_seed, gen_kwargs):
    """FAMILIES[generator].make(n, rng(gen_ss), **gen_kwargs) on this thread.

    For rel_seed not None and n >= _SIDE_DRAW_MIN_N, a side thread draws
    _relabel_maps(n, rel_seed) meanwhile and is joined before this returns,
    so the oracles built next find the maps in its memo. numpy releases the
    GIL while it shuffles and scatters, so the two draws overlap; they come
    from separate seeds, so neither changes. A generator error propagates
    once the side thread is joined; otherwise an error of the side draw is
    raised here.
    """
    def make():
        return FAMILIES[generator].make(n, np.random.default_rng(gen_ss), **gen_kwargs)

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


def _unit(head: dict, point: int, gen_kwargs: dict, relabel: bool, budget,
          lanes) -> list[dict]:
    """Generate one instance and run each (detector, det_kwargs) lane on it,
    all under `budget` and one relabeling; return a trial row per lane.
    SeedSequence([head["seed"], point, head["trial"]]) spawns generator,
    relabel and lane seeds in that order; a spawn's first children do not
    depend on how many it makes, so a lane's seed is the same alone or paired."""
    gen_ss, rel_ss, *lane_ss = np.random.SeedSequence(
        [head["seed"], point, head["trial"]]).spawn(2 + len(lanes))
    rel_seed = _seed_int(rel_ss) if relabel else None
    instance, cert = _generate(head["generator"], head["n"], gen_ss, rel_seed,
                               gen_kwargs)
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
    rows = [row for row, in _map(_unit, [
        ({**head, "trial": i}, config.point, config.gen_kwargs, config.relabel,
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
        return [b / c if c else math.inf
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


def separation_experiment(points, trials: int, master_seed: int,
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
    budgets, pilot_found, cert_stats, base_stats, all_rows = [], [], [], [], []
    for idx, pt in enumerate(points):
        head = {"config": f"sep-{master_seed}-{idx}", "generator": pt.generator,
                "n": pt.n, "seed": master_seed}
        cert_lane = (pt.cert_detector, pt.cert_kwargs)
        pilot_rows = [_unit({**head, "trial": i + (1 << 30)}, idx, pt.gen_kwargs,
                            True, None, (cert_lane,))[0] for i in range(pilot_trials)]
        found = [r["queries"] for r in pilot_rows if r["status"] == FOUND]
        budget = max(1, math.ceil(budget_factor * float(np.mean(found)))) if found \
            else trial_budget(*cert_lane, pt.n, None)

        lanes = (cert_lane, (pt.baseline_detector, pt.baseline_kwargs))
        pairs = _map(_unit, [({**head, "trial": i}, idx, pt.gen_kwargs, True,
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

    Needs at least three points spanning a factor of four in x.
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
    with open(path, newline="") as fh:
        body = (line for line in fh if not line.startswith("#"))
        return list(csv.DictReader(body))


# a report file is a qsep JSON file like any other
write_report_json = write_json
