"""Seeded generators for the planted-substructure distributions.

Each generator is a pure function of (n, params, seed) returning
(instance, certificate, meta). The certificate carries the structural
parameters an informed search algorithm would hold; meta is the full
ground-truth layout for verification tools only.

Capacity accounting is explicit: path counts follow a_i = floor(rho *
n / beta^i) and witness counts b_i = floor(rho * n^(1-c) / gamma^i),
with rho either given or auto-fit to the largest value <= 1 for which
every structure plus witness overhead fits inside n elements.

FAMILIES, at the end, holds one Family record per construction; `gen`,
`bench`, `verify` and certificate corruption read a construction there.
"""

from __future__ import annotations

import functools
import inspect
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, asdict
from math import isqrt

import numpy as np

from qsep.oracle import (
    KIND_BACKBONE,
    KIND_CYCLE,
    KIND_FEEDER,
    KIND_GADGET,
    KIND_ISOLATED,
    KIND_PATH,
    KIND_STAR,
    Certificate,
    FileFormatError,
    FunctionInstance,
    StructureMeta,
    graph_from_edges,
    index_dtype,
)


class ParameterError(ValueError):
    """Parameters outside the construction's legal ranges."""


class CapacityError(ParameterError):
    """Requested structures do not fit inside n elements."""


class PrimeShortageError(ParameterError):
    """The prime window holds fewer primes than cycles needed."""


def _seed_repr(seed):
    return int(seed) if isinstance(seed, (int, np.integer)) else None


def _finish(inst, runs, members, construction, seed, parameters, **fields):
    """Set inst.meta to the structures that runs, a list of (kind, count,
    length), take in order from members, check that they partition [n],
    and stamp inst.info. Every generator ends here; returns the meta."""
    meta = inst.meta = StructureMeta.from_runs(runs, members, **fields)
    if not meta.check_partition(inst.n):
        raise AssertionError("structure lists do not partition [n]")
    inst.info = {"construction": construction, "seed": _seed_repr(seed),
                 "parameters": parameters}
    return meta


def _path_edges(paths) -> np.ndarray:
    """The edges between consecutive vertices of each path (a vertex
    sequence, or one path per row), path by path, as an (m, 2) array."""
    return np.stack((paths[..., :-1], paths[..., 1:]), -1).reshape(-1, 2)


# ---------------------------------------------------------------------------
# multi-scale path layout (collision and claw families)


@dataclass(frozen=True)
class ScaleParams:
    """Scale window and density knobs for the multi-scale constructions."""

    i_min: int = 4
    i_max: int = 8
    beta: float = 2.2
    gamma: float = 1.1
    c: float = 0.3
    rho: float | str = "auto"

    def validate(self) -> None:
        if self.i_min < 2:
            raise ParameterError("i_min must be >= 2 (witness paths need an interior)")
        if self.i_min > self.i_max:
            raise ParameterError("i_min must not exceed i_max")
        if not 1.0 < self.gamma < self.beta:
            raise ParameterError("need 1 < gamma < beta")
        if not math.isfinite(self.beta):
            raise ParameterError(f"beta must be a finite number, got {self.beta!r}")
        if not 0.0 < self.c < 0.5:
            raise ParameterError("need 0 < c < 1/2")
        if self.rho != "auto" and not (
                isinstance(self.rho, (int, float)) and 0.0 < self.rho <= 1.0):
            raise ParameterError("rho must lie in (0, 1] or be 'auto'")


@dataclass(frozen=True)
class ScaleTable:
    """Realized per-scale counts for one (n, params) pair. Tables are shared
    between callers, so the table and its arrays are read-only."""

    n: int
    scales: np.ndarray        # the exponents i_min..i_max
    a: np.ndarray             # paths per scale
    b: np.ndarray             # witness paths per scale (clamped to [1, a_i])
    rho: float
    witness_overhead: int     # extra elements consumed per witness path
    path_elements: int        # sum of a_i * 2^i
    capacity: int             # path_elements + witness-overhead reserve

    def index_of(self, t: int) -> int:
        return int(t) - int(self.scales[0])


def _counts(n, scales, beta, gamma, c, rho, witness_overhead, clamp_warn=False):
    fs = scales.astype(np.float64)
    a = np.floor(rho * n / beta ** fs).astype(np.int64)
    a = np.maximum(a, 1)
    b_raw = np.floor(rho * n ** (1.0 - c) / gamma ** fs).astype(np.int64)
    if clamp_warn and (b_raw < 1).any():
        low = [int(s) for s, v in zip(scales, b_raw) if v < 1]
        warnings.warn(f"witness count clamped up to 1 at scales {low}", stacklevel=4)
    b = np.minimum(np.maximum(b_raw, 1), a)
    path_elements = int((a * (1 << scales.astype(np.int64))).sum())
    capacity = path_elements + witness_overhead * int(b.max())
    return a, b, path_elements, capacity


def scale_table(n: int, params: ScaleParams, witness_overhead: int = 0) -> ScaleTable:
    """Resolve rho and the per-scale counts; raise CapacityError if unfit.

    Equal (n, params, witness_overhead) keys share one read-only table, so
    the clamp warning is issued only when a key's table is first built.
    """
    params.validate()
    return _scale_table(int(n), params, int(witness_overhead))


@functools.lru_cache(maxsize=64)
def _scale_table(n: int, params: ScaleParams, witness_overhead: int) -> ScaleTable:
    scales = np.arange(params.i_min, params.i_max + 1, dtype=np.int64)
    if params.rho == "auto":
        _, _, _, cap_floor = _counts(n, scales, params.beta, params.gamma, params.c,
                                     0.0, witness_overhead)
        if cap_floor > n:
            raise CapacityError(
                f"even one path per scale needs {cap_floor} > n = {n} elements")
        _, _, _, cap_one = _counts(n, scales, params.beta, params.gamma, params.c,
                                   1.0, witness_overhead)
        if cap_one <= n:
            rho = 1.0
        else:
            lo, hi = 0.0, 1.0
            for _ in range(64):
                mid = (lo + hi) / 2
                cap_mid = _counts(n, scales, params.beta, params.gamma, params.c,
                                  mid, witness_overhead)[3]
                if cap_mid <= n:
                    lo = mid
                else:
                    hi = mid
            rho = lo
    else:
        rho = float(params.rho)
    a, b, path_elements, capacity = _counts(
        n, scales, params.beta, params.gamma, params.c, rho, witness_overhead,
        clamp_warn=True)
    if capacity > n:
        raise CapacityError(
            f"capacity {capacity} (paths {path_elements} + overhead) exceeds n = {n} "
            f"at rho = {rho}")
    for arr in (scales, a, b):
        arr.flags.writeable = False
    return ScaleTable(n=n, scales=scales, a=a, b=b, rho=rho,
                      witness_overhead=witness_overhead,
                      path_elements=path_elements, capacity=capacity)


def _draw_layout(n, params, rng, witness_overhead):
    """The layout draw the scale families and the adversary share: the
    scale table, then the permutation sigma from rng, cut into per-scale
    path blocks (blocks[j] is an (a_j, 2^i_j) array), the witness pool
    (the witness-overhead reserve at sigma's end) and the spare elements
    in between. Returns (table, sigma, blocks, pool, spare)."""
    table = scale_table(n, params, witness_overhead=witness_overhead)
    sigma = rng.permutation(n)
    blocks = []
    cursor = 0
    for i, a in zip(table.scales.tolist(), table.a.tolist()):
        blocks.append(sigma[cursor:cursor + (a << i)].reshape(a, 1 << i))
        cursor += a << i
    pool_start = n - witness_overhead * int(table.b.max())
    return table, sigma, blocks, sigma[pool_start:], sigma[cursor:pool_start]


def _scale_layout(n, params, seed, witness_overhead, b_override, t_override):
    """_draw_layout, then the good scale t (the rng is returned for any
    later draws), t's index and b_t."""
    rng = np.random.default_rng(seed)
    table, sigma, blocks, pool, spare = _draw_layout(n, params, rng, witness_overhead)
    t = int(rng.integers(params.i_min, params.i_max + 1)) if t_override is None \
        else int(t_override)
    if not params.i_min <= t <= params.i_max:
        raise ParameterError(f"t = {t} outside scale window")
    j_good = table.index_of(t)
    b_t = int(table.b[j_good]) if b_override is None else int(b_override)
    if not 0 <= b_t <= int(table.a[j_good]):
        raise ParameterError(f"witness count {b_t} outside [0, a_t]")
    return rng, table, sigma, blocks, pool, spare, t, j_good, b_t


def _scale_extras(table, t, b_t) -> dict:
    """The meta extras both multi-scale families record."""
    return {"scales": table.scales.tolist(), "a": table.a.tolist(),
            "b": table.b.tolist(), "rho": table.rho, "t": t, "b_t": b_t}


def _close_or_fix(nxt, sigma, p, runs, filler: str):
    """Wire the unused elements sigma[p:]: fixed points, or 2-/3-cycles
    under filler="cycles". nxt is in position space (nxt[k] is the image
    of sigma[k]) and already holds nxt[k] = sigma[k + 1] for k < n - 1,
    so only each structure's last position is written."""
    rest = len(sigma) - p
    if rest == 0:
        return
    if filler == "fixed":
        nxt[p:] = sigma[p:]
        runs.append((KIND_ISOLATED, 1, rest))
        return
    if rest == 1:
        # a lone element has no cycle partner; a fixed point is unavoidable
        warnings.warn("one leftover element became a fixed point", stacklevel=3)
        nxt[p] = sigma[p]
        runs.append((KIND_ISOLATED, 1, 1))
        return
    if rest % 2:
        nxt[p + 2] = sigma[p]
        runs.append((KIND_CYCLE, 1, 3))
        p += 3
    nxt[p + 1::2] = sigma[p::2]
    runs.append((KIND_CYCLE, (len(sigma) - p) // 2, 2))


def gen_collision_function(n: int, params: ScaleParams, seed,
                           filler: str = "fixed",
                           b_override: int | None = None,
                           t_override: int | None = None):
    """Multi-scale collision instance.

    Paths of 2^i elements are laid over a random permutation of [n] for
    every scale i in the window. A secret good scale t is drawn uniformly;
    b_t of its paths have their last element redirected to a uniform
    interior element, creating exactly one collision per witness path.
    All other paths close into cycles. Leftovers become fixed points, or
    2-/3-cycles under filler="cycles".

    The structures tile sigma in order, so sigma is the meta's member
    array, and succ is built in position space (nxt[k] is the image of
    sigma[k]) and scattered once.
    """
    if filler not in ("fixed", "cycles"):
        raise ParameterError(f"unknown filler {filler!r}")
    rng, table, sigma, blocks, _, _, t, j_good, b_t = _scale_layout(
        n, params, seed, 0, b_override, t_override)
    m = rng.integers(1, (1 << t) - 1, size=b_t)
    rows = np.arange(b_t)
    witness_block = blocks[j_good][:b_t]
    hit = witness_block[rows, m]
    nxt = np.empty(n, dtype=index_dtype(n))
    nxt[:-1] = sigma[1:]
    runs = []
    p = 0
    for j, block in enumerate(blocks):
        # a row's last position maps to the row's first element, except in
        # the good scale's first b_t rows, where it maps to interior element m
        count, length = block.shape
        stop = p + count * length
        nxt[p + length - 1:stop:length] = block[:, 0]
        b = b_t if j == j_good else 0
        nxt[p + length - 1:p + b * length:length] = hit[:b]
        runs += [(KIND_PATH, b, length), (KIND_CYCLE, count - b, length)]
        p = stop
    _close_or_fix(nxt, sigma, p, runs, filler)
    succ = np.empty(n, dtype=nxt.dtype)
    succ[sigma] = nxt

    witness_locations = list(map(tuple, np.stack(
        [witness_block[rows, m - 1], witness_block[:, -1], hit], axis=1).tolist()))
    inst = FunctionInstance(n=n, succ=succ.astype(np.int64))
    meta = _finish(
        inst, runs, sigma, "collision-fn", seed,
        {**asdict(params), "rho_resolved": table.rho, "filler": filler, "n": n},
        good_index=t, witness_locations=witness_locations,
        extras={**_scale_extras(table, t, b_t), "witness_offsets": m.tolist(),
                "filler": filler})
    return inst, FAMILIES["collision-fn"].certificate(meta), meta


# claw family: same layout, undirected, witness paths keep both ends open
# and each end gains two fresh leaves (so every witness path yields two
# degree-3 claw centers)

_CLAW_OVERHEAD = 4


def _claw_instance(n, table, blocks, pool, spare, t, b_t,
                   construction, seed, parameters):
    """Assemble and finish the undirected claw instance for good scale t.

    Edge order is fixed (path edges scale by scale, then leaf edges), so
    the CSR layout is a deterministic function of the layout draw. The
    online adversary resolves through this same function.
    """
    wit = blocks[table.index_of(t)][:b_t]
    leaves = pool[:_CLAW_OVERHEAD * b_t].reshape(b_t, _CLAW_OVERHEAD)
    # a witness row's first end takes leaves 0 and 1, its last end 2 and 3
    inst = graph_from_edges(n, np.concatenate([
        *map(_path_edges, blocks),
        np.stack((wit[:, [0, 0, -1, -1]], leaves), 2).reshape(-1, 2)]))

    # members: the paths, the gadget leaves, then one structure of idle elements
    idle = len(spare) + len(pool) - leaves.size
    runs = [*((KIND_PATH, *block.shape) for block in blocks),
            (KIND_GADGET, b_t, _CLAW_OVERHEAD), (KIND_ISOLATED, int(idle > 0), idle)]
    members = np.concatenate([*map(np.ravel, blocks), leaves.ravel(), spare,
                              pool[leaves.size:]])
    # two claws per witness row: (end, its path neighbour, its two leaves)
    claws = np.stack((wit[:, 0], wit[:, 1], leaves[:, 0], leaves[:, 1],
                      wit[:, -1], wit[:, -2], leaves[:, 2], leaves[:, 3]), 1)
    witness_locations = list(map(tuple, claws.reshape(-1, 4).tolist()))
    _finish(inst, runs, members, construction, seed, parameters, good_index=t,
            witness_locations=witness_locations,
            extras={**_scale_extras(table, t, b_t), "pool_size": len(pool)})
    return inst


def gen_claw_graph(n: int, params: ScaleParams, seed,
                   b_override: int | None = None,
                   t_override: int | None = None):
    """Undirected multi-scale instance whose good scale carries 2*b_t claws."""
    _, table, _, blocks, pool, spare, t, _, b_t = _scale_layout(
        n, params, seed, _CLAW_OVERHEAD, b_override, t_override)
    inst = _claw_instance(n, table, blocks, pool, spare, t, b_t, "claw-graph", seed,
                          {**asdict(params), "rho_resolved": table.rho, "n": n})
    return inst, FAMILIES["claw-graph"].certificate(inst.meta), inst.meta


# ---------------------------------------------------------------------------
# prime-spaced fixed-point construction


@dataclass(frozen=True)
class FixedPointParams:
    """Knobs for the prime-spaced cycle construction."""

    alpha: float = 0.125
    cycle_len: int | None = None      # default: floor(n^(3/4))
    feeder_len: int | None = None     # default: floor(n^(1/4))
    prime_lo: float | None = None     # default: n^(1/4) / 4
    prime_hi: float | None = None     # default: n^(1/4) / 2
    T: int = 1
    widen: bool = False


def primes_in_range(lo: float, hi: float) -> list[int]:
    """All primes p with lo < p < hi, ascending (exclusive bounds)."""
    if hi <= 2:
        return []
    limit = int(math.ceil(hi))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.flatnonzero(sieve) if lo < p < hi]


def gen_fixedpoint_function(n: int, params: FixedPointParams,
                            h_spec: str = "fixed-point", seed=None):
    """Cycles with prime-spaced feeder entries, one planted fixed point
    per host cycle.

    Each of N = max(1, floor(alpha * n^(1/4) / log2(n))) cycles gets a
    unique prime p_i; its length is the nearest multiple of p_i to the
    target length, so consecutive feeder entries are spaced exactly p_i
    apart all the way around. With the default alpha, N = 1 for every n
    below about 2^37. T distinct host cycles, drawn with probability
    proportional to length, each have one uniformly chosen cycle element
    (not necessarily a feeder entry) cut into a fixed point, so the whole
    host component drains into it. Filler is always cycles (a stray fixed
    point would be a spurious witness).
    """
    if h_spec != "fixed-point":
        raise ParameterError(f"unsupported H-spec {h_spec!r}; only 'fixed-point' "
                             "is wired up")
    _at_least("T", params.T, 1)
    if n < 2:
        raise ParameterError(f"fixedpoint-fn needs n >= 2, got {n}")
    for name in ("alpha", "prime_lo", "prime_hi"):
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be a finite number, got {value!r}")
    rng = np.random.default_rng(seed)
    q4 = n ** 0.25
    cycle_len = params.cycle_len if params.cycle_len is not None else int(n ** 0.75)
    feeder_len = params.feeder_len if params.feeder_len is not None else max(1, int(q4))
    _at_least("cycle_len", cycle_len, 1)
    _at_least("feeder_len", feeder_len, 1)
    lo = params.prime_lo if params.prime_lo is not None else q4 / 4
    hi = params.prime_hi if params.prime_hi is not None else q4 / 2
    n_raw = int(params.alpha * q4 / math.log2(n))
    N = max(1, n_raw)
    if params.T > N:
        raise ParameterError(f"T = {params.T} exceeds cycle count N = {N}")

    primes = primes_in_range(lo, hi)
    hi_used = hi
    if len(primes) < N:
        if not params.widen:
            raise PrimeShortageError(
                f"window ({lo:g}, {hi:g}) holds {len(primes)} primes, need {N}; "
                "enable widening to grow the window")
        while len(primes) < N:
            hi_used *= 1.25
            primes = primes_in_range(lo, hi_used)
    ps = primes[:N]

    lens = [p * max(1, round(cycle_len / p)) for p in ps]
    feeders_per = [length // p for length, p in zip(lens, ps)]
    used = sum(length + f * feeder_len for length, f in zip(lens, feeders_per))
    if used > n:
        raise CapacityError(f"cycles and feeders need {used} > n = {n} elements")

    sigma = rng.permutation(n)
    succ = np.empty(n, dtype=np.int64)
    runs = []   # cycles, feeders and leftover chunks tile sigma in order
    cursor = 0
    cycles = []
    for p, length, f_cnt in zip(ps, lens, feeders_per):
        cyc = sigma[cursor:cursor + length]
        cursor += length
        succ[cyc] = np.roll(cyc, -1)
        runs += [(KIND_CYCLE, 1, length), (KIND_FEEDER, f_cnt, feeder_len)]
        cycles.append(cyc)
        feed = sigma[cursor:cursor + f_cnt * feeder_len].reshape(f_cnt, feeder_len)
        cursor += f_cnt * feeder_len
        if feeder_len > 1:
            succ[feed[:, :-1]] = feed[:, 1:]
        succ[feed[:, -1]] = cyc[np.arange(f_cnt) * p]

    # plant T fixed points on distinct cycles, one uniform cycle element each
    order = list(range(N))
    witness_locations = []
    hosts = []
    for _ in range(params.T):
        weights = np.array([len(cycles[i]) for i in order], dtype=np.float64)
        pick = order[int(rng.choice(len(order), p=weights / weights.sum()))]
        order.remove(pick)
        hosts.append(pick)
        x = int(cycles[pick][rng.integers(len(cycles[pick]))])
        succ[x] = x
        witness_locations.append((x,))

    # leftover elements: plain cycles near the target length, never fixed points
    rest = sigma[cursor:]
    while len(rest):
        take = len(rest) if len(rest) < 2 * cycle_len else cycle_len
        if len(rest) - take == 1:
            take += 1  # avoid stranding a single element
        chunk = rest[:take]
        rest = rest[take:]
        if len(chunk) == 1:
            warnings.warn("one leftover element became a filler fixed point",
                          stacklevel=2)
            succ[chunk] = chunk
            runs.append((KIND_ISOLATED, 1, 1))
            continue
        succ[chunk] = np.roll(chunk, -1)
        runs.append((KIND_CYCLE, 1, take))

    extras = {
        "primes": ps,
        "cycle_lens": lens,
        "feeders_per_cycle": feeders_per,
        "feeder_len": feeder_len,
        "N": N,
        "T": params.T,
        "hosts": hosts,
        "window": [lo, hi_used],
        "widened": hi_used != hi,
    }
    inst = FunctionInstance(n=n, succ=succ)
    meta = _finish(inst, runs, sigma, "fixedpoint-fn", seed,
                   {**asdict(params), "h_spec": h_spec, "n": n},
                   witness_locations=witness_locations, extras=extras)
    return inst, FAMILIES["fixedpoint-fn"].certificate(meta), meta


# ---------------------------------------------------------------------------
# star forest with a planted leaf clique


def _clique_size(h_spec) -> int:
    """An int, "triangle" (3) or a decimal string; 0 plants no clique."""
    if isinstance(h_spec, (int, np.integer)):
        return int(h_spec)
    if h_spec == "triangle":
        return 3
    if isinstance(h_spec, str) and h_spec.isdecimal():
        return int(h_spec)
    raise ParameterError(
        f"unsupported H-spec {h_spec!r}; expected 'triangle' or a clique size")


def star_degree_set(n: int) -> list[int]:
    """sqrt(n) pairwise-distinct center degrees summing to exactly n - sqrt(n).

    A run of consecutive integers is centered on the mean, then the
    largest r degrees are bumped by one to repair the sum (distinctness
    is preserved since the run steps by one).
    """
    s = isqrt(n)
    total = n - s
    base = (total - s * (s - 1) // 2) // s
    degrees = [base + j for j in range(s)]
    r = total - sum(degrees)
    if not 0 <= r < s:
        raise ParameterError(f"degree repair out of range (n = {n})")
    for j in range(s - r, s):
        degrees[j] += 1
    lo, hi = math.sqrt(n) / 4, 3 * math.sqrt(n) / 2
    if degrees[0] < lo or degrees[-1] > hi:
        raise ParameterError(
            f"degree set [{degrees[0]}, {degrees[-1]}] escapes window "
            f"[{lo:g}, {hi:g}] at n = {n}")
    return degrees


def gen_star_graph(n: int, h_spec: int | str, seed):
    """Disjoint stars with pairwise-distinct center degrees; |H| leaves of
    distinct stars form the one planted clique."""
    h = _clique_size(h_spec)
    if h < 0 or h == 1:
        raise ParameterError("clique size must be 0 (absent) or >= 2")
    degrees = star_degree_set(n)
    s = len(degrees)
    if h > s:
        raise ParameterError(f"clique size {h} exceeds star count {s}")
    if h and degrees[0] <= h:
        raise ParameterError("clique degree would collide with center degrees")
    rng = np.random.default_rng(seed)
    sigma = rng.permutation(n)
    centers = sigma[:s]
    leaves = sigma[s:]

    deg_arr = np.asarray(degrees, dtype=np.int64)
    stops = np.zeros(s + 1, dtype=np.int64)
    np.cumsum(deg_arr, out=stops[1:])
    star_edges = np.stack((np.repeat(centers, deg_arr), leaves), 1)

    # each star's members: its center, then its leaves
    members = np.insert(leaves, stops[:-1], centers)

    witness_locations = []
    host_stars = []
    chunks = [star_edges]
    if h:
        host_stars = sorted(int(x) for x in rng.choice(s, size=h, replace=False))
        picks = [int(leaves[stops[j] + rng.integers(deg_arr[j])]) for j in host_stars]
        cl = np.array([[picks[x], picks[y]]
                       for x in range(h) for y in range(x + 1, h)], dtype=np.int64)
        chunks.append(cl)
        witness_locations.append(tuple(picks))
    inst = graph_from_edges(n, np.concatenate(chunks))

    extras = {
        "degrees": degrees,
        "h": h,
        "host_stars": host_stars,
    }
    meta = _finish(inst, [(KIND_STAR, 1, d + 1) for d in degrees], members,
                   "star-graph", seed, {"h": h, "n": n},
                   witness_locations=witness_locations, extras=extras)
    return inst, FAMILIES["star-graph"].certificate(meta), meta


# ---------------------------------------------------------------------------
# backbone path with hanging paths and one planted k-star


def gen_starpath_graph(n: int, k: int, seed):
    """Backbone v_1..v_s with pendant v_0, one hanging path below each v_i,
    and k fresh pendants on one uniformly random structural vertex."""
    if k < 4:
        raise ParameterError("k must be >= 4 (k = 3 belongs to the claw family)")
    s = isqrt(n)
    hang_total = n - s - 1 - k
    if s < 3 or hang_total < s:
        raise ParameterError(f"n = {n} too small for the backbone layout")
    q, r = divmod(hang_total, s)

    rng = np.random.default_rng(seed)
    sigma = rng.permutation(n)
    backbone = sigma[1:s + 1]
    pendants = sigma[n - k:]
    structural = n - k  # everything except the fresh pendants

    # the backbone, the hanging paths and the pendants tile sigma in order
    runs = [(KIND_BACKBONE, 1, s + 1), (KIND_PATH, r, q + 1), (KIND_PATH, s - r, q),
            (KIND_GADGET, 1, k)]
    sizes = [q + 1 if j < r else q for j in range(s)]
    chunks = [_path_edges(sigma[:s + 1])]  # v_0 - v_1 - ... - v_s

    cursor = s + 1
    for j in range(s):
        path = sigma[cursor:cursor + sizes[j]]
        cursor += sizes[j]
        chunks.append(_path_edges(np.concatenate([backbone[j:j + 1], path])))

    u = int(sigma[rng.integers(structural)])
    chunks.append(np.stack((np.full(k, u), pendants), 1))
    inst = graph_from_edges(n, np.concatenate(chunks))

    # certificate: index of the hanging path holding u (a backbone vertex
    # v_j or the pendant v_0 maps to its own column)
    pos = int(np.flatnonzero(sigma == u)[0])
    if pos == 0:
        k_star = 1
    elif pos <= s:
        k_star = pos
    else:
        k_star = 1 + int(np.searchsorted(np.cumsum(sizes), pos - s, side="left"))

    meta = _finish(inst, runs, sigma, "starpath-graph", seed, {"k": k, "n": n},
                   good_index=k_star, witness_locations=[(u, *map(int, pendants))],
                   extras={"k": k, "k_star": k_star, "sizes": sizes, "s": s})
    return inst, FAMILIES["starpath-graph"].certificate(meta), meta


# ---------------------------------------------------------------------------
# the family table: everything the lab knows of each construction


class VerifyFailure(Exception):
    """(invariant, detail): a stored instance or certificate breaks one of
    verify's invariants."""


# the types a field's or keyword's annotation admits, as JSON gives them
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
                "bool": (bool,), "None": (type(None),), "list": (list,)}


def check_type(where: str, value, annotation: str) -> None:
    """ParameterError unless `annotation`, such as "int | None", admits value."""
    if not any(type(value) in _FIELD_TYPES[t] for t in annotation.split(" | ")):
        raise ParameterError(f"{where} must be {annotation}, got {value!r}")


@functools.cache
def keywords_of(fn):
    """The parameters of fn, a function or a dataclass, by name (read-only)."""
    return inspect.signature(fn).parameters


def check_fields(where: str, obj, takes: dict, owner: str) -> None:
    """ParameterError unless obj is a JSON object naming only keys of `takes`
    (name -> inspect.Parameter of `owner`) and each key without a default,
    each holding a value its annotation admits where that names JSON types
    (a dict is its own check). `where` is obj's path, "" atop a battery spec."""
    name = where or "battery spec"
    if not isinstance(obj, dict):
        raise ParameterError(f"{name} must be a JSON object, got {obj!r}")
    unknown = [key for key in obj if key not in takes]
    if unknown:
        raise ParameterError(f"{name} names {', '.join(map(repr, unknown))}, "
                             f"which {owner} does not take")
    missing = [key for key, p in takes.items() if p.default is p.empty and key not in obj]
    if missing:
        raise ParameterError(f"{name} lacks {', '.join(map(repr, missing))}, "
                             f"which {owner} needs")
    for key, value in obj.items():
        annotation = takes[key].annotation
        if isinstance(annotation, str) and \
                all(t in _FIELD_TYPES for t in annotation.split(" | ")):
            check_type(f"{where}.{key}" if where else key, value, annotation)


def _at_least(name: str, value, lo: int) -> None:
    """Refuse a count below lo; None, no limit, passes."""
    if value is not None and value < lo:
        raise ParameterError(f"{name} must be >= {lo}, got {value}")


@dataclass(frozen=True)
class Family:
    """One construction: how `gen` and `bench` build it, the certificates
    its detector reads, and how its certificate and corruption read its meta."""

    name: str                 # its alias is the part before "-"
    generator: str            # looked up in this module at call time
    params: type | None       # the params class its generator takes
    keywords: dict            # the generator's keywords, with their defaults
    flags: tuple              # the `gen` flags it reads
    detector: str             # its certificate detector
    kinds: tuple              # the certificate kinds it reads; gen writes [0]
    target: tuple             # brute-force target, its plural, extras passed
    extras: tuple             # the meta extras verify reads
    verify: Callable          # extras -> (check lines, the payload implied)
    capacity: Callable        # (n, extras) -> gen's capacity line
    corrupt: Callable         # (payload, rng, extras) -> a wrong payload

    @property
    def alias(self) -> str:
        return self.name.split("-")[0]

    def arguments(self, kw: dict, where: str = "params") -> dict:
        """The generator's keywords: the record's defaults, then kw, with
        params built from an object that check_fields accepts."""
        kw = {**self.keywords, **kw}
        given = kw.get("params")
        if self.params is None or isinstance(given, self.params):
            return kw
        given = {} if given is None else given
        check_fields(where, given, keywords_of(self.params), self.params.__name__)
        return {**kw, "params": self.params(**given)}

    def make(self, n: int, seed, **kw):
        """(instance, certificate) from the generator; instance.meta is
        the ground truth."""
        return globals()[self.generator](n, seed=seed, **self.arguments(kw))[:2]

    def certificate(self, meta) -> Certificate:
        """The certificate meta's extras imply: what gen writes and verify wants."""
        return Certificate(self.kinds[0], self.verify(meta.extras)[1])


def _verify_primes(e):
    ps = e["primes"]
    if len(set(ps)) != len(ps):
        raise VerifyFailure("prime-spacing", "primes are not distinct")
    if any(ln % p for p, ln in zip(ps, e["cycle_lens"])):
        raise VerifyFailure("prime-spacing", "cycle length not a multiple of its prime")
    return ([f"prime-spacing: ok ({len(ps)} cycles)"],
            {"primes": sorted(ps[h] for h in e["hosts"])})


def _verify_degrees(e):
    degs = e["degrees"]
    if len(set(degs)) != len(degs):
        raise VerifyFailure("degree-uniqueness", "center degrees collide")
    return ([f"degree-uniqueness: ok ({len(degs)} centers)"],
            {"degrees": sorted(degs[i] for i in e.get("host_stars", []))})


def _scale_capacity(n, e) -> str:
    used = sum(a << i for a, i in zip(e["a"], e["scales"]))
    return (f"capacity used={used} n={n} rho={e['rho']!r} "
            f"window={e['scales'][0]}..{e['scales'][-1]} t={e['t']} b_t={e['b_t']}")


def _primes_capacity(n, e) -> str:
    used = sum(e["cycle_lens"]) + sum(e["feeders_per_cycle"]) * e["feeder_len"]
    lo, hi = e["window"]
    return (f"capacity used={used} n={n} cycles={e['N']} primes={len(e['primes'])} "
            f"window={lo:.6g}..{hi:.6g} widened={e['widened']}")


def _other(rng, lo, hi, value: int) -> int:
    """A uniform draw from the integers in [lo, hi] other than value."""
    inside = int(lo <= value <= hi)
    if hi - lo + 1 - inside < 1:
        raise ParameterError(f"[{lo}, {hi}] holds no value but {value}")
    if hi - lo >= 1 << 62:  # beyond what rng.integers draws from
        raise ParameterError(f"[{lo}, {hi}] is too wide to draw a value from")
    pick = lo + int(rng.integers(hi - lo + 1 - inside))
    return pick + 1 if inside and pick >= value else pick


def _meta_window(extras, key: str):
    """[lo, hi] for a wrong value: the meta's "scales" ends, or 1..s, if given."""
    if key not in (extras or {}):
        return None
    ends = [1, extras[key]] if key == "s" else extras[key]
    if not (type(ends) is list and ends and all(type(v) is int for v in ends)):
        what = "an integer" if key == "s" else "a list of integers"
        raise FileFormatError(f"meta extras {key!r} must be {what}, got {extras[key]!r}")
    return ends[0], ends[-1]


def _corrupt_scale(payload, rng, extras):
    t, window = int(payload["t"]), _meta_window(extras, "scales")
    return {**payload, "t": t + 1 if window is None else _other(rng, *window, t)}


def _corrupt_primes(payload, *_):
    """Move each prime to the next prime above it that is neither
    certified nor taken already."""
    taken, shifted = set(payload["primes"]), []
    for p in payload["primes"]:
        q = int(p) + 1
        while q < 3 or q in taken or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
            q += 1
        taken.add(q)
        shifted.append(q)
    return {"primes": shifted}


def _corrupt_index(payload, rng, extras):
    idx = int(payload["index"])
    return {**payload, "index": _other(rng, *_meta_window(extras, "s") or (1, idx + 1), idx)}


# the two scale kinds share the payload {"t"}, so either reads either family
_SCALE_KINDS = ("CollisionScale", "ClawScale")
_SCALE_FLAGS = ("scales", "beta", "gamma", "c", "rho", "b_override", "t_override")
_SCALE_KEYWORDS = {"params": None, "b_override": None, "t_override": None}

FAMILIES = {f.name: f for f in (
    Family("collision-fn", "gen_collision_function", ScaleParams,
           {**_SCALE_KEYWORDS, "filler": "fixed"}, (*_SCALE_FLAGS, "filler"),
           "cert-collision", _SCALE_KINDS, ("collision", "collisions", ()), ("t",),
           lambda e: ((), {"t": e["t"]}), _scale_capacity, _corrupt_scale),
    Family("claw-graph", "gen_claw_graph", ScaleParams, _SCALE_KEYWORDS,
           _SCALE_FLAGS, "cert-claw", _SCALE_KINDS[::-1], ("claw", "claws", ()), ("t",),
           lambda e: ((), {"t": e["t"]}), _scale_capacity, _corrupt_scale),
    Family("fixedpoint-fn", "gen_fixedpoint_function", FixedPointParams,
           {"params": None, "h_spec": "fixed-point"},
           ("alpha", "cycle_len", "feeder_len", "T", "widen"), "cert-fixedpoint",
           ("FixedPointPrimes",), ("fixed-point", "fixed points", ()),
           ("primes", "cycle_lens", "hosts"), _verify_primes, _primes_capacity,
           _corrupt_primes),
    Family("star-graph", "gen_star_graph", None, {"h_spec": "triangle"},
           ("h_spec",), "cert-star", ("StarDegrees",), ("clique", "cliques", ("h",)),
           ("h", "degrees"), _verify_degrees,
           lambda n, e: (f"capacity used={sum(d + 1 for d in e['degrees'])} n={n} "
                         f"centers={len(e['degrees'])} h={e['h']}"),
           lambda payload, *_: {**payload, "degrees": sorted(
               {int(d) + 1 for d in payload["degrees"]})}),
    Family("starpath-graph", "gen_starpath_graph", None, {"k": 4}, ("k",),
           "cert-starpath", ("BackboneIndex",), ("k-star", "k-stars", ("k",)),
           ("k", "k_star"), lambda e: ((), {"index": e["k_star"], "k": e["k"]}),
           lambda n, e: (f"capacity used={sum(e['sizes'])} n={n} s={e['s']} "
                         f"k={e['k']} k_star={e['k_star']}"),
           _corrupt_index),
)}
