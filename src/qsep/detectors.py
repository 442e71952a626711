"""Search algorithms over counted oracles.

Every routine here sees the instance only through the oracle's query
surface, so the reported query counts are the true cost. A Found
outcome always carries a witness in the oracle's visible labeling.

Collision-walk bookkeeping: a predecessor array stores, per element,
the element over which it was first reached (-2 for a walk start, -1
while unseen). Arriving at a recorded element over a different edge
certifies a collision; arriving over the same edge, or at a recorded
start, just ends the walk (cycle closure). The certificate walker and
the multi-scale walker are one shared-record walker with a step cap per
lane (2^t on each of `batch` lanes, or 2^i on one lane per scale i):
every walk of every lane reads and extends the same array, one gather
per lockstep round. The per-attempt battery gives every attempt a
fresh record instead, which is what the exact enumerator models: its
trajectory row, filtered by a preimage record all lanes share (about 5n
bytes), since a repeat at a later element y has answered two distinct
queries. The battery is vectorised across lanes, one numpy pass per
lockstep round, and sends the same queries in the same order as one
Python step per lane would.

Budgets live on the oracle only. A query the budget cannot pay for is
refused uncounted; lockstep batches are clipped to what it still pays
for, and multi-query steps are refused whole, before their first query.
Every detector runs in one call frame (`_framed`), which does that
clipping and refusing and alone decides between Exhausted and
BudgetExceeded.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from qsep.generators import FAMILIES, ParameterError, _at_least
from qsep.oracle import BudgetExceeded, Certificate, Witness, index_dtype

FOUND = "Found"
EXHAUSTED = "Exhausted"
BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass
class SearchOutcome:
    status: str
    witness: Witness | None
    queries: int
    attempts: int
    details: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.status == FOUND


class _Frame:
    """One detector call: the oracle, the count it started from, the
    attempts and details to report, and whether the budget cut it short."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.start = oracle.count
        self.attempts = 0
        self.details: dict = {}
        self.cut = False

    def clip(self, batch):
        """The prefix of a lockstep batch that the budget still pays for;
        BudgetExceeded when it pays for none of it."""
        rem = self.oracle.remaining()
        if rem is None or rem >= len(batch):
            return batch
        self.cut = True
        if rem == 0:
            raise BudgetExceeded("budget spent")
        return batch[:rem]

    def need(self, k: int) -> None:
        """Refuse a k-query step before any of it is spent."""
        rem = self.oracle.remaining()
        if rem is not None and rem < k:
            raise BudgetExceeded(f"{k} queries needed, {rem} left")


def _framed(body):
    """Turn body(frame, oracle, ...), which returns a witness or None, into
    a detector(oracle, ...) that returns a SearchOutcome. The frame makes
    the one verdict: Found when body returns a witness; else
    BudgetExceeded when the budget clipped a batch or refused a query or
    step; else Exhausted."""
    @functools.wraps(body)
    def detector(oracle, *args, **kwargs) -> SearchOutcome:
        f = _Frame(oracle)
        try:
            w = body(f, oracle, *args, **kwargs)
        except BudgetExceeded:
            w, f.cut = None, True
        status = FOUND if w is not None else BUDGET_EXCEEDED if f.cut else EXHAUSTED
        return SearchOutcome(status, w, oracle.count - f.start, f.attempts, f.details)
    params = list(inspect.signature(body).parameters.values())[1:]
    detector.__signature__ = inspect.Signature(params, return_annotation=SearchOutcome)
    return detector


# ---------------------------------------------------------------------------
# collision walkers


def collision_attempt_battery(oracle, t: int, attempts: int, seed=None,
                              batch: int = 512) -> dict:
    """Run independent single walk attempts at scale t in lockstep batches.

    Each round sends one query per live lane, in ascending lane order, in
    one query_function_many call. A lane holds its walk x_0, x_1, ... in a
    row of a (lanes, min(2^t, n) + 1) trajectory array. Reaching x_0 again
    ends the attempt; reaching any x_j, j >= 1, certifies a collision with
    x_{j-1}, and then x_j has answered two distinct queries. So two arrays
    shared by all lanes, `pre` (the first element that answered y) and
    `multi` (a second one did), filter the repeat check: only a lane whose
    answer is in `multi` searches its own row, up to its step. Memory is
    lanes x (min(2^t, n) + 1) trajectory entries plus about 5n bytes.
    Finished lanes respawn in ascending lane order from one upfront draw
    of starts. Per-attempt statistics match the exact all-starts
    enumeration.
    """
    _at_least("t", t, 0)
    _at_least("attempts", attempts, 0)
    _at_least("batch", batch, 1)
    rng = np.random.default_rng(seed)
    f = _Frame(oracle)
    n = oracle.n
    cap = 1 << int(t)
    starts = rng.integers(0, n, size=attempts)

    lanes = min(batch, attempts)
    width = min(cap, n) + 1
    traj = np.empty(lanes * width, dtype=index_dtype(n))
    pre = np.full(n, -1, dtype=index_dtype(n))
    multi = np.zeros(n, dtype=bool)

    # per live lane, in ascending lane order: its row offset in traj, its
    # walk's start and current element, and the steps taken
    row = np.arange(lanes) * width
    x0 = starts[:lanes].copy()
    us = x0.copy()
    step = np.zeros(lanes, dtype=np.int64)
    traj[row] = x0
    next_attempt = lanes

    successes = 0
    finished = 0
    sample_witnesses: list[Witness] = []
    while len(row):
        try:
            k = len(f.clip(row))
        except BudgetExceeded:
            break
        row, x0, us, step = row[:k], x0[:k], us[:k], step[:k]
        ys = oracle.query_function_many(us)
        # y answers a second distinct element when p is neither unset nor u
        p = pre[ys]
        seen = multi[ys]
        fresh = p < 0
        twice = (p != us) & ~fresh
        multi[ys[twice]] = True
        seen |= twice
        if fresh.any():
            yf, uf = ys[fresh], us[fresh]
            pre[yf] = uf
            multi[yf[pre[yf] != uf]] = True

        stop = ys == x0
        step += 1
        ask = np.flatnonzero(seen & ~stop)
        if len(ask):
            cols = np.arange(int(step[ask].max()))
            found = traj[row[ask, None] + cols] == ys[ask, None]
            found &= cols < step[ask, None]
            pos = found.argmax(1)
            hit = found[np.arange(len(ask)), pos]
            ask, pos = ask[hit], pos[hit]
            stop[ask] = True
            successes += len(ask)
            for i, j in zip(ask[:32 - len(sample_witnesses)].tolist(), pos.tolist()):
                sample_witnesses.append(Witness(
                    "collision", (int(us[i]), int(traj[row[i] + j - 1]), int(ys[i]))))
        stop |= step >= cap
        traj[row + step] = ys
        us = ys

        done = np.flatnonzero(stop)
        if not len(done):
            continue
        finished += len(done)
        k = min(len(done), attempts - next_attempt)
        new, drop = done[:k], done[k:]
        x0[new] = us[new] = traj[row[new]] = starts[next_attempt:next_attempt + k]
        step[new] = 0
        next_attempt += k
        if len(drop):
            stop[new] = False
            row, x0, us, step = (a[~stop] for a in (row, x0, us, step))

    return {
        "attempts": finished,
        "successes": successes,
        "queries": oracle.count - f.start,
        "success_rate": successes / finished if finished else 0.0,
        "witnesses": sample_witnesses,
        "truncated": f.cut,
    }


def _shared_walk(f, oracle, caps, rng, max_attempts):
    """One walk per lane, lane k restarting at a fresh uniform element
    after caps[k] steps or a terminal arrival. Each round queries every
    live lane, in lane order, in one call; all walks share one
    predecessor array of n entries (4n bytes below n = 2^31, however
    far the walks go), so cross-walk arrivals certify collisions too.
    An entry is -1 while unseen, -2 for a walk start, else the element
    that first answered it. One gather reads the array for a round; a
    lane reads the round's own new records first, from a dict scattered
    into the array before the next gather. A respawn records its start
    only where nothing is recorded.

    Restarts are drawn 64 at a time and taken in draw order, the values
    of one draw each, so up to 63 go unused and a Generator passed as the
    seed ends further on. No lab path reads it afterwards: the harness
    builds one per lane, and `run` passes an int."""
    _at_least("max_attempts", max_attempts, 0)
    n = oracle.n
    pred = np.full(n, -1, dtype=index_dtype(n))
    new: dict = {}
    draws: list = []
    front = [0] * len(caps)
    left = [0] * len(caps)

    def spawn(lane: int) -> bool:
        if max_attempts is not None and f.attempts >= max_attempts:
            return False
        if not draws:
            draws.extend(reversed(rng.integers(0, n, size=64).tolist()))
        x = draws.pop()
        f.attempts += 1
        front[lane] = x
        left[lane] = caps[lane]
        if x not in new and pred[x] == -1:
            new[x] = -2
        return True

    live = [lane for lane in range(len(caps)) if spawn(lane)]
    while live:
        pred[list(new)] = list(new.values())
        new.clear()
        paid = f.clip(live)
        ys = oracle.query_function_many([front[k] for k in paid])
        live = []
        for lane, y, prev in zip(paid, ys.tolist(), pred[ys].tolist()):
            u = front[lane]
            prev = new.get(y, prev)
            if prev == -1:
                new[y] = u
                if left[lane] > 1:
                    left[lane] -= 1
                    front[lane] = y
                    live.append(lane)
                    continue
            elif prev != -2 and prev != u:
                return Witness("collision", (u, prev, y))
            if spawn(lane):
                live.append(lane)
    return None


@_framed
def cert_collision_search(f, oracle, cert: Certificate, seed=None,
                          batch: int = 16, max_attempts: int | None = None):
    """Walk forward up to 2^t steps per attempt at the certified scale t,
    `batch` lanes at a time, sharing the predecessor array across attempts."""
    _at_least("batch", batch, 1)
    t = int(cert.payload["t"])
    f.details = {"t": t}
    return _shared_walk(f, oracle, [1 << t] * batch, np.random.default_rng(seed),
                        max_attempts)


@_framed
def multiscale_collision_search(f, oracle, i_min: int, i_max: int, seed=None,
                                max_attempts: int | None = None):
    """One walk per scale in strict round-robin, lowest scale first, one
    step per walk per round; the walk at scale i restarts after 2^i
    steps."""
    _at_least("i_min", i_min, 0)
    _at_least("i_max", i_max, i_min)
    scales = list(range(int(i_min), int(i_max) + 1))
    f.details = {"scales": scales}
    return _shared_walk(f, oracle, [1 << i for i in scales],
                        np.random.default_rng(seed), max_attempts)


# ---------------------------------------------------------------------------
# claw walker


@_framed
def cert_claw_search(f, oracle, cert: Certificate, seed=None,
                     max_attempts: int | None = None):
    """Chain-walk up to 2^t steps from uniform starts until a degree-3
    vertex appears, then report it with three of its neighbors."""
    _at_least("max_attempts", max_attempts, 0)
    t = int(cert.payload["t"])
    f.details = {"t": t}
    rng = np.random.default_rng(seed)
    n = oracle.n
    cap = 1 << t

    def claw_at(v):
        f.need(3)
        leaves = tuple(oracle.query_neighbor(v, j) for j in range(3))
        return Witness("claw", (v, *leaves))

    while max_attempts is None or f.attempts < max_attempts:
        f.need(1)
        f.attempts += 1
        v = int(rng.integers(n))
        d = oracle.query_degree(v)
        if d >= 3:
            return claw_at(v)
        if d == 0:
            continue
        prev = None
        cur = v
        for _ in range(cap):
            # pick the forward neighbor
            f.need(2)
            if d == 1:
                nxt = oracle.query_neighbor(cur, 0)
                if nxt == prev:
                    break  # dead end
            else:
                if prev is None:
                    nxt = oracle.query_neighbor(cur, int(rng.integers(2)))
                else:
                    nxt = oracle.query_neighbor(cur, 0)
                    if nxt == prev:
                        nxt = oracle.query_neighbor(cur, 1)
            prev, cur = cur, nxt
            d = oracle.query_degree(cur)
            if d >= 3:
                return claw_at(cur)
            if d == 1:
                # path end; one more probe confirms the dead end next loop
                continue
    return None


# ---------------------------------------------------------------------------
# fixed-point search via prime-spaced intersections


def _fixed_walk_batch(f, oracle, starts, length):
    """Advance all walks `length` steps in lockstep, recording trajectories.
    Returns (traj, fp): traj is (lanes, length+1) with -1 padding, fp is a
    fixed-point witness element or None."""
    lanes = len(starts)
    traj = np.full((lanes, length + 1), -1, dtype=np.int64)
    traj[:, 0] = starts
    active = np.arange(lanes)
    for r in range(length):
        active = f.clip(active)
        fronts = traj[active, r]
        ys = oracle.query_function_many(fronts)
        traj[active, r + 1] = ys
        hit = np.flatnonzero(ys == fronts)
        if len(hit):
            return traj, int(fronts[hit[0]])
    return traj, None


@_framed
def cert_fixedpoint_search(f, oracle, cert: Certificate, seed=None, C: float = 2.0,
                           max_iterations: int = 64):
    """Short walks, long walks, then follow long walks whose meeting
    pattern with the short walks is spaced by a certified prime.

    Query schedule: with r2 = ceil(sqrt(n)) and r4 = ceil(n^(1/4)), each
    iteration runs ceil(C*r2) short walks of ceil(C*r4) steps, then
    ceil(C*r4) long walks of ceil(C*r2) steps. Every walk runs its full
    length unless some walk steps onto a fixed point or the budget runs
    out, so an iteration costs 2*ceil(C*r2)*ceil(C*r4) queries before any
    follow.

    A short walk's first-meet position is the earliest position along the
    long walk of any element of the short walk's trajectory. A long walk
    triggers when at least 4 short walks meet it and, for some certified
    prime p > 1, one residue class modulo p holds at least
    max(4, ceil(2/3 * hits)) of the first-meet positions, where hits is the
    number of short walks that meet it. A triggered long walk is followed
    one query at a time from its last element until it sits on a fixed
    point (Found) or revisits an element of its own trajectory (a false
    follow; the next long walk is examined). After max_iterations
    iterations without a fixed point the outcome is Exhausted.
    """
    if isinstance(C, bool) or not (isinstance(C, (int, float)) and 0 < C < math.inf):
        raise ParameterError(f"C must be a finite number > 0, got {C!r}")
    _at_least("max_iterations", max_iterations, 0)
    primes = [int(p) for p in cert.payload["primes"]]
    rng = np.random.default_rng(seed)
    n = oracle.n
    rt4 = max(1, math.ceil(n ** 0.25))
    rt2 = max(1, math.ceil(math.sqrt(n)))
    k_short, len_short = math.ceil(C * rt2), math.ceil(C * rt4)
    k_long, len_long = math.ceil(C * rt4), math.ceil(C * rt2)

    pos = np.full(n, -1, dtype=np.int64)
    f.details = stats = {"C": C, "primes": primes, "triggers": 0, "false_follows": 0,
                         "follow_queries": 0, "false_follow_queries": 0,
                         "found_via": None}
    while f.attempts < max_iterations:
        f.attempts += 1
        short_traj, fp = _fixed_walk_batch(
            f, oracle, rng.integers(0, n, size=k_short), len_short)
        if fp is None:
            long_traj, fp = _fixed_walk_batch(
                f, oracle, rng.integers(0, n, size=k_long), len_long)
        if fp is not None:
            stats["found_via"] = "walk"
            return Witness("fixed-point", (fp,))

        safe = np.where(short_traj >= 0, short_traj, 0)
        for row in long_traj:
            row = row[row >= 0]
            if len(row) == 0:
                continue
            # first-occurrence positions along this long walk
            pos[row[::-1]] = np.arange(len(row) - 1, -1, -1)
            hits = np.where(short_traj >= 0, pos[safe], -1)
            masked = np.where(hits >= 0, hits, np.iinfo(np.int64).max)
            first = masked.min(axis=1)
            js = first[first < np.iinfo(np.int64).max]
            pos[row] = -1
            if len(js) < 4:
                continue
            # prime signature: several short walks first-met in one residue
            # class, and that class dominates (feeder entries sit p apart,
            # so host-cycle intersections concentrate; a plain cycle
            # spreads them uniformly)
            need = max(4, math.ceil(2 * len(js) / 3))
            if not any(np.bincount(js % p).max() >= need
                       for p in primes if p > 1):
                continue
            # follow this long walk to termination
            stats["triggers"] += 1
            seen = set(row.tolist())
            cur = int(row[-1])
            spent = 0
            while True:
                y = oracle.query_function(cur)
                spent += 1
                stats["follow_queries"] += 1
                if y == cur:
                    stats["found_via"] = "follow"
                    return Witness("fixed-point", (cur,))
                if y in seen:
                    # closed a cycle without a fixed point: mismatch
                    stats["false_follows"] += 1
                    stats["false_follow_queries"] += spent
                    break
                seen.add(y)
                cur = y
    return None


# ---------------------------------------------------------------------------
# star search guided by the certified degree set


@_framed
def cert_star_search(f, oracle, cert: Certificate, seed=None):
    """Sample 2 sqrt(n) log2(n) elements for leaves, hop to their centers,
    keep centers whose degree is certified, then enumerate their leaves and
    assemble the planted clique among leaves of matching degree."""
    degrees = sorted(int(d) for d in cert.payload["degrees"])
    f.details = {"certified-degrees": degrees}
    h = len(degrees)
    rng = np.random.default_rng(seed)
    n = oracle.n
    q = math.ceil(2.0 * math.sqrt(n) * math.log2(max(n, 2)))

    samples = f.clip(rng.integers(0, n, size=q))
    f.attempts = len(samples)
    ds = oracle.query_degree_many(samples)
    leaves = samples[ds == 1]
    if len(leaves) == 0:
        return None
    leaves = f.clip(leaves)
    centers = np.unique(oracle.query_neighbor_many(
        leaves, np.zeros(len(leaves), dtype=np.int64)))
    centers = f.clip(centers)
    cds = oracle.query_degree_many(centers)
    good = centers[np.isin(cds, degrees)]
    good_deg = cds[np.isin(cds, degrees)]
    if h == 0 or len(good) == 0:
        return None

    flagged = []
    for g, dg in zip(good.tolist(), good_deg.tolist()):
        nbrs = oracle.query_neighbor_many(np.full(dg, g, dtype=np.int64),
                                          np.arange(dg, dtype=np.int64))
        nds = oracle.query_degree_many(nbrs)
        flagged.extend(int(x) for x in nbrs[nds == h])
    if len(flagged) < h:
        return None

    adj = {}
    for x in flagged:
        adj[x] = set(oracle.query_neighbor_many(
            np.full(h, x, dtype=np.int64), np.arange(h, dtype=np.int64)).tolist())
    for group in combinations(sorted(flagged), h):
        if all(b in adj[a] for a, b in combinations(group, 2)):
            return Witness("clique", tuple(group))
    return None


# ---------------------------------------------------------------------------
# backbone-indexed k-star search


class _FoundStar(Exception):
    """Carries a k-star witness out of the star-path search's probes."""

    def __init__(self, w: Witness):
        self.w = w


@_framed
def cert_starpath_search(f, oracle, cert: Certificate, seed=None):
    """Navigate to the backbone, count to the certified column, and sweep
    its hanging path for the planted high-degree center."""
    k = int(cert.payload["k"])
    k_star = int(cert.payload["index"])
    f.details = {"index": k_star, "k": k}
    rng = np.random.default_rng(seed)
    n = oracle.n
    reach = 2 * math.isqrt(n) + 5  # a generated backbone has isqrt(n) vertices
    deg, nbr = oracle.query_degree, oracle.query_neighbor

    def neighbors(v, d):
        return [nbr(v, j) for j in range(d)]

    def probe(v):
        """v's degree; raises _FoundStar if v has k degree-1 neighbours."""
        d = deg(v)
        if d >= k + 1:
            pend = []
            for w in neighbors(v, d):
                if deg(w) == 1:
                    pend.append(w)
                if len(pend) == k:
                    raise _FoundStar(Witness("k-star", (v, *pend)))
        return d

    def survey(v, d, prev):
        """Yield (w, probe(w)) for v's d neighbours w except prev, lazily;
        all d neighbour queries come first."""
        for w in neighbors(v, d):
            if w != prev:
                yield w, probe(w)

    def onward(cur, prev):
        """The neighbour of a degree-1 or -2 vertex that is not prev."""
        w = nbr(cur, 0)
        return nbr(cur, 1) if w == prev else w

    def chain_step(cur, prev):
        """cur's neighbours except prev, and those of degree >= 3 (the next
        backbone vertex; none at a chain end)."""
        around = list(survey(cur, probe(cur), prev))
        return [w for w, _ in around], [w for w, dw in around if dw >= 3]

    def chain_end(cur):
        """Follow the backbone away from cur, at most `reach` steps."""
        prev = None
        for _ in range(reach):
            options = chain_step(cur, prev)[1]
            if not options:
                break
            prev, cur = cur, options[0]
        return cur

    def walk_to_junction(cur):
        """Follow the chain until a degree>=3 vertex; turn around at ends.
        A walk crosses a path at most twice, so one that takes 2n steps
        goes round a cycle of degree-2 vertices and has no junction."""
        d = probe(cur)
        if d == 0:
            return None
        prev, turned = None, False
        for _ in range(2 * n):
            if d >= 3:
                return cur
            if d == 1 and prev is not None:
                if turned:
                    return None  # isolated path, no junction
                turned, prev = True, None  # restart the walk from this endpoint
            prev, cur = cur, onward(cur, prev)
            d = probe(cur)
        return None

    def sweep_down(cur, prev):
        """Descend a path from cur away from prev, to its end or the backbone."""
        while probe(cur) == 2:
            prev, cur = cur, onward(cur, prev)

    try:
        for attempt in range(1, 9):
            f.attempts = attempt
            junction = walk_to_junction(int(rng.integers(n)))
            if junction is not None:
                break
        else:
            return None

        # walk to a chain end, preferring the end with a degree-1 neighbour (v_1)
        cur = chain_end(junction)
        # cur is a chain end: v_1 iff some neighbour has degree 1 (probe them all)
        if 1 not in [dw for _, dw in survey(cur, deg(cur), None)]:
            # we are at v_{s-1}; the true v_1 lies at the other chain end
            cur = chain_end(cur)
        # count along the chain from v_1 = cur to column k_star
        prev = None
        for _ in range(1, k_star):
            others, options = chain_step(cur, prev)
            if not options:
                # chain ends at v_{s-1}; columns s-1 and s sit past here
                for w in others:
                    sweep_down(w, cur)
                return None
            prev, cur = cur, options[0]
        # at v_{k*}: sweep every non-backbone direction downward
        for w, dw in survey(cur, deg(cur), prev):
            if dw < 3:
                sweep_down(w, cur)
        return None
    except _FoundStar as hit:
        return hit.w


# ---------------------------------------------------------------------------
# certificate-free baselines


@_framed
def uniform_probe_baseline(f, oracle, target: str, seed=None,
                           k: int | None = None):
    """Sample elements without replacement, 256 at a time; verify the
    target (fixed-point or k-star) locally.

    Exhausted only after probing all n elements; a budget that cuts the
    probing short is BudgetExceeded."""
    if target not in ("fixed-point", "k-star"):
        raise ParameterError(f"unsupported target {target!r}")
    if target == "k-star":
        if k is None:
            raise ParameterError("k-star target needs k")
        _at_least("k", k, 1)
    f.details = {"target": target}
    rng = np.random.default_rng(seed)
    n = oracle.n
    order = rng.permutation(n)

    def chunks():
        for lo in range(0, n, 256):
            xs = f.clip(order[lo:lo + 256])
            f.attempts += len(xs)
            yield xs

    if target == "fixed-point":
        for xs in chunks():
            hits = np.flatnonzero(oracle.query_function_many(xs) == xs)
            if len(hits):
                f.attempts -= len(xs) - int(hits[0]) - 1  # samples after the hit
                return Witness("fixed-point", (int(xs[hits[0]]),))
        return None
    for xs in chunks():
        ds = oracle.query_degree_many(xs)
        for j in np.flatnonzero(ds >= k):
            v = int(xs[j])
            d = int(ds[j])
            f.need(2 * d)
            nbrs = oracle.query_neighbor_many(np.full(d, v, dtype=np.int64),
                                              np.arange(d, dtype=np.int64))
            nds = oracle.query_degree_many(nbrs)
            pend = nbrs[nds == 1]
            if len(pend) >= k:
                return Witness("k-star", (v, *(int(x) for x in pend[:k])))
    return None


# ---------------------------------------------------------------------------
# ground-truth search (no oracle, no counting)

# the largest n exhaustive search takes on: verify's guard and the clique scan
BRUTE_FORCE_MAX_N = 1 << 13


def brute_force_find(instance, target: str, k: int | None = None,
                     h: int | None = None) -> list[Witness]:
    """Exhaustive witness enumeration straight off the raw instance."""
    n = instance.n
    if target == "collision":
        succ = instance.succ
        order = np.argsort(succ, kind="stable")
        vals = succ[order]
        out = []
        start = 0
        for stop in range(1, n + 1):
            if stop == n or vals[stop] != vals[start]:
                group = order[start:stop]
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        out.append(Witness("collision",
                                           (int(group[i]), int(group[j]),
                                            int(vals[start]))))
                start = stop
        return out
    if target == "fixed-point":
        succ = instance.succ
        return [Witness("fixed-point", (int(x),))
                for x in np.flatnonzero(succ == np.arange(n))]
    if target in ("claw", "k-star"):
        kk = 3 if target == "claw" else k
        if kk is None:
            raise ValueError("k-star target needs k")
        degs = instance.degrees
        out = []
        for v in np.flatnonzero(degs >= kk):
            leaves = tuple(int(x) for x in instance.neighbors(int(v))[:kk])
            out.append(Witness(target, (int(v), *leaves)))
        return out
    if target == "clique":
        if h is None:
            raise ValueError("clique target needs h")
        if n > BRUTE_FORCE_MAX_N:
            raise ValueError("instance too large for exhaustive clique search")
        degs = instance.degrees
        cands = [int(v) for v in np.flatnonzero(degs >= h - 1)]
        adj = {v: set(instance.neighbors(v).tolist()) for v in cands}
        out = []
        for group in combinations(cands, h):
            # h = 0 plants no clique, so the empty group is no witness
            if group and all(b in adj[a] for a, b in combinations(group, 2)):
                out.append(Witness("clique", group))
        return out
    raise ValueError(f"unsupported target {target!r}")


# ---------------------------------------------------------------------------
# certificate corruption for robustness tests


def corrupt_certificate(cert: Certificate, seed=None, extras=None) -> Certificate:
    """Produce a well-formed certificate that is wrong for its instance, by
    the corruption rule of the family whose certificates have its kind,
    drawing a wrong scale or index from the instance's meta `extras`."""
    family = next((f for f in FAMILIES.values() if cert.kind in f.kinds), None)
    if family is None:
        raise ValueError(f"unsupported certificate kind {cert.kind!r}")
    return Certificate(cert.kind, family.corrupt(
        dict(cert.payload), np.random.default_rng(seed), extras))
