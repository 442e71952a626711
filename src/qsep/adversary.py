"""Lazy online opponent for the claw family.

The session fixes the multi-scale path layout up front but defers the
choice of which scale carries the witness claws. Path ends that could
become claw centers are tracked as "red", the reserved leaf elements as
"blue", everything else as "black". Probes against red or blue elements
force partial commitment:

  * touching a red end of scale i flips a coin with heads probability
    1/|I| (I = surviving scales). Heads fixes the good scale to i and
    resolves the full instance; tails eliminates scale i and blackens
    all its candidate ends.
  * touching a blue element draws the good scale uniformly from I and
    resolves.
  * black elements answer from the committed partial structure and
    never change the state.

Conditioned on any transcript, each surviving scale remains good with
probability exactly 1/|I|, so finalize() yields an instance distributed
like the offline generator conditioned on the same answers.
"""

from __future__ import annotations

import json

import numpy as np

from qsep.generators import (_CLAW_OVERHEAD, ScaleParams, _carve_blocks,
                             _claw_instance, scale_table)
from qsep.oracle import GraphInstance


class AdversarySession:
    """Answer degree/neighbor probes while deciding the instance lazily."""

    model = "graph"

    def __init__(self, n: int, params: ScaleParams, seed=None):
        rng = np.random.default_rng(seed)
        self.n = int(n)
        self._params = params
        self._seed = seed
        self._rng = rng
        self._table = scale_table(n, params, witness_overhead=_CLAW_OVERHEAD)
        sigma = rng.permutation(n)
        self._blocks, self._pool, self._spare = _carve_blocks(sigma, self._table)

        # partial structure: forward/backward neighbor inside a path
        nxt = np.full(n, -1, dtype=np.int64)
        prv = np.full(n, -1, dtype=np.int64)
        for block in self._blocks:
            nxt[block[:, :-1]] = block[:, 1:]
            prv[block[:, 1:]] = block[:, :-1]
        self._nxt, self._prv = nxt, prv

        self._red = {}             # candidate claw center -> its scale
        self._red_by_scale = {}    # scale -> its candidate ends, row by row
        for i, block, b in zip(self._table.scales.tolist(), self._blocks,
                               self._table.b.tolist()):
            rows = block[:b]
            ends = np.stack((rows[:, 0], rows[:, -1]), 1).ravel().tolist()
            self._red.update(dict.fromkeys(ends, i))
            self._red_by_scale[i] = ends
        self._blue = set(self._pool.tolist())

        self._alive = self._table.scales.tolist()
        self._resolved: GraphInstance | None = None
        self._good: int | None = None
        self.trace: list[dict] = []

    # -- public state ---------------------------------------------------

    @property
    def alive_scales(self) -> tuple[int, ...]:
        return tuple(self._alive)

    @property
    def is_resolved(self) -> bool:
        return self._resolved is not None

    @property
    def good(self) -> int | None:
        return self._good

    @property
    def probes(self) -> int:
        return len(self.trace)

    # -- probing ----------------------------------------------------------

    def probe_degree(self, v: int) -> int:
        v = self._check(v)
        events = [self._touch(v)]
        ans = self._degree(v)
        self._record(["deg", v], ans, events)
        return ans

    def probe_neighbor(self, v: int, i: int) -> int:
        v = self._check(v)
        events = [self._touch(v)]
        d = self._degree(v)
        if not 0 <= i < d:
            self._record(["nbr", v, i], None, events)
            raise IndexError(f"neighbor index {i} out of range for degree {d}")
        ans = self._neighbor(v, i)
        events.append(self._touch(ans))
        self._record(["nbr", v, i], ans, events)
        return ans

    # oracle-style aliases so generic probe strategies run against either side
    query_degree = probe_degree
    query_neighbor = probe_neighbor

    def finalize(self) -> GraphInstance:
        """Commit the remaining randomness and return the full instance."""
        if self._resolved is None:
            good = self._alive[int(self._rng.integers(len(self._alive)))]
            self._resolve(good)
        return self._resolved

    def write_trace(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.trace:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    # -- internals --------------------------------------------------------

    def _check(self, v) -> int:
        v = int(v)
        if not 0 <= v < self.n:
            raise ValueError(f"element {v} out of range [0, {self.n})")
        return v

    def _record(self, query, answer, events) -> None:
        events = [e for e in events if e]
        self.trace.append({
            "step": len(self.trace),
            "query": query,
            "answer": answer,
            "event": "+".join(events) if events else None,
            "I": len(self._alive),
            "resolved": self._resolved is not None,
        })

    def _touch(self, v: int) -> str | None:
        if self._resolved is not None:
            return None
        scale = self._red.get(v)
        if scale is not None:
            if self._rng.random() < 1.0 / len(self._alive):
                self._resolve(scale)
                return "heads"
            for end in self._red_by_scale.pop(scale):
                del self._red[end]
            self._alive.remove(scale)
            return "tails"
        if v in self._blue:
            good = self._alive[int(self._rng.integers(len(self._alive)))]
            self._resolve(good)
            return "blue"
        return None

    def _resolve(self, good: int) -> None:
        table = self._table
        self._resolved = _claw_instance(
            self.n, table, self._blocks, self._pool, self._spare, good,
            int(table.b[table.index_of(good)]), "claw-online", self._seed,
            {"n": self.n, "i_min": self._params.i_min, "i_max": self._params.i_max})
        self._good = good
        self._alive = [good]
        self._red.clear()
        self._red_by_scale.clear()
        self._blue.clear()

    def _degree(self, v: int) -> int:
        if self._resolved is not None:
            return int(self._resolved.degree(v))
        return int(self._nxt[v] >= 0) + int(self._prv[v] >= 0)

    def _neighbor(self, v: int, i: int) -> int:
        if self._resolved is not None:
            return int(self._resolved.neighbors(v)[i])
        # pre-resolution order matches the final CSR: forward first
        lst = [int(x) for x in (self._nxt[v], self._prv[v]) if x >= 0]
        return lst[i]
