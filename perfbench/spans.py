"""Spans around calls into qsep's layers, and the per-layer figures.

The benchmark never edits the package. ``Instrument`` replaces the public
names each caller resolves (module attributes, registry entries, classes)
with wrappers defined here and puts the originals back afterwards.

Two kinds of wrapper exist:

* recording wrappers, always installed: every ``CountedOracle`` built
  during a unit is remembered (so charged queries can be summed), and
  every detector call through ``qsep.harness.DETECTORS`` has its outcome
  recorded and any Found witness validated against the instance;
* timing wrappers, installed only for a traced run: each call opens a
  span (name, start, end, parent span, unit id, three counts) kept in
  flat in-memory arrays and written out once when the run ends.

A layer is one of the package's modules; a span's name is
``<layer>.<what>``. Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from array import array

DETECTOR_KEYS = ("cert-collision", "multiscale", "attempt-battery",
                 "cert-fixedpoint", "uniform-probe", "brute-force")
CLI_COMMANDS = ("gen", "run", "bench", "verify", "adversary-test", "report")

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span store. Spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.unit = array("q")
        self.a = array("q")
        self.b = array("q")
        self.c = array("q")
        self._stack: list[int] = []
        self.current_unit = -1

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.end.append(0)
        self.a.append(0)
        self.b.append(0)
        self.c.append(0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int, a: int = 0, b: int = 0, c: int = 0) -> None:
        self.end[idx] = _clock()
        self._stack.pop()
        self.a[idx] = a
        self.b[idx] = b
        self.c[idx] = c

    def add(self, name: str, start: int, end: int, parent: int = -1,
            unit: int = -1, a: int = 0, b: int = 0, c: int = 0) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        idx = self.open(name)
        self._stack.pop()
        self.start[idx], self.end[idx], self.parent[idx] = start, end, parent
        self.unit[idx], self.a[idx], self.b[idx], self.c[idx] = unit, a, b, c
        return idx

    def wrap(self, name: str, fn, counts=None):
        """Return fn wrapped in a span; counts(result, args, kwargs) -> (a, b, c)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, *(counts(result, args, kwargs) if counts else ()))
            return result
        return traced

    def write(self, path) -> None:
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_ns,end_ns,parent,unit,a,b,c\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.unit[i]},{self.a[i]},{self.b[i]},"
                         f"{self.c[i]}\n")


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the union of its children's intervals
    (each clipped to the parent's interval)."""
    n = len(start)
    own = [end[i] - start[i] for i in range(n)]
    kids: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            kids.setdefault(p, []).append(i)
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        spans = sorted((max(start[k], lo), min(end[k], hi)) for k in children)
        covered = 0
        cur_lo = cur_hi = None
        for s, e in spans:
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[p] -= covered
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict | None = None) -> dict[str, tuple[float, str]]:
    """Aggregate spans into the per-layer metrics as (value, unit); 0 where
    the workload does not load a layer."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    agg: dict[str, list] = {}   # name -> [calls, dur_ns, self_ns, a, b, c]
    for i in range(len(tracer)):
        row = agg.setdefault(tracer.names[tracer.name[i]], [0, 0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += tracer.end[i] - tracer.start[i]
        row[2] += selfs[i]
        row[3] += tracer.a[i]
        row[4] += tracer.b[i]
        row[5] += tracer.c[i]

    def get(name):
        return agg.get(name, [0, 0, 0, 0, 0, 0])

    def layer_self(prefix, skip=()):
        return sum(r[2] for k, r in agg.items()
                   if k.startswith(prefix + ".") and k not in skip) / 1e9

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    gen, st = get("generators.gen"), get("generators.scale_table")
    put("generators.calls", gen[0], "count")
    put("generators.self_s", gen[2] / 1e9, "s")
    put("generators.ms_per_call", _ratio(gen[1] / 1e6, gen[0]), "ms")
    put("generators.scale_table_calls", st[0], "count")
    put("generators.scale_table_s", st[1] / 1e9, "s")

    con, qry = get("oracle.construct"), get("oracle.query")
    val, io = get("oracle.validate"), get("oracle.io")
    put("oracle.construct_calls", con[0], "count")
    put("oracle.construct_s", con[1] / 1e9, "s")
    put("oracle.query_calls", qry[0], "count")
    put("oracle.queries", qry[3], "count")
    put("oracle.queries_per_call", _ratio(qry[3], qry[0]), "count")
    put("oracle.query_s", qry[1] / 1e9, "s")
    put("oracle.us_per_call", _ratio(qry[1] / 1e3, qry[0]), "us")
    put("oracle.validate_calls", val[0], "count")
    put("oracle.validate_s", val[1] / 1e9, "s")
    put("oracle.io_s", io[1] / 1e9, "s")
    put("oracle.io_bytes", io[3], "B")

    for key in DETECTOR_KEYS:
        d = get(f"detectors.{key}")
        put(f"detectors.{key}.calls", d[0], "count")
        put(f"detectors.{key}.self_s", d[2] / 1e9, "s")
        put(f"detectors.{key}.self_us_per_query", _ratio(d[2] / 1e3, d[3]), "us")
        put(f"detectors.{key}.found_ratio", _ratio(d[4], d[5]), "ratio")

    exp = get("harness.expectation")
    put("harness.self_s", layer_self("harness", skip=("harness.expectation",)), "s")
    put("harness.trials", sum(r[3] for k, r in agg.items()
                              if k in ("harness.separation_experiment", "harness.run_trials")),
        "count")
    put("harness.expectation_calls", exp[0], "count")
    put("harness.expectation_s", exp[1] / 1e9, "s")

    ctor, probe, fin = get("adversary.construct"), get("adversary.probe"), get("adversary.finalize")
    put("adversary.sessions", ctor[0], "count")
    put("adversary.construct_ms", _ratio(ctor[2] / 1e6, ctor[0]), "ms")
    put("adversary.probes", probe[0], "count")
    put("adversary.us_per_probe", _ratio(probe[2] / 1e3, probe[0]), "us")
    put("adversary.finalize_ms", _ratio(fin[2] / 1e6, fin[0]), "ms")
    put("adversary.resolved_early_ratio", _ratio(fin[3], fin[0]), "ratio")

    put("cli.commands", get("cli.main")[0], "count")
    for cmd in CLI_COMMANDS:
        r = get(f"cli.{cmd}")
        put(f"cli.{cmd}.ms", _ratio(r[1] / 1e6, r[0]), "ms")
    put("cli.self_s", layer_self("cli"), "s")
    put("cli.bytes_written", (extra or {}).get("cli.bytes_written", 0), "B")

    svg = get("svg.line_chart")
    put("svg.calls", svg[0], "count")
    put("svg.render_ms", _ratio(svg[1] / 1e6, svg[0]), "ms")
    return m


# ---------------------------------------------------------------------------
# installing wrappers


class Recorder:
    """Per-unit bookkeeping shared by the recording wrappers."""

    def __init__(self) -> None:
        self.begin_unit()

    def begin_unit(self) -> None:
        self.oracles: list = []
        self.calls: list = []
        self.errors: list[str] = []

    def queries(self) -> int:
        return sum(o.count for o in self.oracles)


def _outcome_counts(out, args, kwargs):
    return out.queries, int(out.found), 1


def _battery_counts(res, args, kwargs):
    return res["queries"], res["successes"], res["attempts"]


def _rows_counts(result, args, kwargs):
    rows = result[1] if isinstance(result, tuple) else result.rows
    return len(rows), 0, 0


def _bytes_of_str(result, args, kwargs):
    return len(result), 0, 0


def _bytes_of_file(result, args, kwargs):
    try:
        return os.path.getsize(args[0]), 0, 0
    except (OSError, IndexError, TypeError):
        return 0, 0, 0


def _found_list(result, args, kwargs):
    return 0, int(bool(result)), 1


class Instrument:
    """Patch qsep's public names; ``restore`` undoes every patch."""

    def __init__(self, qsep_modules, recorder: Recorder,
                 tracer: Tracer | None = None) -> None:
        self.m = qsep_modules
        self.recorder = recorder
        self.tracer = tracer
        self._undo: list = []
        self.validate_witness = qsep_modules.oracle.validate_witness
        self.unrelabel = qsep_modules.oracle._unrelabel_witness
        self._install()

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key], True))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key), False))
            setattr(target, key, value)

    def restore(self) -> None:
        while self._undo:
            target, key, old, is_dict = self._undo.pop()
            if is_dict:
                target[key] = old
            else:
                setattr(target, key, old)

    def _patch_name(self, modules, attr, name, counts=None) -> None:
        """Wrap ``attr`` in every module that resolves it by that name."""
        for mod in modules:
            self._set(mod, attr, self.tracer.wrap(name, getattr(mod, attr), counts))

    def _install(self) -> None:
        m, tr = self.m, self.tracer
        oracle_cls = self._oracle_class()
        for mod in (m.oracle, m.harness, m.cli):
            self._set(mod, "CountedOracle", oracle_cls)
        for key in list(m.harness.DETECTORS):
            fn = m.harness.DETECTORS[key]
            if tr is not None:
                fn = tr.wrap(f"detectors.{key}", fn, _outcome_counts)
            self._set(m.harness.DETECTORS, key, self._recording(key, fn))
        if tr is None:
            return

        gens = ("gen_collision_function", "gen_claw_graph", "gen_fixedpoint_function",
                "gen_star_graph", "gen_starpath_graph")
        for attr in gens:
            self._patch_name((m.generators, m.harness, m.cli), attr, "generators.gen")
        self._patch_name((m.generators, m.adversary), "scale_table", "generators.scale_table")

        self._patch_name((m.oracle, m.harness, m.cli), "validate_witness", "oracle.validate")
        self._patch_name((m.cli,), "read_instance", "oracle.io", _bytes_of_file)
        self._patch_name((m.cli,), "read_certificate", "oracle.io", _bytes_of_file)
        self._patch_name((m.cli,), "instance_to_jsonable", "oracle.io")
        self._patch_name((m.harness, m.cli), "canonical_json", "oracle.io", _bytes_of_str)

        self._patch_name((m.detectors,), "collision_attempt_battery",
                         "detectors.attempt-battery", _battery_counts)
        self._patch_name((m.cli,), "brute_force_find", "detectors.brute-force", _found_list)

        self._patch_name((m.harness, m.cli), "separation_experiment",
                         "harness.separation_experiment", _rows_counts)
        self._patch_name((m.harness, m.cli), "run_trials", "harness.run_trials", _rows_counts)
        for attr in ("exact_cert_expectation", "meta_cert_expectation"):
            self._patch_name((m.harness,), attr, "harness.expectation")
        for attr in ("write_trials_csv", "read_trials_csv", "write_report_json", "slope_fit"):
            self._patch_name((m.cli,), attr, "harness.other")

        session_cls = self._session_class()
        for mod in (m.adversary, m.cli):
            self._set(mod, "AdversarySession", session_cls)

        self._patch_name((m.cli,), "main", "cli.main")
        for cmd in CLI_COMMANDS:
            attr = "cmd_" + cmd.replace("-", "_")
            self._patch_name((m.cli,), attr, f"cli.{cmd}")
        self._patch_name((m.cli,), "line_chart", "svg.line_chart")

    def _recording(self, key, fn):
        rec, validate, unrelabel = self.recorder, self.validate_witness, self.unrelabel

        @functools.wraps(fn)
        def recorded(oracle, cert, seed, **kwargs):
            before = oracle.count
            out = fn(oracle, cert, seed, **kwargs)
            witness = None
            if out.found:
                witness = list(out.witness.vertices)
                inst = getattr(oracle, "bench_instance", None)
                if inst is None or not validate(inst, unrelabel(oracle, out.witness)):
                    rec.errors.append(f"{key}: invalid witness {witness}")
            if out.queries != oracle.count - before:
                rec.errors.append(f"{key}: outcome reports {out.queries} queries, "
                                  f"oracle charged {oracle.count - before}")
            rec.calls.append([key, out.status, out.queries, out.attempts, witness])
            return out
        return recorded

    def _oracle_class(self):
        base, rec, tr = self.m.oracle.CountedOracle, self.recorder, self.tracer

        class CountingOracle(base):
            def __init__(self, instance, *args, **kwargs):
                super().__init__(instance, *args, **kwargs)
                self.bench_instance = instance
                rec.oracles.append(self)

        if tr is None:
            return CountingOracle

        def timed_query(fn):
            @functools.wraps(fn)
            def method(self, *args, **kwargs):
                before = self.count
                idx = tr.open("oracle.query")
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    tr.close(idx, self.count - before)
            return method

        class TracedOracle(CountingOracle):
            __init__ = tr.wrap("oracle.construct", CountingOracle.__init__)
            query_function = timed_query(base.query_function)
            query_function_many = timed_query(base.query_function_many)
            query_degree = timed_query(base.query_degree)
            query_neighbor = timed_query(base.query_neighbor)
            query_degree_many = timed_query(base.query_degree_many)
            query_neighbor_many = timed_query(base.query_neighbor_many)

        return TracedOracle

    def _session_class(self):
        base, tr = self.m.adversary.AdversarySession, self.tracer
        probe_deg = tr.wrap("adversary.probe", base.probe_degree)
        probe_nbr = tr.wrap("adversary.probe", base.probe_neighbor)

        def finalize(self):
            early = self.is_resolved
            idx = tr.open("adversary.finalize")
            try:
                return base.finalize(self)
            finally:
                tr.close(idx, int(early))

        class TracedSession(base):
            __init__ = tr.wrap("adversary.construct", base.__init__)
            probe_degree = query_degree = probe_deg
            probe_neighbor = query_neighbor = probe_nbr
            write_trace = tr.wrap("adversary.io", base.write_trace)

        TracedSession.finalize = finalize
        return TracedSession
