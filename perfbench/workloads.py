"""The four seeded workloads.

Each workload owns a fixed pool of unit specs, keyed by short strings.
The recorded invariants (``invariants.json``) hold the seeded outcome of
every key in every pool. The run seed decides which keys run and in
which order, so every unit a run executes has a recorded outcome to
match; the program under test sees nothing but the generated inputs.

A unit is split in two: ``execute`` makes the calls into qsep and is the
only part timed; ``verify`` checks the result and returns the unit's
outcome record, its charged query count and any failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np



def digest(obj) -> str:
    blob = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def rounds(cells: dict[str, list[str]], seed: int):
    """Endless stream of rounds. A round holds one key of every cell, in a
    seeded order; within a cell, keys cycle through seeded permutations."""
    rng = np.random.default_rng(seed)
    queues: dict[str, list[str]] = {name: [] for name in cells}
    names = list(cells)
    while True:
        batch = []
        for j in rng.permutation(len(names)):
            name = names[j]
            if not queues[name]:
                keys = cells[name]
                queues[name] = [keys[i] for i in rng.permutation(len(keys))]
            batch.append(queues[name].pop())
        yield batch


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Workload:
    name = ""
    why = ""
    TIERS = 1   # cost tiers per stratum, so each round has a fixed mix

    def __init__(self, q, recorder, out_dir: Path) -> None:
        self.q = q
        # checks call the package's own functions, never the traced wrappers
        self.checks = SimpleNamespace(CountedOracle=q.oracle.CountedOracle,
                                      validate_witness=q.oracle.validate_witness,
                                      unrelabel=q.oracle._unrelabel_witness)
        self.recorder = recorder
        self.out_dir = out_dir

    def strata(self) -> dict[str, list[str]]:
        raise NotImplementedError

    def keys(self) -> list[str]:
        return [k for ks in self.strata().values() for k in ks]

    def prepare(self, seed: int) -> None:
        """Work done once per run before timing starts."""

    def warmup_key(self, expected: dict) -> str:
        """The pool's heaviest unit by recorded queries, so that every run
        reaches the same peak footprint before timing starts."""
        return max(self.keys(), key=lambda k: expected.get(k, {}).get("queries", 0))

    def schedule(self, seed: int, expected: dict):
        """Rounds over cells: each stratum split into TIERS equal tiers by
        recorded query count, so runs differ in inputs but not in mix."""
        cells = {}
        for name, keys in self.strata().items():
            keys = sorted(keys, key=lambda k: expected.get(k, {}).get("queries", 0))
            size = math.ceil(len(keys) / self.TIERS)
            for lo in range(0, len(keys), size):
                cells[f"{name}/{lo // size}"] = keys[lo:lo + size]
        return rounds(cells, seed)

    def execute(self, key: str):
        raise NotImplementedError

    def verify(self, key: str, result) -> tuple[dict, int, list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class SepCollision(Workload):
    """Criterion 4's shape, one single-point separation_experiment per unit."""

    name = "sep-collision-2e20"
    why = ("criterion 4 shape: 2^20 relabel, 1-16 query batches; loads generators,oracle,detectors,"
           "harness; bypasses cli,svg,adversary; unit=1 single-point separation_experiment; "
           "closed loop, 1 caller")
    N = 1 << 20
    S = (2, 4, 8, 16)
    PER_S = 24
    TIERS = 8   # the s16 stratum spans 0.2-2.5 s per unit

    def strata(self):
        return {f"s{s}": [f"s{s}/{j}" for j in range(self.PER_S)] for s in self.S}

    def execute(self, key):
        s, j = (int(v) for v in key[1:].split("/"))
        H = self.q.harness
        point = H.SeparationPoint(
            x=s, n=self.N, generator="collision-fn",
            gen_kwargs={"params": {"i_min": 2, "i_max": 1 + s, "c": 0.3}},
            baseline_kwargs={"i_min": 2, "i_max": 1 + s})
        return H.separation_experiment([point], trials=1, master_seed=100 * s + j,
                                       budget_factor=50.0, pilot_trials=1, workers=1)

    def verify(self, key, rep):
        rec = self.recorder
        errors = list(rec.errors)
        calls = rec.calls
        rows = [[r["detector"], r["status"], r["queries"]] for r in rep.rows]
        if rows != [c[:3] for c in calls[1:]]:
            errors.append(f"report rows {rows} differ from detector calls {calls}")
        queries = rec.queries()
        return {"budget": rep.budgets[0], "calls": calls, "queries": queries}, queries, errors


class BatteryCollision(Workload):
    """Criterion 1/2's shape: expectations plus an 8192-lane attempt battery."""

    name = "battery-collision-2e16"
    why = ("criterion 1/2 shape: 8192 lanes amortise oracle calls, bookkeeping and expectations "
           "dominate; loads generators,oracle,detectors,harness; bypasses relabel,cli,svg,adversary; "
           "unit=1 instance; 1 caller")
    N = 1 << 16
    T = (4, 5, 6, 7, 8)
    PER_T = 16
    ATTEMPTS = 8192
    TIERS = 2
    # 99% confidence held jointly over the whole pool (Bonferroni): a
    # per-unit 99% interval would flag about one correct unit in a hundred
    Z = statistics.NormalDist().inv_cdf(1 - 0.01 / (2 * len(T) * PER_T))

    def strata(self):
        return {f"t{t}": [f"t{t}/{k}" for k in range(self.PER_T)] for t in self.T}

    def execute(self, key):
        t, k = (int(v) for v in key[1:].split("/"))
        q = self.q
        params = q.generators.ScaleParams(i_min=4, i_max=8, c=0.3)
        inst, cert, _ = q.generators.gen_collision_function(
            self.N, params, seed=k, t_override=t)
        exact = q.harness.exact_cert_expectation(inst)
        mform = q.harness.meta_cert_expectation(inst)
        oracle = q.oracle.CountedOracle(inst)
        res = q.detectors.collision_attempt_battery(
            oracle, cert.payload["t"], self.ATTEMPTS, seed=k + 500, batch=self.ATTEMPTS)
        return inst, exact, mform, oracle, res

    def verify(self, key, result):
        inst, exact, mform, oracle, res = result
        c = self.checks
        errors = []
        if (exact.success_prob, exact.cost_per_attempt, exact.expected_total) != \
                (mform.success_prob, mform.cost_per_attempt, mform.expected_total):
            errors.append(f"exact {exact} and meta {mform} expectations differ")
        p = float(exact.success_prob)
        halfw = self.Z * math.sqrt(p * (1 - p) / res["attempts"])
        if abs(res["success_rate"] - p) > halfw:
            errors.append(f"MC rate {res['success_rate']:.5f} outside the pool-wide 99% CI "
                          f"{p:.5f} +- {halfw:.5f}")
        for w in res["witnesses"]:
            if not c.validate_witness(inst, c.unrelabel(oracle, w)):
                errors.append(f"invalid battery witness {w}")
        if res["queries"] != oracle.count:
            errors.append(f"battery reports {res['queries']} queries, oracle charged {oracle.count}")
        record = {"p": _frac(exact.success_prob), "cost": _frac(exact.cost_per_attempt),
                  "attempts": res["attempts"], "successes": res["successes"],
                  "queries": res["queries"],
                  "witnesses": digest([list(w.vertices) for w in res["witnesses"]])}
        return record, oracle.count, errors


class ClawAdversary(Workload):
    """Criterion 3's shape: online session and offline instance, 200 probes each."""

    name = "claw-adversary-2e12"
    why = ("criterion 3 shape: scalar graph probes at 2^12, fixed per-call costs; loads adversary,"
           "generators,oracle; bypasses detectors,harness,cli,svg; unit=1 session + 1 offline probe; "
           "closed loop, 1 caller")
    N = 1 << 12
    QUERIES = 200
    POOL = 1024

    def strata(self):
        return {"k": [f"k{k}" for k in range(self.POOL)]}

    def _probe(self, ora) -> list:
        """Criterion 3's fixed 200-query adaptive walk; returns the answers."""
        rng = np.random.default_rng(12345)
        answers = []
        v = int(rng.integers(self.N))
        q = 0
        while q < self.QUERIES:
            d = ora.query_degree(v)
            q += 1
            answers.append(d)
            if q >= self.QUERIES:
                break
            if d == 0 or rng.random() < 0.25:
                v = int(rng.integers(self.N))
                continue
            w = ora.query_neighbor(v, int(rng.integers(d)))
            q += 1
            answers.append(w)
            v = w
        return answers

    def execute(self, key):
        k = int(key[1:])
        q = self.q
        params = q.generators.ScaleParams(i_min=2, i_max=6, c=0.3)
        session = q.adversary.AdversarySession(self.N, params, seed=k)
        online = self._probe(session)
        early = session.is_resolved
        final = session.finalize()
        inst, _, _ = q.generators.gen_claw_graph(self.N, params, seed=1_000_000 + k)
        oracle = q.oracle.CountedOracle(inst)
        offline = self._probe(oracle)
        return session, online, early, final, oracle, offline

    def verify(self, key, result):
        session, online, early, final, oracle, offline = result
        errors = []
        replay = self.checks.CountedOracle(final)
        for row in session.trace:
            op, v, *rest = row["query"]
            try:
                ans = replay.query_degree(v) if op == "deg" else replay.query_neighbor(v, rest[0])
            except IndexError:
                ans = None
            if ans != row["answer"]:
                errors.append(f"step {row['step']}: online answer {row['answer']}, "
                              f"finalized instance answers {ans}")
                break
        queries = session.probes + oracle.count
        record = {"good": session.good, "early": early, "online": digest(online),
                  "offline": digest(offline), "queries": queries}
        return record, queries, errors


class CliRoundtrip(Workload):
    """Criterion 9's command sequence through qsep.cli.main."""

    name = "cli-roundtrip"
    why = ("criterion 9 commands via cli.main, bench --threads 2; only load of cli,svg,JSON I/O,"
           "pool,fixed-point detector; bypasses n>2^16; unit=1 command sequence; closed loop, 1 caller")
    VARIANTS = 16
    TIERS = 4
    THREADS = 2

    def strata(self):
        return {"v": [f"v{v}" for v in range(self.VARIANTS)]}

    def prepare(self, seed):
        """Write every variant's battery specs; units only read them."""
        self.unit_no = 0
        self.reference = {}
        shutil.rmtree(self.out_dir / "cli", ignore_errors=True)
        self.specs = {v: self._write_specs(v) for v in range(self.VARIANTS)}

    def _write_specs(self, v: int) -> tuple[Path, Path]:
        spec_dir = self.out_dir / "cli" / f"spec-v{v}"
        spec_dir.mkdir(parents=True)
        sep = {"kind": "separation", "master_seed": 11 + 1000 * v, "trials": 4,
               "pilot_trials": 3, "points": [
                   {"x": x, "n": 4096, "generator": "collision-fn",
                    "gen_kwargs": {"params": {"i_min": 2, "i_max": hi, "c": 0.3}},
                    "baseline_kwargs": {"i_min": 2, "i_max": hi}}
                   for x, hi in ((2, 4), (3, 5))]}
        slope = {"kind": "slope", "master_seed": 3 + 1000 * v, "series": [
            {"label": "walks", "generator": "fixedpoint-fn",
             "detector": "cert-fixedpoint", "det_kwargs": {"C": 2.0},
             "ns": [4096, 16384, 65536], "trials": 3}]}
        paths = spec_dir / "sep.json", spec_dir / "slope.json"
        for path, spec in zip(paths, (sep, slope)):
            path.write_text(json.dumps(spec))
        return paths

    def commands(self, v: int, out: str, threads: int) -> list[list[str]]:
        sep, slope = self.specs[v]
        s = 1000 * v
        inst = f"{out}/collision-fn.instance.json"
        cert = f"{out}/collision-fn.certificate.json"
        fp = f"{out}/fixedpoint-fn"
        return [
            ["gen", "--construction", "collision-fn", "--n", "4096", "--scales", "2..5",
             "--seed", str(7 + s), "--out-dir", out],
            ["gen", "--construction", "claw-graph", "--n", "2048", "--scales", "2..4",
             "--seed", str(3 + s), "--out-dir", out],
            ["gen", "--construction", "fixedpoint-fn", "--n", "4096", "--seed", str(2 + s),
             "--out-dir", out],
            ["gen", "--construction", "star-graph", "--n", "4096", "--H", "triangle",
             "--seed", str(3 + s), "--out-dir", out],
            ["gen", "--construction", "starpath-graph", "--n", "2048", "--k", "4",
             "--seed", str(4 + s), "--out-dir", out],
            ["run", "--instance", inst, "--cert", cert, "--detector", "cert-collision",
             "--seed", str(3 + s)],
            ["run", "--instance", f"{fp}.instance.json", "--cert", f"{fp}.certificate.json",
             "--detector", "cert-fixedpoint", "--seed", str(5 + s)],
            ["run", "--instance", f"{fp}.instance.json", "--detector", "uniform-probe",
             "--target", "fixed-point", "--seed", str(6 + s)],
            ["bench", "--battery", str(sep), "--out-dir", out, "--threads", str(threads),
             "--plot", "--prefix", "sep"],
            ["bench", "--battery", str(slope), "--out-dir", out, "--threads", str(threads),
             "--plot", "--prefix", "slope"],
            ["verify", "--instance", inst, "--cert", cert],
            ["adversary-test", "--n", "1024", "--scales", "2..4", "--seed", str(5 + s),
             "--probes", "300", "--out-dir", out],
            ["report", "--csv", f"{out}/slope.trials.csv", "--out-dir", out, "--plot"],
        ]

    def _sequence(self, v: int, out_dir: Path, threads: int):
        out = str(out_dir)
        log = []
        for argv in self.commands(v, out, threads):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.q.cli.main(argv)
            log.append((argv[0], code, buf.getvalue()))
        return out_dir, log

    def execute(self, key):
        self.unit_no += 1
        out_dir = self.out_dir / "cli" / f"unit-{self.unit_no}"
        shutil.rmtree(out_dir, ignore_errors=True)
        return self._sequence(int(key[1:]), out_dir, self.THREADS)

    def _summary(self, out_dir: Path, log) -> tuple[dict, int]:
        files = {p.name: digest(p.read_bytes()) for p in sorted(out_dir.iterdir()) if p.is_file()}
        written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        stdout = []
        for cmd, code, text in log:
            lines = []
            for ln in text.replace(str(out_dir), "<out>").splitlines():
                if ln.startswith("{"):
                    rec = json.loads(ln)
                    rec.pop("wall-ms", None)
                    ln = json.dumps(rec, sort_keys=True)
                lines.append(ln)
            stdout.append([cmd, code, lines])
        return {"files": files, "stdout": digest(stdout),
                "codes": [c for _, c, _ in log]}, written

    def reference_for(self, key: str) -> tuple[dict, int]:
        """The --threads 1 run of the same sequence, with its charged queries."""
        if key not in self.reference:
            self.recorder.begin_unit()
            out_dir, log = self._sequence(int(key[1:]), self.out_dir / "cli" / f"ref-{key}", 1)
            summary, _ = self._summary(out_dir, log)
            shutil.rmtree(out_dir, ignore_errors=True)
            self.reference[key] = summary, self.recorder.queries()
        return self.reference[key]

    def verify(self, key, result):
        out_dir, log = result
        errors = list(self.recorder.errors)
        summary, written = self._summary(out_dir, log)
        shutil.rmtree(out_dir, ignore_errors=True)
        ref, queries = self.reference_for(key)
        if summary != ref:
            bad = sorted(k for k in set(ref["files"]) | set(summary["files"])
                         if ref["files"].get(k) != summary["files"].get(k))
            errors.append(f"--threads {self.THREADS} output differs from --threads 1 "
                          f"(files {bad}, stdout equal {summary['stdout'] == ref['stdout']})")
        if any(summary["codes"]):
            errors.append(f"exit codes {summary['codes']}")
        return {**summary, "queries": queries, "bytes": written}, queries, errors


WORKLOADS = {w.name: w for w in (SepCollision, BatteryCollision, ClawAdversary, CliRoundtrip)}
