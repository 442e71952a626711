#!/usr/bin/env python3
"""Seeded benchmark for qsep.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

One workload runs per process, closed loop with one caller, from the
checkout root. The package is imported from ``src/`` next to this
directory (or ``--src``), never from site-packages. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the same units untraced and
then traced and prints the per-layer metrics. Every unit is checked and
its seeded outcome compared with ``invariants.json``; ``--record``
rewrites that file from the current code. The last stdout line is the
JSON result; a context line, a metric table and any failures come before
it. Full results and spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

T_START = time.perf_counter()   # set-up is timed from here
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from summary import invariant_mismatch, normalise, tail  # noqa: E402

INVARIANTS = HERE / "invariants.json"
SETUP_SAMPLES = 7
MODULES = ("oracle", "generators", "detectors", "harness", "adversary", "svg", "cli")


def load_qsep(src: Path) -> SimpleNamespace:
    """Import qsep's modules from src, refusing any other copy."""
    src = src.resolve()
    if not (src / "qsep" / "__init__.py").is_file():
        raise SystemExit(f"error: no qsep package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"qsep.{name}") for name in MODULES}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"error: {mod.__name__} imported from {mod.__file__}, not {src}")
    return SimpleNamespace(**mods)


class Bench:
    """One workload in one process: set-up, then timed units."""

    def __init__(self, args, warm: bool = True) -> None:
        self.q = load_qsep(Path(args.src))
        from spans import Instrument, Recorder
        from workloads import WORKLOADS
        self.args = args
        self.recorder = Recorder()
        args.out.mkdir(parents=True, exist_ok=True)
        self.wl = WORKLOADS[args.workload](self.q, self.recorder, args.out)
        self.instrument = Instrument(self.q, self.recorder)
        self.expected = json.loads(INVARIANTS.read_text()).get(args.workload, {}) \
            if INVARIANTS.is_file() else {}
        self.failures: list[str] = []
        self.wl.prepare(args.seed)
        # wall clock: kernel readings right after start-up are too erratic
        # to calibrate a fraction of a second of imports
        self.setup_s = time.perf_counter() - T_START
        from calibrate import Calibrator
        self.cal = Calibrator()
        if warm:
            u = self.unit(self.wl.warmup_key(self.expected), -1)
            if u["error"]:
                self.failures.append(f"warm-up {u['key']}: {u['error']}")

    def instrument_with(self, tracer) -> None:
        """Swap the installed wrappers: recording only, or also timing."""
        from spans import Instrument
        self.instrument.restore()
        self.instrument = Instrument(self.q, self.recorder, tracer)

    def unit(self, key: str, uid: int, tracer=None) -> dict:
        """Run, time and check one unit; spans cover execution only."""
        self.recorder.begin_unit()
        if tracer is not None:
            tracer.current_unit = uid
            self.instrument_with(tracer)
        record, queries, errors = None, 0, []
        t0 = time.perf_counter()
        try:
            result = self.wl.execute(key)
            dt = time.perf_counter() - t0
            if tracer is not None:
                self.instrument_with(None)
            record, queries, errors = self.wl.verify(key, result)
            record = normalise(record)
        except Exception:
            dt = time.perf_counter() - t0
            errors = [traceback.format_exc(limit=4)]
        finally:
            if tracer is not None and self.instrument.tracer is not None:
                self.instrument_with(None)
        if record is not None:
            bad = invariant_mismatch(self.expected.get(key), record)
            if bad:
                errors.append(f"invariant: {bad}")
        return {"key": key, "s": dt, "start": t0, "queries": queries, "record": record,
                "error": " | ".join(errors) or None}

    def loop(self, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
        """Closed loop over whole rounds: the next unit starts when the
        previous one completes, and a started round is always finished.
        With a tracer, every unit runs twice, untraced and traced, in
        alternating order; the second list holds the traced runs."""
        plain, traced = [], []
        for _ in range(3):
            self.cal.kernel()
        start = time.perf_counter()
        for batch in self.wl.schedule(self.args.seed, self.expected):
            for key in batch:
                modes = (None, tracer) if len(plain) % 2 == 0 else (tracer, None)
                for mode in (modes if tracer is not None else (None,)):
                    u = self.unit(key, len(plain), mode)
                    if u["error"]:
                        self.failures.append(f"unit {len(plain)} ({key}): {u['error']}")
                    (traced if mode is not None else plain).append(u)
                    self.cal.maybe_sample()
            if time.perf_counter() - start >= seconds:
                break
        for _ in range(3):
            self.cal.kernel()
        for u in plain + traced:
            u["ref_s"] = u["s"] * self.cal.factor(u["start"], u["start"] + u["s"])
        return plain, traced


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes: import qsep, prepare inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--src", str(args.src),
           "--out", str(args.out / "setup-probe")]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("setup_s="):
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        out.append(float(lines[-1].split("=", 1)[1]))
    return out


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, load_start) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    from importlib.metadata import PackageNotFoundError, version

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "mem_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
            "python": platform.python_version(), "numpy": ver("numpy"), "scipy": ver("scipy"),
            "commit": git_commit(ROOT), "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg())}


def end_to_end(units, setup_samples) -> tuple[dict, dict]:
    """Unit times are in reference time (see calibrate.py); the notes
    carry the raw wall-clock figures next to them."""
    times = [u["ref_s"] for u in units]
    wall = [u["s"] for u in units]
    busy = sum(times)
    queries = sum(u["queries"] for u in units)
    pct, tail_s = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "units_per_s": (len(units) / busy, "1/s"),
        "unit_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "unit_tail_ms": (tail_s * 1e3, "ms"),
        "queries_per_s": (queries / busy, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_samples)} set-ups, wall clock",
             "units_per_s": f"{len(units)} units; wall {len(units) / sum(wall):.4g}",
             "unit_p50_ms": f"n={len(units)}; wall {statistics.median(wall) * 1e3:.4g}",
             "unit_tail_ms": f"p{pct:g}, n={len(units)}; wall {tail(wall)[1] * 1e3:.4g}",
             "queries_per_s": f"{queries} queries; wall {queries / sum(wall):.4g}",
             "peak_rss_mb": "ru_maxrss of this process"}
    return metrics, notes


def per_layer(bench, args) -> tuple[dict, dict, list]:
    from spans import Tracer, layer_metrics
    tracer = Tracer()
    plain, traced = bench.loop(args.seconds, tracer)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if (a["record"], a["queries"]) != (b["record"], b["queries"]):
            bench.failures.append(f"unit {i} ({a['key']}): traced outcome differs from untraced")
    written = sum(u["record"].get("bytes", 0) for u in traced if u["record"])
    metrics = layer_metrics(tracer, {"cli.bytes_written": written})
    ratio = sum(u["ref_s"] for u in traced) / sum(u["ref_s"] for u in plain) - 1
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    tracer.write(args.out / f"{args.workload}-seed{args.seed}.spans.csv.gz")
    notes = {"harness.self_s": "includes worker-pool start-up, IPC and child work "
                               "when --threads > 1 (cli-roundtrip)",
             "trace.overhead_ratio": f"{len(traced)} units run untraced and traced, "
                                     "alternating which goes first"}
    return metrics, notes, plain + traced


def record(args) -> int:
    """Run every pool key once and store its outcome as the invariant."""
    from workloads import WORKLOADS
    names = [args.workload] if args.workload else list(WORKLOADS)
    table = json.loads(INVARIANTS.read_text()) if INVARIANTS.is_file() else {}
    for name in names:
        args.workload = name
        bench = Bench(args, warm=False)
        bench.expected = {}
        got = {}
        for key in bench.wl.keys():
            u = bench.unit(key, 0)
            bad = u["error"] and not u["error"].startswith("invariant:")
            if bad:
                print(f"{name} {key}: {u['error']}", file=sys.stderr)
                return 1
            got[key] = u["record"]
        bench.instrument.restore()
        table[name] = got
        INVARIANTS.write_text(json.dumps(table, sort_keys=True, indent=0) + "\n")
        print(f"recorded {len(got)} units of {name}")
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; relays their output and
    prints one combined result with metrics named <workload>.<metric>."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--src", str(args.src), "--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    load_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench-out")
    ap.add_argument("--record", action="store_true", help="rewrite invariants.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.src / "qsep" / "__init__.py").is_file():
        print(f"error: no qsep package under {args.src}", file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        print(f"setup_s={Bench(args, warm=False).setup_s!r}")
        return 0

    bench = Bench(args)
    if args.trace:
        metrics, notes, units = per_layer(bench, args)
    else:
        setup = [bench.setup_s] + probe_setup(args)
        units, _ = bench.loop(args.seconds)
        metrics, notes = end_to_end(units, setup)

    ctx = context(args, load_start)
    failed = sum(1 for u in units if u["error"])
    for line in bench.failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {args.workload} {name} = {value:.6g} {unit}{note}")
    print(f"metric {args.workload} fail_ratio = {failed}/{len(units)}")
    result = {"correct": not bench.failures, "attempted": len(units), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "context": ctx, "notes": notes,
                    "units": [[u["key"], u["s"], u["ref_s"], u["queries"], u["error"]]
                              for u in units]},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
