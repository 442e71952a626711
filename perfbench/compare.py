#!/usr/bin/env python3
"""Paired comparison of two source trees with the same benchmark code.

    python3 perfbench/compare.py --parent PARENT_ROOT --change CHANGE_ROOT \\
        [--workloads NAME ...] [--pairs 10] [--seconds 25] [--first-seed 9000]

Each root must hold ``src/qsep``. Pairs alternate which side runs first;
both sides of a pair use the same seed, and every pair a fresh one. The
benchmark settings come from BENCHMARK.json next to this directory. One
row per workload and metric gives each side's median and quartiles, the
pairs the change won and the verdict of ``summary.verdict``: a gain needs
9 in 10 pairs won and medians apart by more than the parent's
interquartile range; a parent spread wider than the metric's bound leaves
the metric unresolved. Rows are also written to
``.perfbench-out/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from summary import verdict  # noqa: E402


def run_once(src: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--src", str(src / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed on {src}: {proc.stderr.strip()[-600:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {src} {workload} seed {seed}: {result['failed']} failed units",
              file=sys.stderr)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=9000)
    args = ap.parse_args(argv)

    rows = []
    for workload in args.workloads:
        values = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(getattr(args, side), workload, seed, args.seconds)
                values[side].append(res["metrics"])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict([m[name]["value"] for m in values["parent"]],
                          [m[name]["value"] for m in values["change"]],
                          metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
            p, c = row["parent"], row["change"]
            print(f"{workload:24s} {name:14s} parent {p[1]:.5g} [{p[0]:.5g}, {p[2]:.5g}]  "
                  f"change {c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}] {metric['unit']}  "
                  f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
