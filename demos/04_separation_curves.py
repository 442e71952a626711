"""Two query-count experiments, charted.

First, the scale-count separation: plant collisions behind s live scales
and watch the multiscale sweep fall behind a certificate holder as s grows.
Second, the polynomial gap on the backbone construction: the certificate
search grows like a fractional power of n while the uniform baseline stays
essentially linear, so their curves diverge on a log-log plot.

Both experiments are committed battery files, batteries/criterion4.json
(run here at its own master seed, 1000) and batteries/criterion6.json, and
this demo runs them through `qsep bench` as the command line would, so every
number here is a mean over seeded, relabeled trials of the trial harness. Trial CSVs, reports and SVG charts
land in demos/out/.
"""

import json
import pathlib

from qsep.cli import main

HERE = pathlib.Path(__file__).parent
OUT = HERE / "out"


def bench(battery, prefix):
    """Run batteries/<battery>.json; return the report it wrote."""
    code = main(["bench", "--battery", str(HERE.parent / "batteries" / f"{battery}.json"),
                 "--threads", "1", "--plot", "--prefix", prefix, "--out-dir", str(OUT)])
    if code:
        raise SystemExit(code)
    print(f"  chart: {OUT / prefix}.svg")
    return json.loads((OUT / f"{prefix}.report.json").read_text())


# The sweep's handicap scales with how many wrong scales it must clear,
# and the per-scale cost spread needs a large n to rise above trial noise.
print("scale-count separation at n = 2^20")
rep = bench("criterion4", "scales")
print("  sweep / certificate: "
      + ", ".join(f"s = {r['x']}: {r['ratio']:.2f}" for r in rep["rows"]))

print()
print("polynomial gap on the backbone k-star construction, k = 4")
rep = bench("criterion6", "backbone")
top = {r["label"]: r["mean_queries"] for r in rep["rows"] if r["n"] == 1 << 18}
print(f"  baseline / certificate at n = 2^18: "
      f"{top['baseline'] / top['certificate']:.1f}x")
