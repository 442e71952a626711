"""Acceptance battery.

One test per acceptance criterion; each prints exactly one PASS/FAIL line
(visible through pytest's capture) with the measured quantities and the
stated tolerance, then asserts. Criteria with runtime caps assert those too.
"""

import hashlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from qsep import (
    CountedOracle,
    FixedPointParams,
    ScaleParams,
    analytic_cert_expectation,
    brute_force_find,
    cert_claw_search,
    cert_collision_search,
    cert_fixedpoint_search,
    cert_star_search,
    cert_starpath_search,
    collision_attempt_battery,
    corrupt_certificate,
    exact_cert_expectation,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
    meta_cert_expectation,
    slope_fit,
    validate_witness,
)
from qsep.adversary import AdversarySession
from qsep.cli import main as cli_main
from qsep.harness import _trial
from qsep.oracle import _unrelabel_witness


GOLDEN_PATH = Path(__file__).with_name("acceptance_golden.json")


def matches_golden(criterion, quantities):
    """True when a criterion's seeded quantities (no wall times) equal the
    ones recorded in acceptance_golden.json, compared after a JSON round
    trip. A change that moves one on purpose re-records the file."""
    golden = json.loads(GOLDEN_PATH.read_text())
    return json.loads(json.dumps(quantities)) == golden[f"criterion {criterion}"]


def emit(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# criterion 1/2 share these instances
C12_N = 1 << 16
C12_PARAMS = ScaleParams(i_min=4, i_max=8, c=0.3)   # five scales, rho auto
C12_SEEDS = range(20)
MC_ATTEMPTS = 100_000
Z99 = 2.576


@pytest.fixture(scope="module")
def collision_panel():
    panel = []
    for seed in C12_SEEDS:
        inst, cert, meta = gen_collision_function(C12_N, C12_PARAMS, seed=seed)
        panel.append({"inst": inst, "cert": cert, "meta": meta,
                      "exact": exact_cert_expectation(inst)})
    return panel


def test_criterion_1_exact_success_probability(collision_panel, capsys):
    worst_ci = worst_sec = 0.0
    for seed, row in zip(C12_SEEDS, collision_panel):
        t0 = time.perf_counter()
        exact, mform = row["exact"], meta_cert_expectation(row["inst"])
        # enumeration == (usable witness starts)/n, exact rational identity
        assert exact.success_prob == mform.success_prob
        p = float(exact.success_prob)
        res = collision_attempt_battery(
            CountedOracle(row["inst"]), row["cert"].payload["t"],
            MC_ATTEMPTS, seed=seed + 500, batch=8192)
        halfw = Z99 * math.sqrt(p * (1 - p) / MC_ATTEMPTS)
        worst_ci = max(worst_ci, abs(res["success_rate"] - p) / halfw)
        worst_sec = max(worst_sec, time.perf_counter() - t0)
    same = matches_golden(1, {"worst_ci": worst_ci})
    ok = worst_ci <= 1.0 and worst_sec < 60.0 and same
    emit(capsys, 1, ok,
         f"20 instances n=2^16, 1e5 attempts each: worst |mc-p| at "
         f"{worst_ci:.2f} of the 99% CI half-width (tolerance 1.0), worst "
         f"per-instance {worst_sec:.1f}s (cap 60s), golden={same}")
    assert ok


def test_criterion_2_expected_walk_length(collision_panel, capsys):
    worst_rel = 0.0
    for row in collision_panel:
        exact, mform = row["exact"], meta_cert_expectation(row["inst"])
        # with rounding kept, the two enumerations agree exactly
        assert exact.success_prob == mform.success_prob
        assert exact.cost_per_attempt == mform.cost_per_attempt
        assert exact.expected_total == mform.expected_total
        _, cost_per, _ = analytic_cert_expectation(
            C12_N, C12_PARAMS, row["cert"].payload["t"],
            row["meta"].extras["rho"])
        worst_rel = max(worst_rel,
                        abs(cost_per / float(exact.cost_per_attempt) - 1))
    same = matches_golden(2, {"worst_rel": worst_rel})
    ok = worst_rel <= 0.05 and same
    emit(capsys, 2, ok,
         f"exact == closed-form enumeration as rationals on all 20; "
         f"unfloored scale sum within {worst_rel:.2%} of exact per-attempt "
         f"cost (tolerance 5%), golden={same}")
    assert ok


C3_N = 1 << 12
C3_PARAMS = ScaleParams(i_min=2, i_max=6, c=0.3)
C3_SEEDS = 10_000
C3_QUERIES = 200


def _probe_signature(ora):
    """Fixed 200-query adaptive walk; coarse transcript signature."""
    rng = np.random.default_rng(12345)   # the strategy's own fixed stream
    deg_hist = [0, 0, 0, 0]
    revisits = 0
    seen = set()
    v = int(rng.integers(C3_N))
    q = 0
    while q < C3_QUERIES:
        d = ora.query_degree(v)
        q += 1
        deg_hist[min(d, 3)] += 1
        seen.add(v)
        if q >= C3_QUERIES:
            break
        if d == 0 or rng.random() < 0.25:
            v = int(rng.integers(C3_N))
            continue
        w = ora.query_neighbor(v, int(rng.integers(d)))
        q += 1
        revisits += w in seen
        v = w
    return (deg_hist[0] // 4, deg_hist[1] // 4, deg_hist[2] // 8,
            deg_hist[3], min(revisits // 8, 3))


def test_criterion_3_online_offline_distribution(capsys):
    t0 = time.perf_counter()
    online, goods = Counter(), Counter()
    for s in range(C3_SEEDS):
        sess = AdversarySession(C3_N, C3_PARAMS, seed=s)
        online[_probe_signature(sess)] += 1
        sess.finalize()
        goods[sess.good] += 1
    offline = Counter()
    for s in range(C3_SEEDS):
        inst, _, _ = gen_claw_graph(C3_N, C3_PARAMS, seed=1_000_000 + s)
        offline[_probe_signature(CountedOracle(inst))] += 1

    rows_on, rows_off, other_on, other_off = [], [], 0, 0
    for cat in sorted(set(online) | set(offline)):
        if online[cat] + offline[cat] >= 25:
            rows_on.append(online[cat])
            rows_off.append(offline[cat])
        else:
            other_on += online[cat]
            other_off += offline[cat]
    if other_on + other_off:
        rows_on.append(other_on)
        rows_off.append(other_off)
    p_two = stats.chi2_contingency([rows_on, rows_off]).pvalue
    gcounts = [goods[i] for i in range(C3_PARAMS.i_min, C3_PARAMS.i_max + 1)]
    p_good = stats.chisquare(gcounts).pvalue
    elapsed = time.perf_counter() - t0
    same = matches_golden(3, {"p_two": float(p_two), "p_good": float(p_good)})
    ok = p_two > 0.01 and p_good > 0.01 and elapsed < 300 and same
    emit(capsys, 3, ok,
         f"10^4 seeds/side, 200-query probe at n=2^12: transcript two-sample "
         f"chi-square p={p_two:.3f}, good-scale uniformity p={p_good:.3f} "
         f"(both must exceed 0.01), {elapsed:.0f}s (cap 300s), "
         f"golden={same}")
    assert ok


BATTERIES = Path(__file__).parents[1] / "batteries"


def bench_battery(name, tmp_path, threads=1):
    """Run batteries/<name>.json through `qsep bench` as a user would;
    return its exit code under --strict and the report it wrote."""
    out = tmp_path / name
    code = cli_main(["bench", "--battery", str(BATTERIES / f"{name}.json"),
                     "--threads", str(threads), "--strict", "--out-dir", str(out)])
    return code, json.loads(next(out.glob("*.report.json")).read_text())


C4_BATTERIES = ("criterion4-1000", "criterion4-2000", "criterion4-3000")


def test_criterion_4_scale_count_separation(tmp_path, capsys):
    t0 = time.perf_counter()
    # two workers give the same rows and budgets as one (test_harness)
    codes, reports = zip(*(bench_battery(b, tmp_path, threads=2) for b in C4_BATTERIES))
    all_ratios = [rep["report"]["ratios"] for rep in reports]
    mono = all(a < b for ratios in all_ratios for a, b in zip(ratios, ratios[1:]))
    xs = np.array([x for rep in reports for x in rep["report"]["xs"]], dtype=float)
    ys = np.array([r for ratios in all_ratios for r in ratios])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, _), res, *_ = np.linalg.lstsq(design, ys, rcond=None)
    r2 = 1 - res[0] / ((ys - ys.mean()) ** 2).sum()
    elapsed = time.perf_counter() - t0
    same = matches_golden(4, {"ratios": all_ratios})
    ok = not any(codes) and mono and slope > 0 and r2 >= 0.8 and elapsed < 1800 and same
    emit(capsys, 4, ok,
         f"n=2^20, s in {tuple(reports[0]['report']['xs'])}, "
         f"{len(reports)} batteries x {reports[0]['report']['cert'][0]['trials']} "
         f"trials: ratios {[[round(r, 2) for r in rs] for rs in all_ratios]} "
         f"strictly increasing={mono}, pooled linear fit slope={slope:.3f}>0, "
         f"R^2={r2:.3f}>=0.8, bench --strict exits {list(codes)}, "
         f"{elapsed:.0f}s (cap 1800s), golden={same}")
    assert ok


def fixedpoint_iteration_bound(n, C):
    """S(n, C): one iteration of cert_fixedpoint_search's walk schedule,
    2*ceil(C*ceil(sqrt n))*ceil(C*ceil(n^(1/4))) queries, plus one follow
    around a default-length host cycle of floor(n^(3/4)) elements. It
    grows as 2*C^2*n^(3/4), so baseline/S grows as n^(1/4)."""
    rt2, rt4 = math.ceil(math.sqrt(n)), math.ceil(n ** 0.25)
    return 2 * math.ceil(C * rt2) * math.ceil(C * rt4) + int(n ** 0.75)


C5_NS = (1 << 12, 1 << 14, 1 << 16, 1 << 18)
C5_TRIALS = 16
C5_C = 2.0
C5_LANES = (("cert-fixedpoint", {"C": C5_C}),
            ("uniform-probe", {"target": "fixed-point"}))


def test_criterion_5_function_polynomial_separation(capsys):
    t0 = time.perf_counter()
    means = {det: [] for det, _ in C5_LANES}
    for n in C5_NS:
        queries = {det: [] for det, _ in C5_LANES}
        for s in range(C5_TRIALS):
            # seed s drives generator, relabel and detector alike
            inst, cert, _ = gen_fixedpoint_function(n, FixedPointParams(), seed=s)
            for det, kw in C5_LANES:
                out, valid = _trial(det, inst, cert, s, None, kw, s)
                assert out.found and valid, (det, n, s, out.status)
                queries[det].append(out.queries)
        for det, qs in queries.items():
            means[det].append(float(np.mean(qs)))
    ns = [float(n) for n in C5_NS]
    cs, bs = (slope_fit(ns, m).slope for m in means.values())
    cert_top, base_top = (m[-1] for m in means.values())
    elapsed = time.perf_counter() - t0
    # the paper promises a separation polynomial in n, not a constant at a
    # fixed n; at the top size the certificate must let the detector finish
    # within one iteration's worth of queries
    bound = fixedpoint_iteration_bound(C5_NS[-1], C5_C)
    same = matches_golden(5, {"cert_slope": cs, "base_slope": bs,
                              "cert_top": cert_top, "base_top": base_top})
    ok = 0.6 <= cs <= 0.9 and 0.85 <= bs <= 1.15 and cert_top <= bound \
        and elapsed < 1800 and same
    detail = (f"fixed-point search over n=2^12..2^18: cert slope {cs:.3f} "
              f"(need [0.6, 0.9]), baseline slope {bs:.3f} "
              f"(need [0.85, 1.15]), cert mean at 2^18 = {cert_top:.0f} "
              f"(need <= S = {bound}), baseline/cert ratio "
              f"{base_top / cert_top:.2f} (S implies >= "
              f"{base_top / bound:.2f}), {elapsed:.0f}s (cap 1800s), "
              f"golden={same}")
    emit(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_6_graph_polynomial_separation(tmp_path, capsys):
    t0 = time.perf_counter()
    code, rep = bench_battery("criterion6", tmp_path)
    cs, bs = (rep["fits"][label]["slope"] for label in ("certificate", "baseline"))
    top = {r["label"]: r["mean_queries"] for r in rep["rows"] if r["n"] == 1 << 18}
    cert_top, base_top = top["certificate"], top["baseline"]
    ratio = base_top / cert_top
    elapsed = time.perf_counter() - t0
    same = matches_golden(6, {"cert_slope": cs, "base_slope": bs,
                              "cert_top": cert_top, "base_top": base_top})
    ok = code == 0 and 0.35 <= cs <= 0.65 and 0.85 <= bs <= 1.15 \
        and ratio >= 10 and elapsed < 1200 and same
    emit(capsys, 6, ok,
         f"backbone k-star search over n=2^12..2^18: cert slope {cs:.3f} "
         f"(need [0.35, 0.65]), baseline slope {bs:.3f} (need [0.85, 1.15]), "
         f"ratio at 2^18 = {ratio:.2f} (need >= 10), bench --strict exit "
         f"{code}, {elapsed:.0f}s (cap 1200s), golden={same}")
    assert ok


C7_N = 1024
C7_SEEDS = 1000
C7_PARAMS = ScaleParams(i_min=2, i_max=4, rho=0.25)
C7_LANES = [
    ("collision-fn",
     lambda s: gen_collision_function(C7_N, C7_PARAMS, seed=s),
     "collision", {}, cert_collision_search, {}),
    ("claw-graph",
     lambda s: gen_claw_graph(C7_N, C7_PARAMS, seed=s),
     "claw", {}, cert_claw_search, {}),
    ("fixedpoint-fn",
     lambda s: gen_fixedpoint_function(C7_N, FixedPointParams(), seed=s),
     "fixed-point", {}, cert_fixedpoint_search,
     {"C": 2.0, "max_iterations": 8}),
    ("star-graph",
     lambda s: gen_star_graph(C7_N, "triangle", seed=s),
     "clique", {"h": 3}, cert_star_search, {}),
    ("starpath-graph",
     lambda s: gen_starpath_graph(C7_N, 4, seed=s),
     "k-star", {"k": 4}, cert_starpath_search, {}),
]


def test_criterion_7_brute_force_equivalence(capsys):
    t0 = time.perf_counter()
    count_mismatch = invalid = 0
    found_by_lane = {}
    for name, gen, target, bkw, det, dkw in C7_LANES:
        found = 0
        for seed in range(C7_SEEDS):
            inst, cert, meta = gen(seed)
            if len(brute_force_find(inst, target, **bkw)) != \
                    len(meta.witness_locations):
                count_mismatch += 1
                continue
            o = CountedOracle(inst, relabel_seed=seed, budget=60_000)
            out = det(o, cert, seed=seed, **dkw)
            if out.found:
                found += 1
                if not validate_witness(
                        inst, _unrelabel_witness(o, out.witness)):
                    invalid += 1
        found_by_lane[name] = found
    elapsed = time.perf_counter() - t0
    same = matches_golden(7, {"found_by_lane": found_by_lane})
    ok = count_mismatch == 0 and invalid == 0 and elapsed < 300 and same
    emit(capsys, 7, ok,
         f"1000 instances per construction at n=2^10: witness-count "
         f"mismatches {count_mismatch}, invalid Found-witnesses {invalid} "
         f"(both must be 0; found per lane "
         f"{sorted(found_by_lane.values())}), {elapsed:.0f}s (cap 300s), "
         f"golden={same}")
    assert ok


C8_RUNS = 500


def test_criterion_8_certificate_robustness(capsys):
    invalid = found = 0
    found_by_lane = {}
    for name, gen, _target, _bkw, det, dkw in C7_LANES:
        found_before = found
        for r in range(C8_RUNS):
            inst, cert, _ = gen(2000 + r // 10)
            kw = {}
            if name in ("collision-fn", "claw-graph"):
                kw["scale_window"] = (C7_PARAMS.i_min, C7_PARAMS.i_max)
            if name == "starpath-graph":
                kw["index_range"] = math.isqrt(C7_N)
            bad = corrupt_certificate(cert, seed=r, **kw)
            o = CountedOracle(inst, relabel_seed=r, budget=30_000)
            out = det(o, bad, seed=r, **dkw)
            if out.found:
                found += 1
                if not validate_witness(
                        inst, _unrelabel_witness(o, out.witness)):
                    invalid += 1
        found_by_lane[name] = found - found_before
    same = matches_golden(8, {"found_by_lane": found_by_lane})
    ok = invalid == 0 and same
    emit(capsys, 8, ok,
         f"{C8_RUNS} corrupted-certificate runs per certificate detector: "
         f"{found} Found outcomes, {invalid} invalid witnesses (must be 0), "
         f"golden={same}")
    assert ok


def _digest_tree(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


def _stdout_sans_wallms(capsys, outdir):
    lines = capsys.readouterr().out.splitlines()
    out = []
    for ln in lines:
        ln = ln.replace(outdir, "<out>")   # A/B dirs differ only here
        if ln.startswith("{"):
            rec = json.loads(ln)
            rec.pop("wall-ms", None)
            out.append(json.dumps(rec, sort_keys=True))
        else:
            out.append(ln)
    return out


def test_criterion_9_command_determinism(tmp_path, capsys):
    sep = {"kind": "separation", "master_seed": 11, "trials": 4,
           "pilot_trials": 3,
           "points": [
               {"x": 2, "n": 4096, "generator": "collision-fn",
                "gen_kwargs": {"params": {"i_min": 2, "i_max": 4, "c": 0.3}},
                "baseline_kwargs": {"i_min": 2, "i_max": 4}},
               {"x": 3, "n": 4096, "generator": "collision-fn",
                "gen_kwargs": {"params": {"i_min": 2, "i_max": 5, "c": 0.3}},
                "baseline_kwargs": {"i_min": 2, "i_max": 5}}]}
    slope = {"kind": "slope", "master_seed": 3, "series": [
        {"label": "walks", "generator": "fixedpoint-fn",
         "detector": "cert-fixedpoint", "det_kwargs": {"C": 2.0},
         "ns": [4096, 16384, 65536], "trials": 3}]}
    (tmp_path / "sep.json").write_text(json.dumps(sep))
    (tmp_path / "slope.json").write_text(json.dumps(slope))

    def commands(out):
        inst = f"{out}/collision-fn.instance.json"
        cert = f"{out}/collision-fn.certificate.json"
        return [
            ["gen", "--construction", "collision-fn", "--n", "4096",
             "--scales", "2..5", "--seed", "7", "--out-dir", out],
            ["gen", "--construction", "claw-graph", "--n", "2048",
             "--scales", "2..4", "--seed", "3", "--out-dir", out],
            ["gen", "--construction", "fixedpoint-fn", "--n", "4096",
             "--seed", "2", "--out-dir", out],
            ["gen", "--construction", "star-graph", "--n", "4096",
             "--H", "triangle", "--seed", "3", "--out-dir", out],
            ["gen", "--construction", "starpath-graph", "--n", "2048",
             "--k", "4", "--seed", "4", "--out-dir", out],
            ["run", "--instance", inst, "--cert", cert,
             "--detector", "cert-collision", "--seed", "3"],
            ["bench", "--battery", str(tmp_path / "sep.json"),
             "--out-dir", out, "--threads", "1", "--plot",
             "--prefix", "sep"],
            ["bench", "--battery", str(tmp_path / "slope.json"),
             "--out-dir", out, "--threads", "1", "--plot",
             "--prefix", "slope"],
            ["verify", "--instance", inst, "--cert", cert],
            ["adversary-test", "--n", "1024", "--scales", "2..4",
             "--seed", "5", "--probes", "300", "--out-dir", out],
            ["report", "--csv", f"{out}/slope.trials.csv",
             "--out-dir", out, "--plot"],
        ]

    transcripts = []
    for side in ("a", "b"):
        outdir = tmp_path / side
        outdir.mkdir()
        side_log = []
        for argv in commands(str(outdir)):
            code = cli_main(argv)
            side_log.append((argv[0], code,
                             _stdout_sans_wallms(capsys, str(outdir))))
        transcripts.append(side_log)
    da, db = _digest_tree(tmp_path / "a"), _digest_tree(tmp_path / "b")
    files_equal = da == db
    stdout_equal = transcripts[0] == transcripts[1]
    same = matches_golden(9, {"sha256": da})
    ok = files_equal and len(da) > 20 and stdout_equal and same
    emit(capsys, 9, ok,
         f"all six commands rerun with identical flags and seed: {len(da)} "
         f"output files byte-identical={files_equal}, stdout (minus wall-ms) "
         f"identical={stdout_equal}, golden={same}")
    assert ok
