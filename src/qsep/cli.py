"""Command-line surface: gen, run, bench, verify, adversary-test, report.

Every command is deterministic given its flags and master seed; wall-clock
readings go to stdout only, never into output files. Stdout is line
oriented: zero or more ``key=value`` status lines, then one JSON record.
Exit codes: 0 ok, 1 verification failure, 2 infeasible parameters or a
malformed battery spec, 3 model mismatch, 4 I/O (a missing or unreadable
file, or an instance or certificate file that breaks its format).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from qsep.adversary import AdversarySession
from qsep.detectors import brute_force_find, corrupt_certificate
from qsep.generators import (
    FixedPointParams,
    ParameterError,
    PrimeShortageError,
    ScaleParams,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
)
from qsep.harness import (
    CERT_KINDS,
    DETECTORS,
    SeparationPoint,
    TrialConfig,
    _seed_int,
    canonical_json,
    config_hash,
    read_trials_csv,
    run_trials,
    separation_experiment,
    slope_fit,
    write_report_json,
    write_trials_csv,
)
from qsep.oracle import (
    Certificate,
    CountedOracle,
    FileFormatError,
    ModelMismatchError,
    _unrelabel_witness,
    instance_to_jsonable,
    read_certificate,
    read_instance,
    validate_witness,
    write_json,
)
from qsep.svg import line_chart

EXIT_OK, EXIT_VERIFY, EXIT_PARAMS, EXIT_MODEL, EXIT_IO = 0, 1, 2, 3, 4

# each construction, by its short alias
_ALIASES = {"collision": "collision-fn", "fixedpoint": "fixedpoint-fn",
            "claw": "claw-graph", "star": "star-graph",
            "starpath": "starpath-graph"}


def _emit(args, record: dict) -> None:
    """Print a command's JSON record, stamped with the command's wall time."""
    record["wall-ms"] = args.wall_ms()
    print(canonical_json(record))


def _master_seed(args, default: int = 0) -> int:
    """--seed, else $QSEP_SEED, else default."""
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("QSEP_SEED")
    return int(env) if env else int(default)


def _sub_seed(master: int, *tags: int) -> int:
    return _seed_int(np.random.SeedSequence([int(master), *map(int, tags)]))


def _parse_scales(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ParameterError(f"expected A..B scale window, got {text!r}")
    return int(lo), int(hi)


def _given(args, *names) -> dict:
    """The named flags that were set, by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _out_path(args, prefix: str, name: str) -> Path:
    """<out-dir>/<prefix>.<name>, where --prefix, if given, replaces the
    command's default prefix."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{args.prefix or prefix}.{name}"


def _fit(ns, means):
    """The log-log slope fit of means over ns, or None unless there are
    at least three points spanning a factor of 4, all with positive means."""
    if len(ns) >= 3 and max(ns) / min(ns) >= 4 and all(m > 0 for m in means):
        return slope_fit([float(n) for n in ns], means)
    return None


# ---------------------------------------------------------------------------
# gen


def _scale_params(args) -> ScaleParams:
    kw = {}
    if args.scales:
        kw["i_min"], kw["i_max"] = _parse_scales(args.scales)
    kw.update(_given(args, "beta", "gamma", "c"))
    if args.rho is not None:
        kw["rho"] = args.rho if args.rho == "auto" else float(args.rho)
    return ScaleParams(**kw)


def _fixedpoint_params(args) -> FixedPointParams:
    return FixedPointParams(widen=args.widen_primes, **_given(
        args, "alpha", "cycle_len", "feeder_len", "T"))


def _capacity_line(construction: str, n: int, extras: dict) -> str:
    if construction in ("collision-fn", "claw-graph"):
        used = sum(a << i for a, i in zip(extras["a"], extras["scales"]))
        return (f"capacity used={used} n={n} rho={extras['rho']!r} "
                f"window={extras['scales'][0]}..{extras['scales'][-1]} "
                f"t={extras['t']} b_t={extras['b_t']}")
    if construction == "fixedpoint-fn":
        used = sum(extras["cycle_lens"]) + \
            sum(extras["feeders_per_cycle"]) * extras["feeder_len"]
        lo, hi = extras["window"]
        return (f"capacity used={used} n={n} cycles={extras['N']} "
                f"primes={len(extras['primes'])} window={lo:.6g}..{hi:.6g} "
                f"widened={extras['widened']}")
    if construction == "star-graph":
        used = sum(d + 1 for d in extras["degrees"])
        return (f"capacity used={used} n={n} centers={len(extras['degrees'])} "
                f"h={extras['h']}")
    used = sum(extras["sizes"]) if "sizes" in extras else n
    return (f"capacity used={used} n={n} s={extras['s']} "
            f"k={extras['k']} k_star={extras['k_star']}")


def cmd_gen(args) -> int:
    seed = _master_seed(args)
    construction = _ALIASES.get(args.construction, args.construction)
    n = args.n
    if n < 1:
        raise ParameterError(f"--n must be >= 1, got {n}")
    if construction == "collision-fn":
        filler = "cycles" if args.no_fixed_points else "fixed"
        inst, cert, meta = gen_collision_function(
            n, _scale_params(args), seed=seed, filler=filler,
            b_override=args.b_override, t_override=args.t_override)
    elif construction == "claw-graph":
        inst, cert, meta = gen_claw_graph(
            n, _scale_params(args), seed=seed,
            b_override=args.b_override, t_override=args.t_override)
    elif construction == "fixedpoint-fn":
        inst, cert, meta = gen_fixedpoint_function(
            n, _fixedpoint_params(args), seed=seed)
    elif construction == "star-graph":
        inst, cert, meta = gen_star_graph(n, args.H or "triangle", seed=seed)
    elif construction == "starpath-graph":
        inst, cert, meta = gen_starpath_graph(n, args.k, seed=seed)
    else:
        raise ParameterError(f"unknown construction {construction!r}")

    config = {"command": "gen", "construction": construction, "n": n,
              "seed": seed, "parameters": inst.info.get("parameters", {})}
    h = config_hash(config)
    docs = {"instance": instance_to_jsonable(inst),
            "certificate": cert.to_jsonable(),
            "meta": {"format": "qsep-meta", "version": 1,
                     "construction": construction, "n": n, "seed": seed,
                     "meta": meta.to_jsonable()}}
    paths = {kind: _out_path(args, construction, f"{kind}.json") for kind in docs}
    for kind, doc in docs.items():
        write_json(paths[kind], {**doc, "config_hash": h})

    print(_capacity_line(construction, n, meta.extras))
    _emit(args, {"command": "gen", "construction": construction, "n": n,
                 "seed": seed, "config-hash": h,
                 "files": {k: str(p) for k, p in paths.items()},
                 "witnesses": len(meta.witness_locations)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


# the detectors that read each detector flag of `run`; any other detector
# given the flag is a parameter error, not a silently ignored flag
_RESTARTING = ("cert-collision", "multiscale", "cert-claw")
_DETECTOR_FLAGS = {"C": ("cert-fixedpoint",), "k": ("uniform-probe",),
                   "target": ("uniform-probe",), "max_attempts": _RESTARTING}


def _budget(detector: str, det_kwargs: dict, n: int, budget):
    """The budget as given; else 16 n for a restarting walker without
    max_attempts, which would never end on an instance without a witness."""
    endless = detector in _RESTARTING and det_kwargs.get("max_attempts") is None
    return 16 * n if budget is None and endless else budget


def _detector_kwargs(args) -> dict:
    for name, takers in _DETECTOR_FLAGS.items():
        if getattr(args, name) is not None and args.detector not in takers:
            flag = "--" + name.replace("_", "-")
            raise ParameterError(f"{flag} does not apply to {args.detector}")
    # --scales is multiscale's window, or the window a corrupted scale
    # certificate draws its wrong scale from
    scale_cert = args.detector in ("cert-collision", "cert-claw")
    if args.scales is not None and args.detector != "multiscale" \
            and not (scale_cert and args.corrupt_cert):
        raise ParameterError(f"--scales does not apply to {args.detector}"
                             + (" without --corrupt-cert" if scale_cert else ""))
    kw = _given(args, "C", "k", "max_attempts")
    if args.detector == "multiscale":
        kw["i_min"], kw["i_max"] = _parse_scales(args.scales or "2..8")
    if args.detector == "uniform-probe":
        kw["target"] = args.target or "fixed-point"
        if kw["target"] == "k-star" and "k" not in kw:
            raise ParameterError("--target k-star needs --k")
    return kw


def cmd_run(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise ParameterError(f"--budget must be >= 0, got {args.budget}")
    det_kwargs = _detector_kwargs(args)
    seed = _master_seed(args)
    inst = read_instance(args.instance)
    cert = read_certificate(args.cert) if args.cert else None
    kinds = CERT_KINDS.get(args.detector)
    if kinds and (cert is None or cert.kind not in kinds):
        got = "no --cert" if cert is None else f"a {cert.kind} certificate"
        raise ParameterError(f"{args.detector} needs a {' or '.join(kinds)} "
                             f"certificate, got {got}")
    if args.corrupt_cert:
        if cert is None:
            raise ParameterError("--corrupt-cert needs --cert")
        window = _parse_scales(args.scales) if args.scales else None
        index_range = None
        if inst.meta is not None and "s" in inst.meta.extras:
            index_range = inst.meta.extras["s"]
        cert = corrupt_certificate(cert, seed=_sub_seed(seed, 2),
                                   scale_window=window,
                                   index_range=index_range)
    relabel_seed = None if args.no_relabel else _sub_seed(seed, 0)
    budget = _budget(args.detector, det_kwargs, inst.n, args.budget)
    oracle = CountedOracle(inst, relabel_seed=relabel_seed, budget=budget)
    outcome = DETECTORS[args.detector](oracle, cert, _sub_seed(seed, 1),
                                       **det_kwargs)
    valid = None
    if outcome.found:
        valid = validate_witness(inst, _unrelabel_witness(oracle,
                                                          outcome.witness))
    _emit(args, {
        "command": "run",
        "detector": args.detector,
        "instance-ref": str(args.instance),
        "seed": seed,
        "status": outcome.status,
        "queries": outcome.queries,
        "attempts": outcome.attempts,
        "witness": list(outcome.witness.vertices) if outcome.found else None,
        "valid": valid,
        "corrupted-cert": bool(args.corrupt_cert),
    })
    return EXIT_OK if valid in (None, True) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# bench


def _bench_separation(spec: dict, args, master: int):
    """Run a separation battery; return its trial rows, report fields,
    chart (series and axes), record fields and warning count."""
    points = [SeparationPoint(
        x=p["x"], n=p["n"], generator=p["generator"],
        gen_kwargs=p.get("gen_kwargs", {}),
        cert_detector=p.get("cert_detector", "cert-collision"),
        cert_kwargs=p.get("cert_kwargs", {}),
        baseline_detector=p.get("baseline_detector", "multiscale"),
        baseline_kwargs=p.get("baseline_kwargs", {}),
    ) for p in spec["points"]]
    rep = separation_experiment(
        points, trials=spec.get("trials", 20), master_seed=master,
        budget_factor=spec.get("budget_factor", 50.0),
        pilot_trials=spec.get("pilot_trials", 6), workers=args.threads)

    rows = [{"x": x, "n": n, "budget": b, "cert_mean": cm, "base_mean": bm,
             "ratio": r}
            for x, n, b, cm, bm, r in zip(rep.xs, rep.ns, rep.budgets,
                                          rep.cert_means, rep.base_means,
                                          rep.ratios)]
    warn = 0
    for x, cs, bs in zip(rep.xs, rep.cert_stats, rep.base_stats):
        print(f"point x={x} cert_mean={cs.mean_queries!r} "
              f"base_mean={bs.mean_queries!r} "
              f"cert_found={cs.successes}/{cs.trials} "
              f"base_found={bs.successes}/{bs.trials}")
        warn += cs.trials - cs.successes
    chart = ([("certificate", rep.xs, rep.cert_means),
              ("baseline", rep.xs, rep.base_means)],
             {"title": "mean queries per point", "xlabel": "x",
              "ylabel": "queries", "logy": True})
    return (rep.rows, {"rows": rows, "report": rep.to_jsonable()}, chart,
            {"points": len(points), "ratios": rep.ratios}, warn)


def _bench_slope(spec: dict, args, master: int):
    """Run a slope battery; return what _bench_separation returns."""
    all_rows, summary, svg_series, fits, warn = [], [], [], {}, 0
    for si, series in enumerate(spec["series"]):
        label = series["label"]
        det_kwargs = series.get("det_kwargs", {})
        means = []
        for ni, n in enumerate(series["ns"]):
            cfg = TrialConfig(
                generator=series["generator"], detector=series["detector"],
                n=int(n), trials=series.get("trials", 10),
                master_seed=master,
                gen_kwargs=series.get("gen_kwargs", {}),
                det_kwargs=det_kwargs,
                budget=_budget(series["detector"], det_kwargs, int(n),
                               series.get("budget")),
                point=si * 1000 + ni)
            stats, rows = run_trials(cfg, workers=args.threads)
            all_rows.extend(rows)
            means.append(stats.mean_queries)
            warn += stats.trials - stats.successes
            summary.append({
                "label": label, "n": int(n), "trials": stats.trials,
                "successes": stats.successes,
                "mean_queries": stats.mean_queries,
                "stderr_queries": stats.stderr_queries})
            print(f"series label={label} n={n} "
                  f"mean_queries={stats.mean_queries!r} "
                  f"found={stats.successes}/{stats.trials}")
        ns = [float(n) for n in series["ns"]]
        fits[label] = None
        f = _fit(ns, means)
        if f is not None:
            fits[label] = {"slope": f.slope, "intercept": f.intercept,
                           "stderr": f.stderr, "r2": f.r2}
            print(f"series label={label} slope={f.slope!r} r2={f.r2!r}")
        svg_series.append((label, ns, means))
    chart = (svg_series, {"title": "query scaling", "xlabel": "n",
                          "ylabel": "mean queries", "logx": True, "logy": True})
    return (all_rows, {"rows": summary, "fits": fits}, chart,
            {"rows": len(summary)}, warn)


# per battery kind: its list of entries and the keys each entry needs
_BATTERY_KEYS = {"separation": ("points", ("x", "n", "generator")),
                 "slope": ("series", ("label", "generator", "detector", "ns"))}


def _check_battery(spec) -> str:
    """Return the spec's kind, or raise ParameterError naming what is missing."""
    if not isinstance(spec, dict):
        raise ParameterError("battery spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in _BATTERY_KEYS:
        raise ParameterError(f"battery kind must be separation|slope, got {kind!r}")
    key, needed = _BATTERY_KEYS[kind]
    entries = spec.get(key)
    if not isinstance(entries, list) or not entries:
        raise ParameterError(f"a {kind} battery needs a non-empty {key!r} list")
    for j, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParameterError(f"{key}[{j}] must be a JSON object")
        missing = [k for k in needed if k not in entry]
        if missing:
            raise ParameterError(f"{key}[{j}] lacks {', '.join(map(repr, missing))}")
    return kind


def cmd_bench(args) -> int:
    spec = json.loads(Path(args.battery).read_text())
    kind = _check_battery(spec)
    master = _master_seed(args, spec.get("master_seed", 0))
    h = config_hash({"battery": {k: v for k, v in spec.items()
                                 if not k.startswith("_")},
                     "master_seed": master})
    run = _bench_separation if kind == "separation" else _bench_slope
    trial_rows, report, (series, axes), record, warn = run(spec, args, master)
    write_trials_csv(_out_path(args, kind, "trials.csv"), trial_rows,
                     config_hash=h)
    write_report_json(_out_path(args, kind, "report.json"),
                      {"config_hash": h, "kind": kind, **report})
    if args.plot:
        _out_path(args, kind, "svg").write_text(
            line_chart(series, header=f"config {h}", **axes))
    _emit(args, {"command": "bench", "kind": kind, "seed": master,
                 "config-hash": h, **record, "warnings": warn})
    return EXIT_VERIFY if args.strict and warn else EXIT_OK


# ---------------------------------------------------------------------------
# verify


class _VerifyFailure(Exception):
    def __init__(self, invariant: str, detail: str):
        super().__init__(detail)
        self.invariant = invariant


def _check_function_structures(inst) -> None:
    succ, meta = inst.succ, inst.meta
    for kind, _, members in meta.structures():
        m = np.asarray(members)
        if kind in ("path", "feeder"):
            if not np.array_equal(succ[m[:-1]], m[1:]):
                raise _VerifyFailure(
                    "partition", f"{kind} interior does not chain under f")
        elif kind == "cycle":
            if not np.array_equal(succ[m], np.roll(m, -1)):
                raise _VerifyFailure("partition", "cycle does not close under f")
        elif kind == "isolated":
            if not np.array_equal(succ[m], m):
                raise _VerifyFailure("partition", "isolated element not fixed")


# per construction: the brute-force target, its plural, and the meta
# extras that verify reads
_BRUTE_TARGETS = {
    "collision-fn": ("collision", "collisions", ("t",)),
    "fixedpoint-fn": ("fixed-point", "fixed points", ("primes", "cycle_lens")),
    "claw-graph": ("claw", "claws", ("t",)),
    "star-graph": ("clique", "cliques", ("h", "degrees")),
    "starpath-graph": ("k-star", "k-stars", ("k", "k_star")),
}


def _verify_witness_counts(inst, construction: str) -> str:
    target, label, _ = _BRUTE_TARGETS[construction]
    extras = inst.meta.extras
    kw = {}
    if target == "clique":
        kw["h"] = extras["h"]
        if extras["h"] == 0:
            return f"{label}: 0 expected / 0 found (no planted copy)"
    if target == "k-star":
        kw["k"] = extras["k"]
    hits = brute_force_find(inst, target, **kw)
    expected = len(inst.meta.witness_locations)
    if len(hits) != expected:
        raise _VerifyFailure(
            "witness-count", f"{label}: {expected} expected / {len(hits)} found")
    return f"{label}: {expected} expected / {len(hits)} found"


def cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    if inst.meta is None:
        raise ParameterError("instance file has no meta block to verify against")
    construction = inst.info.get("construction")
    if construction not in _BRUTE_TARGETS:
        raise ParameterError(f"unknown construction {construction!r}")
    missing = [k for k in _BRUTE_TARGETS[construction][2]
               if k not in inst.meta.extras]
    if missing:
        raise FileFormatError(f"meta extras lack {', '.join(map(repr, missing))}")
    limit = 1 << 13
    if inst.n > limit:
        raise ParameterError(
            f"n = {inst.n} exceeds the brute-force guard {limit}")
    checks: list[str] = []
    try:
        if not inst.meta.check_partition(inst.n):
            raise _VerifyFailure("partition",
                                 "structures do not partition the domain")
        if inst.model == "function":
            _check_function_structures(inst)
        checks.append("partition: ok")
        checks.append(_verify_witness_counts(inst, construction))

        extras = inst.meta.extras
        if construction == "fixedpoint-fn":
            ps, lens = extras["primes"], extras["cycle_lens"]
            if len(set(ps)) != len(ps):
                raise _VerifyFailure("prime-spacing", "primes are not distinct")
            if any(ln % p for p, ln in zip(ps, lens)):
                raise _VerifyFailure(
                    "prime-spacing", "cycle length not a multiple of its prime")
            checks.append(f"prime-spacing: ok ({len(ps)} cycles)")
        if construction == "star-graph":
            degs = [int(d) for d in extras["degrees"]]
            if len(set(degs)) != len(degs):
                raise _VerifyFailure("degree-uniqueness",
                                     "center degrees collide")
            checks.append(f"degree-uniqueness: ok ({len(degs)} centers)")
        if args.cert:
            cert = read_certificate(args.cert)
            _verify_certificate(inst, cert, construction)
            checks.append(f"certificate: ok ({cert.kind})")
    except _VerifyFailure as vf:
        for line in checks:
            print(line)
        print(f"FAIL {vf.invariant}: {vf}")
        _emit(args, {"command": "verify", "instance-ref": str(args.instance),
                     "ok": False, "failed": vf.invariant})
        return EXIT_VERIFY
    for line in checks:
        print(line)
    _emit(args, {"command": "verify", "instance-ref": str(args.instance),
                 "ok": True, "checks": len(checks)})
    return EXIT_OK


def _verify_certificate(inst, cert: Certificate, construction: str) -> None:
    extras = inst.meta.extras
    if construction in ("collision-fn", "claw-graph"):
        if cert.kind not in ("CollisionScale", "ClawScale") \
                or int(cert.payload["t"]) != int(extras["t"]):
            raise _VerifyFailure("certificate", "good scale mismatch")
    elif construction == "fixedpoint-fn":
        if cert.kind != "FixedPointPrimes" \
                or sorted(cert.payload["primes"]) != sorted(extras["primes"]):
            raise _VerifyFailure("certificate", "prime set mismatch")
    elif construction == "star-graph":
        hosts = extras.get("host_stars", [])
        good = sorted(int(extras["degrees"][i]) for i in hosts)
        if cert.kind != "StarDegrees" \
                or sorted(map(int, cert.payload["degrees"])) != good:
            raise _VerifyFailure("certificate", "good degree set mismatch")
    else:
        if cert.kind != "BackboneIndex" \
                or int(cert.payload["index"]) != int(extras["k_star"]) \
                or int(cert.payload["k"]) != int(extras["k"]):
            raise _VerifyFailure("certificate", "backbone index mismatch")


# ---------------------------------------------------------------------------
# adversary-test


def cmd_adversary_test(args) -> int:
    seed = _master_seed(args)
    lo, hi = _parse_scales(args.scales or "2..4")
    params = ScaleParams(i_min=lo, i_max=hi, **(
        {"rho": float(args.rho)} if args.rho not in (None, "auto") else {}))
    session = AdversarySession(args.n, params, seed=_sub_seed(seed, 0))
    rng = np.random.default_rng(_sub_seed(seed, 1))
    transcript = []
    for _ in range(args.probes):
        v = int(rng.integers(args.n))
        if rng.random() < 0.5:
            transcript.append(("degree", v, None, session.probe_degree(v)))
        else:
            i = int(rng.integers(3))
            try:
                ans = session.probe_neighbor(v, i)
            except IndexError:
                ans = "index-error"
            transcript.append(("neighbor", v, i, ans))
    inst = session.finalize()
    offline = CountedOracle(inst)
    consistent = True
    for op, v, i, ans in transcript:
        if op == "degree":
            replay = offline.query_degree(v)
        else:
            try:
                replay = offline.query_neighbor(v, i)
            except IndexError:
                replay = "index-error"
        if replay != ans:
            consistent = False
            break
    session.write_trace(_out_path(args, "adversary", "trace.jsonl"))
    h = config_hash({"command": "adversary-test", "n": args.n,
                     "scales": [lo, hi], "probes": args.probes,
                     "seed": seed})
    write_report_json(_out_path(args, "adversary", "summary.json"), {
        "config_hash": h, "n": args.n, "scales": [lo, hi],
        "probes": args.probes, "good_scale": session.good,
        "consistent": consistent})
    _emit(args, {"command": "adversary-test", "n": args.n, "seed": seed,
                 "config-hash": h, "probes": args.probes,
                 "good-scale": session.good, "consistent": consistent})
    return EXIT_OK if consistent else EXIT_VERIFY


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    rows = []
    for path in args.csv:
        rows.extend(read_trials_csv(path))
    groups: dict[tuple, dict[int, list[int]]] = {}
    for r in rows:
        key = (r["generator"], r["detector"])
        groups.setdefault(key, {}).setdefault(int(r["n"]), []).append(
            int(r["queries"]))
    summary, svg_series = [], []
    for (gen, det), per_n in sorted(groups.items()):
        ns = sorted(per_n)
        means = [float(np.mean(per_n[n])) for n in ns]
        line = f"group generator={gen} detector={det} points={len(ns)}"
        fit = None
        f = _fit(ns, means)
        if f is not None:
            fit = {"slope": f.slope, "stderr": f.stderr, "r2": f.r2}
            line += f" slope={f.slope!r} r2={f.r2!r}"
        print(line)
        summary.append({"generator": gen, "detector": det, "ns": ns,
                        "mean_queries": means, "fit": fit})
        svg_series.append((f"{gen}/{det}", [float(n) for n in ns], means))
    # hash input contents, not paths, so moving the CSVs does not change it
    digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in args.csv]
    h = config_hash({"command": "report", "inputs": digests})
    write_report_json(_out_path(args, "report", "json"),
                      {"config_hash": h, "groups": summary})
    if args.plot and svg_series:
        _out_path(args, "report", "svg").write_text(line_chart(
            svg_series, title="query scaling", xlabel="n",
            ylabel="mean queries", logx=True, logy=True, header=f"config {h}"))
    _emit(args, {"command": "report", "groups": len(summary), "config-hash": h})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsep",
        description="planted-substructure instances, certificate-aided "
                    "search, and query-count experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: $QSEP_SEED, then 0)")
        p.add_argument("--out-dir", default=".",
                       help="directory for output files")
        p.add_argument("--prefix", default=None,
                       help="output filename prefix")

    g = sub.add_parser("gen", help="generate an instance with certificate")
    common(g)
    g.add_argument("--construction", required=True,
                   choices=sorted(_ALIASES.values()) + sorted(_ALIASES))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--scales", default=None, help="scale window A..B")
    g.add_argument("--beta", type=float, default=None)
    g.add_argument("--gamma", type=float, default=None)
    g.add_argument("--c", type=float, default=None)
    g.add_argument("--rho", default=None, help="density in (0,1] or 'auto'")
    g.add_argument("--b-override", type=int, default=None, dest="b_override")
    g.add_argument("--t-override", type=int, default=None, dest="t_override")
    g.add_argument("--no-fixed-points", action="store_true",
                   dest="no_fixed_points",
                   help="fill leftovers with 2-/3-cycles instead")
    g.add_argument("--alpha", type=float, default=None)
    g.add_argument("--cycle-len", type=int, default=None, dest="cycle_len")
    g.add_argument("--feeder-len", type=int, default=None, dest="feeder_len")
    g.add_argument("--T", type=int, default=None)
    g.add_argument("--widen-primes", action="store_true", dest="widen_primes")
    g.add_argument("--k", type=int, default=4)
    g.add_argument("--H", default=None, help="clique spec: 'triangle' or size")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run one detector against an instance file")
    common(r)
    r.add_argument("--instance", required=True)
    r.add_argument("--cert", default=None)
    r.add_argument("--detector", required=True, choices=sorted(DETECTORS))
    r.add_argument("--budget", type=int, default=None, help="query budget "
                   "(default: 16 n where --max-attempts applies but is unset)")
    r.add_argument("--corrupt-cert", action="store_true", dest="corrupt_cert")
    r.add_argument("--no-relabel", action="store_true", dest="no_relabel")
    r.add_argument("--scales", default=None, help="window A..B (multiscale; "
                   "cert-collision, cert-claw with --corrupt-cert)")
    r.add_argument("--k", type=int, default=None, help="uniform-probe star size")
    r.add_argument("--target", default=None, choices=("fixed-point", "k-star"),
                   help="uniform-probe target (default: fixed-point)")
    r.add_argument("--C", type=float, default=None, help="cert-fixedpoint only")
    r.add_argument("--max-attempts", type=int, default=None, dest="max_attempts",
                   help="cert-collision, multiscale and cert-claw only")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("bench", help="run a battery spec file")
    common(b)
    b.add_argument("--battery", required=True, help="battery spec JSON")
    b.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    b.add_argument("--plot", action="store_true")
    b.add_argument("--strict", action="store_true",
                   help="exit 1 if any trial misses its witness")
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="offline ground-truth checks")
    common(v)
    v.add_argument("--instance", required=True)
    v.add_argument("--cert", default=None)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("adversary-test",
                       help="probe the online constructor and replay the "
                            "transcript offline")
    common(a)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--scales", default=None, help="scale window A..B")
    a.add_argument("--rho", default=None)
    a.add_argument("--probes", type=int, default=256)
    a.set_defaults(func=cmd_adversary_test)

    rp = sub.add_parser("report", help="aggregate trial CSVs")
    common(rp)
    rp.add_argument("--csv", nargs="+", required=True)
    rp.add_argument("--plot", action="store_true")
    rp.set_defaults(func=cmd_report)
    return ap


# the exit code of each error a command may end in
_EXIT_CODES = {ParameterError: EXIT_PARAMS, ModelMismatchError: EXIT_MODEL,
               OSError: EXIT_IO, json.JSONDecodeError: EXIT_IO,
               FileFormatError: EXIT_IO}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    args.wall_ms = lambda: round((time.perf_counter() - t0) * 1e3, 3)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, PrimeShortageError):
            print("hint: widen the prime window with --widen-primes",
                  file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
