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
import dataclasses
import functools
import hashlib
import inspect
import math
import os
import sys
import time
from pathlib import Path
from types import MappingProxyType

import numpy as np

from qsep import generators
from qsep.adversary import AdversarySession
from qsep.detectors import BRUTE_FORCE_MAX_N, brute_force_find, corrupt_certificate
# the generators stay importable here, where perfbench wraps them
from qsep.generators import (  # noqa: F401
    FAMILIES,
    ParameterError,
    PrimeShortageError,
    ScaleParams,
    VerifyFailure,
    _at_least,
    check_type,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
)
from qsep.harness import (
    DETECTOR_KEYWORDS,
    DETECTORS,
    SeparationPoint,
    TrialConfig,
    _naming,
    _seed_int,
    _trial,
    canonical_json,
    config_hash,
    read_trials_csv,
    run_trials,
    separation_experiment,
    slope_fit,
    trial_budget,
    write_report_json,
    write_trials_csv,
)
# validate_witness stays importable here, where perfbench wraps it
from qsep.oracle import (  # noqa: F401
    KIND_CYCLE,
    KIND_FEEDER,
    KIND_ISOLATED,
    KIND_PATH,
    CountedOracle,
    FileFormatError,
    ModelMismatchError,
    instance_to_jsonable,
    read_certificate,
    read_instance,
    read_json,
    validate_witness,
    write_json,
)
from qsep.svg import line_chart

EXIT_OK, EXIT_VERIFY, EXIT_PARAMS, EXIT_MODEL, EXIT_IO = 0, 1, 2, 3, 4


def _emit(args, record: dict) -> None:
    """Print a command's JSON record, stamped with the command's wall time."""
    record["wall-ms"] = args.wall_ms()
    print(canonical_json(record))


def _master_seed(args, default: int = 0) -> int:
    """--seed, else $QSEP_SEED, else default; a seed given must be an
    integer >= 0."""
    name, seed = ("--seed", args.seed) if args.seed is not None else \
        ("$QSEP_SEED", os.environ.get("QSEP_SEED") or default)
    try:
        seed = int(seed)
    except ValueError:
        raise ParameterError(f"{name} must be an integer, got {seed!r}") from None
    _at_least(name, seed, 0)
    return seed


def _sub_seed(master: int, *tags: int) -> int:
    return _seed_int(np.random.SeedSequence([int(master), *map(int, tags)]))


def _parse_scales(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
    except ValueError:
        pass
    raise ParameterError(f"expected A..B scale window, got {text!r}")


def _given(args, *names) -> dict:
    """The named flags that were set, by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _rho(text: str):
    return text if text == "auto" else float(text)


def _out_path(args, prefix: str, name: str) -> Path:
    """<out-dir>/<prefix>.<name>, where --prefix, if given, replaces the
    command's default prefix."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{args.prefix or prefix}.{name}"


def _fit(ns, means):
    """The log-log slope fit of means over ns, or None where slope_fit
    refuses them."""
    try:
        return slope_fit(ns, means)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    seed = _master_seed(args)
    family = next(f for f in FAMILIES.values()
                  if args.construction in (f.name, f.alias))
    construction, n = family.name, args.n
    _at_least("--n", n, 1)
    # args.flags maps each construction flag's dest to its spelling
    given = _given(args, *args.flags)
    stray = [args.flags[dest] for dest in given if dest not in family.flags]
    if stray:
        raise ParameterError(f"{construction} does not read {', '.join(stray)}")
    if "scales" in given:
        given["i_min"], given["i_max"] = _parse_scales(given.pop("scales"))
    params = {k: given.pop(k) for k in list(given) if k not in family.keywords}
    inst, cert = family.make(n, seed, **given, **({"params": params} if params else {}))
    meta = inst.meta

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

    print(family.capacity(n, meta.extras))
    _emit(args, {"command": "gen", "construction": construction, "n": n,
                 "seed": seed, "config-hash": h,
                 "files": {k: str(p) for k, p in paths.items()},
                 "witnesses": len(meta.witness_locations)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _detector_kwargs(args) -> dict:
    # a detector flag applies to the detectors whose signature takes it
    kw = _given(args, "C", "k", "target", "max_attempts")
    for name in kw:
        if name not in DETECTOR_KEYWORDS[args.detector]:
            raise ParameterError(f"--{name.replace('_', '-')} does not apply "
                                 f"to {args.detector}")
    # --scales is multiscale's window, or the window a corrupted scale
    # certificate draws its wrong scale from
    scale_cert = args.detector in ("cert-collision", "cert-claw")
    if args.scales is not None and args.detector != "multiscale" \
            and not (scale_cert and args.corrupt_cert):
        raise ParameterError(f"--scales does not apply to {args.detector}"
                             + (" without --corrupt-cert" if scale_cert else ""))
    if args.detector == "multiscale":
        kw["i_min"], kw["i_max"] = _parse_scales(args.scales or "2..8")
    if args.detector == "uniform-probe":
        kw.setdefault("target", "fixed-point")
    return kw


def cmd_run(args) -> int:
    _at_least("--budget", args.budget, 0)
    det_kwargs = _detector_kwargs(args)
    seed = _master_seed(args)
    inst = read_instance(args.instance)
    cert = read_certificate(args.cert) if args.cert else None
    if args.corrupt_cert:
        if cert is None:
            raise ParameterError("--corrupt-cert needs --cert")
        window = _parse_scales(args.scales) if args.scales else None
        cert = corrupt_certificate(
            cert, seed=_sub_seed(seed, 2), scale_window=window,
            index_range=inst.meta.extras.get("s") if inst.meta is not None else None)
    outcome, valid = _trial(args.detector, inst, cert,
                            None if args.no_relabel else _sub_seed(seed, 0),
                            args.budget, det_kwargs, _sub_seed(seed, 1))
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
    fields = {f.name for f in dataclasses.fields(SeparationPoint)}
    points = [SeparationPoint(**{k: v for k, v in p.items() if k in fields})
              for p in spec["points"]]
    given = {k: spec[k] for k in ("budget_factor", "pilot_trials") if k in spec}
    rep = separation_experiment(points, trials=spec.get("trials", 20),
                                master_seed=master, workers=args.threads, **given)

    keys = ("x", "n", "budget", "cert_mean", "base_mean", "ratio")
    rows = [dict(zip(keys, row)) for row in zip(
        rep.xs, rep.ns, rep.budgets, rep.cert_means, rep.base_means, rep.ratios)]
    warn = 0
    for x, found, cs, bs in zip(rep.xs, rep.pilot_found, rep.cert_stats, rep.base_stats):
        print(f"point x={x} cert_mean={cs.mean_queries!r} "
              f"base_mean={bs.mean_queries!r} "
              f"cert_found={cs.successes}/{cs.trials} "
              f"base_found={bs.successes}/{bs.trials}")
        # a lane cut short, or a pilot that set no budget, is a warning
        warn += cs.trials - cs.successes + bs.trials - bs.successes + (found == 0)
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
                budget=trial_budget(series["detector"], det_kwargs, int(n),
                                    series.get("budget")),
                point=si * 1000 + ni)
            with _naming(f"series[{si}] (n {n})"):
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


# per battery kind: its list of entries, the keys each entry needs, and
# each keyword-argument object an entry may carry with the field naming
# the generator or detector it goes to
_BATTERY_KEYS = {
    "separation": ("points", ("x", "n", "generator"),
                   (("gen_kwargs", "generator"),
                    ("cert_kwargs", "cert_detector"),
                    ("baseline_kwargs", "baseline_detector"))),
    "slope": ("series", ("label", "generator", "detector", "ns"),
              (("gen_kwargs", "generator"), ("det_kwargs", "detector"))),
}


def _integer(lo: int):
    return (lambda v: type(v) is int and v >= lo), f"an integer >= {lo}"


def _named(table: dict, what: str):
    return (lambda v: isinstance(v, str) and v in table), \
        f"one of the {what}s {', '.join(sorted(table))}"


# what a battery field must hold, at the top of the spec or in an entry
_FIELD_RULES = {
    "master_seed": _integer(0), "trials": _integer(0),
    "pilot_trials": _integer(1), "n": _integer(1),
    "budget": ((lambda v: v is None or type(v) is int and v >= 0),
               "null or an integer >= 0"),
    "budget_factor": ((lambda v: type(v) in (int, float) and 0 < v < math.inf),
                      "a positive number"),
    "x": ((lambda v: type(v) in (int, float) and math.isfinite(v)),
          "a finite number"),
    "label": ((lambda v: isinstance(v, str)), "a string"),
    "ns": ((lambda v: isinstance(v, list) and len(v) > 0
            and all(type(m) is int and m >= 1 for m in v)),
           "a non-empty list of integers >= 1"),
    "generator": _named(FAMILIES, "generator"),
    **{key: _named(DETECTORS, "detector")
       for key in ("detector", "cert_detector", "baseline_detector")},
}


def _check_fields(where: str, obj: dict) -> None:
    for key, value in obj.items():
        rule = _FIELD_RULES.get(key)
        if rule is not None and not rule[0](value):
            raise ParameterError(f"{where}{key} must be {rule[1]}, got {value!r}")


# each detector's and generator's keywords; a generator's defaults are its record's
_KEYWORDS = {**DETECTOR_KEYWORDS, **{
    name: {key: inspect.signature(getattr(generators, f.generator)).parameters[key]
           .replace(default=default) for key, default in f.keywords.items()}
    for name, f in FAMILIES.items()}}


def _check_kwargs(where: str, name: str, kwargs) -> None:
    """kwargs must be an object naming only keywords the generator or
    detector `name` takes, and every one it needs, each holding a value
    its annotation admits, with a generator's params parsed."""
    if not isinstance(kwargs, dict):
        raise ParameterError(f"{where} must be a JSON object, got {kwargs!r}")
    takes = _KEYWORDS[name]
    unknown = [key for key in kwargs if key not in takes]
    if unknown:
        raise ParameterError(f"{where} names {', '.join(map(repr, unknown))}, "
                             f"which {name} does not take")
    missing = [key for key, p in takes.items()
               if p.default is p.empty and key not in kwargs]
    if missing:
        raise ParameterError(f"{where} lacks {', '.join(map(repr, missing))}, "
                             f"which {name} needs")
    for key, value in kwargs.items():
        if key != "params":
            check_type(f"{where}.{key}", value, takes[key].annotation)
    if name in FAMILIES:
        FAMILIES[name].arguments(kwargs, f"{where}.params")


def _check_battery(spec) -> str:
    """Return the spec's kind, or raise ParameterError naming the first
    field that is missing or malformed, before any trial runs."""
    if not isinstance(spec, dict):
        raise ParameterError("battery spec must be a JSON object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _BATTERY_KEYS:
        raise ParameterError(f"battery kind must be separation|slope, got {kind!r}")
    key, needed, kwargs_of = _BATTERY_KEYS[kind]
    entries = spec.get(key)
    if not isinstance(entries, list) or not entries:
        raise ParameterError(f"a {kind} battery needs a non-empty {key!r} list")
    _check_fields("", spec)
    for j, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParameterError(f"{key}[{j}] must be a JSON object")
        missing = [k for k in needed if k not in entry]
        if missing:
            raise ParameterError(f"{key}[{j}] lacks {', '.join(map(repr, missing))}")
        _check_fields(f"{key}[{j}].", entry)
        for kw, owner in kwargs_of:
            # a separation point's detectors default to SeparationPoint's
            name = entry[owner] if owner in entry else getattr(SeparationPoint, owner)
            _check_kwargs(f"{key}[{j}].{kw}", name, entry.get(kw, {}))
    return kind


def cmd_bench(args) -> int:
    _at_least("--threads", args.threads, 1)
    spec = read_json(args.battery)
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


_STRUCTURE_FAILURES = {KIND_PATH: "path interior does not chain under f",
                       KIND_FEEDER: "feeder interior does not chain under f",
                       KIND_CYCLE: "cycle does not close under f",
                       KIND_ISOLATED: "isolated element not fixed"}


def _check_function_structures(inst) -> None:
    """Paths and feeders chain under f, cycles close and isolated elements
    are fixed: one pass over all members, reduced per structure."""
    meta, m = inst.meta, inst.meta.members
    held = np.diff(meta.offsets) > 0
    starts, ends = meta.offsets[:-1][held], meta.offsets[1:][held]
    if not len(starts):
        return
    kind = np.repeat(meta.kinds[held], ends - starts)
    f, nxt = inst.succ[m], np.r_[m[1:], 0]
    nxt[ends - 1] = m[starts]  # each structure's last member wraps to its first
    chains, fixed = f == nxt, f == m
    is_open, is_cycle = np.isin(kind, (KIND_PATH, KIND_FEEDER)), kind == KIND_CYCLE
    chains[ends - 1] |= is_open[ends - 1]  # a path's last arrow leaves it
    ok = np.select([is_open | is_cycle, kind == KIND_ISOLATED], [chains, fixed], True)
    # a witness planted on a cycle is a fixed point cutting it
    planted = np.isin(m, [v for w in meta.witness_locations for v in w])
    cut = np.where(planted & is_cycle, fixed, ok)
    ok = np.logical_and.reduceat(ok, starts) | np.logical_and.reduceat(cut, starts)
    if not ok.all():
        raise VerifyFailure("partition", _STRUCTURE_FAILURES[kind[starts[ok.argmin()]]])


def _verify_witness_counts(inst, family) -> str:
    target, label, keys = family.target
    hits = brute_force_find(inst, target,
                            **{key: inst.meta.extras[key] for key in keys})
    expected = len(inst.meta.witness_locations)
    line = f"{label}: {expected} expected / {len(hits)} found"
    if len(hits) != expected:
        raise VerifyFailure("witness-count", line)
    return line


def cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    if inst.meta is None:
        raise ParameterError("instance file has no meta block to verify against")
    construction = inst.info.get("construction")
    if construction not in FAMILIES:
        raise ParameterError(f"unknown construction {construction!r}")
    family, extras = FAMILIES[construction], inst.meta.extras
    missing = [k for k in family.extras if k not in extras]
    if missing:
        raise FileFormatError(f"meta extras lack {', '.join(map(repr, missing))}")
    if inst.n > BRUTE_FORCE_MAX_N:
        raise ParameterError(
            f"n = {inst.n} exceeds the brute-force guard {BRUTE_FORCE_MAX_N}")
    checks: list[str] = []
    try:
        if not inst.meta.check_partition(inst.n):
            raise VerifyFailure("partition",
                                "structures do not partition the domain")
        if inst.model == "function":
            _check_function_structures(inst)
        checks.append("partition: ok")
        try:  # the extras hold whatever JSON the file gives
            checks.append(_verify_witness_counts(inst, family))
            lines, payload = family.verify(extras)
        except (TypeError, ValueError, IndexError, ZeroDivisionError) as e:
            raise FileFormatError(f"malformed meta extras ({type(e).__name__}: {e})") from None
        checks.extend(lines)
        if args.cert:
            cert = read_certificate(args.cert)
            got = {k: sorted(v) if isinstance(v, list) else v
                   for k, v in cert.payload.items() if k in payload}
            if cert.kind not in family.kinds or got != payload:
                raise VerifyFailure("certificate", f"a {cert.kind} {got} does not "
                                    f"match the meta's {payload}")
            checks.append(f"certificate: ok ({cert.kind})")
    except VerifyFailure as vf:
        for line in checks:
            print(line)
        invariant, detail = vf.args
        print(f"FAIL {invariant}: {detail}")
        _emit(args, {"command": "verify", "instance-ref": str(args.instance),
                     "ok": False, "failed": invariant})
        return EXIT_VERIFY
    for line in checks:
        print(line)
    _emit(args, {"command": "verify", "instance-ref": str(args.instance),
                 "ok": True, "checks": len(checks)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# adversary-test


def cmd_adversary_test(args) -> int:
    _at_least("--n", args.n, 1)
    _at_least("--probes", args.probes, 0)
    seed = _master_seed(args)
    lo, hi = _parse_scales(args.scales or "2..4")
    params = ScaleParams(i_min=lo, i_max=hi, **_given(args, "rho"))
    session = AdversarySession(args.n, params, seed=_sub_seed(seed, 0))
    rng = np.random.default_rng(_sub_seed(seed, 1))
    for _ in range(args.probes):
        v = int(rng.integers(args.n))
        if rng.random() < 0.5:
            session.probe_degree(v)
        else:
            try:
                session.probe_neighbor(v, int(rng.integers(3)))
            except IndexError:
                pass
    # replay the session's trace, where an index out of range answered None
    offline = CountedOracle(session.finalize())
    consistent = True
    for row in session.trace:
        op, v, *i = row["query"]
        try:
            replay = offline.query_degree(v) if op == "deg" \
                else offline.query_neighbor(v, *i)
        except IndexError:
            replay = None
        if replay != row["answer"]:
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
    groups: dict[tuple, dict[int, list[int]]] = {}
    for path in args.csv:
        for r in read_trials_csv(path):
            try:
                key = (r["generator"], r["detector"])
                n, queries = int(r["n"]), int(r["queries"])
            except KeyError as e:
                raise FileFormatError(f"{path} has no {e} column") from None
            except (TypeError, ValueError):
                raise FileFormatError(f"{path}: n and queries must be integers, "
                                      f"got {r['n']!r} and {r['queries']!r}") from None
            if n < 1 or queries < 0:
                raise FileFormatError(f"{path}: n must be >= 1 and queries >= 0, "
                                      f"got {n} and {queries}")
            groups.setdefault(key, {}).setdefault(n, []).append(queries)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; it binds no command function, since main
    looks cmd_<command> up by name when the command runs."""
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
    g.add_argument("--construction", required=True, choices=sorted(FAMILIES)
                   + sorted(f.alias for f in FAMILIES.values()))
    g.add_argument("--n", type=int, required=True)
    # each construction flag's dest is the generator keyword or params
    # field it sets, save --scales (i_min and i_max)
    flags = [
        g.add_argument("--scales", help="scale window A..B"),
        g.add_argument("--beta", type=float),
        g.add_argument("--gamma", type=float),
        g.add_argument("--c", type=float),
        g.add_argument("--rho", type=_rho, help="density in (0,1] or 'auto'"),
        g.add_argument("--b-override", type=int),
        g.add_argument("--t-override", type=int),
        g.add_argument("--no-fixed-points", action="store_const", const="cycles",
                       dest="filler", help="fill leftovers with 2-/3-cycles instead"),
        g.add_argument("--alpha", type=float),
        g.add_argument("--cycle-len", type=int),
        g.add_argument("--feeder-len", type=int),
        g.add_argument("--T", type=int),
        g.add_argument("--widen-primes", action="store_const", const=True,
                       dest="widen"),
        g.add_argument("--k", type=int, help="star size (default: 4)"),
        g.add_argument("--H", dest="h_spec",
                       help="clique spec: 'triangle' (default) or size"),
    ]
    g.set_defaults(flags=MappingProxyType({f.dest: f.option_strings[0] for f in flags}))

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

    b = sub.add_parser("bench", help="run a battery spec file")
    common(b)
    b.add_argument("--battery", required=True, help="battery spec JSON")
    b.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes, >= 1 (default: the CPU count)")
    b.add_argument("--plot", action="store_true")
    b.add_argument("--strict", action="store_true",
                   help="exit 1 if any trial misses its witness")

    v = sub.add_parser("verify", help="offline ground-truth checks")
    common(v)
    v.add_argument("--instance", required=True)
    v.add_argument("--cert", default=None)

    a = sub.add_parser("adversary-test",
                       help="probe the online constructor and replay the "
                            "transcript offline")
    common(a)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--scales", default=None, help="scale window A..B")
    a.add_argument("--rho", type=_rho, default=None)
    a.add_argument("--probes", type=int, default=256)

    rp = sub.add_parser("report", help="aggregate trial CSVs")
    common(rp)
    rp.add_argument("--csv", nargs="+", required=True)
    rp.add_argument("--plot", action="store_true")
    return ap


# the exit code of each error a command may end in; a size too large to
# allocate is an infeasible parameter
_EXIT_CODES = {ParameterError: EXIT_PARAMS, MemoryError: EXIT_PARAMS,
               ModelMismatchError: EXIT_MODEL, OSError: EXIT_IO,
               FileFormatError: EXIT_IO}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    args.wall_ms = lambda: round((time.perf_counter() - t0) * 1e3, 3)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except tuple(_EXIT_CODES) as e:
        msg = str(e)
        if isinstance(e, MemoryError):
            # the size that failed: the command's --n, or a battery entry's
            at = f"--n {args.n}" if hasattr(args, "n") else getattr(e, "entry", None)
            msg = "not enough memory" + (f" for {at}" if at else "") \
                + (f": {msg}" if msg else "")
        print(f"error: {msg}", file=sys.stderr)
        if isinstance(e, PrimeShortageError):
            print("hint: widen the prime window with --widen-primes",
                  file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
