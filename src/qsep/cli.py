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
import functools
import hashlib
import os
import sys
import time
from pathlib import Path
from types import MappingProxyType

import numpy as np

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
    check_fields,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
    keywords_of,
)
# run_trials and slope_fit stay importable here, where perfbench wraps them
from qsep.harness import (  # noqa: F401
    DETECTORS,
    KEYWORDS,
    SeparationPoint,
    SlopeSeries,
    _fit,
    _seed_int,
    _trial,
    canonical_json,
    config_hash,
    read_trials_csv,
    run_trials,
    separation_experiment,
    slope_experiment,
    slope_fit,
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


def _master_seed(args, spec_seed: int | None = None) -> int:
    """--seed, else $QSEP_SEED, else a battery spec's master_seed, else 0;
    a seed given, the spec's too, must be an integer >= 0."""
    _at_least("master_seed", spec_seed, 0)
    name, seed = ("--seed", args.seed) if args.seed is not None else \
        ("$QSEP_SEED", os.environ["QSEP_SEED"]) if os.environ.get("QSEP_SEED") \
        else ("master_seed", spec_seed or 0)
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
    # a detector flag applies where its signature takes it; --scales sets i_min, i_max
    kw = _given(args, "C", "k", "target", "max_attempts", "scales")
    for name in kw:
        if ("i_min" if name == "scales" else name) not in KEYWORDS[args.detector]:
            raise ParameterError(f"--{name.replace('_', '-')} does not apply "
                                 f"to {args.detector}")
    if args.detector == "multiscale":
        kw["i_min"], kw["i_max"] = _parse_scales(kw.pop("scales", "2..8"))
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
        cert = corrupt_certificate(cert, _sub_seed(seed, 2), getattr(inst.meta, "extras", None))
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


def _bench_separation(kw: dict, args):
    """Run a separation battery; return its trial rows, report fields,
    chart (series and axes), record fields and warning count."""
    rep = separation_experiment(**kw, workers=args.threads)

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
            {"points": len(rep.xs), "ratios": rep.ratios}, warn)


def _bench_slope(kw: dict, args):
    """Run a slope battery; return what _bench_separation returns."""
    all_rows, summary, fits = slope_experiment(**kw, workers=args.threads)
    svg_series = []
    for s in kw["series"]:
        mine = [r for r in summary if r["label"] == s.label]
        for r in mine:
            print(f"series label={s.label} n={r['n']} mean_queries={r['mean_queries']!r} "
                  f"found={r['successes']}/{r['trials']}")
        if fits[s.label] is not None:
            print(f"series label={s.label} slope={fits[s.label]['slope']!r} "
                  f"r2={fits[s.label]['r2']!r}")
        svg_series.append((s.label, [float(n) for n in s.ns], [r["mean_queries"] for r in mine]))
    chart = (svg_series, {"title": "query scaling", "xlabel": "n",
                          "ylabel": "mean queries", "logx": True, "logy": True})
    warn = sum(r["trials"] - r["successes"] for r in summary)
    return all_rows, {"rows": summary, "fits": fits}, chart, {"rows": len(summary)}, warn


# per battery kind: the experiment that runs it, its list of entries and
# the record each entry is read into
_BATTERIES = {"separation": (separation_experiment, "points", SeparationPoint),
              "slope": (slope_experiment, "series", SlopeSeries)}


def _check_battery(spec) -> tuple[str, dict]:
    """The spec's kind and its experiment's keywords, each entry read into its
    record; ParameterError naming the first missing, unknown or bad field."""
    if not isinstance(spec, dict):
        raise ParameterError("battery spec must be a JSON object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _BATTERIES:
        raise ParameterError(f"battery kind must be separation|slope, got {kind!r}")
    experiment, key, record = _BATTERIES[kind]
    # past `kind` and `_` comments, the keys are the experiment's, save workers
    kw = {k: v for k, v in spec.items() if k != "kind" and not k.startswith("_")}
    takes = {k: p for k, p in keywords_of(experiment).items() if k != "workers"}
    check_fields("", kw, takes, experiment.__name__)
    if not isinstance(kw[key], list) or not kw[key]:
        raise ParameterError(f"a {kind} battery needs a non-empty {key!r} list")
    entries = []
    for j, entry in enumerate(kw[key]):
        check_fields(f"{key}[{j}]", entry, keywords_of(record), record.__name__)
        try:
            entries.append(record(**entry))
        except ParameterError as e:
            raise ParameterError(f"{key}[{j}].{e}") from None
    return kind, {**kw, key: entries}


def cmd_bench(args) -> int:
    _at_least("--threads", args.threads, 1)
    spec = read_json(args.battery)
    kind, kw = _check_battery(spec)
    master = kw["master_seed"] = _master_seed(args, kw.get("master_seed"))
    run = _bench_separation if kind == "separation" else _bench_slope
    trial_rows, report, (series, axes), record, warn = run(kw, args)
    # hashed once the run has checked every value, so none is non-finite
    h = config_hash({"battery": {k: v for k, v in spec.items()
                                 if not k.startswith("_")},
                     "master_seed": master})
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
    r.add_argument("--scales", default=None, help="multiscale's window A..B")
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
