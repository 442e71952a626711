"""perfbench's name contract, checked in tier-1.

The benchmark in ``perfbench/`` times qsep by replacing public names
(module attributes, registry entries, classes) with wrappers and putting
the originals back afterwards. A name it wraps that is deleted or renamed
should fail here, not only when the benchmark runs.
"""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("oracle", "generators", "detectors", "harness", "adversary", "svg", "cli")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_instrument_patches_every_name_and_restores_the_originals():
    spans = _load_spans()
    ns = SimpleNamespace(**{m: importlib.import_module(f"qsep.{m}") for m in MODULES})
    before = {m: dict(vars(getattr(ns, m))) for m in MODULES}
    detectors = dict(ns.harness.DETECTORS)

    inst = spans.Instrument(ns, spans.Recorder(), spans.Tracer())
    try:
        patched = {(id(target), key) for target, key, _, _ in inst._undo}
        assert patched, "Instrument patched nothing"
        assert (id(ns.cli), "main") in patched
        assert (id(ns.oracle), "CountedOracle") in patched
    finally:
        inst.restore()

    for m in MODULES:
        after = vars(getattr(ns, m))
        assert after.keys() == before[m].keys(), m
        moved = [k for k, v in before[m].items() if after[k] is not v]
        assert not moved, (m, moved)
    assert ns.harness.DETECTORS.keys() == detectors.keys()
    assert all(ns.harness.DETECTORS[k] is fn for k, fn in detectors.items())


def test_gen_and_bench_generate_through_a_wrapped_name(tmp_path):
    # perfbench's generators.calls counts calls of the generator names it
    # wraps, so generation must reach a generator by its module name
    spans = _load_spans()
    ns = SimpleNamespace(**{m: importlib.import_module(f"qsep.{m}") for m in MODULES})
    spec = tmp_path / "sep.json"
    spec.write_text(json.dumps({"kind": "separation", "trials": 1, "pilot_trials": 1,
                                "points": [{"x": 2, "n": 1024, "generator": "collision-fn",
                                            "gen_kwargs": {"params": {"i_min": 2, "i_max": 4}},
                                            "baseline_kwargs": {"i_min": 2, "i_max": 4}}]}))
    tracer = spans.Tracer()
    inst = spans.Instrument(ns, spans.Recorder(), tracer)
    calls = []
    try:
        for argv in (["gen", "--construction", "starpath", "--n", "1024"],
                     ["bench", "--battery", str(spec), "--threads", "1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert ns.cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
            calls.append(spans.layer_metrics(tracer)["generators.calls"][0])
    finally:
        inst.restore()
    assert 0 < calls[0] < calls[1]


def test_run_records_one_detector_call(tmp_path):
    # perfbench's cli-roundtrip records every detector call made through
    # harness.DETECTORS and checks its witness on the recording oracle's
    # instance, so `run` must build that oracle and call through that table
    spans = _load_spans()
    ns = SimpleNamespace(**{m: importlib.import_module(f"qsep.{m}") for m in MODULES})
    with contextlib.redirect_stdout(io.StringIO()):
        assert ns.cli.main(["gen", "--construction", "collision-fn", "--n", "4096",
                            "--scales", "2..5", "--seed", "7",
                            "--out-dir", str(tmp_path)]) == 0
    recorder = spans.Recorder()
    inst = spans.Instrument(ns, recorder, spans.Tracer())
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert ns.cli.main([
                "run", "--instance", str(tmp_path / "collision-fn.instance.json"),
                "--cert", str(tmp_path / "collision-fn.certificate.json"),
                "--detector", "cert-collision", "--seed", "3"]) == 0
    finally:
        inst.restore()
    assert [call[:2] for call in recorder.calls] == [["cert-collision", "Found"]]
    assert recorder.errors == []
    assert recorder.queries() == recorder.calls[0][2] > 0


def test_a_command_replaced_after_the_parser_is_built_is_the_one_that_runs(tmp_path):
    # the parser is built once per process, but perfbench swaps timed cmd_*
    # wrappers into qsep.cli unit by unit, so main must look the command up
    # when it runs rather than when the parser was built
    spans = _load_spans()
    ns = SimpleNamespace(**{m: importlib.import_module(f"qsep.{m}") for m in MODULES})
    argv = ["gen", "--construction", "collision-fn", "--n", "1024", "--scales", "2..4",
            "--out-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert ns.cli.main(argv) == 0
    tracer = spans.Tracer()
    inst = spans.Instrument(ns, spans.Recorder(), tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert ns.cli.main(argv) == 0
    finally:
        inst.restore()
    assert "cli.gen" in tracer.names
    assert spans.layer_metrics(tracer)["cli.gen.ms"][0] > 0
