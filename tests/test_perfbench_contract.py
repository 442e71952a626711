"""perfbench's name contract, checked in tier-1.

The benchmark in ``perfbench/`` times qsep by replacing public names
(module attributes, registry entries, classes) with wrappers and putting
the originals back afterwards. A name it wraps that is deleted or renamed
should fail here, not only when the benchmark runs.
"""

import importlib
import importlib.util
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
