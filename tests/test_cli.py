"""CLI surface: exit codes, determinism, file outputs, parse-back."""

import argparse
import contextlib
import copy
import functools
import inspect
import io
import json
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsep
from qsep.cli import _build_parser, _check_battery, _check_function_structures, main
from qsep.detectors import corrupt_certificate
from qsep.generators import FAMILIES, VerifyFailure
from qsep.harness import DETECTORS, SeparationPoint, SlopeSeries, read_trials_csv
from qsep.oracle import (KIND_CYCLE, KIND_FEEDER, KIND_NAMES, KIND_PATH,
                         FunctionInstance, StructureMeta, graph_from_edges,
                         read_certificate, read_instance, write_certificate,
                         write_instance)
from qsep.svg import parse_chart


BATTERIES = Path(__file__).parents[1] / "batteries"
COMMANDS = ("gen", "run", "bench", "verify", "adversary-test", "report")


def _run_in_2_gib(*argv):
    """Run the CLI in a child under its own 2 GiB address-space limit, so an
    allocation beyond it fails at once whatever the machine's overcommit
    policy."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

    src = str(Path(qsep.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "qsep.cli", *argv],
        preexec_fn=limit, timeout=120, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def _refuse_constant(token):
    raise ValueError(f"non-finite {token} in a JSON record")


def last_json(lines):
    """The command's JSON record, parsed strictly: NaN and Infinity, which
    strict JSON parsers refuse, fail the test."""
    return json.loads(lines[-1], parse_constant=_refuse_constant)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGen:
    def test_collision_three_files_and_rerun_digests(self, tmp_path, capsys):
        args = ("gen", "--construction", "collision-fn", "--n", "4096",
                "--scales", "2..5", "--c", "0.3", "--seed", "7")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        code, lines, _ = run_cli(capsys, *args, "--out-dir", str(d1))
        assert code == 0
        assert lines[0].startswith("capacity ")
        rec = last_json(lines)
        assert set(rec["files"]) == {"instance", "certificate", "meta"}
        code, _, _ = run_cli(capsys, *args, "--out-dir", str(d2))
        assert code == 0
        for name in ("instance", "certificate", "meta"):
            f = f"collision-fn.{name}.json"
            assert digest(d1 / f) == digest(d2 / f)

    @pytest.mark.parametrize("argv", [
        ("gen", "--construction", "collision-fn"), ("adversary-test",)])
    def test_size_beyond_memory_exits_2(self, tmp_path, argv):
        n = str(1 << 40)
        done = _run_in_2_gib(*argv, "--n", n, "--out-dir", str(tmp_path))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"error: not enough memory for --n {n}: ")
        assert len(done.stderr.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_files_carry_config_hash(self, tmp_path, capsys):
        code, lines, _ = run_cli(
            capsys, "gen", "--construction", "starpath", "--n", "1024",
            "--k", "4", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        h = last_json(lines)["config-hash"]
        for name in ("instance", "certificate", "meta"):
            doc = json.loads(
                (tmp_path / f"starpath-graph.{name}.json").read_text())
            assert doc["config_hash"] == h

    def test_prime_shortage_exits_2_with_widening_hint(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--construction", "fixedpoint", "--n", "65536",
            "--alpha", "3", "--out-dir", str(tmp_path))
        assert code == 2
        assert "primes" in err and "--widen-primes" in err

    def test_capacity_error_names_the_inequality(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--construction", "collision-fn", "--n", "64",
            "--scales", "2..9", "--out-dir", str(tmp_path))
        assert code == 2
        assert "needs" in err and "> n = 64" in err

    # gen's cases, then the seed and size checks other commands share; a
    # leading NAME=value sets the environment, as in a shell
    @pytest.mark.parametrize("flags, message", [
        (("fixedpoint-fn", "--n", "4096", "--T", "0"), "T must be >= 1, got 0"),
        (("fixedpoint-fn", "--n", "4096", "--cycle-len", "0"),
         "cycle_len must be >= 1, got 0"),
        (("fixedpoint-fn", "--n", "4096", "--feeder-len", "0"),
         "feeder_len must be >= 1, got 0"),
        (("collision-fn", "--n", "-4"), "--n must be >= 1, got -4"),
        (("collision-fn", "--n", "0"), "--n must be >= 1, got 0"),
        (("fixedpoint-fn", "--n", "1"), "n >= 2, got 1"),
        (("star", "--n", "4096", "--H", "none"), "H-spec 'none'"),
        (("star", "--n", "4096", "--H", "clique:4"), "H-spec 'clique:4'"),
        (("star", "--n", "4096", "--H", "abc"), "H-spec 'abc'"),
        (("collision-fn", "--n", "4096", "--scales", "a..5"),
         "expected A..B scale window, got 'a..5'"),
        (("fixedpoint-fn", "--n", "4096", "--alpha", "inf"),
         "alpha must be a finite number, got inf"),
        (("fixedpoint-fn", "--n", "4096", "--alpha", "nan"),
         "alpha must be a finite number, got nan"),
        # each of these ended in a traceback with exit 1
        (("collision-fn", "--n", "1024", "--seed", "-1"), "--seed must be >= 0, got -1"),
        (("QSEP_SEED=x", "collision-fn", "--n", "1024"),
         "$QSEP_SEED must be an integer, got 'x'"),
        (("QSEP_SEED=-3", "collision-fn", "--n", "1024"),
         "$QSEP_SEED must be >= 0, got -3"),
        (("run", "--instance", "missing.json", "--detector", "multiscale",
          "--seed", "-2"), "--seed must be >= 0, got -2"),
        (("bench", "--battery", str(BATTERIES / "criterion6.json"), "--seed", "-1"),
         "--seed must be >= 0, got -1"),
        (("adversary-test", "--n", "-5"), "--n must be >= 1, got -5"),
        # this exited 0 and wrote "probes": -5 into the summary
        (("adversary-test", "--n", "64", "--probes", "-5"),
         "--probes must be >= 0, got -5"),
        # this wrote "beta":Infinity into the instance header
        (("collision-fn", "--n", "4096", "--beta", "inf"),
         "beta must be a finite number, got inf")])
    def test_bad_sizes_exit_2_without_traceback(self, tmp_path, capsys,
                                                monkeypatch, flags, message):
        if "=" in flags[0]:
            monkeypatch.setenv(*flags[0].split("=", 1))
            flags = flags[1:]
        argv = flags if flags[0] in COMMANDS else ("gen", "--construction", *flags)
        code, _, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 2 and "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert not list(tmp_path.iterdir())

    def test_back_to_back_calls_share_no_state(self, tmp_path, capsys):
        # the parser outlives a call: neither a flag's value nor a parse
        # error carries over into the next command
        args = ("gen", "--construction", "collision-fn", "--n", "1024",
                "--scales", "2..4", "--seed", "5")
        outs = [tmp_path / d for d in ("plain", "cycles", "again")]
        for out, extra in zip(outs, ((), ("--no-fixed-points",), ())):
            assert run_cli(capsys, *args, *extra, "--out-dir", str(out))[0] == 0
        files = [out / "collision-fn.instance.json" for out in outs]
        assert digest(files[0]) != digest(files[1])
        assert digest(files[2]) == digest(files[0])
        with pytest.raises(SystemExit) as exit_:
            main(["gen", "--construction", "collision-fn"])
        assert exit_.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *args, "--out-dir", str(tmp_path / "after"))[0] == 0

    def test_star_triangle_declares_one_clique(self, tmp_path, capsys):
        code, lines, _ = run_cli(
            capsys, "gen", "--construction", "star", "--n", "4096",
            "--H", "triangle", "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        assert last_json(lines)["witnesses"] == 1

    @pytest.mark.parametrize("spec, witnesses", [("0", 0), ("4", 1)])
    def test_star_clique_size_as_decimal(self, tmp_path, capsys, spec,
                                         witnesses):
        code, lines, _ = run_cli(
            capsys, "gen", "--construction", "star", "--n", "4096",
            "--H", spec, "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        assert last_json(lines)["witnesses"] == witnesses

    @pytest.mark.parametrize("flags, message", [
        (("star", "--alpha", "3", "--beta", "9", "--no-fixed-points"),
         "star-graph does not read --beta, --no-fixed-points, --alpha"),
        (("collision", "--k", "4"), "collision-fn does not read --k"),
        (("claw-graph", "--no-fixed-points"), "claw-graph does not read --no-fixed-points"),
        (("fixedpoint", "--scales", "2..4", "--H", "triangle"),
         "fixedpoint-fn does not read --scales, --H"),
        (("starpath", "--widen-primes", "--T", "1"),
         "starpath-graph does not read --T, --widen-primes")])
    def test_flag_the_construction_does_not_read_exits_2(self, tmp_path, capsys,
                                                         flags, message):
        # each of these exited 0 and ignored the flags
        code, lines, err = run_cli(capsys, "gen", "--construction", *flags,
                                   "--n", "1024", "--out-dir", str(tmp_path))
        assert code == 2 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [f"error: {message}"]
        assert not list(tmp_path.iterdir())

    def test_qsep_seed_env_is_the_default(self, tmp_path, capsys, monkeypatch):
        d1, d2 = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("QSEP_SEED", "99")
        run_cli(capsys, "gen", "--construction", "collision-fn", "--n", "1024",
                "--scales", "2..4", "--out-dir", str(d1))
        monkeypatch.delenv("QSEP_SEED")
        run_cli(capsys, "gen", "--construction", "collision-fn", "--n", "1024",
                "--scales", "2..4", "--seed", "99", "--out-dir", str(d2))
        f = "collision-fn.instance.json"
        assert digest(d1 / f) == digest(d2 / f)


# gen flags that fit each construction at a small n
FAMILY_FLAGS = {
    "collision-fn": ("--n", "1024", "--scales", "2..4"),
    "claw-graph": ("--n", "1024", "--scales", "2..4"),
    "fixedpoint-fn": ("--n", "4096"),
    "star-graph": ("--n", "1024"),
    "starpath-graph": ("--n", "1024"),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestFamilyTable:
    def _gen(self, capsys, name, out, construction=None):
        code, _, _ = run_cli(capsys, "gen", "--construction",
                             construction or name, *FAMILY_FLAGS[name],
                             "--seed", "5", "--out-dir", str(out))
        assert code == 0
        return out / f"{name}.instance.json", out / f"{name}.certificate.json"

    def test_gen_then_verify_passes_and_a_corrupted_certificate_fails(
            self, tmp_path, capsys, name):
        inst, cert = self._gen(capsys, name, tmp_path)
        code, lines, _ = run_cli(capsys, "verify", "--instance", str(inst),
                                 "--cert", str(cert))
        assert code == 0 and last_json(lines)["ok"] is True
        assert lines[-2] == f"certificate: ok ({read_certificate(cert).kind})"
        bad = tmp_path / "bad.certificate.json"
        write_certificate(corrupt_certificate(read_certificate(cert), 0,
                                              read_instance(inst).meta.extras), bad)
        code, lines, err = run_cli(capsys, "verify", "--instance", str(inst),
                                   "--cert", str(bad))
        assert code == 1 and "Traceback" not in err
        assert lines[-2].startswith("FAIL certificate: ")
        assert last_json(lines)["failed"] == "certificate"

    def test_alias_writes_the_same_files(self, tmp_path, capsys, name):
        alias = FAMILIES[name].alias
        assert alias == name.split("-")[0]
        self._gen(capsys, name, tmp_path / "name")
        self._gen(capsys, name, tmp_path / "alias", alias)
        for kind in ("instance", "certificate", "meta"):
            f = f"{name}.{kind}.json"
            assert (tmp_path / "name" / f).read_bytes() == \
                (tmp_path / "alias" / f).read_bytes()


@pytest.fixture()
def collision_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("inst")
    main(["gen", "--construction", "collision-fn", "--n", "4096",
          "--scales", "2..5", "--seed", "7", "--out-dir", str(out)])
    return (out / "collision-fn.instance.json",
            out / "collision-fn.certificate.json")


class TestRun:
    def test_cert_collision_found_and_valid(self, collision_files, capsys):
        inst, cert = collision_files
        capsys.readouterr()
        code, lines, _ = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(cert),
            "--detector", "cert-collision", "--seed", "3")
        assert code == 0
        rec = last_json(lines)
        assert rec["status"] == "Found" and rec["valid"] is True
        assert {"detector", "instance-ref", "seed", "status", "queries",
                "attempts", "wall-ms"} <= set(rec)

    def test_corrupt_cert_never_invalid(self, collision_files, capsys):
        inst, cert = collision_files
        capsys.readouterr()
        for seed in range(6):
            code, lines, _ = run_cli(
                capsys, "run", "--instance", str(inst), "--cert", str(cert),
                "--detector", "cert-collision", "--seed", str(seed),
                "--corrupt-cert", "--max-attempts", "400")
            assert code == 0
            rec = last_json(lines)
            assert rec["status"] != "Found" or rec["valid"] is True

    def test_graph_detector_on_function_instance_exits_3(
            self, collision_files, capsys):
        inst, cert = collision_files
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(cert),
            "--detector", "cert-claw", "--seed", "1")
        assert code == 3 and "function oracle" in err

    def test_negative_budget_exits_2(self, collision_files, capsys):
        inst, cert = collision_files
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(cert),
            "--detector", "cert-collision", "--seed", "1", "--budget", "-5")
        assert code == 2 and "Traceback" not in err
        assert err.strip().splitlines() == ["error: --budget must be >= 0, got -5"]

    @pytest.mark.parametrize("detector", ["cert-collision", "multiscale"])
    def test_negative_max_attempts_exits_2(self, collision_files, capsys,
                                           detector):
        # this exited 0 with Exhausted after 0 queries
        inst, cert = collision_files
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(cert),
            "--detector", detector, "--seed", "1", "--max-attempts", "-1")
        assert code == 2 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [
            "error: max_attempts must be >= 0, got -1"]

    def test_cert_detector_without_cert_exits_2(self, collision_files, capsys):
        inst, _ = collision_files
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "run", "--instance", str(inst),
            "--detector", "cert-collision", "--seed", "1")
        assert code == 2 and "Traceback" not in err
        assert err.strip().splitlines() == [
            "error: cert-collision needs a CollisionScale or ClawScale "
            "certificate, got no --cert"]

    def test_wrong_certificate_kind_exits_2(self, collision_files, tmp_path,
                                            capsys):
        inst, _ = collision_files
        main(["gen", "--construction", "star", "--n", "4096", "--H",
              "triangle", "--seed", "3", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "run", "--instance", str(inst),
            "--cert", str(tmp_path / "star-graph.certificate.json"),
            "--detector", "cert-collision", "--seed", "1")
        assert code == 2 and "Traceback" not in err
        assert err.strip().splitlines() == [
            "error: cert-collision needs a CollisionScale or ClawScale "
            "certificate, got a StarDegrees certificate"]

    def test_max_attempts_on_a_detector_without_a_cap_exits_2(
            self, collision_files, capsys):
        inst, cert = collision_files
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(inst), "--detector",
            "uniform-probe", "--max-attempts", "5", "--seed", "1")
        assert code == 2 and lines == []
        assert err.strip().splitlines() == [
            "error: --max-attempts does not apply to uniform-probe"]
        # every other detector flag is refused the same way where it is unread
        for detector, flags, message in [
                ("cert-collision", ("--C", "9"), "--C does not apply to cert-collision"),
                ("uniform-probe", ("--C", "9"), "--C does not apply to uniform-probe"),
                ("cert-collision", ("--k", "5"), "--k does not apply to cert-collision"),
                ("multiscale", ("--target", "k-star"),
                 "--target does not apply to multiscale"),
                ("cert-collision", ("--scales", "2..5"),
                 "--scales does not apply to cert-collision"),
                ("uniform-probe", ("--scales", "2..5"),
                 "--scales does not apply to uniform-probe"),
                # --scales is multiscale's window alone: a corrupted
                # certificate draws from the instance's own window
                ("cert-collision", ("--corrupt-cert", "--scales", "2..5"),
                 "--scales does not apply to cert-collision"),
                ("cert-claw", ("--corrupt-cert", "--scales", "2..5"),
                 "--scales does not apply to cert-claw"),
                ("cert-fixedpoint", ("--corrupt-cert", "--scales", "2..5"),
                 "--scales does not apply to cert-fixedpoint"),
                ("cert-starpath", ("--corrupt-cert", "--scales", "2..5"),
                 "--scales does not apply to cert-starpath")]:
            code, lines, err = run_cli(
                capsys, "run", "--instance", str(inst), "--cert", str(cert),
                "--detector", detector, *flags, "--seed", "1")
            assert code == 2 and lines == [] and "Traceback" not in err
            assert err.strip().splitlines() == [f"error: {message}"]
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(inst), "--detector",
            "multiscale", "--scales", "2..5", "--max-attempts", "5", "--seed", "1")
        assert code == 0 and last_json(lines)["attempts"] <= 5

    @pytest.mark.parametrize("detector", sorted(DETECTORS))
    @pytest.mark.parametrize("flag, value", [("--C", "2"), ("--k", "5"),
                                             ("--target", "fixed-point"),
                                             ("--max-attempts", "5")])
    def test_detector_flag_applies_where_the_signature_takes_it(
            self, tmp_path, capsys, detector, flag, value):
        keyword = flag[2:].replace("-", "_")
        takers = {"C": {"cert-fixedpoint"}, "k": {"uniform-probe"},
                  "target": {"uniform-probe"},
                  "max_attempts": {"cert-collision", "multiscale", "cert-claw"}}
        applies = detector in takers[keyword]
        assert applies == (keyword in inspect.signature(DETECTORS[detector]).parameters)
        # a flag that applies passes the flag checks, and the run goes on
        # to read the instance file, which is missing
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(tmp_path / "missing.json"),
            "--detector", detector, flag, value, "--seed", "1")
        assert lines == [] and "Traceback" not in err
        if applies:
            assert code == 4 and "does not apply" not in err
        else:
            assert code == 2
            assert err.strip().splitlines() == [
                f"error: {flag} does not apply to {detector}"]

    @pytest.mark.parametrize("C", ["-1", "nan", "inf", "0"])
    def test_fixedpoint_c_not_finite_and_positive_exits_2(self, tmp_path,
                                                          capsys, C):
        # -1 and nan ended in a ValueError traceback, inf in an OverflowError
        main(["gen", "--construction", "fixedpoint", "--n", "4096", "--seed",
              "2", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(tmp_path / "fixedpoint-fn.instance.json"),
            "--cert", str(tmp_path / "fixedpoint-fn.certificate.json"),
            "--detector", "cert-fixedpoint", "--C", C, "--seed", "1")
        assert code == 2 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [
            f"error: C must be a finite number > 0, got {float(C)!r}"]

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["payload"].update(succ=[10 ** 9, *range(1, 4096)]),
         "error: succ has entries outside [0, 4096)"),
        (lambda doc: doc["header"].update(n=4000),
         "error: succ has 4096 entries, header n asks for 4000"),
        (lambda doc: doc["payload"].update(succ=list(range(4000))),
         "error: succ has 4000 entries, header n asks for 4096"),
        (lambda doc: doc["payload"].pop("succ"),
         "error: malformed instance file (KeyError: 'succ')"),
        # an edit that returns bytes is the whole file
        (lambda doc: b"\xff\xfe" + json.dumps(doc).encode(),
         "error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        # JSON nested past the parser's recursion limit raised RecursionError
        (lambda doc: b"[" * 100000,
         "error: {path}: maximum recursion depth exceeded while decoding a "
         "JSON array from a unicode string"),
    ])
    def test_malformed_instance_exits_4(self, collision_files, tmp_path, capsys,
                                        edit, message):
        inst, cert = collision_files
        doc = json.loads(inst.read_text())
        raw = edit(doc)
        bad = tmp_path / "bad.instance.json"
        bad.write_bytes(raw if isinstance(raw, bytes) else json.dumps(doc).encode())
        capsys.readouterr()
        for argv in (("run", "--instance", str(bad), "--detector", "multiscale",
                      "--seed", "1"),
                     ("run", "--instance", str(bad), "--cert", str(cert),
                      "--detector", "cert-collision", "--seed", "1"),
                     ("verify", "--instance", str(bad))):
            code, lines, err = run_cli(capsys, *argv)
            assert code == 4 and lines == [] and "Traceback" not in err
            assert err.strip().splitlines() == [message.format(path=bad)]

    def test_malformed_graph_instance_exits_4(self, tmp_path, capsys):
        main(["gen", "--construction", "claw-graph", "--n", "2048", "--scales",
              "2..4", "--seed", "3", "--out-dir", str(tmp_path)])
        path = tmp_path / "claw-graph.instance.json"
        doc = json.loads(path.read_text())
        doc["payload"]["indices"][0] = 2048
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, lines, err = run_cli(capsys, "verify", "--instance", str(path))
        assert code == 4 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [
            "error: indices has entries outside [0, 2048)"]

    def test_asymmetric_graph_instance_exits_4(self, tmp_path, capsys):
        main(["gen", "--construction", "claw-graph", "--n", "2048", "--scales",
              "2..4", "--seed", "3", "--out-dir", str(tmp_path)])
        path = tmp_path / "claw-graph.instance.json"
        cert = tmp_path / "claw-graph.certificate.json"
        doc = json.loads(path.read_text())
        # the first arc u->v becomes u->v+1; v+1 keeps no arc back for it
        doc["payload"]["indices"][0] = (doc["payload"]["indices"][0] + 1) % 2048
        path.write_text(json.dumps(doc))
        for argv in (("run", "--instance", str(path), "--cert", str(cert),
                      "--detector", "cert-claw", "--seed", "1"),
                     ("verify", "--instance", str(path))):
            capsys.readouterr()
            code, lines, err = run_cli(capsys, *argv)
            assert code == 4 and lines == [] and "Traceback" not in err
            assert err.strip().splitlines() == [
                "error: adjacency is not symmetric: an arc lacks its reverse"]

    def test_malformed_certificate_exits_4(self, collision_files, tmp_path,
                                           capsys):
        inst, _ = collision_files
        bad = tmp_path / "bad.certificate.json"
        bad.write_text(json.dumps({"format": "qsep-certificate", "kind": "CollisionScale"}))
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(bad),
            "--detector", "cert-collision", "--seed", "1")
        assert code == 4 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [
            "error: a certificate needs a kind string and a payload object"]
        # an unknown kind's payload went unchecked: verify sorted its lists
        # and --corrupt-cert found no rule, each ending in a traceback
        unknown = json.dumps({"format": "qsep-certificate", "kind": "Bogus",
                              "payload": {"t": [1, "x"]}}).encode()
        for body, message in [
                (b"\xff\xfe" + bad.read_bytes(),
                 f"{bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
                 "invalid start byte"),
                (unknown, "unknown certificate kind 'Bogus'")]:
            bad.write_bytes(body)
            for argv in (("run", "--instance", str(inst), "--cert", str(bad),
                          "--detector", "cert-collision", "--seed", "1"),
                         ("run", "--instance", str(inst), "--cert", str(bad),
                          "--detector", "cert-collision", "--corrupt-cert"),
                         ("verify", "--instance", str(inst), "--cert", str(bad))):
                code, lines, err = run_cli(capsys, *argv)
                assert code == 4 and lines == [] and "Traceback" not in err
                assert err.strip().splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("kind, payload, message", [
        ("CollisionScale", {"t": "x"}, "'t' as an integer in [0, 64), got 'x'"),
        ("CollisionScale", {}, "'t' as an integer in [0, 64), got None"),
        ("CollisionScale", {"t": -3}, "'t' as an integer in [0, 64), got -3"),
        ("ClawScale", {"t": 2.5}, "'t' as an integer in [0, 64), got 2.5"),
        ("ClawScale", {"t": 64}, "'t' as an integer in [0, 64), got 64"),
        ("CollisionScale", {"t": True}, "'t' as an integer in [0, 64), got True"),
        ("FixedPointPrimes", {"primes": 7}, "'primes' as a list of integers, got 7"),
        ("StarDegrees", {"degrees": [3, 4.0]},
         "'degrees' as a list of integers, got [3, 4.0]"),
        ("BackboneIndex", {"index": "2", "k": 4}, "'index' as an integer, got '2'"),
        ("BackboneIndex", {"index": 2, "k": False}, "'k' as an integer, got False"),
    ])
    def test_bad_certificate_payload_exits_4(self, collision_files, tmp_path,
                                             capsys, kind, payload, message):
        inst, _ = collision_files
        bad = tmp_path / "bad.certificate.json"
        bad.write_text(json.dumps({"format": "qsep-certificate", "kind": kind,
                                   "payload": payload}))
        capsys.readouterr()
        for argv in (("run", "--instance", str(inst), "--cert", str(bad),
                      "--detector", "cert-collision", "--seed", "1"),
                     ("verify", "--instance", str(inst), "--cert", str(bad))):
            code, lines, err = run_cli(capsys, *argv)
            assert code == 4 and lines == [] and "Traceback" not in err
            assert err.strip().splitlines() == [
                f"error: a {kind} payload needs {message}"]

    def test_witness_free_instance_stops_at_the_default_budget(
            self, tmp_path, capsys):
        main(["gen", "--construction", "collision-fn", "--n", "1024", "--scales",
              "2..4", "--b-override", "0", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(tmp_path / "collision-fn.instance.json"),
            "--cert", str(tmp_path / "collision-fn.certificate.json"),
            "--detector", "cert-collision", "--seed", "1")
        assert code == 0 and "Traceback" not in err
        rec = last_json(lines)
        assert (rec["status"], rec["queries"]) == ("BudgetExceeded", 16 * 1024)
        # with --max-attempts the walker has an end of its own, and no default
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(tmp_path / "collision-fn.instance.json"),
            "--cert", str(tmp_path / "collision-fn.certificate.json"),
            "--detector", "cert-collision", "--seed", "1", "--max-attempts", "20000")
        assert code == 0 and "Traceback" not in err
        rec = last_json(lines)
        assert (rec["status"], rec["attempts"]) == ("Exhausted", 20000)
        assert rec["queries"] > 16 * 1024

    def test_self_ending_detector_has_no_default_budget(self, tmp_path, capsys):
        # cert-fixedpoint gives up after 64 iterations; on a fixed-point-free
        # instance those cost more than 16 n queries, and it still ends Exhausted
        main(["gen", "--construction", "collision-fn", "--n", "1024", "--scales",
              "2..4", "--no-fixed-points", "--out-dir", str(tmp_path)])
        main(["gen", "--construction", "fixedpoint-fn", "--n", "1024", "--seed",
              "3", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(tmp_path / "collision-fn.instance.json"),
            "--cert", str(tmp_path / "fixedpoint-fn.certificate.json"),
            "--detector", "cert-fixedpoint", "--seed", "1")
        assert code == 0 and "Traceback" not in err
        rec = last_json(lines)
        assert (rec["status"], rec["attempts"]) == ("Exhausted", 64)
        assert rec["queries"] > 16 * 1024

    @pytest.mark.parametrize("flags, message", [
        (("--target", "edge"), "invalid choice: 'edge'"),
        # the detector's own check, reached once the instance is read
        (("--target", "k-star"), "k-star target needs k"),
        # this printed "valid": false for a witness with no leaves, exit 1
        (("--target", "k-star", "--k", "0"), "k must be >= 1, got 0")])
    def test_bad_uniform_probe_target_exits_2(self, collision_files, capsys,
                                              flags, message):
        inst, _ = collision_files
        capsys.readouterr()
        try:
            code = main(["run", "--instance", str(inst), "--detector",
                         "uniform-probe", *flags])
        except SystemExit as e:   # argparse rejects a bad choice itself
            code = e.code
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        assert "error:" in err and message in err

    @pytest.mark.parametrize("flags, message", [
        (("multiscale", "--scales", "3..a"), "expected A..B scale window, got '3..a'"),
        (("multiscale", "--scales", "3"), "expected A..B scale window, got '3'"),
        # this ran no scale and reported Exhausted after 0 queries
        (("multiscale", "--scales", "5..2"), "i_max must be >= 5, got 2"),
        # the certificate's scale is 5, and a one-scale window holds no other
        (("cert-collision", "--corrupt-cert"), "[5, 5] holds no value but 5")])
    def test_bad_scale_window_exits_2(self, tmp_path, capsys, flags, message):
        main(["gen", "--construction", "collision-fn", "--n", "4096",
              "--scales", "5..5", "--seed", "7", "--out-dir", str(tmp_path)])
        inst, cert = (tmp_path / f"collision-fn.{kind}.json"
                      for kind in ("instance", "certificate"))
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(cert),
            "--detector", *flags, "--seed", "1")
        assert code == 2 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [f"error: {message}"]

    def test_corrupt_cert_draws_from_the_instance_window(self, tmp_path, capsys):
        # the true scale is the window's top, so the next one up lies outside
        main(["gen", "--construction", "collision-fn", "--n", "4096",
              "--scales", "2..5", "--t-override", "5", "--seed", "7",
              "--out-dir", str(tmp_path)])
        inst, cert = (tmp_path / f"collision-fn.{kind}.json"
                      for kind in ("instance", "certificate"))
        meta = read_instance(inst).meta
        assert read_certificate(cert).payload == {"t": 5}
        for seed in range(12):
            wrong = corrupt_certificate(read_certificate(cert), seed, meta.extras)
            assert 2 <= wrong.payload["t"] <= 4
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(cert),
            "--detector", "cert-collision", "--corrupt-cert",
            "--max-attempts", "200", "--seed", "1")
        assert code == 0 and last_json(lines)["corrupted-cert"] is True
        assert "Traceback" not in err

    @pytest.mark.parametrize("construction, flags, detector, key, value, message", [
        ("starpath-graph", ("--n", "1024"), "cert-starpath", "s", "x",
         "meta extras 's' must be an integer, got 'x'"),
        ("collision-fn", ("--n", "1024", "--scales", "2..4"), "cert-collision",
         "scales", ["2", "4"], "meta extras 'scales' must be a list of integers, "
                               "got ['2', '4']"),
        ("claw-graph", ("--n", "1024", "--scales", "2..4"), "cert-claw",
         "scales", 3, "meta extras 'scales' must be a list of integers, got 3")])
    def test_malformed_meta_window_under_corrupt_cert_exits_4(
            self, tmp_path, capsys, construction, flags, detector, key, value,
            message):
        # a malformed backbone length ended in a ValueError traceback
        main(["gen", "--construction", construction, *flags, "--seed", "1",
              "--out-dir", str(tmp_path)])
        inst, cert = (tmp_path / f"{construction}.{kind}.json"
                      for kind in ("instance", "certificate"))
        doc = json.loads(inst.read_text())
        doc["meta"]["extras"][key] = value
        inst.write_text(json.dumps(doc))
        capsys.readouterr()
        code, lines, err = run_cli(
            capsys, "run", "--instance", str(inst), "--cert", str(cert),
            "--detector", detector, "--corrupt-cert", "--seed", "1")
        assert code == 4 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [f"error: {message}"]

    def test_missing_instance_exits_4(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--instance", str(tmp_path / "missing.json"),
            "--detector", "multiscale", "--seed", "1")
        assert code == 4 and "error:" in err


SEP_BATTERY = {
    "kind": "separation",
    "master_seed": 11,
    "trials": 5,
    "budget_factor": 50.0,
    "pilot_trials": 4,
    "points": [
        {"x": 2, "n": 4096, "generator": "collision-fn",
         "gen_kwargs": {"params": {"i_min": 2, "i_max": 4, "c": 0.3}},
         "baseline_kwargs": {"i_min": 2, "i_max": 4}},
        {"x": 3, "n": 4096, "generator": "collision-fn",
         "gen_kwargs": {"params": {"i_min": 2, "i_max": 5, "c": 0.3}},
         "baseline_kwargs": {"i_min": 2, "i_max": 5}},
        {"x": 4, "n": 4096, "generator": "collision-fn",
         "gen_kwargs": {"params": {"i_min": 2, "i_max": 6, "c": 0.3}},
         "baseline_kwargs": {"i_min": 2, "i_max": 6}},
    ],
}

SLOPE_BATTERY = {
    "kind": "slope",
    "master_seed": 3,
    "series": [
        {"label": "walks", "generator": "fixedpoint-fn",
         "detector": "cert-fixedpoint", "gen_kwargs": {},
         "det_kwargs": {"C": 2.0}, "ns": [4096, 16384, 65536], "trials": 3},
    ],
}

UNIFORM_SERIES = {"label": "a", "generator": "starpath-graph",
                  "detector": "uniform-probe", "gen_kwargs": {"k": 4},
                  "ns": [1024], "trials": 2}


class TestBench:
    def test_separation_report_rows_and_determinism(self, tmp_path, capsys):
        spec = tmp_path / "sep.json"
        spec.write_text(json.dumps(SEP_BATTERY))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        code, lines, _ = run_cli(capsys, "bench", "--battery", str(spec),
                                 "--out-dir", str(d1), "--threads", "2")
        assert code == 0
        report = json.loads((d1 / "separation.report.json").read_text())
        assert len(report["rows"]) == 3
        assert all(r["ratio"] > 0 for r in report["rows"])
        code, _, _ = run_cli(capsys, "bench", "--battery", str(spec),
                             "--out-dir", str(d2), "--threads", "1")
        assert code == 0
        assert digest(d1 / "separation.trials.csv") == \
            digest(d2 / "separation.trials.csv")
        assert digest(d1 / "separation.report.json") == \
            digest(d2 / "separation.report.json")

    def test_csv_carries_config_hash_header(self, tmp_path, capsys):
        spec = tmp_path / "sep.json"
        spec.write_text(json.dumps(SEP_BATTERY))
        code, lines, _ = run_cli(capsys, "bench", "--battery", str(spec),
                                 "--out-dir", str(tmp_path), "--threads", "1")
        assert code == 0
        h = last_json(lines)["config-hash"]
        first = (tmp_path / "separation.trials.csv").read_text().splitlines()[0]
        assert first == f"# config {h}"
        # reader skips the header
        rows = read_trials_csv(tmp_path / "separation.trials.csv")
        assert len(rows) == 2 * 3 * 5

    def test_slope_plot_parses_back_to_report_rows(self, tmp_path, capsys):
        # a budget of 0 makes every mean 0, which a log axis cannot hold:
        # that axis is drawn linear, where it raised a ValueError
        for extra in ({}, {"budget": 0}):
            spec = tmp_path / "slope.json"
            spec.write_text(json.dumps({**SLOPE_BATTERY, "series": [
                {**SLOPE_BATTERY["series"][0], **extra}]}))
            code, _, _ = run_cli(capsys, "bench", "--battery", str(spec),
                                 "--out-dir", str(tmp_path), "--threads", "1",
                                 "--plot")
            assert code == 0
            series = parse_chart((tmp_path / "slope.svg").read_text())
            report = json.loads((tmp_path / "slope.report.json").read_text())
            xs, ys = series["walks"]
            assert xs == [float(r["n"]) for r in report["rows"]]
            assert ys == [r["mean_queries"] for r in report["rows"]]

    def test_slope_series_without_budget_stops_at_16n(self, tmp_path, capsys):
        # a restarting walker on witness-free instances has no end of its
        # own, so a series without a "budget" stops at 16 n, as `run` does
        spec = tmp_path / "free.json"
        spec.write_text(json.dumps({"kind": "slope", "series": [
            {"label": "free", "generator": "collision-fn",
             "gen_kwargs": {"params": {"i_min": 2, "i_max": 4}, "b_override": 0},
             "detector": "cert-collision", "ns": [1024]}]}))
        code, _, err = run_cli(capsys, "bench", "--battery", str(spec),
                               "--out-dir", str(tmp_path), "--threads", "1")
        assert code == 0 and "Traceback" not in err
        rows = read_trials_csv(tmp_path / "slope.trials.csv")
        assert [(r["status"], int(r["queries"])) for r in rows] == \
            [("BudgetExceeded", 16 * 1024)] * 10

    def test_witness_free_separation_point_stops_at_the_default_budget(
            self, tmp_path):
        # the pilot ran the certificate walker with no budget and never
        # ended; a subprocess with a timeout fails here instead of hanging
        spec = tmp_path / "free.json"
        spec.write_text(json.dumps({
            "kind": "separation", "trials": 2, "pilot_trials": 2,
            "budget_factor": 1, "points": [{
                "x": 2, "n": 1024, "generator": "collision-fn",
                "gen_kwargs": {"params": {"i_min": 2, "i_max": 4},
                               "b_override": 0},
                "baseline_kwargs": {"i_min": 2, "i_max": 4}}]}))
        src = str(Path(qsep.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "qsep.cli", "bench", "--battery", str(spec),
             "--threads", "1", "--out-dir", str(tmp_path)],
            timeout=120, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        # the walker ends only Found or at its budget, so a pilot mean of
        # 16 n means every pilot row spent its 16 n and ended BudgetExceeded
        report = json.loads((tmp_path / "separation.report.json").read_text())
        assert report["report"]["budgets"] == [16 * 1024]
        rows = read_trials_csv(tmp_path / "separation.trials.csv")
        assert [(r["detector"], r["status"], int(r["queries"])) for r in rows] == \
            [("cert-collision", "BudgetExceeded", 16 * 1024)] * 2 + \
            [("multiscale", "BudgetExceeded", 16 * 1024)] * 2

    def test_pilot_without_a_found_row_keeps_its_budget(self, tmp_path, capsys):
        # a censored pilot row's count is a lower bound, not a cost, so a
        # pilot without a Found row keeps its own 16 n budget
        spec = tmp_path / "free.json"
        spec.write_text(json.dumps({
            "kind": "separation", "trials": 2, "pilot_trials": 2, "points": [{
                "x": 2, "n": 1024, "generator": "collision-fn",
                "gen_kwargs": {"params": {"i_min": 2, "i_max": 4},
                               "b_override": 0},
                "baseline_kwargs": {"i_min": 2, "i_max": 4}}]}))
        code, lines, _ = run_cli(capsys, "bench", "--battery", str(spec),
                                 "--out-dir", str(tmp_path), "--threads", "1",
                                 "--strict")
        assert code == 1 and last_json(lines)["warnings"] == 5
        report = json.loads((tmp_path / "separation.report.json").read_text())
        assert report["report"]["budgets"] == [16 * 1024]
        rows = read_trials_csv(tmp_path / "separation.trials.csv")
        assert len(rows) == 4
        assert all(int(r["queries"]) <= 16 * 1024 for r in rows)

    def test_starved_baseline_lane_is_a_warning(self, tmp_path, capsys):
        # the good scale is the window's top, so the baseline's sweep over a
        # wider window outruns a budget of twice the certificate pilot's mean
        spec = tmp_path / "starved.json"
        spec.write_text(json.dumps({
            "kind": "separation", "master_seed": 5, "trials": 4,
            "pilot_trials": 4, "budget_factor": 2, "points": [{
                "x": 2, "n": 4096, "generator": "collision-fn",
                "gen_kwargs": {"params": {"i_min": 2, "i_max": 8},
                               "t_override": 8},
                "baseline_kwargs": {"i_min": 2, "i_max": 11}}]}))
        code, lines, _ = run_cli(capsys, "bench", "--battery", str(spec),
                                 "--out-dir", str(tmp_path), "--threads", "1",
                                 "--strict")
        rows = read_trials_csv(tmp_path / "separation.trials.csv")
        missed = Counter(r["detector"] for r in rows if r["status"] != "Found")
        assert missed == {"multiscale": 1}
        assert code == 1 and last_json(lines)["warnings"] == 1

    def test_undecodable_battery_exits_4(self, tmp_path, capsys):
        spec = tmp_path / "sep.json"
        spec.write_bytes(b"\xff\xfe" + json.dumps(SEP_BATTERY).encode())
        code, lines, err = run_cli(capsys, "bench", "--battery", str(spec),
                                   "--out-dir", str(tmp_path / "out"))
        assert code == 4 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [
            f"error: {spec}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte"]

    @pytest.mark.parametrize("edit", [
        {"trials": 0},
        {"trials": 2, "points": [{**SEP_BATTERY["points"][0],
                                  "cert_kwargs": {"max_attempts": 0}}]}])
    def test_undefined_ratio_is_null(self, tmp_path, capsys, edit):
        # a certificate mean of 0 wrote Infinity, which strict parsers refuse
        spec = tmp_path / "sep.json"
        spec.write_text(json.dumps({**SEP_BATTERY, "points": SEP_BATTERY["points"][:1],
                                    **edit}))
        code, lines, _ = run_cli(capsys, "bench", "--battery", str(spec),
                                 "--out-dir", str(tmp_path), "--threads", "1")
        assert code == 0 and last_json(lines)["ratios"] == [None]
        report = json.loads((tmp_path / "separation.report.json").read_text(),
                            parse_constant=_refuse_constant)
        assert report["report"]["ratios"] == [None]
        assert report["rows"][0]["ratio"] is None

    @pytest.mark.parametrize("path", sorted(BATTERIES.glob("*.json")),
                             ids=lambda path: path.name)
    def test_committed_battery_passes_the_spec_check(self, path):
        kind, kw = _check_battery(json.loads(path.read_text()))
        key, record = {"separation": ("points", SeparationPoint),
                       "slope": ("series", SlopeSeries)}[kind]
        assert kw[key] and all(type(entry) is record for entry in kw[key])

    def test_bad_battery_kind_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"kind": "nope"}))
        code, _, err = run_cli(capsys, "bench", "--battery", str(spec),
                               "--out-dir", str(tmp_path))
        assert code == 2 and "separation|slope" in err

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "slope"}, "battery spec lacks 'series', which slope_experiment needs"),
        ({"kind": "separation", "points": []},
         "a separation battery needs a non-empty 'points' list"),
        ({"kind": "separation", "points": {"x": 2}},
         "a separation battery needs a non-empty 'points' list"),
        ({"kind": "slope", "series": [{"label": "a", "generator": "fixedpoint-fn"}]},
         "series[0] lacks 'detector', 'ns', which SlopeSeries needs"),
        ({**SEP_BATTERY, "points": [*SEP_BATTERY["points"], {"x": 5, "n": 4096}]},
         "points[3] lacks 'generator', which SeparationPoint needs"),
        ({"kind": "slope", "series": [3]}, "series[0] must be a JSON object, got 3"),
        (["slope"], "battery spec must be a JSON object"),
        # a misspelled key at each level; the top level's and an entry's
        # ran at the defaults, or with the keyword object left out
        ({**SEP_BATTERY, "pilot_trails": 1, "budget_factr": 2},
         "battery spec names 'pilot_trails', 'budget_factr', which "
         "separation_experiment does not take"),
        ({**SLOPE_BATTERY, "trials": 2},
         "battery spec names 'trials', which slope_experiment does not take"),
        ({**SEP_BATTERY, "points": [{**SEP_BATTERY["points"][0],
                                     "cert_kwarg": {"batch": 1}}]},
         "points[0] names 'cert_kwarg', which SeparationPoint does not take"),
        ({**SLOPE_BATTERY, "series": [{**SLOPE_BATTERY["series"][0], "trial": 2,
                                       "det_kwarg": {"C": 9.0}}]},
         "series[0] names 'trial', 'det_kwarg', which SlopeSeries does not take"),
        ({**SEP_BATTERY, "points": [{**SEP_BATTERY["points"][0],
                                     "cert_kwargs": {"bacth": 1}}]},
         "points[0].cert_kwargs names 'bacth', which cert-collision does not take"),
        ({**SLOPE_BATTERY, "series": [{**SLOPE_BATTERY["series"][0],
                                       "gen_kwargs": {"params": {"alpah": 0.2}}}]},
         "series[0].gen_kwargs.params names 'alpah', which FixedPointParams does "
         "not take"),
        # two series of one label: the report kept the second one's fit only,
        # and the chart one line
        ({**SLOPE_BATTERY, "series": [{**SLOPE_BATTERY["series"][0], "label": "w"},
                                      {**SLOPE_BATTERY["series"][0], "label": "w",
                                       "det_kwargs": {"C": 3.0}}]},
         "series[0] and series[1] share the label 'w'"),
    ])
    def test_incomplete_battery_spec_exits_2(self, tmp_path, capsys, spec,
                                             message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, lines, err = run_cli(capsys, "bench", "--battery", str(path),
                                   "--out-dir", str(tmp_path / "out"))
        assert code == 2 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("edit, message", [
        ({"points": [{**SEP_BATTERY["points"][0], "generator": "bogus"}]},
         "points[0].generator must be one of the generators claw-graph, "
         "collision-fn, fixedpoint-fn, star-graph, starpath-graph, got 'bogus'"),
        ({"points": [{**SEP_BATTERY["points"][0], "cert_detector": "bogus"}]},
         "points[0].cert_detector must be one of the detectors cert-claw, "
         "cert-collision, cert-fixedpoint, cert-star, cert-starpath, "
         "multiscale, uniform-probe, got 'bogus'"),
        ({"points": [{**SEP_BATTERY["points"][0], "n": "4096"}]},
         "points[0].n must be int, got '4096'"),
        ({"trials": "5"}, "trials must be int, got '5'"),
        ({"kind": ["slope"]},
         "battery kind must be separation|slope, got ['slope']"),
        ({"pilot_trials": 0}, "pilot_trials must be >= 1, got 0"),
        ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
        ({"budget_factor": float("inf")},
         "budget_factor must be a finite number > 0, got inf"),
        ({"points": [{**SEP_BATTERY["points"][0], "baseline_kwargs": {}}]},
         "points[0].baseline_kwargs lacks 'i_min', 'i_max', which multiscale "
         "needs"),
        ({"points": [{**SEP_BATTERY["points"][0], "gen_kwargs": [2, 4]}]},
         "points[0].gen_kwargs must be a JSON object, got [2, 4]"),
        ({"points": [{**SEP_BATTERY["points"][0], "cert_detector": "cert-star"}]},
         "cert-star needs a StarDegrees certificate, got a CollisionScale "
         "certificate from collision-fn"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "detector": "bogus"}]},
         "series[0].detector must be one of the detectors cert-claw, "
         "cert-collision, cert-fixedpoint, cert-star, cert-starpath, "
         "multiscale, uniform-probe, got 'bogus'"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "trials": "3"}]},
         "series[0].trials must be int, got '3'"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "ns": [4096, "x"]}]},
         "series[0].ns[1] must be int, got 'x'"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "det_kwargs": {"C": 2.0, "k": 5}}]},
         "series[0].det_kwargs names 'k', which cert-fixedpoint does not take"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "gen_kwargs": {"b_override": 0}}]},
         "series[0].gen_kwargs names 'b_override', which fixedpoint-fn does "
         "not take"),
        # the values inside params and det_kwargs
        ({"points": [{**SEP_BATTERY["points"][0],
                      "gen_kwargs": {"params": {"bogus": 1}}}]},
         "points[0].gen_kwargs.params names 'bogus', which ScaleParams does "
         "not take"),
        ({"points": [{**SEP_BATTERY["points"][0],
                      "gen_kwargs": {"params": {"c": "x"}}}]},
         "points[0].gen_kwargs.params.c must be float, got 'x'"),
        ({"points": [{**SEP_BATTERY["points"][0],
                      "gen_kwargs": {"params": {"rho": "x"}}}]},
         "rho must lie in (0, 1] or be 'auto'"),
        ({"points": [{**SEP_BATTERY["points"][0],
                      "gen_kwargs": {"params": [2, 4]}}]},
         "points[0].gen_kwargs.params must be a JSON object, got [2, 4]"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "gen_kwargs": {"params": {"alpha": "x"}}}]},
         "series[0].gen_kwargs.params.alpha must be float, got 'x'"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "gen_kwargs": {"params": {"T": 1.0}}}]},
         "series[0].gen_kwargs.params.T must be int, got 1.0"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "det_kwargs": {"C": "x"}}]},
         "series[0].det_kwargs.C must be float, got 'x'"),
        # the values of keywords outside params, checked against their
        # annotations
        ({"kind": "slope", "series": [{
            "label": "a", "generator": "starpath-graph", "detector": "cert-starpath",
            "ns": [1024], "gen_kwargs": {"k": "x"}}]},
         "series[0].gen_kwargs.k must be int, got 'x'"),
        ({"points": [{**SEP_BATTERY["points"][0],
                      "gen_kwargs": {"params": {"i_min": 2, "i_max": 4},
                                     "b_override": "x"}}]},
         "points[0].gen_kwargs.b_override must be int | None, got 'x'"),
        ({"points": [{**SEP_BATTERY["points"][0],
                      "baseline_kwargs": {"i_min": "x", "i_max": 4}}]},
         "points[0].baseline_kwargs.i_min must be int, got 'x'"),
        ({"kind": "slope", "series": [{
            "label": "a", "generator": "collision-fn", "detector": "cert-collision",
            "ns": [1024], "det_kwargs": {"max_attempts": "x"}}]},
         "series[0].det_kwargs.max_attempts must be int | None, got 'x'"),
        ({"points": [{**SEP_BATTERY["points"][0],
                      "baseline_kwargs": {"i_min": -1, "i_max": 4}}]},
         "i_min must be >= 0, got -1"),
        # counts the walkers cannot run with: batch 0 reported ratios
        # [Infinity], a negative max_attempts Exhausted after 0 queries
        ({"points": [{**SEP_BATTERY["points"][0], "cert_kwargs": {"batch": 0}}]},
         "batch must be >= 1, got 0"),
        ({"points": [{**SEP_BATTERY["points"][0],
                      "cert_kwargs": {"max_attempts": -1}}]},
         "max_attempts must be >= 0, got -1"),
        ({"points": [{**SEP_BATTERY["points"][0], "baseline_kwargs": {
            "i_min": 2, "i_max": 4, "max_attempts": -1}}]},
         "max_attempts must be >= 0, got -1"),
        ({"kind": "slope", "series": [{
            "label": "a", "generator": "claw-graph", "detector": "cert-claw",
            "ns": [1024], "det_kwargs": {"max_attempts": -1}}]},
         "max_attempts must be >= 0, got -1"),
        # an empty scale window and a negative iteration cap: each was
        # Exhausted after 0 queries, and the window printed ratios [0.0]
        ({"points": [{**SEP_BATTERY["points"][0],
                      "baseline_kwargs": {"i_min": 4, "i_max": 2}}]},
         "i_max must be >= 4, got 2"),
        ({"kind": "slope", "series": [{**SLOPE_BATTERY["series"][0],
                                       "det_kwargs": {"C": 2.0, "max_iterations": -3}}]},
         "max_iterations must be >= 0, got -3"),
        # uniform-probe's batch size is fixed: chunk 0 ended in a range()
        # traceback, chunk -1 reported Exhausted after 0 queries
        ({"kind": "slope", "series": [{
            **UNIFORM_SERIES, "det_kwargs": {"target": "fixed-point", "chunk": 0}}]},
         "series[0].det_kwargs names 'chunk', which uniform-probe does not take"),
        # a bad target or a missing k ended in a ValueError traceback, and
        # k 0 in a RuntimeError traceback on a witness with no leaves
        ({"kind": "slope", "series": [{
            **UNIFORM_SERIES, "det_kwargs": {"target": "edge"}}]},
         "unsupported target 'edge'"),
        ({"kind": "slope", "series": [{
            **UNIFORM_SERIES, "det_kwargs": {"target": "k-star"}}]},
         "k-star target needs k"),
        ({"kind": "slope", "series": [{
            **UNIFORM_SERIES, "det_kwargs": {"target": "k-star", "k": 0}}]},
         "k must be >= 1, got 0"),
    ])
    def test_malformed_battery_spec_exits_2(self, tmp_path, capsys, edit,
                                            message, threads):
        # each of these ended in a traceback with exit 1
        base = SLOPE_BATTERY if edit.get("kind") == "slope" else SEP_BATTERY
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**base, **edit}))
        code, lines, err = run_cli(capsys, "bench", "--battery", str(path),
                                   "--out-dir", str(tmp_path / "out"),
                                   "--threads", threads)
        assert code == 2 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_spec_seed_is_checked_when_seed_overrides_it(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SEP_BATTERY, "master_seed": -1}))
        code, lines, err = run_cli(capsys, "bench", "--battery", str(path), "--seed", "5",
                                   "--out-dir", str(tmp_path / "out"))
        assert code == 2 and lines == []
        assert err.strip().splitlines() == ["error: master_seed must be >= 0, got -1"]

    @pytest.mark.parametrize("kind, entry", [("separation", "points[1]"),
                                             ("slope", "series[1]")])
    def test_entry_beyond_memory_names_it_and_exits_2(self, tmp_path, kind,
                                                      entry):
        # the error line named no point, series or n
        n = 1 << 40
        if kind == "separation":
            spec = {**SEP_BATTERY, "trials": 1, "pilot_trials": 1, "points": [
                SEP_BATTERY["points"][0], {**SEP_BATTERY["points"][0], "n": n}]}
        else:
            series = {**SLOPE_BATTERY["series"][0], "ns": [1024], "trials": 1}
            spec = {**SLOPE_BATTERY, "series": [
                series, {**series, "label": "big", "ns": [1024, n]}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        done = _run_in_2_gib("bench", "--battery", str(path), "--threads", "1",
                             "--out-dir", str(tmp_path / "out"))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(
            f"error: not enough memory for {entry} (n {n}): ")
        assert len(done.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        # these ran serially and exited 0
        spec = tmp_path / "sep.json"
        spec.write_text(json.dumps(SEP_BATTERY))
        code, lines, err = run_cli(capsys, "bench", "--battery", str(spec),
                                   "--out-dir", str(tmp_path / "out"),
                                   "--threads", threads)
        assert code == 2 and lines == []
        assert err.strip().splitlines() == [
            f"error: --threads must be >= 1, got {threads}"]
        assert not (tmp_path / "out").exists()


# criterion 9's two battery specs, cut to n <= 1024 and at most 2 trials,
# with the certificate walker's keywords spelled out at their defaults
FUZZ_SPECS = [
    {"kind": "separation", "master_seed": 11, "trials": 2, "pilot_trials": 2,
     "points": [
         {"x": x, "n": 1024, "generator": "collision-fn",
          "gen_kwargs": {"params": {"i_min": 2, "i_max": hi, "c": 0.3}},
          "cert_kwargs": {"batch": 16, "max_attempts": None},
          "baseline_kwargs": {"i_min": 2, "i_max": hi}}
         for x, hi in ((2, 4), (3, 5))]},
    {"kind": "slope", "master_seed": 3, "series": [
        {"label": "walks", "generator": "fixedpoint-fn",
         "detector": "cert-fixedpoint", "det_kwargs": {"C": 2.0},
         "ns": [512, 1024], "trials": 2}]},
]

# what a mutation puts in place of a value: wrong types, 0, negatives and
# unknown names
FUZZ_VALUES = ["x", "bogus-name", 1.5, True, None, [], [3], {}, 0, -1, -4096]


@st.composite
def mutated_specs(draw):
    """One of FUZZ_SPECS with one to three mutations: drop a key, swap its
    value, or add an unknown key. A mutation reaches the spec's own keys,
    an entry's keys, the keys of an entry's keyword-argument objects and
    the keys of a generator's params."""
    spec = copy.deepcopy(draw(st.sampled_from(FUZZ_SPECS)))
    for _ in range(draw(st.integers(1, 3))):
        entries = spec.get("points", spec.get("series"))
        entries = [e for e in entries if isinstance(e, dict)] \
            if isinstance(entries, list) else []
        kwargs = [v for e in entries for k, v in e.items()
                  if k.endswith("_kwargs") and isinstance(v, dict)]
        params = [v["params"] for v in kwargs if isinstance(v.get("params"), dict)]
        target = draw(st.sampled_from([spec, *entries, *kwargs, *params]))
        action = draw(st.sampled_from(["add", "drop", "swap"] if target else ["add"]))
        if action == "add":
            target["bogus_key"] = draw(st.sampled_from(FUZZ_VALUES))
            continue
        key = draw(st.sampled_from(sorted(target)))
        if action == "drop":
            del target[key]
        else:
            target[key] = draw(st.sampled_from(FUZZ_VALUES))
    return spec


def _quietly(argv):
    """Run a command with its output captured; return its exit code, or
    argparse's, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


class TestBenchFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(mutated_specs())
    def test_mutated_spec_exits_with_a_documented_code(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec))
            runs = {t: _quietly(["bench", "--battery", str(path), "--out-dir",
                                 str(Path(tmp) / t), "--threads", t])
                    for t in "12"}
            (code, err), (code2, err2) = runs["1"], runs["2"]
            assert code in range(5) and "Traceback" not in err, (code, err)
            assert (code, err) == (code2, err2)
            if code == 0:
                csv_name = f"{spec['kind']}.trials.csv"
                assert (Path(tmp) / "1" / csv_name).read_bytes() == \
                    (Path(tmp) / "2" / csv_name).read_bytes()


class TestVerify:
    def test_fresh_instance_passes_with_count_line(self, collision_files,
                                                   capsys):
        inst, cert = collision_files
        capsys.readouterr()
        code, lines, _ = run_cli(capsys, "verify", "--instance", str(inst),
                                 "--cert", str(cert))
        assert code == 0
        assert any("expected / " in ln and " found" in ln for ln in lines)
        assert last_json(lines)["ok"] is True

    def test_corrupted_succ_fails_partition(self, collision_files, tmp_path,
                                            capsys):
        inst_path, _ = collision_files
        inst = read_instance(inst_path)
        # break one interior arrow of the first multi-element structure
        for kind, _, members in inst.meta.structures():
            if len(members) >= 2:
                inst.succ[int(members[0])] = int(members[0])
                break
        bad = tmp_path / "bad.json"
        write_instance(inst, bad)
        capsys.readouterr()
        code, lines, _ = run_cli(capsys, "verify", "--instance", str(bad))
        assert code == 1
        assert any(ln.startswith("FAIL partition") for ln in lines)

    @pytest.mark.parametrize("construction, edits, message", [
        ("collision-fn", [("path", lambda m: (m[1], m[0]))],
         "path interior does not chain under f"),
        ("collision-fn", [("cycle", lambda m: (m[-1], m[-1]))],
         "cycle does not close under f"),
        ("collision-fn", [("isolated", lambda m: (m[0], m[1]))],
         "isolated element not fixed"),
        ("fixedpoint-fn", [("feeder", lambda m: (m[0], m[0]))],
         "feeder interior does not chain under f"),
        # with two broken structures the first in structure order is named
        ("collision-fn", [("isolated", lambda m: (m[0], m[1])),
                          ("path", lambda m: (m[1], m[0]))],
         "path interior does not chain under f"),
    ])
    def test_broken_structure_names_its_kind(self, tmp_path, capsys,
                                             construction, edits, message):
        main(["gen", "--construction", construction, "--n", "4096",
              "--seed", "7", "--out-dir", str(tmp_path)])
        path = tmp_path / f"{construction}.instance.json"
        inst = read_instance(path)
        # each edit maps the first structure of its kind with two or more
        # members to (an element, its new image)
        for kind, edit in edits:
            v, image = edit(next(m for k, _, m in inst.meta.structures()
                                 if k == kind and len(m) >= 2))
            inst.succ[int(v)] = int(image)
        write_instance(inst, path)
        capsys.readouterr()
        code, lines, _ = run_cli(capsys, "verify", "--instance", str(path))
        assert code == 1
        assert lines[:-1] == [f"FAIL partition: {message}"]
        assert last_json(lines)["failed"] == "partition"

    @staticmethod
    def _loop_check(inst):
        """The structure check as a loop over structures: the reference
        for the one-pass check in qsep.cli."""
        succ, meta = inst.succ, inst.meta
        planted = [v for w in meta.witness_locations for v in w]
        for kind, _, m in meta.structures():
            if kind in ("path", "feeder"):
                if not np.array_equal(succ[m[:-1]], m[1:]):
                    return f"{kind} interior does not chain under f"
            elif kind == "cycle":
                nxt = np.roll(m, -1)
                if not np.array_equal(succ[m], nxt) and not np.all(
                        np.where(np.isin(m, planted), succ[m] == m, succ[m] == nxt)):
                    return "cycle does not close under f"
            elif kind == "isolated":
                if not np.array_equal(succ[m], m):
                    return "isolated element not fixed"
        return None

    @pytest.mark.parametrize("seed", range(4))
    def test_one_pass_check_matches_the_loop(self, seed):
        # random layouts of every kind, empty and one-member structures
        # included, with f mostly following them and a few arrows moved
        rng = np.random.default_rng(seed)
        for _ in range(400):
            n = int(rng.integers(1, 12))
            cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 6))))
            offsets = np.r_[0, cuts, n].astype(np.int64)
            kinds = rng.integers(0, len(KIND_NAMES), len(offsets) - 1).astype(np.int8)
            members = rng.permutation(n).astype(np.int64)
            succ = np.arange(n, dtype=np.int64)
            for k, lo, hi in zip(kinds, offsets[:-1], offsets[1:]):
                if k in (KIND_PATH, KIND_CYCLE, KIND_FEEDER):
                    succ[members[lo:hi]] = np.roll(members[lo:hi], -1)
            witnesses = [tuple(rng.integers(0, n, 1)) for _ in range(rng.integers(3))]
            for (v,) in witnesses:
                if rng.random() < 0.7:
                    succ[v] = v
            for _ in range(rng.integers(3)):
                succ[rng.integers(n)] = rng.integers(n)
            inst = FunctionInstance(n=n, succ=succ, meta=StructureMeta(
                kinds=kinds, offsets=offsets, members=members,
                witness_locations=witnesses))
            try:
                _check_function_structures(inst)
                got = None
            except VerifyFailure as e:
                got = e.args[1]
            assert got == self._loop_check(inst)

    def test_fixed_point_planted_on_a_cycle_passes(self, tmp_path, capsys):
        main(["gen", "--construction", "fixedpoint-fn", "--n", "4096",
              "--seed", "7", "--out-dir", str(tmp_path)])
        path = tmp_path / "fixedpoint-fn.instance.json"
        inst = read_instance(path)
        (v,), = inst.meta.witness_locations
        assert inst.succ[v] == v
        assert any(k == "cycle" and v in m for k, _, m in inst.meta.structures())
        capsys.readouterr()
        code, lines, _ = run_cli(capsys, "verify", "--instance", str(path))
        assert code == 0 and "partition: ok" in lines
        assert last_json(lines)["ok"] is True

    def test_star_degree_uniqueness_line(self, tmp_path, capsys):
        main(["gen", "--construction", "star", "--n", "4096", "--H",
              "triangle", "--seed", "3", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code, lines, _ = run_cli(
            capsys, "verify",
            "--instance", str(tmp_path / "star-graph.instance.json"),
            "--cert", str(tmp_path / "star-graph.certificate.json"))
        assert code == 0
        assert any(ln.startswith("degree-uniqueness: ok") for ln in lines)

    @pytest.mark.parametrize("construction, flags, path, value, message", [
        ("collision-fn", ("--scales", "2..4"), ("kinds", 0), 9,
         "meta kinds has entries outside [0, 7)"),
        ("collision-fn", ("--scales", "2..4"), ("offsets", 0), 1,
         "meta offsets must rise from 0 to len(members), one more offset "
         "than kinds"),
        ("collision-fn", ("--scales", "2..4"), ("members", 0), 0.5,
         "meta members must be a list of integers"),
        ("star-graph", ("--H", "triangle"), ("extras", "h"), None,
         "meta extras lack 'h'"),
        # each of these ended in a traceback with exit 1
        ("star-graph", ("--H", "triangle"), ("extras", "host_stars"), [0.5],
         "malformed meta extras (TypeError: list indices must be integers or "
         "slices, not float)"),
        ("collision-fn", ("--scales", "2..4"), ("extras",), 3,
         "meta extras must be a JSON object"),
        ("collision-fn", ("--scales", "2..4"), ("witness_locations", 0), [[1, 2]],
         "meta witness locations must be lists of integers"),
        # the certificate's payload is the host cycles' primes
        ("fixedpoint-fn", (), ("extras", "hosts"), None,
         "meta extras lack 'hosts'"),
    ])
    def test_malformed_meta_exits_4(self, tmp_path, capsys, construction,
                                    flags, path, value, message):
        main(["gen", "--construction", construction, "--n", "1024", *flags,
              "--out-dir", str(tmp_path)])
        inst = tmp_path / f"{construction}.instance.json"
        doc = json.loads(inst.read_text())
        *keys, last = path
        target = doc["meta"]
        for key in keys:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
        inst.write_text(json.dumps(doc))
        capsys.readouterr()
        code, lines, err = run_cli(capsys, "verify", "--instance", str(inst))
        assert code == 4 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [f"error: {message}"]

    def test_fixed_point_certificate_on_two_cycles_passes(self, tmp_path, capsys):
        # with two cycles, verify compared the certificate's host prime with
        # every cycle's prime, and refused the file gen had just written
        code, lines, _ = run_cli(
            capsys, "gen", "--construction", "fixedpoint-fn", "--n", "8192",
            "--alpha", "3", "--widen-primes", "--cycle-len", "1024", "--seed", "1",
            "--out-dir", str(tmp_path))
        assert code == 0 and " cycles=2 " in lines[0]
        code, lines, _ = run_cli(
            capsys, "verify",
            "--instance", str(tmp_path / "fixedpoint-fn.instance.json"),
            "--cert", str(tmp_path / "fixedpoint-fn.certificate.json"))
        assert code == 0 and last_json(lines)["ok"] is True
        assert lines[-3:-1] == ["prime-spacing: ok (2 cycles)",
                                "certificate: ok (FixedPointPrimes)"]

    def test_oversize_instance_exits_2(self, tmp_path, capsys):
        main(["gen", "--construction", "collision-fn", "--n", "16384",
              "--scales", "2..5", "--seed", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "verify",
            "--instance", str(tmp_path / "collision-fn.instance.json"))
        assert code == 2 and "brute-force guard" in err


class TestAdversaryAndReport:
    def test_adversary_transcript_consistent(self, tmp_path, capsys):
        code, lines, _ = run_cli(
            capsys, "adversary-test", "--n", "1024", "--scales", "2..4",
            "--seed", "5", "--probes", "400", "--out-dir", str(tmp_path))
        assert code == 0
        rec = last_json(lines)
        assert rec["consistent"] is True
        assert (tmp_path / "adversary.trace.jsonl").exists()
        summary = json.loads((tmp_path / "adversary.summary.json").read_text())
        assert summary["consistent"] is True and "config_hash" in summary

    def test_adversary_test_refutes_a_finalize_that_disagrees(
            self, tmp_path, capsys, monkeypatch):
        # an instance with no edges answers degree 0 where the session's
        # paths answered 1 or 2
        monkeypatch.setattr(qsep.adversary.AdversarySession, "finalize",
                            lambda self: graph_from_edges(self.n, []))
        code, lines, _ = run_cli(
            capsys, "adversary-test", "--n", "1024", "--scales", "2..4",
            "--seed", "5", "--probes", "400", "--out-dir", str(tmp_path))
        assert code == 1 and last_json(lines)["consistent"] is False
        summary = json.loads((tmp_path / "adversary.summary.json").read_text())
        assert summary["consistent"] is False

    def test_report_aggregates_and_plots(self, tmp_path, capsys):
        spec = tmp_path / "slope.json"
        spec.write_text(json.dumps(SLOPE_BATTERY))
        main(["bench", "--battery", str(spec), "--out-dir", str(tmp_path),
              "--threads", "1"])
        capsys.readouterr()
        code, lines, _ = run_cli(
            capsys, "report", "--csv", str(tmp_path / "slope.trials.csv"),
            "--out-dir", str(tmp_path), "--plot")
        assert code == 0
        assert any(ln.startswith("group ") for ln in lines)
        assert (tmp_path / "report.json").exists()
        series = parse_chart((tmp_path / "report.svg").read_text())
        assert "fixedpoint-fn/cert-fixedpoint" in series

    @pytest.mark.parametrize("body, message", [
        (b"a,b\n1,2\n", "{path} has no 'generator' column"),
        (b"config,generator,detector,n,s,trial,seed,status,queries\n"
         b"c,collision-fn,multiscale,abc,,0,1,Found,5\n",
         "{path}: n and queries must be integers, got 'abc' and '5'"),
        # n = 0 ended in a ZeroDivisionError in the slope fit
        (b"config,generator,detector,n,s,trial,seed,status,queries\n"
         b"c,collision-fn,multiscale,0,,0,1,Found,5\n",
         "{path}: n must be >= 1 and queries >= 0, got 0 and 5"),
        (b"\xff\xfeconfig,generator\n",
         "{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
    ])
    def test_malformed_trials_csv_exits_4(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        code, lines, err = run_cli(capsys, "report", "--csv", str(path),
                                   "--out-dir", str(tmp_path / "out"))
        assert code == 4 and lines == [] and "Traceback" not in err
        assert err.strip().splitlines() == [f"error: {message.format(path=path)}"]


# what a mutation puts in place of a flag's value: wrong types, empty,
# negatives, zero, non-finite numbers and malformed scale windows. Sizes
# stay small, since a command asked for 2^40 elements or 10^20 probes
# would try to do that much work.
FUZZ_FLAG_VALUES = ["x", "", "-1", "0", "1", "3", "1025", "1.5", "nan", "inf",
                    "2..4", "4..2", "a..b", "0..40", "-1..3"]
# what a mutation puts in a JSON file: FUZZ_VALUES, labels at and past n,
# integers past int64 and NaN
FUZZ_JSON_VALUES = [*FUZZ_VALUES, 1023, 1024, 4096, 2 ** 63, -2 ** 63 - 1,
                    10 ** 30, float("nan"), "1"]


@functools.cache
def _fuzz_inputs():
    """Each construction's instance and certificate documents as gen writes
    them (the same flags as TestFamilyTable), and a small slope battery's
    trials CSV."""
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in FAMILIES:
            assert _quietly(["gen", "--construction", name, *FAMILY_FLAGS[name],
                             "--seed", "1", "--out-dir", tmp])[0] == 0
            for kind in ("instance", "certificate"):
                docs[name, kind] = json.loads(
                    (Path(tmp) / f"{name}.{kind}.json").read_text())
        spec = Path(tmp) / "slope.json"
        spec.write_text(json.dumps(FUZZ_SPECS[1]))
        assert _quietly(["bench", "--battery", str(spec), "--out-dir", tmp,
                         "--threads", "1"])[0] == 0
        csv_text = (Path(tmp) / "slope.trials.csv").read_text()
    return docs, csv_text


@functools.cache
def _fuzz_flags(command):
    """The command's flags but --out-dir, each with whether it takes a value."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {a.option_strings[0]: a.nargs != 0 for a in sub._actions
            if a.option_strings and a.dest not in ("help", "out_dir")}


def _mutate_json(draw, doc):
    """Drop, swap or add a key of one of doc's objects, or swap, drop or
    add an entry of one of its lists."""
    containers, todo = [], [doc]
    while todo:
        c = todo.pop()
        containers.append(c)
        todo.extend(v for v in (c.values() if isinstance(c, dict) else c)
                    if isinstance(v, (dict, list)))
    target = draw(st.sampled_from(containers))
    # a copy: a shared [] put in twice could come to hold itself
    value = copy.deepcopy(draw(st.sampled_from(FUZZ_JSON_VALUES)))
    action = draw(st.sampled_from(["add", "drop", "swap"] if target else ["add"]))
    if isinstance(target, dict):
        key = "bogus_key" if action == "add" else draw(st.sampled_from(sorted(target)))
    else:
        key = draw(st.integers(0, len(target) - 1)) if target else 0
    if action == "drop":
        del target[key]
    elif action == "add" and isinstance(target, list):
        target.append(value)
    else:
        target[key] = value


def _mutate_csv(draw, text):
    """Swap one cell for a value, or drop one line."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        del lines[i]
    else:
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = str(
            draw(st.sampled_from(FUZZ_JSON_VALUES)))
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _file_bytes(body) -> bytes:
    """A fuzzed file's contents: bytes as they are, CSV text or a JSON
    document encoded."""
    if isinstance(body, bytes):
        return body
    return (body if isinstance(body, str) else json.dumps(body)).encode()


@st.composite
def mutated_commands(draw):
    """A command line of gen, run, verify, adversary-test or report (bench
    has TestBenchFuzz) over files gen and bench wrote, with one to three mutations: drop a flag,
    swap its value, add a flag the command takes, edit a file's JSON or
    CSV, or replace a file's bytes with a cut, an empty or a non-UTF-8
    copy. Returns the argument pairs, and the files by the placeholder
    that stands for each one's path."""
    docs, csv_text = _fuzz_inputs()
    command = draw(st.sampled_from([c for c in COMMANDS if c != "bench"]))
    name = draw(st.sampled_from(sorted(FAMILIES)))
    files = {}
    if command == "gen":
        flags = ["--construction", name, *FAMILY_FLAGS[name]]
    elif command == "adversary-test":
        flags = ["--n", "1024", "--scales", "2..4", "--probes", "64"]
    elif command == "report":
        flags, files["@csv"] = ["--csv", "@csv"], csv_text
    else:
        flags = ["--instance", "@instance", "--cert", "@certificate"]
        files["@instance"] = copy.deepcopy(docs[name, "instance"])
        files["@certificate"] = copy.deepcopy(docs[name, "certificate"])
        if command == "run":  # the construction's own detector, or any
            flags += ["--detector", draw(st.one_of(
                st.just(FAMILIES[name].detector), st.sampled_from(sorted(DETECTORS))))]
    pairs = [[f, v] for f, v in zip(flags[::2], flags[1::2])] + [["--seed", "1"]]
    takes = _fuzz_flags(command)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["drop", "swap", "add", "file", "bytes"]))
        if action == "drop" and pairs:
            del pairs[draw(st.integers(0, len(pairs) - 1))]
        elif action == "swap" and pairs:
            pairs[draw(st.integers(0, len(pairs) - 1))][1] = draw(
                st.sampled_from(FUZZ_FLAG_VALUES))
        elif action == "add":
            flag = draw(st.sampled_from(sorted(takes)))
            pairs.append([flag, draw(st.sampled_from(FUZZ_FLAG_VALUES))
                          if takes[flag] else None])
        elif files:
            key = draw(st.sampled_from(sorted(files)))
            body = files[key]
            if action == "bytes" or isinstance(body, bytes):
                raw = _file_bytes(body)
                files[key] = draw(st.sampled_from([
                    b"", b"\xff\xfe" + raw, raw[:draw(st.integers(0, len(raw)))]]))
            elif isinstance(body, str):
                files[key] = _mutate_csv(draw, body)
            else:
                _mutate_json(draw, body)
    return command, pairs, files


class TestCliFuzz:
    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(mutated_commands())
    def test_mutated_command_exits_with_a_documented_code(self, case):
        command, pairs, files = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for key, body in files.items():
                paths[key] = Path(tmp) / key[1:]
                paths[key].write_bytes(_file_bytes(body))
            argv = [command, "--out-dir", str(Path(tmp) / "out")]
            for flag, value in pairs:
                argv += [flag] if value is None else [flag, str(paths.get(value, value))]
            code, err = _quietly(argv)
            assert code in range(5) and "Traceback" not in err, (argv, code, err)


class TestSizeGuard:
    BIG = 1 << 40

    def _commands(self, tmp_path):
        sep = {**SEP_BATTERY, "points": [{**SEP_BATTERY["points"][0], "n": self.BIG}]}
        slope = {**SLOPE_BATTERY, "series": [
            {**SLOPE_BATTERY["series"][0], "ns": [4096, self.BIG]}]}
        for name, spec in (("sep", sep), ("slope", slope)):
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        big = str(self.BIG)
        return {
            "gen": (["gen", "--construction", "collision-fn", "--n", big], f"--n {big}"),
            "adversary-test": (["adversary-test", "--n", big], f"--n {big}"),
            "separation": (["bench", "--battery", str(tmp_path / "sep.json")],
                           f"points[0] (n {big})"),
            "slope": (["bench", "--battery", str(tmp_path / "slope.json")],
                      f"series[0] (n {big})"),
        }

    @pytest.mark.parametrize("command", ["gen", "adversary-test", "separation", "slope"])
    def test_a_size_beyond_physical_memory_is_refused_before_any_allocation(
            self, tmp_path, capsys, monkeypatch, command):
        # each layer that would allocate for an instance fails loudly if reached
        for module, name in ((qsep.generators, "scale_table"),
                             (qsep.generators, "gen_collision_function"),
                             (qsep.cli, "AdversarySession"), (qsep.harness, "_unit"),
                             (qsep.harness, "run_trials")):
            monkeypatch.setattr(module, name, None)
        argv, at = self._commands(tmp_path)[command]
        code, lines, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "out"))
        assert code == 2 and lines == []
        assert err.startswith(f"error: not enough memory for {at}: {self.BIG} elements "
                              "take at least ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen", "separation"])
    def test_an_allocation_that_fails_names_its_size(self, tmp_path, capsys,
                                                     monkeypatch, command):
        def fail(*_, **__):
            raise MemoryError("cannot allocate")
        monkeypatch.setattr(qsep.generators, "gen_collision_function", fail)
        (tmp_path / "sep.json").write_text(json.dumps(SEP_BATTERY))
        argv, at = {
            "gen": (["gen", "--construction", "collision-fn", "--n", "1024"], "--n 1024"),
            "separation": (["bench", "--battery", str(tmp_path / "sep.json")],
                           "points[0] (n 4096)")}[command]
        code, lines, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "out"))
        assert code == 2 and lines == []
        assert err.splitlines() == [f"error: not enough memory for {at}: cannot allocate"]
