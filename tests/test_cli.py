"""CLI surface: exit codes, determinism, file outputs, parse-back."""

import json
import hashlib

import pytest

from qsep.cli import main
from qsep.harness import read_trials_csv
from qsep.oracle import read_instance, write_instance
from qsep.svg import parse_chart


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def last_json(lines):
    return json.loads(lines[-1])


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

    @pytest.mark.parametrize("flags, message", [
        (("fixedpoint-fn", "--n", "4096", "--cycle-len", "0"), "cycle_len"),
        (("fixedpoint-fn", "--n", "4096", "--feeder-len", "0"), "feeder_len"),
        (("collision-fn", "--n", "-4"), "--n must be >= 1, got -4"),
        (("collision-fn", "--n", "0"), "--n must be >= 1, got 0"),
        (("fixedpoint-fn", "--n", "1"), "n >= 2, got 1"),
        (("star", "--n", "4096", "--H", "none"), "H-spec 'none'"),
        (("star", "--n", "4096", "--H", "clique:4"), "H-spec 'clique:4'"),
        (("star", "--n", "4096", "--H", "abc"), "H-spec 'abc'")])
    def test_bad_sizes_exit_2_without_traceback(self, tmp_path, capsys, flags,
                                                message):
        code, _, err = run_cli(capsys, "gen", "--construction", *flags,
                               "--out-dir", str(tmp_path))
        assert code == 2 and "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert not list(tmp_path.iterdir())

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
                "--corrupt-cert", "--scales", "2..5",
                "--max-attempts", "400")
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
                 "--scales does not apply to cert-collision without --corrupt-cert"),
                ("uniform-probe", ("--scales", "2..5"),
                 "--scales does not apply to uniform-probe"),
                # a corrupted certificate reads --scales only if it is a scale one
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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["payload"].update(succ=[10 ** 9, *range(1, 4096)]),
         "error: succ has entries outside [0, 4096)"),
        (lambda doc: doc["header"].update(n=4000),
         "error: succ has 4096 entries, header n asks for 4000"),
        (lambda doc: doc["payload"].update(succ=list(range(4000))),
         "error: succ has 4000 entries, header n asks for 4096"),
        (lambda doc: doc["payload"].pop("succ"),
         "error: malformed instance file (KeyError: 'succ')"),
    ])
    def test_malformed_instance_exits_4(self, collision_files, tmp_path, capsys,
                                        edit, message):
        inst, cert = collision_files
        doc = json.loads(inst.read_text())
        edit(doc)
        bad = tmp_path / "bad.instance.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (("run", "--instance", str(bad), "--detector", "multiscale",
                      "--seed", "1"),
                     ("run", "--instance", str(bad), "--cert", str(cert),
                      "--detector", "cert-collision", "--seed", "1"),
                     ("verify", "--instance", str(bad))):
            code, lines, err = run_cli(capsys, *argv)
            assert code == 4 and lines == [] and "Traceback" not in err
            assert err.strip().splitlines() == [message]

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

    @pytest.mark.parametrize("flags", [("--target", "edge"),
                                       ("--target", "k-star")])
    def test_bad_uniform_probe_target_exits_2(self, collision_files, capsys,
                                              flags):
        inst, _ = collision_files
        capsys.readouterr()
        try:
            code = main(["run", "--instance", str(inst), "--detector",
                         "uniform-probe", *flags])
        except SystemExit as e:   # argparse rejects a bad choice itself
            code = e.code
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and "error:" in err

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
        spec = tmp_path / "slope.json"
        spec.write_text(json.dumps(SLOPE_BATTERY))
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

    def test_bad_battery_kind_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"kind": "nope"}))
        code, _, err = run_cli(capsys, "bench", "--battery", str(spec),
                               "--out-dir", str(tmp_path))
        assert code == 2 and "separation|slope" in err

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "slope"}, "a slope battery needs a non-empty 'series' list"),
        ({"kind": "separation", "points": []},
         "a separation battery needs a non-empty 'points' list"),
        ({"kind": "separation", "points": {"x": 2}},
         "a separation battery needs a non-empty 'points' list"),
        ({"kind": "slope", "series": [{"label": "a", "generator": "fixedpoint-fn"}]},
         "series[0] lacks 'detector', 'ns'"),
        ({**SEP_BATTERY, "points": [*SEP_BATTERY["points"], {"x": 5, "n": 4096}]},
         "points[3] lacks 'generator'"),
        ({"kind": "slope", "series": [3]}, "series[0] must be a JSON object"),
        (["slope"], "battery spec must be a JSON object"),
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
