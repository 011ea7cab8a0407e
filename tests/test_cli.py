"""Command-line interface: manifests, round-trips, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_extremal
from lp_extremal import (
    Configuration,
    NumericalBreakdown,
    bound_sweep,
    build_configuration,
    ratio_report,
    schuette_bound,
)
from lp_extremal.cli import _build_parser, _load_configuration, main
from lp_extremal.search import MAX_BUDGET, minimize_ratio


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write_config(path, points, p=4.0):
    path.write_text(json.dumps({"p": p, "points": points}))
    return str(path)


UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
# a JSON integer that no float can hold
HUGE = 10 ** 400
# the src directory of the lp_extremal under test, for subprocesses
SRC = Path(lp_extremal.__file__).resolve().parents[1]


class TestBound:
    def test_prints_fourth_root_of_two(self, capsys):
        code, out = run(capsys, "bound", "--n", "2", "--p", "4")
        assert code == 0
        assert out.startswith("1.1892071")
        assert float(out) == pytest.approx(2.0 ** 0.25, rel=1e-15)

    def test_json_envelope(self, capsys):
        code, body = run_json(capsys, "bound", "--n", "3", "--json")
        assert code == 0
        assert body["schema"] == 1
        assert body["manifest"]["command"] == "bound"
        assert body["manifest"]["argv"] == ["bound", "--n", "3", "--json"]
        assert body["manifest"]["version"] == "0.1.0"
        assert body["result"]["bound"] == schuette_bound(3, 4)

    def test_sweep_text_is_its_csv(self, capsys, tmp_path):
        code, out = run(capsys, "bound", "--sweep", "2..6")
        assert code == 0
        assert out == bound_sweep(2, 6, 4.0).to_csv()
        lines = out.splitlines()
        assert not any(line.startswith("#") for line in lines)
        assert lines[0] == "n,p,bound,epsilon"
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert int(first[0]) == 2
        assert float(first[2]) == schuette_bound(2, 4)
        out_file = tmp_path / "table.json"
        code, out = run(capsys, "bound", "--sweep", "2..6", "--out", str(out_file))
        assert code == 0 and out == ""
        envelope = json.loads(out_file.read_text())
        assert envelope["manifest"]["command"] == "bound"
        assert envelope["result"]["rows"] == bound_sweep(2, 6, 4.0).to_dict()["rows"]

    def test_sweep_json_table(self, capsys):
        code, body = run_json(capsys, "bound", "--sweep", "2..4", "--json")
        assert code == 0
        rows = body["result"]["rows"]
        assert [r["n"] for r in rows] == [2, 3, 4]
        assert rows[1]["bound"] == schuette_bound(3, 4)

    def test_needs_n_or_sweep(self, capsys):
        code, body = run_json(capsys, "bound")
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert "--n or --sweep" in body["error"]["message"]

    def test_n_and_sweep_together_are_refused(self, capsys):
        code, body = run_json(capsys, "bound", "--n", "5", "--sweep", "2..3")
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert body["error"]["message"] == "bound needs exactly one of --n or --sweep"

    def test_bad_sweep_spec(self, capsys):
        code, body = run_json(capsys, "bound", "--sweep", "2-6")
        assert code == 1
        assert "N1..N2" in body["error"]["message"]

    def test_non_integer_sweep_endpoint(self, capsys):
        code, body = run_json(capsys, "bound", "--sweep", "2..x")
        assert code == 1
        assert "sweep endpoints must be integers" in body["error"]["message"]


class TestConstructPipeline:
    def test_construct_then_certify_then_audit(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        code, _ = run(capsys, "construct", "--n", "3", "--out", str(cfg))
        assert code == 0

        code, body = run_json(capsys, "certify", str(cfg), "--json")
        assert code == 0
        cert = body["result"]["certificate_bound"]
        assert cert >= schuette_bound(3, 4) ** 4 - 1e-9

        code, body = run_json(capsys, "audit", str(cfg), "--json")
        assert code == 0
        assert body["result"]["all_hold"] is True
        ratio4 = body["result"]["audit"]["ratio"]["lhs"]
        assert ratio4 >= body["result"]["certificate_bound"] - 1e-9

        code, text = run(capsys, "audit", str(cfg))
        assert code == 0
        assert text.splitlines()[-1] == "all inequalities hold"

    def test_n2_pipeline_certificate_at_least_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        code, _ = run(capsys, "construct", "--n", "2", "--out", str(cfg))
        assert code == 0
        code, body = run_json(capsys, "certify", str(cfg), "--json")
        assert code == 0
        cb = body["result"]["certificate_bound"]
        assert cb >= 2.0 - 1e-12
        ratio4 = ratio_report(build_configuration(2).config).ratio ** 4
        assert ratio4 >= cb - 1e-12

    def test_output_survives_17_digit_roundtrip(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        code, _ = run(capsys, "construct", "--n", "2", "--out", str(cfg))
        assert code == 0
        data = json.loads(cfg.read_text())["result"]
        rebuilt = np.asarray(data["points"], dtype=float)
        expected = build_configuration(2).config.points
        assert np.array_equal(rebuilt, expected)
        assert data["p"] == 4.0

    def test_diagnostics_report_ratio_agreement(self, capsys):
        code, body = run_json(capsys, "construct", "--n", "5", "--json")
        assert code == 0
        diag = body["result"]["diagnostics"]
        assert diag["ratio_agreement"] <= 1e-9
        assert diag["solution_odd_part"] is not None

    def test_construct_result_is_the_built_layout(self, capsys, monkeypatch):
        # above the cap the O(m^2 n) cross-check is skipped and reported as null
        monkeypatch.setattr(lp_extremal.cli, "ACHIEVED_RATIO_DIM_CAP", 3)
        for n in (3, 4):
            code, body = run_json(capsys, "construct", "--n", str(n), "--json")
            assert code == 0
            diag = body["result"]["diagnostics"]
            achieved, agreement = diag.pop("achieved_ratio"), diag.pop("ratio_agreement")
            assert (achieved is None, agreement is None) == (n > 3, n > 3)
            assert body["result"] == build_configuration(n).to_dict()


class TestSearch:
    def test_identical_manifests_identical_payloads(self, capsys):
        argv = ["search", "--n", "2", "--budget", "1500", "--seed", "5", "--json"]
        code1, body1 = run_json(capsys, *argv)
        code2, body2 = run_json(capsys, *argv)
        assert code1 == code2 == 0
        assert body1["result"] == body2["result"]
        assert body1["manifest"]["rng_seed"] == 5

    def test_from_file_seeds_single_restart(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        run(capsys, "construct", "--n", "2", "--out", str(cfg))
        code, body = run_json(
            capsys, "search", "--n", "2", "--budget", "800", "--from", str(cfg), "--json"
        )
        assert code == 0
        assert body["result"]["restarts"] == 1
        seed_ratio = ratio_report(build_configuration(2).config).ratio
        assert body["result"]["best_ratio"] <= seed_ratio + 1e-12

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[0, 0], [1, 0], [1, 1], [1, 1e-100]], "too large to search"),
            ([[0, 0], [1, 0], [1, 1], [1, 1]], "duplicate points at indices (2, 3)"),
        ],
    )
    def test_unsearchable_seed_file_is_exit_1(self, capsys, tmp_path, points, message):
        cfg = write_config(tmp_path / "seed.json", points)
        code, body = run_json(capsys, "search", "--n", "2", "--budget", "10", "--from", cfg)
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert message in body["error"]["message"]

    def test_out_file_reads_back_as_its_best_config(self, capsys, tmp_path):
        saved = tmp_path / "run.json"
        argv = ["search", "--n", "2", "--budget", "1200", "--seed", "3"]
        code, _ = run(capsys, *argv, "--out", str(saved))
        assert code == 0
        envelope = json.loads(saved.read_text())
        assert envelope["schema"] == 1 and envelope["manifest"]["argv"][:7] == argv
        best = minimize_ratio(2, 1200, "auto", 3).best_config
        assert envelope["result"]["best_config"] == best.to_dict()
        loaded = _load_configuration(str(saved))
        assert loaded.p == best.p and loaded.points.tobytes() == best.points.tobytes()
        # the flat layout of older runs still reads as a bare file
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"schema": 1, "manifest": envelope["manifest"],
                                    **best.to_dict(), "best_ratio": 1.0}))
        assert _load_configuration(str(flat)).points.tobytes() == best.points.tobytes()

        code, body = run_json(capsys, "certify", str(saved), "--json")
        assert code == 0
        assert body["result"]["certificate_bound"] >= 2.0 - 1e-9
        for reader in (["audit"], ["check-equilateral"]):
            code, _ = run(capsys, *reader, str(saved))
            assert code == 0, reader
        code, body = run_json(capsys, "search", "--n", "2", "--budget", "100", "--from",
                              str(saved), "--json")
        assert code == 0
        assert body["result"]["best_ratio"] <= envelope["result"]["best_ratio"]

    def test_budget_above_the_cap_is_exit_1(self, capsys):
        code, body = run_json(capsys, "search", "--n", "2", "--budget", str(HUGE))
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert body["error"]["message"] == "budget is too large for a float"

    def test_best_out_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["search", "--n", "2", "--budget", "5", "--best-out", str(tmp_path / "x.json")])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--best-out" in captured.err
        assert not (tmp_path / "x.json").exists()


class TestCheckEquilateral:
    def test_square_is_not_equilateral_and_gets_cap_note(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "sq.json", UNIT_SQUARE, p=4.0)
        code, body = run_json(capsys, "check-equilateral", cfg, "--json")
        assert code == 0
        res = body["result"]
        assert res["equilateral"] is False
        assert res["cardinality_cap"] == 3
        assert res["threshold_center"] == 4.0
        assert "no equilateral set of more than 3 points" in res["note"]

    def test_triangle_is_equilateral_without_note(self, capsys, tmp_path):
        tri = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
        cfg = write_config(tmp_path / "tri.json", tri, p=2.0)
        code, body = run_json(capsys, "check-equilateral", cfg, "--json")
        assert code == 0
        res = body["result"]
        assert res["equilateral"] is True
        assert res["lambda"] == pytest.approx(1.0, rel=1e-12)
        assert res["note"] is None

    def test_p_override_changes_the_verdict(self, capsys, tmp_path):
        cross = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        cfg = write_config(tmp_path / "cross.json", cross, p=2.0)
        code, body = run_json(capsys, "check-equilateral", cfg, "--json")
        assert code == 0
        assert body["result"]["equilateral"] is False

        code, body = run_json(capsys, "check-equilateral", cfg, "--p", "1", "--json")
        assert code == 0
        assert body["result"]["equilateral"] is True
        assert body["result"]["lambda"] == pytest.approx(2.0, rel=1e-12)
        assert body["result"]["note"] is None

    def test_tol_propagates(self, capsys, tmp_path):
        tri = [[0.0, 0.0], [1.0, 0.0], [0.5 + 1e-6, math.sqrt(3.0) / 2.0]]
        cfg = write_config(tmp_path / "near.json", tri, p=2.0)
        code, body = run_json(capsys, "check-equilateral", cfg, "--tol", "1e-3", "--json")
        assert code == 0
        assert body["result"]["equilateral"] is True
        code, body = run_json(capsys, "check-equilateral", cfg, "--tol", "1e-9", "--json")
        assert code == 0
        assert body["result"]["equilateral"] is False

    @pytest.mark.parametrize(
        "points, p",
        [
            ([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]], "2000"),
            ([[1e20, 1e20], [1e20 + 1e5, 1e20], [1e20 + 3e4, 1e20 + 7e4]], "30"),
        ],
    )
    def test_large_p_triangle_is_not_equilateral(self, capsys, tmp_path, points, p):
        cfg = write_config(tmp_path / "tri.json", points, p=4.0)
        code, out = run(capsys, "check-equilateral", cfg, "--p", p)
        assert code == 0
        assert out == "equilateral: no\n"
        code, body = run_json(capsys, "check-equilateral", cfg, "--p", p, "--json")
        assert code == 0
        assert body["result"]["equilateral"] is False and body["result"]["lambda"] is None


def float_leaves(value):
    """The floats of a JSON-like value, depth first; tuples read as lists."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in float_leaves(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in float_leaves(v)]
    return [value] if isinstance(value, float) else []


class TestJsonOutput:
    EDGE_FLOATS = [-0.0, 1.0, 5e-324, 1e308, 0.1]

    def test_floats_keep_their_value_type_and_sign(self, capsys, monkeypatch):
        floats = self.EDGE_FLOATS
        result = {
            "dict": dict(zip("abcde", floats)),
            "list": [floats, 3, True, None, "x"],
            "tuple": tuple(floats),
        }
        monkeypatch.setattr(lp_extremal.cli, "_cmd_bound", lambda args: (result, "text"))
        code, out = run(capsys, "bound", "--json")
        assert code == 0
        assert out.count("\n") == 1
        loaded = json.loads(out)["result"]
        assert loaded == {**result, "tuple": list(floats)}
        assert type(loaded["list"][1]) is int and loaded["list"][2] is True
        leaves = float_leaves(loaded)
        assert len(leaves) == 3 * len(floats)
        for got, want in zip(leaves, floats * 3):
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_integral_exponent_stays_a_float(self, capsys):
        code, body = run_json(capsys, "bound", "--n", "2", "--json")
        assert code == 0
        assert type(body["result"]["p"]) is float and body["result"]["p"] == 4.0
        assert type(body["result"]["n"]) is int

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_result_is_a_one_line_error(self, capsys, monkeypatch, bad):
        monkeypatch.setattr(
            lp_extremal.cli, "_cmd_bound", lambda args: ({"x": [1.0, bad]}, "text")
        )
        code = main(["bound", "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert captured.out.count("\n") == 1
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ValueError" and error["exit_code"] == 1


class TestErrors:
    def test_missing_file_is_exit_2(self, capsys):
        code, body = run_json(capsys, "certify", "/nonexistent/cfg.json")
        assert code == 2
        assert body["error"]["exit_code"] == 2

    def test_out_into_missing_directory_is_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "b.json"
        code, body = run_json(capsys, "bound", "--n", "2", "--out", str(target))
        assert code == 2
        assert body["error"]["message"].startswith("cannot write")
        assert not target.parent.exists()

    def test_garbage_json_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        code, body = run_json(capsys, "certify", str(bad))
        assert code == 2
        assert "not valid JSON" in body["error"]["message"]

    @pytest.mark.parametrize("content", [
        b'{"p": 4, "points": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
        b'{"p": 4, "points": [[0, 0], [1, \xff]]}',
    ], ids=["nested-200000-deep", "byte-0xff"])
    @pytest.mark.parametrize("command", [
        ["certify"], ["audit"], ["check-equilateral"],
        ["search", "--n", "2", "--budget", "10", "--from"],
    ], ids=lambda command: command[0])
    def test_undecodable_file_is_exit_2(self, capsys, tmp_path, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out = run(capsys, *command, str(bad))
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["exit_code"] == 2 and "not valid JSON" in error["message"]

    def test_missing_fields_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pts": [[0, 0]]}))
        code, body = run_json(capsys, "certify", str(bad))
        assert code == 2
        assert "'p' and 'points'" in body["error"]["message"]

    def test_wrong_cardinality_is_exit_1(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "three.json", UNIT_SQUARE[:3])
        code, body = run_json(capsys, "certify", cfg)
        assert code == 1
        assert body["error"]["type"] == "ValueError"

    def test_duplicate_points_breakdown_is_exit_1(self, capsys, tmp_path):
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        cfg = write_config(tmp_path / "dup.json", pts)
        code, body = run_json(capsys, "certify", cfg)
        assert code == 1
        assert body["error"]["type"] == "NumericalBreakdown"
        assert "diagnostics" in body["error"]

    @pytest.mark.parametrize("command", ["certify", "audit", "check-equilateral"])
    @pytest.mark.parametrize(
        "points",
        [
            [["0", "0"], [True, 0], [0, 1], [1, 1]],
            [[0, 0], [1, 0], [0, 1], [1, "1"]],
            [[False, False], [True, False], [False, True], [True, True]],
            [[0, 0], [1, 0], [0, 1], [2 ** 70, "1"]],
        ],
    )
    def test_string_or_bool_coordinates_are_exit_1(self, capsys, tmp_path, command, points):
        cfg = write_config(tmp_path / "sq.json", points)
        code, body = run_json(capsys, command, cfg)
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert "coordinates must be numbers" in body["error"]["message"]

    @pytest.mark.parametrize("command", ["certify", "audit", "check-equilateral"])
    def test_ragged_coordinates_get_the_rule_message(self, capsys, tmp_path, command):
        cfg = write_config(tmp_path / "ragged.json", [[1, 2], [3]], p=4)
        code, body = run_json(capsys, command, cfg)
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert body["error"]["message"].endswith("coordinates must be a rectangular array of numbers")

    def test_string_exponent_is_exit_1(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "sq.json", UNIT_SQUARE, p="4")
        code, body = run_json(capsys, "certify", cfg)
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert "norm exponent must be a finite number" in body["error"]["message"]

    def test_bad_dimension_is_exit_1(self, capsys):
        code, body = run_json(capsys, "construct", "--n", "1")
        assert code == 1
        assert body["error"]["type"] == "ValueError"

    def test_csv_is_a_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "sq.json", UNIT_SQUARE)
        for argv in (["bound", "--sweep", "2..3"], ["bound", "--sweep", "2..3", "--json"],
                     ["construct", "--n", "3"], ["certify", cfg], ["audit", cfg],
                     ["check-equilateral", cfg], ["search", "--n", "2", "--budget", "5"]):
            with pytest.raises(SystemExit) as exc_info:
                main(argv + ["--csv"])
            assert exc_info.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "--csv" in captured.err

    def test_tol_outside_check_equilateral_is_a_usage_error(self, capsys, tmp_path):
        # the partition and audit guards are constants, not options
        cfg = write_config(tmp_path / "sq.json", UNIT_SQUARE)
        for command in ("certify", "audit"):
            with pytest.raises(SystemExit) as exc_info:
                main([command, cfg, "--tol", "1e-3"])
            assert exc_info.value.code == 2, command
            captured = capsys.readouterr()
            assert captured.out == "" and "--tol" in captured.err

    @pytest.mark.parametrize("command", ["certify", "audit", "check-equilateral"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_tol_is_a_named_error(self, capsys, tmp_path, command, tol):
        cfg = write_config(tmp_path / "sq.json", UNIT_SQUARE)
        if command != "check-equilateral":
            # only check-equilateral takes --tol; elsewhere argparse names it
            with pytest.raises(SystemExit) as exc_info:
                main([command, cfg, "--tol", tol])
            assert exc_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "unrecognized arguments: --tol" in captured.err
            return
        code, body = run_json(capsys, command, cfg, "--tol", tol)
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert body["error"]["message"].startswith("tol must be")

    def test_oversized_sweep_is_refused_at_once(self):
        # a separate process, so a sweep that ignores its limit cannot hang the suite
        proc = subprocess.run(
            [sys.executable, "-m", "lp_extremal", "bound", "--sweep", "2..100000000000"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 1 and proc.stderr == ""
        assert "100000 rows" in json.loads(proc.stdout)["error"]["message"]

    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-60, 1e100, 1e300])
    def test_extreme_scales_end_in_a_result_or_a_named_error(self, capsys, tmp_path, scale):
        pts = [[scale * x for x in row] for row in UNIT_SQUARE]
        cfg = write_config(tmp_path / "sq.json", pts)
        code, body = run_json(capsys, "certify", cfg, "--json")
        assert code == 0
        assert body["result"]["certificate"]["certificate"] == 2.0
        code, body = run_json(capsys, "check-equilateral", cfg, "--json")
        assert code == 0
        assert body["result"]["equilateral"] is False
        code, body = run_json(capsys, "audit", cfg, "--json")
        assert code in (0, 1)
        if code == 0:
            assert body["result"]["all_hold"] is True
        else:
            assert body["error"]["type"] == "NumericalBreakdown"
            assert "scale_exponent" in body["error"]["diagnostics"]

    @pytest.mark.parametrize(
        "argv, body",
        [
            (["certify"], {"p": 4, "points": [[0, 0], [1, 0], [1, 1], [0, HUGE]]}),
            (["audit"], {"p": 4, "points": [[0, 0], [1, 0], [1, 1], [0, HUGE]]}),
            (["check-equilateral"], {"p": 4, "points": [[0, 0], [1, 0], [HUGE, 1]]}),
            (["search", "--n", "2", "--budget", "10", "--from"], {"p": 4, "points": [[HUGE]]}),
            (["certify"], {"p": HUGE, "points": UNIT_SQUARE}),
            (["bound", "--n", str(HUGE)], None),
            (["construct", "--n", str(HUGE)], None),
        ],
    )
    def test_oversized_integer_is_a_named_error(self, capsys, tmp_path, argv, body):
        if body is not None:
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(body))
            argv = [*argv, str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert error["exit_code"] == 1
        assert error["type"] == "ValueError"
        assert "too large" in error["message"]
        assert captured.err == ""

    def test_memory_error_is_exit_1(self, capsys, monkeypatch):
        # planted: a real n = 10**6 block would ask for 7.28 TiB
        def out_of_memory(n):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(lp_extremal.cli, "build_configuration", out_of_memory)
        code, body = run_json(capsys, "construct", "--n", "1000000")
        assert code == 1
        assert body["error"] == {"type": "MemoryError", "exit_code": 1,
                                 "message": "Unable to allocate 7.28 TiB for an array"}

    def test_non_finite_diagnostics_are_written_as_text(self, capsys, tmp_path, monkeypatch):
        # no input is known to give radon_partition's power-of-two scaled sums
        # an infinite residual, so the breakdown is planted
        def breakdown(points):
            raise NumericalBreakdown("planted", diagnostics={"residual": math.inf})

        monkeypatch.setattr(lp_extremal.cli, "radon_partition", breakdown)
        cfg = write_config(tmp_path / "sq.json", UNIT_SQUARE)
        code, body = run_json(capsys, "certify", cfg)
        assert code == 1
        assert body["error"]["type"] == "NumericalBreakdown"
        assert body["error"]["diagnostics"]["residual"] == "inf"

    def test_numpy_diagnostics_are_written_as_python_values(self, capsys, tmp_path, monkeypatch):
        def breakdown(points):
            diagnostics = {"rank": np.int64(3), "flag": np.True_, "pivot": np.float64(0.5),
                           "lambda": np.array([1.0, -math.inf])}
            raise NumericalBreakdown("planted", diagnostics=diagnostics)

        monkeypatch.setattr(lp_extremal.cli, "radon_partition", breakdown)
        code = main(["certify", write_config(tmp_path / "sq.json", UNIT_SQUARE)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        diag = json.loads(captured.out)["error"]["diagnostics"]
        assert diag == {"rank": 3, "flag": True, "pivot": 0.5, "lambda": [1.0, "-inf"]}
        assert type(diag["rank"]) is int and diag["flag"] is True

    def test_audit_below_the_underflow_floor_is_exit_1(self, capsys, tmp_path):
        rows = [[3, -5], [-4, -3], [-4, 3], [4, 1], [-5, -4]]
        pts = [[2.0 ** 100, u * 2.0 ** 100 * 1e-80, v * 2.0 ** 100 * 1e-80] for u, v in rows]
        code, body = run_json(capsys, "audit", write_config(tmp_path / "low.json", pts), "--json")
        assert code == 1
        assert body["error"]["type"] == "NumericalBreakdown"
        assert body["error"]["message"].startswith("mu^4 may have lost digits to underflow")
        assert body["error"]["diagnostics"]["scale_exponent"] == 101

    def test_audit_ratio_beyond_float_range_is_exit_1(self, capsys, tmp_path):
        # ratio^4 is about 4.9e308 although M^4 and mu^4 are in range
        pts = [[-0.999, -0.999], [0.999, 0.999], [0, 0], [0, 1.6e-77]]
        cfg = write_config(tmp_path / "far.json", pts)
        for extra in ([], ["--json"]):
            code, out = run(capsys, "audit", cfg, *extra)
            body = json.loads(out)
            assert code == 1
            assert body["error"]["message"].startswith("ratio leaves the floating-point range")
            assert body["error"]["diagnostics"]["scale_exponent"] == 0
            assert "all inequalities hold" not in out

    def test_max_distance_beyond_float_range_is_named(self, capsys, tmp_path):
        pts = [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.7e308], [0.0, -1.7e308]]
        cfg = write_config(tmp_path / "big.json", pts)
        with pytest.raises(ValueError, match="floating-point range"):
            ratio_report(Configuration(np.array(pts), 4.0))
        code, body = run_json(capsys, "audit", cfg, "--json")
        assert code == 1
        assert "floating-point range" in body["error"]["message"]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_line_section():
    """The README's "## Command line" section, up to the next heading."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return section.split("\n## ", 1)[0]


def readme_commands():
    """(argv, comment) of each `lp-extremal` line in the README's Command line block."""
    block = readme_command_line_section().split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] == ["lp-extremal"]:
            commands.append((argv[1:], comment.strip()))
    return commands


def readme_library_results():
    """{expression: (value, comment)} of each commented expression line of the
    README's Library block, evaluated after the whole block has run."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    results = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code.strip(), "README.md", "eval")
        except SyntaxError:
            continue  # an import or an assignment
        if comment:
            results[code.strip()] = (eval(expression, namespace), comment.strip())
    return results


class TestReadme:
    def test_library_example_runs_with_its_comments(self):
        results = readme_library_results()
        assert {code: comment for code, (_, comment) in results.items()} == {
            "ratio_report(square).ratio": "1.189207115002721 = 2**0.25",
            "schuette_bound(2, 4)": "same value: the square is optimal",
            "cert.certificate": "2.0, a lower bound on ratio**4",
            "audit_chain(square, cert).all_hold()": "True, with zero slack here",
            "built.expected_ratio": "1.1032800609...",
            "res.best_ratio": "~ 2**0.25 + 3e-4",
        }
        value = {code: v for code, (v, _) in results.items()}
        assert value["ratio_report(square).ratio"] == 1.189207115002721
        assert value["schuette_bound(2, 4)"] == 1.189207115002721
        assert value["cert.certificate"] == 2.0
        assert value["audit_chain(square, cert).all_hold()"] is True
        assert repr(value["built.expected_ratio"]).startswith("1.1032800609")
        assert 0.0 <= value["res.best_ratio"] - 2 ** 0.25 < 1e-3

    def test_command_line_examples_run_in_order(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) == 8
        for i, (argv, comment) in enumerate(commands):
            code, out = run(capsys, *argv)
            assert code == 0, (argv, out)
            if i == 0:
                assert out == comment + "\n"

    def test_documented_flags_are_the_parser_flags(self):
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme_command_line_section()))
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {
            flag
            for command in sub.choices.values()
            for action in command._actions
            for flag in action.option_strings
            if flag.startswith("--")
        }
        assert documented == parsed - {"--help"}


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def write_launcher(path, target):
    """Write the launcher an installer generates for a `module:attr` script entry."""
    module, _, attr = target.partition(":")
    path.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    return path


class TestEntryPoints:
    def test_console_script_and_module_agree(self, tmp_path):
        # The checkout's own [project.scripts] target, not whatever is on PATH.
        scripts = load_pyproject()["project"].get("scripts", {})
        assert "lp-extremal" in scripts
        launcher = write_launcher(tmp_path / "lp-extremal", scripts["lp-extremal"])
        # Both runs import the lp_extremal under test, whatever the caller's
        # working directory, PYTHONPATH or installs.
        src = str(Path(lp_extremal.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        argv = ["bound", "--n", "4", "--p", "2"]
        script = subprocess.run(
            [sys.executable, str(launcher), *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        module = subprocess.run(
            [sys.executable, "-m", "lp_extremal", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert script.returncode == module.returncode == 0
        assert script.stdout == module.stdout
        assert float(script.stdout) == schuette_bound(4, 2)

    def test_package_version_is_the_project_version(self):
        assert lp_extremal.__version__ == load_pyproject()["project"]["version"]


# Malformed configuration files for the fuzz test below.
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1.7e308, 2.2e-308, -5e-324]),
)
COORDINATES = st.one_of(
    NUMBERS,
    st.sampled_from([math.nan, math.inf, HUGE, -HUGE, True, None]),
    st.text(max_size=2),
)


def point_lists(coordinates):
    """n+2 rows of n coordinates each, for n = 1..4."""
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(coordinates, min_size=n, max_size=n), min_size=n + 2, max_size=n + 2
        )
    )


WELL_FORMED = st.fixed_dictionaries(
    {"p": st.sampled_from([4, 2.0]), "points": point_lists(NUMBERS)}
)
POINTS = st.one_of(
    point_lists(NUMBERS).map(lambda pts: pts[:-1] + [pts[0]]),  # a duplicate point
    point_lists(COORDINATES),
    st.lists(st.lists(NUMBERS, max_size=4), max_size=6),  # ragged rows, m != n+2
    st.lists(st.lists(st.lists(NUMBERS, max_size=2), max_size=2), max_size=3),  # too deep
    COORDINATES,
    st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2),
)
EXPONENTS = st.one_of(st.sampled_from([4, 0.5, HUGE, 1e308, "4", [4]]), COORDINATES)
DOCUMENTS = st.one_of(
    WELL_FORMED,
    st.fixed_dictionaries({"p": EXPONENTS, "points": POINTS}),
    st.fixed_dictionaries({"result": st.fixed_dictionaries({"p": EXPONENTS, "points": POINTS})}),
    st.fixed_dictionaries({"result": st.fixed_dictionaries({"best_config": st.one_of(
        st.fixed_dictionaries({"p": EXPONENTS, "points": POINTS}), COORDINATES)})}),
    st.fixed_dictionaries({}, optional={"p": EXPONENTS, "points": POINTS}),
    st.lists(COORDINATES, max_size=2),
)


class TestMalformedInputFuzz:
    @given(
        DOCUMENTS,
        st.sampled_from(
            [
                ["certify"],
                ["audit"],
                ["check-equilateral"],
                ["check-equilateral", "--p", "3"],
                ["search", "--n", "2", "--budget", "20", "--from"],
                ["search", "--n", "3", "--budget", "7", "--from"],
            ]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_run_ends_in_a_result_or_a_json_error(self, tmp_path_factory, doc, argv):
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path), "--json"])
        body = json.loads(out.getvalue())
        assert code in (0, 1, 2)
        if code:
            assert body["error"]["exit_code"] == code
        else:
            assert body["manifest"]["command"] == argv[0]
        assert "Traceback" not in err.getvalue()
