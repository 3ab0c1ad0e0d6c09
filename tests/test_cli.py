import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

from ponte import textio
from ponte.cli import main

from oracles import dof_map

PLAN_TEXT = "PLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\n"

# Parses fine but fails validation: only one restrained dof.
INVALID_TEXT = (
    "NODE 1 0 0\nNODE 2 5 0\n"
    "MATERIAL m E=1e10 RHO=0 SIGMA=1e7\n"
    "SECTION s A=0.01 I=1e-5 H=0.1\n"
    "BEAM 1 1 2 m s\nSUPPORT 1 Y\n"
)

# Valid by counting, but the loaded midspan node hangs on two collinear
# cables: a mechanism.
MECHANISM_TEXT = (
    "NODE 1 0 0\nNODE 2 5 0\nNODE 3 10 0\n"
    "MATERIAL rope E=1.5e9 RHO=0 SIGMA=2e7\n"
    "SECTION s A=0.01 I=1e-5 H=0.1\n"
    "CABLE 1 1 2 rope A=0.0005\nCABLE 2 2 3 rope A=0.0005\n"
    "SUPPORT 1 XY\nSUPPORT 3 XY\n"
    "LOAD NODE 2 FY=-100\n"
)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestGenerate:
    def test_generate_preset(self, tmp_path, capsys):
        out = tmp_path / "florence.txt"
        assert main(["generate", "FLORENCE", "-o", str(out)]) == 0
        model = textio.parse_model_file(out.read_text())
        assert len([b for b in model.beams if b.pin_i]) == 6
        assert "wrote" in capsys.readouterr().out

    def test_generate_kind_with_overrides(self, tmp_path):
        out = tmp_path / "custom.txt"
        code = main([
            "generate", "LeonardoReplica", "-o", str(out),
            "--pillars", "3", "--wheels", "both", "--span", "8", "--segments", "4",
        ])
        assert code == 0
        model = textio.parse_model_file(out.read_text())
        assert len([b for b in model.beams if b.pin_i]) == 3

    def test_unknown_preset_is_invalid(self, tmp_path, capsys):
        assert main(["generate", "NOPE", "-o", str(tmp_path / "x.txt")]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_bad_spec_is_invalid(self, tmp_path):
        assert main(["generate", "BeamBridge", "-o", str(tmp_path / "x.txt"), "--span", "-3"]) == 1

    def test_truss_of_one_segment_is_invalid(self, tmp_path, capsys):
        assert main(["generate", "TrussBridge", "-o", str(tmp_path / "x.txt"), "--segments", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestAnalyze:
    def test_pipeline(self, tmp_path, capsys):
        model_path = tmp_path / "m.txt"
        svg_path = tmp_path / "d.svg"
        report_path = tmp_path / "r.json"
        assert main(["generate", "GRANDE", "-o", str(model_path)]) == 0
        assert main(["analyze", str(model_path), "--svg", str(svg_path), "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "max deflection" in out
        report = json.loads(report_path.read_text())
        svg = svg_path.read_text()
        # The three artifacts describe the same analysis.
        assert report["summary"]["active_cable_count"] == 0
        assert svg.count('data-kind="cable"') == len(report["slack_cables"])

    def test_memory_of_an_op_is_below_a_dense_matrix(self, tmp_path, capsys):
        # Parse, analysis, report and SVG of the 2 301-dof grounded replica:
        # a dense free-dof K alone would take 42 MB, and the whole command
        # stays below a quarter of that (near 5 MB).
        model, report, svg = tmp_path / "m.txt", str(tmp_path / "r.json"), str(tmp_path / "d.svg")
        assert main(["generate", "LeonardoGrounded", "-o", str(model), "--pillars", "383", "--span", "768"]) == 0
        n = dof_map(textio.parse_model_file(model.read_text())).n_free
        assert n == 2301
        tracemalloc.start()
        try:
            assert main(["analyze", str(model), "--report", report, "--svg", svg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "missing.txt")]) == 4

    def test_undecodable_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(bytes(range(256)))
        assert main(["analyze", str(path)]) == 4
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_syntax_error_is_io_error(self, tmp_path, capsys):
        path = write(tmp_path / "bad.txt", "NODE 1 zero 0\n")
        assert main(["analyze", path]) == 4
        assert "line 1" in capsys.readouterr().err

    def test_invalid_model_is_exit_1(self, tmp_path, capsys):
        path = write(tmp_path / "invalid.txt", INVALID_TEXT)
        assert main(["analyze", path]) == 1
        assert "InsufficientRestraint" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["UNIT SI\n", "# nothing but a comment\n", ""])
    def test_empty_model_is_exit_1(self, tmp_path, capsys, text):
        path = write(tmp_path / "empty.txt", text)
        assert main(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: EmptyModel at model: model has no nodes\n"
        assert captured.out == ""

    def test_mechanism_is_exit_2(self, tmp_path, capsys):
        path = write(tmp_path / "mech.txt", MECHANISM_TEXT)
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "singular" in err.lower()
        # The dropped pivot is node 2's vertical dof.
        assert "node 2 y" in err

    def test_scale_flag(self, tmp_path):
        model_path = tmp_path / "m.txt"
        main(["generate", "GRANDE", "-o", str(model_path)])
        svg_a = tmp_path / "a.svg"
        svg_b = tmp_path / "b.svg"
        assert main(["analyze", str(model_path), "--svg", str(svg_a), "--scale", "1"]) == 0
        assert main(["analyze", str(model_path), "--svg", str(svg_b), "--scale", "100"]) == 0
        assert svg_a.read_text() != svg_b.read_text()


    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_scale_is_invalid(self, tmp_path, capsys, scale):
        model_path = tmp_path / "m.txt"
        main(["generate", "GRANDE", "-o", str(model_path)])
        svg = tmp_path / "d.svg"
        assert main(["analyze", str(model_path), "--svg", str(svg), f"--scale={scale}"]) == 1
        assert capsys.readouterr().err.startswith("error: scale must be finite and > 0")
        assert not svg.exists()

    def test_suspension_with_mid_support_is_exit_2(self, tmp_path, capsys):
        # The prop drives every hanger into compression on the first
        # iteration; with the hangers slack the main cable's free nodes
        # carry weight with no transverse stiffness (physics, not a defect).
        model_path = tmp_path / "s.txt"
        assert main(["generate", "SuspensionBridge", "--mid-support", "-o", str(model_path)]) == 0
        assert main(["analyze", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stiffness matrix is singular")
        assert "node 14 y" in err


class TestStage:
    def test_failing_plan_exit_3_names_stage(self, tmp_path, capsys):
        path = write(tmp_path / "plan.txt", PLAN_TEXT)
        report_path = tmp_path / "s.json"
        assert main(["stage", path, "--report", str(report_path)]) == 3
        out = capsys.readouterr().out
        assert "FAILS at stage 2" in out
        assert "minimal stable counterweight: 4000 N\n" in out
        data = json.loads(report_path.read_text())
        assert data["stable"] is False
        assert data["stages"][2]["verdict"] == "Overturns"
        assert data["minimal_counterweight"] == 4000.0
        assert data["stages"][0]["overturning_factor"] is None

    def test_stable_plan_exit_0(self, tmp_path, capsys):
        path = write(tmp_path / "plan.txt", "PLAN MODULE=2 COUNT=4 W=500 CW=8000 LEVER=1\n")
        assert main(["stage", path]) == 0
        assert "overall: Stable" in capsys.readouterr().out

    def test_unverified_plan_names_no_counterweight(self, tmp_path, capsys):
        # The landed stage asks the far shore to hold down, which no
        # counterweight fixes, so no W_min is printed.
        path = write(tmp_path / "plan.txt", "PLAN MODULE=2 COUNT=4 W=500 CW=9000 LEVER=1 INTERVAL=3\n")
        report_path = tmp_path / "s.json"
        assert main(["stage", path, "--report", str(report_path)]) == 3
        out = capsys.readouterr().out
        assert "minimal stable counterweight: none (no counterweight passes every stage)\n" in out
        data = json.loads(report_path.read_text())
        assert data["minimal_verified"] is False
        assert data["minimal_counterweight"] == 9000.0

    def test_an_overturning_moment_that_underflows_is_stable(self, tmp_path, capsys):
        # w c^2 / 2 underflows to 0 at the 0.5 and 1 m overhangs, but not at
        # the 1.5 m one, so W_min is the smallest double and can be held.
        path = write(tmp_path / "plan.txt", "PLAN MODULE=0.5 COUNT=10 W=5e-324 CW=3 LEVER=3 INTERVAL=3 SAFETY=1.5\n")
        report_path = tmp_path / "s.json"
        assert main(["stage", path, "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "minimal stable counterweight: 4.94066e-324 N\n" in out and out.endswith("overall: Stable\n")
        assert json.loads(report_path.read_text())["stable"] is True

    def test_a_minimal_counterweight_that_underflows_is_rejected(self, tmp_path, capsys):
        # Here w c^2 / 2 underflows at every overhang, so W_min would be 0 N,
        # a counterweight the plan file rejects: the deck weight is out of range.
        path = write(tmp_path / "plan.txt", "PLAN MODULE=0.5 COUNT=10 W=5e-324 CW=3 LEVER=3 INTERVAL=2 SAFETY=1.5\n")
        report_path = tmp_path / "s.json"
        assert main(["stage", path, "--report", str(report_path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: deck_weight_per_length out of range: 5e-324"
                                  " (the minimal counterweight underflows to 0 N)\n")
        assert not report_path.exists()

    def test_bad_plan_file_exit_4(self, tmp_path):
        path = write(tmp_path / "plan.txt", "PLAN MODULE=2\n")
        assert main(["stage", path]) == 4

    def test_a_report_json_cannot_hold_is_exit_4(self, tmp_path, capsys, monkeypatch):
        # No plan is known to give a NaN figure; one is put in its report.
        import ponte.cli

        run_plan = ponte.cli.run_plan
        monkeypatch.setattr(ponte.cli, "run_plan",
                            lambda plan: dataclasses.replace(run_plan(plan), minimal_counterweight=math.nan))
        path, out = write(tmp_path / "plan.txt", PLAN_TEXT), tmp_path / "s.json"
        assert main(["stage", path, "--report", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: Out of range float values are not JSON compliant\n"
        assert not out.exists() and not list(tmp_path.glob(".ponte-*.tmp"))

    def test_infinite_minimal_counterweight_is_null(self, tmp_path):
        # W_min = w c^2 / (2 lever) overflows for 1e200 m modules; the
        # report writes it as null, as it does the stage figures, and the
        # program exits with the plan's verdict, not a traceback.
        import ponte

        path = write(tmp_path / "plan.txt", "PLAN MODULE=1e200 COUNT=3 W=500 CW=10000 LEVER=2 INTERVAL=1 SAFETY=1\n")
        report_path = tmp_path / "s.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ponte.__file__)))
        done = subprocess.run([sys.executable, "-m", "ponte", "stage", path, "--report", str(report_path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 3
        assert "Traceback" not in done.stderr
        assert '"minimal_counterweight": null' in report_path.read_text()
        assert json.loads(report_path.read_text())["minimal_counterweight"] is None


def _not_finite(tmp_path, material: str, sigma: str) -> str:
    """GRANDE's model file with the allowable stress of ``material`` set
    to ``sigma``, which validate accepts."""
    path = tmp_path / f"{material}.txt"
    main(["generate", "GRANDE", "-o", str(path)])
    lines = [f"{line.rsplit(' ', 1)[0]} SIGMA={sigma}" if line.startswith(f"MATERIAL {material} ") else line
             for line in path.read_text().splitlines()]
    return write(path, "\n".join(lines) + "\n")


class TestNonFiniteUtilization:
    # Timber at SIGMA=1e-310 overflows the deck's utilization to inf; hemp
    # rope at SIGMA=5e-324 makes a slack cable's 0/0 a NaN.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("material, sigma, line", [
        ("timber", "1e-310", "max utilization: inf (member 1)\n"),
        ("hemp-rope", "5e-324", "max utilization: nan (member 12)\n"),
    ])
    def test_analyze_names_the_lowest_non_finite_member(self, tmp_path, capsys, material, sigma, line):
        capsys.readouterr()
        assert main(["analyze", _not_finite(tmp_path, material, sigma)]) == 0
        assert line in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("material, sigma", [("timber", "1e-310"), ("hemp-rope", "5e-324")])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_a_report_json_cannot_hold_is_exit_4(self, tmp_path, capsys, material, sigma, command):
        model, out = _not_finite(tmp_path, material, sigma), tmp_path / "r.json"
        capsys.readouterr()
        argv = ["analyze", model] if command == "analyze" else ["compare", model, model]
        assert main([*argv, "--report", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: Out of range float values are not JSON compliant\n"
        assert not out.exists() and not list(tmp_path.glob(".ponte-*.tmp"))


class TestCompare:
    def test_compare_two_models(self, tmp_path, capsys):
        a = tmp_path / "bare.txt"
        b = tmp_path / "grande.txt"
        main(["generate", "BARE_DECK", "-o", str(a)])
        main(["generate", "GRANDE", "-o", str(b)])
        report_path = tmp_path / "cmp.json"
        assert main(["compare", str(a), str(b), "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "max deflection" in out
        data = json.loads(report_path.read_text())
        assert set(data["metrics"]) == {
            "max_deflection", "max_utilization", "total_cable_tension", "total_material_volume",
        }

    @pytest.mark.parametrize("name_a", ["m.txt", "ratio"])
    def test_report_keys_each_metric_by_a_and_b_not_by_file_name(self, tmp_path, capsys, name_a):
        # A file of B's name in another directory, or one named like the
        # ratio's key: each metric keeps A's value, B's value and B/A, and
        # "labels" names A and B.
        for directory in ("a", "b"):
            (tmp_path / directory).mkdir()
        a, b = tmp_path / "a" / name_a, tmp_path / "b" / "m.txt"
        expected = []
        for what, path in (("BARE_DECK", a), ("GRANDE", b)):
            main(["generate", what, "-o", str(path)])
            main(["analyze", str(path), "--report", str(tmp_path / "r.json")])
            expected.append(json.loads((tmp_path / "r.json").read_text())["summary"]["max_deflection"])
        report_path = tmp_path / "cmp.json"
        capsys.readouterr()
        assert main(["compare", str(a), str(b), "--report", str(report_path)]) == 0
        # Each column is headed by its path as given, not by its file name.
        assert capsys.readouterr().out.split()[1:3] == [str(a), str(b)]
        data = json.loads(report_path.read_text())
        assert data["labels"] == [str(a), str(b)]
        assert all(set(entry) == {"A", "B", "ratio"} for entry in data["metrics"].values())
        value_a, value_b = expected
        assert data["metrics"]["max_deflection"] == {"A": value_a, "B": value_b, "ratio": value_b / value_a}

    @pytest.mark.parametrize("a, b, code", [
        # parse A, parse B, analyze A, analyze B: A's mechanism is found
        # before B's validation, and B's syntax error before A's.
        ("mech.txt", "invalid.txt", 2),
        ("invalid.txt", "bad.txt", 4),
        ("invalid.txt", "mech.txt", 1),
    ])
    def test_compare_reports_the_first_failure(self, tmp_path, a, b, code):
        write(tmp_path / "mech.txt", MECHANISM_TEXT)
        write(tmp_path / "invalid.txt", INVALID_TEXT)
        write(tmp_path / "bad.txt", "NODE 1 zero 0\n")
        assert main(["compare", str(tmp_path / a), str(tmp_path / b)]) == code

    def test_compare_missing_file(self, tmp_path):
        a = tmp_path / "bare.txt"
        main(["generate", "BARE_DECK", "-o", str(a)])
        assert main(["compare", str(a), str(tmp_path / "nope.txt")]) == 4


class TestFailurePath:
    @pytest.mark.parametrize("argv", [
        [],
        ["analyze"],
        ["analyze", "m.txt", "--bogus"],
        ["frobnicate"],
        ["generate", "BeamBridge", "-o", "x.txt", "--span", "abc"],
    ])
    def test_usage_error_is_exit_4(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 4
        assert capsys.readouterr().err.startswith("usage: ponte")

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", "--help"])
        assert exit_.value.code == 0
        assert "usage: ponte analyze" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["generate", "analyze --report", "analyze --svg", "stage", "compare"])
    @pytest.mark.parametrize("target", ["nodir/out", "adir"])
    def test_unwritable_output_is_exit_4(self, tmp_path, capsys, command, target):
        # A missing directory fails before the temporary file exists; an
        # existing directory as the target fails on the final rename.
        (tmp_path / "adir").mkdir()
        model = tmp_path / "m.txt"
        main(["generate", "BARE_DECK", "-o", str(model)])
        plan = write(tmp_path / "plan.txt", PLAN_TEXT)
        capsys.readouterr()
        out = str(tmp_path / target)
        argv = {
            "generate": ["generate", "GRANDE", "-o", out],
            "analyze --report": ["analyze", str(model), "--report", out],
            "analyze --svg": ["analyze", str(model), "--svg", out],
            "stage": ["stage", plan, "--report", out],
            "compare": ["compare", str(model), str(model), "--report", out],
        }[command]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err
        # The message names the target, never the temporary file.
        assert ".ponte-" not in err
        assert not list(tmp_path.rglob(".ponte-*.tmp"))


class TestOutputMode:
    # Every output goes through a temporary file renamed over the target: a
    # new file gets the mode open() would give it, 0666 less the umask, and
    # a rewritten one keeps its own permission bits.
    @staticmethod
    def mode(path) -> int:
        return stat.S_IMODE(os.stat(path).st_mode)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_output_gets_the_umask_mode(self, tmp_path, capsys, umask):
        old = os.umask(umask)
        try:
            assert main(["generate", "BARE_DECK", "-o", str(tmp_path / "m.txt")]) == 0
            assert main(["analyze", str(tmp_path / "m.txt"), "--report", str(tmp_path / "r.json"),
                         "--svg", str(tmp_path / "d.svg")]) == 0
        finally:
            os.umask(old)
        for name in ("m.txt", "r.json", "d.svg"):
            assert self.mode(tmp_path / name) == 0o666 & ~umask
        assert not list(tmp_path.glob(".ponte-*.tmp"))

    @pytest.mark.parametrize("mode", [0o644, 0o600, 0o640, 0o604])
    def test_a_rewritten_output_keeps_its_mode(self, tmp_path, capsys, mode):
        model, plan = tmp_path / "m.txt", write(tmp_path / "plan.txt", PLAN_TEXT)
        report = tmp_path / "r.json"
        for path in (model, report):
            path.write_text("old\n")
            os.chmod(path, mode)
        assert main(["generate", "BARE_DECK", "-o", str(model)]) == 0
        assert main(["stage", plan, "--report", str(report)]) == 3  # the plan fails, and its report is written
        assert model.read_text().startswith("UNIT SI") and report.read_text().startswith("{")
        assert self.mode(model) == self.mode(report) == mode
        assert not list(tmp_path.glob(".ponte-*.tmp"))

    @pytest.mark.parametrize("special", [stat.S_ISUID, stat.S_ISGID, stat.S_ISVTX])
    def test_a_rewritten_output_drops_special_bits(self, tmp_path, capsys, special):
        # As a plain rewrite would leave a fresh file: only the permission
        # bits carry over.
        model = tmp_path / "m.txt"
        model.write_text("old\n")
        os.chmod(model, 0o755 | special)
        if not self.mode(model) & special:
            pytest.skip("the file system does not keep this bit")
        assert main(["generate", "BARE_DECK", "-o", str(model)]) == 0
        assert self.mode(model) == 0o755


class TestOneParser:
    # main builds its argument parser on the first call and reuses it, so no
    # call may leave anything behind that changes the next one.
    def test_repeated_calls_keep_their_outcomes(self, tmp_path, capsys):
        model = str(tmp_path / "m.txt")
        plan = write(tmp_path / "plan.txt", PLAN_TEXT)
        invalid = write(tmp_path / "invalid.txt", INVALID_TEXT)

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        calls = [
            ["frobnicate"],
            ["--help"],
            ["generate", "BARE_DECK", "-o", model],
            ["analyze", "--help"],
            ["analyze", model],
            ["analyze", invalid],
            ["stage", plan],
            ["stage", str(tmp_path / "nope.txt")],
            ["compare", model, model],
            ["compare", model],
            ["generate", "NOPE", "-o", model + ".x"],
        ]
        first = [outcome(argv) for argv in calls]
        assert [code for code, _, _ in first] == [4, 0, 0, 0, 0, 1, 3, 4, 0, 4, 1]
        assert first[0][2].startswith("usage: ponte") and "usage: ponte analyze" in first[3][1]
        assert [outcome(argv) for argv in calls] == first
        assert [outcome(argv) for argv in reversed(calls)] == first[::-1]

    def test_parser_is_built_on_the_first_call(self):
        # Not at import, so starting the program does not pay for it.
        import ponte

        script = (
            "import ponte.cli as cli\n"
            "assert cli._parser.cache_info().currsize == 0\n"
            "try:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
            "parser = cli._parser()\n"
            "try:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
            "assert cli._parser() is parser and cli._parser.cache_info().misses == 1\n"
        )
        src = os.path.dirname(os.path.dirname(ponte.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True)


class TestStartUp:
    def test_commands_leave_the_slow_imports_out(self, tmp_path):
        # scipy.linalg (which brings numpy.f2py and numpy.testing) was half of
        # every command's start, and secrets (hashlib, OpenSSL) about 5 ms more.
        import ponte

        model, plan = str(tmp_path / "m.txt"), write(tmp_path / "plan.txt", PLAN_TEXT)
        commands = [
            ["generate", "FLORENCE", "-o", model],
            ["analyze", model, "--report", str(tmp_path / "r.json"), "--svg", str(tmp_path / "s.svg")],
            ["stage", plan, "--report", str(tmp_path / "p.json")],
        ]
        script = (
            "import sys\nimport ponte.cli as cli\n"
            f"codes = [cli.main(argv) for argv in {commands!r}]\n"
            "print(codes, sorted(m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing', 'hashlib')"
            " if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ponte.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0, 3] []"
        assert os.path.getsize(tmp_path / "s.svg") > 0 and json.loads((tmp_path / "p.json").read_text())
