import hashlib
import json
import math
import re

import numpy as np
import pytest

from holoflow import classify, cpoly, pwcycles, render
from holoflow.cli import main, parse_coeffs, parse_complex
from holoflow.potential import anti_holomorphic, build_potential, eval_potential
from test_pwcycles import SAME_DIRECTION_SIDES

S33 = math.sqrt(33.0)

REFERENCE_UPPER = "(1,0.5),(2,1.5),(3,0.5)"          # (2+i)/2, (4+3i)/2, (6+i)/2
# mixed-family constants with one confirmed limit cycle each
MIXED_LINEAR_CYCLE = "1.413612,-1.064242,-1.766789,-0.874464,-0.619219,0.485750,0"
MIXED_GENERAL_CYCLE = "1.413612,-1.064242,-1.766789,-0.874464,-0.619219,0.485750,0,0.05"
# README's mixed-general example
README_MIXED_GENERAL = "1.41,-1.06,-1.77,-0.87,-0.62,0.49,0,0.05"
# test_pwcycles' winding system: two cycles whose lower arcs wrap around
# the focus below the line, which only F = +-2 pi a finds
WINDING_CYCLES = "1.9528,0.8788,0.3198,-0.5741,0.2023,-1.4791,0.7602,-0.1513"
MIXED_LINEAR_RECORD = {"family": "mixed-linear",
                       "params": [float(v) for v in MIXED_LINEAR_CYCLE.split(",")]}


def assert_usage_error(err):
    """stderr of an exit-2 call: argparse's usage block and its error
    line for a flag value, main's one line for a library ValueError."""
    assert "Traceback" not in err
    assert re.match(r"usage: holoflow .*\n(.*\n)*holoflow( [a-z-]+)?: error: |error: ", err), err


def reference_lower():
    lead = -4 + (-1 + S33) / (-19 + 3 * S33)  # imaginary part of the z^2 coeff
    return f"(-3,1),(-1,1),(-4,{lead + 4})"


class TestParsers:
    def test_parse_complex(self):
        assert parse_complex("1,-2") == 1 - 2j
        assert parse_complex("3") == 3 + 0j

    def test_parse_coeffs(self):
        assert parse_coeffs("1,0,(0,1)") == [1 + 0j, 0j, 1j]
        assert parse_coeffs("(2,1)") == [2 + 1j]

    def test_parse_coeffs_malformed(self):
        with pytest.raises(ValueError):
            parse_coeffs("1,(2")
        with pytest.raises(ValueError):
            parse_coeffs("abc")


class TestPotentialCommand:
    def test_stream_function_grid(self, tmp_path):
        out = tmp_path / "pot.json"
        grid = tmp_path / "grid.csv"
        code = main([
            "potential", "--antiholo", "0,0,1", "--out", str(out),
            "--grid-csv", str(grid), "--window=-1,1,-1,1", "--grid", "9,9",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(
            payload["potential"]["poly"], [[0, 0], [0, 0], [0, 0], [1 / 3, 0]]
        )
        data = np.genfromtxt(grid, delimiter=",", names=True)
        expected = data["x"] ** 2 * data["y"] - data["y"] ** 3 / 3
        np.testing.assert_allclose(data["psi"], expected, atol=1e-12)

    def test_malformed_coefficients_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["potential", "--antiholo", "1,,2", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestClassifyCommand:
    def test_three_centers(self, capsys):
        code = main(["classify-cubic", "--a1", "0,-1", "--a0", "0,0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config_label"] == "a"
        assert report["regions"] == {"center": 3, "sepal": 0, "alpha_omega": 0}
        assert len(report["equilibria"]) == 3
        assert len(report["infinity"]) == 4

    def test_bernoulli_command(self, capsys):
        code = main(["bernoulli", "--n", "3", "--alpha", "1,0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regions"] == {"center": 0, "alpha_omega": 2}
        assert len(report["equilibria"]) == 3

    @pytest.mark.parametrize("n, alpha", [("2", "1.7e308,1.7e308")])
    def test_bernoulli_past_float_range(self, capsys, n, alpha):
        # a linearization past float range is a solver error, not an
        # OverflowError traceback
        assert main(["bernoulli", "--n", n, "--alpha", alpha]) == 1
        assert "passes float range" in capsys.readouterr().err

    @pytest.mark.parametrize("n, message", [
        ("1000000000", f"n <= {classify.MAX_N}"),
        (str(10 ** 30), f"n <= {classify.MAX_N}"),
        ("10**30", "invalid int value"),
        ("1017", f"n <= {classify.MAX_N}"),
        ("1028", f"n <= {classify.MAX_N}"),
    ])
    def test_bernoulli_n_above_the_limit_is_a_usage_error(self, capsys, n, message):
        # refused before any loop; at 10**9 the ring loop used to run
        # without bound, and from 1017 on a saddle determinant passes
        # float range
        with pytest.raises(SystemExit) as info:
            main(["bernoulli", "--n", n, "--alpha", "1,0"])
        assert info.value.code == 2
        assert message in capsys.readouterr().err


class TestCyclesCommand:
    def test_antiholo_reference_system(self, tmp_path):
        out = tmp_path / "cycles.json"
        code = main([
            "cycles", "--family", "antiholo",
            "--upper", REFERENCE_UPPER, "--lower", reference_lower(),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bound"] == 1
        assert report["continuum"] is False
        confirmed = [c for c in report["candidates"]
                     if c["verified"] == "numerically_confirmed"]
        assert len(confirmed) == 1
        assert confirmed[0]["x1"] == pytest.approx(0.0, abs=1e-9)
        assert confirmed[0]["x2"] == pytest.approx((-9 + S33) / 4, abs=1e-9)
        # the library's reason and miss stay out of the report
        assert set(confirmed[0]) == {"x1", "x2", "multiplier", "stability", "verified"}

    def test_verify_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cycles.json"
        for family_args in (
            ["--family", "antiholo", "--upper", REFERENCE_UPPER, "--lower", reference_lower()],
            ["--family", "mixed-linear", "--params", MIXED_LINEAR_CYCLE],
            ["--family", "mixed-general", "--params", MIXED_GENERAL_CYCLE],
        ):
            assert main(["cycles", *family_args, "--out", str(out)]) == 0
            capsys.readouterr()
            code = main(["verify", "--report", str(out)])
            printed = capsys.readouterr().out
            assert code == 0, family_args
            assert "PASS" in printed, family_args

    def test_verify_applies_the_solver_rule(self, tmp_path, capsys, monkeypatch):
        # verify confirms with pwcycles.closes: tightening the solvers'
        # CONFIRM_TOL below the cycle's return-map miss fails it too
        out = tmp_path / "cycles.json"
        assert main(["cycles", "--family", "mixed-linear", "--params", MIXED_LINEAR_CYCLE,
                     "--out", str(out)]) == 0
        monkeypatch.setattr(pwcycles, "CONFIRM_TOL", 0.0)
        capsys.readouterr()
        assert main(["verify", "--report", str(out)]) == 1
        assert capsys.readouterr().out.startswith("FAIL ")

    def test_mixed_general_winding_cycles(self, tmp_path, capsys):
        # cycles solves the winding targets as well, and verify passes both
        out = tmp_path / "cycles.json"
        assert main(["cycles", "--family", "mixed-general", "--params", WINDING_CYCLES,
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [(c["x1"], c["x2"], c["verified"]) for c in report["candidates"]] == [
            (0.9559773761677004, 0.3505770161855087, "numerically_confirmed"),
            (0.826172652510875, 0.480381739842334, "numerically_confirmed")]
        assert report["bound"] == 3
        capsys.readouterr()
        assert main(["verify", "--report", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in printed] == [
            ["PASS", "x1=0.955977376"], ["PASS", "x1=0.826172653"]]

    def test_verify_skips_a_rejected_candidate(self, tmp_path, capsys):
        upper, lower = (",".join(f"({c.real!r},{c.imag!r})" for c in side)
                        for side in SAME_DIRECTION_SIDES)
        out = tmp_path / "cycles.json"
        assert main(["cycles", "--family", "antiholo", "--upper", upper, "--lower", lower,
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [c["verified"] for c in report["candidates"]] == ["rejected"]
        capsys.readouterr()
        assert main(["verify", "--report", str(out)]) == 0
        assert capsys.readouterr().out == "SKIP x1=0.731775345 (rejected)\n"

    def test_antiholo_constant_divided_difference(self, capsys):
        # p = i + z on both sides: psi(x, 0) = x admits no crossing pair
        code = main(["cycles", "--family", "antiholo",
                     "--upper", "(0,1),1", "--lower", "(0,1),1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["candidates"] == []
        assert report["continuum"] is False

    def test_mixed_linear_continuum(self, capsys):
        code = main([
            "cycles", "--family", "mixed-linear",
            "--params", "2,1,5,-10,0,-1,10",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["continuum"] is True
        assert report["candidates"] == []

    def test_mixed_general_params(self, capsys):
        code = main([
            "cycles", "--family", "mixed-general",
            "--params", MIXED_GENERAL_CYCLE,
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        confirmed = [c for c in report["candidates"]
                     if c["verified"] == "numerically_confirmed"]
        assert len(confirmed) == 1
        assert report["bound"] == 3


class TestFlowstatsCommand:
    def test_rotation_circle(self, capsys):
        code = main([
            "flowstats", "--holo", "0,(1,1)", "--circle", "0,0,1",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["circulation"] == pytest.approx(2 * math.pi, abs=1e-8)
        assert report["net_flow"] == pytest.approx(2 * math.pi, abs=1e-8)

    def test_sum_past_float_range_is_a_solver_error(self, capsys):
        # every node value is finite, but their weighted sum is not: this
        # printed "circulation": NaN, which is not JSON, and exited 0
        assert main(["flowstats", "--holo", "1e300", "--circle", "0,0,1e10"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("solver error: ")


class TestSizeLimits:
    """Each size is refused with exit 2 before the work it would scale."""

    GRID = f"nx * ny must be <= {render.MAX_GRID_NODES}"
    LEVELS = f"level count must be between 1 and {render.MAX_LEVELS}"
    PORTRAIT = ["portrait", "--holo", "0,1", "--out-svg", "{tmp}/p.svg"]

    @pytest.mark.parametrize("argv, message", [
        (PORTRAIT + ["--grid", "100000,100000"], GRID),
        (["potential", "--holo", "0,1", "--out", "{tmp}/p.json", "--grid-csv", "{tmp}/grid.csv",
          "--grid", "100000,100000"], GRID),
        (PORTRAIT + ["--levels", "1000000000"], LEVELS),
        # no level drew an empty portrait, and a count below -1 ended in
        # numpy's linspace message
        (PORTRAIT + ["--levels", "0"], LEVELS),
        (PORTRAIT + ["--levels=-5"], LEVELS),
        (PORTRAIT + ["--levels-at=" + ",".join(["0"] * (render.MAX_LEVELS + 1))],
         f"at most {render.MAX_LEVELS} levels"),
        (["potential", "--holo", ",".join(["1"] * (cpoly.MAX_DEGREE + 2)),
          "--out", "{tmp}/p.json"], f"above the limit {cpoly.MAX_DEGREE}"),
        (["potential", "--antiholo", ",".join(["1"] * (cpoly.MAX_DEGREE + 2)),
          "--out", "{tmp}/p.json"], f"above the limit {cpoly.MAX_DEGREE}"),
        (PORTRAIT[:1] + ["--antiholo", ",".join(["1"] * (cpoly.MAX_DEGREE + 2))] + PORTRAIT[3:],
         f"above the limit {cpoly.MAX_DEGREE}"),
        (["cycles", "--family", "antiholo", "--upper", ",".join(["1"] * (pwcycles.MAX_PAIR_DEGREE + 1))
          + ",(0,1)", "--lower", REFERENCE_UPPER], f"above the limit {pwcycles.MAX_PAIR_DEGREE}"),
    ], ids=["portrait-grid", "potential-grid", "portrait-levels", "portrait-no-level",
            "portrait-negative-levels", "portrait-levels-at",
            "potential-holo-degree", "potential-antiholo-degree", "portrait-degree",
            "cycles-degree"])
    def test_past_the_limit(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("grid, levels", [
        (f"{math.isqrt(render.MAX_GRID_NODES)},{math.isqrt(render.MAX_GRID_NODES)}", 1),
        ("9,9", render.MAX_LEVELS),
    ], ids=["grid", "levels"])
    def test_at_the_limit(self, tmp_path, grid, levels):
        assert main(["portrait", "--antiholo", "0,0,1", "--grid", grid,
                     "--levels-at=" + ",".join(["0.5"] * levels),
                     "--out-svg", str(tmp_path / "p.svg")]) == 0

    def test_degree_at_the_limit(self, tmp_path):
        # z^200 + 1: 200 simple poles of 1/p
        coeffs = ",".join(["1"] + ["0"] * (cpoly.MAX_DEGREE - 1) + ["1"])
        assert main(["potential", "--holo", coeffs, "--out", str(tmp_path / "p.json")]) == 0
        with open(tmp_path / "p.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["potential"]["log_terms"]) == cpoly.MAX_DEGREE


class TestCommaLists:
    """A comma list of the wrong length or with a bad value exits 2 with
    a message naming the flag and its fields."""

    @pytest.mark.parametrize("argv, message", [
        (["portrait", "--holo", "0,1", "--grid", "5"], "argument --grid: takes nx,ny, got '5'"),
        (["portrait", "--holo", "0,1", "--grid", "2,abc"],
         "argument --grid: takes nx,ny, got '2,abc'"),
        (["potential", "--holo", "0,1", "--out", "{tmp}/p.json", "--grid-csv", "{tmp}/g.csv",
          "--grid", "1,2,3"], "argument --grid: takes nx,ny"),
        (["portrait", "--holo", "0,1", "--window=1,2,3"],
         "argument --window: takes x_min,x_max,y_min,y_max, got '1,2,3'"),
        (["portrait", "--holo", "0,1", "--window=-1,1,-1,nan"], "argument --window: takes"),
        (["flowstats", "--holo", "0,1", "--circle", "0,0"],
         "argument --circle: takes cx,cy,radius, got '0,0'"),
        (["flowstats", "--holo", "0,1", "--circle", "0,0,one"],
         "argument --circle: takes cx,cy,radius"),
    ], ids=["grid-short", "grid-not-int", "grid-long", "window-short", "window-nan",
            "circle-short", "circle-not-number"])
    def test_usage_error(self, tmp_path, capsys, argv, message):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--out-svg", str(tmp_path / "p.svg")] if argv[0] == "portrait" else []))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "unpack" not in err


# a valid argv per command; each flag case below swaps one flag's value
VALID_ARGV = {
    "potential": ["potential", "--holo=0,1", "--out={tmp}/p.json", "--grid-csv={tmp}/g.csv",
                  "--window=-1,1,-1,1", "--grid=5,5"],
    "classify-cubic": ["classify-cubic", "--a1=0,-1", "--a0=0,0", "--out={tmp}/c.json"],
    "bernoulli": ["bernoulli", "--n=3", "--alpha=1,0", "--out={tmp}/b.json"],
    "cycles-antiholo": ["cycles", "--family=antiholo", f"--upper={REFERENCE_UPPER}",
                        f"--lower={REFERENCE_UPPER}", "--out={tmp}/c.json"],
    "cycles-mixed": ["cycles", "--family=mixed-linear", f"--params={MIXED_LINEAR_CYCLE}",
                     "--out={tmp}/c.json"],
    "flowstats": ["flowstats", "--holo=0,1", "--circle=0,0,1", "--out={tmp}/f.json"],
    "portrait": ["portrait", "--holo=0,1", "--window=-1,1,-1,1", "--grid=5,5",
                 "--out-svg={tmp}/p.svg", "--out-csv={tmp}/p.csv"],
    "portrait-piecewise": ["portrait", f"--upper={REFERENCE_UPPER}", f"--lower={REFERENCE_UPPER}",
                           "--out-svg={tmp}/p.svg"],
}
# each kind of malformed value per flag type: a wrong count, a non-number,
# NaN or inf, unbalanced parentheses, an empty entry (and out of range)
BAD_COMPLEX = ["1,2,3", "x", "nan,0", "0,inf", ""]
BAD_COEFFS = ["1,,2", "1,(2", "1,2)", "(1,x)", "nan", "(0,inf)", "(1,2,3)", ""]
BAD_VALUES = {
    "--holo": BAD_COEFFS, "--antiholo": BAD_COEFFS, "--upper": BAD_COEFFS,
    "--lower": BAD_COEFFS, "--a1": BAD_COMPLEX, "--a0": BAD_COMPLEX, "--alpha": BAD_COMPLEX,
    "--window": ["1,2", "-1,1,-1,x", "-1,1,-1,nan", "1,1,-1,1", "-1,1,,1"],
    "--grid": ["5", "2,abc", "1,2,3", "1,1", "2.5,3", ""],
    "--levels": ["x", "0", "2.5", ""],
    "--levels-at": ["1,x", "nan", "0,,1", ""],
    "--params": ["1,x", "1,,2", "nan,1", "inf", ""],
    "--circle": ["0,0", "0,0,one", "0,0,nan", "0,0,-1", "0,0,1,2", ""],
    "--polygon": ["0,0;a,b;1,1", "0,0;1,0", "0,0;1,inf;0,1", "0,0;;1,1", "0,0,0;1,0;0,1", ""],
}
STRUCTURED_FLAGS = [
    ("potential", ["--holo", "--antiholo", "--window", "--grid"]),
    ("classify-cubic", ["--a1", "--a0"]),
    ("bernoulli", ["--alpha"]),
    ("cycles-antiholo", ["--upper", "--lower"]),
    ("cycles-mixed", ["--params"]),
    ("flowstats", ["--holo", "--antiholo", "--circle", "--polygon"]),
    ("portrait", ["--holo", "--antiholo", "--window", "--grid", "--levels", "--levels-at"]),
    ("portrait-piecewise", ["--upper", "--lower"]),
]
# flags that take the place of another in a mutually exclusive group
EXCLUSIVE = {"--antiholo": "--holo", "--polygon": "--circle"}


def flag_cases():
    for base, flags in STRUCTURED_FLAGS:
        for flag in flags:
            for value in BAD_VALUES[flag]:
                drop = (flag, EXCLUSIVE.get(flag))
                argv = [a for a in VALID_ARGV[base] if a.split("=")[0] not in drop]
                yield pytest.param(argv + [f"{flag}={value}"], flag,
                                   id=f"{base} {flag}={value}")


class TestFlagValues:
    """Every structured flag of every command parses its value where it
    is declared: a malformed value exits 2 through argparse, names the
    flag, and comes before any work or output; so does a flag of another
    mode of the command."""

    @pytest.mark.parametrize("base", sorted(VALID_ARGV))
    def test_valid_argv(self, tmp_path, capsys, base):
        assert main([a.replace("{tmp}", str(tmp_path)) for a in VALID_ARGV[base]]) == 0

    @pytest.mark.parametrize("argv, flag", flag_cases())
    def test_malformed_value(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: " in captured.err
        assert "Traceback" not in captured.err
        assert not captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        # the two commands that exited 0 ignoring a flag
        (["portrait", "--holo", "0,1", "--upper", REFERENCE_UPPER, "--lower", REFERENCE_UPPER,
          "--out-svg", "{tmp}/p.svg"], "--holo"),
        (["cycles", "--family", "mixed-linear", "--params", MIXED_LINEAR_CYCLE,
          "--upper", "1,2"], "--upper"),
        (VALID_ARGV["portrait-piecewise"] + ["--antiholo=0,1"], "--antiholo"),
        (VALID_ARGV["cycles-mixed"] + [f"--lower={REFERENCE_UPPER}"], "--lower"),
        (VALID_ARGV["cycles-antiholo"] + [f"--params={MIXED_LINEAR_CYCLE}"], "--params"),
    ], ids=["portrait-holo-sides", "cycles-mixed-upper", "portrait-antiholo-sides",
            "cycles-mixed-lower", "cycles-antiholo-params"])
    def test_flag_of_another_mode(self, tmp_path, capsys, monkeypatch, argv, flag):
        for module, name in [(render, "potential_grid"), (render, "piecewise_psi_grid"),
                             (cpoly, "resultant_x2"), (pwcycles, "solve_mixed_linear_on_sigma")]:
            monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        with pytest.raises(SystemExit) as exc:
            main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert re.fullmatch(f"error: {flag} [^\n]*\n", captured.err), captured.err
        assert not captured.out
        assert list(tmp_path.iterdir()) == []

    def test_nodes_is_not_a_flowstats_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flowstats", "--holo", "0,1", "--circle", "0,0,1", "--nodes", "4"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --nodes 4" in capsys.readouterr().err


class TestPortraitCommand:
    def test_svg_deterministic(self, tmp_path):
        svg1 = tmp_path / "p1.svg"
        svg2 = tmp_path / "p2.svg"
        args = ["portrait", "--antiholo", "0,0,0,1", "--window=-2,2,-2,2",
                "--grid", "48,48", "--levels", "8"]
        assert main(args + ["--out-svg", str(svg1)]) == 0
        assert main(args + ["--out-svg", str(svg2)]) == 0
        text = svg1.read_text()
        assert text == svg2.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert "polyline" in text

    def test_grid_csv_matches_stream_function(self, tmp_path):
        # zdot = conj(z^3): psi = Im z^4/4
        svg = tmp_path / "p.svg"
        grid = tmp_path / "g.csv"
        code = main([
            "portrait", "--antiholo", "0,0,0,1", "--window=-2,2,-2,2",
            "--grid", "16,16", "--out-svg", str(svg), "--out-csv", str(grid),
        ])
        assert code == 0
        data = np.genfromtxt(grid, delimiter=",", names=True)
        zs = data["x"] + 1j * data["y"]
        np.testing.assert_allclose(data["psi"], (zs ** 4 / 4).imag, atol=1e-12)

    def test_zero_level_contains_sector_rays(self, tmp_path):
        # the zero level of Im z^4/4 consists of rays at angles k*pi/4:
        # its contour segments hug those directions
        svg = tmp_path / "p.svg"
        code = main([
            "portrait", "--antiholo", "0,0,0,1", "--window=-2,2,-2,2",
            "--grid", "129,129", "--levels-at", "0",
            "--out-svg", str(svg),
        ])
        assert code == 0
        text = svg.read_text()
        assert text.count("polyline") > 20

    def test_phi_levels_included(self, tmp_path):
        svg = tmp_path / "p.svg"
        code = main([
            "portrait", "--antiholo", "0,0,1", "--window=-2,2,-2,2",
            "--grid", "32,32", "--levels", "4", "--out-svg", str(svg),
        ])
        assert code == 0
        text = svg.read_text()
        assert 'id="psi-level-0"' in text
        assert 'id="phi-level-0"' in text

    def test_piecewise_portrait(self, tmp_path):
        svg = tmp_path / "pw.svg"
        grid = tmp_path / "pw.csv"
        code = main([
            "portrait", "--upper", REFERENCE_UPPER, "--lower", reference_lower(),
            "--window=-4,3,-3,3", "--grid", "48,48",
            "--out-svg", str(svg), "--out-csv", str(grid),
        ])
        assert code == 0
        assert "polyline" in svg.read_text()
        data = np.genfromtxt(grid, delimiter=",", names=True)
        assert data.shape[0] == 48 * 48
        assert data.dtype.names == ("x", "y", "psi")
        reps = {side: build_potential(anti_holomorphic(parse_coeffs(coeffs)))
                for side, coeffs in (("upper", REFERENCE_UPPER), ("lower", reference_lower()))}
        rows = data[::97]
        assert min(rows["y"]) < 0 < max(rows["y"])
        for row in rows:
            rep = reps["upper" if row["y"] >= 0 else "lower"]
            psi = eval_potential(rep, complex(row["x"], row["y"])).imag
            assert row["psi"] == pytest.approx(psi, abs=1e-12)

    @pytest.mark.parametrize("argv, missing", [
        (["--upper", REFERENCE_UPPER], "--lower"),
        (["--lower", REFERENCE_UPPER], "--upper"),
    ])
    def test_piecewise_needs_both_sides(self, tmp_path, capsys, argv, missing):
        with pytest.raises(SystemExit) as exc:
            main(["portrait", *argv, "--out-svg", str(tmp_path / "p.svg")])
        assert exc.value.code == 2
        assert missing in capsys.readouterr().err

    def test_needs_a_side(self, tmp_path, capsys):
        svg = tmp_path / "p.svg"
        with pytest.raises(SystemExit) as exc:
            main(["portrait", "--out-svg", str(svg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert_usage_error(err)
        assert "provide --holo or --antiholo coefficients" in err
        assert not svg.exists()

    @pytest.mark.parametrize("sides", [
        ["--upper", REFERENCE_UPPER, "--lower", REFERENCE_UPPER],
        ["--antiholo", REFERENCE_UPPER],
    ], ids=["piecewise", "antiholo"])
    def test_one_node_grid_rejected(self, tmp_path, sides):
        with pytest.raises(SystemExit) as exc:
            main(["portrait", *sides, "--grid", "1,1", "--out-svg", str(tmp_path / "p.svg")])
        assert exc.value.code == 2


class TestReadmePortraits:
    """The README portrait command and a holomorphic and a piecewise
    variant, pinned to the SVG bytes the per-node and per-cell loops
    produced before numpy took them over."""

    @pytest.mark.parametrize("argv, sha256", [
        (["--antiholo", "0,0,0,1", "--window=-2,2,-2,2", "--grid", "48,48"],
         "39dd932dfdc24f08b32ddced4dd3fec1a2e9d6a1bfa01cb959468086466b3ce5"),
        # z^2 (z - 1): nodes sit on both poles, and the double root gives
        # a rational term
        (["--holo", "0,0,-1,1", "--window=-2,2,-2,2", "--grid", "33,33"],
         "23b9b09489739899ab6571c4f30bbb60409a5a3463760eaf98feadb4575f81b7"),
        (["--upper", REFERENCE_UPPER, "--lower", reference_lower(),
          "--window=-4,3,-3,3", "--grid", "48,48"],
         "2d961c41fb6a07fff79224139d8c157e41fe0162fe661e8c8f44dc04baf76336"),
    ], ids=["antiholo", "holo", "piecewise"])
    def test_svg_bytes(self, tmp_path, argv, sha256):
        svg = tmp_path / "p.svg"
        assert main(["portrait", *argv, "--levels", "12", "--out-svg", str(svg)]) == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == sha256


class TestEnvOverride:
    """Tolerances are fixed: HOLOFLOW_TOL is not read."""

    def test_holoflow_tol(self, capsys, monkeypatch):
        # 1e-3 as the solver's widths reports this genuine cycle rejected
        argv = ["cycles", "--family", "mixed-general", "--params", README_MIXED_GENERAL]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("HOLOFLOW_TOL", "1e-3")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        cand, = json.loads(plain)["candidates"]
        assert cand["verified"] == "numerically_confirmed"


class TestExitCodes:
    def test_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cycles", "--family", "bogus", "--params", "1"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify-cubic", "--a1", "0,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, report", [
        (["cycles", "--family", "antiholo", "--lower", REFERENCE_UPPER], None),
        (["cycles", "--family", "mixed-linear"], None),
        (["verify"], {"system": {"family": "mixed-linear", "params": [1.0, 2.0]},
                      "candidates": []}),
        (["verify"], {}),
        (["verify"], {"system": {"family": "antiholo", "upper": [[1.0, 0.0], [0.0, "1"]],
                                 "lower": [[1.0, 0.0], [0.0, 1.0]]}, "candidates": []}),
        (["flowstats", "--holo", "1,1", "--circle", "0,0,1", "--nodes", "0"], None),
        (["verify"], {"system": MIXED_LINEAR_RECORD, "candidates": [{"x1": 0.03}]}),
        (["verify"], {"system": MIXED_LINEAR_RECORD,
                      "candidates": [{"verified": "numerically_confirmed"}]}),
        (["verify"], {"system": MIXED_LINEAR_RECORD, "candidates": [0.03]}),
        (["verify"], {"system": MIXED_LINEAR_RECORD,
                      "candidates": [{"x1": None, "verified": "rejected"}]}),
        (["verify"], {"system": MIXED_LINEAR_RECORD, "candidates": 3}),
        (["cycles", "--family", "mixed-general", "--params", "nan,1,1,1,1,1,1,1"], None),
        (["cycles", "--family", "mixed-linear", "--params", "1,1,1,1,inf,1,0"], None),
        (["cycles", "--family", "antiholo", "--upper", "(nan,1),1,(0,1)",
          "--lower", REFERENCE_UPPER], None),
        (["verify"], {"system": {"family": "antiholo", "upper": [[1.0, 0.0], [0.0, 1.0]],
                                 "lower": [[1.0, 0.0], [-math.inf, 1.0]]},
                      "candidates": []}),
        (["potential", "--antiholo", "nan,1"], None),
        (["potential", "--holo", "(inf,1),1"], None),
        (["classify-cubic", "--a1", "nan,0", "--a0", "0,1"], None),
        (["portrait", "--antiholo", "0,0,1", "--grid", "9,9", "--levels-at", "nan,0.5"], None),
        (["portrait", "--antiholo", "0,0,1", "--window=-2,2,-2,nan"], None),
        (["flowstats", "--holo", "1,1", "--circle", "0,0,nan"], None),
        (["flowstats", "--holo", "1,1", "--polygon", "0,0;1,inf;0,1"], None),
        (["flowstats", "--holo", "1,1", "--circle", "0,0,-1"], None),
        (["flowstats", "--holo", "1,1", "--circle", "0,0,0"], None),
        (["flowstats", "--holo", "1,1", "--polygon", "0,0"], None),
        (["flowstats", "--holo", "1,1", "--polygon", "0,0;1,0"], None),
        (["verify"], {"system": {"family": "antiholo", "upper": [],
                                 "lower": [[1.0, 0.0], [0.0, 1.0]]},
                      "candidates": [{"x1": 0.5, "verified": "numerically_confirmed"}]}),
        (["verify"], {"system": {"family": "mixed-linear", "params": [10 ** 400] + [1] * 6},
                      "candidates": []}),
        (["verify"], {"system": MIXED_LINEAR_RECORD,
                      "candidates": [{"x1": 10 ** 400, "verified": "numerically_confirmed"}]}),
    ], ids=["antiholo-no-upper", "mixed-linear-no-params", "verify-short-params",
            "verify-empty-report", "verify-string-coefficient", "flowstats-zero-nodes",
            "verify-candidate-no-verified", "verify-candidate-no-x1",
            "verify-candidate-not-dict", "verify-candidate-null-x1",
            "verify-candidates-not-list", "mixed-general-nan-param",
            "mixed-linear-inf-param", "antiholo-nan-coefficient",
            "verify-infinite-coefficient", "potential-nan-coefficient",
            "potential-infinite-coefficient", "classify-cubic-nan", "portrait-nan-level",
            "portrait-nan-window", "flowstats-nan-circle", "flowstats-infinite-vertex",
            "flowstats-negative-radius", "flowstats-zero-radius",
            "flowstats-one-vertex", "flowstats-two-vertices", "verify-empty-side",
            "verify-huge-int-param", "verify-huge-int-x1"])
    def test_malformed_input(self, tmp_path, capsys, argv, report):
        if report is not None:
            path = tmp_path / "report.json"
            path.write_text(json.dumps(report))
            argv = argv + ["--report", str(path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["cycles", "--family", "antiholo", "--upper", "1e200,(0,1e200),(0,1e200)",
         "--lower", "1,(0,-1),(0,1)"],
        ["cycles", "--family", "mixed-general", "--params",
         "1e-150,1e-150,1,1,1,1,1,1e-150"],
    ], ids=["antiholo-resultant-scale", "mixed-general-squared-distance"])
    def test_float_range_is_a_solver_error(self, capsys, argv):
        # finite flags whose arithmetic passes float range: each command
        # used to end in an OverflowError traceback
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("solver error: ")

    def test_scaled_side_is_solved(self, capsys):
        # the upper side of the first case above at 1e150 rather than
        # 1e200: the resultant's scale, 6e298, is in float range, and a
        # positive factor only rescales time, so the answer is the
        # unscaled pair's
        answers = []
        for scale in ("1e150", "1"):
            assert main(["cycles", "--family", "antiholo", "--upper",
                         f"{scale},(0,{scale}),(0,{scale})", "--lower", "1,(0,-1),(0,1)"]) == 0
            report = json.loads(capsys.readouterr().out)
            answers.append((report["candidates"], report["continuum"]))
        assert answers == [([], False)] * 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e-10"])
    @pytest.mark.parametrize("command", ["cycles", "verify", "classify-cubic"])
    def test_bad_tol_flag(self, tmp_path, capsys, command, value):
        # tolerances are fixed: every --tol, and classify-cubic's --eps,
        # is an unknown argument
        report = tmp_path / "report.json"
        assert main(["cycles", "--family", "mixed-linear", "--params", MIXED_LINEAR_CYCLE,
                     "--out", str(report)]) == 0
        argv, flag = {
            "cycles": (["cycles", "--family", "antiholo", "--upper", REFERENCE_UPPER,
                        "--lower", reference_lower()], "--tol"),
            "verify": (["verify", "--report", str(report)], "--tol"),
            "classify-cubic": (["classify-cubic", "--a1", "0,-1", "--a0", "0,0"], "--eps"),
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}={value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-8"])
    def test_bad_holoflow_tol(self, capsys, monkeypatch, value):
        # HOLOFLOW_TOL is not read, so no value of it is an error
        argv = ["cycles", "--family", "mixed-linear", "--params", MIXED_LINEAR_CYCLE]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("HOLOFLOW_TOL", value)
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
