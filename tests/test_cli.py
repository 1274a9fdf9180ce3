import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from shapespline import CubicSegment, DataPolygon, SplineConfig, analyze, build_spline, cli
from shapespline.cli import SETTINGS, build_parser, main
from shapespline.criteria import Criterion, Rows
from shapespline.geometry import norm_rows
from shapespline.segment import derivative_rows

from conftest import bench_gen, collinear_polyline, ref_verify_report, spline_point

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"

# Four points of a seeded noisy helix with their Catmull-Rom tangents and
# chord-length knots.  The torsion numerator of segment 2 is about
# 6e-6 |d1||d2||d3|, so rounding alone moves det[d1, d2, d3] by ~1e-9 |tau|.
NEARLY_COPLANAR = {
    "version": 1,
    "points": [
        [0.5459333174242985, -0.9586815012725047, 1.6861242409579058],
        [0.9049723310308826, -0.6313546472261607, 1.850979604035382],
        [1.0809038665180124, -0.13234152667424195, 2.0319666921372],
        [1.0185885142585442, 0.37034567499614524, 2.168923043419014],
    ],
    "tangents": [
        [0.44032843589931336, 0.24703834753398674, 0.16405647298062875],
        [0.26748527454685694, 0.4131699872991314, 0.17292122558964718],
        [0.056808091613830825, 0.500850161111153, 0.158971719691816],
        [-0.15622393969088416, 0.4609616620385616, 0.17063083720437588],
    ],
    "knots": [9.98245280601396, 10.909758657449466, 11.920489303244128, 12.868878152669994],
}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_example1_passes(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES / "example1.json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["all_passed"] is True
        seg2 = report["segments"][1]
        assert seg2["index"] == 2
        assert "convex" in seg2["flags"] and "torsion" in seg2["flags"]
        convexity = [v for v in seg2["verdicts"] if v["criterion"] == "convexity"]
        assert convexity and convexity[0]["passed"] is True

    def test_collinear_fixture_collinearity_passes(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES / "collinear_in_convex.json")
        report = json.loads(out)
        verdicts = [
            v
            for s in report["segments"]
            for v in s["verdicts"]
            if v["criterion"] == "collinearity"
        ]
        assert verdicts and all(v["passed"] for v in verdicts)

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "check", bad)
        assert code == 2
        assert "error:" in err

    def test_missing_points_exits_2(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text('{"version": 1, "points": [[0, 0, 0]]}')
        code, _, err = run(capsys, "check", doc)
        assert code == 2

    def test_duplicate_points_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text('{"version": 1, "points": [[0,0,0],[0,0,0],[1,0,0]]}')
        code, _, err = run(capsys, "check", doc)
        assert code == 2

    def test_build_fault_names_the_segment(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        points = [[k, 0.5 * k * k, 0] for k in range(5)]
        tangents = [[1, 0, 0]] * 4 + [[1e12, 0, 0]]
        doc.write_text(json.dumps({"version": 1, "points": points, "tangents": tangents}))
        code, out, err = run(capsys, "check", doc, "--tangents", "provided")
        assert (code, out, err) == (2, "", "error: segment 4: endpoints coincide\n")

    def test_verify_clean_on_fixtures(self, capsys):
        for name in ("example1.json", "helix6.json", "coplanar.json", "provided.json"):
            code, out, _ = run(capsys, "check", FIXTURES / name, "--verify")
            report = json.loads(out)
            assert report["verify"]["disagreements"] == []

    def test_failing_criterion_exits_1(self, capsys, tmp_path):
        # S-shaped data with provided tangents bending the wrong way on the
        # middle segment: inflection criterion fails
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "version": 1,
                    "points": [[0, 0, 0], [2, 1, 0], [4, -1, 0], [6, 0, 0]],
                    "tangents": [[2, 1, 0], [2, -3, 0], [2, 3, 0], [2, 1, 0]],
                }
            )
        )
        code, out, _ = run(capsys, "check", doc, "--tangents", "provided")
        report = json.loads(out)
        assert report["summary"]["all_passed"] is False
        assert code == 1

    def test_byte_deterministic(self, capsys):
        _, out1, _ = run(capsys, "check", FIXTURES / "helix6.json")
        _, out2, _ = run(capsys, "check", FIXTURES / "helix6.json")
        assert out1 == out2

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", FIXTURES / "example1.json", "--out", target)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["version"] == 1


class TestNonFiniteDiagnostic:
    """A diagnostic that overflows exits 2 before anything is written; the
    message names the first non-finite key in report order, and within a
    verdict the first in the order the criterion lists its keys."""

    # knot widths of 1e-90 make h**4 underflow: every torsion numerator
    # is inf or nan, so joint 2 holds tau_joint_prev = tau_joint_cur = inf
    # and sorted keys would name tau_joint_cur
    TINY_KNOTS = {
        "version": 1,
        "points": [[0, 0, 0], [1, 0.2, 0.1], [2, 1, -0.3], [3, 2.5, 0.4], [4, 2.7, 1.0], [5, 3, 0.2]],
        "knots": [k * 1e-90 for k in range(6)],
    }
    # planar data whose 6/h**2 overflows: every curvature coefficient is
    # nan, and coplanarity lists sine_c0_prev before sine_c0_cur
    NAN_CURVATURE = {
        "version": 1,
        "points": [[0, 0, 0], [1, 0.2, 0], [2, 1, 0], [3, 2.5, 0]],
        "knots": [0, 1e-160, 2e-160, 3e-160],
    }

    @pytest.mark.parametrize(
        "doc,message",
        [
            (TINY_KNOTS, "non-finite diagnostic 'tau_joint_prev': inf"),
            (NAN_CURVATURE, "non-finite diagnostic 'sine_c0_prev': nan"),
        ],
        ids=["tiny-knots", "nan-curvature"],
    )
    def test_exit_2_prints_nothing_but_the_message(self, capsys, tmp_path, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "check", path) == (2, "", f"error: {message}\n")
        target = tmp_path / "report.json"
        assert run(capsys, "check", path, "--out", target) == (2, "", f"error: {message}\n")
        assert not target.exists()

    # a 13-point polyline with collinear runs; at 1e100 the products of its
    # chords overflow, and the collinearity check at vertex 1 reads inf
    POLYLINE = collinear_polyline(np.random.default_rng(8), corners=4, run=3)

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 1e160, 1e-160])
    def test_extreme_scales_print_no_warnings(self, capsys, tmp_path, scale):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"version": 1, "points": (self.POLYLINE * scale).tolist()}))
        for argv in (("check",), ("check", "--verify"), ("measures",)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, err = run(capsys, argv[0], path, *argv[1:])
            assert [str(w.message) for w in caught] == []
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1
            else:
                assert err == ""
            if scale == 1e100 and argv[0] == "check":
                assert (code, err) == (2, "error: non-finite diagnostic 'curvature_sign_v2': inf\n")
            if scale == 1e160:
                # the chords are longer than float64 can measure, not coincident
                message = "error: length of the chord from point 0 to point 1 overflows float64\n"
                assert (code, err) == (2, message)

    def test_two_non_finite_keys_name_the_first_listed(self):
        from shapespline.polygon import DataPolygon
        from shapespline.segment import torsion_numerator_rows
        from shapespline.spline import SplineConfig, analyze, build_spline

        doc = self.TINY_KNOTS
        spline = build_spline(DataPolygon(doc["points"]), SplineConfig(), knots=doc["knots"])
        with np.errstate(all="ignore"):
            tau = torsion_numerator_rows(*spline.rows())
        # joint 2 reads the numerators of segments 2 and 3
        assert tau[1] == tau[2] == np.inf
        with pytest.raises(ValueError) as exc:
            analyze(spline, SplineConfig())
        assert str(exc.value) == "non-finite diagnostic 'tau_joint_prev': inf"


class TestMeasures:
    def test_example1_values(self, capsys):
        code, out, _ = run(capsys, "measures", FIXTURES / "example1.json")
        assert code == 0
        doc = json.loads(out)
        binormals = {e["vertex"]: e["v"] for e in doc["binormals"]}
        assert np.allclose(binormals[1], [15, -15, 0])
        assert np.allclose(binormals[2], [20, 10, 0])
        assert doc["deltas"] == [{"span": 2, "value": 90.0}]
        span2 = [s for s in doc["spans"] if s["index"] == 2][0]
        assert "convex" in span2["flags"]

    def test_example2_values_exact(self, capsys):
        _, out, _ = run(capsys, "measures", FIXTURES / "example2.json")
        doc = json.loads(out)
        binormals = {e["vertex"]: e["v"] for e in doc["binormals"]}
        assert binormals[1] == [30.0, -30.0, 0.0]
        assert np.allclose(binormals[2], [40.0, 20.0, 0.0])

    def test_coplanar_deltas_zero(self, capsys):
        _, out, _ = run(capsys, "measures", FIXTURES / "coplanar.json")
        doc = json.loads(out)
        assert all(d["value"] == 0.0 for d in doc["deltas"])

    def test_collinear_vertices_listed(self, capsys):
        _, out, _ = run(capsys, "measures", FIXTURES / "collinear_line.json")
        doc = json.loads(out)
        assert doc["collinear_vertices"] == [1, 2, 3]


class TestSample:
    def test_row_count_and_columns(self, capsys, tmp_path):
        target = tmp_path / "samples.csv"
        code, _, _ = run(
            capsys, "sample", FIXTURES / "example1.json", "--per-segment", "5", "--out", target
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "segment_index,t,x,y,z,wx,wy,wz,tau_num"
        assert len(lines) == 1 + 3 * 5

    def test_straight_line_zero_curvature_columns(self, capsys):
        code, out, _ = run(capsys, "sample", FIXTURES / "collinear_line.json", "--per-segment", "4")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for row in rows:
            assert float(row[5]) == 0.0 and float(row[6]) == 0.0 and float(row[7]) == 0.0

    def test_round_trip_positions(self, capsys, tmp_path):
        # re-interpolating at the exported parameters reproduces positions
        from shapespline import DataPolygon, build_spline

        target = tmp_path / "samples.csv"
        run(capsys, "sample", FIXTURES / "helix6.json", "--per-segment", "9", "--out", target)
        doc = json.loads((FIXTURES / "helix6.json").read_text())
        spline = build_spline(DataPolygon(doc["points"]))
        scale = max(1.0, float(np.abs(spline.polygon.points).max()))
        for line in target.read_text().splitlines()[1:]:
            vals = line.split(",")
            t = float(vals[1])
            pos = np.array([float(v) for v in vals[2:5]])
            assert np.linalg.norm(spline_point(spline, t) - pos) <= 1e-12 * scale

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sample",
            FIXTURES / "example1.json",
            "--out",
            tmp_path / "missing_dir" / "x.csv",
        )
        assert code == 2


class TestInflection:
    def test_planar_convex_all_zero(self, capsys):
        code, out, _ = run(capsys, "inflection", FIXTURES / "planar_convex.json",
                           "--directions", "256")
        doc = json.loads(out)
        assert doc["arc_count"] == 0

    def test_noncoplanar_arc_count_one(self, capsys):
        _, out, _ = run(capsys, "inflection", FIXTURES / "example1.json",
                        "--directions", "512")
        assert json.loads(out)["arc_count"] == 1

    def test_nonplanar_segment_counts_two(self, capsys):
        _, out, _ = run(capsys, "inflection", FIXTURES / "helix6.json",
                        "--directions", "2048")
        doc = json.loads(out)
        # interior Catmull-Rom segments of a helix are genuinely non-planar
        assert all(c == 2 for c in doc["per_segment_curve_counts"][1:-1])

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "inflection", FIXTURES / "example1.json",
                           "--directions", "512", "--verify")
        doc = json.loads(out)
        assert doc["verify"]["disagreements"] == []
        assert code == 0


class TestVerifyDeterminism:
    def test_seed_env_pins_probes(self, capsys, monkeypatch):
        monkeypatch.setenv("SHAPESPLINE_SEED", "1234")
        _, out1, _ = run(capsys, "check", FIXTURES / "s_shape.json", "--verify")
        _, out2, _ = run(capsys, "check", FIXTURES / "s_shape.json", "--verify")
        assert out1 == out2

    def test_console_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "shapespline.cli", "measures", str(FIXTURES / "example1.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["version"] == 1


class TestConfigPrecedence:
    def test_file_config_applies(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "version": 1,
                    "points": [[0, 0, 0], [1, 1, 0], [2, 1, 0], [3, 0, 0]],
                    "config": {"parameterization": "uniform", "tension": 0.25},
                }
            )
        )
        _, out, _ = run(capsys, "check", doc)
        cfg = json.loads(out)["config"]
        assert cfg["parameterization"] == "uniform"
        assert cfg["tension"] == 0.25

    def test_flags_override_file_config(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "version": 1,
                    "points": [[0, 0, 0], [1, 1, 0], [2, 1, 0], [3, 0, 0]],
                    "config": {"tension": 0.25},
                }
            )
        )
        _, out, _ = run(capsys, "check", doc, "--tension", "0.75")
        assert json.loads(out)["config"]["tension"] == 0.75

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text('{"version": 1, "points": [[0,0,0],[1,0,0]], "config": {"bogus": 1}}')
        code, _, _ = run(capsys, "check", doc)
        assert code == 2

    def test_knots_from_document(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "version": 1,
                    "points": [[0, 0, 0], [1, 0, 0], [2, 1, 0]],
                    "knots": [0.0, 0.5, 2.5],
                }
            )
        )
        code, out, _ = run(capsys, "sample", doc, "--per-segment", "2")
        assert code == 0
        ts = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert ts == [0.0, 0.5, 0.5, 2.5]


class TestVerifyTorsion:
    def write(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(NEARLY_COPLANAR))
        return doc

    def test_nearly_coplanar_span_agrees(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check", self.write(tmp_path), "--verify", "--tangents", "provided")
        report = json.loads(out)
        torsion = [v for v in report["segments"][1]["verdicts"] if v["criterion"] == "torsion"]
        assert torsion and torsion[0]["passed"] is True
        assert report["verify"]["disagreements"] == []
        assert code == 0

    def test_perturbed_numerator_reported(self, capsys, tmp_path, monkeypatch):
        exact = cli.torsion_numerator_rows

        def perturbed(m0, m1, chord, h):
            d1, d2, d3 = derivative_rows(m0, m1, chord, h, np.array([0.0]))
            return exact(m0, m1, chord, h) + 1e-6 * norm_rows(d1[:, 0]) * norm_rows(d2[:, 0]) * norm_rows(d3)

        monkeypatch.setattr(cli, "torsion_numerator_rows", perturbed)
        code, out, _ = run(capsys, "check", self.write(tmp_path), "--verify", "--tangents", "provided")
        problems = json.loads(out)["verify"]["disagreements"]
        assert any(p.startswith("segment 2: torsion numerator") for p in problems)
        assert code == 1


def test_no_command_builds_segment_objects(capsys, tmp_path, monkeypatch, rng):
    # a polyline with collinear runs: 3 points on every edge between
    # random corners, so every check reaches the collinearity criteria
    corners = rng.uniform(-2.0, 2.0, (5, 3))
    pts = [corners[0]]
    for a, b in zip(corners[:-1], corners[1:]):
        pts.extend(a + (k / 4) * (b - a) for k in range(1, 5))
    doc = tmp_path / "polyline.json"
    doc.write_text(json.dumps({"version": 1, "points": np.array(pts).tolist()}))

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return call

    monkeypatch.setattr(CubicSegment, "__post_init__", forbidden("CubicSegment"))
    # no closed-form verdict object, and no walk of the polygon by index
    monkeypatch.setattr(Rows, "verdict", forbidden("Rows.verdict"))
    for name in ("chord", "chord_length", "binormal", "span_torsion", "vertex_is_collinear"):
        monkeypatch.setattr(DataPolygon, name, forbidden(f"DataPolygon.{name}"))
    code, out, _ = run(capsys, "check", doc)
    report = json.loads(out)
    assert code in (0, 1)
    assert any(v["collinearity_extended"] for v in report["vertices"])
    assert any(v["criterion"] == "collinearity" for s in report["segments"] for v in s["verdicts"])
    code, out, _ = run(capsys, "check", doc, "--verify", "--samples", "64")
    assert code in (0, 1) and "verify" in json.loads(out)
    code, out, _ = run(capsys, "inflection", doc, "--verify", "--samples", "64", "--directions", "128")
    assert code in (0, 1) and len(json.loads(out)["per_segment_curve_counts"]) == len(pts) - 1
    code, out, _ = run(capsys, "sample", doc, "--per-segment", "5")
    assert code == 0 and len(out.splitlines()) == 1 + 5 * (len(pts) - 1)
    code, out, _ = run(capsys, "measures", doc)
    assert code == 0 and len(json.loads(out)["collinear_vertices"]) == 3 * 4


def _parse_outcome(capsys, parse, argv):
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["check", "--help"],
        ["sample", "--help"],
        ["inflection", "--help"],
        [],
        ["bogus"],
        ["check"],
        ["check", "doc.json", "--param", "bogus"],
        ["check", "doc.json", "--samples", "many"],
        ["sample", "doc.json", "--per-segment"],
        ["measures", "doc.json", "--verify"],
    ],
)
def test_one_parser_per_process_keeps_messages(capsys, argv):
    fresh = _parse_outcome(capsys, lambda a: build_parser().parse_args(a), argv)
    assert fresh[0] in (0, 2)
    # main parses with the one cached parser, before and after other calls
    assert _parse_outcome(capsys, main, argv) == fresh
    assert _parse_outcome(capsys, main, ["check", "--help"])[0] == 0
    assert _parse_outcome(capsys, main, argv) == fresh
    # a valid command still reads the same after the parser was reused
    first = run(capsys, "check", FIXTURES / "example1.json", "--eps-collinear", "0.2")
    assert run(capsys, "check", FIXTURES / "example1.json") != first
    assert run(capsys, "check", FIXTURES / "example1.json", "--eps-collinear", "0.2") == first


VALID_DOC = {
    "version": 1,
    "points": [[0, 0, 0], [1, 1, 0], [2, 1, 0.5], [3, 0, 1], [4, 0.5, 1]],
}


@pytest.mark.parametrize(
    "change,argv,field",
    [
        ({"config": {"samples": "many"}}, [], "config 'samples'"),
        ({"config": {"tension": True}}, [], "config 'tension'"),
        ({"config": {"eps0": 2}}, [], "config 'eps0'"),
        ({"config": {"parameterization": "arc"}}, [], "config 'parameterization'"),
        ({"config": []}, [], "'config'"),
        ({}, ["--samples", "0"], "--samples"),
        ({}, ["--directions", "8"], "--directions"),
        ({}, ["--eps-zero", "nan"], "--eps-zero"),
        ({"tangents": [[1, 0, 0], [1, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]]}, [], "'tangents' entry 1"),
        (
            {"tangents": [[1, 0, 0], [1, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]]},
            ["--tangents", "provided"],
            "'tangents' entry 1",
        ),
        ({"knots": [0, 1, 2, 3, float("inf")]}, [], "'knots' entry 4"),
        ({"points": [[0, 0, 0], [1, "a", 0], [2, 1, 0.5]]}, [], "'points' entry 1"),
        ({"points": [[0, 0, 0], [1, True, 0], [2, 1, 0.5]]}, [], "'points' entry 1"),
    ],
)
def test_malformed_input_names_the_field(capsys, tmp_path, change, argv, field):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**VALID_DOC, **change}))
    code, out, err = run(capsys, "check", doc, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field} must be")


@pytest.mark.parametrize("version", [True, False, 1.0, "1", None, 2])
def test_only_the_int_version_1_is_supported(capsys, tmp_path, version):
    # True == 1 and 1.0 == 1 in Python; neither is the version number 1
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**VALID_DOC, "version": version}))
    code, out, err = run(capsys, "check", doc)
    assert code == 2 and out == ""
    assert err == f"error: unsupported document version {version!r}\n"


@pytest.mark.parametrize("seed", ["abc", "-1", "1.5", ""])
def test_malformed_seed_names_the_variable(capsys, monkeypatch, seed):
    monkeypatch.setenv("SHAPESPLINE_SEED", seed)
    code, out, err = run(capsys, "check", FIXTURES / "s_shape.json", "--verify")
    assert code == 2 and out == ""
    assert err == f"error: SHAPESPLINE_SEED must be a non-negative integer, got {seed!r}\n"


def test_per_segment_minimum_names_the_flag(capsys):
    code, _, err = run(capsys, "sample", FIXTURES / "example1.json", "--per-segment", "1")
    assert code == 2
    assert err.startswith("error: --per-segment must be")


def test_int_valued_config_echoes_as_int(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**VALID_DOC, "config": {"tension": 1, "eps0": 1, "samples": 64}}))
    code, out, _ = run(capsys, "check", doc)
    assert code in (0, 1)
    assert '"eps0": 1,' in out and '"tension": 1\n' in out and '"samples": 64,' in out


def _value(setting, text):
    return text if setting.kind is str else setting.kind(text)


def test_documented_defaults_match_settings_table(capsys):
    readme = " ".join(README.read_text().split())
    common = readme[readme.index("Common flags") :]
    documented = dict(re.findall(r"`(--[a-z-]+)[^`]*` \(([^)]+)\)", common))
    assert documented == {s.flag: documented.get(s.flag) for s in SETTINGS}
    for s in SETTINGS:
        assert _value(s, documented[s.flag]) == s.default, s.flag

    with pytest.raises(SystemExit):
        main(["check", "--help"])
    options = " ".join(capsys.readouterr().out.split()).split("options:", 1)[1]
    assert options.count("(default ") == len(SETTINGS)
    for s in SETTINGS:
        shown = re.search(re.escape(s.flag) + r"\s[^(]*\(default ([^)]+)\)", options).group(1)
        assert _value(s, shown) == s.default, s.flag


def verify_documents():
    """The seed-0 ``verify`` documents of the benchmark and the fixtures."""
    docs = [doc["points"] for _, doc in bench_gen.documents("verify", 0)]
    return docs + [json.loads(p.read_text())["points"] for p in sorted(FIXTURES.glob("*.json"))]


class TestVerifyReportMessages:
    """The batched ``_verify_report`` against the verdict-by-verdict
    reference, on reports whose applicable segment verdicts are all forced
    to pass, so that every kind of disagreement fires: as reported, and
    with each battery criterion's rows relabelled as another's (the
    inflection probes then run on convex spans, the coplanarity probes on
    twisted ones)."""

    RELABEL = {
        Criterion.CONVEXITY: Criterion.INFLECTION,
        Criterion.INFLECTION: Criterion.CONVEXITY,
        Criterion.TORSION: Criterion.COPLANARITY,
        Criterion.COPLANARITY: Criterion.TORSION,
    }

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_same_messages_in_the_same_order(self, monkeypatch, seed):
        monkeypatch.setenv("SHAPESPLINE_SEED", seed)
        exact = cli.torsion_numerator_rows

        def perturbed(m0, m1, chord, h):
            # off by a relative 1e-6 on every other segment
            return exact(m0, m1, chord, h) * (1.0 + 1e-6 * (np.arange(len(h)) % 2))

        monkeypatch.setattr(cli, "torsion_numerator_rows", perturbed)
        cfg, settings = SplineConfig(), {"samples": 128}
        seen = set()
        for points in verify_documents():
            spline = build_spline(DataPolygon(points), cfg)
            for relabel in ({}, self.RELABEL):
                report = analyze(spline, cfg)
                for rows, _, _ in report._segment_rows:
                    rows.passed = rows.applicable.copy()
                    rows.criterion = relabel.get(rows.criterion, rows.criterion)
                problems = cli._verify_report(spline, report, cfg, settings)
                assert problems == ref_verify_report(spline, report, cfg, settings)
                seen.update(re.sub(r"^segment \d+: (\w+) .*", r"\1", p) for p in problems)
        assert seen == {"convexity", "inflection", "torsion", "coplanarity", "collinearity"}


class TestLoadDocument:
    """Every malformed coordinate is named as the per-entry check names it,
    wherever it sits in the list."""

    POINTS = [[0, 0, 0], [1, 0.5, 0], [2, 0, 1], [3, 1, 1], [4, 0, 2]]
    BAD = {
        "bool": True,
        "string": "1",
        "huge int": 10**309,
        "NaN": float("nan"),
    }

    def load(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return cli.load_document(str(path))

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("kind", [*BAD, "wrong length"])
    @pytest.mark.parametrize("key", ["points", "tangents"])
    def test_triples(self, tmp_path, key, kind, k):
        entries = [list(p) for p in self.POINTS]
        if kind == "wrong length":
            entries[k] = entries[k][:2]
        else:
            entries[k][1] = self.BAD[kind]
        doc = {"version": 1, "points": [list(p) for p in self.POINTS], key: entries}
        message = f"'{key}' entry {k} must be an [x, y, z] triple of finite numbers"
        with pytest.raises(cli.InputError) as exc:
            self.load(tmp_path, doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("kind", [*BAD, "wrong length"])
    def test_knots(self, tmp_path, kind, k):
        knots = [0, 1, 2.5, 3, 4.25]
        knots[k] = [1, 2] if kind == "wrong length" else self.BAD[kind]
        with pytest.raises(cli.InputError) as exc:
            self.load(tmp_path, {"version": 1, "points": self.POINTS, "knots": knots})
        assert str(exc.value) == f"'knots' entry {k} must be a finite number, got {knots[k]!r}"

    def test_extreme_finite_values_load(self, tmp_path):
        # the largest float is finite; ints load as the numbers they are
        top = sys.float_info.max
        doc = {"version": 1, "points": [[top, 0, 0], [0, -top, 1], [2, 10**300, 3]], "knots": [0, 1, 10**20]}
        assert self.load(tmp_path, doc) == doc

    def test_int_rounding_to_the_largest_float_is_rejected(self, tmp_path):
        near = int(sys.float_info.max) + 2**960
        assert float(near) == sys.float_info.max
        doc = {"version": 1, "points": [[0, 0, 0], [1, near, 0]]}
        with pytest.raises(cli.InputError, match="'points' entry 1 must be"):
            self.load(tmp_path, doc)
