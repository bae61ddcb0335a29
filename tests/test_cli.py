import io
import json
import math
import os
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldorder import cli
from fieldorder.cli import _dumps, main
from fieldorder.fields import registry_names, scalar_field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


class TestCompare:
    def test_oscillator_first_zero_dominates_one(self, capsys):
        got = run_json(capsys, "compare", "--vector", "xsininv", "--x", "0.31831", "--y", "1.0")
        assert got["relation"] == "StrictlyDominates"

    def test_tie(self, capsys):
        got = run_json(capsys, "compare", "--vector", "quadratic", "--x", "0", "--y", "0")
        assert got["relation"] == "Equivalent"

    def test_scalar_cubic(self, capsys):
        got = run_json(capsys, "compare", "--scalar", "cubic", "--x", "-1", "--y", "0")
        assert got["relation"] == "StrictlyDominates"

    def test_unknown_field_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "--vector", "warp", "--x", "0", "--y", "1")
        assert code == 2
        assert "unknown field" in err

    def test_outside_domain_exits_3(self, capsys):
        code, _, _ = run(capsys, "compare", "--vector", "quadratic", "--x", "5", "--y", "0")
        assert code == 3

    def test_non_finite_descriptor_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"Q": [[NaN]], "b": [0]}')
        code, out, err = run(capsys, "--json", "compare", "--vector", str(path),
                             "--x", "0.5", "--y", "0")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_overflowing_descriptor_exits_2(self, capsys, tmp_path):
        # finite Q whose symmetrization (Q + Q')/2 overflows: the descriptor
        # is rejected where it is loaded, with no numpy warning
        path = tmp_path / "q.json"
        path.write_text('{"Q": [[1.5e308]], "b": [0.0]}')
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "--json", "--out-dir", str(out_dir), "compare",
                             "--vector", str(path), "--x", "0.5", "--y", "-0.5")
        assert code == 2
        assert out == ""
        assert "non-finite" in err
        assert not (out_dir / "verdict.json").exists()

    def test_json_output_never_carries_nan(self):
        with pytest.raises(ValueError):
            _dumps({"max_delta": float("nan")})
        with pytest.raises(ValueError):
            _dumps({"max_delta": np.float64("inf")})

    @pytest.mark.parametrize("flag, value", [("--tau", "nan"), ("--tau", "inf"),
                                             ("--tau", "0"), ("--neps", "2000001"),
                                             ("--neps", "2")])
    def test_bad_tolerance_exits_2(self, capsys, flag, value):
        # at any finite tau this pair is StrictlyDominates; nan must not pass as Incomparable
        code, out, err = run(capsys, "--json", flag, value, "compare", "--vector", "quadratic",
                             "--x", "-0.5", "--y", "0.0")
        assert code == 2
        assert out == ""
        assert "must" in err

    def test_malformed_point_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--vector", "quadratic", "--x", "zero", "--y", "0"])
        capsys.readouterr()
        assert exc.value.code == 2


class TestClassify:
    def test_square_origin(self, capsys):
        got = run_json(capsys, "classify", "--vector", "quadratic", "--point", "0")
        assert got["is_critical"] is True
        assert got["is_minimal"] is False

    def test_oscillator_first_zero(self, capsys):
        got = run_json(capsys, "classify", "--vector", "xsininv",
                       "--point", "0.31830988618")
        assert got["is_minimal"] is True
        assert got["analytic_witnesses"] is True

    def test_negated_oscillator_keeps_analytic_witnesses(self, capsys):
        got = run_json(capsys, "classify", "--vector", "neg:xsininv",
                       "--point", "0.31830988618")
        assert got["analytic_witnesses"] is True

    def test_json_field_has_no_analytic_witnesses(self, capsys, tmp_path):
        # the stock name decides, not the file name or the field label
        path = tmp_path / "xsininv.json"
        path.write_text('{"Q": [[2.0]], "b": [0.0]}')
        got = run_json(capsys, "classify", "--vector", str(path), "--point", "0.5")
        assert got["analytic_witnesses"] is False

    def test_oversize_challenger_count_exits_2(self, capsys):
        # a 2-D box samples --challengers seeded points; the count is
        # checked against the grid cap before anything is allocated
        code, out, err = run(capsys, "--json", "classify", "--vector", "mexican_hat",
                             "--point", "0.3,0.2", "--challengers", str(10**12))
        assert code == 2
        assert out == ""
        assert "sample count" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_challenger_count_exits_2(self, capsys, count):
        # zero used to fall back to the default challenger set
        code, out, err = run(capsys, "--json", "classify", "--vector", "mexican_hat",
                             "--point", "0.3,0.2", f"--challengers={count}")
        assert code == 2
        assert out == ""
        assert "--challengers must be at least 1" in err

    def test_scalar_square(self, capsys):
        got = run_json(capsys, "classify", "--scalar", "quadratic", "--point", "0")
        assert got["is_strict_local_min"] is True


class TestGame:
    @pytest.fixture()
    def hawk_dove_file(self, tmp_path):
        path = tmp_path / "hawk_dove.json"
        path.write_text(json.dumps({"mode": "symmetric", "C": [[1, -2], [0, -1]],
                                    "mass": 1.0}))
        return str(path)

    def test_hawk_dove_state(self, capsys, hawk_dove_file):
        got = run_json(capsys, "game", hawk_dove_file, "--point", "0.5,0.5",
                       "--radius", "0.1")
        assert got["is_nash"] is True and got["is_ess"] is True

    def test_zero_game(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"mode": "symmetric", "C": [[0, 0], [0, 0]],
                                    "mass": 1.0}))
        got = run_json(capsys, "game", str(path), "--point", "0.3,0.7")
        assert got["is_nash"] is True

    def test_matching_pennies(self, capsys, tmp_path):
        path = tmp_path / "mp.json"
        path.write_text(json.dumps({"mode": "bimatrix", "A": [[-1, 1], [1, -1]],
                                    "B": [[1, -1], [-1, 1]]}))
        got = run_json(capsys, "game", str(path), "--point", "0.5,0.5,0.5,0.5")
        assert got["is_nash"] is True

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "game", "/nonexistent.json", "--point", "0.5,0.5")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "JSON object"),
        ('{"mode": "symmetric", "C": [[1, -2], [0, -1]], "mass": NaN}', "finite"),
        ('{"mode": "symmetric", "C": [[1, -2], [0, -1]], "mass": Infinity}', "finite"),
        ('{"mode": "symmetric", "C": [[1, -2], [0, -1]], "mass": [1]}', "malformed"),
        ('{"mode": "bimatrix", "A": {"a": 1}, "B": [[1]]}', "malformed"),
    ], ids=["list", "nan_mass", "infinite_mass", "list_mass", "object_matrix"])
    def test_malformed_game_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "game.json"
        path.write_text(text)
        code, out, err = run(capsys, "--json", "game", str(path), "--point", "0.5,0.5")
        assert code == 2
        assert out == ""
        assert message in err


class TestFlow:
    def test_linear_decay(self, capsys):
        got = run_json(capsys, "flow", "--field", "neg:linear", "--x0", "1", "--tmax", "20")
        assert abs(got["final_state"][0]) < 1e-5

    def test_oscillator_limit(self, capsys):
        got = run_json(capsys, "flow", "--field", "neg:xsininv", "--x0", "0.5",
                       "--tmax", "30")
        assert got["final_state"][0] == pytest.approx(1 / math.pi, abs=1e-4)

    def test_candidate_auto(self, capsys):
        got = run_json(capsys, "flow", "--field", "neg:xsininv", "--x0", "0.2",
                       "--candidate", "auto", "--tmax", "30")
        trial = got["trials"][0]
        assert trial["converged"] is True
        assert got["lyapunov_monotone"] is True

    def test_candidate_file(self, capsys, tmp_path):
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"points": [[0.0]]}))
        got = run_json(capsys, "flow", "--field", "neg:linear", "--x0", "1",
                       "--tmax", "20", "--candidate", str(path))
        assert got["trials"][0]["limit_point"] == [0.0]

    def test_candidate_auto_needs_the_stock_oscillator(self, capsys, tmp_path):
        path = tmp_path / "xsininv.json"
        path.write_text('{"Q": [[2.0]], "b": [0.0]}')
        code, _, err = run(capsys, "flow", "--field", f"neg:{path}", "--x0", "0.5",
                           "--candidate", "auto")
        assert code == 2
        assert "only applies" in err

    def test_outside_domain_exits_3(self, capsys):
        code, _, _ = run(capsys, "flow", "--field", "neg:xsininv", "--x0", "9")
        assert code == 3

    @pytest.mark.parametrize("text, message", [
        ("[[0.0]]", "JSON object"),
        ('{"pts": [[0.0]]}', "JSON object"),
        ('{"points": {"a": 1}}', "not numbers"),
        ('{"points": [[0.1, 0.2]]}', "dimension 1"),
        ('{"points": [[NaN]]}', "finite"),
    ], ids=["list", "no_points_key", "points_object", "two_columns", "nan"])
    def test_malformed_candidate_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "cand.json"
        path.write_text(text)
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "--json", "--out-dir", str(out_dir), "flow",
                             "--field", "neg:xsininv", "--x0", "0.5", "--candidate", str(path))
        assert code == 2
        assert out == ""
        assert message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value", [("--tmax", "inf"), ("--tmax", "nan"),
                                             ("--dt", "nan"), ("--dt", "-0.001")])
    def test_bad_integrator_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "--json", "flow", "--field", "neg:linear", "--x0", "0.5",
                             flag, value)
        assert code == 2
        assert out == ""
        assert "finite and positive" in err


class TestCasestudy:
    def test_smallest_catalog(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        got = run_json(capsys, "--out-dir", out, "casestudy", "--nmax", "1",
                       "--grid-n", "512", "--dominance-grid", "300")
        assert got["catalog_entries"] == 2
        assert got["catalog_agreement"] is True
        assert got["origin_confirmed"] is True
        assert got["dominance_coverage"] >= 0.995
        catalog = json.loads((tmp_path / "run" / "catalog.json").read_text())
        assert len(catalog["entries"]) == 2
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"catalog.json", "origin.json",
                                            "dominance.json", "field_curve.csv"}

    @pytest.mark.parametrize("grid", ["0", str(10**12)])
    def test_dominance_grid_out_of_range_exits_2(self, capsys, grid):
        # zero tested points used to read as full coverage
        code, out, err = run(capsys, "--json", "casestudy", "--dominance-grid", grid)
        assert code == 2
        assert out == ""
        assert "grid_n" in err

    def test_tau_at_an_origin_radius_exits_2_before_the_sweeps(self, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("a sweep ran before the origin radii were checked")

        monkeypatch.setattr(cli, "check_setwise_dominance", sweep)
        monkeypatch.setattr(cli, "classify_catalog", sweep)
        code, out, err = run(capsys, "--json", "--tau", "1e-3", "casestudy")
        assert code == 2
        assert out == ""
        assert "origin radius 0.001" in err

    def test_mexican_hat_flag(self, capsys):
        got = run_json(capsys, "casestudy", "--mexican-hat", "--circle-points", "4")
        assert got["mexican_hat"]["confirmed"] is True
        assert got["mexican_hat"]["points"] == 4


class TestDeterminism:
    def test_reruns_byte_identical(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(capsys, "--json", "--out-dir", str(out), "compare",
                             "--vector", "xsininv", "--x", "0.31831", "--y", "1.0")
            assert code == 0
            blobs.append((out / "verdict.json").read_bytes()
                         + (out / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_candidate_flow_csv_matches_plain_flow(self, capsys, tmp_path):
        csvs = []
        for name, extra in (("plain", ()), ("cand", ("--candidate", "auto"))):
            out = tmp_path / name
            code, _, _ = run(capsys, "--json", "--out-dir", str(out), "flow", "--field",
                             "neg:xsininv", "--x0", "0.2", "--tmax", "5", *extra)
            assert code == 0
            csvs.append((out / "trajectory.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_flow_csv_written_with_full_precision(self, capsys, tmp_path):
        out = tmp_path / "flow"
        run(capsys, "--json", "--out-dir", str(out), "flow", "--field", "neg:linear",
            "--x0", "1", "--tmax", "0.01")
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1"
        assert lines[2].startswith("0.001,")
        x = float(lines[2].split(",")[1])
        assert x == pytest.approx(math.exp(-0.001), abs=1e-12)


def _runs_twice(argv):
    """(exit code, stdout, {file: bytes} under --out-dir) of two in-process runs."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a", "b"):
            out_dir = os.path.join(tmp, name)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["--json", "--out-dir", out_dir, *argv])
            files = {}
            for fname in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    files[fname] = fh.read()
            runs.append((code, buf.getvalue(), files))
    return runs


@st.composite
def _field_points(draw, n_points):
    """Global options, a --scalar/--vector reference and n_points points in its domain."""
    name = draw(st.sampled_from(registry_names()))
    box = scalar_field(name).domain
    ref = draw(st.sampled_from(["", "neg:"])) + name
    points = [",".join(repr(draw(st.floats(lo, hi))) for lo, hi in zip(box.lower, box.upper))
              for _ in range(n_points)]
    options = ["--seed", str(draw(st.integers(0, 2**31 - 1))),
               "--neps", str(draw(st.integers(3, 65)))]
    return options, [draw(st.sampled_from(["--scalar", "--vector"])), ref], points


@st.composite
def _game_files(draw):
    """Global options, a JSON symmetric or bimatrix game and a state of it."""
    entry = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    matrix = lambda m, n: st.lists(st.lists(entry, min_size=n, max_size=n),
                                   min_size=m, max_size=m)
    if draw(st.sampled_from(["symmetric", "bimatrix"])) == "symmetric":
        m = draw(st.integers(2, 3))
        mass = draw(st.sampled_from([1.0, 2.0]))
        game = {"mode": "symmetric", "C": draw(matrix(m, m)), "mass": mass}
        blocks = [(m, mass)]
    else:
        m1, m2 = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        game = {"mode": "bimatrix", "A": draw(matrix(m1, m2)), "B": draw(matrix(m1, m2))}
        blocks = [(m1, 1.0), (m2, 1.0)]
    coords = []
    for m, mass in blocks:
        w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
        coords += (mass * w / w.sum()).tolist()
    options = ["--seed", str(draw(st.integers(0, 2**31 - 1))),
               "--neps", str(draw(st.integers(3, 65)))]
    return options, game, ",".join(repr(v) for v in coords)


class TestRerunProperty:
    @settings(max_examples=40, deadline=None)
    @given(_field_points(2))
    def test_compare_reruns_are_byte_identical(self, drawn):
        options, field, (x, y) = drawn
        # --opt=value: argparse would take a value like -1e-5 for an option
        first, second = _runs_twice([*options, "compare", *field, f"--x={x}", f"--y={y}"])
        assert first == second
        assert first[0] == 0 and "verdict.json" in first[2]

    @settings(max_examples=30, deadline=None)
    @given(_field_points(1), st.one_of(st.none(), st.integers(1, 48)))
    def test_classify_reruns_are_byte_identical(self, drawn, challengers):
        options, field, (point,) = drawn
        argv = [*options, "classify", *field, f"--point={point}"]
        if challengers is not None:
            argv += ["--challengers", str(challengers)]
        first, second = _runs_twice(argv)
        assert first == second
        assert first[0] in (0, 4)

    @settings(max_examples=25, deadline=None)
    @given(_game_files())
    def test_game_reruns_are_byte_identical(self, drawn):
        options, game, point = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "game.json")
            with open(path, "w") as fh:
                json.dump(game, fh)
            first, second = _runs_twice([*options, "game", path, f"--point={point}"])
        assert first == second
        assert first[0] in (0, 4)
        if first[0] == 0:
            assert "game_report.json" in first[2]
