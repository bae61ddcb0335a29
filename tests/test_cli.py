import json
import math

import numpy as np
import pytest

from fieldorder.cli import _dumps, main


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
