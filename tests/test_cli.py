import ast
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldorder import casestudy, classify, cli, fields
from fieldorder.casestudy import zero_point
from fieldorder.cli import _dumps, main
from fieldorder.fields import _MAX_GRID_POINTS, registry_names, scalar_field


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

    @pytest.mark.parametrize("ref", ["xsininv", "neg:xsininv"])
    def test_scalar_oscillator_carries_analytic_witnesses(self, capsys, ref):
        # the field carries its witnesses, whichever kind it is read as
        got = run_json(capsys, "--neps", "65", "classify", "--scalar", ref, "--point", "0.0")
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

    def test_too_many_box_corners_exit_2_before_they_are_built(self, capsys, monkeypatch,
                                                              tmp_path):
        # a 22-dim box has 4,194,304 corners, over the 2,000,000-point cap
        def product(*args):
            raise AssertionError("the corner list was built before it was counted")

        monkeypatch.setattr(classify.itertools, "product", product)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"Q": np.eye(22).tolist(), "b": [0.0] * 22}))
        code, out, err = run(capsys, "--json", "classify", "--vector", str(path),
                             "--point", ",".join(["0"] * 22))
        assert code == 2
        assert out == ""
        assert "corners" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_challenger_count_exits_2(self, capsys, count):
        # zero used to fall back to the default challenger set
        code, out, err = run(capsys, "--json", "classify", "--vector", "mexican_hat",
                             "--point", "0.3,0.2", f"--challengers={count}")
        assert code == 2
        assert out == ""
        assert "--challengers must be at least 1" in err

    def test_challenger_count_sets_the_oscillator_grid(self, capsys):
        # as for every other 1-D box, --challengers sets the grid; the
        # catalog points and origin witnesses join it
        got = run_json(capsys, "--neps", "65", "classify", "--vector", "xsininv",
                       "--point", "0.1", "--challengers", "10")
        assert got["challengers_used"].startswith("grid(n_per_axis=10)+analytic(55)+ball(")
        assert got["analytic_witnesses"] is True

    def test_dominators_closer_than_every_sample_are_found(self, capsys, tmp_path):
        # p sits 1.9e-4 right of the critical point 0.30772 of this form, and
        # only points in that gap dominate it: no grid or ball sample lands
        # there, so the critical check's witness sets the ladder that does
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"Q": [[1.4422613422163737]], "b": [-0.4438041521479197]}))
        got = run_json(capsys, "--seed", "158", "--neps", "65", "classify", "--vector",
                       str(path), "--point", "0.3075211338199899", "--challengers", "48")
        assert got["is_minimal"] is False and got["is_critical"] is False
        assert got["challengers_used"].endswith("+ladder(52)")
        # the ladder's rows within the radius join the ball
        assert got["is_local_min_polyorder"] is False
        x = got["dominating_witness"][0][0]
        assert 0.3075211338199899 < x <= 0.30772

    def test_scalar_square(self, capsys):
        got = run_json(capsys, "classify", "--scalar", "quadratic", "--point", "0")
        assert got["is_strict_local_min"] is True

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_radius_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                        radius):
        # inf used to run the whole classification and fail in the JSON
        # writer; nan used to report an empty ball
        def work(*args, **kwargs):
            raise AssertionError("the classification started before the radius was checked")

        monkeypatch.setattr(classify, "default_challengers", work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "--json", "--out-dir", str(out_dir), "classify",
                             "--vector", "linear", "--point", "0.0", "--radius", radius)
        assert code == 2
        assert out == ""
        assert "radius must be finite and positive" in err
        assert not out_dir.exists()


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

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_radius_exits_2(self, capsys, monkeypatch, tmp_path, hawk_dove_file,
                                       radius):
        def work(*args, **kwargs):
            raise AssertionError("the screen ran before the radius was checked")

        monkeypatch.setattr(classify, "batch_relations", work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "--json", "--out-dir", str(out_dir), "game",
                             hawk_dove_file, "--point", "0.5,0.5", "--radius", radius)
        assert code == 2
        assert out == ""
        assert "radius must be finite and positive" in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("game, point, radius", [
        ({"mode": "symmetric", "C": [[1]]}, "1", ()),
        ({"mode": "bimatrix", "A": [[1]], "B": [[1]]}, "1,1", ()),
        ({"mode": "bimatrix", "A": [[1]], "B": [[1]]}, "1,1", ("--radius", "0.1")),
    ], ids=["symmetric", "bimatrix", "bimatrix_radius"])
    def test_one_point_domain_exits_2(self, capsys, tmp_path, game, point, radius):
        # the default radius is a share of the domain's diameter, 0 here; the
        # refusal names the one-point domain, not a radius nobody gave
        path = tmp_path / "one.json"
        path.write_text(json.dumps(game))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "--json", "--out-dir", str(out_dir), "game", str(path),
                             "--point", point, *radius)
        assert (code, out) == (2, "")
        assert "game:" in err and "is one point" in err
        assert "radius" not in err and "neighborhood" not in err
        assert not out_dir.exists()


@pytest.mark.parametrize("command", [
    ["game", "{game}", "--point", "0.5,0.5", "--radius", "inf"],
    ["classify", "--vector", "xsininv", "--point", "0.1", "--radius", "nan"],
], ids=["game", "classify_xsininv"])
def test_bad_radius_exits_2_before_any_challenger_is_built(capsys, monkeypatch, tmp_path,
                                                          command):
    game = tmp_path / "hawk_dove.json"
    game.write_text(json.dumps({"mode": "symmetric", "C": [[1, -2], [0, -1]], "mass": 1.0}))
    calls = []
    for name in ("default_challengers", "is_nash", "case_challengers"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "--json", "--out-dir", str(out_dir),
                         *[arg.format(game=game) for arg in command])
    assert (code, out, calls) == (2, "", [])
    assert "radius must be finite and positive" in err
    assert not out_dir.exists()


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

    # SHA-256 of the --json stdout and of each file of the candidate flow
    # from 0.5, as written before the report held Python floats
    _AUTO_DIGESTS = {
        "stdout": "c131e7a05703df369af6731c5be26226bfb102b705fc5ed12aef6016fdb63d12",
        "flow_report.json": "c131e7a05703df369af6731c5be26226bfb102b705fc5ed12aef6016fdb63d12",
        "manifest.json": "4f63106fc3b8e0f9592c731f0606c0142eda24c99bd8b4e4aa09a2c1178b7d6c",
        "trajectory.csv": "ac4ddc9eb7400f03b9f839b28c8d2adf4b593fbf837c9b1abe567a92058409c6",
    }

    def test_candidate_summary_prints_plain_floats(self, capsys, tmp_path):
        argv = ["flow", "--field", "neg:xsininv", "--candidate", "auto", "--x0", "0.5"]
        code, line, err = run(capsys, *argv)
        assert code == 0, err
        assert "np." not in line and "float64" not in line
        head, trials = line.rstrip("\n").split(": ", 1)
        assert head == "neg:xsininv from [0.5]"
        out_dir = tmp_path / "json"
        code, out, err = run(capsys, "--json", "--out-dir", str(out_dir), *argv)
        assert code == 0, err
        assert ast.literal_eval(trials) == json.loads(out)["trials"]
        got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        got.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                   for p in out_dir.iterdir())
        assert got == self._AUTO_DIGESTS

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
        # the origin meets only the --nmax catalog's analytic points, so the
        # smallest catalog gives it the fewest challengers
        origin = json.loads((tmp_path / "run" / "origin.json").read_text())
        assert (origin["minimal"], origin["maximal"]) == (True, True)
        agreement = json.loads((tmp_path / "run" / "catalog_agreement.json").read_text())
        assert (agreement["origin_minimal"], agreement["origin_maximal"]) == (True, True)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"catalog.json", "origin.json",
                                            "dominance.json", "field_curve.csv"}

    def test_one_catalog_and_one_origin_screen(self, capsys, monkeypatch):
        # the study builds its catalog and challengers once, screens the
        # origin once (with the catalog), and asks the stock field's witness
        # provider at most once per screen
        calls = {}

        def count(module, name):
            real = getattr(module, name)
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in [(cli, "build_catalog"), (casestudy, "build_catalog"),
                             (cli, "case_challengers"), (casestudy, "case_challengers"),
                             (fields, "origin_segment_witnesses"),
                             (classify, "batch_relations"), (casestudy, "batch_relations")]:
            count(module, name)
        got = run_json(capsys, "--neps", "65", "casestudy", "--nmax", "2", "--grid-n", "256",
                       "--dominance-grid", "100")
        assert got["catalog_agreement"] is True and got["origin_confirmed"] is True
        screens = calls.pop("batch_relations")
        # 4 catalog points and the origin, 3 origin balls, 1 coverage sweep
        assert screens == 9
        # the coverage sweep has no pair at the origin and asks nothing
        assert calls.pop("origin_segment_witnesses") <= screens - 1
        assert calls == {"build_catalog": 1, "case_challengers": 1}

    @pytest.mark.parametrize("grid", ["0", str(10**12)])
    def test_dominance_grid_out_of_range_exits_2(self, capsys, grid):
        # zero tested points used to read as full coverage
        code, out, err = run(capsys, "--json", "casestudy", "--dominance-grid", grid)
        assert code == 2
        assert out == ""
        assert "grid_n" in err

    @pytest.mark.parametrize("window_hi", ["nan", "inf"])
    def test_non_finite_window_hi_exits_2(self, capsys, window_hi):
        # a numpy warning from building the window would reach stderr first
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "--json", "casestudy", "--dominance-grid", "5",
                                 "--window-hi", window_hi)
        assert (code, out) == (2, "")
        assert "window_hi must be finite" in err
        assert "RuntimeWarning" not in err

    def test_tau_at_an_origin_radius_exits_2_before_the_sweeps(self, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("a sweep ran before the origin radii were checked")

        monkeypatch.setattr(cli, "check_setwise_dominance", sweep)
        monkeypatch.setattr(cli, "classify_catalog", sweep)
        code, out, err = run(capsys, "--json", "--tau", "1e-3", "casestudy")
        assert code == 2
        assert out == ""
        assert "origin radius 0.001" in err

    @pytest.mark.parametrize("nmax", [0, _MAX_GRID_POINTS // 2 + 1])
    def test_bad_nmax_exits_2_before_the_sweeps(self, capsys, monkeypatch, tmp_path, nmax):
        # 2 nmax catalog entries; the cap is checked before any is built
        def sweep(*args, **kwargs):
            raise AssertionError("a sweep ran before --nmax was checked")

        for name in ("check_setwise_dominance", "classify_catalog", "origin_atypicality"):
            monkeypatch.setattr(cli, name, sweep)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "--json", "--out-dir", str(out_dir), "casestudy",
                             "--nmax", str(nmax))
        assert (code, out) == (2, "")
        assert f"n_max must lie in [1, {_MAX_GRID_POINTS // 2}]" in err
        assert not out_dir.exists()

    def test_oversize_circle_exits_2_before_it_is_built(self, capsys, monkeypatch):
        def field(*args):
            raise AssertionError("the counterexample started before the circle was checked")

        monkeypatch.setattr(casestudy, "scalar_field", field)
        code, out, err = run(capsys, "--json", "casestudy", "--mexican-hat",
                             "--circle-points", str(10**9))
        assert code == 2
        assert out == ""
        assert "bytes of pairwise differences" in err

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


# every command form with the files it writes under --out-dir, in write order
_EMITTED = {
    "compare": (["compare", "--vector", "xsininv", "--x", "0.0", "--y", "0.3"],
                ["verdict.json"]),
    "classify": (["classify", "--scalar", "cubic", "--point", "0.0"],
                 ["classification.json"]),
    "game": (["game", "{rps}", "--point", "0.2,0.3,0.5"], ["game_report.json"]),
    "flow": (["flow", "--field", "neg:linear", "--x0", "0.5", "--tmax", "0.05"],
             ["trajectory.csv", "flow_report.json"]),
    "casestudy": (["casestudy", "--nmax", "2", "--grid-n", "256", "--dominance-grid", "100"],
                  ["catalog.json", "catalog_agreement.json", "origin.json", "dominance.json",
                   "field_curve.csv"]),
    "mexican_hat": (["casestudy", "--mexican-hat", "--circle-points", "4"],
                    ["mexican_hat.json"]),
}


@pytest.mark.parametrize("form", list(_EMITTED))
def test_each_command_writes_its_outputs_and_manifest(capsys, tmp_path, form):
    rps = tmp_path / "rps.json"
    rps.write_text(json.dumps({"mode": "symmetric", "C": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]}))
    command, outputs = _EMITTED[form]
    argv = ["--neps", "65", *[arg.format(rps=rps) for arg in command]]
    runs = {}
    for mode in ("json", "plain"):
        out_dir = tmp_path / mode
        code, out, err = run(capsys, *(["--json"] if mode == "json" else []),
                             "--out-dir", str(out_dir), *argv)
        assert (code, err) == (0, "")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"] == outputs
        assert sorted(os.listdir(out_dir)) == sorted(outputs + ["manifest.json"])
        runs[mode] = out, {name: (out_dir / name).read_bytes() for name in outputs}
    (json_out, json_files), (plain_out, plain_files) = runs["json"], runs["plain"]
    # --json changes stdout alone: the payload, or the one summary line
    assert json_files == plain_files
    assert json.loads(json_out) is not None and json_out.endswith("}\n")
    assert plain_out.count("\n") == 1 and plain_out.endswith("\n")
    assert plain_out != json_out


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

    @settings(max_examples=25, deadline=None)
    @given(_field_points(1), st.sampled_from(["0.01", "0.05", "0.2"]), st.booleans())
    def test_flow_reruns_are_byte_identical(self, drawn, tmax, auto):
        options, (_, ref), (x0,) = drawn
        argv = [*options, "flow", "--field", ref, f"--x0={x0}", "--tmax", tmax]
        if auto and ref.endswith("xsininv"):
            argv += ["--candidate", "auto"]
        first, second = _runs_twice(argv)
        assert first == second
        assert first[0] == 0 and "trajectory.csv" in first[2]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**31 - 1), st.integers(3, 65))
    def test_mexican_hat_reruns_are_byte_identical(self, circle_points, seed, neps):
        first, second = _runs_twice(["--seed", str(seed), "--neps", str(neps), "casestudy",
                                     "--mexican-hat", "--circle-points", str(circle_points)])
        assert first == second
        assert first[0] == 0 and "mexican_hat.json" in first[2]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 256), st.integers(1, 200),
           st.floats(zero_point(1), 2.0, exclude_min=True), st.integers(0, 2**31 - 1))
    def test_casestudy_reruns_are_byte_identical(self, nmax, grid_n, dominance_grid,
                                                 window_hi, seed):
        first, second = _runs_twice(["--seed", str(seed), "--neps", "65", "casestudy",
                                     "--nmax", str(nmax), "--grid-n", str(grid_n),
                                     "--dominance-grid", str(dominance_grid),
                                     f"--window-hi={window_hi!r}"])
        assert first == second
        assert first[0] == 0
        assert set(first[2]) == {"catalog.json", "catalog_agreement.json", "origin.json",
                                 "dominance.json", "field_curve.csv", "manifest.json"}
