import inspect
import json
import math

import numpy as np
import pytest

import cylwave as cw
from cylwave import cli
from cylwave.errors import AccuracyLoss, SchemaError, UsageError

AL_LAM = 27.072053311120367
AL_MU = 12.032023693831274


def _iso_layer(r_in, r_out):
    return {"r_in": r_in, "r_out": r_out,
            "material": {"type": "isotropic", "rho": 2.7,
                         "params": {"lambda": AL_LAM, "mu": AL_MU}}}


def _write(tmp_path_factory, name, doc):
    path = tmp_path_factory.mktemp("cli") / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def al_json(tmp_path_factory):
    return _write(tmp_path_factory, "al.json",
                  {"layers": [_iso_layer(0.5, 1.0)]})


@pytest.fixture(scope="module")
def al_rec_json(tmp_path_factory):
    return _write(tmp_path_factory, "al_rec.json",
                  {"layers": [_iso_layer(0.5, 1.0)],
                   "run": {"method": "recursion"}})


@pytest.fixture(scope="module")
def al_run_json(tmp_path_factory):
    return _write(tmp_path_factory, "al_run.json",
                  {"layers": [_iso_layer(0.5, 1.0)],
                   "run": {"command": "scatter", "method": "recursion",
                           "ka": 5.0, "threads": 2}})


@pytest.fixture(scope="module")
def bilayer_json(tmp_path_factory):
    return _write(tmp_path_factory, "bilayer.json",
                  {"layers": [_iso_layer(0.5, 0.75), _iso_layer(0.75, 1.0)]})


@pytest.fixture(scope="module")
def full_json(tmp_path_factory):
    # fully anisotropic input: positive definite but not TI
    c11 = AL_LAM + 2 * AL_MU
    params = {}
    for i in range(1, 7):
        for j in range(i, 7):
            params[f"c{i}{j}"] = 0.0
    for k in (1, 2, 3):
        params[f"c{k}{k}"] = c11
    for k in (4, 5, 6):
        params[f"c{k}{k}"] = AL_MU
    params["c12"] = params["c13"] = params["c23"] = AL_LAM
    params["c11"] = c11 + 1.0
    return _write(tmp_path_factory, "full.json", {"layers": [
        {"r_in": 0.5, "r_out": 1.0,
         "material": {"type": "full", "rho": 2.7, "params": params}}]})


class TestParseConfig:
    def test_defaults(self, al_json):
        cfg = cli.parse_config(
            ["impedance-trace", "--profile", al_json, "--ka", "2"])
        assert cfg.command == "impedance-trace"
        assert cfg.ka == 2.0 and cfg.sweep is None
        assert cfg.scheme == "lp4" and cfg.steps == 500
        assert cfg.n == 0 and cfg.kz == 0.0
        assert (cfg.r0, cfg.r1) == (0.5, 1.0)
        assert cfg.method == "integrate" and cfg.threads == 1
        assert cfg.out is None
        assert len(cfg.layers) == 1

    def test_run_object_supplies_defaults(self, al_run_json):
        cfg = cli.parse_config(["--profile", al_run_json])
        assert cfg.command == "scatter"
        assert cfg.method == "recursion"
        assert cfg.ka == 5.0
        assert cfg.threads == 2

    def test_flags_override_run_object(self, al_run_json):
        cfg = cli.parse_config(
            ["--profile", al_run_json, "--ka", "3", "--threads", "1"])
        assert cfg.ka == 3.0 and cfg.threads == 1

    def test_command_flag_and_positional_agree(self, al_json):
        cfg = cli.parse_config(["scatter", "--command", "scatter",
                                "--profile", al_json, "--ka", "1"])
        assert cfg.command == "scatter"
        with pytest.raises(UsageError):
            cli.parse_config(["scatter", "--command", "field",
                              "--profile", al_json, "--ka", "1"])

    def test_threads_from_environment(self, al_json, monkeypatch):
        monkeypatch.setenv("CYLWAVE_THREADS", "4")
        cfg = cli.parse_config(["scatter", "--profile", al_json, "--ka", "1"])
        assert cfg.threads == 4

    def test_command_line_text_parses(self, al_json, monkeypatch):
        # the --sweep values and CYLWAVE_THREADS arrive as text
        monkeypatch.setenv("CYLWAVE_THREADS", "2")
        cfg = cli.parse_config(["scatter", "--profile", al_json,
                                "--sweep", "1", "2", "3"])
        assert cfg.sweep == (1.0, 2.0, 3) and cfg.threads == 2

    def test_scheme_resolved(self, al_json):
        cfg = cli.parse_config(["scatter", "--profile", al_json,
                                "--ka", "1", "--scheme", "mg4"])
        assert cfg.scheme == "mg4"

    def test_non_ti_profile_has_no_layers(self, full_json):
        cfg = cli.parse_config(["scatter", "--profile", full_json,
                                "--ka", "1"])
        assert cfg.layers is None

    @pytest.mark.parametrize("argv", [
        ["scatter", "--ka", "1"],
        ["fly", "--profile", "{p}", "--ka", "1"],
        ["scatter", "--profile", "{p}"],
        ["scatter", "--profile", "{p}", "--ka", "1", "--sweep", "1", "2", "3"],
        ["impedance-trace", "--profile", "{p}", "--sweep", "1", "2", "3"],
        ["scatter", "--profile", "{p}", "--sweep", "0", "2", "3"],
        ["scatter", "--profile", "{p}", "--sweep", "2", "1", "3"],
        ["scatter", "--profile", "{p}", "--sweep", "1", "2", "0"],
        ["scatter", "--profile", "{p}", "--ka", "-1"],
        ["scatter", "--profile", "{p}", "--ka", "1", "--steps", "0"],
        ["scatter", "--profile", "{p}", "--ka", "1", "--n", "-1"],
        ["scatter", "--profile", "{p}", "--ka", "1", "--threads", "0"],
        ["scatter", "--profile", "{p}", "--ka", "1", "--scheme", "rk4"],
        ["impedance-trace", "--profile", "{p}", "--ka", "1",
         "--r0", "0.9", "--r1", "0.6"],
        ["scatter", "--profile", "{p}", "--ka", "nan"],
        ["scatter", "--profile", "{p}", "--ka", "inf"],
        ["scatter", "--profile", "{p}", "--ka", "1", "--kz", "nan"],
        ["scatter", "--profile", "{p}", "--ka", "1", "--kz", "inf"],
        # scatter and field are at normal incidence
        ["scatter", "--profile", "{p}", "--ka", "2", "--kz", "0.5"],
        ["scatter", "--profile", "{p}", "--sweep", "1", "2", "3",
         "--kz", "-1e-300"],
        ["field", "--profile", "{p}", "--ka", "2", "--kz", "0.5"],
        # and solve every order over the whole profile
        ["scatter", "--profile", "{p}", "--ka", "2", "--n", "7"],
        ["scatter", "--profile", "{p}", "--ka", "2", "--r0", "0.8"],
        ["scatter", "--profile", "{p}", "--sweep", "1", "2", "3",
         "--r1", "0.9"],
        ["field", "--profile", "{p}", "--ka", "2", "--n", "1"],
        ["field", "--profile", "{p}", "--ka", "2", "--r0", "0.6"],
        ["field", "--profile", "{p}", "--ka", "2", "--r1", "0.9"],
        ["impedance-trace", "--profile", "{p}", "--ka", "1", "--r0", "nan"],
        ["impedance-trace", "--profile", "{p}", "--ka", "1", "--r1", "inf"],
        ["scatter", "--profile", "{p}", "--sweep", "1", "inf", "3"],
        ["scatter", "--profile", "{p}", "--sweep", "nan", "2", "3"],
        # finite, but the wave equations take their squares
        ["impedance-trace", "--profile", "{p}", "--ka", "2", "--kz", "1e160"],
        ["impedance-trace", "--profile", "{p}", "--ka", "1e160"],
        ["convergence", "--profile", "{p}", "--ka", "1e160"],
        ["scatter", "--profile", "{p}", "--ka", "1e160"],
        ["field", "--profile", "{p}", "--ka", "1e160"],
        ["scatter", "--profile", "{p}", "--sweep", "1", "1e160", "3"],
    ])
    def test_usage_errors(self, al_json, argv):
        argv = [a.format(p=al_json) if "{p}" in a else a for a in argv]
        with pytest.raises(UsageError):
            cli.parse_config(argv)

    @pytest.mark.parametrize("run", [
        {"ka": float("nan")}, {"ka": float("inf")},
        {"ka": 1.0, "kz": float("nan")}, {"ka": 1.0, "r1": float("inf")},
        {"sweep": [1.0, float("inf"), 3]}, {"sweep": [1.0, 2.0, float("inf")]},
        {"ka": 1.0, "threads": float("inf")},
        {"ka": 1.0, "steps": float("inf")}, {"ka": 1.0, "steps": float("nan")},
        {"ka": 1.0, "steps": 2.5}, {"ka": 1.0, "n": float("nan")},
        {"ka": 1.0, "n": float("inf")}, {"ka": 1.0, "n": 1.5},
        {"sweep": [1, 2]}, {"sweep": [1.0, 2.0, 2.5]},
        {"ka": 1.0, "kz": "x"}, {"ka": 1.0, "r0": "x"},
        {"ka": 1.0, "kz": None}, {"ka": "x"}, {"ka": [1]},
        {"ka": 1.0, "scheme": 4}, {"ka": 1.0, "threads": 2.5},
        # JSON booleans are ints to Python; none is taken as 1
        {"ka": True}, {"ka": 1.0, "steps": True}, {"ka": 1.0, "n": True},
        {"ka": 1.0, "kz": False}, {"ka": 1.0, "threads": True},
        {"sweep": [True, 2, 3]}, {"sweep": [1, 2, True]},
        # JSON strings are not numbers; only command-line text is parsed
        {"ka": "2"}, {"ka": 1.0, "kz": "0"}, {"ka": 1.0, "r0": "0.5"},
        {"ka": 1.0, "r1": "1"}, {"ka": 1.0, "steps": "100"},
        {"ka": 1.0, "n": "3"}, {"ka": 1.0, "threads": "2"},
        {"sweep": ["1", 2, 3]}, {"sweep": [1, "2", 3]}, {"sweep": [1, 2, "3"]},
        # JSON integers past the float range, and numbers whose squares are
        {"ka": 10 ** 400}, {"ka": 1.0, "kz": 10 ** 400},
        {"ka": 1e160}, {"ka": 1.0, "kz": -1e160}, {"sweep": [1, 1e160, 3]},
        {"ka": 1.0, "r1": -10 ** 400}, {"sweep": [1, 10 ** 400, 3]},
        # scatter is at normal incidence, over every order and the whole
        # profile
        {"ka": 1.0, "kz": 0.5}, {"sweep": [1, 2, 3], "kz": 2},
        {"ka": 1.0, "n": 7}, {"ka": 1.0, "r0": 0.8},
        {"sweep": [1, 2, 3], "r1": 0.9},
    ])
    def test_non_finite_run_object(self, tmp_path, run, capsys):
        # a wrong value is a UsageError naming its key, exit code 1
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"layers": [_iso_layer(0.5, 1.0)],
                                    "run": dict(run, command="scatter")}))
        key = list(run)[-1]
        with pytest.raises(UsageError, match=key):
            cli.parse_config(["--profile", str(path)])
        assert cli.main(["--profile", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_schema_errors(self, tmp_path, al_json):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            cli.parse_config(["scatter", "--profile", str(bad), "--ka", "1"])

        runlist = tmp_path / "runlist.json"
        runlist.write_text(json.dumps(
            {"layers": [_iso_layer(0.5, 1.0)], "run": [1]}))
        with pytest.raises(SchemaError):
            cli.parse_config(["scatter", "--profile", str(runlist),
                              "--ka", "1"])

        boolean = tmp_path / "boolean.json"
        layer = _iso_layer(0.5, 1.0)
        layer["r_out"] = True
        boolean.write_text(json.dumps({"layers": [layer]}))
        with pytest.raises(SchemaError, match="r_out"):
            cli.parse_config(["scatter", "--profile", str(boolean),
                              "--ka", "1"])
        assert cli.main(["scatter", "--profile", str(boolean),
                         "--ka", "1"]) == 1

        badmethod = tmp_path / "badmethod.json"
        badmethod.write_text(json.dumps(
            {"layers": [_iso_layer(0.5, 1.0)], "run": {"method": "euler"}}))
        with pytest.raises(SchemaError):
            cli.parse_config(["scatter", "--profile", str(badmethod),
                              "--ka", "1"])


class TestExitCodes:
    def test_usage_is_one(self, capsys):
        assert cli.main(["scatter", "--ka", "1"]) == 1
        assert capsys.readouterr().err.startswith("cylwave:")

    @pytest.mark.parametrize("command", ["scatter", "field"])
    def test_kz_off_normal_incidence_is_one(self, al_json, capsys, command):
        # the run would be solved at kz = 0, against its header's kz
        assert cli.main([command, "--profile", al_json, "--ka", "2",
                         "--kz", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("cylwave: --kz only applies")
        assert captured.out == ""

    def test_kz_kept_by_convergence(self, al_json):
        # impedance-trace's kz is run in TestOutputs
        assert cli.parse_config(["convergence", "--profile", al_json,
                                 "--ka", "2", "--kz", "0.5"]).kz == 0.5

    def test_schema_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        assert cli.main(["scatter", "--profile", str(bad), "--ka", "1"]) == 1
        assert "cylwave:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, pointer", [
        ("rho", 10 ** 400, "/layers/0/material/rho: expected"),
        ("mu", 10 ** 400, "/layers/0/material/params/mu: expected"),
        ("r_in", 10 ** 400, "/layers/0/r_in: expected"),
        ("r_out", 10 ** 400, "/layers/0/r_out: expected"),
        ("r_out", math.inf, "/layers: layer bounds must be")])
    def test_out_of_range_profile_is_one(self, tmp_path, capsys, key, value,
                                         pointer):
        # an integer no float holds, or an infinite outer radius, is a
        # schema error at its pointer, not a traceback
        layer = _iso_layer(0.5, 1.0)
        where = {"rho": layer["material"], "mu": layer["material"]["params"]
                 }.get(key, layer)
        where[key] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"layers": [layer]}))
        assert cli.main(["scatter", "--profile", str(path), "--ka", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"cylwave: {pointer}")

    def test_numeric_domain_is_two(self, bilayer_json, full_json, capsys):
        rc = cli.main(["convergence", "--profile", bilayer_json, "--ka", "1"])
        assert rc == 2
        rc = cli.main(["scatter", "--profile", full_json, "--ka", "1"])
        assert rc == 2
        assert "cylwave:" in capsys.readouterr().err

    def test_decoupled_ti_layer_at_kz_is_two(self, tmp_path, capsys):
        # c13 = -c44 is positive definite, but the closed-form inner
        # impedance divides by c13 + c44 at kz != 0: a typed domain error,
        # not a ZeroDivisionError; at kz = 0 the trace runs
        params = {"c11": 3.0, "c12": 1.0, "c13": -1.0, "c33": 3.0, "c44": 1.0}
        path = tmp_path / "decoupled.json"
        path.write_text(json.dumps({"layers": [{
            "r_in": 0.5, "r_out": 1.0,
            "material": {"type": "ti", "rho": 1.0, "params": params}}]}))
        argv = ["impedance-trace", "--profile", str(path), "--ka", "2",
                "--n", "1", "--steps", "20"]
        assert cli.main(argv + ["--kz", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("cylwave: c13 + c44 = 0 at kz != 0: the "
                                "closed-form coupling numbers divide by "
                                "c13 + c44\n")
        assert captured.out == ""
        assert cli.main(argv) == 0

    def test_failing_ka_of_a_sweep_is_two(self, al_rec_json, capsys):
        # ka = 0.001 meets a spurious in-plane pole; the sweep stops there
        # with its typed error and writes no row
        assert cli.main(["scatter", "--profile", al_rec_json,
                         "--sweep", "0.001", "1", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("cylwave: in-plane impedance pole "
                                "(denominator ~ 0)\n")
        assert captured.out == ""

    def test_sweep_warnings_point_at_the_runner(self, al_rec_json, capsys):
        # ka = 250 is past the validated argument range of the fluid's
        # tables; each warning names the line of _run_scatter that called
        # the solve, as when the runner solved one ka per call
        with pytest.warns(AccuracyLoss) as record:
            assert cli.main(["scatter", "--profile", al_rec_json,
                             "--sweep", "249", "250", "2"]) == 0
        source, first = inspect.getsourcelines(cli._run_scatter)
        assert {(w.filename, first < w.lineno < first + len(source))
                for w in record} == {(cli.__file__, True)}
        assert len(_lines(capsys)) > 2

    def test_missing_file_is_three(self, tmp_path, capsys):
        ghost = str(tmp_path / "ghost.json")
        assert cli.main(["scatter", "--profile", ghost, "--ka", "1"]) == 3
        assert "cylwave:" in capsys.readouterr().err

    def test_success_is_zero(self, al_rec_json, capsys):
        assert cli.main(["scatter", "--profile", al_rec_json,
                         "--ka", "2"]) == 0
        assert capsys.readouterr().out


def _lines(capsys):
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out.splitlines()


class TestOutputs:
    def test_scatter_single_ka(self, al_rec_json, capsys):
        assert cli.main(["scatter", "--profile", al_rec_json,
                         "--ka", "2"]) == 0
        lines = _lines(capsys)
        header = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert lines[0] == "# cylwave scatter"
        assert any("method=recursion" in ln for ln in header)
        assert any(ln.startswith("# columns: ka,sigma_tot,abs_f_pi")
                   for ln in header)
        assert len(data) == 1
        ka, sigma, f_pi = (float(v) for v in data[0].split(","))
        assert ka == 2.0 and sigma > 0 and f_pi >= 0

    def test_scatter_kz_zero_is_the_default(self, al_rec_json, capsys):
        # kz = 0 is the normal incidence scatter solves at, and its
        # header records
        assert cli.main(["scatter", "--profile", al_rec_json,
                         "--ka", "2"]) == 0
        plain = capsys.readouterr().out
        assert "# n=0 kz=0 scheme=lp4" in plain
        assert cli.main(["scatter", "--profile", al_rec_json,
                         "--ka", "2", "--kz", "0"]) == 0
        assert capsys.readouterr().out == plain

    def test_scatter_sweep_grid(self, al_rec_json, capsys):
        assert cli.main(["scatter", "--profile", al_rec_json,
                         "--sweep", "1", "2", "5"]) == 0
        data = [ln for ln in _lines(capsys) if not ln.startswith("#")]
        kas = [float(ln.split(",")[0]) for ln in data]
        assert np.allclose(kas, np.linspace(1.0, 2.0, 5))
        assert all(float(ln.split(",")[1]) > 0 for ln in data)

    def test_runs_are_deterministic(self, al_rec_json, capsys):
        cli.main(["scatter", "--profile", al_rec_json,
                  "--sweep", "1", "2", "5"])
        first = capsys.readouterr().out
        cli.main(["scatter", "--profile", al_rec_json,
                  "--sweep", "1", "2", "5"])
        assert capsys.readouterr().out == first

    def test_threading_does_not_change_bytes(self, al_rec_json, capsys):
        cli.main(["scatter", "--profile", al_rec_json,
                  "--sweep", "1", "2", "5", "--threads", "1"])
        one = capsys.readouterr().out
        cli.main(["scatter", "--profile", al_rec_json,
                  "--sweep", "1", "2", "5", "--threads", "3"])
        other = capsys.readouterr().out
        assert one.replace("threads=1", "threads=3") == other

    def test_out_file_matches_stdout(self, al_rec_json, tmp_path, capsys):
        cli.main(["scatter", "--profile", al_rec_json, "--ka", "2"])
        streamed = capsys.readouterr().out
        target = tmp_path / "run.csv"
        cli.main(["scatter", "--profile", al_rec_json, "--ka", "2",
                  "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert target.read_text() == streamed

    def test_trace_row_count(self, al_json, capsys):
        # one row at r0 and one per group end: the 20 steps of one layer
        # are groups of 8, 8 and 4 steps
        assert cli.main(["impedance-trace", "--profile", al_json,
                         "--ka", "2", "--steps", "20"]) == 0
        data = [ln for ln in _lines(capsys) if not ln.startswith("#")]
        assert len(data) == 4
        rows = np.array([[float(v) for v in ln.split(",")] for ln in data])
        assert rows.shape == (4, 3)
        assert rows[:, 0] == pytest.approx([0.5, 0.7, 0.9, 1.0])
        assert rows[0, 0] == 0.5
        assert np.all(np.isfinite(rows))

    def test_trace_ends_on_the_marched_impedance(self, al_json, capsys):
        argv = ["impedance-trace", "--profile", al_json, "--ka", "2",
                "--steps", "20"]
        assert cli.main(argv) == 0
        last = [ln for ln in _lines(capsys) if not ln.startswith("#")][-1]
        cfg = cli.parse_config(argv)
        ctx = cw.WaveContext(omega=2.0, n=0, m=2)
        z_in = cw.ti_conditional_impedance(
            1, cfg.layers[0], cw.WaveContext(omega=2.0, n=0, m=3), 0.5).z
        z = cw.integrate_impedance(cfg.profile, ctx, z_in[:2, :2], 0.5, 1.0,
                                   20, "lp4").z
        # at n = 0 the trace's n^3 + 1 normalization is 1
        det = complex(z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0])
        assert last == ",".join(format(x, ".17g")
                                for x in (1.0, det.real, det.imag))

    def test_trace_with_axial_wavenumber(self, al_json, capsys):
        # 10 steps are groups of 8 and 2: rows at r0, 0.9 and 1
        assert cli.main(["impedance-trace", "--profile", al_json,
                         "--ka", "2", "--kz", "0.4", "--n", "1",
                         "--steps", "10"]) == 0
        data = [ln for ln in _lines(capsys) if not ln.startswith("#")]
        assert len(data) == 3
        assert np.all(np.isfinite(
            [[float(v) for v in ln.split(",")] for ln in data]))

    def test_field_grid(self, al_rec_json, capsys):
        assert cli.main(["field", "--profile", al_rec_json,
                         "--ka", "2"]) == 0
        lines = _lines(capsys)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 121 * 121
        # grid center lies inside the scatterer
        center = data[60 * 121 + 60].split(",")
        assert abs(float(center[0])) < 1e-12 and abs(float(center[1])) < 1e-12
        assert center[2] == "nan" and center[4] == "nan"
        corner = [float(v) for v in data[0].split(",")]
        assert corner[0] == -3.0 and corner[1] == -3.0
        assert np.isfinite(corner[2:]).all()
        assert corner[4] == pytest.approx(np.hypot(corner[2], corner[3]))
