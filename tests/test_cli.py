import json

import numpy as np
import pytest

import cylwave as cw
from cylwave import cli
from cylwave.errors import SchemaError, UsageError

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
        ["impedance-trace", "--profile", "{p}", "--ka", "1", "--r0", "nan"],
        ["impedance-trace", "--profile", "{p}", "--ka", "1", "--r1", "inf"],
        ["scatter", "--profile", "{p}", "--sweep", "1", "inf", "3"],
        ["scatter", "--profile", "{p}", "--sweep", "nan", "2", "3"],
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
    ])
    def test_non_finite_run_object(self, tmp_path, run):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"layers": [_iso_layer(0.5, 1.0)],
                                    "run": dict(run, command="scatter")}))
        with pytest.raises(UsageError):
            cli.parse_config(["--profile", str(path)])

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

    def test_schema_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        assert cli.main(["scatter", "--profile", str(bad), "--ka", "1"]) == 1
        assert "cylwave:" in capsys.readouterr().err

    def test_numeric_domain_is_two(self, bilayer_json, full_json, capsys):
        rc = cli.main(["convergence", "--profile", bilayer_json, "--ka", "1"])
        assert rc == 2
        rc = cli.main(["scatter", "--profile", full_json, "--ka", "1"])
        assert rc == 2
        assert "cylwave:" in capsys.readouterr().err

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
        assert cli.main(["impedance-trace", "--profile", al_json,
                         "--ka", "2", "--steps", "20"]) == 0
        data = [ln for ln in _lines(capsys) if not ln.startswith("#")]
        assert len(data) == 21
        rows = np.array([[float(v) for v in ln.split(",")] for ln in data])
        assert rows.shape == (21, 3)
        assert rows[0, 0] == 0.5 and rows[-1, 0] == pytest.approx(1.0)
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
        assert cli.main(["impedance-trace", "--profile", al_json,
                         "--ka", "2", "--kz", "0.4", "--n", "1",
                         "--steps", "10"]) == 0
        data = [ln for ln in _lines(capsys) if not ln.startswith("#")]
        assert len(data) == 11
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
