"""Command-line interface: pipelines, exit codes, determinism."""

import json

import numpy as np
import pytest

from polytrack import cli
from polytrack.network import load_model, one_turn_map

from conftest import (FODO12_TEXT, LINEAR_RING_TEXT, build, cell_ring_text,
                      transfer_line_text)


@pytest.fixture
def fodo_path(tmp_path):
    p = tmp_path / "fodo.lat"
    p.write_text(FODO12_TEXT)
    return p


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_build_reports_layer_count(fodo_path, tmp_path, capsys):
    out = tmp_path / "fodo.model.json"
    assert run("build", fodo_path, "--merge", "per_element", "-o", out) == 0
    assert "12 layers" in capsys.readouterr().out
    assert len(load_model(out.read_bytes()).layers) == 12


def test_build_malformed_lattice_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.lat"
    bad.write_text("d: drift, l=1.0;\nqf: quadrupole k1=1;\ns: sequence = (d);")
    out = tmp_path / "x.json"
    assert run("build", bad, "-o", out) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 2" in err
    assert not out.exists()


def test_build_orders_share_linear_block(fodo_path, tmp_path):
    o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert run("build", fodo_path, "--order", "1", "-o", o1) == 0
    assert run("build", fodo_path, "--order", "2", "-o", o2) == 0
    m1 = one_turn_map(load_model(o1.read_bytes()))
    m2 = one_turn_map(load_model(o2.read_bytes()))
    np.testing.assert_allclose(m1.linear_block(), m2.linear_block(),
                               rtol=0, atol=1e-15)


def test_track_zero_turns(tmp_path):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model = tmp_path / "m.json"
    track = tmp_path / "t.csv"
    assert run("build", lat, "-o", model) == 0
    assert run("track", model, "--x0", "1e-3,0,0,0", "--turns", "0",
               "-o", track) == 0
    assert track.read_text().splitlines()[0] == "turn,tap,x,y,valid"


def test_track_bad_x0_rejected(tmp_path):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model = tmp_path / "m.json"
    assert run("build", lat, "-o", model) == 0
    assert run("track", model, "--x0", "1e-3,0", "--turns", "4",
               "-o", tmp_path / "t.csv") == cli.EXIT_INPUT


@pytest.mark.parametrize("command", [("track", "--x0", "1e-3,0,0,0", "--turns", "-1"),
                                     ("portrait", "--amplitudes", "1e-3", "--turns", "-3")],
                         ids=["track", "portrait"])
def test_negative_turns_are_input_errors(tmp_path, capsys, command):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model, out = tmp_path / "m.json", tmp_path / "out.csv"
    assert run("build", lat, "-o", model) == 0
    assert run(command[0], model, *command[1:], "-o", out) == cli.EXIT_INPUT
    assert "n_turns" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [("track", "--x0", "1e-3,0,0,0", "--turns", "4"),
                                     ("portrait", "--amplitudes", "1e-3", "--turns", "4")],
                         ids=["track", "portrait"])
@pytest.mark.parametrize("param", [[], ["--param", "qf1=0.6"]], ids=["none", "other"])
def test_missing_param_is_input_error(tmp_path, capsys, command, param):
    lat = tmp_path / "ring.lat"
    lat.write_text(cell_ring_text(4, parametric_cell=2))
    model, out = tmp_path / "m.json", tmp_path / "out.csv"
    assert run("build", lat, "-o", model) == 0
    assert run(command[0], model, *command[1:], *param, "-o", out) == cli.EXIT_INPUT
    assert "qf2" in capsys.readouterr().err
    assert not out.exists()
    assert run(command[0], model, *command[1:], "--param", "qf2=0.6", "-o", out) == 0


def test_tune_pipeline_matches_trace(tmp_path):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model, track, tune = (tmp_path / n for n in ("m.json", "t.csv", "q.json"))
    assert run("build", lat, "-o", model) == 0
    assert run("track", model, "--x0", "1e-4,0,1e-4,0", "--turns", "1024",
               "-o", track) == 0
    assert run("tune", track, "--tap", "bpm", "--plane", "x", "-o", tune) == 0
    q = json.loads(tune.read_text())["Q"]
    net = build(LINEAR_RING_TEXT, merge="minimal")
    w1 = one_turn_map(net).linear_block()
    q_ref = float(np.arccos(np.trace(w1[:2, :2]) / 2) / (2 * np.pi))
    assert abs(q - q_ref) <= 1e-3


def test_tune_missing_tap_is_input_error(tmp_path):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model, track = tmp_path / "m.json", tmp_path / "t.csv"
    run("build", lat, "-o", model)
    run("track", model, "--x0", "1e-4,0,0,0", "--turns", "128", "-o", track)
    assert run("tune", track, "--tap", "nosuch",
               "-o", tmp_path / "q.json") == cli.EXIT_INPUT


def test_portrait_writes_csv(tmp_path):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model, out = tmp_path / "m.json", tmp_path / "p.csv"
    run("build", lat, "-o", model)
    assert run("portrait", model, "--amplitudes", "1e-4,2e-4", "--turns", "64",
               "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "amplitude,turn,x,xp"
    assert len(lines) == 1 + 2 * 64


def _train_inputs(tmp_path):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model, track = tmp_path / "m.json", tmp_path / "t.csv"
    run("build", lat, "-o", model)
    run("track", model, "--x0", "1e-3,0,0,0", "--turns", "3", "-o", track)
    data = tmp_path / "data.csv"
    rows = ["sample,turn,tap,x,y,valid"]
    rows += ["0," + line for line in track.read_text().splitlines()[1:]]
    data.write_text("\n".join(rows) + "\n")
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps({"0": [1e-3, 0, 0, 0]}))
    return model, data, x0


def test_train_zero_epochs_is_identity(tmp_path):
    model, data, x0 = _train_inputs(tmp_path)
    out = tmp_path / "m2.json"
    assert run("train", model, "--data", data, "--x0-json", x0,
               "--epochs", "0", "--trainable", "bpm", "-o", out) == 0
    assert out.read_bytes() == model.read_bytes()


def test_train_report_carries_fitted_x0(tmp_path):
    model, data, x0 = _train_inputs(tmp_path)
    x0.write_text(json.dumps({"0": [1.1e-3, 0, 0, 0]}))  # off the tracked state
    out, report = tmp_path / "m2.json", tmp_path / "report.json"
    assert run("train", model, "--data", data, "--x0-json", x0, "--epochs", "5",
               "--trainable", "bpm", "--fit-x0", "-o", out, "--report", report) == 0
    written = json.loads(report.read_text())
    fitted = written["x0"]
    assert len(fitted) == 1 and fitted[0] != [1.1e-3, 0, 0, 0]
    assert len(written["grad_norm"]) == len(written["clip_scale"]) == 5


@pytest.mark.parametrize("flag, value, name", [("--clip-norm", "-1", "clip_norm"),
                                              ("--clip-norm", "0", "clip_norm"),
                                              ("--lr", "nan", "learning_rate"),
                                              ("--sym-weight", "nan", "sym_weight")])
def test_bad_training_setting_is_input_error(tmp_path, capsys, flag, value, name):
    model, data, x0 = _train_inputs(tmp_path)
    out = tmp_path / "m2.json"
    assert run("train", model, "--data", data, "--x0-json", x0, "--epochs", "5",
               "--trainable", "bpm", flag, value, "-o", out) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_correct_pipeline_reduces_orbit(tmp_path):
    ideal_lat = tmp_path / "ideal.lat"
    ideal_lat.write_text(transfer_line_text(bad_dx=0.0))
    err_lat = tmp_path / "err.lat"
    err_lat.write_text(transfer_line_text(bad_dx=2e-4))
    ideal, err, orbit = (tmp_path / n for n in ("i.json", "e.json", "o.csv"))
    run("build", ideal_lat, "-o", ideal)
    run("build", err_lat, "-o", err)
    assert run("track", err, "--x0", "0,0,0,0", "--turns", "1",
               "--aperture", "1", "-o", orbit) == 0
    result = tmp_path / "result.json"
    corrected = tmp_path / "corrected.json"
    assert run("correct", ideal, "--observed", orbit, "--result", result,
               "--kicks", tmp_path / "k.csv", "-o", corrected) == 0
    rep = json.loads(result.read_text())
    assert rep["rms_after"] <= 0.1 * rep["rms_before"]
    assert (tmp_path / "k.csv").read_text().startswith("corrector,kick")


def test_thread_scenario(tmp_path):
    lat = tmp_path / "line.lat"
    lat.write_text(transfer_line_text(bad_dx=0.0))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "lattice": str(lat), "merge": "minimal",
        "misalign": {"q6": [8e-3, 0.0]},
        "aperture": 10e-3, "max_iterations": 10, "c_max": 1e-3,
    }))
    out = tmp_path / "log.json"
    assert run("thread", scenario, "-o", out) == 0
    log = json.loads(out.read_text())
    assert log[-1]["n_valid"] == 12
    assert log[0]["n_valid"] < 12


def test_thread_infeasible_exit_code(tmp_path):
    lat = tmp_path / "line.lat"
    lat.write_text(transfer_line_text(bad_dx=0.0))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "lattice": str(lat), "merge": "minimal",
        "misalign": {"q6": [8e-3, 0.0]},
        "aperture": 10e-3, "max_iterations": 10, "c_max": 1e-9,
    }))
    assert run("thread", scenario, "-o", tmp_path / "log.json") == cli.EXIT_INFEASIBLE


@pytest.mark.parametrize("scenario", [
    ["not", "an", "object"],
    {"misalign": {"q99": [1e-3, 0.0]}},
    {"misalign": {"q6": 1e-3}},
    {"misalign": {"q6": [1e-3]}},
    {"misalign": {"q6": ["a", 0.0]}},
    {"misalign": [["q6", 1e-3, 0.0]]},
], ids=["list", "unknown-element", "scalar", "short", "string", "not-a-map"])
def test_malformed_thread_scenario_is_input_error(tmp_path, capsys, scenario):
    lat = tmp_path / "line.lat"
    lat.write_text(transfer_line_text(bad_dx=0.0))
    if isinstance(scenario, dict):
        scenario = {"lattice": str(lat), "merge": "minimal", **scenario}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run("thread", path, "-o", tmp_path / "log.json") == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "log.json").exists()


@pytest.mark.parametrize("field, value", [
    ("order", "x"), ("order", 0), ("order", 2.5), ("merge", "bogus"), ("aperture", "wide"),
    ("aperture", 0.0), ("max_iterations", "ten"), ("max_iterations", -1), ("seed", "abc"),
    ("seed", -3), ("noise_sigma", "n"), ("noise_sigma", float("nan")), ("misalign_sigma", "s"),
    ("misalign_sigma", -1e-4), ("c_max", "big"), ("c_max", True),
])
def test_bad_thread_scenario_field_is_input_error(tmp_path, capsys, field, value):
    lat = tmp_path / "line.lat"
    lat.write_text(transfer_line_text(bad_dx=0.0))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"lattice": str(lat), field: value}))
    assert run("thread", path, "-o", tmp_path / "log.json") == cli.EXIT_INPUT
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "log.json").exists()


def test_missing_model_file_is_input_error(tmp_path):
    assert run("track", tmp_path / "absent.json", "--x0", "0,0,0,0",
               "--turns", "1", "-o", tmp_path / "t.csv") == cli.EXIT_INPUT


def _valid_model_doc(tmp_path):
    lat = tmp_path / "ring.lat"
    lat.write_text(LINEAR_RING_TEXT)
    model = tmp_path / "m.json"
    assert run("build", lat, "-o", model) == 0
    return json.loads(model.read_text())


@pytest.mark.parametrize("mangle", [
    lambda doc: 5,
    lambda doc: {**doc, "layers": []},
    lambda doc: {**doc, "layers": doc["layers"] + doc["layers"][-1:]},
], ids=["non-object", "no-layers", "duplicate-taps"])
def test_malformed_model_is_input_error(tmp_path, mangle):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(mangle(_valid_model_doc(tmp_path))))
    assert run("track", model, "--x0", "0,0,0,0", "--turns", "1",
               "-o", tmp_path / "t.csv") == cli.EXIT_INPUT


BAD_TRACK_ROWS = {"negative-turn": "-1,{tap},1e-3,0.0,1", "nan-valid": "0,{tap},nan,0.0,1",
                  "inf-valid": "0,{tap},1e-3,inf,1", "duplicate": "0,{tap},1e-3,0.0,1"}


@pytest.mark.parametrize("bad_row", BAD_TRACK_ROWS.values(), ids=BAD_TRACK_ROWS.keys())
def test_bad_track_rows_are_input_errors(tmp_path, bad_row):
    model, data, x0 = _train_inputs(tmp_path)
    track = tmp_path / "t.csv"
    track.write_text(track.read_text() + bad_row.format(tap="bpm") + "\n")
    data.write_text(data.read_text() + "0," + bad_row.format(tap="bpm") + "\n")
    assert run("tune", track, "--tap", "bpm", "-o", tmp_path / "q.json") == cli.EXIT_INPUT
    assert run("train", model, "--data", data, "--x0-json", x0, "--epochs", "1",
               "--trainable", "bpm", "-o", tmp_path / "m2.json") == cli.EXIT_INPUT
    line_lat, line, orbit = tmp_path / "line.lat", tmp_path / "line.json", tmp_path / "o.csv"
    line_lat.write_text(transfer_line_text(bad_dx=2e-4))
    assert run("build", line_lat, "-o", line) == 0
    assert run("track", line, "--x0", "0,0,0,0", "--turns", "1", "--aperture", "1",
               "-o", orbit) == 0
    orbit.write_text(orbit.read_text() + bad_row.format(tap="m3") + "\n")
    assert run("correct", line, "--observed", orbit, "-o", tmp_path / "c.json") == cli.EXIT_INPUT


def test_correct_with_a_bpm_missing_from_the_csv_is_input_error(tmp_path, capsys):
    lat, line, orbit = tmp_path / "line.lat", tmp_path / "line.json", tmp_path / "o.csv"
    lat.write_text(transfer_line_text(bad_dx=2e-4))
    assert run("build", lat, "-o", line) == 0
    assert run("track", line, "--x0", "0,0,0,0", "--turns", "1", "--aperture", "1",
               "-o", orbit) == 0
    capsys.readouterr()
    rows = orbit.read_text().splitlines(keepends=True)
    orbit.write_text("".join(r for r in rows if ",m5," not in r and ",m9," not in r))
    out = tmp_path / "c.json"
    assert run("correct", line, "--observed", orbit, "-o", out) == cli.EXIT_INPUT
    assert "m5, m9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_correct_c_max_must_be_finite_and_positive(tmp_path, capsys, value):
    lat, line, orbit = tmp_path / "line.lat", tmp_path / "line.json", tmp_path / "o.csv"
    lat.write_text(transfer_line_text(bad_dx=2e-4))
    assert run("build", lat, "-o", line) == 0
    assert run("track", line, "--x0", "0,0,0,0", "--turns", "1", "--aperture", "1",
               "-o", orbit) == 0
    capsys.readouterr()
    out = tmp_path / "c.json"
    assert run("correct", line, "--observed", orbit, f"--c-max={value}", "-o", out) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "--c-max" in err and "Traceback" not in err
    assert not out.exists()


def test_correct_prints_and_writes_the_clipped_correctors(tmp_path, capsys):
    lat, line, orbit = tmp_path / "line.lat", tmp_path / "line.json", tmp_path / "o.csv"
    lat.write_text(transfer_line_text(bad_dx=2e-4))
    assert run("build", lat, "-o", line) == 0
    assert run("track", line, "--x0", "0,0,0,0", "--turns", "1", "--aperture", "1",
               "-o", orbit) == 0
    result = tmp_path / "r.json"
    assert run("correct", line, "--observed", orbit, "--result", result,
               "-o", tmp_path / "c.json") == 0
    assert "clipped" not in capsys.readouterr().out
    assert json.loads(result.read_text())["clipped"] == []
    assert run("correct", line, "--observed", orbit, "--c-max", "1e-6", "--result", result,
               "-o", tmp_path / "c.json") == 0
    clipped = json.loads(result.read_text())["clipped"]
    assert clipped and f"clipped at ±1e-06 rad: {', '.join(clipped)}" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag, value", [
    ("track", "--aperture", "-1"), ("track", "--aperture", "nan"), ("track", "--x0", "nan,0,0,0"),
    ("portrait", "--amplitudes", "nan"), ("build", "--order", "0")])
def test_malformed_numeric_flag_is_input_error(fodo_path, tmp_path, capsys, command, flag, value):
    model = tmp_path / "m.json"
    assert run("build", fodo_path, "-o", model) == 0
    out = tmp_path / "out"
    argv = {"track": ["track", model, "--x0", "1e-3,0,0,0", "--turns", "3"],
            "portrait": ["portrait", model, "--amplitudes", "1e-3", "--turns", "3"],
            "build": ["build", fodo_path]}[command]
    capsys.readouterr()
    assert run(*argv, f"{flag}={value}", "-o", out) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_seeded_thread_is_deterministic(tmp_path):
    lat = tmp_path / "line.lat"
    lat.write_text(transfer_line_text(bad_dx=0.0))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "lattice": str(lat), "merge": "minimal", "misalign_sigma": 1e-4,
        "noise_sigma": 1e-6, "seed": 42,
    }))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("thread", scenario, "-o", a) == 0
    assert run("thread", scenario, "-o", b) == 0
    assert a.read_text() == b.read_text()
