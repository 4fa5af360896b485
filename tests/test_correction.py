"""Orbit correction and beam threading on misaligned transfer lines."""

import numpy as np
import pytest

from polytrack import correction
from polytrack.correction import (CorrectionResult, InfeasibleCorrection,
                                  MachineSim, correct_orbit, corrector_labels,
                                  get_kicks, measure_with_losses,
                                  response_matrix, set_kicks,
                                  simulate_readings, thread_beam)
from polytrack.network import TrackRecord, forward
from polytrack.training import TrainConfig

from conftest import achromat_text, build, transfer_line_text


def _rms_at_machine(machine_net, model_result):
    rec = simulate_readings(MachineSim(machine_net), np.zeros(4))
    kicks = model_result.kicks
    net = machine_net.copy()
    set_kicks(net, kicks)
    rec = simulate_readings(MachineSim(net), np.zeros(4))
    return rec.rms()


def test_single_corrector_drift_bpm_by_hand():
    text = ("c: hcorrector, kick=0.0;\nd: drift, l=2.0;\nm: monitor;\n"
            "s: sequence = (c, d, m);")
    net = build(text, merge="minimal")
    machine = net.copy()
    set_kicks(machine, {"c": 5e-4})
    observed = simulate_readings(MachineSim(machine), np.zeros(4))
    assert observed.readings[0, 0, 0] == pytest.approx(1e-3, abs=1e-15)
    result = correct_orbit(net, observed)
    assert result.kicks["c"] == pytest.approx(-5e-4, rel=1e-9)
    assert result.rms_after <= 1e-12


def test_zero_orbit_yields_zero_kicks(misalign_free_net=None):
    rng = np.random.default_rng(12345)
    net = build(achromat_text({}), merge="minimal")
    observed = simulate_readings(MachineSim(net), np.zeros(4))
    result = correct_orbit(net, observed)
    assert all(abs(k) <= 1e-12 for k in result.kicks.values())


def test_achromat_misalignments_corrected_to_ten_percent():
    rng = np.random.default_rng(12345)
    offsets = {i: float(rng.normal(0, 100e-6)) for i in range(1, 11)}
    machine = build(achromat_text(offsets), merge="minimal")
    ideal = build(achromat_text({}), merge="minimal")
    assert len([l for l in ideal.layers if l.tap]) == 11
    assert len(corrector_labels(ideal)) == 10
    observed = simulate_readings(MachineSim(machine), np.zeros(4))
    result = correct_orbit(ideal, observed)
    assert result.rms_before > 0
    assert result.rms_after <= 0.10 * result.rms_before
    # installing the kicks on the real machine reproduces the prediction
    corrected = machine.copy()
    set_kicks(corrected, result.kicks)
    after = simulate_readings(MachineSim(corrected), np.zeros(4))
    assert after.rms() <= 0.10 * result.rms_before


def test_lstsq_and_adam_agree():
    rng = np.random.default_rng(7)
    offsets = {i: float(rng.normal(0, 50e-6)) for i in range(1, 11)}
    machine = build(achromat_text(offsets), merge="minimal")
    ideal = build(achromat_text({}), merge="minimal")
    observed = simulate_readings(MachineSim(machine), np.zeros(4))
    a = correct_orbit(ideal, observed, method="lstsq")
    b = correct_orbit(ideal, observed, method="adam")
    for name in a.kicks:
        assert abs(a.kicks[name] - b.kicks[name]) <= 1e-8


def test_adam_correction_leaves_config_untouched():
    text = ("c: hcorrector, kick=0.0;\nd: drift, l=2.0;\nm: monitor;\n"
            "s: sequence = (c, d, m);")
    net = build(text, merge="minimal")
    machine = net.copy()
    set_kicks(machine, {"c": 5e-4})
    observed = simulate_readings(MachineSim(machine), np.zeros(4))
    config = TrainConfig(epochs=3)
    correct_orbit(net, observed, method="adam", adam_config=config)
    assert config.trainable_labels is None


def test_kicks_clipped_to_limit():
    text = ("c: hcorrector, kick=0.0;\nd: drift, l=2.0;\nm: monitor;\n"
            "s: sequence = (c, d, m);")
    net = build(text, merge="minimal")
    machine = net.copy()
    set_kicks(machine, {"c": 5e-3})  # needs -5e-3, beyond the limit
    observed = simulate_readings(MachineSim(machine), np.zeros(4))
    result = correct_orbit(net, observed, c_max=1e-3)
    assert result.kicks["c"] == pytest.approx(-1e-3, abs=1e-12)


def test_no_correctors_is_infeasible():
    net = build("d: drift, l=1.0;\nm: monitor;\ns: sequence = (d, m);",
                merge="minimal")
    observed = simulate_readings(MachineSim(net), np.zeros(4))
    with pytest.raises(InfeasibleCorrection):
        correct_orbit(net, observed)


def test_corrector_downstream_of_all_bpms_is_infeasible():
    text = ("d: drift, l=1.0;\nm: monitor;\nc: hcorrector, kick=0.0;\n"
            "s: sequence = (d, m, c);")
    net = build(text, merge="minimal")
    observed = simulate_readings(MachineSim(net), np.zeros(4))
    observed.readings[0, 0, 0] = 1e-4
    with pytest.raises(InfeasibleCorrection):
        correct_orbit(net, observed)


def test_measure_with_losses_flags_downstream_only():
    net = build(transfer_line_text(bad_dx=8e-3), merge="minimal")
    sim = MachineSim(net, aperture=10e-3)
    rec = measure_with_losses(sim, np.zeros(4))
    valid = rec.valid[0, :, 0]
    assert not valid.all()
    first_bad = int(np.argmin(valid))
    assert valid[:first_bad].all() and not valid[first_bad:].any()
    # the violating reading itself is the last valid one
    assert np.any(np.abs(rec.readings[0, first_bad - 1]) > sim.aperture)


def _reference_loss_mask(readings, aperture):
    """The BPM-by-BPM loop, as before the vectorised first-loss rule."""
    valid = np.ones(readings.shape, dtype=bool)
    lost = False
    for j in range(readings.shape[0]):
        finite = np.all(np.isfinite(readings[j]))
        if lost or not finite:
            valid[j] = False
            lost = True
        elif np.any(np.abs(readings[j]) > aperture):
            lost = True
    return valid


def test_measure_with_losses_matches_bpm_loop(monkeypatch):
    sim = MachineSim(build(transfer_line_text(), merge="minimal"), aperture=10e-3)
    labels = sim.network.tap_labels()
    # in the aperture (the edge included), outside it, and non-finite
    values = [0.0, 1e-4, -3e-3, 10e-3, -10e-3, 2e-2, -5e-2, np.nan, np.inf, -np.inf]
    weights = np.array([8, 8, 8, 1, 1, 1, 1, 1, 1, 1], dtype=float)
    rng = np.random.default_rng(20261018)
    cases = [np.zeros((len(labels), 2))]
    cases += [rng.choice(values, size=(len(labels), 2), p=weights / weights.sum())
              for _ in range(400)]
    for readings in cases:
        monkeypatch.setattr(correction, "simulate_readings", lambda *a, r=readings: TrackRecord(
            labels, r[None].copy(), np.ones((1,) + r.shape, dtype=bool)))
        rec = measure_with_losses(sim, np.zeros(4))
        np.testing.assert_array_equal(rec.valid[0], _reference_loss_mask(readings, sim.aperture))
        np.testing.assert_array_equal(rec.readings[0], readings)


def test_result_serialization():
    text = ("c: hcorrector, kick=0.0;\nd: drift, l=2.0;\nm: monitor;\n"
            "s: sequence = (c, d, m);")
    net = build(text, merge="minimal")
    machine = net.copy()
    set_kicks(machine, {"c": 2e-4})
    observed = simulate_readings(MachineSim(machine), np.zeros(4))
    result = correct_orbit(net, observed)
    assert "rms_after" in result.to_json()
    assert result.kicks_csv().splitlines()[0] == "corrector,kick"


def test_thread_beam_clean_machine_stops_immediately():
    net = build(transfer_line_text(bad_dx=0.0), merge="minimal")
    sim = MachineSim(net)
    log = thread_beam(sim, net.copy())
    assert len(log) == 1
    assert log[0]["n_valid"] == 12


def test_thread_beam_recovers_lost_line():
    machine = build(transfer_line_text(bad_dx=8e-3), merge="minimal")
    model = build(transfer_line_text(bad_dx=0.0), merge="minimal")
    sim = MachineSim(machine, aperture=10e-3)
    log = thread_beam(sim, model, max_iterations=10, c_max=1e-3)
    assert log[0]["n_valid"] < 12
    assert log[-1]["n_valid"] == 12
    valids = [e["n_valid"] for e in log if e["accepted"]]
    assert all(b >= a for a, b in zip(valids, valids[1:]))
    assert len(log) - 1 <= 10
