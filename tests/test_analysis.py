"""Multi-turn tracking, tune extraction, phase portraits."""

import numpy as np
import pytest

from polytrack.analysis import (FlatSignalError, fit_conic_residual,
                                phase_portrait, portrait_csv, ring_tunes,
                                track_turns, tune_fft, turn_by_turn_state)
from polytrack.lattice import parse_lattice
from polytrack.network import Layer, Network, ParameterError, forward, one_turn_map
from polytrack.polymap import TaylorMap, evaluate

from conftest import (FODO12_TEXT, FODO_MONITORED_TEXT, LINEAR_RING_TEXT, build, cell_ring_text,
                      full_evaluate, reference_forward, resonant_ring_text)


def _rotation_net(q, tap=True):
    """One-turn map: rotation by 2*pi*q in both transverse planes."""
    c, s = np.cos(2 * np.pi * q), np.sin(2 * np.pi * q)
    r = np.array([[c, s, 0, 0], [-s, c, 0, 0],
                  [0, 0, c, s], [0, 0, -s, c]])
    m = TaylorMap.from_linear(r, order=2)
    return Network([Layer(m, tap=tap, trainable=False, label="bpm",
                          kind="map")])


def test_identity_ring_constant_readings():
    net = _rotation_net(0.0)
    rec = track_turns(net, [1e-3, 0, 0, 0], 10)
    assert np.all(rec.valid)
    np.testing.assert_allclose(rec.readings[:, 0, 0], 1e-3, rtol=0, atol=0)


def test_rotation_preserves_amplitude():
    net = _rotation_net(0.31)
    states = turn_by_turn_state(net, [1e-4, 0, 0, 0], 1024)
    r = np.hypot(states[:, 0], states[:, 1])
    assert states.shape[0] == 1024
    np.testing.assert_allclose(r, 1e-4, rtol=1e-9)


def test_rotation_tune_q031():
    net = _rotation_net(0.31)
    tunes = ring_tunes(net, amplitude=1e-4, n_turns=1024)
    assert abs(tunes["x"].q - 0.31) <= 1e-3
    assert abs(tunes["y"].q - 0.31) <= 1e-3


def test_rotation_tune_q069_folds():
    net = _rotation_net(0.69)
    tunes = ring_tunes(net, amplitude=1e-4, n_turns=1024)
    assert abs(tunes["x"].q - 0.31) <= 1e-3


def _reference_turn_by_turn_state(net, x0, n_turns, aperture=10e-3):
    """The list-append loop with the two-step loss test, as before one loss predicate."""
    x = np.asarray(x0, dtype=np.float64)
    out = []
    for _ in range(n_turns):
        out.append(x.copy())
        x, _ = forward(net, x)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > aperture:
            break
    return np.array(out)


@pytest.mark.parametrize("x0", [[1e-3, 0, 1e-3, 0], [2.4e-3, 0, 0, 0], [2e-2, 0, 0, 0],
                                [np.nan, 0, 0, 0], [0, np.inf, 0, 0], [0, 0, -np.inf, 0],
                                [1e200, 0, 0, 0]],
                         ids=["stable", "lost-turn-3", "outside", "nan", "inf", "-inf", "overflow"])
def test_turn_by_turn_state_matches_reference_loop(x0):
    net = build(resonant_ring_text(150.0))
    with np.errstate(all="ignore"):
        states = turn_by_turn_state(net, x0, 300)
        ref = _reference_turn_by_turn_state(net, x0, 300)
        rec = track_turns(net, x0, 300)
    assert states.tobytes() == ref.tobytes() and states.shape == ref.shape
    # track_turns loses the particle on the same turn: its last recorded state
    assert rec.valid[:, 0, 0].sum() == (300 if len(states) == 300 else len(states) - 1)


def test_turn_by_turn_state_no_turns():
    assert turn_by_turn_state(_rotation_net(0.31), [1e-4, 0, 0, 0], 0).shape == (0, 4)


def _reference_states(net, x0, n_turns, params=None, evaluate=evaluate, aperture=10e-3):
    """turn_by_turn_state as a turn loop over the per-layer loop (`reference_forward`)."""
    x = np.asarray(x0, dtype=np.float64)
    out = np.empty((n_turns, x.size))
    for t in range(n_turns):
        out[t] = x
        x, _ = reference_forward(net, x, params, evaluate)
        if not np.abs(x).max() <= aperture:
            return out[:t + 1]
    return out


def _reference_track_turns(net, x0, n_turns, params=None, aperture=10e-3):
    """track_turns as a turn loop over the per-layer loop (`reference_forward`)."""
    labels = net.tap_labels()
    readings = np.zeros((n_turns, len(labels), 2))
    valid = np.ones((n_turns, len(labels), 2), dtype=bool)
    x = np.asarray(x0, dtype=np.float64)
    lost = False
    for t in range(n_turns):
        if not lost:
            x, taps = reference_forward(net, x, params)
            lost = not np.abs(x).max() <= aperture
        if lost:
            valid[t] = False
            continue
        for j, label in enumerate(labels):
            readings[t, j] = taps[label]
    return readings, valid


# (network, parameters, initial states) for the multi-turn trackers; some particles are lost
TRACKED = {
    "resonant": (lambda: build(resonant_ring_text(150.0)), None,
                 [[1e-3, 0, 1e-3, 0], [2.4e-3, 0, 0, 0], [2e-2, 0, 0, 0], [np.nan, 0, 0, 0]]),
    "monitored": (lambda: build(FODO_MONITORED_TEXT, merge="minimal"), None,
                  [[1e-3, 2e-4, -1e-3, 0], [4e-3, 0, 4e-3, 0]]),
    "parametric": (lambda: build(cell_ring_text(20, parametric_cell=7), merge="minimal"),
                   {"qf7": 0.63}, [[1e-3, 0, 1e-3, 0], [9e-3, 0, 0, 0]]),
    "one_layer": (lambda: _rotation_net(0.31), None, [[1e-3, 0, 2e-3, 1e-4]]),
    "no_taps": (lambda: build(FODO12_TEXT), None, [[1e-3, 0, 1e-3, 0]]),
}


@pytest.mark.parametrize("name", list(TRACKED))
def test_trackers_bit_equal_to_per_layer_loop(name):
    make, params, starts = TRACKED[name]
    net = make()
    with np.errstate(all="ignore"):
        for x0 in starts:
            states = turn_by_turn_state(net, x0, 200, params=params)
            ref = _reference_states(net, x0, 200, params)
            assert states.tobytes() == ref.tobytes() and states.shape == ref.shape
            rec = track_turns(net, x0, 200, params=params)
            readings, valid = _reference_track_turns(net, x0, 200, params)
            assert rec.readings.tobytes() == readings.tobytes()
            assert rec.valid.tobytes() == valid.tobytes()


@pytest.mark.parametrize("text", [FODO12_TEXT, resonant_ring_text(20.0)], ids=["fodo12", "resonant"])
def test_ring_tunes_bit_equal_to_per_layer_loop(text):
    net = build(text)
    tunes = ring_tunes(net, amplitude=1e-3, n_turns=256)
    states = _reference_states(net, [1e-3, 0, 1e-3, 0], 256)
    for plane, col in (("x", 0), ("y", 2)):
        assert tunes[plane] == tune_fft(states[:, col])


@pytest.mark.parametrize("text", [FODO12_TEXT, resonant_ring_text(20.0)], ids=["fodo12", "resonant"])
def test_ring_tunes_match_full_basis_evaluation(text):
    net = build(text)
    tunes = ring_tunes(net, amplitude=1e-3, n_turns=1024)
    states = _reference_states(net, [1e-3, 0, 1e-3, 0], 1024, evaluate=full_evaluate)
    assert states.shape[0] >= 64  # enough turns for a tune
    for plane, col in (("x", 0), ("y", 2)):
        assert abs(tunes[plane].q - tune_fft(states[:, col]).q) <= 1e-12


def test_trackers_leave_inputs_and_later_calls_alone():
    net = build(resonant_ring_text(20.0))
    x0 = np.array([1e-3, 0, 1e-3, 0])
    states, rec = turn_by_turn_state(net, x0, 100), track_turns(net, x0, 100)
    want = states.tobytes(), rec.readings.tobytes()
    assert x0.tolist() == [1e-3, 0, 1e-3, 0]
    states[:] = 1.0  # the returned arrays are the caller's
    rec.readings[:] = 1.0
    assert (turn_by_turn_state(net, x0, 100).tobytes(),
            track_turns(net, x0, 100).readings.tobytes()) == want


def test_negative_turns_rejected_everywhere():
    net = _rotation_net(0.31)
    x0 = [1e-3, 0, 0, 0]
    for call in (lambda: track_turns(net, x0, -1), lambda: turn_by_turn_state(net, x0, -1),
                 lambda: phase_portrait(net, [1e-3], -3), lambda: ring_tunes(net, 1e-3, -1)):
        with pytest.raises(ValueError, match="n_turns"):
            call()


def test_missing_parameter_raises_before_tracking():
    net = build(cell_ring_text(20, parametric_cell=7), merge="minimal")
    for call in (track_turns, turn_by_turn_state):
        with pytest.raises(ParameterError, match="qf7"):
            call(net, [1e-3, 0, 0, 0], 0)
        with pytest.raises(ParameterError, match="qf7"):
            call(net, [1e-3, 0, 0, 0], 10, params={"qf1": 0.6})


def test_flat_signal_raises():
    with pytest.raises(FlatSignalError):
        tune_fft(np.full(128, 3.7))


def test_short_or_bad_series_rejected():
    with pytest.raises(ValueError):
        tune_fft(np.ones(63))
    bad = np.sin(np.arange(128))
    bad[10] = np.nan
    with pytest.raises(ValueError):
        tune_fft(bad)


def test_fodo_tune_matches_trace_oracle():
    net = build(LINEAR_RING_TEXT, merge="minimal")
    w1 = one_turn_map(net).linear_block()
    tunes = ring_tunes(net, amplitude=1e-4, n_turns=1024)
    for plane, sl in (("x", slice(0, 2)), ("y", slice(2, 4))):
        q_ref = np.arccos(np.trace(w1[sl, sl]) / 2) / (2 * np.pi)
        q_ref = min(q_ref, 0.5)
        assert abs(tunes[plane].q - q_ref) <= 1e-3, plane


def test_linear_tune_amplitude_independent():
    net = build(LINEAR_RING_TEXT, merge="minimal")
    qs = [ring_tunes(net, amplitude=a, n_turns=1024)["x"].q
          for a in (0.5e-4, 1e-4, 2e-4)]
    assert max(qs) - min(qs) <= 1e-3


def test_linear_portrait_is_conic():
    net = build(LINEAR_RING_TEXT, merge="minimal")
    portrait = phase_portrait(net, [1e-4], 512)
    assert fit_conic_residual(portrait[1e-4]) <= 1e-6


def test_sextupoles_near_third_integer_distort_portrait():
    linear = build(resonant_ring_text(0.0), merge="minimal")
    nonlin = build(resonant_ring_text(20.0), merge="minimal")
    a = 3e-3
    r_lin = fit_conic_residual(phase_portrait(linear, [a], 512)[a])
    r_non = fit_conic_residual(phase_portrait(nonlin, [a], 512)[a])
    assert r_lin <= 1e-6
    assert r_non >= 10 * max(r_lin, 1e-9)


def test_zero_amplitude_is_fixed_point():
    net = build(LINEAR_RING_TEXT, merge="minimal")
    portrait = phase_portrait(net, [0.0], 100)
    np.testing.assert_array_equal(portrait[0.0], 0.0)
    assert portrait[0.0].shape == (100, 2)


def test_portrait_csv_format():
    net = _rotation_net(0.31)
    text = portrait_csv(phase_portrait(net, [1e-4], 4))
    lines = text.strip().splitlines()
    assert lines[0] == "amplitude,turn,x,xp"
    assert len(lines) == 5
    a, t, x, xp = lines[1].split(",")
    assert float(a) == 1e-4 and int(t) == 0 and float(x) == 1e-4


def test_track_turns_flags_losses():
    # unstable linear map: amplitude doubles each turn until the aperture
    m = TaylorMap.from_linear(np.diag([2.0, 0.5, 1.0, 1.0]), order=2)
    net = Network([Layer(m, tap=True, trainable=False, label="bpm",
                         kind="map")])
    rec = track_turns(net, [1e-3, 0, 0, 0], 20, aperture=10e-3)
    valid = rec.valid[:, 0, 0]
    assert valid[:3].all() and not valid[4:].any()
    np.testing.assert_array_equal(rec.readings[~valid.astype(bool)], 0.0)


def test_zero_turns_empty_record():
    net = _rotation_net(0.31)
    rec = track_turns(net, [1e-3, 0, 0, 0], 0)
    assert rec.readings.shape == (0, 1, 2)
    with pytest.raises(ValueError):
        track_turns(net, [1e-3, 0, 0, 0], -1)


def test_conic_fit_needs_enough_points():
    with pytest.raises(ValueError):
        fit_conic_residual(np.zeros((7, 2)))
