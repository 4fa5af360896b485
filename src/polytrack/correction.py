"""Orbit correction and beam threading against a simulated machine.

The machine is just another network, built from a lattice with injected
imperfections.  Correction finds corrector kick values that drive the
predicted BPM readings to zero, either by linear least squares on the
numerically measured corrector response (fast path, exact for linear
optics) or by running the Adam engine on the corrector kick weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .network import Network, TrackRecord, forward
from .training import TrainConfig, TrainSample, train


class InfeasibleCorrection(RuntimeError):
    """No corrector acts on any unmasked BPM."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class MachineSim:
    """An imperfect machine: a network plus measurement noise and aperture."""

    network: Network
    noise_sigma: float = 0.0
    aperture: float = 10e-3
    seed: int = 0

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)


def simulate_readings(sim: MachineSim, x0, params=None) -> TrackRecord:
    """Single-pass readings of the machine; optional Gaussian BPM noise."""
    net = sim.network
    _, taps = forward(net, x0, params)
    labels = net.tap_labels()
    rec = TrackRecord.empty(labels, 1)
    for j, label in enumerate(labels):
        rec.readings[0, j] = taps[label]
    if sim.noise_sigma > 0:
        rec.readings += sim._rng.normal(0.0, sim.noise_sigma, rec.readings.shape)
    return rec


def measure_with_losses(sim: MachineSim, x0, params=None) -> TrackRecord:
    """Like simulate_readings, but with beam-loss flagging.

    The first BPM exceeding the aperture still reads the (large) excursion;
    everything strictly downstream of it is flagged invalid (noise after the
    loss point).  Non-finite readings are invalid themselves.
    """
    rec = simulate_readings(sim, x0, params)
    r = rec.readings[0]
    hit = ~np.all(np.abs(r) <= sim.aperture, axis=1)  # beyond the aperture or not finite
    downstream = np.cumsum(hit) > hit  # some BPM strictly upstream was hit
    rec.valid[0, downstream | ~np.all(np.isfinite(r), axis=1)] = False
    return rec


def corrector_labels(net: Network) -> list[str]:
    return [l.label for l in net.layers if l.kind in ("hcorrector", "vcorrector")]


def get_kicks(net: Network) -> dict:
    return {l.label: float(l.map.flat_coefficients()[l.kick_row, 0])
            for l in net.layers if l.kind in ("hcorrector", "vcorrector")}


def set_kicks(net: Network, kicks: dict) -> None:
    for layer in net.layers:
        if layer.label in kicks and layer.kind in ("hcorrector", "vcorrector"):
            w0 = np.array(layer.map.flat_coefficients()[:, 0])
            w0[layer.kick_row] = kicks[layer.label]
            layer.map = layer.map.with_constant(w0)  # keeps the live pair and the Jacobian


@dataclass
class CorrectionResult:
    kicks: dict
    rms_before: float
    rms_after: float
    iterations: int
    network: Network

    def to_json(self) -> str:
        return json.dumps({"kicks": self.kicks, "rms_before": self.rms_before,
                           "rms_after": self.rms_after, "iterations": self.iterations}, indent=1)

    def kicks_csv(self) -> str:
        lines = ["corrector,kick"]
        lines += [f"{k},{v!r}" for k, v in self.kicks.items()]
        return "\n".join(lines) + "\n"


def _model_taps(net: Network, x0) -> np.ndarray:
    _, taps = forward(net, x0)
    return np.array([taps[l] for l in net.tap_labels()])


def response_matrix(net: Network, x0, corrector_names, mask_flat, delta=1e-6) -> np.ndarray:
    """d(masked readings)/d(kick), measured on the model network."""
    cols = []
    base_kicks = get_kicks(net)
    for name in corrector_names:
        set_kicks(net, {name: base_kicks[name] + delta})
        hi = _model_taps(net, x0).ravel()[mask_flat]
        set_kicks(net, {name: base_kicks[name] - delta})
        lo = _model_taps(net, x0).ravel()[mask_flat]
        set_kicks(net, {name: base_kicks[name]})
        cols.append((hi - lo) / (2 * delta))
    return np.stack(cols, axis=1)


def correct_orbit(net: Network, observed: TrackRecord, mask=None, x0=None,
                  method: str = "lstsq", c_max: float = 1e-3,
                  adam_config: TrainConfig | None = None) -> CorrectionResult:
    """Find corrector kicks that zero the observed single-pass orbit.

    The observed readings are assumed affine in the kicks with the model
    network providing the response; the returned network has the kicks
    installed.  Raises ValueError if `observed` lacks one of the model's BPMs.
    """
    net = net.copy()
    names = corrector_labels(net)
    if not names:
        raise InfeasibleCorrection("network has no corrector layers")
    if x0 is None:
        x0 = np.zeros(net.state_dim)
    labels = net.tap_labels()
    missing = [l for l in labels if l not in observed.tap_labels]
    if missing:
        raise ValueError(f"observed orbit has no readings for model BPM(s) {', '.join(missing)}")
    obs_order = [observed.tap_labels.index(l) for l in labels]
    readings = observed.readings[0, obs_order]
    m = observed.valid[0, obs_order]
    if mask is not None:
        m = m & mask[0, obs_order] if mask.ndim == 3 else m & mask[obs_order]
    mask_flat = m.ravel()
    target = readings.ravel()[mask_flat]
    rms_before = float(np.sqrt(np.mean(target ** 2))) if mask_flat.any() else 0.0

    resp = response_matrix(net, x0, names, mask_flat)
    if not mask_flat.any() or not np.any(np.abs(resp) > 0):
        raise InfeasibleCorrection(
            "no corrector is upstream of any unmasked BPM", residual=rms_before)

    current = get_kicks(net)
    base = np.array([current[n] for n in names])
    if method == "lstsq":
        dc, *_ = np.linalg.lstsq(resp, -target, rcond=None)
        kicks = np.clip(base + dc, -c_max, c_max)
        iterations = 1
    elif method == "adam":
        kicks, iterations = _adam_kicks(net, names, target, mask_flat, x0,
                                        c_max, adam_config)
    else:
        raise ValueError(f"unknown correction method '{method}'")

    set_kicks(net, dict(zip(names, map(float, kicks))))
    # predicted residual: observed orbit plus the response to the kick change
    rms_after = float(np.sqrt(np.mean((target + resp @ (kicks - base)) ** 2)))
    return CorrectionResult(get_kicks(net), rms_before, rms_after, iterations, net)


def _adam_kicks(net: Network, names, target, mask_flat, x0, c_max, config):
    """Optimize kick weights with the training engine against -observed."""
    work = net.copy()
    labels = work.tap_labels()
    # target taps for the model: current model taps minus the observed orbit
    current = _model_taps(work, x0).ravel()
    goal = current.copy()
    goal[mask_flat] = current[mask_flat] - target
    rec = TrackRecord.empty(labels, 1)
    rec.readings[0] = goal.reshape(-1, 2)
    rec.valid[0] = mask_flat.reshape(-1, 2)
    sample = TrainSample(np.asarray(x0, dtype=np.float64), rec)
    if config is None:
        config = TrainConfig(learning_rate=1e-5, epochs=4000, sym_weight=0.0,
                             clip_norm=1e-2)
    config = replace(config, trainable_labels=list(names))
    trained, report = train(work, [sample], config)
    fitted = get_kicks(trained)
    kicks = np.array([fitted[n] for n in names])
    return np.clip(kicks, -c_max, c_max), config.epochs


def _correctors_upstream(net: Network, n_valid_taps: int) -> list[str]:
    names = []
    taps_seen = 0
    for layer in net.layers:
        if taps_seen >= n_valid_taps:
            break
        if layer.kind in ("hcorrector", "vcorrector"):
            names.append(layer.label)
        if layer.tap:
            taps_seen += 1
    return names


def thread_beam(sim: MachineSim, net: Network, x0=None, max_iterations: int = 10,
                c_max: float = 1e-3) -> list:
    """Iteratively steer the beam through the machine.

    Each iteration measures with loss flagging, corrects the valid part of
    the orbit using correctors upstream of the loss point, and installs the
    kicks on the machine only if the masked RMS improves (otherwise the kick
    step is halved).  Returns a per-iteration log.
    """
    if x0 is None:
        x0 = np.zeros(sim.network.state_dim)
    log = []
    model = net.copy()
    n_taps = len(sim.network.tap_labels())
    stagnant = 0
    best_valid = -1
    for it in range(max_iterations + 1):
        rec = measure_with_losses(sim, x0)
        n_valid = int(rec.valid[0, :, 0].sum())
        clean = n_valid == n_taps and not np.any(
            np.abs(rec.readings[0][rec.valid[0]]) > sim.aperture)
        rms = rec.rms()
        log.append({"iteration": it, "n_valid": n_valid, "rms": rms,
                    "accepted": True, "stagnation": False})
        if clean:
            break
        if it == max_iterations:
            break
        if n_valid <= best_valid:
            stagnant += 1
            if stagnant >= 5:
                log[-1]["stagnation"] = True
                break
        else:
            stagnant = 0
            best_valid = n_valid
        upstream = _correctors_upstream(model, n_valid)
        if not upstream:
            log[-1]["stagnation"] = True
            break
        # least-squares kicks on the valid readings, accept-if-improved
        labels = model.tap_labels()
        mask_flat = rec.valid[0].ravel()
        target = rec.readings[0].ravel()[mask_flat]
        resp = response_matrix(model, x0, upstream, mask_flat)
        dc, *_ = np.linalg.lstsq(resp, -target, rcond=None)
        base = get_kicks(sim.network)
        scale = 1.0
        accepted = False
        for _ in range(8):
            trial = {n: float(np.clip(base[n] + scale * d, -c_max, c_max))
                     for n, d in zip(upstream, dc)}
            set_kicks(sim.network, trial)
            set_kicks(model, trial)
            new_rec = measure_with_losses(sim, x0)
            new_masked = new_rec.readings[0].ravel()[mask_flat]
            old_rms = float(np.sqrt(np.mean(target ** 2)))
            new_rms = float(np.sqrt(np.mean(new_masked ** 2)))
            if new_rms < old_rms and int(new_rec.valid[0, :, 0].sum()) >= n_valid:
                accepted = True
                break
            set_kicks(sim.network, base)
            set_kicks(model, base)
            scale *= 0.5
        if not accepted:
            stagnant += 1
    return log
