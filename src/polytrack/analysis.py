"""Multi-turn tracking, phase portraits, and betatron tune extraction.

`track_turns` and `turn_by_turn_state` (and through it `phase_portrait`
and `ring_tunes`) run one loop, `_track`: it plans the network's
single-particle pass once (`network._Pass`), runs it every turn, applies
the end-of-turn loss check `_lost`, and reads the taps from the pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import Network, TrackRecord, _Pass


class FlatSignalError(ValueError):
    """No oscillation in the input series; tune undefined."""


def _lost(x: np.ndarray, aperture: float) -> bool:
    """End-of-turn loss: a coordinate beyond the aperture or not finite (NaN fails <=).

    Checked on Python floats: for one short state that costs less than a numpy reduction.
    """
    return not all(abs(v) <= aperture for v in x.tolist())


def _track(net: Network, x0, n_turns: int, aperture: float, params,
           states=None, readings=None) -> int:
    """Track one particle for up to `n_turns` turns; returns the turn it was lost on, or `n_turns`.

    `states[t]` gets the state at the start of turn t, up to the turn of
    the loss; `readings[t]` gets the taps' (x, y) of each turn the particle
    survives.  Either may be None.
    """
    if n_turns < 0:
        raise ValueError("n_turns must be >= 0")
    plan = _Pass(net, params)
    plan.load(x0)
    for t in range(n_turns):
        if states is not None:
            states[t] = plan.state_in
        plan.run()
        if _lost(plan.state_out, aperture):
            return t
        if readings is not None:
            for j, reading in enumerate(plan.readings()):
                readings[t, j] = reading
        plan.state_in[:] = plan.state_out
    return n_turns


def track_turns(net: Network, x0, n_turns: int, aperture: float = 10e-3,
                params=None) -> TrackRecord:
    """Repeat the one-turn forward pass, recording taps each turn.

    The particle counts as lost from the first turn on which any coordinate
    exceeds the aperture or stops being finite; readings from then on are
    flagged invalid.
    """
    rec = TrackRecord.empty(net.tap_labels(), max(n_turns, 0))
    lost = _track(net, x0, n_turns, aperture, params, readings=rec.readings)
    rec.valid[lost:] = False
    return rec


def turn_by_turn_state(net: Network, x0, n_turns: int, aperture: float = 10e-3,
                       params=None) -> np.ndarray:
    """Full state at the start of each turn, (turns, n); stops early on loss.

    The turn on which the particle is lost is the last row.
    """
    states = np.empty((max(n_turns, 0), net.state_dim))
    lost = _track(net, x0, n_turns, aperture, params, states=states)
    return states[:lost + 1]


def phase_portrait(net: Network, amplitudes, n_turns: int, aperture: float = 10e-3,
                   params=None) -> dict:
    """(x, x') at the sequence start per turn, one point set per amplitude."""
    out = {}
    for a in amplitudes:
        x0 = np.zeros(net.state_dim)
        x0[0] = a
        states = turn_by_turn_state(net, x0, n_turns, aperture, params)
        out[float(a)] = states[:, :2] if states.size else np.zeros((0, 2))
    return out


def portrait_csv(portrait: dict) -> str:
    lines = ["amplitude,turn,x,xp"]
    for a, pts in portrait.items():
        for t in range(pts.shape[0]):
            lines.append(f"{float(a)!r},{t},{float(pts[t, 0])!r},{float(pts[t, 1])!r}")
    return "\n".join(lines) + "\n"


@dataclass
class TuneResult:
    q: float  # fractional tune in (0, 0.5]
    amplitude: float  # spectral peak amplitude
    method: str = "fft-parabolic"

    def to_json(self, plane: str = "x") -> str:
        return json.dumps({"plane": plane, "Q": self.q, "amplitude": self.amplitude,
                           "method": self.method}, indent=1)


def tune_fft(series) -> TuneResult:
    """Fractional tune of a turn-by-turn series.

    Mean is removed, the magnitude peak of the real FFT located, and the
    peak position refined with 3-point parabolic interpolation on the log
    magnitudes.  Real signals fold Q and 1-Q onto the same line, so the
    result lies in (0, 0.5].
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1 or y.size < 64:
        raise ValueError("need a 1-D series of at least 64 turns")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains non-finite values")
    if np.ptp(y) == 0.0:
        raise FlatSignalError("flat signal: no tune line")
    y = y - y.mean()
    n = y.size
    mag = np.abs(np.fft.rfft(y))
    peak = int(np.argmax(mag[1:])) + 1
    if 1 <= peak < mag.size - 1 and mag[peak - 1] > 0 and mag[peak + 1] > 0:
        la, lb, lc = np.log(mag[peak - 1: peak + 2])
        denom = la - 2 * lb + lc
        delta = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    q = (peak + delta) / n
    q = min(max(q, 1e-12), 0.5)
    return TuneResult(q=float(q), amplitude=float(2 * mag[peak] / n))


def ring_tunes(net: Network, amplitude: float = 1e-4, n_turns: int = 1024,
               aperture: float = 10e-3, params=None) -> dict:
    """Horizontal and vertical tunes from tracking an off-axis particle."""
    x0 = np.zeros(net.state_dim)
    x0[0] = amplitude
    if net.state_dim >= 4:
        x0[2] = amplitude
    states = turn_by_turn_state(net, x0, n_turns, aperture, params)
    if states.shape[0] < 64:
        raise ValueError(f"particle lost after {states.shape[0]} turns; cannot extract tunes")
    out = {"x": tune_fft(states[:, 0])}
    if net.state_dim >= 4:
        out["y"] = tune_fft(states[:, 2])
    return out


def fit_conic_residual(points: np.ndarray) -> float:
    """Relative residual of the best-fit conic through (x, x') points.

    Fits a x^2 + b x x' + c x'^2 + d x + e x' + f = 0 by SVD on normalized
    coordinates; returns the RMS algebraic residual over the RMS of the
    quadratic terms, which is ~0 for points on an ellipse.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] < 8:
        raise ValueError("need at least 8 points")
    scale = np.sqrt(np.mean(pts ** 2, axis=0))
    scale[scale == 0] = 1.0
    x, xp = pts[:, 0] / scale[0], pts[:, 1] / scale[1]
    a = np.stack([x * x, x * xp, xp * xp, x, xp, np.ones_like(x)], axis=1)
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    coef = vt[-1]
    res = a @ coef
    norm = np.sqrt(np.mean((a[:, :3] @ coef[:3]) ** 2) + np.mean((a[:, 3:] @ coef[3:]) ** 2))
    if norm == 0:
        return 0.0
    return float(np.sqrt(np.mean(res ** 2)) / norm)
