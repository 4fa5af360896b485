"""Fine-tuning of network weights on observed trajectories.

Loss = mean squared error over unmasked tap readings plus a weighted sum of
symplectic penalties of the trainable layers.  Gradients are exact reverse
accumulation through the layer Jacobians; optimization is Adam with global
gradient-norm clipping.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .network import Network, TrackRecord, _layer_input
from .polymap import TaylorMap, evaluate, jacobian
from .symplectic import _residual, _weight_gradient, symplectic_penalty


class TrainingDivergence(RuntimeError):
    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"loss became non-finite at epoch {epoch}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float = 1.0
    epochs: int = 100
    sym_weight: float = 1.0
    trainable_labels: list | None = None  # None: use per-layer flags
    fit_initial_condition: bool = False
    fit_parameters: bool = False  # treat bound parameter values like X0

    def validate(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.sym_weight < 0:
            raise ValueError("sym_weight must be >= 0")


@dataclass
class TrainSample:
    """One tracked trajectory: injection state plus observed tap readings."""

    x0: np.ndarray
    observed: TrackRecord
    mask: np.ndarray | None = None  # extra validity on top of observed.valid
    params: dict | None = None

    def effective_mask(self) -> np.ndarray:
        m = self.observed.valid
        if self.mask is not None:
            m = m & self.mask
        return m


@dataclass
class TrainReport:
    loss: list = field(default_factory=list)
    me: list = field(default_factory=list)
    sym: list = field(default_factory=list)
    epochs: int = 0
    x0: list = field(default_factory=list)  # fitted injection state, one per sample
    params: list = field(default_factory=list)  # fitted {name: value}, one per sample

    def to_json(self) -> str:
        return json.dumps({"epochs": self.epochs, "loss": self.loss, "me": self.me,
                           "sym": self.sym, "x0": [list(map(float, x)) for x in self.x0],
                           "params": self.params}, indent=1)


def _trainable_indices(net: Network, config: TrainConfig | None = None) -> list[int]:
    if config is not None and config.trainable_labels is not None:
        wanted = set(config.trainable_labels)
        return [i for i, l in enumerate(net.layers) if l.label in wanted]
    return [i for i, l in enumerate(net.layers) if l.trainable]


def _me_terms(net: Network, samples) -> tuple[float, int, list]:
    """Mean-error numerator, reading count, and per-sample prediction context."""
    labels = net.tap_labels()
    contexts = []
    sq_sum = 0.0
    count = 0
    for sample in samples:
        obs = sample.observed
        mask = sample.effective_mask()
        for t_label in obs.tap_labels:
            if t_label not in labels:
                raise ValueError(f"observed tap '{t_label}' does not exist in the network")
        inputs = []  # [turn][layer] state entering that layer, plus the final state
        residual = np.zeros_like(obs.readings)
        x = np.asarray(sample.x0, dtype=np.float64)
        for t in range(obs.n_turns):
            states = [x]
            tap_states = []
            for layer in net.layers:
                x = evaluate(layer.map, _layer_input(layer, x, sample.params))
                states.append(x)
                if layer.tap:
                    tap_states.append(np.array([x[0], x[2] if net.state_dim >= 4 else 0.0]))
            inputs.append(states)
            for j, t_label in enumerate(obs.tap_labels):
                residual[t, j] = tap_states[labels.index(t_label)] - obs.readings[t, j]
        sq_sum += float(np.sum((residual[mask]) ** 2))
        count += int(mask.sum())
        contexts.append((inputs, residual, mask))
    if count == 0:
        raise ValueError("no unmasked readings to train on")
    return sq_sum / count, count, contexts


def loss(net: Network, samples, sym_weight: float = 1.0,
         config: TrainConfig | None = None) -> tuple[float, float, float]:
    """Returns (total, me, sym_penalty_sum)."""
    me, _, _ = _me_terms(net, samples)
    s = sum(symplectic_penalty(net.layers[i].map, net.state_dim)
            for i in _trainable_indices(net, config))
    return me + sym_weight * s, me, s


def gradients(net: Network, samples, sym_weight: float = 1.0,
              config: TrainConfig | None = None):
    """Exact gradients of the loss.

    Returns (grads, x0_grads, param_grads, me, sym) where grads maps a
    trainable layer index to the gradient of its flat coefficient matrix
    (same shape as `flat_coefficients()`), x0_grads is
    one vector per sample (populated only when fit_initial_condition is set)
    and param_grads is one {name: d loss / d value} dict per sample (populated
    only when fit_parameters is set).
    """
    trainable = _trainable_indices(net, config)
    fit_x0 = bool(config and config.fit_initial_condition)
    fit_params = bool(config and config.fit_parameters)
    me, count, contexts = _me_terms(net, samples)
    labels = net.tap_labels()
    n = net.state_dim
    grads = {i: np.zeros_like(net.layers[i].map.flat_coefficients()) for i in trainable}
    jacs = [jacobian(l.map) for l in net.layers]
    x0_grads = []
    param_grads = []

    for sample, (inputs, residual, mask) in zip(samples, contexts):
        obs = sample.observed
        rec_idx = {labels.index(t): j for j, t in enumerate(obs.tap_labels)}
        adj = np.zeros(n)
        pg = {}
        for t in reversed(range(obs.n_turns)):
            tap_i = len(labels)
            for li in reversed(range(len(net.layers))):
                layer = net.layers[li]
                if layer.tap:
                    tap_i -= 1
                    j = rec_idx.get(tap_i)
                    if j is not None:
                        g = 2.0 * residual[t, j] * mask[t, j] / count
                        adj[0] += g[0]
                        if n >= 4:
                            adj[2] += g[1]
                # every monomial of the layer input; the Jacobian basis is a prefix
                mono = layer.map.basis.eval_flat(_layer_input(layer, inputs[t][li], sample.params))
                if li in trainable:
                    grads[li] += np.outer(adj, mono)
                jmat = jacs[li].coeffs @ mono[:jacs[li].basis.size]  # (n_out, n_in_total)
                full = jmat.T @ adj
                if fit_params:
                    for k, name in enumerate(layer.params):
                        pg[name] = pg.get(name, 0.0) + float(full[n + k])
                adj = full[:n]
        x0_grads.append(adj if fit_x0 else np.zeros(n))
        param_grads.append(pg)

    s = 0.0
    for i in trainable:
        tmap = net.layers[i].map
        residual, jd = _residual(tmap, n)
        s += float(np.sum(residual.coeffs ** 2))
        if sym_weight != 0.0:
            grads[i] += sym_weight * _weight_gradient(tmap, residual, jd)
        grads[i] *= net.layers[i].trainable_mask()
    return grads, x0_grads, param_grads, me, s


def train(net: Network, samples, config: TrainConfig) -> tuple[Network, TrainReport]:
    """Adam with global-norm gradient clipping; deterministic; leaves `samples` as they are."""
    config.validate()
    net = net.copy()  # maps are immutable; training replaces them on the copy's layers
    samples = list(samples)
    x0s = [np.array(s.x0, dtype=np.float64) for s in samples]
    pvals = [dict(s.params) if s.params else {} for s in samples]
    report = TrainReport(epochs=config.epochs, x0=x0s, params=pvals)  # updated in place
    trainable = _trainable_indices(net, config)
    if config.epochs == 0:
        return net, report
    if not trainable and not config.fit_initial_condition and not config.fit_parameters:
        raise ValueError("no trainable layers selected")

    moments = {}

    def adam_update(key, theta, g, step):
        m, v = moments.get(key, (np.zeros_like(theta), np.zeros_like(theta)))
        m = config.beta1 * m + (1 - config.beta1) * g
        v = config.beta2 * v + (1 - config.beta2) * g * g
        moments[key] = (m, v)
        mhat = m / (1 - config.beta1 ** step)
        vhat = v / (1 - config.beta2 ** step)
        return theta - config.learning_rate * mhat / (np.sqrt(vhat) + config.epsilon)

    for epoch in range(config.epochs):
        current = [replace(s, x0=x0, params=pv or s.params)
                   for s, x0, pv in zip(samples, x0s, pvals)]
        grads, x0_grads, param_grads, me, sym = gradients(net, current, config.sym_weight, config)
        total = me + config.sym_weight * sym
        if not np.isfinite(total):
            raise TrainingDivergence(epoch)
        report.loss.append(total)
        report.me.append(me)
        report.sym.append(sym)

        gnorm_sq = sum(float(np.sum(g ** 2)) for g in grads.values())
        if config.fit_initial_condition:
            gnorm_sq += sum(float(np.sum(g ** 2)) for g in x0_grads)
        if config.fit_parameters:
            gnorm_sq += sum(g * g for pg in param_grads for g in pg.values())
        gnorm = np.sqrt(gnorm_sq)
        scale = min(1.0, config.clip_norm / gnorm) if gnorm > 0 else 1.0

        step = epoch + 1
        for i in trainable:
            m = net.layers[i].map
            w = adam_update(i, m.flat_coefficients(), scale * grads[i], step)
            net.layers[i].map = TaylorMap.from_flat(w, m.n_in, m.order)
        if config.fit_initial_condition:
            for si in range(len(samples)):
                x0s[si] = adam_update(("x0", si), x0s[si], scale * x0_grads[si], step)
        if config.fit_parameters:
            for si, pg in enumerate(param_grads):
                for name, g in pg.items():
                    new = adam_update(("param", si, name),
                                      np.float64(pvals[si][name]), scale * g, step)
                    pvals[si][name] = float(new)
    return net, report


# -- training data files ---------------------------------------------------------

def samples_to_csv(samples) -> tuple[str, str]:
    """Returns (csv_text, x0_json_text) in the documented formats."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["sample", "turn", "tap", "x", "y", "valid"])
    x0s = {}
    for si, s in enumerate(samples):
        x0s[str(si)] = list(map(float, np.asarray(s.x0)))
        rec = s.observed
        for t in range(rec.n_turns):
            for j, label in enumerate(rec.tap_labels):
                w.writerow([si, t, label, repr(float(rec.readings[t, j, 0])),
                            repr(float(rec.readings[t, j, 1])), int(rec.valid[t, j, 0])])
    return buf.getvalue(), json.dumps(x0s, indent=1)


def samples_from_csv(csv_text: str, x0_json_text: str) -> list:
    x0s = json.loads(x0_json_text)
    if not isinstance(x0s, dict):
        raise ValueError("x0 sidecar must be a JSON object of sample -> state")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    by_sample: dict[str, list] = {}
    for r in rows:
        by_sample.setdefault(r["sample"], []).append(r)
    samples = []
    for sid, srows in by_sample.items():
        if sid not in x0s:
            raise ValueError(f"x0 sidecar is missing sample '{sid}'")
        samples.append(TrainSample(np.array(x0s[sid], dtype=np.float64),
                                   TrackRecord._from_rows(srows)))
    return samples
