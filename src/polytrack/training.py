"""Fine-tuning of network weights on observed trajectories.

Loss = mean squared error over unmasked tap readings plus a weighted sum of
symplectic penalties of the trainable layers.  Gradients are exact reverse
accumulation through the layer Jacobians; optimization is Adam with global
gradient-norm clipping.

One forward pass runs every sample at once, its state stored
particles-last as an (n, N) array; samples keep their own injection state,
parameter values, turn count, taps and mask.  The pass keeps each layer's
input monomials, and the adjoint goes back through them: per layer one
weight-gradient product and one Jacobian contraction for all samples.  The
layer Jacobians come from the maps' own caches (`polymap.jacobian`), so a
frozen layer's is built once and the trainable layer's once per epoch,
shared with the symplectic residual.  A masked reading adds exactly
nothing, even where the model or the file holds a non-finite value.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .network import Network, TrackRecord, _param_values
from .polymap import ShapeError, TaylorMap, jacobian
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


@dataclass
class _Pass:
    """Every sample's forward pass at once, states particles-last.

    Samples run in `order`, by descending turn count, so the samples still
    running in turn t are the first `active[t]` columns.  `monos[t][li]` holds
    every monomial of layer li's input in turn t, `(basis.size, active[t])`,
    and `dreadings[t]` the loss gradient with respect to the network's tap
    readings, `(n_taps, 2, active[t])`; both are zero for readings no sample
    observes.
    """

    me: float
    order: list
    active: list
    monos: list
    dreadings: list


def _forward_pass(net: Network, samples) -> _Pass:
    labels = net.tap_labels()
    n = net.state_dim
    turns = [s.observed.n_turns for s in samples]
    order = sorted(range(len(samples)), key=lambda s: -turns[s])
    samples = [samples[s] for s in order]
    n_turns = max(turns, default=0)
    active = [sum(nt > t for nt in turns) for t in range(n_turns)]
    # each sample's injection state, and its readings and mask scattered onto the network's taps
    x = np.zeros((n, len(samples)))
    observed = np.zeros((n_turns, len(labels), 2, len(samples)))
    used = np.zeros(observed.shape, dtype=bool)
    for c, sample in enumerate(samples):
        x0 = np.asarray(sample.x0, dtype=np.float64)
        if x0.shape != (n,):
            raise ShapeError(f"x0 has shape {x0.shape}, network expects ({n},)")
        x[:, c] = x0
        rec = sample.observed
        for t_label in rec.tap_labels:
            if t_label not in labels:
                raise ValueError(f"observed tap '{t_label}' does not exist in the network")
        cols = [labels.index(t_label) for t_label in rec.tap_labels]
        observed[:rec.n_turns, :, :, c][:, cols] = rec.readings
        used[:rec.n_turns, :, :, c][:, cols] = sample.effective_mask()
    count = int(used.sum())
    if count == 0:
        raise ValueError("no unmasked readings to train on")
    extra = {li: np.array([_param_values(layer, s.params) for s in samples], dtype=np.float64).T
             for li, layer in enumerate(net.layers) if layer.params}
    sq_sum = 0.0
    monos, dreadings = [], []
    for t, k in enumerate(active):
        x = x[:, :k]
        turn_monos = []
        taps = np.zeros((len(labels), 2, k))
        tap_i = 0
        for li, layer in enumerate(net.layers):
            inp = np.concatenate([x, extra[li][:, :k]]) if layer.params else x
            mono = layer.map.basis.eval_flat(inp)
            x = layer.map.flat_coefficients() @ mono
            turn_monos.append(mono)
            if layer.tap:
                taps[tap_i, 0] = x[0]
                if n >= 4:
                    taps[tap_i, 1] = x[2]
                tap_i += 1
        # masked readings add exactly nothing, whatever the model or the file holds there
        err = np.where(used[t, :, :, :k], taps - observed[t, :, :, :k], 0.0)
        sq_sum += float(np.sum(err ** 2))
        monos.append(turn_monos)
        dreadings.append(2.0 * err / count)
    return _Pass(sq_sum / count, order, active, monos, dreadings)


def loss(net: Network, samples, sym_weight: float = 1.0,
         config: TrainConfig | None = None) -> tuple[float, float, float]:
    """Returns (total, me, sym_penalty_sum)."""
    me = _forward_pass(net, samples).me
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

    One forward pass runs all samples together (`_forward_pass`); the
    adjoint then goes back through it, turn by turn and layer by layer, as
    one `(n, N)` array.  Per layer it reuses the forward monomials for one
    weight-gradient product `adj @ mono.T` and one Jacobian contraction over
    all samples; the layer Jacobians come from each map's cache.
    """
    trainable = _trainable_indices(net, config)
    fit_x0 = bool(config and config.fit_initial_condition)
    fit_params = bool(config and config.fit_parameters)
    fw = _forward_pass(net, samples)
    n = net.state_dim
    grads = {i: np.zeros_like(net.layers[i].map.flat_coefficients()) for i in trainable}
    jacs = [jacobian(l.map) for l in net.layers]
    names = net.param_names()
    rows = [[names.index(p) for p in l.params] for l in net.layers]
    dparams = np.zeros((len(names), len(samples)))
    adj = np.zeros((n, len(samples)))

    for t in reversed(range(len(fw.active))):
        k = fw.active[t]
        a = adj[:, :k]
        tap_i = len(fw.dreadings[t])
        for li in reversed(range(len(net.layers))):
            layer = net.layers[li]
            if layer.tap:
                tap_i -= 1
                a[0] += fw.dreadings[t][tap_i, 0]
                if n >= 4:
                    a[2] += fw.dreadings[t][tap_i, 1]
            mono = fw.monos[t][li]
            if li in trainable:
                grads[li] += a @ mono.T
            jac = jacs[li]
            # every sample's Jacobian at its layer input, then J^T adj per sample
            jm = jac.coeffs.reshape(-1, jac.basis.size) @ mono[:jac.basis.size]
            full = np.einsum("iak,ik->ak", jm.reshape(n, jac.n_cols, k), a)
            if fit_params and layer.params:
                dparams[rows[li], :k] += full[n:]
            a = full[:n]
        adj[:, :k] = a

    x0_grads = [np.zeros(n) for _ in samples]
    param_grads = [{} for _ in samples]
    for c, si in enumerate(fw.order):
        if fit_x0:
            x0_grads[si] = adj[:, c].copy()
        if fit_params and samples[si].observed.n_turns:
            param_grads[si] = {name: float(dparams[j, c]) for j, name in enumerate(names)}

    s = 0.0
    for i in trainable:
        tmap = net.layers[i].map
        residual, jd = _residual(tmap, n)
        s += float(np.sum(residual.coeffs ** 2))
        if sym_weight != 0.0:
            grads[i] += sym_weight * _weight_gradient(tmap, residual, jd)
        grads[i] *= net.layers[i].trainable_mask()
    return grads, x0_grads, param_grads, fw.me, s


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
