"""Fine-tuning of network weights on observed trajectories.

Loss = mean squared error over unmasked tap readings plus the trainable
layers' symplectic penalties times λ, the `sym_weight` of the same
`TrainConfig` that holds every other setting.  Gradients are exact reverse
accumulation through the layer Jacobians, on the pass plan that sends one
state through the network (`network._Pass`), here with one particles-last
column per sample still running; a masked reading adds exactly nothing,
even where the model or the file holds a non-finite value.  Optimization is
Adam with global gradient-norm clipping, one step per epoch on one flat
vector θ: for each trainable layer in layer order, the entries its
`trainable_mask` allows (a fully trained layer's whole coefficient matrix,
row by row; a corrector's kick), then each sample's x0 if
`fit_initial_condition` is set, then each sample's values of
`Network.param_names()` if `fit_parameters` is set, both in sample order.

What no update can change is built once per call of `train`, `gradients`
or `loss` (`_Batch`): θ, the readings and masks scattered onto the taps,
one plan per turn, and every frozen layer's Jacobian cut to its live
degrees (`TaylorMap._live`).  The plans run a fully trained layer on its
full basis over its view of θ, and a corrector on the batch's own copy of
its live coefficients, into which each new kick is written; a kick moves
neither Jacobian nor penalty.  Each epoch rebuilds only the fully trained
layers' maps from θ and, when fitted, the states and parameter values in
the plans.  Corrector maps are built when `train` returns.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import get_basis
from .network import Network, TrackRecord, _Pass, _tap_rows
from .polymap import ShapeError, TaylorMap, jacobian
from .symplectic import _residual, _weight_gradient, symplectic_penalty

ADAM_BETA1 = 0.9  # decay of Adam's first and second moment estimates (Kingma & Ba, 2015)
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8  # added to the root of the second moment before dividing


class TrainingDivergence(RuntimeError):
    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"loss became non-finite at epoch {epoch}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    clip_norm: float = 1.0
    epochs: int = 100
    sym_weight: float = 1.0
    trainable_labels: list | None = None  # None: use per-layer flags
    fit_initial_condition: bool = False
    fit_parameters: bool = False  # treat bound parameter values like X0

    def validate(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be finite and > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 <= self.sym_weight < math.inf:
            raise ValueError("sym_weight must be finite and >= 0")


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
    grad_norm: list = field(default_factory=list)  # per epoch, of the whole gradient vector
    clip_scale: list = field(default_factory=list)  # per epoch, min(1, clip_norm / grad_norm)
    epochs: int = 0
    x0: list = field(default_factory=list)  # per sample; fitted ones if they were fitted
    params: list = field(default_factory=list)  # {name: value} per sample, likewise

    def to_json(self) -> str:
        return json.dumps({"epochs": self.epochs, "loss": self.loss, "me": self.me,
                           "sym": self.sym, "grad_norm": self.grad_norm,
                           "clip_scale": self.clip_scale,
                           "x0": [list(map(float, x)) for x in self.x0],
                           "params": self.params}, indent=1)


def _trainable_indices(net: Network, config: TrainConfig) -> list[int]:
    if config.trainable_labels is not None:
        wanted = set(config.trainable_labels)
        return [i for i, l in enumerate(net.layers) if l.label in wanted]
    return [i for i, l in enumerate(net.layers) if l.trainable]


@dataclass
class _Batch:
    """What a `train`, `gradients` or `loss` call needs of its samples, built once per call.

    Samples run in `order`, by descending turn count, so those still running
    in turn t are the `active[t]` columns of `plans[t]`.  `observed` and
    `used` hold the readings and masks on the taps.  `grads` maps each
    trainable layer, in layer order, to its gradient matrix, a view of
    `dense`; θ's layer entries are `dense[pick]`.  `full` maps each layer
    trained on every weight to its coefficients, a view of θ; `kicks` each
    corrector to (kick row, index in θ, the plans' copy of its live
    coefficients).  For every layer not in `full`, `tape[li]` keeps its
    Jacobian below its live degree (`_adjoint_layout`) and `sym[li]` a
    corrector's penalty, each filled on first use.
    """

    order: list
    active: list
    turns: list
    observed: np.ndarray
    used: np.ndarray
    count: int  # readings in play
    plans: list
    names: list  # the network's parameter names, in θ's order
    theta: np.ndarray
    grad: np.ndarray  # d loss / d θ, filled by `gradients`
    x0s: np.ndarray  # θ's x0 rows, (N, n), or (N, 0) when not fitted; `x0_grad` alike in `grad`
    values: np.ndarray  # θ's parameter rows, (N, n_names) or (N, 0); `param_grad` alike
    x0_grad: np.ndarray
    param_grad: np.ndarray
    dense: np.ndarray
    grads: dict
    pick: np.ndarray
    full: dict
    kicks: dict
    tape: dict = field(default_factory=dict)
    sym: dict = field(default_factory=dict)

    def install(self, net: Network) -> None:
        """Hand θ's values on: kicks and fits to the plans, full layers' maps to `net`."""
        for row, j, live in self.kicks.values():
            live[row, 0] = self.theta[j]
        for i, w in self.full.items():
            tmap = net.layers[i].map
            net.layers[i].map = TaylorMap.from_flat(w, tmap.n_in, tmap.order)
        if self.x0s.size:
            self.plans[0].load(self.x0s[self.order[:self.active[0]]].T)
        if self.values.size:
            for k, plan in zip(self.active, self.plans):
                plan.set_params([dict(zip(self.names, v)) for v in self.values[self.order[:k]]])


def _build_batch(net: Network, samples, config: TrainConfig) -> _Batch:
    labels = net.tap_labels()
    n = net.state_dim
    turns = [s.observed.n_turns for s in samples]
    order = sorted(range(len(samples)), key=lambda s: -turns[s])
    n_turns = max(turns, default=0)
    active = [sum(nt > t for nt in turns) for t in range(n_turns)]
    x = np.zeros((n, len(samples)))
    observed = np.zeros((n_turns, len(labels), 2, len(samples)))
    used = np.zeros(observed.shape, dtype=bool)
    for c, si in enumerate(order):
        sample = samples[si]
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

    trainable = _trainable_indices(net, config)
    names = net.param_names()
    flats = [net.layers[i].map.flat_coefficients() for i in trainable]
    masks = [net.layers[i].trainable_mask() for i in trainable]
    starts = np.cumsum([0] + [f.size for f in flats])
    pick = np.concatenate([np.zeros(0, dtype=np.intp)] +
                          [s + np.flatnonzero(m) for m, s in zip(masks, starts)])
    x0_at = pick.size
    params_at = x0_at + n * len(samples) * bool(config.fit_initial_condition)
    theta = np.zeros(params_at + len(names) * len(samples) * bool(config.fit_parameters))
    theta[:x0_at] = np.concatenate([np.zeros(0)] + [f.ravel() for f in flats])[pick]
    grad = np.zeros_like(theta)
    x0s, x0_grad = (vec[x0_at:params_at].reshape(len(samples), -1) for vec in (theta, grad))
    values, param_grad = (vec[params_at:].reshape(len(samples), -1) for vec in (theta, grad))
    if x0s.size:
        x0s[order] = x.T
    if values.size:  # a sample with no turns runs in no plan: its values are never read
        values[:] = [[(s.params or {}).get(name, 0.0) for name in names] for s in samples]
    dense = np.zeros(starts[-1])
    grads, full, kicks, pairs = {}, {}, {}, {}
    for i, f, mask, s in zip(trainable, flats, masks, starts):
        grads[i] = dense[s:s + f.size].reshape(f.shape)
        j = int(np.searchsorted(pick, s))  # θ's first entry of layer i
        if mask[:, 1:].any():
            full[i] = theta[j:j + f.size].reshape(f.shape)
            pairs[i] = net.layers[i].map.basis, full[i]
        else:
            basis, live = net.layers[i].map._live
            pairs[i] = basis, np.array(live)  # writeable: each new kick is written into it
            kicks[i] = net.layers[i].kick_row, j, pairs[i][1]
    params = [samples[si].params for si in order]
    plans = [_Pass(net, params[:k], k, pairs) for k in active]
    plans[0].load(x[:, :active[0]])
    return _Batch(order, active, turns, observed, used, count, plans, names, theta,
                  grad, x0s, values, x0_grad, param_grad, dense, grads, pick, full, kicks)


def _adjoint_layout(tmap: TaylorMap, basis) -> tuple[np.ndarray, int]:
    """Jacobian coefficients on the first P monomials of `basis`, laid out for Jᵀ·adj.

    P counts the monomials below the basis' top degree, the ones the
    Jacobian of a map on `basis` can use.  The result `jt` is
    `(n_in, n_out * P)`, so for a particles-last adjoint `a` `(n_out, k)`
    at inputs with monomials `mono`, Jᵀ·a is `jt @ (a[:, None] * mono[:P])`
    reshaped to `(n_out * P, k)`, and just `jt @ a` when P is 1 (a linear map).
    """
    p = get_basis(tmap.n_in, max(basis.max_order - 1, 0)).size
    d = jacobian(tmap).coeffs[:, :, :p]
    return d.transpose(1, 0, 2).reshape(tmap.n_in, -1), p


def _forward_pass(net: Network, batch: _Batch) -> tuple[float, list]:
    """Run every turn's plan; returns (me, dreadings).

    Turn t's plan starts from the previous turn's final states of its
    columns.  `dreadings[t]` is the loss gradient with respect to the
    network's tap readings, `(n_taps, 2, active[t])`, zero for readings no
    sample observes.
    """
    read, cols = _tap_rows(net.state_dim)
    n_taps = batch.observed.shape[1]
    sq_sum = 0.0
    dreadings = []
    for t, (k, plan) in enumerate(zip(batch.active, batch.plans)):
        if t:
            plan.state_in[:] = batch.plans[t - 1].state_out[:, :k]
        plan.run()
        taps = np.zeros((n_taps, 2, k))
        taps[:, cols] = np.array(plan.taps)[:, read]
        # masked readings add exactly nothing, whatever the model or the file holds there
        err = np.where(batch.used[t, :, :, :k], taps - batch.observed[t, :, :, :k], 0.0)
        sq_sum += float(np.sum(err ** 2))
        dreadings.append(2.0 * err / batch.count)
    return sq_sum / batch.count, dreadings


def loss(net: Network, samples, config: TrainConfig | None = None) -> tuple[float, float, float]:
    """Returns (total, me, sym_penalty_sum); λ is `config.sym_weight`, and None means `TrainConfig()`."""
    config = TrainConfig() if config is None else config
    batch = _build_batch(net, samples, config)
    me = _forward_pass(net, batch)[0]
    s = sum(symplectic_penalty(net.layers[i].map) for i in batch.grads)
    return me + config.sym_weight * s, me, s


def gradients(net: Network, samples, config: TrainConfig | None = None,
              _batch: _Batch | None = None):
    """Exact gradients of the loss: (grads, x0_grads, param_grads, me, sym).

    λ is `config.sym_weight`, and None means `TrainConfig()`.  grads maps a
    trainable layer index to the gradient of its flat coefficient matrix (zero
    off its `trainable_mask`), x0_grads is one vector per sample (zero unless
    fit_initial_condition is set) and param_grads one {name: d loss / d value}
    dict per sample (empty unless fit_parameters is set).  The same values fill
    `_Batch.grad`, laid out like θ, on which `train` steps.

    One forward pass runs all samples together on the batch's plans
    (`train` builds the batch once and passes it to every epoch as
    `_batch`); the adjoint goes back through it turn by turn and layer by
    layer as one `(n, N)` array: one Jᵀ·adj matmul per layer
    (`_adjoint_layout`) plus, for a layer trained on every weight, one
    `adj @ mono.T`.  Frozen layers' and correctors' Jacobian layouts, and
    correctors' penalties, are built once per batch; a fully trained
    layer's comes each call from its map's cached Jacobian.
    """
    config = TrainConfig() if config is None else config
    batch = _build_batch(net, samples, config) if _batch is None else _batch
    me, dreadings = _forward_pass(net, batch)
    n = net.state_dim
    read, cols = _tap_rows(n)
    batch.dense.fill(0.0)
    for li, layer in enumerate(net.layers):
        if li not in batch.full and li not in batch.tape:
            batch.tape[li] = _adjoint_layout(layer.map, layer.map._live[0])
    jts = [_adjoint_layout(l.map, l.map.basis) if li in batch.full else batch.tape[li]
           for li, l in enumerate(net.layers)]
    rows = [[batch.names.index(p) for p in l.params] for l in net.layers]
    n_samples = len(batch.order)
    dparams = np.zeros((len(batch.names), n_samples))
    adj = np.zeros((n, n_samples))

    for t in reversed(range(len(batch.active))):
        k = batch.active[t]
        a = adj[:, :k]
        monos = batch.plans[t].monos
        tap_i = len(dreadings[t])
        for li in reversed(range(len(net.layers))):
            layer = net.layers[li]
            if layer.tap:
                tap_i -= 1
                a[read] += dreadings[t][tap_i, cols]
            mono = monos[li]
            if li in batch.full:
                batch.grads[li] += a @ mono.T
            elif li in batch.kicks:
                row = batch.kicks[li][0]
                batch.grads[li][row, 0] += a[row].sum()  # the constant monomial is 1
            jt, p = jts[li]
            full = jt @ a if p == 1 else jt @ (a[:, None] * mono[:p]).reshape(-1, k)
            if batch.param_grad.size and layer.params:
                dparams[rows[li], :k] += full[n:]
            a = full[:n]
        adj[:, :k] = a

    if batch.x0_grad.size:
        batch.x0_grad[batch.order] = adj.T
    if batch.param_grad.size:
        batch.param_grad[batch.order] = dparams.T
    x0_grads = list(batch.x0_grad if batch.x0_grad.size else np.zeros((n_samples, n)))
    param_grads = [dict(zip(batch.names, g.tolist())) if nt else {}
                   for g, nt in zip(batch.param_grad, batch.turns)]

    s = 0.0
    for i in batch.grads:
        tmap = net.layers[i].map
        if i in batch.kicks:
            # W0 moves neither the residual nor the penalty; its gradient on W0 is exactly 0
            if i not in batch.sym:
                batch.sym[i] = float(np.sum(_residual(tmap)[0].coeffs ** 2))
            s += batch.sym[i]
        else:
            residual, jd = _residual(tmap)
            s += float(np.sum(residual.coeffs ** 2))
            if config.sym_weight != 0.0:
                batch.grads[i] += config.sym_weight * _weight_gradient(tmap, residual, jd)
    np.take(batch.dense, batch.pick, out=batch.grad[:batch.pick.size])
    return dict(batch.grads), x0_grads, param_grads, me, s


def _adam_step(theta, g, m, v, step: int, learning_rate: float) -> tuple:
    """One Adam step in place on θ from its gradient g; returns the new moments (m, v)."""
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
    mhat = m / (1 - ADAM_BETA1 ** step)
    vhat = v / (1 - ADAM_BETA2 ** step)
    theta -= learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPSILON)
    return m, v


def train(net: Network, samples, config: TrainConfig) -> tuple[Network, TrainReport]:
    """Adam with global-norm gradient clipping; deterministic; leaves `samples` as they are.

    Each epoch takes the gradient vector `gradients` fills, one clip norm
    over it and one Adam step in place on θ (see the module docstring) with
    one pair of moment vectors; the plans read the new weights through θ's
    views and `_Batch.install` hands on the rest.  Corrector maps are built
    on return through `TaylorMap.with_constant`, which keeps their caches.
    """
    config.validate()
    net = net.copy()  # maps are immutable; training replaces them on the copy's layers
    samples = list(samples)
    report = TrainReport(epochs=config.epochs,
                         x0=[np.array(s.x0, dtype=np.float64) for s in samples],
                         params=[dict(s.params) if s.params else {} for s in samples])
    if config.epochs == 0:
        return net, report
    if not (_trainable_indices(net, config) or config.fit_initial_condition or
            config.fit_parameters):
        raise ValueError("no trainable layers selected")
    batch = _build_batch(net, samples, config)
    m, v = np.zeros_like(batch.theta), np.zeros_like(batch.theta)
    for epoch in range(config.epochs):
        _, _, _, me, sym = gradients(net, samples, config, _batch=batch)
        total = me + config.sym_weight * sym
        if not np.isfinite(total):
            raise TrainingDivergence(epoch)
        report.loss.append(total)
        report.me.append(me)
        report.sym.append(sym)
        gnorm = float(np.sqrt(np.sum(batch.grad ** 2)))
        scale = min(1.0, config.clip_norm / gnorm) if gnorm > 0 else 1.0
        report.grad_norm.append(gnorm)
        report.clip_scale.append(scale)
        m, v = _adam_step(batch.theta, scale * batch.grad, m, v, epoch + 1, config.learning_rate)
        batch.install(net)
    for i, (_, _, live) in batch.kicks.items():
        net.layers[i].map = net.layers[i].map.with_constant(live[:, 0])
    if batch.x0s.size:
        report.x0 = list(batch.x0s.copy())
    for params, fitted, nt in zip(report.params, batch.values, batch.turns):
        params.update(zip(batch.names, fitted.tolist()) if nt else ())
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
