"""Fine-tuning of network weights on observed trajectories.

Loss = mean squared error over unmasked tap readings plus a weighted sum of
symplectic penalties of the trainable layers.  Gradients are exact reverse
accumulation through the layer Jacobians; optimization is Adam with global
gradient-norm clipping.

One forward pass runs every sample at once, its state stored
particles-last as an (n, N) array, on the same pass plan that sends one
state through the network (`network._Pass`, built with one column per
sample still running); samples keep their own injection state, parameter
values, turn count, taps and mask.  The adjoint goes back through that
pass, reading each layer's input monomials from the plan's buffers: per
layer one Jᵀ·adj matmul for all samples and, for a layer trained on every
weight, one weight-gradient product on those monomials.  A masked reading
adds exactly nothing, even where the model or the file holds a non-finite
value.

What no weight update can change is built once per call of `train`,
`gradients` or `loss` (`_Batch`): the samples' readings and masks
scattered onto the network's taps, one plan per turn holding their states
and parameter values, and every frozen layer's Jacobian, cut to the
degrees its live pair (`TaylorMap._live`) uses, so a linear frozen layer
is one affine step forward and one matmul back.  A trainable layer whose
mask covers only its constant column (a corrector) also runs on its live
pair and keeps its Jacobian and symplectic penalty for the whole call: its
kick moves neither.  Once per epoch `train` rebuilds only what the update
changed: the fully trained layers' maps, Jacobians (from the maps' own
caches, `polymap.jacobian`, shared with the symplectic residual) and
residuals, hands the plans each trained layer's new matrix, and, when they
are fitted, rewrites the states and parameter values in the plans.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .basis import get_basis
from .network import Network, TrackRecord, _Pass, _tap_rows
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
class _Batch:
    """What a `train`, `gradients` or `loss` call needs of its samples, built once per call.

    Samples run in `order`, by descending turn count, so the samples still
    running in turn t are the first `active[t]` columns.  `observed` and
    `used` hold every sample's readings and mask scattered onto the
    network's taps, `(n_turns, n_taps, 2, N)`, and `count` the number of
    readings in play.  `plans[t]` is turn t's pass over those columns
    (`network._Pass`); the first holds the injection states, and every plan
    its columns' parameter values.  An epoch of `train` hands the plans the
    trained layers' new matrices, and rewrites the states and parameter
    values only when it fits them.

    `full` lists the trainable layers that run on their full basis, because
    every weight of theirs gets a gradient; `kicks` the trainable layers
    whose mask covers only the constant column W0 (correctors), which move
    neither their live degrees, their Jacobian nor their symplectic residual.
    Every other layer, frozen or kick-only, runs on its live pair, and
    `tape[li]` keeps its Jacobian up to its live degree - 1 (`_adjoint_layout`)
    and `sym[li]` a kick-only layer's penalty, each filled on first use.
    """

    order: list
    active: list
    turns: list
    observed: np.ndarray
    used: np.ndarray
    count: int
    plans: list
    trainable: list
    full: set
    kicks: set
    tape: dict = field(default_factory=dict)
    sym: dict = field(default_factory=dict)

    def refresh(self, x0s, params) -> None:
        """Rewrite the injection states and parameter values, one entry per sample."""
        self.plans[0].load(np.transpose([x0s[si] for si in self.order[:self.active[0]]]))
        for k, plan in zip(self.active, self.plans):
            plan.set_params([params[si] for si in self.order[:k]])

    def update(self, li: int, tmap: TaylorMap) -> None:
        """Run trainable layer li with its updated map from now on."""
        coeffs = tmap.flat_coefficients() if li in self.full else tmap._live[1]
        for plan in self.plans:
            plan.set_coeffs(li, coeffs)


def _build_batch(net: Network, samples, config: TrainConfig | None) -> _Batch:
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
    kicks = {i for i in trainable if not net.layers[i].trainable_mask()[:, 1:].any()}
    full = set(trainable) - kicks
    params = [samples[si].params for si in order]
    plans = [_Pass(net, params[:k], k, full) for k in active]
    plans[0].load(x[:, :active[0]])
    return _Batch(order, active, turns, observed, used, count, plans, trainable, full, kicks)


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


def loss(net: Network, samples, sym_weight: float = 1.0,
         config: TrainConfig | None = None) -> tuple[float, float, float]:
    """Returns (total, me, sym_penalty_sum)."""
    batch = _build_batch(net, samples, config)
    me = _forward_pass(net, batch)[0]
    s = sum(symplectic_penalty(net.layers[i].map, net.state_dim) for i in batch.trainable)
    return me + sym_weight * s, me, s


def gradients(net: Network, samples, sym_weight: float = 1.0,
              config: TrainConfig | None = None, _batch: _Batch | None = None):
    """Exact gradients of the loss.

    Returns (grads, x0_grads, param_grads, me, sym) where grads maps a
    trainable layer index to the gradient of its flat coefficient matrix
    (same shape as `flat_coefficients()`), x0_grads is
    one vector per sample (populated only when fit_initial_condition is set)
    and param_grads is one {name: d loss / d value} dict per sample (populated
    only when fit_parameters is set).

    The samples' readings, masks, states and parameters are scattered onto
    the network's taps once per call, with one pass plan per turn
    (`_build_batch`; `train` builds them once and passes them to every epoch
    as `_batch`).  One forward pass runs all samples together on those plans
    (`_forward_pass`); the adjoint then goes back through it, turn by turn
    and layer by layer, as one `(n, N)` array, reading each layer's input
    monomials from the plan's buffers.  Per
    layer it is one Jᵀ·adj matmul over all samples (`_adjoint_layout`),
    plus, for a layer trained on every weight, one weight-gradient product
    `adj @ mono.T` on the forward monomials.  A frozen layer's Jacobian
    layout is built once per batch, over its live degrees only, and so is a
    kick-only layer's with its symplectic penalty; a fully trained layer's
    is built each call from its map's cached Jacobian.
    """
    batch = _build_batch(net, samples, config) if _batch is None else _batch
    fit_x0 = bool(config and config.fit_initial_condition)
    fit_params = bool(config and config.fit_parameters)
    me, dreadings = _forward_pass(net, batch)
    n = net.state_dim
    read, cols = _tap_rows(n)
    grads = {i: np.zeros_like(net.layers[i].map.flat_coefficients()) for i in batch.trainable}
    for li, layer in enumerate(net.layers):
        if li not in batch.full and li not in batch.tape:
            batch.tape[li] = _adjoint_layout(layer.map, layer.map._live[0])
    jts = [_adjoint_layout(l.map, l.map.basis) if li in batch.full else batch.tape[li]
           for li, l in enumerate(net.layers)]
    names = net.param_names()
    rows = [[names.index(p) for p in l.params] for l in net.layers]
    n_samples = len(batch.order)
    dparams = np.zeros((len(names), n_samples))
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
                grads[li] += a @ mono.T
            elif li in batch.kicks:
                grads[li][:, 0] += a.sum(axis=1)  # the constant monomial is 1
            jt, p = jts[li]
            full = jt @ a if p == 1 else jt @ (a[:, None] * mono[:p]).reshape(-1, k)
            if fit_params and layer.params:
                dparams[rows[li], :k] += full[n:]
            a = full[:n]
        adj[:, :k] = a

    x0_grads = [np.zeros(n) for _ in batch.order]
    param_grads = [{} for _ in batch.order]
    for c, si in enumerate(batch.order):
        if fit_x0:
            x0_grads[si] = adj[:, c].copy()
        if fit_params and batch.turns[si]:
            param_grads[si] = {name: float(dparams[j, c]) for j, name in enumerate(names)}

    s = 0.0
    for i in batch.trainable:
        tmap = net.layers[i].map
        if i in batch.kicks:
            # W0 moves neither the residual nor the penalty; its gradient on W0 is exactly 0
            if i not in batch.sym:
                batch.sym[i] = float(np.sum(_residual(tmap, n)[0].coeffs ** 2))
            s += batch.sym[i]
        else:
            residual, jd = _residual(tmap, n)
            s += float(np.sum(residual.coeffs ** 2))
            if sym_weight != 0.0:
                grads[i] += sym_weight * _weight_gradient(tmap, residual, jd)
        grads[i] *= net.layers[i].trainable_mask()
    return grads, x0_grads, param_grads, me, s


def train(net: Network, samples, config: TrainConfig) -> tuple[Network, TrainReport]:
    """Adam with global-norm gradient clipping; deterministic; leaves `samples` as they are.

    The samples are scattered onto the network, and one pass plan per turn
    built, once (`_build_batch`); an epoch hands the plans each trained
    layer's new matrix, and rewrites the states and parameter values only
    when it fits them.  A kick-only layer moves through
    `TaylorMap.with_constant`, so its live pair and Jacobian carry over from
    epoch to epoch.
    """
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
    batch = _build_batch(net, samples, config)

    moments = {}

    def adam_update(key, theta, g, step):
        if key in moments:
            m, v = moments[key]
        else:
            m, v = np.zeros_like(theta), np.zeros_like(theta)
        m = config.beta1 * m + (1 - config.beta1) * g
        v = config.beta2 * v + (1 - config.beta2) * g * g
        moments[key] = (m, v)
        mhat = m / (1 - config.beta1 ** step)
        vhat = v / (1 - config.beta2 ** step)
        return theta - config.learning_rate * mhat / (np.sqrt(vhat) + config.epsilon)

    for epoch in range(config.epochs):
        grads, x0_grads, param_grads, me, sym = gradients(net, samples, config.sym_weight,
                                                          config, _batch=batch)
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
            if i in batch.kicks:
                w0 = adam_update(i, m.flat_coefficients()[:, 0], scale * grads[i][:, 0], step)
                net.layers[i].map = m.with_constant(w0)
            else:
                w = adam_update(i, m.flat_coefficients(), scale * grads[i], step)
                net.layers[i].map = TaylorMap.from_flat(w, m.n_in, m.order)
            batch.update(i, net.layers[i].map)
        if config.fit_initial_condition:
            for si in range(len(samples)):
                x0s[si] = adam_update(("x0", si), x0s[si], scale * x0_grads[si], step)
        if config.fit_parameters:
            for si, pg in enumerate(param_grads):
                for name, g in pg.items():
                    new = adam_update(("param", si, name),
                                      np.float64(pvals[si][name]), scale * g, step)
                    pvals[si][name] = float(new)
        if config.fit_initial_condition or config.fit_parameters:
            batch.refresh(x0s, pvals)
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
