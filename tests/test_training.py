"""Training loop: loss definition, exact gradients, Adam convergence."""

import json
from dataclasses import replace

import numpy as np
import pytest

from polytrack import polymap, symplectic, training
from polytrack.analysis import track_turns
from polytrack.correction import get_kicks, set_kicks
from polytrack.network import Layer, Network, TrackRecord, forward
from polytrack.polymap import ShapeError, evaluate, jacobian
from polytrack.training import (TrainConfig, TrainSample, TrainingDivergence,
                                gradients, loss, samples_from_csv,
                                samples_to_csv, train)

from conftest import LINEAR_RING_TEXT, achromat_text, build, layer_input, random_map, weight_block


X0 = np.array([1e-3, 0.0, 0.5e-3, 0.0])


def _ring():
    return build(LINEAR_RING_TEXT, merge="minimal")


def _sample(net, x0=X0, n_turns=3, params=None):
    return TrainSample(x0=np.array(x0),
                       observed=track_turns(net, x0, n_turns, params=params),
                       params=dict(params) if params else None)


def _random_net(rng, n_layers=3, taps=(0, 2)):
    layers = []
    for i in range(n_layers):
        m = random_map(rng, 4, 4, 2, scale=0.3)
        layers.append(Layer(m, tap=i in taps, trainable=True,
                            label=f"l{i}", kind="map"))
    return Network(layers, state_dim=4, order=2)


def test_loss_zero_on_self_generated_data():
    net = _ring()
    total, me, sym = loss(net, [_sample(net)], sym_weight=1.0)
    assert me == 0.0
    assert total == pytest.approx(sym, abs=1e-24)
    assert sym <= 1e-20  # linear lattice layers are symplectic


def test_single_offset_reading_gives_expected_error():
    net = _ring()
    sample = _sample(net, n_turns=1)
    assert sample.observed.readings.shape[1] == 1  # one BPM
    sample.observed.readings[0, 0, 0] += 1e-3
    sample.mask = np.array([[[True, False]]])  # one scalar reading in play
    _, me, _ = loss(net, [sample], sym_weight=0.0)
    assert me == pytest.approx(1e-6, rel=1e-12)
    sample.mask = None  # averaged over both scalars of the reading
    _, me, _ = loss(net, [sample], sym_weight=0.0)
    assert me == pytest.approx(0.5e-6, rel=1e-12)


def test_masked_readings_are_ignored():
    net = _ring()
    sample = _sample(net, n_turns=2)
    sample.observed.readings[1, 0, 0] += 5.0  # corrupt the second turn
    sample.mask = np.array([[[True, True]], [[False, False]]])
    _, me, _ = loss(net, [sample], sym_weight=0.0)
    assert me == 0.0


def test_all_masked_raises():
    net = _ring()
    sample = _sample(net, n_turns=1)
    sample.mask = np.zeros((1, 1, 2), dtype=bool)
    with pytest.raises(ValueError):
        loss(net, [sample], sym_weight=0.0)


def test_gradients_match_finite_differences(rng):
    net = _random_net(rng)
    target = _random_net(rng)
    obs = track_turns(target, X0, 2, aperture=1e9)
    sample = TrainSample(x0=X0.copy(), observed=obs)
    grads, _, _, _, _ = gradients(net, [sample], sym_weight=1.0)
    h = 1e-5
    checked = 0
    for i, flat in grads.items():
        layer = net.layers[i]
        for d in range(layer.map.order + 1):
            g = weight_block(flat, layer.map.basis, d)
            for _ in range(12):
                r = int(rng.integers(g.shape[0]))
                c = int(rng.integers(g.shape[1]))
                saved = layer.map.weights[d][r, c]

                def perturbed(delta):
                    w = [np.array(w_) for w_ in layer.map.weights]
                    w[d][r, c] = saved + delta
                    trial = net.copy()
                    trial.layers[i].map = layer.map.with_weights(w)
                    t, _, _ = loss(trial, [sample], sym_weight=1.0)
                    return t

                fd = (perturbed(h) - perturbed(-h)) / (2 * h)
                scale = max(abs(fd), abs(g[r, c]), 1e-10)
                assert abs(fd - g[r, c]) / scale <= 1e-6, (i, d, r, c)
                checked += 1
    assert checked >= 100


def test_initial_condition_gradient_matches_finite_differences(rng):
    net = _random_net(rng)
    obs = track_turns(_random_net(rng), X0, 2, aperture=1e9)
    sample = TrainSample(x0=X0.copy(), observed=obs)
    cfg = TrainConfig(fit_initial_condition=True)
    _, x0_grads, _, _, _ = gradients(net, [sample], sym_weight=0.0, config=cfg)
    h = 1e-8
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        lp = loss(net, [TrainSample(x0=X0 + e, observed=obs)], 0.0)[0]
        lm = loss(net, [TrainSample(x0=X0 - e, observed=obs)], 0.0)[0]
        fd = (lp - lm) / (2 * h)
        scale = max(abs(fd), abs(x0_grads[0][c]), 1e-10)
        assert abs(fd - x0_grads[0][c]) / scale <= 1e-5


def test_frozen_layers_get_no_gradients(rng):
    net = _random_net(rng)
    net.layers[1].trainable = False
    obs = track_turns(_random_net(rng), X0, 2, aperture=1e9)
    grads, _, _, _, _ = gradients(net, [TrainSample(x0=X0, observed=obs)])
    assert set(grads) == {0, 2}


@pytest.mark.parametrize("sym_weight", [0.0, 1.0])
def test_one_residual_per_trainable_layer_per_epoch(rng, monkeypatch, sym_weight):
    net = _random_net(rng)
    net.layers[1].trainable = False
    obs = track_turns(_random_net(rng), X0, 2, aperture=1e9)
    calls = []

    def counted(tmap, phase_dim):
        calls.append(tmap)
        return original(tmap, phase_dim)

    original = symplectic._residual
    monkeypatch.setattr(symplectic, "_residual", counted)
    monkeypatch.setattr(training, "_residual", counted)
    train(net, [TrainSample(x0=X0, observed=obs)],
          TrainConfig(epochs=3, learning_rate=1e-6, sym_weight=sym_weight))
    assert len(calls) == 3 * 2


def test_zero_epochs_leaves_weights_bit_identical():
    net = _ring()
    trained, report = train(net, [_sample(net)],
                            TrainConfig(epochs=0, trainable_labels=["bpm"]))
    assert report.epochs == 0 and report.loss == []
    for a, b in zip(net.layers, trained.layers):
        for wa, wb in zip(a.map.weights, b.map.weights):
            assert np.array_equal(wa.view(np.uint64), wb.view(np.uint64))


@pytest.mark.parametrize("name, value", [("clip_norm", -1.0), ("clip_norm", 0.0),
                                         ("clip_norm", np.inf), ("clip_norm", np.nan),
                                         ("learning_rate", 0.0), ("learning_rate", np.nan),
                                         ("learning_rate", np.inf), ("sym_weight", -1.0),
                                         ("sym_weight", np.nan), ("sym_weight", np.inf)])
def test_bad_training_settings_rejected(name, value):
    net = _ring()
    config = TrainConfig(epochs=3, trainable_labels=["bpm"], **{name: value})
    with pytest.raises(ValueError, match=name):
        config.validate()
    with pytest.raises(ValueError, match=name):
        train(net, [_sample(net)], config)


def test_no_trainable_selection_rejected():
    net = _ring()
    with pytest.raises(ValueError):
        train(net, [_sample(net)], TrainConfig(epochs=1, trainable_labels=[]))


def test_training_reduces_loss():
    net = _ring()
    perturbed = net.copy()
    w = [np.array(x) for x in perturbed.layers[0].map.weights]
    w[1][0, 1] *= 1.02
    perturbed.layers[0].map = perturbed.layers[0].map.with_weights(w)
    samples = [_sample(net, x0=X0), _sample(net, x0=-X0)]
    cfg = TrainConfig(epochs=150, learning_rate=1e-3, sym_weight=1.0,
                      trainable_labels=[perturbed.layers[0].label])
    trained, report = train(perturbed, samples, cfg)
    assert report.loss[-1] < report.loss[0] * 0.1


def test_penalty_and_determinant_stay_bounded():
    net = _ring()
    sample = _sample(net, n_turns=4)
    perturbed = net.copy()
    w = [np.array(x) for x in perturbed.layers[0].map.weights]
    w[1][0, 1] *= 1.05  # start from a non-symplectic network
    perturbed.layers[0].map = perturbed.layers[0].map.with_weights(w)
    cfg = TrainConfig(epochs=100, learning_rate=1e-3, sym_weight=1.0,
                      trainable_labels=[perturbed.layers[0].label])
    trained, report = train(perturbed, [sample], cfg)
    assert report.sym[-1] <= 10 * report.sym[0]
    from polytrack.network import one_turn_map
    w1 = one_turn_map(trained).linear_block()
    for sl in (slice(0, 2), slice(2, 4)):
        assert abs(np.linalg.det(w1[sl, sl]) - 1.0) <= 1e-3


def test_parametric_strength_recovered_within_one_percent():
    text = ("q: quadrupole, l=0.5, k1=0.8, parametric=true;\n"
            "d: drift, l=1.0;\nm1: monitor;\nm2: monitor;\n"
            "s: sequence = (q, d, m1, d, q, d, m2);")
    net = build(text, merge="minimal")
    k_true = 0.95
    samples = [_sample(net, x0=x0, n_turns=1, params={"q": k_true})
               for x0 in (X0, -X0, np.array([0.5e-3, 1e-4, -0.5e-3, 0.0]))]
    for s in samples:
        s.params = {"q": 0.8}  # start from the design value
    cfg = TrainConfig(epochs=400, learning_rate=5e-3, sym_weight=0.0,
                      trainable_labels=[], fit_parameters=True)
    _, rep = train(net, samples, cfg)
    assert len(rep.params) == len(samples)
    for p in rep.params:
        assert abs(p["q"] - k_true) / k_true <= 0.01


def test_train_leaves_callers_samples_untouched():
    text = ("q: quadrupole, l=0.5, k1=0.8, parametric=true;\n"
            "d: drift, l=1.0;\nm1: monitor;\n"
            "s: sequence = (q, d, m1, d, q);")
    net = build(text, merge="minimal")
    sample = _sample(net, n_turns=1, params={"q": 0.9})
    sample.params = {"q": 0.8}
    x0_before = sample.x0.copy()
    cfg = TrainConfig(epochs=5, learning_rate=1e-3, sym_weight=0.0, trainable_labels=[],
                      fit_initial_condition=True, fit_parameters=True)
    _, rep = train(net, [sample], cfg)
    assert np.array_equal(sample.x0, x0_before)
    assert sample.params == {"q": 0.8}
    assert not np.array_equal(rep.x0[0], x0_before)
    assert rep.params[0]["q"] != 0.8
    report = json.loads(rep.to_json())
    assert report["x0"] == [list(map(float, rep.x0[0]))]
    assert report["params"] == [{"q": rep.params[0]["q"]}]


def test_training_is_deterministic():
    net = _ring()
    sample_a = _sample(net, n_turns=2)
    sample_a.observed.readings += 1e-4
    sample_b = _sample(net, n_turns=2)
    sample_b.observed.readings += 1e-4
    cfg = TrainConfig(epochs=30, trainable_labels=["bpm"])
    net_a, rep_a = train(net, [sample_a], cfg)
    net_b, rep_b = train(net, [sample_b], cfg)
    assert rep_a.loss == rep_b.loss
    for la, lb in zip(net_a.layers, net_b.layers):
        for wa, wb in zip(la.map.weights, lb.map.weights):
            assert np.array_equal(wa.view(np.uint64), wb.view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_epoch():
    net = _ring()
    sample = _sample(net, n_turns=2)
    sample.observed.readings += 1.0
    cfg = TrainConfig(epochs=5, learning_rate=1e150, clip_norm=1e300,
                      trainable_labels=["bpm"])
    with pytest.raises(TrainingDivergence):
        train(net, [sample], cfg)


def test_samples_csv_round_trip():
    net = _ring()
    samples = [_sample(net, x0=X0, n_turns=3), _sample(net, x0=-X0, n_turns=3)]
    samples[0].observed.valid[2] = False
    csv_text, x0_text = samples_to_csv(samples)
    again = samples_from_csv(csv_text, x0_text)
    assert len(again) == 2
    for a, b in zip(samples, again):
        np.testing.assert_array_equal(a.x0, b.x0)
        np.testing.assert_array_equal(a.observed.readings, b.observed.readings)
        np.testing.assert_array_equal(a.observed.valid, b.observed.valid)
        assert a.observed.tap_labels == b.observed.tap_labels


MIXED_TEXT = ("q: quadrupole, l=0.5, k1=0.8, parametric=true;\n"
              "hc: hcorrector, kick=1e-4;\nvc: vcorrector, kick=-2e-4;\n"
              "d: drift, l=1.0;\nsf: sextupole, l=0.2, k2=3.0;\n"
              "m1: monitor;\nm2: monitor;\n"
              "s: sequence = (q, d, hc, vc, m1, sf, d, m2);")


def _block_adam_reference(net, samples, config):
    """Adam as it ran per weight block before the flat layout, on the same gradients."""
    net = net.copy()
    trainable = [i for i, l in enumerate(net.layers) if l.label in config.trainable_labels]
    moments = {}

    def adam_update(key, theta, g, step):
        m, v = moments.get(key, (np.zeros_like(theta), np.zeros_like(theta)))
        m = training.ADAM_BETA1 * m + (1 - training.ADAM_BETA1) * g
        v = training.ADAM_BETA2 * v + (1 - training.ADAM_BETA2) * g * g
        moments[key] = (m, v)
        mhat = m / (1 - training.ADAM_BETA1 ** step)
        vhat = v / (1 - training.ADAM_BETA2 ** step)
        return theta - config.learning_rate * mhat / (np.sqrt(vhat) + training.ADAM_EPSILON)

    for epoch in range(config.epochs):
        flat, _, _, _, _ = gradients(net, samples, config.sym_weight, config)
        grads = {}
        for i in trainable:
            layer = net.layers[i]
            masks = [np.ones_like(w, dtype=bool) for w in layer.map.weights]
            if layer.kind in ("hcorrector", "vcorrector"):
                masks = [np.zeros_like(w, dtype=bool) for w in layer.map.weights]
                row = 1 if layer.kind == "hcorrector" or layer.map.n_out == 2 else 3
                masks[0][row, 0] = True
            blocks = np.split(flat[i], layer.map.basis.offsets[1:], axis=1)
            grads[i] = [g * m for g, m in zip(blocks, masks)]
        gnorm = np.sqrt(sum(float(np.sum(g ** 2)) for gl in grads.values() for g in gl))
        scale = min(1.0, config.clip_norm / gnorm) if gnorm > 0 else 1.0
        for i in trainable:
            layer = net.layers[i]
            layer.map = layer.map.with_weights(
                [adam_update((i, d), np.array(w), scale * g, epoch + 1)
                 for d, (w, g) in enumerate(zip(layer.map.weights, grads[i]))])
    return net


@pytest.mark.parametrize("sym_weight", [0.0, 1.0])
def test_train_matches_block_adam_reference(sym_weight):
    net = build(MIXED_TEXT)
    machine = net.copy()
    set_kicks(machine, {"hc": 3e-4, "vc": 1e-4})
    samples = [_sample(machine, x0=x0, n_turns=2, params={"q": 0.9})
               for x0 in (X0, np.array([-0.5e-3, 1e-4, 0.8e-3, 0.0]))]
    for s in samples:
        s.params = {"q": 0.8}
    cfg = TrainConfig(epochs=25, learning_rate=2e-5, clip_norm=1e-3, sym_weight=sym_weight,
                      trainable_labels=["q", "hc", "vc", "sf"])
    trained, _ = train(net, samples, cfg)
    reference = _block_adam_reference(net, samples, cfg)
    for before, got, want in zip(net.layers, trained.layers, reference.layers):
        got, want = got.map.flat_coefficients(), want.map.flat_coefficients()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), before.label
        moved = not np.array_equal(got, before.map.flat_coefficients())
        assert moved == (before.label in cfg.trainable_labels), before.label
    assert get_kicks(trained)["hc"] != 1e-4 and get_kicks(trained)["vc"] != -2e-4


def test_corrector_mask_is_the_kick_entry():
    net = build(MIXED_TEXT)
    for layer in net.layers:
        mask = layer.trainable_mask()
        assert mask.shape == layer.map.flat_coefficients().shape
        if layer.kind in ("hcorrector", "vcorrector"):
            assert np.flatnonzero(mask).tolist() == [layer.kick_row * mask.shape[1]]
            assert layer.kick_row == (1 if layer.kind == "hcorrector" else 3)
        else:
            assert mask.all()


@pytest.mark.parametrize("bad_row, message", [("0,-1,bpm,1e-3,0.0,1", "negative turn"),
                                              ("0,1,bpm,nan,0.0,1", "non-finite"),
                                              ("0,1,bpm,1e-3,0.0,1", "duplicate row")])
def test_samples_csv_rejects_bad_rows(bad_row, message):
    csv_text, x0_text = samples_to_csv([_sample(_ring(), n_turns=3)])
    with pytest.raises(ValueError, match=message):
        samples_from_csv(csv_text + bad_row + "\n", x0_text)


def test_samples_csv_rejects_non_object_sidecar():
    csv_text, _ = samples_to_csv([_sample(_ring(), n_turns=1)])
    with pytest.raises(ValueError, match="x0 sidecar"):
        samples_from_csv(csv_text, "5")


# -- the per-sample pass the batched one replaced, kept as a reference ----------

def _reference_me_terms(net, samples):
    """Mean error, reading count and per-sample context, one sample and turn at a time."""
    labels = net.tap_labels()
    contexts = []
    sq_sum = 0.0
    count = 0
    for sample in samples:
        obs = sample.observed
        mask = sample.effective_mask()
        inputs = []  # [turn][layer] state entering that layer, plus the final state
        residual = np.zeros_like(obs.readings)
        x = np.asarray(sample.x0, dtype=np.float64)
        for t in range(obs.n_turns):
            states = [x]
            tap_states = []
            for layer in net.layers:
                x = evaluate(layer.map, layer_input(layer, x, sample.params))
                states.append(x)
                if layer.tap:
                    tap_states.append(np.array([x[0], x[2] if net.state_dim >= 4 else 0.0]))
            inputs.append(states)
            for j, t_label in enumerate(obs.tap_labels):
                residual[t, j] = tap_states[labels.index(t_label)] - obs.readings[t, j]
        sq_sum += float(np.sum((residual[mask]) ** 2))
        count += int(mask.sum())
        contexts.append((inputs, residual, mask))
    return sq_sum / count, count, contexts


def _reference_gradients(net, samples, sym_weight, config):
    """Reverse accumulation sample by sample, re-growing every layer's monomials."""
    trainable = training._trainable_indices(net, config)
    me, count, contexts = _reference_me_terms(net, samples)
    labels = net.tap_labels()
    n = net.state_dim
    grads = {i: np.zeros_like(net.layers[i].map.flat_coefficients()) for i in trainable}
    jacs = [jacobian(l.map) for l in net.layers]
    x0_grads, param_grads = [], []
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
                mono = layer.map.basis.eval_flat(layer_input(layer, inputs[t][li], sample.params))
                if li in trainable:
                    grads[li] += np.outer(adj, mono)
                full = (jacs[li].coeffs @ mono[:jacs[li].basis.size]).T @ adj
                if config.fit_parameters:
                    for k, name in enumerate(layer.params):
                        pg[name] = pg.get(name, 0.0) + float(full[n + k])
                adj = full[:n]
        x0_grads.append(adj if config.fit_initial_condition else np.zeros(n))
        param_grads.append(pg)
    s = 0.0
    for i in trainable:
        tmap = net.layers[i].map
        res, jd = symplectic._residual(tmap, n)
        s += float(np.sum(res.coeffs ** 2))
        if sym_weight != 0.0:
            grads[i] += sym_weight * symplectic._weight_gradient(tmap, res, jd)
        grads[i] *= net.layers[i].trainable_mask()
    return grads, x0_grads, param_grads, me, s


def _close(got, want, bound=1e-14):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return np.max(np.abs(got - want), initial=0.0) <= bound * np.max(np.abs(want), initial=0.0)


def _mixed_samples(net, n_samples=3):
    """Samples with 3, 1 and 2 turns, different tap subsets, masks and parameter values."""
    machine = net.copy()
    set_kicks(machine, {"hc": 3e-4, "vc": 1e-4})
    rng = np.random.default_rng(5)
    specs = [(3, ["m1", "m2"], 0.9), (1, ["m2"], 0.75), (2, ["m2", "m1"], 0.85)]
    samples = []
    for n_turns, taps, k in specs[:n_samples]:
        x0 = rng.uniform(-1e-3, 1e-3, 4)
        full = track_turns(machine, x0, n_turns, params={"q": k}, aperture=1e9)
        cols = [full.tap_labels.index(t) for t in taps]
        obs = TrackRecord(taps, full.readings[:, cols], full.valid[:, cols])
        mask = rng.random(obs.readings.shape) < 0.8
        mask[0, 0] = True
        samples.append(TrainSample(x0=x0 + 1e-5, observed=obs, mask=mask,
                                   params={"q": k - 0.1}))
    return samples


def _assert_matches_reference(trainable, n_samples, sym_weight, fit):
    net = build(MIXED_TEXT)
    samples = _mixed_samples(net, n_samples)
    cfg = TrainConfig(sym_weight=sym_weight, trainable_labels=trainable,
                      fit_initial_condition=fit, fit_parameters=fit)
    got = gradients(net, samples, sym_weight, cfg)
    want = _reference_gradients(net, samples, sym_weight, cfg)
    assert sorted(got[0]) == sorted(want[0]) and len(got[0]) == len(trainable)
    for i in want[0]:
        assert _close(got[0][i], want[0][i]), net.layers[i].label
    for g, w in zip(got[1], want[1]):
        assert _close(g, w)
        assert np.any(g) == fit
    assert [sorted(p) for p in got[2]] == [sorted(p) for p in want[2]]
    for g, w in zip(got[2], want[2]):
        assert _close([g[k] for k in sorted(w)], [w[k] for k in sorted(w)])
    assert _close(got[3], want[3]) and got[4] == want[4]
    total, me, sym = loss(net, samples, sym_weight, cfg)
    assert _close(me, want[3]) and sym == want[4]
    assert _close(total, want[3] + sym_weight * want[4])


@pytest.mark.parametrize("n_samples", [1, 3])
@pytest.mark.parametrize("sym_weight", [0.0, 1.0])
@pytest.mark.parametrize("fit", [False, True])
def test_batched_pass_matches_per_sample_reference(n_samples, sym_weight, fit):
    _assert_matches_reference(["q", "hc", "vc", "sf", "m1"], n_samples, sym_weight, fit)


@pytest.mark.parametrize("trainable", [["m1"], ["hc", "vc"]], ids=["m1", "kicks"])
@pytest.mark.parametrize("fit", [False, True])
def test_frozen_paths_match_per_sample_reference(trainable, fit):
    """The parametric q and the degree-2 sf stay frozen and run on their live degrees."""
    _assert_matches_reference(trainable, 3, 1.0, fit)


def _epoch_loop_reference(net, samples, config):
    """`train` as an epoch loop over the public `gradients` on freshly replaced samples."""
    net = net.copy()
    trainable = training._trainable_indices(net, config)
    x0s = [np.array(s.x0, dtype=np.float64) for s in samples]
    pvals = [dict(s.params) for s in samples]
    moments = {}

    def adam_update(key, theta, g, step):
        m, v = moments.get(key, (np.zeros_like(theta), np.zeros_like(theta)))
        m = training.ADAM_BETA1 * m + (1 - training.ADAM_BETA1) * g
        v = training.ADAM_BETA2 * v + (1 - training.ADAM_BETA2) * g * g
        moments[key] = (m, v)
        mhat = m / (1 - training.ADAM_BETA1 ** step)
        vhat = v / (1 - training.ADAM_BETA2 ** step)
        return theta - config.learning_rate * mhat / (np.sqrt(vhat) + training.ADAM_EPSILON)

    for epoch in range(config.epochs):
        current = [replace(s, x0=x0, params=dict(pv)) for s, x0, pv in zip(samples, x0s, pvals)]
        grads, x0_grads, param_grads, _, _ = gradients(net, current, config.sym_weight, config)
        gnorm = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values())
                        + sum(float(np.sum(g ** 2)) for g in x0_grads)
                        + sum(g * g for pg in param_grads for g in pg.values()))
        scale = min(1.0, config.clip_norm / gnorm) if gnorm > 0 else 1.0
        for i in trainable:
            m = net.layers[i].map
            w = adam_update(i, np.array(m.flat_coefficients()), scale * grads[i], epoch + 1)
            net.layers[i].map = polymap.TaylorMap.from_flat(w, m.n_in, m.order)
        for si in range(len(samples)):
            x0s[si] = adam_update(("x0", si), x0s[si], scale * x0_grads[si], epoch + 1)
            for name, g in param_grads[si].items():
                pvals[si][name] = float(adam_update(("param", si, name),
                                                    np.float64(pvals[si][name]), scale * g,
                                                    epoch + 1))
    return net, x0s, pvals


def test_train_refreshes_states_and_parameters_every_epoch():
    net = build(MIXED_TEXT)
    samples = _mixed_samples(net)
    before = [(s.x0.copy(), dict(s.params), s.observed.readings.copy(), s.mask.copy())
              for s in samples]
    cfg = TrainConfig(epochs=6, learning_rate=1e-4, clip_norm=1e-2, sym_weight=1.0,
                      trainable_labels=["sf", "hc"], fit_initial_condition=True,
                      fit_parameters=True)
    trained, report = train(net, samples, cfg)
    ref_net, ref_x0s, ref_params = _epoch_loop_reference(net, samples, cfg)
    for layer, got, want in zip(net.layers, trained.layers, ref_net.layers):
        assert _close(got.map.flat_coefficients(), want.map.flat_coefficients()), layer.label
    for got, want, (x0, params, _, _) in zip(report.x0, ref_x0s, before):
        assert _close(got, want) and not np.array_equal(got, x0)
    for got, want, (_, params, _, _) in zip(report.params, ref_params, before):
        assert _close(got["q"], want["q"]) and got["q"] != params["q"]
    for s, (x0, params, readings, mask) in zip(samples, before):
        assert np.array_equal(s.x0, x0) and s.params == params
        assert np.array_equal(s.observed.readings, readings) and np.array_equal(s.mask, mask)


def test_plans_built_once_per_call(monkeypatch):
    """`train`, `gradients` and `loss` each build one pass plan per turn, whatever the epochs."""
    net = build(MIXED_TEXT)
    samples = _mixed_samples(net)  # 3, 1 and 2 turns
    built = []

    class CountedPass(training._Pass):
        def __init__(self, *args, **kwargs):
            built.append(args[2])  # the column count
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "_Pass", CountedPass)
    for epochs in (1, 5):
        built.clear()
        cfg = TrainConfig(epochs=epochs, learning_rate=1e-5, trainable_labels=["sf", "hc"],
                          fit_initial_condition=True, fit_parameters=True)
        train(net, samples, cfg)
        assert built == [3, 2, 1]  # the samples still running in each turn
    for call in (gradients, loss):
        built.clear()
        call(net, samples, 1.0, cfg)
        assert built == [3, 2, 1]


def test_kick_only_layers_build_their_caches_once_per_call(monkeypatch):
    net = build(achromat_text({}), merge="minimal")
    machine = build(achromat_text({i: 5e-5 * (-1) ** i for i in range(1, 11)}), merge="minimal")
    sample = TrainSample(np.zeros(4), track_turns(machine, np.zeros(4), 1, aperture=1e9))
    names = [f"c{i}" for i in range(1, 11)]
    jacobians, residuals = [], []
    original_jacobian, original_residual = polymap._jacobian_coeffs, symplectic._residual

    def counted_jacobian(tmap):
        jacobians.append(tmap)
        return original_jacobian(tmap)

    def counted_residual(tmap, phase_dim):
        residuals.append(tmap)
        return original_residual(tmap, phase_dim)

    monkeypatch.setattr(polymap, "_jacobian_coeffs", counted_jacobian)
    monkeypatch.setattr(symplectic, "_residual", counted_residual)
    monkeypatch.setattr(training, "_residual", counted_residual)
    cfg = TrainConfig(epochs=8, learning_rate=1e-5, sym_weight=1.0, trainable_labels=names)
    trained, _ = train(net, [sample], cfg)
    correctors = {id(l.map) for l in net.layers if l.label in names}
    assert len(jacobians) == len(net.layers)  # every map once, each corrector's first one only
    assert correctors <= {id(m) for m in jacobians}
    assert sorted(id(m) for m in residuals) == sorted(correctors)
    moved = get_kicks(trained)
    assert all(moved[n] != 0.0 for n in names)
    # a second call reuses every map's Jacobian and builds each corrector's residual once
    train(net, [sample], cfg)
    assert len(jacobians) == len(net.layers) and len(residuals) == 2 * len(names)


def test_kick_only_training_builds_each_corrector_map_once(monkeypatch):
    """Ten correctors for 8 epochs: one Adam step per epoch on θ, one new map per corrector."""
    net = build(achromat_text({}), merge="minimal")
    machine = build(achromat_text({i: 5e-5 * (-1) ** i for i in range(1, 11)}), merge="minimal")
    sample = TrainSample(np.zeros(4), track_turns(machine, np.zeros(4), 1, aperture=1e9),
                         params={})
    names = [f"c{i}" for i in range(1, 11)]
    cfg = TrainConfig(epochs=8, learning_rate=1e-5, clip_norm=1e-2, sym_weight=1.0,
                      trainable_labels=names)
    built, steps = [], []
    with_constant, adam_step = polymap.TaylorMap.with_constant, training._adam_step

    def counted_with_constant(tmap, w0):
        built.append(tmap)
        return with_constant(tmap, w0)

    def counted_adam_step(theta, *args):
        steps.append(theta.size)
        return adam_step(theta, *args)

    monkeypatch.setattr(polymap.TaylorMap, "with_constant", counted_with_constant)
    monkeypatch.setattr(training, "_adam_step", counted_adam_step)
    trained, _ = train(net, [sample], cfg)
    assert len(built) <= len(names)
    assert steps == [len(names)] * cfg.epochs  # θ holds one entry per kick
    monkeypatch.undo()
    reference, _, _ = _epoch_loop_reference(net, [sample], cfg)
    got, want = get_kicks(trained), get_kicks(reference)
    for name in names:
        assert _close(got[name], want[name]) and got[name] != 0.0, name


def test_adam_correction_sample_matches_per_sample_reference():
    """One sample with no parameters and only kicks trainable, as `_adam_kicks` trains."""
    net = build(achromat_text({}), merge="minimal")
    machine = build(achromat_text({i: 5e-5 * (-1) ** i for i in range(1, 11)}), merge="minimal")
    x0 = np.zeros(4)
    obs = track_turns(machine, x0, 1, aperture=1e9)
    cfg = TrainConfig(sym_weight=0.0, trainable_labels=[f"c{i}" for i in range(1, 11)])
    got = gradients(net, [TrainSample(x0, obs)], 0.0, cfg)
    want = _reference_gradients(net, [TrainSample(x0, obs)], 0.0, cfg)
    assert len(got[0]) == 10
    for i in want[0]:
        assert _close(got[0][i], want[0][i]) and np.any(got[0][i])


def test_jacobians_built_once_per_map(monkeypatch):
    net = build(MIXED_TEXT)
    samples = _mixed_samples(net)
    built = []
    original = polymap._jacobian_coeffs

    def counted(tmap):
        built.append(tmap)  # also keeps each map alive, so ids stay distinct
        return original(tmap)

    monkeypatch.setattr(polymap, "_jacobian_coeffs", counted)
    cfg = TrainConfig(epochs=10, learning_rate=1e-6, sym_weight=1.0, trainable_labels=["sf"],
                      fit_parameters=True)
    trained, _ = train(net, samples, cfg)
    frozen = {id(l.map) for l in net.layers if l.label != "sf"}
    counts = {}
    for m in built:
        counts[id(m)] = counts.get(id(m), 0) + 1
    assert set(counts.values()) == {1}
    assert frozen <= set(counts)
    assert len(built) == len(frozen) + 10  # frozen maps once, the trained layer once per epoch
    # a second fit of the same network reuses every cached Jacobian of its maps:
    # only the nine maps that epochs 2-10 produce are new
    train(net, samples, cfg)
    assert len(built) == len(frozen) + 10 + 9


def test_masked_non_finite_reading_adds_nothing():
    net = _ring()
    sample = _sample(net, n_turns=3)
    sample.observed.readings[1, 0] = np.nan  # as a CSV row marked invalid may carry
    sample.observed.valid[1, 0] = False
    clean = _sample(net, n_turns=3)
    clean.observed.valid[1, 0] = False
    cfg = TrainConfig(epochs=3, learning_rate=1e-6, trainable_labels=["bpm"],
                      fit_initial_condition=True)
    got, want = gradients(net, [sample], 1.0, cfg), gradients(net, [clean], 1.0, cfg)
    for i in want[0]:
        assert np.array_equal(got[0][i], want[0][i])
    assert np.array_equal(got[1][0], want[1][0]) and got[3] == want[3]
    trained, report = train(net, [sample], cfg)
    assert np.all(np.isfinite(report.loss))


def test_wrong_x0_length_rejected():
    net = _ring()
    sample = _sample(net)
    sample.x0 = np.zeros(3)
    with pytest.raises(ShapeError, match="x0"):
        loss(net, [sample])
