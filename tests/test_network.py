"""Network assembly, forward passes, tap equivalence, serialization."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from polytrack import elements as elem
from polytrack.lattice import parse_lattice, plan_segments, split_at_monitors
from polytrack.network import (MODEL_FORMAT_VERSION, Layer, ModelFormatError, Network,
                               ParameterError, TrackRecord, _Pass, _param_embedding,
                               _tap_rows, build_network, forward, forward_batch, load_model,
                               one_turn_map, save_model)
from polytrack.polymap import ShapeError, TaylorMap, compose_chain

from conftest import (FODO12_TEXT, FODO_MONITORED_TEXT, SEXTUPOLE_RING_TEXT, achromat_text,
                      build, cell_ring_text, full_evaluate, perfbench_lattices, random_map,
                      reference_forward)


def test_merge_policies_agree_at_taps(rng):
    per_el = build(FODO_MONITORED_TEXT, merge="per_element")
    minimal = build(FODO_MONITORED_TEXT, merge="minimal")
    assert len(minimal.layers) < len(per_el.layers)
    for _ in range(100):
        x0 = rng.uniform(-1e-3, 1e-3, size=4)
        _, taps_a = forward(per_el, x0)
        _, taps_b = forward(minimal, x0)
        assert set(taps_a) == set(taps_b)
        for name in taps_a:
            np.testing.assert_allclose(np.asarray(taps_a[name]),
                                       np.asarray(taps_b[name]),
                                       rtol=0, atol=1e-12)


def test_forward_matches_composed_map(rng):
    # Composing two quadratic (sextupole) layers truncates degree-3/4 cross
    # terms, so the identity holds only where those terms are negligible;
    # at |X0| ~ 1e-5 the truncated remainder is ~5e-15, far below tolerance.
    net = build(FODO12_TEXT)
    composed = one_turn_map(net)
    for _ in range(100):
        x0 = rng.uniform(-1e-5, 1e-5, size=4)
        out, _ = forward(net, x0)
        np.testing.assert_allclose(out, composed(x0), rtol=0, atol=1e-12)


def test_zero_input_stays_zero():
    net = build(FODO_MONITORED_TEXT)
    out, taps = forward(net, np.zeros(4))
    assert np.all(out == 0.0)
    for v in taps.values():
        assert np.all(np.asarray(v) == 0.0)


def test_drift_plus_monitor_single_tapped_layer():
    net = build("d: drift, l=1.0;\nm: monitor;\ns: sequence = (d, m);",
                merge="minimal")
    assert len(net.layers) == 1
    assert net.layers[0].tap


def test_batch_forward_matches_singles(rng):
    net = build(FODO12_TEXT)
    x0 = rng.uniform(-1e-3, 1e-3, size=(50, 4))
    batch, _ = forward_batch(net, x0)
    for i in range(50):
        single, _ = forward(net, x0[i])
        np.testing.assert_allclose(batch[i], single, rtol=0, atol=1e-14)


# (network, parameter values) of the lattices that the single-particle path runs on
NETS = {
    "fodo12": lambda: (build(FODO12_TEXT), None),
    "achromat": lambda: (build(achromat_text({i: (-1) ** i * 1e-4 for i in range(1, 11)}),
                               merge="minimal"), None),
    "sextupole_ring": lambda: (build(SEXTUPOLE_RING_TEXT), None),
    "parametric": lambda: (build(cell_ring_text(20, parametric_cell=7), merge="minimal"),
                           {"qf7": 0.63}),
}


@pytest.mark.parametrize("name", ["sextupole_ring", "parametric"])  # FODO12: the test above
def test_forward_and_forward_batch_agree(rng, name):
    net, params = NETS[name]()
    x0 = rng.uniform(-1e-3, 1e-3, size=(20, 4))
    batch, batch_taps = forward_batch(net, x0, params)
    for i in range(20):
        single, taps = forward(net, x0[i], params)
        assert np.max(np.abs(batch[i] - single)) <= 1e-14
        for label, reading in taps.items():
            assert np.max(np.abs(batch_taps[label][i] - reading)) <= 1e-14


@pytest.mark.parametrize("name", ["fodo12", "achromat", "sextupole_ring", "parametric"])
def test_forward_matches_full_basis_evaluation(rng, name):
    net, params = NETS[name]()
    x0 = rng.uniform(-1e-3, 1e-3, size=(50, 4))
    for x in x0:
        y, taps = forward(net, x, params)
        ref, ref_taps = reference_forward(net, x, params, evaluate=full_evaluate)
        assert np.max(np.abs(y - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert taps.keys() == ref_taps.keys()
        for label, reading in taps.items():
            assert np.max(np.abs(np.subtract(reading, ref_taps[label]))) <= 1e-14 * np.max(np.abs(ref))


def _one_layer_ring():
    """A single tapped sextupole-and-quadrupole layer: its output is the next turn's input."""
    ring = [elem.quad_map(0.5, 0.6), elem.sextupole_map(0.2, 40.0), elem.drift_map(1.0)]
    return Network([Layer(compose_chain(ring), tap=True, label="bpm")])


def _constant_layer_in_the_middle():
    """FODO12 with a tapped layer whose map is its constant alone (live degree 0) after layer 5."""
    net = build(FODO12_TEXT)
    flat = np.zeros((4, net.layers[0].map.basis.size))
    flat[:, 0] = [1e-4, -2e-5, 3e-4, 4e-5]
    const = Layer(TaylorMap.from_flat(flat, 4, 2), tap=True, label="const")
    taps = [replace(l, tap=True, label=f"t{i}") for i, l in enumerate(net.layers)]
    return Network(taps[:6] + [const] + taps[6:])


def _two_dimensional():
    """A 2-D (x, x') line: a quadrupole, a random quadratic map and a bound parametric quadrupole."""
    layers = [Layer(elem.quad_map(0.5, 0.6, n=2), tap=True, label="q1"),
              Layer(random_map(np.random.default_rng(5), 2), label="nonlinear"),
              Layer(elem.parametric_quad_map(0.5, order=2, phase_dim=2), tap=True, label="pq",
                    kind="parametric", params=("k",)),
              Layer(elem.drift_map(1.0, n=2), tap=True, label="d")]
    return Network(layers)


# (network, parameter values) of every layout the single-particle pass has to get right
PASS_NETS = dict(NETS, **{
    "one_layer": lambda: (_one_layer_ring(), None),
    "constant_layer": lambda: (_constant_layer_in_the_middle(), None),
    "two_dimensional": lambda: (_two_dimensional(), {"k": -0.4}),
})


@pytest.mark.parametrize("name", list(PASS_NETS))
def test_forward_bit_equal_to_per_layer_loop(rng, name):
    net, params = PASS_NETS[name]()
    for x in rng.uniform(-2e-3, 2e-3, size=(20, net.state_dim)):
        y, taps = forward(net, x, params)
        ref, ref_taps = reference_forward(net, x, params)
        assert y.tobytes() == ref.tobytes() and y.shape == ref.shape
        assert list(taps) == list(ref_taps) == net.tap_labels()
        for label, reading in taps.items():
            assert np.array(reading).tobytes() == np.array(ref_taps[label]).tobytes()
            if net.state_dim == 2:
                assert reading[1] == 0.0


@pytest.mark.parametrize("full", [False, True], ids=["live", "full-basis"])
@pytest.mark.parametrize("name", ["fodo12", "achromat", "sextupole_ring", "parametric"])
def test_column_plan_matches_one_state_forwards(rng, name, full):
    """A plan over N particles-last columns gives each column's one-state pass, taps too."""
    net, params = NETS[name]()
    n_cols = 16
    x0 = rng.uniform(-2e-3, 2e-3, size=(net.state_dim, n_cols))
    # the parametric ring gets a different strength in every column
    col_params = [None if params is None else {k: v + 0.01 * c for k, v in params.items()}
                  for c in range(n_cols)]
    pairs = {li: (l.map.basis, l.map.flat_coefficients()) for li, l in enumerate(net.layers)}
    plan = _Pass(net, col_params, n_cols, pairs if full else None)
    plan.load(x0)
    plan.run()
    rows, cols = _tap_rows(net.state_dim)
    for c in range(n_cols):
        y, taps = forward(net, x0[:, c], col_params[c])
        scale = np.max(np.abs(y))
        assert np.max(np.abs(plan.state_out[:, c] - y)) <= 1e-14 * scale
        for out, reading in zip(plan.taps, taps.values()):
            assert np.max(np.abs(out[rows, c] - np.array(reading)[cols])) <= 1e-14 * scale


def test_forward_output_is_a_new_array(rng):
    net, _ = PASS_NETS["one_layer"]()
    x0 = rng.uniform(-1e-3, 1e-3, size=4)
    keep = x0.copy()
    y, taps = forward(net, x0)
    assert not np.shares_memory(y, x0)
    assert x0.tobytes() == keep.tobytes()
    y[:] = 1.0  # neither the returned state nor the input feeds a later call
    x0[:] = 0.5
    again, again_taps = forward(net, keep)
    ref, ref_taps = reference_forward(net, keep)
    assert again.tobytes() == ref.tobytes() and again_taps == ref_taps


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros(5), np.zeros((1, 4)), np.zeros((4, 1)),
                                np.zeros(())], ids=["3", "5", "1x4", "4x1", "scalar"])
def test_forward_rejects_wrong_shape_state(x0):
    with pytest.raises(ShapeError):
        forward(build(FODO12_TEXT), x0)


def test_fodo12_has_12_layers():
    net = build(FODO12_TEXT, merge="per_element")
    assert len(net.layers) == 12


def test_two_drifts_compose_to_one_drift():
    net = build("d: drift, l=1.0;\ns: sequence = (d, d);")
    m = one_turn_map(net)
    assert m.weights[1][0, 1] == pytest.approx(2.0, abs=1e-15)


def test_save_load_bit_exact():
    net = build(FODO12_TEXT)
    blob = save_model(net)
    again = load_model(blob)
    assert again.state_dim == net.state_dim and again.order == net.order
    for a, b in zip(net.layers, again.layers):
        assert a.label == b.label and a.tap == b.tap
        assert a.trainable == b.trainable and a.params == b.params
        for wa, wb in zip(a.map.weights, b.map.weights):
            # 0-ulp: identical bit patterns after the round trip
            assert np.array_equal(wa.view(np.uint64), wb.view(np.uint64))


def test_layers_of_another_order_rejected():
    layers = [Layer(elem.drift_map(1.0, order=2), tap=True, label="d2"),
              Layer(elem.drift_map(1.0, order=3), tap=True, label="d3")]
    with pytest.raises(ValueError, match="layer 1 \\('d3'\\) has 4 outputs at order 3, expected 4 at order 2"):
        Network(layers)
    net = Network(layers[:1])
    assert (net.state_dim, net.order) == (4, 2)


@pytest.mark.parametrize("name", list(PASS_NETS) + ["order_3", "per_element"])
def test_every_network_round_trips_bit_exactly(name):
    if name == "order_3":
        net = build(FODO_MONITORED_TEXT, order=3, merge="minimal")
    elif name == "per_element":
        net = build(cell_ring_text(4, parametric_cell=2))
    else:
        net = PASS_NETS[name]()[0]
    blob = save_model(net)
    again = load_model(blob)
    assert (again.state_dim, again.order) == (net.state_dim, net.order)
    assert save_model(again) == blob
    for a, b in zip(net.layers, again.layers):
        assert a.map.flat_coefficients().tobytes() == b.map.flat_coefficients().tobytes()


def test_load_truncated_raises_format_error():
    blob = save_model(build(FODO12_TEXT))
    with pytest.raises(ModelFormatError):
        load_model(blob[: len(blob) // 2])


def test_load_version_mismatch_raises():
    doc = json.loads(save_model(build(FODO12_TEXT)))
    doc["version"] = MODEL_FORMAT_VERSION + 1
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc).encode())


MODEL_TEXT = ("q: quadrupole, l=0.5, k1=0.8, parametric=true;\nd: drift, l=1.0;\n"
              "m1: monitor;\nc: hcorrector, kick=1e-4;\ns: sequence = (q, d, c, m1);")


def _model_doc():
    return json.loads(save_model(build(MODEL_TEXT, merge="minimal")))


def _duplicate_taps(doc):
    doc["layers"].append(dict(doc["layers"][-1]))
    return doc


@pytest.mark.parametrize("make", [
    lambda: 5, lambda: [], lambda: "model", lambda: None,
    lambda: {**_model_doc(), "layers": []},
    lambda: {**_model_doc(), "layers": 5},
    lambda: {**_model_doc(), "layers": [None]},
    lambda: _duplicate_taps(_model_doc()),
], ids=["number", "list", "string", "null", "no-layers", "layers-not-list",
        "layer-not-object", "duplicate-taps"])
def test_malformed_model_raises_format_error(make):
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(make()).encode())


def test_load_model_total_on_mutated_files():
    """Random values and deletions anywhere in a model file: loads or ModelFormatError."""
    base = _model_doc()
    values = [5, -1, 0, 2.5, "x", None, True, [], {}, [1, 2], {"a": 1}, 1e308, ["m1"], [[1.0]]]

    def paths(node, prefix=()):
        yield prefix
        children = node.items() if isinstance(node, dict) else \
            enumerate(node[:3]) if isinstance(node, list) else ()
        for k, v in children:
            yield from paths(v, prefix + (k,))

    where = list(paths(base))[1:]
    rng = np.random.default_rng(20260826)
    for _ in range(1000):
        doc = copy.deepcopy(base)
        if rng.integers(20) == 0:
            doc = values[rng.integers(len(values))]
        for _ in range(rng.integers(1, 3)):
            path = where[rng.integers(len(where))]
            try:
                parent = doc
                for k in path[:-1]:
                    parent = parent[k]
                if isinstance(parent, dict) and rng.integers(4) == 0:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(values[rng.integers(len(values))])
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation removed or replaced the path
        try:
            load_model(json.dumps(doc).encode())
        except ModelFormatError:
            pass


def test_param_embedding_bit_equal_to_block_reference():
    for state_dim, values, order in ((4, [0.8], 2), (2, [0.3, -1.2], 3)):
        w = TaylorMap.zero_weights(state_dim, state_dim + len(values), order)
        w[0][state_dim:, 0] = values
        w[1][:state_dim, :] = np.eye(state_dim)
        ref = TaylorMap(state_dim, state_dim + len(values), order, tuple(w))
        got = _param_embedding(state_dim, order, values)
        assert got.flat_coefficients().tobytes() == ref.flat_coefficients().tobytes()


def test_missing_parameter_value_raises():
    text = ("q: quadrupole, l=0.5, k1=0.8, parametric=true;\n"
            "d: drift, l=1.0;\ns: sequence = (q, d);")
    net = build(text)
    with pytest.raises(ParameterError, match="q"):
        forward(net, np.array([1e-3, 0.0, 0.0, 0.0]))
    with pytest.raises(ParameterError, match="'q'"):
        forward(net, np.array([1e-3, 0.0, 0.0, 0.0]), params={"k": 0.8})
    out, _ = forward(net, np.array([1e-3, 0.0, 0.0, 0.0]), params={"q": 0.8})
    assert np.all(np.isfinite(out))


def _line_1519():
    defs = ["d: drift, l=0.1;", "q: quadrupole, l=0.2, k1=0.9;"]
    defs += [f"m{i}: monitor;" for i in range(506)]
    cells = ", ".join(f"d, q, m{i}" for i in range(506)) + ", d"  # 1519 elements
    return "\n".join(defs) + f"\ns: sequence = ({cells});"


def test_large_synthetic_network_builds_and_serializes():
    net = build(_line_1519(), merge="per_element")
    assert len(net.layers) == 1519
    again = load_model(save_model(net))
    assert len(again.layers) == 1519


# -- one map per distinct element and segment -------------------------------------

def _reference_build(doc, order, merge_policy):
    """`build_network` as it was before it shared maps: every element built on its own."""
    layers = []
    for seg in plan_segments(doc, merge_policy):
        maps = [elem.element_map(doc.definitions[name], 4, order) for name in seg.element_names]
        params = (doc.definitions[seg.element_names[0]].name,) if seg.kind == "parametric" else ()
        layers.append(Layer(compose_chain(maps), tap=seg.tap, trainable=seg.trainable,
                            label=seg.label, kind=seg.kind, params=params))
    return Network(layers)


@pytest.mark.parametrize("order", [2, 3])
def test_shared_maps_bit_equal_to_building_every_element(order):
    for text, merge in perfbench_lattices():
        doc = split_at_monitors(parse_lattice(text))
        for policy in (merge, {"minimal": "per_element", "per_element": "minimal"}[merge]):
            got, want = build_network(doc, order, policy), _reference_build(doc, order, policy)
            assert len(got.layers) == len(want.layers)
            for a, b in zip(got.layers, want.layers):
                assert (a.label, a.tap, a.trainable, a.kind, a.params) == \
                       (b.label, b.tap, b.trainable, b.kind, b.params)
                assert a.map.flat_coefficients().tobytes() == b.map.flat_coefficients().tobytes()
            assert save_model(got) == save_model(want)


def test_1519_layer_line_builds_three_element_maps(monkeypatch):
    calls = []
    original = elem.element_map

    def counted(spec, *args, **kwargs):
        calls.append(spec.name)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(elem, "element_map", counted)
    net = build(_line_1519(), merge="per_element")
    assert len(net.layers) == 1519
    assert calls == ["d", "q", "m0"]  # each distinct element once, at its first appearance
    assert len({id(l.map) for l in net.layers}) == 3
    calls.clear()
    net = build(_line_1519(), merge="minimal")
    assert len(calls) == 3 and len({id(l.map) for l in net.layers}) == 2  # (d, q, m) cells, last d


def test_signed_zero_kicks_keep_their_own_bits():
    net = build("p: hcorrector, kick=0.0;\nn: hcorrector, kick=-0.0;\n"
                "p2: hcorrector, kick=0.0;\nd: drift, l=1.0;\n"
                "s: sequence = (p, d, n, d, p2);")
    p, n, p2 = (net.layers[i].map for i in (0, 2, 4))
    assert p is p2 and n is not p
    assert not np.signbit(p.flat_coefficients()[1, 0])
    assert np.signbit(n.flat_coefficients()[1, 0])
    again = load_model(save_model(net))
    assert np.signbit(again.layers[2].map.flat_coefficients()[1, 0])


def test_indented_model_file_still_loads_bit_exactly():
    net = build(cell_ring_text(4, parametric_cell=2), order=3, merge="minimal")
    blob = save_model(net)
    assert b"\n" not in blob  # compact JSON
    indented = json.dumps(json.loads(blob), indent=1).encode()  # the earlier file layout
    assert len(indented) > len(blob)
    again = load_model(indented)
    for a, b in zip(net.layers, again.layers):
        assert (a.label, a.tap, a.trainable, a.kind, a.params) == \
               (b.label, b.tap, b.trainable, b.kind, b.params)
        assert a.map.flat_coefficients().tobytes() == b.map.flat_coefficients().tobytes()
    assert save_model(again) == blob


# -- track CSV -------------------------------------------------------------------

def _track_csv(*rows):
    return "turn,tap,x,y,valid\n" + "".join(r + "\n" for r in rows)


def test_track_csv_round_trip():
    rec = TrackRecord.empty(["a", "b"], 3)
    rec.readings[:] = np.arange(12.0).reshape(3, 2, 2) * 1e-4
    rec.valid[2, 1] = False
    again = TrackRecord.from_csv(rec.to_csv())
    assert again.tap_labels == ["a", "b"]
    assert np.array_equal(again.readings, rec.readings)
    assert np.array_equal(again.valid, rec.valid)


def test_track_csv_negative_turn_rejected():
    text = _track_csv("0,a,1e-3,0.0,1", "1,a,2e-3,0.0,1", "-1,a,9.0,9.0,1")
    with pytest.raises(ValueError, match="negative turn"):
        TrackRecord.from_csv(text)


@pytest.mark.parametrize("x, y", [("nan", "0.0"), ("0.0", "inf"), ("-inf", "nan")])
def test_track_csv_nonfinite_valid_reading_rejected(x, y):
    with pytest.raises(ValueError, match="non-finite"):
        TrackRecord.from_csv(_track_csv("0,a,1e-3,0.0,1", f"1,a,{x},{y},1"))


def test_track_csv_nonfinite_invalid_reading_kept_masked():
    rec = TrackRecord.from_csv(_track_csv("0,a,1e-3,0.0,1", "1,a,nan,nan,0"))
    assert rec.valid[:, 0, 0].tolist() == [True, False]


def test_track_csv_duplicate_row_rejected():
    text = _track_csv("0,a,1e-3,0.0,1", "0,b,1e-3,0.0,1", "1,a,2e-3,0.0,1", "0,a,9.0,9.0,0")
    with pytest.raises(ValueError, match="duplicate row for turn 0, tap 'a'"):
        TrackRecord.from_csv(text)


def test_track_csv_missing_turn_reads_invalid():
    rec = TrackRecord.from_csv(_track_csv("0,a,1e-3,0.0,1", "2,a,2e-3,0.0,1"))
    assert rec.n_turns == 3
    assert rec.valid[:, 0, 0].tolist() == [True, False, True]


def test_track_csv_short_row_rejected():
    with pytest.raises(ValueError, match="missing"):
        TrackRecord.from_csv(_track_csv("0,a,1e-3"))
