"""Layered polynomial-map network with BPM taps and parameter bindings.

`forward` sends one state through the layers on a pass plan (`_Pass`):
each layer owns one monomial vector over its live basis, with its
constant and bound parameter values written once, and each layer's output
is written straight into the state slots of the next layer's vector.  The
multi-turn trackers in `analysis` build the plan once and run it every
turn.  `forward_batch` runs the layers on a batch of states.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import elements as elem
from .basis import ORDERING_TAG
from .lattice import LatticeDoc, SegmentPlan, plan_segments
from .polymap import ShapeError, TaylorMap, compose, compose_chain, evaluate_batch

MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Malformed or incompatible model file."""


class ParameterError(KeyError):
    """A parametric layer was evaluated without its parameter value."""


@dataclass(eq=False)
class Layer:
    map: TaylorMap
    tap: bool = False
    trainable: bool = False
    label: str = ""
    kind: str = "map"  # map | hcorrector | vcorrector | parametric
    params: tuple = ()  # names of extra trailing inputs

    @property
    def kick_row(self) -> int:
        """Output row whose constant term a corrector kicks: x', or y' for a 4-D vcorrector."""
        return 1 if self.kind == "hcorrector" or self.map.n_out == 2 else 3

    def trainable_mask(self) -> np.ndarray:
        """Which flat weight entries training may touch (correctors: the kick only)."""
        shape = self.map.flat_coefficients().shape
        if self.kind not in ("hcorrector", "vcorrector"):
            return np.ones(shape, dtype=bool)
        mask = np.zeros(shape, dtype=bool)
        mask[self.kick_row, 0] = True
        return mask


@dataclass(eq=False)
class Network:
    layers: list
    state_dim: int
    order: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            m = layer.map
            if m.n_out != self.state_dim:
                raise ValueError(f"layer {i} ('{layer.label}') outputs {m.n_out}, expected {self.state_dim}")
            if m.n_in != self.state_dim + len(layer.params):
                raise ValueError(f"layer {i} ('{layer.label}') takes {m.n_in} inputs, "
                                 f"expected {self.state_dim}+{len(layer.params)} params")
        taps = self.tap_labels()
        if len(taps) != len(set(taps)):
            dup = next(t for t in taps if taps.count(t) > 1)
            raise ValueError(f"duplicate tap label '{dup}': readings would be ambiguous")

    def tap_labels(self) -> list[str]:
        return [l.label for l in self.layers if l.tap]

    def copy(self) -> "Network":
        return Network([replace(l) for l in self.layers], self.state_dim, self.order)

    def param_names(self) -> list[str]:
        seen = []
        for l in self.layers:
            for p in l.params:
                if p not in seen:
                    seen.append(p)
        return seen


def _param_values(layer: Layer, params) -> list:
    """The values `params` binds to the layer's parameter inputs, in input order."""
    if params is None:
        raise ParameterError(f"layer '{layer.label}' needs parameters {layer.params}")
    try:
        return [params[p] for p in layer.params]
    except KeyError as exc:
        raise ParameterError(f"missing parameter value for {exc.args[0]!r}") from None


def _position(x: np.ndarray) -> tuple[float, float]:
    xs = x.tolist()
    return (xs[0], xs[2] if len(xs) >= 4 else 0.0)


class _Pass:
    """A plan for sending one state through every layer, built once and run any number of times.

    Each layer gets one monomial vector sized to its live basis
    (`TaylorMap._live`), and never shorter than its constant and input
    slots.  The constant 1 and the values `params` binds to the layer's
    parameter inputs are written once, here, so a missing parameter raises
    `ParameterError` before any layer runs.  `run` grows each vector in
    place (`MonomialBasis.grow`, for layers of live degree >= 2) and writes
    the layer's output with one `coeffs.dot(mono, out=...)` straight into
    the state slots of the next layer's vector; the last layer writes into
    `state_out`, which is not `state_in`, so a one-layer ring never reads
    what it writes.  The values and the arithmetic are those of `evaluate`
    layer by layer.
    """

    def __init__(self, net: Network, params=None):
        n = net.state_dim
        self.state_out = out = np.empty(n)
        self.layers, self.taps = [], []  # taps: outputs of the tapped layers
        for layer in reversed(net.layers):  # each layer's output is the next one's input slots
            tmap = layer.map
            basis, coeffs = tmap._live
            mono = np.empty(max(basis.size, 1 + tmap.n_in))
            mono[0] = 1.0
            if layer.params:
                mono[1 + n:1 + tmap.n_in] = _param_values(layer, params)
            grow = basis.grow if basis.max_order >= 2 else None
            self.layers.append((grow, coeffs, mono[:basis.size], out))
            if layer.tap:
                self.taps.append(out)
            out = mono[1:1 + n]
        self.layers.reverse()
        self.taps.reverse()
        self.state_in = out  # the first layer's state slots

    def load(self, x0) -> None:
        """Copy a state into the first layer's slots."""
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != self.state_in.shape:
            raise ShapeError(f"input has shape {x0.shape}, network expects {self.state_in.shape}")
        self.state_in[:] = x0

    def run(self) -> None:
        """One pass from `state_in` to `state_out`; each tap's output stays readable until the next."""
        for grow, coeffs, mono, out in self.layers:
            if grow is not None:
                grow(mono)
            coeffs.dot(mono, out=out)  # the product of evaluate, written in place

    def readings(self) -> list:
        """(x, y) at each tap after the last `run`, in tap order."""
        return [_position(out) for out in self.taps]


def forward(net: Network, x0, params=None):
    """Propagate one state through all layers.

    Returns (final state, taps) where taps maps each tap label to its (x, y)
    reading.  The state is a new array; `x0` is only read.
    """
    plan = _Pass(net, params)
    plan.load(x0)
    plan.run()
    return plan.state_out, dict(zip(net.tap_labels(), plan.readings()))


def forward_batch(net: Network, x0s, params=None):
    """Batch forward; returns (final states (N, n), taps label -> (N, 2))."""
    x = np.asarray(x0s, dtype=np.float64)
    taps = {}
    for layer in net.layers:
        if layer.params:
            extra = np.array(_param_values(layer, params), dtype=np.float64)
            x = np.hstack([x, np.broadcast_to(extra, (x.shape[0], extra.size))])
        x = evaluate_batch(layer.map, x)
        if layer.tap:
            if net.state_dim >= 4:
                taps[layer.label] = x[:, (0, 2)].copy()
            else:
                taps[layer.label] = np.stack([x[:, 0], np.zeros(x.shape[0])], axis=1)
    return x, taps


def _param_embedding(state_dim: int, order: int, values) -> TaylorMap:
    """Affine map appending fixed parameter values as extra coordinates."""
    values = np.asarray(values, dtype=np.float64)
    n_out = state_dim + values.size
    offset = np.zeros(n_out)
    offset[state_dim:] = values
    return TaylorMap.from_linear(np.eye(n_out, state_dim), offset, order)


def one_turn_map(net: Network, params=None) -> TaylorMap:
    """Left-to-right composition of all layers, truncated at the order."""
    maps = []
    for layer in net.layers:
        if layer.params:
            values = _param_values(layer, params)
            maps.append(compose(_param_embedding(net.state_dim, net.order, values), layer.map))
        else:
            maps.append(layer.map)
    return compose_chain(maps)


# -- construction from a lattice ----------------------------------------------

def build_network(doc: LatticeDoc, order: int = 2, merge_policy: str = "minimal",
                  sextupole_slices: int = 4, paper_compat: bool = False,
                  plan: SegmentPlan | None = None) -> Network:
    """Build layer maps from a monitor-split lattice document."""
    if plan is None:
        plan = plan_segments(doc, merge_policy)
    n = doc.dim
    layers = []
    for seg in plan.segments:
        if seg.kind == "parametric":
            spec = doc.definitions[seg.element_names[0]]
            m = elem.element_map(spec, n, order, sextupole_slices, paper_compat)
            layers.append(Layer(m, tap=seg.tap, trainable=seg.trainable,
                                label=seg.label, kind="parametric", params=(spec.name,)))
            continue
        maps = [elem.element_map(doc.definitions[name], n, order, sextupole_slices, paper_compat)
                for name in seg.element_names]
        m = compose_chain(maps) if maps else TaylorMap.identity(n, order)
        layers.append(Layer(m, tap=seg.tap, trainable=seg.trainable,
                            label=seg.label, kind=seg.kind))
    return Network(layers, state_dim=n, order=order)


# -- serialization --------------------------------------------------------------

def save_model(net: Network) -> bytes:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "order": net.order,
        "state_dim": net.state_dim,
        "basis": ORDERING_TAG,
        "layers": [
            {
                "label": l.label,
                "tap": l.tap,
                "trainable": l.trainable,
                "kind": l.kind,
                "params": list(l.params),
                "weights": {f"W{d}": w.tolist() for d, w in enumerate(l.map.weights)},
            }
            for l in net.layers
        ],
    }
    return json.dumps(doc, indent=1).encode()


def load_model(data: bytes) -> Network:
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON
        raise ModelFormatError(f"not a valid model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("not a valid model file: expected a JSON object")
    for key in ("version", "order", "state_dim", "basis", "layers"):
        if key not in doc:
            raise ModelFormatError(f"model file missing key '{key}'")
    if doc["version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {doc['version']}")
    if doc["basis"] != ORDERING_TAG:
        raise ModelFormatError(f"unsupported basis convention '{doc['basis']}'")
    if not isinstance(doc["layers"], list):
        raise ModelFormatError("'layers' must be a list")
    order, state_dim = doc["order"], doc["state_dim"]
    layers = []
    for i, ld in enumerate(doc["layers"]):
        try:
            params = tuple(ld.get("params", ()))
            n_in = state_dim + len(params)
            weights = [np.array(ld["weights"][f"W{d}"], dtype=np.float64)
                       for d in range(order + 1)]
            layers.append(Layer(TaylorMap(n_in, state_dim, order, tuple(weights)),
                                tap=ld["tap"], trainable=ld["trainable"],
                                label=ld["label"], kind=ld.get("kind", "map"),
                                params=params))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"layer {i}: {exc}") from exc
    try:
        return Network(layers, state_dim=state_dim, order=order)
    except (TypeError, ValueError) as exc:  # no layers, duplicate or unhashable tap labels
        raise ModelFormatError(str(exc)) from exc


# -- turn-by-turn records --------------------------------------------------------

@dataclass
class TrackRecord:
    """Per-turn (x, y) readings at each tap, with a validity mask."""

    tap_labels: list
    readings: np.ndarray  # (n_turns, n_taps, 2)
    valid: np.ndarray  # same shape, bool

    def __post_init__(self):
        self.readings = np.asarray(self.readings, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.valid.shape != self.readings.shape:
            raise ValueError("mask and readings must have identical shape")

    @property
    def n_turns(self) -> int:
        return self.readings.shape[0]

    @classmethod
    def empty(cls, tap_labels, n_turns: int) -> "TrackRecord":
        shape = (n_turns, len(tap_labels), 2)
        return cls(list(tap_labels), np.zeros(shape), np.ones(shape, dtype=bool))

    def series(self, tap: str, coord: int = 0) -> np.ndarray:
        return self.readings[:, self.tap_labels.index(tap), coord]

    def rms(self, mask=None) -> float:
        m = self.valid if mask is None else (self.valid & mask)
        if not m.any():
            return 0.0
        return float(np.sqrt(np.mean(self.readings[m] ** 2)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["turn", "tap", "x", "y", "valid"])
        for t in range(self.n_turns):
            for j, label in enumerate(self.tap_labels):
                w.writerow([t, label, repr(float(self.readings[t, j, 0])),
                            repr(float(self.readings[t, j, 1])), int(self.valid[t, j, 0])])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "TrackRecord":
        return cls._from_rows(list(csv.DictReader(io.StringIO(text))))

    @classmethod
    def _from_rows(cls, rows) -> "TrackRecord":
        """Record from `to_csv` rows (dicts); raises ValueError or KeyError on bad rows.

        A (turn, tap) pair may appear once; turns with no row read as invalid.
        """
        labels = []
        parsed = []
        seen = set()
        for r in rows:
            try:
                t, x, y, valid = int(r["turn"]), float(r["x"]), float(r["y"]), bool(int(r["valid"]))
            except TypeError:  # a short row: csv fills missing fields with None
                raise ValueError(f"row {r} has missing fields") from None
            if t < 0:
                raise ValueError(f"negative turn {t}")
            if valid and not (np.isfinite(x) and np.isfinite(y)):
                raise ValueError(f"non-finite reading at turn {t}, tap '{r['tap']}' marked valid")
            if (t, r["tap"]) in seen:
                raise ValueError(f"duplicate row for turn {t}, tap '{r['tap']}'")
            seen.add((t, r["tap"]))
            if r["tap"] not in labels:
                labels.append(r["tap"])
            parsed.append((t, labels.index(r["tap"]), x, y, valid))
        rec = cls.empty(labels, 1 + max((p[0] for p in parsed), default=-1))
        rec.valid[:] = False
        for t, j, x, y, valid in parsed:
            rec.readings[t, j] = (x, y)
            rec.valid[t, j] = valid
        return rec
