"""Layered polynomial-map network with BPM taps and parameter bindings.

One pass plan (`_Pass`) sends a state through the layers: each layer owns
one monomial buffer over its live basis, with its constant and bound
parameter values written once, and each layer's output is written straight
into the state slots of the next layer's buffer.  The same plan runs one
state `(n,)` or a particles-last batch of columns `(n, N)`.  `forward` runs
it once on one state, the multi-turn trackers in `analysis` build it once
and run it every turn, and training builds one per turn over its samples
and runs it every epoch.  `_tap_rows` is the one definition of the state
rows a tap reads.  `forward_batch` runs the layers on a batch of states
through `evaluate_batch`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import elements as elem
from .basis import ORDERING_TAG
from .lattice import LatticeDoc, plan_segments
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


def _tap_rows(n: int) -> tuple[slice, slice]:
    """(state rows, reading columns) of a tap: x, and y for a state of 4 or more coordinates."""
    return (slice(0, 3, 2), slice(0, 2)) if n >= 4 else (slice(0, 1), slice(0, 1))


class _Pass:
    """A plan for sending one state, or a batch of columns, through every layer.

    Built once and run any number of times.  Without `columns` the state is
    one vector `(n,)`; with it the state is particles-last `(n, columns)`
    and every buffer below gains that trailing axis.  Each layer runs on its
    live pair (`TaylorMap._live`), or on the (basis, coefficients) pair that
    `pairs` gives for its index, and gets one monomial buffer sized to that
    basis, never shorter than its constant and input slots.  Training passes
    its trained layers that way: a layer trained on every weight runs on its
    full basis (its zero weights still get a gradient) with a view of the
    trained values, a corrector on a copy of its live coefficients that takes
    each new kick in place.  The constant 1 and the parameter values
    (`set_params`: a {name: value} map, or one per column) are written
    once, here, so a missing parameter raises `ParameterError` before any
    layer runs.  `run` grows each buffer in place (`MonomialBasis.grow`, for
    layers of degree >= 2) and writes the layer's output with one
    `coeffs.dot(mono, out=...)` straight into the state slots of the next
    layer's buffer; the last layer writes into `state_out`, which is not
    `state_in`, so a one-layer ring never reads what it writes.  `taps`
    holds the tapped layers' outputs and `monos` each layer's monomials,
    both as of the last run.  The values and the arithmetic are those of
    `evaluate` layer by layer.
    """

    def __init__(self, net: Network, params=None, columns: int | None = None, pairs=None):
        n = net.state_dim
        self.state_out = out = np.empty(n if columns is None else (n, columns))
        self.layers, self.taps, self._params = [], [], []
        li = len(net.layers)
        for layer in reversed(net.layers):  # each layer's output is the next one's input slots
            li -= 1
            tmap = layer.map
            basis, coeffs = pairs[li] if pairs and li in pairs else tmap._live
            size = max(basis.size, 1 + tmap.n_in)
            mono = np.empty(size if columns is None else (size, columns))
            mono[0] = 1.0
            if layer.params:
                self._params.append((layer, mono[1 + n:1 + tmap.n_in]))
            grow = basis.grow if basis.max_order >= 2 else None
            live = mono if size == basis.size else mono[:basis.size]  # shorter: live degree 0
            self.layers.append((grow, coeffs, live, out))
            if layer.tap:
                self.taps.append(out)
            out = mono[1:1 + n]
        self.layers.reverse()
        self.taps.reverse()
        self.state_in = out  # the first layer's state slots
        if self._params:
            self.set_params(params)

    def set_params(self, params) -> None:
        """Write the parametric layers' inputs: a {name: value} map, or one per column."""
        for layer, slots in self._params:
            slots[:] = (_param_values(layer, params) if slots.ndim == 1
                        else np.transpose([_param_values(layer, p) for p in params]))

    def load(self, x0) -> None:
        """Copy a state, or a batch of columns, into the first layer's slots."""
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

    @property
    def monos(self) -> list:
        """Each layer's monomial buffer, in layer order."""
        return [mono for _, _, mono, _ in self.layers]

    def readings(self) -> list:
        """(x, y) at each tap of a one-state pass after the last `run`, in tap order."""
        rows, cols = _tap_rows(len(self.state_out))
        pad = (0.0,) * (2 - cols.stop)  # y reads 0 without a y row
        return [tuple(x.tolist()[rows]) + pad for x in self.taps]


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
    rows, cols = _tap_rows(net.state_dim)
    taps = {}
    for layer in net.layers:
        if layer.params:
            extra = np.array(_param_values(layer, params), dtype=np.float64)
            x = np.hstack([x, np.broadcast_to(extra, (x.shape[0], extra.size))])
        x = evaluate_batch(layer.map, x)
        if layer.tap:
            taps[layer.label] = reading = np.zeros((x.shape[0], 2))
            reading[:, cols] = x[:, rows]
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
                  paper_compat: bool = False) -> Network:
    """Build layer maps from a monitor-split lattice document."""
    plan = plan_segments(doc, merge_policy)
    n = doc.dim
    layers = []
    for seg in plan.segments:
        if seg.kind == "parametric":
            spec = doc.definitions[seg.element_names[0]]
            m = elem.element_map(spec, n, order, paper_compat=paper_compat)
            layers.append(Layer(m, tap=seg.tap, trainable=seg.trainable,
                                label=seg.label, kind="parametric", params=(spec.name,)))
            continue
        maps = [elem.element_map(doc.definitions[name], n, order, paper_compat=paper_compat)
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
