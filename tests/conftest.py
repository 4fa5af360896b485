"""Shared lattices and helpers for the test suite."""

import numpy as np
import pytest

from polytrack.lattice import parse_lattice, split_at_monitors
from polytrack.network import _param_values, build_network
from polytrack.polymap import TaylorMap, evaluate
from polytrack.basis import n_monomials

# The 12-element FODO cell: 8 magnets (2 quadrupoles, 2 sextupoles, 4 bends)
# and 4 drifts, so a per-element network has exactly 12 layers.
FODO12_TEXT = """
qf: quadrupole, l=0.5, k1=0.6;
qd: quadrupole, l=0.5, k1=-0.6;
sf: sextupole, l=0.2, k2=3.0;
sd: sextupole, l=0.2, k2=-3.0;
b:  sbend, l=1.0, angle=0.05;
d:  drift, l=0.6;
cell: sequence, ring=true = (qf, sf, d, b, b, d, qd, sd, d, b, b, d);
"""

# Same cell with two monitors so minimal merging and taps can be exercised.
FODO_MONITORED_TEXT = """
qf: quadrupole, l=0.5, k1=0.6;
qd: quadrupole, l=0.5, k1=-0.6;
sf: sextupole, l=0.2, k2=3.0;
sd: sextupole, l=0.2, k2=-3.0;
b:  sbend, l=1.0, angle=0.05;
d:  drift, l=0.6;
m1: monitor;
m2: monitor;
cell: sequence, ring=true = (qf, sf, d, b, b, d, m1, qd, sd, d, b, b, d, m2);
"""

# 100 per-element layers, (qf, d, sx, qd) x 25, closed as a ring: 25 of them nonlinear.
SEXTUPOLE_RING_TEXT = """
d: drift, l=0.5;
qf: quadrupole, l=0.5, k1=0.6;
qd: quadrupole, l=0.5, k1=-0.6;
sx: sextupole, l=0.2, k2=1.0;
line: sequence, ring=true = (""" + ", ".join(["qf, d, sx, qd"] * 25) + ");"

# Stable linear FODO ring with one BPM (tune tests).
LINEAR_RING_TEXT = """
qf: quadrupole, l=0.5, k1=0.6;
qd: quadrupole, l=0.5, k1=-0.6;
d:  drift, l=1.0;
bpm: monitor;
ring: sequence, ring=true = (qf, d, qd, d, bpm);
"""


def resonant_ring_text(k2: float) -> str:
    """4-cell ring with fractional tune near 1/3; k2=0 gives the linear case."""
    lines = [
        "qf: quadrupole, l=0.5, k1=0.78;",
        "qd: quadrupole, l=0.5, k1=-0.78;",
        "d: drift, l=0.5;",
        f"sf: sextupole, l=0.2, k2={k2!r};",
        "bpm: monitor;",
    ]
    seq = []
    for i in range(4):
        seq.append("qf, d, sf, d, qd, d, d" + (", bpm" if i == 3 else ""))
    lines.append("ring: sequence, ring=true = (" + ", ".join(seq) + ");")
    return "\n".join(lines)


def cell_ring_text(n_cells: int = 20, parametric_cell: int | None = None,
                   detuned_cell: int | None = None, detuned_k1: float = 0.72) -> str:
    """n-cell FODO ring with one BPM per cell; optionally one special qf."""
    lines = ["d1: drift, l=1.0;"]
    seq = []
    for i in range(1, n_cells + 1):
        extra = ""
        if i == parametric_cell:
            extra = ", parametric=true"
        k1 = detuned_k1 if i == detuned_cell else 0.6
        lines.append(f"qf{i}: quadrupole, l=0.5, k1={k1!r}{extra};")
        lines.append(f"qd{i}: quadrupole, l=0.5, k1=-0.6;")
        lines.append(f"bpm{i}: monitor;")
        seq.append(f"qf{i}, d1, qd{i}, d1, bpm{i}")
    lines.append("ring: sequence, ring=true = (" + ", ".join(seq) + ");")
    return "\n".join(lines)


def achromat_text(dx: dict | None = None) -> str:
    """Arc cell with 11 BPMs, 10 horizontal correctors and 7 bends."""
    lines = ["d: drift, l=0.4;"]
    seq = []
    for i in range(1, 11):
        sign = 1.5 if i % 2 else -1.5
        dxs = f", dx={dx[i]!r}" if dx else ""
        lines.append(f"c{i}: hcorrector, kick=0.0;")
        lines.append(f"q{i}: quadrupole, l=0.3, k1={sign}{dxs};")
        lines.append(f"m{i}: monitor;")
        cell = f"c{i}, d, q{i}, d"
        if i <= 7:
            lines.append(f"b{i}: sbend, l=0.8, angle=0.08;")
            cell += f", b{i}, d"
        seq.append(cell + f", m{i}")
    lines.append("m11: monitor;")
    seq.append("d, m11")
    lines.append("cell: sequence = (" + ", ".join(seq) + ");")
    return "\n".join(lines)


def transfer_line_text(bad_dx: float = 0.0, bad_cell: int = 6, n: int = 12) -> str:
    """Transfer line with one corrector and one BPM per cell."""
    lines = ["d: drift, l=0.5;"]
    seq = []
    for i in range(1, n + 1):
        sign = 1.2 if i % 2 else -1.2
        dxs = f", dx={bad_dx!r}" if i == bad_cell and bad_dx else ""
        lines.append(f"c{i}: hcorrector, kick=0.0;")
        lines.append(f"q{i}: quadrupole, l=0.3, k1={sign}{dxs};")
        lines.append(f"m{i}: monitor;")
        seq.append(f"c{i}, d, q{i}, d, m{i}")
    lines.append("line: sequence = (" + ", ".join(seq) + ");")
    return "\n".join(lines)


def build(text: str, order: int = 2, merge: str = "per_element", **kw):
    doc = split_at_monitors(parse_lattice(text))
    return build_network(doc, order=order, merge_policy=merge, **kw)


def random_map(rng, n_in: int, n_out: int | None = None, order: int = 2,
               scale: float = 0.5) -> TaylorMap:
    n_out = n_in if n_out is None else n_out
    weights = [scale * rng.standard_normal((n_out, n_monomials(n_in, d)))
               for d in range(order + 1)]
    return TaylorMap(n_in, n_out, order, tuple(weights))


def full_evaluate(tmap: TaylorMap, x0) -> np.ndarray:
    """Evaluation over every monomial of the map's order, zero columns included."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (tmap.n_in,):
        raise ValueError(f"input has shape {x0.shape}, map expects ({tmap.n_in},)")
    return tmap.flat_coefficients() @ tmap.basis.eval_flat(x0)


def layer_input(layer, x: np.ndarray, params) -> np.ndarray:
    """The state with the layer's bound parameter values appended, as the layer reads it."""
    if not layer.params:
        return x
    return np.concatenate([x, np.asarray(_param_values(layer, params), dtype=np.float64)])


def reference_forward(net, x0, params=None, evaluate=evaluate):
    """The per-layer loop `forward` ran before the pass plan: append, evaluate, read taps.

    Pass `evaluate=full_evaluate` to evaluate every layer on its full basis.
    """
    x = np.asarray(x0, dtype=np.float64)
    taps = {}
    for layer in net.layers:
        x = evaluate(layer.map, layer_input(layer, x, params))
        if layer.tap:
            xs = x.tolist()
            taps[layer.label] = (xs[0], xs[2] if len(xs) >= 4 else 0.0)
    return x, taps


def weight_block(flat, basis, degree: int) -> np.ndarray:
    """Columns of a flat (n_out, basis.size) matrix that belong to one degree."""
    return flat[:, basis.offsets[degree]:basis.offsets[degree] + basis.block_size(degree)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
