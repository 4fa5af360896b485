"""The four seeded user workloads, built only from polytrack's public functions.

Each workload does all of its set-up in ``__init__`` from the seed and then
runs independent ops in a closed loop:

    inputs = w.prepare(i)     # untimed: fresh inputs for op i
    out = w.op(inputs)        # timed
    ok = w.record(i, inputs, out)   # untimed: correctness check, bookkeeping

After the loop ``w.finish()`` runs the checks that are too slow to run per
op and returns the indices of the ops that failed them.  ``w.window`` is the
length of the workload's op cycle (batch sizes, sym_weight, scenarios):
every ``window`` consecutive ops from op 0 on do the same mix of work, so
rates are taken per window.  Library functions
are always looked up on their module at call time, so a tracer that wraps
them there is seen by the benchmark too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polytrack import analysis, correction, lattice, network, training

APERTURE = 10e-3  # m, the end-of-turn loss rule of analysis.track_turns
GRID = 32  # da_scan: particles per axis
# da_scan: turns before the grid is re-injected.  The first two turns carry
# 1024 and ~470 particles, the other 48 the ~250 survivors, so p50 and p90
# both fall inside one batch size instead of between two.
TURNS_PER_SCAN = 50
SAMPLES_PER_OP = 2  # da_scan: survivors re-checked with forward per op
TUNE_TURNS = 256  # tune_scan: turns per ring_tunes call
CAL_SAMPLES = 4  # calibrate: trajectories fitted per op
EPOCHS = 10  # calibrate: epochs per train call


@dataclass(frozen=True)
class Size:
    """How much a run does; the self-test uses a tiny one."""

    min_ops: int = 100  # per timed run, so that at least 10 ops lie beyond p90;
    # also the cap on traced ops and the number of ops in the op checksum
    pool: int = 18  # steer: achromats and transfer lines, one per (bad cell 1..9, sign)
    setup_seconds: float = 2.0  # set-up repeats at least this long in total


FULL = Size()
TINY = Size(min_ops=4, pool=2, setup_seconds=0.0)


# -- lattices --------------------------------------------------------------------

# 100 elements, (qf, d, sx, qd) x 25, closed as a ring
SEXTUPOLE_RING_TEXT = """
d: drift, l=0.5;
qf: quadrupole, l=0.5, k1=0.6;
qd: quadrupole, l=0.5, k1=-0.6;
sx: sextupole, l=0.2, k2=1.0;
line: sequence, ring=true = (""" + ", ".join(["qf, d, sx, qd"] * 25) + ");"


FODO12_TEXT = """
qf: quadrupole, l=0.5, k1=0.6;
qd: quadrupole, l=0.5, k1=-0.6;
sf: sextupole, l=0.2, k2=3.0;
sd: sextupole, l=0.2, k2=-3.0;
b:  sbend, l=1.0, angle=0.05;
d:  drift, l=0.6;
cell: sequence, ring=true = (qf, sf, d, b, b, d, qd, sd, d, b, b, d);
"""


def cell_ring_text(n_cells: int, parametric_cell: int) -> str:
    """FODO ring with one BPM per cell and one parametric focusing quadrupole."""
    defs = ["d1: drift, l=1.0;"]
    seq = []
    for i in range(1, n_cells + 1):
        extra = ", parametric=true" if i == parametric_cell else ""
        defs += [f"qf{i}: quadrupole, l=0.5, k1=0.6{extra};",
                 f"qd{i}: quadrupole, l=0.5, k1=-0.6;", f"bpm{i}: monitor;"]
        seq.append(f"qf{i}, d1, qd{i}, d1, bpm{i}")
    return "\n".join(defs) + "\nring: sequence, ring=true = (" + ", ".join(seq) + ");"


def achromat_text(dx: dict) -> str:
    """Arc with 11 BPMs, 10 horizontal correctors and 7 bends; dx: quad offsets."""
    defs = ["d: drift, l=0.4;"]
    seq = []
    for i in range(1, 11):
        offset = f", dx={dx[i]!r}" if i in dx else ""
        defs += [f"c{i}: hcorrector, kick=0.0;",
                 f"q{i}: quadrupole, l=0.3, k1={1.5 if i % 2 else -1.5}{offset};",
                 f"m{i}: monitor;"]
        cell = f"c{i}, d, q{i}, d"
        if i <= 7:
            defs.append(f"b{i}: sbend, l=0.8, angle=0.08;")
            cell += f", b{i}, d"
        seq.append(cell + f", m{i}")
    defs.append("m11: monitor;")
    seq.append("d, m11")
    return "\n".join(defs) + "\ncell: sequence = (" + ", ".join(seq) + ");"


def transfer_line_text(bad_cell: int = 0, bad_dx: float = 0.0, n: int = 12) -> str:
    """Line with one corrector and one BPM per cell; one quadrupole displaced."""
    defs = ["d: drift, l=0.5;"]
    seq = []
    for i in range(1, n + 1):
        offset = f", dx={bad_dx!r}" if i == bad_cell else ""
        defs += [f"c{i}: hcorrector, kick=0.0;",
                 f"q{i}: quadrupole, l=0.3, k1={1.2 if i % 2 else -1.2}{offset};",
                 f"m{i}: monitor;"]
        seq.append(f"c{i}, d, q{i}, d, m{i}")
    return "\n".join(defs) + "\nline: sequence = (" + ", ".join(seq) + ");"


def build(text: str, merge: str) -> network.Network:
    doc = lattice.split_at_monitors(lattice.parse_lattice(text))
    return network.build_network(doc, order=2, merge_policy=merge)


def round_trip(net: network.Network, rng, params=None) -> tuple[network.Network, bool]:
    """Save and load the model, as the CLI does; True if forwards stay bit-exact."""
    loaded = network.load_model(network.save_model(net))
    probes = rng.uniform(-1e-3, 1e-3, size=(8, net.state_dim))
    a, _ = network.forward_batch(net, probes, params)
    b, _ = network.forward_batch(loaded, probes, params)
    c, _ = network.forward(net, probes[0], params)
    d, _ = network.forward(loaded, probes[0], params)
    exact = a.tobytes() == b.tobytes() and c.tobytes() == d.tobytes()
    return loaded, exact


def weights_checksum(*nets) -> float:
    return float(sum(np.sum(w) for net in nets for l in net.layers for w in l.map.weights))


def linear_tune(block: np.ndarray) -> float:
    """Fractional tune in (0, 0.5] of a stable 2x2 one-turn block."""
    q = float(np.arccos(np.trace(block) / 2) / (2 * np.pi))
    return min(q, 1.0 - q)


class Workload:
    name = ""
    window = 1  # ops per op cycle

    def __init__(self, seed: int, size: Size):
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.setup_ok = True
        self.setup_checksum = 0.0
        self.op_checksum = 0.0
        self.op_evals = []  # particle x layer evaluations of each recorded op

    def prepare(self, i: int):
        raise NotImplementedError

    def op(self, inputs):
        raise NotImplementedError

    def record(self, i: int, inputs, out) -> bool:
        raise NotImplementedError

    def skip(self, i: int) -> None:
        """Bookkeeping for op i, which raised instead of returning."""
        self.op_evals.append(0)

    def finish(self) -> set:
        return set()

    def _sum(self, i: int, value: float) -> None:
        if i < self.size.min_ops:
            self.op_checksum += float(value)


class DaScan(Workload):
    """Dynamic aperture: one op is one turn of the surviving batch."""

    name = "da_scan"
    window = TURNS_PER_SCAN

    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        built = build(SEXTUPOLE_RING_TEXT, "per_element")
        self.net, self.setup_ok = round_trip(built, self.rng)
        self.n_layers = len(self.net.layers)
        axis = np.linspace(-8e-3, 8e-3, GRID)
        step = axis[1] - axis[0]
        gx, gy = np.meshgrid(axis, axis)
        grid = np.zeros((GRID ** 2, 4))
        grid[:, 0] = gx.ravel() + self.rng.uniform(-step / 4, step / 4, gx.size)
        grid[:, 2] = gy.ravel() + self.rng.uniform(-step / 4, step / 4, gy.size)
        self.grid = grid
        self.samples = []  # (op, input row, batch output row)
        self.setup_checksum = weights_checksum(self.net) + float(np.sum(grid))

    def prepare(self, i):
        if i % TURNS_PER_SCAN == 0:
            self.batch = self.grid
        return self.batch

    def op(self, x):
        out, _ = network.forward_batch(self.net, x)
        return out

    def record(self, i, x, out):
        self.op_evals.append(x.shape[0] * self.n_layers)
        alive = np.all(np.isfinite(out), axis=1) & (np.max(np.abs(out), axis=1) <= APERTURE)
        survivors = np.flatnonzero(alive)
        for row in self.rng.choice(survivors, SAMPLES_PER_OP, replace=False):
            self.samples.append((i, x[row].copy(), out[row].copy()))
        self.batch = out[alive]
        self._sum(i, np.sum(self.batch))
        return True

    def finish(self):
        failed = set()
        for i, x, y in self.samples:
            single, _ = network.forward(self.net, x)
            if not np.max(np.abs(single - y)) <= 1e-14:
                failed.add(i)
        return failed


class TuneScan(Workload):
    """Amplitude detuning: one op is one_turn_map plus ring_tunes."""

    name = "tune_scan"
    window = 4  # every op costs the same; 4 make a window of ~0.35 s

    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        self.net, self.setup_ok = round_trip(build(FODO12_TEXT, "per_element"), self.rng)
        self.amplitudes = self.rng.uniform(1e-4, 3e-3, 64)
        self.setup_checksum = weights_checksum(self.net) + float(np.sum(self.amplitudes))

    def prepare(self, i):
        return self.amplitudes[i % len(self.amplitudes)]

    def op(self, amplitude):
        otm = network.one_turn_map(self.net)
        return otm, analysis.ring_tunes(self.net, amplitude=amplitude,
                                        n_turns=TUNE_TURNS)

    def record(self, i, amplitude, out):
        otm, tunes = out
        # no loss below 3 mm, so ring_tunes tracks every turn
        self.op_evals.append(TUNE_TURNS * len(self.net.layers))
        w1 = otm.linear_block()
        ok = all(abs(tunes[p].q - linear_tune(w1[s, s])) <= 1e-3
                 for p, s in (("x", slice(0, 2)), ("y", slice(2, 4))))
        self._sum(i, tunes["x"].q + tunes["y"].q)
        return ok


class Calibrate(Workload):
    """Fit the qf7 layer to trajectories of the detuned machine."""

    name = "calibrate"
    window = 4  # two ops at each sym_weight
    K_DESIGN, K_TRUE = 0.6, 0.72

    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        params = {"qf7": self.K_DESIGN}
        built = build(cell_ring_text(20, parametric_cell=7), "minimal")
        self.net, self.setup_ok = round_trip(built, self.rng, params)
        self.x0s = self.rng.uniform(-1e-3, 1e-3, size=(CAL_SAMPLES, 4))
        self.observed = [analysis.track_turns(self.net, x0, 1, params={"qf7": self.K_TRUE})
                         for x0 in self.x0s]
        self.setup_checksum = weights_checksum(self.net) + float(
            sum(np.sum(o.readings) for o in self.observed))
        self.op_epochs = []

    def prepare(self, i):
        # train() writes fitted x0/params back into its samples: fresh ones per op
        samples = [training.TrainSample(x0=x0.copy(), observed=obs,
                                        params={"qf7": self.K_DESIGN})
                   for x0, obs in zip(self.x0s, self.observed)]
        # a step small enough that the loss falls over 10 epochs at either weight
        config = training.TrainConfig(epochs=EPOCHS, learning_rate=3e-6,
                                      sym_weight=float(i % 2), trainable_labels=["qf7"])
        return samples, config

    def op(self, inputs):
        samples, config = inputs
        return training.train(self.net, samples, config)

    def record(self, i, inputs, out):
        _, report = out
        turns = sum(o.n_turns for o in self.observed)
        self.op_evals.append(report.epochs * turns * len(self.net.layers))
        self.op_epochs.append(report.epochs)
        losses = np.asarray(report.loss)
        self._sum(i, losses[-1])
        return bool(len(losses) == report.epochs and np.all(np.isfinite(losses))
                    and losses[-1] <= losses[0])

    def skip(self, i):
        super().skip(i)
        self.op_epochs.append(0)


class Steer(Workload):
    """Orbit correction on an achromat, then threading a transfer line."""

    name = "steer"

    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        self.achromat, ok_a = round_trip(build(achromat_text({}), "minimal"), self.rng)
        self.line, ok_l = round_trip(build(transfer_line_text(), "minimal"), self.rng)
        self.setup_ok = ok_a and ok_l
        zero = np.zeros(4)
        self.orbits = []
        for _ in range(size.pool):
            offsets = {i: float(self.rng.normal(0.0, 100e-6)) for i in range(1, 11)}
            machine = build(achromat_text(offsets), "minimal")
            self.orbits.append(correction.simulate_readings(correction.MachineSim(machine), zero))
        self.sims = []
        for j in range(size.pool):
            # 8.25 mm loses the beam before the last BPM whatever the cell;
            # threading with c_max = 1 mrad recovers up to 9 mm in every cell.
            # Every (cell, sign) pair is in the pool, so that the cost of the
            # op cycle does not depend on the seed.
            sign = -1.0 if j % 2 else 1.0
            dx = sign * float(self.rng.uniform(8.25e-3, 8.75e-3))
            sim = correction.MachineSim(build(transfer_line_text(1 + j // 2 % 9, dx), "minimal"),
                                        aperture=APERTURE)
            lost = not correction.measure_with_losses(sim, zero).valid[0, -1, 0]
            self.setup_ok = self.setup_ok and lost
            self.sims.append(sim)
        self.zero_kicks = {name: 0.0 for name in correction.corrector_labels(self.line)}
        self.setup_checksum = weights_checksum(self.achromat, self.line) + float(
            sum(np.sum(o.readings) for o in self.orbits))
        self.window = size.pool
        self.op_scenarios = []

    def prepare(self, i):
        # op i runs scenario i % pool: achromat orbit and transfer line i % pool
        orbit, sim = self.orbits[i % len(self.orbits)], self.sims[i % len(self.sims)]
        # thread_beam leaves its kicks installed on the machine
        correction.set_kicks(sim.network, self.zero_kicks)
        return orbit, sim

    def op(self, inputs):
        orbit, sim = inputs
        result = correction.correct_orbit(self.achromat, orbit, method="lstsq")
        log = correction.thread_beam(sim, self.line, max_iterations=10, c_max=1e-3)
        return result, log

    def record(self, i, inputs, out):
        result, log = out
        self.op_scenarios.append(i % len(self.sims))
        n_taps = len(self.line.tap_labels())
        self._sum(i, sum(result.kicks.values()) + result.rms_after + log[-1]["rms"])
        return (result.rms_after / result.rms_before <= 0.10
                and log[-1]["n_valid"] == n_taps)

    def skip(self, i):
        self.op_scenarios.append(None)

    def finish(self):
        """Count the ops' particle x layer evaluations by replaying each scenario."""
        original = correction.forward
        counted = []

        def counting_forward(net, *args, **kwargs):
            counted.append(len(net.layers))
            return original(net, *args, **kwargs)

        correction.forward = counting_forward
        try:
            evals = {}
            for scenario in sorted(set(self.op_scenarios) - {None}):
                counted.clear()
                self.op(self.prepare(scenario))
                evals[scenario] = sum(counted)
        finally:
            correction.forward = original
        self.op_evals = [evals.get(s, 0) for s in self.op_scenarios]
        return set()


WORKLOADS = {w.name: w for w in (DaScan, TuneScan, Calibrate, Steer)}
