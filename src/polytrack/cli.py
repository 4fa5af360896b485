"""Command-line front end.

Subcommands: build, track, portrait, tune, train, correct, thread.
Exit codes: 0 ok, 2 input/parse error, 3 build error, 4 numerical
divergence, 5 infeasible correction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, correction, kernels, lattice, network, training
from .elements import DivergenceError, ElementError
from .lattice import LatticeError
from .network import ModelFormatError, ParameterError
from .training import TrainingDivergence

EXIT_INPUT = 2
EXIT_BUILD = 3
EXIT_DIVERGED = 4
EXIT_INFEASIBLE = 5


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _read(path) -> str:
    p = Path(path)
    if not p.exists():
        raise CliError(f"input file not found: {path}")
    return p.read_text()


def _load_net(path) -> network.Network:
    try:
        return network.load_model(Path(path).read_bytes())
    except FileNotFoundError:
        raise CliError(f"model file not found: {path}")
    except ModelFormatError as exc:
        raise CliError(f"{path}: {exc}")


def _parse_vec(text, what="--x0") -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise CliError(f"{what} must be a comma-separated list of numbers")


def _parse_params(pairs) -> dict | None:
    if not pairs:
        return None
    out = {}
    for p in pairs:
        if "=" not in p:
            raise CliError(f"--param needs name=value, got '{p}'")
        name, _, value = p.partition("=")
        try:
            out[name] = float(value)
        except ValueError:
            raise CliError(f"--param '{name}' needs a numeric value")
    return out


def _tracked(run, *args, **kwargs):
    """Call a tracker; a negative turn count or a missing --param is an input error."""
    try:
        return run(*args, **kwargs)
    except ParameterError as exc:
        raise CliError(f"{exc.args[0]} (bind it with --param name=value)")
    except ValueError as exc:  # n_turns < 0
        raise CliError(str(exc))


def _misalignments(misalign, definitions) -> dict:
    """Validated scenario `misalign`: element name -> (dx, dy) of finite numbers."""
    if not isinstance(misalign, dict):
        raise CliError("scenario 'misalign' must map element names to [dx, dy] pairs")
    out = {}
    for name, offset in misalign.items():
        if name not in definitions:
            raise CliError(f"scenario 'misalign' names '{name}', which the lattice does not define")
        if not (isinstance(offset, list) and len(offset) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and np.isfinite(v) for v in offset)):
            raise CliError(f"scenario 'misalign' entry '{name}' must be a [dx, dy] pair of "
                           f"finite numbers, got {offset!r}")
        out[name] = tuple(float(v) for v in offset)
    return out


def cmd_build(args) -> int:
    try:
        doc = lattice.parse_lattice(_read(args.lattice))
        doc = lattice.split_at_monitors(doc)
    except LatticeError as exc:
        print(f"error: {args.lattice}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        net = network.build_network(doc, order=args.order, merge_policy=args.merge,
                                    paper_compat=args.paper_compat)
    except (ElementError, ValueError) as exc:
        print(f"error: build failed: {exc}", file=sys.stderr)
        return EXIT_BUILD
    Path(args.output).write_bytes(network.save_model(net))
    print(f"{len(net.layers)} layers, total length {doc.total_length():g} m -> {args.output}")
    return 0


def cmd_track(args) -> int:
    net = _load_net(args.model)
    x0 = _parse_vec(args.x0)
    if x0.size != net.state_dim:
        raise CliError(f"--x0 has {x0.size} entries, model expects {net.state_dim}")
    rec = _tracked(analysis.track_turns, net, x0, args.turns, aperture=args.aperture,
                   params=_parse_params(args.param))
    Path(args.output).write_text(rec.to_csv())
    print(f"{args.turns} turns x {len(rec.tap_labels)} taps -> {args.output}")
    return 0


def cmd_portrait(args) -> int:
    net = _load_net(args.model)
    amps = _parse_vec(args.amplitudes, "--amplitudes")
    pts = _tracked(analysis.phase_portrait, net, amps, args.turns, aperture=args.aperture,
                   params=_parse_params(args.param))
    Path(args.output).write_text(analysis.portrait_csv(pts))
    if args.gnuplot_hints:
        print(f"# gnuplot:\nset datafile separator ','\n"
              f"plot '{args.output}' using 3:4 with dots")
    print(f"{len(amps)} amplitudes x {args.turns} turns -> {args.output}")
    return 0


def cmd_tune(args) -> int:
    try:
        rec = network.TrackRecord.from_csv(_read(args.track))
    except (KeyError, ValueError) as exc:
        raise CliError(f"{args.track}: malformed track CSV: {exc}")
    if args.tap not in rec.tap_labels:
        raise CliError(f"tap '{args.tap}' not present in {args.track}")
    series = rec.series(args.tap, 0 if args.plane == "x" else 1)
    valid = rec.valid[:, rec.tap_labels.index(args.tap), 0]
    series = series[valid]
    try:
        result = analysis.tune_fft(series)
    except analysis.FlatSignalError as exc:
        raise CliError(str(exc), EXIT_DIVERGED)
    except ValueError as exc:
        raise CliError(str(exc))
    Path(args.output).write_text(result.to_json(args.plane))
    print(f"Q{args.plane} = {result.q:.6f} -> {args.output}")
    return 0


def cmd_train(args) -> int:
    net = _load_net(args.model)
    try:
        samples = training.samples_from_csv(_read(args.data), _read(args.x0_json))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"bad training data: {exc}")
    config = training.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                  sym_weight=args.sym_weight, clip_norm=args.clip_norm,
                                  trainable_labels=args.trainable.split(",") if args.trainable else None,
                                  fit_initial_condition=args.fit_x0)
    try:
        trained, report = training.train(net, samples, config)
    except TrainingDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        raise CliError(str(exc))
    Path(args.output).write_bytes(network.save_model(trained))
    if args.report:
        Path(args.report).write_text(report.to_json())
    if report.loss:
        print(f"loss {report.loss[0]:.3e} -> {report.loss[-1]:.3e} over {args.epochs} epochs")
    else:
        print("0 epochs: model unchanged")
    return 0


def cmd_correct(args) -> int:
    net = _load_net(args.model)
    try:
        observed = network.TrackRecord.from_csv(_read(args.observed))
    except (KeyError, ValueError) as exc:
        raise CliError(f"{args.observed}: malformed track CSV: {exc}")
    try:
        result = correction.correct_orbit(net, observed, method=args.method,
                                          c_max=args.c_max)
    except correction.InfeasibleCorrection as exc:
        print(f"error: infeasible correction: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # observed data the model cannot use, e.g. a missing BPM
        raise CliError(f"{args.observed}: {exc}")
    Path(args.output).write_bytes(network.save_model(result.network))
    if args.result:
        Path(args.result).write_text(result.to_json())
    if args.kicks:
        Path(args.kicks).write_text(result.kicks_csv())
    print(f"orbit rms {result.rms_before:.3e} -> {result.rms_after:.3e} m")
    return 0


def cmd_thread(args) -> int:
    try:
        scenario = json.loads(_read(args.scenario))
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.scenario}: {exc}")
    if not isinstance(scenario, dict):
        raise CliError(f"{args.scenario}: a scenario must be a JSON object")
    try:
        doc = lattice.parse_lattice(_read(scenario["lattice"]))
        doc = lattice.split_at_monitors(doc)
    except LatticeError as exc:
        raise CliError(f"{scenario.get('lattice')}: {exc}")
    except KeyError:
        raise CliError("scenario is missing the 'lattice' key")
    order = scenario.get("order", 2)
    merge = scenario.get("merge", "minimal")
    ideal = network.build_network(doc, order=order, merge_policy=merge)

    rng = np.random.default_rng(scenario.get("seed", args.seed))
    err_doc = lattice.parse_lattice(lattice.serialize_lattice(doc))
    for name, (dx, dy) in _misalignments(scenario.get("misalign", {}), err_doc.definitions).items():
        err_doc.definitions[name].dx = dx
        err_doc.definitions[name].dy = dy
    sigma = scenario.get("misalign_sigma", 0.0)
    if sigma:
        for spec in err_doc.definitions.values():
            if spec.kind in ("quadrupole", "sextupole"):
                spec.dx += rng.normal(0.0, sigma)
    machine = network.build_network(err_doc, order=order, merge_policy=merge)
    sim = correction.MachineSim(machine, noise_sigma=scenario.get("noise_sigma", 0.0),
                                aperture=scenario.get("aperture", 10e-3),
                                seed=scenario.get("seed", args.seed))
    log = correction.thread_beam(sim, ideal,
                                 max_iterations=scenario.get("max_iterations", 10),
                                 c_max=scenario.get("c_max", 1e-3))
    Path(args.output).write_text(json.dumps(log, indent=1))
    final = log[-1]
    print(f"{len(log)} iterations, {final['n_valid']} valid BPMs, rms {final['rms']:.3e} m")
    if final["n_valid"] < len(ideal.tap_labels()):
        return EXIT_INFEASIBLE
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polytrack",
                                description="Polynomial-map lattice modeling, tracking and correction")
    p.add_argument("--version", action="version",
                   version=f"polytrack 0.1.0 (model format v{network.MODEL_FORMAT_VERSION})")
    p.add_argument("--threads", type=int, default=None, help="cap worker threads")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="parse a lattice and write a model file")
    b.add_argument("lattice")
    b.add_argument("--order", type=int, default=2)
    b.add_argument("--merge", choices=("minimal", "per_element"), default="minimal")
    b.add_argument("--paper-compat", action="store_true",
                   help="zero the x'*k second-order term of parametric quadrupoles")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=cmd_build)

    t = sub.add_parser("track", help="multi-turn tracking to a CSV record")
    t.add_argument("model")
    t.add_argument("--x0", required=True, help="comma-separated initial state")
    t.add_argument("--turns", type=int, required=True)
    t.add_argument("--aperture", type=float, default=10e-3)
    t.add_argument("--param", action="append", default=[], help="name=value parametric binding")
    t.add_argument("-o", "--output", required=True)
    t.set_defaults(func=cmd_track)

    pp = sub.add_parser("portrait", help="phase-portrait point clouds to CSV")
    pp.add_argument("model")
    pp.add_argument("--amplitudes", required=True)
    pp.add_argument("--turns", type=int, default=512)
    pp.add_argument("--aperture", type=float, default=10e-3)
    pp.add_argument("--param", action="append", default=[])
    pp.add_argument("--gnuplot-hints", action="store_true")
    pp.add_argument("-o", "--output", required=True)
    pp.set_defaults(func=cmd_portrait)

    tu = sub.add_parser("tune", help="fractional tune from a track CSV")
    tu.add_argument("track")
    tu.add_argument("--tap", required=True)
    tu.add_argument("--plane", choices=("x", "y"), default="x")
    tu.add_argument("-o", "--output", required=True)
    tu.set_defaults(func=cmd_tune)

    tr = sub.add_parser("train", help="fine-tune model weights on trajectory data")
    tr.add_argument("model")
    tr.add_argument("--data", required=True, help="sample,turn,tap,x,y,valid CSV")
    tr.add_argument("--x0-json", required=True, help="sidecar JSON of injection states")
    tr.add_argument("--epochs", type=int, default=100)
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--sym-weight", type=float, default=1.0)
    tr.add_argument("--clip-norm", type=float, default=1.0)
    tr.add_argument("--trainable", default=None, help="comma-separated layer labels")
    tr.add_argument("--fit-x0", action="store_true")
    tr.add_argument("--report", default=None)
    tr.add_argument("-o", "--output", required=True)
    tr.set_defaults(func=cmd_train)

    co = sub.add_parser("correct", help="single-pass orbit correction")
    co.add_argument("model")
    co.add_argument("--observed", required=True, help="track CSV of the measured orbit")
    co.add_argument("--method", choices=("lstsq", "adam"), default="lstsq")
    co.add_argument("--c-max", type=float, default=1e-3)
    co.add_argument("--result", default=None, help="write CorrectionResult JSON here")
    co.add_argument("--kicks", default=None, help="write kick CSV here")
    co.add_argument("-o", "--output", required=True)
    co.set_defaults(func=cmd_correct)

    th = sub.add_parser("thread", help="iterative beam threading on a scenario")
    th.add_argument("scenario", help="scenario config JSON")
    th.add_argument("--seed", type=int, default=0)
    th.add_argument("-o", "--output", required=True)
    th.set_defaults(func=cmd_thread)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads:
        kernels.set_num_threads(args.threads)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
