"""End-to-end acceptance gate: eleven criteria, one reported line each.

Each test prints a single ``criterion N: PASS/FAIL`` line directly to the
terminal (bypassing capture) so the gate can be read off a plain pytest run.
"""

import os
import time

import numpy as np
import pytest
import sympy as sp

from polytrack import kernels
from polytrack.analysis import fit_conic_residual, phase_portrait, ring_tunes, track_turns
from polytrack.correction import (MachineSim, correct_orbit, simulate_readings,
                                  thread_beam)
from polytrack.elements import (OdeRhs, corrector_map, drift_map, ode_to_map,
                                parametric_quad_map, quad_map, sbend_map,
                                sextupole_map)
from polytrack.lattice import LatticeError, parse_lattice, serialize_lattice, split_at_monitors
from polytrack.network import (Layer, Network, build_network, forward,
                               forward_batch, load_model, one_turn_map,
                               save_model)
from polytrack.polymap import TaylorMap
from polytrack.symplectic import symplectic_penalty, symplectic_residual
from polytrack.training import TrainConfig, TrainSample, gradients, loss, train

from conftest import (FODO12_TEXT, FODO_MONITORED_TEXT, LINEAR_RING_TEXT,
                      achromat_text, build, cell_ring_text, random_map,
                      resonant_ring_text, transfer_line_text, weight_block)


@pytest.fixture
def report(capsys):
    def _report(n, ok, detail):
        with capsys.disabled():
            print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
        assert ok, f"criterion {n}: {detail}"
    return _report


def test_criterion_01_parametric_quad_weights(report):
    t0 = time.perf_counter()
    m = parametric_quad_map(1.0)          # inputs (x, x', k)
    mc = parametric_quad_map(1.0, paper_compat=True)
    w1_ok = np.array_equal(m.weights[1], np.array([[1.0, 1.0, 0.0],
                                                   [0.0, 1.0, 0.0]]))
    # degree-2 monomials of (x, x', k): x², xx', xk, x'², x'k, k²
    w2 = m.weights[2]
    w2_ok = (w2[1, 2] == -1.0 and w2[1, 4] == -0.5
             and w2[0, 2] == -0.5 and w2[0, 4] == -1.0 / 6.0)
    compat_ok = mc.weights[2][0, 4] == 0.0
    dt = time.perf_counter() - t0
    report(1, w1_ok and w2_ok and compat_ok and dt < 1.0,
           f"parametric quadrupole weights exact, compat flag honored, {dt:.2f} s")


def test_criterion_02_ode_oracle(report):
    t0 = time.perf_counter()
    p1 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # x'' = -x
    rhs = OdeRhs(2, 1, [np.zeros((2, 1)), p1])
    exact = np.array([[np.cos(1.0), np.sin(1.0)],
                      [-np.sin(1.0), np.cos(1.0)]])
    err = [np.max(np.abs(ode_to_map(rhs, 1.0, 2, steps).weights[1] - exact))
           for steps in (100, 200)]
    dt = time.perf_counter() - t0
    report(2, err[0] <= 1e-10 and err[0] / err[1] >= 12 and dt < 1.0,
           f"RK4 map error {err[0]:.2e} (<=1e-10), halving ratio "
           f"{err[0] / err[1]:.1f} (>=12), {dt:.2f} s")


def test_criterion_03_symplectic_structure(report):
    linear_ok = all(symplectic_penalty(m) <= 1e-20 for m in
                    (drift_map(1.0), quad_map(0.5, 0.6), sbend_map(1.0, 0.05),
                     corrector_map(1e-4, -2e-4)))
    diag_ok = symplectic_penalty(
        TaylorMap.from_linear(np.diag([2.0, 1.0]), order=2)) == pytest.approx(2.0, abs=1e-15)

    # symbolic containment of the five published residual constraints
    x1, x2 = sp.symbols("x1 x2")
    w1 = sp.Matrix(2, 2, lambda i, j: sp.Symbol(f"a{i}{j}"))
    w2 = sp.Matrix(2, 3, lambda i, j: sp.Symbol(f"b{i}{j}"))
    out = w1 * sp.Matrix([x1, x2]) + w2 * sp.Matrix([x1**2, x1 * x2, x2**2])
    d = out.jacobian([x1, x2])
    r01 = sp.expand((d.T * sp.Matrix([[0, 1], [-1, 0]]) * d
                     - sp.Matrix([[0, 1], [-1, 0]]))[0, 1])
    poly = sp.Poly(r01, x1, x2)
    (a, b), (c, dd) = (w1[0, 0], w1[0, 1]), (w1[1, 0], w1[1, 1])
    (p, q, r), (s, t, u) = (w2[0, 0], w2[0, 1], w2[0, 2]), (w2[1, 0], w2[1, 1], w2[1, 2])
    published = {  # monomial -> (positive scale, published constraint)
        (0, 0): (1, a * dd - b * c - 1),
        (1, 0): (1, a * t - c * q + 2 * dd * p - 2 * b * s),
        (0, 1): (1, dd * q - b * t + 2 * a * u - 2 * c * r),
        (1, 1): (4, p * u - r * s),
        (0, 2): (2, q * u - r * t),
    }
    contained = all(sp.simplify(poly.coeff_monomial(e) - k * expr) == 0
                    for e, (k, expr) in published.items())

    m = sextupole_map(0.3, 5.0, slices=4)
    res = symplectic_residual(m)
    k_order = m.order
    scaling_ok = True
    for amp in (1e-2, 1e-3):
        x = np.full(4, amp / 2)
        exponent = np.log2(np.linalg.norm(res(2 * x)) / np.linalg.norm(res(x)))
        scaling_ok &= exponent >= k_order - 0.5
    report(3, linear_ok and diag_ok and contained and scaling_ok,
           "linear elements S<=1e-20, S(diag(2,1))=2, published constraints "
           "contained, sextupole residual scales at order >= k-0.5")


def test_criterion_04_gradient_check(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260826)
    layers = [Layer(random_map(rng, 4, 4, 2, scale=0.3), tap=i != 1,
                    trainable=True, label=f"l{i}", kind="map")
              for i in range(3)]
    net = Network(layers)
    x0 = np.array([1e-3, 0.0, 0.5e-3, 0.0])
    target = Network([Layer(random_map(rng, 4, 4, 2, scale=0.3), tap=i != 1,
                            trainable=True, label=f"l{i}", kind="map")
                      for i in range(3)])
    sample = TrainSample(x0=x0, observed=track_turns(target, x0, 2, aperture=1e9))
    grads, _, _, _, _ = gradients(net, [sample], TrainConfig(sym_weight=1.0))
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        direction = {i: [rng.standard_normal(w.shape) for w in net.layers[i].map.weights]
                     for i in grads}
        norm = np.sqrt(sum(float(np.sum(v ** 2)) for vl in direction.values() for v in vl))
        analytic = sum(float(np.sum(weight_block(grads[i], net.layers[i].map.basis, d) * v))
                       / norm for i in grads for d, v in enumerate(direction[i]))

        def shifted(eps):
            trial = net.copy()
            for i in grads:
                w = [np.array(w_) + eps * v / norm
                     for w_, v in zip(net.layers[i].map.weights, direction[i])]
                trial.layers[i].map = net.layers[i].map.with_weights(w)
            return loss(trial, [sample], TrainConfig(sym_weight=1.0))[0]

        fd = (shifted(h) - shifted(-h)) / (2 * h)
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-10))
    dt = time.perf_counter() - t0
    report(4, worst <= 1e-6 and dt < 10.0,
           f"100 random directions, worst relative gradient error {worst:.2e} "
           f"(<=1e-6), {dt:.1f} s")


def test_criterion_05_network_equivalence(report):
    rng = np.random.default_rng(20260826)
    assert len(build(FODO12_TEXT, merge="per_element").layers) == 12
    per_el = build(FODO_MONITORED_TEXT, merge="per_element")
    minimal = build(FODO_MONITORED_TEXT, merge="minimal")
    tap_gap = 0.0
    for _ in range(100):
        x0 = rng.uniform(-1e-3, 1e-3, size=4)
        _, ta = forward(per_el, x0)
        _, tb = forward(minimal, x0)
        tap_gap = max(tap_gap, max(np.max(np.abs(np.asarray(ta[k]) - np.asarray(tb[k])))
                                   for k in ta))
    composed = one_turn_map(minimal)
    fw_gap = 0.0
    for _ in range(100):
        x0 = rng.uniform(-1e-5, 1e-5, size=4)
        out, _ = forward(minimal, x0)
        fw_gap = max(fw_gap, np.max(np.abs(out - composed(x0))))
    report(5, tap_gap <= 1e-12 and fw_gap <= 1e-12,
           f"12 layers; merge-policy tap gap {tap_gap:.1e}, forward vs "
           f"composed map gap {fw_gap:.1e} (<=1e-12)")


def test_criterion_06_fodo_physics(report):
    t0 = time.perf_counter()
    net = build(LINEAR_RING_TEXT, merge="minimal")
    w1 = one_turn_map(net).linear_block()
    tunes = ring_tunes(net, amplitude=1e-4, n_turns=1024)
    tune_err = max(
        abs(tunes[pl].q - min(float(np.arccos(np.trace(w1[sl, sl]) / 2) / (2 * np.pi)), 0.5))
        for pl, sl in (("x", slice(0, 2)), ("y", slice(2, 4))))
    lin_res = fit_conic_residual(phase_portrait(net, [1e-4], 512)[1e-4])
    base = build(resonant_ring_text(0.0), merge="minimal")
    reso = build(resonant_ring_text(20.0), merge="minimal")
    amp = 3e-3
    res_lin = fit_conic_residual(phase_portrait(base, [amp], 512)[amp])
    res_non = fit_conic_residual(phase_portrait(reso, [amp], 512)[amp])
    dt = time.perf_counter() - t0
    report(6, tune_err <= 1e-3 and lin_res <= 1e-6
           and res_non >= 10 * max(res_lin, 1e-9) and dt < 30.0,
           f"tune error {tune_err:.1e} (<=1e-3), linear conic residual "
           f"{lin_res:.1e} (<=1e-6), third-integer residual grows x"
           f"{res_non / max(res_lin, 1e-300):.0f} (>=10), {dt:.1f} s")


def test_criterion_07_recalibration(report):
    t0 = time.perf_counter()
    k_design, k_true = 0.6, 0.72  # one quadrupole detuned by 20%
    net = build(cell_ring_text(20, parametric_cell=7), merge="minimal")
    x0 = np.array([1e-3, 0.0, 0.5e-3, 0.0])

    # one noiseless single-pass trajectory from the perturbed machine
    obs = track_turns(net, x0, 1, params={"qf7": k_true})
    assert obs.readings.shape[1] == 20  # >= 20 BPMs

    sample = TrainSample(x0=x0.copy(), observed=obs, params={"qf7": k_design})
    cfg = TrainConfig(epochs=400, learning_rate=0.01, sym_weight=1.0,
                      trainable_labels=[], fit_parameters=True)
    _, fit_report = train(net, [sample], cfg)
    k_fit = fit_report.params[0]["qf7"]
    ref = ring_tunes(net, amplitude=1e-4, n_turns=1024, params={"qf7": k_true})
    fit = ring_tunes(net, amplitude=1e-4, n_turns=1024, params={"qf7": k_fit})
    tune_err = max(abs(fit[p].q - ref[p].q) for p in ("x", "y"))

    # regularized vs unregularized weight training, held-out comparison
    def held_out_rms(sym_weight, seed):
        rng = np.random.default_rng(seed)
        x_train = rng.uniform(-3e-4, 3e-4, size=4)
        s = TrainSample(x0=x_train.copy(),
                        observed=track_turns(net, x_train, 1, params={"qf7": k_true}),
                        params={"qf7": k_design})
        cfg = TrainConfig(epochs=300, learning_rate=2e-3, sym_weight=sym_weight,
                          trainable_labels=["qf7"])
        trained, _ = train(net, [s], cfg)
        rng_held = np.random.default_rng(1000 + seed)
        x_held = rng_held.uniform(-3e-4, 3e-4, size=4)
        held = TrainSample(x0=x_held.copy(),
                           observed=track_turns(net, x_held, 1, params={"qf7": k_true}),
                           params={"qf7": k_design})
        return np.sqrt(loss(trained, [held], TrainConfig(sym_weight=0.0))[1])

    lam0 = [held_out_rms(0.0, seed) for seed in range(5)]
    lam1 = [held_out_rms(1.0, seed) for seed in range(5)]
    gen_ok = np.median(lam0) > np.median(lam1)
    dt = time.perf_counter() - t0
    report(7, tune_err <= 5e-3 and gen_ok and dt < 300.0,
           f"fitted strength {k_fit:.6f} (true {k_true}), tune error "
           f"{tune_err:.1e} (<=5e-3), held-out RMS median lambda=0 "
           f"{np.median(lam0):.2e} > lambda=1 {np.median(lam1):.2e}, {dt:.0f} s")


def test_criterion_08_orbit_correction(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    offsets = {i: float(rng.normal(0, 100e-6)) for i in range(1, 11)}
    machine = build(achromat_text(offsets), merge="minimal")
    ideal = build(achromat_text({}), merge="minimal")
    assert len(ideal.tap_labels()) == 11
    observed = simulate_readings(MachineSim(machine), np.zeros(4))
    result = correct_orbit(ideal, observed)
    ratio = result.rms_after / result.rms_before
    clean = correct_orbit(ideal, simulate_readings(MachineSim(ideal), np.zeros(4)))
    zero_ok = all(abs(k) <= 1e-12 for k in clean.kicks.values())
    dt = time.perf_counter() - t0
    report(8, ratio <= 0.10 and zero_ok and dt < 60.0,
           f"11 BPMs / 10 correctors, rms {result.rms_before:.2e} -> "
           f"{result.rms_after:.2e} m (ratio {ratio:.3f} <= 0.10), zero-error "
           f"kicks <=1e-12, {dt:.1f} s")


def test_criterion_09_threading(report):
    t0 = time.perf_counter()
    machine = build(transfer_line_text(bad_dx=8e-3), merge="minimal")
    model = build(transfer_line_text(bad_dx=0.0), merge="minimal")
    sim = MachineSim(machine, aperture=10e-3)
    log = thread_beam(sim, model, max_iterations=10, c_max=1e-3)
    valids = [e["n_valid"] for e in log if e["accepted"]]
    monotone = all(b >= a for a, b in zip(valids, valids[1:]))
    dt = time.perf_counter() - t0
    report(9, log[0]["n_valid"] < 12 and log[-1]["n_valid"] == 12
           and len(log) - 1 <= 10 and monotone and dt < 120.0,
           f"valid BPMs {valids[0]} -> {valids[-1]}/12 in {len(log) - 1} "
           f"iterations (<=10), non-decreasing, {dt:.1f} s")


def test_criterion_10_scale_and_throughput(report):
    defs = ["d: drift, l=0.1;", "q: quadrupole, l=0.2, k1=0.9;"]
    defs += [f"m{i}: monitor;" for i in range(506)]
    cells = ", ".join(f"d, q, m{i}" for i in range(506)) + ", d"
    big = build("\n".join(defs) + f"\ns: sequence = ({cells});",
                merge="per_element")
    assert len(big.layers) == 1519
    assert len(load_model(save_model(big)).layers) == 1519

    # throughput structure on a 100-layer sextupole-bearing line
    lines = ["d: drift, l=0.5;", "qf: quadrupole, l=0.5, k1=0.6;",
             "qd: quadrupole, l=0.5, k1=-0.6;", "sx: sextupole, l=0.2, k2=1.0;"]
    seq = ", ".join(["qf, d, sx, qd"] * 25)  # 100 per-element layers
    net = build("\n".join(lines) + f"\nline: sequence = ({seq});",
                merge="per_element")
    assert len(net.layers) == 100
    rng = np.random.default_rng(20260826)
    x0s = rng.uniform(-1e-3, 1e-3, size=(10_000, 4))

    forward_batch(net, x0s[:64])  # numba warm-up outside the timed region
    t1 = time.perf_counter()
    batch, _ = forward_batch(net, x0s)
    batch_time = time.perf_counter() - t1

    reps = 20
    t2 = time.perf_counter()
    for r in range(reps):
        forward(net, x0s[r])
    single_time = (time.perf_counter() - t2) / reps

    gap = max(np.max(np.abs(batch[i] - forward(net, x0s[i])[0]))
              for i in range(0, 10_000, 37))
    for i in rng.integers(0, 10_000, size=200):
        gap = max(gap, np.max(np.abs(batch[i] - forward(net, x0s[i])[0])))

    cpus = os.cpu_count() or 1
    timing_checked = kernels.USING_NUMBA and cpus >= 4
    timing_ok = (batch_time < 50 * single_time) if timing_checked else True
    report(10, gap <= 1e-14 and timing_ok,
           f"1519-layer model round-trips; 10k-particle batch matches "
           f"per-particle to {gap:.1e} (<=1e-14); batch {batch_time * 1e3:.0f} ms vs "
           f"single {single_time * 1e6:.0f} us "
           + (f"({batch_time / single_time:.1f}x < 50x)" if timing_checked
              else f"(timing check skipped: numba={kernels.USING_NUMBA}, {cpus} CPUs)"))


def test_criterion_11_round_trips_and_fuzz(report):
    doc = parse_lattice(FODO_MONITORED_TEXT)
    again = parse_lattice(serialize_lattice(doc))
    structural = (again.sequence == doc.sequence and again.ring == doc.ring
                  and set(again.definitions) == set(doc.definitions))

    net = build(FODO_MONITORED_TEXT, merge="minimal")
    copy = load_model(save_model(net))
    rng = np.random.default_rng(20260826)
    ulp_ok = True
    for _ in range(50):
        x0 = rng.uniform(-1e-3, 1e-3, size=4)
        a, _ = forward(net, x0)
        b, _ = forward(copy, x0)
        ulp_ok &= np.array_equal(a.view(np.uint64), b.view(np.uint64))

    crashes = 0
    base = FODO_MONITORED_TEXT
    for _ in range(10_000):
        chars = list(base)
        for _ in range(rng.integers(1, 8)):
            op = rng.integers(3)
            pos = int(rng.integers(len(chars))) if chars else 0
            if op == 0 and chars:
                del chars[pos]
            elif op == 1:
                chars.insert(pos, chr(rng.integers(32, 127)))
            elif chars:
                chars[pos] = chr(rng.integers(32, 127))
        try:
            parse_lattice("".join(chars))
        except LatticeError:
            pass
        except Exception:
            crashes += 1
    report(11, structural and ulp_ok and crashes == 0,
           f"lattice and model round-trips lossless (0-ulp forward), "
           f"{crashes} crashes in 10,000 fuzzed parses")
