"""Span tracer that wraps polytrack's public functions from outside the library.

`Tracer.install` replaces each function in `FUNCTIONS` by a timing wrapper
everywhere it is bound: in its own module and in every polytrack module that
imported it by name (for example ``network.evaluate`` or
``analysis.forward``).  The benchmark calls library functions through their
modules, so it sees the wrappers too.  Methods are replaced on their class.
Spans are recorded only inside a root span opened with `Tracer.root`, so
the benchmark's own checks run untraced.  Each span is kept in memory as (name, start, end, parent);
self time and all derived counts are computed from the spans at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from math import comb

# "<module>.<function>" or "<module>.<Class>.<method>" inside polytrack.
FUNCTIONS = (
    "lattice.parse_lattice",
    "lattice.split_at_monitors",
    "lattice.plan_segments",
    "elements.element_map",
    "network.build_network",
    "network.save_model",
    "network.load_model",
    "polymap.compose",
    "basis.MonomialBasis.multiply",
    "network.forward",
    "polymap.evaluate",
    "polymap.kron_power",
    "polymap.evaluate_batch",
    "kernels.batch_apply",
    "polymap.jacobian",
    "basis.MonomialBasis.eval_flat",
    "symplectic.symplectic_residual",
    "symplectic.symplectic_penalty",
    "symplectic.penalty_gradient",
    "training.gradients",
    "analysis.ring_tunes",
    "analysis.turn_by_turn_state",
    "analysis.tune_fft",
    "correction.response_matrix",
    "correction.correct_orbit",
    "correction.thread_beam",
    "correction.measure_with_losses",
    "correction.set_kicks",  # only to count rejected threading steps
)
ROOTS = ("setup", "op")


class Tracer:
    def __init__(self):
        self.names = list(FUNCTIONS) + list(ROOTS)
        self._ix = {n: i for i, n in enumerate(self.names)}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        # (rows, n_in, n_out, order) of every traced kernels.batch_apply call
        self.batch_shapes: list[tuple[int, int, int, int]] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"polytrack.{m}")
                   for m in {name.split(".")[0] for name in FUNCTIONS}}
        holders = [m for n, m in sys.modules.items()
                   if n == "polytrack" or n.startswith("polytrack.")]
        for name in FUNCTIONS:
            parts = name.split(".")
            if len(parts) == 3:
                owner = getattr(modules[parts[0]], parts[1])
                original = owner.__dict__[parts[2]]
                self._patch(owner, parts[2], self._wrap(name, original))
                continue
            original = getattr(modules[parts[0]], parts[1])
            wrapper = self._wrap(name, original)
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        ix = self._ix[name]
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        shapes = self.batch_shapes if name == "kernels.batch_apply" else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if len(stack) == 1:  # outside any root span: untraced
                return fn(*args, **kwargs)
            if shapes is not None:
                tmap, x = args[0], args[1]
                shapes.append((x.shape[0], tmap.n_in, tmap.n_out, tmap.order))
            k = len(names)
            names.append(ix)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(k)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def root(self, name: str):
        """Record a root span ("setup" or "op"); traced calls nest under it."""
        if len(self._stack) != 1:
            raise RuntimeError("root spans do not nest")
        k = len(self.span_name)
        self.span_name.append(self._ix[name])
        self.span_parent.append(-1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(k)
        try:
            yield
        finally:
            self.span_end[k] = time.perf_counter()
            self._stack.pop()

    # -- analysis ---------------------------------------------------------------

    def table(self) -> dict:
        """Per wrapped function: calls, total_s and self_s (total minus children)."""
        n = len(self.span_name)
        child = [0.0] * n
        for k in range(n):
            p = self.span_parent[k]
            if p >= 0:
                child[p] += self.span_end[k] - self.span_start[k]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for k in range(n):
            ix = self.span_name[k]
            d = self.span_end[k] - self.span_start[k]
            calls[ix] += 1
            total[ix] += d
            own[ix] += d - child[k]
        return {name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
                for i, name in enumerate(self.names)}

    def count_within(self, name: str, ancestor: str, excluding: str | None = None) -> int:
        """Spans of `name` with an `ancestor` span above them (and no `excluding` span)."""
        want, anc = self._ix[name], self._ix[ancestor]
        skip = self._ix[excluding] if excluding else -2
        count = 0
        for k, ix in enumerate(self.span_name):
            if ix != want:
                continue
            p = self.span_parent[k]
            while p >= 0:
                pix = self.span_name[p]
                if pix == skip:
                    break
                if pix == anc:
                    count += 1
                    break
                p = self.span_parent[p]
        return count

    def derived(self) -> dict:
        """Counts and ratios measured at the wrapped boundaries.

        Values that are undefined on a workload (no call to divide by) are None.
        """
        tab = self.table()
        calls = {n: tab[n]["calls"] for n in self.names}
        out = {}

        flops = nbytes = 0
        for rows, n_in, n_out, order in self.batch_shapes:
            mono = [comb(n_in + d - 1, d) for d in range(order + 1)]
            m = sum(mono[1:])
            # each degree>=2 monomial is one product of a lower one, then one
            # multiply-add per (output, monomial) and the constant term
            flops += rows * (sum(mono[2:]) + 2 * m * n_out + n_out)
            nbytes += 8 * (rows * n_in + rows * n_out + n_out * (m + 1))
        out["kernels.batch_apply.flops_computed"] = flops
        out["kernels.batch_apply.bytes_computed"] = nbytes
        busy = tab["kernels.batch_apply"]["total_s"]
        out["kernels.batch_apply.gflops_per_s"] = flops / busy / 1e9 if busy > 0 else None

        epochs = calls["training.gradients"]
        for key, fn in (("training.jacobian_calls_per_epoch", "polymap.jacobian"),
                        ("training.residual_calls_per_epoch", "symplectic.symplectic_residual")):
            out[key] = (self.count_within(fn, "training.gradients") / epochs
                        if epochs else None)

        out["correction.response_matrix.forward_calls"] = self.count_within(
            "network.forward", "correction.response_matrix")
        # thread_beam measures once per iteration and once per trial step; every
        # iteration that tries steps calls response_matrix once, and the last
        # iteration of each call stops after its measurement.  A trial installs
        # kicks with two set_kicks calls and a rejected trial restores them with
        # two more (set_kicks inside response_matrix are excluded).
        measures = self.count_within("correction.measure_with_losses", "correction.thread_beam")
        responses = self.count_within("correction.response_matrix", "correction.thread_beam")
        trials = measures - responses - calls["correction.thread_beam"]
        installs = self.count_within("correction.set_kicks", "correction.thread_beam",
                                     excluding="correction.response_matrix")
        rejected = installs // 2 - trials
        out["correction.thread_beam.trials"] = trials
        out["correction.thread_beam.accept_ratio"] = (trials - rejected) / trials if trials else None
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span (integer nanoseconds from the first span) and `extra`."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = dict(extra)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.span_name,
            "parent": self.span_parent,
            "start_ns": [round((t - t0) * 1e9) for t in self.span_start],
            "end_ns": [round((t - t0) * 1e9) for t in self.span_end],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
