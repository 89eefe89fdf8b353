"""Outside-in tracer: wraps nmecut's public functions without editing them.

Each traced name is replaced, for the duration of a `Tracer` context, in
every ``nmecut`` module whose namespace holds it (``experiment`` and ``cli``
import several names directly), or on its class for methods.  A wrapped call
opens a span; its self time is the span's duration minus the durations of
the traced spans it encloses, so the self times of all layers plus the
unattributed time add up to the traced wall time.  Spans are aggregated in
memory as (calls, self seconds) per layer rather than kept one by one: a
traced sweep opens about 800k of them.

A name that does not exist (a later version may delete
``sample_branch_expectation`` or ``QuantumChannel.apply``) is skipped and
reported with zero calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Metric prefix -> (module, attribute path).  "Class.attr" patches a class
# attribute; a bare name is patched in every nmecut module that binds it.
LAYERS: dict[str, tuple[str, str]] = {
    "linalg.as_matrix": ("nmecut.linalg", "as_matrix"),
    "linalg.density": ("nmecut.linalg", "DensityOperator.__post_init__"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "states.nme_state": ("nmecut.states", "nme_state"),
    "states.k_from_f": ("nmecut.states", "k_from_f"),
    "states.schmidt_decompose": ("nmecut.states", "schmidt_decompose"),
    "states.m_distillation_norm": ("nmecut.states", "m_distillation_norm"),
    "states.overlap_f_pure": ("nmecut.states", "overlap_f_pure"),
    "channels.build": ("nmecut.channels", "QuantumChannel.__init__"),
    "channels.apply": ("nmecut.channels", "QuantumChannel.apply"),
    "channels.choi": ("nmecut.channels", "QuantumChannel.choi"),
    "channels.teleport": ("nmecut.channels", "teleportation_channel"),
    "channels.teleport_circuit": ("nmecut.channels", "teleportation_circuit_channel"),
    "qpd.nme_wire_cut": ("nmecut.qpd", "nme_wire_cut"),
    "qpd.harada_wire_cut": ("nmecut.qpd", "harada_wire_cut"),
    "qpd.reconstruct": ("nmecut.qpd", "reconstruct_channel"),
    "estimator.estimate": ("nmecut.estimator", "estimate_cut_expectation"),
    "estimator.allocate": ("nmecut.estimator", "allocate_shots"),
    "estimator.branch": ("nmecut.estimator", "sample_branch_expectation"),
    "estimator.exact": ("nmecut.estimator", "exact_expectation"),
    "estimator.rng_setup": ("nmecut.estimator", "RandomSource.generator"),
    "experiment.haar": ("nmecut.experiment", "haar_random_unitary"),
    "experiment.run_sweep": ("nmecut.experiment", "run_sweep"),
    "experiment.write_csv": ("nmecut.experiment", "write_csv"),
    "experiment.render_svg": ("nmecut.experiment", "render_svg"),
    "experiment.read_csv": ("nmecut.experiment", "read_csv"),
    "experiment.check_records": ("nmecut.experiment", "check_records"),
    "cli.main": ("nmecut.cli", "main"),
}

# Modules whose source lines are counted (static, for the line-count aim).
SOURCE_MODULES = ("linalg", "states", "channels", "qpd", "estimator", "experiment", "cli")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Context manager that installs the wrappers and collects per-layer totals.

    Spans are recorded only while `enabled` is true, so the caller can keep
    its own checks out of the trace.
    """

    enabled: bool = False
    stats: dict[str, LayerStats] = field(default_factory=lambda: {n: LayerStats() for n in LAYERS})
    csv_bytes: int = 0
    svg_bytes: int = 0
    apply_inputs: set = field(default_factory=set)
    _channels: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        hooks: dict[str, tuple[Callable | None, Callable | None]] = {
            "channels.apply": (self._record_apply_input, None),
            "experiment.write_csv": (None, self._size_output("csv_bytes")),
            "experiment.render_svg": (None, self._size_output("svg_bytes")),
        }
        for name, (module_name, path) in LAYERS.items():
            self._install(name, module_name, path, *hooks.get(name, (None, None)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- installation ---------------------------------------------------

    def _install(
        self, name: str, module_name: str, path: str, before: Callable | None, after: Callable | None
    ) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(name, original.func, before, after))
            replacement.__set_name__(owner, attr)
            self._patch(owner, attr, original, replacement)
            return
        if not callable(original):  # e.g. turned into a property: treat as absent
            return
        wrapper = self._wrap(name, original, before, after)
        self._patch(owner, attr, original, wrapper)
        if isinstance(owner, type):
            return
        # Rebind the name wherever an nmecut module imported it directly.
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not (mod_name == "nmecut" or mod_name.startswith("nmecut.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def _wrap(
        self, name: str, fn: Callable, before: Callable | None, after: Callable | None
    ) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = [0.0]  # time spent in traced children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    # -- counters recorded at layer boundaries ----------------------------

    def _record_apply_input(self, args, kwargs) -> None:
        # (channel object, input state) identifies an (f, state, term) triple;
        # holding the channel keeps its id from being reused.
        channel, rho = args[0], args[1] if len(args) > 1 else kwargs.get("rho")
        self._channels[id(channel)] = channel
        self.apply_inputs.add((id(channel), rho.matrix.tobytes()))

    def _size_output(self, counter: str) -> Callable:
        def record(args, kwargs) -> None:
            path = args[1] if len(args) > 1 else kwargs.get("path")
            if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                setattr(self, counter, getattr(self, counter) + os.path.getsize(path))

        return record

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float, untraced_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
        applies = self.stats["channels.apply"].calls
        # Useful-to-attempted ratio; 1.0 when no outcome probability was computed.
        out["estimator.prob_reuse"] = len(self.apply_inputs) / applies if applies else 1.0
        out["experiment.csv_bytes"] = self.csv_bytes
        out["experiment.svg_bytes"] = self.svg_bytes
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(s.self_s for s in self.stats.values())
        out["tracing_overhead_s"] = wall_s - untraced_s
        return out


def source_lines(src_dir: str) -> dict[str, int]:
    """Line counts of the layer modules and of the whole package (0 if absent)."""
    pkg = os.path.join(src_dir, "nmecut")
    out = {}
    total = 0
    for entry in sorted(os.listdir(pkg)) if os.path.isdir(pkg) else []:
        if entry.endswith(".py"):
            with open(os.path.join(pkg, entry), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    for module in SOURCE_MODULES:
        path = os.path.join(pkg, module + ".py")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                out[f"{module}.src_lines"] = sum(1 for _ in handle)
        else:
            out[f"{module}.src_lines"] = 0
    out["nmecut.src_lines"] = total
    return out
