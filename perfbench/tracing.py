"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces the public callables the pipeline calls with
timing wrappers, wherever a superlind module holds a reference to them, and
counts calls to the per-step methods (generator `rhs`, `effective_hamiltonian`,
`jump_channels`; `TimeDependentHamiltonian.__call__`). Spans live in memory
until `write()`. `layer_metrics()` turns the spans of one workload pass into
the per-layer metrics listed in BENCHMARK.json.

`propagation.me_rejected` is derived from call counts, not read from
`IntegrationDiagnostics.n_rejected`: the program never increments that
counter, so it reads 0 even when steps were rejected.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

import superlind as sl
from superlind import cli, config, experiments, frames, generator, model, propagation

# (module of definition, function name) wrapped with a span.
SPANNED = [
    (config, "read_config"),
    (config, "apply_overrides"),
    (config, "sweep_job"),
    (config, "fig1_job"),
    (experiments, "run_sweep_curves"),
    (experiments, "run_lz_sweep"),
    (experiments, "run_fig1"),
    (experiments, "write_sweep_csv"),
    (model, "lz_hamiltonian"),
    (frames, "adaptive_time_grid"),
    (frames, "instantaneous_frames"),
    (frames, "adiabatic_report"),
    (frames, "superadiabatic_frames"),
    (frames, "write_frames_csv"),
    (propagation, "evolve_lindblad"),
    (propagation, "evolve_unitary"),
    (propagation, "evolve_trajectories"),
    (propagation, "write_bloch_csv"),
]
# (class, method, span name or None for a counter only)
METHODS = [
    (frames.FrameTrajectory, "validate", "frames.validate"),
    (generator.LindbladGenerator, "__init__", "generator.build"),
    (generator.LindbladGenerator, "rhs", None),
    (generator.LindbladGenerator, "effective_hamiltonian", None),
    (generator.LindbladGenerator, "jump_channels", None),
    (model.TimeDependentHamiltonian, "__call__", None),
]
MODULES = [sl, cli, config, experiments, frames, generator, model, propagation]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "point", "attrs")

    def __init__(self, id_, name, start, parent, point):
        self.id, self.name, self.start, self.parent, self.point = id_, name, start, parent, point
        self.end = start
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.unit = None
        self.point = None
        self._stack: list[Span] = []
        self._undo: list = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for module, name in SPANNED:
            original = getattr(module, name)
            wrapper = self._spanned(f"{module.__name__.split('.')[-1]}.{name}", original)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for cls, name, span_name in METHODS:
            original = cls.__dict__[name]
            if span_name is None:
                wrapper = self._counted(f"{cls.__name__}.{name}", original)
            else:
                wrapper = self._spanned(span_name, original)
            self._undo.append((cls, name, original))
            setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_unit(self, unit: str) -> None:
        """Tag the spans that follow with the dispatch they belong to."""
        self.unit = self.point = unit

    def _spanned(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            if name == "model.lz_hamiltonian":
                # each sweep point of a CLI call starts by building its model
                self.point = f"{self.unit}@1/v={1.0 / arguments['params'].v:g}"
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter(), parent, self.point)
            self.spans.append(span)
            self._stack.append(span)
            before = self.counts.copy()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._annotate(span, arguments, result, before)
            return result

        return wrapper

    def _annotate(self, span, arguments, result, before) -> None:
        """Per-span counts the per-layer metrics need."""
        delta = self.counts - before
        if span.name == "propagation.evolve_lindblad":
            span.attrs["steps"] = result.diagnostics.n_steps
            span.attrs["rhs"] = delta["LindbladGenerator.rhs"]
            # kept to show the defect: this counter is never incremented
            span.attrs["n_rejected_reported"] = result.diagnostics.n_rejected
        elif span.name == "propagation.evolve_trajectories":
            span.attrs["jumps"] = delta["LindbladGenerator.jump_channels"]
        elif span.name == "frames.adaptive_time_grid":
            span.attrs["points"] = len(result)
        elif span.name == "frames.superadiabatic_frames":
            times = arguments["times"]
            span.attrs["key"] = [float(times[0]), float(times[-1]), len(times),
                                 int(arguments["order"])]

    # ------------------------------------------------------------- output

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()

    def write(self, path, pass_index: int) -> None:
        """Append this pass's spans as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "pass": pass_index, "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "workload": self.workload,
                    "point": s.point, **s.attrs,
                }) + "\n")


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass lasting `wall` seconds.

    Returns {name: (value, unit)}.
    """
    spans = tracer.spans
    counts = tracer.counts

    def named(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.duration for n in names for s in named(n))

    me = named("propagation.evolve_lindblad")
    me_steps = sum(s.attrs["steps"] for s in me)
    me_rhs = sum(s.attrs["rhs"] for s in me)
    # A Dormand-Prince solve makes 2 start-up rhs calls and 7 per attempted step.
    me_rejected = sum((s.attrs["rhs"] - 2) / 7 - s.attrs["steps"] for s in me)
    keys = [tuple(s.attrs["key"]) for s in named("frames.superadiabatic_frames")]
    child_time = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    exp_self = sum(s.duration - child_time[s.id] for s in spans
                   if s.name in ("experiments.run_sweep_curves", "experiments.run_lz_sweep",
                                 "experiments.run_fig1"))
    top = sum(s.duration for s in spans if s.parent is None)
    return {
        "propagation.me_s": (total("propagation.evolve_lindblad"), "s"),
        "propagation.me_steps": (me_steps, "count"),
        "propagation.me_rejected": (me_rejected, "count"),
        "propagation.rhs_per_step": (me_rhs / me_steps if me_steps else 0.0, "calls/step"),
        "generator.rhs_calls": (counts["LindbladGenerator.rhs"], "count"),
        "propagation.mc_s": (total("propagation.evolve_trajectories"), "s"),
        "propagation.mc_jumps": (sum(s.attrs["jumps"] for s in named("propagation.evolve_trajectories")), "count"),
        "generator.heff_calls": (counts["LindbladGenerator.effective_hamiltonian"], "count"),
        "generator.jump_channel_calls": (counts["LindbladGenerator.jump_channels"], "count"),
        "propagation.unitary_s": (total("propagation.evolve_unitary"), "s"),
        "frames.grid_s": (total("frames.adaptive_time_grid"), "s"),
        "frames.grid_points": (sum(s.attrs["points"] for s in named("frames.adaptive_time_grid")), "count"),
        "frames.instantaneous_s": (total("frames.instantaneous_frames"), "s"),
        "frames.instantaneous_calls": (len(named("frames.instantaneous_frames")), "count"),
        "frames.superadiabatic_s": (total("frames.superadiabatic_frames"), "s"),
        "frames.validate_s": (total("frames.validate"), "s"),
        "frames.builds_per_key": (len(keys) / len(set(keys)) if keys else 0.0, "builds/key"),
        "frames.write_s": (total("frames.write_frames_csv"), "s"),
        "model.h_evals": (counts["TimeDependentHamiltonian.__call__"], "count"),
        "generator.build_s": (total("generator.build"), "s"),
        "experiments.self_s": (exp_self, "s"),
        "experiments.write_s": (total("experiments.write_sweep_csv", "propagation.write_bloch_csv"), "s"),
        "config.parse_s": (total("config.read_config", "config.apply_overrides",
                                 "config.sweep_job", "config.fig1_job"), "s"),
        "trace.coverage": (top / wall, "fraction"),
    }
