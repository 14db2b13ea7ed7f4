"""Run one benchmark workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload sweep-me --seed 0 --seconds 10 --trace 0

Everything runs in this one process on one thread, as a closed loop: each
point is dispatched only after the previous one has returned. A pass runs
every point of the workload once; passes repeat until `--seconds` have
elapsed (at least one pass). Each point's output is checked against
references.json; any failed point makes the exit code 1.

`--trace 0` reports the end-to-end metrics: `wall_s` (median pass wall
time, corrected for machine-speed drift by speed.py), `setup_s` (median,
over fresh interpreters started before and after the passes, of the time
from process start to the first point ready to dispatch) and `peak_rss_mb`.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of tracing.py, plus the tracing overhead.

The last line of standard output is one JSON object; the same result, with
the run environment, is written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep-me", "sweep-mc", "frames-scan", "fig1-closed")
SETUP_REPEATS = 10  # half before the passes, half after, to sample both ends of the run
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source, no references)."""


def _pin_environment() -> None:
    """One BLAS thread and no sweep thread pool; must precede importing numpy."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SUPERLIND_THREADS", None)


# --------------------------------------------------------------- set-up


@dataclass
class Context:
    workload: str
    seed: int
    plan: dict
    refs: dict
    workdir: Path
    units: list = field(default_factory=list)


def setup(workload: str, seed: int, workdir: Path) -> Context:
    """Import the program, load references, validate configs, build units."""
    init = SRC / "superlind" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no superlind source tree next to {BENCH_DIR.name}/")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import superlind

    if Path(superlind.__file__).resolve() != init.resolve():
        raise SetupError(f"imported superlind from {superlind.__file__}, not {init}")
    import spec
    import workloads

    for path in (spec.REFERENCES, spec.FIG1_CONFIG):
        if not path.is_file():
            raise SetupError(f"missing {path.relative_to(ROOT)}")
    refs = json.loads(spec.REFERENCES.read_text(encoding="utf-8"))
    ctx = Context(workload, seed, spec.plan(workload, seed), refs, workdir)
    try:
        ctx.units = workloads.build(ctx)
    except LookupError as exc:
        raise SetupError(str(exc)) from None
    return ctx


def _setup_child(workload: str, seed: int) -> int:
    """Body of one set-up sample: set up, report ready, exit."""
    setup(workload, seed, OUT_DIR)  # the child only builds paths; it writes nothing
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(workload: str, seed: int, count: int) -> list:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up sample exited with code {code}")
        samples.append(elapsed)
    return samples


# --------------------------------------------------------------- passes


@dataclass
class PassResult:
    wall: float
    speed: float          # machine slowdown during the pass, from speed.py
    outcomes: dict        # point -> (error or None, p_err or None)

    @property
    def corrected(self) -> float:
        """Wall time at the probe's reference speed."""
        return self.wall / self.speed


def run_pass(ctx: Context, probe, tracer=None) -> PassResult:
    """Dispatch every unit once; time the dispatches only, check afterwards."""
    values = []
    started = time.perf_counter()
    for unit in ctx.units:
        if tracer is not None:
            tracer.begin_unit(unit.name)
        try:
            values.append((unit, unit.run(), None))
        except Exception as exc:  # a failed point is counted, not fatal
            values.append((unit, None, f"{type(exc).__name__}: {exc}"))
    ended = time.perf_counter()
    outcomes = {}
    for unit, value, error in values:
        checked = {}
        if not error:
            try:
                checked = unit.check(value)
            except Exception as exc:  # unreadable or malformed program output
                error = f"check failed: {type(exc).__name__}: {exc}"
        for point in unit.points:
            if error:
                outcomes[point] = (error, None)
            else:
                outcomes[point] = checked.get(point, ("no output for this point", None))
    return PassResult(ended - started, probe.factor(started, ended), outcomes)


def run_passes(ctx: Context, seconds: float, traced: bool):
    """Untraced passes, or alternating untraced/traced passes, for `seconds`."""
    import speed
    import tracing

    plain, traced_passes, layers = [], [], []
    tracer = tracing.Tracer(ctx.workload) if traced else None
    spans_path = OUT_DIR / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl"
    if traced and spans_path.exists():
        spans_path.unlink()
    started = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            if traced and len(plain) > len(traced_passes):
                tracer.reset()
                tracer.install()
                try:
                    result = run_pass(ctx, probe, tracer)
                finally:
                    tracer.uninstall()
                traced_passes.append(result)
                layers.append(tracing.layer_metrics(tracer, result.wall))
                tracer.write(spans_path, len(traced_passes))
            else:
                plain.append(run_pass(ctx, probe))
            done = time.perf_counter() - started >= seconds
            if done and (not traced or len(traced_passes) == len(plain)):
                return plain, traced_passes, layers


# --------------------------------------------------------------- report


def environment() -> dict:
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "git_sha": _git_sha(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "SUPERLIND_THREADS": os.environ.get("SUPERLIND_THREADS", "unset"),
    }


def _git_sha():
    """HEAD commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_environment()

    if args.setup_only:
        try:
            return _setup_child(args.workload, args.seed)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    setup_count = 0 if args.trace else SETUP_REPEATS // 2
    try:
        ctx = setup(args.workload, args.seed, workdir)
        setup_samples = measure_setup(args.workload, args.seed, setup_count)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's "wrote ..." lines
            plain, traced, layers = run_passes(ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        setup_samples += measure_setup(args.workload, args.seed, setup_count)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = [("untraced", p) for p in plain] + [("traced", p) for p in traced]
    attempted = sum(len(p.outcomes) for _, p in passes)
    failures = [(i, point, err) for i, (_, p) in enumerate(passes, 1)
                for point, (err, _) in p.outcomes.items() if err]
    p_errs = [e for _, p in passes for _, e in p.outcomes.values() if e is not None]
    wall = statistics.median(p.corrected for p in plain)
    raw_wall = statistics.median(p.wall for p in plain)

    for i, (kind, p) in enumerate(passes, 1):
        print(f"pass {i} ({kind}): {p.wall:.4f} s raw, speed factor {p.speed:.3f}, "
              f"{p.corrected:.4f} s corrected, {len(p.outcomes)} points")
    for i, point, err in failures:
        print(f"FAIL pass {i} {point}: {err}")

    if args.trace:
        per_layer = {name: statistics.median(m[name][0] for m in layers) for name in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(p.corrected for p in traced) - wall
        units = {name: m for name, (_, m) in layers[0].items()}
        units["trace.overhead_s"] = "s"
        metrics = {name: _metric(per_layer[name], units[name]) for name in sorted(per_layer)}
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }
    fail_frac = len(failures) / attempted
    p_err_max = max(p_errs) if p_errs else None
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"raw_wall_s = {raw_wall:.6g} s (median uncorrected pass wall time)")
    print(f"fail_frac = {fail_frac:.6g} ({len(failures)} of {attempted} points)")
    print("p_err_max = " + (f"{p_err_max:.3e}" if p_err_max is not None else "not defined"))
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, plan=ctx.plan, fail_frac=fail_frac, p_err_max=p_err_max,
                  raw_wall_s=raw_wall, pass_kinds=[k for k, _ in passes],
                  pass_walls=[p.wall for _, p in passes], pass_speed=[p.speed for _, p in passes],
                  setup_samples=setup_samples,
                  environment=env)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
