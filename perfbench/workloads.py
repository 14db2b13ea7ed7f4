"""The dispatches of each workload and the checks on their outputs.

`build(ctx)` returns the units one pass runs, in order. A unit's `run` calls
the program (the `superlind` CLI entry point or the public library API) and
returns what the program produced; its `check` compares that with
references.json and returns, per point, an error message or None and the
absolute probability error where the point has one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import superlind as sl
from superlind.cli import main as cli_main
from superlind.config import apply_overrides, fig1_job, read_config, sweep_job

import spec


@dataclass
class Unit:
    """One dispatch: a CLI call or library call that yields checked points."""

    name: str
    points: list
    run: Callable[[], object]
    check: Callable[[object], dict]   # -> {point: (error or None, |P - P_ref| or None)}


def _cli(argv) -> None:
    code = cli_main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"superlind {argv[0]} exited with code {code}")


def _sweep(config: str, overrides: list, out):
    """Validated job of a CLI sweep, and a call that runs it and returns its CSV.

    The config is parsed here, at set-up, so a bad config fails before timing.
    """
    path = spec.CONFIG_DIR / config
    job = sweep_job(apply_overrides(read_config(path), overrides))
    argv = ["sweep", path, "--output", out] + [a for o in overrides for a in ("--set", o)]

    def run():
        _cli(argv)
        return out

    return job, run


def _read_rows(path) -> list:
    """Data rows of a CSV the program wrote, as dicts of floats."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def _ref(ctx, section: str, key: str):
    """A committed reference value; looked up at set-up so a gap fails early."""
    try:
        return ctx.refs[section][key]
    except KeyError:
        raise LookupError(f"references.json has no {section}/{key}; rerun refs.py") from None


def _p_check(p: float, ref: float) -> tuple:
    err = abs(p - ref)
    if err > spec.P_TOL:
        return f"|P - P_ref| = {err:.3e} > {spec.P_TOL:.0e} (P = {p!r}, P_ref = {ref!r})", err
    return None, err


# ------------------------------------------------------------- sweep-me


def _sweep_me(ctx) -> list:
    (inv_v,) = ctx.plan["inv_v"]
    units = [
        _me_sweep_unit(ctx, "cli-sweep", [f"sweep.inv_v={inv_v!r}"], "sweep-me.csv"),
        _me_sweep_unit(ctx, "cli-sweep-cliff", spec.CLIFF_OVERRIDES, "sweep-me-cliff.csv"),
    ]
    ladder_ref = _ref(ctx, "ladder", "p")

    def check_ladder(p):
        return {"ladder": _p_check(p, ladder_ref)}

    return units + [Unit("lib-ladder", ["ladder"], spec.ladder_p, check_ladder)]


def _me_sweep_unit(ctx, name: str, overrides: list, csv_name: str) -> Unit:
    """A CLI master-equation sweep on configs/sweep-me.cfg, checked per curve."""
    job, run = _sweep("sweep-me.cfg", overrides, ctx.workdir / csv_name)
    points = {spec.key(x, g): f"me/1/v={x:g}/gamma0={g:g}"
              for x in job.base.inv_velocities for g in job.gamma_values}
    ref = {k: _ref(ctx, "sweep-me", k) for k in points}

    def check(csv):
        got = {spec.key(r["inv_v"], r["gamma0"]): r["p_ge"] for r in _read_rows(csv)}
        return {name: _p_check(got[k], ref[k]) for k, name in points.items() if k in got}

    return Unit(name, list(points.values()), run, check)


# ------------------------------------------------------------- sweep-mc


def _sweep_mc(ctx) -> list:
    job, run = _sweep("sweep-mc.cfg", [f"solver.seed={ctx.plan['seed']}"],
                      ctx.workdir / "sweep-mc.csv")
    (inv_v,) = job.base.inv_velocities
    ref = _ref(ctx, "sweep-mc", spec.key(inv_v))
    tol = spec.MC_SIGMAS * math.sqrt(ref * (1.0 - ref) / job.base.n_traj)
    name = f"mc/1/v={inv_v:g}"

    def check(csv):
        (row,) = _read_rows(csv)
        dev = abs(row["p_ge"] - ref)
        if dev > tol:
            return {name: (f"|P_mc - P_me| = {dev:.3e} > {spec.MC_SIGMAS:g} sigma = {tol:.3e}", None)}
        return {name: (None, None)}

    return [Unit("cli-sweep", [name], run, check)]


# ---------------------------------------------------------- frames-scan


def _frames_check(summary: dict, ref: dict) -> tuple:
    if summary["points"] != ref["points"]:
        return f"grid has {summary['points']} points, reference {ref['points']}", None
    if summary["order"] != ref["order"]:
        return f"recommended order {summary['order']}, reference {ref['order']}", None
    a, b = summary["adiabatic_max"], ref["adiabatic_max"]
    if abs(a - b) > spec.ADIABATIC_RTOL * abs(b):
        return f"adiabatic max {a!r}, reference {b!r}", None
    diff = float(np.max(np.abs(np.subtract(summary["energies"], ref["energies"]))))
    if diff > spec.ENERGY_TOL:
        return f"sampled quasi-energies differ by {diff:.3e} > {spec.ENERGY_TOL:.0e}", None
    return None, None


def _frames_scan(ctx) -> list:
    out = ctx.workdir / "frames.csv"

    def unit(name, point, build, ref_key):
        ref = _ref(ctx, "frames", ref_key)

        def run():
            H, report, traj = build()
            traj.validate()
            sl.write_frames_csv(traj, out)
            return H, report, traj

        def check(value):
            return {point: _frames_check(spec.frames_summary(*value), ref)}

        return Unit(name, [point], run, check)

    units = [unit("lib-frames", f"frames/1/v={x:g}", lambda x=x: spec.lz_frames(x), spec.key(x))
             for x in ctx.plan["inv_v"]]
    units.append(unit("lib-ladder-frames", "frames/ladder", spec.ladder_frames, "ladder"))
    return units


# ---------------------------------------------------------- fig1-closed


def _fig1_closed(ctx) -> list:
    prefix = ctx.workdir / "fig1"
    fig1_overrides = [f"output.prefix={prefix}"]
    fig1_job(apply_overrides(read_config(spec.FIG1_CONFIG), fig1_overrides))
    fig1_ref = {k: _ref(ctx, "fig1", k) for k in ("points", "final_bloch")}
    inv_vs = ctx.plan["inv_v"]
    closed_ref = {spec.key(x): _ref(ctx, "closed", spec.key(x)) for x in inv_vs}
    _, run_closed = _sweep("closed.cfg", ["sweep.inv_v=" + ", ".join(map(repr, inv_vs))],
                           ctx.workdir / "closed.csv")
    names = {spec.key(x): f"closed/1/v={x:g}" for x in inv_vs}

    def run_fig1():
        _cli(["fig1", spec.FIG1_CONFIG, "--set", fig1_overrides[0]])

    def check_fig1(_):
        paths = {kind: _read_rows(prefix.parent / f"fig1_{kind}.csv")
                 for kind in ("instantaneous", "superadiabatic", "evolution")}
        counts = {kind: len(rows) for kind, rows in paths.items()}
        if set(counts.values()) != {fig1_ref["points"]}:
            return {"fig1": (f"row counts {counts}, reference {fig1_ref['points']}", None)}
        last = paths["evolution"][-1]
        final = np.array([last["x"], last["y"], last["z"]])
        dev = float(np.max(np.abs(final - fig1_ref["final_bloch"])))
        if dev > spec.BLOCH_TOL:
            return {"fig1": (f"final Bloch vector off by {dev:.3e} > {spec.BLOCH_TOL:.0e}", None)}
        return {"fig1": (None, None)}

    def check_closed(csv):
        rows = _read_rows(csv)
        out = {}
        for r in rows:
            k = spec.key(r["inv_v"])
            if k not in names:
                continue
            error, err = _p_check(r["p_ge"], closed_ref[k])
            oracle = sl.closed_lz_oracle(1.0, 1.0 / r["inv_v"])
            rel = abs(r["p_ge"] - oracle) / oracle
            if error is None and rel > spec.ORACLE_REL_TOL:
                error = f"P = {r['p_ge']!r} is {rel:.1%} off the closed oracle {oracle!r}"
            out[names[k]] = (error, err)
        if len(rows) != len(inv_vs):
            out = {n: (f"{len(rows)} rows for {len(inv_vs)} points", None) for n in names.values()}
        return out

    return [
        Unit("cli-fig1", ["fig1"], run_fig1, check_fig1),
        Unit("cli-sweep", list(names.values()), run_closed, check_closed),
    ]


BUILDERS = {
    "sweep-me": _sweep_me,
    "sweep-mc": _sweep_mc,
    "frames-scan": _frames_scan,
    "fig1-closed": _fig1_closed,
}


def build(ctx) -> list:
    """The units of one pass of `ctx.workload`."""
    return BUILDERS[ctx.workload](ctx)
