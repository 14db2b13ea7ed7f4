"""Regenerate references.json: the values the timed runs are checked against.

Untimed. Master-equation and closed-system probabilities come from the same
pipeline at rtol 1e-12 / atol 1e-14, for every point any seed can draw;
frames-scan stores the grid size, adiabatic report and sampled
quasi-energies of the current code. Run from the repository root:

    python3 perfbench/refs.py

It runs the solves in two worker processes and takes about 20 minutes on a
2-core machine.
"""
from __future__ import annotations

import json
import multiprocessing
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import superlind as sl  # noqa: E402
from superlind.config import apply_overrides, fig1_job, read_config, sweep_job  # noqa: E402

import spec  # noqa: E402

TIGHT = [f"solver.rtol={spec.REF_RTOL!r}", f"solver.atol={spec.REF_ATOL!r}"]
WORKERS = 2


def _sweep(cfg_name: str, overrides) -> list:
    data = apply_overrides(read_config(spec.CONFIG_DIR / cfg_name), list(overrides) + TIGHT)
    job = sweep_job(data)
    return sl.run_sweep_curves(job.base, job.gamma_values)


def _task(task):
    warnings.simplefilter("ignore", sl.AdiabaticityWarning)
    kind, arg = task
    if kind == "sweep-me":
        recs = _sweep("sweep-me.cfg", arg)
        return [("sweep-me", spec.key(r.inv_v, r.gamma0), r.p_ge) for r in recs]
    if kind == "closed":
        recs = _sweep("closed.cfg", [f"sweep.inv_v={arg!r}"])
        return [("closed", spec.key(r.inv_v), r.p_ge) for r in recs]
    if kind == "sweep-mc":
        recs = _sweep("sweep-mc.cfg", ["solver.method=me"])
        return [("sweep-mc", spec.key(r.inv_v), r.p_ge) for r in recs]
    if kind == "ladder":
        cfg = sl.IntegratorConfig(rtol=spec.REF_RTOL, atol=spec.REF_ATOL)
        return [("ladder", "p", spec.ladder_p(cfg))]
    if kind == "fig1":
        job = fig1_job(read_config(spec.FIG1_CONFIG))
        H = sl.lz_hamiltonian(sl.LZParams(v=job.v, delta=job.delta))
        t_final = job.window_factor * job.delta / job.v
        times = sl.adaptive_time_grid(H, -t_final, t_final)
        traj = sl.superadiabatic_frames(H, job.order, times)
        cfg = sl.IntegratorConfig(rtol=spec.REF_RTOL, atol=spec.REF_ATOL)
        psi = sl.evolve_unitary(H, traj.basis[0, :, 0], -t_final, t_final, cfg=cfg).state
        rho = np.outer(psi, psi.conj())
        return [("fig1", "final_bloch", list(sl.bloch_vector(rho))), ("fig1", "points", len(times))]
    if kind == "frames":
        out = [("frames", spec.key(x), spec.frames_summary(*spec.lz_frames(x)))
               for x in spec.FRAMES_INV_V]
        out.append(("frames", "ladder", spec.frames_summary(*spec.ladder_frames())))
        return out
    raise ValueError(kind)


def main() -> int:
    tasks = [("ladder", None), ("sweep-mc", None), ("sweep-me", spec.CLIFF_OVERRIDES)]
    tasks += [("sweep-me", [f"sweep.inv_v={x!r}"]) for x in spec.SWEEP_ME_INV_V]
    tasks += [("closed", x) for x in spec.CLOSED_INV_V]
    tasks += [("fig1", None), ("frames", None)]

    refs = {"rtol": spec.REF_RTOL, "atol": spec.REF_ATOL, "superlind": sl.__version__}
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
        for task, rows in zip(tasks, pool.map(_task, tasks)):
            for section, name, value in rows:
                refs.setdefault(section, {})[name] = value
            print(f"done {task}", file=sys.stderr, flush=True)
    for section in ("sweep-me", "closed", "frames"):
        refs[section] = dict(sorted(refs[section].items()))
    spec.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
