"""Workload definitions shared by the timed runs and the reference command.

A workload's inputs depend only on the seed: `plan(workload, seed)` returns
the sweep points it runs. Every point a seed can draw has a committed
reference in references.json, written by refs.py.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

import superlind as sl

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
REFERENCES = BENCH_DIR / "references.json"
FIG1_CONFIG = BENCH_DIR.parent / "configs" / "fig1.cfg"

# Reference solves use these tolerances; the timed runs use the defaults.
REF_RTOL = 1e-12
REF_ATOL = 1e-14

# sweep-me: one 1/v drawn from this pool (index seed mod 3; entry 0 is the
# stated point), both dephasing curves of configs/sweep-me.cfg, plus the ladder.
# The time grid has 2633 points at each 1/v of the pool; the two curves take
# 136k rhs calls at 1.9 and 145k at 2.1. The pool stays this narrow because a
# pass holds one seed-drawn point and its cost swings with 1/v (see NOTES.md).
SWEEP_ME_INV_V = (2.0, 2.1, 1.9)

# sweep-me also runs this fixed point on every seed: on the same 2633-point
# grid as 1/v = 2, gamma0 = 0.1 takes 133k rhs calls here against 73k there.
CLIFF_INV_V = 2.02
CLIFF_GAMMA0 = 0.1
CLIFF_OVERRIDES = [f"sweep.inv_v={CLIFF_INV_V!r}", f"bath.gamma0={CLIFF_GAMMA0!r}"]

# fig1-closed: closed sweep at 1/v = 2 + d and 4 - d, d in -0.20..0.20 in
# steps of 0.01 (index seed mod 41; entry 0 is d = 0). The unitary solver's
# work over the two points is the same for every d (160.6k H evaluations,
# within 0.04%).
CLOSED_SHIFTS = (0.0,) + tuple(s * k / 100 for k in range(1, 21) for s in (1, -1))
CLOSED_INV_V = tuple(sorted({round(x, 6) for d in CLOSED_SHIFTS for x in (2.0 + d, 4.0 - d)}))

# frames-scan: 1/v = 1.5, 2, ..., 12 at the recommended order, plus the ladder.
FRAMES_INV_V = tuple(float(x) for x in np.arange(1.5, 12.01, 0.5))
FRAMES_SAMPLES = 16  # quasi-energy rows compared against the reference

# Correctness tolerances.
P_TOL = 1e-6            # |P - P_ref| for master-equation and closed points
ORACLE_REL_TOL = 0.10   # closed sweep against exp(-pi/(2v)) (criterion 1)
MC_SIGMAS = 4.0         # Monte-Carlo P against the master-equation reference
ENERGY_TOL = 1e-9       # sampled quasi-energies
ADIABATIC_RTOL = 1e-12  # adiabatic-report maximum (allows summation reordering)
BLOCH_TOL = 1e-6        # fig1 final Bloch vector against the tight solve

# Three-level ladder with two separated avoided crossings.
LADDER_V = 0.25
LADDER_DELTA = 1.0
LADDER_T = 150.0
LADDER_ORDER = 4
LADDER_COUPLING = np.diag([1.0, 0.0, -1.0]).astype(complex)


def plan(workload: str, seed: int) -> dict:
    """The inputs one seed gives a workload."""
    if workload == "sweep-me":
        return {"inv_v": [SWEEP_ME_INV_V[seed % len(SWEEP_ME_INV_V)]]}
    if workload == "sweep-mc":
        return {"seed": seed}
    if workload == "frames-scan":
        return {"inv_v": list(FRAMES_INV_V)}
    if workload == "fig1-closed":
        d = CLOSED_SHIFTS[seed % len(CLOSED_SHIFTS)]
        return {"inv_v": [round(2.0 + d, 6), round(4.0 - d, 6)]}
    raise ValueError(f"unknown workload {workload!r}")


def ladder_hamiltonian() -> sl.TimeDependentHamiltonian:
    """diag(v(t+10)/2, 0, v(t-10)/2) plus (delta/2) nearest-neighbour couplings."""
    v, half = LADDER_V, 0.5 * LADDER_DELTA

    def evaluate(t):
        return np.array(
            [[0.5 * v * (t + 10.0), half, 0.0],
             [half, 0.0, half],
             [0.0, half, 0.5 * v * (t - 10.0)]],
            dtype=complex,
        )

    return sl.TimeDependentHamiltonian(3, evaluate)


def ladder_frames(order=None):
    """Grid, order-0 frames, report and the super-adiabatic trajectory.

    ``order=None`` takes the recommended order of the adiabatic report.
    """
    H = ladder_hamiltonian()
    times = sl.adaptive_time_grid(H, -LADDER_T, LADDER_T)
    base = sl.instantaneous_frames(H, times)
    report = sl.adiabatic_report(base)
    j = report.recommended_order if order is None else order
    traj = sl.superadiabatic_frames(H, j, times, base=base)
    return H, report, traj


def ladder_p(cfg: sl.IntegratorConfig | None = None) -> float:
    """Population that leaves the ground state across the ladder sweep."""
    H, _, traj = ladder_frames(LADDER_ORDER)
    psi0 = traj.basis[0, :, 0]
    spectrum = sl.ohmic_spectrum(0.05, 5.0, 0.5)
    gen = sl.LindbladGenerator(traj, LADDER_COUPLING, spectrum, H)
    res = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -LADDER_T, LADDER_T, cfg=cfg)
    ground = np.linalg.eigh(H(LADDER_T))[1][:, 0]
    return 1.0 - float(np.real(ground.conj() @ res.state @ ground))


def frames_summary(H, report, traj) -> dict:
    """What frames-scan compares: grid size, report and sampled quasi-energies."""
    k = len(traj)
    idx = np.linspace(0, k - 1, FRAMES_SAMPLES).round().astype(int)
    return {
        "points": k,
        "adiabatic_max": report.global_max,
        "order": report.recommended_order,
        "sample_index": idx.tolist(),
        "energies": traj.energies[idx].tolist(),
    }


def lz_frames(inv_v: float):
    """Grid, order-0 frames, report and the recommended-order trajectory."""
    H = sl.lz_hamiltonian(sl.LZParams(v=1.0 / inv_v, delta=1.0))
    t_final = 25.0 * inv_v
    times = sl.adaptive_time_grid(H, -t_final, t_final)
    base = sl.instantaneous_frames(H, times)
    report = sl.adiabatic_report(base)
    traj = sl.superadiabatic_frames(H, report.recommended_order, times, base=base)
    return H, report, traj


def key(*values) -> str:
    return "/".join(format(float(x), "g") for x in values)
