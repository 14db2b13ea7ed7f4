"""Self-contained invariant suite behind the `check` CLI subcommand.

Each check returns (name, passed, detail); `run_all` prints one line per
check and reports overall success. The suite is a quick smoke screen, not
the full test suite.
"""
from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np

from .errors import AdiabaticityWarning
from .experiments import BathConfig, SweepConfig, run_lz_sweep, write_sweep_csv
from .frames import _eigh, adiabatic_report, instantaneous_frames, superadiabatic_frames
from .generator import LindbladGenerator
from .model import (
    LZParams,
    coherence_vector,
    dephasing_spectrum,
    density_matrix,
    lz_hamiltonian,
    ohmic_spectrum,
    sigma_z,
)
from .propagation import (TrajectoryConfig, bloch_vector, evolve_lindblad, evolve_trajectories,
                          evolve_unitary)


def _lz_setup():
    H = lz_hamiltonian(LZParams(v=0.5, delta=1.0))
    times = np.linspace(-8.0, 8.0, 801)
    return H, times


def check_model_spectra():
    ohmic = ohmic_spectrum(0.01, 5.0, 0.5)
    problems = []
    if abs(ohmic.gamma(0.0) - 0.005) > 1e-12:
        problems.append("gamma(0) != gamma0*T")
    for eps in (1e-6, -1e-6):
        if abs(ohmic.gamma(eps) - 0.005) > 1e-7:
            problems.append(f"gamma({eps}) discontinuous")
    w = np.linspace(-10, 10, 401)
    if np.any(ohmic.gamma(w) < 0):
        problems.append("negative rate")
    kms = ohmic_spectrum(0.1, 5.0, 0.5, symmetric_cutoff=True)
    for wv in (0.5, 1.0, 3.0):
        lhs = kms.gamma(-wv)
        rhs = np.exp(-wv / 0.5) * kms.gamma(wv)
        if abs(lhs - rhs) > 1e-12 * max(rhs, 1e-30):
            problems.append(f"detailed balance broken at w={wv}")
    return "bath spectra", not problems, "; ".join(problems) or "ok"


def check_frames():
    H, times = _lz_setup()
    traj = superadiabatic_frames(H, 2, times)
    try:
        traj.validate()
        base = instantaneous_frames(H, times)
        base.validate()
        report = adiabatic_report(base)
        # the closed-form 2x2 solver the frames use, against LAPACK on the same stack
        mats = H.on_grid(times)
        (vals, vecs), (ref_vals, ref_vecs) = _eigh(mats), np.linalg.eigh(mats)
        dvals = float(np.max(np.abs(vals - ref_vals)))
        dproj = float(np.max(np.abs(np.einsum("kia,kja->kaij", vecs, vecs.conj())
                                    - np.einsum("kia,kja->kaij", ref_vecs, ref_vecs.conj()))))
        detail = (f"max adiabatic parameter {report.global_max:.3f}; eigensolver off LAPACK "
                  f"by {dvals:.1e} (levels), {dproj:.1e} (projectors)")
        ok = abs(report.global_max - 0.25) < 0.05 and max(dvals, dproj) < 1e-12
    except Exception as exc:  # pragma: no cover - diagnostic path
        return "frame invariants", False, str(exc)
    return "frame invariants", ok, detail


def check_generator():
    H, times = _lz_setup()
    traj = instantaneous_frames(H, times)
    gen = LindbladGenerator(traj, sigma_z, ohmic_spectrum(0.05, 5.0, 0.5), H)
    rng = np.random.default_rng(11)
    m = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
    rhos, points = m @ m.conj().swapaxes(1, 2), rng.uniform(times[0], times[-1], size=100)
    heff = gen.effective_hamiltonian(points)
    want = -1j * (heff @ rhos - rhos @ heff.conj().swapaxes(1, 2))
    for w, t, rho in zip(want, points, rhos):
        w += sum(L @ rho @ L.conj().T for _, L in gen.jump_channels(t))
    got = density_matrix(np.einsum("mab,mb->ma", gen.liouvillian(points), coherence_vector(rhos)))
    worst = float(np.max(np.abs(got - want)))
    return "generator algebra", worst < 1e-12, f"operator-form deviation {worst:.1e}"


def check_propagation():
    H = lz_hamiltonian(LZParams(v=0.5, delta=1.0))
    times = np.linspace(-6, 6, 601)
    traj = instantaneous_frames(H, times)
    gen = LindbladGenerator(traj, sigma_z, dephasing_spectrum(0.0), H)
    psi0 = traj.basis[0, :, 0]
    uni = evolve_unitary(H, psi0, -6.0, 6.0)
    rho_uni = np.outer(uni.state, uni.state.conj())
    lind = evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -6.0, 6.0)
    mc = evolve_trajectories(gen, psi0, -6.0, 6.0, TrajectoryConfig(n_traj=4, seed=0))
    diff, mc_diff = (float(np.max(np.abs(r.state - rho_uni))) for r in (lind, mc))
    jumps = len(mc.jumps)
    x, y, z = bloch_vector(rho_uni)
    ok = max(diff, mc_diff) < 1e-7 and jumps == 0 and abs(x * x + y * y + z * z - 1.0) < 1e-8
    return "closed-limit propagation", ok, (f"gamma=0 deviation {diff:.1e} (master equation), "
                                            f"{mc_diff:.1e} (ensemble, {jumps} jumps)")


def check_determinism():
    cfg = SweepConfig(
        inv_velocities=(1.0, 2.0),
        bath=BathConfig(kind="dephasing", gamma0=0.01),
        rtol=1e-6,
        atol=1e-8,
    )
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)  # 1/v = 1 is fast
        a = Path(tmp) / "a.csv"
        b = Path(tmp) / "b.csv"
        write_sweep_csv(a, run_lz_sweep(cfg), cfg)
        write_sweep_csv(b, run_lz_sweep(cfg), cfg)
        same = a.read_bytes() == b.read_bytes()
    return "deterministic rerun", same, "byte-identical" if same else "outputs differ"


ALL_CHECKS = (
    check_model_spectra,
    check_frames,
    check_generator,
    check_propagation,
    check_determinism,
)


def run_all() -> int:
    """Run every check, printing one line each; returns the number of failures."""
    failures = 0
    for check in ALL_CHECKS:
        name, ok, detail = check()
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return failures
