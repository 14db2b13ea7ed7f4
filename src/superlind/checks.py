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
from .frames import adiabatic_report, instantaneous_frames, superadiabatic_frames
from .generator import LindbladGenerator
from .model import (
    LZParams,
    dephasing_spectrum,
    hermiticity_defect,
    lz_hamiltonian,
    ohmic_spectrum,
    sigma_z,
)
from .propagation import bloch_vector, evolve_lindblad, evolve_unitary


def _lz_setup(v=0.5, delta=1.0, t_final=8.0, n=801):
    H = lz_hamiltonian(LZParams(v=v, delta=delta))
    times = np.linspace(-t_final, t_final, n)
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
        detail = f"max adiabatic parameter {report.global_max:.3f}"
        ok = abs(report.global_max - 0.25) < 0.05
    except Exception as exc:  # pragma: no cover - diagnostic path
        return "frame invariants", False, str(exc)
    return "frame invariants", ok, detail


def check_generator():
    H, times = _lz_setup()
    traj = instantaneous_frames(H, times)
    gen = LindbladGenerator(traj, sigma_z, ohmic_spectrum(0.05, 5.0, 0.5), H)
    rng = np.random.default_rng(11)
    rhos, points = [], []
    for _ in range(100):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rhos.append(rho.ravel() / np.trace(rho).real)
        points.append(rng.uniform(times[0], times[-1]))
    out = (gen.liouvillian(points) @ np.array(rhos)[:, :, None]).reshape(-1, 2, 2)
    worst_tr = float(np.max(np.abs(np.trace(out, axis1=1, axis2=2))))
    worst_h = float(np.max(hermiticity_defect(out)))
    ok = worst_tr < 1e-12 and worst_h < 1e-12
    return "generator algebra", ok, f"trace {worst_tr:.1e}, herm {worst_h:.1e}"


def check_propagation():
    H = lz_hamiltonian(LZParams(v=0.5, delta=1.0))
    times = np.linspace(-6, 6, 601)
    traj = instantaneous_frames(H, times)
    gen = LindbladGenerator(traj, sigma_z, dephasing_spectrum(0.0), H)
    psi0 = traj.basis[0, :, 0]
    uni = evolve_unitary(H, psi0, -6.0, 6.0)
    lind = evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -6.0, 6.0)
    diff = float(np.max(np.abs(lind.state - np.outer(uni.state, uni.state.conj()))))
    x, y, z = bloch_vector(np.outer(uni.state, uni.state.conj()))
    ok = diff < 1e-7 and abs(x * x + y * y + z * z - 1.0) < 1e-8
    return "closed-limit propagation", ok, f"gamma=0 deviation {diff:.1e}"


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
        write_sweep_csv(a, run_lz_sweep(cfg), [cfg])
        write_sweep_csv(b, run_lz_sweep(cfg), [cfg])
        same = a.read_bytes() == b.read_bytes()
    return "deterministic rerun", same, "byte-identical" if same else "outputs differ"


ALL_CHECKS = (
    check_model_spectra,
    check_frames,
    check_generator,
    check_propagation,
    check_determinism,
)


def run_all(verbose: bool = True) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for check in ALL_CHECKS:
        name, ok, detail = check()
        failures += 0 if ok else 1
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return failures
