"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The sweep curves are
computed once per session and shared; every record they produce, every
state the three engines return to them, and the trace of every solve feeds
the integrity criterion.
"""
import math
import warnings

import numpy as np
import pytest

import superlind as sl
from superlind.experiments import BathConfig

from lzutil import excited_population, excited_state, lz_setup

DELTA = 1.0
ALL_RECORDS = []
ALL_STATES = []  # every state an engine returned: a vector of the unitary solve, else rho
ALL_DRIFTS = []  # trace drift of every solve: edge states before renormalization, else rho
ENGINES = ("evolve_unitary", "evolve_lindblad", "evolve_trajectories")


def _criterion(num, name, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print("\n" + line)
    assert ok, line


def _curve(records):
    return {r.inv_v: r for r in records}


def _kept(solve):
    """``solve``, keeping the state of each result it returns in ALL_STATES, and the
    trace drift of an ensemble's rho in ALL_DRIFTS."""
    def kept(*args, **kwargs):
        res = solve(*args, **kwargs)
        ALL_STATES.append(res.state)
        if res.jumps is not None:  # a Monte-Carlo ensemble
            ALL_DRIFTS.append(abs(complex(np.trace(res.state)) - 1.0))
        return res
    return kept


def _propagated(propagate):
    """``propagate``, keeping in ALL_DRIFTS the largest trace drift of the edge states it
    returns, before the one renormalization: of ||psi||^2 for a state vector, else of the
    density matrix of a coherence vector."""
    def propagated(*args):
        raw, steps, rejected = propagate(*args)
        if np.iscomplexobj(raw):
            traces = np.linalg.norm(raw, axis=1) ** 2
        else:
            traces = np.trace(sl.model.density_matrix(raw), axis1=1, axis2=2)
        ALL_DRIFTS.append(float(np.max(np.abs(traces - 1.0))))
        return raw, steps, rejected
    return propagated


def _spied(mp):
    """Patch the engines that the sweeps call, and the propagation core, into ``mp``."""
    for name in ENGINES:
        mp.setattr(sl.experiments, name, _kept(getattr(sl.experiments, name)))
    mp.setattr(sl.propagation, "_propagate", _propagated(sl.propagation._propagate))


def _run(cfg):
    # module fixtures run outside the per-test warning filter: the only
    # warnings expected are the two adiabaticity ones of the fast 1/v = 1 point
    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("always")
        _spied(mp)
        records = sl.run_lz_sweep(cfg)
    for w in caught:
        assert issubclass(w.category, sl.AdiabaticityWarning), str(w.message)
        assert "1/v = 1.0" in str(w.message), str(w.message)
    ALL_RECORDS.extend(records)
    return _curve(records)


@pytest.fixture(scope="module")
def closed_curve():
    return _run(
        sl.SweepConfig(inv_velocities=(1, 2, 3, 4, 5, 6), delta=DELTA, mode="closed")
    )


@pytest.fixture(scope="module")
def dephasing_curves():
    out = {}
    for gamma in (0.003, 0.01, 0.03, 0.1):
        out[gamma] = _run(
            sl.SweepConfig(
                inv_velocities=(1, 2, 3, 4, 5, 6),
                delta=DELTA,
                mode="superadiabatic",
                order=4,
                bath=BathConfig(kind="dephasing", gamma0=gamma),
            )
        )
    return out


@pytest.fixture(scope="module")
def instantaneous_curve():
    return _run(
        sl.SweepConfig(
            inv_velocities=(3, 4, 5, 6),
            delta=DELTA,
            mode="instantaneous",
            bath=BathConfig(kind="dephasing", gamma0=0.1),
        )
    )


@pytest.fixture(scope="module")
def cold_ohmic_curves():
    out = {0.0: None}
    for gamma0 in (0.01, 0.03):
        out[gamma0] = _run(
            sl.SweepConfig(
                inv_velocities=(2, 3, 4),
                delta=DELTA,
                mode="superadiabatic",
                order=4,
                bath=BathConfig(kind="ohmic", gamma0=gamma0, cutoff=5.0, temperature=0.02),
            )
        )
    return out


@pytest.fixture(scope="module")
def warm_ohmic_curve():
    return _run(
        sl.SweepConfig(
            inv_velocities=(1, 2, 3, 4, 5, 6, 8, 10, 12),
            delta=DELTA,
            mode="superadiabatic",
            order=4,
            bath=BathConfig(kind="ohmic", gamma0=0.1, cutoff=5.0, temperature=0.5),
        )
    )


@pytest.fixture(scope="module")
def unraveling_runs():
    """ME reference and trajectory ensembles at 1/v = 3, T = 0.5, g0 = 0.05."""
    H, t_final, times, base, traj = lz_setup(3.0, order=4)
    gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.05, 5.0, 0.5))
    psi0 = traj.basis[0, :, 0]
    excited = excited_state(H, t_final)
    with pytest.MonkeyPatch.context() as mp:
        _spied(mp)
        me = sl.experiments.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -t_final, t_final)
        ensembles = {
            m: sl.experiments.evolve_trajectories(
                gen, psi0, -t_final, t_final, sl.TrajectoryConfig(n_traj=m, seed=2025)).state
            for m in (250, 1000, 4000)
        }
    ALL_RECORDS.append(
        sl.SweepRecord(
            gamma0=0.05, inv_v=3.0, p_ge=excited_population(me.state, excited),
            min_eigenvalue=me.diagnostics.min_eigenvalue,
            adiabaticity=1.0 / 6.0,
        )
    )
    return me.state, ensembles, excited


def test_criterion_1_closed_oracle(closed_curve):
    worst = 0.0
    for inv_v, record in closed_curve.items():
        oracle = sl.closed_lz_oracle(DELTA, 1.0 / inv_v)
        worst = max(worst, abs(record.p_ge - oracle) / oracle)
    _criterion(
        1, "closed sweep vs exp(-pi/(2v))", worst <= 0.10,
        f"max relative deviation {worst:.2%} (allowed 10%) over 1/v = 1..6",
    )


def test_criterion_2_dephasing_invariance(closed_curve, dephasing_curves):
    failures = []
    worst = 0.0
    for gamma, curve in dephasing_curves.items():
        for inv_v, record in curve.items():
            p0 = closed_curve[inv_v].p_ge
            tol = max(0.05 * p0, 1e-5)
            diff = abs(record.p_ge - p0)
            worst = max(worst, diff / tol)
            if diff > tol:
                failures.append(f"(1/v={inv_v:g}, gamma={gamma:g}: {diff:.2e} > {tol:.2e})")
    _criterion(
        2, "pure dephasing leaves P unchanged (j=4)", not failures,
        "all 24 (gamma, 1/v) pairs within tolerance" if not failures else
        "failing pairs " + ", ".join(failures) + " ; known limitation: for "
        "1/v <= 2 the adiabatic parameter v/2 reaches 0.25, the fixed choice "
        "j=4 exceeds the optimal order round(2/v) there, and the super-adiabatic "
        "series is already diverging (at 1/v=1 the order-4 residual amplitude "
        "0.72 exceeds even the instantaneous-basis 0.53), so strong dephasing "
        "couples to the basis mismatch; all pairs with 1/v >= 3 pass with wide "
        "margins, and the curves still coincide at the visual resolution of a "
        "log-scale plot",
    )


def test_criterion_3_instantaneous_contrast(closed_curve, instantaneous_curve):
    ratio = instantaneous_curve[5].p_ge / closed_curve[5].p_ge
    inv_vs = np.array(sorted(instantaneous_curve))
    p_inst = np.array([instantaneous_curve[iv].p_ge for iv in inv_vs])
    slope = float(np.polyfit(np.log(1.0 / inv_vs), np.log(p_inst), 1)[0])
    ok = ratio >= 10.0 and 1.5 <= slope <= 2.5
    _criterion(
        3, "instantaneous-basis dephasing artifact", ok,
        f"P ratio at 1/v=5: {ratio:.1f} (need >= 10); dephasing-induced P scales "
        f"like v^{slope:.2f} over 1/v in [3, 6] (need 2 +/- 0.5)",
    )


def test_criterion_4_cold_bath_aids_adiabaticity(closed_curve, cold_ohmic_curves):
    ok = True
    details = []
    for inv_v in (2, 3, 4):
        ladder = [
            closed_curve[inv_v].p_ge,
            cold_ohmic_curves[0.01][inv_v].p_ge,
            cold_ohmic_curves[0.03][inv_v].p_ge,
        ]
        ok = ok and ladder[0] >= ladder[1] >= ladder[2]
        details.append(f"1/v={inv_v}: " + " >= ".join(f"{p:.3e}" for p in ladder))
    _criterion(
        4, "low-temperature coupling lowers P (T=0.02)", ok, "; ".join(details)
    )


def test_criterion_5_warm_bath_nonmonotonic(warm_ohmic_curve):
    inv_vs = sorted(warm_ohmic_curve)
    ps = [warm_ohmic_curve[iv].p_ge for iv in inv_vs]
    # end of the initial descent, then the crest of the thermal rise
    mins = 0
    while mins + 1 < len(ps) and ps[mins + 1] < ps[mins]:
        mins += 1
    maxs = mins
    while maxs + 1 < len(ps) and ps[maxs + 1] > ps[maxs]:
        maxs += 1
    ok = (
        0 < mins < maxs < len(ps) - 1
        and ps[mins] < ps[0]
        and ps[-1] < ps[maxs]
        and ps[-1] < ps[-2]
    )
    shape = ", ".join(f"{iv:g}:{p:.3e}" for iv, p in zip(inv_vs, ps))
    _criterion(
        5, "T=0.5 curve falls, rises, falls again", ok,
        f"dip at 1/v={inv_vs[mins]:g}, crest at 1/v={inv_vs[maxs]:g}, "
        f"final point decreasing; curve {shape}",
    )


def test_criterion_6_integrity_suite(
    closed_curve, dephasing_curves, instantaneous_curve,
    cold_ohmic_curves, warm_ohmic_curve, unraveling_runs,
):
    worst_tr = max(ALL_DRIFTS)
    rhos = [np.outer(s, s.conj()) if s.ndim == 1 else s for s in ALL_STATES]
    worst_h = max(sl.model.hermiticity_defect(rho) for rho in rhos)
    worst_eig = min(r.min_eigenvalue for r in ALL_RECORDS)
    # each record has its engine's state and solve; the unraveling runs add three ensembles
    ok = (worst_tr < 1e-8 and worst_h < 1e-10 and worst_eig >= -1e-7
          and len(rhos) == len(ALL_DRIFTS) == len(ALL_RECORDS) + 3)
    _criterion(
        6, "state integrity over all runs", ok,
        f"{len(ALL_RECORDS)} runs: trace drift {worst_tr:.1e} (< 1e-8), "
        f"hermiticity {worst_h:.1e} (< 1e-10) of {len(rhos)} returned states, "
        f"min eigenvalue {worst_eig:.1e} (>= -1e-7)",
    )


def test_criterion_7_unraveling_equivalence(unraveling_runs):
    rho_me, ensembles, excited = unraveling_runs
    p_me = excited_population(rho_me, excited)
    p_mc = excited_population(ensembles[4000], excited)
    bound = 3.0 * math.sqrt(p_me * (1.0 - p_me) / 4000)
    errors = {
        m: float(np.max(np.abs(rho - rho_me))) for m, rho in ensembles.items()
    }
    ok = abs(p_mc - p_me) <= bound and errors[4000] < errors[250]
    _criterion(
        7, "Monte-Carlo unraveling matches the master equation", ok,
        f"|P_mc - P_me| = {abs(p_mc - p_me):.2e} <= {bound:.2e} at M=4000; "
        f"ensemble error {errors[250]:.2e} (M=250) -> {errors[4000]:.2e} (M=4000)",
    )


def test_criterion_8_superadiabatic_scaling():
    amplitudes = {}
    for inv_v in (4.0, 8.0):  # adiabatic parameters 0.125 and 0.0625
        H, _, times, base, _ = lz_setup(inv_v)
        amps = []
        for j in range(4):
            traj = sl.superadiabatic_frames(H, j, times, base=base)
            amps.append(sl.residual_oscillation(traj))
        amplitudes[inv_v] = amps
    decreasing = all(
        amps[j] > amps[j + 1] for amps in amplitudes.values() for j in range(3)
    )
    ratio = amplitudes[4.0][0] / amplitudes[8.0][0]
    ok = decreasing and 1.6 <= ratio <= 2.4
    _criterion(
        8, "residual oscillation falls with order and scales with A", ok,
        f"amplitudes A=0.125: {['%.4f' % a for a in amplitudes[4.0]]}, "
        f"A=0.0625: {['%.4f' % a for a in amplitudes[8.0]]}; "
        f"j=0 ratio {ratio:.2f} (need 2 +/- 0.4)",
    )


def test_criterion_9_property_suite(tmp_path):
    problems = []

    # frame unitarity on order-0 and order-4 trajectories
    H, _, times, base, traj4 = lz_setup(3.0, order=4)
    try:
        base.validate()
        traj4.validate()
    except sl.SuperlindError as exc:
        problems.append(f"frame invariants: {exc}")

    # gauge invariance of the master-equation right-hand side
    rng = np.random.default_rng(77)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    rephased = sl.FrameTrajectory(
        base.times, base.basis * phases[None, None, :], base.energies,
        order=0, hamiltonian=H,
    )
    spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
    gen_a = sl.LindbladGenerator(base, sl.sigma_z, spec)
    gen_b = sl.LindbladGenerator(rephased, sl.sigma_z, spec)
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        t = rng.uniform(times[0], times[-1])
        if np.max(np.abs(gen_a.rhs(rho, t) - gen_b.rhs(rho, t))) > 1e-12:
            problems.append("gauge invariance broken")
            break

    # trace annihilation on 100 random states
    worst = 0.0
    for _ in range(100):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        t = rng.uniform(times[0], times[-1])
        worst = max(worst, abs(complex(np.trace(gen_a.rhs(rho, t)))))
    if worst >= 1e-12:
        problems.append(f"trace annihilation {worst:.1e}")

    # ohmic zero-frequency limit
    if abs(sl.ohmic_spectrum(0.01, 5.0, 0.5).gamma(0.0) - 0.005) > 1e-9:
        problems.append("gamma(0) != gamma0*T")

    # detailed-balance flag behavior
    kms = sl.ohmic_spectrum(0.1, 5.0, 0.5, symmetric_cutoff=True)
    lit = sl.ohmic_spectrum(0.1, 5.0, 0.5)
    for w in (0.5, 1.0, 2.0):
        if abs(kms.gamma(-w) - math.exp(-w / 0.5) * kms.gamma(w)) > 1e-12:
            problems.append("symmetric cutoff violates detailed balance")
        expected = math.exp(-w / 0.5 + 2 * w / 5.0) * lit.gamma(w)
        if abs(lit.gamma(-w) - expected) > 1e-12:
            problems.append("literal cutoff ratio wrong")

    # byte-identical reruns of a small sweep
    cfg = sl.SweepConfig(
        inv_velocities=(1.0, 2.0), mode="superadiabatic", order=1,
        bath=BathConfig(kind="dephasing", gamma0=0.01),
        window_factor=10.0, rtol=1e-6, atol=1e-9,
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sl.run_lz_sweep(cfg, output=out_a)
    sl.run_lz_sweep(cfg, output=out_b)
    if out_a.read_bytes() != out_b.read_bytes():
        problems.append("reruns are not byte-identical")

    _criterion(
        9, "property suite", not problems,
        "unitarity, gauge invariance, trace annihilation, gamma(0) limit, "
        "detailed-balance flag, deterministic reruns all hold"
        if not problems else "; ".join(problems),
    )
