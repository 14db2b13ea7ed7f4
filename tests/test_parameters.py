"""One scalar-parameter rule at every public entry point.

Each row is an entry point and one of its scalar parameters. A value that is
not a finite real scalar in range (for an integer parameter, not an integer
in range) raises ParameterError naming the parameter; Python and numpy
numbers of the right kind pass. The ``sample_times`` of the two solves that
take them, and the times of ``H.on_grid``, follow the same rule for a 1-d
sequence of finite reals. An array argument that numpy does not read as numbers
of its kind (ragged, a string of letters, bools, or complex numbers for a real
array) raises ParameterError naming it too, as does one of the right kind but the
wrong shape or range (DimensionError for a shape).
"""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import superlind as sl

H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
TIMES = np.linspace(-2.0, 2.0, 41)
FRAMES = sl.instantaneous_frames(H, TIMES)
GEN = sl.LindbladGenerator(FRAMES, sl.sigma_z, sl.dephasing_spectrum(0.01))
PSI0 = FRAMES.basis[0, :, 0]
RHO0 = np.outer(PSI0, PSI0.conj())
MC = sl.TrajectoryConfig(n_traj=2)
CLOSED = sl.SweepConfig(inv_velocities=(4.0,), mode="closed", window_factor=10.0)


def _sweep(**kwargs):
    return sl.SweepConfig(**{"inv_velocities": (2.0,), **kwargs})


# (entry point, parameter, call with the value, a value accepted today)
REAL = [
    ("LZParams", "v", lambda x: sl.LZParams(v=x, delta=1.0), 1.0),
    ("LZParams", "delta", lambda x: sl.LZParams(v=1.0, delta=x), 1.0),
    ("ohmic_spectrum", "gamma0", lambda x: sl.ohmic_spectrum(x, 5.0, 0.5), 1.0),
    ("ohmic_spectrum", "cutoff", lambda x: sl.ohmic_spectrum(0.1, x, 0.5), 5.0),
    ("ohmic_spectrum", "temperature", lambda x: sl.ohmic_spectrum(0.1, 5.0, x), 1.0),
    ("dephasing_spectrum", "gamma0", lambda x: sl.dephasing_spectrum(x), 1.0),
    ("BathConfig", "gamma0", lambda x: sl.BathConfig(kind="dephasing", gamma0=x), 1.0),
    ("BathConfig", "cutoff", lambda x: sl.BathConfig(cutoff=x), 5.0),
    ("BathConfig", "temperature", lambda x: sl.BathConfig(temperature=x), 1.0),
    ("IntegratorConfig", "rtol", lambda x: sl.IntegratorConfig(rtol=x), 1.0),
    ("IntegratorConfig", "atol", lambda x: sl.IntegratorConfig(atol=x), 1.0),
    ("SweepConfig", "inv_velocities[0]", lambda x: _sweep(inv_velocities=(x,)), 2.0),
    ("SweepConfig", "delta", lambda x: _sweep(delta=x), 1.0),
    ("SweepConfig", "window_factor", lambda x: _sweep(window_factor=x), 25.0),
    ("SweepConfig", "rtol", lambda x: _sweep(rtol=x), 1.0),
    ("SweepConfig", "atol", lambda x: _sweep(atol=x), 1.0),
    ("run_sweep_curves", "gamma0", lambda x: sl.run_sweep_curves(CLOSED, (x,)), 0.0),
    ("closed_lz_oracle", "delta", lambda x: sl.closed_lz_oracle(x, 1.0), 1.0),
    ("closed_lz_oracle", "v", lambda x: sl.closed_lz_oracle(1.0, x), 1.0),
    ("run_fig1", "delta", lambda x: sl.run_fig1(x, 0.5, 1, window_factor=10.0), 1.0),
    ("run_fig1", "v", lambda x: sl.run_fig1(1.0, x, 1, window_factor=10.0), 1.0),
    ("run_fig1", "window_factor", lambda x: sl.run_fig1(1.0, 0.5, 1, window_factor=x), 10.0),
    ("TimeDependentHamiltonian", "t", lambda x: H(x), 0.5),
    ("frame_couplings", "step", lambda x: sl.frame_couplings(FRAMES.basis, x), 1.0),
    ("adaptive_time_grid", "t0", lambda x: sl.adaptive_time_grid(H, x, 1.0), -1.0),
    ("adaptive_time_grid", "t1", lambda x: sl.adaptive_time_grid(H, -1.0, x), 1.0),
    ("evolve_unitary", "t0", lambda x: sl.evolve_unitary(H, PSI0, x, 1.0), -1.0),
    ("evolve_unitary", "t1", lambda x: sl.evolve_unitary(H, PSI0, -1.0, x), 1.0),
    ("evolve_lindblad", "t0", lambda x: sl.evolve_lindblad(GEN, RHO0, x, 1.0), -1.0),
    ("evolve_lindblad", "t1", lambda x: sl.evolve_lindblad(GEN, RHO0, -1.0, x), 1.0),
    ("evolve_trajectories", "t0", lambda x: sl.evolve_trajectories(GEN, PSI0, x, 1.0, MC), -1.0),
    ("evolve_trajectories", "t1", lambda x: sl.evolve_trajectories(GEN, PSI0, -1.0, x, MC), 1.0),
]
INTEGER = [
    ("TrajectoryConfig", "n_traj", lambda x: sl.TrajectoryConfig(n_traj=x), 2),
    ("TrajectoryConfig", "seed", lambda x: sl.TrajectoryConfig(n_traj=2, seed=x), 2),
    ("SweepConfig", "order", lambda x: _sweep(order=x), 2),
    ("SweepConfig", "n_traj", lambda x: _sweep(n_traj=x), 2),
    ("SweepConfig", "seed", lambda x: _sweep(seed=x), 2),
    ("superadiabatic_frames", "order",
     lambda x: sl.superadiabatic_frames(H, x, TIMES, base=FRAMES), 2),
    ("FrameTrajectory", "order",
     lambda x: sl.FrameTrajectory(TIMES, FRAMES.basis, FRAMES.energies, x, H), 2),
    ("run_fig1", "order", lambda x: sl.run_fig1(1.0, 0.5, x, window_factor=10.0), 2),
    ("TimeDependentHamiltonian", "dimension",
     lambda x: sl.TimeDependentHamiltonian(x, lambda t: np.eye(2)), 2),
]
NOT_REAL = [None, "1", b"1", 1 + 0j, True, np.bool_(True), math.nan, math.inf, np.array([1.0])]
NOT_INTEGER = NOT_REAL + [2.5, 4.7, -1]
BEYOND_FLOAT = [10**400, Fraction(10**400)]  # real scalars that float() cannot hold
# (entry point, parameter, call with the value, a value whose repr passes Python's
# 4300-digit limit for int-to-str conversion, so no message can print it)
BEYOND_DIGITS = [
    ("TrajectoryConfig", "n_traj", lambda x: sl.TrajectoryConfig(n_traj=x), -10**5000),
    ("TrajectoryConfig", "seed", lambda x: sl.TrajectoryConfig(n_traj=2, seed=x), 10**5000),
    ("LZParams", "v", lambda x: sl.LZParams(x, 1.0), Fraction(-(10**5000 + 1), 10**5000)),
    ("SweepConfig", "inv_velocities", lambda x: _sweep(inv_velocities=x), 10**5000),
    ("BathConfig", "gamma0", lambda x: sl.BathConfig(gamma0=x), Fraction(10**5000 + 1, 10**5000)),
    ("ohmic_spectrum", "symmetric_cutoff",
     lambda x: sl.ohmic_spectrum(0.1, 5.0, 0.5, symmetric_cutoff=x), 10**5000),
]

# (entry point, call with sample_times inside [-1, 1])
SAMPLE_TIMES = [
    ("evolve_unitary", lambda x: sl.evolve_unitary(H, PSI0, -1.0, 1.0, sample_times=x)),
    ("evolve_lindblad", lambda x: sl.evolve_lindblad(GEN, RHO0, -1.0, 1.0, sample_times=x)),
]
NOT_TIMES = [[0.5 + 1j], np.array([0.5 + 0j]), "abc", 0.5, np.float64(0.5), [[0.5]],
             [[0.5], 0.75], [True], [None], ["0.5"], [math.nan], [-math.inf]]
TIMES_ACCEPTED = [None, [], (), [0.5], (-0.5, 0, 0.5), np.array([0.5]), np.array([0, 1]),
                  [np.float64(0.5), np.int64(1)]]
NOT_A_TIME = [None, "a", 1j, True, math.nan, math.inf]


def _cells(rows, values):
    # an id keeps the first 24 characters of a repr; 10**400 has 401 digits
    return [pytest.param(call, name, value, id=f"{entry}.{name}-{value!r:.24}")
            for entry, name, call, _ in rows for value in values]


@pytest.mark.parametrize("call, name, value",
                         _cells(REAL, NOT_REAL + BEYOND_FLOAT) + _cells(INTEGER, NOT_INTEGER)
                         + [pytest.param(call, name, value, id=f"{entry}.{name}-beyond-digits")
                            for entry, name, call, value in BEYOND_DIGITS])
def test_rejected_with_the_parameter_named(call, name, value):
    with pytest.raises(sl.ParameterError) as info:
        call(value)
    assert name in str(info.value)
    assert len(str(info.value)) < 120  # the value shown in at most 40 characters


@pytest.mark.parametrize("call, valid, kind", [
    pytest.param(call, valid, kind, id=f"{entry}.{name}-{kind.__name__}")
    for rows, kinds in ((REAL, (float, np.float64, np.int64, int)), (INTEGER, (np.int64, int)))
    for entry, name, call, valid in rows for kind in kinds
])
def test_python_and_numpy_numbers_accepted(call, valid, kind):
    call(kind(valid))


def test_dimension_below_two_stays_a_dimension_error():
    for dim in (1, 0, -1, np.int64(1)):
        with pytest.raises(sl.DimensionError, match="dimension must be >= 2"):
            sl.TimeDependentHamiltonian(dim, None)


def test_order_above_the_cap_stays_an_order_cap_error():
    for build in (lambda: _sweep(order=sl.frames.J_MAX + 1),
                  lambda: sl.FrameTrajectory(TIMES, FRAMES.basis, FRAMES.energies, 13, H)):
        with pytest.raises(sl.OrderCapError):
            build()


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{entry}.sample_times-{value!r:.24}")
    for entry, call in SAMPLE_TIMES for value in NOT_TIMES])
def test_sample_times_rejected_with_the_parameter_named(call, value):
    # non-real and ragged values get check_array's message, the rest the sequence rule's
    with pytest.raises(sl.ParameterError, match="^sample_times must be (a 1-d sequence of "
                                                "finite|a numeric array of float,)"):
        call(value)


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{entry}.sample_times-{value!r:.24}")
    for entry, call in SAMPLE_TIMES for value in TIMES_ACCEPTED])
def test_sample_times_of_python_and_numpy_reals_accepted(call, value):
    call(value)


@pytest.mark.parametrize("call, message", [
    pytest.param(H, "^t must be", id="H(t)"),
    pytest.param(lambda x: H.on_grid(np.array([x])),
                 "^times must be (a 1-d sequence of finite|a numeric array of float,)",
                 id="H.on_grid")])
@pytest.mark.parametrize("value", NOT_A_TIME, ids=repr)
def test_hamiltonian_rejects_a_time_that_is_not_a_finite_real(call, message, value):
    with pytest.raises(sl.ParameterError, match=message):
        call(value)


RAGGED = [[1.0, 0.0], [0.0]]
BOOL_GRID = np.array([False, True])  # as floats, the uniform increasing grid (0, 1)
STATES = np.stack([RHO0, RHO0])  # two 2x2 states
NO_FILE = "no-such-directory/bloch.csv"  # opening it raises: each check must run first
OHMIC = sl.ohmic_spectrum(0.1, 5.0, 0.5)
# (entry point, the argument's name in the message, a call with a malformed array)
MALFORMED_ARRAYS = [
    ("FrameTrajectory-ragged-basis", "basis",
     lambda: sl.FrameTrajectory(TIMES[:2], [FRAMES.basis[0], RAGGED], FRAMES.energies[:2], 0, H)),
    ("FrameTrajectory-string-basis", "basis",
     lambda: sl.FrameTrajectory(TIMES[:2], "abc", FRAMES.energies[:2], 0, H)),
    ("FrameTrajectory-ragged-times", "times",
     lambda: sl.FrameTrajectory(RAGGED, FRAMES.basis[:2], FRAMES.energies[:2], 0, H)),
    ("instantaneous_frames-ragged-times", "times", lambda: sl.instantaneous_frames(H, RAGGED)),
    ("instantaneous_frames-string", "times", lambda: sl.instantaneous_frames(H, "abc")),
    ("H.on_grid-ragged-times", "times", lambda: H.on_grid(RAGGED)),
    ("superadiabatic_frames-ragged-times", "times",
     lambda: sl.superadiabatic_frames(H, 1, RAGGED)),
    ("index_at-string", "t", lambda: FRAMES.index_at("x")),
    ("evolve_unitary-string-psi0", "state vector", lambda: sl.evolve_unitary(H, "ab", -1.0, 1.0)),
    ("evolve_unitary-ragged-psi0", "state vector",
     lambda: sl.evolve_unitary(H, RAGGED, -1.0, 1.0)),
    ("affine-ragged-h0", "h0",
     lambda: sl.TimeDependentHamiltonian.affine(RAGGED, np.eye(2))),
    ("LindbladGenerator-ragged-coupling", "coupling",
     lambda: sl.LindbladGenerator(FRAMES, RAGGED, sl.dephasing_spectrum(0.01))),
    ("check_density_matrix-ragged", "density matrix",
     lambda: sl.propagation.check_density_matrix(RAGGED)),
    ("bloch_vector-ragged", "rho", lambda: sl.bloch_vector(RAGGED)),
    ("bloch_vector-string", "rho", lambda: sl.bloch_vector("ab")),
    ("BathSpectrum-ragged-gamma", "gamma(w)", lambda: sl.LindbladGenerator(
        FRAMES, sl.sigma_z, sl.BathSpectrum(lambda w: [np.zeros(3), np.zeros(2)]))),
    ("BathSpectrum-ragged-shift", "shift(w)", lambda: sl.LindbladGenerator(
        FRAMES, sl.sigma_z, sl.BathSpectrum(np.abs, lambda w: [np.zeros(3), np.zeros(2)]))),
    ("LindbladGenerator.rhs-ragged-rho", "rho", lambda: GEN.rhs(RAGGED, 0.0)),
    # a real array takes no complex numbers and no bools, a complex one no bools; each
    # bool value here would pass every other check of its entry point
    ("instantaneous_frames-complex", "times", lambda: sl.instantaneous_frames(H, TIMES + 1j)),
    ("instantaneous_frames-bool", "times", lambda: sl.instantaneous_frames(H, BOOL_GRID)),
    ("superadiabatic_frames-complex", "times",
     lambda: sl.superadiabatic_frames(H, 1, TIMES + 0.5j)),
    ("superadiabatic_frames-bool", "times", lambda: sl.superadiabatic_frames(H, 0, BOOL_GRID)),
    ("FrameTrajectory-complex-times", "times",
     lambda: sl.FrameTrajectory(TIMES + 1j, FRAMES.basis, FRAMES.energies, 0, H)),
    ("FrameTrajectory-bool-times", "times",
     lambda: sl.FrameTrajectory(BOOL_GRID, FRAMES.basis[:2], FRAMES.energies[:2], 0, H)),
    ("FrameTrajectory-complex-energies", "energies",
     lambda: sl.FrameTrajectory(TIMES, FRAMES.basis, FRAMES.energies + 1j, 0, H)),
    ("FrameTrajectory-bool-energies", "energies",
     lambda: sl.FrameTrajectory(TIMES[:2], FRAMES.basis[:2], np.zeros((2, 2), bool), 0, H)),
    ("index_at-complex", "t", lambda: FRAMES.index_at(np.array([0.1 + 5j]))),
    ("index_at-bool", "t", lambda: FRAMES.index_at(True)),
    ("evolve_unitary-bool-psi0", "state vector",
     lambda: sl.evolve_unitary(H, np.array([True, False]), -1.0, 1.0)),
    ("LindbladGenerator-bool-coupling", "coupling",
     lambda: sl.LindbladGenerator(FRAMES, np.eye(2, dtype=bool), sl.dephasing_spectrum(0.01))),
    ("frame_couplings-ragged-basis", "basis",
     lambda: sl.frame_couplings([FRAMES.basis[0], RAGGED], 1.0)),
    ("frame_couplings-bool-basis", "basis",
     lambda: sl.frame_couplings(np.zeros((3, 2, 2), bool), 1.0)),
    ("frame_couplings-string-basis", "basis", lambda: sl.frame_couplings("abc", 1.0)),
    ("write_bloch_csv-string-times", "times", lambda: sl.write_bloch_csv(NO_FILE, "ab", STATES)),
    ("write_bloch_csv-complex-times", "times",
     lambda: sl.write_bloch_csv(NO_FILE, TIMES[:2] + 1j, STATES)),
    ("write_bloch_csv-bool-times", "times",
     lambda: sl.write_bloch_csv(NO_FILE, BOOL_GRID, STATES)),
    # the spectrum callables and a Hamiltonian's evaluator are converted where they are called
    ("ohmic_spectrum.gamma-complex-w", "w", lambda: OHMIC.gamma(np.array([1.0 + 1j]))),
    ("ohmic_spectrum.gamma-bool-w", "w", lambda: OHMIC.gamma(True)),
    ("ohmic_spectrum.gamma-string-w", "w", lambda: OHMIC.gamma("abc")),
    ("ohmic_spectrum.gamma-ragged-w", "w", lambda: OHMIC.gamma(RAGGED)),
    ("dephasing_spectrum.gamma-complex-w", "w", lambda: sl.dephasing_spectrum(0.1).gamma(1j)),
    ("dephasing_spectrum.gamma-bool-w", "w", lambda: sl.dephasing_spectrum(0.1).gamma(True)),
    ("BathSpectrum.shift-complex-w", "w", lambda: OHMIC.shift(1j)),
    ("BathSpectrum.shift-bool-w", "w", lambda: OHMIC.shift(np.array([True]))),
    ("H.on_grid-bool-evaluator", "H(t)", lambda: sl.TimeDependentHamiltonian(
        2, lambda t: np.eye(2, dtype=bool)).on_grid([0.0])),
    ("H.on_grid-string-evaluator", "H(t)", lambda: sl.TimeDependentHamiltonian(
        2, lambda t: np.array([["a", "b"], ["b", "a"]])).on_grid([0.0])),
]


@pytest.mark.parametrize("name, call", [pytest.param(name, call, id=entry)
                                        for entry, name, call in MALFORMED_ARRAYS])
def test_malformed_arrays_rejected_with_the_argument_named(name, call):
    with pytest.raises(sl.ParameterError,
                       match=f"^[^,]*{re.escape(name)}[^,]* must be a numeric array"):
        call()


# (entry point, error, the argument's name that starts the message, a call with a value
# of the argument's kind but outside its range or shape)
OUT_OF_DOMAIN = [
    ("frame_couplings-zero-step", sl.ParameterError, "step",
     lambda: sl.frame_couplings(FRAMES.basis, 0)),
    ("frame_couplings-negative-step", sl.ParameterError, "step",
     lambda: sl.frame_couplings(FRAMES.basis, -1.0)),
    ("frame_couplings-one-matrix", sl.DimensionError, "basis",
     lambda: sl.frame_couplings(FRAMES.basis[0], 1.0)),
    ("frame_couplings-rectangular-basis", sl.DimensionError, "basis",
     lambda: sl.frame_couplings(FRAMES.basis[:, :1], 1.0)),
    ("write_bloch_csv-short-times", sl.DimensionError, "times",
     lambda: sl.write_bloch_csv(NO_FILE, TIMES[:1], STATES)),
    ("write_bloch_csv-column-times", sl.DimensionError, "times",
     lambda: sl.write_bloch_csv(NO_FILE, TIMES[:2, None], STATES)),
]


@pytest.mark.parametrize("error, name, call", [pytest.param(error, name, call, id=entry)
                                               for entry, error, name, call in OUT_OF_DOMAIN])
def test_out_of_domain_arguments_rejected_with_the_argument_named(error, name, call):
    with pytest.raises(error, match=f"^{re.escape(name)} must"):
        call()
