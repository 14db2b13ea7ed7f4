import math

import numpy as np
import pytest

import superlind as sl
from superlind.model import hermiticity_defect

from lzutil import constant_hamiltonian

_EPS = np.finfo(float).eps


class TestLZHamiltonian:
    def test_crossing_matrix(self):
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        assert np.allclose(H(0.0), 0.5 * np.array([[0, 1], [1, 0]]))
        assert np.allclose(np.linalg.eigvalsh(H(0.0)), [-0.5, 0.5])

    def test_off_crossing_matrix(self):
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        assert np.allclose(H(2.0), 0.5 * np.array([[-2, 1], [1, 2]]))

    def test_instantaneous_gap(self):
        # oracle: a traceless Hermitian 2x2 has gap 2*sqrt(det-free invariant)
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.uniform(0.05, 3.0)
            delta = rng.uniform(0.1, 2.0)
            t = rng.uniform(-5.0, 5.0)
            H = sl.lz_hamiltonian(sl.LZParams(v=v, delta=delta))
            gap = np.diff(np.linalg.eigvalsh(H(t)))[0]
            assert gap == pytest.approx(math.sqrt(v * v * t * t + delta * delta), rel=1e-12)

    def test_hermitian_everywhere(self):
        H = sl.lz_hamiltonian(sl.LZParams(v=0.3, delta=1.0))
        for t in np.linspace(-40, 40, 17):
            assert hermiticity_defect(H(t)) < 1e-12

    @pytest.mark.parametrize("v,delta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (np.nan, 1.0)])
    def test_invalid_params(self, v, delta):
        with pytest.raises(sl.ParameterError):
            sl.LZParams(v=v, delta=delta)

    def test_non_hermitian_evaluator_rejected(self):
        H = sl.TimeDependentHamiltonian(2, lambda t: np.array([[0, 1], [0, 0]], complex))
        with pytest.raises(sl.ParameterError):
            H(0.0)

    def test_on_grid_matches_pointwise(self):
        H = sl.lz_hamiltonian(sl.LZParams(v=0.3, delta=1.0))
        times = np.linspace(-40, 40, 17)
        stack = H.on_grid(times)
        assert stack.shape == (17, 2, 2)
        assert np.array_equal(stack, np.array([H(t) for t in times]))
        assert np.array_equal(stack, [0.5 * np.array([[-0.3 * t, 1.0], [1.0, 0.3 * t]])
                                      for t in times])
        assert np.array_equal(hermiticity_defect(stack), [hermiticity_defect(m) for m in stack])

    def test_on_grid_wrong_shape(self):
        H = sl.TimeDependentHamiltonian(2, lambda t: np.eye(3, dtype=complex))
        with pytest.raises(sl.DimensionError):
            H.on_grid([0.0, 1.0])
        ragged = sl.TimeDependentHamiltonian(2, lambda t: np.eye(2 if t < 0.5 else 3))
        with pytest.raises(sl.DimensionError):
            ragged.on_grid([0.0, 1.0])

    def test_on_grid_names_non_hermitian_time(self):
        # Hermitian everywhere except at the last time of the stack
        def evaluate(t):
            return np.array([[0.0, 1.0], [0.0 if t == 2.5 else 1.0, 0.0]], dtype=complex)

        H = sl.TimeDependentHamiltonian(2, evaluate)
        H.on_grid(np.linspace(0.0, 2.0, 5))
        with pytest.raises(sl.ParameterError, match=r"H\(t=2\.5\) is not Hermitian"):
            H.on_grid(np.linspace(0.0, 2.5, 6))

    def test_nan_entries_rejected(self):
        # NaN - NaN is NaN, so the defect must not pass by failing a ">" test
        H = sl.TimeDependentHamiltonian(
            2, lambda t: np.array([[np.nan if t == 1.0 else 0.0, 1.0], [1.0, 0.0]], dtype=complex))
        H.on_grid([0.0, 0.5])
        with pytest.raises(sl.ParameterError, match=r"H\(t=1\.0\) is not Hermitian"):
            H.on_grid([0.0, 0.5, 1.0])
        with pytest.raises(sl.ParameterError, match="h0 is not Hermitian"):
            sl.TimeDependentHamiltonian.affine(np.diag([np.nan, 0.0]), np.eye(2))

    @pytest.mark.parametrize("pointwise", [True, False])
    def test_on_grid_takes_a_1d_sequence(self, pointwise):
        h = 0.5 * np.asarray(sl.sigma_x)
        H = (sl.TimeDependentHamiltonian(2, lambda t: h + t * sl.sigma_z) if pointwise
             else sl.TimeDependentHamiltonian.affine(h, sl.sigma_z))
        for empty in ([], np.array([])):
            stack = H.on_grid(empty)
            assert stack.shape == (0, 2, 2) and stack.dtype == complex
        for times, shape in ((0.5, r"\(\)"), (np.array(0.5), r"\(\)"),
                             ([[0.0], [1.0]], r"\(2, 1\)")):
            with pytest.raises(sl.ParameterError, match=f"1-d sequence, got shape {shape}"):
                H.on_grid(times)
        np.testing.assert_array_equal(H.on_grid((1.0, 2.0)), [h + sl.sigma_z, h + 2 * sl.sigma_z])

    def test_pointwise_grid_evaluated_once(self):
        # the stack of the last times evaluated is returned again, read-only, while
        # the times are bit for bit the same; the evaluator sees Python floats
        calls = []

        def evaluate(t):
            calls.append(t)
            return np.array([[t, 1.0], [1.0, -t]], dtype=complex)

        H = sl.TimeDependentHamiltonian(2, evaluate)
        times = np.linspace(-1.0, 1.0, 9)
        first = H.on_grid(times)
        assert calls == times.tolist() and all(type(t) is float for t in calls)
        again = H.on_grid(list(times))                    # equal times, any sequence: a hit
        assert again is first and len(calls) == 9
        with pytest.raises(ValueError, match="read-only"):
            again[0, 0, 0] = 7.0
        nudged = times.copy()
        nudged[4] = np.nextafter(nudged[4], 1.0)          # one ulp apart, same length: a miss
        H.on_grid(nudged)
        assert len(calls) == 18 and calls[-5] == nudged[4] != times[4]
        miss = H.on_grid(times)
        assert len(calls) == 27 and miss is not first
        assert np.array_equal(miss, first) and np.array_equal(miss, H.on_grid(times))
        assert len(calls) == 27
        H.on_grid([0.0])
        H.on_grid([-0.0])                                 # equal to 0.0, but not in its bits
        assert len(calls) == 29 and math.copysign(1.0, calls[-1]) == -1.0

    def test_affine_lz_matches_pointwise_formula(self):
        rng = np.random.default_rng(11)
        for v in (0.3, 1.0 / 2.02, 1.0 / 3.0, 2.5):
            H = sl.lz_hamiltonian(sl.LZParams(v=v, delta=0.7))
            times = rng.uniform(-300.0, 300.0, 1000)
            want = [0.5 * np.array([[-v * t, 0.7], [0.7, v * t]], dtype=complex) for t in times]
            np.testing.assert_array_equal(H.on_grid(times), want)

    def test_affine_checks_its_matrices(self):
        h = 0.5 * np.asarray(sl.sigma_x)
        H = sl.TimeDependentHamiltonian.affine(h, sl.sigma_z)
        assert H.dim == 2 and np.array_equal(H(2.0), h + 2.0 * sl.sigma_z)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        for h0, h1, error in ((skew, h, sl.ParameterError), (h, skew, sl.ParameterError),
                              (h, np.eye(3), sl.DimensionError),
                              (np.ones((2, 3)), h, sl.DimensionError),
                              (np.ones((1, 1)), np.ones((1, 1)), sl.DimensionError)):
            with pytest.raises(error):
                sl.TimeDependentHamiltonian.affine(h0, h1)

    def test_affine_is_exactly_hermitian_at_every_time(self):
        # h1's in-tolerance defect must not grow with t into a failed check
        h0 = 0.5 * np.asarray(sl.sigma_x)
        h1 = np.array([[-0.5, 1e-13], [0.0, 0.5]], dtype=complex)
        H = sl.TimeDependentHamiltonian.affine(h0, h1)
        for t in (50.0, 1e6):
            assert hermiticity_defect(H(t)) == 0.0
        stack = H.on_grid(np.linspace(-1e6, 1e6, 101))
        assert np.all(hermiticity_defect(stack) == 0.0)
        assert H(50.0)[0, 1] == H(50.0)[1, 0] == 0.5 + 50.0 * 0.5e-13

    def test_coupling_operator_checks(self):
        # the generator takes the coupling operator as an (N, N) array and checks it
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        frames = sl.instantaneous_frames(H, np.linspace(-2.0, 2.0, 41))
        spectrum = sl.dephasing_spectrum(0.1)
        a = np.diag([1.0, -1.0]).astype(complex)
        gen = sl.LindbladGenerator(frames, a, spectrum)
        a[0, 0] = 2.0  # the generator holds a read-only copy
        assert np.array_equal(gen.coupling, sl.sigma_z) and not gen.coupling.flags.writeable
        with pytest.raises(sl.ParameterError, match="coupling operator is not Hermitian"):
            sl.LindbladGenerator(frames, np.array([[0, 1j], [1j, 0]]), spectrum)
        with pytest.raises(sl.DimensionError, match="coupling operator must be a square matrix"):
            sl.LindbladGenerator(frames, np.ones((2, 3)), spectrum)
        with pytest.raises(sl.DimensionError, match="coupling is 3x3 but frames are 2-dimensional"):
            sl.LindbladGenerator(frames, np.eye(3), spectrum)


class TestOhmicSpectrum:
    def test_zero_frequency_limit(self):
        spec = sl.ohmic_spectrum(0.01, 5.0, 0.5)
        assert spec.gamma(0.0) == pytest.approx(0.005, abs=1e-12)

    def test_continuity_at_zero(self):
        spec = sl.ohmic_spectrum(0.01, 5.0, 0.5)
        for eps in (1e-6, -1e-6):
            assert abs(spec.gamma(eps) - 0.005) < 1e-8

    def test_zero_temperature_values(self):
        spec = sl.ohmic_spectrum(1.0, 5.0, 0.0)
        assert spec.gamma(1.0) == pytest.approx(math.exp(-0.2), rel=1e-12)
        assert spec.gamma(-1.0) == 0.0
        assert spec.gamma(0.0) == 0.0

    def test_nonnegative_and_downward_dominant(self):
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
        w = np.linspace(-10.0, 10.0, 1001)
        assert np.all(spec.gamma(w) >= 0.0)
        assert np.all(sl.ohmic_spectrum(0.01, 5.0, 0.5).gamma(w) >= 0.0)
        pos = np.linspace(0.1, 5.0, 50)
        assert np.all(spec.gamma(-pos) < spec.gamma(pos))
        assert np.all(spec.gamma(pos) > 0.0)

    def test_array_matches_scalar(self):
        spec = sl.ohmic_spectrum(0.05, 5.0, 0.3)
        w = np.array([-2.0, -1e-9, 0.0, 1e-9, 2.0])
        arr = spec.gamma(w)
        for wi, gi in zip(w, arr):
            assert gi == pytest.approx(spec.gamma(float(wi)), abs=1e-15)

    def test_detailed_balance_flag(self):
        temp = 0.5
        kms = sl.ohmic_spectrum(0.1, 5.0, temp, symmetric_cutoff=True)
        literal = sl.ohmic_spectrum(0.1, 5.0, temp)
        for w in (0.25, 0.5, 1.0, 3.0):
            assert kms.gamma(-w) == pytest.approx(
                math.exp(-w / temp) * kms.gamma(w), rel=1e-12
            )
            # literal cutoff overshoots detailed balance by exp(2w/cutoff)
            ratio = literal.gamma(-w) / (math.exp(-w / temp) * literal.gamma(w))
            assert ratio == pytest.approx(math.exp(2 * w / 5.0), rel=1e-10)

    def test_extreme_frequencies_stay_finite(self):
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.02)
        assert spec.gamma(-30.0) == 0.0
        assert np.isfinite(spec.gamma(30.0))

    def test_far_below_zero_frequency(self):
        # e^{-w/cutoff} overflows below w = -709.78 cutoff, where the thermal
        # factor rounds to 0: the rate underflows to 0 (T < cutoff) ...
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
        w = np.array([-5000.0, -3550.0, -3548.0, -1000.0])
        assert spec.gamma(-5000.0) == 0.0
        assert np.array_equal(spec.gamma(w), np.zeros(4))
        # ... or stays finite, gamma0 |w| e^{|w|/cutoff} / (e^{|w|/T} - 1) (T > cutoff)
        warm = sl.ohmic_spectrum(0.1, 1.0, 2.0)
        for w in (-709.0, -710.0, -800.0):
            log_want = math.log(0.1 * -w) - w + w / 2.0 - math.log1p(-math.exp(w / 2.0))
            assert math.log(warm.gamma(w)) == pytest.approx(log_want, rel=1e-14)
        # a frame gap of 5000 no longer puts NaN into the generator
        H = constant_hamiltonian(2500.0 * sl.sigma_z + 0.1 * sl.sigma_x)
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 1e-3, 5))
        gen = sl.LindbladGenerator(traj, sl.sigma_x, spec)
        assert np.all(np.isfinite(gen.liouvillian(np.array([5e-4]))))

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("temperature", [0.02, 0.3, 0.5, 2.0])
    def test_matches_40_digit_rate(self, temperature, symmetric):
        # relative error within rounding of the exponent |w|/T + |w|/cutoff,
        # wherever the rate is a normal float
        mpmath = pytest.importorskip("mpmath")
        gamma0, cutoff = 0.1, 5.0
        w = np.concatenate([np.linspace(-50.0, 50.0, 1001),
                            [1e-9, -1e-9, 1e-6, -1e-6, 1e-300, -1e-300, -709.0, -710.0, -800.0]])
        got = sl.ohmic_spectrum(gamma0, cutoff, temperature, symmetric_cutoff=symmetric).gamma(w)
        with mpmath.workdps(40):
            checked = 0
            for wi, gi in zip(w, got):
                x = mpmath.mpf(float(wi))
                arg = abs(x) if symmetric else x
                thermal = x / -mpmath.expm1(-x / temperature) if x else temperature
                want = gamma0 * thermal * mpmath.exp(-arg / cutoff)
                if want < np.finfo(float).tiny:
                    continue
                bound = 8 * _EPS * (1 + abs(wi) / temperature + abs(wi) / cutoff)
                assert abs(gi - want) <= bound * want, (wi, gi, want)
                checked += 1
        assert checked > 500

    def test_subnormal_tail(self):
        # 0.1 * 14.5 * exp(-14.5/0.02 + 14.5/5) = 3.6e-314 is subnormal: it stays there, not 0
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.02)
        assert 0.0 < spec.gamma(-14.5) < np.finfo(float).tiny
        assert spec.gamma(np.array([-14.5]))[0] == spec.gamma(-14.5)

    @pytest.mark.parametrize(
        "args", [(-0.1, 5.0, 0.5), (0.1, 0.0, 0.5), (0.1, 5.0, -0.1),
                 (math.inf, 5.0, 0.5), (0.1, math.inf, 0.5), (0.1, 5.0, math.inf),
                 (np.array([0.1, 0.2]), 5.0, 0.5), (0.1, np.array([5.0, 6.0]), 0.5),
                 (0.1, 5.0, np.array([0.5])), ("0.1", 5.0, 0.5), (0.1, b"5", 0.5)]
    )
    def test_invalid_params(self, args):
        # an array once failed on numpy's ambiguous truth value, or broadcast into every rate
        scalars = all(isinstance(a, float) for a in args)
        with pytest.raises(sl.ParameterError,
                           match="must be finite and" if scalars else "must be a real scalar"):
            sl.ohmic_spectrum(*args)


class TestDephasingSpectrum:
    def test_weight_only_at_zero(self):
        spec = sl.dephasing_spectrum(0.003)
        assert spec.gamma(0.0) == pytest.approx(0.003, abs=1e-15)
        assert spec.gamma(1.0) == 0.0
        assert spec.gamma(-0.3) == 0.0

    def test_zero_strength_disables_everything(self):
        spec = sl.dephasing_spectrum(0.0)
        w = np.linspace(-3, 3, 61)
        assert np.all(spec.gamma(w) == 0.0)

    def test_negative_strength_rejected(self):
        with pytest.raises(sl.ParameterError):
            sl.dephasing_spectrum(-1e-3)

    @pytest.mark.parametrize("gamma0", [np.array([0.1, 0.2]), np.array([0.1]), "0.1", b"0.1"])
    def test_non_scalar_strength_rejected(self, gamma0):
        with pytest.raises(sl.ParameterError, match="gamma0 must be a real scalar"):
            sl.dephasing_spectrum(gamma0)


def test_custom_spectrum_passthrough():
    spec = sl.BathSpectrum(lambda w: np.abs(w), shift=lambda w: 0.1 * np.asarray(w))
    assert spec.gamma(-2.0) == 2.0
    assert spec.shift(3.0) == pytest.approx(0.3)


def test_default_shift_is_zero():
    spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
    assert spec.shift(1.7) == 0.0
    assert np.all(spec.shift(np.array([1.0, -2.0])) == 0.0)
