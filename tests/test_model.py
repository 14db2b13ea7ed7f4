import math

import numpy as np
import pytest

import superlind as sl
from superlind.model import hermiticity_defect


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
        gen = sl.LindbladGenerator(frames, a, spectrum, H)
        a[0, 0] = 2.0  # the generator holds a read-only copy
        assert np.array_equal(gen.coupling, sl.sigma_z) and not gen.coupling.flags.writeable
        with pytest.raises(sl.ParameterError, match="coupling operator is not Hermitian"):
            sl.LindbladGenerator(frames, np.array([[0, 1j], [1j, 0]]), spectrum, H)
        with pytest.raises(sl.DimensionError, match="coupling operator must be a square matrix"):
            sl.LindbladGenerator(frames, np.ones((2, 3)), spectrum, H)
        with pytest.raises(sl.DimensionError, match="coupling is 3x3 but frames are 2-dimensional"):
            sl.LindbladGenerator(frames, np.eye(3), spectrum, H)


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
        w = np.linspace(-8.0, 8.0, 801)
        rates = spec.gamma(w)
        assert np.all(rates >= 0.0)
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
        for w in (0.25, 1.0, 3.0):
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

    @pytest.mark.parametrize(
        "args", [(-0.1, 5.0, 0.5), (0.1, 0.0, 0.5), (0.1, 5.0, -0.1)]
    )
    def test_invalid_params(self, args):
        with pytest.raises(sl.ParameterError):
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


def test_custom_spectrum_passthrough():
    spec = sl.BathSpectrum(lambda w: np.abs(w), shift=lambda w: 0.1 * np.asarray(w))
    assert spec.gamma(-2.0) == 2.0
    assert spec.shift(3.0) == pytest.approx(0.3)


def test_default_shift_is_zero():
    spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
    assert spec.shift(1.7) == 0.0
    assert np.all(spec.shift(np.array([1.0, -2.0])) == 0.0)
