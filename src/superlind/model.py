"""System models: driven Hamiltonians and bath spectra.

Units: hbar = k_B = 1 throughout. Energies and rates share one scale; for
the avoided-crossing (Landau-Zener) model the gap ``delta`` sets it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, ParameterError

HERMITICITY_TOL = 1e-12

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (sigma_x, sigma_y, sigma_z):
    _m.setflags(write=False)


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """Largest entry of |m - m^dag| of one matrix (a float) or of each in a (..., N, N) stack."""
    d = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1))
    return float(d) if d.ndim == 0 else d


def _require_hermitian(m: np.ndarray, what: str, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if not defect <= tol:  # a NaN entry makes the defect NaN
        raise ParameterError(f"{what} is not Hermitian (defect {defect:.3e} > {tol:.0e})")
    return m


@functools.cache
def operator_basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the N x N matrices, (N^2, N, N), read-only:
    B_0 = I / sqrt(N), the N - 1 diagonal generalized Gell-Mann matrices, then the
    symmetric and the antisymmetric one of each pair j < k, scaled so that
    Tr(B_a B_b) = delta_ab (Hioe & Eberly, PRL 47, 838 (1981))."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[0] = np.eye(n) / math.sqrt(n)
    for m in range(1, n):
        basis[m, range(m + 1), range(m + 1)] = np.append(np.ones(m), -m) / math.sqrt(m * (m + 1))
    j, k = np.triu_indices(n, 1)
    sym, asym = n + np.arange(j.size), n + j.size + np.arange(j.size)
    basis[sym, j, k] = basis[sym, k, j] = math.sqrt(0.5)
    basis[asym, j, k], basis[asym, k, j] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
    basis.setflags(write=False)
    return basis


def coherence_vector(rho: np.ndarray) -> np.ndarray:
    """Real coordinates x_a = Tr(B_a rho) of Hermitian (..., N, N), (..., N^2); tr = sqrt(N) x_0."""
    n = rho.shape[-1]
    return (rho.reshape(*rho.shape[:-2], n * n) @ operator_basis(n).reshape(n * n, -1).conj().T).real


def density_matrix(x: np.ndarray) -> np.ndarray:
    """sum_a x_a B_a of real coordinates (..., N^2), Hermitian by construction, (..., N, N)."""
    n = math.isqrt(x.shape[-1])
    return (x @ operator_basis(n).reshape(n * n, -1)).reshape(*x.shape[:-1], n, n)


class TimeDependentHamiltonian:
    """An N x N Hermitian matrix-valued function of time.

    Wraps an evaluator ``t -> matrix``, each of whose stacks ``on_grid``
    checks once for shape and hermiticity, or, built with ``affine``, the
    broadcast h0 + t * h1, exactly Hermitian at every t by construction and
    so not re-checked. ``H(t)`` is a stack of one.
    """

    def __init__(self, dim: int, evaluator: Callable[[float], np.ndarray]):
        if dim < 2:
            raise DimensionError(f"dimension must be >= 2, got {dim}")
        self.dim = int(dim)
        self._stack = lambda times: self._checked([evaluator(t) for t in times], times)

    @classmethod
    def affine(cls, h0: np.ndarray, h1: np.ndarray) -> "TimeDependentHamiltonian":
        """H(t) = h0 + t * h1, evaluated on a stack of times as one broadcast,
        from the exactly Hermitian parts (h + h^dag) / 2 of the checked h0, h1."""
        h0 = _require_hermitian(h0, "affine Hamiltonian h0")
        h1 = _require_hermitian(h1, "affine Hamiltonian h1")
        if h1.shape != h0.shape:
            raise DimensionError(f"h0 is {h0.shape} but h1 is {h1.shape}")
        h0, h1 = (0.5 * (h + h.conj().T) for h in (h0, h1))
        H = cls(h0.shape[0], None)  # checks the dimension; the broadcast replaces the evaluator
        H._stack = lambda times: h0 + np.asarray(times, dtype=float)[:, None, None] * h1
        return H

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "TimeDependentHamiltonian":
        return cls.affine(matrix, np.zeros(np.shape(matrix)))

    def __call__(self, t: float) -> np.ndarray:
        return self.on_grid([t])[0]

    def on_grid(self, times) -> np.ndarray:
        """H at each of ``times``, shape (M, N, N)."""
        return self._stack(times)

    def _checked(self, mats, times) -> np.ndarray:
        try:
            mats = np.asarray(mats, dtype=complex)
        except ValueError:
            raise DimensionError("Hamiltonian evaluator returned differing shapes") from None
        if mats.shape != (len(times), self.dim, self.dim):
            raise DimensionError(
                f"Hamiltonian evaluator returned shape {mats.shape[1:]}, "
                f"expected {(self.dim, self.dim)}"
            )
        defects = hermiticity_defect(mats)
        k = int(np.argmax(defects))
        if not defects[k] <= HERMITICITY_TOL:  # also a NaN defect, which argmax returns first
            raise ParameterError(
                f"H(t={float(times[k])!r}) is not Hermitian (defect {defects[k]:.3e})"
            )
        return mats


@dataclass(frozen=True)
class LZParams:
    """Linear sweep through an avoided crossing: velocity v, gap delta."""

    v: float
    delta: float

    def __post_init__(self):
        for name, value in (("v", self.v), ("delta", self.delta)):
            if not np.isfinite(value) or value <= 0:
                raise ParameterError(f"LZParams.{name} must be finite and > 0, got {value!r}")


def lz_hamiltonian(params: LZParams) -> TimeDependentHamiltonian:
    """H(t) = 0.5 * [[-v t, delta], [delta, v t]].

    Instantaneous gap sqrt(v^2 t^2 + delta^2); the crossing sits at t = 0.
    """
    # (0.5 v) t equals 0.5 (v t) exactly: halving commutes with rounding
    v, delta = params.v, params.delta
    return TimeDependentHamiltonian.affine(
        0.5 * np.array([[0.0, delta], [delta, 0.0]]), np.diag([-0.5 * v, 0.5 * v])
    )


def _zero_shift(w):
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BathSpectrum:
    """One-sided bath correlation data.

    ``gamma(w)`` is the absorption/emission rate at frequency ``w`` (must be
    >= 0 everywhere for a completely positive master equation); ``shift(w)``
    is the corresponding energy-shift function, identically zero unless the
    caller supplies one. Both accept scalars or arrays. Build one directly
    for a user-defined spectrum; the generator re-checks every rate it
    evaluates.
    """

    gamma: Callable
    shift: Callable = field(default=_zero_shift)


def ohmic_spectrum(
    gamma0: float,
    cutoff: float,
    temperature: float,
    *,
    symmetric_cutoff: bool = False,
) -> BathSpectrum:
    """Ohmic rate gamma(w) = gamma0 * w * exp(-w/cutoff) / (1 - exp(-w/T)).

    The w = 0 value is the analytic limit gamma0 * T. At temperature zero
    the thermal factor degenerates to a step: gamma0 * w * exp(-w/cutoff)
    for w > 0, zero otherwise.

    By default the exponential cutoff is applied literally (argument -w/cutoff
    for either sign of w), which breaks thermal detailed balance by a factor
    exp(2w/cutoff). ``symmetric_cutoff=True`` uses -|w|/cutoff instead, making
    gamma(-w) = exp(-w/T) * gamma(w) exact.
    """
    if not np.isfinite(gamma0) or gamma0 < 0:
        raise ParameterError(f"gamma0 must be >= 0, got {gamma0!r}")
    if not np.isfinite(cutoff) or cutoff <= 0:
        raise ParameterError(f"cutoff must be > 0, got {cutoff!r}")
    if not np.isfinite(temperature) or temperature < 0:
        raise ParameterError(f"temperature must be >= 0, got {temperature!r}")

    def gamma(w):
        w_arr = np.asarray(w, dtype=float)
        arg = np.abs(w_arr) if symmetric_cutoff else w_arr
        with np.errstate(over="ignore", invalid="ignore"):
            decay = np.exp(-arg / cutoff)
            if temperature == 0.0:
                val = np.where(w_arr > 0.0, gamma0 * w_arr * decay, 0.0)
            else:
                x = w_arr / temperature
                small = np.abs(x) < 1e-8
                x_safe = np.where(small, 1.0, x)
                # w / (1 - e^{-w/T}) -> T near w = 0; series keeps it smooth
                thermal = np.where(
                    small,
                    temperature * (1.0 + x / 2.0 + x * x / 12.0),
                    w_arr / -np.expm1(-x_safe),
                )
                val = gamma0 * thermal * decay
        val = np.maximum(val, 0.0)  # clamp -0.0 / rounding dust
        return float(val) if val.ndim == 0 else val

    return BathSpectrum(gamma)


def dephasing_spectrum(gamma0: float) -> BathSpectrum:
    """Spectrum with weight only at zero frequency: gamma(0) = gamma0.

    Models a static or very slow environment: it damps coherences between
    basis states but cannot exchange energy with the system.
    """
    if not np.isfinite(gamma0) or gamma0 < 0:
        raise ParameterError(f"gamma0 must be >= 0, got {gamma0!r}")

    def gamma(w):
        w_arr = np.asarray(w, dtype=float)
        val = np.where(w_arr == 0.0, float(gamma0), 0.0)
        return float(val) if val.ndim == 0 else val

    return BathSpectrum(gamma)

