"""Run one-line defects (mutants) of the program against named subsets of the test suite.

    python tools/mutants.py

Each row of `MUTANTS` names a file under `src/superlind/`, the exact text of
one line of it (or of a part of that line), its replacement, what the
replacement breaks, and the tests that should catch it. For each row the tool
copies `src/`, `tests/` and `pyproject.toml` into a temporary directory,
applies the mutant there, and runs `python -m pytest -x` on the row's tests
with one timeout, one pytest process at a time. It prints "caught by <first
failing test>" or "survived", and the wall time of each run and of the whole.
The checkout is never written.

Before the mutants it runs the union of the rows' tests once on the unmutated
copy: a subset that fails without a mutant would catch every mutant. A row's
line must occur exactly once in its file, and each of its pytest ids must name
a test class or function defined in its file; `tests/test_mutants.py` checks
both, so the table cannot rot unnoticed. The acceptance criteria are left out of
every subset: criterion 2 fails without any mutant.

Method: DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 34 (1978); Jia & Harman, IEEE Trans. Softw. Eng. 37, 649 (2011).
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to src/superlind
    line: str          # exact text of one source line, or of a part of it
    replacement: str
    breaks: str
    tests: tuple       # pytest arguments, relative to the checkout


MUTANTS = (
    Mutant("index-off-by-one", "frames.py",
           "k = np.minimum(np.maximum(np.rint((t - first) / h), 0),",
           "k = np.minimum(np.maximum(np.rint((t - first) / h) + 1, 0),",
           "every lookup of the nearest frame reads the next cell",
           ("tests/test_frames.py",)),
    Mutant("magnus-commutator-sign", "propagation.py",
           "commutator = _matmul(a2, a1) - _matmul(a1, a2)",
           "commutator = _matmul(a1, a2) - _matmul(a2, a1)",
           "the Magnus-4 step drops to second order in h",
           ("tests/test_propagation.py",)),
    Mutant("omega-sign", "generator.py",
           "omega = energies[:, None, :] - energies[:, :, None]   # w[a,b] = E_b - E_a",
           "omega = energies[:, :, None] - energies[:, None, :]   # w[a,b] = E_b - E_a",
           "w_ab = E_a - E_b: the rates of excitation and de-excitation swap",
           ("tests/test_generator.py",)),
    Mutant("gauss-nodes", "propagation.py",
           "_GAUSS = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)",
           "_GAUSS = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 5.0)",
           "Gauss nodes at 1/2 -+ sqrt(3)/5: the Magnus-4 step drops to second order in h",
           ("tests/test_propagation.py",)),
    Mutant("no-richardson", "propagation.py",
           "return raw + (raw - prev) / 15.0, steps, rejected",
           "return raw, steps, rejected",
           "the accepted pass is returned without its Richardson step",
           ("tests/test_propagation.py",)),
    Mutant("dephasing-squared", "generator.py",
           'self._ell = np.sqrt(gam[:, idx, idx]) * np.einsum("kaa->ka", abar).real',
           'self._ell = gam[:, idx, idx] * np.einsum("kaa->ka", abar).real',
           "the dephasing amplitude is gamma(0) <a|A|a>, not sqrt(gamma(0)) <a|A|a>",
           ("tests/test_generator.py",)),
    Mutant("edges-at-grid-points", "propagation.py",
           "edges, at = _edges(t0, t1, sample_times, 0.5 * (times[:-1] + times[1:]))",
           "edges, at = _edges(t0, t1, sample_times, times)",
           "master-equation steps straddle the cell midpoints, where the dissipator jumps",
           ("tests/test_propagation.py",)),
    # plain tests first, as -x stops there before hypothesis shrinks the property test's
    # failures; pytest runs node ids in the order given, but a whole file in its own order
    Mutant("gain-halved", "generator.py",
           "out[cells] += pops @ self._rate[cells] @ pops.swapaxes(-1, -2)",
           "out[cells] += 0.5 * pops @ self._rate[cells] @ pops.swapaxes(-1, -2)",
           "the dissipator's gain term is halved: the trace is no longer preserved",
           ("tests/test_generator.py::TestMasterEquationRHS",
            "tests/test_generator.py::test_constant_h_cell_propagator_is_cptp")),
    Mutant("dissipator-trace-row-kept", "generator.py",
           "out[:, 0] = 0.0",
           "pass",
           "the dissipator's checked trace row keeps its rounding: the trace is not held exactly",
           ("tests/test_generator.py::TestMasterEquationRHS"
            "::test_dissipator_trace_row_is_exactly_zero",
            "tests/test_generator.py::TestMasterEquationRHS"
            "::test_matches_explicit_operator_assembly")),
    Mutant("trajectory-unnormalized", "propagation.py",
           "psis = psis / norms[:, None]",
           "psis = psis",
           "the ensemble averages the decayed, unnormalized trajectories: tr rho < 1",
           ("tests/test_propagation.py::TestEvolveTrajectories"
            "::test_diagnostics_match_returned_state",
            "tests/test_propagation.py::TestEvolveTrajectories"
            "::test_three_level_ladder_matches_master_equation")),
    Mutant("rotation-conj-dropped", "generator.py",
           "pairs = (u.conj()[:, None, :, None] * u[None, :, None]).reshape(n * n, -1)",
           "pairs = (u[:, None, :, None] * u[None, :, None]).reshape(n * n, -1)",
           "the dissipator's rotation reads U^T B_a U, not U^dag B_a U, from complex frames",
           ("tests/test_generator.py::TestMasterEquationRHS",)),
    Mutant("scan-down-sweep-order", "propagation.py",
           "hi[:] = _matmul(hi, q[2 * s - 1::2 * s][:len(hi)])",
           "hi[:] = _matmul(q[2 * s - 1::2 * s][:len(hi)], hi)",
           "the down-sweep joins a prefix after its later factors: products in the wrong order",
           ("tests/test_propagation.py::TestExponentialCore"
            "::test_scan_prefix_products_in_at_most_two_per_matrix",)),
    Mutant("edge-state-rows", "propagation.py",
           "states = sum(q[..., j] * y[j] for j in range(d))",
           "states = sum(q[..., j, :] * y[j] for j in range(d))",
           "complex edge states take the transposed propagators' product with the state",
           ("tests/test_propagation.py::TestExponentialCore"
            "::test_march_matches_sequential_reference",
            "tests/test_propagation.py::TestToleranceMet::test_unitary_ladder")),
    Mutant("philox-counter-offset", "propagation.py",
           "self.words = _philox(self.seed, self.rows, np.arange(1, _STREAM_WORDS // 4 + 1))",
           "self.words = _philox(self.seed, self.rows, np.arange(0, _STREAM_WORDS // 4))",
           "each trajectory's stream starts one counter block before numpy's Philox stream",
           ("tests/test_propagation.py::TestRandomStreams"
            "::test_bulk_draws_match_numpy_generators",)),
    Mutant("jump-search-level-short", "propagation.py",
           "for i in range(first.min(initial=_HALVES.size) + 1, _HALVES.size):",
           "for i in range(first.min(initial=_HALVES.size) + 1, _HALVES.size - 1):",
           "a jump time whose predicted levels miss is bisected one level short, 2^-39 of a step",
           ("tests/test_propagation.py::TestEvolveTrajectories"
            "::test_jump_time_search_survives_a_missed_prediction",
            "tests/test_propagation.py::TestEvolveTrajectories"
            "::test_jump_time_search_matches_literal_bisection")),
    Mutant("align-phase-sign", "frames.py",
           "phases = -np.cumsum(np.angle(raw), axis=1)",
           "phases = np.cumsum(np.angle(raw), axis=1)",
           "the phase chain doubles each step overlap's phase instead of removing it",
           ("tests/test_frames.py",)),
    Mutant("kick-reads-target", "generator.py",
           "weights = self._amp[cells[:, None], a_idx, b_idx] * coords[:, b_idx]",
           "weights = self._amp[cells[:, None], a_idx, b_idx] * coords[:, a_idx]",
           "a transfer b -> a scales phi_a by the target's frame coordinate c_a, not c_b",
           ("tests/test_generator.py::TestLindbladOps"
            "::test_channel_stack_matches_per_call_construction",
            "tests/test_generator.py::test_outputs_ignore_frame_column_phases")),
    Mutant("frame-product-swapped", "frames.py",
           "lab = _matmul(lab, level_vecs)",
           "lab = _matmul(level_vecs, lab)",
           "each super-adiabatic level takes level_vecs @ lab, not lab @ level_vecs",
           ("tests/test_frames.py::test_frames_match_literal_stack_layout_bit_for_bit",)),
    Mutant("frame-storage-writable", "frames.py",
           "for arr in (self.times, self.basis, self.basis.base, self.energies):",
           "for arr in (self.times, self.basis, self.energies):",
           "a frame basis is read-only as a view, but writes through its storage reach it",
           ("tests/test_frames.py::TestInstantaneousFrames::test_frame_storage_is_read_only",)),
    Mutant("order-j-head-short", "experiments.py",
           "n = 2 * order + 3",
           "n = order + 1",
           "the order-j initial state is built on j + 1 grid points, one fewer than it reads",
           ("tests/test_experiments.py::TestRunSweep"
            "::test_order_j_initial_state_from_the_head_of_the_grid",)),
    Mutant("inclusive-ignored", "errors.py",
           "(x >= low if inclusive else x > low)",
           "(x >= low if inclusive else x >= low)",
           "every lower bound admits its own value: v = 0, delta = 0, cutoff = 0 and rtol = 0 pass",
           ("tests/test_parameters.py", "tests/test_model.py")),
)


def source_of(mutant: Mutant) -> str:
    """The checkout's text of the file ``mutant`` changes."""
    return (ROOT / "src" / "superlind" / mutant.path).read_text(encoding="utf-8")


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, tests) -> tuple:
    """(verdict, seconds) of `pytest -x` on ``tests`` in ``cwd``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # the copy's own src, from pyproject's pythonpath
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        run = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if run.returncode == 0:
        return "survived", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    if run.returncode == 1 and failed:
        return f"caught by {failed.group(1)}", seconds
    tail = (run.stdout + run.stderr).strip().splitlines()[-1:]
    return f"pytest exited {run.returncode}: {' '.join(tail)}", seconds


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="superlind-mutants-") as tmp:
        work = Path(tmp)
        _copy(work)
        union = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        verdict, seconds = _pytest(work, union)
        print(f"{'unmutated':26} {seconds:7.1f} s  {verdict}", flush=True)
        if verdict != "survived":
            print("the unmutated subsets fail: no verdict on any mutant", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            target = work / "src" / "superlind" / mutant.path
            original = target.read_text(encoding="utf-8")
            if original.count(mutant.line) != 1:
                raise SystemExit(f"{mutant.name}: its line occurs {original.count(mutant.line)} "
                                 f"times in {mutant.path}, not once")
            target.write_text(original.replace(mutant.line, mutant.replacement), encoding="utf-8")
            try:
                verdict, seconds = _pytest(work, mutant.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{mutant.name:26} {seconds:7.1f} s  {verdict}", flush=True)
    print(f"{'total':26} {time.perf_counter() - start:7.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
