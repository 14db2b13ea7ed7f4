"""Print `sha256  name` for every output file of the CLI and the frame writer.

    python tools/output_digests.py > digests.txt

Run it in two checkouts and diff the two listings: an empty diff shows that
a change kept every output byte-identical. Every sweep CSV also gets one line
per column, `sha256  name.csv:column`, the digest of that column's values one
a line: a change that drops, adds or moves a column shows every other column
byte-identical in the listing itself. It imports the `superlind` and
`perfbench` of the checkout it lives in and writes into a temporary
directory that it removes. Covered:

- `superlind sweep` on `configs/fig2a|fig2b|fig3a|fig3b.cfg` and on
  `perfbench/configs/*.cfg` (`sweep-mc.cfg` at seeds 0, 1 and 2);
- the jump identities of each `sweep-mc.cfg` solve: the int64 bytes of the
  `(trajectory, target, source)` columns of `evolve_trajectories(...).jumps`,
  so that a change which moves a jump time by rounding alone still shows that
  the ensemble made the same jumps;
- `superlind fig1 configs/fig1.cfg` (three Bloch CSVs);
- `superlind spectrum --gamma0 0.1 --wc 5 --wmin -50 --wmax 50 --n 1001`;
- `write_frames_csv` of the order-0 and recommended-order frames of LZ at
  every 1/v of the `frames-scan` workload (1.5, 2, ..., 12), and of the
  3-level ladder at orders 0, 4 and 12;
- the exact bytes of those same frames, `np.ascontiguousarray(traj.basis)` and
  `traj.energies`: a one-ulp move that the 12-digit CSVs round away shows here,
  and ulps of the frames grow to 1e-6 and more by order 12;
- `repr` of the 3-level ladder's master-equation P (`spec.ladder_p()`), the
  one N = 3 solve;
- the bytes of the per-frame stacks `_dissipators` and `_heff_add` of each
  generator of the `sweep-me.cfg` sweep (one per bath curve) and of the
  ladder's, so that a change to the generator build shows which stack moved,
  apart from the CSVs;
- `repr` of `residual_oscillation` of the `configs/fig1.cfg` frames (order 3,
  v = 0.25), a unitary solve under the frames' own H.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import superlind as sl  # noqa: E402
from superlind import experiments  # noqa: E402
from superlind.cli import main  # noqa: E402
from superlind.config import fig1_job, read_config  # noqa: E402

import spec  # noqa: E402  (perfbench's workload models)


def _cli(*argv: str) -> str:
    """Run the CLI; return what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"superlind {' '.join(argv)} exited {code}")
    return stdout.getvalue()


@contextlib.contextmanager
def _recorded(module, name: str):
    """Collect the result of every call of `module.name` made inside the block."""
    results, call = [], getattr(module, name)

    def recorded(*args, **kwargs):
        results.append(call(*args, **kwargs))
        return results[-1]

    setattr(module, name, recorded)
    try:
        yield results
    finally:
        setattr(module, name, call)


def _stacks(out: Path, name: str, gen):
    """Write the bytes of a generator's `_dissipators` and `_heff_add`; yield (name, path)."""
    for stack in ("_dissipators", "_heff_add"):
        path = out / f"{name}{stack}.bin"
        path.write_bytes(getattr(gen, stack).tobytes())
        yield path.name, path


def _frame_bytes(out: Path, name: str, traj):
    """Write the exact bytes of a trajectory's basis and energies; yield (name, path)."""
    for part, arr in (("basis", np.ascontiguousarray(traj.basis)), ("energies", traj.energies)):
        path = out / f"{name}-{part}.bin"
        path.write_bytes(arr.tobytes())
        yield path.name, path


def _outputs(out: Path):
    """Write every covered output under `out`; yield (name, path) pairs."""
    for name in ("fig2a", "fig2b", "fig3a", "fig3b"):
        _cli("sweep", str(ROOT / "configs" / f"{name}.cfg"), "--output", str(out / f"{name}.csv"))
        yield f"{name}.csv", out / f"{name}.csv"
    for cfg in sorted((ROOT / "perfbench" / "configs").glob("*.cfg")):
        seeds = (0, 1, 2) if cfg.stem == "sweep-mc" else (None,)
        for seed in seeds:
            name = cfg.stem if seed is None else f"{cfg.stem}-seed{seed}"
            extra = () if seed is None else ("--set", f"solver.seed={seed}")
            with (_recorded(experiments, "evolve_trajectories") as results,
                  _recorded(experiments, "LindbladGenerator") as gens):
                _cli("sweep", str(cfg), "--output", str(out / f"{name}.csv"), *extra)
            yield f"{name}.csv", out / f"{name}.csv"
            for k, gen in enumerate(gens if cfg.stem == "sweep-me" else ()):
                yield from _stacks(out, f"{name}-gen{k}", gen)
            for k, res in enumerate(results):
                ids = np.stack([res.jumps[c] for c in ("trajectory", "target", "source")], axis=1)
                (out / f"{name}-jumps{k}.bin").write_bytes(ids.astype(np.int64).tobytes())
                yield f"{name}-jumps{k}.bin", out / f"{name}-jumps{k}.bin"
    _cli("fig1", str(ROOT / "configs" / "fig1.cfg"), "--set", f"output.prefix={out / 'fig1'}")
    for path in ("instantaneous", "superadiabatic", "evolution"):
        yield f"fig1_{path}.csv", out / f"fig1_{path}.csv"
    _cli("spectrum", "--gamma0", "0.1", "--wc", "5", "--wmin", "-50", "--wmax", "50",
         "--n", "1001", "--output", str(out / "spectrum.csv"))
    yield "spectrum.csv", out / "spectrum.csv"
    for inv_v in spec.FRAMES_INV_V:
        H, _, traj = spec.lz_frames(inv_v)
        for t in (sl.instantaneous_frames(H, traj.times), traj):
            name = f"frames-lz-{inv_v:g}-order{t.order}"
            sl.write_frames_csv(t, out / f"{name}.csv")
            yield f"{name}.csv", out / f"{name}.csv"
            yield from _frame_bytes(out, name, t)
    for order in (0, 4, 12):
        traj = spec.ladder_frames(order)[2]
        name = f"frames-ladder-order{order}"
        sl.write_frames_csv(traj, out / f"{name}.csv")
        yield f"{name}.csv", out / f"{name}.csv"
        yield from _frame_bytes(out, name, traj)
    with _recorded(sl, "LindbladGenerator") as gens:
        (out / "ladder-p.txt").write_text(repr(spec.ladder_p()))
    yield "ladder-p.txt", out / "ladder-p.txt"
    yield from _stacks(out, "ladder", gens[0])
    job = fig1_job(read_config(ROOT / "configs" / "fig1.cfg"))
    H = sl.lz_hamiltonian(sl.LZParams(v=job.v, delta=job.delta))
    t_final = job.window_factor * job.delta / job.v
    traj = sl.superadiabatic_frames(H, job.order, sl.adaptive_time_grid(H, -t_final, t_final))
    (out / "fig1-residual.txt").write_text(repr(sl.residual_oscillation(traj)))
    yield "fig1-residual.txt", out / "fig1-residual.txt"


def _columns(text: str):
    """(header, values one a line) of each column of a sweep CSV's table."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    for j, column in enumerate(rows[0]):
        yield column, "\n".join(row[j] for row in rows[1:])


def main_digests() -> None:
    warnings.simplefilter("ignore", sl.AdiabaticityWarning)  # fig2/fig3 reach 1/v = 1 on purpose
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in _outputs(Path(tmp)):
            data = path.read_bytes()
            print(f"{hashlib.sha256(data).hexdigest()}  {name}", flush=True)
            if data.startswith(b"# superlind sweep\n"):
                for column, values in _columns(data.decode()):
                    print(f"{hashlib.sha256(values.encode()).hexdigest()}  {name}:{column}",
                          flush=True)
            os.remove(path)


if __name__ == "__main__":
    main_digests()
