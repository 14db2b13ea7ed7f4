"""Print `sha256  name` for every output file of the CLI and the frame writer.

    python tools/output_digests.py > digests.txt

Run it in two checkouts and diff the two listings: an empty diff shows that
a change kept every output byte-identical. It imports the `superlind` and
`perfbench` of the checkout it lives in and writes into a temporary
directory that it removes. Covered:

- `superlind sweep` on `configs/fig2a|fig2b|fig3a|fig3b.cfg` and on
  `perfbench/configs/*.cfg` (`sweep-mc.cfg` at seeds 0, 1 and 2);
- `superlind fig1 configs/fig1.cfg` (three Bloch CSVs);
- `superlind spectrum --gamma0 0.1 --wc 5 --wmin -50 --wmax 50 --n 1001`;
- `write_frames_csv` of the order-0 and recommended-order frames of LZ at
  every 1/v of the `frames-scan` workload (1.5, 2, ..., 12), and of the
  3-level ladder at orders 0, 4 and 12;
- `repr` of the 3-level ladder's master-equation P (`spec.ladder_p()`), the
  one N = 3 solve;
- `repr` of `residual_oscillation` of the `configs/fig1.cfg` frames (order 3,
  v = 0.25), a unitary solve under the frames' own H;
- the stdout of `superlind check`, the invariant suite's lines.
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

import superlind as sl  # noqa: E402
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
            _cli("sweep", str(cfg), "--output", str(out / f"{name}.csv"), *extra)
            yield f"{name}.csv", out / f"{name}.csv"
    _cli("fig1", str(ROOT / "configs" / "fig1.cfg"), "--set", f"output.prefix={out / 'fig1'}")
    for path in ("instantaneous", "superadiabatic", "evolution"):
        yield f"fig1_{path}.csv", out / f"fig1_{path}.csv"
    _cli("spectrum", "--gamma0", "0.1", "--wc", "5", "--wmin", "-50", "--wmax", "50",
         "--n", "1001", "--output", str(out / "spectrum.csv"))
    yield "spectrum.csv", out / "spectrum.csv"
    for inv_v in spec.FRAMES_INV_V:
        H, _, traj = spec.lz_frames(inv_v)
        for t in (sl.instantaneous_frames(H, traj.times), traj):
            name = f"frames-lz-{inv_v:g}-order{t.order}.csv"
            sl.write_frames_csv(t, out / name)
            yield name, out / name
    for order in (0, 4, 12):
        traj = spec.ladder_frames(order)[2]
        name = f"frames-ladder-order{order}.csv"
        sl.write_frames_csv(traj, out / name)
        yield name, out / name
    (out / "ladder-p.txt").write_text(repr(spec.ladder_p()))
    yield "ladder-p.txt", out / "ladder-p.txt"
    job = fig1_job(read_config(ROOT / "configs" / "fig1.cfg"))
    H = sl.lz_hamiltonian(sl.LZParams(v=job.v, delta=job.delta))
    t_final = job.window_factor * job.delta / job.v
    traj = sl.superadiabatic_frames(H, job.order, sl.adaptive_time_grid(H, -t_final, t_final))
    (out / "fig1-residual.txt").write_text(repr(sl.residual_oscillation(traj)))
    yield "fig1-residual.txt", out / "fig1-residual.txt"
    (out / "check.txt").write_text(_cli("check"))
    yield "check.txt", out / "check.txt"


def main_digests() -> None:
    warnings.simplefilter("ignore", sl.AdiabaticityWarning)  # fig2/fig3 reach 1/v = 1 on purpose
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in _outputs(Path(tmp)):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}", flush=True)
            os.remove(path)


if __name__ == "__main__":
    main_digests()
