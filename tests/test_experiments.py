import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import superlind as sl
from superlind import config, experiments
from superlind.cli import main as cli_main
from superlind.config import Fig1Job, SweepJob, apply_overrides, fig1_job, read_config, sweep_job
from superlind.experiments import BathConfig, SweepRecord

FAST = dict(window_factor=10.0, rtol=1e-6, atol=1e-9)


def _fast_cfg(**kwargs):
    merged = dict(
        inv_velocities=(1.0, 2.0),
        bath=BathConfig(kind="none"),
        mode="closed",
        **FAST,
    )
    merged.update(kwargs)
    return sl.SweepConfig(**merged)


class TestClosedOracle:
    def test_reference_values(self):
        assert sl.closed_lz_oracle(1.0, 0.5) == pytest.approx(math.exp(-math.pi), rel=1e-14)
        assert sl.closed_lz_oracle(1.0, 0.5) == pytest.approx(0.0432139182638, rel=1e-10)
        assert sl.closed_lz_oracle(1.0, 1.0 / 6.0) == pytest.approx(
            math.exp(-3 * math.pi), rel=1e-12
        )
        assert sl.closed_lz_oracle(1.0, 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_invalid_arguments(self):
        with pytest.raises(sl.ParameterError):
            sl.closed_lz_oracle(0.0, 1.0)
        with pytest.raises(sl.ParameterError):
            sl.closed_lz_oracle(1.0, -2.0)

    @pytest.mark.parametrize("delta,v", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    ])
    def test_non_finite_arguments(self, delta, v):
        with pytest.raises(sl.ParameterError, match="finite"):
            sl.closed_lz_oracle(delta, v)


class TestSweepConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(sl.ParameterError):
            _fast_cfg(mode="diabatic")

    def test_bad_inverse_velocity(self):
        with pytest.raises(sl.ParameterError):
            _fast_cfg(inv_velocities=(1.0, -2.0))
        # a string or bytes once swept its characters ("12" as 1.0 and 2.0, b"12" as 49 and 50)
        for bad in ("12", b"12", "2.5", 2.0):
            with pytest.raises(sl.ParameterError, match=f"got {re.escape(repr(bad))}$"):
                _fast_cfg(inv_velocities=bad)

    def test_window_floor(self):
        with pytest.raises(sl.ParameterError):
            _fast_cfg(window_factor=5.0)

    def test_bad_bath_kind(self):
        with pytest.raises(sl.ParameterError):
            BathConfig(kind="lorentzian")

    def test_no_bath_takes_no_strength(self):
        # rows of a bath-free solve would otherwise carry a strength never applied
        with pytest.raises(sl.ParameterError, match="bath kind 'none' needs gamma0 = 0, got 0.5"):
            BathConfig(kind="none", gamma0=0.5)
        cfg = _fast_cfg(mode="superadiabatic", order=2, inv_velocities=(3.0,))
        for mode in ("superadiabatic", "closed"):  # as the command line rejects it
            with pytest.raises(sl.ParameterError, match="bath kind 'none'"):
                sl.run_sweep_curves(replace(cfg, mode=mode), gamma_values=(0.0, 0.5))
        (record,) = sl.run_sweep_curves(cfg, gamma_values=(0.0,))
        (dephased,) = sl.run_lz_sweep(replace(cfg, bath=BathConfig(kind="dephasing")))
        assert record.gamma0 == 0.0 and record.p_ge == dephased.p_ge

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_symmetric_cutoff_must_be_bool(self, flag):
        # a truthy string would select the symmetric cutoff, in the config and in the library
        for build in (lambda: BathConfig(kind="ohmic", gamma0=0.01, symmetric_cutoff=flag),
                      lambda: sl.ohmic_spectrum(0.1, 5.0, 0.5, symmetric_cutoff=flag)):
            with pytest.raises(sl.ParameterError, match="symmetric_cutoff must be a bool"):
                build()

    @pytest.mark.parametrize("build", [
        lambda: _fast_cfg(order=2.5),
        lambda: _fast_cfg(order=True),
        lambda: _fast_cfg(seed=1.5),
        lambda: _fast_cfg(seed=False),
        lambda: sl.superadiabatic_frames(sl.lz_hamiltonian(sl.LZParams(1.0, 1.0)), 2.5,
                                         np.linspace(-1.0, 1.0, 11)),
        lambda: sl.run_fig1(1.0, 0.5, order=2.5, window_factor=10.0),
    ])
    def test_order_and_seed_must_be_integers(self, build):
        with pytest.raises(sl.ParameterError, match="must be an integer"):
            build()


class TestRunSweep:
    def test_closed_matches_oracle(self):
        records = sl.run_lz_sweep(_fast_cfg())
        assert [r.inv_v for r in records] == [1.0, 2.0]
        for r in records:
            oracle = sl.closed_lz_oracle(1.0, 1.0 / r.inv_v)
            assert r.p_ge == pytest.approx(oracle, rel=0.1)
            assert -1e-7 <= r.p_ge <= 1.0 + 1e-7
            assert r.trace_error < 1e-8

    def test_closed_trace_error_is_drift_before_renormalization(self, monkeypatch):
        drifts = []

        def spy(*args, _propagate=sl.propagation._propagate):
            raw, steps, rejected = _propagate(*args)
            drifts.append(float(np.max(np.abs(np.linalg.norm(raw, axis=1) ** 2 - 1.0))))
            return raw, steps, rejected

        monkeypatch.setattr(sl.propagation, "_propagate", spy)
        with pytest.warns(sl.AdiabaticityWarning):
            (record,) = sl.run_lz_sweep(_fast_cfg(inv_velocities=(1.0,)))
        # the edge states drift by rounding, far above the few ulps by which
        # the renormalized state's norm can miss 1
        assert len(drifts) == 1 and drifts[0] > 1e-14
        assert record.trace_error == pytest.approx(drifts[0], rel=0.05, abs=0.0)

    def test_adiabaticity_warning_on_fast_sweep(self):
        with pytest.warns(sl.AdiabaticityWarning):
            sl.run_lz_sweep(_fast_cfg(inv_velocities=(1.0,)))

    @pytest.mark.parametrize("entry", ["run_lz_sweep", "run_sweep_curves"])
    def test_warnings_point_at_caller(self, entry):
        # so fast a sweep that even the window edges are not adiabatic
        cfg = _fast_cfg(inv_velocities=(0.3,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if entry == "run_lz_sweep":
                sl.run_lz_sweep(cfg)
            else:
                sl.run_sweep_curves(cfg, gamma_values=(0.0,))
        assert {w.category for w in caught} == {sl.AdiabaticityWarning, sl.WindowWarning}
        assert all(w.filename == __file__ for w in caught)

    @pytest.mark.parametrize("inv_v,warns", [(1.0, True), (2.0, False)])
    def test_order_above_recommended_warns(self, inv_v, warns):
        # adiabatic parameter 0.5 at 1/v = 1 (recommended order 2), 0.25 at
        # 1/v = 2 (recommended order 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sl.run_lz_sweep(_fast_cfg(inv_velocities=(inv_v,), order=4))
        above = [w for w in caught if "above the recommended order" in str(w.message)]
        assert [w.category for w in above] == ([sl.AdiabaticityWarning] if warns else [])
        assert all(w.filename == __file__ for w in above)

    def test_closed_sweep_runs_once_for_all_gammas(self):
        cfg = _fast_cfg(bath=BathConfig(kind="dephasing"))
        records = sl.run_sweep_curves(cfg, gamma_values=(0.0, 0.01, 0.1))
        assert [(r.inv_v, r.gamma0) for r in records] == [(1.0, 0.0), (2.0, 0.0)]

    def test_curves_share_one_build_per_point(self, monkeypatch):
        cfg = _fast_cfg(mode="superadiabatic", order=2, inv_velocities=(2.0,),
                        bath=BathConfig(kind="dephasing"))
        calls = Counter()
        for name in ("adaptive_time_grid", "superadiabatic_frames"):
            def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        records = sl.run_sweep_curves(cfg, gamma_values=(0.0, 0.01, 0.1))
        assert calls == {"adaptive_time_grid": 1, "superadiabatic_frames": 1}
        assert [r.gamma0 for r in records] == [0.0, 0.01, 0.1]
        for r in records:
            (alone,) = sl.run_lz_sweep(replace(cfg, bath=replace(cfg.bath, gamma0=r.gamma0)))
            assert repr(r) == repr(alone)  # bitwise: repr round-trips every float

    def test_unphysical_probability_raises(self, monkeypatch):
        # the record's range check sees the computed P, not a clipped one
        def solve(H, psi0, t0, t1, cfg=None, sample_times=None):
            _, vecs = np.linalg.eigh(H(t1))
            return sl.propagation.UnitaryResult(state=math.sqrt(1.5) * vecs[:, -1],
                                                diagnostics=sl.propagation.IntegrationDiagnostics())

        monkeypatch.setattr(experiments, "evolve_unitary", solve)
        with pytest.raises(sl.ParameterError, match="transition probability 1.49"):
            sl.run_lz_sweep(_fast_cfg(inv_velocities=(2.0,)))

    def test_each_warning_once_per_point(self):
        # so fast a sweep that every warning fires: adiabatic parameter 1.67,
        # recommended order 1, and the window edges are not adiabatic
        cfg = _fast_cfg(mode="superadiabatic", order=2, inv_velocities=(0.3,),
                        bath=BathConfig(kind="dephasing"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sl.run_sweep_curves(cfg, gamma_values=(0.0, 0.01, 0.1))
        assert [w.category for w in caught] == [
            sl.AdiabaticityWarning, sl.AdiabaticityWarning, sl.WindowWarning,
        ]
        assert "above the recommended order" in str(caught[1].message)

    def test_gamma_curves_share_grid(self):
        records = sl.run_sweep_curves(
            _fast_cfg(
                mode="superadiabatic",
                order=2,
                bath=BathConfig(kind="dephasing", gamma0=0.0),
                inv_velocities=(3.0,),
            ),
            gamma_values=(0.0, 0.01),
        )
        assert sorted({r.gamma0 for r in records}) == [0.0, 0.01]
        assert all(r.inv_v == 3.0 for r in records)

    def test_trajectory_solver_consistent_with_me(self):
        bath = BathConfig(kind="ohmic", gamma0=0.05, temperature=0.5)
        me = sl.run_lz_sweep(
            _fast_cfg(mode="superadiabatic", order=2, bath=bath, inv_velocities=(2.0,))
        )[0]
        mc = sl.run_lz_sweep(
            _fast_cfg(
                mode="superadiabatic",
                order=2,
                bath=bath,
                inv_velocities=(2.0,),
                solver="trajectories",
                n_traj=400,
                seed=11,
            )
        )[0]
        se = math.sqrt(max(me.p_ge * (1 - me.p_ge), 1e-12) / 400)
        assert abs(mc.p_ge - me.p_ge) < 4 * se

    def test_window_convergence(self):
        p25 = sl.run_lz_sweep(
            sl.SweepConfig(inv_velocities=(1.0,), mode="closed", window_factor=25.0)
        )[0].p_ge
        p50 = sl.run_lz_sweep(
            sl.SweepConfig(inv_velocities=(1.0,), mode="closed", window_factor=50.0)
        )[0].p_ge
        assert abs(p50 - p25) / p25 < 0.02

    def test_csv_output_and_determinism(self, tmp_path):
        cfg = _fast_cfg(
            mode="superadiabatic",
            order=1,
            bath=BathConfig(kind="dephasing", gamma0=0.01),
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        sl.run_lz_sweep(cfg, output=out_a)
        sl.run_lz_sweep(cfg, output=out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("# ")]
        assert any("mode = superadiabatic" in m for m in meta)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0].split(",") == [
            "gamma0", "inv_v", "p_ge", "trace_error", "herm_error",
            "min_eigenvalue", "adiabaticity",
        ]
        values = [ln.split(",") for ln in body[1:]]
        assert [float(v[1]) for v in values] == [1.0, 2.0]


def _record(gamma0, p_ge):
    return SweepRecord(
        inv_v=2.0, p_ge=p_ge, gamma0=gamma0, trace_error=1e-12, herm_error=0.0,
        min_eigenvalue=-3e-9,
        adiabaticity=0.25 / 3.0,
    )


def test_sweep_csv_exact_format(tmp_path):
    cfg = sl.SweepConfig(
        inv_velocities=(2.0,),
        bath=BathConfig(kind="ohmic", gamma0=0.1, temperature=0.5),
    )
    out = tmp_path / "sweep.csv"
    sl.write_sweep_csv(out, [_record(0.1, 0.2), _record(0.01, 0.125)], cfg)
    assert out.read_text().splitlines() == [
        "# superlind sweep",
        "# delta = 1",
        "# mode = superadiabatic",
        "# order = 4",
        "# window_factor = 25",
        "# bath_kind = ohmic",
        "# temperature = 0.5",
        "# cutoff = 5",
        "# symmetric_cutoff = false",
        "# solver = me",
        "# rtol = 1e-08",
        "# atol = 1e-10",
        "# seed = 0",
        "# gamma0_curves = 0.01, 0.1",
        "gamma0,inv_v,p_ge,trace_error,herm_error,min_eigenvalue,adiabaticity",
        "0.01,2,0.125,1e-12,0,-3e-09,0.0833333333333",
        "0.1,2,0.2,1e-12,0,-3e-09,0.0833333333333",
    ]


class TestFig1:
    def test_paths_and_deviation_ordering(self, tmp_path):
        # adiabatic parameter 0.125: the true path hugs the order-3 states
        res = sl.run_fig1(1.0, 0.25, order=3, window_factor=10.0,
                          out_prefix=tmp_path / "fig1")
        assert len(res.paths) == 3
        dev_super = np.max(
            np.linalg.norm(res.bloch_evolution - res.bloch_superadiabatic, axis=1)
        )
        dev_inst = np.max(
            np.linalg.norm(res.bloch_evolution - res.bloch_instantaneous, axis=1)
        )
        assert dev_super < dev_inst
        for p in res.paths:
            lines = Path(p).read_text().splitlines()
            body = [ln for ln in lines if not ln.startswith("#")]
            assert body[0] == "t,x,y,z"
            assert len(body) == 1 + len(res.times)

    def test_slow_limit_paths_converge(self):
        res = sl.run_fig1(1.0, 0.05, order=2, window_factor=10.0)
        dev_is = np.max(
            np.linalg.norm(res.bloch_instantaneous - res.bloch_superadiabatic, axis=1)
        )
        dev_ie = np.max(
            np.linalg.norm(res.bloch_instantaneous - res.bloch_evolution, axis=1)
        )
        assert dev_is < 0.06
        assert dev_ie < 0.06


SWEEP_CFG_TEXT = """\
# smoke config
[model]
delta = 1.0

[sweep]
inv_v = 1, 2
mode = closed            # fastest mode
window_factor = 10

[solver]
rtol = 1e-6
atol = 1e-9

[output]
path = {out}
"""


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_CFG_TEXT.format(out=tmp_path / "o.csv"))
        data = read_config(path)
        job = sweep_job(data)
        assert job.base.inv_velocities == (1.0, 2.0)
        assert job.base.mode == "closed"
        assert job.base.window_factor == 10.0
        assert job.gamma_values == (0.0,)

    def test_overrides(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_CFG_TEXT.format(out=tmp_path / "o.csv"))
        data = apply_overrides(read_config(path), ["sweep.mode=instantaneous",
                                                   "bath.kind=dephasing"])
        job = sweep_job(data)
        assert job.base.mode == "instantaneous"
        assert job.base.bath.kind == "dephasing"
        with pytest.raises(sl.ConfigError):
            apply_overrides(data, ["no-dot-or-equals"])

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[sweep]\ninv_v = 1\nspeed = 3\n[plotting]\ncolor = red\n"
        )
        with pytest.raises(sl.ConfigError) as err:
            sweep_job(read_config(path))
        message = str(err.value)
        assert "sweep.speed" in message
        assert "[plotting]" in message

    def test_type_errors_listed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sweep]\ninv_v = fast, 2\norder = two\n")
        with pytest.raises(sl.ConfigError) as err:
            sweep_job(read_config(path))
        assert "'fast'" in str(err.value)
        assert "sweep.order" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[model]\ndelta = 1.0\n")
        with pytest.raises(sl.ConfigError) as err:
            sweep_job(read_config(path))
        assert "sweep.inv_v" in str(err.value)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(sl.ConfigError):
            read_config(tmp_path / "missing.cfg")

    def test_fig1_job(self, tmp_path):
        path = tmp_path / "fig1.cfg"
        path.write_text(
            "[model]\ndelta = 1\n[fig1]\nv = 0.25\norder = 3\n"
            "[output]\nprefix = out/fig1\n"
        )
        job = fig1_job(read_config(path))
        assert job.v == 0.25 and job.order == 3 and job.prefix == "out/fig1"

    def test_shipped_configs_parse(self):
        # perfbench/configs too: a parse failure there stops every benchmark run
        root = Path(__file__).resolve().parent.parent
        paths = sorted(root.glob("configs/*.cfg")) + sorted(root.glob("perfbench/configs/*.cfg"))
        jobs = {p.name: (fig1_job if p.name == "fig1.cfg" else sweep_job)(read_config(p))
                for p in paths}
        paper_inv_v = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)
        dephasing = (0.0, 0.003, 0.01, 0.03, 0.1)  # five curves

        def job(name, inv_v, gammas, bath, **kwargs):
            base = sl.SweepConfig(inv_velocities=inv_v, bath=replace(bath, gamma0=gammas[0]),
                                  order=4, window_factor=25.0, **kwargs)
            return SweepJob(base=base, gamma_values=gammas, output=name)

        assert jobs == {
            "fig1.cfg": Fig1Job(delta=1.0, v=0.25, order=3, window_factor=25.0, prefix="fig1"),
            "fig2a.cfg": job("fig2a.csv", paper_inv_v, dephasing, BathConfig(kind="dephasing"),
                             mode="superadiabatic"),
            "fig2b.cfg": job("fig2b.csv", paper_inv_v, dephasing, BathConfig(kind="dephasing"),
                             mode="instantaneous"),
            "fig3a.cfg": job("fig3a.csv", paper_inv_v, (0.0, 0.01, 0.03),
                             BathConfig(kind="ohmic", cutoff=5.0, temperature=0.02)),
            "fig3b.cfg": job("fig3b.csv", tuple(float(x) for x in range(1, 13)), (0.0, 0.01, 0.1),
                             BathConfig(kind="ohmic", cutoff=5.0, temperature=0.5)),
            "closed.cfg": job("closed.csv", (2.0, 4.0), (0.0,), BathConfig(kind="none"),
                              mode="closed"),
            "sweep-mc.cfg": job("sweep-mc.csv", (3.0,), (0.1,),
                                BathConfig(kind="ohmic", cutoff=5.0, temperature=0.5),
                                solver="trajectories", n_traj=1000, seed=0),
            "sweep-me.cfg": job("sweep-me.csv", (2.0,), (0.01, 0.1), BathConfig(kind="dephasing"),
                                solver="me"),
        }

    def test_every_key_reaches_its_field(self):
        # every key of each table set to a value other than its field's default
        sweep = {
            "model": {"delta": "2"},
            "sweep": {"inv_v": "3, 1", "mode": "instantaneous", "order": "2",
                      "window_factor": "30"},
            "bath": {"kind": "ohmic", "gamma0": "0.2, 0.3", "cutoff": "4", "temperature": "0.7",
                     "symmetric_cutoff": "yes"},
            "solver": {"method": "trajectories", "n_traj": "7", "seed": "9", "rtol": "1e-5",
                       "atol": "1e-6"},
            "output": {"path": "x.csv"},
        }
        fig1 = {"model": {"delta": "2"},
                "fig1": {"v": "0.5", "order": "5", "window_factor": "30"},
                "output": {"prefix": "out/f"}}
        for data, table in ((sweep, config._SWEEP_KEYS), (fig1, config._FIG1_KEYS)):
            assert {f"{s}.{k}" for s, items in data.items() for k in items} == set(table)
        job = sweep_job(sweep)
        assert job == SweepJob(
            base=sl.SweepConfig(
                inv_velocities=(3.0, 1.0), delta=2.0,
                bath=BathConfig(kind="ohmic", gamma0=0.2, cutoff=4.0, temperature=0.7,
                                symmetric_cutoff=True),
                mode="instantaneous", order=2, window_factor=30.0, solver="trajectories",
                n_traj=7, seed=9, rtol=1e-5, atol=1e-6,
            ),
            gamma_values=(0.2, 0.3), output="x.csv",
        )
        default = SweepJob(base=sl.SweepConfig(inv_velocities=(1.0,)))
        for got, ref in ((job, default), (job.base, default.base), (job.base.bath, default.base.bath)):
            for f in fields(ref):
                assert getattr(got, f.name) != getattr(ref, f.name), f.name
        f1 = fig1_job(fig1)
        assert f1 == Fig1Job(delta=2.0, v=0.5, order=5, window_factor=30.0, prefix="out/f")
        default = Fig1Job(v=1.0)
        assert all(getattr(f1, f.name) != getattr(default, f.name) for f in fields(Fig1Job))
        # an absent key takes the default of the field it fills
        minimal = sweep_job({"sweep": {"inv_v": "1"}})
        assert minimal == SweepJob(base=sl.SweepConfig(inv_velocities=(1.0,)))
        assert fig1_job({"fig1": {"v": "0.5"}}) == Fig1Job(v=0.5)
        assert (Fig1Job(v=0.5).order, Fig1Job(v=0.5).window_factor) == (3, 25.0)


class TestCLI:
    def test_spectrum_values(self, capsys):
        code = cli_main([
            "spectrum", "--gamma0", "0.01", "--wc", "5", "--T", "0.5",
            "--wmin", "-1", "--wmax", "1", "--n", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:6] == [
            "# superlind ohmic spectrum",
            "# gamma0 = 0.01",
            "# cutoff = 5",
            "# temperature = 0.5",
            "# symmetric_cutoff = false",
            "omega,gamma",
        ]
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert table[0.0] == pytest.approx(0.005, abs=1e-12)
        assert len(rows) == 5

    @pytest.mark.parametrize("args", [
        ["--n", "-1"], ["--n", "0"], ["--wmin", "nan"], ["--wmax", "nan"],
        ["--wmin=-inf"], ["--wmax", "inf"], ["--wmin", "2", "--wmax", "1"],
    ])
    def test_spectrum_rejects_bad_grid(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["spectrum", "--gamma0", "0.01", *args])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        cfg.write_text(SWEEP_CFG_TEXT.format(out=out))
        assert cli_main(["sweep", str(cfg)]) == 0
        assert out.exists()
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(body) == 3  # header + two points

    def test_sweep_output_flag_overrides(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG_TEXT.format(out=tmp_path / "ignored.csv"))
        target = tmp_path / "actual.csv"
        assert cli_main(["sweep", str(cfg), "--output", str(target)]) == 0
        assert target.exists() and not (tmp_path / "ignored.csv").exists()

    def test_fig1_end_to_end(self, tmp_path):
        cfg = tmp_path / "fig1.cfg"
        cfg.write_text(
            "[model]\ndelta = 1\n[fig1]\nv = 0.5\norder = 2\nwindow_factor = 10\n"
            f"[output]\nprefix = {tmp_path / 'f1'}\n"
        )
        assert cli_main(["fig1", str(cfg)]) == 0
        for suffix in ("instantaneous", "superadiabatic", "evolution"):
            assert (tmp_path / f"f1_{suffix}.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[sweep]\ninv_v = 1\nbogus = 1\n")
        assert cli_main(["sweep", str(bad)]) == 3
        assert cli_main(["sweep", str(tmp_path / "missing.cfg")]) == 3

    def test_out_of_domain_value_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[sweep]\ninv_v = 1, 2\nwindow_factor = 3\n"
            f"[output]\npath = {tmp_path / 'x.csv'}\n"
        )
        assert cli_main(["sweep", str(cfg)]) == 3
        # values the solvers would reject are config errors too, whatever
        # the method, and no output is written
        cfg.write_text(SWEEP_CFG_TEXT.format(out=tmp_path / "y.csv"))
        for overrides in (
            ["solver.rtol=-1"],
            ["solver.atol=0"],
            ["solver.rtol=nan"],
            ["solver.atol=inf"],
            ["sweep.mode=superadiabatic", "solver.method=trajectories", "solver.n_traj=0"],
            ["sweep.mode=superadiabatic", "solver.method=me", "solver.n_traj=0"],
            ["sweep.mode=superadiabatic", "solver.method=trajectories", "solver.seed=-1"],
            ["sweep.mode=superadiabatic", "solver.method=trajectories",
             "solver.seed=18446744073709551616"],
            ["model.delta=nan"],
            ["sweep.inv_v=nan"],
            ["sweep.order=13"],
            ["sweep.window_factor=inf"],
            ["sweep.mode=superadiabatic", "bath.kind=ohmic", "bath.temperature=-1"],
            ["sweep.mode=superadiabatic", "bath.kind=ohmic", "bath.temperature=inf"],
            ["sweep.mode=superadiabatic", "bath.kind=ohmic", "bath.cutoff=nan"],
            ["sweep.mode=superadiabatic", "bath.kind=ohmic", "bath.cutoff=0"],
            ["sweep.mode=superadiabatic", "bath.kind=dephasing", "bath.gamma0=nan"],
            ["sweep.mode=superadiabatic", "bath.kind=dephasing", "bath.gamma0=0.01,-1"],
            ["sweep.mode=superadiabatic", "bath.kind=ohmic", "bath.symmetric_cutoff=maybe"],
            ["sweep.order=2.5"],
        ):
            args = ["sweep", str(cfg)] + [a for o in overrides for a in ("--set", o)]
            assert cli_main(args) == 3, overrides
        assert not (tmp_path / "y.csv").exists()
        capsys.readouterr()
        assert cli_main(["sweep", str(cfg), "--set", "solver.rtol=inf"]) == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()
        fig1 = tmp_path / "fig1.cfg"
        fig1.write_text(f"[fig1]\nv = 0.5\n[output]\nprefix = {tmp_path / 'f1'}\n")
        for override in ("fig1.window_factor=0", "fig1.window_factor=-1",
                         "fig1.window_factor=nan", "fig1.window_factor=inf",
                         "fig1.order=13", "fig1.order=-1", "fig1.v=nan", "model.delta=nan"):
            assert cli_main(["fig1", str(fig1), "--set", override]) == 3, override
        assert not list(tmp_path.glob("f1*"))

    def test_no_bath_with_strength_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG_TEXT.format(out=tmp_path / "y.csv"))
        for mode in ("superadiabatic", "closed"):
            args = ["sweep", str(cfg), "--set", f"sweep.mode={mode}", "--set", "bath.gamma0=0,0.5"]
            assert cli_main(args) == 3
            assert "bath kind 'none' needs gamma0 = 0, got 0.5" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()

    def test_check_suite_passes(self, capsys):
        assert cli_main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("[PASS] ") for line in lines), lines

    def test_module_entry_point(self):
        # `python -m superlind` from a source checkout, not an installed script
        env = {**os.environ, "PYTHONPATH": str(Path(sl.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-m", "superlind", "--version"], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == f"superlind {sl.__version__}"

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["no-such-command"])
        assert exc.value.code == 2
