"""Flat key = value config files with bracketed sections.

Grammar (documented in the README): UTF-8 text; `# ...` comments (full-line
or trailing); `[section]` headers; `key = value` entries; list values are
comma-separated. Unknown sections or keys are validation errors that list
every offender at once.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .experiments import MODES, SOLVERS, BathConfig, SweepConfig
from .frames import J_MAX


def read_config(path) -> dict:
    """Parse a config file into {section: {key: raw string}}."""
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#",),
        comment_prefixes=("#",),
    )
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def apply_overrides(data: dict, overrides) -> dict:
    """Apply `section.key=value` strings on top of parsed config data."""
    out = {section: dict(items) for section, items in data.items()}
    for raw in overrides or ():
        if "=" not in raw or "." not in raw.split("=", 1)[0]:
            raise ConfigError(f"override {raw!r} must look like section.key=value")
        target, value = raw.split("=", 1)
        section, key = target.split(".", 1)
        out.setdefault(section.strip(), {})[key.strip()] = value.strip()
    return out


class _Schema:
    """Collects typed values and every validation problem at once."""

    def __init__(self, data: dict):
        self.data = data
        self.errors: list[str] = []
        self.seen: dict[str, set] = {}

    def _raw(self, section, key, default):
        self.seen.setdefault(section, set()).add(key)
        return self.data.get(section, {}).get(key, default)

    def get_float(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            self.errors.append(f"missing required key {section}.{key}")
            return 0.0
        try:
            return float(raw)
        except (TypeError, ValueError):
            self.errors.append(f"{section}.{key} = {raw!r} is not a number")
            return 0.0

    def get_int(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            self.errors.append(f"missing required key {section}.{key}")
            return 0
        try:
            return int(str(raw))
        except (TypeError, ValueError):
            self.errors.append(f"{section}.{key} = {raw!r} is not an integer")
            return 0

    def get_bool(self, section, key, default=False):
        raw = self._raw(section, key, default)
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("true", "yes", "on", "1"):
            return True
        if text in ("false", "no", "off", "0"):
            return False
        self.errors.append(f"{section}.{key} = {raw!r} is not a boolean")
        return False

    def get_enum(self, section, key, choices, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            self.errors.append(f"missing required key {section}.{key}")
            return choices[0]
        text = str(raw).strip()
        if text not in choices:
            self.errors.append(
                f"{section}.{key} = {text!r} must be one of {', '.join(choices)}"
            )
            return choices[0]
        return text

    def get_str(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            self.errors.append(f"missing required key {section}.{key}")
            return ""
        return str(raw).strip()

    def get_float_list(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            self.errors.append(f"missing required key {section}.{key}")
            return ()
        if isinstance(raw, (tuple, list)):
            return tuple(float(x) for x in raw)
        parts = [p.strip() for p in str(raw).split(",") if p.strip()]
        out = []
        for p in parts:
            try:
                out.append(float(p))
            except ValueError:
                self.errors.append(f"{section}.{key}: {p!r} is not a number")
        if not out:
            self.errors.append(f"{section}.{key} must hold at least one number")
        return tuple(out)

    def finish(self, what: str):
        unknown = []
        for section, items in self.data.items():
            if section not in self.seen:
                unknown.append(f"unknown section [{section}]")
                continue
            for key in items:
                if key not in self.seen[section]:
                    unknown.append(f"unknown key {section}.{key}")
        problems = self.errors + unknown
        if problems:
            raise ConfigError(f"invalid {what} config: " + "; ".join(problems))


@dataclass(frozen=True)
class SweepJob:
    base: SweepConfig
    gamma_values: tuple
    output: str
    dat: bool


def sweep_job(data: dict) -> SweepJob:
    """Validate sweep config data and build the job description."""
    s = _Schema(data)
    delta = s.get_float("model", "delta", 1.0)
    inv_v = s.get_float_list("sweep", "inv_v")
    mode = s.get_enum("sweep", "mode", MODES, "superadiabatic")
    order = s.get_int("sweep", "order", 4)
    window = s.get_float("sweep", "window_factor", 25.0)
    kind = s.get_enum("bath", "kind", ("none", "dephasing", "ohmic"), "none")
    gammas = s.get_float_list("bath", "gamma0", (0.0,))
    cutoff = s.get_float("bath", "cutoff", 5.0)
    temperature = s.get_float("bath", "temperature", 0.0)
    symmetric = s.get_bool("bath", "symmetric_cutoff", False)
    solver = s.get_enum("solver", "method", SOLVERS, "me")
    n_traj = s.get_int("solver", "n_traj", 1000)
    seed = s.get_int("solver", "seed", 0)
    rtol = s.get_float("solver", "rtol", 1e-8)
    atol = s.get_float("solver", "atol", 1e-10)
    output = s.get_str("output", "path", "sweep.csv")
    dat = s.get_bool("output", "dat", False)
    s.finish("sweep")
    try:
        base = SweepConfig(
            inv_velocities=inv_v,
            delta=delta,
            bath=BathConfig(
                kind=kind,
                gamma0=gammas[0] if gammas else 0.0,
                cutoff=cutoff,
                temperature=temperature,
                symmetric_cutoff=symmetric,
            ),
            mode=mode,
            order=order,
            window_factor=window,
            solver=solver,
            n_traj=n_traj,
            seed=seed,
            rtol=rtol,
            atol=atol,
        )
        for g in gammas[1:]:  # every curve's bath, before any curve is solved
            replace(base.bath, gamma0=g)
    except ValueError as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc
    return SweepJob(base=base, gamma_values=tuple(gammas), output=output, dat=dat)


@dataclass(frozen=True)
class Fig1Job:
    delta: float
    v: float
    order: int
    window_factor: float
    prefix: str


def fig1_job(data: dict) -> Fig1Job:
    s = _Schema(data)
    delta = s.get_float("model", "delta", 1.0)
    v = s.get_float("fig1", "v")
    order = s.get_int("fig1", "order", 3)
    window = s.get_float("fig1", "window_factor", 25.0)
    prefix = s.get_str("output", "prefix", "fig1")
    s.finish("fig1")
    for name, value in (("model.delta", delta), ("fig1.v", v), ("fig1.window_factor", window)):
        if not 0 < value < math.inf:
            raise ConfigError(f"invalid fig1 config: {name} must be finite and > 0, got {value}")
    if not 0 <= order <= J_MAX:
        raise ConfigError(f"invalid fig1 config: fig1.order must be in [0, {J_MAX}]")
    return Fig1Job(delta=delta, v=v, order=order, window_factor=window, prefix=prefix)
