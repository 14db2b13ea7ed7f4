"""Flat key = value config files with bracketed sections.

Grammar (documented in the README): UTF-8 text; `# ...` comments (full-line
or trailing); `[section]` headers; `key = value` entries; list values are
comma-separated. Each job has one table, `section.key -> (field, parser)`:
a key fills one field of the job, and an absent key takes that field's
default (from `SweepConfig`, `BathConfig` or `run_fig1`). Unknown sections
or keys, unparsable values and missing required keys are validation errors
that list every offender at once; the domain checks are those of the
objects filled, reported as config errors before any grid is built.
"""
from __future__ import annotations

import configparser
import inspect
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, check_distinct
from .experiments import BathConfig, SweepConfig, check_fig1, run_fig1


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


def _bool(text: str) -> bool:
    words = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
    if text.lower() not in words:
        raise ValueError(f"{text!r} is not a boolean")
    return words[text.lower()]


def _floats(text: str) -> tuple:
    out = tuple(float(p) for p in text.split(",") if p.strip())
    if not out:
        raise ValueError("need at least one number")
    return out


def _read(data: dict, table: dict, required: tuple, what: str) -> dict:
    """{field: parsed value} for every key of `table` present in `data`.

    Every unknown section or key, unparsable value and missing required key
    goes into one ConfigError.
    """
    values, problems = {}, []
    sections = {name.split(".")[0] for name in table}
    for section, items in data.items():
        if section not in sections:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in items.items():
            name = f"{section}.{key}"
            if name not in table:
                problems.append(f"unknown key {name}")
                continue
            field, parse = table[name]
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                problems.append(f"{name} = {raw!r}: {exc}")
    for name in required:
        section, key = name.split(".")
        if key not in data.get(section, {}):
            problems.append(f"missing required key {name}")
    if problems:
        raise ConfigError(f"invalid {what} config: " + "; ".join(problems))
    return values


_SWEEP_KEYS = {
    "model.delta": ("delta", float),
    "sweep.inv_v": ("inv_velocities", _floats),
    "sweep.mode": ("mode", str),
    "sweep.order": ("order", int),
    "sweep.window_factor": ("window_factor", float),
    "bath.kind": ("kind", str),
    "bath.gamma0": ("gamma_values", _floats),
    "bath.cutoff": ("cutoff", float),
    "bath.temperature": ("temperature", float),
    "bath.symmetric_cutoff": ("symmetric_cutoff", _bool),
    "solver.method": ("solver", str),
    "solver.n_traj": ("n_traj", int),
    "solver.seed": ("seed", int),
    "solver.rtol": ("rtol", float),
    "solver.atol": ("atol", float),
    "output.path": ("output", str),
}


@dataclass(frozen=True)
class SweepJob:
    base: SweepConfig
    gamma_values: tuple = (BathConfig.gamma0,)
    output: str = "sweep.csv"


def sweep_job(data: dict) -> SweepJob:
    """Validate sweep config data and build the job description."""
    values = _read(data, _SWEEP_KEYS, ("sweep.inv_v",), "sweep")
    bath = {f.name: values.pop(f.name) for f in fields(BathConfig) if f.name in values}
    job = {f.name: values.pop(f.name) for f in fields(SweepJob) if f.name in values}
    gammas = job.get("gamma_values", SweepJob.gamma_values)
    try:
        base = SweepConfig(bath=BathConfig(gamma0=gammas[0], **bath), **values)
        for g in gammas[1:]:  # every curve's bath, before any curve is solved
            replace(base.bath, gamma0=g)
        check_distinct("gamma0", gammas)
    except ValueError as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc
    return SweepJob(base=base, **job)


_FIG1_KEYS = {
    "model.delta": ("delta", float),
    "fig1.v": ("v", float),
    "fig1.order": ("order", int),
    "fig1.window_factor": ("window_factor", float),
    "output.prefix": ("prefix", str),
}
_FIG1_DEFAULTS = inspect.signature(run_fig1).parameters


@dataclass(frozen=True, kw_only=True)
class Fig1Job:
    """`run_fig1`'s arguments; an absent order or window factor takes its
    default, and an absent `model.delta` the sweep's."""

    delta: float = SweepConfig.delta
    v: float
    order: int = _FIG1_DEFAULTS["order"].default
    window_factor: float = _FIG1_DEFAULTS["window_factor"].default
    prefix: str = "fig1"


def fig1_job(data: dict) -> Fig1Job:
    """Validate fig1 config data and build the job description."""
    job = Fig1Job(**_read(data, _FIG1_KEYS, ("fig1.v",), "fig1"))
    try:
        check_fig1(job.delta, job.v, job.order, job.window_factor)
    except ValueError as exc:
        raise ConfigError(f"invalid fig1 config: {exc}") from exc
    return job
