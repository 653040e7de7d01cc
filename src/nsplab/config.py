"""Strict flat key = value configuration with bracketed sections.

Unknown sections or keys fail the parse (silent misconfiguration is worse
than a hard error), every value is typed at parse time and validated by the
constructor that owns it, and the accepted grammar is deliberately tiny:
blank lines, full-line # comments, [section] headers, and key = value pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .elliptic import laplacian
from .errors import ConfigError, ParameterError
from .evolve import SimConfig
from .grids import FluidParams, RadialGrid
from .ineqlab import (SphericalGrid, check_allowance, check_modes,
                      check_outer_factor)
from .steady import (PROFILE_KINDS, check_tol, make_profile,
                     profile_supersolution)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean (on/off), got {text!r}")


def _float_or_auto(text: str):
    if text.strip().lower() == "auto":
        return "auto"
    return float(text)


def _enum(*options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text
    return parse


def _list_of(kind):
    def parse(text: str) -> list:
        return [kind(part) for part in text.split(",") if part.strip()]
    return parse


_SCHEMA = {
    "fluid": {
        "gamma": (float, 2.0),
        "mu": (float, 0.5),
        "lambda": (float, 0.0),
        "c_star": (float, 1.0),
    },
    "domain": {
        "r_inner": (float, 1.0),
        "r_outer": (float, 16.0),
        "n_cells": (int, 2000),
        "stretch": (float, 0.0),
    },
    "steady": {
        "profile": (_enum(*PROFILE_KINDS), "admissible_bump"),
        "amplitude": (float, 0.5),
        "tol": (float, 1e-10),
        "max_iter": (_count, 200),
        "envelope_c0": (float, 1.0),
        "envelope_eps": (float, 0.5),
    },
    # the SimConfig settings, typed as their defaults; SimConfig checks them
    "evolve": {
        **{f.name: (_float_or_auto if f.default == "auto" else type(f.default),
                    f.default)
           for f in fields(SimConfig) if f.name != "checkpoint_dir"},
        "checkpoints": (_bool, False),
    },
    "ineqlab": {
        "nr": (int, 32),
        "ntheta": (int, 16),
        "nphi": (int, 32),
        "n_fields": (_count, 100),
        "n_scalars": (_count, 20),
        "n_lame": (_count, 20),
        "modes": (_count, 3),
        "allowance": (float, 0.05),
        "trace_outer_factor": (float, 4.0),
    },
    "sweep": {
        "gamma": (_list_of(float), None),
        "delta": (_list_of(float), None),
        "n_cells": (_list_of(int), None),
        "r_max": (_list_of(float), None),
    },
    "output": {
        "seed": (int, 0),
    },
}

REQUIRED_SECTIONS = ("fluid", "domain")


@dataclass(frozen=True)
class AppConfig:
    """Typed configuration: the fluid constants, one dict per other schema
    section, and the objects the sections describe."""

    fluid: FluidParams
    domain: dict
    steady: dict
    evolve: dict
    ineqlab: dict
    sweep: dict
    seed: int
    canonical: str = field(repr=False, default="")

    def radial_grid(self):
        return RadialGrid(**self.domain)

    def background(self, grid):
        st = self.steady
        return make_profile(st["profile"], self.fluid, st["amplitude"], grid,
                            envelope_c0=st["envelope_c0"],
                            envelope_eps=st["envelope_eps"])

    def run_settings(self, checkpoint_dir=None):
        """The [evolve] settings as a SimConfig; evolve.checkpoints only
        says whether the caller gives a checkpoint_dir."""
        settings = {k: v for k, v in self.evolve.items() if k != "checkpoints"}
        return SimConfig(**settings, checkpoint_dir=checkpoint_dir)

    def spherical_grid(self):
        d, iq = self.domain, self.ineqlab
        return SphericalGrid(d["r_inner"], d["r_outer"], iq["nr"],
                             iq["ntheta"], iq["nphi"])


def _tokenize(text: str) -> tuple[dict, set]:
    """Map (section, key) -> (raw value, line number), strictly; also return
    the set of sections whose header appears."""
    entries = {}
    sections = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}] at line {lineno}")
            sections.add(section)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value at line {lineno}: {raw!r}")
        if section is None:
            raise ConfigError(f"key outside any section at line {lineno}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(
                f"unknown key {key!r} in section [{section}] at line {lineno}")
        if (section, key) in entries:
            raise ConfigError(
                f"duplicate key {key!r} in section [{section}] at line {lineno}")
        entries[(section, key)] = (value, lineno)
    return entries, sections


def _apply_overrides(entries: dict, overrides: list[str]) -> dict:
    out = dict(entries)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override must look like section.key=value, got {item!r}")
        target, _, value = item.partition("=")
        section, _, key = target.strip().partition(".")
        if section not in _SCHEMA or key not in _SCHEMA.get(section, {}):
            raise ConfigError(f"unknown override target {target!r}")
        out[(section, key)] = (value.strip(), 0)
    return out


def _owned(section: str, check):
    """Run a check owned by the module that defines the values; report its
    ParameterError as a ConfigError naming the section."""
    try:
        return check()
    except ParameterError as exc:
        raise ConfigError(f"invalid [{section}] parameters: {exc}") from exc


def parse_config(text: str, overrides: list[str] | None = None,
                 seed: int | None = None) -> AppConfig:
    """Parse config text (plus optional overrides) into a typed AppConfig.

    Every section is validated by constructing what it describes (fluid
    constants, radial grid, background profile and its supersolution, run
    settings, spherical grid), so misconfiguration fails before any run
    starts.
    """
    entries, present = _tokenize(text)
    for section in REQUIRED_SECTIONS:
        if section not in present:
            keys = ", ".join(sorted(_SCHEMA[section]))
            raise ConfigError(
                f"missing required section [{section}] (keys: {keys})")
    if overrides:
        entries = _apply_overrides(entries, overrides)

    typed: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        out = {}
        for key, (parser, default) in keys.items():
            if (section, key) in entries:
                raw, lineno = entries[(section, key)]
                try:
                    out[key] = parser(raw)
                except ValueError as exc:
                    where = f"line {lineno}" if lineno else "override"
                    raise ConfigError(
                        f"invalid [{section}] value {section}.{key} at "
                        f"{where}: {exc}") from exc
            else:
                out[key] = default
        typed[section] = out

    fl = typed["fluid"]
    fluid = _owned("fluid", lambda: FluidParams(
        gamma=fl["gamma"], mu=fl["mu"], lambda_=fl["lambda"],
        c_star=fl["c_star"]))
    use_seed = typed["output"]["seed"] if seed is None else int(seed)
    if use_seed < 0:  # numpy seeds its generators from non-negative integers
        raise ConfigError(
            f"invalid [output] seed: must be >= 0, got {use_seed}")

    canonical_parts = []
    for section in sorted(_SCHEMA):
        for key in sorted(_SCHEMA[section]):
            canonical_parts.append(f"{section}.{key}={typed[section][key]!r}")
    canonical_parts.append(f"seed={use_seed}")
    canonical = ";".join(canonical_parts)

    cfg = AppConfig(fluid=fluid, domain=typed["domain"],
                    steady=typed["steady"], evolve=typed["evolve"],
                    ineqlab=typed["ineqlab"], sweep=typed["sweep"],
                    seed=use_seed, canonical=canonical)

    grid = _owned("domain", cfg.radial_grid)
    _owned("domain", lambda: laplacian(grid))  # the spacing rule
    _owned("steady", lambda: check_tol(cfg.steady["tol"]))
    _owned("steady", lambda: profile_supersolution(cfg.background(grid)))
    _owned("evolve", cfg.run_settings)
    iq = cfg.ineqlab
    sgrid = _owned("ineqlab", cfg.spherical_grid)
    _owned("ineqlab", lambda: check_allowance(iq["allowance"]))
    _owned("ineqlab", lambda: check_modes(iq["modes"]))
    _owned("ineqlab", lambda: check_outer_factor(iq["trace_outer_factor"],
                                                 sgrid))
    return cfg
