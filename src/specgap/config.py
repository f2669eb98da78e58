"""Declarative run configuration.

Runs are described by an INI document (key-value pairs in nested
sections, parsed with :mod:`configparser`).  ``_SCHEMA`` describes the
document once, one row per key: the field it sets, how its value is
parsed and formatted, and when the run reads it.  ``parse_config`` and
``emit_config`` both run from that table and round-trip: emitting a
parsed document yields the normalized form of the input.  One rule
governs input: a section or key that the run would not read is an
error, never dropped.  ``[run]`` is the only input accepted and
ignored: the benchmark's studies still write ``threads = 1`` (ROADMAP
item 7).  Each range has one owner.  :class:`RunConfig` owns the rules
of the document itself (the dimension, the pair count and the mode
names) and checks them when it is built, then applies every other rule
by building what the run builds from its fields: the alpha ladder, the
solver and sweep settings, a manual grid and the profile pair.  So no
invalid ``RunConfig`` exists, from the INI or from Python.  The mode
names are ``auto`` and the values of :class:`~specgap.eigensolve.Mode`.
``sweep_settings`` is the one mapping from a run configuration to the
:class:`~specgap.asymptotics.SweepSettings` that the model step and the
sweep run with.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

from .asymptotics import SweepSettings, alpha_ladder
from .eigensolve import Mode, SolveSettings
from .grid import GridError, build_grid
from .profiles import (
    ProfilePair,
    ProfileRole,
    ProfileSpec,
    ProfileError,
    expression_profile,
    make_catalog_profile,
    make_pair,
)
from .expr import ExpressionError

__all__ = ["ConfigError", "ProfileConfig", "RunConfig", "parse_config", "emit_config",
           "build_profiles", "sweep_settings"]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


@dataclass(frozen=True)
class ProfileConfig:
    kind: str = "catalog"  # catalog | expression
    name: str = "gaussian_power"
    params: tuple[float, ...] = (2.0,)
    expr: str = ""
    principal: str = ""
    degree: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    """One run, as the INI document describes it.  Building one checks
    every field and builds the profile pair: a field the run would
    reject raises :class:`ConfigError`, naming the INI key when a
    settings class owns the rule, and a profile or pair that would not
    build raises it under its section.  NaN fails every check."""

    symbol: ProfileConfig = field(default_factory=ProfileConfig)
    weight: ProfileConfig = field(default_factory=ProfileConfig)
    dimension: int = 1
    alphas: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    eigen_count: int = 1
    grid_mode: str = "auto"  # auto | manual
    grid_n: int = 1024
    grid_half_length: float = 20.0
    tol: float = SolveSettings.tol
    max_iterations: int = SolveSettings.max_iterations
    rng_seed: int = SolveSettings.rng_seed
    # auto (eigensolve.bottom_mode picks by size and stiffness) or a Mode value
    model_mode: str = "auto"
    rel_final: float = SweepSettings.rel_final
    rel_extrap: float = SweepSettings.rel_extrap
    radii: tuple[float, ...] = SweepSettings.radii
    emit_eigenfunctions: bool = SweepSettings.keep_vectors

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise ConfigError(f"dimension must be 1..3, got {self.dimension}")
        if self.eigen_count < 1:
            raise ConfigError(f"eigen_count must be >= 1, got {self.eigen_count}")
        try:
            alpha_ladder(self.alphas)
        except ValueError as exc:
            raise ConfigError(f"[problem] alphas: {exc}") from exc
        if self.grid_mode not in ("auto", "manual"):
            raise ConfigError(f"grid mode must be auto or manual, got {self.grid_mode!r}")
        modes = ["auto", *(mode.value for mode in Mode)]
        if self.model_mode not in modes:
            raise ConfigError(f"model_mode must be one of {sorted(modes)}")
        try:
            sweep_settings(self)
        except GridError as exc:
            raise ConfigError(f"[grid] {exc}") from exc
        except ValueError as exc:  # the settings classes name the field first
            name = str(exc).split()[0]
            section, key = next((s, k) for s, k, f, *_ in _SCHEMA if f == name)
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        build_profiles(self)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _word(text: str) -> str:
    return text.strip().lower()


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if _word(text) not in states:
        raise ValueError(f"expected one of {', '.join(states)}")
    return states[_word(text)]


def _g(x: float) -> str:
    text = repr(float(x))  # shortest text that parses back to the same float
    return text[:-2] if text.endswith(".0") else text


def _g_list(xs: tuple[float, ...]) -> str:
    return ", ".join(map(_g, xs))


_PROFILES = ("symbol", "weight")
# A profile section starts from the defaults of its kind.
_KIND_DEFAULTS = {
    "catalog": ProfileConfig(),
    "expression": ProfileConfig(kind="expression", name="", params=()),
}
_CATALOG, _EXPRESSION = ("kind", "catalog"), ("kind", "expression")
_MANUAL = ("grid_mode", "manual")

# One row per INI key, in emitted order: (section, key, field, parse,
# format, when).  ``field`` is a RunConfig field, or a ProfileConfig one
# in a profile section; ``when`` is the (field, value) under which the
# run reads the key, None if it always does, and that field's row comes
# earlier in its section.
_SCHEMA = tuple(
    (section, key, key, parse, fmt, when)
    for section in _PROFILES
    for key, parse, fmt, when in (
        ("kind", _word, str, None),
        ("name", str, str, _CATALOG),
        ("params", _floats, _g_list, _CATALOG),
        ("expr", str, str, _EXPRESSION),
        ("principal", str, str, _EXPRESSION),
        ("degree", float, _g, _EXPRESSION),
    )
) + (
    ("problem", "dimension", "dimension", int, str, None),
    ("problem", "alphas", "alphas", _floats, _g_list, None),
    ("problem", "eigen_count", "eigen_count", int, str, None),
    ("grid", "mode", "grid_mode", _word, str, None),
    ("grid", "n", "grid_n", int, str, _MANUAL),
    ("grid", "half_length", "grid_half_length", float, _g, _MANUAL),
    ("solver", "tol", "tol", float, _g, None),
    ("solver", "max_iterations", "max_iterations", int, str, None),
    ("solver", "seed", "rng_seed", int, str, None),
    ("solver", "model_mode", "model_mode", _word, str, None),
    ("tolerances", "rel_final", "rel_final", float, _g, None),
    ("tolerances", "rel_extrap", "rel_extrap", float, _g, None),
    ("localization", "radii", "radii", _floats, _g_list, None),
    ("output", "emit_eigenfunctions", "emit_eigenfunctions", _boolean,
     lambda b: "true" if b else "false", None),
)
_SECTION_KEYS = {sec: {key for s, key, *_ in _SCHEMA if s == sec} for sec, *_ in _SCHEMA}
# Accepted and ignored: the benchmark's studies still write `threads = 1`
# (ROADMAP item 7).
_IGNORED_SECTION = "run"


def _parsed(section: str, key: str, raw: str, parse):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: invalid value {raw!r} ({exc})") from exc


def _read(parser: configparser.ConfigParser, sections, default) -> dict:
    """The parsed value of every key present in ``sections``, by field;
    ``default`` (a config, or the class, whose attributes hold the field
    defaults) supplies the ``when`` fields the document leaves out."""
    values = {}
    for section, key, name, parse, _, when in _SCHEMA:
        if section not in sections or not parser.has_option(section, key):
            continue
        if when and (seen := values.get(when[0], getattr(default, when[0]))) != when[1]:
            on = next(k for s, k, f, *_ in _SCHEMA if (s, f) == (section, when[0]))
            raise ConfigError(f"[{section}] {key}: not read with {on} = {seen}")
        values[name] = _parsed(section, key, parser.get(section, key), parse)
    return values


def _profile(parser: configparser.ConfigParser, section: str) -> ProfileConfig:
    kind = _word(parser.get(section, "kind", fallback=ProfileConfig.kind))
    if kind not in _KIND_DEFAULTS:
        raise ConfigError(f"[{section}] unknown profile kind {kind!r}")
    values = _read(parser, (section,), _KIND_DEFAULTS[kind])
    profile = replace(_KIND_DEFAULTS[kind], **values)
    if kind == "expression":
        if not profile.expr or not profile.principal:
            raise ConfigError(f"[{section}] expression profiles need both expr and principal")
        if "degree" not in values:
            raise ConfigError(f"[{section}] expression profiles need a degree")
    return profile


def parse_config(text: str) -> RunConfig:
    """Parse an INI run description; raises :class:`ConfigError` with a
    diagnostic on any input the module docstring rules out.  Missing
    sections and keys take :class:`RunConfig`'s defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc
    if parser.defaults():  # configparser's [DEFAULT] would feed every section
        raise ConfigError(f"[{parser.default_section}] unknown section")
    for section in [s for s in parser.sections() if s != _IGNORED_SECTION]:
        if section not in _SECTION_KEYS:
            raise ConfigError(f"[{section}] unknown section")
        unknown = sorted(set(parser[section]) - _SECTION_KEYS[section])
        if unknown:
            raise ConfigError(f"[{section}] {unknown[0]}: unknown key")

    profiles = {name: _profile(parser, name) for name in _PROFILES if parser.has_section(name)}
    return RunConfig(**profiles, **_read(parser, _SECTION_KEYS.keys() - _PROFILES, RunConfig))


def emit_config(cfg: RunConfig) -> str:
    """Serialize a config in normalized form (the round-trip fixpoint)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, key, name, _, fmt, when in _SCHEMA:
        owner = getattr(cfg, section) if section in _PROFILES else cfg
        if when and getattr(owner, when[0]) != when[1]:
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = fmt(getattr(owner, name))

    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _build_profile(cfg: RunConfig, section: str) -> ProfileSpec:
    p, d, role = getattr(cfg, section), cfg.dimension, ProfileRole(section)
    try:
        if p.kind == "catalog":
            return make_catalog_profile(p.name, list(p.params), d, role=role)
        return expression_profile(p.expr, p.principal, p.degree, d, role=role)
    except (ProfileError, ExpressionError) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def build_profiles(cfg: RunConfig) -> ProfilePair:
    """Instantiate the configured symbol/weight pair; a weight that the
    pair rejects is a ``[weight]`` error."""
    symbol, weight = (_build_profile(cfg, section) for section in _PROFILES)
    try:
        return make_pair(symbol, weight)
    except ProfileError as exc:
        raise ConfigError(f"[weight] {exc}") from exc


def sweep_settings(cfg: RunConfig) -> SweepSettings:
    """The solver and sweep settings a run describes.  The grid is the
    manual grid, or None, which leaves its choice to the study."""
    grid = None
    if cfg.grid_mode == "manual":
        grid = build_grid(cfg.dimension, cfg.grid_n, cfg.grid_half_length)
    return SweepSettings(
        solver=SolveSettings(
            tol=cfg.tol,
            max_iterations=cfg.max_iterations,
            rng_seed=cfg.rng_seed,
            mode=None if cfg.model_mode == "auto" else Mode(cfg.model_mode),
        ),
        grid=grid,
        radii=cfg.radii,
        rel_final=cfg.rel_final,
        rel_extrap=cfg.rel_extrap,
        keep_vectors=cfg.emit_eigenfunctions,
    )
