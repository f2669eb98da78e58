"""Declarative run configuration.

Runs are described by an INI document (key-value pairs in nested
sections, parsed with :mod:`configparser`).  ``parse_config`` and
``emit_config`` round-trip: emitting a parsed document yields the
normalized form of the input.  The ``[symbol]``/``[weight]`` profile
sections are read by ``_profile_from_section``; every other key is a row
of ``_SCHEMA``, and ``validate_config`` documents the range of every
field.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields

from .asymptotics import SweepSettings
from .eigensolve import Mode, SolveSettings
from .grid import Grid, build_grid
from .profiles import (
    ProfilePair,
    ProfileRole,
    ProfileSpec,
    ProfileError,
    expression_profile,
    make_catalog_profile,
    make_pair,
)
from .expr import ExpressionError, parse_expression

__all__ = ["ConfigError", "ProfileConfig", "RunConfig", "parse_config", "emit_config",
           "validate_config", "build_profiles"]


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
    margin: float | None = None


@dataclass(frozen=True)
class RunConfig:
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
    seed: int = SolveSettings.rng_seed
    # auto (eigensolve.bottom_mode picks by size and stiffness) | dense |
    # shift_invert | lanczos
    model_mode: str = "auto"
    rel_final: float = SweepSettings.rel_final
    rel_extrap: float = SweepSettings.rel_extrap
    radii: tuple[float, ...] = SweepSettings.radii
    emit_eigenfunctions: bool = SweepSettings.keep_vectors


_MODEL_MODES = {
    "auto": None,
    "dense": Mode.DENSE_FULL,
    "shift_invert": Mode.SHIFT_INVERT_BOTTOM,
    "lanczos": Mode.LANCZOS,
}


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


# The INI schema outside the profile sections, in emitted order:
# (section, key, RunConfig field, parse, format).
_SCHEMA = (
    ("problem", "dimension", "dimension", int, str),
    ("problem", "alphas", "alphas", _floats, _g_list),
    ("problem", "eigen_count", "eigen_count", int, str),
    ("grid", "mode", "grid_mode", _word, str),
    ("grid", "n", "grid_n", int, str),
    ("grid", "half_length", "grid_half_length", float, _g),
    ("solver", "tol", "tol", float, _g),
    ("solver", "max_iterations", "max_iterations", int, str),
    ("solver", "seed", "seed", int, str),
    ("solver", "model_mode", "model_mode", _word, str),
    ("tolerances", "rel_final", "rel_final", float, _g),
    ("tolerances", "rel_extrap", "rel_extrap", float, _g),
    ("localization", "radii", "radii", _floats, _g_list),
    ("output", "emit_eigenfunctions", "emit_eigenfunctions", _boolean,
     lambda b: "true" if b else "false"),
)
# The keys of each known section; other sections are ignored.
_SECTION_KEYS = {sec: {key for s, key, *_ in _SCHEMA if s == sec} for sec, *_ in _SCHEMA}
_SECTION_KEYS.update(dict.fromkeys(("symbol", "weight"), {f.name for f in fields(ProfileConfig)}))
# Only a manual grid is described by these fields.
_MANUAL_GRID_FIELDS = ("grid_n", "grid_half_length")


def _parsed(section: str, key: str, raw: str, parse):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: invalid value {raw!r} ({exc})") from exc


def _profile_from_section(sec: configparser.SectionProxy, name: str) -> ProfileConfig:
    default = ProfileConfig()
    kind = sec.get("kind", default.kind).strip().lower()
    if kind == "catalog":
        params = sec.get("params")
        return ProfileConfig(
            kind="catalog",
            name=sec.get("name", default.name).strip(),
            params=default.params if params is None else _parsed(name, "params", params, _floats),
        )
    if kind == "expression":
        expr = sec.get("expr", "").strip()
        principal = sec.get("principal", "").strip()
        if not expr or not principal:
            raise ConfigError(f"[{name}] expression profiles need both expr and principal")
        if "degree" not in sec:
            raise ConfigError(f"[{name}] expression profiles need a degree")
        margin = _parsed(name, "margin", sec["margin"], float) if "margin" in sec else None
        return ProfileConfig(
            kind="expression",
            name="",
            params=(),
            expr=expr,
            principal=principal,
            degree=_parsed(name, "degree", sec["degree"], float),
            margin=margin,
        )
    raise ConfigError(f"[{name}] unknown profile kind {kind!r}")


def parse_config(text: str) -> RunConfig:
    """Parse an INI run description; raises :class:`ConfigError` with a
    diagnostic on malformed input, out-of-range values, an expression
    profile outside the grammar of :mod:`specgap.expr` or an unknown key
    in a known section.  Missing sections and keys take
    :class:`RunConfig`'s defaults; unknown sections are ignored."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc
    for section, keys in _SECTION_KEYS.items():
        unknown = sorted(set(parser[section]) - keys) if parser.has_section(section) else []
        if unknown:
            raise ConfigError(f"[{section}] {unknown[0]}: unknown key")

    values = {
        name: _profile_from_section(parser[name], name)
        for name in ("symbol", "weight")
        if parser.has_section(name)
    }
    for section, key, name, parse, _ in _SCHEMA:
        if parser.has_option(section, key):
            values[name] = _parsed(section, key, parser.get(section, key), parse)
    cfg = RunConfig(**values)
    validate_config(cfg)
    for name in ("symbol", "weight"):
        profile = getattr(cfg, name)
        if profile.kind == "expression":
            for key in ("expr", "principal"):
                try:
                    parse_expression(getattr(profile, key), cfg.dimension)
                except ExpressionError as exc:
                    raise ConfigError(f"[{name}] {key}: {exc}") from exc
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Raise :class:`ConfigError` on an out-of-range field; NaN fails every check."""
    if not 1 <= cfg.dimension <= 3:
        raise ConfigError(f"dimension must be 1..3, got {cfg.dimension}")
    if cfg.eigen_count < 1:
        raise ConfigError(f"eigen_count must be >= 1, got {cfg.eigen_count}")
    if not cfg.alphas:
        raise ConfigError("alphas must be nonempty")
    if not all(0 < a < math.inf for a in cfg.alphas):
        raise ConfigError("alphas must be positive and finite")
    if not all(b < a for a, b in zip(cfg.alphas, cfg.alphas[1:])):
        raise ConfigError("alphas must be strictly decreasing")
    if cfg.grid_mode not in ("auto", "manual"):
        raise ConfigError(f"grid mode must be auto or manual, got {cfg.grid_mode!r}")
    if cfg.grid_mode == "manual":
        if cfg.grid_n < 8 or cfg.grid_n % 2:
            raise ConfigError(f"grid n must be even and >= 8, got {cfg.grid_n}")
        if not 0 < cfg.grid_half_length < math.inf:
            raise ConfigError("grid half_length must be positive and finite")
    if not 0 < cfg.tol <= 1e-2:
        raise ConfigError(f"solver tol must lie in (0, 1e-2], got {cfg.tol}")
    if cfg.max_iterations < 1:
        raise ConfigError("max_iterations must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"[solver] seed must be >= 0, got {cfg.seed}")
    if cfg.model_mode not in _MODEL_MODES:
        raise ConfigError(f"model_mode must be one of {sorted(_MODEL_MODES)}")
    if not (0 < cfg.rel_final <= 1 and 0 < cfg.rel_extrap <= 1):
        raise ConfigError("rel_final and rel_extrap must lie in (0, 1]")
    if not cfg.radii or not all(0 < r < math.inf for r in cfg.radii):
        raise ConfigError("localization radii must be positive and finite")
    if len(set(cfg.radii)) != len(cfg.radii):
        raise ConfigError(f"localization radii must be distinct, got {list(cfg.radii)}")


def emit_config(cfg: RunConfig) -> str:
    """Serialize a config in normalized form (the round-trip fixpoint)."""
    parser = configparser.ConfigParser(interpolation=None)

    def profile_section(name: str, p: ProfileConfig) -> None:
        parser.add_section(name)
        parser[name]["kind"] = p.kind
        if p.kind == "catalog":
            parser[name]["name"] = p.name
            parser[name]["params"] = _g_list(p.params)
        else:
            parser[name]["expr"] = p.expr
            parser[name]["principal"] = p.principal
            parser[name]["degree"] = _g(p.degree)
            if p.margin is not None:
                parser[name]["margin"] = _g(p.margin)

    profile_section("symbol", cfg.symbol)
    profile_section("weight", cfg.weight)
    for section, key, name, _, fmt in _SCHEMA:
        if name in _MANUAL_GRID_FIELDS and cfg.grid_mode != "manual":
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = fmt(getattr(cfg, name))

    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _build_profile(p: ProfileConfig, d: int, role: ProfileRole) -> ProfileSpec:
    try:
        if p.kind == "catalog":
            return make_catalog_profile(p.name, list(p.params), d, role=role)
        return expression_profile(
            p.expr, p.principal, p.degree, d, role=role, lower_bound_margin=p.margin
        )
    except (ProfileError, ExpressionError) as exc:
        raise ConfigError(str(exc)) from exc


def build_profiles(cfg: RunConfig) -> ProfilePair:
    """Instantiate the configured symbol/weight pair."""
    a = _build_profile(cfg.symbol, cfg.dimension, ProfileRole.SYMBOL_A)
    v = _build_profile(cfg.weight, cfg.dimension, ProfileRole.WEIGHT_V)
    return make_pair(a, v)


def model_mode_of(cfg: RunConfig) -> Mode | None:
    return _MODEL_MODES[cfg.model_mode]


def grid_of(cfg: RunConfig) -> Grid | None:
    """The manual grid, or None when the grid is left to the study."""
    if cfg.grid_mode != "manual":
        return None
    return build_grid(cfg.dimension, cfg.grid_n, cfg.grid_half_length)
