"""Run configuration: schema, defaults, validation, overrides and hashing.

A run is described by a small YAML file with flat sections.  Every field
has a default except ``model`` and ``spectral.n``; validation failures
always name the offending field.  The canonical JSON form of a config is
hashed into every output artifact so results can be traced back.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import yaml

from .errors import ConfigError

MODELS = ("position", "symmetric")
STATE_KINDS = (
    "two_mode_squeezed",
    "separable_squeezed",
    "coherent",
    "custom_covariance",
)
INTEGRATORS = ("normal_mode", "rk4")


@dataclass
class SpectralSection:
    n: float | None = None
    gamma0: float = 0.1
    cutoff: float = 20.0


@dataclass
class SystemSection:
    m: float = 1.0
    omega1: float = 1.0
    omega2: float = 1.0
    c12: float = 0.0
    c12_tilde: float = 0.0


@dataclass
class BathSection:
    n_modes: int | None = None  # None -> derived from cutoff and t_max
    temperature: float = 0.0


@dataclass
class InitialStateSection:
    kind: str = "separable_squeezed"
    r: float = 2.0
    purity_product: float = 0.5  # minus-mode dx * dp; 1/2 is pure
    covariance: list | None = None  # 4x4, kind = custom_covariance only


@dataclass
class EvolutionSection:
    dt: float = 0.02
    t_max: float = 150.0
    sample_stride: int = 10
    integrator: str = "normal_mode"


@dataclass
class SweepSection:
    r_grid: list | None = None
    t_grid: list | None = None
    parallelism: int | None = None  # accepted and ignored; not part of the hash


@dataclass
class RunConfig:
    model: str | None = None
    spectral: SpectralSection = field(default_factory=SpectralSection)
    system: SystemSection = field(default_factory=SystemSection)
    bath: BathSection = field(default_factory=BathSection)
    initial_state: InitialStateSection = field(default_factory=InitialStateSection)
    evolution: EvolutionSection = field(default_factory=EvolutionSection)
    sweep: SweepSection = field(default_factory=SweepSection)


_SECTIONS = {f.name: f.type for f in fields(RunConfig)}


def _fill_section(obj, data: dict, prefix: str):
    known = {f.name for f in fields(obj)}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown field")
        setattr(obj, key, value)
    return obj


def from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from nested mappings; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config root: expected a mapping of sections")
    cfg = RunConfig()
    for key, value in data.items():
        if key == "model":
            cfg.model = value
            continue
        section = getattr(cfg, key, None)
        if key not in _SECTIONS or not is_dataclass(section):
            raise ConfigError(f"{key}: unknown section")
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: expected a mapping")
        _fill_section(section, value, f"{key}.")
    return cfg


def apply_override(cfg: RunConfig, item: str) -> None:
    """Apply one --set override of the form section.field=value (or model=...)."""
    if "=" not in item:
        raise ConfigError(f"override {item!r}: expected key=value")
    key, raw = item.split("=", 1)
    value = yaml.safe_load(raw)
    parts = key.split(".")
    if parts == ["model"]:
        cfg.model = value
        return
    if len(parts) != 2:
        raise ConfigError(f"override {key}: expected section.field")
    section = getattr(cfg, parts[0], None)
    if not is_dataclass(section):
        raise ConfigError(f"override {parts[0]}: unknown section")
    if parts[1] not in {f.name for f in fields(section)}:
        raise ConfigError(f"override {key}: unknown field")
    setattr(section, parts[1], value)


def _require_number(value, name: str, *, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name}: must be positive, got {value}")
    if nonnegative and value < 0:
        raise ConfigError(f"{name}: must be nonnegative, got {value}")
    return float(value)


def _require_count(value, name: str) -> None:
    # bool is an int subclass; YAML `true` is not a count
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name}: expected positive integer, got {value!r}")


def validate(cfg: RunConfig) -> RunConfig:
    """Check every field; raises ConfigError naming the offending field."""
    if cfg.model is None:
        raise ConfigError("model: required (position or symmetric)")
    if cfg.model not in MODELS:
        raise ConfigError(f"model: must be one of {MODELS}, got {cfg.model!r}")
    sp = cfg.spectral
    if sp.n is None:
        raise ConfigError("spectral.n: required (1 ohmic, 0.5 sub-ohmic, 3 super-ohmic)")
    _require_number(sp.n, "spectral.n", positive=True)
    if cfg.model == "position" and sp.n not in (0.5, 1, 1.0, 3, 3.0):
        raise ConfigError(
            "spectral.n: position coupling has closed forms only for "
            f"exponents 0.5, 1 and 3, got {sp.n}"
        )
    _require_number(sp.gamma0, "spectral.gamma0", positive=True)
    _require_number(sp.cutoff, "spectral.cutoff", positive=True)
    sy = cfg.system
    _require_number(sy.m, "system.m", positive=True)
    _require_number(sy.omega1, "system.omega1", positive=True)
    _require_number(sy.omega2, "system.omega2", positive=True)
    _require_number(sy.c12, "system.c12")
    _require_number(sy.c12_tilde, "system.c12_tilde")
    if cfg.model == "symmetric" and sy.omega1 != sy.omega2:
        raise ConfigError("system.omega2: symmetric model requires omega1 == omega2")
    if cfg.model == "position" and sy.c12_tilde != 0.0:
        raise ConfigError("system.c12_tilde: momentum coupling needs model=symmetric")
    ba = cfg.bath
    if ba.n_modes is not None:
        _require_count(ba.n_modes, "bath.n_modes")
    _require_number(ba.temperature, "bath.temperature", nonnegative=True)
    ini = cfg.initial_state
    if ini.kind not in STATE_KINDS:
        raise ConfigError(f"initial_state.kind: must be one of {STATE_KINDS}")
    _require_number(ini.r, "initial_state.r")
    _require_number(ini.purity_product, "initial_state.purity_product")
    if ini.purity_product < 0.5:
        raise ConfigError("initial_state.purity_product: must be >= 1/2")
    if ini.kind == "custom_covariance":
        mat = ini.covariance
        if (
            not isinstance(mat, list)
            or len(mat) != 4
            or any(not isinstance(row, list) or len(row) != 4 for row in mat)
        ):
            raise ConfigError("initial_state.covariance: expected a 4x4 nested list")
        for row in mat:
            for v in row:
                _require_number(v, "initial_state.covariance")
    ev = cfg.evolution
    _require_number(ev.dt, "evolution.dt", positive=True)
    _require_number(ev.t_max, "evolution.t_max", positive=True)
    _require_count(ev.sample_stride, "evolution.sample_stride")
    if ev.integrator not in INTEGRATORS:
        raise ConfigError(f"evolution.integrator: must be one of {INTEGRATORS}")
    sw = cfg.sweep
    for name, grid in (("sweep.r_grid", sw.r_grid), ("sweep.t_grid", sw.t_grid)):
        if grid is None:
            continue
        if not isinstance(grid, list) or not grid:
            raise ConfigError(f"{name}: expected a nonempty list of numbers")
        for v in grid:
            _require_number(v, name)
        if name == "sweep.t_grid" and any(v < 0 for v in grid):
            raise ConfigError(f"{name}: temperatures must be nonnegative")
    if sw.parallelism is not None:
        _require_count(sw.parallelism, "sweep.parallelism")
    return cfg


def load_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    """Read a YAML config file, apply --set overrides, validate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
    except OSError as err:
        raise ConfigError(f"config file: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"config file: invalid YAML ({err})") from err
    cfg = from_dict(data)
    for item in overrides or []:
        apply_override(cfg, item)
    return validate(cfg)


def canonical_dict(cfg: RunConfig) -> dict:
    """The physics of a run: every field except the ignored ``sweep.parallelism``."""
    data = asdict(cfg)
    del data["sweep"]["parallelism"]
    return data


def canonical_json(cfg: RunConfig) -> str:
    return json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()
