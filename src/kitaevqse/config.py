"""Run configuration: one JSON document, validated field by field.

The section dataclasses below are the whole schema: each field declares
its default and the check a configured value must pass, and one parser
walks them. Defaults reproduce the reference setup: 2x2 torus (N=8),
isotropic J = -1, h^z = 0.1, basis sizes n_k = n_l = 3 on both grids,
r = 5 Trotter steps, delta = 0.1, and the energy grid omega in [-10, 10].
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .pauli import MERGE_TOL


class ConfigError(ValueError):
    """Configuration rejected; message carries the JSON path of the offender."""


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Field checks: each takes (value, JSON path) and returns the parsed value
# ---------------------------------------------------------------------------

def _integer(minimum: int):
    def check(value, path):
        _require(isinstance(value, int) and not isinstance(value, bool), path, "must be an integer")
        _require(value >= minimum, path, f"must be >= {minimum}")
        return value
    return check


def _number(minimum: float | None = None, *, exclusive: bool = False):
    def check(value, path):
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
            path, "must be a finite number",
        )
        if minimum is not None and exclusive:
            _require(value > minimum, path, f"must be > {minimum}")
        elif minimum is not None:
            _require(value >= minimum, path, f"must be >= {minimum}")
        return value
    return check


def _one_of(*choices: str):
    def check(value, path):
        _require(isinstance(value, str) and value in choices, path, f"must be one of {choices}")
        return value
    return check


def _text(value, path):
    _require(isinstance(value, str) and value != "", path, "must be a non-empty string")
    return value


def _list_of(item, *, length: int | None = None, non_empty: bool = False, convert=list):
    def check(value, path):
        _require(isinstance(value, (list, tuple)), path, "must be a list")
        if length is not None:
            _require(len(value) == length, path, f"must have exactly {length} entries")
        if non_empty:
            _require(len(value) > 0, path, "must be non-empty")
        return convert(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    return check


def _pair(item):
    return _list_of(item, length=2, convert=tuple)


def _coupling(value, path):
    """One number for all three bond colors, or one per color, each |J| above ``pauli.MERGE_TOL``:
    the Hamiltonian prunes a smaller one, which switches that color's bonds off."""
    parse = _list_of(_number(), length=3) if isinstance(value, (list, tuple)) else _number()
    value = parse(value, path)
    _require(all(abs(j) > MERGE_TOL for j in np.atleast_1d(value)), path,
             f"every bond color needs |J| > {MERGE_TOL}; {value} switches one off")
    return value


def _field(default, check):
    """A schema field: its default and the check every configured value must pass."""
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata={"check": check})
    return field(default=default, metadata={"check": check})


def _section(cls):
    return field(default_factory=cls, metadata={"check": lambda value, path: _parse(cls, value, path)})


def _parse(cls, raw, path: str):
    """Build ``cls`` from ``raw``: unknown keys are rejected, missing ones keep their default."""
    _require(isinstance(raw, dict), path, "must be an object")
    schema = {f.name: f for f in fields(cls)}
    for key in raw:
        _require(key in schema, f"{path}.{key}", "unknown configuration key")
    return cls(**{key: schema[key].metadata["check"](value, f"{path}.{key}") for key, value in raw.items()})


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

_EVOLUTION_MODES = ("exact", "trotter2")
# Each omega point is one row of the (points, 2^N) Lehmann tables on the ED side: at N=12,
# 10^4 points make 0.33 GB per table. The default grid has 201 points.
MAX_OMEGA_POINTS = 10_000


@dataclass
class LatticeConfig:
    rows: int = _field(2, _integer(2))
    cols: int = _field(2, _integer(2))

    @property
    def num_sites(self) -> int:
        return 2 * self.rows * self.cols


@dataclass
class VqeConfig:
    layers: int = _field(1, _integer(0))
    epochs: int = _field(800, _integer(1))
    layer_sweep: list[int] = _field([0, 1, 2, 3, 4], _list_of(_integer(0)))


@dataclass
class QseConfig:
    n_k: int = _field(3, _integer(0))
    n_l: int = _field(3, _integer(0))
    evolution_mode: str = _field("exact", _one_of(*_EVOLUTION_MODES))
    trotter_steps: int = _field(5, _integer(1))
    hoa_tau_scale: float = _field(0.1, _number(0.0))  # tau = scale / kappa when assembly_mode == "hoa"
    assembly_mode: str = _field("exact", _one_of("exact", "hoa"))
    shape_sweep: list[tuple[int, int]] = _field(
        [(n_l, n_k) for n_l in range(4) for n_k in range(4)],
        _list_of(_pair(_integer(0)), non_empty=True),
    )
    trotter_sweep: list[int] = _field(list(range(1, 11)), _list_of(_integer(1), non_empty=True))


@dataclass
class OmegaGridConfig:
    """The broadened energy grid z = omega + i*delta shared by `gf` and `dsf`."""

    delta: float = _field(0.1, _number(0.0, exclusive=True))
    omega_min: float = _field(-10.0, _number())
    omega_max: float = _field(10.0, _number())
    omega_step: float = _field(0.1, _number(1e-12))

    def omega_grid(self) -> np.ndarray:
        return np.arange(self.omega_min, self.omega_max + 0.5 * self.omega_step, self.omega_step)


@dataclass
class GfConfig(OmegaGridConfig):
    tilde_n_k: int = _field(3, _integer(0))
    tilde_n_l: int = _field(3, _integer(0))
    trotter_steps: int = _field(5, _integer(1))
    evolution_mode: str = _field("exact", _one_of(*_EVOLUTION_MODES))
    site_pair: tuple[int, int] = _field((1, 2), _pair(_integer(1)))  # 1-based site indices
    kinds: list[str] = _field(["Z"], _list_of(_one_of("X", "Y", "Z"), non_empty=True))


@dataclass
class DsfConfig(OmegaGridConfig):
    h_values: list[float] = _field([round(0.05 * i, 10) for i in range(11)], _list_of(_number(), non_empty=True))
    q: tuple[float, float] = _field((0.0, 0.0), _pair(_number()))


@dataclass
class RunConfig:
    lattice: LatticeConfig = _section(LatticeConfig)
    coupling: float | list[float] = _field(-1.0, _coupling)
    field_z: float = _field(0.1, _number())
    seed: int = _field(1, _integer(0))
    threads: int = _field(1, _integer(1))
    output_dir: str = _field("out", _text)
    vqe: VqeConfig = _section(VqeConfig)
    qse: QseConfig = _section(QseConfig)
    gf: GfConfig = _section(GfConfig)
    dsf: DsfConfig = _section(DsfConfig)

    def to_json_dict(self) -> dict:
        return asdict(self)


def config_from_dict(raw: dict) -> RunConfig:
    """Parse ``raw`` against the schema, then check what spans several fields."""
    config = _parse(RunConfig, raw, "$")
    n = config.lattice.num_sites
    for s in config.gf.site_pair:
        _require(s <= n, "$.gf.site_pair", f"site {s} outside 1..{n} (1-based)")
    _require(config.gf.site_pair[0] != config.gf.site_pair[1], "$.gf.site_pair", "sites must differ")
    for name in ("gf", "dsf"):
        grid = getattr(config, name)
        _require(grid.omega_max > grid.omega_min, f"$.{name}.omega_max", "must exceed omega_min")
        points = (grid.omega_max - grid.omega_min) / grid.omega_step + 1
        _require(points <= MAX_OMEGA_POINTS, f"$.{name}.omega_step",
                 f"makes {points:.6g} omega points, more than {MAX_OMEGA_POINTS}")
    if config.qse.assembly_mode == "hoa":
        _require(
            0.0 < config.qse.hoa_tau_scale < 1.0, "$.qse.hoa_tau_scale",
            "must lie in (0, 1) with assembly_mode 'hoa': tau*kappa < 1",
        )
    return config


def load_config(path: str | Path | None = None, **overrides) -> RunConfig:
    """Parse the JSON file at ``path`` (no path: all defaults) with ``overrides`` merged in.

    Overrides are top-level keys such as the CLI's ``seed``, ``threads`` and
    ``output_dir``; ``None`` leaves the file's value. They pass the same
    checks as the file.
    """
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config file ({type(exc).__name__})") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if isinstance(raw, dict):  # any other document fails the parse at "$"
        raw = {**raw, **overrides}
    return config_from_dict(raw)
