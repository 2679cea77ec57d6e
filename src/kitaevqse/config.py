"""Run configuration: one JSON document, validated field by field.

Defaults reproduce the reference setup: 2x2 torus (N=8), isotropic
J = -1, h^z = 0.1, basis sizes n_k = n_l = 3 on both grids, r = 5
Trotter steps, delta = 0.1, and the energy grid omega in [-10, 10].
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Configuration rejected; message carries the JSON path of the offender."""


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _reject_unknown(obj: dict, path: str, defaults) -> None:
    """Every key of ``obj`` must name a field of the ``defaults`` dataclass."""
    known = {f.name for f in fields(defaults)}
    for key in obj:
        _require(key in known, f"{path}.{key}", "unknown configuration key")


def _get_number(obj: dict, path: str, key: str, defaults, *, integer=False, minimum=None):
    """``obj[key]``, else the field of the same name on the ``defaults`` dataclass."""
    value = obj.get(key, getattr(defaults, key))
    where = f"{path}.{key}"
    if integer:
        _require(isinstance(value, int) and not isinstance(value, bool), where, "must be an integer")
    else:
        _require(isinstance(value, (int, float)) and not isinstance(value, bool), where, "must be a number")
    if minimum is not None:
        _require(value >= minimum, where, f"must be >= {minimum}")
    return value


@dataclass
class LatticeConfig:
    rows: int = 2
    cols: int = 2

    @property
    def num_sites(self) -> int:
        return 2 * self.rows * self.cols


@dataclass
class VqeConfig:
    layers: int = 1
    epochs: int = 800
    learning_rate: float = 0.1
    layer_sweep: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])


@dataclass
class QseConfig:
    n_k: int = 3
    n_l: int = 3
    evolution_mode: str = "exact"
    trotter_steps: int = 5
    hoa_tau_scale: float = 0.1  # tau = scale / kappa when assembly_mode == "hoa"
    assembly_mode: str = "exact"  # the `qse` stage only; `dsf` always assembles directly
    shape_sweep: list[tuple[int, int]] = field(
        default_factory=lambda: [(n_l, n_k) for n_l in range(4) for n_k in range(4)]
    )
    trotter_sweep: list[int] = field(default_factory=lambda: list(range(1, 11)))


@dataclass
class GfConfig:
    tilde_n_k: int = 3
    tilde_n_l: int = 3
    trotter_steps: int = 5
    evolution_mode: str = "exact"
    delta: float = 0.1
    omega_min: float = -10.0
    omega_max: float = 10.0
    omega_step: float = 0.1
    site_pair: tuple[int, int] = (1, 2)  # 1-based site indices
    kinds: list[str] = field(default_factory=lambda: ["Z"])

    def omega_grid(self) -> np.ndarray:
        return np.arange(self.omega_min, self.omega_max + 0.5 * self.omega_step, self.omega_step)


@dataclass
class DsfConfig:
    h_values: list[float] = field(default_factory=lambda: [round(0.05 * i, 10) for i in range(11)])
    omega_min: float = -10.0
    omega_max: float = 10.0
    omega_step: float = 0.1
    delta: float = 0.1
    q: tuple[float, float] = (0.0, 0.0)

    def omega_grid(self) -> np.ndarray:
        return np.arange(self.omega_min, self.omega_max + 0.5 * self.omega_step, self.omega_step)


@dataclass
class RunConfig:
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    coupling: float | list[float] = -1.0
    field_z: float = 0.1
    seed: int = 1
    threads: int = 1
    output_dir: str = "out"
    vqe: VqeConfig = field(default_factory=VqeConfig)
    qse: QseConfig = field(default_factory=QseConfig)
    gf: GfConfig = field(default_factory=GfConfig)
    dsf: DsfConfig = field(default_factory=DsfConfig)

    def to_json_dict(self) -> dict:
        return asdict(self)


_EVOLUTION_MODES = ("exact", "trotter2")


def config_from_dict(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "$", "top level must be a JSON object")
    default = RunConfig()
    _reject_unknown(raw, "$", default)

    lat_raw = raw.get("lattice", {})
    _require(isinstance(lat_raw, dict), "$.lattice", "must be an object")
    _reject_unknown(lat_raw, "$.lattice", default.lattice)
    lattice = LatticeConfig(
        rows=_get_number(lat_raw, "$.lattice", "rows", default.lattice, integer=True, minimum=2),
        cols=_get_number(lat_raw, "$.lattice", "cols", default.lattice, integer=True, minimum=2),
    )
    n = lattice.num_sites

    coupling = raw.get("coupling", default.coupling)
    if isinstance(coupling, list):
        _require(len(coupling) == 3, "$.coupling", "list form must have exactly 3 entries")
        _require(all(isinstance(x, (int, float)) for x in coupling), "$.coupling", "entries must be numbers")
    else:
        _require(isinstance(coupling, (int, float)), "$.coupling", "must be a number or 3-list")

    field_z = raw.get("field_z", default.field_z)
    _require(isinstance(field_z, (int, float)), "$.field_z", "must be a number")

    seed = _get_number(raw, "$", "seed", default, integer=True, minimum=0)
    threads = _get_number(raw, "$", "threads", default, integer=True, minimum=1)
    output_dir = raw.get("output_dir", default.output_dir)
    _require(isinstance(output_dir, str) and output_dir, "$.output_dir", "must be a non-empty string")

    v = raw.get("vqe", {})
    _require(isinstance(v, dict), "$.vqe", "must be an object")
    _reject_unknown(v, "$.vqe", default.vqe)
    vqe_cfg = VqeConfig(
        layers=_get_number(v, "$.vqe", "layers", default.vqe, integer=True, minimum=0),
        epochs=_get_number(v, "$.vqe", "epochs", default.vqe, integer=True, minimum=1),
        learning_rate=_get_number(v, "$.vqe", "learning_rate", default.vqe, minimum=0.0),
        layer_sweep=v.get("layer_sweep", default.vqe.layer_sweep),
    )
    _require(
        isinstance(vqe_cfg.layer_sweep, list)
        and all(isinstance(d, int) and d >= 0 for d in vqe_cfg.layer_sweep),
        "$.vqe.layer_sweep", "must be a list of non-negative integers",
    )

    q = raw.get("qse", {})
    _require(isinstance(q, dict), "$.qse", "must be an object")
    _reject_unknown(q, "$.qse", default.qse)
    qse_cfg = QseConfig(
        n_k=_get_number(q, "$.qse", "n_k", default.qse, integer=True, minimum=0),
        n_l=_get_number(q, "$.qse", "n_l", default.qse, integer=True, minimum=0),
        evolution_mode=q.get("evolution_mode", default.qse.evolution_mode),
        trotter_steps=_get_number(q, "$.qse", "trotter_steps", default.qse, integer=True, minimum=1),
        hoa_tau_scale=_get_number(q, "$.qse", "hoa_tau_scale", default.qse, minimum=0.0),
        assembly_mode=q.get("assembly_mode", default.qse.assembly_mode),
        shape_sweep=[tuple(p) for p in q.get("shape_sweep", default.qse.shape_sweep)],
        trotter_sweep=q.get("trotter_sweep", default.qse.trotter_sweep),
    )
    _require(qse_cfg.evolution_mode in _EVOLUTION_MODES, "$.qse.evolution_mode", f"must be one of {_EVOLUTION_MODES}")
    _require(qse_cfg.assembly_mode in ("exact", "hoa"), "$.qse.assembly_mode", "must be 'exact' or 'hoa'")
    for i, p in enumerate(qse_cfg.shape_sweep):
        _require(
            len(p) == 2 and all(isinstance(x, int) and x >= 0 for x in p),
            f"$.qse.shape_sweep[{i}]", "must be a [n_l, n_k] pair of non-negative integers",
        )
    _require(len(qse_cfg.shape_sweep) > 0, "$.qse.shape_sweep", "must be non-empty")
    _require(
        isinstance(qse_cfg.trotter_sweep, list) and len(qse_cfg.trotter_sweep) > 0
        and all(isinstance(r, int) and r >= 1 for r in qse_cfg.trotter_sweep),
        "$.qse.trotter_sweep", "must be a non-empty list of positive integers",
    )

    g = raw.get("gf", {})
    _require(isinstance(g, dict), "$.gf", "must be an object")
    _reject_unknown(g, "$.gf", default.gf)
    gf_cfg = GfConfig(
        tilde_n_k=_get_number(g, "$.gf", "tilde_n_k", default.gf, integer=True, minimum=0),
        tilde_n_l=_get_number(g, "$.gf", "tilde_n_l", default.gf, integer=True, minimum=0),
        trotter_steps=_get_number(g, "$.gf", "trotter_steps", default.gf, integer=True, minimum=1),
        evolution_mode=g.get("evolution_mode", default.gf.evolution_mode),
        delta=_get_number(g, "$.gf", "delta", default.gf),
        omega_min=_get_number(g, "$.gf", "omega_min", default.gf),
        omega_max=_get_number(g, "$.gf", "omega_max", default.gf),
        omega_step=_get_number(g, "$.gf", "omega_step", default.gf, minimum=1e-12),
        site_pair=tuple(g.get("site_pair", default.gf.site_pair)),
        kinds=g.get("kinds", default.gf.kinds),
    )
    _require(gf_cfg.evolution_mode in _EVOLUTION_MODES, "$.gf.evolution_mode", f"must be one of {_EVOLUTION_MODES}")
    _require(gf_cfg.delta > 0.0, "$.gf.delta", "must be positive")
    _require(gf_cfg.omega_max > gf_cfg.omega_min, "$.gf.omega_max", "must exceed omega_min")
    _require(
        len(gf_cfg.site_pair) == 2 and all(isinstance(s, int) for s in gf_cfg.site_pair),
        "$.gf.site_pair", "must be a pair of integers",
    )
    for s in gf_cfg.site_pair:
        _require(1 <= s <= n, "$.gf.site_pair", f"site {s} outside 1..{n} (1-based)")
    _require(gf_cfg.site_pair[0] != gf_cfg.site_pair[1], "$.gf.site_pair", "sites must differ")
    _require(
        isinstance(gf_cfg.kinds, list) and len(gf_cfg.kinds) > 0,
        "$.gf.kinds", "must be a non-empty list",
    )
    for k in gf_cfg.kinds:
        _require(k in ("X", "Y", "Z"), "$.gf.kinds", f"unknown Pauli kind {k!r}")

    d = raw.get("dsf", {})
    _require(isinstance(d, dict), "$.dsf", "must be an object")
    _reject_unknown(d, "$.dsf", default.dsf)
    dsf_cfg = DsfConfig(
        h_values=d.get("h_values", default.dsf.h_values),
        omega_min=_get_number(d, "$.dsf", "omega_min", default.dsf),
        omega_max=_get_number(d, "$.dsf", "omega_max", default.dsf),
        omega_step=_get_number(d, "$.dsf", "omega_step", default.dsf, minimum=1e-12),
        delta=_get_number(d, "$.dsf", "delta", default.dsf),
        q=tuple(d.get("q", default.dsf.q)),
    )
    _require(
        isinstance(dsf_cfg.h_values, list) and len(dsf_cfg.h_values) > 0
        and all(isinstance(x, (int, float)) for x in dsf_cfg.h_values),
        "$.dsf.h_values", "must be a non-empty list of numbers",
    )
    _require(dsf_cfg.delta > 0.0, "$.dsf.delta", "must be positive")
    _require(len(dsf_cfg.q) == 2, "$.dsf.q", "must be a 2-vector")

    return RunConfig(
        lattice=lattice,
        coupling=coupling,
        field_z=field_z,
        seed=seed,
        threads=threads,
        output_dir=output_dir,
        vqe=vqe_cfg,
        qse=qse_cfg,
        gf=gf_cfg,
        dsf=dsf_cfg,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)
