"""Command-line pipeline: vqe -> qse -> greens/dsf, plus the ED fixture.

Every CSV starts with '#'-prefixed metadata lines carrying the resolved
configuration, package version and seed; the timestamp sits on its own
line so reruns differ in exactly that one line. Every JSON artifact is an
object carrying the same record under ``_meta``, written by
:func:`write_json`, the only JSON writer in the package. Plotting is
deliberately out of scope; files are plain CSV/JSON for downstream use.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, greens, lattice as lattice_mod, oracle, qse, vqe
from .config import ConfigError, RunConfig, load_config
from .greens import GreensEngine, GreensError, KrylovBasisConfig
from .lattice import HoneycombLattice, LatticeError
from .oracle import OracleError, SpectralDecomposition
from .pauli import PauliError, PauliSum, gershgorin_kappa, single_site
from .qse import QseError
from .simulator import EvolutionOperator, SimulationError, StateVector
from .vqe import VqeError


class PipelineError(RuntimeError):
    pass


# every error the package raises on bad input ends the CLI with exit code 2
_EXIT_2_ERRORS = (
    ConfigError, PipelineError, LatticeError, OracleError, QseError,
    GreensError, SimulationError, PauliError, VqeError,
)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _recorded_config(config: RunConfig) -> dict:
    """The configuration every artifact echoes: all of it but where the run
    writes and how many workers it uses, which change no number. Each stage
    builds it once and hands it to every artifact it writes."""
    echo = config.to_json_dict()
    del echo["output_dir"], echo["threads"]
    return echo


def _metadata_lines(echo: dict, extra: dict | None = None) -> list[str]:
    lines = [
        f"# kitaevqse_version = {__version__}",
        f"# seed = {echo['seed']}",
        f"# config = {json.dumps(echo, sort_keys=True)}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(f"# timestamp = {datetime.now(timezone.utc).isoformat()}")
    return lines


def write_csv(
    path: Path,
    echo: dict,
    header: list[str],
    rows: list[list],
    extra_metadata: dict | None = None,
) -> None:
    """``rows`` under ``header``, after the metadata lines of ``echo``, the stage's :func:`_recorded_config`."""
    out = _metadata_lines(echo, extra_metadata)
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(map(str, row)))  # str(float) is its shortest round-trip repr
    _write_text(path, "\n".join(out) + "\n")


def write_json(path: Path, echo: dict, payload: dict) -> None:
    """``payload`` with ``_meta`` recording ``echo``, the stage's :func:`_recorded_config`."""
    payload = dict(payload)
    payload["_meta"] = {
        "kitaevqse_version": __version__,
        "seed": echo["seed"],
        "config": echo,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_text(path, json.dumps(payload, separators=(",", ":")))  # an indent would take the pure-Python encoder


def _write_text(path: Path, text: str) -> None:
    """The one artifact write: a failure raises :class:`PipelineError` with the path and the reason."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise PipelineError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _map_tasks(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: only --threads > 1 needs the pool, and the import costs every process's set-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _model(config: RunConfig) -> tuple[HoneycombLattice, PauliSum, PauliSum]:
    """The run's lattice, h0 and h(field_z), one of each per process: the oracle's keys for every stage."""
    coupling = tuple(config.coupling) if isinstance(config.coupling, list) else config.coupling
    return _model_of(config.lattice.rows, config.lattice.cols, coupling, config.field_z)


@lru_cache(maxsize=1)  # keyed on every input of the three; one model stays alive at most
def _model_of(rows: int, cols: int, coupling, field_z: float) -> tuple[HoneycombLattice, PauliSum, PauliSum]:
    lat = lattice_mod.build_lattice(rows, cols)
    return lat, lattice_mod.kitaev_hamiltonian(lat, coupling), lattice_mod.kitaev_hamiltonian(lat, coupling, field_z)


def _load_artifact(out_dir: Path, name: str, config: RunConfig, keys: tuple[str, ...]) -> dict:
    """An upstream stage's JSON object, checked to be produced for the Hamiltonian
    of ``config`` and to hold every one of ``keys``, the ones the calling stage reads."""
    path = out_dir / name
    if not path.exists():
        raise PipelineError(f"missing upstream artifact {path}; run the earlier pipeline stage first")
    try:
        artifact = json.loads(path.read_text())
    except OSError as exc:
        raise PipelineError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise PipelineError(f"{path} is not valid JSON ({exc}); rerun the stage that writes it") from exc
    if not isinstance(artifact, dict):
        raise PipelineError(
            f"{path} holds a JSON {type(artifact).__name__}, not an object; rerun the stage that writes it"
        )
    meta = artifact.get("_meta")
    recorded = meta.get("config") if isinstance(meta, dict) else None
    wanted = {"lattice": asdict(config.lattice), "coupling": config.coupling, "field_z": config.field_z}
    stored = {key: recorded.get(key) for key in wanted} if isinstance(recorded, dict) else None
    if stored != wanted:
        raise PipelineError(f"{path} was produced for {stored}, current config wants {wanted}")
    missing = [key for key in keys if key not in artifact]
    if missing:
        raise PipelineError(f"{path} lacks {', '.join(missing)}; rerun the stage that writes it")
    return artifact


def _vqe_reference(lat, out_dir: Path, config: RunConfig) -> StateVector:
    """The trained VQE state that the vqe stage's artifact describes. Raises :class:`PipelineError`
    naming the key when ``sector_targets``, ``layers`` or ``optimal_parameters`` has the wrong type
    or length for ``lat``."""
    artifact = _load_artifact(
        out_dir, "vqe_result.json", config, ("sector_targets", "layers", "optimal_parameters")
    )

    def check(key: str, holds: bool, wanted: str) -> None:
        if not holds:
            shown = repr(artifact[key])
            shown = shown if len(shown) <= 60 else shown[:56] + " ..."
            raise PipelineError(f"{out_dir / 'vqe_result.json'}: {key} is {shown}, not {wanted}; rerun the vqe stage")

    targets, layers, angles = artifact["sector_targets"], artifact["layers"], artifact["optimal_parameters"]
    plaquettes, layer = len(lat.plaquettes), vqe.AnsatzCircuit.for_lattice(lat, 1)
    check("sector_targets",
          isinstance(targets, list) and len(targets) == plaquettes + 2
          and all(type(t) is int and t in (-1, 1) for t in targets), f"a list of {plaquettes + 2} entries of 1 or -1")
    check("layers", type(layers) is int and layers >= 0, "a non-negative integer")
    check("optimal_parameters",
          isinstance(angles, list) and len(angles) == layers * layer.num_parameters
          and all(type(a) is float and math.isfinite(a) for a in angles),
          f"a list of {layers * layer.num_parameters} finite floats")
    group = lattice_mod.stabilizer_group(lat, targets[:plaquettes], tuple(targets[plaquettes:]))
    return layer.repeated(layers).apply(np.asarray(angles), vqe.prepare_sector_state(group, lat))


def _ed_ground_vector(decomp: SpectralDecomposition, qse_state: StateVector, hz: float) -> np.ndarray | None:
    """The ground state ED compares with: its own (None) when it is the only one, else the normalized
    projection of the QSE ground state onto the degenerate ED ground space, the member in its sector.
    The stage stops when that keeps less than 1 - 1e-8 of the weight: the state lies outside the space."""
    if decomp.ground_degeneracy == 1:
        return None
    space = decomp.ground_space()
    coords = space.conj().T @ qse_state.amplitudes
    norm = np.linalg.norm(coords)
    weight = float((norm / np.linalg.norm(qse_state.amplitudes)) ** 2)
    if weight < 1.0 - 1e-8:
        raise PipelineError(
            f"at h_z = {hz} the QSE ground state keeps {weight:.10f} of its weight in the "
            f"{decomp.ground_degeneracy}-fold degenerate ED ground space, below 1 - 1e-8"
        )
    return space @ (coords / norm)


def _hoa_tau(config: RunConfig, h: PauliSum) -> float | None:
    """The HOA step of a ground-state assembly under h, hoa_tau_scale / kappa(h), or None
    when ``qse.assembly_mode`` applies H directly."""
    return config.qse.hoa_tau_scale / gershgorin_kappa(h) if config.qse.assembly_mode == "hoa" else None


def _field_engine(config: RunConfig, reference: StateVector, h: PauliSum) -> GreensEngine:
    """The QSE ground state under h, solved as the qse stage configures it, and the Green's-function
    engine on it. One V(t) serves the ground-state basis and, when gf shares qse's mode and step
    count, every Krylov seed."""
    evolution = EvolutionOperator(h, config.qse.evolution_mode, config.qse.trotter_steps)
    gs, basis, _ = qse.prepare_qse_ground_state(
        reference, h, config.qse.n_k, config.qse.n_l, evolution=evolution, hoa_tau=_hoa_tau(config, h)
    )
    krylov = KrylovBasisConfig(
        tilde_n_k=config.gf.tilde_n_k,
        tilde_n_l=config.gf.tilde_n_l,
        evolution_mode=config.gf.evolution_mode,
        trotter_steps=config.gf.trotter_steps,
    )
    return GreensEngine(h, gs, basis, krylov)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_vqe(config: RunConfig, out_dir: Path) -> None:
    echo = _recorded_config(config)
    lat, h0, _ = _model(config)
    problem = vqe.SectorProblem.build(lat, h0)  # depth-independent: one sector problem serves every depth

    def train(layers: int) -> vqe.VqeResult:
        # training is deterministic in (layers, seed)
        _, result, _ = vqe.prepare_reference_state(
            lat, h0, layers=layers, epochs=config.vqe.epochs, seed=config.seed, problem=problem,
        )
        return result

    trained = {d: train(d) for d in dict.fromkeys(config.vqe.layer_sweep)}
    sweep_rows = [
        [d, trained[d].infidelity, trained[d].energy_distance, trained[d].stop_epoch, trained[d].stop_reason]
        for d in config.vqe.layer_sweep
    ]
    header = ["d", "infidelity", "delta_e", "stop_epoch", "stop_reason"]
    write_csv(out_dir / "vqe_layer_sweep.csv", echo, header, sweep_rows)

    layers = config.vqe.layers
    result = trained[layers] if layers in trained else train(layers)
    if not result.converged:  # a reference short of the ground state would reach QSE silently
        reached = [d for d in sorted(trained) if trained[d].converged]
        raise PipelineError(
            f"vqe depth {layers} stops at dE = {result.energy_distance:.3e}, above 1e-8; "
            + (f"the shallowest swept depth that reaches it is {reached[0]}" if reached
               else "no swept depth reaches it")
        )
    payload = result.to_json_dict()
    payload["layers"] = layers
    write_json(out_dir / "vqe_result.json", echo, payload)
    print(f"vqe: dE={result.energy_distance:.3e} infidelity={result.infidelity:.3e} "
          f"sector={result.sector_targets}")


def cmd_qse(config: RunConfig, out_dir: Path) -> None:
    echo = _recorded_config(config)
    lat, _, h = _model(config)
    reference = _vqe_reference(lat, out_dir, config)

    exact_energy = oracle.diagonalize(h).ground_energy
    kappa = gershgorin_kappa(h)
    delta_t = qse.default_time_step(h)

    # one basis per (mode, r, n_k), at the largest n_l of both sweeps and the final
    # solve, serves all three; each smaller n_l is a nested block of it
    mode, steps, pair = config.qse.evolution_mode, config.qse.trotter_steps, (config.qse.n_l, config.qse.n_k)
    shape_sweep = qse.sweep_shapes(config.qse.shape_sweep, mode, [steps])
    trotter_sweep = qse.sweep_shapes([pair], "trotter2", config.qse.trotter_sweep)
    (final,) = qse.sweep_shapes([pair], mode, [steps])
    subspaces = qse.deepest_subspaces(reference, h, [*shape_sweep, *trotter_sweep, final])
    shape_rows = qse.qse_energy_curve(subspaces, shape_sweep, exact_energy)
    trotter_rows = qse.qse_energy_curve(subspaces, trotter_sweep, exact_energy)
    header = ["n_l", "n_k", "n_phi", "r", "mode", "energy", "delta_e"]
    for name, rows in (("qse_shape_sweep.csv", shape_rows), ("qse_trotter_sweep.csv", trotter_rows)):
        write_csv(
            out_dir / name, echo, header, [[r[key] for key in header] for r in rows],
            {"kappa": kappa, "delta_t": delta_t, "exact_energy": exact_energy},
        )

    basis, mats = qse.nested_subspace(*subspaces[final[:3]], final[3])
    tau = _hoa_tau(config, h)
    if tau is not None:
        mats = qse.assemble_matrices(basis, tau)
    gs = qse.solve_ground_state(mats)
    write_json(out_dir / "qse_matrices.json", echo, mats.to_json_dict())
    payload = {
        "energy": gs.energy,
        "exact_energy": exact_energy,
        "delta_e": abs(gs.energy - exact_energy),
        # signed: below 0 the QSE energy undercuts E0, against the variational bound
        "energy_minus_exact": gs.energy - exact_energy,
        "coefficients_re": [float(c.real) for c in gs.coefficients],
        "coefficients_im": [float(c.imag) for c in gs.coefficients],
        "n_k": config.qse.n_k,
        "n_l": config.qse.n_l,
        "delta_t": basis.delta_t,
        "kappa": kappa,
        "evolution_mode": config.qse.evolution_mode,
        "trotter_steps": config.qse.trotter_steps,
        "assembly_mode": mats.assembly_mode,
        "regularization": gs.regularization_report,
        # the energy change from the (n_k, n_l - 1) block of these matrices: how far the shape moved it
        "nested_energy_change": qse.nested_energy_change(basis, mats, gs),
    }
    write_json(out_dir / "qse_ground_state.json", echo, payload)
    print(f"qse: E={gs.energy:.12f} dE={abs(gs.energy - exact_energy):.3e} "
          f"(mode={config.qse.evolution_mode})")


def cmd_greens(config: RunConfig, out_dir: Path) -> None:
    echo = _recorded_config(config)
    lat, _, h = _model(config)
    engine = _field_engine(config, _vqe_reference(lat, out_dir, config), h)
    site_a, site_b = (s - 1 for s in config.gf.site_pair)
    omega = config.gf.omega_grid()
    delta = config.gf.delta
    z = omega + 1j * delta
    decomp = oracle.diagonalize(h)
    ground_vector = _ed_ground_vector(decomp, engine.ground_state(), config.field_z)

    for kind in config.gf.kinds:
        gf_qse = greens.retarded_gf(engine, site_a, site_b, kind, omega, delta)
        c_a = single_site(kind, site_a, lat.num_sites)
        c_b = single_site(kind, site_b, lat.num_sites)
        gf_ed = oracle.exact_resolvent_gf(decomp, c_a, c_b, z, ground_vector)
        suffix = kind.lower()
        write_csv(
            out_dir / f"gf_curve_{suffix}.csv", echo,
            ["omega", "re_qse", "im_qse", "re_ed", "im_ed"],
            [
                [float(w), float(v.real), float(v.imag), float(e.real), float(e.imag)]
                for w, v, e in zip(omega, gf_qse, gf_ed)
            ],
            {"site_pair": config.gf.site_pair, "kind": kind, "delta": delta},
        )
        sf_qse, sf_ed = -np.imag(gf_qse) / np.pi, -np.imag(gf_ed) / np.pi
        write_csv(
            out_dir / f"sf_curve_{suffix}.csv", echo,
            ["omega", "sf_qse", "sf_ed"],
            [[float(w), float(a), float(b)] for w, a, b in zip(omega, sf_qse, sf_ed)],
            {"site_pair": config.gf.site_pair, "kind": kind, "delta": delta},
        )
        # absolute: G_ab^ED of a kind can vanish by symmetry, so no ratio to it
        dev = np.max(np.abs(gf_qse - gf_ed))
        print(f"greens[{kind}]: max |G_qse - G_ed| = {dev:.3e}")

        # tridiagonal coefficients of the pair seed behind G_ab, with the S rank that bounds their
        # depth, an audit record that no curve reads; the hole part is the same recursion with a -> -a
        coeffs, _ = engine.recursion(greens.pair_excitation(kind, site_a, site_b, lat.num_sites))
        write_json(out_dir / f"lanczos_greater_{suffix}.json", echo, coeffs.to_json_dict())
        write_json(out_dir / f"lanczos_lesser_{suffix}.json", echo, coeffs.hole().to_json_dict())


def cmd_dsf(config: RunConfig, out_dir: Path) -> None:
    echo = _recorded_config(config)
    lat, _, _ = _model(config)
    reference = _vqe_reference(lat, out_dir, config)
    omega = config.dsf.omega_grid()
    delta = config.dsf.delta
    q = np.asarray(config.dsf.q, dtype=float)

    def one_field(hz: float):
        h = lattice_mod.kitaev_hamiltonian(lat, config.coupling, hz)
        engine = _field_engine(config, reference, h)
        s_qse = greens.dynamical_structure_factor(engine, lat.positions, q, omega, delta)
        decomp = oracle.diagonalize(h)
        s_ed = greens.dynamical_structure_factor_ed(
            decomp, lat.num_sites, omega, delta, positions=lat.positions, q=q,
            ground_vector=_ed_ground_vector(decomp, engine.ground_state(), hz),
        )
        return s_qse, s_ed

    results = _map_tasks(one_field, list(config.dsf.h_values), config.threads)
    table_qse = greens.normalize_intensity(np.array([r[0] for r in results]))
    table_ed = greens.normalize_intensity(np.array([r[1] for r in results]))

    # each field and frequency is rendered once, as write_csv's str(float) would render it
    fields, frequencies = [str(float(hz)) for hz in config.dsf.h_values], [str(w) for w in omega.tolist()]
    for name, table in (("dsf_qse.csv", table_qse), ("dsf_ed.csv", table_ed)):
        rows = [[hz, w, value] for hz, line in zip(fields, table.tolist()) for w, value in zip(frequencies, line)]
        write_csv(
            out_dir / name, echo, ["h_z", "omega", "s_normalized"], rows,
            {"delta": delta, "q": list(config.dsf.q)},
        )
    print(f"dsf: max |QSE - ED| of normalized tables = {np.max(np.abs(table_qse - table_ed)):.4f}")


def fixture_entry(label: str, h: PauliSum, decomp: SpectralDecomposition) -> dict:
    """One row of ed_reference.json: a Hamiltonian's size, ED ground level, the symmetry
    layout of its factorization and the factorization's completeness certificate."""
    blocks, size, _ = decomp.block_vectors.shape
    tapered = len(decomp.frame.generators)
    return {
        "label": label,
        "num_sites": h.num_sites,
        "num_terms": len(h),
        "ground_energy": decomp.ground_energy,
        "ground_degeneracy": decomp.ground_degeneracy,
        "symmetry": {
            "tapered_generators": tapered,
            "z_syndrome_generators": (blocks >> tapered).bit_length() - 1,
            "blocks": blocks,
            "block_size": size,
        },
        "completeness": oracle.completeness_certificate(h, decomp),
    }


def cmd_ed_reference(config: RunConfig, out_dir: Path) -> None:
    echo = _recorded_config(config)
    lat, h0, h = _model(config)
    decomp = oracle.diagonalize(h)  # first: with a field, h is the one the dense cap refuses
    entries = [
        fixture_entry(f"h0_j{config.coupling}", h0, oracle.diagonalize(h0)),
        fixture_entry(f"h_j{config.coupling}_hz{config.field_z}", h, decomp),
    ]
    write_json(out_dir / "lattice_fixture.json", echo, lat.to_fixture_dict())
    write_json(out_dir / "ed_reference.json", echo, {"entries": entries})
    failed = [e["label"] for e in entries if not e["completeness"]["holds"]]
    if failed:
        raise PipelineError(f"the factorization of {', '.join(failed)} fails its completeness certificate")
    for e in entries:
        print(f"ed-reference[{e['label']}]: E0={e['ground_energy']:.12f} "
              f"degeneracy={e['ground_degeneracy']}")


_COMMANDS = {
    "vqe": cmd_vqe,
    "qse": cmd_qse,
    "greens": cmd_greens,
    "dsf": cmd_dsf,
    "ed-reference": cmd_ed_reference,
}


def cmd_all(config: RunConfig, out_dir: Path) -> None:
    for name in ("ed-reference", "vqe", "qse", "greens", "dsf"):
        _COMMANDS[name](config, out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitaevqse",
        description="Honeycomb Kitaev model: VQE + subspace-expansion pipeline",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "all"])
    parser.add_argument("--config", type=Path, default=None, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None, help="worker cap for parallel stages")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, threads=args.threads, output_dir=args.out)
        out_dir = Path(config.output_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PipelineError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc
        if args.command == "all":
            cmd_all(config, out_dir)
        else:
            _COMMANDS[args.command](config, out_dir)
    except _EXIT_2_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
