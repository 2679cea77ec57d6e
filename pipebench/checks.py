"""Per-stage checks of the pipeline's artifacts.

Every check compares an artifact with the scipy reference in
``reference.py`` or with a property of the method (variational bound, nested
bases, sum rule), never with a stored copy of earlier output. A check passes
when its observed value is at most its bound. A stage whose artifacts fail a
check counts as failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Tolerances. Criteria numbers refer to the acceptance suite in tests/.
ENERGY_TOL = 1e-8  # ED energies and the VQE energy (criterion 1)
INFIDELITY_TOL = 1e-8  # criterion 1
VARIATIONAL_TOL = 1e-9  # E_QSE >= E0 wherever H is assembled directly
CRITERION_3A_TOL = 1e-10  # exact-mode QSE at N=8
NESTED_TOL = 1e-9  # shape-sweep energies do not rise with n_l at fixed n_k
TROTTER_BAND = 1.1  # criterion 4: dE(r) <= 1.1 dE(r-1) + 1e-12
TROTTER_FLOOR = 1e-12
HOA_BIAS_FACTOR = 2.0  # |E_HOA - E0| <= 2 |E0 - sin(tau E0)/tau|
ED_GF_TOL = 1e-8  # the package's ED columns against the reference
GF_TOL = {"exact": 0.05, "trotter2": 0.10}  # criterion 6
DSF_ED_TOL = 1e-8
DSF_POINTWISE_TOL = 0.15  # criterion 7
DSF_RIDGE_TOL = 1  # criterion 7, in omega cells
SPAN_TOL = 1e-12


@dataclass
class Outcome:
    stage: str
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.bound)


class CheckError(RuntimeError):
    """An artifact is missing or malformed."""


def read_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """(metadata, header, rows) of a '#'-headed CSV; text cells stay strings."""
    if not path.exists():
        raise CheckError(f"missing artifact {path.name}")
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            body.append(line.split(","))
    return meta, body[0], np.array(body[1:], dtype=object)


def column(header: list[str], rows: np.ndarray, name: str) -> np.ndarray:
    return rows[:, header.index(name)].astype(float)


def read_json(path: Path) -> dict:
    if not path.exists():
        raise CheckError(f"missing artifact {path.name}")
    return json.loads(path.read_text())


def omega_grid(section) -> np.ndarray:
    return np.arange(section.omega_min, section.omega_max + 0.5 * section.omega_step, section.omega_step)


class Checker:
    """Holds one run's configuration and its scipy reference."""

    def __init__(self, run_config, fixture: dict):
        self.config = run_config
        self.fixture = fixture
        self.n = int(fixture["num_sites"])
        self.h0 = ref.hamiltonian(fixture, run_config.coupling, 0.0)
        self.h = ref.hamiltonian(fixture, run_config.coupling, run_config.field_z)
        self.zero = ref.ground_space(self.h0, self.n)
        self.field = ref.ground_space(self.h, self.n)
        self.sectors = ref.ParitySectors(self.h)
        self._dsf_reference = None

    # -- ed-reference ------------------------------------------------------

    def geometry_faults(self) -> int:
        f, lat = self.fixture, self.config.lattice
        faults = int(f["num_sites"] != 2 * lat.rows * lat.cols)
        faults += int((f["rows"], f["cols"]) != (lat.rows, lat.cols))
        for kind in "xyz":
            bonds = f[f"bonds_{kind}"]
            faults += int(len(bonds) != self.n // 2)
            touched = sorted(s for bond in bonds for s in bond)
            faults += int(touched != list(range(self.n)))
        return faults

    def ed_reference(self, out: Path) -> list[Outcome]:
        entries = read_json(out / "ed_reference.json")["entries"]
        zero, field = entries
        if not (zero["label"].startswith("h0_") and field["label"].startswith("h_")):
            raise CheckError("ed_reference.json entries are not (zero field, field)")
        return [
            Outcome("ed-reference", "lattice_geometry_faults", self.geometry_faults(), 0),
            Outcome("ed-reference", "e0_zero_field", abs(zero["ground_energy"] - self.zero.energy), ENERGY_TOL),
            Outcome("ed-reference", "degeneracy_zero_field",
                    abs(zero["ground_degeneracy"] - self.zero.degeneracy), 0),
            Outcome("ed-reference", "e0_field", abs(field["ground_energy"] - self.field.energy), ENERGY_TOL),
            Outcome("ed-reference", "degeneracy_field",
                    abs(field["ground_degeneracy"] - self.field.degeneracy), 0),
        ]

    # -- vqe -----------------------------------------------------------------

    def vqe(self, out: Path) -> list[Outcome]:
        from kitaevqse import lattice, vqe

        art = read_json(out / "vqe_result.json")
        lat = lattice.build_lattice(self.config.lattice.rows, self.config.lattice.cols)
        targets = art["sector_targets"]
        n_plaq = len(lat.plaquettes)
        group = lattice.stabilizer_group(lat, targets[:n_plaq], tuple(targets[n_plaq:]))
        state = vqe.prepare_sector_state(group, lat)
        ansatz = vqe.AnsatzCircuit.for_lattice(lat, art["layers"])
        if ansatz.num_parameters:
            state = ansatz.apply(np.asarray(art["optimal_parameters"], dtype=float), state)
        psi = state.amplitudes / np.linalg.norm(state.amplitudes)
        energy = float(np.real(np.vdot(psi, self.h0 @ psi)))
        overlap = self.zero.vectors.conj().T @ psi
        infidelity = 1.0 - float(np.real(np.vdot(overlap, overlap)))

        _, header, rows = read_csv(out / "vqe_layer_sweep.csv")
        depths = column(header, rows, "d").astype(int).tolist()
        values = np.column_stack([column(header, rows, "infidelity"), column(header, rows, "delta_e")])
        bad_rows = int(depths != list(self.config.vqe.layer_sweep))
        bad_rows += int(np.sum(~np.isfinite(values) | (values < -1e-12) | (values[:, :1] > 1.0 + 1e-12)))
        return [
            Outcome("vqe", "energy_minus_e0", abs(energy - self.zero.energy), ENERGY_TOL),
            Outcome("vqe", "infidelity", infidelity, INFIDELITY_TOL),
            Outcome("vqe", "reported_energy", abs(art["final_energy"] - energy), ENERGY_TOL),
            Outcome("vqe", "layer_sweep_bad_rows", bad_rows, 0),
        ]

    # -- qse -----------------------------------------------------------------

    def kappa(self) -> float:
        j = np.broadcast_to(np.abs(np.asarray(self.config.coupling, dtype=float)), (3,))
        return 2.0 * (float(np.sum(j)) * self.n / 2 + self.n * abs(self.config.field_z))

    def hoa_tolerance(self) -> float:
        tau = self.config.qse.hoa_tau_scale / self.kappa()
        e0 = self.field.energy
        return HOA_BIAS_FACTOR * abs(e0 - np.sin(tau * e0) / tau)

    def qse(self, out: Path) -> list[Outcome]:
        e0 = self.field.energy
        qcfg = self.config.qse
        gs = read_json(out / "qse_ground_state.json")
        found = [Outcome("qse", "exact_energy_field", abs(gs["exact_energy"] - e0), ENERGY_TOL)]
        if gs["assembly_mode"] == "exact":
            found.append(Outcome("qse", "variational_violation", e0 - gs["energy"], VARIATIONAL_TOL))
            if self.n <= 8 and gs["evolution_mode"] == "exact":
                found.append(Outcome("qse", "criterion_3a_delta_e", abs(gs["energy"] - e0), CRITERION_3A_TOL))
        else:
            found.append(Outcome("qse", "hoa_delta_e", abs(gs["energy"] - e0), self.hoa_tolerance()))

        meta, header, rows = read_csv(out / "qse_shape_sweep.csv")
        n_l, n_k = column(header, rows, "n_l"), column(header, rows, "n_k")
        energy = column(header, rows, "energy")
        rises = [
            energy[j] - energy[i]
            for i in range(len(energy)) for j in range(len(energy))
            if n_k[i] == n_k[j] and n_l[j] == n_l[i] + 1
        ]
        found += [
            Outcome("qse", "shape_sweep_rows_missing", len(qcfg.shape_sweep) - len(energy), 0),
            Outcome("qse", "shape_sweep_variational_violation", float(np.max(e0 - energy)), VARIATIONAL_TOL),
            Outcome("qse", "shape_sweep_nested_rise", max(rises) if rises else 0.0, NESTED_TOL),
            Outcome("qse", "shape_sweep_delta_e_column",
                    float(np.max(np.abs(column(header, rows, "delta_e") - np.abs(energy - e0)))), ENERGY_TOL),
            Outcome("qse", "shape_sweep_exact_energy", abs(float(meta["exact_energy"]) - e0), ENERGY_TOL),
        ]

        _, header, rows = read_csv(out / "qse_trotter_sweep.csv")
        r = column(header, rows, "r")
        energy = column(header, rows, "energy")
        found += [
            Outcome("qse", "trotter_sweep_rows_missing", abs(len(qcfg.trotter_sweep) - len(energy)), 0),
            Outcome("qse", "trotter_sweep_variational_violation", float(np.max(e0 - energy)), VARIATIONAL_TOL),
        ]
        if self.n >= 12:
            found += trotter_band(r, energy - e0)
        return found

    # -- greens --------------------------------------------------------------

    def greens(self, out: Path) -> list[Outcome]:
        g = self.config.gf
        omega = omega_grid(g)
        z = omega + 1j * g.delta
        a, b = (s - 1 for s in g.site_pair)
        mode = "trotter2" if "trotter2" in (g.evolution_mode, self.config.qse.evolution_mode) else "exact"
        found = []
        for kind in g.kinds:
            suffix = kind.lower()
            _, header, rows = read_csv(out / f"gf_curve_{suffix}.csv")
            grid = column(header, rows, "omega")
            if grid.shape != omega.shape:
                raise CheckError(f"gf_curve_{suffix}.csv has {grid.size} rows, expected {omega.size}")
            g_ref = ref.retarded_gf(
                self.sectors, self.field, ref.site_operator(kind, a, self.n), ref.site_operator(kind, b, self.n), z
            )
            g_ed = column(header, rows, "re_ed") + 1j * column(header, rows, "im_ed")
            g_qse = column(header, rows, "re_qse") + 1j * column(header, rows, "im_qse")
            found += [
                Outcome("greens", f"{suffix}.omega_grid", float(np.max(np.abs(grid - omega))), 1e-9),
                Outcome("greens", f"{suffix}.ed_columns",
                        float(np.max(np.abs(g_ed - g_ref)) / np.max(np.abs(g_ref))), ED_GF_TOL),
            ]
            if self.n <= 8:
                found += criterion_6(suffix, g_qse, g_ref, GF_TOL[mode])
            else:
                found.append(sum_rule(suffix, omega, g_qse, g_ref, GF_TOL[mode]))

            _, header, rows = read_csv(out / f"sf_curve_{suffix}.csv")
            sf_dev = np.max(np.abs(column(header, rows, "sf_qse") + g_qse.imag / np.pi))
            sf_dev = max(sf_dev, np.max(np.abs(column(header, rows, "sf_ed") + g_ref.imag / np.pi)))
            found.append(Outcome("greens", f"{suffix}.sf_curve", float(sf_dev), 1e-9))

            bad = 0
            for tag in ("greater", "lesser"):
                dump = read_json(out / f"lanczos_{tag}_{suffix}.json")
                coeffs = np.array([dump["a"], dump["b"]], dtype=float)
                bad += int(not np.all(np.isfinite(coeffs)) or dump["b"][0] != 0.0
                           or dump["termination_index"] != len(dump["a"]))
            found.append(Outcome("greens", f"{suffix}.lanczos_dump_faults", bad, 0))
        return found

    # -- dsf -----------------------------------------------------------------

    def dsf_reference(self) -> np.ndarray:
        if self._dsf_reference is None:
            d = self.config.dsf
            if any(float(x) != 0.0 for x in d.q):
                raise CheckError("the DSF reference covers q = 0 only")
            rows = []
            for hz in d.h_values:
                h = ref.hamiltonian(self.fixture, self.config.coupling, hz)
                rows.append(ref.structure_factor_q0(h, ref.ground_space(h, self.n), self.n, omega_grid(d), d.delta))
            self._dsf_reference = ref.normalize(np.array(rows))
        return self._dsf_reference

    def dsf(self, out: Path) -> list[Outcome]:
        d = self.config.dsf
        omega = omega_grid(d)
        expected = np.array([(float(hz), w) for hz in d.h_values for w in omega])
        table_ref = self.dsf_reference()
        tables = {}
        for name in ("qse", "ed"):
            _, header, rows = read_csv(out / f"dsf_{name}.csv")
            grid = np.column_stack([column(header, rows, "h_z"), column(header, rows, "omega")])
            if grid.shape != expected.shape:
                raise CheckError(f"dsf_{name}.csv has {len(grid)} rows, expected {len(expected)}")
            if np.max(np.abs(grid - expected)) > 1e-9:
                raise CheckError(f"dsf_{name}.csv rows are not the (h_z, omega) grid")
            tables[name] = column(header, rows, "s_normalized").reshape(len(d.h_values), omega.size)
        found = [
            Outcome("dsf", f"{name}_span", max(abs(t.min()), abs(t.max() - 1.0)), SPAN_TOL)
            for name, t in tables.items()
        ]
        found.append(Outcome("dsf", "ed_table", float(np.max(np.abs(tables["ed"] - table_ref))), DSF_ED_TOL))
        found += criterion_7(tables["qse"], table_ref)
        return found

    def check(self, stage: str, out: Path) -> list[Outcome]:
        method = {"ed-reference": self.ed_reference, "vqe": self.vqe, "qse": self.qse,
                  "greens": self.greens, "dsf": self.dsf}[stage]
        try:
            return method(out)
        except (CheckError, KeyError, ValueError, IndexError) as exc:
            return [Outcome(stage, f"artifact_error: {exc}", float("inf"), 0)]


def trotter_band(r: np.ndarray, delta_e: np.ndarray) -> list[Outcome]:
    """Criterion 4: dE falls with r, each step within a 10% band."""
    order = np.argsort(r)
    de = np.abs(delta_e[order])
    excess = de[1:] - (TROTTER_BAND * de[:-1] + TROTTER_FLOOR)
    return [
        Outcome("qse", "criterion_4_band_excess", float(np.max(excess)) if excess.size else 0.0, 0.0),
        Outcome("qse", "criterion_4_last_over_first", float(de[-1] / de[0]), 1.0 - 1e-12),
    ]


def criterion_6(suffix: str, g_qse: np.ndarray, g_ref: np.ndarray, tol: float) -> list[Outcome]:
    re_dev = np.max(np.abs(g_qse.real - g_ref.real)) / np.max(np.abs(g_ref.real))
    sf_dev = np.max(np.abs(g_qse.imag - g_ref.imag)) / np.max(np.abs(g_ref.imag))
    return [
        Outcome("greens", f"{suffix}.criterion_6_re", float(re_dev), tol),
        Outcome("greens", f"{suffix}.criterion_6_sf", float(sf_dev), tol),
    ]


def sum_rule(suffix: str, omega: np.ndarray, g_qse: np.ndarray, g_ref: np.ndarray, tol: float) -> Outcome:
    """Zeroth moment of -Im G / pi on the omega window, QSE against the reference."""
    w_qse = np.trapezoid(-g_qse.imag / np.pi, omega)
    w_ref = np.trapezoid(-g_ref.imag / np.pi, omega)
    return Outcome("greens", f"{suffix}.sum_rule", float(abs(w_qse - w_ref) / abs(w_ref)), tol)


def criterion_7(table_qse: np.ndarray, table_ref: np.ndarray) -> list[Outcome]:
    ridge = np.abs(np.argmin(table_qse, axis=1) - np.argmin(table_ref, axis=1))
    return [
        Outcome("dsf", "criterion_7_pointwise", float(np.max(np.abs(table_qse - table_ref))), DSF_POINTWISE_TOL),
        Outcome("dsf", "criterion_7_ridge_offset", int(np.max(ridge)), DSF_RIDGE_TOL),
    ]
