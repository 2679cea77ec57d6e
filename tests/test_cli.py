import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import artifact_diff
import kitaevqse
from kitaevqse import cli, greens, lattice, oracle, qse, simulator, vqe
from kitaevqse.cli import fixture_entry, main
from kitaevqse.config import ConfigError, RunConfig, config_from_dict, load_config
from kitaevqse.greens import GreensEngine
from kitaevqse.pauli import apply_sum, apply_term, gershgorin_kappa, single_site
from kitaevqse.simulator import EvolutionOperator, StateVector

from helpers import basis_size

FAST_CONFIG = {
    "lattice": {"rows": 2, "cols": 2},
    "coupling": -1.0,
    "field_z": 0.1,
    "seed": 1,
    "vqe": {"layers": 1, "epochs": 400, "layer_sweep": [0, 1]},
    "qse": {"n_k": 2, "n_l": 2, "shape_sweep": [[0, 0], [1, 1]], "trotter_sweep": [1, 2]},
    "gf": {"omega_min": -8.0, "omega_max": 8.0, "omega_step": 0.5},
    "dsf": {"h_values": [0.0, 0.1], "omega_min": -8.0, "omega_max": 8.0, "omega_step": 0.5},
}


STAGES = ("ed-reference", "vqe", "qse", "greens", "dsf")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """FAST_CONFIG with every stage run in order into ``out``, so each test
    that reads the artifacts also runs alone."""
    path = tmp_path_factory.mktemp("cli")
    config_path = path / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG))
    for stage in STAGES:
        run(stage, (path, config_path))
    return path, config_path


def data_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def run(command, workdir, extra=()):
    path, config_path = workdir
    rc = main([command, "--config", str(config_path), "--out", str(path / "out"), *extra])
    assert rc == 0
    return path / "out"


class TestConfigValidation:
    def test_defaults_load(self):
        cfg = config_from_dict({})
        assert cfg == RunConfig()
        assert cfg.lattice.num_sites == 8
        assert cfg.qse.n_k == 3

    def test_json_round_trip(self):
        cfg = config_from_dict({
            **FAST_CONFIG,
            "coupling": [-1.0, -0.5, 0.25],
            "gf": {"site_pair": [2, 5], "kinds": ["X", "Z"], "evolution_mode": "trotter2"},
            "dsf": {"h_values": [0.2], "q": [1.0, 0.5]},
        })
        assert cfg != RunConfig()
        assert config_from_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg

    def test_unknown_key_path(self):
        with pytest.raises(ConfigError, match=r"\$\.bogus"):
            config_from_dict({"bogus": 1})

    @pytest.mark.parametrize("raw, path", [
        ({"lattice": {"row": 3}}, r"\$\.lattice\.row"),
        ({"vqe": {"epoch": 20}}, r"\$\.vqe\.epoch"),
        ({"qse": {"nk": 2}}, r"\$\.qse\.nk"),
        ({"gf": {"detla": 0.2}}, r"\$\.gf\.detla"),
        ({"dsf": {"h_value": [0.0]}}, r"\$\.dsf\.h_value"),
        # the VQE has no step size: an old config that sets one fails instead of being ignored
        ({"vqe": {"learning_rate": 0.1}}, r"\$\.vqe\.learning_rate"),
    ])
    def test_unknown_section_key_path(self, raw, path):
        with pytest.raises(ConfigError, match=path + ": unknown configuration key"):
            config_from_dict(raw)

    def test_nested_error_path(self):
        with pytest.raises(ConfigError, match=r"\$\.qse\.n_k"):
            config_from_dict({"qse": {"n_k": -1}})

    def test_site_pair_bounds(self):
        with pytest.raises(ConfigError, match=r"\$\.gf\.site_pair"):
            config_from_dict({"gf": {"site_pair": [1, 9]}})

    def test_site_pair_must_differ(self):
        with pytest.raises(ConfigError, match="sites must differ"):
            config_from_dict({"gf": {"site_pair": [2, 2]}})

    def test_empty_kind_set_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.gf\.kinds"):
            config_from_dict({"gf": {"kinds": []}})

    def test_bad_evolution_mode(self):
        with pytest.raises(ConfigError, match=r"\$\.qse\.evolution_mode"):
            config_from_dict({"qse": {"evolution_mode": "suzuki4"}})

    def test_bad_coupling_list(self):
        with pytest.raises(ConfigError, match=r"\$\.coupling"):
            config_from_dict({"coupling": [1.0, 2.0]})

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lattice": \n  oops}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_empty_h_grid_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.dsf\.h_values"):
            config_from_dict({"dsf": {"h_values": []}})

    def test_single_row_lattice_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.lattice\.rows"):
            config_from_dict({"lattice": {"rows": 1}})

    @pytest.mark.parametrize("raw, path", [
        ({"dsf": {"omega_min": 2.0, "omega_max": -2.0}}, "$.dsf.omega_max"),
        ({"gf": {"omega_min": 2.0, "omega_max": 2.0}}, "$.gf.omega_max"),
        ({"dsf": {"q": ["a", 0]}}, "$.dsf.q[0]"),
        ({"dsf": {"q": [0.0]}}, "$.dsf.q"),
        ({"qse": {"shape_sweep": [3]}}, "$.qse.shape_sweep[0]"),
        ({"qse": {"shape_sweep": [[1, 2, 3]]}}, "$.qse.shape_sweep[0]"),
        ({"gf": {"site_pair": 5}}, "$.gf.site_pair"),
        ({"gf": {"site_pair": [True, 2]}}, "$.gf.site_pair[0]"),
        ({"field_z": True}, "$.field_z"),
        ({"dsf": {"h_values": [True]}}, "$.dsf.h_values[0]"),
        ({"coupling": [-1, -1, True]}, "$.coupling[2]"),
        ({"vqe": {"layer_sweep": [True]}}, "$.vqe.layer_sweep[0]"),
        ({"gf": {"omega_max": float("inf")}}, "$.gf.omega_max"),
        ({"seed": -3}, "$.seed"),
        ({"threads": 0}, "$.threads"),
        ({"qse": {"assembly_mode": "hoa", "hoa_tau_scale": 2}}, "$.qse.hoa_tau_scale"),
        ({"qse": {"assembly_mode": "hoa", "hoa_tau_scale": 1.0}}, "$.qse.hoa_tau_scale"),
        ({"qse": {"assembly_mode": "hoa", "hoa_tau_scale": 0}}, "$.qse.hoa_tau_scale"),
        ({"dsf": {"omega_step": 0.002}}, "$.dsf.omega_step"),  # 10001 points, one over the cap
        # a bond color with |J| <= pauli.MERGE_TOL is pruned from the Hamiltonian: switched off
        ({"coupling": [-1, -1, 0]}, "$.coupling"),
        ({"coupling": [-1, 1e-15, -1]}, "$.coupling"),
        ({"coupling": [-1, -1, -1e-14]}, "$.coupling"),
        ({"coupling": -1e-20}, "$.coupling"),
        ({"coupling": 0}, "$.coupling"),
    ])
    def test_malformed_value_path(self, raw, path):
        with pytest.raises(ConfigError, match="^" + re.escape(path) + ": "):
            config_from_dict(raw)

    @pytest.mark.parametrize("qse_cfg", [
        {"assembly_mode": "exact", "hoa_tau_scale": 0},
        {"assembly_mode": "exact", "hoa_tau_scale": 2.5},
        {"assembly_mode": "hoa", "hoa_tau_scale": 0.5},
    ])
    def test_tau_scale_range_applies_to_hoa_only(self, qse_cfg):
        assert config_from_dict({"qse": qse_cfg}).qse.hoa_tau_scale == qse_cfg["hoa_tau_scale"]

    def test_load_config_merges_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 4, "threads": 2}))
        cfg = load_config(path, seed=None, threads=3, output_dir="elsewhere")
        assert (cfg.seed, cfg.threads, cfg.output_dir) == (4, 3, "elsewhere")
        with pytest.raises(ConfigError, match=r"^\$\.threads: "):
            load_config(path, threads=0)


class TestPipeline:
    def test_stage_order_enforced(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        rc = main(["qse", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 2  # missing vqe artifact

    def test_full_chain(self, workdir):
        out = workdir[0] / "out"  # the fixture ran every stage with exit code 0
        expected = [
            "ed_reference.json", "lattice_fixture.json",
            "vqe_layer_sweep.csv", "vqe_result.json",
            "qse_shape_sweep.csv", "qse_trotter_sweep.csv",
            "qse_ground_state.json", "qse_matrices.json",
            "gf_curve_z.csv", "sf_curve_z.csv",
            "lanczos_greater_z.json", "lanczos_lesser_z.json",
            "dsf_qse.csv", "dsf_ed.csv",
        ]
        for name in expected:
            assert (out / name).exists(), name

    def test_qse_energy_deviation_keeps_its_sign(self, workdir):
        gs = json.loads((workdir[0] / "out" / "qse_ground_state.json").read_text())
        assert gs["energy_minus_exact"] == gs["energy"] - gs["exact_energy"]
        assert gs["delta_e"] == abs(gs["energy_minus_exact"])
        # statevector assembly is Rayleigh-Ritz: nothing below E0 beyond roundoff
        assert gs["energy_minus_exact"] >= -1e-10

    def test_qse_records_its_nested_energy_change(self, workdir, tmp_path):
        # the final (n_k, n_l) = (2, 2) solve against its (2, 1) block; at n_l = 0 nothing is nested
        path, _ = workdir
        gs = json.loads((path / "out" / "qse_ground_state.json").read_text())
        assert isinstance(gs["nested_energy_change"], float) and abs(gs["nested_energy_change"]) < 1e-3
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "flat.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "qse": {**FAST_CONFIG["qse"], "n_l": 0}}))
        assert main(["qse", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "qse_ground_state.json").read_text())["nested_energy_change"] is None

    def test_layer_sweep_contents(self, workdir):
        path, _ = workdir
        lines = [
            line for line in (path / "out" / "vqe_layer_sweep.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert lines[0] == "d,infidelity,delta_e,stop_epoch,stop_reason"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 1]
        assert float(rows[1][2]) < 1e-8  # d=1 converges
        # depth 0 has one evaluation and nothing to train; d=1 stops at the sector energy
        assert rows[0][3:] == ["1", "epochs"]
        result = json.loads((path / "out" / "vqe_result.json").read_text())
        assert rows[1][3:] == [str(result["stop_epoch"]), "target"]

    def test_ed_reference_records_layout_and_certificate(self, workdir):
        entries = json.loads((workdir[0] / "out" / "ed_reference.json").read_text())["entries"]
        # h0 is tapered by its 5 plaquette/loop generators; h keeps its two Z-syndromes, whose
        # blocks split on four site permutations, blocks (0, 1) and (1, 0) alike
        assert [e["symmetry"] for e in entries] == [
            {"tapered_generators": 5, "z_syndrome_generators": 0, "blocks": 32, "block_size": 8,
             "site_group_order": 1, "sub_block_sizes": [8] * 32},
            {"tapered_generators": 0, "z_syndrome_generators": 2, "blocks": 4, "block_size": 64,
             "site_group_order": 4, "sub_block_sizes": [28, 12, 12, 12] + [16] * 12},
        ]
        for entry in entries:
            certificate = entry["completeness"]
            assert certificate["holds"] is True
            assert certificate["block_dimension_sum"] == certificate["dimension"] == 256
            assert max(certificate["trace_deviation"], certificate["trace_square_deviation"]) <= 1e-10

    def test_vqe_records_the_global_sector_minimum(self, workdir):
        result = json.loads((workdir[0] / "out" / "vqe_result.json").read_text())
        winner = next(s for s in result["sector_energies"] if s["targets"] == result["sector_targets"])
        assert abs(result["global_sector_minimum"] - winner["energy"]) <= 1e-9

    def test_gf_curve_has_ed_reference_column(self, workdir):
        path, _ = workdir
        lines = [
            line for line in (path / "out" / "gf_curve_z.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert lines[0] == "omega,re_qse,im_qse,re_ed,im_ed"
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        scale = np.max(np.abs(data[:, 3]))
        assert np.max(np.abs(data[:, 1] - data[:, 3])) / scale < 0.05

    def test_dsf_normalized_to_unit_interval(self, workdir):
        path, _ = workdir
        for name in ("dsf_qse.csv", "dsf_ed.csv"):
            lines = [
                line for line in (path / "out" / name).read_text().splitlines()
                if not line.startswith("#")
            ]
            values = np.array([float(line.split(",")[2]) for line in lines[1:]])
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_lesser_dump_is_greater_with_a_negated(self, workdir):
        path, _ = workdir
        greater = json.loads((path / "out" / "lanczos_greater_z.json").read_text())
        lesser = json.loads((path / "out" / "lanczos_lesser_z.json").read_text())
        assert lesser["a"] == [-a for a in greater["a"]]
        assert lesser["b"] == greater["b"]
        assert lesser["termination_index"] == greater["termination_index"] == len(greater["a"])
        assert lesser["stop_reason"] == greater["stop_reason"] in ("b2_tol", "rank")
        assert lesser["s_rank"] == greater["s_rank"] >= greater["termination_index"]
        assert (greater["stop_reason"] == "rank") == (greater["termination_index"] == greater["s_rank"])

    def test_dumped_coefficients_give_the_pole_form_correlator(self, workdir, tmp_path, monkeypatch):
        # the dumps are audit records of the pair seed whose poles the curve sums: their continued
        # fractions, times the seed norm, give the same correlator
        path, config_path = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        engines = []
        build = cli._field_engine
        monkeypatch.setattr(cli, "_field_engine", lambda *args: engines.append(build(*args)) or engines[-1])
        assert main(["greens", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        (engine,) = engines
        config = config_from_dict(FAST_CONFIG)
        pair = greens.pair_excitation("Z", *(s - 1 for s in config.gf.site_pair), 8)
        (seed,) = engine.solved_seeds([pair])
        z = config.gf.omega_grid() + 1j * config.gf.delta
        fractions = []
        for tag in ("greater", "lesser"):
            dump = json.loads((tmp_path / f"lanczos_{tag}_z.json").read_text())
            coeffs = greens.LanczosCoefficients(dump["a"], dump["b"], dump["termination_index"])
            fractions.append(greens.continued_fraction(coeffs, z))
        from_dumps = seed.norm_sq * (fractions[0] + fractions[1])
        assert np.max(np.abs(engine.correlator(pair, z) - from_dumps)) <= 1e-10 * np.max(np.abs(from_dumps))

    @pytest.mark.parametrize("qse_config", [
        {},
        {"evolution_mode": "trotter2", "trotter_steps": 2, "assembly_mode": "hoa"},
    ])
    def test_greens_solves_the_recorded_qse_ground_state(self, workdir, tmp_path, monkeypatch, qse_config):
        # greens needs the VQE reference alone: it solves its field as dsf does, and reaches
        # the ground state that the qse stage records, bit for bit
        shutil.copy(workdir[0] / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "qse": {**FAST_CONFIG["qse"], **qse_config}}))
        engines = []
        build = cli._field_engine
        monkeypatch.setattr(cli, "_field_engine", lambda *args: engines.append(build(*args)) or engines[-1])
        for stage in ("greens", "qse"):
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 0
        (engine,) = engines
        recorded = json.loads((tmp_path / "qse_ground_state.json").read_text())
        assert engine.gs.energy == recorded["energy"]
        assert engine.gs.coefficients.real.tolist() == recorded["coefficients_re"]
        assert engine.gs.coefficients.imag.tolist() == recorded["coefficients_im"]

    def test_greens_builds_three_seed_subspaces_per_kind(self, workdir, tmp_path, monkeypatch):
        path, _ = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        calls = []
        original = GreensEngine.seed_subspaces

        def counting(self, excitations):
            calls.append([len(excitation) for excitation in excitations])
            return original(self, excitations)

        monkeypatch.setattr(GreensEngine, "seed_subspaces", counting)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "gf": {**FAST_CONFIG["gf"], "kinds": ["X", "Z"]}}))
        assert main(["greens", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        # per kind, one shared build: the pair seed, then each single site
        assert calls == [[2, 1, 1]] * 2

    def test_one_s_factorization_per_krylov_seed(self, workdir, tmp_path, monkeypatch):
        path, _ = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        calls = []
        original = qse.canonical_orthogonalization

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(qse, "canonical_orthogonalization", counting)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "gf": {**FAST_CONFIG["gf"], "kinds": ["X", "Z"]}}))
        counts = {}
        for stage in ("greens", "dsf"):
            calls.clear()
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 0
            counts[stage] = len(calls)
        # greens: the ground-state solve plus three seeds per kind, one pole solve each, which the
        # pair seed's coefficient dump shares; dsf, per field: the ground-state solve plus one
        # collective seed per Pauli kind
        assert counts["greens"] == 3 * 2 + 1
        assert counts["dsf"] == 4 * len(FAST_CONFIG["dsf"]["h_values"])

    def test_each_stage_factorizes_each_hamiltonian_once(self, tmp_path, monkeypatch):
        # fields no session fixture builds, so no factorization is cached beforehand
        config = {
            **FAST_CONFIG,
            "field_z": 0.13,
            "vqe": {**FAST_CONFIG["vqe"], "layer_sweep": [1]},
            "dsf": {**FAST_CONFIG["dsf"], "h_values": [0.17, 0.19]},
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        cli._model_of.cache_clear()
        built = []
        original = oracle._factorize_blocks
        monkeypatch.setattr(oracle, "_factorize_blocks", lambda h: built.append(h) or original(h))
        counts = {}
        for stage in ("vqe", "qse", "greens", "dsf"):
            built.clear()
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 0
            counts[stage] = len(built)
        # qse: ED energy and exact V(t) for one Hamiltonian; dsf: one per field
        assert counts["qse"] == 1
        assert counts["dsf"] == 2
        assert counts["greens"] == 0  # the process's model keeps the qse stage's Hamiltonian alive

    def test_all_factorizes_each_distinct_hamiltonian_once(self, tmp_path, monkeypatch):
        # the DSF fields include 0, which is h0, and field_z, which is h
        config = {
            **FAST_CONFIG,
            "field_z": 0.23,
            "vqe": {**FAST_CONFIG["vqe"], "layer_sweep": [1]},
            "dsf": {**FAST_CONFIG["dsf"], "h_values": [0.0, 0.23, 0.29]},
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        cli._model_of.cache_clear()
        monkeypatch.setattr(oracle, "_DECOMPOSITIONS", weakref.WeakKeyDictionary())  # no equal h0 cached
        built = []  # the terms only: holding a sum would keep its factorization cached
        original = oracle._factorize_blocks
        monkeypatch.setattr(oracle, "_factorize_blocks", lambda h: built.append(h.terms) or original(h))
        assert main(["all", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        lat = lattice.build_lattice(2, 2)
        distinct = [lattice.kitaev_hamiltonian(lat, -1.0, hz).terms for hz in (None, 0.23, 0.29)]
        # one call per distinct sum, whichever stage asks first
        assert sorted(map(distinct.index, built)) == [0, 1, 2]

    @pytest.mark.parametrize("changes", [
        {"field_z": 0.31},
        {"coupling": [-1.0, -1.0, -1.0]},
        {"coupling": [-1.0, -0.5, 0.7]},
        {"lattice": {"rows": 3, "cols": 2}},
    ])
    def test_model_is_built_for_its_own_config(self, changes):
        # the memo keeps one model: the next config's is built afresh, never handed the last one
        cli._model_of.cache_clear()
        cli._model(config_from_dict(FAST_CONFIG))
        config = config_from_dict({**FAST_CONFIG, **changes})
        lat, h0, h = cli._model(config)
        fresh = lattice.build_lattice(config.lattice.rows, config.lattice.cols)
        assert lat.to_fixture_dict() == fresh.to_fixture_dict()
        assert h0 == lattice.kitaev_hamiltonian(fresh, config.coupling)
        assert h == lattice.kitaev_hamiltonian(fresh, config.coupling, config.field_z)
        assert all(a is b for a, b in zip(cli._model(config), (lat, h0, h)))

    def test_all_runs_without_a_dense_eigenbasis(self, tmp_path, monkeypatch):
        # exact mode and ED change basis through the symmetry blocks alone: no
        # 2^N x 2^N matrix is built and no stage reads the dense eigenvector view
        def refuse(*args, **kwargs):
            raise AssertionError("a dense 2^N x 2^N matrix was requested")

        for module in [m for name, m in sys.modules.items() if name.startswith("kitaevqse")]:
            if getattr(module, "to_matrix", None) is not None:
                monkeypatch.setattr(module, "to_matrix", refuse)
        monkeypatch.setattr(oracle.SpectralDecomposition, "eigenvectors", property(refuse))
        config = {**FAST_CONFIG, "field_z": 0.07, "dsf": {**FAST_CONFIG["dsf"], "h_values": [0.07, 0.11]}}
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert main(["all", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0

    @staticmethod
    def dsf_tables_by_threads(workdir, tmp_path, config_path, counts=("1", "2")):
        """Both DSF tables, timestamps dropped, of one dsf stage at each --threads count."""
        texts = []
        for threads in counts:
            out = tmp_path / threads
            out.mkdir(parents=True)
            shutil.copy(workdir[0] / "out" / "vqe_result.json", out / "vqe_result.json")
            assert main(["dsf", "--config", str(config_path), "--out", str(out), "--threads", threads]) == 0
            texts.append([
                [line for line in (out / name).read_text().splitlines() if not line.startswith("# timestamp")]
                for name in ("dsf_qse.csv", "dsf_ed.csv")
            ])
        return texts

    def test_dsf_tables_independent_of_threads(self, workdir, tmp_path, monkeypatch):
        # the fields share memoized collective operators, read from pool threads; each run
        # factorizes its fields afresh, so the pool's threads build the site sub-block plan
        threads = []
        sub_blocks = oracle._sub_blocks
        monkeypatch.setattr(oracle, "_sub_blocks",
                            lambda *args: threads.append(threading.current_thread()) or sub_blocks(*args))
        texts = []
        for run in ("1", "2"):
            monkeypatch.setattr(oracle, "_DECOMPOSITIONS", weakref.WeakKeyDictionary())
            oracle._site_plan.cache_clear()
            texts.append(self.dsf_tables_by_threads(workdir, tmp_path / run, workdir[1], (run,))[0])
        assert texts[0] == texts[1]
        assert threading.main_thread() in threads and any(t is not threading.main_thread() for t in threads)

    def test_dsf_tables_independent_of_threads_under_trotter2(self, workdir, tmp_path, monkeypatch):
        # with trotter2 V(t) for the ground-state basis (HOA) and the Krylov seeds, the pool's
        # threads run the trotter2 kernel, each field's chunks on tables of their own
        trotter = {"evolution_mode": "trotter2", "trotter_steps": 2}
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            **FAST_CONFIG,
            "qse": {**FAST_CONFIG["qse"], **trotter, "assembly_mode": "hoa"},
            "gf": {**FAST_CONFIG["gf"], **trotter},
        }))
        threads = []
        run_chunk = simulator._run_chunk
        monkeypatch.setattr(simulator, "_run_chunk",
                            lambda *args: threads.append(threading.current_thread()) or run_chunk(*args))
        texts = self.dsf_tables_by_threads(workdir, tmp_path, config_path)
        assert texts[0] == texts[1]
        assert threading.main_thread() in threads and len(set(threads)) > 1

    def test_one_lanczos_run_per_recursion(self, tmp_path, monkeypatch):
        # oracle.lanczos is the only Lanczos loop and serves the coefficient dumps alone:
        # the vqe stage ranks the sectors off the oracle's one eigh of h0's tapered sector sums,
        # every curve is a Lehmann sum of its seeds' poles, and every lanczos_iterate runs it once
        runs, iterates = [], []
        original_run, original_iterate = oracle.lanczos, greens.lanczos_iterate
        monkeypatch.setattr(oracle, "lanczos", lambda *args: runs.append(args[2]) or original_run(*args))
        monkeypatch.setattr(
            greens, "lanczos_iterate", lambda *args, **kw: iterates.append(1) or original_iterate(*args, **kw)
        )
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        counts = {}
        for stage in ("vqe", "qse", "greens", "dsf"):
            runs.clear(), iterates.clear()
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 0
            counts[stage] = (len(runs), len(iterates))
        config = config_from_dict(FAST_CONFIG)
        assert counts["vqe"] == (0, 0)
        assert counts["qse"] == (0, 0)
        assert counts["greens"] == (len(config.gf.kinds),) * 2  # the pair seed's dump per kind
        assert counts["dsf"] == (0, 0)

    def test_dsf_ed_table_follows_q(self, workdir, tmp_path):
        path, _ = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "q.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "dsf": {**FAST_CONFIG["dsf"], "q": [1.0, 0.0]}}))
        assert main(["dsf", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        ed_q, ed_0 = data_rows(tmp_path / "dsf_ed.csv"), data_rows(path / "out" / "dsf_ed.csv")
        assert np.max(np.abs(ed_q[:, 2] - ed_0[:, 2])) > 0.05
        qse_q = data_rows(tmp_path / "dsf_qse.csv")
        assert np.max(np.abs(qse_q[:, 2] - ed_q[:, 2])) < 0.15

    def test_qse_stage_hoa_assembly(self, workdir, tmp_path):
        # the configured tau reaches the assembly, and the energy is E0 up to the
        # sine-difference bias of the ground level, sin(tau E0)/tau - E0
        path, _ = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "hoa.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "qse": {**FAST_CONFIG["qse"], "assembly_mode": "hoa"}}))
        assert main(["qse", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        config = load_config(config_path)
        h = lattice.kitaev_hamiltonian(lattice.build_lattice(2, 2), config.coupling, config.field_z)
        tau = config.qse.hoa_tau_scale / gershgorin_kappa(h)
        mats = json.loads((tmp_path / "qse_matrices.json").read_text())
        assert (mats["assembly_mode"], mats["hoa_tau"]) == ("hoa", tau)
        gs = json.loads((tmp_path / "qse_ground_state.json").read_text())
        assert gs["assembly_mode"] == "hoa"
        e0 = oracle.diagonalize(h).ground_energy
        assert abs(gs["energy"] - e0) <= 2 * abs(e0 - np.sin(tau * e0) / tau)

    def test_dsf_stage_hoa_assembly(self, workdir, tmp_path, monkeypatch):
        # each field's ground state is assembled under HOA with tau = hoa_tau_scale / kappa(h),
        # and dsf_qse.csv carries no assembly record of its own
        shutil.copy(workdir[0] / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "hoa.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "qse": {**FAST_CONFIG["qse"], "assembly_mode": "hoa"}}))
        taus = []
        solve = qse.prepare_qse_ground_state

        def recording(reference, h, *args, **kwargs):
            taus.append(kwargs["hoa_tau"] * gershgorin_kappa(h))
            return solve(reference, h, *args, **kwargs)

        monkeypatch.setattr(qse, "prepare_qse_ground_state", recording)
        assert main(["dsf", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        scale = load_config(config_path).qse.hoa_tau_scale
        assert taus == pytest.approx([scale] * len(FAST_CONFIG["dsf"]["h_values"]), rel=1e-15)
        assert not any(line.startswith("# assembly_mode") for line in (tmp_path / "dsf_qse.csv").open())

    def test_trotter_schedule_compiled_once_per_operator(self, workdir, tmp_path, monkeypatch):
        # qse and gf share mode and step count: per field, the ground-state basis and every
        # Krylov seed of the engine evolve under one V(t), compiled once; each stage starts
        # from an empty compile cache, which keeps a compile per Hamiltonian
        shutil.copy(workdir[0] / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        trotter = {"evolution_mode": "trotter2", "trotter_steps": 2}
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            **FAST_CONFIG,
            "qse": {**FAST_CONFIG["qse"], **trotter, "assembly_mode": "hoa"},
            "gf": {**FAST_CONFIG["gf"], **trotter},
        }))
        compiled = []
        original = simulator.compile_trotter2
        monkeypatch.setattr(simulator, "compile_trotter2", lambda *args: compiled.append(1) or original(*args))
        counts = {}
        for stage in ("greens", "dsf"):
            compiled.clear()
            monkeypatch.setattr(simulator, "_COMPILED", weakref.WeakKeyDictionary())
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 0
            counts[stage] = len(compiled)
        assert counts == {"greens": 1, "dsf": len(FAST_CONFIG["dsf"]["h_values"])}

    @staticmethod
    def count_qse_stage(workdir, tmp_path, monkeypatch, qse_config):
        """What one qse stage ran, from an empty compile cache: the (n_k, n_l, r) of each trotter2
        basis it built, the stack size of each trotter2 evolution, the rows of each gate pass and
        the number of trotter2 steps compiled."""
        shutil.copy(workdir[0] / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "qse": {**FAST_CONFIG["qse"], **qse_config}}))
        ran = {"bases": [], "stacks": [], "passes": [], "compiles": 0}
        build, evolve = qse.build_bases, simulator._evolve_trotter2
        rotate_rows, compile_step = simulator._rotate_rows, simulator.compile_trotter2

        def counted_build(requests, delta_t, evolution):
            operators = [evolution] * len(requests) if isinstance(evolution, EvolutionOperator) else evolution
            ran["bases"].extend((n_k, n_l, op.trotter_steps)
                                for (_, n_k, n_l), op in zip(requests, operators) if op.mode == "trotter2")
            return build(requests, delta_t, evolution)

        def counted_compile(*args):
            ran["compiles"] += 1
            return compile_step(*args)

        monkeypatch.setattr(qse, "build_bases", counted_build)
        monkeypatch.setattr(simulator, "_evolve_trotter2",
                            lambda op, stack, times: ran["stacks"].append(len(times)) or evolve(op, stack, times))
        monkeypatch.setattr(simulator, "_rotate_rows",
                            lambda chunk, *rest: ran["passes"].append(len(chunk)) or rotate_rows(chunk, *rest))
        monkeypatch.setattr(simulator, "compile_trotter2", counted_compile)
        monkeypatch.setattr(simulator, "_COMPILED", weakref.WeakKeyDictionary())
        assert main(["qse", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        return ran

    SWEPT_HOA = {
        "evolution_mode": "trotter2", "trotter_steps": 2, "assembly_mode": "hoa",
        "shape_sweep": [[0, 0], [1, 1], [2, 2], [1, 2]], "trotter_sweep": [1, 2],
    }

    def test_qse_stage_builds_each_trotter_subspace_once(self, workdir, tmp_path, monkeypatch):
        # both sweeps and the final solve share one basis per (n_k, r), at the deepest
        # n_l asked of it; HOA then evolves the final basis's states forward only
        ran = self.count_qse_stage(workdir, tmp_path, monkeypatch, self.SWEPT_HOA)
        assert sorted(ran["bases"]) == [(0, 0, 2), (1, 1, 2), (2, 2, 1), (2, 2, 2)]
        per_basis = sum(2 * n_l + 2 * n_k * (n_l + 1) for n_k, n_l, _ in ran["bases"])
        assert sum(ran["stacks"]) == per_basis + basis_size(2, 2)

    def test_qse_stage_shares_stacks_across_trotter_operators(self, workdir, tmp_path, monkeypatch):
        # every entry grows in one build_bases call, whatever its r: one stack per coarse level
        # of the deepest entry, one of every entry's k != 0 rows, and HOA one more
        ran = self.count_qse_stage(workdir, tmp_path, monkeypatch, self.SWEPT_HOA)
        # level 1 advances the +-1 anchors of (1, 1) and (2, 2) at r=2 and (2, 2) at r=1, level 2
        # those of both (2, 2) entries; the fine stack holds 2 n_k (n_l + 1) rows per entry. A build
        # per step count made 3 + 4 stacks
        fine = [2 * n_k * (n_l + 1) for n_k, n_l in ((1, 1), (2, 2), (2, 2))]
        assert ran["stacks"] == [6, 4, sum(fine), basis_size(2, 2)]

    def test_qse_stage_compiles_each_trotter_operator_once(self, workdir, tmp_path, monkeypatch):
        # four trotter2 bases at two step counts: one compiled step serves both counts
        ran = self.count_qse_stage(workdir, tmp_path, monkeypatch, self.SWEPT_HOA)
        assert len({r for *_, r in ran["bases"]}) == 2
        assert ran["compiles"] == 1

    def test_default_qse_stage_passes_and_compiles(self, workdir, tmp_path, monkeypatch):
        # the default sweep builds a (3, 3) basis at each of r = 1..10 on the one-block VQE state:
        # 3 coarse levels of 20 rows in one chunk, 10 steps of 16 passes each, then 240 fine
        # rows in 4 chunks of 64 rows, most steps first, that run 10, 8, 5 and 2 steps. A
        # separate build per r made 10 compiles and 16 * 4 * (1 + ... + 10) = 3520 passes
        ran = self.count_qse_stage(workdir, tmp_path, monkeypatch, dataclasses.asdict(config_from_dict({}).qse))
        assert sorted(ran["bases"]) == [(3, 3, r) for r in range(1, 11)]
        assert ran["compiles"] == 1
        assert len(ran["passes"]) == 16 * (3 * 10 + 10 + 8 + 5 + 2) == 880 <= 900

    def test_exact_qse_stage_trotter_sweep_unchanged(self, workdir, tmp_path, monkeypatch):
        # exact shapes share nothing with the trotter2 sweep: one basis per swept r
        ran = self.count_qse_stage(workdir, tmp_path, monkeypatch, {})
        assert sorted(ran["bases"]) == [(2, 2, 1), (2, 2, 2)]
        assert sum(ran["stacks"]) == 2 * (2 * 2 + 2 * 2 * 3)

    def test_response_stages_evolve_no_basis_state(self, workdir, tmp_path, monkeypatch):
        # exact-mode subspaces read S, H and |GS> off spectral weights: neither the greens
        # nor the dsf stage runs an evolution kernel, and both read autocorrelations
        path, config_path = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        calls = []
        for module, name in ((simulator, "_evolve_exact"), (simulator, "_evolve_trotter2"),
                             (qse, "autocorrelations")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, name=name, original=original: calls.append(name) or original(*args))
        for stage in ("greens", "dsf"):
            calls.clear()
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 0
            assert "_evolve_exact" not in calls and "_evolve_trotter2" not in calls
            assert calls.count("autocorrelations") > 0
        calls.clear()
        lat = lattice.build_lattice(2, 2)
        h = lattice.kitaev_hamiltonian(lat, -1.0, 0.1)
        basis = qse.build_basis(StateVector.computational_basis(8), 1, 1, 0.2, EvolutionOperator(h))
        assert basis.amplitudes is None and calls == []  # an exact basis never forms its states

    def test_degenerate_ed_ground_space_exits_2(self, workdir, tmp_path, monkeypatch, capsys):
        # at a degenerate field ED takes the QSE ground state's projection onto its ground space
        # (SpectralDecomposition.ground_vector); a QSE state outside that space (here the bare
        # reference, c = e_(0,0)) stops the stage with the OracleError that names the degeneracy
        path, config_path = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        original = oracle.diagonalize
        monkeypatch.setattr(
            oracle, "diagonalize", lambda h: dataclasses.replace(original(h), ground_degeneracy=2)
        )
        for stage in ("greens", "dsf"):
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()

        solve = qse.prepare_qse_ground_state

        def reference_only(*args, **kwargs):
            gs, basis, mats = solve(*args, **kwargs)
            unit = np.zeros_like(gs.coefficients)
            unit[basis.reference_row] = 1.0
            return dataclasses.replace(gs, coefficients=unit), basis, mats

        monkeypatch.setattr(qse, "prepare_qse_ground_state", reference_only)
        for stage in ("greens", "dsf"):
            assert main([stage, "--config", str(config_path), "--out", str(tmp_path)]) == 2
            assert "2-fold degenerate ED ground space" in self._one_error_line(capsys)

    @staticmethod
    def _one_error_line(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_zero_field_n12_ed_uses_the_qse_sector_member(self, lat12, h0_12, dec0_12, vqe12):
        # at h_z = 0 the N=12 ground space is 4-fold degenerate: ED takes the member in the
        # sector of the QSE ground state, the normalized projection onto the ground space, and
        # refuses to pick one with no state to project, or for a QSE state from an excited sector
        assert dec0_12.ground_degeneracy == 4
        ref, _, _ = vqe12

        def qse_state(reference):
            gs, basis, _ = qse.prepare_qse_ground_state(reference, h0_12, 1, 1)
            return qse.reconstruct_state(gs, basis)

        state = qse_state(ref)
        vector = dec0_12.ground_vector(near=state.amplitudes)
        space = dec0_12.ground_space()
        coords = space.conj().T @ state.amplitudes
        assert np.array_equal(vector, space @ (coords / np.linalg.norm(coords)))
        with pytest.raises(oracle.OracleError, match="4-fold degenerate"):
            dec0_12.ground_vector()
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
        assert np.real(np.vdot(vector, apply_sum(h0_12, vector))) == pytest.approx(dec0_12.ground_energy, abs=1e-10)
        assert abs(np.vdot(vector, state.amplitudes)) ** 2 >= 1.0 - 1e-8
        for op in [*lattice.plaquette_operators(lat12), *lattice.loop_operators(lat12)]:
            sign = np.real(np.vdot(ref.amplitudes, apply_term(op, ref.amplitudes)))
            assert abs(sign) == pytest.approx(1.0, abs=1e-8)
            assert np.real(np.vdot(vector, apply_term(op, vector))) == pytest.approx(sign, abs=1e-8)

        flipped = StateVector(apply_term(single_site("Z", 0, 12), ref.amplitudes), 12)  # two visons
        with pytest.raises(oracle.OracleError, match="4-fold degenerate ED ground space at E0 = "):
            dec0_12.ground_vector(near=qse_state(flipped).amplitudes)

    @pytest.mark.parametrize("sweep, named", [
        ([0, 1], "the shallowest swept depth that reaches it is 1"),
        ([0], "no swept depth reaches it"),
    ])
    def test_unconverged_vqe_depth_exits_2(self, tmp_path, capsys, sweep, named):
        # a reference short of the ground state stops the pipeline at the vqe stage, after
        # the layer sweep that shows which depth would reach it is written
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "vqe": {"layers": 0, "layer_sweep": sweep}}))
        assert main(["vqe", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        err = self._one_error_line(capsys)
        assert err.startswith("error: vqe depth 0 stops at dE = ") and named in err
        assert (tmp_path / "vqe_layer_sweep.csv").exists() and not (tmp_path / "vqe_result.json").exists()

    def test_overflowing_q_exits_2(self, workdir, tmp_path, capsys):
        # q.r overflows to inf and exp(i q.r) to NaN: the stage stops with one line naming q,
        # and no RuntimeWarning, instead of writing the DSF of an operator that lost its NaN terms
        shutil.copy(workdir[0] / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "q.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "dsf": {**FAST_CONFIG["dsf"], "q": [1e308, 1e308]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["dsf", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        err = self._one_error_line(capsys)
        assert err.startswith("error: q = [1e+308, 1e+308] overflows") and not (tmp_path / "dsf_qse.csv").exists()

    def test_package_error_exits_2_without_traceback(self, tmp_path, capsys):
        # 5x2 cells is N=20: h with its field stacks 2^39 entries, beyond the oracle's dense cap,
        # and ed-reference asks for h first
        config_path = tmp_path / "big.json"
        config_path.write_text(json.dumps({"lattice": {"rows": 5, "cols": 2}}))
        rc = main(["ed-reference", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "20 sites: 549755813888 stacked entries exceed the dense cap" in self._one_error_line(capsys)

    def test_ed_reference_refuses_h_before_factorizing_h0(self, tmp_path, monkeypatch, capsys):
        # at 4x2 cells (N=16) h0 tapers within the dense cap but h with a field does not
        h0 = lattice.kitaev_hamiltonian(lattice.build_lattice(4, 2), -1.0)
        factorized = []
        original = oracle.diagonalize
        monkeypatch.setattr(oracle, "diagonalize", lambda h: factorized.append(h) or original(h))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"lattice": {"rows": 4, "cols": 2}, "field_z": 0.1}))
        rc = main(["ed-reference", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "exceed the dense cap" in self._one_error_line(capsys)
        assert factorized and h0 not in factorized

    @pytest.mark.parametrize("stage, config, flags, message", [
        ("ed-reference", FAST_CONFIG, ["--seed", "-3"], r"error: \$\.seed: "),
        ("ed-reference", None, [], r"error: .*c\.json: cannot read config file"),
        ("dsf", {**FAST_CONFIG, "dsf": {"omega_min": 1.0, "omega_max": -1.0}}, [], r"error: \$\.dsf\.omega_max: "),
        # an omega grid too fine to allocate stops before the first stage, not in its Lehmann tables
        ("greens", {**FAST_CONFIG, "gf": {"omega_step": 1e-12}}, [],
         r"error: \$\.gf\.omega_step: makes 2e\+13 omega points, more than 10000$"),
    ])
    def test_bad_input_rejected_before_any_stage(self, tmp_path, capsys, stage, config, flags, message):
        config_path = tmp_path / "c.json"  # not written when config is None
        if config is not None:
            config_path.write_text(json.dumps(config))
        rc = main([stage, "--config", str(config_path), "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        assert re.match(message, self._one_error_line(capsys))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"x": 1', "is not valid JSON"),
        ("{}", "was produced for None"),
        ("[1]", "holds a JSON list, not an object"),
    ])
    @pytest.mark.parametrize("stage, artifact", [
        ("qse", "vqe_result.json"),
        ("dsf", "vqe_result.json"),
        ("greens", "vqe_result.json"),
    ])
    def test_damaged_artifact_exits_2(self, workdir, tmp_path, capsys, stage, artifact, text, message):
        path, config_path = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        (tmp_path / artifact).write_text(text)
        rc = main([stage, "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 2
        err = self._one_error_line(capsys)
        assert artifact in err and message in err
        if text == "{}":  # no _meta record: the Hamiltonian part of the config is what is wanted
            assert "current config wants {'lattice': {'rows': 2, 'cols': 2}, 'coupling': -1.0, 'field_z': 0.1}" in err

    @pytest.mark.parametrize("stage, artifact, key", [
        ("qse", "vqe_result.json", "sector_targets"),
        ("dsf", "vqe_result.json", "optimal_parameters"),
        ("greens", "vqe_result.json", "layers"),
    ])
    def test_missing_artifact_key_exits_2(self, workdir, tmp_path, capsys, stage, artifact, key):
        path, config_path = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        payload = json.loads((tmp_path / artifact).read_text())
        del payload[key]
        (tmp_path / artifact).write_text(json.dumps(payload))
        rc = main([stage, "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 2
        err = self._one_error_line(capsys)
        assert artifact in err and f"lacks {key}" in err

    @pytest.mark.parametrize("key, damage", [
        pytest.param("sector_targets", lambda value: value[:5], id="targets-cut"),
        pytest.param("sector_targets", lambda value: None, id="targets-null"),
        pytest.param("optimal_parameters", lambda value: [str(x) for x in value], id="angles-strings"),
        pytest.param("layers", lambda value: str(value), id="layers-string"),
    ])
    @pytest.mark.parametrize("stage", ["qse", "greens", "dsf"])
    def test_malformed_vqe_result_exits_2(self, workdir, tmp_path, capsys, stage, key, damage):
        path, config_path = workdir
        payload = json.loads((path / "out" / "vqe_result.json").read_text())
        payload[key] = damage(payload[key])
        (tmp_path / "vqe_result.json").write_text(json.dumps(payload))
        rc = main([stage, "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 2
        err = self._one_error_line(capsys)
        assert "vqe_result.json: " in err and f": {key} is " in err

    def test_greens_deviation_is_absolute(self, workdir, tmp_path, capsys):
        # G_12^ED of kinds X and Y vanishes by symmetry on this torus, so the
        # printed deviation must not be a ratio to it
        path, _ = workdir
        shutil.copy(path / "out" / "vqe_result.json", tmp_path / "vqe_result.json")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**FAST_CONFIG, "gf": {**FAST_CONFIG["gf"], "kinds": ["X", "Z"]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["greens", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        printed = dict(re.findall(r"greens\[(\w)\]: max \|G_qse - G_ed\| = (\S+)", capsys.readouterr().out))
        assert sorted(printed) == ["X", "Z"]
        for kind, figure in printed.items():
            data = data_rows(tmp_path / f"gf_curve_{kind.lower()}.csv")
            deviation = np.max(np.abs(data[:, 1] + 1j * data[:, 2] - data[:, 3] - 1j * data[:, 4]))
            assert float(figure) == pytest.approx(deviation, rel=1e-3)
        assert float(printed["X"]) < 1e-6  # the subspace reproduces the symmetry zero

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        rc = main(["ed-reference", "--out", str(tmp_path / "afile")])
        assert rc == 2
        assert re.match(r"error: cannot create output directory .*afile: ", self._one_error_line(capsys))

    @pytest.mark.parametrize("stage, artifact, verb", [
        ("qse", "vqe_result.json", "read"),  # the upstream artifact the stage loads
        ("ed-reference", "lattice_fixture.json", "write"),  # the first artifact the stage writes
    ])
    def test_artifact_io_failure_exits_2(self, tmp_path, capsys, stage, artifact, verb):
        (tmp_path / artifact).mkdir()
        rc = main([stage, "--out", str(tmp_path)])
        assert rc == 2
        assert re.match(rf"error: cannot {verb} .*{re.escape(artifact)}: Is a directory$", self._one_error_line(capsys))

    def test_metadata_header(self, workdir):
        path, _ = workdir
        text = (path / "out" / "qse_shape_sweep.csv").read_text()
        assert text.startswith("# kitaevqse_version = ")
        assert "# seed = 1" in text
        assert "# config = " in text

    def test_echo_mismatch_rejected(self, workdir, tmp_path):
        path, _ = workdir
        changed = dict(FAST_CONFIG)
        changed["field_z"] = 0.3
        config_path = tmp_path / "changed.json"
        config_path.write_text(json.dumps(changed))
        rc = main(["greens", "--config", str(config_path), "--out", str(path / "out")])
        assert rc == 2


class TestDeterminism:
    def _strip_timestamp(self, text: str) -> str:
        return "\n".join(
            line for line in text.splitlines() if not line.startswith("# timestamp")
        )

    def test_vqe_rerun_identical(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        for out in ("a", "b"):
            rc = main(["vqe", "--config", str(config_path), "--out", str(tmp_path / out)])
            assert rc == 0
        a = self._strip_timestamp((tmp_path / "a" / "vqe_layer_sweep.csv").read_text())
        b = self._strip_timestamp((tmp_path / "b" / "vqe_layer_sweep.csv").read_text())
        assert a == b

    @pytest.mark.parametrize("vqe_cfg, expected_calls", [
        ({}, 5),  # default sweep [0..4] contains layers = 1: trained once
        ({"layers": 2, "layer_sweep": [0, 1]}, 3),
    ])
    def test_vqe_trains_each_depth_once(self, tmp_path, monkeypatch, vqe_cfg, expected_calls):
        calls = []
        original = vqe.prepare_reference_state

        def counting(*args, **kwargs):
            calls.append(kwargs["layers"])
            return original(*args, **kwargs)

        monkeypatch.setattr(vqe, "prepare_reference_state", counting)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"vqe": vqe_cfg}))
        assert main(["vqe", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == expected_calls
        result = json.loads((tmp_path / "o" / "vqe_result.json").read_text())
        assert result["layers"] == vqe_cfg.get("layers", 1)

    def test_vqe_solves_h0_once(self, tmp_path, monkeypatch):
        # the ranking reads its sector minima off the one factorization that also scores every depth
        stacks, eigvalsh_calls = [], []
        original_stack, original_eigvalsh = oracle.TaperedSum.block_stack, np.linalg.eigvalsh
        monkeypatch.setattr(oracle, "_DECOMPOSITIONS", weakref.WeakKeyDictionary())  # no equal h0 cached
        monkeypatch.setattr(oracle.TaperedSum, "block_stack", lambda self: stacks.append(1) or original_stack(self))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: eigvalsh_calls.append(1) or original_eigvalsh(*args))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        assert main(["vqe", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        assert (len(stacks), len(eigvalsh_calls)) == (1, 0)

    def test_vqe_builds_one_sector_problem(self, tmp_path, monkeypatch):
        # every depth of the default sweep [0..4] trains from one sector state, and the spans of
        # depths 1-4 are tiled from one span of two layers
        calls = []
        sector_state, span = vqe.prepare_sector_state, vqe.SectorSpan.build
        monkeypatch.setattr(vqe, "prepare_sector_state", lambda *a: calls.append("state") or sector_state(*a))
        monkeypatch.setattr(vqe.SectorSpan, "build", lambda *a: calls.append(a[0].layers) or span(*a))
        assert main(["vqe", "--out", str(tmp_path / "o")]) == 0
        assert calls == ["state", 2]

    def test_vqe_applies_the_circuit_once_per_depth(self, tmp_path, monkeypatch):
        calls = []
        original = vqe.AnsatzCircuit.apply

        def counting(self, *args):
            calls.append(self.layers)
            return original(self, *args)

        monkeypatch.setattr(vqe.AnsatzCircuit, "apply", counting)
        assert main(["vqe", "--out", str(tmp_path / "o")]) == 0
        # the default sweep [0..4] holds layers = 1: one application per trained depth
        assert sorted(calls) == [0, 1, 2, 3, 4]

    def test_ed_reference_certificate_with_a_field(self, tmp_path):
        # at h_z = 0.3 tr H misses by no less than tr H^2, which once made `holds` a NumPy bool
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"lattice": {"rows": 2, "cols": 2}, "field_z": 0.3}))
        assert main(["ed-reference", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        entries = json.loads((tmp_path / "o" / "ed_reference.json").read_text())["entries"]
        assert [entry["completeness"]["holds"] for entry in entries] == [True, True]

    def test_json_artifact_independent_of_out_and_threads(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        payloads = []
        for out, threads in (("a", "1"), ("b", "2")):
            rc = main(["ed-reference", "--config", str(config_path), "--out", str(tmp_path / out), "--threads", threads])
            assert rc == 0
            payload = json.loads((tmp_path / out / "ed_reference.json").read_text())
            del payload["_meta"]["timestamp"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_seed_flag_overrides(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        rc = main(["ed-reference", "--config", str(config_path), "--out", str(tmp_path / "o"), "--seed", "7"])
        assert rc == 0
        for name in ("lattice_fixture.json", "ed_reference.json"):
            assert json.loads((tmp_path / "o" / name).read_text())["_meta"]["seed"] == 7

    def test_every_json_artifact_records_provenance(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        assert main(["all", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        recorded = load_config(config_path).to_json_dict()
        del recorded["output_dir"], recorded["threads"]
        recorded = json.loads(json.dumps(recorded))  # tuples read back as lists
        artifacts = sorted((tmp_path / "o").glob("*.json"))
        assert [p.name for p in artifacts] == [
            "ed_reference.json", "lanczos_greater_z.json", "lanczos_lesser_z.json",
            "lattice_fixture.json", "qse_ground_state.json", "qse_matrices.json", "vqe_result.json",
        ]
        for path in artifacts:
            payload = json.loads(path.read_text())
            assert isinstance(payload, dict), path.name
            meta = payload["_meta"]
            assert meta["kitaevqse_version"] == kitaevqse.__version__, path.name
            assert meta["seed"] == FAST_CONFIG["seed"], path.name
            assert meta["config"] == recorded, path.name


class TestArtifactDiff:
    def test_flags_a_changed_qse_energy_only(self, workdir, tmp_path, capsys):
        out, copy = workdir[0] / "out", tmp_path / "copy"
        shutil.copytree(out, copy)
        # when an artifact was written is no difference
        for name in ("vqe_result.json", "dsf_qse.csv"):
            text = (copy / name).read_text()
            (copy / name).write_text(re.sub(r"(timestamp\W+)20", r"\g<1>19", text))
            assert (copy / name).read_text() != text
        assert artifact_diff.main([str(out), str(copy)]) == 0
        artifact = copy / "qse_ground_state.json"
        payload = json.loads(artifact.read_text())
        payload["energy"] += 1e-8
        artifact.write_text(json.dumps(payload, indent=2))
        capsys.readouterr()
        assert artifact_diff.main([str(out), str(copy)]) == 1
        assert capsys.readouterr().out == "qse_ground_state.json: differs\n"
        assert artifact_diff.main(["--report", str(out), str(copy)]) == 1
        assert capsys.readouterr().out == "qse_ground_state.json: differs, max |diff| = 1e-08\n"

    def test_report_names_the_largest_numeric_difference(self, workdir, tmp_path, capsys):
        out, copy = workdir[0] / "out", tmp_path / "copy"
        shutil.copytree(out, copy)
        assert artifact_diff.main(["--report", str(out), str(copy)]) == 0
        lines = (copy / "qse_shape_sweep.csv").read_text().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = str(float(cells[-1]) + 3e-11)  # delta_e of the last row
        cells[-2] = str(float(cells[-2]) - 2e-12)  # its energy
        (copy / "qse_shape_sweep.csv").write_text("\n".join([*lines[:-1], ",".join(cells)]) + "\n")
        payload = json.loads((copy / "qse_matrices.json").read_text())
        payload["assembly_mode"] = "other"
        (copy / "qse_matrices.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert artifact_diff.main(["--report", str(out), str(copy)]) == 1
        qse_matrices, shape_sweep = capsys.readouterr().out.splitlines()
        assert qse_matrices == "qse_matrices.json: differs, max |diff| = 0; non-numeric content differs"
        name, largest = shape_sweep.split(", max |diff| = ")
        assert name == "qse_shape_sweep.csv: differs" and float(largest) == pytest.approx(3e-11, rel=1e-3)

    def test_report_names_a_changed_config_record_apart(self, workdir, tmp_path, capsys):
        out, copy = workdir[0] / "out", tmp_path / "copy"
        shutil.copytree(out, copy)
        # a config-schema change rewrites every artifact's record and no number
        payload = json.loads((copy / "ed_reference.json").read_text())
        payload["_meta"]["config"]["vqe"]["learning_rate"] = 0.05
        (copy / "ed_reference.json").write_text(json.dumps(payload, indent=2))
        text = (copy / "dsf_ed.csv").read_text()
        (copy / "dsf_ed.csv").write_text(text.replace('"vqe": {', '"vqe": {"learning_rate": 0.05, ', 1))
        capsys.readouterr()
        assert artifact_diff.main([str(out), str(copy)]) == 1
        assert capsys.readouterr().out == "dsf_ed.csv: differs\ned_reference.json: differs\n"
        assert artifact_diff.main(["--report", str(out), str(copy)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "dsf_ed.csv: differs, max |diff| = 0; recorded config differs",
            "ed_reference.json: differs, max |diff| = 0; recorded config differs",
        ]


class TestWriteCsv:
    def test_cells_are_plain_numbers(self, tmp_path):
        # a numpy scalar is written as its number, never as np.float64(...)
        columns = {"a": [np.float64(0.1)], "b": [1 / 3], "c": [2]}
        cli.write_csv(tmp_path / "t.csv", cli._recorded_config(RunConfig()), columns)
        assert (tmp_path / "t.csv").read_text().splitlines()[-1] == "0.1,0.3333333333333333,2"

    def test_columns_render_as_str_of_each_row_value(self, tmp_path):
        # each cell is str of its Python value, an array column's through tolist: the bytes of
        # rendering the same table row by row with str
        grid = np.linspace(-1.0, 1.0, 7) / 3
        columns = {
            "d": [0, 1, 2, 3, 4, 5, 6],
            "x": [1 / 3, 1e-20, 2.5e16, -0.0, 0.1, 1e-5, 123.456],
            "name": ["target", "epochs", "a", "b", "c", "d", "e"],
            "np64": [np.float64(v) for v in grid],
            "listed": grid.tolist(),
            "array": grid * 7,
        }
        cli.write_csv(tmp_path / "t.csv", cli._recorded_config(RunConfig()), columns)
        body = [line for line in (tmp_path / "t.csv").read_text().splitlines() if not line.startswith("#")]
        columns["array"] = columns["array"].tolist()
        assert body == [",".join(columns)] + [",".join(map(str, row)) for row in zip(*columns.values())]
        assert body[1] == "0,0.3333333333333333,target,-0.3333333333333333,-0.3333333333333333,-2.333333333333333"

    def test_repeated_columns_render_each_cell_as_before(self, tmp_path):
        # the DSF tables' np.repeat / np.tile columns, with 0.0 and -0.0 side by side: each
        # distinct value is rendered once, told apart by its bits; the bytes are those of
        # rendering every cell with str, pinned here
        fields = np.array([0.0, -0.0, 0.1])
        omega = np.array([-0.5, -0.0, 0.0, 1 / 3])
        table = np.where(np.arange(12) % 5 == 0, -0.0, np.arange(12) / 7)
        columns = {"h_z": np.repeat(fields, omega.size), "omega": np.tile(omega, fields.size), "s": table}
        cli.write_csv(tmp_path / "t.csv", cli._recorded_config(RunConfig()), columns)
        body = [line for line in (tmp_path / "t.csv").read_text().splitlines() if not line.startswith("#")]
        assert body == [
            "h_z,omega,s", "0.0,-0.5,-0.0", "0.0,-0.0,0.14285714285714285", "0.0,0.0,0.2857142857142857",
            "0.0,0.3333333333333333,0.42857142857142855", "-0.0,-0.5,0.5714285714285714", "-0.0,-0.0,-0.0",
            "-0.0,0.0,0.8571428571428571", "-0.0,0.3333333333333333,1.0", "0.1,-0.5,1.1428571428571428",
            "0.1,-0.0,1.2857142857142858", "0.1,0.0,-0.0", "0.1,0.3333333333333333,1.5714285714285714",
        ]
        assert body[1:] == [",".join(map(str, row)) for row in zip(*(c.tolist() for c in columns.values()))]

    def test_unequal_columns_refused(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_csv(tmp_path / "t.csv", cli._recorded_config(RunConfig()), {"a": [1, 2], "b": [1.0]})
        assert not (tmp_path / "t.csv").exists()


class TestFixtureEmission:
    def test_round_trip(self, h0_8, dec0_8):
        entry = fixture_entry("n8_j-1", h0_8, dec0_8)
        data = json.loads(json.dumps(entry))
        assert data["label"] == "n8_j-1"
        assert data["ground_energy"] == pytest.approx(-6.928203230275509)
        assert data["ground_degeneracy"] == 1


class TestRuntimeDependencies:
    def test_all_stages_run_with_numpy_only(self, tmp_path):
        # the declared runtime dependency is numpy alone; block the test-only packages
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        argv = ["all", "--config", str(config_path), "--out", str(tmp_path / "o")]
        script = (
            "import sys\n"
            "for name in ('scipy', 'pytest', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "from kitaevqse.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kitaevqse.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "dsf_qse.csv").exists()

    def test_vqe_stage_does_not_import_numpy_random(self, tmp_path):
        # numpy 2 imports numpy.random on its first use, and the initial angles are drawn without
        # it; a fresh process, since this one has imported it
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(FAST_CONFIG))
        argv = ["vqe", "--config", str(config_path), "--out", str(tmp_path / "o")]
        script = (
            "import sys\n"
            "from kitaevqse.cli import main\n"
            f"code = main({argv!r})\n"
            "print('numpy.random' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kitaevqse.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "o" / "vqe_result.json").exists()
