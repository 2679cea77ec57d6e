import json

import numpy as np
import pytest

from kitaevqse import oracle, pauli, vqe
from kitaevqse.lattice import kitaev_hamiltonian, stabilizer_group
from kitaevqse.simulator import expectation
from kitaevqse.vqe import (
    TARGET_TOLERANCE,
    AnsatzCircuit,
    SectorSpan,
    VqeError,
    candidate_sectors,
    closure_basis,
    prepare_reference_state,
    prepare_sector_state,
    rank_sectors,
    restrict,
    sector_ground_energy,
    train,
)

from helpers import term_to_matrix


@pytest.fixture(scope="module")
def ansatz8(lat8):
    return AnsatzCircuit.for_lattice(lat8, 1)


@pytest.fixture(scope="module")
def gs_sector8(lat8):
    # the 2x2 torus hosts its ground state in the all-minus sector
    return stabilizer_group(lat8, -1, (-1, -1))


@pytest.fixture(scope="module")
def init8(gs_sector8, lat8):
    return prepare_sector_state(gs_sector8, lat8)


class TestAnsatz:
    def test_parameter_count(self, lat8):
        for d in (0, 1, 3):
            ansatz = AnsatzCircuit.for_lattice(lat8, d)
            assert ansatz.num_parameters == d * 12

    def test_generators_centralize_stabilizers(self, lat8, ansatz8):
        group = stabilizer_group(lat8)
        for gen in ansatz8.generators:
            assert all(pauli.commutes(gen, s) for s in group.generators)

    def test_apply_preserves_norm(self, ansatz8, init8):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, ansatz8.num_parameters)
        out = ansatz8.apply(theta, init8)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_wrong_parameter_count_rejected(self, ansatz8, init8):
        with pytest.raises(VqeError):
            ansatz8.apply(np.zeros(5), init8)

    def test_gradient_matches_finite_differences(self, lat8, init8, h0_8):
        step = 1e-5
        for layers in (1, 2):
            ansatz = AnsatzCircuit.for_lattice(lat8, layers)
            theta = np.random.default_rng(42).uniform(-np.pi, np.pi, ansatz.num_parameters)
            _, grad = ansatz.energy_and_gradient(theta, h0_8, init8)
            for k in range(ansatz.num_parameters):
                plus, minus = theta.copy(), theta.copy()
                plus[k] += step
                minus[k] -= step
                e_plus = expectation(ansatz.apply(plus, init8), h0_8)
                e_minus = expectation(ansatz.apply(minus, init8), h0_8)
                assert abs(grad[k] - (e_plus - e_minus) / (2 * step)) <= 1e-7

    def test_gradient_reuses_term_actions(self, lat8, init8, monkeypatch):
        calls = []
        build = pauli.term_phases
        monkeypatch.setattr(pauli, "term_phases", lambda term: calls.append(term) or build(term))
        pauli._action_of.cache_clear()  # earlier tests memoized these strings
        ansatz = AnsatzCircuit.for_lattice(lat8, 2)
        h = kitaev_hamiltonian(lat8, -1.0)
        theta = np.linspace(-1.0, 1.0, ansatz.num_parameters)
        ansatz.energy_and_gradient(theta, h, init8)
        first = len(calls)
        # one build per Pauli string: generators that repeat a bond's string share its action
        assert first == len({t.axes for t in h.terms} | {g.axes for g in ansatz.generators})
        ansatz.energy_and_gradient(theta, h, init8)
        assert len(calls) == first


class TestSectorState:
    def test_targets_satisfied(self, lat8, gs_sector8, init8):
        for gen, target in zip(gs_sector8.generators, gs_sector8.target_eigenvalues):
            value = np.real(np.vdot(init8.amplitudes, pauli.apply_term(gen, init8.amplitudes)))
            assert value == pytest.approx(target, abs=1e-10)

    def test_normalized(self, init8):
        assert init8.norm() == pytest.approx(1.0, abs=1e-12)

    def test_all_plus_sector_also_consistent(self, lat8):
        state = prepare_sector_state(stabilizer_group(lat8, 1, (1, 1)), lat8)
        for gen in stabilizer_group(lat8).generators:
            value = np.real(np.vdot(state.amplitudes, pauli.apply_term(gen, state.amplitudes)))
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_winning_sector_overlaps_ground_state(self, lat8, init8, dec0_8):
        # the all-minus sector state has nonzero weight on the exact GS
        fid = oracle.ground_space_fidelity(init8.amplitudes, dec0_8)
        assert fid > 1e-3

    def test_inconsistent_sector_raises(self, lat8):
        # flipping a single plaquette target violates the product relation
        # (the four plaquettes multiply to the identity on the 2x2 torus)
        targets = [-1, -1, -1, 1]
        group = stabilizer_group(lat8, targets, (-1, -1))
        with pytest.raises(VqeError):
            prepare_sector_state(group, lat8)


class TestTrain:
    def test_monotone_best_energy(self, h0_8, ansatz8, init8):
        result = train(h0_8, ansatz8, init8, epochs=120, seed=3)
        best = result.training_history["best_energy"]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))

    def test_zero_layers_returns_sector_energy(self, lat8, h0_8, init8):
        ansatz0 = AnsatzCircuit.for_lattice(lat8, 0)
        result = train(h0_8, ansatz0, init8, epochs=10, seed=0)
        assert result.final_energy == pytest.approx(expectation(init8, h0_8))

    def test_sector_preserved_through_training(self, lat8, h0_8, ansatz8, init8, gs_sector8):
        result = train(h0_8, ansatz8, init8, epochs=150, seed=5)
        final = ansatz8.apply(result.optimal_parameters, init8)
        for gen, target in zip(gs_sector8.generators, gs_sector8.target_eigenvalues):
            value = np.real(np.vdot(final.amplitudes, pauli.apply_term(gen, final.amplitudes)))
            assert value == pytest.approx(target, abs=1e-8)

    def test_sector_preserved_for_random_parameters(self, ansatz8, init8, gs_sector8):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, ansatz8.num_parameters)
        state = ansatz8.apply(theta, init8)
        for gen, target in zip(gs_sector8.generators, gs_sector8.target_eigenvalues):
            value = np.real(np.vdot(state.amplitudes, pauli.apply_term(gen, state.amplitudes)))
            assert value == pytest.approx(target, abs=1e-8)

    def test_convergence_flag(self, h0_8, ansatz8, init8, dec0_8):
        good = train(h0_8, ansatz8, init8, epochs=800, seed=1, oracle_decomp=dec0_8, tolerance=1e-8)
        assert good.converged is True
        # without a target every epoch runs; with one, seed 1 stops near epoch 260
        assert (good.stop_epoch, good.stop_reason) == (800, "epochs")
        short = train(h0_8, ansatz8, init8, epochs=3, seed=1, oracle_decomp=dec0_8, tolerance=1e-8)
        assert short.converged is False
        assert short.final_energy >= good.final_energy

    def test_result_serialization(self, h0_8, ansatz8, init8):
        result = train(h0_8, ansatz8, init8, epochs=5, seed=2)
        data = json.loads(json.dumps(result.to_json_dict()))
        assert len(data["optimal_parameters"]) == ansatz8.num_parameters
        assert len(data["training_history"]["energy"]) == 5


class TestSectorSpan:
    @pytest.fixture(scope="class")
    def sectors(self, lat8, h0_8, init8, lat12, h0_12, vqe12):
        # each size's winning sector: the all-minus one at N=8, the trained one at N=12
        return {8: (lat8, h0_8, init8), 12: (lat12, h0_12, prepare_sector_state(vqe12[2], lat12))}

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("sites", [8, 12])
    def test_matches_full_space_sweep(self, sectors, sites, layers):
        lat, h0, state = sectors[sites]
        ansatz = AnsatzCircuit.for_lattice(lat, layers)
        span = SectorSpan.build(ansatz, h0, state)
        theta = np.random.default_rng(layers).uniform(-np.pi, np.pi, ansatz.num_parameters)
        energy, grad = span.energy_and_gradient(theta)
        full_energy, full_grad = ansatz.energy_and_gradient(theta, h0, state)
        assert abs(energy - full_energy) <= 1e-12
        assert np.max(np.abs(grad - full_grad)) <= 1e-12

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("sites", [8, 12])
    def test_runs_are_each_layers_bond_kinds(self, sectors, sites, layers):
        lat, h0, state = sectors[sites]
        span = SectorSpan.build(AnsatzCircuit.for_lattice(lat, layers), h0, state)
        blocks = [len(lat.bonds(kind)) for kind in "xyz"] * layers
        assert list(span.run_starts) == list(np.cumsum([0] + blocks[:-1]))
        assert list(span.runs) == [r for r, size in enumerate(blocks) for _ in range(size)]
        assert len(span.links) == 3 * layers - 1

    @pytest.mark.parametrize("string", range(12))
    def test_string_off_the_run_eigenbasis_raises(self, h0_8, ansatz8, init8, monkeypatch, string):
        axes = ansatz8.distinct_generators[string].axes
        original = vqe.restrict

        def perturbed(basis, terms):
            g = original(basis, terms)
            g[axes] = g[axes] + 1e-9 * (np.eye(len(basis), k=1) + np.eye(len(basis), k=-1))
            return g

        monkeypatch.setattr(vqe, "restrict", perturbed)
        with pytest.raises(VqeError, match="no joint"):
            SectorSpan.build(ansatz8, h0_8, init8)

    @pytest.mark.parametrize("sites", [8, 12])
    def test_span_is_the_whole_sector(self, sectors, sites):
        lat, _, state = sectors[sites]
        basis = closure_basis(state.amplitudes, AnsatzCircuit.for_lattice(lat, 1).distinct_generators)
        assert len(basis) == 2 ** (sites // 2 - 1)
        assert np.max(np.abs(basis.conj() @ basis.T - np.eye(len(basis)))) <= 1e-12
        assert np.allclose(basis[0], state.amplitudes / np.linalg.norm(state.amplitudes), atol=1e-14)

    def test_training_records_the_span_dimension(self, vqe12, h0_8, ansatz8, init8, lat8):
        assert vqe12[1].sector_dimension == 32
        assert train(h0_8, ansatz8, init8, epochs=2).to_json_dict()["sector_dimension"] == 8
        untrained = train(h0_8, AnsatzCircuit.for_lattice(lat8, 0), init8, epochs=2)
        assert untrained.to_json_dict()["sector_dimension"] is None

    def test_field_term_rejected(self, h_8, ansatz8, init8):
        with pytest.raises(VqeError, match="is not one of the ansatz's bond strings"):
            train(h_8, ansatz8, init8, epochs=2)

    @pytest.mark.parametrize("dropped", range(8))
    def test_span_missing_a_vector_fails_the_invariance_check(self, ansatz8, init8, dropped):
        strings = ansatz8.distinct_generators
        basis = closure_basis(init8.amplitudes, strings)
        restrict(basis, strings)  # the closed span passes
        with pytest.raises(VqeError, match="not invariant"):
            restrict(np.delete(basis, dropped, axis=0), strings)


class TestFidelity:
    def test_degenerate_projection(self, dec0_12):
        space = dec0_12.ground_space()
        mix = (space[:, 0] + space[:, 2]) / np.sqrt(2)
        assert oracle.ground_space_fidelity(mix, dec0_12) == pytest.approx(1.0)


class TestSectorScan:
    def test_candidate_count(self, lat8):
        assert len(candidate_sectors(lat8)) == 8

    def test_trainability_transition_n8(self, lat8, h0_8, dec0_8, gs_sector8):
        # one layer trains to the exact GS; zero layers cannot leave the
        # sector-state energy, so the drop at d=1 is sharp
        _, res0, _ = prepare_reference_state(lat8, h0_8, layers=0, oracle_decomp=dec0_8)
        _, res1, _ = prepare_reference_state(
            lat8, h0_8, layers=1, seed=1, oracle_decomp=dec0_8
        )
        assert res1.energy_distance <= 1e-8
        assert res0.energy_distance > 1.0
        assert res1.infidelity <= 1e-8
        # depth 0 keeps the ground sector's projector-cascade state as it is
        assert res0.sector_targets == (-1,) * 6
        sector_state = prepare_sector_state(gs_sector8, lat8)
        assert res0.infidelity == pytest.approx(
            1.0 - oracle.ground_space_fidelity(sector_state.amplitudes, dec0_8), abs=1e-12
        )

    def test_scan_lands_in_all_minus_sector_n8(self, lat8, h0_8):
        _, result, group = prepare_reference_state(lat8, h0_8, layers=1, seed=1)
        assert result.sector_targets == (-1, -1, -1, -1, -1, -1)

    def test_trains_only_the_winning_sector(self, lat8, h0_8, monkeypatch):
        calls = []
        original = SectorSpan.energy_and_gradient

        def counting(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(SectorSpan, "energy_and_gradient", counting)
        prepare_reference_state(lat8, h0_8, layers=1, epochs=20, seed=1)
        assert len(calls) == 21  # 20 Adam epochs plus the final evaluation

    def test_target_stop_evaluates_once_per_epoch(self, lat8, h0_8, monkeypatch):
        calls = []
        original = SectorSpan.energy_and_gradient

        def counting(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(SectorSpan, "energy_and_gradient", counting)
        _, result, _ = prepare_reference_state(lat8, h0_8, layers=1, seed=1)
        assert result.stop_reason == "target"
        assert len(calls) == result.stop_epoch < 800  # no final evaluation after the stop

    def test_result_records_sector_energies(self, lat8, h0_8, dec0_8):
        _, result, _ = prepare_reference_state(lat8, h0_8, layers=0)
        recorded = result.to_json_dict()["sector_energies"]
        assert [tuple(r["targets"]) for r in recorded] == [
            g.target_eigenvalues for g in candidate_sectors(lat8)
        ]
        winner = min(recorded, key=lambda r: r["energy"])
        assert tuple(winner["targets"]) == result.sector_targets
        assert winner["energy"] == pytest.approx(dec0_8.ground_energy, abs=1e-10)


class TestTargetStop:
    @pytest.fixture(scope="class")
    def ranked8(self, lat8, h0_8):
        return rank_sectors(lat8, h0_8)

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 29, 36])
    def test_stopped_training_meets_criterion_1(self, lat8, h0_8, dec0_8, ranked8, seed, layers):
        _, result, _ = prepare_reference_state(
            lat8, h0_8, layers=layers, seed=seed, oracle_decomp=dec0_8, ranked=ranked8
        )
        assert result.energy_distance <= 1e-8
        assert result.infidelity <= 1e-8
        assert len(result.training_history["energy"]) == result.stop_epoch
        target = dict(result.sector_energies)[result.sector_targets]
        tol = TARGET_TOLERANCE * max(1.0, abs(target))
        reached = [best - target <= tol for best in result.training_history["best_energy"]]
        if result.stop_reason == "target":
            assert reached[-1] and not any(reached[:-1])
        else:
            assert result.stop_reason == "epochs"
            assert result.stop_epoch == 800 and not any(reached)
        recorded = json.loads(json.dumps(result.to_json_dict()))
        assert (recorded["stop_epoch"], recorded["stop_reason"]) == (result.stop_epoch, result.stop_reason)


class TestSectorGroundEnergy:
    @pytest.mark.parametrize("j", [-1.0, 1.0])
    def test_matches_lowest_ed_eigenvalue_in_sector(self, lat8, j):
        h0 = kitaev_hamiltonian(lat8, j)
        dec = oracle.diagonalize(h0)
        for group in candidate_sectors(lat8):
            # sector component of every ED eigenvector, through dense projectors;
            # an eigenvalue lies in the sector's spectrum iff some eigenvector of
            # it keeps weight, whatever basis eigh picked in a degenerate space
            projected = dec.eigenvectors.astype(complex)
            for gen, target in zip(group.generators, group.target_eigenvalues):
                projected = 0.5 * (projected + target * (term_to_matrix(gen) @ projected))
            in_sector = np.linalg.norm(projected, axis=0) > 1e-6
            assert in_sector.any()
            expected = dec.eigenvalues[in_sector].min()
            assert sector_ground_energy(h0, group, lat8) == pytest.approx(expected, abs=1e-10)

    def test_inconsistent_sector_raises(self, lat8, h0_8):
        group = stabilizer_group(lat8, [-1, -1, -1, 1], (-1, -1))
        with pytest.raises(VqeError):
            sector_ground_energy(h0_8, group, lat8)
