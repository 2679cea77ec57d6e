import dataclasses
import json

import numpy as np
import pytest

from kitaevqse import oracle, pauli, vqe
from kitaevqse.lattice import kitaev_hamiltonian, stabilizer_group
from kitaevqse.simulator import StateVector, expectation
from kitaevqse.vqe import (
    TARGET_TOLERANCE,
    AnsatzCircuit,
    SectorProblem,
    SectorSpan,
    VqeError,
    candidate_sectors,
    frame_sector,
    prepare_reference_state,
    prepare_sector_state,
    rank_sectors,
    train,
)

from helpers import dense_matrix, term_to_matrix


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
        def scored(epochs):
            result = train(h0_8, ansatz8, init8, epochs=epochs, seed=1)
            vqe._score(result, ansatz8.apply(result.optimal_parameters, init8), dec0_8)
            return result

        good = scored(800)
        assert good.converged is True
        # without a target every evaluation runs; with one, seed 1 stops after 28
        assert (good.stop_epoch, good.stop_reason) == (800, "epochs")
        short = scored(3)
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

    @pytest.mark.parametrize("sites, layers", [(8, 1), (8, 2), (8, 3), (8, 4), (12, 1), (12, 2)])
    def test_tiled_span_equals_a_standalone_build(self, lat8, h0_8, lat12, h0_12, sites, layers):
        # the vqe stage tiles every depth's span from one sector problem; a depth-d span built
        # on its own is the same, field for field and bit for bit
        lat, h0 = {8: (lat8, h0_8), 12: (lat12, h0_12)}[sites]
        problem = SectorProblem.build(lat, h0)
        tiled = problem.span(layers)
        alone = SectorSpan.build(AnsatzCircuit.for_lattice(lat, layers), h0, problem.state)
        for field in dataclasses.fields(SectorSpan):
            assert np.array_equal(getattr(tiled, field.name), getattr(alone, field.name)), field.name

    @pytest.mark.parametrize("string", range(12))
    def test_string_off_the_run_eigenbasis_raises(self, h0_8, ansatz8, init8, monkeypatch, string):
        axes = ansatz8.distinct_generators[string].axes
        original = oracle.TaperedSum.sector_matrix

        def perturbed(tapered, term, sector):
            g = original(tapered, term, sector)
            if term.axes == axes:
                g = g + 1e-9 * (np.eye(len(g), k=1) + np.eye(len(g), k=-1))
            return g

        monkeypatch.setattr(oracle.TaperedSum, "sector_matrix", perturbed)
        with pytest.raises(VqeError, match="no joint"):
            SectorSpan.build(ansatz8, h0_8, init8)

    @pytest.mark.parametrize("sites", [8, 12])
    def test_span_is_the_whole_sector(self, sectors, sites):
        # the sector state lies whole in one 2^(N/2-1)-state sector of h0's frame, and
        # the frame maps it there and back
        lat, h0, state = sectors[sites]
        tapered = oracle.taper(h0)
        assert tapered.frame_index.shape == (2 ** (sites // 2 + 1), 2 ** (sites // 2 - 1))
        in_frame = tapered.frame.to_frame(state.amplitudes)
        weights = np.linalg.norm(in_frame[tapered.frame_index], axis=1) ** 2
        home = int(np.argmax(weights))
        assert weights[home] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(weights) - weights[home] <= 1e-24
        assert np.max(np.abs(tapered.frame.from_frame(in_frame) - state.amplitudes)) <= 1e-14
        span = SectorSpan.build(AnsatzCircuit.for_lattice(lat, 1), h0, state)
        assert span.dimension == 2 ** (sites // 2 - 1)
        assert np.linalg.norm(span.start) == pytest.approx(1.0, abs=1e-12)

    def test_training_records_the_span_dimension(self, vqe12, h0_8, ansatz8, init8, lat8):
        assert vqe12[1].sector_dimension == 32
        assert train(h0_8, ansatz8, init8, epochs=2).to_json_dict()["sector_dimension"] == 8
        untrained = train(h0_8, AnsatzCircuit.for_lattice(lat8, 0), init8, epochs=2)
        assert untrained.to_json_dict()["sector_dimension"] is None

    def test_field_term_rejected(self, h_8, ansatz8, init8):
        with pytest.raises(VqeError, match="is not one of the ansatz's bond strings"):
            train(h_8, ansatz8, init8, epochs=2)

    @pytest.mark.parametrize("dropped", range(8))
    def test_span_missing_a_vector_fails_the_invariance_check(self, h0_8, ansatz8, init8, dropped):
        # the sector of psi0 is invariant under every bond string, and only it is trained:
        # a start with weight 1e-10 on state `dropped` of the next sector is rejected
        SectorSpan.build(ansatz8, h0_8, init8)  # the sector state passes
        tapered = oracle.taper(h0_8)
        weights = np.linalg.norm(tapered.frame.to_frame(init8.amplitudes)[tapered.frame_index], axis=1)
        other = (int(np.argmax(weights)) + 1) % tapered.num_sectors
        leak = np.zeros(256, dtype=complex)
        leak[tapered.frame_index[other, dropped]] = 1e-5
        leaked = StateVector(init8.amplitudes + tapered.frame.from_frame(leak), 8)
        with pytest.raises(VqeError, match="not in one symmetry sector"):
            SectorSpan.build(ansatz8, h0_8, leaked)


class TestSectorProblem:
    def test_holds_the_winning_sector_and_its_state(self, lat8, h0_8, gs_sector8, init8):
        problem = SectorProblem.build(lat8, h0_8)
        assert problem.group == gs_sector8
        assert problem.energy == min(energy for _, energy in problem.ranking.sectors)
        assert np.array_equal(problem.state.amplitudes, init8.amplitudes)
        assert problem.layer == AnsatzCircuit.for_lattice(lat8, 1)
        assert problem.layer.repeated(3) == AnsatzCircuit.for_lattice(lat8, 3)

    def test_a_depth_does_not_depend_on_the_depths_sharing_it(self, lat8, h0_8):
        shared = SectorProblem.build(lat8, h0_8)
        for layers in (4, 2):
            _, together, _ = prepare_reference_state(lat8, h0_8, layers=layers, seed=3, problem=shared)
            _, alone, _ = prepare_reference_state(lat8, h0_8, layers=layers, seed=3)
            assert np.array_equal(together.optimal_parameters, alone.optimal_parameters)
            assert together.training_history == alone.training_history

    def test_problem_of_another_hamiltonian_rejected(self, lat8, h0_8):
        problem = SectorProblem.build(lat8, h0_8)
        with pytest.raises(VqeError, match="another Hamiltonian"):
            prepare_reference_state(lat8, kitaev_hamiltonian(lat8, 1.0), layers=1, problem=problem)

    def test_negative_depth_rejected(self, lat8, h0_8):
        with pytest.raises(VqeError, match="non-negative"):
            prepare_reference_state(lat8, h0_8, layers=-1, problem=SectorProblem.build(lat8, h0_8))


class TestAngleStream:
    """The initial angles: numpy's default_rng uniform stream, drawn without numpy.random."""

    @pytest.mark.parametrize("count", [0, 1, 12, 48])
    def test_equals_default_rng_uniform(self, count):
        # one-word seeds, and seeds of two, three and five 32-bit words
        for seed in [*range(101), 2**32, 2**64 + 5, 2**130 + 3]:
            expected = np.random.default_rng(seed).uniform(-np.pi, np.pi, count)
            assert np.array_equal(vqe._uniform_angles(seed, count), expected), seed

    def test_training_starts_from_the_stream(self, h0_8, ansatz8, init8):
        # one evaluation: the best angles are the initial ones
        result = train(h0_8, ansatz8, init8, epochs=1, seed=7)
        assert np.array_equal(result.optimal_parameters, np.random.default_rng(7).uniform(-np.pi, np.pi, 12))


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
        _, res0, _ = prepare_reference_state(lat8, h0_8, layers=0)
        _, res1, _ = prepare_reference_state(lat8, h0_8, layers=1, seed=1)
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
        _, result, _ = prepare_reference_state(lat8, h0_8, layers=1, epochs=20, seed=1)
        # the cap counts every evaluation, line-search trials included
        assert len(calls) == result.stop_epoch == 20 and result.stop_reason == "epochs"

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
        payload = result.to_json_dict()
        recorded = payload["sector_energies"]
        assert [tuple(r["targets"]) for r in recorded] == [
            g.target_eigenvalues for g in candidate_sectors(lat8)
        ]
        winner = min(recorded, key=lambda r: r["energy"])
        assert tuple(winner["targets"]) == result.sector_targets
        assert winner["energy"] == pytest.approx(dec0_8.ground_energy, abs=1e-10)
        assert abs(payload["global_sector_minimum"] - winner["energy"]) <= 1e-9

    def test_candidates_missing_the_global_minimum_raise(self, lat8, h0_8, monkeypatch):
        # only the all-plus sectors, whose lowest energy is -4 against E0 = -6.93
        everything = candidate_sectors(lat8)
        monkeypatch.setattr(vqe, "candidate_sectors", lambda lat: everything[:4])
        with pytest.raises(VqeError, match="no candidate sector reaches the lowest"):
            rank_sectors(lat8, h0_8)


class TestTargetStop:
    @pytest.fixture(scope="class")
    def problems(self, lat8, h0_8, lat12, h0_12):
        """(lattice, h0, sector problem) per size, each problem shared by all its cases, as the
        ``vqe`` stage shares one across its depths."""
        return {
            8: (lat8, h0_8, SectorProblem.build(lat8, h0_8)),
            12: (lat12, h0_12, SectorProblem.build(lat12, h0_12)),
        }

    @pytest.mark.parametrize("sites, seed, layers", [
        *(pytest.param(8, seed, layers, id=f"{seed}-{layers}")
          for layers in (1, 2, 3, 4) for seed in (0, 1, 2, 29, 36)),
        *(pytest.param(12, seed, layers, id=f"n12-{seed}-{layers}")
          for layers in (2, 3) for seed in (1, 2, 3, 4, 5)),
    ])
    def test_stopped_training_meets_criterion_1(self, problems, sites, seed, layers):
        lat, h0, problem = problems[sites]
        _, result, _ = prepare_reference_state(lat, h0, layers=layers, seed=seed, problem=problem)
        assert result.energy_distance <= 1e-8
        assert result.infidelity <= 1e-8
        assert len(result.training_history["energy"]) == result.stop_epoch
        target = dict(result.sector_energies)[result.sector_targets]
        tol = TARGET_TOLERANCE * max(1.0, abs(target))
        reached = [best - target <= tol for best in result.training_history["best_energy"]]
        assert result.stop_reason == "target"
        assert reached[-1] and not any(reached[:-1])
        recorded = json.loads(json.dumps(result.to_json_dict()))
        assert (recorded["stop_epoch"], recorded["stop_reason"]) == (result.stop_epoch, result.stop_reason)


class TestSectorGroundEnergy:
    """The ranking's sector energies against a dense eigh, independent of the oracle's frame."""

    @pytest.mark.parametrize("j", [-1.0, 1.0])
    def test_matches_lowest_ed_eigenvalue_in_sector(self, lat8, j):
        h0 = kitaev_hamiltonian(lat8, j)
        evals, evecs = np.linalg.eigh(dense_matrix(h0))
        ranking = rank_sectors(lat8, h0)
        assert len(ranking.sectors) == 8
        for group, energy in ranking.sectors:
            # sector component of every eigenvector, through dense projectors; an
            # eigenvalue lies in the sector's spectrum iff some eigenvector of it keeps
            # weight, whatever basis eigh picked in a degenerate space
            projected = evecs
            for gen, target in zip(group.generators, group.target_eigenvalues):
                projected = 0.5 * (projected + target * (term_to_matrix(gen) @ projected))
            in_sector = np.linalg.norm(projected, axis=0) > 1e-6
            assert in_sector.any()
            assert energy == pytest.approx(evals[in_sector].min(), abs=1e-10)
        assert ranking.global_minimum == pytest.approx(evals[0], abs=1e-10)

    def test_inconsistent_sector_raises(self, lat8, h0_8):
        table = oracle.taper(h0_8).sector_eigenvalues(stabilizer_group(lat8).generators)
        group = stabilizer_group(lat8, [-1, -1, -1, 1], (-1, -1))
        with pytest.raises(VqeError, match="inconsistent"):
            frame_sector(table, group)

    @pytest.mark.parametrize("sites", [8, 12])
    def test_frame_sector_holds_the_sector_state(self, lat8, lat12, sites):
        # the GF(2) map from (plaquette, loop) targets to frame signs, against where the
        # projector-cascade state of each candidate actually lies
        lat = {8: lat8, 12: lat12}[sites]
        tapered = oracle.taper(kitaev_hamiltonian(lat, -1.0))
        table = tapered.sector_eigenvalues(stabilizer_group(lat).generators)
        found = set()
        for group in candidate_sectors(lat):
            sector = frame_sector(table, group)
            in_frame = tapered.frame.to_frame(prepare_sector_state(group, lat).amplitudes)
            assert np.linalg.norm(in_frame[tapered.frame_index[sector]]) == pytest.approx(1.0, abs=1e-12)
            found.add(sector)
        assert len(found) == 8
