import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevqse import oracle, simulator
from kitaevqse.pauli import PauliTerm, pauli_sum, single_site, to_matrix, two_site
from kitaevqse.simulator import (
    EvolutionOperator,
    SimulationError,
    StateVector,
    _rotation_inplace,
    cnot_depth,
    evolve,
    evolve_stack,
    evolve_times,
    expectation,
    grouped_by_axis,
)

from helpers import full_register_trotter2, term_to_matrix, trotter_rotation_by_rotation


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(amps / np.linalg.norm(amps), n)


def one_block_state(h, seed=0, block=0):
    """A normalized random state on one of ``h``'s symmetry blocks, zero on the others."""
    rng = np.random.default_rng(seed)
    index = oracle.symmetry_blocks(h)[block]
    amps = np.zeros(1 << h.num_sites, dtype=complex)
    amps[index] = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
    return StateVector(amps / np.linalg.norm(amps), h.num_sites)


def rotate(state, term, angle):
    """exp(-i * angle/2 * c * P)|state> through the in-place rotation kernel."""
    out = state.amplitudes.copy()
    _rotation_inplace(out, term, angle)
    return StateVector(out, state.num_sites)


class TestStateVector:
    def test_basis_state(self):
        st8 = StateVector.computational_basis(3, index=5)
        assert st8.amplitudes[5] == 1.0
        assert st8.norm() == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            StateVector(np.zeros(7), 3)


class TestOverlapExpectation:
    def test_expectation_trivial_values(self):
        zero = StateVector.computational_basis(3, 0)
        z_sum = pauli_sum([single_site("Z", 1, 3)], 3)
        x_sum = pauli_sum([single_site("X", 1, 3)], 3)
        assert expectation(zero, z_sum) == pytest.approx(1.0)
        assert expectation(zero, x_sum) == pytest.approx(0.0)

    def test_expectation_rejects_non_hermitian(self):
        psi = random_state(2)
        bad = pauli_sum([single_site("Z", 0, 2, 1j)], 2)
        with pytest.raises(SimulationError):
            expectation(psi, bad)


class TestPauliRotation:
    def test_z_phase_on_zero_state(self):
        state = StateVector.computational_basis(1, 0)
        theta = 0.731
        out = rotate(state, single_site("Z", 0, 1), theta)
        assert out.amplitudes[0] == pytest.approx(np.exp(-1j * theta / 2))

    def test_zero_angle_is_identity(self):
        psi = random_state(3, 2)
        out = rotate(psi, two_site("X", 0, 2, 3), 0.0)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_xx_pi_rotation_flips(self):
        state = StateVector.computational_basis(2, 0)
        out = rotate(state, two_site("X", 0, 1, 2), np.pi)
        expected = np.zeros(4, complex)
        expected[3] = -1j
        assert np.allclose(out.amplitudes, expected)

    @settings(max_examples=80, deadline=None)
    @given(
        st.text(alphabet="IXYZ", min_size=2, max_size=2).filter(lambda s: s != "II"),
        st.floats(-6.0, 6.0, allow_nan=False),
        st.floats(0.2, 1.5),
    )
    def test_matches_dense_exponential(self, axes, angle, coeff):
        # all one- and two-site strings on a 2-site register vs expm
        term = PauliTerm(coeff, axes)
        psi = random_state(2, 5)
        out = rotate(psi, term, angle)
        gen = term_to_matrix(term)
        expected = scipy.linalg.expm(-0.5j * angle * gen) @ psi.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-10)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_complex_coefficient_rejected(self):
        # the kernel reads the real part only; trotter2, which rotates about every
        # term of a Hamiltonian, refuses a complex coefficient before any rotation
        bad = pauli_sum([PauliTerm(1j, "XX")], 2)
        with pytest.raises(SimulationError):
            EvolutionOperator(bad, mode="trotter2")


class TestGrouping:
    def test_kitaev_groups(self, h_8):
        groups = grouped_by_axis(h_8)
        sizes = [len(g) for g in groups]
        assert sizes == [8, 4, 4, 4]  # field singles first, then XX, YY, ZZ sweeps
        kinds = [{ch for t in g for ch in t.axes if ch != "I"} for g in groups]
        assert kinds == [{"Z"}, {"X"}, {"Y"}, {"Z"}]

    def test_tilted_field_singles_grouped_by_axis(self, lat8):
        from kitaevqse.lattice import kitaev_hamiltonian

        groups = grouped_by_axis(kitaev_hamiltonian(lat8, -1.0, [0.3, 0.0, 0.3]))
        assert [len(g) for g in groups] == [8, 8, 4, 4, 4]  # X singles, Z singles, XX, YY, ZZ
        kinds = [{ch for t in g for ch in t.axes if ch != "I"} for g in groups]
        assert kinds == [{"X"}, {"Z"}, {"X"}, {"Y"}, {"Z"}]

    def test_leftover_strings_get_own_group(self):
        mixed = pauli_sum([PauliTerm(1.0, "XZY"), single_site("Z", 0, 3, 0.5)], 3)
        groups = grouped_by_axis(mixed)
        assert [len(g) for g in groups] == [1, 1]

    def test_grouped_only_when_read(self, h_8, monkeypatch):
        # exact V(t) never reads the Trotter grouping; a trotter2 operator groups its
        # Hamiltonian once, when its first evolve compiles the step; an earlier test may have
        # compiled h's step already
        calls = []
        monkeypatch.setattr(simulator, "_COMPILED", weakref.WeakKeyDictionary())
        monkeypatch.setattr(simulator, "grouped_by_axis", lambda h: calls.append(h) or grouped_by_axis(h))
        psi = random_state(8, 3)
        exact = EvolutionOperator(h_8)
        evolve(evolve(psi, exact, 0.4), exact, -0.7)
        assert calls == []
        trotter = EvolutionOperator(h_8, mode="trotter2", trotter_steps=3)
        assert calls == []
        evolve(evolve(psi, trotter, 0.4), trotter, -0.7)
        assert calls == [h_8]


class TestEvolve:
    def test_exact_matches_expm(self, h_8, evolution_8):
        psi = random_state(8, 3)
        t = 0.37
        out = evolve(psi, evolution_8, t)
        expected = scipy.linalg.expm(-1j * t * to_matrix(h_8)) @ psi.amplitudes
        assert np.linalg.norm(out.amplitudes - expected) < 1e-10

    def test_zero_time_identity_both_modes(self, h_8, evolution_8):
        psi = random_state(8, 4)
        trot = EvolutionOperator(h_8, mode="trotter2", trotter_steps=3)
        for op in (evolution_8, trot):
            out = evolve(psi, op, 0.0)
            assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_group_property(self, evolution_8):
        psi = random_state(8, 5)
        a = evolve(evolve(psi, evolution_8, 0.21), evolution_8, 0.34)
        b = evolve(psi, evolution_8, 0.55)
        assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-10

    def test_commuting_hamiltonian_trotter_exact_at_r1(self, lat8):
        from kitaevqse.lattice import kitaev_hamiltonian

        h_zz = kitaev_hamiltonian(lat8, [0.0, 0.0, -1.0], 0.3)  # ZZ bonds + Z field
        psi = random_state(8, 6)
        exact = EvolutionOperator(h_zz, mode="exact")
        trot = EvolutionOperator(h_zz, mode="trotter2", trotter_steps=1)
        t = 0.8
        a = evolve(psi, exact, t)
        b = evolve(psi, trot, t)
        assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-10

    def test_trotter_second_order_convergence(self, h_8, evolution_8):
        psi = random_state(8, 7)
        t = 0.3
        exact = evolve(psi, evolution_8, t).amplitudes
        errors = []
        for r in (1, 2, 4, 8):
            trot = EvolutionOperator(h_8, mode="trotter2", trotter_steps=r)
            errors.append(np.linalg.norm(evolve(psi, trot, t).amplitudes - exact))
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        for ratio in ratios:
            assert 3.0 < ratio < 5.0  # ~4x per doubling of r

    @pytest.mark.parametrize("field", [[0.3, 0.0, 0.3], [0.2, -0.4, 0.3]])
    def test_tilted_field_trotter_second_order(self, lat8, field):
        # X, Y and Z field terms do not commute, so each axis is its own Trotter group
        from kitaevqse.lattice import kitaev_hamiltonian

        h = kitaev_hamiltonian(lat8, -1.0, field)
        psi = random_state(8, 13)
        t = 0.7
        exact = scipy.linalg.expm(-1j * t * to_matrix(h)) @ psi.amplitudes
        errors = [np.linalg.norm(evolve(psi, EvolutionOperator(h, mode="trotter2", trotter_steps=r), t).amplitudes
                                 - exact) for r in (16, 64)]
        assert 12.0 < errors[0] / errors[1] < 20.0  # ~16x for 4x the steps
        trot = EvolutionOperator(h, mode="trotter2", trotter_steps=4)
        back = evolve(evolve(psi, trot, t), trot, -t)
        assert np.linalg.norm(back.amplitudes - psi.amplitudes) <= 1e-13

    def test_one_site_x_plus_z_is_trotterized(self):
        h = pauli_sum([single_site("X", 0, 1), single_site("Z", 0, 1)], 1)
        psi = random_state(1, 14)
        exact = scipy.linalg.expm(-1j * 0.7 * to_matrix(h)) @ psi.amplitudes
        errors = [np.linalg.norm(evolve(psi, EvolutionOperator(h, mode="trotter2", trotter_steps=r), 0.7).amplitudes
                                 - exact) for r in (4, 8, 16)]
        assert all(3.0 < errors[i] / errors[i + 1] < 5.0 for i in range(2))

    def test_trotter_inverse_is_negative_time(self, h_8):
        trot = EvolutionOperator(h_8, mode="trotter2", trotter_steps=2)
        psi = random_state(8, 8)
        back = evolve(evolve(psi, trot, 0.4), trot, -0.4)
        assert np.linalg.norm(back.amplitudes - psi.amplitudes) < 1e-12

    @staticmethod
    def reversal_error(op, tau):
        # |<a|V(-tau)|b> - conj<b|V(tau)|a>|, which HOA assembly relies on being roundoff
        a, b = random_state(8, 11), random_state(8, 12)
        backward = np.vdot(a.amplitudes, evolve(b, op, -tau).amplitudes)
        forward = np.vdot(b.amplitudes, evolve(a, op, tau).amplitudes)
        return abs(backward - forward.conjugate())

    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("field", [False, True])
    def test_trotter_time_reversal(self, h0_8, h_8, steps, field):
        op = EvolutionOperator(h_8 if field else h0_8, mode="trotter2", trotter_steps=steps)
        assert self.reversal_error(op, 0.37) <= 1e-13

    def test_unreversed_schedule_breaks_time_reversal(self, h_8, monkeypatch):
        # the same gates with the trailing head groups in forward order: not a palindrome. The
        # kernel compiles the one step that trotter_schedule repeats, so patching it reaches V(t)
        def unreversed(h):
            groups = grouped_by_axis(h)
            head, middle = groups[:-1], groups[-1]
            step = [(term, 1.0) for group in head for term in group]
            step += [(term, 2.0) for term in middle]
            step += [(term, 1.0) for group in head for term in group]
            return step, True

        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=5)
        monkeypatch.setattr(simulator, "trotter_step", unreversed)
        monkeypatch.setattr(simulator, "_COMPILED", weakref.WeakKeyDictionary())
        patched = [term for term, _ in unreversed(h_8)[0]]
        assert [term for term, _ in simulator.trotter_schedule(op, 0.37)[:36]] == patched
        assert self.reversal_error(op, 0.37) > 1e-6

    def test_norm_preserved_through_long_product(self, h_8):
        trot = EvolutionOperator(h_8, mode="trotter2", trotter_steps=2)
        psi = random_state(8, 9)
        for _ in range(50):
            psi = evolve(psi, trot, 0.17)
        assert abs(psi.norm() - 1.0) < 1e-12

    def test_trotter_builds_each_term_action_once(self, lat8, monkeypatch):
        from kitaevqse import pauli
        from kitaevqse.lattice import kitaev_hamiltonian

        calls = []
        build = pauli.term_phases
        monkeypatch.setattr(pauli, "term_phases", lambda term: calls.append(term) or build(term))
        pauli._action_of.cache_clear()  # earlier tests memoized these strings
        monkeypatch.setattr(simulator, "_COMPILED", weakref.WeakKeyDictionary())  # and compiled h's step
        h = kitaev_hamiltonian(lat8, -1.0, 0.1)
        op = EvolutionOperator(h, mode="trotter2", trotter_steps=3)
        psi = random_state(8, 2)
        evolve(evolve(psi, op, 0.4), op, 0.4)
        assert len(calls) == len(h)

    def test_exact_cap(self, no_blocks):
        from kitaevqse import oracle

        # a 15-site XX chain in a Z field keeps only the parity: 2^29 stacked entries
        chain = [two_site("X", i, i + 1, 15) for i in range(14)] + [single_site("Z", i, 15, 0.5) for i in range(15)]
        op = EvolutionOperator(pauli_sum(chain, 15), mode="exact")
        with pytest.raises(oracle.OracleError, match="536870912 stacked entries exceed the dense cap"):
            evolve(StateVector.computational_basis(15), op, 0.1)
        assert no_blocks == []  # rejected before any block is assembled

    def test_trotter_needs_positive_steps(self, h_8):
        with pytest.raises(SimulationError):
            EvolutionOperator(h_8, mode="trotter2", trotter_steps=0)

    def test_evolve_times_matches_single(self, evolution_8):
        psi = random_state(8, 10)
        times = [0.0, 0.25, -0.4]
        batch = evolve_times(evolution_8, psi, times)
        for row, t in zip(batch, times):
            single = evolve(psi, evolution_8, t)
            assert np.linalg.norm(row - single.amplitudes) < 1e-12


FUSED_SHAPES = {"n8": (2, 2), "n12": (3, 2)}
FUSED_FIELDS = {"z": 0.1, "zero": 0.0, "tilted": [0.3, 0.0, 0.3]}


class TestFusedSchedule:
    @pytest.mark.parametrize(
        "case", [f"{n}-{f}" for n in FUSED_SHAPES for f in FUSED_FIELDS] + ["x0+z0", "xx-chain", "ising"]
    )
    def test_matches_the_schedule_rotation_by_rotation(self, case):
        # the two last cases run their step once at tau = t: an XX chain is one commuting group,
        # and the ZZ bonds and Z field of an Ising sum are two groups with no off-diagonal rotation
        from kitaevqse.lattice import build_lattice, kitaev_hamiltonian

        if case == "x0+z0":
            h = pauli_sum([single_site("X", 0, 1), single_site("Z", 0, 1)], 1)
        elif case == "xx-chain":
            h = pauli_sum([two_site("X", i, i + 1, 6, 0.3 + 0.1 * i) for i in range(5)], 6)
        elif case == "ising":
            bonds = [two_site("Z", i, i + 1, 6, 0.7 - 0.1 * i) for i in range(5)]
            h = pauli_sum(bonds + [single_site("Z", i, 6, 0.2 + 0.05 * i) for i in range(6)], 6)
        else:
            shape, field = case.split("-")
            h = kitaev_hamiltonian(build_lattice(*FUSED_SHAPES[shape]), -1.0, FUSED_FIELDS[field])
        psi = random_state(h.num_sites, 21)
        repeats = case not in ("xx-chain", "ising")
        assert simulator._compiled_step(h).repeats == repeats
        for steps in (1, 3, 5):
            op = EvolutionOperator(h, mode="trotter2", trotter_steps=steps)
            for t in (0.37, -0.37, 2.1):
                reference = trotter_rotation_by_rotation(op, psi.amplitudes, t)
                assert np.linalg.norm(evolve(psi, op, t).amplitudes - reference) <= 1e-13

    @pytest.mark.parametrize("steps", [1, 3])
    def test_z_field_step_runs_sixteen_rotations(self, h_8, steps, monkeypatch):
        # per step the schedule holds 36 rotations: 8 Z singles twice, 4 ZZ bonds,
        # and the 4 XX and 4 YY bonds twice; only the 16 bond rotations off the diagonal run,
        # each as one pass over the state's one block of 64 amplitudes
        passes = []
        rotate_rows = simulator._rotate_rows

        def counted(block, flat, src, *rest):
            passes.append((block.shape, src[0, 0]))
            rotate_rows(block, flat, src, *rest)

        monkeypatch.setattr(simulator, "_rotate_rows", counted)
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=steps)
        assert len(simulator.trotter_schedule(op, 0.4)) == 36 * steps
        evolve(one_block_state(h_8, 23), op, 0.4)
        assert len(passes) == 16 * steps
        # local position 0 reads the position of its state ^ flip, never itself off the diagonal
        assert all(shape == (1, 64) and src != 0 for shape, src in passes)
        # a step's diagonal runs are its leading Z singles, the ZZ bonds and its trailing Z singles;
        # the trailing and next leading Z singles fuse into one run at a step boundary, so the
        # leading run runs before step 0 alone: 2r + 1 diagonal passes. The leading and trailing
        # runs share one exponent table, and the fused run's table comes last
        compiled = simulator._compiled_step(h_8)
        diagonal = [gate for gate in compiled.gates if isinstance(gate, int)]
        assert compiled.boundary and compiled.repeats
        assert diagonal == [0, 1, 0] and diagonal == [compiled.gates[i] for i in (0, 9, -1)]
        assert len(compiled.exponents) == 3
        # per unit tau: the Z singles at a = 1 on both sides of the fusion, every bond rotation at a = 1
        z_field = sum(0.5 * t.coefficient.real * t.action[1].real for t in h_8.terms if t.axes.count("Z") == 1)
        assert np.allclose(compiled.exponents[0], z_field[compiled.members], rtol=0, atol=1e-15)
        assert np.allclose(compiled.exponents[-1], 2 * compiled.exponents[0], rtol=0, atol=1e-15)
        assert compiled.angles.tolist() == [1.0] * 16

    @pytest.mark.parametrize("steps", [1, 5])
    def test_schedule_angles_are_linear_in_time(self, h_8, steps):
        # the compiled form scales the t = 1 schedule by t, which holds only for linear angles
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=steps)
        unit = simulator.trotter_schedule(op, 1.0)
        for t in (0.37, -2.1):
            scaled = simulator.trotter_schedule(op, t)
            assert [term for term, _ in scaled] == [term for term, _ in unit]
            assert [angle for _, angle in scaled] == pytest.approx([t * angle for _, angle in unit], rel=1e-15)

    def test_compiled_once_on_first_evolve(self, h_8, monkeypatch):
        calls = []
        step = simulator.trotter_step
        monkeypatch.setattr(simulator, "trotter_step", lambda h: calls.append(h) or step(h))
        monkeypatch.setattr(simulator, "_COMPILED", weakref.WeakKeyDictionary())
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=3)
        assert calls == []
        psi = random_state(8, 24)
        evolve(evolve(psi, op, 0.4), op, -0.7)
        assert calls == [h_8]


class TestStackedEvolution:
    TIMES = np.array([0.37, 0.0, -0.37, 2.1, -1.3, 0.05, 0.0, -2.1])

    @staticmethod
    def stack_and_times(n, k, seed):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(k, 1 << n)) + 1j * rng.normal(size=(k, 1 << n))
        return stack / np.linalg.norm(stack, axis=1, keepdims=True), np.resize(TestStackedEvolution.TIMES, k)

    @pytest.mark.parametrize("case", [f"{n}-{f}" for n in FUSED_SHAPES for f in FUSED_FIELDS])
    def test_rows_match_rotation_by_rotation(self, case):
        # 1 and 3 rows fill part of one chunk at N=8, 17 and 40 spill into a second and
        # third; at N=12 every row is its own chunk
        from kitaevqse.lattice import build_lattice, kitaev_hamiltonian

        shape, field = case.split("-")
        h = kitaev_hamiltonian(build_lattice(*FUSED_SHAPES[shape]), -1.0, FUSED_FIELDS[field])
        stack, times = self.stack_and_times(h.num_sites, 40, 31)
        for steps in (1, 5):
            op = EvolutionOperator(h, mode="trotter2", trotter_steps=steps)
            reference = np.stack([trotter_rotation_by_rotation(op, row, t) for row, t in zip(stack, times)])
            for k in (1, 3, 17, 40):
                rows = evolve_stack(op, stack[:k], times[:k])
                assert rows.shape == (k, 1 << h.num_sites)
                assert np.max(np.linalg.norm(rows - reference[:k], axis=1)) <= 1e-13

    def test_rows_equal_one_state_evolutions_bit_for_bit(self, h_8):
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=3)
        stack, times = self.stack_and_times(8, 19, 32)
        rows = evolve_stack(op, stack, times)
        for row, amplitudes, t in zip(rows, stack, times):
            assert np.array_equal(row, evolve(StateVector(amplitudes, 8), op, t).amplitudes)

    @pytest.mark.parametrize("case", [f"{n}-{f}" for n in FUSED_SHAPES for f in FUSED_FIELDS])
    def test_rows_equal_the_full_register_loop_bit_for_bit(self, case):
        # rows in one block, in two (an X seed), on every block and all zero; the tilted
        # field has no Z symmetry, so its one block is the whole register
        from kitaevqse.lattice import build_lattice, kitaev_hamiltonian
        from kitaevqse.pauli import apply_term

        shape, field = case.split("-")
        h = kitaev_hamiltonian(build_lattice(*FUSED_SHAPES[shape]), -1.0, FUSED_FIELDS[field])
        n = h.num_sites
        one = [one_block_state(h, seed).amplitudes for seed in (36, 37)]
        seeds = [row + apply_term(single_site("X", 0, n), row) for row in one]
        full, _ = self.stack_and_times(n, 2, 38)
        stack = np.stack([*one, *seeds, *full, np.zeros(1 << n)])
        times = np.resize(self.TIMES, len(stack))
        for steps in (1, 5):
            op = EvolutionOperator(h, mode="trotter2", trotter_steps=steps)
            for rows in ([0], [0, 1], [2, 3], [4, 5], [6], list(range(7))):
                out = evolve_stack(op, stack[rows], times[rows])
                assert np.array_equal(out, full_register_trotter2(op, stack[rows], times[rows]))
            assert not np.any(out[6]) and not np.signbit(out[6].view(float)).any()

    @pytest.mark.parametrize("case", [f"{n}-{f}" for n in FUSED_SHAPES for f in FUSED_FIELDS])
    def test_mixed_step_counts_equal_their_own_operators_bit_for_bit(self, case):
        # one stack, one operator per row at r = 1, 2, 3, 5 and 10, each r twice at two times: rows
        # in one block, in two (an X seed), on every block and all zero share gate passes while
        # they have steps left. Each row is its own operator's evolution, and the full-register
        # reference's, which fuses a step's trailing Z singles with the next step's leading ones
        from kitaevqse.lattice import build_lattice, kitaev_hamiltonian
        from kitaevqse.pauli import apply_term

        shape, field = case.split("-")
        h = kitaev_hamiltonian(build_lattice(*FUSED_SHAPES[shape]), -1.0, FUSED_FIELDS[field])
        n = h.num_sites
        one = [one_block_state(h, 39, block).amplitudes for block in (0, len(oracle.symmetry_blocks(h)) - 1)]
        seeds = [row + apply_term(single_site("X", 0, n), row) for row in one]
        full, _ = self.stack_and_times(n, 2, 40)
        states = [*one, *seeds, *full, np.zeros(1 << n)]
        stack = np.stack([states[j % len(states)] for j in range(10)])
        times = np.linspace(-2.1, 2.1, 10)
        operators = {r: EvolutionOperator(h, mode="trotter2", trotter_steps=r) for r in (1, 2, 3, 5, 10)}
        rows = [operators[r] for r in (1, 2, 3, 5, 10) * 2]
        out = evolve_stack(rows, stack, times)
        assert np.array_equal(out, full_register_trotter2(rows, stack, times))
        for j, op in enumerate(rows):
            assert np.array_equal(out[j], evolve_stack(op, stack[j:j + 1], times[j:j + 1])[0])
        assert not np.any(out[6]) and not np.signbit(out[6].view(float)).any()

    def test_operators_of_one_hamiltonian_share_one_compiled_step(self, h_8, h0_8, monkeypatch):
        # every step count, and every operator of an equal Hamiltonian, runs the one compiled step
        # of its Hamiltonian; a stack mixing two Hamiltonians is refused
        compiled = []
        compile_step = simulator.compile_trotter2
        monkeypatch.setattr(simulator, "compile_trotter2", lambda h: compiled.append(h) or compile_step(h))
        monkeypatch.setattr(simulator, "_COMPILED", weakref.WeakKeyDictionary())
        equal = pauli_sum(h_8.terms, 8)
        assert equal == h_8 and equal is not h_8
        operators = [EvolutionOperator(h, mode="trotter2", trotter_steps=r) for h, r in ((h_8, 1), (equal, 4))]
        stack, times = self.stack_and_times(8, 2, 41)
        evolve_stack(operators, stack, times)
        evolve_stack(operators[1], stack, times)
        assert compiled == [h_8] and simulator._compiled_step(equal) is simulator._compiled_step(h_8)
        with pytest.raises(SimulationError, match="operators"):
            evolve_stack(operators, stack[:1], times[:1])
        with pytest.raises(SimulationError, match="one Hamiltonian"):
            evolve_stack([operators[0], EvolutionOperator(h0_8, mode="trotter2")], stack, times)

    def test_chunk_rows(self):
        # block-local rows within 4096 amplitudes, at least one: 64 rows of the 4 blocks of 64
        # at N=8, 2 of the 2 of 2048 at N=12, 1 of the 4 of 16384 at N=16
        from kitaevqse.lattice import build_lattice, kitaev_hamiltonian

        assert simulator.STACK_AMPLITUDES == 4096
        sizes = [oracle.symmetry_blocks(kitaev_hamiltonian(build_lattice(*cells), -1.0, 0.1))[0].size
                 for cells in ((2, 2), (3, 2), (4, 2))]
        assert sizes == [64, 2048, 16384]
        assert [simulator.chunk_rows(size) for size in (*sizes, 1, 256)] == [64, 2, 1, 4096, 16]

    def test_one_pass_per_gate_per_chunk(self, h_8, monkeypatch):
        # a row is one block-local row per block it occupies, and rows of every block share chunks
        passes = []
        rotate_rows = simulator._rotate_rows
        monkeypatch.setattr(simulator, "_rotate_rows",
                            lambda block, *rest: passes.append(len(block)) or rotate_rows(block, *rest))
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=2)
        one_block = np.stack([one_block_state(h_8, seed).amplitudes for seed in range(3)])
        for stack, expected in [
            (one_block, [3] * 32),
            (self.stack_and_times(8, 1, 33)[0], [4] * 32),
            (self.stack_and_times(8, 3, 33)[0], [12] * 32),
            (self.stack_and_times(8, 17, 34)[0], [64] * 32 + [4] * 32),
        ]:
            passes.clear()
            evolve_stack(op, stack, np.resize(self.TIMES, len(stack)))
            assert passes == expected

    def test_padded_actions(self):
        # XXI and YIY flip 110 and 101, so Z on every site is the one Z symmetry: blocks
        # {0, 3, 5, 6} and {1, 2, 4, 7} = 1 ^ {0, 3, 5, 6}
        h = pauli_sum([PauliTerm(0.5, "XXI"), PauliTerm(0.5, "YIY"), PauliTerm(0.3, "ZII")], 3)
        schedule = simulator._compiled_step(h)
        assert np.array_equal(schedule.members, [[0, 3, 5, 6], [1, 2, 4, 7]])
        (xx_src, xx_phase), (yy_src, yy_phase) = [gate for gate in schedule.gates if not isinstance(gate, int)][:2]
        assert xx_phase is None  # an X string's all-+1 phase is dropped
        for src, term in ((xx_src, h.terms[0]), (yy_src, h.terms[1])):
            # row j of a flattened chunk reads row j; local position i reads the position of
            # members[b, i] ^ flip, the same in every block b
            assert src.shape == (simulator.chunk_rows(4), 4)
            assert np.array_equal(src, np.arange(len(src))[:, None] * 4 + src[0])
            for row in schedule.members:
                assert np.array_equal(row[src[0]], term.action[0][row])
        # a (blocks, size) table laid out as members, read by block label
        assert np.array_equal(schedule.phases[yy_phase], h.terms[1].action[1][schedule.members])

    def test_rejects_exact_mode_and_bad_shapes(self, h_8, evolution_8):
        stack, times = self.stack_and_times(8, 2, 35)
        with pytest.raises(SimulationError, match="trotter2"):
            evolve_stack(evolution_8, stack, times)
        op = EvolutionOperator(h_8, mode="trotter2")
        with pytest.raises(SimulationError, match="shape"):
            evolve_stack(op, stack[0], times[:1])
        with pytest.raises(SimulationError, match="times"):
            evolve_stack(op, stack, times[:1])

    def test_empty_stacks(self, h_8):
        # zero rows under one operator are a (0, 2^N) stack; no operator at all is refused
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=3)
        out = evolve_stack(op, np.zeros((0, 1 << 8)), [])
        assert out.shape == (0, 1 << 8) and out.dtype == complex
        with pytest.raises(SimulationError, match="at least one operator"):
            evolve_stack([], np.zeros((0, 1 << 8)), [])


class TestCnotDepth:
    def test_paper_closed_forms(self, h_8):
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=5)
        layers, cnots = cnot_depth(op, n_l=0)
        assert cnots == 5 * 8 * 5 == 200
        assert layers == 10 * 5

    def test_layer_scaling_with_multigrid_depth(self, h_8):
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=1)
        layers, _ = cnot_depth(op, n_l=3)
        assert layers == 40

    def test_counts_follow_the_schedule(self, h_8):
        # a weight-3 leftover becomes the middle group: per step the head sweeps
        # the X, Y and Z bonds twice (6 layers of 2-CNOT rotations, 24 rotations)
        # and the XYZ term is a 4-CNOT ladder that the bonds on sites 0-2 wait for
        leftover = PauliTerm(0.5, "XYZIIIII")
        op = EvolutionOperator(pauli_sum([*h_8.terms, leftover], 8), mode="trotter2", trotter_steps=3)
        assert grouped_by_axis(op.hamiltonian)[-1] == [leftover]
        assert cnot_depth(op, n_l=1) == ((6 * 2 + 4) * 3 * 2, (24 * 2 + 4) * 3)
        # one commuting group runs once at any r: one layer of parallel ZZ rotations
        zz = pauli_sum([two_site("Z", 0, 1, 8), two_site("Z", 2, 3, 8)], 8)
        assert cnot_depth(EvolutionOperator(zz, mode="trotter2", trotter_steps=5), n_l=0) == (2, 4)

    def test_exact_mode_rejected(self, evolution_8):
        with pytest.raises(SimulationError):
            cnot_depth(evolution_8, 1)
