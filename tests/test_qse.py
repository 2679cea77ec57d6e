import json

import numpy as np
import pytest

from kitaevqse import qse
from kitaevqse.pauli import gershgorin_kappa, to_matrix
from kitaevqse.qse import (
    QseError,
    assemble_matrices,
    basis_size,
    build_basis,
    canonical_orthogonalization,
    deepest_subspaces,
    default_time_step,
    multigrid_indices,
    nested_subspace,
    prepare_qse_ground_state,
    qse_energy_curve,
    reconstruct_state,
    solve_ground_state,
    sweep_shapes,
)
from kitaevqse.simulator import EvolutionOperator, StateVector, evolve, expectation

from helpers import basis_states


def perturb_matrices(mats, sigma, rng):
    """Additive complex Gaussian noise on every entry, then re-hermitized:
    a stand-in for finite-shot overlap estimation noise."""
    def noisy(mat):
        out = mat + sigma * (rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape))
        return 0.5 * (out + out.conj().T)

    return qse.SubspaceMatrices(noisy(mats.hamiltonian), noisy(mats.overlap), mats.hoa_tau)


class TestMultigridIndices:
    def test_single_state(self):
        idx = multigrid_indices(0, 0)
        assert len(idx) == 1
        assert (idx[0].l, idx[0].k) == (0, 0)

    @pytest.mark.parametrize("n_l,n_k", [(0, 5), (1, 2), (2, 1), (5, 0)])
    def test_figure_shapes_all_eleven(self, n_l, n_k):
        assert len(multigrid_indices(n_k, n_l)) == 11 == basis_size(n_k, n_l)

    def test_three_three_gives_31(self):
        assert basis_size(3, 3) == 31

    def test_k_ranges_by_sign_of_l(self):
        for idx in multigrid_indices(2, 2):
            if idx.l > 0:
                assert 0 <= idx.k <= 2
            elif idx.l < 0:
                assert -2 <= idx.k <= 0
            else:
                assert -2 <= idx.k <= 2

    def test_ordering_l_then_k(self):
        idx = multigrid_indices(1, 1)
        assert [(i.l, i.k) for i in idx] == [
            (-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_negative_rejected(self):
        with pytest.raises(QseError):
            multigrid_indices(-1, 0)


class TestBuildBasis:
    def test_single_state_basis_is_reference(self, ref8, h_8, evolution_8):
        basis = build_basis(ref8, 0, 0, 0.2, evolution_8)
        assert len(basis) == 1
        assert np.allclose(basis_states(basis)[0], ref8.amplitudes)

    def test_states_normalized(self, ref8, evolution_8):
        basis = build_basis(ref8, 2, 2, 0.21, evolution_8)
        for row in basis_states(basis):
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)

    def test_exact_fast_path_matches_sequential_law(self, ref8, h_8, evolution_8):
        dt = 0.19
        n_k, n_l = 2, 1
        basis = build_basis(ref8, n_k, n_l, dt, evolution_8)
        coarse = (n_k + 1) * dt
        for idx, state in zip(basis.indices, basis_states(basis)):
            anchor = ref8
            for _ in range(abs(idx.l)):
                anchor = evolve(anchor, evolution_8, np.sign(idx.l) * coarse)
            expected = evolve(anchor, evolution_8, idx.k * dt)
            assert np.linalg.norm(state - expected.amplitudes) < 1e-12

    def test_trotter_basis_uses_whole_time_arguments(self, ref8, h_8):
        # one product-formula evolution over k*dt, not k short ones
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=1)
        basis = build_basis(ref8, 1, 0, 0.3, op)
        by_index = {(i.l, i.k): row for i, row in zip(basis.indices, basis.amplitudes)}
        direct = evolve(ref8, op, 0.3)
        chained = evolve(evolve(ref8, op, 0.15), op, 0.15)
        assert np.linalg.norm(by_index[(0, 1)] - direct.amplitudes) < 1e-12
        assert np.linalg.norm(direct.amplitudes - chained.amplitudes) > 1e-8

    @pytest.mark.parametrize("n_k, n_l", [(3, 3), (0, 2), (2, 0)])
    def test_stacked_trotter_basis_equals_anchor_then_fine_recipe(self, ref8, h_8, n_k, n_l):
        # nested_subspace relies on these states being the one-state recipe's bit for bit:
        # the anchor chain V(+-coarse)^l ref, then V(k dt) of each anchor
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=2)
        dt = 0.21
        anchors = {0: ref8}
        for l in range(1, n_l + 1):
            anchors[l] = evolve(anchors[l - 1], op, (n_k + 1) * dt)
            anchors[-l] = evolve(anchors[-(l - 1)], op, -(n_k + 1) * dt)
        basis = build_basis(ref8, n_k, n_l, dt, op)
        for idx, row in zip(basis.indices, basis.amplitudes, strict=True):
            expected = anchors[idx.l] if idx.k == 0 else evolve(anchors[idx.l], op, idx.k * dt)
            assert np.array_equal(row, expected.amplitudes)

    def test_bad_delta_t(self, ref8, evolution_8):
        with pytest.raises(QseError):
            build_basis(ref8, 1, 1, 0.0, evolution_8)

    def test_default_time_step(self, h_8):
        assert default_time_step(h_8) == pytest.approx(2 * np.pi / 25.6)


class TestAssembleMatrices:
    def test_overlap_diagonal_is_one(self, qse8):
        _, _, mats = qse8
        assert np.allclose(np.diag(mats.overlap), 1.0, atol=1e-12)

    def test_matrices_hermitian(self, qse8):
        _, _, mats = qse8
        assert np.max(np.abs(mats.overlap - mats.overlap.conj().T)) < 1e-12
        assert np.max(np.abs(mats.hamiltonian - mats.hamiltonian.conj().T)) < 1e-12

    def test_hoa_quadratic_convergence(self, ref8, h_8, evolution_8):
        basis = build_basis(ref8, 2, 2, default_time_step(h_8), evolution_8)
        exact = assemble_matrices(basis).hamiltonian
        kappa = gershgorin_kappa(h_8)
        errors = []
        for tau_kappa in (0.4, 0.2, 0.1):
            mats = assemble_matrices(basis, hoa_tau=tau_kappa / kappa)
            errors.append(np.max(np.abs(mats.hamiltonian - exact)))
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert 3.5 < hi / lo < 4.5

    def test_trotter_hoa_matches_two_direction_formula(self, ref8, h_8):
        # V(tau) alone, with <a|V(-tau)|b> = conj<b|V(tau)|a>, against both directions evolved
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=5)
        basis = build_basis(ref8, 2, 2, default_time_step(h_8), op)
        tau = 0.1 / gershgorin_kappa(h_8)
        phi = basis.amplitudes
        fwd = np.stack([evolve(StateVector(row, 8), op, tau).amplitudes for row in phi])
        bwd = np.stack([evolve(StateVector(row, 8), op, -tau).amplitudes for row in phi])
        two_way = (phi.conj() @ bwd.T - phi.conj() @ fwd.T) / (2j * tau)
        two_way = 0.5 * (two_way + two_way.conj().T)
        mats = assemble_matrices(basis, hoa_tau=tau)
        assert np.max(np.abs(mats.hamiltonian - mats.hamiltonian.conj().T)) == 0.0
        assert np.max(np.abs(mats.hamiltonian - two_way)) <= 1e-12

    def test_hoa_rejects_large_tau(self, ref8, h_8, evolution_8):
        basis = build_basis(ref8, 1, 1, default_time_step(h_8), evolution_8)
        kappa = gershgorin_kappa(h_8)
        with pytest.raises(QseError):
            assemble_matrices(basis, hoa_tau=1.5 / kappa)

    def test_hoa_rejects_tau_kappa_one(self, ref8, h_8, evolution_8):
        basis = build_basis(ref8, 1, 1, default_time_step(h_8), evolution_8)
        kappa = gershgorin_kappa(h_8)
        tau = 1.0 / kappa
        assert tau * kappa == 1.0
        with pytest.raises(QseError, match="tau\\*kappa = 1 outside"):
            assemble_matrices(basis, hoa_tau=tau)

    def test_hoa_requires_tau(self, ref8, evolution_8):
        basis = build_basis(ref8, 1, 1, 0.2, evolution_8)
        with pytest.raises(QseError, match="tau\\*kappa = 0 outside"):
            assemble_matrices(basis, hoa_tau=0.0)

    @pytest.mark.parametrize("mode", ["exact", "hoa"])
    @pytest.mark.parametrize("n_l, n_k", [(0, 0), (1, 2), (3, 3)])
    def test_toeplitz_matches_statevector_overlaps(self, h_8, evolution_8, n_l, n_k, mode):
        # exact evolution: S and H from the two autocorrelation sequences equal
        # the overlaps of the evolved statevectors, from any reference
        rng = np.random.default_rng(11)
        amps = rng.normal(size=256) + 1j * rng.normal(size=256)
        ref = StateVector(amps / np.linalg.norm(amps), 8)
        basis = build_basis(ref, n_k, n_l, default_time_step(h_8), evolution_8)
        tau = 0.1 / gershgorin_kappa(h_8) if mode == "hoa" else None
        mats = assemble_matrices(basis, tau)

        phi = basis_states(basis)
        if mode == "exact":
            h_phi = phi @ to_matrix(h_8).T
        else:
            fwd = np.stack([evolve(StateVector(row, 8), evolution_8, tau).amplitudes for row in phi])
            bwd = np.stack([evolve(StateVector(row, 8), evolution_8, -tau).amplitudes for row in phi])
            h_phi = (bwd - fwd) / (2j * tau)
        assert np.max(np.abs(mats.overlap - phi.conj() @ phi.T)) < 1e-12
        assert np.max(np.abs(mats.hamiltonian - phi.conj() @ h_phi.T)) < 1e-12

    @pytest.mark.parametrize("evolution_mode, applications", [("exact", 0), ("trotter2", 1)])
    def test_exact_basis_applies_nothing(self, ref8, h_8, monkeypatch, evolution_mode, applications):
        # exact evolution reads S and H off the spectral weights; a trotter2
        # basis, whose V_r(t) is no group in t, still applies H once per state
        basis = build_basis(ref8, 2, 1, default_time_step(h_8), EvolutionOperator(h_8, mode=evolution_mode))
        calls = {"apply_sum": 0, "evolve_stack": 0}
        for name in calls:
            original = getattr(qse, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(qse, name, counting)
        assemble_matrices(basis)
        assert calls == {"apply_sum": applications * len(basis), "evolve_stack": 0}

    def test_matrix_export(self, qse8):
        _, _, mats = qse8
        data = json.loads(json.dumps(mats.to_json_dict()))
        assert np.allclose(np.asarray(data["overlap_re"]), mats.overlap.real)


def _overlap_with_spectrum(spectrum, seed=0):
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * np.asarray(spectrum)) @ q.conj().T


class TestCanonicalOrthogonalization:
    SPECTRUM = [4.0, 1.0, 2e-3, 1e-9, 1e-15, 0.0]

    def test_kept_block_is_orthonormal(self):
        s_mat = _overlap_with_spectrum(self.SPECTRUM)
        x, s_eigs = canonical_orthogonalization(s_mat, threshold=1e-6)
        assert x.shape == (6, 3)
        assert np.max(np.abs(x.conj().T @ s_mat @ x - np.eye(3))) < 1e-12
        assert np.allclose(s_eigs, sorted(self.SPECTRUM), atol=1e-14)

    @pytest.mark.parametrize("threshold, kept", [(0.5, 1), (1e-2, 2), (1e-6, 3), (1e-12, 4)])
    def test_kept_count_follows_threshold(self, threshold, kept):
        x, s_eigs = canonical_orthogonalization(_overlap_with_spectrum(self.SPECTRUM), threshold)
        assert x.shape[1] == kept
        assert np.sum(s_eigs > threshold * s_eigs[-1]) == kept

    def test_zero_overlap_rejected(self):
        with pytest.raises(QseError, match="rank zero"):
            canonical_orthogonalization(np.zeros((3, 3), complex))

    def test_threshold_above_one_discards_everything(self):
        with pytest.raises(QseError, match="entire subspace"):
            canonical_orthogonalization(np.eye(2), threshold=1.0)

    def test_report_counts_and_condition_number(self, qse8):
        gs, _, mats = qse8
        report = gs.regularization_report
        s_eigs = np.asarray(report["s_eigenvalues"])
        kept = s_eigs > report["threshold"] * s_eigs[-1]
        assert (report["kept"], report["discarded"]) == (kept.sum(), (~kept).sum())
        assert report["kept"] + report["discarded"] == len(mats.overlap)
        assert report["condition_number"] == pytest.approx(s_eigs[-1] / s_eigs[kept].min())
        assert 1.0 <= report["condition_number"] < 1.0 / report["threshold"]


class TestSolveGroundState:
    def test_single_state_rayleigh_quotient(self, ref8, h_8):
        gs, basis, _ = prepare_qse_ground_state(ref8, h_8, 0, 0)
        assert gs.energy == pytest.approx(expectation(ref8, h_8), abs=1e-12)
        assert gs.coefficients.size == 1

    def test_mismatched_evolution_rejected(self, ref8, h0_8, h_8):
        with pytest.raises(QseError, match="evolution runs under a Hamiltonian other than h"):
            prepare_qse_ground_state(ref8, h_8, 1, 1, evolution=EvolutionOperator(h0_8))

    def test_coefficients_s_normalized(self, qse8):
        gs, _, mats = qse8
        s_norm = np.real(gs.coefficients.conj() @ mats.overlap @ gs.coefficients)
        assert s_norm == pytest.approx(1.0, abs=1e-10)

    def test_variational_bound(self, qse8, dec_8):
        gs, _, _ = qse8
        assert gs.energy >= dec_8.ground_energy - 1e-9

    def test_reconstructed_state_energy(self, qse8, h_8):
        gs, basis, _ = qse8
        state = reconstruct_state(gs, basis)
        assert state.norm() == pytest.approx(1.0, abs=1e-8)
        assert expectation(state, h_8) == pytest.approx(gs.energy, abs=1e-8)

    def test_exact_reconstruction_is_the_evolved_sum(self, qse8, evolution_8):
        # one spectral pass against sum_b c_b V(t_b)|ref>, each V(t_b) applied on
        # its own, with t_b = k dt + l (n_k + 1) dt on the (3, 3) grid
        gs, basis, _ = qse8
        explicit = np.zeros(256, dtype=complex)
        for c_b, idx in zip(gs.coefficients, basis.indices):
            t_b = (idx.k + 4 * idx.l) * basis.delta_t
            explicit += c_b * evolve(basis.reference, evolution_8, t_b).amplitudes
        assert np.max(np.abs(reconstruct_state(gs, basis).amplitudes - explicit)) <= 1e-12

    def test_exact_basis_holds_no_states(self, ref8, h_8):
        gs, basis, _ = prepare_qse_ground_state(ref8, h_8, 2, 1)
        reconstruct_state(gs, basis)
        assert basis.amplitudes is None and len(basis) == basis_size(2, 1)

    def test_regularization_threshold_stability(self, qse8):
        # well-conditioned instance: moving the discard threshold between
        # 1e-12 and 1e-10 shifts the energy by < 1e-8
        _, _, mats = qse8
        e_tight = solve_ground_state(mats, threshold=1e-12).energy
        e_loose = solve_ground_state(mats, threshold=1e-10).energy
        assert abs(e_tight - e_loose) < 1e-8

    def test_non_hermitian_rejected(self, qse8):
        _, _, mats = qse8
        bad = qse.SubspaceMatrices(mats.hamiltonian + 1j * np.eye(len(mats.overlap)), mats.overlap)
        with pytest.raises(QseError):
            solve_ground_state(bad)

    def test_rank_zero_rejected(self):
        zero = qse.SubspaceMatrices(np.zeros((2, 2), complex), np.zeros((2, 2), complex))
        with pytest.raises(QseError):
            solve_ground_state(zero)

    def test_perturbation_smoke(self, qse8, dec_8):
        gs, _, mats = qse8
        rng = np.random.default_rng(0)
        noisy = perturb_matrices(mats, sigma=1e-8, rng=rng)
        noisy_gs = solve_ground_state(noisy, threshold=1e-7, psd_tol=1e-6)
        assert abs(noisy_gs.energy - dec_8.ground_energy) < 1e-3


class TestEnergyCurves:
    def test_basis_shape_equivalence_n_phi_11(self, ref8, h_8, dec_8):
        energies = []
        for n_l, n_k in [(0, 5), (1, 2), (2, 1), (5, 0)]:
            gs, _, _ = prepare_qse_ground_state(ref8, h_8, n_k, n_l)
            energies.append(gs.energy)
        assert max(energies) - min(energies) < 1e-9

    def test_monotone_in_nested_bases(self, ref8, h_8, dec_8):
        # growing (n_l, n_k) jointly nests the spanned subspace
        prev = np.inf
        for n in range(4):
            gs, _, _ = prepare_qse_ground_state(ref8, h_8, n, n)
            assert gs.energy <= prev + 1e-9
            prev = gs.energy
        assert prev - dec_8.ground_energy < 1e-10

    def test_curve_rows(self, ref8, h_8, dec_8, evolution_8):
        shapes = sweep_shapes([(0, 0), (1, 1)], "exact", [1])
        rows = qse_energy_curve(deepest_subspaces(ref8, h_8, shapes), shapes, dec_8.ground_energy)
        assert [r["n_phi"] for r in rows] == [1, 7]
        assert all(r["mode"] == "exact" and r["r"] == 0 for r in rows)
        assert rows[1]["delta_e"] < rows[0]["delta_e"]

    def test_trotter_curve_improves_with_r(self, ref12, h_12, dec_12):
        shapes = sweep_shapes([(3, 3)], "trotter2", (1, 4))
        rows = qse_energy_curve(deepest_subspaces(ref12, h_12, shapes), shapes, dec_12.ground_energy)
        assert rows[0]["r"] == 1 and rows[1]["r"] == 4
        assert rows[1]["delta_e"] < rows[0]["delta_e"]


class TestNestedSubspaces:
    @pytest.mark.parametrize("mode,steps", [("exact", 1), ("trotter2", 1), ("trotter2", 5)])
    @pytest.mark.parametrize("n_k", range(4))
    def test_block_equals_separate_basis(self, ref8, h_8, mode, steps, n_k):
        op = EvolutionOperator(h_8, mode=mode, trotter_steps=steps)
        dt = default_time_step(h_8)
        deep = build_basis(ref8, n_k, 3, dt, op)
        deep_mats = assemble_matrices(deep)
        for n_l in range(4):
            sub, sub_mats = nested_subspace(deep, deep_mats, n_l)
            alone = build_basis(ref8, n_k, n_l, dt, op)
            alone_mats = assemble_matrices(alone)
            start = (3 - n_l) * (n_k + 1)
            block = slice(start, start + len(alone))
            assert sub.indices == alone.indices == deep.indices[block]
            assert (sub.amplitudes is None) == (alone.amplitudes is None) == (mode == "exact")
            assert np.array_equal(basis_states(sub), basis_states(alone))
            assert np.allclose(basis_states(deep)[block], basis_states(alone), rtol=0, atol=1e-13)
            for name in ("overlap", "hamiltonian"):
                assert np.max(np.abs(getattr(sub_mats, name) - getattr(alone_mats, name))) <= 1e-13
            energy = solve_ground_state(sub_mats).energy
            assert abs(energy - solve_ground_state(alone_mats).energy) <= 1e-10

    def test_trotter_block_is_a_slice(self, ref8, h_8):
        op = EvolutionOperator(h_8, mode="trotter2", trotter_steps=2)
        deep = build_basis(ref8, 2, 3, default_time_step(h_8), op)
        deep_mats = assemble_matrices(deep)
        sub, sub_mats = nested_subspace(deep, deep_mats, 1)  # 11 states after the 2 * 3 of |l| = 2, 3
        assert len(sub) == 11
        assert np.shares_memory(sub.amplitudes, deep.amplitudes)
        assert np.array_equal(sub.amplitudes, deep.amplitudes[6:17])
        assert np.array_equal(sub_mats.overlap, deep_mats.overlap[6:17, 6:17])
        assert nested_subspace(deep, deep_mats, 3) == (deep, deep_mats)

    def test_deeper_than_basis_rejected(self, qse8):
        _, basis, mats = qse8
        with pytest.raises(QseError, match="not nested"):
            nested_subspace(basis, mats, 4)

    def test_curve_keeps_row_order_and_energies(self, ref8, h_8, dec_8):
        # one basis per (r, n_k) serves every n_l, rows still in shape order
        pairs = [(1, 1), (0, 0), (2, 1), (0, 2)]
        shapes = sweep_shapes(pairs, "trotter2", (1, 3))
        subspaces = deepest_subspaces(ref8, h_8, shapes)
        depth = {0: 0, 1: 2, 2: 0}  # the largest n_l asked at each n_k
        assert sorted(subspaces) == [("trotter2", r, n_k) for r in (1, 3) for n_k in depth]
        for (_, _, n_k), (basis, _) in subspaces.items():
            assert len(basis) == basis_size(n_k, depth[n_k])
        rows = qse_energy_curve(subspaces, shapes, dec_8.ground_energy)
        assert [(r["n_l"], r["n_k"], r["r"]) for r in rows] == [
            (n_l, n_k, r) for n_l, n_k in pairs for r in (1, 3)
        ]
        for row in rows:
            gs, _, _ = prepare_qse_ground_state(
                ref8, h_8, row["n_k"], row["n_l"], evolution=EvolutionOperator(h_8, "trotter2", row["r"])
            )
            assert abs(row["energy"] - gs.energy) <= 1e-10
