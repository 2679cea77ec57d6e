import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevqse import greens, oracle
from kitaevqse import qse as qse_mod
from kitaevqse.greens import (
    GreensEngine,
    GreensError,
    KrylovBasisConfig,
    LanczosCoefficients,
    continued_fraction,
    dynamical_structure_factor,
    dynamical_structure_factor_ed,
    lanczos_iterate,
    normalize_intensity,
    retarded_gf,
)
from kitaevqse.pauli import apply_sum, pauli_sum, single_site
from kitaevqse.qse import SubspaceMatrices

from helpers import basis_states


def tridiagonal_resolvent(coeffs: LanczosCoefficients, z: complex) -> complex:
    """e0-element of (z - T)^-1 for the tridiagonal T; brute-force oracle."""
    m = coeffs.a.size
    t_mat = np.diag(coeffs.a.astype(complex))
    for n in range(1, m):
        t_mat[n - 1, n] = coeffs.b[n]
        t_mat[n, n - 1] = coeffs.b[n]
    resolvent = np.linalg.inv(z * np.eye(m) - t_mat)
    return complex(resolvent[0, 0])


class TestContinuedFraction:
    def test_depth_one_simple_pole(self):
        coeffs = LanczosCoefficients(a=[0.7], b=[0.0], termination_index=1)
        z = 1.3 + 0.2j
        assert continued_fraction(coeffs, z) == pytest.approx(1.0 / (z - 0.7))

    def test_semicircle_fixed_point(self):
        # constant coefficients a=0, b=1 at large depth converge to the
        # fixed point of G = 1/(z - G): the root of G^2 - z G + 1 = 0
        # inside the unit disk, i.e. (z -/+ sqrt(z^2 - 4)) / 2
        depth = 600
        coeffs = LanczosCoefficients(
            a=np.zeros(depth), b=np.concatenate([[0.0], np.ones(depth - 1)]), termination_index=depth
        )
        for z in (3.0 + 0.5j, -2.5 + 0.3j, 0.4 + 1.0j):
            root = np.sqrt(z**2 - 4.0 + 0j)
            candidates = [(z - root) / 2.0, (z + root) / 2.0]
            expected = min(candidates, key=abs)
            assert continued_fraction(coeffs, z) == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=8),
        st.floats(0.1, 2.0),
        st.floats(-3, 3),
    )
    def test_equals_tridiagonal_resolvent(self, a_list, delta, omega):
        rng = np.random.default_rng(len(a_list))
        b = np.concatenate([[0.0], rng.uniform(0.2, 1.5, len(a_list) - 1)])
        coeffs = LanczosCoefficients(a=np.array(a_list), b=b, termination_index=len(a_list))
        z = omega + 1j * delta
        cf = continued_fraction(coeffs, z)
        assert cf == pytest.approx(tridiagonal_resolvent(coeffs, z), abs=1e-10)

    def test_grid_evaluation_shape(self):
        coeffs = LanczosCoefficients(a=[0.0, 0.5], b=[0.0, 0.3], termination_index=2)
        z = np.linspace(-2, 2, 17) + 0.1j
        out = continued_fraction(coeffs, z)
        assert out.shape == z.shape

    def test_pole_hit_raises(self):
        coeffs = LanczosCoefficients(a=[0.5], b=[0.0], termination_index=1)
        with pytest.raises(GreensError):
            continued_fraction(coeffs, 0.5 + 0.0j)


def _toy_matrices(h_dense: np.ndarray) -> SubspaceMatrices:
    dim = h_dense.shape[0]
    return SubspaceMatrices(h_dense.astype(complex), np.eye(dim, dtype=complex))


class TestLanczosIterate:
    def test_zero_hamiltonian_terminates_immediately(self):
        mats = _toy_matrices(np.zeros((4, 4)))
        coeffs = lanczos_iterate(mats, np.array([1.0, 0, 0, 0]), kappa=1.0)
        assert coeffs.termination_index == 1
        assert coeffs.a[0] == pytest.approx(0.0)

    def test_eigenstate_seed_terminates_with_eigenvalue(self):
        mats = _toy_matrices(np.diag([0.3, -1.0, 2.0]))
        coeffs = lanczos_iterate(mats, np.array([0, 1.0, 0]), kappa=4.0)
        assert coeffs.termination_index == 1
        assert coeffs.a[0] == pytest.approx(-1.0)

    def test_reproduces_full_spectrum_resolvent(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(6, 6))
        mat = (mat + mat.T) / 2
        mats = _toy_matrices(mat)
        v0 = rng.normal(size=6)
        coeffs = lanczos_iterate(mats, v0, kappa=4.0)
        z = 0.9 + 0.35j
        evals, evecs = np.linalg.eigh(mat)
        weights = np.abs(evecs.T @ (v0 / np.linalg.norm(v0))) ** 2
        exact = np.sum(weights / (z - evals))
        assert continued_fraction(coeffs, z) == pytest.approx(exact, abs=1e-10)

    def test_negated_hamiltonian_flips_a(self):
        # the recursion for (-H, S) is the hole part: a -> -a, b unchanged
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(5, 5))
        mat = (mat + mat.T) / 2
        mats = _toy_matrices(mat)
        v0 = rng.normal(size=5)
        plus = lanczos_iterate(mats, v0, kappa=4.0)
        minus = lanczos_iterate(SubspaceMatrices(-mats.hamiltonian, mats.overlap), v0, kappa=4.0)
        assert np.allclose(plus.a, -minus.a, atol=1e-10)
        assert np.allclose(plus.b, minus.b, atol=1e-10)
        assert np.allclose(plus.hole().a, minus.a, atol=1e-10)
        assert plus.hole().termination_index == minus.termination_index

    def test_lesser_equals_greater_of_negated_matrix(self):
        # the greater part of (-H, S) and the hole part of (H, S) both evaluate <v|(z + H)^-1|v>
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(5, 5))
        mat = (mat + mat.T) / 2
        mats = _toy_matrices(mat)
        v0 = rng.normal(size=5)
        v0 /= np.linalg.norm(v0)
        negated = lanczos_iterate(SubspaceMatrices(-mats.hamiltonian, mats.overlap), v0, kappa=4.0)
        hole = lanczos_iterate(mats, v0, kappa=4.0).hole()
        z = 0.4 + 0.7j
        exact = v0 @ np.linalg.inv(z * np.eye(5) + mat) @ v0
        assert continued_fraction(negated, z) == pytest.approx(exact, abs=1e-10)
        assert continued_fraction(hole, z) == pytest.approx(exact, abs=1e-10)

    def test_stop_reason(self):
        # an eigenstate seed exhausts its Krylov space at once; a generic seed runs to the rank of S
        eigen = lanczos_iterate(_toy_matrices(np.diag([0.3, -1.0, 2.0])), np.array([0, 1.0, 0]), kappa=4.0)
        rng = np.random.default_rng(6)
        mat = rng.normal(size=(6, 6))
        full = lanczos_iterate(_toy_matrices((mat + mat.T) / 2), rng.normal(size=6), kappa=4.0)
        assert eigen.stop_reason == "b2_tol"
        assert (full.stop_reason, full.termination_index) == ("rank", 6)
        assert full.to_json_dict()["stop_reason"] == "rank"
        assert full.hole().stop_reason == "rank"

    @pytest.mark.parametrize("kind, site", [("Z", 0), ("X", 3), ("Y", 6)])
    def test_s_rank_bounds_the_depth(self, engine8, kind, site):
        # the recursion stops at "rank" exactly when its depth reaches the kept S directions,
        # and the hole part and the dump carry the same rank
        runs = [
            lanczos_iterate(_toy_matrices(np.diag([0.3, -1.0, 2.0])), np.array([0, 1.0, 0]), kappa=4.0),
            engine8.recursion(pauli_sum([single_site(kind, site, 8)], 8))[0],
        ]
        for coeffs in (*runs, *(run.hole() for run in runs)):
            assert 1 <= coeffs.termination_index <= coeffs.s_rank
            assert (coeffs.stop_reason == "rank") == (coeffs.termination_index == coeffs.s_rank)
            assert coeffs.to_json_dict()["s_rank"] == coeffs.s_rank
        assert runs[0].s_rank == 3 and runs[0].stop_reason == "b2_tol"

    def test_spectrum_within_hamiltonian_bounds(self, engine8, dec_8):
        excitation = pauli_sum([single_site("Z", 0, 8)], 8)
        _, psi_mats, psi0, _ = engine8.seed_subspace(excitation)
        coeffs = lanczos_iterate(psi_mats, psi0, kappa=engine8.kappa, keep_vectors=True)
        t_mat = np.diag(coeffs.a)
        for n in range(1, coeffs.a.size):
            t_mat[n - 1, n] = t_mat[n, n - 1] = coeffs.b[n]
        ritz = np.linalg.eigvalsh(t_mat)
        assert ritz[0] >= dec_8.eigenvalues[0] - 1e-8
        assert ritz[-1] <= dec_8.eigenvalues[-1] + 1e-8

    def test_krylov_vectors_s_orthonormal(self, engine8):
        excitation = pauli_sum([single_site("Z", 1, 8)], 8)
        _, psi_mats, psi0, _ = engine8.seed_subspace(excitation)
        coeffs = lanczos_iterate(psi_mats, psi0, kappa=engine8.kappa, keep_vectors=True)
        vecs = coeffs.vectors
        gram = vecs.conj().T @ psi_mats.overlap @ vecs
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-6

    def test_iteration_bounded_by_basis_dimension(self, engine8):
        excitation = pauli_sum([single_site("X", 2, 8)], 8)
        psi_basis, psi_mats, psi0, _ = engine8.seed_subspace(excitation)
        coeffs = lanczos_iterate(psi_mats, psi0, kappa=engine8.kappa)
        assert coeffs.termination_index <= len(psi_basis)

    def test_coefficient_dump(self):
        coeffs = LanczosCoefficients(a=[0.1, 0.2], b=[0.0, 0.5], termination_index=2)
        data = json.loads(json.dumps(coeffs.to_json_dict()))
        assert data["a"] == [0.1, 0.2]
        assert data["termination_index"] == 2
        assert data["s_rank"] is None  # set by lanczos_iterate, absent from hand-built coefficients

    def test_nonzero_b0_rejected(self):
        with pytest.raises(GreensError, match="b\\[0\\] = 0"):
            LanczosCoefficients(a=[0.1], b=[0.3], termination_index=1)


class TestSeedPoles:
    @pytest.mark.parametrize("mode", [("exact", 1), ("trotter2", 2)])
    @pytest.mark.parametrize("sites", [[0], [3], [1, 4]])
    def test_pole_sum_equals_the_subspace_resolvent(self, h_8, qse8, mode, sites):
        # <y|(z - H)^-1|y> + <y|(z + H)^-1|y> solved directly on the S-orthonormalized subspace,
        # H there hermitized (its anti-Hermitian part is roundoff), y = X^dag S psi0 normalized,
        # times the squared seed norm
        gs, basis, _ = qse8
        engine = GreensEngine(h_8, gs, basis, KrylovBasisConfig(3, 3, *mode))
        excitation = pauli_sum([single_site("X", s, 8) for s in sites], 8)
        (seed,) = engine.solved_seeds([excitation])
        transform, _ = qse_mod.canonical_orthogonalization(seed.matrices.overlap, greens.LANCZOS_S_THRESHOLD)
        h_ortho = transform.conj().T @ seed.matrices.hamiltonian @ transform
        h_ortho = (h_ortho + h_ortho.conj().T) / 2
        y = transform.conj().T @ seed.matrices.overlap @ seed.psi0
        y /= np.linalg.norm(y)
        eye = np.eye(y.size)
        z = np.linspace(-9.0, 9.0, 37) + 0.1j
        brute = seed.norm_sq * np.array([
            np.vdot(y, np.linalg.solve(w * eye - h_ortho, y)) + np.vdot(y, np.linalg.solve(w * eye + h_ortho, y))
            for w in z
        ])
        assert np.max(np.abs(engine.correlator(excitation, z) - brute)) <= 1e-12 * np.max(np.abs(brute))

    def test_poles_come_in_signed_pairs_of_equal_weight(self, engine8):
        (seed,) = engine8.solved_seeds([pauli_sum([single_site("Y", 2, 8)], 8)])
        half = seed.poles.size // 2
        assert np.array_equal(seed.poles[half:], -seed.poles[:half])
        assert np.array_equal(seed.weights[half:], seed.weights[:half])
        # the particle weights sum to the squared seed norm: the seed lies in its own subspace
        assert np.sum(seed.weights[:half]) == pytest.approx(seed.norm_sq, rel=1e-12)

    def test_a_z_on_a_pole_raises(self, engine8):
        excitation = pauli_sum([single_site("Y", 2, 8)], 8)
        (seed,) = engine8.solved_seeds([excitation])
        with pytest.raises(GreensError, match="pole"):
            engine8.correlator(excitation, seed.poles[:1] + 0j)


class TestKrylovSeed:
    def test_foreign_ground_state_rejected(self, qse8, h_8, h0_8):
        # qse8's basis evolves under h_8: seeds grown under h0_8 from it would mix two Hamiltonians
        gs, basis, _ = qse8
        cfg = KrylovBasisConfig(tilde_n_k=1, tilde_n_l=1)
        with pytest.raises(GreensError, match="Hamiltonian other than the engine's"):
            GreensEngine(h0_8, gs, basis, cfg)
        assert GreensEngine(h_8, gs, basis, cfg).num_sites == 8

    def test_trivial_single_state_basis(self, qse8, h_8):
        gs, basis, _ = qse8
        cfg = KrylovBasisConfig(tilde_n_k=0, tilde_n_l=0)
        engine = GreensEngine(h_8, gs, basis, cfg)
        excitation = pauli_sum([single_site("Z", 0, 8)], 8)
        psi_basis, _, psi0, _ = engine.seed_subspace(excitation)
        assert len(psi_basis) == 1
        assert psi0.shape == (1,)
        assert abs(psi0[0]) == pytest.approx(1.0, abs=1e-8)

    def test_seed_snorm_is_unit_for_pauli(self, engine8):
        excitation = pauli_sum([single_site("Z", 3, 8)], 8)
        _, psi_mats, psi0, norm_sq = engine8.seed_subspace(excitation)
        assert norm_sq == pytest.approx(1.0, abs=1e-12)
        s_norm = np.real(psi0.conj() @ psi_mats.overlap @ psi0)
        # psi0 picks the normalized seed state out of the basis; its S-norm
        # is that state's computed norm, one up to a few roundoff units
        assert np.sqrt(s_norm) == pytest.approx(1.0, abs=1e-6)

    def test_reconstructed_seed_matches_statevector(self, engine8, qse8):
        gs, basis, _ = qse8
        excitation = pauli_sum([single_site("Z", 0, 8)], 8)
        psi_basis, _, psi0, _ = engine8.seed_subspace(excitation)
        from kitaevqse.pauli import apply_term

        direct = apply_term(single_site("Z", 0, 8), engine8.ground_state().amplitudes)
        rebuilt = basis_states(psi_basis).T @ psi0
        # the seed is basis state (0, 0) itself, not a projection onto the span
        assert np.linalg.norm(rebuilt - direct) < 1e-12
        unit = np.zeros(len(psi_basis))
        unit[psi_basis.reference_row] = 1.0
        assert np.array_equal(psi0, unit)


class TestRetardedGf:
    def test_against_ed_diagonal(self, engine8, dec_8):
        omega = np.linspace(-10, 10, 81)
        gf = retarded_gf(engine8, 0, 0, "Z", omega, 0.1)
        c = single_site("Z", 0, 8)
        exact = oracle.exact_resolvent_gf(dec_8, c, c, omega + 0.1j)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(gf - exact)) / scale < 0.01

    def test_against_ed_offdiagonal(self, engine8, dec_8):
        omega = np.linspace(-10, 10, 81)
        gf = retarded_gf(engine8, 0, 1, "Z", omega, 0.1)
        c0, c1 = single_site("Z", 0, 8), single_site("Z", 1, 8)
        exact = oracle.exact_resolvent_gf(dec_8, c0, c1, omega + 0.1j)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(gf - exact)) / scale < 0.01

    def test_diagonal_collapse_identity(self, engine8):
        # G+ seeded with 2*c_a reduces the polarization identity to G_aa
        omega = np.linspace(-5, 5, 21)
        z = omega + 0.1j
        doubled = pauli_sum([single_site("Z", 0, 8, 2.0)], 8)
        plus = engine8.correlator(doubled, z)
        diag = engine8.diagonal_gf("Z", 0, z)
        assert np.max(np.abs((plus - 2 * diag) / 2 - diag)) < 1e-8

    def test_diagonal_cache_keys_on_whole_grid(self, engine8):
        # same size and endpoints, different interior: no stale cache hit
        first = np.linspace(-5, 5, 11) + 0.1j
        second = first.copy()
        second[1:-1] += 0.3
        values_first = engine8.diagonal_gf("X", 3, first)
        values_second = engine8.diagonal_gf("X", 3, second)
        fresh = engine8.correlator(pauli_sum([single_site("X", 3, 8)], 8), second)
        assert np.max(np.abs(values_second - values_first)) > 1e-3
        assert np.max(np.abs(values_second - fresh)) < 1e-12

    def test_one_recursion_per_seed(self, h_8, qse8, monkeypatch):
        gs, basis, _ = qse8
        engine = GreensEngine(h_8, gs, basis, KrylovBasisConfig(tilde_n_k=2, tilde_n_l=2))
        calls = []
        original = greens.seed_poles

        def counting(*args, **kwargs):
            calls.append(args[1].size)
            return original(*args, **kwargs)

        monkeypatch.setattr(greens, "seed_poles", counting)
        z = np.linspace(-5, 5, 11) + 0.1j
        excitation = pauli_sum([single_site("X", 5, 8)], 8)
        first = engine.correlator(excitation, z)
        assert len(calls) == 1  # particle and hole part from one pole solve
        again = engine.correlator(excitation, z)
        engine.correlator(excitation, z + 0.5)
        assert len(calls) == 1  # the same seed reuses its poles on any grid
        assert np.array_equal(first, again)

    def test_swapped_pair_runs_no_new_seed(self, h_8, qse8, monkeypatch):
        # sigma_a + sigma_b is seeded in ascending site order: G_ba after G_ab requests no seed,
        # and reads the same recursion as an engine that ran G_ba first
        gs, basis, _ = qse8
        config = KrylovBasisConfig(tilde_n_k=2, tilde_n_l=2)
        requests = []
        original = GreensEngine.seed_subspaces
        monkeypatch.setattr(GreensEngine, "seed_subspaces",
                            lambda self, excitations: requests.append(len(excitations)) or original(self, excitations))
        z = np.linspace(-5, 5, 11) + 0.1j
        engine = GreensEngine(h_8, gs, basis, config)
        engine.offdiagonal_gf("Z", 1, 4, z)
        assert requests == [3]
        swapped = engine.offdiagonal_gf("Z", 4, 1, z)
        assert requests == [3]
        assert np.array_equal(swapped, GreensEngine(h_8, gs, basis, config).offdiagonal_gf("Z", 4, 1, z))
        assert greens.pair_excitation("Z", 4, 1, 8) == greens.pair_excitation("Z", 1, 4, 8)

    def test_offdiagonal_requires_distinct_sites(self, engine8):
        with pytest.raises(GreensError):
            engine8.offdiagonal_gf("Z", 2, 2, np.array([0.1j]))

    def test_delta_must_be_positive(self, engine8):
        with pytest.raises(GreensError):
            retarded_gf(engine8, 0, 1, "Z", np.linspace(-1, 1, 5), 0.0)

    def test_im_diagonal_nonpositive(self, engine8):
        omega = np.linspace(-10, 10, 51)
        values = engine8.diagonal_gf("Y", 4, omega + 0.1j)
        assert np.all(np.imag(values) <= 1e-10)

    def test_annihilating_excitation_raises(self, engine8):
        # c_a + c_b with c_b = -c_a cancels exactly
        combo = pauli_sum(
            [single_site("Z", 0, 8, 1.0), single_site("Z", 0, 8, -1.0)], 8
        )
        with pytest.raises(GreensError):
            engine8.correlator(combo, np.array([0.1j]))


class TestDsf:
    def test_qse_vs_ed_small_grid(self, engine8, h_8, lat8, dec_8):
        omega = np.linspace(-9, 9, 61)
        s_qse = dynamical_structure_factor(engine8, lat8.positions, np.zeros(2), omega, 0.1)
        s_ed = dynamical_structure_factor_ed(dec_8, 8, omega, 0.1)
        nq, ne = normalize_intensity(s_qse), normalize_intensity(s_ed)
        assert np.max(np.abs(nq - ne)) < 0.05

    def test_qse_vs_ed_nonzero_q(self, engine8, lat8, dec_8):
        omega = np.linspace(-9, 9, 61)
        q = np.array([1.0, 0.0])
        s_qse = dynamical_structure_factor(engine8, lat8.positions, q, omega, 0.1)
        s_ed = dynamical_structure_factor_ed(dec_8, 8, omega, 0.1, positions=lat8.positions, q=q)
        nq, ne = normalize_intensity(s_qse), normalize_intensity(s_ed)
        assert np.max(np.abs(nq - ne)) < 0.05

    def test_ed_collective_equals_pairwise_lehmann_sum(self, lat8, dec_8):
        # (1/N) sum_mu Im sum_ij exp(-i q.(r_i - r_j)) G_ij from single-site ED pairs
        omega = np.linspace(-9, 9, 31)
        z = omega + 0.1j
        q = np.array([1.0, -0.5])
        pos = lat8.positions
        pairwise = np.zeros(omega.size)
        for kind in "XYZ":
            total = np.zeros(omega.size, dtype=complex)
            for i in range(8):
                for j in range(8):
                    g_ij = oracle.exact_resolvent_gf(
                        dec_8, single_site(kind, i, 8), single_site(kind, j, 8), z
                    )
                    total += np.exp(-1j * q @ (pos[i] - pos[j])) * g_ij
            pairwise += np.imag(total) / 8
        collective = dynamical_structure_factor_ed(dec_8, 8, omega, 0.1, positions=pos, q=q)
        assert np.max(np.abs(collective - pairwise)) < 1e-10 * np.max(np.abs(pairwise))

    def test_ed_kinds_share_one_lehmann_sum(self, lat8, dec_8):
        # summing the kinds' weights before the resolvent changes nothing but the
        # cost: compare with one particle and one hole Lehmann sum per kind
        omega = np.linspace(-9, 9, 31)
        z = omega + 0.1j
        q = np.array([1.0, -0.5])
        pos = lat8.positions
        gs, evecs, evals = dec_8.ground_vector(), dec_8.eigenvectors, dec_8.eigenvalues
        per_kind = np.zeros(omega.size)
        for kind in "XYZ":
            seeded = apply_sum(greens._collective_excitation(kind, pos, q), gs)
            weights = np.abs(evecs.conj().T @ seeded) ** 2
            resolvent = (weights / (z[:, None] - evals)).sum(axis=1) + (weights / (z[:, None] + evals)).sum(axis=1)
            per_kind += np.imag(resolvent) / 8
        together = dynamical_structure_factor_ed(dec_8, 8, omega, 0.1, positions=pos, q=q)
        assert np.max(np.abs(together - per_kind)) <= 1e-12

    def test_ed_nonzero_q_needs_positions(self, dec_8):
        with pytest.raises(GreensError, match="positions"):
            dynamical_structure_factor_ed(dec_8, 8, np.zeros(3), 0.1, q=(1.0, 0.0))

    def test_one_correlator_per_kind(self, h_8, qse8, lat8, monkeypatch):
        # per kind one collective seed over all 8 sites, solved once; per call one Lehmann sum
        gs, basis, _ = qse8
        requests, solves, sums = [], [], []
        build, solve, lehmann = GreensEngine.seed_subspaces, greens.seed_poles, oracle.lehmann_sum
        monkeypatch.setattr(GreensEngine, "seed_subspaces",
                            lambda self, excitations: requests.append(list(map(len, excitations))) or build(
                                self, excitations))
        monkeypatch.setattr(greens, "seed_poles", lambda *args: solves.append(1) or solve(*args))
        monkeypatch.setattr(oracle, "lehmann_sum", lambda *args: sums.append(args[1].size) or lehmann(*args))
        omega = np.linspace(-5, 5, 11)
        for kinds in ("XYZ", "Z"):
            requests.clear(), solves.clear(), sums.clear()
            engine = GreensEngine(h_8, gs, basis, KrylovBasisConfig(tilde_n_k=3, tilde_n_l=3))
            dynamical_structure_factor(engine, lat8.positions, np.zeros(2), omega, 0.1, kinds=kinds)
            assert requests == [[8] * len(kinds)]
            assert len(solves) == len(kinds)
            assert len(sums) == 1
            seeds = engine.solved_seeds([greens._collective_excitation(k, lat8.positions, np.zeros(2)) for k in kinds])
            assert sums == [sum(seed.poles.size for seed in seeds)]  # every kind's +-poles

    def test_collective_excitation_built_once_per_input(self, engine8, lat8, dec_8, monkeypatch):
        # A_q, and with it its compiled grouped action, is built once per (kind, positions, q):
        # the QSE and ED sides and every later call read the same sum
        builds = []
        build = greens.pauli_sum
        monkeypatch.setattr(greens, "pauli_sum", lambda terms, n: builds.append(n) or build(terms, n))
        pos, q = lat8.positions + 0.125, np.array([0.5, 0.25])  # inputs no other test uses
        omega = np.linspace(-5, 5, 11)
        for _ in range(2):
            dynamical_structure_factor(engine8, pos, q, omega, 0.1)
            dynamical_structure_factor_ed(dec_8, 8, omega, 0.1, positions=pos, q=q)
        assert builds == [8, 8, 8]
        first = greens._collective_excitation("Z", pos, q)
        assert greens._collective_excitation("Z", pos.copy(), q.tolist()) is first
        # keyed on the whole input: a change in any entry builds anew
        moved = pos.copy()
        moved[-1, -1] = np.nextafter(moved[-1, -1], 1.0)
        assert greens._collective_excitation("Z", moved, q) != first
        assert greens._collective_excitation("Z", pos, np.nextafter(q, 1.0)) != first
        assert len(builds) == 5

    def test_ed_dsf_sign(self, dec_8):
        omega = np.linspace(-9, 9, 41)
        s_ed = dynamical_structure_factor_ed(dec_8, 8, omega, 0.1)
        assert np.all(s_ed <= 1e-12)

    def test_dsf_site_equivalence_under_translation(self, engine8, dec_8):
        # all sites of the 2x2 torus are equivalent up to lattice symmetry,
        # verified on the ED side: diagonal weights agree site by site
        omega = np.linspace(-6, 6, 31)
        z = omega + 0.1j
        curves = []
        for site in range(8):
            c = single_site("Z", site, 8)
            curves.append(oracle.exact_resolvent_gf(dec_8, c, c, z))
        for curve in curves[1:]:
            assert np.max(np.abs(curve - curves[0])) < 1e-10

    def test_normalize_intensity_bounds(self):
        rng = np.random.default_rng(5)
        table = rng.normal(size=(7, 11))
        normed = normalize_intensity(table)
        assert normed.min() == pytest.approx(0.0)
        assert normed.max() == pytest.approx(1.0)

    def test_normalize_constant_table(self):
        table = np.full((3, 4), 2.5)
        assert np.all(normalize_intensity(table) == 0.0)


class TestSharedSeedStacks:
    """The seeds of one Green's-function call grow through shared trotter2 stacks: tilde_n_l
    coarse levels and one fine stack in all, where one seed at a time took that per seed."""

    @staticmethod
    def engine(h_8, qse8):
        gs, basis, _ = qse8
        return GreensEngine(h_8, gs, basis, KrylovBasisConfig(3, 3, "trotter2", 2))

    @staticmethod
    def counted_stacks(monkeypatch):
        stacks = []
        original = qse_mod.evolve_stack
        monkeypatch.setattr(qse_mod, "evolve_stack", lambda op, stack, times: stacks.append(len(times)) or original(
            op, stack, times))
        return stacks

    def test_dsf_field(self, h_8, qse8, lat8, monkeypatch):
        omega = np.linspace(-6.0, 6.0, 25)
        alone = self.engine(h_8, qse8)
        seeds = [alone.solved_seeds([greens._collective_excitation(kind, lat8.positions, np.zeros(2))])[0]
                 for kind in "XYZ"]  # one seed at a time
        weights, poles = (np.concatenate([getattr(seed, name) for seed in seeds]) for name in ("weights", "poles"))
        stacks = self.counted_stacks(monkeypatch)
        shared = dynamical_structure_factor(self.engine(h_8, qse8), lat8.positions, np.zeros(2), omega, 0.1)
        assert len(stacks) == 3 + 1  # tilde_n_l + 1; one seed at a time made 3 (3 + 1)
        assert stacks[:3] == [6, 6, 6]  # three seeds' +-l anchors per level
        assert np.array_equal(shared, np.imag(oracle.lehmann_sum(weights, poles, omega + 0.1j)) / 8)

    def test_pair_gf(self, h_8, qse8, monkeypatch):
        z = np.linspace(-6.0, 6.0, 25) + 0.1j
        alone = self.engine(h_8, qse8)
        for sites in ([0, 1], [0], [1]):
            alone.solved_seeds([pauli_sum([single_site("Z", s, 8) for s in sites], 8)])  # one seed at a time
        stacks = self.counted_stacks(monkeypatch)
        engine = self.engine(h_8, qse8)
        shared = engine.offdiagonal_gf("Z", 0, 1, z)
        assert len(stacks) == 3 + 1
        assert np.array_equal(shared, alone.offdiagonal_gf("Z", 0, 1, z))
        engine.offdiagonal_gf("Z", 0, 1, z + 0.5)
        assert len(stacks) == 3 + 1  # the engine reuses every seed's poles on any grid
