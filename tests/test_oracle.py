import dataclasses
import gc
import weakref

import numpy as np
import pytest

from kitaevqse import oracle
from kitaevqse.oracle import OracleError, diagonalize, exact_resolvent_gf
from kitaevqse.pauli import PauliTerm, apply_sum, commutes, multiply, pauli_sum, single_site, to_matrix, two_site

from helpers import batched_sector_minima, dense_matrix, z_blocked_factorization

# frozen at the first verified run of this module; the ground energy of
# the 2x2 torus at zero field is -4*sqrt(3)
E0_N8_J_MINUS1 = -6.928203230275509
E0_N8_J_MINUS1_HZ01 = -7.0345243183958


class TestDiagonalize:
    def test_single_z(self):
        dec = diagonalize(pauli_sum([single_site("Z", 0, 1)], 1))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_commuting_terms_sum_spectra(self):
        h = pauli_sum([single_site("Z", 0, 2, 0.5), single_site("Z", 1, 2, 0.2)], 2)
        dec = diagonalize(h)
        assert np.allclose(sorted(dec.eigenvalues), sorted([0.7, 0.3, -0.3, -0.7]))

    def test_frozen_kitaev_fixture_values(self, dec0_8, dec_8):
        assert dec0_8.ground_energy == pytest.approx(E0_N8_J_MINUS1, abs=1e-10)
        assert dec0_8.ground_degeneracy == 1
        assert dec_8.ground_energy == pytest.approx(E0_N8_J_MINUS1_HZ01, abs=1e-10)
        assert dec_8.ground_degeneracy == 1

    def test_eigen_residuals(self, h0_8, dec0_8):
        mat = to_matrix(h0_8)
        for k in (0, 17, 101, 255):
            v = dec0_8.eigenvectors[:, k]
            residual = np.linalg.norm(mat @ v - dec0_8.eigenvalues[k] * v)
            assert residual < 1e-10

    def test_orthonormal_columns(self, dec0_8):
        gram = dec0_8.eigenvectors.conj().T @ dec0_8.eigenvectors
        assert np.max(np.abs(gram - np.eye(256))) < 1e-10

    def test_degeneracy_detection(self):
        # two decoupled spins with equal fields: middle levels degenerate,
        # ground level unique
        h = pauli_sum([single_site("Z", 0, 2, 1.0), single_site("Z", 1, 2, 1.0)], 2)
        dec = diagonalize(h)
        assert dec.ground_degeneracy == 1
        assert np.sum(np.abs(dec.eigenvalues) < 1e-12) == 2

    def test_cap(self, no_blocks):
        # a 15-site XX chain in a Z field keeps only the parity: one identity-frame sector
        # of 2 blocks of 2^14 states, 2^29 entries
        with pytest.raises(OracleError, match="15 sites: 536870912 stacked entries exceed the dense cap 268435456"):
            diagonalize(_xx_chain(15))
        assert no_blocks == []

    def test_cap_admits_every_14_site_sum(self, no_blocks):
        # X and Z on every site leave no symmetry: one 2^14 block, exactly the cap, is admitted
        h = pauli_sum([single_site(axis, i, 14) for i in range(14) for axis in "XZ"], 14)
        with pytest.raises(AssertionError, match="symmetry_blocks reached"):
            diagonalize(h)
        assert len(no_blocks) == 1

    def test_non_hermitian_rejected(self):
        with pytest.raises(OracleError):
            diagonalize(pauli_sum([single_site("Z", 0, 1, 1j)], 1))

    def test_topological_degeneracy_n12(self, dec0_12):
        assert dec0_12.ground_degeneracy == 4


def _chain8(bond_axes: str, extra: tuple[str, ...] = (), seed: int = 0):
    """Open 8-site chain of ``bond_axes`` bonds in a Z field, random couplings.

    Every bond flips two neighbours, so the flip masks have rank 7 and the
    global Z parity is the one symmetry; an ``extra`` term with one X on
    an end site breaks it.
    """
    rng = np.random.default_rng(seed)
    terms = []
    for i in range(7):
        axes = ["I"] * 8
        axes[i], axes[i + 1] = bond_axes
        terms.append(PauliTerm(rng.normal(), "".join(axes)))
    terms += [single_site("Z", i, 8, rng.normal()) for i in range(8)]
    terms += [PauliTerm(rng.normal(), axes) for axes in extra]
    return pauli_sum(terms, 8)


class TestSymmetryBlocks:
    @pytest.mark.parametrize("case, symmetries", [
        ("kitaev", 2), ("xx_chain", 1), ("xx_chain_x_end", 0), ("xy_chain_complex", 1),
    ])
    def test_blocked_matches_unblocked(self, h_8, case, symmetries):
        h = {
            "kitaev": h_8,
            "xx_chain": _chain8("XX"),
            "xx_chain_x_end": _chain8("XX", ("XIIIIIII",)),
            "xy_chain_complex": _chain8("XY"),  # one Y per bond: imaginary matrix elements
        }[case]
        assert len(oracle.symmetry_blocks(h)) == 2**symmetries
        mat = to_matrix(h)
        if case == "xy_chain_complex":
            assert np.max(np.abs(mat.imag)) > 0.1
        ref_evals, ref_evecs = np.linalg.eigh(mat)
        dec = diagonalize(h)
        assert np.all(np.abs(dec.eigenvalues - ref_evals) <= 1e-12 * np.maximum(1.0, np.abs(ref_evals)))
        assert np.max(np.abs(mat @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues)) < 1e-11
        g = dec.ground_degeneracy
        blocked = dec.ground_space() @ dec.ground_space().conj().T
        unblocked = ref_evecs[:, :g] @ ref_evecs[:, :g].conj().T
        assert np.max(np.abs(blocked - unblocked)) < 1e-10

    def test_kitaev_block_sizes(self, h_8, h_12):
        blocks8 = oracle.symmetry_blocks(h_8)
        assert [b.size for b in blocks8] == [64] * 4
        assert [b.size for b in oracle.symmetry_blocks(h_12)] == [2048] * 2
        assert np.array_equal(np.sort(np.concatenate(blocks8)), np.arange(256))
        mat = to_matrix(h_8)
        for i, rows in enumerate(blocks8):
            for j, cols in enumerate(blocks8):
                if i != j:
                    assert not np.any(mat[np.ix_(rows, cols)])

    @pytest.mark.parametrize("cells", [(2, 2), (3, 2), (4, 2)])
    @pytest.mark.parametrize("field", [0.0, 0.1, [0.3, 0.0, 0.3]], ids=["h0", "field_z", "tilted"])
    def test_every_flip_maps_each_block_onto_itself(self, cells, field):
        # trotter2 V(t) runs every block in the local order of block 0: block b is the coset
        # block_b[0] ^ block 0, in that order, and every term's flip permutes each block
        from kitaevqse.lattice import build_lattice, kitaev_hamiltonian

        h = kitaev_hamiltonian(build_lattice(*cells), -1.0, field)
        blocks = oracle.symmetry_blocks(h)
        assert len(blocks) == (1 if isinstance(field, list) else {8: 4, 12: 2, 16: 4}[h.num_sites])
        for block in blocks:
            assert np.array_equal(block[0] ^ blocks[0], block)
            for term in h.terms:
                assert np.array_equal(np.sort(term.action[0][block]), block)

    def test_degenerate_ground_space_needs_explicit_vector(self):
        from kitaevqse import cli, greens

        # ZZ on two sites: |01> and |10> share the ground energy -1
        dec = diagonalize(pauli_sum([two_site("Z", 0, 1, 2)], 2))
        assert dec.ground_degeneracy == 2
        c = single_site("X", 0, 2)
        z = np.array([0.5 + 0.1j])
        with pytest.raises(OracleError, match="2-fold degenerate"):
            exact_resolvent_gf(dec, c, c, z)
        with pytest.raises(OracleError, match="2-fold degenerate"):
            greens.dynamical_structure_factor_ed(dec, 2, np.zeros(3), 0.1)
        chosen = dec.ground_space()[:, 1]
        assert np.all(np.isfinite(exact_resolvent_gf(dec, c, c, z, ground_vector=chosen)))
        assert OracleError in cli._EXIT_2_ERRORS


class TestProjectExpand:
    """project/expand against a dense eigh reference, in gauge-free form: the
    eigenvectors of a degenerate level are defined only up to a unitary."""

    @pytest.fixture(params=["kitaev_8", "kitaev_12", "kitaev0_8", "xy_chain_complex", "xx_chain_x_end"])
    def case(self, request):
        if request.param.startswith("kitaev"):
            h = request.getfixturevalue(request.param.replace("kitaev", "h"))  # h_8, h_12 or h0_8
        elif request.param == "xy_chain_complex":
            h = _chain8("XY")  # a complex stack
        else:
            h = _chain8("XX", ("XIIIIIII",))  # one block
        return request.param, h, diagonalize(h)

    def test_round_trips_and_eigen_relation(self, case):
        name, h, dec = case
        rng = np.random.default_rng(3)
        dim = 1 << h.num_sites
        v = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        coords = dec.project(v)
        assert coords.shape == v.shape
        assert np.max(np.abs(dec.expand(coords) - v)) < 1e-12 * np.sqrt(dim)
        assert np.max(np.abs(dec.project(dec.expand(coords)) - coords)) < 1e-12 * np.sqrt(dim)
        h_v = np.stack([apply_sum(h, row) for row in v])  # the matrix-free H, no factorization
        scale = np.max(np.abs(dec.eigenvalues)) * np.sqrt(dim)
        assert np.max(np.abs(dec.project(h_v) - dec.eigenvalues * coords)) < 1e-12 * scale
        assert np.allclose(dec.project(v[0]), coords[0], rtol=0, atol=1e-15 * np.sqrt(dim))
        if name == "kitaev_12":
            return  # a dense 4096 x 4096 eigh: about 19 s and 0.9 GB at one BLAS thread, 2-core host
        ref_evals, ref_evecs = np.linalg.eigh(to_matrix(h))
        assert np.max(np.abs(dec.eigenvalues - ref_evals)) < 1e-12 * max(1.0, np.max(np.abs(ref_evals)))
        for t in (0.0, 0.7):
            evolved = dec.expand(np.exp(-1j * t * dec.eigenvalues) * coords)
            reference = (np.exp(-1j * t * ref_evals) * (v.conj() @ ref_evecs).conj()) @ ref_evecs.T
            assert np.max(np.abs(evolved - reference)) < 1e-12 * np.sqrt(dim)
        g = dec.ground_degeneracy
        projector = ref_evecs[:, :g] @ ref_evecs[:, :g].conj().T
        assert np.max(np.abs(dec.ground_space() @ dec.ground_space().conj().T - projector)) < 1e-12
        assert np.max(np.abs(dec.eigenvectors - dec.expand(np.eye(dim)).T)) < 1e-15

    def test_n12_decomposition_holds_two_real_blocks(self, dec_12):
        arrays = [value for value in vars(dec_12).values() if isinstance(value, np.ndarray)]
        assert dec_12.block_vectors.shape == (2, 2048, 2048)
        assert dec_12.block_vectors.dtype == np.float64
        assert sum(a.nbytes for a in arrays) <= 70e6  # the dense complex matrix was 268 MB


class TestTapering:
    """The zero-field Kitaev model tapered by its full plaquette/loop group."""

    @pytest.mark.parametrize("j", [-1.0, 1.0])
    def test_every_eigenpair_against_dense_eigh_n8(self, lat8, j):
        from kitaevqse.lattice import kitaev_hamiltonian

        h0 = kitaev_hamiltonian(lat8, j)
        dec = diagonalize(h0)
        assert len(dec.frame.generators) == 5 and dec.block_vectors.shape == (32, 8, 8)
        mat = dense_matrix(h0)
        ref_evals, ref_evecs = np.linalg.eigh(mat)
        assert np.max(np.abs(dec.eigenvalues - ref_evals)) <= 1e-12 * np.max(np.abs(ref_evals))
        vectors = dec.eigenvectors
        assert np.max(np.abs(mat @ vectors - vectors * dec.eigenvalues)) <= 1e-12 * np.max(np.abs(ref_evals))
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(256))) <= 1e-12
        # each level's eigenspace, the gauge-free content of its eigenpairs
        levels = np.split(np.arange(256), np.flatnonzero(np.diff(ref_evals) > oracle.DEGENERACY_GAP) + 1)
        for level in levels:
            ours, ref = vectors[:, level], ref_evecs[:, level]
            assert np.max(np.abs(ours @ ours.conj().T - ref @ ref.conj().T)) <= 1e-11

    def test_n12_spectrum_against_the_pauli_algebra(self, h0_12, dec0_12):
        assert dec0_12.block_vectors.shape == (128, 32, 32)
        assert dec0_12.ground_degeneracy == 4
        # E0 from a full-space Lanczos through the matrix-free H
        start = np.random.default_rng(5).normal(size=4096)
        a, b, _, _ = oracle.lanczos(lambda v: apply_sum(h0_12, v), start, 160, 1e-20)
        tridiagonal = np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1)
        assert dec0_12.ground_energy == pytest.approx(np.linalg.eigvalsh(tridiagonal)[0], abs=1e-10)
        # tr H^k = 2^N (H^k)_I: H^2 from the products of its terms, then
        # tr H^3 = 2^N sum_s (H^2)_s c_s and tr H^4 = 2^N sum_s |(H^2)_s|^2
        square = pauli_sum([multiply(s, t) for s in h0_12.terms for t in h0_12.terms], 12)
        coefficient = {t.axes: t.coefficient for t in square.terms}
        moments = [
            0.0,
            sum(abs(t.coefficient) ** 2 for t in h0_12.terms),
            sum(coefficient.get(t.axes, 0.0) * t.coefficient for t in h0_12.terms).real,
            sum(abs(c) ** 2 for c in coefficient.values()),
        ]
        for k, expected in enumerate(moments, start=1):
            traced = np.sum(dec0_12.eigenvalues**k) / 4096
            assert abs(traced - expected) <= 1e-10 * max(1.0, abs(expected)), k

    @pytest.mark.parametrize("sites, j", [(8, -1.0), (8, 1.0), (12, -1.0)])
    def test_sector_ground_energies_match_batched_eigvalsh(self, lat8, h0_12, sites, j):
        from kitaevqse.lattice import kitaev_hamiltonian

        h0 = h0_12 if sites == 12 else kitaev_hamiltonian(lat8, j)
        minima = diagonalize(h0).sector_ground_energies()
        assert minima.shape == (oracle.taper(h0).num_sectors,)
        assert np.max(np.abs(minima - batched_sector_minima(h0))) <= 1e-12

    def test_identity_frame_has_one_sector_minimum(self, dec_8):
        assert dec_8.frame == oracle.TaperingFrame()
        assert dec_8.sector_ground_energies().tolist() == [dec_8.ground_energy]

    def test_block_stack_is_filled_real_exactly_when_every_term_is(self, h0_8):
        # every h0 term in the frame is real; one Y per XY bond makes i^popcount(x & z) imaginary
        assert oracle.taper(h0_8).block_stack()[1].dtype == np.float64
        assert oracle.taper(_chain8("XY")).block_stack()[1].dtype == np.complex128

    @staticmethod
    def per_term_block_stack(tapered):
        """The stack scattered one term at a time into zeros, in term order."""
        n = tapered.num_sites - len(tapered.frame.sites)
        blocks = oracle.symmetry_blocks(oracle.PauliSum(tapered.terms, n))
        local = np.concatenate(blocks)
        size = blocks[0].size
        position = np.argsort(local)
        row_start = np.arange(local.size) * size
        real = all((t.coefficient * 1j ** (t.masks[0] & t.masks[1]).bit_count()).imag == 0 for t in tapered.terms)
        flat = np.zeros((tapered.num_sectors, local.size * size), dtype=float if real else complex)
        for signs, term in zip(tapered.sector_signs.T, tapered.terms):
            src, phase = term.action
            entries = term.coefficient * phase[local]
            flat[:, row_start + position[src[local]] % size] += signs[:, None] * (entries.real if real else entries)
        return tapered.frame_index[:, local].ravel(), flat.reshape(-1, size, size)

    @pytest.mark.parametrize("name", ["h0_8", "h_8", "h0_12", "h_12"])
    def test_block_stack_scatters_each_flip_once_bit_for_bit(self, name, request):
        # terms sharing a flip mask are summed, in term order, before their one scatter; distinct
        # flips fill distinct entries, so the stack equals the per-term scatter bit for bit
        tapered = oracle.taper(request.getfixturevalue(name))
        permutation, stack = tapered.block_stack()
        reference_permutation, reference = self.per_term_block_stack(tapered)
        assert np.array_equal(permutation, reference_permutation)
        assert stack.dtype == reference.dtype and stack.tobytes() == reference.tobytes()

    def test_field_hamiltonian_keeps_the_z_syndrome_factorization(self, lat8):
        # an identity-frame sum without site symmetry runs the Z-syndrome path bit for bit: a
        # field that differs on every site breaks every translation and inversion of the torus
        from kitaevqse.lattice import kitaev_hamiltonian

        per_site = kitaev_hamiltonian(lat8, -1.0, np.outer(0.1 + 0.01 * np.arange(8), [0.0, 0.0, 1.0]))
        for h in (per_site, _chain8("XY"), _chain8("XX", ("XIIIIIII",))):
            dec = diagonalize(h)
            assert dec.frame == oracle.TaperingFrame()
            assert oracle.site_symmetries(h) == (tuple(range(8)),) and dec.site_group_order == 1
            reference = z_blocked_factorization(h)
            arrays = (dec.permutation, dec.block_vectors, dec.order, dec.eigenvalues)
            assert all(np.array_equal(ours, ref) for ours, ref in zip(arrays, reference))

    def test_non_abelian_or_z_only_groups_keep_the_identity_frame(self):
        # ZZ commutes with Z0, Z1 and XX, which do not all commute; Z0 + Z1 has Z-strings only
        assert oracle.tapering_frame(pauli_sum([two_site("Z", 0, 1, 2)], 2)) == oracle.TaperingFrame()
        h = pauli_sum([single_site("Z", 0, 2), single_site("Z", 1, 2)], 2)
        assert oracle.tapering_frame(h) == oracle.TaperingFrame()

    def test_frame_maps_generators_to_z(self, h0_8):
        frame = oracle.tapering_frame(h0_8)
        tapered = oracle.TaperedSum.build(h0_8, frame)
        assert len(tapered.terms) == len(h0_8) and tapered.num_sectors == 32
        for i, generator in enumerate(frame.generators):
            assert all(commutes(generator, t) for t in h0_8.terms)
            assert frame.reduce(generator) == (PauliTerm(1.0, "III"), 1 << (4 - i))

    @pytest.mark.parametrize("generator", range(5))
    def test_flipped_sigma_raises(self, h0_8, generator):
        frame = oracle.tapering_frame(h0_8)
        rotations = list(frame.rotations)
        sigma, tau = rotations[generator]
        rotations[generator] = (sigma.with_coefficient(-1.0), tau)
        with pytest.raises(OracleError, match="not to \\+Z"):
            oracle.TaperedSum.build(h0_8, dataclasses.replace(frame, rotations=tuple(rotations)))

    def test_dropped_clifford_raises(self, h0_8):
        frame = oracle.tapering_frame(h0_8)
        for dropped in range(len(frame.rotations)):  # each (sigma + tau)/sqrt(2), then each Hadamard
            rotations = frame.rotations[:dropped] + frame.rotations[dropped + 1:]
            with pytest.raises(OracleError):
                oracle.TaperedSum.build(h0_8, dataclasses.replace(frame, rotations=rotations))

    @pytest.mark.parametrize("larger", ["trace_deviation", "trace_square_deviation"])
    def test_certificate_holds_plain_python_values(self, h0_8, dec0_8, larger):
        # shifting the spectrum moves tr H of the traceless h0, scaling it moves tr H^2
        eigenvalues = dec0_8.eigenvalues + 1e-3 if larger == "trace_deviation" else dec0_8.eigenvalues * (1 + 1e-3)
        perturbed = dataclasses.replace(dec0_8, eigenvalues=eigenvalues)
        for decomp, holds in ((dec0_8, True), (perturbed, False)):
            certificate = oracle.completeness_certificate(h0_8, decomp)
            assert [type(v) for v in certificate.values()] == [int, int, float, float, bool]
            assert certificate["holds"] is holds
        smaller = ({"trace_deviation", "trace_square_deviation"} - {larger}).pop()
        assert certificate[larger] > certificate[smaller]

    def test_sector_matrix_is_the_frame_conjugate_on_its_sector(self, lat8, h0_8):
        # rows frame_index[s] of F T F^dagger, built column by column through the frame, hold
        # the sector's d x d matrix on columns frame_index[s] and nothing elsewhere; the bond
        # products include non-symmetric strings (one Y), so a transposed matrix fails
        from kitaevqse.lattice import stabilizer_group

        tapered = oracle.taper(h0_8)
        products = [multiply(h0_8.terms[0], t) for t in h0_8.terms]
        for term in (*h0_8.terms, *products, *stabilizer_group(lat8).generators):
            src, phase = term.action
            columns = term.coefficient * phase * tapered.frame.from_frame(np.eye(256))[:, src]
            conjugate = tapered.frame.to_frame(columns).T  # column j is F T F^dagger e_j
            for s in range(tapered.num_sectors):
                index = tapered.frame_index[s]
                expected = np.zeros((index.size, 256), dtype=complex)
                expected[:, index] = tapered.sector_matrix(term, s)
                assert np.max(np.abs(conjugate[index] - expected)) <= 1e-12, (term, s)
        with pytest.raises(OracleError, match="X or Y on a tapered site"):
            tapered.sector_matrix(single_site("Z", 0, 8), 0)

    def test_term_off_the_frame_raises(self, h0_8):
        # a Z field term anticommutes with the plaquettes, so it keeps X or Y on a tapered site
        frame = oracle.tapering_frame(h0_8)
        with pytest.raises(OracleError, match="X or Y on a tapered site"):
            frame.reduce(single_site("Z", 0, 8))


class TestSiteSubBlocks:
    """Field Hamiltonians factorized on the site-symmetry sub-blocks of their Z-syndrome blocks,
    against the Z-blocked factorization written out in the tests and a dense eigh."""

    @pytest.fixture(params=[0.1, [0.3, 0.0, 0.3], [0.1, 0.2, 0.3]], ids=["field_z", "tilted", "complex"])
    def field_8(self, request, lat8, h_8):
        from kitaevqse.lattice import kitaev_hamiltonian

        h = h_8 if request.param == 0.1 else kitaev_hamiltonian(lat8, -1.0, request.param)
        return h, diagonalize(h)

    def test_n8_eigenpairs_against_z_blocked_and_dense_eigh(self, field_8):
        h, dec = field_8
        assert dec.site_group_order > 1 and sum(dec.sub_block_sizes) == 256
        assert max(dec.sub_block_sizes) < dec.block_vectors.shape[1]
        mat = dense_matrix(h)
        _, reference, _, z_blocked = z_blocked_factorization(h)
        assert reference.dtype == dec.block_vectors.dtype
        dense = np.linalg.eigvalsh(mat)
        assert np.max(np.abs(dec.eigenvalues - z_blocked)) <= 1e-12
        assert np.max(np.abs(dec.eigenvalues - dense)) <= 1e-12
        vectors = dec.eigenvectors
        assert np.max(np.abs(mat @ vectors - vectors * dec.eigenvalues)) <= 1e-12
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(256))) <= 1e-12

    def test_n8_projections_and_ground_space_against_z_blocked(self, field_8):
        h, dec = field_8
        permutation, block_vectors, order, evals = z_blocked_factorization(h)
        reference = oracle.SpectralDecomposition(permutation, block_vectors, order, evals, dec.ground_degeneracy)
        g = dec.ground_degeneracy
        assert g == int(np.sum(evals <= evals[0] + oracle.DEGENERACY_GAP))
        ours, theirs = dec.ground_space(), reference.ground_space()
        assert np.max(np.abs(ours @ ours.conj().T - theirs @ theirs.conj().T)) <= 1e-12
        rng = np.random.default_rng(7)
        v = rng.normal(size=(3, 256)) + 1j * rng.normal(size=(3, 256))
        assert np.max(np.abs(dec.expand(dec.project(v)) - v)) <= 1e-12 * 16
        # |<n|v>|^2 summed over each level is gauge-free, so it matches level by level
        levels = np.split(np.arange(256), np.flatnonzero(np.diff(evals) > oracle.DEGENERACY_GAP) + 1)
        ours, theirs = np.abs(dec.project(v)) ** 2, np.abs(reference.project(v)) ** 2
        for level in levels:
            assert np.max(np.abs(ours[:, level].sum(axis=1) - theirs[:, level].sum(axis=1))) <= 1e-12 * 256

    def test_n8_layout(self, h_8, dec_8):
        # of the 4 translations and 4 inversions of the 2 x 2 torus, the identity, one translation
        # and two inversions fix every Z-block; the other four swap blocks (0, 1) and (1, 0), which
        # share one factorization
        assert len(oracle.site_symmetries(h_8)) == 8 and dec_8.site_group_order == 4
        assert dec_8.block_vectors.shape == (4, 64, 64)
        plan = oracle._site_plan(8, tuple(t.masks[0] for t in h_8.terms), oracle.site_symmetries(h_8))
        assert list(plan.shared) == [2] and plan.shared[2][0] == 1
        assert dec_8.sub_block_sizes[4:8] == dec_8.sub_block_sizes[8:12]
        assert np.array_equal(dec_8.block_vectors[2], dec_8.block_vectors[1][plan.shared[2][1]])
        by_block = np.argsort(dec_8.order).reshape(4, 64)  # the ascending rank of each block column
        assert np.array_equal(np.sort(dec_8.eigenvalues[by_block[1]]), np.sort(dec_8.eigenvalues[by_block[2]]))

    def test_n12_eigenvalues_against_z_blocked_eigvalsh(self, h_12, dec_12):
        # six translations: two real characters and two conjugate pairs per Z-block
        assert dec_12.site_group_order == 6 and len(dec_12.sub_block_sizes) == 8
        assert max(dec_12.sub_block_sizes) <= 700 and sum(dec_12.sub_block_sizes) == 4096
        reference = np.sort(np.linalg.eigvalsh(oracle.taper(h_12).block_stack()[1]).ravel())
        assert np.max(np.abs(dec_12.eigenvalues - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("members", [
        [(1, 2, 3, 0)],  # Z4 from its generator
        [(2, 3, 0, 1), (1, 2, 3, 0), (3, 0, 1, 2)],  # Z4 reached through its order-2 element first
        [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)],  # Z2 x Z3
    ])
    def test_characters_are_the_homomorphisms(self, members):
        elements, characters = oracle._characters(members)
        order = len(elements)
        assert order == len(set(elements)) == len({tuple(c) for c in characters})
        index = {g: i for i, g in enumerate(elements)}
        for chi in characters:
            for a, g in enumerate(elements):
                for b, h in enumerate(elements):
                    assert chi[index[oracle._compose(g, h)]] == (chi[a] + chi[b]) % order

    def test_check_rejects_a_term_onto_a_non_term(self, lat8, h_8):
        axes = tuple(t.axes for t in h_8.terms)
        symmetries = oracle.site_symmetries(h_8)
        assert all(oracle._term_images(axes, p) is not None for p in symmetries)
        # swapping sites 1 and 3 takes the z-bond 0-1 onto 0-3, which holds an x-bond only
        swapped = list(range(8))
        swapped[1], swapped[3] = 3, 1
        assert oracle._term_images(axes, swapped) is None
        # a permutation that moves a field term onto a site of another coefficient is no symmetry
        from kitaevqse.lattice import kitaev_hamiltonian

        field = np.zeros((8, 3))
        field[:, 2] = 0.1
        field[5, 2] = 0.2
        h = kitaev_hamiltonian(lat8, -1.0, field)
        assert set(oracle.site_symmetries(h)) < set(symmetries)
        assert all(p[5] == 5 for p in oracle.site_symmetries(h))


def _xx_chain(n):
    """Open n-site XX chain in a Z field: its group is the parity alone."""
    bonds = [two_site("X", i, i + 1, n) for i in range(n - 1)]
    return pauli_sum(bonds + [single_site("Z", i, n, 0.5) for i in range(n)], n)


def _chain(hz):
    """3-site XY chain in a Z field; no fixture builds it, so nothing is cached."""
    bonds = [two_site("X", 0, 1, 3, -1.0), two_site("Y", 1, 2, 3, -0.7)]
    return pauli_sum(bonds + [single_site("Z", i, 3, hz) for i in range(3)], 3)


class TestFactorizationCache:
    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        factorize = oracle._factorize_blocks
        monkeypatch.setattr(oracle, "_factorize_blocks", lambda h: calls.append(h) or factorize(h))
        return calls

    def test_equal_hamiltonian_factorized_once(self, built):
        h = _chain(0.3)
        first = diagonalize(h)
        again = diagonalize(_chain(0.3))  # equal value, distinct object
        assert again is first
        assert len(built) == 1

    def test_changed_coefficient_refactorizes(self, built):
        h = _chain(0.3)
        first = diagonalize(h)
        shifted = _chain(0.3 + 1e-9)
        second = diagonalize(shifted)
        assert len(built) == 2
        assert np.allclose(second.eigenvalues, np.linalg.eigvalsh(to_matrix(shifted)), atol=1e-12)
        assert not np.array_equal(first.eigenvalues, second.eigenvalues)

    def test_result_is_read_only(self):
        h = _chain(0.3)
        dec = diagonalize(h)
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            dec.eigenvectors[:, 0] *= -1.0
        with pytest.raises(ValueError):
            dec.ground_space()[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.eigenvalues = np.zeros(8)

    def test_one_phase_table_per_step_grown_to_the_longest_count(self):
        h = _chain(0.41)
        dec = diagonalize(h)
        shorter = dec.phases(0.25, 3)
        dec.phases(0.25, 31)
        seven = dec.phases(0.25, 7)
        assert list(dec._phase_tables) == [0.25] and len(dec._phase_tables[0.25]) == 31
        assert np.array_equal(seven, np.exp(-1j * 0.25 * np.outer(np.arange(7), dec.eigenvalues)))
        assert np.array_equal(shorter, seven[:3])
        with pytest.raises(ValueError):
            seven[0, 0] = 0.0

    def test_cap_checked_before_lookup(self, built, no_blocks):
        # the 16-site field model keeps its two Z-syndromes only: 2^(32-2) entries, refused on
        # every call, and nothing is kept for it
        from kitaevqse.lattice import build_lattice, kitaev_hamiltonian

        h = kitaev_hamiltonian(build_lattice(4, 2), -1.0, 0.1)
        for _ in range(2):
            with pytest.raises(OracleError, match="16 sites: 1073741824 stacked entries exceed"):
                diagonalize(h)
        assert len(built) == 2 and h not in oracle._DECOMPOSITIONS
        assert no_blocks == []

    def test_entry_does_not_keep_hamiltonian_alive(self):
        h = _chain(0.3)
        diagonalize(h)
        ref = weakref.ref(h)
        del h
        gc.collect()
        assert ref() is None


class TestLanczos:
    def test_eigenvector_start_stops_at_depth_one(self):
        mat = np.diag([0.3, -1.0, 2.0])
        a, b, krylov, stop_reason = oracle.lanczos(mat.__matmul__, np.array([0, 2.0, 0]), 3, 1e-12)
        assert (stop_reason, a.size, b.size) == ("b2_tol", 1, 1)
        assert a[0] == pytest.approx(-1.0) and b[0] == 0.0
        assert np.allclose(krylov, [[0, 1.0, 0]])

    def test_random_hermitian_runs_to_rank(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = (mat + mat.conj().T) / 2
        a, b, krylov, stop_reason = oracle.lanczos(mat.__matmul__, rng.normal(size=6), 6, 1e-12)
        assert (stop_reason, a.size, b.size, krylov.shape) == ("rank", 6, 6, (6, 6))
        assert np.max(np.abs(krylov.conj() @ krylov.T - np.eye(6))) < 1e-12
        tridiagonal = np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1)
        assert np.allclose(np.linalg.eigvalsh(tridiagonal), np.linalg.eigvalsh(mat), atol=1e-10)

    def test_non_hermitian_operator_raises(self):
        rng = np.random.default_rng(12)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(OracleError, match="not Hermitian"):
            oracle.lanczos(mat.__matmul__, rng.normal(size=4), 4, 1e-12)

    def test_zero_start_raises(self):
        with pytest.raises(OracleError):
            oracle.lanczos(np.eye(3).__matmul__, np.zeros(3), 3, 1e-12)


class TestGroundSpaceFidelity:
    def test_exact_member(self, dec0_8):
        assert oracle.ground_space_fidelity(dec0_8.ground_vector(), dec0_8) == pytest.approx(1.0)

    def test_orthogonal_state(self, dec0_8):
        v = dec0_8.eigenvectors[:, -1]
        assert oracle.ground_space_fidelity(v, dec0_8) == pytest.approx(0.0, abs=1e-12)


class TestExactResolventGf:
    def test_free_resolvent_is_one_over_z(self):
        # H = 0 represented by an empty-coefficient sum is not allowed in
        # diagonalize, so scale a Z term to zero coupling via tiny epsilon-free
        # construction: use two opposite terms that cancel to the zero matrix.
        h = pauli_sum([single_site("Z", 0, 2, 1.0), single_site("Z", 0, 2, -1.0)], 2)
        assert len(h) == 0
        # one block holding the whole register, eigenvectors the basis states
        dec = oracle.SpectralDecomposition(np.arange(4), np.eye(4)[None], np.arange(4), np.zeros(4), 4)
        c = single_site("Z", 0, 2)
        z = np.array([0.3 + 0.1j, -1.2 + 0.4j])
        greater = exact_resolvent_gf(dec, c, c, z, ground_vector=np.eye(4)[0], kind="greater")
        assert np.allclose(greater, 1.0 / z)

    def test_large_delta_decay(self, dec_8):
        c = single_site("Z", 0, 8)
        z = np.array([1j * 1e4])
        val = exact_resolvent_gf(dec_8, c, c, z)
        # retarded = greater + lesser ~ 2/(i delta)
        assert abs(val[0] - 2.0 / z[0]) < 1e-6

    def test_requires_complex_energies(self, dec_8):
        c = single_site("Z", 0, 8)
        with pytest.raises(OracleError):
            exact_resolvent_gf(dec_8, c, c, np.array([0.5 + 0j]))

    def test_resolvent_identity(self):
        # (z1 - z2) G(z1) G(z2) = G(z2) - G(z1) for the scalar-weight case:
        # check on a random 3-site Hamiltonian via the diagonal element
        rng = np.random.default_rng(11)
        terms = [PauliTerm(rng.normal(), ax) for ax in ("ZII", "IXI", "IIZ", "XXI")]
        h = pauli_sum(terms, 3)
        dec = diagonalize(h)
        c = single_site("Z", 1, 3)
        z1, z2 = 0.7 + 0.3j, -0.4 + 0.2j
        gs = dec.ground_vector()
        # project onto a single eigenvector so the GF is a pure simple pole
        weights = np.abs(dec.eigenvectors.conj().T @ (to_matrix(pauli_sum([c], 3)) @ gs)) ** 2
        g1 = np.sum(weights / (z1 - dec.eigenvalues))
        g2 = np.sum(weights / (z2 - dec.eigenvalues))
        lhs = (z1 - z2) * np.sum(weights / ((z1 - dec.eigenvalues) * (z2 - dec.eigenvalues)))
        assert lhs == pytest.approx(g2 - g1, abs=1e-12)

    def test_im_greater_nonpositive_on_diagonal(self, dec_8):
        c = single_site("Z", 2, 8)
        z = np.linspace(-10, 10, 41) + 0.1j
        greater = exact_resolvent_gf(dec_8, c, c, z, kind="greater")
        assert np.all(np.imag(greater) <= 1e-14)
