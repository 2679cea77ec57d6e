import json
from collections import Counter

import numpy as np
import pytest

from kitaevqse import lattice, pauli
from kitaevqse.lattice import (
    LatticeError,
    build_lattice,
    kitaev_hamiltonian,
    loop_operators,
    plaquette_operators,
    stabilizer_group,
)


class TestBuildLattice:
    @pytest.mark.parametrize("rows,cols,n,plaq", [(2, 2, 8, 4), (3, 2, 12, 6), (2, 3, 12, 6)])
    def test_sizes(self, rows, cols, n, plaq):
        lat = build_lattice(rows, cols)
        assert lat.num_sites == n
        assert len(lat.plaquettes) == plaq
        assert len(lat.bonds_x) == len(lat.bonds_y) == len(lat.bonds_z) == n // 2

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (3, 1)])
    def test_degenerate_wraps_rejected(self, rows, cols):
        with pytest.raises(LatticeError):
            build_lattice(rows, cols)

    def test_nonpositive_rejected(self):
        with pytest.raises(LatticeError):
            build_lattice(0, 2)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 2), (3, 3)])
    def test_three_regular_coloring(self, rows, cols):
        lat = build_lattice(rows, cols)
        for kind in "xyz":
            touched = Counter()
            for u, v in lat.bonds(kind):
                touched[u] += 1
                touched[v] += 1
            assert set(touched) == set(range(lat.num_sites))
            assert all(c == 1 for c in touched.values())

    def test_bond_lists_partition_edges(self, lat8):
        all_pairs = [frozenset(b) for kind in "xyz" for b in lat8.bonds(kind)]
        assert len(all_pairs) == len(set(all_pairs)) == 12

    def test_fixture_export_round_trip(self, lat8):
        data = json.loads(json.dumps(lat8.to_fixture_dict()))
        assert data["num_sites"] == 8
        assert sorted(map(sorted, data["bonds_z"])) == sorted(map(sorted, lat8.bonds_z))
        assert len(data["plaquettes"]) == 4
        assert np.asarray(data["positions"]).shape == (8, 2)


class TestKitaevHamiltonian:
    def test_zero_field_term_count(self, lat8, h0_8):
        assert len(h0_8) == 12
        assert h0_8.is_hermitian()

    def test_with_field_term_count(self, h_8):
        assert len(h_8) == 20

    def test_anisotropic_couplings(self, lat8):
        h = kitaev_hamiltonian(lat8, [0.5, -0.25, 1.5])
        by_kind = Counter()
        for t in h.terms:
            kinds = {ch for ch in t.axes if ch != "I"}
            by_kind[kinds.pop()] += 1
        assert by_kind == {"X": 4, "Y": 4, "Z": 4}

    def test_vector_and_per_site_fields(self, lat8):
        h = kitaev_hamiltonian(lat8, -1.0, [0.1, 0.0, 0.2])
        assert len(h) == 12 + 16
        per_site = np.zeros((8, 3))
        per_site[3, 1] = 0.7
        h2 = kitaev_hamiltonian(lat8, -1.0, per_site)
        assert len(h2) == 13

    def test_all_zero_couplings_give_empty_sum(self, lat8):
        h = kitaev_hamiltonian(lat8, 0.0)
        assert len(h) == 0

    def test_bad_field_shape(self, lat8):
        with pytest.raises(LatticeError):
            kitaev_hamiltonian(lat8, -1.0, np.zeros((3, 8)))


class TestPlaquettesAndLoops:
    def test_plaquettes_square_to_identity(self, lat8):
        for op in plaquette_operators(lat8):
            sq = pauli.multiply(op, op)
            assert sq.axes == "I" * 8
            assert sq.coefficient == pytest.approx(1.0)

    def test_plaquette_pattern_xzy(self, lat8):
        for op, sites in zip(plaquette_operators(lat8), lat8.plaquettes):
            labels = "".join(op.axes[s] for s in sites)
            assert labels == "XZYXZY"
            assert op.weight == 6

    def test_loops_square_to_identity(self, lat8):
        lx, ly = loop_operators(lat8)
        for op in (lx, ly):
            sq = pauli.multiply(op, op)
            assert sq.coefficient == pytest.approx(1.0)
            assert sq.weight == 0

    def test_loops_commute_with_each_other(self, lat8):
        lx, ly = loop_operators(lat8)
        assert pauli.commutes(lx, ly)

    @pytest.mark.parametrize("fixture", ["lat8", "lat12"])
    def test_stabilizers_commute_exhaustively(self, fixture, request):
        # every stabilizer pair, and every stabilizer against every bond term
        lat = request.getfixturevalue(fixture)
        h0 = kitaev_hamiltonian(lat, -1.0)
        gens = list(plaquette_operators(lat)) + list(loop_operators(lat))
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                assert pauli.commutes(a, b)
            for term in h0.terms:
                assert pauli.commutes(a, term)

    def test_plaquette_product_is_stabilizer_element(self, lat8):
        ops = plaquette_operators(lat8)
        prod = ops[0]
        for op in ops[1:]:
            prod = pauli.multiply(prod, op)
        lx, ly = loop_operators(lat8)
        lxly = pauli.multiply(lx, ly)
        candidates = {
            "I" * 8: "identity",
            lx.axes: "lx",
            ly.axes: "ly",
            lxly.axes: "lx*ly",
        }
        assert prod.axes in candidates
        assert abs(prod.coefficient) == pytest.approx(1.0)


class TestStabilizerGroup:
    def test_generator_count(self, lat8):
        group = stabilizer_group(lat8)
        assert len(group.generators) == 4 + 2
        assert group.target_eigenvalues == (1, 1, 1, 1, 1, 1)

    def test_custom_targets(self, lat8):
        group = stabilizer_group(lat8, -1, (1, -1))
        assert group.target_eigenvalues == (-1, -1, -1, -1, 1, -1)

    def test_bad_targets_rejected(self, lat8):
        with pytest.raises(LatticeError):
            stabilizer_group(lat8, 2, (1, 1))
