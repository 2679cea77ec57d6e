import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevqse import pauli
from kitaevqse.lattice import build_lattice, kitaev_hamiltonian
from kitaevqse.pauli import (
    PauliError,
    PauliTerm,
    commutes,
    from_symplectic,
    gershgorin_kappa,
    multiply,
    pauli_sum,
    single_site,
    term_to_string,
    to_matrix,
    two_site,
)

from helpers import term_to_matrix


def axes_strategy(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


def term_strategy(n):
    coeff = st.tuples(
        st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
    ).map(lambda ab: complex(*ab))
    return st.builds(PauliTerm, coeff, axes_strategy(n))


def unit_term_strategy(n):
    # the phases a product picks up, plus one real scale
    return st.builds(PauliTerm, st.sampled_from([1.0, -1j, 0.5]), axes_strategy(n))


class TestSingleSiteAlgebra:
    def test_single_site_construction(self):
        assert single_site("Y", 2, 4).axes == "IIYI"

    def test_single_site_rejects_bad_input(self):
        with pytest.raises(PauliError):
            single_site("Q", 0, 1)
        with pytest.raises(PauliError):
            single_site("X", -1, 4)
        # a kind is one letter: "" and "XY" are substrings of "XYZ" but would
        # build a string of the wrong length
        for kind in ("", "XY"):
            with pytest.raises(PauliError):
                single_site(kind, 0, 3)
            with pytest.raises(PauliError):
                two_site(kind, 0, 1, 3)

    def test_x_times_y_is_iz(self):
        x1 = single_site("X", 0, 1)
        y1 = single_site("Y", 0, 1)
        out = multiply(x1, y1)
        assert out.axes == "Z"
        assert out.coefficient == 1j

    def test_involution(self):
        xx = two_site("X", 0, 1, 2)
        out = multiply(xx, xx)
        assert out.axes == "II"
        assert out.coefficient == 1

    def test_hexagon_bond_product_pattern(self):
        # y,x,z,y,x,z bond walk around a six-site ring collapses to the
        # alternating X,Z,Y string with coefficient +1
        n = 6
        bonds = [
            two_site("Y", 0, 1, n), two_site("X", 1, 2, n), two_site("Z", 2, 3, n),
            two_site("Y", 3, 4, n), two_site("X", 4, 5, n), two_site("Z", 5, 0, n),
        ]
        prod = bonds[0]
        for b in bonds[1:]:
            prod = multiply(prod, b)
        assert prod.axes == "XZYXZY"
        assert prod.coefficient == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(PauliError):
            multiply(single_site("X", 0, 1), single_site("X", 0, 2))
        with pytest.raises(PauliError):
            commutes(single_site("X", 0, 1), single_site("X", 0, 2))


class TestCommutes:
    def test_same_site_clash(self):
        assert not commutes(single_site("X", 0, 1), single_site("Z", 0, 1))

    def test_disjoint_support(self):
        assert commutes(two_site("X", 0, 1, 3), single_site("Z", 2, 3))

    @settings(max_examples=150, deadline=None)
    @given(axes_strategy(4), axes_strategy(4))
    def test_matches_matrix_commutator(self, ax_a, ax_b):
        a, b = PauliTerm(1.0, ax_a), PauliTerm(1.0, ax_b)
        ma, mb = term_to_matrix(a), term_to_matrix(b)
        comm_norm = np.max(np.abs(ma @ mb - mb @ ma))
        assert commutes(a, b) == (comm_norm < 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(unit_term_strategy(5), unit_term_strategy(5))
    def test_five_sites_match_matrix_commutator(self, a, b):
        ma, mb = term_to_matrix(a), term_to_matrix(b)
        assert commutes(a, b) == (np.max(np.abs(ma @ mb - mb @ ma)) < 1e-12)


class TestMultiplyAgainstMatrices:
    @settings(max_examples=100, deadline=None)
    @given(term_strategy(3), term_strategy(3))
    def test_product_matches_matrix_product(self, a, b):
        out = multiply(a, b)
        expected = term_to_matrix(a) @ term_to_matrix(b)
        assert np.allclose(term_to_matrix(out), expected, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(unit_term_strategy(5), unit_term_strategy(5))
    def test_five_site_product_matches_matrix_product(self, a, b):
        out = multiply(a, b)
        assert out.masks == (a.masks[0] ^ b.masks[0], a.masks[1] ^ b.masks[1])
        assert np.allclose(term_to_matrix(out), term_to_matrix(a) @ term_to_matrix(b), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(term_strategy(3), term_strategy(3), term_strategy(3))
    def test_associativity(self, a, b, c):
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left.axes == right.axes
        assert left.coefficient == pytest.approx(right.coefficient, abs=1e-12)


class TestSymplecticMasks:
    def test_site_zero_on_the_top_bit(self):
        # x marks X and Y, z marks Z and Y
        assert PauliTerm(1.0, "XYZI").masks == (0b1100, 0b0110)
        assert PauliTerm(1.0, "IIIX").masks == (0b0001, 0)

    @settings(max_examples=100, deadline=None)
    @given(term_strategy(6))
    def test_string_to_masks_and_back(self, term):
        assert from_symplectic(term.symplectic, term.num_sites) == term

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_masks_to_string_and_back(self, x, z):
        term = from_symplectic((0.5, x, z), 6)
        assert term.masks == (x, z)
        assert term.coefficient == 0.5

    def test_masks_are_the_basis_action_flip(self):
        term = PauliTerm(1.0, "XYZIY")
        src, _ = term.action
        assert np.array_equal(src, np.arange(32) ^ term.masks[0])


class TestPauliSum:
    def test_merges_duplicate_axes(self):
        n = 2
        s = pauli_sum([single_site("Z", 0, n, 0.5), single_site("Z", 0, n, 0.25)], n)
        assert len(s) == 1
        assert s.terms[0].coefficient == pytest.approx(0.75)

    def test_prunes_cancelled_terms(self):
        n = 2
        s = pauli_sum([single_site("Z", 0, n, 1.0), single_site("Z", 0, n, -1.0)], n)
        assert len(s) == 0

    def test_first_occurrence_order(self):
        n = 2
        s = pauli_sum(
            [single_site("X", 0, n), single_site("Z", 1, n), single_site("X", 0, n, 2.0)], n
        )
        assert [t.axes for t in s.terms] == ["XI", "IZ"]

    def test_hermitian_flag(self):
        n = 1
        assert pauli_sum([single_site("Z", 0, n, 0.3)], n).is_hermitian()
        assert not pauli_sum([single_site("Z", 0, n, 0.3j)], n).is_hermitian()


    def test_hash_is_kept_and_equality_reads_the_terms(self, monkeypatch):
        lat = build_lattice(2, 2)
        first, second = kitaev_hamiltonian(lat, -1.0, 0.1), kitaev_hamiltonian(lat, -1.0, 0.1)
        assert first is not second and first == second
        assert hash(first) == hash(second) == hash((first.terms, first.num_sites))
        assert {first: 1}[second] == 1
        # each term is hashed once per sum: later lookups read the kept hash
        hashed = []
        term_hash = pauli.PauliTerm.__hash__
        monkeypatch.setattr(pauli.PauliTerm, "__hash__", lambda term: hashed.append(term) or term_hash(term))
        third = kitaev_hamiltonian(lat, -1.0, 0.1)
        for _ in range(3):
            assert hash(third) == hash(first)
        assert len(hashed) == len(third)
        # a hash collision never stands in for equal terms
        moved = pauli_sum([*third.terms[:-1], third.terms[-1].with_coefficient(0.2)], 8)
        moved.__dict__["_hash"] = hash(third)
        assert hash(moved) == hash(third) and moved != third
        assert {third: 1}.get(moved) is None


class TestToMatrix:
    def test_z_on_one_site(self):
        mat = to_matrix(pauli_sum([single_site("Z", 0, 1)], 1))
        assert np.allclose(mat, np.diag([1.0, -1.0]))

    def test_xx_antidiagonal(self):
        mat = to_matrix(pauli_sum([two_site("X", 0, 1, 2)], 2))
        assert np.allclose(mat, np.fliplr(np.eye(4)))

    def test_cap_enforced(self):
        s = pauli_sum([single_site("Z", 0, 4)], 4)
        with pytest.raises(PauliError):
            to_matrix(s, cap=3)

    @settings(max_examples=60, deadline=None)
    @given(term_strategy(3), term_strategy(3))
    def test_matrix_of_product_is_product_of_matrices(self, a, b):
        prod_mat = to_matrix(pauli_sum([multiply(a, b)], 3))
        direct = to_matrix(pauli_sum([a], 3)) @ to_matrix(pauli_sum([b], 3))
        assert np.allclose(prod_mat, direct, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(term_strategy(3), min_size=1, max_size=5))
    def test_apply_sum_matches_matrix(self, terms):
        s = pauli_sum(terms, 3)
        rng = np.random.default_rng(3)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        # Kronecker-product reference, independent of the basis-action kernel
        dense = sum((term_to_matrix(t) for t in s.terms), np.zeros((8, 8), complex))
        assert np.allclose(pauli.apply_sum(s, vec), dense @ vec, atol=1e-10)
        assert np.allclose(to_matrix(s), dense, atol=1e-12)


class TestBasisAction:
    def test_built_once_and_read_only(self):
        term, twin = PauliTerm(0.5, "XYZ"), PauliTerm(0.5, "XYZ")
        src, phase = term.action
        assert term.action[0] is src
        assert term == twin and hash(term) == hash(twin)
        for arr in (src, phase):
            with pytest.raises(ValueError):
                arr[0] = arr[1]

    def test_shared_by_every_term_with_the_string(self, lat8):
        # keyed on the whole string: the coefficient plays no part
        term, scaled = PauliTerm(0.5, "XYZI"), PauliTerm(-2.0, "XYZI")
        assert term != scaled
        assert all(a is b for a, b in zip(term.action, scaled.action))
        assert not any(arr.flags.writeable for arr in scaled.action)
        # every field's Hamiltonian reuses the bond actions of the others
        fields = [kitaev_hamiltonian(lat8, -1.0, hz) for hz in (0.0, 0.3)]
        bonds = [{t.axes: t for t in h.terms if t.weight == 2} for h in fields]
        assert bonds[0].keys() == bonds[1].keys()
        for axes, bond in bonds[0].items():
            assert bond.action[0] is bonds[1][axes].action[0]


class TestGroupedAction:
    @staticmethod
    def per_term(h, vec):
        return sum((pauli.apply_term(t, vec) for t in h.terms), np.zeros_like(vec))

    def sums(self, lat8):
        from kitaevqse.greens import _collective_excitation

        h = kitaev_hamiltonian(lat8, -1.0, 0.1)
        return {
            "field kitaev": h,
            # non-Hermitian: exp(i q.r_j) Z_j, a complex diagonal
            "collective z, q != 0": _collective_excitation("Z", lat8.positions, np.array([np.pi, 0.5])),
            "collective y, q != 0": _collective_excitation("Y", lat8.positions, np.array([0.3, -1.2])),
            "no diagonal term": pauli_sum([t for t in h.terms if t.masks[0] != 0], 8),
            "only diagonal terms": pauli_sum([t for t in h.terms if t.masks[0] == 0], 8),
        }

    def test_matches_the_per_term_sum(self, lat8):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=256) + 1j * rng.normal(size=256)
        for name, h in self.sums(lat8).items():
            assert np.max(np.abs(pauli.apply_sum(h, vec) - self.per_term(h, vec))) <= 1e-13, name

    def test_one_pass_per_flip_mask(self, lat8):
        sums = self.sums(lat8)
        # 12 bonds and 8 Z fields: the fields and the ZZ bonds make the diagonal,
        # and each XX or YY bond flips its own pair of sites
        diagonal, flips = sums["field kitaev"].grouped_action
        assert len(sums["field kitaev"]) == 20 and diagonal is not None and len(flips) == 8
        assert sums["no diagonal term"].grouped_action[0] is None
        assert sums["only diagonal terms"].grouped_action[1] == ()
        assert not np.any(pauli.apply_sum(pauli_sum([], 3), np.ones(8, complex)))

    @staticmethod
    def flip_loop(h, vec):
        """H|vec> one flip group at a time over the whole state: each amplitude's sum, in
        the order apply_sum takes it, with no chunking."""
        diagonal, flips = h.grouped_action
        out = np.zeros(vec.shape, complex) if diagonal is None else diagonal * vec
        for src, phase in flips:
            out += vec[src] * phase
        return out

    @pytest.mark.parametrize("rows", [1, pauli._CHUNK // 512, pauli._CHUNK // 512 + 1, 2 * pauli._CHUNK // 512 + 3])
    def test_stack_equals_row_loop(self, lat8, rows):
        # N=8 stacks run in row groups of _CHUNK // 2 amplitudes (16 states): one state,
        # exactly one group, one state past it, and two groups and a remainder
        rng = np.random.default_rng(rows)
        stack = rng.normal(size=(rows, 256)) + 1j * rng.normal(size=(rows, 256))
        for name, h in self.sums(lat8).items():
            looped = np.stack([self.flip_loop(h, row) for row in stack])
            assert np.array_equal(pauli.apply_sum(h, stack), looped), name
            assert np.array_equal(pauli.apply_sum(h, stack.reshape(1, rows, 256))[0], looped), name
        assert np.array_equal(pauli.apply_sum(h, stack[0]), looped[0])

    @pytest.mark.parametrize("n", [12, 14])
    def test_stack_equals_row_loop_on_large_registers(self, lat12, n):
        # from N=12 each state runs alone, and beyond _CHUNK amplitudes (N=14) in column slices
        h = kitaev_hamiltonian(lat12, -1.0, 0.1) if n == 12 else pauli_sum(
            [PauliTerm(0.5, "XY" + "I" * 11 + "Z"), PauliTerm(-0.3, "Z" * 14), PauliTerm(0.2, "I" * 13 + "Y")], 14)
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        looped = np.stack([self.flip_loop(h, row) for row in stack])
        assert np.array_equal(pauli.apply_sum(h, stack), looped)
        assert np.array_equal(pauli.apply_sum(h, stack[1]), looped[1])
        assert np.max(np.abs(looped[0] - sum(pauli.apply_term(t, stack[0]) for t in h.terms))) <= 1e-12

    def test_built_once_per_sum(self, lat8, monkeypatch):
        calls = []
        build = pauli.group_by_flip
        monkeypatch.setattr(pauli, "group_by_flip", lambda terms: calls.append(terms) or build(terms))
        h = kitaev_hamiltonian(lat8, -1.0, 0.2)
        vec = np.ones(256, complex)
        first = pauli.apply_sum(h, vec)
        assert np.array_equal(pauli.apply_sum(h, 1.0 * vec), first)
        assert len(calls) == 1
        # cached on the object; equality and hashing still follow the terms alone
        twin = kitaev_hamiltonian(lat8, -1.0, 0.2)
        assert twin == h and hash(twin) == hash(h)
        diagonal, flips = h.grouped_action
        assert not diagonal.flags.writeable and not any(phase.flags.writeable for _, phase in flips)


class TestGershgorinKappa:
    def test_single_term(self):
        h = pauli_sum([single_site("Z", 0, 1, 0.1)], 1)
        assert gershgorin_kappa(h) == pytest.approx(0.2)

    def test_kitaev_with_field_value(self, h_8):
        # 12 unit bond terms plus 8 field terms of 0.1
        assert gershgorin_kappa(h_8) == pytest.approx(25.6)

    def test_empty_sum_rejected(self):
        with pytest.raises(PauliError):
            gershgorin_kappa(pauli_sum([], 2))

    def test_bounds_exact_spectral_width(self, h0_8, h_8, dec0_8, dec_8):
        for h, dec in ((h0_8, dec0_8), (h_8, dec_8)):
            width = dec.eigenvalues[-1] - dec.eigenvalues[0]
            assert gershgorin_kappa(h) >= width


class TestTextualFormat:
    def test_round_trip(self):
        # the printed form of a term, as __str__ and error messages show it
        term = PauliTerm(-0.5, "XIZY")
        assert term_to_string(term) == "-0.5 * X1 Z3 Y4"
