"""Honeycomb lattice on a torus: typed bonds, plaquettes, loops, Hamiltonian.

Geometry convention
-------------------
Unit cells form a ``rows x cols`` grid with periodic wrapping; each cell
``(r, c)`` holds sublattice sites A (index ``2*(r*cols+c)``) and B
(``A+1``). Bond coloring, with all arithmetic mod the grid:

* z-bond: A(r, c) -- B(r, c)
* x-bond: A(r, c) -- B(r, c-1)
* y-bond: A(r, c) -- B(r-1, c)

Every site then touches exactly one bond of each color. Hexagonal
plaquettes are traversed counter-clockwise in the embedding below,
giving the bond sequence y, x, z, y, x, z; the plaquette operator is the
ordered product of those bond strings and comes out as the X,Z,Y
repeating pattern with a +1 coefficient. Loop operators wind the torus
along a zigzag row (all-Y string) and a zigzag column (all-X string).

Site positions use primitive vectors a1 = (1/2, sqrt(3)/2) and
a2 = (-1/2, sqrt(3)/2) with the B site displaced by (0, 1/sqrt(3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliSum, PauliTerm, from_symplectic, pauli_sum, single_site, times, two_site

_BOND_KINDS = ("x", "y", "z")


class LatticeError(ValueError):
    """Raised for unsupported lattice shapes or couplings."""


@dataclass(frozen=True)
class HoneycombLattice:
    num_sites: int
    bonds_x: tuple[tuple[int, int], ...]
    bonds_y: tuple[tuple[int, int], ...]
    bonds_z: tuple[tuple[int, int], ...]
    plaquettes: tuple[tuple[int, ...], ...]
    loop_x_sites: tuple[int, ...]
    loop_y_sites: tuple[int, ...]
    positions: np.ndarray
    rows: int
    cols: int

    def bonds(self, kind: str) -> tuple[tuple[int, int], ...]:
        return {"x": self.bonds_x, "y": self.bonds_y, "z": self.bonds_z}[kind]

    @cached_property
    def stabilizer_strings(self) -> tuple[PauliTerm, ...]:
        """The plaquette strings, then the row and column loop strings: the generators of
        every :func:`stabilizer_group` of the lattice, walked once per lattice."""
        return (*plaquette_operators(self), *loop_operators(self))

    def to_fixture_dict(self) -> dict:
        return {
            "num_sites": self.num_sites,
            "rows": self.rows,
            "cols": self.cols,
            "bonds_x": [list(b) for b in self.bonds_x],
            "bonds_y": [list(b) for b in self.bonds_y],
            "bonds_z": [list(b) for b in self.bonds_z],
            "plaquettes": [list(p) for p in self.plaquettes],
            "loop_x_sites": list(self.loop_x_sites),
            "loop_y_sites": list(self.loop_y_sites),
            "positions": self.positions.tolist(),
        }


@dataclass(frozen=True)
class StabilizerGroup:
    """Commuting generator set: all plaquettes plus the two torus loops."""

    generators: tuple[PauliTerm, ...]
    target_eigenvalues: tuple[int, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.target_eigenvalues):
            raise LatticeError("one target eigenvalue per generator required")
        if any(t not in (-1, 1) for t in self.target_eigenvalues):
            raise LatticeError("target eigenvalues must be +1 or -1")


def build_lattice(rows: int, cols: int) -> HoneycombLattice:
    """Honeycomb torus with 2*rows*cols sites.

    Wraps that would place two bonds between the same pair of sites
    (rows < 2 or cols < 2) are rejected rather than silently merged.
    """
    if rows < 1 or cols < 1:
        raise LatticeError("rows and cols must be positive")

    def a_site(r: int, c: int) -> int:
        return 2 * ((r % rows) * cols + (c % cols))

    def b_site(r: int, c: int) -> int:
        return a_site(r, c) + 1

    num_sites = 2 * rows * cols
    bonds_z = [(a_site(r, c), b_site(r, c)) for r in range(rows) for c in range(cols)]
    bonds_x = [(a_site(r, c), b_site(r, c - 1)) for r in range(rows) for c in range(cols)]
    bonds_y = [(a_site(r, c), b_site(r - 1, c)) for r in range(rows) for c in range(cols)]

    seen: set[frozenset[int]] = set()
    for u, v in bonds_x + bonds_y + bonds_z:
        key = frozenset((u, v))
        if len(key) == 1 or key in seen:
            raise LatticeError(
                f"({rows},{cols}) wrap duplicates an edge; need rows >= 2 and cols >= 2"
            )
        seen.add(key)

    # Counter-clockwise hexagon through cell (r, c); bond sequence y,x,z,y,x,z.
    plaquettes = []
    for r in range(rows):
        for c in range(cols):
            plaquettes.append((
                a_site(r, c),
                b_site(r - 1, c),
                a_site(r - 1, c + 1),
                b_site(r - 1, c + 1),
                a_site(r, c + 1),
                b_site(r, c),
            ))

    # Zigzag row loop (z/x bonds alternating) and column loop (z/y bonds).
    loop_x_sites = []
    for c in range(cols):
        loop_x_sites.extend((a_site(0, c), b_site(0, c)))
    loop_y_sites = []
    for r in range(rows):
        loop_y_sites.extend((a_site(r, 0), b_site(r, 0)))

    a1 = np.array([0.5, np.sqrt(3.0) / 2.0])
    a2 = np.array([-0.5, np.sqrt(3.0) / 2.0])
    delta = np.array([0.0, 1.0 / np.sqrt(3.0)])
    positions = np.zeros((num_sites, 2))
    for r in range(rows):
        for c in range(cols):
            base = c * a1 + r * a2
            positions[a_site(r, c)] = base
            positions[b_site(r, c)] = base + delta

    return HoneycombLattice(
        num_sites=num_sites,
        bonds_x=tuple(bonds_x),
        bonds_y=tuple(bonds_y),
        bonds_z=tuple(bonds_z),
        plaquettes=tuple(plaquettes),
        loop_x_sites=tuple(loop_x_sites),
        loop_y_sites=tuple(loop_y_sites),
        positions=positions,
        rows=rows,
        cols=cols,
    )


def kitaev_hamiltonian(
    lat: HoneycombLattice,
    coupling,
    field=None,
) -> PauliSum:
    """Bond-colored Ising couplings plus optional per-site magnetic field.

    ``coupling`` is a scalar (isotropic) or a 3-sequence (J_x, J_y, J_z);
    ``field`` is None, a scalar h_z, a 3-sequence uniform field, or an
    (N, 3) array of per-site Cartesian components.
    """
    n = lat.num_sites
    j = np.broadcast_to(np.asarray(coupling, dtype=float), (3,))
    terms: list[PauliTerm] = []
    for kind, j_val in zip(_BOND_KINDS, j):
        for u, v in lat.bonds(kind):
            if j_val != 0.0:
                terms.append(two_site(kind.upper(), u, v, n, j_val))

    if field is not None:
        h = np.asarray(field, dtype=float)
        if h.ndim == 0:
            per_site = np.zeros((n, 3))
            per_site[:, 2] = float(h)
        elif h.shape == (3,):
            per_site = np.broadcast_to(h, (n, 3)).copy()
        elif h.shape == (n, 3):
            per_site = h
        else:
            raise LatticeError(f"field shape {h.shape} not understood for {n} sites")
        for site in range(n):
            for axis, kind in enumerate("XYZ"):
                if per_site[site, axis] != 0.0:
                    terms.append(single_site(kind, site, n, per_site[site, axis]))

    return pauli_sum(terms, n)


def _bond_kind_of(lat: HoneycombLattice, u: int, v: int) -> str:
    pair = frozenset((u, v))
    for kind in _BOND_KINDS:
        if any(frozenset(b) == pair for b in lat.bonds(kind)):
            return kind
    raise LatticeError(f"({u},{v}) is not a lattice bond")


def _loop_product(lat: HoneycombLattice, sites: tuple[int, ...]) -> PauliTerm:
    """Ordered product of unit bond operators along a closed site walk, taken on the masks."""
    n = lat.num_sites
    product = (1 + 0j, 0, 0)  # the identity string
    for i, u in enumerate(sites):
        v = sites[(i + 1) % len(sites)]
        kind = _bond_kind_of(lat, u, v)
        product = times(product, two_site(kind.upper(), u, v, n).symplectic)
    return from_symplectic(product, n)


def plaquette_operators(lat: HoneycombLattice) -> list[PauliTerm]:
    """Six-site plaquette strings, counter-clockwise bond products."""
    ops = [_loop_product(lat, p) for p in lat.plaquettes]
    for op in ops:
        if abs(op.coefficient.imag) > 1e-12 or abs(abs(op.coefficient) - 1.0) > 1e-12:
            raise LatticeError("plaquette product did not close to a +/-1 string")
    return ops


def loop_operators(lat: HoneycombLattice) -> tuple[PauliTerm, PauliTerm]:
    """The two torus-winding loop strings (row direction, column direction)."""
    lx = _loop_product(lat, lat.loop_x_sites)
    ly = _loop_product(lat, lat.loop_y_sites)
    for op in (lx, ly):
        if abs(op.coefficient.imag) > 1e-12 or abs(abs(op.coefficient) - 1.0) > 1e-12:
            raise LatticeError("loop product did not close to a +/-1 string")
    return lx, ly


def stabilizer_group(
    lat: HoneycombLattice,
    plaquette_targets=1,
    loop_targets=(1, 1),
) -> StabilizerGroup:
    """Plaquette + loop generators (:attr:`HoneycombLattice.stabilizer_strings`) with
    per-generator target eigenvalues."""
    if np.ndim(plaquette_targets) == 0:
        p_targets = [int(plaquette_targets)] * len(lat.plaquettes)
    else:
        p_targets = [int(t) for t in plaquette_targets]
    targets = tuple(p_targets) + (int(loop_targets[0]), int(loop_targets[1]))
    return StabilizerGroup(lat.stabilizer_strings, targets)
