"""Pauli-string algebra on a fixed qubit register.

A term is a complex coefficient times a tensor product of single-site
Paulis, stored as a string over ``IXYZ`` with one character per site
(site 0 leftmost, acting on the most significant bit of the basis
index). Sums are kept in canonical merged form: no two terms share the
same axes and coefficients below ``MERGE_TOL`` are pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

AXES_CHARS = "IXYZ"
MERGE_TOL = 1e-14

# (a, b) -> (phase, axis) for the single-site product a*b
_SINGLE_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "Z"): (1j, "X"), ("Z", "X"): (1j, "Y"),
    ("Y", "X"): (-1j, "Z"), ("Z", "Y"): (-1j, "X"), ("X", "Z"): (-1j, "Y"),
}

DEFAULT_DENSE_CAP = 14


class PauliError(ValueError):
    """Raised on malformed Pauli terms/sums or contract violations."""


@dataclass(frozen=True)
class PauliTerm:
    """One coefficient-weighted Pauli string."""

    coefficient: complex
    axes: str

    def __post_init__(self):
        if not self.axes or any(ch not in AXES_CHARS for ch in self.axes):
            raise PauliError(f"axes must be a non-empty string over {AXES_CHARS!r}, got {self.axes!r}")
        object.__setattr__(self, "coefficient", complex(self.coefficient))

    @property
    def num_sites(self) -> int:
        return len(self.axes)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return sum(1 for ch in self.axes if ch != "I")

    def with_coefficient(self, coefficient: complex) -> "PauliTerm":
        return PauliTerm(coefficient, self.axes)

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, ch in enumerate(self.axes) if ch != "I")

    @cached_property
    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (src, phase): P|psi>[i] = phase[i] * psi[src[i]], coefficient excluded.

        Read from the memo keyed on the Pauli string on first use and kept on
        this term, so every term with these axes shares one pair; field-based
        equality and hashing are unaffected.
        """
        return _action_of(self.axes)

    def __str__(self) -> str:
        return term_to_string(self)


def single_site(kind: str, site: int, num_sites: int, coefficient: complex = 1.0) -> PauliTerm:
    """Pauli ``kind`` on ``site`` (0-based), identity elsewhere."""
    if kind not in ("X", "Y", "Z"):
        raise PauliError(f"kind must be one of X, Y, Z, got {kind!r}")
    if not 0 <= site < num_sites:
        raise PauliError(f"site {site} out of range for {num_sites} sites")
    axes = ["I"] * num_sites
    axes[site] = kind
    return PauliTerm(coefficient, "".join(axes))


def two_site(kind: str, site_a: int, site_b: int, num_sites: int, coefficient: complex = 1.0) -> PauliTerm:
    """``kind`` ⊗ ``kind`` on a pair of distinct sites."""
    if site_a == site_b:
        raise PauliError("two_site requires distinct sites")
    axes = ["I"] * num_sites
    for s in (site_a, site_b):
        if not 0 <= s < num_sites:
            raise PauliError(f"site {s} out of range for {num_sites} sites")
        axes[s] = kind
    if kind not in ("X", "Y", "Z"):
        raise PauliError(f"kind must be one of X, Y, Z, got {kind!r}")
    return PauliTerm(coefficient, "".join(axes))


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Exact operator product a·b with accumulated phase."""
    if a.num_sites != b.num_sites:
        raise PauliError(f"size mismatch: {a.num_sites} vs {b.num_sites}")
    phase = a.coefficient * b.coefficient
    out = []
    for ca, cb in zip(a.axes, b.axes):
        ph, ax = _SINGLE_PRODUCT[(ca, cb)]
        phase *= ph
        out.append(ax)
    return PauliTerm(phase, "".join(out))


def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True iff the strings commute (even number of anticommuting sites)."""
    if a.num_sites != b.num_sites:
        raise PauliError(f"size mismatch: {a.num_sites} vs {b.num_sites}")
    clashes = sum(
        1 for ca, cb in zip(a.axes, b.axes)
        if ca != "I" and cb != "I" and ca != cb
    )
    return clashes % 2 == 0


@dataclass(frozen=True)
class PauliSum:
    """Canonical merged sum of Pauli terms over a fixed register.

    Construct via :func:`pauli_sum`; the raw constructor does not merge.
    """

    terms: tuple[PauliTerm, ...]
    num_sites: int

    def __post_init__(self):
        for t in self.terms:
            if t.num_sites != self.num_sites:
                raise PauliError("all terms must share the register size")

    def __len__(self) -> int:
        return len(self.terms)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(t.coefficient.imag) <= tol for t in self.terms)

    def coefficient_norm(self) -> float:
        """Sum of absolute coefficients."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    def __str__(self) -> str:
        return " + ".join(term_to_string(t) for t in self.terms) if self.terms else "0"


def pauli_sum(terms: Iterable[PauliTerm], num_sites: int) -> PauliSum:
    """Merge duplicate axes, prune coefficients below MERGE_TOL.

    Term order follows first occurrence of each axes string, so sums
    built from ordered bond lists stay in bond order.
    """
    merged: dict[str, complex] = {}
    order: list[str] = []
    for t in terms:
        if t.num_sites != num_sites:
            raise PauliError("term register size does not match sum")
        if t.axes not in merged:
            merged[t.axes] = t.coefficient
            order.append(t.axes)
        else:
            merged[t.axes] += t.coefficient
    kept = tuple(
        PauliTerm(merged[ax], ax) for ax in order if abs(merged[ax]) > MERGE_TOL
    )
    return PauliSum(kept, num_sites)


# ---------------------------------------------------------------------------
# Basis action: P|psi>[i] = phase[i] * psi[src[i]] with src[i] = i ^ flip_mask
# and site 0 on the most significant bit (the symplectic flip/sign-mask form
# of Aaronson & Gottesman, PRA 70, 052328 (2004)). The coefficient-free action
# depends on the Pauli string alone, so it is built once per string and shared,
# read-only, by every term with that string (each field's Hamiltonian repeats
# the bond strings); apply, rotation, Trotter, VQE and to_matrix all go through
# PauliTerm.action and apply the coefficient as a scalar.
# ---------------------------------------------------------------------------

# A model at N sites uses about 6N strings; the memo keeps the 256 used most
# recently, at most about 400 MB at N=16.
@lru_cache(maxsize=256)
def _action_of(axes: str) -> tuple[np.ndarray, np.ndarray]:
    return term_phases(PauliTerm(1.0, axes))


def term_phases(term: PauliTerm) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-free basis action (src, phase) of the term's Pauli string.

    X and Y sites set the flip mask, Z and Y sites the sign mask, and each
    Y contributes a factor i, so ``phase[i] = i^y (-1)^popcount(src[i] & sign)``.
    Both arrays are read-only. Use ``PauliTerm.action``, memoized on the
    string, rather than calling this directly.
    """
    n = term.num_sites
    flip = sign = 0
    for q, ch in enumerate(term.axes):
        bit = 1 << (n - 1 - q)
        if ch in "XY":
            flip |= bit
        if ch in "ZY":
            sign |= bit
    src = np.bitwise_xor(np.arange(1 << n, dtype=np.int64), flip)
    parity = np.bitwise_count(np.bitwise_and(src, sign)) & 1
    phase = np.where(parity, -1.0, 1.0) * (1j) ** term.axes.count("Y")
    src.flags.writeable = False
    phase.flags.writeable = False
    return src, phase


def apply_term(term: PauliTerm, amplitudes: np.ndarray) -> np.ndarray:
    """Matrix-free P|psi> for one term."""
    src, phase = term.action
    return term.coefficient * (phase * amplitudes[src])


def apply_sum(h: PauliSum, amplitudes: np.ndarray) -> np.ndarray:
    """Matrix-free H|psi>."""
    out = np.zeros_like(amplitudes)
    for term in h.terms:
        src, phase = term.action
        out += term.coefficient * (phase * amplitudes[src])
    return out


def to_matrix(h: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the sum.

    Assembled from each term's basis action (row i holds ``phase[i]`` in
    column ``src[i]``), so memory stays at one output matrix.
    """
    n = h.num_sites
    if n > cap:
        raise PauliError(f"register size {n} exceeds dense cap {cap}")
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim, dtype=np.int64)
    for term in h.terms:
        src, phase = term.action
        mat[rows, src] += term.coefficient * phase
    return mat


def gershgorin_kappa(h: PauliSum) -> float:
    """Spectral-width bound kappa = 2 * sum |c_i|.

    Twice the triangle-inequality bound on the spectral radius of a
    traceless Pauli sum; rigorous whenever the identity term is absent,
    and an upper bound on lambda_max - lambda_min in general.
    """
    if not h.is_hermitian():
        raise PauliError("kappa is defined for Hermitian sums only")
    if len(h) == 0:
        raise PauliError("empty Hamiltonian has no spectral width")
    return 2.0 * h.coefficient_norm()


# ---------------------------------------------------------------------------
# Printed form: "coeff * X1 Y3 Z4" with 1-based site indices.
# ---------------------------------------------------------------------------

def _format_coefficient(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    return repr(c)


def term_to_string(term: PauliTerm) -> str:
    ops = " ".join(f"{ch}{q + 1}" for q, ch in enumerate(term.axes) if ch != "I")
    return f"{_format_coefficient(term.coefficient)} * {ops if ops else 'I'}"
