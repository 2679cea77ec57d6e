"""Pauli-string algebra on a fixed qubit register.

A term is a complex coefficient times a tensor product of single-site
Paulis, stored as a string over ``IXYZ`` with one character per site
(site 0 leftmost, acting on the most significant bit of the basis
index). Sums are kept in canonical merged form: no two terms share the
same axes and coefficients below ``MERGE_TOL`` are pruned.

The algebra runs on one bit form, the symplectic masks (x, z) of
:attr:`PauliTerm.masks`: x marks the X/Y sites and z the Z/Y sites, site 0
on the top bit, the flip and sign masks of the basis action. Products
(:func:`times`), commutation (:func:`anticommutes`), the basis action and
the tapering frame of :mod:`oracle` all read them, and :func:`from_symplectic`
is their one inverse.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

AXES_CHARS = "IXYZ"
MERGE_TOL = 1e-14

# a Pauli string as (coefficient, x, z), x and z its PauliTerm.masks
Symplectic = tuple[complex, int, int]
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
_I_POWERS = (1, 1j, -1, -1j)
# (diagonal or None, ((src, phase), ...)) of PauliSum.grouped_action
GroupedAction = tuple[np.ndarray | None, tuple[tuple[np.ndarray, np.ndarray], ...]]

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
    def masks(self) -> tuple[int, int]:
        """(x, z): site q sets bit N-1-q of x when it holds X or Y and of z when it holds Z or Y.

        The one place a string is read as bits; :func:`from_symplectic` is the inverse.
        """
        return int(self.axes.translate(_X_BITS), 2), int(self.axes.translate(_Z_BITS), 2)

    @property
    def symplectic(self) -> Symplectic:
        return (self.coefficient, *self.masks)

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


def from_symplectic(string: Symplectic, num_sites: int) -> PauliTerm:
    """The term (coefficient, x, z) on ``num_sites`` sites, the inverse of :attr:`PauliTerm.symplectic`."""
    coefficient, x, z = string
    return PauliTerm(coefficient, "".join(
        "IZXY"[2 * (x >> b & 1) + (z >> b & 1)] for b in range(num_sites - 1, -1, -1)
    ))


def times(a: Symplectic, b: Symplectic) -> Symplectic:
    """The operator product a·b, its phase kept exactly: each site contributes i for X·Y, Y·Z
    and Z·X, -i for the reverse."""
    (ca, xa, za), (cb, xb, zb) = a, b
    ya, yb = xa & za, xb & zb
    only_xa, only_za, only_xb, only_zb = xa ^ ya, za ^ ya, xb ^ yb, zb ^ yb
    up = (only_xa & yb | ya & only_zb | only_za & only_xb).bit_count()
    down = (only_xa & only_zb | ya & only_xb | only_za & yb).bit_count()
    return ca * cb * _I_POWERS[(up - down) % 4], xa ^ xb, za ^ zb


def anticommutes(a: Symplectic, b: Symplectic) -> bool:
    """True iff the strings anticommute: they clash on an odd number of sites."""
    return bool(((a[1] & b[2]) ^ (a[2] & b[1])).bit_count() & 1)


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Exact operator product a·b with accumulated phase."""
    if a.num_sites != b.num_sites:
        raise PauliError(f"size mismatch: {a.num_sites} vs {b.num_sites}")
    return from_symplectic(times(a.symplectic, b.symplectic), a.num_sites)


def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True iff the strings commute (even number of anticommuting sites)."""
    if a.num_sites != b.num_sites:
        raise PauliError(f"size mismatch: {a.num_sites} vs {b.num_sites}")
    return not anticommutes(a.symplectic, b.symplectic)


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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The field-based hash, computed once: every cache lookup of this sum reads it."""
        return hash((self.terms, self.num_sites))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(t.coefficient.imag) <= tol for t in self.terms)

    def coefficient_norm(self) -> float:
        """Sum of absolute coefficients."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    @cached_property
    def grouped_action(self) -> GroupedAction:
        """Read-only (diagonal, flips): H|psi> = diagonal * psi + sum of phase * psi[src] over flips.

        Built once by :func:`group_by_flip` and kept on this sum; field-based
        equality and hashing are unaffected.
        """
        return group_by_flip(self.terms)

    def __str__(self) -> str:
        return " + ".join(term_to_string(t) for t in self.terms) if self.terms else "0"


def pauli_sum(terms: Iterable[PauliTerm], num_sites: int) -> PauliSum:
    """Merge duplicate axes, prune coefficients below MERGE_TOL.

    Term order follows first occurrence of each axes string, so sums
    built from ordered bond lists stay in bond order. A non-finite merged
    coefficient raises :class:`PauliError` (NaN would fail the pruning test
    and drop its term silently).
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
    bad = next((ax for ax in order if not cmath.isfinite(merged[ax])), None)
    if bad is not None:
        raise PauliError(f"term {bad} has the non-finite coefficient {merged[bad]}")
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
# PauliTerm.action and apply the coefficient as a scalar. A whole sum is applied
# from PauliSum.grouped_action, compiled from those actions: its flip-mask-0
# terms summed into one diagonal and one summed phase per distinct flip mask,
# so H|psi> takes one gather per flip mask instead of one per term.
# ---------------------------------------------------------------------------

# 128 KiB of complex amplitudes: at N=16 one chunk of rows per pass over the flip
# groups took apply_sum from 8.4 to 6.1 ms on a 2-core x86-64 VM
_CHUNK = 1 << 13

# A model at N sites uses about 6N strings; the memo keeps the 256 used most
# recently, at most about 400 MB at N=16.
@lru_cache(maxsize=256)
def _action_of(axes: str) -> tuple[np.ndarray, np.ndarray]:
    return term_phases(PauliTerm(1.0, axes))


def term_phases(term: PauliTerm) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-free basis action (src, phase) of the term's Pauli string.

    The flip mask is the term's x mask and the sign mask its z mask
    (:attr:`PauliTerm.masks`), and each Y site, set in both, contributes a
    factor i, so ``phase[i] = i^y (-1)^popcount(src[i] & sign)``. Both
    arrays are read-only. Use ``PauliTerm.action``, memoized on the string,
    rather than calling this directly.
    """
    flip, sign = term.masks
    src = np.bitwise_xor(np.arange(1 << term.num_sites, dtype=np.int64), flip)
    parity = np.bitwise_count(np.bitwise_and(src, sign)) & 1
    phase = np.where(parity, -1.0, 1.0) * (1j) ** (flip & sign).bit_count()
    src.flags.writeable = False
    phase.flags.writeable = False
    return src, phase


def apply_term(term: PauliTerm, amplitudes: np.ndarray) -> np.ndarray:
    """Matrix-free P|psi> for one term."""
    src, phase = term.action
    return term.coefficient * (phase * amplitudes[src])


def group_by_flip(terms: Iterable[PauliTerm]) -> GroupedAction:
    """(diagonal, flips) of a sum of terms, from each term's :attr:`PauliTerm.action`.

    ``diagonal`` is the sum of c·phase over the terms with flip mask 0, None
    when there is none; ``flips`` holds one (src, sum of c·phase) pair per
    distinct nonzero flip mask, in order of first occurrence. Terms sharing a
    flip mask share ``src``, so their phases add. Every array is read-only.
    """
    srcs: dict[int, np.ndarray] = {}
    phases: dict[int, np.ndarray] = {}
    for term in terms:
        src, phase = term.action
        flip = term.masks[0]
        if flip in phases:
            phases[flip] += term.coefficient * phase
        else:
            srcs[flip], phases[flip] = src, term.coefficient * phase
    for phase in phases.values():
        phase.flags.writeable = False
    diagonal = phases.pop(0, None)
    return diagonal, tuple((srcs[flip], phase) for flip, phase in phases.items())


def apply_sum(h: PauliSum, amplitudes: np.ndarray) -> np.ndarray:
    """Matrix-free H|psi> of every state in a ``(..., 2^N)`` stack: the diagonal, then one
    gather per flip mask of ``h.grouped_action``.

    The flip groups run over at most ``_CHUNK`` output amplitudes at a time,
    so the amplitudes they all add into stay in cache. Below N=12 the states
    run in row groups of at most ``_CHUNK // 2`` amplitudes (16 states at
    N=8), each gather one ``np.take`` along the last axis. A lone state, and
    every state from N=12, runs alone in column slices, gathered by 1-D
    indexing, which is faster per amplitude. Each amplitude gets the sum of
    its state applied alone, bit for bit.
    """
    diagonal, flips = h.grouped_action
    amplitudes = np.asarray(amplitudes)
    out = np.zeros(amplitudes.shape, complex) if diagonal is None else np.multiply(diagonal, amplitudes, order="C")
    dim = amplitudes.shape[-1]
    states, stack = out.reshape(-1, dim), amplitudes.reshape(-1, dim)  # out's is a view
    group = min(len(states), _CHUNK // (2 * dim))
    width = min(dim, _CHUNK)
    for first in range(0, len(states), max(group, 1)):
        rows = slice(first, first + group) if group > 1 else first  # an int row is 1-D
        block = stack[rows]
        for start in range(0, dim, width):
            cols = slice(start, start + width)
            part = states[rows, cols]
            for src, phase in flips:
                flipped = np.take(block, src[cols], axis=-1) if group > 1 else block[src[cols]]
                flipped *= phase[cols]
                part += flipped
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
