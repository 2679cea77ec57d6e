"""Independent exact-diagonalization reference, built with scipy.

The Hamiltonian is assembled from the bond lists in ``lattice_fixture.json``
and the workload's coupling and field, as a scipy sparse matrix of
single-site Pauli products. Nothing here imports ``kitaevqse.pauli`` or
``kitaevqse.oracle``. Site 0 acts on the most significant bit of the basis
index, as in the package.

Ground spaces come from a dense ``scipy.linalg.eigh`` up to 256 amplitudes
and from ``scipy.sparse.linalg.eigsh`` above. Green's functions are exact
pole/residue sums over the dense spectrum of the parity sector that the
excited state lives in (2048 amplitudes at N=12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_MAX_SITES = 8
DEGENERACY_GAP = 1e-8

_PAULI = {
    "X": sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
    "Y": sp.csr_matrix(np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)),
    "Z": sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)),
}


class ReferenceError(RuntimeError):
    pass


def site_operator(kind: str, site: int, num_sites: int) -> sp.csr_matrix:
    """Pauli ``kind`` on ``site`` as a sparse 2^N matrix (site 0 = top bit)."""
    left = sp.identity(1 << site, dtype=complex, format="csr")
    right = sp.identity(1 << (num_sites - 1 - site), dtype=complex, format="csr")
    return sp.kron(sp.kron(left, _PAULI[kind]), right, format="csr")


def hamiltonian(fixture: dict, coupling, field_z: float) -> sp.csr_matrix:
    """Kitaev bond couplings plus a uniform z field, real symmetric."""
    n = int(fixture["num_sites"])
    j = np.broadcast_to(np.asarray(coupling, dtype=float), (3,))
    ops = {k: [site_operator(k, s, n) for s in range(n)] for k in "XYZ"}
    h = sp.csr_matrix((1 << n, 1 << n), dtype=complex)
    for kind, j_val in zip("XYZ", j):
        for u, v in fixture[f"bonds_{kind.lower()}"]:
            h = h + j_val * (ops[kind][u] @ ops[kind][v])
    for s in range(n):
        h = h + field_z * ops["Z"][s]
    if abs(h.imag).max() > 1e-14:
        raise ReferenceError("Kitaev + z-field Hamiltonian should be real")
    return sp.csr_matrix(h.real)


@dataclass
class GroundSpace:
    energy: float
    degeneracy: int
    vectors: np.ndarray  # (2^N, degeneracy) orthonormal columns


def ground_space(h: sp.csr_matrix, num_sites: int, k: int = 8) -> GroundSpace:
    if num_sites <= DENSE_MAX_SITES:
        evals, evecs = sla.eigh(h.toarray())
    else:
        evals, evecs = spla.eigsh(h, k=k, which="SA", tol=0.0, v0=np.ones(h.shape[0]))
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
    deg = int(np.sum(evals <= evals[0] + DEGENERACY_GAP))
    if deg >= len(evals):
        raise ReferenceError(f"ground space fills all {len(evals)} computed eigenpairs")
    return GroundSpace(float(evals[0]), deg, evecs[:, :deg])


class ParitySectors:
    """Dense spectra of H on the two sectors of prod_i sigma^z_i.

    Bond terms flip two spins and the field is diagonal, so H conserves the
    parity of the number of up spins; each 2^(N-1) block is diagonalized
    densely on first use.
    """

    def __init__(self, h: sp.csr_matrix):
        dim = h.shape[0]
        self.h = h
        self.parity = np.array([bin(i).count("1") & 1 for i in range(dim)])
        even, odd = np.flatnonzero(self.parity == 0), np.flatnonzero(self.parity == 1)
        if h[even][:, odd].nnz and abs(h[even][:, odd]).max() > 0.0:
            raise ReferenceError("Hamiltonian mixes the parity sectors")
        self._spectra: dict[int, tuple] = {}

    def spectrum(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(basis indices, eigenvalues, eigenvectors) of sector ``p``."""
        if p not in self._spectra:
            idx = np.flatnonzero(self.parity == p)
            evals, evecs = sla.eigh(self.h[idx][:, idx].toarray())
            self._spectra[p] = (idx, evals, evecs)
        return self._spectra[p]

    def sector_of(self, v: np.ndarray) -> int:
        weight = [np.linalg.norm(v[self.parity == p]) for p in (0, 1)]
        p = int(np.argmax(weight))
        if weight[1 - p] > 1e-12 * weight[p]:
            raise ReferenceError("vector does not have a definite parity")
        return p

    def poles_residues(self, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(poles, residues) with <w|(z - H)^-1|v> = sum_j r_j / (z - p_j)."""
        idx, evals, evecs = self.spectrum(self.sector_of(v))
        return evals, np.conj(evecs.T @ w[idx]) * (evecs.T @ v[idx])


def retarded_gf(
    sectors: ParitySectors, space: GroundSpace, c_a: sp.csr_matrix, c_b: sp.csr_matrix, z: np.ndarray
) -> np.ndarray:
    """<GS|c_a (z - H)^-1 c_b|GS> + <GS|c_a (z + H)^-1 c_b|GS> for Hermitian c.

    The package's convention: no ground-energy shift, poles at +-E_n.
    """
    if space.degeneracy != 1:
        raise ReferenceError("GF reference needs a non-degenerate ground state")
    gs = space.vectors[:, 0]
    poles, res = sectors.poles_residues(c_a @ gs, c_b @ gs)
    z = np.asarray(z, dtype=complex)[:, None]
    return (res[None, :] / (z - poles[None, :]) + res[None, :] / (z + poles[None, :])).sum(axis=1)


def structure_factor_q0(
    h: sp.csr_matrix, space: GroundSpace, num_sites: int, omega: np.ndarray, delta: float
) -> np.ndarray:
    """(1/N) sum_mu Im G of the collective operator sum_i sigma_i^mu, at q = 0."""
    z = np.asarray(omega, dtype=float) + 1j * delta
    sectors = ParitySectors(h)
    total = np.zeros(z.size)
    for kind in "XYZ":
        collective = sum(site_operator(kind, s, num_sites) for s in range(num_sites))
        total += np.imag(retarded_gf(sectors, space, collective, collective, z))
    return total / num_sites


def normalize(table: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(table)), float(np.max(table))
    return (table - lo) / (hi - lo)
