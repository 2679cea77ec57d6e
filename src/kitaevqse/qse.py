"""Quantum subspace expansion: multigrid basis, H/S assembly, eigensolve.

Basis state (l, k) is V(k dt) V((n_k+1) dt)^l |ref>: a coarse stride of
(n_k+1) time steps raised to the power l, then k fine steps on top. In
index order (l ascending, k ascending within each l) its step
m = l (n_k+1) + k runs over the uniform grid -M..M, M = n_l (n_k+1) + n_k,
so a :class:`SubspaceBasis` is its two integers: the steps, the
reference's row M and each row's (l, k) (:func:`split_steps`) follow from
(n_k, n_l). At fixed n_k the grids nest: the steps of the n_l grid are the
middle block of a deeper one's, and its states are those of the n_l basis
itself, bit for bit, so a sweep over n_l builds one basis per n_k and
reads each smaller n_l off its principal submatrices
(:func:`nested_subspace`). In either evolution mode that block's S and H
equal a separate assembly to roundoff (about 1e-10 in the swept trotter2
energies).

A basis is always assembled under the Hamiltonian it evolves under, either
applying H directly or through the Hamiltonian operator approximation
(HOA), a sine difference of evolution overlaps; the HOA step tau alone
selects the second. In exact evolution every overlap depends on the lag
m_b - m_a alone: S and H are Toeplitz and come from 2M+1 autocorrelation
entries of the reference (Cortes & Gray, PRA 105, 022417 (2022)).
So an exact basis holds no state. Trotterized bases, whose V_r(t) is not a
group in t, hold one amplitude stack and are assembled from its overlaps,
H applied to the whole stack at once; their symmetric product formula is
time-reversible, V_r(-tau) = V_r(tau)^dag, so HOA evolves the stack in one
direction only. Bases under one Hamiltonian grow together, at any Trotter
step counts (:func:`build_bases`): every coarse level of every reference is
one stack, and so are all their fine steps.

The generalized eigenproblem H phi = E S phi is solved by canonical
orthogonalization: eigendecompose S, drop the near-null directions,
transform to an ordinary Hermitian problem, solve densely. Spectral
truncation (rather than a ridge term) keeps the solution inside the
span of the basis, so the variational bound on the energy survives
regularization. :func:`canonical_orthogonalization` factorizes S here
and in ``greens``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliSum, apply_sum, gershgorin_kappa
from .simulator import (
    EvolutionOperator,
    StateVector,
    autocorrelations,
    evolve_stack,
    evolved_superposition,
)

DEFAULT_S_THRESHOLD = 1e-12
HERMITICITY_TOL = 1e-10


class QseError(ValueError):
    pass


def split_steps(steps: np.ndarray, n_k: int) -> tuple[np.ndarray, np.ndarray]:
    """(l, k) of each grid step m = l (n_k + 1) + k, with |k| <= n_k and k of
    the sign of m: the index order read backwards, so m = 0 is (0, 0)."""
    l = np.sign(steps) * (np.abs(steps) // (n_k + 1))
    return l, steps - l * (n_k + 1)


def default_time_step(h: PauliSum) -> float:
    """2*pi over the Gershgorin spectral-width bound."""
    return 2.0 * np.pi / gershgorin_kappa(h)


@dataclass
class SubspaceBasis:
    """The reference, its (n_k, n_l) grid and its V(t); basis state b is V(m_b dt)|ref>.

    A trotter2 basis holds its states as one (n_phi, 2^N) ``amplitudes``
    stack, one row per grid step in index order. An exact basis holds
    none (``amplitudes`` is None): its matrices and its reconstructed state
    come from the spectral weights of the reference.
    """

    reference: StateVector
    n_k: int
    n_l: int
    delta_t: float
    evolution: EvolutionOperator
    amplitudes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_k < 0 or self.n_l < 0:
            raise QseError("n_k and n_l must be non-negative")

    @property
    def reference_row(self) -> int:
        """M = n_l (n_k + 1) + n_k: the row of step 0, the reference itself."""
        return self.n_l * (self.n_k + 1) + self.n_k

    @property
    def steps(self) -> np.ndarray:
        """The step m of each row, t = m dt: -M .. M ascending."""
        return np.arange(-self.reference_row, self.reference_row + 1)

    def __len__(self) -> int:
        return 2 * self.reference_row + 1


BasisRequest = tuple[StateVector, int, int]  # (reference, n_k, n_l)


def build_bases(
    requests: Sequence[BasisRequest],
    delta_t: float,
    evolution: EvolutionOperator | Sequence[EvolutionOperator],
) -> list[SubspaceBasis]:
    """Evolve each request's reference onto its two-level multigrid, one
    :class:`SubspaceBasis` per request, in order, under ``evolution``: one
    operator for every request, or one per request.

    state(l, k) = V(k dt) (V((n_k+1) dt))^l ref, with (l, k) the
    :func:`split_steps` of the row's step and negative l using the inverse
    coarse evolution. In trotter2 mode each V application is
    one product-formula evolution over its full time argument, so the
    step count per basis state stays at r*(|l|+1). The circuits of all
    trotter2 requests, under one Hamiltonian at any step counts, are shared
    through :func:`simulator.evolve_stack`: level l advances the +l and -l
    anchors of every request with n_l >= l as one stack; the anchors fill
    one stack in request and index order, each basis a run of its rows, and
    all k != 0 rows are evolved in one final stack, each at its own k dt. A
    stacked row is the one-state evolution bit for bit, so each basis
    equals a :func:`build_basis` of its request alone, which
    :func:`nested_subspace` relies on. An exact request forms no state (see
    :class:`SubspaceBasis`).
    """
    if delta_t <= 0.0:
        raise QseError("delta_t must be positive")
    operators = [evolution] * len(requests) if isinstance(evolution, EvolutionOperator) else evolution
    if len(operators) != len(requests):
        raise QseError(f"{len(operators)} evolution operators for {len(requests)} requests")
    bases = [SubspaceBasis(ref, n_k, n_l, delta_t, op) for (ref, n_k, n_l), op in zip(requests, operators)]
    grown = [basis for basis in bases if basis.evolution.mode == "trotter2"]
    if not grown:
        return bases

    anchors = [{0: basis.reference.amplitudes} for basis in grown]
    for l in range(1, max(basis.n_l for basis in grown) + 1):
        deep = [j for j, basis in enumerate(grown) if basis.n_l >= l]
        evolved = evolve_stack(
            [grown[j].evolution for j in deep for _ in (1, -1)],
            np.stack([anchors[j][sign * (l - 1)] for j in deep for sign in (1, -1)]),
            [sign * (grown[j].n_k + 1) * delta_t for j in deep for sign in (1, -1)],  # +-(n_k+1) dt
        )
        for j, plus, minus in zip(deep, evolved[::2], evolved[1::2]):
            anchors[j][l], anchors[j][-l] = plus, minus
    splits = [split_steps(basis.steps, basis.n_k) for basis in grown]
    amplitudes = np.stack([chain[l] for chain, (ls, _) in zip(anchors, splits) for l in ls.tolist()])
    k = np.concatenate([ks for _, ks in splits])  # the fine step of each row
    fine = np.flatnonzero(k)
    if fine.size:  # there are no k != 0 states when every n_k = 0
        row_evolution = [basis.evolution for basis in grown for _ in range(len(basis))]
        amplitudes[fine] = evolve_stack([row_evolution[i] for i in fine], amplitudes[fine], k[fine] * delta_t)
    ends = np.cumsum([len(basis) for basis in grown])
    for basis, end in zip(grown, ends):
        basis.amplitudes = amplitudes[end - len(basis):end]
    return bases


def build_basis(
    ref: StateVector,
    n_k: int,
    n_l: int,
    delta_t: float,
    evolution: EvolutionOperator,
) -> SubspaceBasis:
    """The one-request :func:`build_bases`: ``ref`` evolved onto the (n_k, n_l) multigrid."""
    (basis,) = build_bases([(ref, n_k, n_l)], delta_t, evolution)
    return basis


@dataclass
class SubspaceMatrices:
    hamiltonian: np.ndarray
    overlap: np.ndarray
    hoa_tau: float | None = None

    @property
    def assembly_mode(self) -> str:
        return "exact" if self.hoa_tau is None else "hoa"

    def block(self, rows: slice) -> "SubspaceMatrices":
        """The principal submatrices of H and S on ``rows``, assembled as these were."""
        return SubspaceMatrices(self.hamiltonian[rows, rows], self.overlap[rows, rows], self.hoa_tau)

    def to_json_dict(self) -> dict:
        return {
            "assembly_mode": self.assembly_mode,
            "hoa_tau": self.hoa_tau,
            "hamiltonian_re": self.hamiltonian.real.tolist(),
            "hamiltonian_im": self.hamiltonian.imag.tolist(),
            "overlap_re": self.overlap.real.tolist(),
            "overlap_im": self.overlap.imag.tolist(),
        }


def assemble_matrices(basis: SubspaceBasis, hoa_tau: float | None = None) -> SubspaceMatrices:
    """Fill H_ab = <a|H|b> and S_ab = <a|b> over the basis, H the Hamiltonian
    the basis evolves under.

    Without ``hoa_tau`` H is applied directly. With it, H is replaced by the
    Hamiltonian operator approximation, a central sine difference of evolution
    overlaps, (<a|V(-tau)|b> - <a|V(tau)|b>) / (2i tau), hermitized; the
    relative error is O((tau*kappa)^2), and tau*kappa outside (0, 1) is rejected.

    An exact basis fills both matrices as Toeplitz sequences in the grid step
    m of each state (t = m dt): S_ab = c(m_b - m_a) and H_ab = h(m_b - m_a),
    with h built from f(E) = E, or f(E) = sin(E tau)/tau under HOA, negative
    lags the complex conjugates. The 2M+1 sequence entries come from
    :func:`simulator.autocorrelations`. A trotter2 basis is assembled from its
    statevectors.
    """
    if hoa_tau is not None:
        tau_kappa = hoa_tau * gershgorin_kappa(basis.evolution.hamiltonian)
        if not 0.0 < tau_kappa < 1.0:
            raise QseError(f"tau*kappa = {tau_kappa:g} outside (0, 1): sine-difference approximation invalid")
    if basis.evolution.mode == "exact":
        s_mat, h_mat = _toeplitz_matrices(basis, hoa_tau)
    else:
        s_mat, h_mat = _statevector_matrices(basis, hoa_tau)
    return SubspaceMatrices(h_mat, s_mat, hoa_tau)


def _toeplitz_matrices(basis: SubspaceBasis, hoa_tau: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) from the reference's two autocorrelation sequences, indexed by
    lag: f(E) = E, or sin(E tau)/tau when ``hoa_tau`` is given."""
    def spectral_filter(energies):
        return energies if hoa_tau is None else np.sin(energies * hoa_tau) / hoa_tau

    steps = basis.steps
    lag = steps[None, :] - steps[:, None]  # m_b - m_a, at most 2M
    sequences = autocorrelations(basis.evolution, basis.reference, basis.delta_t, len(basis), spectral_filter)
    s_mat, h_mat = (np.where(lag >= 0, seq[abs(lag)], seq[abs(lag)].conj()) for seq in sequences)
    return s_mat, h_mat


def _statevector_matrices(basis: SubspaceBasis, hoa_tau: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) from overlaps of the basis states: H applied directly to the
    whole stack in one :func:`pauli.apply_sum`, or the HOA sine difference
    when ``hoa_tau`` is given, from V(tau) alone, which evolves all basis
    states as one stack (:func:`simulator.evolve_stack`)."""
    phi = basis.amplitudes
    s_mat = phi.conj() @ phi.T
    if hoa_tau is None:
        h_mat = phi.conj() @ apply_sum(basis.evolution.hamiltonian, phi).T
        residual = np.max(np.abs(h_mat - h_mat.conj().T))
        if residual > HERMITICITY_TOL * max(1.0, np.max(np.abs(h_mat))):
            raise QseError(f"assembled H has hermiticity residual {residual:g}")
    else:
        # M_ab = <a|V(tau)|b>, and <a|V(-tau)|b> = conj(M_ba) since V_r(-tau) = V_r(tau)^dag
        # (see trotter_schedule): one stacked evolution, and (M^dag - M)/(2i tau) is Hermitian
        fwd = evolve_stack(basis.evolution, phi, np.full(len(phi), hoa_tau))
        m_mat = phi.conj() @ fwd.T
        h_mat = (m_mat.conj().T - m_mat) / (2j * hoa_tau)
    return 0.5 * (s_mat + s_mat.conj().T), 0.5 * (h_mat + h_mat.conj().T)


def nested_block(basis: SubspaceBasis, n_l: int) -> slice:
    """The rows of ``basis`` whose |l| <= n_l: the n_l grid, the middle block of a deeper one."""
    if not 0 <= n_l <= basis.n_l:
        raise QseError(f"n_l = {n_l} is not nested in a basis of depth {basis.n_l}")
    start = (basis.n_l - n_l) * (basis.n_k + 1)  # the n_k + 1 steps of each deeper |l| on either side
    return slice(start, len(basis) - start)


def nested_subspace(
    basis: SubspaceBasis, mats: SubspaceMatrices, n_l: int
) -> tuple[SubspaceBasis, SubspaceMatrices]:
    """The |l| <= n_l block of an assembled basis, and its S and H.

    The block holds the states that ``build_basis`` gives at n_l, bit for
    bit: the anchor chain and the fine evolutions are the same calls. Its S
    and H are the principal submatrices of ``mats``; a trotter2 block's
    states are a slice of the amplitude stack, and an exact block holds none.
    """
    block = nested_block(basis, n_l)
    if n_l == basis.n_l:
        return basis, mats
    rows = None if basis.amplitudes is None else basis.amplitudes[block]
    return SubspaceBasis(basis.reference, basis.n_k, n_l, basis.delta_t, basis.evolution, rows), mats.block(block)


@dataclass
class QseGroundState:
    coefficients: np.ndarray
    energy: float
    regularization_report: dict


def canonical_orthogonalization(
    s_mat: np.ndarray, threshold: float = DEFAULT_S_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """(X, ascending S eigenvalues): X^dag S X = I on the S-eigendirections
    above ``threshold`` times the largest, one column of X per kept direction.
    """
    s_eigs, s_vecs = np.linalg.eigh(s_mat)
    if s_eigs[-1] <= 0.0:
        raise QseError("overlap matrix is numerically rank zero")
    keep = s_eigs > threshold * s_eigs[-1]
    if not np.any(keep):
        raise QseError("regularization discarded the entire subspace")
    return s_vecs[:, keep] / np.sqrt(s_eigs[keep]), s_eigs


def solve_ground_state(
    mats: SubspaceMatrices,
    threshold: float = DEFAULT_S_THRESHOLD,
    psd_tol: float = 1e-12,
) -> QseGroundState:
    """Minimal generalized eigenpair on the regularized subspace.

    The returned coefficient vector is S-normalized. The overlap matrix
    must be PSD within ``psd_tol`` (relative to its largest eigenvalue);
    directions with S-eigenvalue below ``threshold`` times the largest
    are discarded before the transformed Hermitian solve.
    """
    s_mat, h_mat = mats.overlap, mats.hamiltonian
    for name, mat in (("S", s_mat), ("H", h_mat)):
        residual = np.max(np.abs(mat - mat.conj().T))
        if residual > 1e-8 * max(1.0, np.max(np.abs(mat))):
            raise QseError(f"{name} is not Hermitian (residual {residual:g})")

    transform, s_eigs = canonical_orthogonalization(s_mat, threshold)
    if s_eigs[0] < -psd_tol * s_eigs[-1]:
        raise QseError(f"overlap matrix is not PSD: min eigenvalue {s_eigs[0]:g}")
    h_ortho = transform.conj().T @ h_mat @ transform
    h_ortho = 0.5 * (h_ortho + h_ortho.conj().T)
    evals, evecs = np.linalg.eigh(h_ortho)
    coeffs = transform @ evecs[:, 0]

    kept = transform.shape[1]
    report = {
        "s_eigenvalues": s_eigs.tolist(),
        "threshold": threshold,
        "kept": kept,
        "discarded": s_eigs.size - kept,
        "condition_number": float(s_eigs[-1] / s_eigs[-kept]),
    }
    return QseGroundState(coefficients=coeffs, energy=float(evals[0]), regularization_report=report)


def nested_energy_change(basis: SubspaceBasis, mats: SubspaceMatrices, gs: QseGroundState) -> float | None:
    """``gs``'s energy minus the ground energy of the (n_k, n_l - 1) block of ``mats``, its S and H
    sliced at :func:`nested_block` (HOA-assembled ones included) and solved once more, with no
    state evolved and nothing assembled again; None at n_l = 0, which nests no smaller shape."""
    if basis.n_l == 0:
        return None
    return gs.energy - solve_ground_state(mats.block(nested_block(basis, basis.n_l - 1))).energy


def reconstruct_state(gs: QseGroundState, basis: SubspaceBasis) -> StateVector:
    """Sum the basis states with the solved coefficients (unit norm by S-normalization).

    An exact basis sums sum_b c_b V(t_b)|ref> in one spectral pass, with no
    basis state formed.
    """
    if basis.evolution.mode == "exact":
        return evolved_superposition(basis.evolution, basis.reference, basis.delta_t, basis.steps, gs.coefficients)
    return StateVector(basis.amplitudes.T @ gs.coefficients, basis.reference.num_sites)


def prepare_qse_ground_state(
    reference: StateVector,
    h: PauliSum,
    n_k: int,
    n_l: int,
    *,
    evolution: EvolutionOperator | None = None,
    hoa_tau: float | None = None,
) -> tuple[QseGroundState, SubspaceBasis, SubspaceMatrices]:
    """One-call pipeline: basis at the default time step, matrices, solve.

    V(t) is ``evolution``, by default the exact ``EvolutionOperator(h)``, which
    shares the oracle's one factorization of ``h``; an ``evolution`` under
    another Hamiltonian raises QseError. ``hoa_tau`` selects HOA assembly
    (:func:`assemble_matrices`).
    """
    if evolution is None:
        evolution = EvolutionOperator(h)
    elif evolution.hamiltonian != h:
        raise QseError("evolution runs under a Hamiltonian other than h")
    basis = build_basis(reference, n_k, n_l, default_time_step(h), evolution)
    mats = assemble_matrices(basis, hoa_tau)
    gs = solve_ground_state(mats)
    return gs, basis, mats


SubspaceShape = tuple[str, int, int, int]  # (evolution mode, r, n_k, n_l); r = 0 in exact mode


def sweep_shapes(
    shape_pairs: Sequence[tuple[int, int]], evolution_mode: str, trotter_steps: Sequence[int]
) -> list[SubspaceShape]:
    """One shape per (n_l, n_k) and, when Trotterized, per step count r, in
    sweep order; exact evolution records r = 0 since no step count applies."""
    rs = [0] if evolution_mode == "exact" else list(trotter_steps)
    return [(evolution_mode, r, n_k, n_l) for n_l, n_k in shape_pairs for r in rs]


def deepest_subspaces(
    reference: StateVector, h: PauliSum, shapes: Iterable[SubspaceShape]
) -> dict[tuple[str, int, int], tuple[SubspaceBasis, SubspaceMatrices]]:
    """One directly assembled basis per (mode, r, n_k) of ``shapes``, at the
    largest n_l any of them asks for and the default time step; a shape is
    then the :func:`nested_subspace` of the entry at ``shape[:3]``. All
    entries grow in one :func:`build_bases` call, each under the V(t) of its
    (mode, r): the trotter2 entries of every step count share one compiled
    schedule and every stack, each row running its own r."""
    depth: dict[tuple[str, int, int], int] = {}
    for mode, r, n_k, n_l in shapes:
        depth[mode, r, n_k] = max(depth.get((mode, r, n_k), 0), n_l)
    evolution = {(mode, r): EvolutionOperator(h, mode, max(r, 1)) for mode, r, _ in depth}
    bases = build_bases(
        [(reference, n_k, n_l) for (_, _, n_k), n_l in depth.items()],
        default_time_step(h),
        [evolution[mode, r] for mode, r, _ in depth],
    )
    return {key: (basis, assemble_matrices(basis)) for key, basis in zip(depth, bases)}


def qse_energy_curve(
    subspaces: dict[tuple[str, int, int], tuple[SubspaceBasis, SubspaceMatrices]],
    shapes: Sequence[SubspaceShape],
    exact_energy: float,
) -> list[dict]:
    """Energy-distance sweep: one row dict per shape, in order, with keys
    (n_l, n_k, n_phi, r, mode, energy, delta_e), each solved on the
    :func:`nested_subspace` of its entry in ``subspaces``
    (:func:`deepest_subspaces` of these shapes or of more)."""
    rows: list[dict] = []
    for mode, r, n_k, n_l in shapes:
        sub, mats = nested_subspace(*subspaces[mode, r, n_k], n_l)
        gs = solve_ground_state(mats)
        rows.append({
            "n_l": n_l,
            "n_k": n_k,
            "n_phi": len(sub),
            "r": r,
            "mode": mode,
            "energy": gs.energy,
            "delta_e": abs(gs.energy - exact_energy),
        })
    return rows
