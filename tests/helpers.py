"""Dense reference constructions shared by the tests."""

import numpy as np

_SINGLE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def term_to_matrix(term) -> np.ndarray:
    """Dense matrix of one Pauli term as a Kronecker product, site 0 leftmost,
    independent of the package's basis-action kernel."""
    mat = np.ones((1, 1), dtype=complex)
    for ch in term.axes:
        mat = np.kron(mat, _SINGLE_MATRICES[ch])
    return term.coefficient * mat
