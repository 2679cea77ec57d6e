"""Dump the package's Pauli-algebra results on the Kitaev tori, or compare two dumps bit for bit.

    PYTHONPATH=src python tests/algebra_dump.py dump OUT.pkl
    python tests/algebra_dump.py compare OLD.pkl NEW.pkl

``dump`` records, for J = -1 and +1, the :func:`oracle.tapering_frame` of h0
(generators, sites, rotations) and its :class:`oracle.TaperedSum` (terms and
masks) at N = 8, 12 and 16, the :func:`oracle.diagonalize` arrays of h0 and
of h (h_z = 0.1) at N = 8 and 12, and the :func:`lattice.stabilizer_group`
generators at N = 8, 12 and 16. ``compare`` prints every entry that differs
and exits 1 if there is any, 0 otherwise; arrays are compared with
``np.array_equal`` on equal dtypes, everything else with ``==``. The dumps
are pickles: compare only dumps this script wrote.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np

SHAPES = {8: (2, 2), 12: (3, 2), 16: (4, 2)}


def _terms(terms) -> list:
    return [(t.coefficient, t.axes) for t in terms]


def dump() -> dict:
    from kitaevqse import lattice, oracle

    out = {}
    for n, (rows, cols) in SHAPES.items():
        lat = lattice.build_lattice(rows, cols)
        out[f"stabilizer_group/N{n}"] = _terms(lattice.stabilizer_group(lat).generators)
        for coupling in (-1.0, 1.0):
            h0 = lattice.kitaev_hamiltonian(lat, coupling)
            frame = oracle.tapering_frame(h0)
            tapered = oracle.TaperedSum.build(h0, frame)
            key = f"N{n}/J{coupling:+g}"
            out[f"frame/{key}"] = (
                _terms(frame.generators), frame.sites, [_terms(pair) for pair in frame.rotations]
            )
            out[f"tapered/{key}"] = (_terms(tapered.terms), tapered.masks)
            if n > 12:
                continue
            for label, h in (("h0", h0), ("h", lattice.kitaev_hamiltonian(lat, coupling, 0.1))):
                decomp = oracle.diagonalize(h)
                for name in ("permutation", "block_vectors", "order", "eigenvalues"):
                    out[f"diagonalize/{key}/{label}/{name}"] = np.array(getattr(decomp, name))
                out[f"diagonalize/{key}/{label}/ground_degeneracy"] = decomp.ground_degeneracy
    return out


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    return a == b


def compare(old: dict, new: dict) -> list[str]:
    return [key for key in sorted(old.keys() | new.keys())
            if key not in old or key not in new or not _same(old[key], new[key])]


def main(argv: list[str]) -> int:
    if argv[:1] == ["dump"] and len(argv) == 2:
        with open(argv[1], "wb") as fh:
            pickle.dump(dump(), fh)
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        old, new = (pickle.load(open(path, "rb")) for path in argv[1:])
        differing = compare(old, new)
        for key in differing:
            print(f"differs: {key}")
        print(f"{len(old.keys() | new.keys()) - len(differing)} entries identical, {len(differing)} differ")
        return 1 if differing else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
