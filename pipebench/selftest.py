"""Check self-test: every check must reject a deliberately corrupted artifact.

    python3 pipebench/selftest.py

Runs a small N=8 pipeline (about ten seconds) in ``.pipebench_out/selftest``,
requires every check to pass on its artifacts, then feeds each check a
corrupted copy (a shifted energy, a perturbed VQE angle, a permuted DSF row, a
scaled GF column, ...) and requires the targeted check to fail. The
criterion-4 band and the N=12 sum rule are fed synthetic inputs. Exits 1 if
any corruption slips through.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402

CONFIG = {
    "seed": 1,
    "vqe": {"layers": 1, "layer_sweep": [0]},
    "qse": {"shape_sweep": [[0, 1], [1, 1], [2, 1], [3, 3]], "trotter_sweep": [1, 2]},
    "dsf": {"h_values": [0.0, 0.2, 0.4]},
}
STAGES = ("ed-reference", "vqe", "qse", "greens", "dsf")


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def edit_csv(path: Path, name: str, change) -> None:
    """Replace column ``name`` by ``change(values)``, keeping the metadata lines."""
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[start].split(",")
    rows = [line.split(",") for line in lines[start + 1:] if line]
    col = header.index(name)
    values = change(np.array([float(r[col]) for r in rows]))
    for row, value in zip(rows, values):
        row[col] = repr(float(value))
    path.write_text("\n".join(lines[: start + 1] + [",".join(r) for r in rows]) + "\n")


def swap_first_nested_pair(values: np.ndarray, path: Path) -> np.ndarray:
    """Swap the energies of (n_l, n_k) and (n_l + 1, n_k) so the nested sweep rises."""
    _, header, rows = checks.read_csv(path)
    n_l, n_k = checks.column(header, rows, "n_l"), checks.column(header, rows, "n_k")
    for i in range(len(values)):
        for j in range(len(values)):
            if n_k[i] == n_k[j] and n_l[j] == n_l[i] + 1 and values[j] < values[i] - 1e-6:
                values = values.copy()
                values[i], values[j] = values[j], values[i]
                return values
    raise AssertionError("no nested pair with distinct energies")


def corruptions(out: Path, fields: int):
    """(description, stage, function that corrupts the artifact directory)."""
    def shape_rise(d):
        path = d / "qse_shape_sweep.csv"
        edit_csv(path, "energy", lambda v: swap_first_nested_pair(v, path))

    def field_rows(v):
        table = v.reshape(fields, -1)
        return table[::-1].ravel()

    def ridge_shift(v):
        return np.roll(v.reshape(fields, -1), 3, axis=1).ravel()

    return [
        ("shifted zero-field E0", "ed-reference",
         lambda d: edit_json(d / "ed_reference.json", lambda a: a["entries"][0].update(
             ground_energy=a["entries"][0]["ground_energy"] + 1e-6))),
        ("wrong ground degeneracy", "ed-reference",
         lambda d: edit_json(d / "ed_reference.json", lambda a: a["entries"][1].update(
             ground_degeneracy=a["entries"][1]["ground_degeneracy"] + 1))),
        ("VQE angle perturbed by 1e-3", "vqe",
         lambda d: edit_json(d / "vqe_result.json", lambda a: a["optimal_parameters"].__setitem__(
             0, a["optimal_parameters"][0] + 1e-3))),
        ("VQE reported energy shifted", "vqe",
         lambda d: edit_json(d / "vqe_result.json", lambda a: a.update(final_energy=a["final_energy"] - 1e-6))),
        ("QSE energy below E0", "qse",
         lambda d: edit_json(d / "qse_ground_state.json", lambda a: a.update(energy=a["energy"] - 1e-6))),
        ("QSE energy raised by 1e-9", "qse",
         lambda d: edit_json(d / "qse_ground_state.json", lambda a: a.update(energy=a["energy"] + 1e-9))),
        ("HOA energy off by ten biases", "qse",
         lambda d: edit_json(d / "qse_ground_state.json", lambda a: a.update(
             assembly_mode="hoa", energy=a["exact_energy"] + 0.05))),
        ("shape sweep rising with n_l", "qse", shape_rise),
        ("ED GF column scaled by 1.01", "greens",
         lambda d: edit_csv(d / "gf_curve_z.csv", "re_ed", lambda v: 1.01 * v)),
        ("QSE GF columns scaled by 1.2", "greens",
         lambda d: [edit_csv(d / "gf_curve_z.csv", c, lambda v: 1.2 * v) for c in ("re_qse", "im_qse")]),
        ("ED DSF field rows permuted", "dsf",
         lambda d: edit_csv(d / "dsf_ed.csv", "s_normalized", field_rows)),
        ("QSE DSF ridge shifted by 3 cells", "dsf",
         lambda d: edit_csv(d / "dsf_qse.csv", "s_normalized", ridge_shift)),
        ("QSE DSF table scaled off [0, 1]", "dsf",
         lambda d: edit_csv(d / "dsf_qse.csv", "s_normalized", lambda v: 0.9 * v)),
    ]


def synthetic_cases() -> list[tuple[str, bool, bool]]:
    """(description, passes on good input, passes on corrupted input)."""
    r = np.arange(1, 6, dtype=float)
    falling = 0.08 / r**2
    rising = falling.copy()
    rising[3] = 1.5 * rising[2]
    omega = np.arange(-10.0, 10.05, 0.1)
    g = 1.0 / (omega + 0.1j - 2.0) + 1.0 / (omega + 0.1j + 2.0)
    return [
        ("criterion-4 band, dE rising at r=4",
         all(o.passed for o in checks.trotter_band(r, falling)),
         all(o.passed for o in checks.trotter_band(r, rising))),
        ("sum rule, QSE weight scaled by 1.2",
         checks.sum_rule("z", omega, g, g, 0.05).passed,
         checks.sum_rule("z", omega, 1.2 * g, g, 0.05).passed),
    ]


def main() -> int:
    from kitaevqse import cli
    from kitaevqse.config import config_from_dict

    base = ROOT / ".pipebench_out" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    clean = base / "clean"
    clean.mkdir(parents=True)
    (base / "config.json").write_text(json.dumps(CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in STAGES:
            if cli.main([stage, "--config", str(base / "config.json"), "--out", str(clean)]) != 0:
                print(f"stage {stage} failed")
                return 1
    fixture = json.loads((clean / "lattice_fixture.json").read_text())
    checker = checks.Checker(config_from_dict(CONFIG), fixture)

    ok = True
    for stage in STAGES:
        failing = [o for o in checker.check(stage, clean) if not o.passed]
        ok &= not failing
        print(f"clean {stage}: {'all checks pass' if not failing else failing}")

    for index, (what, stage, corrupt) in enumerate(corruptions(clean, len(CONFIG["dsf"]["h_values"]))):
        bad = base / f"case{index}"
        shutil.copytree(clean, bad)
        corrupt(bad)
        failing = [o.name for o in checker.check(stage, bad) if not o.passed]
        ok &= bool(failing)
        print(f"{'rejected' if failing else 'MISSED'}: {stage}, {what} -> {', '.join(failing) or 'no check failed'}")

    for what, good, corrupted in synthetic_cases():
        ok &= good and not corrupted
        print(f"{'rejected' if good and not corrupted else 'MISSED'}: {what} "
              f"(good input passes: {good}, corrupted passes: {corrupted})")
    shutil.rmtree(base, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
