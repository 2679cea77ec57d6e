"""List the artifacts that differ between two ``kitaevqse all`` output directories.

    python tests/artifact_diff.py [--report] OLD NEW

Every ``.csv`` and ``.json`` file of either directory is compared exactly,
with no tolerance, apart from when it was written: CSV lines starting with
``# timestamp`` and the JSON ``_meta.timestamp`` entry are ignored. Prints
one line per artifact that differs or exists on one side only, and exits 1
if there is any, 0 otherwise. With ``--report`` each differing artifact's
line also gives the largest absolute difference over its numeric CSV cells
and JSON leaves, says "recorded config differs" when the run configuration
the artifact records (the JSON ``_meta.config`` entry, the CSV ``# config =``
line) differs, and says when anything else differs too (text, other
metadata, or the number of rows or entries).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ARTIFACT_SUFFIXES = (".csv", ".json")
CONFIG_KEY = ("config",)  # the recorded run configuration, one leaf per artifact


def _content(path: Path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        try:
            payload = json.loads(text)
        except ValueError:
            return text
        if isinstance(payload, dict) and isinstance(payload.get("_meta"), dict):
            payload["_meta"].pop("timestamp", None)
        return json.dumps(payload, sort_keys=True)
    return "\n".join(line for line in text.splitlines() if not line.startswith("# timestamp"))


def _leaves(path: Path) -> list:
    """The artifact's values in document order: JSON leaves keyed by their
    path, CSV metadata lines by their key and CSV cells by (row, column)
    among the lines that are not metadata, so that a metadata line added or
    removed shifts no cell; numbers as floats, all else as is. The recorded
    config is one text leaf under ``CONFIG_KEY``."""
    text = _content(path)
    if path.suffix == ".json":
        try:
            payload = json.loads(text)
        except ValueError:
            return [((), text)]
        out: list = []
        if isinstance(payload, dict) and isinstance(payload.get("_meta"), dict) and "config" in payload["_meta"]:
            out.append((CONFIG_KEY, json.dumps(payload["_meta"].pop("config"), sort_keys=True)))

        def walk(node, key):
            if isinstance(node, dict):
                for name in sorted(node):
                    walk(node[name], (*key, name))
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    walk(item, (*key, i))
            else:
                number = isinstance(node, (int, float)) and not isinstance(node, bool)
                out.append((key, float(node) if number else node))

        walk(payload, ())
        return out
    out = []
    rows = (line for line in text.splitlines() if not line.startswith("#"))
    for line in text.splitlines():
        if line.startswith("# config ="):
            out.append((CONFIG_KEY, line))
        elif line.startswith("#"):
            name, _, value = line.partition(" = ")
            out.append(((name,), value))
    for i, line in enumerate(rows):
        for j, cell in enumerate(line.split(",")):
            try:
                out.append(((i, j), float(cell)))
            except ValueError:
                out.append(((i, j), cell))
    return out


def numeric_report(old: Path, new: Path) -> str:
    """'max |diff| = X' over the numbers both artifacts hold at the same place,
    plus a note when the recorded config differs and one when anything else does."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    config = a.pop(CONFIG_KEY, None) != b.pop(CONFIG_KEY, None)
    largest, other = 0.0, a.keys() != b.keys()
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        if isinstance(x, float) and isinstance(y, float):
            largest = max(largest, abs(x - y))
        elif x != y:
            other = True
    notes = ["recorded config differs"] * config + ["non-numeric content differs"] * other
    return "; ".join([f"max |diff| = {largest:.3g}", *notes])


def differing_artifacts(old: Path, new: Path, report: bool = False) -> list[str]:
    """One line per artifact name that differs between ``old`` and ``new``."""
    names = sorted({p.name for d in (old, new) for p in d.iterdir() if p.suffix in ARTIFACT_SUFFIXES})
    out = []
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            out.append(f"{name}: only in {new if (new / name).exists() else old}")
        elif _content(old / name) != _content(new / name):
            out.append(f"{name}: differs" + (f", {numeric_report(old / name, new / name)}" if report else ""))
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    report = "--report" in args
    if report:
        args.remove("--report")
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = map(Path, args)
    for path in (old, new):
        if not path.is_dir():
            print(f"error: {path} is not a directory", file=sys.stderr)
            return 2
    differences = differing_artifacts(old, new, report)
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
