"""List the artifacts that differ between two ``kitaevqse all`` output directories.

    python tests/artifact_diff.py OLD NEW

Every ``.csv`` and ``.json`` file of either directory is compared exactly,
with no tolerance, apart from when it was written: CSV lines starting with
``# timestamp`` and the JSON ``_meta.timestamp`` entry are ignored. Prints
one line per artifact that differs or exists on one side only, and exits 1
if there is any, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ARTIFACT_SUFFIXES = (".csv", ".json")


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


def differing_artifacts(old: Path, new: Path) -> list[str]:
    """One line per artifact name that differs between ``old`` and ``new``."""
    names = sorted({p.name for d in (old, new) for p in d.iterdir() if p.suffix in ARTIFACT_SUFFIXES})
    out = []
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            out.append(f"{name}: only in {new if (new / name).exists() else old}")
        elif _content(old / name) != _content(new / name):
            out.append(f"{name}: differs")
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = map(Path, args)
    for path in (old, new):
        if not path.is_dir():
            print(f"error: {path} is not a directory", file=sys.stderr)
            return 2
    differences = differing_artifacts(old, new)
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
