"""Compare two `dershare` run directories.

    python tests/runs.py RUN_A RUN_B

prints each difference on a line of its own and exits 1 if there is any,
0 if there is none. Every file is compared byte for byte except
`manifest.json`, which also records when each stage ran and for how
long; of the manifest, the `outputs` checksums and each stage's
`input_hash` are compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MANIFEST = "manifest.json"


def _manifest_record(run: Path) -> dict:
    """What a run's manifest says about its results: the output checksums
    and each stage's input hash."""
    path = run / MANIFEST
    manifest = json.loads(path.read_text()) if path.exists() else {}
    return {"outputs": manifest.get("outputs"),
            **{f"stages.{stage}.input_hash": entry.get("input_hash")
               for stage, entry in manifest.get("stages", {}).items()}}


def differences(a, b) -> list[str]:
    """Every file whose bytes differ between run directories a and b or which
    only one of them has, then every manifest record that differs."""
    a, b = Path(a), Path(b)
    files = [{p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()} - {MANIFEST}
             for run in (a, b)]
    found = []
    for rel in sorted(files[0] | files[1]):
        if rel not in files[1]:
            found.append(f"only in {a}: {rel}")
        elif rel not in files[0]:
            found.append(f"only in {b}: {rel}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            found.append(f"differs: {rel}")
    record_a, record_b = _manifest_record(a), _manifest_record(b)
    found += [f"{MANIFEST} differs: {key}" for key in sorted(record_a.keys() | record_b.keys())
              if record_a.get(key) != record_b.get(key)]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/runs.py RUN_A RUN_B", file=sys.stderr)
        return 2
    found = differences(*argv)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
