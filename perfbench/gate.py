"""Correctness gate for one `dershare all` run directory.

A run fails the gate when the child exited nonzero, when an expected CSV
is missing, when stages that must be cache hits ran, when outputs that
two stages compute independently disagree, or when a key column differs
from the reference stored for the workload and seed. Floats must match
the reference to 1e-9 relative (with a 1e-12 absolute floor for values
that are zero up to round-off); owner and `k_*` counts must match
exactly. References for seeds 0-255 (`REFERENCE_SEEDS`) were generated
with `make_reference.py`; a run on another seed gets every other check
and says so on standard error.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

EXPECTED_CSVS = (
    "data/loads.csv", "data/irradiance.csv", "data/tariff_buy.csv", "data/tariff_sell.csv",
    "data/regions.csv", "exclusions.csv", "savings_curves.csv", "purchases_curves.csv",
    "sweep.csv", "longrun.csv", "subsidy.csv", "localness.csv", "flows_t0.4.csv",
    "stakeholders.csv",
)

# file -> (exact integer columns, float columns)
KEY_COLUMNS = {
    "sweep.csv": (("owners",), ("clearing_price", "volume")),
    "longrun.csv": (("k_short", "k_long"), ("price", "delta_q")),
    "subsidy.csv": ((), ("delta_q", "subsidy")),
    "localness.csv": ((), ("volume", "objective")),
    "stakeholders.csv": ((), ("delta_q", "vendor_gain", "utility_loss")),
}

REL_TOL = 1e-9
ABS_FLOOR = 1e-12

# the seeds whose key columns are stored; make_reference.py writes exactly these
REFERENCE_SEEDS = range(256)


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(out: Path, child, expected) -> list[str]:
    """Exit code and presence of every expected CSV."""
    if child.code != 0:
        return [f"exit code {child.code}: {child.tail()}"]
    missing = [rel for rel in expected if not (out / rel).is_file()]
    return [f"missing {rel}" for rel in missing]


def check_stages(marks: dict[str, tuple[float, str]], stages, kind: str) -> list[str]:
    """Each named stage must report `kind`: 'cached' for a cache hit, 'wrote' for a run."""
    return [f"stage {s} reported {marks.get(s, (0, 'no line'))[1]!r}, expected {kind!r}"
            for s in stages if marks.get(s, (0, ""))[1] != kind]


def digests(out: Path, expected) -> dict[str, str]:
    return {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in expected}


def key_columns(out: Path) -> dict[str, dict[str, list]]:
    """The key columns of a run directory: ints as int, floats as float."""
    cols = {}
    for name, (ints, floats) in KEY_COLUMNS.items():
        rows = read_rows(out / name)
        cols[name] = {c: [int(r[c]) for r in rows] for c in ints}
        cols[name].update({c: [float(r[c]) for r in rows] for c in floats})
    return cols


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def compare_reference(actual: dict, reference: dict) -> list[str]:
    problems = []
    for name, columns in reference.items():
        for col, ref in columns.items():
            got = actual.get(name, {}).get(col)
            if got is None or len(got) != len(ref):
                problems.append(f"{name}:{col} has {len(got or [])} rows, reference {len(ref)}")
                continue
            exact = col in KEY_COLUMNS[name][0]
            bad = [i for i, (a, b) in enumerate(zip(got, ref))
                   if (a != b if exact else not _close(a, b))]
            if bad:
                i = bad[0]
                problems.append(f"{name}:{col} differs from the reference in {len(bad)} rows "
                                f"(row {i + 1}: {got[i]!r} vs {ref[i]!r})")
    return problems


def check_invariants(out: Path) -> list[str]:
    """Figures that two stages compute independently must agree exactly."""
    problems = []
    sweep = read_rows(out / "sweep.csv")
    local = read_rows(out / "localness.csv")
    if [r["t"] for r in sweep] != [r["t"] for r in local]:
        problems.append("localness.csv t column differs from sweep.csv")
    elif [r["volume"] for r in sweep] != [r["volume"] for r in local]:
        problems.append("localness.csv volume differs from sweep.csv")
    longrun = read_rows(out / "longrun.csv")
    for name in ("subsidy.csv", "stakeholders.csv"):
        rows = read_rows(out / name)
        if [(r["price"], r["delta_q"]) for r in rows] != \
                [(r["price"], r["delta_q"]) for r in longrun]:
            problems.append(f"{name} price/delta_q differ from longrun.csv")
    for r in longrun:
        if not int(r["k_short"]) <= int(r["k_long"]):
            problems.append(f"longrun.csv: k_long < k_short at price {r['price']}")
            break
    return problems


def reference_path(directory: Path, workload: str) -> Path:
    return directory / f"{workload}.json.gz"


def load_reference(directory: Path, workload: str, seed: int) -> dict | None:
    """Key columns stored for this workload and seed; None for a seed outside
    REFERENCE_SEEDS. A reference missing inside that range is an error."""
    if seed not in REFERENCE_SEEDS:
        return None
    with gzip.open(reference_path(directory, workload), "rt") as fh:
        return json.load(fh)["seeds"][str(seed)]


def save_reference(directory: Path, workload: str, meta: dict, seeds: dict) -> Path:
    path = reference_path(directory, workload)
    directory.mkdir(parents=True, exist_ok=True)
    payload = json.dumps({"meta": meta, "seeds": seeds}, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the compressed bytes a function of the content alone
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(payload.encode())
    return path
