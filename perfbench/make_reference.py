"""Regenerate the stored correctness references of the benchmark.

    python3 perfbench/make_reference.py

Runs every workload once for each seed in `gate.REFERENCE_SEEDS` through
the CLI, exactly as the timed repetitions do, and stores the key columns
that `gate.py` compares against in `perfbench/reference/<workload>.json.gz`.
Runs go one per CPU at a time, each child with one worker. Run it only on
a commit whose results are known to be right: every later run of the
benchmark is checked against what it writes.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402
import harness  # noqa: E402


def reference_for(name: str, seed: int) -> dict:
    wl = harness.WORKLOADS[name]
    root = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=harness.TMP_ROOT))
    try:
        ops = harness.Ops()
        prep = harness.prepare(wl, seed, root, ops)
        if prep is None:
            raise RuntimeError(f"{name} seed {seed}: {ops.problems}")
        out = root / "run"
        child = harness.run_once(wl, prep, out, root)
        problems, _ = harness.check_rep(wl, out, child, None, None)
        if problems:
            raise RuntimeError(f"{name} seed {seed}: {problems}")
        return gate.key_columns(out)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    harness.TMP_ROOT.mkdir(exist_ok=True)
    env = harness.environment()
    seeds = list(gate.REFERENCE_SEEDS)
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for name, wl in sorted(harness.WORKLOADS.items()):
            stored = {}
            for seed, columns in zip(seeds, pool.map(reference_for, [name] * len(seeds), seeds)):
                stored[str(seed)] = columns
                print(f"{name} seed {seed}: ok", flush=True)
            meta = {"workload": asdict(wl), "git_commit": env["git_commit"],
                    "src_sha256": env["src_sha256"]}
            path = gate.save_reference(harness.HERE / "reference", name, meta, stored)
            print(f"wrote {path.relative_to(harness.ROOT)} ({path.stat().st_size} bytes)")
    harness.remove_tmp_root()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
