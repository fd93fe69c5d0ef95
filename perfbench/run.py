"""dershare benchmark: end-to-end runs of `dershare all` and a traced per-layer run.

    python3 perfbench/run.py --workload market-wide --seed 3 --seconds 35 --trace 0

Run it from the root of a checkout (the directory holding `src/dershare`).
With `--trace 0` each repetition is a fresh `python -m dershare all` child
with tracing off, and the last line of standard output is one JSON object
with the end-to-end metrics: the medians of wall time, of set-up time
(`python -m dershare --version`) and of peak RSS; their quartiles are
printed above it. With `--trace 1` the benchmark runs the
workload once through the CLI to time each stage from outside, then calls
the library from its own code with spans around each layer (see
`tracing.py`) and reports the per-layer metrics instead.

Workloads (the program sees only the generated config and CSVs):

- fit-block: few households, full 30-day blocks and the default
  31-point capacity grid and 200-point t-grid, so the dispatch LP over a
  block dominates; a dispatch change must show here, a market change
  must not.
- market-wide: many households with one-day blocks and six samples, so
  the fit is many tiny LPs and the run is dominated by the repeated
  market clearing of sweep, longrun, subsidy, localness and stakeholders.
- rerun-prices: a completed market-wide run directory is prepared
  (untimed); each repetition reruns `all` on a fresh copy with an explicit
  p-grid at the midpoints of the auto grid, so five stages must be cache
  hits and longrun, subsidy and stakeholders recompute.

Every child runs with one worker and one BLAS thread, one at a time, in a
fresh directory under `.perfbench_tmp/` of the checkout, which is removed
on exit. Each child is an operation; it fails when it exits nonzero, when
an expected CSV is missing or when a correctness check in `gate.py`
fails. `failed / attempted` is the error rate. Key columns are compared
with the references stored for seeds 0-255; on another seed every other
check still runs, and a warning on standard error says that the key
columns went unchecked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402
import harness  # noqa: E402
from harness import END_TO_END, HERE, SRC, STAGES, TMP_ROOT, WORKLOADS, Ops, Workload  # noqa: E402

# ---------------------------------------------------------------- reporting

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name:<14} median {q2:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def result_line(correct: bool, ops: Ops, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({"correct": correct, "attempted": max(ops.attempted, 1),
                       "failed": ops.failed if ops.attempted else 1,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main_untraced(wl: Workload, seed: int, seconds: float, root: Path, env: dict,
                  reference: dict | None) -> int:
    ops, samples, cache = harness.measure(wl, seed, seconds, root, reference)
    for name, unit in END_TO_END.items():
        if samples[name]:
            print(describe(name, samples[name], unit))
    print(f"error_rate     {ops.failed / max(ops.attempted, 1):.4f}  "
          f"({ops.failed} of {ops.attempted} operations failed)")
    if cache:
        print("stages         " + " ".join(f"{s}={'hit' if cache.get(s) == 'cached' else 'run'}"
                                         for s in STAGES))
    print("reference      " + env["reference"])
    for problem in ops.problems:
        print("FAILED", problem)
    env.update(load1_end=round(os.getloadavg()[0], 2), workload=wl.name, seed=seed,
               trace=0, samples={k: [round(v, 6) for v in vals] for k, vals in samples.items()})
    print("record " + json.dumps(env, sort_keys=True))
    correct = ops.failed == 0 and all(samples[name] for name in END_TO_END)
    metrics = {name: (statistics.median(samples[name]), unit)
               for name, unit in END_TO_END.items() if samples[name]}
    print(result_line(correct, ops, metrics))
    return 0


def main_traced(wl: Workload, seed: int, seconds: float, root: Path, env: dict,
                reference: dict | None) -> int:
    import tracing  # imports dershare itself, so only the traced run pays for it
    ops, metrics, tracer = tracing.traced_run(wl, seed, root, reference)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<26} {value:.6g} {unit}  {note}".rstrip())
    for problem in ops.problems:
        print("FAILED", problem)
    env.update(load1_end=round(os.getloadavg()[0], 2), workload=wl.name, seed=seed,
               trace=1, spans=len(tracer.spans))
    print("record " + json.dumps(env, sort_keys=True))
    correct = ops.failed == 0
    print(result_line(correct, ops, {k: (v, u) for k, (v, u, _) in metrics.items()}))
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the timed repetitions run (a traced run makes one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dershare" / "__init__.py").is_file():
        print(f"error: no dershare sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = harness.environment()
    wl = WORKLOADS[args.workload]
    reference = gate.load_reference(HERE / "reference", wl.name, args.seed)
    env["reference"] = "checked" if reference is not None else "unchecked"
    if reference is None:
        seeds = gate.REFERENCE_SEEDS
        print(f"warning: no reference stored for seed {args.seed} (stored: {seeds.start}-"
              f"{seeds.stop - 1}); key columns are not compared, only invariants and "
              "repeatability", file=sys.stderr)
    TMP_ROOT.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        body = main_traced if args.trace else main_untraced
        return body(wl, args.seed, args.seconds, root, env, reference)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        harness.remove_tmp_root()


if __name__ == "__main__":
    raise SystemExit(main())
