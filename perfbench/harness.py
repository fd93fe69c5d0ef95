"""Workloads, hermetic `dershare` children and the timed repetition loop."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

STAGES = ("gen-data", "validate", "fit", "sweep", "longrun", "subsidy", "localness",
          "stakeholders")
RERUN_CACHED = ("gen-data", "validate", "fit", "sweep", "localness")
RERUN_RECOMPUTED = ("longrun", "subsidy", "stakeholders")
STAGE_LINE = re.compile(r"^(%s): (wrote|cached)\b" % "|".join(STAGES))

MIN_REPS = 3
CHILD_TIMEOUT_S = 60.0
FLOWS_AT = "0.4"

# metric names and units are stated once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    name: str
    n_households: int
    n_days: int = 30
    n_regions: int = 5
    samples: int | None = None
    days: int | None = None
    t_grid: str | None = None
    rerun: bool = False

    def synth(self, seed: int) -> dict:
        return {"n_households": self.n_households, "n_days": self.n_days,
                "n_regions": self.n_regions, "rng_seed": seed}

    def all_args(self, out: Path, cfg: Path) -> list[str]:
        args = ["-m", "dershare", "all", "--out", str(out), "--config", str(cfg),
                "--threads", "1", "--flows-at", FLOWS_AT]
        if self.samples is not None:
            args += ["--samples", str(self.samples)]
        if self.days is not None:
            args += ["--days", str(self.days)]
        if self.t_grid is not None:
            args += ["--t-grid", self.t_grid]
        return args


# Sized so that one repetition takes a few seconds and a 35 s run holds
# several; see run.py for why each workload exists.
WORKLOADS = {
    "fit-block": Workload("fit-block", n_households=4),
    "market-wide": Workload("market-wide", n_households=60, samples=6, days=1,
                            t_grid="0.005:0.995:60"),
    "rerun-prices": Workload("rerun-prices", n_households=60, samples=6, days=1,
                             t_grid="0.005:0.995:60", rerun=True),
}


# ---------------------------------------------------------------- children

def child_env() -> dict:
    """Environment of every child: the checkout's own `src`, one thread."""
    env = {k: v for k, v in os.environ.items() if k not in ("DERSHARE_THREADS", "PYTHONPATH")}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONUNBUFFERED="1")
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    lines: list[tuple[float, str]]  # (seconds since launch, line)

    def tail(self, n: int = 3) -> str:
        return " | ".join(line for _, line in self.lines[-n:])

    def stage_marks(self) -> dict[str, tuple[float, str]]:
        """Stage -> (completion time, 'wrote' or 'cached'), from the stage lines."""
        marks = {}
        for t, line in self.lines:
            m = STAGE_LINE.match(line)
            if m:
                marks[m.group(1)] = (t, m.group(2))
        return marks


def launch(args: list[str], cwd: Path) -> Child:
    """Run one interpreter child to completion; time it and take its rusage.

    Output is read line by line as it arrives, so stage completion lines
    carry their own timestamps. Children run one at a time.
    """
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append((time.perf_counter() - started, line.rstrip("\n")))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    # ru_maxrss is in KiB on Linux
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, lines)


# ---------------------------------------------------------------- operations

@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def launch_setup(ops: Ops, cwd: Path) -> Child | None:
    """One `python -m dershare --version`; setup_s is its wall time."""
    child = launch(["-m", "dershare", "--version"], cwd)
    ok = ops.record("setup", [] if child.code == 0 and child.lines else
                    [f"exit code {child.code}: {child.tail()}"])
    return child if ok else None


def write_config(wl: Workload, seed: int, root: Path) -> Path:
    path = root / "config.json"
    path.write_text(json.dumps({"synth": wl.synth(seed)}, indent=2) + "\n")
    return path


def midpoint_p_grid(run_dir: Path) -> str:
    """The 20 midpoints of the auto p-grid that a completed run used."""
    prices = [float(row["price"]) for row in gate.read_rows(run_dir / "longrun.csv")]
    return ",".join(repr((a + b) / 2) for a, b in zip(prices, prices[1:]))


@dataclass
class Prepared:
    config: Path
    base_dir: Path | None  # completed run directory that rerun-prices copies
    extra_args: list[str]
    child: Child | None = None  # the child that completed base_dir


def prepare(wl: Workload, seed: int, root: Path, ops: Ops) -> Prepared | None:
    """Write the config and, for rerun-prices, complete one market-wide run."""
    cfg = write_config(wl, seed, root)
    if not wl.rerun:
        return Prepared(cfg, None, [])
    base = root / "base"
    child = launch(wl.all_args(base, cfg), root)
    problems = gate.check_run(base, child, gate.EXPECTED_CSVS)
    if not ops.record("prepare", problems):
        return None
    return Prepared(cfg, base, ["--p-grid", midpoint_p_grid(base)], child)


def run_once(wl: Workload, prep: Prepared, out: Path, cwd: Path) -> Child:
    if prep.base_dir is not None:
        shutil.copytree(prep.base_dir, out)
    return launch(wl.all_args(out, prep.config) + prep.extra_args, cwd)


def check_rep(wl: Workload, out: Path, child: Child, first: dict | None,
              reference: dict | None) -> tuple[list[str], dict]:
    """Every correctness check on one repetition; returns (problems, digests)."""
    problems = gate.check_run(out, child, gate.EXPECTED_CSVS)
    if problems:
        return problems, {}
    if wl.rerun:
        marks = child.stage_marks()
        problems += gate.check_stages(marks, RERUN_CACHED, "cached")
        problems += gate.check_stages(marks, RERUN_RECOMPUTED, "wrote")
    digests = gate.digests(out, gate.EXPECTED_CSVS)
    if first is not None:
        changed = sorted(rel for rel in digests if digests[rel] != first.get(rel))
        if changed:
            problems.append(f"not byte-identical to the first repetition: {', '.join(changed)}")
    try:
        problems += gate.check_invariants(out)
        if reference is not None:
            problems += gate.compare_reference(gate.key_columns(out), reference)
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable output CSV: {exc!r}")
    return problems, digests


def remove_tmp_root() -> None:
    """Remove the scratch root unless another run still has a directory in it."""
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass


def import_dershare() -> None:
    """Make the checkout's own package importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------- environment

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dershare").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "git_commit": _git_commit(), "src_sha256": _src_digest(),
            "load1_start": round(os.getloadavg()[0], 2)}


# ---------------------------------------------------------------- end to end

def measure(wl: Workload, seed: int, seconds: float, root: Path,
            reference: dict | None) -> tuple[Ops, dict, dict]:
    """Timed repetitions of the workload with tracing off.

    Each cycle launches `dershare --version` once for setup_s and then runs
    the workload once, so both are sampled across the whole window rather
    than in a burst at its start: a shared machine's speed can drift over
    tens of seconds. Cycles start while the next one is expected to end within
    `seconds` of the first, and at least MIN_REPS run. One untimed launch
    first fills the bytecode cache.
    """
    ops = Ops()
    launch_setup(ops, root)
    prep = prepare(wl, seed, root, ops)
    walls, rss, setup, cycles, cache = [], [], [], [], {}
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    if prep is None:
        return ops, samples, cache
    first = None
    started = time.perf_counter()
    for rep in itertools.count(1):
        cycle_start = time.perf_counter()
        child = launch_setup(ops, root)
        if child is not None:
            setup.append(child.wall_s)
        out = root / f"rep{rep}"
        child = run_once(wl, prep, out, root)
        problems, digests = check_rep(wl, out, child, first, reference)
        if ops.record(f"repetition {rep}", problems):
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            first = first or digests
            cache = {s: kind for s, (_, kind) in child.stage_marks().items()}
        shutil.rmtree(out, ignore_errors=True)
        cycles.append(time.perf_counter() - cycle_start)
        if rep >= MIN_REPS and (time.perf_counter() - started
                                + statistics.median(cycles) > seconds):
            break
    return ops, samples, cache
