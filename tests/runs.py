"""Compare two `dershare` run directories, or the runs two source trees make.

    python tests/runs.py RUN_A RUN_B
    python tests/runs.py --pair PARENT_SRC CHANGE_SRC

The first form prints each difference on a line of its own and exits 1
if there is any, 0 if there is none. Every file is compared byte for
byte except `manifest.json`, which also records when each stage ran and
for how long; of the manifest, the `outputs` checksums and each stage's
`input_hash` are compared.

The second form makes the comparison runs of a bit-for-bit change, RUNS,
once with each source tree (a directory holding the `dershare` package,
or a checkout with it under `src`), each in a temporary directory, and
prints every pair's differences the same way, or `<run>: identical` for
a pair with none: TINY, and TINY with the terminal charge required from
a half-charged start; the desk run (the default config) on one worker
and on two; a 60-household run on one day and six samples, and its
rerun with a new `--p-grid` and `--flows-at`, which rewrites longrun,
subsidy, localness and stakeholders. Its localness stage parses the
scenario from the five data files, which no fresh run does. The desk
runs take a few seconds each. A pair whose standard outputs differ,
each stage's `(N.Ns)` elapsed time masked, also prints `<run>: stdout
differs: <the change's first differing line>`: the benchmark harness
parses those stage lines. It then compares the text, with the exit
code, of `dershare --help` and of `dershare <command> --help` for
every command either tree lists, and prints `help: identical`, or
`help: differs: <the command line>` for each that differs, and last
`src: <parent> -> <change> lines`, what `wc -l src/dershare/*.py`
totals in each tree. It exits as the first form does, whatever the
line counts.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = "manifest.json"
ELAPSED = re.compile(r"\(\d+\.\ds\)")  # a stage line's elapsed time, e.g. (1.2s)

TINY = {
    "synth": {"n_households": 10, "n_days": 3, "n_regions": 2, "rng_seed": 13},
    "fit": {"n_samples": 5},
    "sweep": {"t_grid": "0.1:0.9:9"},
}
_DESK = ["--flows-at", "0.4", "--equilibrium-at", "0.3,0.7"]
_MARKET = ["--threads", "1", "--samples", "6", "--days", "1", "--t-grid", "0.005:0.995:60",
           "--flows-at", "0.4"]
_TINY = ["--threads", "1", "--flows-at", "0.5", "--equilibrium-at", "0.3,0.7"]
# name: (config, then `all`'s flags); a rerun starts from a copy of the run it names
RUNS = {
    "tiny": (TINY, _TINY),
    "tiny-terminal": ({**TINY, "require_terminal_soc": True, "asset": {"x0": 0.5}}, _TINY),
    "desk-1": ({}, ["--threads", "1", *_DESK]),
    "desk-2": ({}, ["--threads", "2", *_DESK]),
    "market": ({"synth": {"n_households": 60, "n_days": 30, "n_regions": 5, "rng_seed": 9}},
               _MARKET),
    "market-rerun": ("market", [*_MARKET, "--p-grid", "250:950:17", "--flows-at", "0.6"]),
}


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


def _env(src: Path) -> dict[str, str]:
    """The environment of a `dershare` child that runs the dershare under src."""
    env = {key: value for key, value in os.environ.items() if key != "DERSHARE_THREADS"}
    env["PYTHONPATH"] = str(src)
    return env


def stdout_differences(a: str, b: str) -> list[str]:
    """`stdout differs: <line>` with b's first line that differs from a's
    (`<end>` where b ends first), or nothing where the texts are equal, each
    elapsed time masked."""
    a, b = (ELAPSED.sub("(N.Ns)", text) for text in (a, b))
    if a == b:
        return []
    lines = [text.splitlines() + ["<end>"] for text in (a, b)]
    return [f"stdout differs: {next((y for x, y in zip(*lines) if x != y), '<end>')}"]


def make_runs(src: Path, root: Path) -> None:
    """Every run of RUNS, made in root/<name> with the dershare under src;
    its standard output goes to root/<name>.stdout."""
    env = _env(src)
    for name, (config, flags) in RUNS.items():
        out = root / name
        if isinstance(config, str):
            shutil.copytree(root / config, out)
            config = json.loads((root / f"{config}.json").read_text())
        path = root / f"{name}.json"
        path.write_text(json.dumps(config))
        proc = subprocess.run([sys.executable, "-m", "dershare", "all", "--out", str(out),
                               "--config", str(path), *flags], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        (root / f"{name}.stdout").write_text(proc.stdout)


def _help(src: Path, *command: str) -> str:
    """What `dershare <command> --help` prints with the dershare under src, and its exit code."""
    proc = subprocess.run([sys.executable, "-m", "dershare", *command, "--help"], env=_env(src),
                          capture_output=True, text=True)
    return f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n"


def help_differences(a: Path, b: Path) -> list[str]:
    """`dershare --help`, then `dershare <command> --help` for each command
    that either top-level help lists, where its text differs between the
    dershares under a and b."""
    top = [_help(a), _help(b)]
    commands = dict.fromkeys(command for text in top
                             for command in re.search(r"\{(.*?)\}", text).group(1).split(","))
    found = [] if top[0] == top[1] else ["differs: dershare --help"]
    return found + [f"differs: dershare {command} --help" for command in commands
                    if _help(a, command) != _help(b, command)]


def _package_root(src) -> Path:
    """The directory holding a source tree's `dershare` package: src, or a checkout's src."""
    src = Path(src)
    return (src / "src" if (src / "src" / "dershare").is_dir() else src).resolve()


def src_lines(src) -> int:
    """The lines of the tree's package modules, as `wc -l src/dershare/*.py` totals them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (_package_root(src) / "dershare").glob("*.py"))


def pair(parent_src, change_src) -> dict[str, list[str]]:
    """Each run of RUNS by name, with the differences between the runs of it
    that the two source trees make and between their standard outputs, then
    `help` with the help texts that differ."""
    srcs = [_package_root(src) for src in (parent_src, change_src)]
    with tempfile.TemporaryDirectory() as tmp:
        roots = []
        for side, src in zip(("parent", "change"), srcs):
            roots.append(Path(tmp) / side)
            roots[-1].mkdir()
            make_runs(src, roots[-1])
        runs = {name: differences(*(root / name for root in roots)) + stdout_differences(
                    *((root / f"{name}.stdout").read_text() for root in roots)) for name in RUNS}
    return {**runs, "help": help_differences(*srcs)}


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--pair":
        runs = pair(*argv[1:])
        lines = [f"{name}: {line}" for name, found in runs.items()
                 for line in found or ["identical"]]
        lines.append(f"src: {src_lines(argv[1])} -> {src_lines(argv[2])} lines")
        found = any(runs.values())
    elif len(argv) == 2:
        lines = found = differences(*argv)
    else:
        print("usage: python tests/runs.py RUN_A RUN_B\n"
              "       python tests/runs.py --pair PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
