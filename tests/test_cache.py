"""A stateful test of the run directory's cache: seeded random sequences of
what a user does to a TINY run directory, each step followed by what the
stage protocol promises.

A step edits one cell of a data file, deletes one file of the run, deletes
`manifest.json`, changes one setting, runs one stage or runs `all`. After
each step the command exited 0, or 2 with an `error:` line; no file the
user edited or supplied has changed (a data file counts as supplied once
the manifest that recorded it is gone); and after an `all` that exits 0,
every output equals, byte for byte, what validate to stakeholders write,
one by one, in a fresh directory holding a copy of the same data under the
same settings.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dershare import cli
from runs import TINY

# each setting a step may change, by config key (section, key) or flag, and its values;
# None leaves the key or flag out, the first value is the one a sequence starts from
CHOICES = {
    ("fit", "n_samples"): (5, 4),
    ("sweep", "t_grid"): ("0.1:0.9:9", "0.2:0.8:4"),
    ("prices", "p_grid"): (None, "0.5:2:4"),
    ("asset", "eta_i"): (None, 0.9),
    ("require_terminal_soc",): (None, True),
    "--seed": (None, "14"),
    "--days": (None, "2"),
    "--equilibrium-at": (None, "0.3,0.7"),
    "--flows-at": (None, "0.5"),
}
# each kind of step, and how often a step is of it: an edited or supplied data file stops every
# later `all` (gen-data refuses it), so those come seldom enough that most sequences reach the
# byte-for-byte check a few times first
KINDS = {"edit": 1, "delete": 3, "manifest": 1, "setting": 6, "stage": 4, "all": 6}
COMMANDS = [stage.name for stage in cli.STAGES]


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class Session:
    """One run directory, the settings the user has chosen, and the files the
    user has edited or supplied, with their bytes; fresh_runs holds the
    outputs of fresh runs by their data and settings."""

    def __init__(self, root: Path, fresh_runs: dict[str, dict[str, bytes]]):
        self.root, self.out, self.fresh_runs = root, root / "run", fresh_runs
        self.settings = {name: values[0] for name, values in CHOICES.items()}
        self.user: dict[str, bytes] = {}

    def _config(self) -> Path:
        config = copy.deepcopy(TINY)
        for name, value in self.settings.items():
            if isinstance(name, tuple) and value is not None:
                section = config
                for key in name[:-1]:
                    section = section.setdefault(key, {})
                section[name[-1]] = value
        path = self.root / "config.json"
        path.write_text(json.dumps(config))
        return path

    def argv(self, command: str, out: Path) -> list[str]:
        """The command line of command on out under the session's settings."""
        flags = {cli.SETTINGS[name].flag for name in cli._COMMANDS[command][1]}
        return [command, "--out", str(out), "--config", str(self._config()),
                *(arg for name, value in self.settings.items()
                  if name in flags and value is not None for arg in (name, value))]

    def run(self, command: str, capsys) -> int:
        capsys.readouterr()
        code = cli.main(self.argv(command, self.out))
        err = capsys.readouterr().err
        assert code in (0, 2), (command, code, err)
        if code == 2:
            assert err.startswith("error: ") and "Traceback" not in err, err
        return code

    def fresh(self) -> dict[str, bytes]:
        """validate to stakeholders, one by one, on a copy of the run's data
        in a fresh directory: every file they write, by its path."""
        data = _files(self.out / cli.DATA_SUBDIR)
        key = hashlib.sha256(json.dumps([sorted((k, v.hex()) for k, v in data.items()),
                                         sorted(map(repr, self.settings.items()))])
                             .encode()).hexdigest()
        if key not in self.fresh_runs:
            out = self.root / f"fresh-{key[:12]}"
            shutil.copytree(self.out / cli.DATA_SUBDIR, out / cli.DATA_SUBDIR)
            for command in COMMANDS[1:]:
                assert cli.main(self.argv(command, out)) == 0, command
            self.fresh_runs[key] = {
                rel: b for rel, b in _files(out).items()
                if rel != cli.MANIFEST_FILE and not rel.startswith(cli.DATA_SUBDIR)}
        return self.fresh_runs[key]

    def step(self, rng: np.random.Generator, capsys) -> str:
        """One random step; what it did. A step with nothing to act on (no
        data file to edit, no file to delete, no manifest) runs `all`."""
        kind = rng.choice(list(KINDS), p=np.array(list(KINDS.values())) / sum(KINDS.values()))
        data = [rel for rel in cli.DATA_RELS if (self.out / rel).exists()]
        files = sorted(rel for rel in _files(self.out) if rel != cli.MANIFEST_FILE) \
            if self.out.exists() else []
        if kind == "edit" and data:
            rel = data[rng.integers(len(data))]
            header, *rows = (self.out / rel).read_text().splitlines()
            row = rng.integers(len(rows))
            cells = rows[row].split(",")
            numeric = [j for j, name in enumerate(header.split(","))
                       if name != "day" and _nonzero(cells[j])]
            j = numeric[rng.integers(len(numeric))]
            cells[j] = repr(float(cells[j]) * 1.01)
            rows[row] = ",".join(cells)
            (self.out / rel).write_text("\n".join([header, *rows]) + "\n")
            self.user[rel] = (self.out / rel).read_bytes()
            return f"edit {rel}:{row + 2} column {j}"
        if kind == "delete" and files:
            # half the time the user takes the refusal's advice and removes a file of theirs
            mine = sorted(self.user) if self.user and rng.random() < 0.5 else files
            rel = mine[rng.integers(len(mine))]
            (self.out / rel).unlink()
            self.user.pop(rel, None)
            return f"delete {rel}"
        if kind == "manifest" and (self.out / cli.MANIFEST_FILE).exists():
            (self.out / cli.MANIFEST_FILE).unlink()
            self.user.update({rel: (self.out / rel).read_bytes() for rel in data})
            return "delete manifest.json"
        if kind == "setting":
            names = list(CHOICES)
            name = names[rng.integers(len(names))]
            values = [v for v in CHOICES[name] if v != self.settings[name]]
            self.settings[name] = values[rng.integers(len(values))]
            return f"set {name} {self.settings[name]}"
        if kind == "stage":
            command = COMMANDS[rng.integers(len(COMMANDS))]
            return f"{command}: exit {self.run(command, capsys)}"
        code = self.run("all", capsys)
        if code == 0:
            made = _files(self.out)
            for rel, expected in self.fresh().items():
                assert made.get(rel) == expected, rel
        return f"all: exit {code}"


def _nonzero(cell: str) -> bool:
    try:
        return float(cell) != 0.0
    except ValueError:
        return False


@pytest.fixture(scope="module")
def fresh_runs() -> dict[str, dict[str, bytes]]:
    """The outputs of the fresh runs the sequences compare with, shared among them."""
    return {}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_sequence_of_steps_loses_user_data_or_leaves_a_stale_output(tmp_path, capsys,
                                                                       fresh_runs, seed):
    rng = np.random.default_rng(seed)
    session = Session(tmp_path, fresh_runs)
    done = []
    for _ in range(20):
        try:
            done.append(session.step(rng, capsys))
            for rel, expected in session.user.items():
                assert (session.out / rel).read_bytes() == expected, f"{rel} changed"
        except AssertionError as exc:
            raise AssertionError(f"{exc}\nafter: {done}") from None
