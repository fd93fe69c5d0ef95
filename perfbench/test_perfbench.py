"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced run's spans nest, and that the correctness gate flags a
corrupted or missing output.
"""

from __future__ import annotations

import json
import shutil

import pytest

import gate
import harness
import run

TOY = harness.Workload("toy", n_households=6, n_days=2, samples=3, t_grid="0.05:0.95:12")
TOY_RERUN = harness.Workload("toy-rerun", n_households=6, n_days=2, samples=3,
                             t_grid="0.05:0.95:12", rerun=True)
SPEC = harness.SPEC
# toy workloads have no stored reference, so they run on a seed outside the stored range
UNSTORED_SEED = gate.REFERENCE_SEEDS.stop


@pytest.fixture
def toy_workloads(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, TOY.name, TOY)
    monkeypatch.setitem(harness.WORKLOADS, TOY_RERUN.name, TOY_RERUN)


def _result(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_metrics(result: dict, spec_metrics: list[dict]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        emitted = result["metrics"][m["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float)


@pytest.mark.parametrize("workload", [TOY.name, TOY_RERUN.name])
def test_end_to_end_metrics_emitted_with_units(toy_workloads, capsys, workload):
    result = _result(capsys, ["--workload", workload, "--seed", str(UNSTORED_SEED),
                              "--seconds", "0", "--trace", "0"])
    _assert_metrics(result, SPEC["end_to_end"])
    assert not list(harness.TMP_ROOT.glob(f"{workload}-*"))


def test_traced_metrics_emitted_and_spans_nest(tmp_path, capsys, toy_workloads):
    result = _result(capsys, ["--workload", TOY_RERUN.name, "--seed", str(UNSTORED_SEED),
                              "--trace", "1"])
    _assert_metrics(result, SPEC["per_layer"])

    import tracing
    ops, metrics, tracer = tracing.traced_run(TOY_RERUN, 4, tmp_path, None)
    assert ops.failed == 0, ops.problems
    assert metrics["dispatch.lp_count"][0] == 6 * 3
    assert metrics["adoption.longrun_clears"][0] >= 1
    by_id = {s.id: s for s in tracer.spans}
    assert any(s.parent is not None for s in tracer.spans)
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (parent, s)


def test_gate_flags_corrupted_and_missing_csv(tmp_path):
    ops = harness.Ops()
    prep = harness.prepare(TOY, 5, tmp_path, ops)
    good = tmp_path / "good"
    child = harness.run_once(TOY, prep, good, tmp_path)
    problems, digests = harness.check_rep(TOY, good, child, None, None)
    assert problems == []
    reference = gate.key_columns(good)
    assert harness.check_rep(TOY, good, child, digests, reference)[0] == []

    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    sweep = bad / "sweep.csv"
    rows = sweep.read_text().splitlines()
    header = rows[0].split(",")
    col = header.index("clearing_price")
    row = next(i for i in range(1, len(rows)) if rows[i].split(",")[col] not in ("nan", "0.0"))
    fields = rows[row].split(",")
    fields[col] = repr(float(fields[col]) * (1 + 1e-6))
    rows[row] = ",".join(fields)
    sweep.write_text("\n".join(rows) + "\n")
    problems, _ = harness.check_rep(TOY, bad, child, digests, reference)
    assert any("byte-identical" in p and "sweep.csv" in p for p in problems), problems
    assert any("sweep.csv:clearing_price differs from the reference" in p
               for p in problems), problems

    (bad / "stakeholders.csv").unlink()
    problems, _ = harness.check_rep(TOY, bad, child, digests, reference)
    assert problems == ["missing stakeholders.csv"]


def test_gate_flags_stage_that_ran_or_hit_the_cache_wrongly():
    marks = {"fit": (1.0, "cached"), "longrun": (2.0, "cached")}
    assert gate.check_stages(marks, ("fit",), "cached") == []
    assert len(gate.check_stages(marks, ("longrun", "subsidy"), "wrote")) == 2


def test_reference_stored_for_every_seed_in_range(tmp_path):
    stored = harness.HERE / "reference"
    for name in harness.WORKLOADS:
        for seed in (gate.REFERENCE_SEEDS.start, gate.REFERENCE_SEEDS.stop - 1):
            assert set(gate.load_reference(stored, name, seed)) == set(gate.KEY_COLUMNS)
        assert gate.load_reference(stored, name, UNSTORED_SEED) is None
    with pytest.raises(FileNotFoundError):
        gate.load_reference(tmp_path, "fit-block", 0)
