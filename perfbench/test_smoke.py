"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs one untraced and one traced pass over shrunken pools,
against references recorded on the spot.  The test checks that every
metric BENCHMARK.json names is printed with its unit, that outputs pass
their checks, and that a wrong reference is counted as a failure.
"""

from __future__ import annotations

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SCALING_POOL", [("s5-i0", 5, 2, 0), ("p3-i0", 4, 3, 0)])
    monkeypatch.setattr(workloads, "LONG_HORIZON_MIX", [(2, 1), (3, 1)])
    monkeypatch.setattr(workloads, "SWEEP_GRID", [Fraction(17, 51), Fraction(34, 51)])
    monkeypatch.setattr(workloads, "EXACT_BADLY_SPACED", 2)
    monkeypatch.setattr(workloads, "EXACT_RANDOM", (5, 0))
    monkeypatch.setattr(workloads, "SAT_FAMILY", (1, 2))
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    m = run.import_library()
    for name in workloads.WORKLOADS:
        refs = record.record(m, name)
        (tmp_path / f"{name}.json").write_text(json.dumps(refs))
    return tmp_path


def _run(capsys, name, trace):
    args = run.parse_args(
        ["--workload", name, "--seed", "3", "--seconds", "0.001", "--trace", str(trace)]
    )
    run.run_workload(args)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(tiny, capsys, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _units(section)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_reference_counts_as_failure(tiny, capsys):
    path = tiny / "long-horizon.json"
    refs = json.loads(path.read_text())
    refs["bs2"]["kappa"] += 1
    path.write_text(json.dumps(refs))
    result = _run(capsys, "long-horizon", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2


def test_tail_is_eleventh_largest_request_median_or_the_largest():
    big = [[float(i + r) for i in range(100)] for r in range(3)]
    assert run.tail_latency(run.request_medians(big)) == (90.0, 90.0, 100)
    small = [[float(i * r) for i in range(20)] for r in (1, 2, 3)]
    assert run.tail_latency(run.request_medians(small)) == (38.0, 100.0, 20)


def test_missing_entry_point_is_reported_absent():
    m = run.import_library()
    present = ("welfare", "solve", "evaluate", "oracle", "linalg", "model", "bench")
    without_generators = types.SimpleNamespace(**{k: getattr(m, k) for k in present})
    tracer = tracing.Tracer(without_generators, m.MdpwfError)
    tracer.install()
    tracer.uninstall()
    assert "mdpwf.generators.random_mdp" in tracer.absent
    assert tracing.absent_metrics(tracer.installed) == ["generators.build_s"]
