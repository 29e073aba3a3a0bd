"""Smoke test of the benchmark at toy size.

Run from the repository root: ``python3 -m pytest -q lfbench/test_smoke.py``
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAMED_E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
NAMED_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def _run(capsys, workload, trace, corrupt=None):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, scale="toy", corrupt=corrupt) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", ["curves", "lattice", "ooc"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    named = NAMED_LAYER if trace else NAMED_E2E
    assert set(result["metrics"]) == set(named)
    for name, unit in named.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float | int)
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("metric error_rate = 0.0 ratio") for line in lines)
    assert any(line.startswith("metric score_s_p50 = ") for line in lines)
    assert any(line.startswith("metric fit_s_tail") for line in lines)
    if trace:
        assert abs(result["metrics"]["trace.self_sum_share"]["value"] - 1.0) < 0.01


def _scale_one_phi_column(outputs):
    outputs.phi_x[0][:, 0] *= 1.01


@pytest.mark.parametrize("workload", ["curves", "ooc"])
def test_corrupted_output_counts_as_failed(capsys, workload):
    lines, result = _run(capsys, workload, 0, corrupt=_scale_one_phi_column)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED fit") and "not orthonormal" in line for line in lines)
    assert not any(line.startswith("metric error_rate = 0.0 ") for line in lines)
