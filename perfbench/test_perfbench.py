"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench``.  The
traced-count test makes two traced repetitions of every workload (about a
minute), so it lives here and not in the Tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import run
from child import gate
from workloads import WORKLOADS, seeded_overrides

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.TRACE_METRICS


def test_seed_zero_is_the_pinned_scenario_and_seeds_stay_in_range():
    assert seeded_overrides(0) == []
    assert seeded_overrides(7) == seeded_overrides(7) != seeded_overrides(8)
    for seed in range(1, 200):
        values = {k: float(v) for k, v in
                  (o.split("=") for o in seeded_overrides(seed))}
        assert -0.1 <= values["initial.mean"] <= 0.1
        assert 0.9 <= values["initial.width"] <= 1.1
        assert 0.9 <= values["protocol.v_max"] <= 1.1


def test_gate_rejects_mass_drift_and_failed_commands(tmp_path):
    np.savez(tmp_path / "series.npz", mass_err=np.array([0.0, 2e-10]))
    np.savez(tmp_path / "checkpoint_final.npz", clipped_total=np.array(0.0))
    problems = gate(tmp_path, [0, 5], [], maxwell=False)
    assert len(problems) == 2
    assert "command 1 exited with 5" in problems[0]
    assert "mass_err" in problems[1]


def test_no_source_tree_exits_nonzero_without_a_result(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "standard", "--seed", "0"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_are_pinned_and_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "WORK", tmp_path)
    wl = WORKLOADS[name]
    counts = []
    for _ in range(2):
        facts, error = run.child(wl, 0, "trace", time.monotonic() + 170)
        assert error == ""
        assert run.count_problems(wl, 0, facts["layers"]) == []
        counts.append({k: v for k, v in facts["layers"].items()
                       if run.LAYER_METRICS[k] in run.EXACT_UNITS})
    assert counts[0] == counts[1]
    for key, value in run.EXPECTED_SEED0[name].items():
        assert counts[0][key] == value
