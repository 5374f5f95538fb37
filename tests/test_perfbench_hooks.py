"""The benchmark's tracer still finds every name it wraps.

perfbench/child.py wraps package functions by module attribute.  Deleting
or renaming one of them breaks traced benchmark runs with an
AttributeError; this catches it without running a workload.  A caller
that reaches a writer other than through its module attribute (a bound
method, a name imported or kept before the wrapping) bypasses the
wrapper and reads as zero; the traced run below catches that.
"""

import os
from pathlib import Path

import pytest

from hlcouette import cli, config, coupler, diagnostics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import install
    from spans import Tracer

    originals = (coupler.run, diagnostics.evaluate, config.RunConfig.build)
    tracer = Tracer()
    try:
        install(tracer, True, [], [])
        assert coupler.run is not originals[0]
    finally:
        tracer.restore()
    assert (coupler.run, diagnostics.evaluate, config.RunConfig.build) == originals


def test_traced_run_counts_every_artifact_write(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import install
    from spans import Tracer

    def fork():
        raise AssertionError("an artifact writer forked")

    # a forked writer's files would escape the caller's spans and byte counts
    monkeypatch.setattr(os, "fork", fork, raising=False)
    out = tmp_path / "o"
    tracer = Tracer()
    try:
        install(tracer, True, [], [])
        assert cli.main(["run", "--set", "grid.n_y=6", "--set", "grid.n_sigma=64",
                         "--set", "run.t_final=0.01", "--set", "run.snapshot_every=5",
                         "--set", "run.checkpoint_every=5", "--dump-density",
                         "--out", str(out)]) == 0
    finally:
        tracer.restore()
    layers = tracer.layers()
    writers = ("write_snapshots", "write_series", "write_summary", "save_checkpoint")
    calls = {name: layers.get(f"snapshots.{name}", {}).get("calls", 0)
             for name in writers}
    # checkpoints at steps 5 and 10, then checkpoint_final
    assert calls == {"write_snapshots": 1, "write_series": 1, "write_summary": 1,
                     "save_checkpoint": 3}
    assert tracer.counters["snapshots.save_checkpoint.bytes"] == sum(
        p.stat().st_size for p in out.glob("checkpoint_*.npz"))
    densities = list(out.glob("density_*.npz"))
    assert len(densities) == 3
    assert tracer.counters["snapshots.write_snapshots.bytes"] == sum(
        p.stat().st_size for p in [*out.glob("*.csv"), *densities])


@pytest.mark.parametrize("relaxing", [False, True], ids=["kinetic", "closed_form"])
def test_layer_metrics_read_a_traced_result(monkeypatch, relaxing):
    # layer_metrics reads the RunResult itself, not only the wrapped names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import LAYER_METRICS, install, layer_metrics
    from spans import Tracer

    sets = ["--set", "grid.n_y=6", "--set", "grid.n_sigma=64",
            "--set", "run.t_final=0.01"]
    if relaxing:
        sets += ["--set", "model.fully_relaxing=true", "--set", "grid.sigma_max=8.0"]
    tracer, results = Tracer(), []
    try:
        install(tracer, True, results, [])
        assert cli.main(["run", *sets]) == 0
    finally:
        tracer.restore()
    [result] = results
    values = layer_metrics(tracer, result, {})
    assert set(values) == set(LAYER_METRICS)
    assert values["coupler.picard_iters_max"] == result.series["iters"].max() >= 1
    assert values["coupler.coupled_step.calls"] == (0 if relaxing else 10)
