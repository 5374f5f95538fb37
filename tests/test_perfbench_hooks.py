"""The benchmark's tracer still finds every name it wraps.

perfbench/child.py wraps package functions by module attribute.  Deleting
or renaming one of them breaks traced benchmark runs with an
AttributeError; this catches it without running a workload.
"""

from pathlib import Path

from hlcouette import config, coupler, diagnostics

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
