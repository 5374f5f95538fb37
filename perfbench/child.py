"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` from the checkout root with ``src`` on PYTHONPATH:

    python3 perfbench/child.py --workload standard --seed 0 --mode run --out DIR

Modes:
    setup   time ``import hlcouette`` + ``load_config`` + ``RunConfig.build``
    run     also drive the workload's CLI commands (untraced)
    trace   the same, with every layer boundary spanned (see LAYER_METRICS)

Every mode then times the fixed calibrate() kernel, which tells run.py how
fast the machine ran.  The last line of standard output is one JSON object
with the timings, the facts the correctness gate needs and, in trace mode,
the layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

MASS_TOL = 1e-10  # hard invariant: row mass, and mass removed by the clip
CHECKS = ("mass", "positivity", "sup_norm", "d_floor", "comparison",
          "induced_d_floor", "moment", "gradient", "truncation", "f2")

# Per-layer metrics of a traced repetition, name -> unit.  Counts and bytes
# must repeat exactly between repetitions of one seed; times are medians.
LAYER_METRICS = {
    "tridiag.solve_diffusion_batch.calls": "count",
    "tridiag.solve_diffusion_batch.s": "s",
    "tridiag.solve_diffusion_batch.unknowns": "count",
    "meso.hl_step.calls": "count",
    "meso.hl_step.self_s": "s",
    "meso.advance_rows.s": "s",
    "meso.advance_rows.substeps": "count",
    "tridiag.solve_tridiagonal.calls": "count",
    "tridiag.solve_tridiagonal.s": "s",
    "macro.heat_step.calls": "count",
    "macro.heat_step.s": "s",
    "diagnostics.heat_step.calls": "count",
    "diagnostics.heat_step.s": "s",
    "coupler.coupled_step.calls": "count",
    "coupler.coupled_step.s": "s",
    "coupler.coupled_step.ms_p50": "ms",
    "coupler.coupled_step.ms_p99": "ms",
    "coupler.run.self_s": "s",
    "coupler.run_maxwell.self_s": "s",
    "coupler.picard_iters_mean": "iters",
    "coupler.picard_iters_max": "iters",
    "coupler.picard_yield": "ratio",
    "diagnostics.evaluate.s": "s",
    **{f"diagnostics.check.{name}.s": "s" for name in CHECKS},
    "snapshots.write_snapshots.s": "s",
    "snapshots.write_snapshots.bytes": "bytes",
    "snapshots.save_checkpoint.calls": "count",
    "snapshots.save_checkpoint.s": "s",
    "snapshots.save_checkpoint.bytes": "bytes",
    "snapshots.write_series.s": "s",
    "snapshots.load_checkpoint.s": "s",
    "config.build.s": "s",
}


def _add(key: str, amount):
    def count(counters, args, out):
        counters[key] += amount(args, out)
    return count


def _keep(into: list):
    def count(counters, args, out):
        into.append(out)
    return count


def install(tracer: Tracer, traced: bool, results: list, reports: list) -> None:
    """Wrap the entry points always, and every layer boundary when traced."""
    from hlcouette import config, coupler, diagnostics, macro, meso, snapshots

    tracer.wrap(coupler, "run", "coupler.run", _keep(results))
    tracer.wrap(coupler, "run_maxwell", "coupler.run_maxwell", _keep(results))
    tracer.wrap(diagnostics, "evaluate", "diagnostics.evaluate", _keep(reports))
    if not traced:
        return
    tracer.wrap(coupler, "coupled_step", "coupler.coupled_step")
    tracer.wrap(coupler, "advance_rows", "meso.advance_rows",
                _add("meso.advance_rows.substeps", lambda a, out: out[1].n_sub))
    tracer.wrap(coupler, "heat_step", "macro.heat_step")
    tracer.wrap(meso, "hl_step", "meso.hl_step")
    tracer.wrap(meso, "solve_diffusion_batch", "tridiag.solve_diffusion_batch",
                _add("tridiag.solve_diffusion_batch.unknowns",
                     lambda a, out: a[1].size))
    tracer.wrap(macro, "solve_tridiagonal", "tridiag.solve_tridiagonal")
    tracer.wrap(diagnostics, "heat_step", "diagnostics.heat_step")
    tracer.wrap(snapshots, "write_snapshots", "snapshots.write_snapshots",
                _add("snapshots.write_snapshots.bytes",
                     lambda a, out: sum(p.stat().st_size for p in out)))
    tracer.wrap(snapshots, "write_series", "snapshots.write_series")
    tracer.wrap(snapshots, "write_summary", "snapshots.write_summary")
    tracer.wrap(snapshots, "save_checkpoint", "snapshots.save_checkpoint",
                _add("snapshots.save_checkpoint.bytes",
                     lambda a, out: Path(a[0]).stat().st_size))
    tracer.wrap(snapshots, "load_checkpoint", "snapshots.load_checkpoint")
    tracer.wrap(config.RunConfig, "build", "config.build")


def layer_metrics(tracer: Tracer, result, check_s: dict[str, float]) -> dict:
    """LAYER_METRICS of one traced repetition; absent layers read 0."""
    layers = tracer.layers()
    values = {metric: 0 for metric in LAYER_METRICS}
    for metric in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s") and span in layers:
            values[metric] = layers[span][field]
    values.update(tracer.counters)
    steps = layers.get("coupler.coupled_step", {}).get("durations")
    if steps:
        values["coupler.coupled_step.ms_p50"] = 1e3 * statistics.median(steps)
        values["coupler.coupled_step.ms_p99"] = 1e3 * statistics.quantiles(
            steps, n=100, method="inclusive")[98]
    iters = [int(i) for i in result.picard_iters]
    values["coupler.picard_iters_mean"] = sum(iters) / len(iters)
    values["coupler.picard_iters_max"] = max(iters)
    values["coupler.picard_yield"] = len(iters) / sum(iters)
    for name, seconds in check_s.items():
        values[f"diagnostics.check.{name}.s"] = seconds
    return values


def time_checks(result, cfg) -> dict[str, float]:
    """Each applicable check alone, via ``evaluate(result, checks=(name,))``."""
    from hlcouette import diagnostics

    applicable = (diagnostics.GENERAL_CHECKS if result.kind == "general"
                  else diagnostics.MAXWELL_CHECKS)
    out = {}
    for name in CHECKS:
        if name in applicable:
            t = time.perf_counter()
            diagnostics.evaluate(result, checks=(name,), c_comp=cfg.c_comparison,
                                 c_mom=cfg.c_moment)
            out[name] = time.perf_counter() - t
    return out


def digest(out: Path) -> str:
    """SHA-256 over every artifact, name and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def gate(out: Path, codes: list[int], reports: list, maxwell: bool) -> list[str]:
    """Per-repetition correctness problems; an empty list passes."""
    import numpy as np

    problems = [f"command {i} exited with {c}" for i, c in enumerate(codes) if c]
    for report in reports:
        problems += [f"diagnostic {r.name} FAILED: {r.message}"
                     for r in report.results if r.status == "fail"]
    series = out / "series.npz"
    if not series.is_file():
        return problems + ["series.npz was not written"]
    with np.load(series) as z:
        mass_err = float(z["mass_err"].max())
    if not mass_err <= MASS_TOL:
        problems.append(f"series mass_err {mass_err:.3e} > {MASS_TOL:.0e}")
    if not maxwell:
        final = out / "checkpoint_final.npz"
        if not final.is_file():
            return problems + ["checkpoint_final.npz was not written"]
        with np.load(final) as z:
            clipped = float(z["clipped_total"])
        if not clipped <= MASS_TOL:
            problems.append(f"clipped mass {clipped:.3e} > {MASS_TOL:.0e}")
    return problems


def run_workload(wl, seed: int, out: Path, traced: bool, cfg,
                 spans_path: Path | None) -> dict:
    from hlcouette import cli

    tracer = Tracer()
    results: list = []
    reports: list = []
    install(tracer, traced, results, reports)
    codes: list[int] = []
    log = io.StringIO()
    wall = 0.0
    try:
        for argv in wl.commands(seed, out):
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                t = time.perf_counter()
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a crash is a failed repetition, not a hang
                    codes.append(-1)
                    traceback.print_exc()
                wall += time.perf_counter() - t
    finally:
        tracer.restore()

    problems = gate(out, codes, reports, wl.maxwell)
    if not results:
        problems.append("no integration call was made")
    facts = {"wall_s": wall, "problems": problems}
    if problems:
        facts["log_tail"] = log.getvalue()[-2000:]
        return facts
    result = results[0]
    integrate_s = sum(s[2] - s[1] for s in tracer.spans
                      if s[0] in ("coupler.run", "coupler.run_maxwell"))
    facts["steps_per_s"] = result.problem.space_grid.n_steps / integrate_s
    facts["digest"] = digest(out)
    if traced:
        facts["layers"] = layer_metrics(tracer, result, time_checks(result, cfg))
        if spans_path is not None:
            tracer.dump(spans_path)
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    overrides = wl.config_overrides(args.seed)

    t0 = time.perf_counter()
    import hlcouette
    from hlcouette import config
    cfg = config.load_config(None, overrides)
    cfg.build()
    facts = {"setup_s": time.perf_counter() - t0,
             "module": str(Path(hlcouette.__file__).resolve())}

    if args.mode != "setup":
        if args.out is None:
            parser.error("--out is required unless --mode setup")
        facts.update(run_workload(wl, args.seed, args.out, args.mode == "trace",
                                  cfg, args.spans))
    from calibrate import calibrate  # imports numpy: not before set-up timing
    facts["cal_s"] = calibrate()
    facts["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
