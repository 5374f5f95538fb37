"""Command line interface.

Subcommands:
    validate   check a config and its initial data, report eta
    run        integrate the coupled gap problem, write artifacts
    hl-run     integrate a single stress ensemble under a given loading
               (coupler's prescribed-loading path) and grade it
    oracle     closed-form fully relaxing solution at one time
    diagnose   run the check battery on a stored checkpoint
    nondim     convert parameters between dimensional and scaled form

Exit codes: 0 success, 2 usage, 3 config/validation, 4 numerical failure,
5 diagnostic failure, 6 artifact I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import coupler, diagnostics, snapshots
from .config import RunConfig, load_config
from .errors import ConfigError, HlCouetteError
from .grids import SpaceTimeGrid
from .maxwell import maxwell_p, maxwell_tau
from .meso import compute_tau
from .params import (DimensionlessParams, PhysicalParams, nondimensionalize,
                     redimensionalize)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file (defaults used if omitted)")
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                   help="override a config value (repeatable)")


def _load(args) -> RunConfig:
    return load_config(args.config, args.set)


def cmd_validate(args) -> int:
    cfg = _load(args)
    prob, _, report = cfg.build()
    print(f"fingerprint: {cfg.fingerprint}")
    print(f"mode: {cfg.mode}" + (" (fully relaxing)" if cfg.fully_relaxing else ""))
    sg, tg = prob.sigma_grid, prob.space_grid
    print(f"grids: n_y = {tg.n_y}, n_sigma = {sg.n_sigma}, "
          f"sigma_max = {sg.sigma_max:g}, dt = {tg.dt:g}, "
          f"t_final = {tg.t_final:g} ({tg.n_steps} steps)")
    print(f"eta = {report.eta:.17g}")
    details = report.eta_details
    if prob.sigma_grid.threshold > 0 and details is not None:
        print(f"  attained at row {details.y_index}, band shift chi = {details.chi:g}")
    for msg in report.messages:
        print(f"note: {msg}")
    if not report.ok:
        print("validation FAILED", file=sys.stderr)
        return 3
    print("validation passed" + ("" if report.theory_backed
                                 else " (outside the theory-backed regime)"))
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    closed_form = cfg.fully_relaxing and not args.force_general
    prob, init, report = cfg.build()
    report.raise_if_failed()
    eta = report.eta
    print(f"fingerprint: {cfg.fingerprint}")
    print(f"eta = {eta:.17g}")
    if closed_form and args.dump_density:
        print("warning: the relaxation closed form carries no density; "
              "--dump-density is ignored without --force-general")
    directory = None  # writes every artifact
    if args.out:
        directory = snapshots.RunDirectory(
            args.out, prob, cfg.fingerprint,
            scales=cfg.scales if cfg.mode == "dimensional" else None,
            dump_density=args.dump_density and not closed_form)
    try:
        resume = None
        if args.resume:
            resume = snapshots.load_checkpoint(args.resume, expect_fingerprint=cfg.fingerprint)
            coupler.check_state(resume, prob, (coupler.path_rows(prob, closed_form),))
            if resume.p.size:  # a closed-form state has no rows to check
                check = diagnostics.verify_resume(resume, prob, init.p0, cfg.c_comparison)
                print(check.format())
                check.raise_if_failed()
            print(f"resuming at step {resume.step} "
                  f"(t = {prob.space_grid.time(resume.step):g})")

        options = dict(snap_every=cfg.snapshot_every,
                       checkpoint_every=cfg.checkpoint_every,
                       checkpoint_sink=directory.checkpoint if directory else None,
                       resume=resume, snapshot_sink=directory)
        steps_left = prob.space_grid.n_steps - (resume.step if resume else 0)
        t_start = time.perf_counter()
        if closed_form:
            print(f"integrating {steps_left} steps (relaxation closed form)")
            result = coupler.run_maxwell(
                prob, tau0=compute_tau(init.p0, prob.sigma_grid), u0=init.u0, **options)
        else:
            print(f"integrating {steps_left} steps (kinetic path)")
            result = coupler.run(prob, init, grade=not args.skip_checks, **options)
        elapsed = time.perf_counter() - t_start
        iters = result.series["iters"]
        max_iters = int(iters.max()) if iters.size else 0
        print(f"done in {elapsed:.2f} s; max fixed-point iterations = {max_iters}")
        for msg in result.warnings:
            print(f"warning: {msg}")

        report = None
        if not args.skip_checks:
            report = diagnostics.evaluate(result, c_comp=cfg.c_comparison,
                                          c_mom=cfg.c_moment)
            print(report.format())

        if directory is not None:
            ratios = result.series["ratios"]
            finite = ratios[np.isfinite(ratios)]
            summary = {
                "fingerprint": cfg.fingerprint,
                "kind": result.kind,
                "mode": cfg.mode,
                "eta": eta,
                "params": {"rho": prob.dp.rho, "alpha": prob.dp.alpha,
                           "g0": prob.dp.g0, "mu": prob.dp.mu},
                "grid": {"n_y": prob.space_grid.n_y,
                         "n_sigma": prob.sigma_grid.n_sigma,
                         "sigma_max": prob.sigma_grid.sigma_max,
                         "threshold": prob.sigma_grid.threshold},
                "run": {"dt": prob.space_grid.dt, "t_final": prob.space_grid.t_final,
                        "n_steps": prob.space_grid.n_steps,
                        "snapshot_every": cfg.snapshot_every},
                "protocol": {"kind": prob.protocol.kind, **prob.protocol.spec},
                "picard": {"max_iterations": max_iters,
                           "max_ratio": float(finite.max()) if finite.size else None},
                "warnings": result.warnings,
                "diagnostics": [vars(r).copy() for r in report.results] if report else [],
            }
            written = directory.finish(result, summary)
            print(f"wrote {len(written)} snapshot file(s) and series to "
                  f"{directory.out_dir}")

        if report is not None:
            report.raise_if_failed()
        return 0
    except BaseException as exc:
        # the CSV of every snapshot taken is written whole; a writer error
        # must not mask the run's own
        if directory is not None:
            dump, errors = directory.abort(getattr(exc, "state", None))
            if dump is not None:
                print(f"state dumped to {dump}", file=sys.stderr)
            for message in errors:
                print(f"error: {message}", file=sys.stderr)
        raise


def cmd_hl_run(args) -> int:
    cfg = _load(args)
    if cfg.mode != "dimensionless":
        raise ConfigError("hl-run works in scaled units; set model.mode = dimensionless")
    prob, init, report = cfg.build()
    report.raise_if_failed()
    grid, tgrid = prob.sigma_grid, prob.space_grid
    print(f"fingerprint: {cfg.fingerprint}")
    mass = np.empty(tgrid.n_steps + 1)

    def keep_mass(state, d):
        mass[state.step] = grid.mass(state.p)[0]

    # the protocol is interpreted directly as the loading b(t) of the first row
    result = coupler.run_prescribed(
        replace(prob, space_grid=SpaceTimeGrid(1, tgrid.dt, tgrid.t_final)), init.p0[:1],
        snapshot_sink=keep_mass)
    tau = result.series["tau"][:, 0]
    d = result.series["min_d"]
    print(f"t = {result.times[-1]:g}: tau = {tau[-1]:.10g}, "
          f"D = {d[-1]:.10g}, mass = {mass[-1]:.12g}, "
          f"max p = {result.series['max_p'].max():.6g}")
    for msg in result.warnings:
        print(f"warning: {msg}")
    report = diagnostics.evaluate(result, checks=diagnostics.MESO_CHECKS,
                                  c_comp=cfg.c_comparison, c_mom=cfg.c_moment)
    print(report.format())
    if args.out:
        out = Path(args.out)
        snapshots.write_fields_csv(
            out / "point_series.csv", tgrid.t_final, result.times,
            {"tau": tau, "d": d, "mass": mass},
            cfg.fingerprint, index_name="t")
        snapshots.write_fields_csv(
            out / "point_density.csv", tgrid.t_final, grid.centers,
            {"p": result.p[0]}, cfg.fingerprint, index_name="sigma")
        print(f"wrote point series and final density to {out}")
    report.raise_if_failed()
    return 0


def cmd_oracle(args) -> int:
    cfg = _load(args)
    if not cfg.fully_relaxing:
        raise ConfigError("the closed form applies to fully relaxing runs; "
                          "set model.fully_relaxing = true")
    grid = cfg.sigma_grid()
    init = cfg.initial()
    alpha = cfg.dimensionless_params().alpha
    loading = cfg.protocol()
    t = args.t
    if not np.isfinite(t):
        raise ConfigError(f"--t must be finite, got {t!r}")
    if t < 0:
        raise ConfigError("--t must be nonnegative")
    p0 = init.p0[:1]
    tau0 = float(compute_tau(p0, grid)[0])
    p_t = maxwell_p(p0, loading, t, grid, alpha)
    tau_t = maxwell_tau(tau0, loading, t)
    mass = float(grid.mass(p_t)[0])
    print(f"fingerprint: {cfg.fingerprint}")
    print(f"t = {t:.17g}")
    print(f"tau = {tau_t:.17g}")
    print(f"density mass = {mass:.17g}")
    print(f"density first moment = {float(compute_tau(p_t, grid)[0]):.17g}")
    if args.out:
        snapshots.write_fields_csv(Path(args.out), t, grid.centers,
                                   {"p": p_t[0]}, cfg.fingerprint,
                                   index_name="sigma")
        print(f"wrote density to {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load(args)
    prob, init, report = cfg.build()
    report.raise_if_failed()
    state = snapshots.load_checkpoint(
        args.checkpoint, expect_fingerprint=None if args.any_config else cfg.fingerprint)
    result = diagnostics.result_from_checkpoint(prob, init, state)
    print(f"fingerprint: {cfg.fingerprint}")
    print(f"checkpoint step {state.step} "
          f"(t = {prob.space_grid.time(state.step):g})")
    report = diagnostics.evaluate(result, c_comp=cfg.c_comparison,
                                  c_mom=cfg.c_moment)
    print(report.format())
    report.raise_if_failed()
    return 0


def cmd_nondim(args) -> int:
    if args.invert:
        dp = DimensionlessParams(rho=args.rho, alpha=args.alpha, g0=args.g0,
                                 mu=args.mu, t0=args.t0, sigma_c=args.sigma_c,
                                 length=args.length)
        phys = redimensionalize(dp)
        for name in ("rho", "mu", "g0", "alpha"):
            print(f"{name} = {getattr(phys, name):.17g}")
    else:
        phys = PhysicalParams(rho=args.rho, mu=args.mu, g0=args.g0,
                              alpha=args.alpha, t0=args.t0,
                              sigma_c=args.sigma_c, length=args.length)
        dp = nondimensionalize(phys)
        for name in ("rho", "alpha", "g0", "mu"):
            print(f"{name} = {getattr(dp, name):.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlcouette",
        description="Coupled stress-kinetics / Couette-flow simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config and its initial data")
    _add_config_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="integrate the coupled gap problem")
    _add_config_args(p)
    p.add_argument("--out", help="directory for snapshots, series, checkpoints")
    p.add_argument("--resume", help="continue from a checkpoint file")
    p.add_argument("--dump-density", action="store_true",
                   help="also write each snapshot's density matrix as "
                        "density_<index>.npz")
    p.add_argument("--force-general", action="store_true",
                   help="use the kinetic path even for fully relaxing runs")
    p.add_argument("--skip-checks", action="store_true",
                   help="skip the diagnostic battery and the barrier "
                        "grading of each snapshot")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("hl-run", help="single stress ensemble under a loading")
    _add_config_args(p)
    p.add_argument("--out", help="directory for the point series CSVs")
    p.set_defaults(func=cmd_hl_run)

    p = sub.add_parser("oracle", help="closed-form fully relaxing solution")
    _add_config_args(p)
    p.add_argument("--t", type=float, required=True, help="evaluation time")
    p.add_argument("--out", help="CSV file for the density")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("diagnose", help="run all checks on a checkpoint")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file to inspect")
    p.add_argument("--any-config", action="store_true",
                   help="skip the fingerprint match (inspecting foreign artifacts)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("nondim", help="convert parameters between unit systems")
    for name, req in (("rho", True), ("mu", True), ("g0", True), ("alpha", True),
                      ("t0", True), ("sigma-c", True), ("length", True)):
        p.add_argument(f"--{name}", type=float, required=req,
                       dest=name.replace("-", "_"))
    p.add_argument("--invert", action="store_true",
                   help="treat inputs as scaled values and recover physical ones")
    p.set_defaults(func=cmd_nondim)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HlCouetteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
