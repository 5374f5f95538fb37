"""Command line interface: subcommands, exit codes, artifact wiring."""

import filecmp
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hlcouette
from hlcouette import coupler
from hlcouette.cli import main
from hlcouette.errors import ArtifactIOError, CFLError, SchemeInstabilityError
from hlcouette.maxwell import sub_solution
from hlcouette.snapshots import load_checkpoint, read_series, read_summary
from test_config_io import FAILING_RUN

TINY = ["--set", "grid.n_y=6", "--set", "grid.n_sigma=64",
        "--set", "run.t_final=0.01", "--set", "run.snapshot_every=5",
        "--set", "run.checkpoint_every=5"]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_validate_reports_eta(capsys):
    assert main(["validate", *TINY]) == 0
    out = capsys.readouterr().out
    assert "fingerprint: " in out and "validation passed" in out
    assert "eta = 0.317" in out


DEGENERATE = ["--set", "initial.p0=uniform",
              "--set", "initial.lo=-0.5", "--set", "initial.hi=0.5"]


def test_validate_rejects_degenerate(capsys):
    rc = main(["validate", *DEGENERATE])
    assert rc == 3
    captured = capsys.readouterr()
    assert "validation FAILED" in captured.err
    assert "eta = 0" in captured.out


TINY_VALIDATE_LINES = [
    "fingerprint: 99a0799ac1a3551f78cbd1daf48f06ce924cddab585f6042b3287f88602306d1",
    "mode: dimensionless",
    "grids: n_y = 6, n_sigma = 64, sigma_max = 4, dt = 0.001, t_final = 0.01 (10 steps)",
    "eta = 0.31726726187560117",
    "  attained at row 0, band shift chi = 0",
]


@pytest.mark.parametrize("argv,code,lines", [
    (TINY, 0, TINY_VALIDATE_LINES),
    (DEGENERATE, 3, None),
], ids=["tiny", "degenerate"])
def test_validate_and_run_agree(argv, code, lines, capsys):
    assert main(["validate", *argv]) == code
    out = capsys.readouterr().out
    if lines is not None:
        assert out.splitlines()[:len(lines)] == lines
    assert main(["run", *argv]) == code
    assert main(["hl-run", *argv]) == code


def test_config_errors_exit_3(capsys):
    assert main(["validate", "--set", "run.dt=oops"]) == 3
    assert main(["validate", "--config", "/nonexistent.ini"]) == 3
    assert main(["run", "--set", "bogus.key=1"]) == 3
    assert main(["validate", "--set", "initial.p0=bogus"]) == 3
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "hl-run"])
@pytest.mark.parametrize("override", [
    "run.snapshot_every=-1", "run.checkpoint_every=-1", "run.picard_max=0",
    "run.picard_tol=0", "run.picard_tol=-1",
    "run.dt=1e-300",  # 1e298 steps: over the series budget before any allocation
])
def test_out_of_range_run_settings_exit_3(command, override, capsys):
    assert main([command, *TINY, "--set", override]) == 3
    assert override.split("=")[0] in capsys.readouterr().err


SNAPSHOT_HEAVY = ["--set", "grid.n_y=255", "--set", "grid.n_sigma=2048"]


def test_validate_counts_the_snapshots_in_the_record_budget(capsys):
    # a snapshot leaves the three floats that grade it and no density row:
    # 1 001 snapshots of 255 x 2048 rows fit; validate only, never run it
    assert main(["validate", *SNAPSHOT_HEAVY, "--set", "run.snapshot_every=1"]) == 0
    assert "validation passed" in capsys.readouterr().out
    # 12e6 steps of one gap node: the series need 9.6e8 bytes and fit, but
    # not with 24 bytes for each of 12e6 snapshots
    many = ["--set", "grid.n_y=1", "--set", "run.dt=1e-7", "--set", "run.t_final=1.2"]
    assert main(["validate", *many, "--set", "run.snapshot_every=100"]) == 0
    assert "validation passed" in capsys.readouterr().out
    assert main(["validate", *many, "--set", "run.snapshot_every=1"]) == 3
    assert "give 12000000 steps; with n_y = 1 their records need 1.25e+09 bytes" in \
        capsys.readouterr().err


def test_an_every_step_schedule_of_one_long_row_is_admitted(capsys):
    # hl-run's every-step schedule on 1 x 2048 rows keeps no rows, so the
    # 100 000 steps fit (coupler's budget test checks hl-run's own records);
    # validate only, never run it
    grid = ["--set", "grid.n_y=1", "--set", "grid.n_sigma=2048", "--set", "run.dt=1e-5"]
    assert main(["validate", *grid, "--set", "run.snapshot_every=1"]) == 0
    assert "(100000 steps)" in capsys.readouterr().out


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["run", *TINY, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "all checks passed" in stdout and "kinetic path" in stdout
    names = sorted(p.name for p in out.iterdir())
    assert names == ["checkpoint_000005.npz", "checkpoint_000010.npz",
                     "checkpoint_final.npz", "series.npz",
                     "snapshot_000000.csv", "snapshot_000005.csv",
                     "snapshot_000010.csv", "summary.json"]
    summary = read_summary(out / "summary.json")
    series = read_series(out / "series.npz")
    assert summary["fingerprint"] == series["fingerprint"]
    assert summary["kind"] == "general" and summary["run"]["n_steps"] == 10
    assert summary["picard"]["max_iterations"] <= 10
    statuses = {d["name"]: d["status"] for d in summary["diagnostics"]}
    assert statuses["mass_conservation"] == "pass"


def test_single_gap_node_run(tmp_path, capsys):
    # n_y = 1 leaves a 1x1 momentum system, the solver's scalar branch
    out = tmp_path / "single"
    assert main(["run", "--set", "grid.n_y=1", "--set", "grid.n_sigma=64",
                 "--set", "run.t_final=0.01", "--out", str(out)]) == 0
    assert "all checks passed" in capsys.readouterr().out
    series = read_series(out / "series.npz")
    assert series["u"].shape == (11, 1)
    assert np.max(np.abs(series["mass_err"])) <= 1e-10


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", *TINY, "--out", str(a)]) == 0
    assert main(["run", *TINY, "--out", str(b)]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_resume_reproduces_the_straight_run(tmp_path, capsys):
    straight = tmp_path / "straight"
    assert main(["run", *TINY, "--out", str(straight)]) == 0
    assert "integrating 10 steps (kinetic path)" in capsys.readouterr().out
    resumed = tmp_path / "resumed"
    rc = main(["run", *TINY, "--out", str(resumed),
               "--resume", str(straight / "checkpoint_000005.npz")])
    assert rc == 0
    # the log counts the steps left, not the whole horizon
    out = capsys.readouterr().out
    assert "resuming at step 5" in out and "integrating 5 steps (kinetic path)" in out
    assert filecmp.cmp(straight / "series.npz", resumed / "series.npz",
                       shallow=False)
    assert filecmp.cmp(straight / "checkpoint_final.npz",
                       resumed / "checkpoint_final.npz", shallow=False)


def test_skip_checks_suppresses_the_battery(tmp_path, capsys):
    assert main(["run", *TINY, "--skip-checks", "--out",
                 str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "mass_conservation" not in stdout
    summary = read_summary(tmp_path / "o" / "summary.json")
    assert summary["diagnostics"] == []


def test_dump_density_writes_matrices(tmp_path):
    out = tmp_path / "o"
    assert main(["run", *TINY, "--dump-density", "--out", str(out)]) == 0
    assert sorted(q.name for q in out.glob("density_*")) == [
        "density_000000.npz", "density_000005.npz", "density_000010.npz"]


def test_an_unwritable_density_dump_fails_at_the_first_snapshot(tmp_path, capsys):
    # the density archive is written when its snapshot is taken, so the run
    # stops there with exit 6 instead of integrating to the horizon first
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "o"
    assert main(["run", *TINY, "--set", "run.checkpoint_every=0", "--dump-density",
                 "--out", str(out)]) == 6
    captured = capsys.readouterr()
    assert "integrating 10 steps" in captured.out and "done in" not in captured.out
    assert captured.err.startswith(f"error: cannot write {out / 'density_000000.npz'}")


def test_skip_checks_builds_no_barrier(monkeypatch, capsys):
    built = []

    def counting(*args):
        built.append(args[2])
        return sub_solution(*args)

    monkeypatch.setattr(coupler, "sub_solution", counting)
    assert main(["run", *TINY, "--skip-checks"]) == 0
    assert built == []
    assert main(["run", *TINY]) == 0
    assert built == [0.0, 0.005, 0.01]  # the snapshots at steps 0, 5 and 10


def test_numerical_failure_exits_4(capsys):
    rc = main(["run", *TINY, "--set", "run.picard_max=1",
               "--set", "protocol.t_ramp=0.1"])
    assert rc == 4
    assert "fixed-point" in capsys.readouterr().err


def test_diagnostic_failure_exits_5_but_artifacts_survive(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", *TINY, "--set", "tolerances.c_moment=1e-9",
               "--out", str(out)])
    assert rc == 5
    captured = capsys.readouterr()
    assert "FAIL stress_moment_identity" in captured.out
    assert (out / "series.npz").exists()
    summary = read_summary(out / "summary.json")
    statuses = {d["name"]: d["status"] for d in summary["diagnostics"]}
    assert statuses["stress_moment_identity"] == "fail"


def test_a_zero_viscosity_run_warns_that_its_velocity_bound_is_undefined(tmp_path,
                                                                          capsys):
    # mu = 0 is a valid config outside the theory-backed regime; the
    # velocity-map bound 2 sqrt(T)/mu is undefined there, as the gradient
    # bound is for eta = 0
    out = tmp_path / "o"
    assert main(["run", *TINY, "--set", "model.mu=0",
                 "--set", "model.allow_degenerate=true", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("WARN velocity_map_lipschitz: ")
               and line.endswith("; bound undefined for mu = 0") for line in lines)
    checks = {d["name"]: d for d in read_summary(out / "summary.json")["diagnostics"]}
    assert checks["velocity_map_lipschitz"]["status"] == "warn"
    assert checks["velocity_map_lipschitz"]["bound"] is None  # inf, written as null


def test_summary_json_is_strict_json(tmp_path):
    # eta = 0 leaves the gradient bound undefined (inf); strict JSON has no
    # Infinity or NaN, so the summary writes null
    out = tmp_path / "o"
    assert main(["run", *TINY, "--set", "initial.p0=uniform", "--set", "initial.lo=-0.5",
                 "--set", "initial.hi=0.5", "--set", "model.allow_degenerate=true",
                 "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    checks = {d["name"]: d for d in summary["diagnostics"]}
    assert checks["gradient_energy"]["bound"] is None


@pytest.mark.parametrize("sets, block", [
    ([], '{"kind": "ramp", "t_ramp": 0.5, "v_max": 1.0}'),
    (["protocol.kind=zero"], '{"kind": "ramp", "t_ramp": 1.0, "v_max": 0.0}'),
    (["protocol.kind=sinusoid", "protocol.amplitude=0.5"],
     '{"amplitude": 0.5, "kind": "sinusoid", "period": 1.0}'),
    (["model.mode=dimensional", "model.t0=2", "model.length=8", "protocol.kind=table",
      "protocol.times=0,0.2,1", "protocol.values=0,1,0.5"],
     '{"kind": "table", "times": [0.0, 0.1, 0.5], "values": [0.0, 0.25, 0.125]}'),
], ids=["ramp", "zero", "sinusoid", "dimensional table"])
def test_summary_names_the_protocol_in_scaled_units(sets, block, tmp_path):
    out = tmp_path / "o"
    argv = [*TINY, *(arg for s in sets for arg in ("--set", s))]
    assert main(["run", *argv, "--skip-checks", "--out", str(out)]) == 0
    protocol = read_summary(out / "summary.json")["protocol"]
    assert json.dumps(protocol, sort_keys=True) == block


@pytest.mark.parametrize("path", [[], ["--set", "model.fully_relaxing=true",
                                       "--set", "grid.sigma_max=8.0"]],
                         ids=["kinetic", "closed form"])
def test_a_zero_step_run_has_nothing_to_measure(path, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", *TINY, "--set", "run.t_final=0", *path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "integrating 0 steps" in stdout and "all checks passed" in stdout
    assert "PASS velocity_map_lipschitz: no steps; nothing to measure" in stdout
    assert read_summary(out / "summary.json")["run"]["n_steps"] == 0


def test_a_mass_guard_trip_whose_dump_cannot_be_written_exits_5(tmp_path, monkeypatch,
                                                                  capsys):
    straight = tmp_path / "straight"
    assert main(["run", *TINY, "--out", str(straight)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    dump = out / "failure_dump.npz"
    dump.mkdir(parents=True)
    monkeypatch.setattr(coupler, "MASS_TOL", 1e-16)
    assert main(["run", *TINY, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    # the run's own error exits, whatever the dump's fate
    assert "mass conservation failed at step 2," in err
    assert f"error: cannot write {dump}" in err and "state dumped" not in err
    assert (out / "snapshot_000000.csv").read_bytes() == \
        (straight / "snapshot_000000.csv").read_bytes()
    assert not (out / "series.npz").exists() and not (out / "summary.json").exists()


def failing_after(t_fail, error):
    """coupler.coupled_step, raising error once its t_next passes t_fail: a
    resumed run fails at the same step as the run it resumes."""
    step = coupler.coupled_step

    def failing(u, p, t_next, prob, d):
        if t_next > t_fail:
            raise error(f"injected {error.__name__} at t = {t_next:.6g}")
        return step(u, p, t_next, prob, d)
    return failing


CLOSED_FORM_DIVERGING = [*TINY, "--set", "model.fully_relaxing=true", "--set",
                         "grid.sigma_max=8.0", "--set", "model.g0=1000", "--set", "run.dt=0.01"]


@pytest.mark.parametrize("argv, fault, step, code", [
    (FAILING_RUN, None, 4, 4),
    (CLOSED_FORM_DIVERGING, None, 0, 4),
    (TINY, ("coupled_step", failing_after(0.0065, CFLError)), 6, 4),
    (TINY, ("coupled_step", failing_after(0.0065, SchemeInstabilityError)), 6, 4),
    # step 2 is the first whose mass drifts past 1e-16
    (TINY, ("MASS_TOL", 1e-16), 1, 5),
], ids=["kinetic non-contraction", "closed-form non-contraction", "CFL", "instability",
        "mass guard"])
def test_a_numerical_failure_dumps_the_last_accepted_state(argv, fault, step, code, tmp_path,
                                                           monkeypatch, capsys):
    straight = tmp_path / "straight"
    if fault is not None:
        assert main(["run", *argv, "--out", str(straight)]) == 0
        monkeypatch.setattr(coupler, *fault)
    capsys.readouterr()
    out = tmp_path / "o"
    dump = out / "failure_dump.npz"
    assert main(["run", *argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    fingerprint = captured.out.split("fingerprint: ")[1].split()[0]
    error = captured.err.splitlines()[-1]
    assert f"state dumped to {dump}" in captured.err
    state = load_checkpoint(dump, expect_fingerprint=fingerprint)
    assert state.step == step
    if fault is not None:
        # the step that failed left no trace: the records are the straight run's
        series = read_series(straight / "series.npz")
        for f in coupler.SERIES:
            assert state.series[f.key].tobytes() == \
                series[f.archive or f.key][:f.length(step)].tobytes(), f.key
    if code == 5:
        assert error.startswith(f"error: mass conservation failed at step {step + 1},")
    if argv is CLOSED_FORM_DIVERGING:
        assert state.p.shape == (0, 64)  # resumed without --force-general
    if argv is FAILING_RUN:
        # the dumped state passes every check: the step broke, not the state
        assert main(["diagnose", "--checkpoint", str(dump), *argv]) == 0
        assert "all checks passed" in capsys.readouterr().out
    # the resume takes the failed step again and fails the same way
    assert main(["run", *argv, "--resume", str(dump)]) == code
    resumed = capsys.readouterr()
    assert f"resuming at step {step}" in resumed.out
    assert resumed.err.splitlines()[-1] == error


def test_a_writer_error_in_the_loop_dumps_no_state(tmp_path, capsys):
    # the disk failed, not the state: a dump would fail the same way
    out = tmp_path / "o"
    (out / "checkpoint_000005.npz").mkdir(parents=True)
    assert main(["run", *TINY, "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'checkpoint_000005.npz'}")
    assert "state dumped" not in err and not (out / "failure_dump.npz").exists()


def test_a_refusal_before_the_first_step_dumps_no_state(tmp_path, capsys):
    # a closed-form state cannot continue on the kinetic path: there is no
    # state of this run to dump
    out = tmp_path / "o"
    assert main(["run", *CLOSED_FORM_DIVERGING, "--out", str(out)]) == 4
    capsys.readouterr()
    refused = tmp_path / "refused"
    assert main(["run", *CLOSED_FORM_DIVERGING, "--force-general", "--resume",
                 str(out / "failure_dump.npz"), "--out", str(refused)]) == 3
    err = capsys.readouterr().err
    assert "resume the kinetic path with --force-general" in err
    assert "state dumped" not in err and not (refused / "failure_dump.npz").exists()


def test_artifact_errors_exit_6(tmp_path, capsys):
    rc = main(["run", *TINY, "--resume", str(tmp_path / "missing.npz")])
    assert rc == 6
    out = tmp_path / "o"
    assert main(["run", *TINY, "--out", str(out)]) == 0
    rc = main(["run", *TINY, "--set", "run.dt=0.0005",
               "--set", "run.t_final=0.005",
               "--resume", str(out / "checkpoint_000005.npz")])
    assert rc == 6
    assert "different config" in capsys.readouterr().err


def damaged_copy(path, damage, to):
    """A copy of the archive at path, cut in half, with one byte of the p
    member flipped, or replaced by a text file."""
    data = path.read_bytes()
    if damage == "truncated":
        to.write_bytes(data[:len(data) // 2])
    elif damage == "flipped byte":
        at = data.index(b"p.npy") + 200  # inside p's array bytes
        to.write_bytes(data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:])
    else:
        to.write_text("not an archive\n")
    return to


@pytest.mark.parametrize("damage", ["truncated", "flipped byte", "text"])
def test_an_unreadable_checkpoint_exits_6(damage, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", *TINY, "--out", str(out)]) == 0
    bad = damaged_copy(out / "checkpoint_000005.npz", damage, tmp_path / "bad.npz")
    capsys.readouterr()
    for argv in (["diagnose", "--checkpoint", str(bad), *TINY],
                 ["run", *TINY, "--resume", str(bad)]):
        assert main(argv) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err
    series = damaged_copy(out / "series.npz", damage, tmp_path / "series.npz")
    with pytest.raises(ArtifactIOError, match="series.npz"):
        read_series(series)


HL_RUN_CSV_SHA256 = {
    "point_series.csv": "e5978693f8737ad01b96655c5af6d1e0878d1553ddc8ed97a0b77f68b29cd492",
    "point_density.csv": "6f69abd812e1a38edc023042d3df7ebb9feec45e3e90adcf290ae668447bad43",
}


def test_hl_run_point_ensemble(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["hl-run", "--set", "grid.n_sigma=64",
               "--set", "run.t_final=0.01", "--out", str(out)])
    assert rc == 0
    assert "tau = " in capsys.readouterr().out
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in HL_RUN_CSV_SHA256} == HL_RUN_CSV_SHA256
    assert main(["hl-run", "--set", "model.mode=dimensional"]) == 3


@pytest.mark.parametrize("argv,line", [
    ([], "t = 1: tau = 0.5617310656, D = 0.3231397129, mass = 1, max p = 0.539015"),
    (["--set", "grid.n_sigma=64"],
     "t = 1: tau = 0.5571658219, D = 0.3304840246, mass = 1, max p = 0.51517"),
], ids=["default", "n_sigma_64"])
def test_hl_run_prints_its_pinned_line(argv, line, capsys):
    assert main(["hl-run", *argv]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_hl_run_grades_its_run_and_still_writes(tmp_path, capsys):
    # a comparison slack far below the scheme's deficit fails the graded
    # barrier; the point CSVs are written before the run is failed
    out = tmp_path / "o"
    assert main(["hl-run", "--set", "grid.n_sigma=64", "--set", "run.t_final=0.01",
                 "--set", "tolerances.c_comparison=1e-6", "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert "FAIL comparison_barrier" in captured.out
    assert "error: diagnostics failed" in captured.err
    assert sorted(q.name for q in out.iterdir()) == ["point_density.csv",
                                                      "point_series.csv"]


def test_oracle_requires_fully_relaxing(capsys):
    assert main(["oracle", "--t", "1.0"]) == 3
    capsys.readouterr()
    rc = main(["oracle", "--t", "1.0", "--set", "model.fully_relaxing=true",
               "--set", "grid.sigma_max=8.0", "--set", "grid.n_sigma=256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tau = " in out and "density mass = " in out


def test_oracle_writes_density(tmp_path, capsys):
    path = tmp_path / "oracle.csv"
    rc = main(["oracle", "--t", "0.5", "--set", "model.fully_relaxing=true",
               "--set", "grid.sigma_max=8.0", "--out", str(path)])
    assert rc == 0
    assert path.exists()
    assert main(["oracle", "--t", "-1.0",
                 "--set", "model.fully_relaxing=true"]) == 3


def test_oracle_mass_holds_at_long_times(capsys):
    # the memory term decays like e^{-(t - s)}: by t = 100 the density mass
    # inside sigma_max has settled, and it must stay put however long after
    def mass(t):
        assert main(["oracle", "--t", t, "--set", "model.fully_relaxing=true",
                     "--set", "grid.sigma_max=8.0"]) == 0
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("density mass = ")]
        return float(line.split("=")[1])

    settled = mass("100")
    for t in ("1e4", "1e6", "1e13", "1e16"):
        assert abs(mass(t) - settled) < 1e-8


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_oracle_rejects_non_finite_time(t, capsys):
    assert main(["oracle", f"--t={t}", "--set", "model.fully_relaxing=true"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--t must be finite" in captured.err


def test_fully_relaxing_run_uses_the_closed_form(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", *TINY, "--set", "model.fully_relaxing=true",
               "--set", "grid.sigma_max=8.0", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "relaxation closed form" in stdout
    summary = read_summary(out / "summary.json")
    assert summary["kind"] == "maxwell"
    assert not (out / "checkpoint_final.npz").exists()


def test_force_general_runs_a_fully_relaxing_config_on_the_kinetic_path(tmp_path,
                                                                        capsys):
    out = tmp_path / "o"
    rc = main(["run", *TINY, "--force-general", "--set", "model.fully_relaxing=true",
               "--set", "grid.sigma_max=8.0", "--out", str(out)])
    assert rc == 0
    assert "kinetic path" in capsys.readouterr().out
    assert read_summary(out / "summary.json")["kind"] == "general"
    assert (out / "checkpoint_final.npz").exists()


RELAXING = [*TINY, "--set", "model.fully_relaxing=true", "--set", "grid.sigma_max=8.0"]


def test_closed_form_checkpoints_and_resumes_bit_for_bit(tmp_path, capsys):
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    assert main(["run", *RELAXING, "--out", str(straight)]) == 0
    assert "warning" not in capsys.readouterr().out
    names = sorted(p.name for p in straight.glob("checkpoint_*.npz"))
    assert names == ["checkpoint_000005.npz", "checkpoint_000010.npz"]
    ckpt = load_checkpoint(straight / "checkpoint_000005.npz")
    assert ckpt.step == 5 and ckpt.p.shape == (0, 64)
    assert main(["run", *RELAXING, "--resume", str(straight / "checkpoint_000005.npz"),
                 "--out", str(resumed)]) == 0
    out = capsys.readouterr().out
    assert "resuming at step 5" in out
    assert "integrating 5 steps (relaxation closed form)" in out
    for name in ("series.npz", "summary.json", "checkpoint_000010.npz",
                 "snapshot_000010.csv"):
        assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name


def test_a_checkpoint_of_the_other_path_is_refused(tmp_path, capsys):
    general = tmp_path / "general"
    closed = tmp_path / "closed"
    assert main(["run", *RELAXING, "--force-general", "--out", str(general)]) == 0
    assert main(["run", *RELAXING, "--out", str(closed)]) == 0
    capsys.readouterr()
    # both paths share the fingerprint, so only the rows tell them apart
    for flags, ckpt in (([], general), (["--force-general"], closed)):
        out = tmp_path / f"o{len(flags)}"
        assert main(["run", *RELAXING, *flags, "--out", str(out),
                     "--resume", str(ckpt / "checkpoint_000005.npz")]) == 3
        captured = capsys.readouterr()
        assert "--force-general" in captured.err and "Traceback" not in captured.err
        # refused before the resume checks report on it or the run starts
        assert "PASS" not in captured.out and "resuming" not in captured.out
        assert "integrating" not in captured.out
        assert not list(out.glob("*.npz"))


def test_closed_form_warns_that_it_dumps_no_density(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", *TINY, "--set", "model.fully_relaxing=true",
                 "--set", "grid.sigma_max=8.0", "--set", "run.checkpoint_every=0",
                 "--dump-density", "--skip-checks", "--out", str(out)]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning: ")]
    assert len(warnings) == 1 and "--dump-density" in warnings[0]
    assert not list(out.glob("density_*")) and list(out.glob("snapshot_*.csv"))


def test_diagnose_a_closed_form_checkpoint(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", *RELAXING, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--checkpoint", str(out / "checkpoint_000005.npz"),
                 *RELAXING]) == 0
    checks = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith(("PASS", "WARN", "FAIL"))]
    assert checks == ["velocity_map_lipschitz:"]


def test_diagnose_checkpoint(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", *TINY, "--out", str(out)]) == 0
    capsys.readouterr()
    ckpt = str(out / "checkpoint_000005.npz")
    assert main(["diagnose", "--checkpoint", ckpt, *TINY]) == 0
    stdout = capsys.readouterr().out
    assert "PASS mass_conservation" in stdout and "all checks passed" in stdout
    # A mismatched config is refused unless explicitly waived.
    other = [*TINY, "--set", "tolerances.c_moment=0.9"]
    assert main(["diagnose", "--checkpoint", ckpt, *other]) == 6
    assert main(["diagnose", "--checkpoint", ckpt, "--any-config",
                 *other]) == 0
    assert main(["diagnose", "--checkpoint", ckpt, "--any-config", *TINY,
                 "--set", "tolerances.c_moment=1e-9"]) == 5


N_Y4 = ["--set", "grid.n_y=4", "--set", "grid.n_sigma=64",
        "--set", "run.t_final=0.01", "--set", "run.checkpoint_every=5"]


@pytest.mark.parametrize("grids, shapes", [
    (["--set", "grid.n_y=8"], "u has shape (4,), but the config's grids (n_y = 8, n_sigma = 64) "
                              "need (8,)"),
    (["--set", "grid.n_sigma=128"], "p has shape (4, 64), but the config's grids (n_y = 4, "
                                    "n_sigma = 128) need (4, 128) or (0, 128)"),
], ids=["n_y", "n_sigma"])
def test_diagnose_any_config_refuses_a_checkpoint_of_other_grids(grids, shapes, tmp_path,
                                                                 capsys):
    out = tmp_path / "o"
    assert main(["run", *N_Y4, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--checkpoint", str(out / "checkpoint_000005.npz"),
                 "--any-config", *N_Y4, *grids]) == 3
    assert shapes in capsys.readouterr().err


N_Y4_20 = [*N_Y4, "--set", "run.t_final=0.02", "--set", "run.checkpoint_every=10"]


def _short(name):
    return lambda members: {**members, name: members[name][:-1]}


def _step(value):
    return lambda members: {**members, "step": np.array(value)}


@pytest.mark.parametrize("damage, field", [
    (_short("series_tau"), "series 'tau' at step 10 has shape (10, 4)"),
    (_step(50), "step is 50"),
    (_step(10.0), "step is 10.0"),
    (_step(-1), "step is -1"),
    (_step("ten"), "step is 'ten'"),
    (_short("u"), "u has shape (3,)"),
    (_short("xi"), "accumulator 'xi' has shape (3,)"),
], ids=["series_short", "step_past_horizon", "step_float", "step_negative", "step_text",
        "u_short", "xi_short"])
def test_a_checkpoint_that_does_not_fit_is_refused_by_resume_and_diagnose(damage, field,
                                                                          tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", *N_Y4_20, "--out", str(out)]) == 0
    with np.load(out / "checkpoint_000010.npz") as z:
        members = damage({name: z[name] for name in z.files})
    damaged = tmp_path / "damaged.npz"
    np.savez(damaged, **members)
    capsys.readouterr()
    assert main(["run", *N_Y4_20, "--resume", str(damaged)]) == 3
    captured = capsys.readouterr()
    assert field in captured.err and "Traceback" not in captured.err
    # refused before the resume checks report on it or the run starts
    assert "PASS" not in captured.out and "resuming" not in captured.out
    assert "integrating" not in captured.out
    assert main(["diagnose", "--checkpoint", str(damaged), *N_Y4_20]) == 3
    assert "Traceback" not in capsys.readouterr().err


TABLE = ["protocol.kind=table", "protocol.times=0,0.005,0.006"]


@pytest.mark.parametrize("sets, entry", [
    ([*TABLE, "protocol.values=0,0,nan"], "values[2] = nan"),
    ([*TABLE, "protocol.values=0,0,inf"], "values[2] = inf"),
    ([*TABLE, "protocol.values=0,0,1e308"], "slopes[1] = inf"),
    (["protocol.kind=table", "protocol.times=0,0.005,nan", "protocol.values=0,0,1"],
     "times[2] = nan"),
    (["protocol.kind=ramp", "protocol.v_max=1e308", "protocol.t_ramp=1e-10"], "slopes[0] = inf"),
], ids=["value_nan", "value_inf", "slope_overflow", "time_nan", "ramp_overflow"])
def test_a_non_finite_forcing_table_is_refused(sets, entry, capsys):
    argv = [*N_Y4, *(arg for s in sets for arg in ("--set", s))]
    for command in ("validate", "run"):
        assert main([command, *argv]) == 3
        err = capsys.readouterr().err
        assert f"forcing table {entry} is not finite" in err and "Traceback" not in err


def suite_env():
    """The environment in which a subprocess imports the same package the
    suite imported, whether that is an install or a source tree on PYTHONPATH."""
    package_root = str(Path(hlcouette.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def cli_process(argv, cwd, timeout):
    """The CLI in a fresh interpreter: a hang fails the test at `timeout`
    seconds instead of stalling the suite, and the suite's warning filters
    do not reach the run."""
    return subprocess.run([sys.executable, "-m", "hlcouette.cli", *argv], cwd=cwd,
                          env=suite_env(), capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("sets", [
    ["model.rho=1e308"],
    ["model.mu=1e308"],
    ["protocol.kind=sinusoid", "protocol.period=1e-300"],  # hung without the guard
    ["model.rho=1e308", "model.fully_relaxing=true"],
], ids=["rho", "mu", "sinusoid", "closed-form rho"])
def test_a_non_finite_velocity_iterate_exits_4(sets, tmp_path):
    # each config passes validate, then overflows the first velocity iterate
    argv = ["--set", "grid.n_y=4", "--set", "grid.n_sigma=64", "--set", "run.t_final=0.01",
            *(arg for s in sets for arg in ("--set", s))]
    assert main(["validate", *argv]) == 0
    out = tmp_path / "o"
    proc = cli_process(["run", *argv, "--out", str(out)], tmp_path, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.splitlines()[-1] == \
        "error: velocity iterate 1 is not finite at t = 0.001"
    assert load_checkpoint(out / "failure_dump.npz").step == 0


@pytest.mark.parametrize("command", [["validate"], ["run"], ["hl-run"], ["oracle", "--t", "1"]])
def test_an_infinite_step_count_exits_3(command, capsys):
    # t_final/dt overflows to inf, which no integer step count holds
    assert main([*command, "--set", "run.t_final=1e308",
                 "--set", "model.fully_relaxing=" + str(command[0] == "oracle")]) == 3
    assert "t_final/dt = inf must be a finite positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_oracle_refuses_the_alpha_validate_refuses(alpha, capsys):
    argv = ["--set", "model.fully_relaxing=true", "--set", f"model.alpha={alpha}"]
    assert main(["validate", *argv]) == 3
    capsys.readouterr()
    assert main(["oracle", "--t", "1", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "rho, alpha and g0 must be positive" in captured.err


def test_nondim_conversion(capsys):
    rc = main(["nondim", "--rho", "2", "--mu", "16", "--g0", "2",
               "--alpha", "8", "--t0", "2", "--sigma-c", "4",
               "--length", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho = 1.125" in out and "alpha = 0.5" in out
    assert "g0 = 0.5" in out and "mu = 2" in out
    rc = main(["nondim", "--invert", "--rho", "1.125", "--mu", "2",
               "--g0", "0.5", "--alpha", "0.5", "--t0", "2",
               "--sigma-c", "4", "--length", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho = 2" in out and "mu = 16" in out


@pytest.mark.parametrize("invert", [False, True], ids=["forward", "invert"])
@pytest.mark.parametrize("name,value", [("rho", "nan"), ("alpha", "inf"),
                                        ("mu", "nan"), ("t0", "-inf")])
def test_nondim_rejects_non_finite(invert, name, value, capsys):
    args = {"rho": "2", "mu": "16", "g0": "2", "alpha": "8", "t0": "2",
            "sigma-c": "4", "length": "3", name: value}
    argv = ["nondim", *(["--invert"] if invert else [])]
    argv += [f"--{key}={val}" for key, val in args.items()]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"{name} must be finite" in captured.err


# What the generated console-script wrapper does: resolve the declared
# target, restore the program name and hand its return value to sys.exit.
ENTRY_POINT_LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
target = sys.argv[1]
sys.argv = ["hlcouette", *sys.argv[2:]]
entry = EntryPoint(name="hlcouette", value=target, group="console_scripts")
sys.exit(entry.load()())
"""


def declared_console_script():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hlcouette"]


def test_console_script_entry_point(tmp_path):
    """The declared `hlcouette` command runs the CLI in its own process and
    reports through the exit status; the installed wrapper, where present,
    is run as well."""
    target = declared_console_script()
    env = suite_env()
    commands = [[sys.executable, "-c", ENTRY_POINT_LAUNCHER, target]]
    exe = shutil.which("hlcouette")
    if exe is not None:
        commands.append([exe])
    for command in commands:
        proc = subprocess.run([*command, "validate", *TINY], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "validation passed" in proc.stdout
        proc = subprocess.run([*command, "validate", "--set", "run.dt=oops"],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert "error: " in proc.stderr
