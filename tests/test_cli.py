"""Command line interface: subcommands, exit codes, artifact wiring."""

import filecmp
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
from hlcouette.snapshots import load_checkpoint, read_series, read_summary

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
    # 1 001 snapshots of 255 x 2048 rows would keep 4.2 GB; validate only,
    # never run it
    assert main(["validate", *SNAPSHOT_HEAVY, "--set", "run.snapshot_every=1"]) == 3
    err = capsys.readouterr().err
    assert "run.snapshot_every keeps 1001 snapshots" in err and "4.2e+09 bytes" in err
    assert main(["validate", *SNAPSHOT_HEAVY, "--set", "run.snapshot_every=100"]) == 0
    assert "validation passed" in capsys.readouterr().out
    # the closed form keeps no rows: 1 001 snapshots of five 511-node fields
    # fit; the kinetic path would also keep 1 001 copies of 511 x 256 rows
    # (1.07e9 bytes), which its run refuses before it allocates a record
    fine = ["--set", "model.fully_relaxing=true", "--set", "grid.sigma_max=8.0",
            "--set", "grid.n_y=511", "--set", "run.snapshot_every=1"]
    assert main(["validate", *fine]) == 0
    assert "validation passed" in capsys.readouterr().out
    assert main(["run", *fine, "--force-general", "--skip-checks"]) == 3
    captured = capsys.readouterr()
    assert "1001 snapshots of 511 x 256 rows" in captured.err
    assert "integrating" in captured.out and "done in" not in captured.out


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


@pytest.mark.parametrize("dump_is_a_directory", [False, True])
def test_mass_guard_trip_dumps_the_state_of_its_step(tmp_path, monkeypatch, capsys,
                                                     dump_is_a_directory):
    straight = tmp_path / "straight"
    assert main(["run", *TINY, "--out", str(straight)]) == 0
    fingerprint = read_summary(straight / "summary.json")["fingerprint"]
    capsys.readouterr()
    out = tmp_path / "o"
    dump = out / "failure_dump.npz"
    if dump_is_a_directory:
        dump.mkdir(parents=True)
    monkeypatch.setattr(coupler, "MASS_TOL", 1e-16)  # TINY drifts 2.2e-16 at step 1
    assert main(["run", *TINY, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    # the run's own error exits, whatever the dump's fate
    assert "mass conservation failed at step 1" in err
    if dump_is_a_directory:
        assert f"error: cannot write {dump}" in err and "state dumped" not in err
    else:
        assert f"state dumped to {dump}" in err
        assert load_checkpoint(dump, expect_fingerprint=fingerprint).step == 1
    assert (out / "snapshot_000000.csv").read_bytes() == \
        (straight / "snapshot_000000.csv").read_bytes()
    assert not (out / "series.npz").exists() and not (out / "summary.json").exists()


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


def test_hl_run_point_ensemble(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["hl-run", "--set", "grid.n_sigma=64",
               "--set", "run.t_final=0.01", "--out", str(out)])
    assert rc == 0
    assert "tau = " in capsys.readouterr().out
    assert (out / "point_series.csv").exists()
    assert (out / "point_density.csv").exists()
    assert main(["hl-run", "--set", "model.mode=dimensional"]) == 3


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
    # The subprocess imports the same package the suite imported, whether
    # that is an install or a source tree on PYTHONPATH.
    package_root = str(Path(hlcouette.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
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
