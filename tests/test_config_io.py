"""Config parsing, fingerprints, and artifact round trips."""

import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hlcouette
from hlcouette import cli, coupler, snapshots
from hlcouette.config import load_config, standard_config
from hlcouette.coupler import SERIES, CoupledProblem, Snapshot, run
from hlcouette.errors import ArtifactIOError, ConfigError, ValidationError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import InitialData, compute_eta
from hlcouette.params import DimensionlessParams, rescale_fields
from hlcouette.protocols import ShearProtocol
from hlcouette.snapshots import (RunDirectory, _atomic_write, _npz,
                                 load_checkpoint, read_fields_csv, read_series,
                                 read_summary, save_checkpoint,
                                 write_density_csv, write_fields_csv,
                                 write_series, write_snapshots, write_summary)


TINY_RUN = ["--set", "grid.n_y=6", "--set", "grid.n_sigma=64",
            "--set", "run.t_final=0.01", "--set", "run.snapshot_every=2"]


def micro_run(snap_every=5, checkpoint_every=5):
    dp = DimensionlessParams(rho=1.0, alpha=1.0, g0=1.0, mu=1.0)
    sgrid = SigmaGrid(sigma_max=4.0, n_sigma=64)
    space = SpaceTimeGrid(n_y=6, dt=1e-3, t_final=0.01)
    prob = CoupledProblem(dp=dp, sigma_grid=sgrid, space_grid=space,
                          protocol=ShearProtocol.ramp(1.0, 0.5))
    init = InitialData.from_preset(sgrid, space, "gaussian",
                                   {"mean": 0.0, "width": 1.0})
    eta, _ = compute_eta(init.p0, sgrid, dp.alpha)
    payloads = []
    res = run(prob, init, eta, snap_every=snap_every,
              checkpoint_every=checkpoint_every,
              checkpoint_sink=payloads.append)
    return res, payloads


def test_defaults_and_types():
    cfg = standard_config()
    assert cfg.mode == "dimensionless" and not cfg.fully_relaxing
    assert cfg[("run", "dt")] == 0.001 and isinstance(cfg[("grid", "n_y")], int)
    assert len(cfg.fingerprint) == 64
    assert cfg.snapshot_every == 100 and cfg.checkpoint_every == 0
    assert cfg.sigma_grid().threshold == 1.0
    assert cfg.space_grid().n_steps == 1000


def test_fingerprint_tracks_effective_values():
    base = standard_config()
    tweaked = standard_config(run__dt="0.0005")
    assert tweaked[("run", "dt")] == 0.0005
    assert tweaked.fingerprint != base.fingerprint
    assert standard_config(run__dt="0.0005").fingerprint == tweaked.fingerprint
    # surrounding whitespace is canonicalized away
    assert load_config(overrides=["run.dt= 0.0005 "]).fingerprint == \
        tweaked.fingerprint
    assert standard_config().fingerprint == base.fingerprint


@pytest.mark.parametrize("text", [
    "[extra]\nx = 1\n",
    "[run]\nbogus = 1\n",
])
def test_unknown_sections_and_keys_rejected(text):
    with pytest.raises(ConfigError):
        load_config(text=text)


@pytest.mark.parametrize("override", [
    "run.bogus=1", "nosection=1", "rundt", "bogus.dt=1",
])
def test_bad_overrides_rejected(override):
    with pytest.raises(ConfigError):
        load_config(overrides=[override])


@pytest.mark.parametrize("override", [
    "grid.n_y=2.5", "model.fully_relaxing=maybe", "run.dt=inf",
    "run.dt=oops", "protocol.times=1,a", "model.mode=physical",
])
def test_bad_values_rejected(override):
    with pytest.raises(ConfigError):
        load_config(overrides=[override])


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(path=str(tmp_path / "absent.ini"))


def test_file_and_overrides_compose(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\ndt = 0.002\nt_final = 0.5\n")
    cfg = load_config(path=str(path), overrides=["run.t_final=0.25"])
    assert cfg[("run", "dt")] == 0.002
    assert cfg[("run", "t_final")] == 0.25


def test_build_standard_scenario():
    prob, init, report = standard_config().build()
    assert report.ok and report.theory_backed
    assert report.eta == pytest.approx(0.31726726187560095, abs=1e-14)
    assert prob.space_grid.n_y == 64 and prob.sigma_grid.n_sigma == 256
    assert init.p0.shape == (64, 256)
    assert prob.protocol.value(0.5) == pytest.approx(1.0)


def test_build_rejects_degenerate_unless_allowed():
    bad = standard_config(initial__p0="uniform", initial__lo="-0.5",
                          initial__hi="0.5")
    report = bad.build()[2]
    assert not report.ok
    with pytest.raises(ValidationError):
        report.raise_if_failed()
    forced = standard_config(initial__p0="uniform", initial__lo="-0.5",
                             initial__hi="0.5", model__allow_degenerate="true")
    report = forced.build()[2]
    assert report.ok and report.eta == 0.0 and not report.theory_backed


def test_fully_relaxing_grid_and_dimensional_conflict():
    cfg = standard_config(model__fully_relaxing="true", grid__sigma_max="8.0",
                          grid__n_sigma="512")
    assert cfg.sigma_grid().threshold == 0.0
    clash = standard_config(model__mode="dimensional",
                            model__fully_relaxing="true")
    with pytest.raises(ConfigError):
        clash.sigma_grid()


def test_dimensional_config_scales_to_the_standard_scenario():
    cfg = standard_config(
        model__mode="dimensional", model__rho="16.0", model__alpha="16.0",
        model__g0="4.0", model__mu="8.0", model__t0="2.0",
        model__sigma_c="4.0", model__length="1.0",
        grid__sigma_max="16.0", initial__width="4.0",
        run__dt="0.002", run__t_final="2.0",
        protocol__v_max="0.5", protocol__t_ramp="1.0")
    dp = cfg.dimensionless_params()
    assert (dp.rho, dp.alpha, dp.g0, dp.mu) == (1.0, 1.0, 1.0, 1.0)
    sg = cfg.space_grid()
    assert sg.dt == 0.001 and sg.t_final == 1.0
    assert cfg.sigma_grid().sigma_max == 4.0
    proto = cfg.protocol()
    assert proto.value(0.5) == pytest.approx(1.0, abs=1e-15)
    assert proto.value(0.25) == pytest.approx(0.5, abs=1e-15)
    ref = standard_config().build()
    prob, init, report = cfg.build()
    assert np.array_equal(init.p0, ref[1].p0)
    assert report.eta == ref[2].eta


def test_fields_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    y = np.linspace(0.1, 0.9, 9)
    fields = {"u": rng.normal(size=9) * 1e-7,
              "tau": rng.normal(size=9) * 1e3,
              "d": np.abs(rng.normal(size=9))}
    path = tmp_path / "snap.csv"
    write_fields_csv(path, 0.125, y, fields, "f" * 64)
    t, data = read_fields_csv(path)
    assert t == 0.125
    assert np.array_equal(data["y"], y)
    for k, v in fields.items():
        assert np.array_equal(data[k], v)
    assert ("# fingerprint = " + "f" * 64) in path.read_text()


def test_fields_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ArtifactIOError):
        read_fields_csv(path)
    with pytest.raises(ArtifactIOError):
        read_fields_csv(tmp_path / "absent.csv")


def test_density_csv_layout(tmp_path):
    y = np.array([0.25, 0.5, 0.75])
    centers = np.array([-0.5, 0.5])
    p = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path = tmp_path / "density.csv"
    write_density_csv(path, 0.5, y, centers, p, "a" * 64)
    lines = path.read_text().splitlines()
    assert lines[2] == "y,-0.5,0.5"
    assert [float(x) for x in lines[3].split(",")] == [0.25, 1.0, 2.0]
    assert len(lines) == 6


def per_value_csv(fingerprint, t, header, rows):
    """Reference layout: every value through its own "{:.17g}" call."""
    fmt = "{:.17g}".format
    lines = [f"# fingerprint = {fingerprint}", f"# t = {fmt(t)}", header]
    lines += [",".join(fmt(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_csv_writers_match_per_value_formatting(tmp_path):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310,
                        1.0 / 3.0, -1e300, 1e-7, 123456789.0, 1.0])
    y = np.arange(1, 13) / 13.0
    fields = {"u": special, "tau": special[::-1].copy(), "n": np.arange(12)}
    path = tmp_path / "fields.csv"
    write_fields_csv(path, 0.1, y, fields, "c" * 64)
    assert path.read_text() == per_value_csv(
        "c" * 64, 0.1, "y,u,tau,n", zip(y, special, special[::-1], range(12)))
    centers = special[:6]
    p = special.reshape(2, 6)
    path = tmp_path / "density.csv"
    write_density_csv(path, 1.0 / 7.0, y[:2], centers, p, "d" * 64)
    header = "y," + ",".join("{:.17g}".format(c) for c in centers)
    assert path.read_text() == per_value_csv(
        "d" * 64, 1.0 / 7.0, header, [[yi, *row] for yi, row in zip(y[:2], p)])


def test_npz_bytes_deterministic(tmp_path):
    arrays = {"a": np.arange(5.0), "b": np.array("text")}
    _atomic_write(tmp_path / "one.npz", _npz(**arrays))
    _atomic_write(tmp_path / "two.npz", _npz(**arrays))
    assert (tmp_path / "one.npz").read_bytes() == (tmp_path / "two.npz").read_bytes()


def test_series_round_trip(tmp_path):
    res, _ = micro_run()
    path = tmp_path / "series.npz"
    write_series(path, res, "b" * 64)
    data = read_series(path)
    assert list(data) == ["fingerprint", "kind", "times", "tau", "u", "b", "trunc",
                          "inner", "mass_err", "min_d", "max_p", "picard_iters",
                          "picard_ratios"]
    assert data["fingerprint"] == "b" * 64 and data["kind"] == "general"
    assert np.array_equal(data["tau"], res.series["tau"])
    assert np.array_equal(data["trunc"], res.series["trunc"])
    assert np.array_equal(data["picard_ratios"], res.series["ratios"],
                          equal_nan=True)
    write_series(tmp_path / "again.npz", res, "b" * 64)
    assert path.read_bytes() == (tmp_path / "again.npz").read_bytes()
    with pytest.raises(ArtifactIOError):
        read_series(tmp_path / "absent.npz")


def test_checkpoint_round_trip(tmp_path):
    _, payloads = micro_run()
    payload = payloads[-1]
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, payload, "c" * 64)
    back = load_checkpoint(path, expect_fingerprint="c" * 64)
    assert back.step == payload.step
    assert back.u.tobytes() == payload.u.tobytes()
    assert back.p.tobytes() == payload.p.tobytes()
    assert back.accum.xi.tobytes() == payload.accum.xi.tobytes()
    assert back.accum.truncation_steps == payload.accum.truncation_steps
    assert back.warnings == payload.warnings
    for f in SERIES:
        assert back.series[f.key].dtype == payload.series[f.key].dtype
        assert back.series[f.key].tobytes() == payload.series[f.key].tobytes()
        assert len(back.series[f.key]) == f.length(payload.step)


def test_checkpoint_layout_is_pinned(tmp_path):
    # a checkpoint's member order comes from Accumulators and SERIES, and
    # its bytes from that order and the scalar dtypes
    assert cli.main(["run", *TINY_RUN, "--out", str(tmp_path)]) == 0
    path = tmp_path / "checkpoint_final.npz"
    with zipfile.ZipFile(path) as z:
        names = z.namelist()
    assert names == [f"{name}.npy" for name in (
        "fingerprint", "step", "u", "p", "xi", "acc_d", "grad_sq",
        "clipped_total", "min_before_clip", "truncation_steps",
        "series_tau", "series_u", "series_b", "series_trunc", "series_inner",
        "series_mass_err", "series_min_d", "series_max_p", "series_iters",
        "series_ratios", "warnings")]
    with np.load(path) as z:
        scalars = {k: (z[k].shape, z[k].dtype.str) for k in
                   ("step", "clipped_total", "min_before_clip", "truncation_steps")}
    assert scalars == {"step": ((), "<i8"), "clipped_total": ((), "<f8"),
                       "min_before_clip": ((), "<f8"), "truncation_steps": ((), "<i8")}


def test_checkpoint_fingerprint_and_corruption_guards(tmp_path):
    _, payloads = micro_run()
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, payloads[-1], "c" * 64)
    with pytest.raises(ArtifactIOError):
        load_checkpoint(path, expect_fingerprint="d" * 64)
    with pytest.raises(ArtifactIOError):
        load_checkpoint(tmp_path / "absent.npz")
    truncated = tmp_path / "broken.npz"
    _atomic_write(truncated, _npz(fingerprint=np.array("c" * 64), step=np.array(5)))
    with pytest.raises(ArtifactIOError):
        load_checkpoint(truncated)


def test_summary_round_trip(tmp_path):
    path = tmp_path / "summary.json"
    payload = {"fingerprint": "e" * 64, "steps": 10, "eta": 0.317}
    write_summary(path, payload)
    assert read_summary(path) == payload
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    with pytest.raises(ArtifactIOError):
        read_summary(bad)


def test_atomic_write_makes_parents_and_rejects_directories(tmp_path):
    nested = tmp_path / "a" / "b" / "snap.csv"
    write_fields_csv(nested, 0.0, np.array([0.5]), {"u": np.array([1.0])}, "f")
    assert nested.exists()
    clash = tmp_path / "clash.csv"
    clash.mkdir()
    with pytest.raises(ArtifactIOError):
        write_fields_csv(clash, 0.0, np.array([0.5]), {"u": np.array([1.0])}, "f")
    under_a_file = tmp_path / "a" / "b" / "snap.csv" / "inner.csv"
    with pytest.raises(ArtifactIOError):
        write_fields_csv(under_a_file, 0.0, np.array([0.5]), {"u": np.array([1.0])}, "f")


def snapshot_csvs(out, res, fingerprint, scales=None, dump_density=False):
    """Hand every snapshot of res to a RunDirectory, then write its CSVs."""
    directory = RunDirectory(out, res.problem, fingerprint, scales, dump_density)
    for snap in res.snapshots:
        directory(snap)
    return write_snapshots(directory)


def test_write_snapshots_names_and_rescaling(tmp_path):
    res, _ = micro_run()
    written = snapshot_csvs(tmp_path, res, "a" * 64, dump_density=True)
    names = sorted(p.name for p in written)
    assert names == ["density_000000.csv", "density_000005.csv",
                     "density_000010.csv", "snapshot_000000.csv",
                     "snapshot_000005.csv", "snapshot_000010.csv"]
    t, data = read_fields_csv(tmp_path / "snapshot_000010.csv")
    assert t == pytest.approx(0.01)
    assert np.array_equal(data["tau"], res.snapshots[-1].tau)

    scaled_dir = tmp_path / "scaled"
    snapshot_csvs(scaled_dir, res, "a" * 64, scales=(2.0, 1.0, 4.0))
    t_dim, dim = read_fields_csv(scaled_dir / "snapshot_000010.csv")
    assert t_dim == pytest.approx(0.02)                    # t0 = 2
    assert np.allclose(dim["tau"], 4.0 * data["tau"])      # sigma_c = 4
    assert np.allclose(dim["u"], 0.5 * data["u"])          # length / t0
    assert np.allclose(dim["d"], 8.0 * data["d"])          # sigma_c^2 / t0


def per_file_snapshots(out, res, fingerprint, scales):
    """Reference writer: every snapshot's files in turn, in this process."""
    y = res.problem.space_grid.y
    centers = res.problem.sigma_grid.centers
    written = []
    for snap in res.snapshots:
        t, y_out, c_out, p_out = snap.t, y, centers, snap.p
        fields = {"u": snap.u, "tau": snap.tau, "d": snap.d}
        if scales is not None:
            dim = rescale_fields({"t": snap.t, "y": y, "sigma": centers,
                                  "p": snap.p, **fields},
                                 *scales, to_dimensionless=False)
            t, y_out, c_out, p_out = dim["t"], dim["y"], dim["sigma"], dim["p"]
            fields = {k: dim[k] for k in fields}
        written.append(out / f"snapshot_{snap.index:06d}.csv")
        write_fields_csv(written[-1], t, y_out, fields, fingerprint)
        written.append(out / f"density_{snap.index:06d}.csv")
        write_density_csv(written[-1], t, y_out, c_out, p_out, fingerprint)
    return written


def forcing_shares(monkeypatch, cpus=3):
    """Fork a writer for every snapshot while one of `cpus` - 1 slots is free.

    Returns the list that each fork appends to.
    """
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(snapshots, "MIN_SHARE_VALUES", 1)
    monkeypatch.setattr(snapshots, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("scales", [None, (2.0, 1.0, 4.0)])
def test_split_writer_is_byte_identical_to_a_per_file_loop(tmp_path, monkeypatch,
                                                          scales):
    res, _ = micro_run()
    ref = per_file_snapshots(tmp_path / "ref", res, "a" * 64, scales)
    forks = forcing_shares(monkeypatch)
    written = snapshot_csvs(tmp_path / "split", res, "a" * 64, scales=scales,
                            dump_density=True)
    assert len(forks) >= 2  # the first two snapshots always find a free slot
    assert [p.name for p in written] == [p.name for p in ref]
    for path, expected in zip(written, ref):
        assert path.read_bytes() == expected.read_bytes(), path.name
    assert sorted(p.name for p in (tmp_path / "split").iterdir()) == \
        sorted(p.name for p in ref)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_failing_child_share_raises_in_the_caller(tmp_path, monkeypatch):
    res, _ = micro_run()
    clash = tmp_path / "density_000000.csv"  # written by the first child
    clash.mkdir()
    forcing_shares(monkeypatch)
    pid = os.getpid()
    with pytest.raises(ArtifactIOError, match=str(clash)):
        snapshot_csvs(tmp_path, res, "a" * 64, dump_density=True)
    assert os.getpid() == pid
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "density_000000.csv", "density_000005.csv", "density_000010.csv",
        "snapshot_000000.csv", "snapshot_000005.csv", "snapshot_000010.csv"]
    assert clash.is_dir() and not any(clash.iterdir())


@pytest.mark.parametrize("n_y,n_sigma,dump_density", [
    (64, 256, False),    # the standard scenario
    (64, 256, True),     # the same with --dump-density, still serial
    (511, 512, False),   # the fully relaxing n_y = 511 run
])
def test_small_outputs_do_not_fork(tmp_path, monkeypatch, n_y, n_sigma,
                                   dump_density):
    def fork():
        raise AssertionError("the snapshot writer forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    monkeypatch.setattr(snapshots, "_usable_cpus", lambda: 64)
    y = (np.arange(n_y) + 0.5) / n_y
    snaps = [Snapshot(index=100 * k, t=0.1 * k, u=y, tau=y, d=y,
                      p=np.full((n_y, n_sigma), 0.5), xi=y, acc_d=y)
             for k in range(11)]
    result = SimpleNamespace(
        snapshots=snaps,
        problem=SimpleNamespace(space_grid=SimpleNamespace(y=y),
                                sigma_grid=SimpleNamespace(
                                    centers=np.linspace(-4, 4, n_sigma))))
    written = snapshot_csvs(tmp_path, result, "a" * 64,
                            dump_density=dump_density)
    assert len(written) == 11 * (2 if dump_density else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_one_usable_cpu_writes_everything_in_the_caller(tmp_path, monkeypatch):
    res, _ = micro_run()
    forks = forcing_shares(monkeypatch, cpus=1)
    written = snapshot_csvs(tmp_path, res, "a" * 64, dump_density=True)
    assert forks == [] and len(written) == 6


def test_fork_failure_writes_the_share_in_the_caller(tmp_path, monkeypatch):
    res, _ = micro_run()
    ref = per_file_snapshots(tmp_path / "ref", res, "a" * 64, None)

    def fork():
        raise OSError("no process to spare")

    forcing_shares(monkeypatch)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    written = snapshot_csvs(tmp_path / "split", res, "a" * 64, dump_density=True)
    for path, expected in zip(written, ref, strict=True):
        assert path.read_bytes() == expected.read_bytes(), path.name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_cli_streams_snapshots_to_children_during_the_run(tmp_path, monkeypatch):
    forks = forcing_shares(monkeypatch, cpus=2)
    results, forks_at_return = [], []
    real_run = coupler.run

    def run(*args, **kwargs):
        results.append(real_run(*args, **kwargs))
        forks_at_return.append(len(forks))
        return results[-1]

    monkeypatch.setattr(coupler, "run", run)
    out = tmp_path / "o"
    assert cli.main(["run", *TINY_RUN, "--dump-density", "--out", str(out)]) == 0
    assert forks_at_return[0] >= 1
    with pytest.raises(ChildProcessError):  # every writer has been reaped
        os.waitpid(-1, os.WNOHANG)
    fingerprint = read_summary(out / "summary.json")["fingerprint"]
    ref = per_file_snapshots(tmp_path / "ref", results[0], fingerprint, None)
    for expected in ref:
        assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name


# the ramp starts at t = 0.005, where one Picard iterate no longer converges
FAILING_RUN = [*TINY_RUN, "--set", "run.picard_max=1", "--set", "protocol.kind=table",
               "--set", "protocol.times=0,0.005,0.006", "--set", "protocol.values=0,0,1"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_failed_run_leaves_whole_csvs_of_the_snapshots_it_took(tmp_path,
                                                                 monkeypatch):
    assert cli.main(["run", *FAILING_RUN]) == 4
    forks = forcing_shares(monkeypatch, cpus=2)
    out = tmp_path / "o"
    assert cli.main(["run", *FAILING_RUN, "--dump-density", "--out", str(out)]) == 4
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    taken = [0, 2, 4]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{kind}_{k:06d}.csv" for kind in ("density", "snapshot") for k in taken)
    for k in taken:
        t, fields = read_fields_csv(out / f"snapshot_{k:06d}.csv")
        assert t == pytest.approx(1e-3 * k) and list(fields) == ["y", "u", "tau", "d"]
        assert all(v.shape == (6,) for v in fields.values())
        _, density = read_fields_csv(out / f"density_{k:06d}.csv")
        assert len(density) == 1 + 64 and density["y"].shape == (6,)


def test_a_writer_failure_does_not_mask_the_run_failure(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "snapshot_000002.csv").mkdir(parents=True)
    assert cli.main(["run", *FAILING_RUN, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "snapshot_000002.csv" in err and "fixed-point" in err
    assert sorted(p.name for p in out.iterdir()) == [
        "snapshot_000000.csv", "snapshot_000002.csv"]


SPLIT_CLI_LAUNCHER = """
import os, sys
from hlcouette import cli, snapshots
snapshots._usable_cpus = lambda: 2
forks = []
real_fork, real_exit = os.fork, os._exit
os.fork = lambda: forks.append(1) or real_fork()
def child_exit(code):  # a writer that flushes what it inherited, as sys.exit would
    sys.stdout.flush()
    real_exit(code)
os._exit = child_exit
code = cli.main(sys.argv[1:])
print(f"forks = {len(forks)}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_cli_output_is_written_once_when_the_writer_forks(tmp_path):
    """101 standard-sized density snapshots cross the batch threshold mid-run."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # keep the piped stdout block-buffered
    package_root = str(Path(hlcouette.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SPLIT_CLI_LAUNCHER, "run", "--out",
         str(tmp_path / "o"), "--dump-density", "--set", "run.t_final=0.1",
         "--set", "run.snapshot_every=1", "--set", "run.checkpoint_every=10"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    forks = re.search(r"^forks = (\d+)$", proc.stderr, re.MULTILINE)
    assert forks and int(forks.group(1)) >= 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "all checks passed" in lines and lines[-1].startswith("wrote 202 ")
    assert len(lines) == len(set(lines))
