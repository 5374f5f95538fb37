"""Config parsing, fingerprints, and artifact round trips."""

import json
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from hlcouette import cli, protocols
from hlcouette.config import load_config
from hlcouette.coupler import SERIES, CoupledProblem, run
from hlcouette.errors import ArtifactIOError, ConfigError, ValidationError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import InitialData
from hlcouette.params import DimensionlessParams, rescale_fields
from hlcouette.snapshots import (RunDirectory, _atomic_write, _npz, load_checkpoint,
                                 save_checkpoint, write_fields_csv, write_series,
                                 write_snapshots, write_summary)


TINY_RUN = ["--set", "grid.n_y=6", "--set", "grid.n_sigma=64",
            "--set", "run.t_final=0.01", "--set", "run.snapshot_every=2"]


def micro_problem():
    dp = DimensionlessParams(rho=1.0, alpha=1.0, g0=1.0, mu=1.0)
    sgrid = SigmaGrid(sigma_max=4.0, n_sigma=64)
    space = SpaceTimeGrid(n_y=6, dt=1e-3, t_final=0.01)
    return CoupledProblem(dp=dp, sigma_grid=sgrid, space_grid=space,
                          protocol=protocols.ramp(1.0, 0.5))


def micro_run(snap_every=5, checkpoint_every=5, snapshot_sink=None):
    prob = micro_problem()
    sgrid, space = prob.sigma_grid, prob.space_grid
    init = InitialData.from_preset(sgrid, space, "gaussian",
                                   {"mean": 0.0, "width": 1.0})
    payloads = []
    res = run(prob, init, snap_every=snap_every,
              checkpoint_every=checkpoint_every,
              checkpoint_sink=payloads.append, snapshot_sink=snapshot_sink)
    return res, payloads


def test_defaults_and_types():
    cfg = load_config()
    assert cfg.mode == "dimensionless" and not cfg.fully_relaxing
    assert cfg.values["run"]["dt"] == 0.001
    assert isinstance(cfg.values["grid"]["n_y"], int)
    assert len(cfg.fingerprint) == 64
    assert cfg.snapshot_every == 100 and cfg.checkpoint_every == 0
    prob = cfg.build()[0]
    assert prob.sigma_grid.threshold == 1.0
    assert prob.space_grid.n_steps == 1000


def test_fingerprint_tracks_effective_values():
    base = load_config()
    tweaked = load_config(overrides=["run.dt=0.0005"])
    assert tweaked.values["run"]["dt"] == 0.0005
    assert tweaked.fingerprint != base.fingerprint
    assert load_config(overrides=["run.dt=0.0005"]).fingerprint == tweaked.fingerprint
    # surrounding whitespace is canonicalized away
    assert load_config(overrides=["run.dt= 0.0005 "]).fingerprint == \
        tweaked.fingerprint
    assert load_config().fingerprint == base.fingerprint


@pytest.mark.parametrize("text", [
    "[extra]\nx = 1\n",
    "[run]\nbogus = 1\n",
])
def test_unknown_sections_and_keys_rejected(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(str(path))


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
    assert cfg.values["run"]["dt"] == 0.002
    assert cfg.values["run"]["t_final"] == 0.25


def test_build_standard_scenario():
    prob, init, report = load_config().build()
    assert report.ok and report.theory_backed
    assert report.eta == pytest.approx(0.31726726187560095, abs=1e-14)
    assert prob.space_grid.n_y == 64 and prob.sigma_grid.n_sigma == 256
    assert init.p0.shape == (64, 256)
    assert prob.protocol.value(0.5) == pytest.approx(1.0)


def test_build_rejects_degenerate_unless_allowed():
    uniform = ["initial.p0=uniform", "initial.lo=-0.5", "initial.hi=0.5"]
    bad = load_config(overrides=uniform)
    report = bad.build()[2]
    assert not report.ok
    with pytest.raises(ValidationError):
        report.raise_if_failed()
    forced = load_config(overrides=[*uniform, "model.allow_degenerate=true"])
    report = forced.build()[2]
    assert report.ok and report.eta == 0.0 and not report.theory_backed


def test_fully_relaxing_grid_and_dimensional_conflict():
    cfg = load_config(overrides=["model.fully_relaxing=true", "grid.sigma_max=8.0",
                                 "grid.n_sigma=512"])
    assert cfg.build()[0].sigma_grid.threshold == 0.0
    clash = load_config(overrides=["model.mode=dimensional", "model.fully_relaxing=true"])
    with pytest.raises(ConfigError):
        clash.build()


def test_dimensional_config_scales_to_the_standard_scenario():
    cfg = load_config(overrides=[
        "model.mode=dimensional", "model.rho=16.0", "model.alpha=16.0", "model.g0=4.0",
        "model.mu=8.0", "model.t0=2.0", "model.sigma_c=4.0", "model.length=1.0",
        "grid.sigma_max=16.0", "initial.width=4.0", "run.dt=0.002", "run.t_final=2.0",
        "protocol.v_max=0.5", "protocol.t_ramp=1.0"])
    prob, init, report = cfg.build()
    dp = prob.dp
    assert (dp.rho, dp.alpha, dp.g0, dp.mu) == (1.0, 1.0, 1.0, 1.0)
    sg = prob.space_grid
    assert sg.dt == 0.001 and sg.t_final == 1.0
    assert prob.sigma_grid.sigma_max == 4.0
    proto = prob.protocol
    assert proto.value(0.5) == pytest.approx(1.0, abs=1e-15)
    assert proto.value(0.25) == pytest.approx(0.5, abs=1e-15)
    ref = load_config().build()
    assert np.array_equal(init.p0, ref[1].p0)
    assert report.eta == ref[2].eta


def read_csv(path):
    """The t comment and the named columns of a CSV the package writes."""
    with open(path) as fh:
        fh.readline()  # the fingerprint
        t = float(fh.readline().split("=")[1])
        names = fh.readline().strip().split(",")
        return t, dict(zip(names, np.loadtxt(fh, delimiter=",", ndmin=2).T))


def test_fields_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    y = np.linspace(0.1, 0.9, 9)
    fields = {"u": rng.normal(size=9) * 1e-7,
              "tau": rng.normal(size=9) * 1e3,
              "d": np.abs(rng.normal(size=9))}
    path = tmp_path / "snap.csv"
    write_fields_csv(path, 0.125, y, fields, "f" * 64)
    t, data = read_csv(path)
    assert t == 0.125
    assert np.array_equal(data["y"], y)
    for k, v in fields.items():
        assert np.array_equal(data[k], v)
    assert ("# fingerprint = " + "f" * 64) in path.read_text()


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


def test_npz_bytes_deterministic(tmp_path):
    arrays = {"a": np.arange(5.0), "b": np.array("text")}
    _atomic_write(tmp_path / "one.npz", _npz(**arrays))
    _atomic_write(tmp_path / "two.npz", _npz(**arrays))
    assert (tmp_path / "one.npz").read_bytes() == (tmp_path / "two.npz").read_bytes()


def test_series_round_trip(tmp_path):
    res, _ = micro_run()
    path = tmp_path / "series.npz"
    write_series(path, res, "b" * 64)
    with np.load(path) as z:
        data = {name: z[name] for name in z.files}
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
    assert json.loads(path.read_text()) == payload


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


def snapshot_csvs(out, fingerprint, scales=None, dump_density=False):
    """Run micro_run with a RunDirectory as its snapshot sink, then write the
    snapshot CSVs; returns the run and the paths of the snapshot files.

    scales (t0, length, sigma_c) go on the directory's problem's params."""
    prob = micro_problem()
    if scales is not None:
        t0, length, sigma_c = scales
        prob = replace(prob, dp=replace(prob.dp, t0=t0, length=length, sigma_c=sigma_c))
    directory = RunDirectory(out, prob, fingerprint, dump_density=dump_density)
    res, _ = micro_run(snapshot_sink=directory)
    assert not list(out.glob("*.csv"))  # the CSVs wait for write_snapshots
    assert len(list(out.glob("density_*.npz"))) == (3 if dump_density else 0)
    return res, write_snapshots(directory)


def test_write_snapshots_names_and_rescaling(tmp_path):
    res, written = snapshot_csvs(tmp_path, "a" * 64, dump_density=True)
    names = sorted(p.name for p in written)
    assert names == ["density_000000.npz", "density_000005.npz",
                     "density_000010.npz", "snapshot_000000.csv",
                     "snapshot_000005.csv", "snapshot_000010.csv"]
    t, data = read_csv(tmp_path / "snapshot_000010.csv")
    assert t == pytest.approx(0.01)
    assert np.array_equal(data["tau"], res.series["tau"][10])

    scaled_dir = tmp_path / "scaled"
    snapshot_csvs(scaled_dir, "a" * 64, scales=(2.0, 1.0, 4.0))
    t_dim, dim = read_csv(scaled_dir / "snapshot_000010.csv")
    assert t_dim == pytest.approx(0.02)                    # t0 = 2
    assert np.allclose(dim["tau"], 4.0 * data["tau"])      # sigma_c = 4
    assert np.allclose(dim["u"], 0.5 * data["u"])          # length / t0
    assert np.allclose(dim["d"], 8.0 * data["d"])          # sigma_c^2 / t0


def test_density_csv_layout(tmp_path):
    """A density archive holds fingerprint, t, y, sigma and p, bit for bit,
    in the units of the snapshot CSV beside it."""
    res, _ = micro_run()  # its last snapshot is its final state
    scaled = {"t": res.times[10], "y": res.problem.space_grid.y,
              "sigma": res.problem.sigma_grid.centers, "p": res.p}
    for scales in (None, (2.0, 1.0, 4.0)):
        out = tmp_path / ("scaled" if scales is None else "dimensional")
        snapshot_csvs(out, "a" * 64, scales=scales, dump_density=True)
        with np.load(out / "density_000010.npz") as z:
            assert z.files == ["fingerprint", "t", "y", "sigma", "p"]
            back = {k: z[k] for k in z.files}
        assert back["fingerprint"] == "a" * 64
        expected = scaled if scales is None else rescale_fields(
            scaled, *scales, to_dimensionless=False)
        for name, value in expected.items():
            value = np.asarray(value, dtype=np.float64)
            assert back[name].dtype == np.float64 and back[name].shape == value.shape
            assert back[name].tobytes() == value.tobytes(), name
        t, fields = read_csv(out / "snapshot_000010.csv")
        assert t == back["t"] and np.array_equal(fields["y"], back["y"])
    assert not np.array_equal(back["p"], res.p)  # the dimensional case rescaled


# the ramp starts at t = 0.005, where one Picard iterate no longer converges
FAILING_RUN = [*TINY_RUN, "--set", "run.picard_max=1", "--set", "protocol.kind=table",
               "--set", "protocol.times=0,0.005,0.006", "--set", "protocol.values=0,0,1"]


def test_a_failed_run_leaves_whole_csvs_of_the_snapshots_it_took(tmp_path):
    assert cli.main(["run", *FAILING_RUN]) == 4
    out = tmp_path / "o"
    assert cli.main(["run", *FAILING_RUN, "--dump-density", "--out", str(out)]) == 4
    taken = [0, 2, 4]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"density_{k:06d}.npz" for k in taken]
        + [f"snapshot_{k:06d}.csv" for k in taken] + ["failure_dump.npz"])
    for k in taken:
        t, fields = read_csv(out / f"snapshot_{k:06d}.csv")
        assert t == pytest.approx(1e-3 * k) and list(fields) == ["y", "u", "tau", "d"]
        assert all(v.shape == (6,) for v in fields.values())
        with np.load(out / f"density_{k:06d}.npz") as z:
            assert z["t"] == t and z["p"].shape == (6, 64)
            assert np.array_equal(z["y"], fields["y"])


def test_a_writer_failure_does_not_mask_the_run_failure(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "snapshot_000002.csv").mkdir(parents=True)
    assert cli.main(["run", *FAILING_RUN, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "snapshot_000002.csv" in err and "fixed-point" in err
    assert sorted(p.name for p in out.iterdir()) == [
        "failure_dump.npz", "snapshot_000000.csv", "snapshot_000002.csv"]
