"""Coupled stepping: fixed point, bookkeeping, checkpointing, both variants."""

import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hlcouette
from hlcouette import coupler, protocols
from hlcouette.config import load_config
from hlcouette.coupler import (SERIES, CoupledProblem, barrier_deficits, check_series_budget,
                               run, run_maxwell)
from hlcouette.diagnostics import result_from_checkpoint
from hlcouette.errors import ConfigError, DiagnosticFailure, NonContractionError, ValidationError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import InitialData
from hlcouette.macro import dtau_dy
from hlcouette.meso import compute_d, compute_tau
from hlcouette.params import DimensionlessParams
from hlcouette.snapshots import save_checkpoint
from hlcouette.tridiag import _diffusion_factors, solve_diffusion_batch
from reference_runs import (maxwell_reference_run, refined_space_grid,
                            restrict_nodes, restrict_times)
from test_cli import failing_after

DP = DimensionlessParams(rho=1.0, alpha=1.0, g0=1.0, mu=1.0)
SGRID = SigmaGrid(sigma_max=4.0, n_sigma=256)


def small_problem(n_y=16, dt=1e-3, t_final=0.02, protocol=None, **knobs):
    space = SpaceTimeGrid(n_y=n_y, dt=dt, t_final=t_final)
    proto = protocol if protocol is not None else protocols.ramp(1.0, 0.5)
    prob = CoupledProblem(dp=DP, sigma_grid=SGRID, space_grid=space,
                          protocol=proto, **knobs)
    init = InitialData.from_preset(SGRID, space, "gaussian",
                                   {"mean": 0.0, "width": 1.0})
    return prob, init


def keeping_sink():
    """A snapshot sink that keeps a copy of each state it is handed, with D,
    and the list it keeps them in."""
    kept = []

    def sink(state, d):
        kept.append((state.checkpoint(), d.copy()))

    return sink, kept


def test_rest_protocol_is_a_fixed_point():
    prob, init = small_problem(protocol=protocols.ramp(0.0, 1.0))
    res = run(prob, init)
    assert np.max(np.abs(res.series["u"])) <= 1e-13
    assert np.max(np.abs(res.series["tau"])) <= 1e-13
    assert np.all(res.series["iters"] == 1)
    assert np.max(res.series["mass_err"]) <= 1e-13
    assert np.allclose(res.p, res.p[:, ::-1], atol=1e-13)
    assert res.kind == "general"


def test_accepted_step_satisfies_the_implicit_momentum_balance():
    prob, init = small_problem()
    res = run(prob, init)
    sg = prob.space_grid
    dy2 = sg.dy ** 2
    for k in [0, 5, 19]:
        u0, u1 = res.series["u"][k], res.series["u"][k + 1]
        lap = np.empty_like(u1)
        lap[:] = 2.0 * u1
        lap[:-1] -= u1[1:]
        lap[1:] -= u1[:-1]
        lap /= dy2
        t1 = sg.time(k + 1)
        residual = ((DP.rho / sg.dt) * (u1 - u0) + DP.mu * lap
                    - dtau_dy(res.series["tau"][k + 1], sg)
                    + DP.rho * prob.protocol.derivative(t1) * sg.y)
        assert np.max(np.abs(residual)) < 1e-10


def test_loading_field_matches_the_accepted_velocity():
    prob, init = small_problem()
    res = run(prob, init)
    # b is frozen at the last Picard iterate of dy u + V; with the tight
    # default tolerance it agrees with the accepted velocity's loading
    from hlcouette.macro import velocity_gradient
    for k in [3, 12]:
        t1 = prob.space_grid.time(k + 1)
        b_ref = DP.g0 * (velocity_gradient(res.series["u"][k + 1], prob.space_grid)
                         + prob.protocol.value(t1))
        assert np.allclose(res.series["b"][k], b_ref, atol=1e-7)


def test_reruns_are_bit_identical():
    prob, init = small_problem()
    a = run(prob, init)
    b = run(prob, init)
    assert a.series["tau"].tobytes() == b.series["tau"].tobytes()
    assert a.series["u"].tobytes() == b.series["u"].tobytes()
    assert a.p.tobytes() == b.p.tobytes()
    assert np.array_equal(a.series["ratios"], b.series["ratios"], equal_nan=True)


def test_checkpoint_resume_is_bit_exact():
    prob, init = small_problem()
    straight = run(prob, init)
    payloads = []
    run(prob, init, checkpoint_every=10, checkpoint_sink=payloads.append)
    assert [p.step for p in payloads] == [10, 20]
    resumed = run(prob, init, resume=payloads[0])
    assert resumed.series["tau"].tobytes() == straight.series["tau"].tobytes()
    assert resumed.series["u"].tobytes() == straight.series["u"].tobytes()
    assert resumed.p.tobytes() == straight.p.tobytes()
    assert np.array_equal(resumed.series["iters"], straight.series["iters"])
    assert resumed.warnings == straight.warnings
    assert resumed.accum.truncation_steps == straight.accum.truncation_steps
    assert resumed.accum.xi.tobytes() == straight.accum.xi.tobytes()
    assert resumed.accum.grad_sq.tobytes() == straight.accum.grad_sq.tobytes()
    # a resumed run leaves the state it started from as it was
    again = run(prob, init, resume=payloads[0])
    assert again.accum.xi.tobytes() == straight.accum.xi.tobytes()
    assert resumed.accum.xi.tobytes() == straight.accum.xi.tobytes()
    assert again.accum.truncation_steps == straight.accum.truncation_steps


def test_checkpoint_payload_series_are_read_only_prefixes():
    prob, init = small_problem()
    payloads, at_sink = [], []

    def sink(payload):
        with pytest.raises(ValueError):
            payload.series["tau"][0, 0] = 1.0
        payloads.append(payload)
        at_sink.append({f.key: payload.series[f.key].copy() for f in SERIES})

    res = run(prob, init, checkpoint_every=5, checkpoint_sink=sink)
    assert [p.step for p in payloads] == [5, 10, 15, 20]
    final = res.series
    for payload, seen in zip(payloads, at_sink):
        for f in SERIES:
            prefix = final[f.key][:f.length(payload.step)]
            assert payload.series[f.key].dtype == prefix.dtype
            # later steps left the prefix as the sink saw it
            assert payload.series[f.key].tobytes() == seen[f.key].tobytes()
            assert prefix.tobytes() == seen[f.key].tobytes()


def test_truncation_monitor_warns_once_for_fat_tails():
    prob, init = small_problem()
    res = run(prob, init)
    # the standard Gaussian leaves ~1e-5 in the outermost cells at 4 sigma
    assert res.accum.truncation_steps == prob.space_grid.n_steps + 1
    assert len(res.warnings) == 1 and "sigma_max" in res.warnings[0]


def test_snapshot_cadence_and_isolation():
    prob, init = small_problem()
    sink, kept = keeping_sink()
    res = run(prob, init, snap_every=8, snapshot_sink=sink)
    assert [state.step for state, _ in kept] == [0, 8, 16, 20]
    # each snapshot is graded as it is taken, at the time of its step
    assert res.deficits.shape == (4, 3)
    assert np.allclose(res.deficits[:, 0], [0.0, 0.008, 0.016, 0.020])
    assert res.deficits[:, 0].tolist() == [res.times[state.step] for state, _ in kept]
    assert np.array_equal(kept[0][0].p, init.p0)
    assert not np.shares_memory(res.p, init.p0) and not np.shares_memory(res.p0, init.p0)
    assert not np.array_equal(kept[-1][0].p, kept[0][0].p)
    assert kept[-1][0].p.tobytes() == res.p.tobytes()


@pytest.mark.parametrize("closed_form", [False, True], ids=["kinetic", "closed_form"])
def test_a_snapshot_saves_as_the_checkpoint_of_its_step(tmp_path, closed_form):
    # the sink is handed the state of its step: its copy writes the file
    # the checkpoint of that step writes
    prob, init = small_problem()
    payloads = []
    sink, kept = keeping_sink()
    options = dict(snap_every=5, checkpoint_every=5, checkpoint_sink=payloads.append,
                   snapshot_sink=sink)
    if closed_form:
        run_maxwell(prob, tau0=np.zeros(prob.space_grid.n_y), u0=init.u0, **options)
    else:
        run(prob, init, **options)
    kept = {state.step: state for state, _ in kept}
    assert [state.step for state in payloads] == [5, 10, 15, 20]
    for state in payloads:
        snap_file, state_file = tmp_path / "snapshot.npz", tmp_path / "checkpoint.npz"
        save_checkpoint(snap_file, kept[state.step], "f" * 64)
        save_checkpoint(state_file, state, "f" * 64)
        assert snap_file.read_bytes() == state_file.read_bytes(), state.step


def test_the_record_budget_charges_what_a_snapshot_holds(monkeypatch):
    # a run keeps its series and, of each snapshot, three floats: its
    # barrier deficits; the prescribed path keeps the same records
    prob, init = small_problem(n_y=8, t_final=0.01)
    res = run(prob, init, snap_every=4)
    assert res.deficits.shape == (4, 3)
    prescribed = coupler.run_prescribed(prob, init.p0)
    assert prescribed.deficits.shape == (11, 3)
    for result, snap_every in ((res, 4), (prescribed, 1)):
        need = sum(record.nbytes for record in result.series.values()) \
            + result.deficits.nbytes
        monkeypatch.setattr(coupler, "SERIES_MAX_BYTES", need)
        check_series_budget(prob.space_grid, snap_every)
        monkeypatch.setattr(coupler, "SERIES_MAX_BYTES", need - 1)
        with pytest.raises(ValidationError, match="run.dt and run.t_final give 10 steps"):
            check_series_budget(prob.space_grid, snap_every)


def test_the_record_budget_admits_an_every_step_schedule_of_one_long_row():
    # hl-run's schedule on 1 x 2048 rows with dt = 1e-5: 100 000 steps that
    # used to be refused for their kept rows; checked, never run
    space = SpaceTimeGrid(n_y=1, dt=1e-5, t_final=1.0)
    assert space.n_steps == 100_000
    check_series_budget(space, 1)


@pytest.mark.parametrize("n_y, n_sigma", [(1, 16), (8, 64)])
def test_a_run_holds_no_density_row_per_snapshot(n_y, n_sigma):
    # a run grading a snapshot at every step keeps its records and its final
    # state once it returns, and no density row of any snapshot
    grid = SigmaGrid(sigma_max=4.0, n_sigma=n_sigma)
    space = SpaceTimeGrid(n_y=n_y, dt=1e-3, t_final=0.4)
    prob = CoupledProblem(dp=DP, sigma_grid=grid, space_grid=space,
                          protocol=protocols.ramp(1.0, 0.5))
    init = InitialData.from_preset(grid, space, "gaussian", {"mean": 0.0, "width": 1.0})
    run(prob, init, snap_every=1)  # first-use caches are not the run's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run(prob, init, snap_every=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_snapshots = space.n_steps + 1
    assert res.deficits.shape == (n_snapshots, 3)
    records = [*res.series.values(), res.deficits, res.u, res.p, res.p0,
               res.accum.xi, res.accum.acc_d, res.accum.grad_sq]
    beyond = held - sum(record.nbytes for record in records)
    # what is left is a few objects of the result, far below one density
    # row (n_sigma floats) a snapshot
    assert 0 <= beyond < n_snapshots * n_sigma * 8


def test_a_resumed_run_grades_the_snapshots_it_takes():
    prob, init = small_problem()
    payloads = []
    straight = run(prob, init, snap_every=4, checkpoint_every=10,
                   checkpoint_sink=payloads.append)
    assert straight.deficits[:, 0].tolist() == [prob.space_grid.time(k)
                                                for k in (0, 4, 8, 12, 16, 20)]
    # resumed at step 10, the run takes the snapshots at 12, 16 and 20
    resumed = run(prob, init, snap_every=4, resume=payloads[0])
    assert resumed.deficits.tobytes() == straight.deficits[3:].tobytes()
    # and a run that skips the grading records none
    assert run(prob, init, snap_every=4, grade=False).deficits is None


def test_snapshot_count_counts_the_snapshot_steps():
    for n_steps in (0, 1, 19, 20):
        for snap_every in (0, 1, 3, 4, 7, 20, 25):
            for first in range(n_steps + 3):
                steps = [k for k in range(first, n_steps + 1)
                         if snap_every and (k % snap_every == 0 or k == n_steps)]
                assert coupler.snapshot_count(n_steps, snap_every, first) == len(steps), \
                    (n_steps, snap_every, first)


def test_mass_guard_raises_with_the_state_of_its_step():
    prob, init = small_problem()
    init.p0[3] *= 1.001
    with pytest.raises(DiagnosticFailure) as exc_info:
        run(prob, init)
    state = exc_info.value.state
    assert state.step == 0
    assert state.series["tau"].shape == (1, prob.space_grid.n_y)


def test_a_failed_step_leaves_the_last_accepted_state_bit_for_bit(monkeypatch):
    # a path raises before it assigns anything of the state, and the running
    # integrals move only after, so the state is the straight run's at the
    # step before the one that failed: step 7 does not contract, or is the
    # first whose mass drifts past the guard's tolerance
    prob, init = small_problem(t_final=0.01)
    kept = []
    straight = run(prob, init, checkpoint_every=1, checkpoint_sink=kept.append)
    mass_tol = 5e-16
    assert int(np.argmax(straight.series["mass_err"] > mass_tol)) == 9
    for fault, error, match, step in [
            (("coupled_step", failing_after(0.0065, NonContractionError)), NonContractionError,
             "at t = 0.007", 6),
            (("MASS_TOL", mass_tol), DiagnosticFailure, "mass conservation failed at step 9,", 8)]:
        with monkeypatch.context() as patch, pytest.raises(error, match=match) as info:
            patch.setattr(coupler, *fault)
            run(prob, init)
        state, accepted = info.value.state, kept[step - 1]
        assert state.step == accepted.step == step
        for name in ("u", "p"):
            assert getattr(state, name).tobytes() == getattr(accepted, name).tobytes()
        for key, value in vars(state.accum).items():
            assert np.asarray(value).tobytes() == \
                np.asarray(getattr(accepted.accum, key)).tobytes()
        for f in SERIES:
            assert state.series[f.key].tobytes() == accepted.series[f.key].tobytes(), f.key
        assert state.warnings == accepted.warnings


def test_a_refusal_before_the_first_step_carries_no_state(monkeypatch):
    prob, init = small_problem()
    bad = InitialData(p0=init.p0[:, :128].copy(), u0=init.u0.copy())
    with pytest.raises(ConfigError) as info:
        run(prob, bad)
    assert info.value.state is None
    monkeypatch.setattr(coupler, "SERIES_MAX_BYTES", 0)
    with pytest.raises(ValidationError) as info:
        run(prob, init)
    assert info.value.state is None


def test_non_contraction_raises():
    strong = DimensionlessParams(rho=1.0, alpha=1.0, g0=1.0, mu=1.0)
    space = SpaceTimeGrid(n_y=8, dt=1e-3, t_final=0.01)
    prob = CoupledProblem(dp=strong, sigma_grid=SGRID, space_grid=space,
                          protocol=protocols.ramp(1.0, 0.1), picard_max=1)
    init = InitialData.from_preset(SGRID, space, "gaussian",
                                   {"mean": 0.0, "width": 1.0})
    with pytest.raises(NonContractionError) as info:
        run(prob, init)
    # one iterate has a change but no ratio, and the message names the change
    (change,) = info.value.changes
    assert f"(last change {change:.3g}); reduce dt" in str(info.value)
    assert "nan" not in str(info.value)


def test_fully_relaxing_divergence_is_detected():
    stiff = DimensionlessParams(rho=1.0, alpha=1.0, g0=1000.0, mu=1.0)
    space = SpaceTimeGrid(n_y=8, dt=0.01, t_final=0.1)
    prob = CoupledProblem(dp=stiff,
                          sigma_grid=SigmaGrid(sigma_max=4.0, n_sigma=256, threshold=0.0),
                          space_grid=space, protocol=protocols.ramp(1.0, 0.1))
    with pytest.raises(NonContractionError, match="diverging") as info:
        run_maxwell(prob, tau0=np.zeros(8), u0=np.zeros(8))
    changes = info.value.changes
    assert changes[-1] > changes[-2] > 0
    assert f"(ratio {changes[-1] / changes[-2]:.3g})" in str(info.value)


def test_shape_validation():
    prob, init = small_problem()
    bad = InitialData(p0=init.p0[:, :128].copy(), u0=init.u0.copy())
    with pytest.raises(ConfigError):
        run(prob, bad)
    with pytest.raises(ConfigError):
        run_maxwell(prob, tau0=np.zeros(3), u0=np.zeros(prob.space_grid.n_y))


# configs whose initial rows fix eta in different ways, two steps each
ETA_CONFIGS = {
    "standard": [],
    "uniform": ["initial.p0=uniform", "initial.lo=-0.5", "initial.hi=0.5",
                "model.allow_degenerate=true"],  # eta = 0
    "mixture": ["initial.p0=mixture", "initial.mean1=-1.0", "initial.width1=0.5",
                "initial.mean2=1.5", "initial.width2=0.8", "initial.weight1=0.3"],
    "fully_relaxing": ["model.fully_relaxing=true", "grid.sigma_max=8.0"],  # eta = 1
    "dimensional": ["model.mode=dimensional", "model.rho=16.0", "model.alpha=16.0",
                    "model.g0=4.0", "model.mu=8.0", "model.t0=2.0",
                    "model.sigma_c=4.0", "model.length=1.0", "grid.sigma_max=16.0",
                    "initial.width=4.0", "run.dt=0.002", "run.t_final=0.004",
                    "protocol.v_max=0.5", "protocol.t_ramp=1.0"],
    "shifted_7x64": ["grid.n_y=7", "grid.n_sigma=64", "initial.mean=0.25",
                     "initial.width=0.8"],
}


@pytest.mark.parametrize("case", ETA_CONFIGS)
@pytest.mark.parametrize("path", ["run", "one_row", "diagnosed"])
def test_a_result_reads_the_eta_that_validation_reports(case, path):
    # eta is a property of the initial rows: a run, hl-run's one-row run and
    # a diagnosed checkpoint read validate_initial's eta bit for bit
    cfg = load_config(overrides=["run.t_final=0.002", *ETA_CONFIGS[case]])
    prob, init, report = cfg.build()
    report.raise_if_failed()
    if path == "one_row":
        sgrid = prob.space_grid
        res = coupler.run_prescribed(
            replace(prob, space_grid=SpaceTimeGrid(1, sgrid.dt, sgrid.t_final)), init.p0[:1])
    else:
        payloads = []
        res = run(prob, init, checkpoint_every=1, checkpoint_sink=payloads.append)
        if path == "diagnosed":
            res = result_from_checkpoint(prob, init, payloads[0])
    assert res.step == (1 if path == "diagnosed" else 2)
    assert np.float64(res.eta).tobytes() == np.float64(report.eta).tobytes()
    if case in ("uniform", "fully_relaxing"):
        assert res.eta == {"uniform": 0.0, "fully_relaxing": 1.0}[case]


def test_a_closed_form_result_reads_alpha_as_eta():
    prob, _ = small_problem(t_final=0.005)
    prob = replace(prob, dp=replace(DP, alpha=0.75))
    n_y = prob.space_grid.n_y
    res = run_maxwell(prob, tau0=np.zeros(n_y), u0=np.zeros(n_y))
    assert res.p0.shape == (0, SGRID.n_sigma)
    assert res.eta == 0.75 and math.isnan(res.p0_max)


def test_maxwell_variant_recursion_and_momentum():
    prob, _ = small_problem(t_final=0.05)
    n_y = prob.space_grid.n_y
    res = run_maxwell(prob, tau0=np.zeros(n_y), u0=np.zeros(n_y))
    assert res.kind == "maxwell"
    decay = math.exp(-prob.space_grid.dt)
    gain = -math.expm1(-prob.space_grid.dt)
    for k in [0, 20, 49]:
        assert np.allclose(res.series["tau"][k + 1],
                           decay * res.series["tau"][k] + gain * res.series["b"][k],
                           rtol=1e-13, atol=1e-16)
    sg = prob.space_grid
    for k in [10, 40]:
        u0, u1 = res.series["u"][k], res.series["u"][k + 1]
        lap = 2.0 * u1
        lap[:-1] -= u1[1:]
        lap[1:] -= u1[:-1]
        lap /= sg.dy ** 2
        t1 = sg.time(k + 1)
        residual = ((DP.rho / sg.dt) * (u1 - u0) + DP.mu * lap
                    - dtau_dy(res.series["tau"][k + 1], sg)
                    + DP.rho * prob.protocol.derivative(t1) * sg.y)
        assert np.max(np.abs(residual)) < 1e-10
    # rest stays at rest
    quiet = run_maxwell(CoupledProblem(dp=DP, sigma_grid=SGRID,
                                       space_grid=prob.space_grid,
                                       protocol=protocols.ramp(0.0, 1.0)),
                        tau0=np.zeros(n_y), u0=np.zeros(n_y))
    assert not quiet.series["tau"].any() and not quiet.series["u"].any()


def test_refinement_helpers_nest_exactly():
    sg = SpaceTimeGrid(n_y=16, dt=1e-3, t_final=0.02)
    fine = refined_space_grid(sg, 4)
    assert fine.n_y == 67 and fine.dt == pytest.approx(2.5e-4)
    assert np.allclose(restrict_nodes(fine.y, 4), sg.y, atol=1e-15)
    assert np.allclose(restrict_times(fine.times, 4), sg.times, atol=1e-15)
    mat = np.arange(fine.n_y * 3.0).reshape(3, fine.n_y)
    assert restrict_nodes(mat, 4).shape == (3, 16)


def test_reference_run_tracks_the_coarse_maxwell_path():
    prob, _ = small_problem(t_final=0.1)
    n_y = prob.space_grid.n_y
    coarse = run_maxwell(prob, tau0=np.zeros(n_y), u0=np.zeros(n_y))
    ref = maxwell_reference_run(prob, tau0_fn=lambda y: 0.0,
                                u0_fn=lambda y: 0.0, refine=4)
    assert ref.problem.space_grid.n_y == 67
    tau_ref = restrict_nodes(restrict_times(ref.series["tau"], 4), 4)
    denom = np.sqrt(np.mean(tau_ref ** 2))
    diff = np.sqrt(np.mean((coarse.series["tau"] - tau_ref) ** 2))
    assert diff / denom < 0.02


def test_recorded_d_is_d_of_the_recorded_state():
    # D is computed once per step and carried to the series, the snapshot
    # and both ends of the acc_d trapezoid
    prob, init = small_problem(n_y=8, t_final=0.01)
    sink, kept = keeping_sink()
    res = run(prob, init, snap_every=1, snapshot_sink=sink)
    alpha, dt = prob.dp.alpha, prob.space_grid.dt
    assert len(kept) == prob.space_grid.n_steps + 1
    d_prev = None
    for k, (snap, snap_d) in enumerate(kept):
        d = compute_d(snap.p, SGRID, alpha)
        assert snap_d.tobytes() == d.tobytes()
        assert snap.series["tau"][snap.step].tobytes() == compute_tau(snap.p, SGRID).tobytes()
        assert res.series["min_d"][k] == d.min()
        # the graded deficits are those of the state and D the sink saw
        assert res.deficits[k].tolist() == list(barrier_deficits(prob, res.p0, snap, snap_d))
        if d_prev is not None:
            acc = kept[k - 1][0].accum.acc_d + 0.5 * dt * (d_prev + d)
            assert snap.accum.acc_d.tobytes() == acc.tobytes()
        d_prev = d


@pytest.mark.parametrize("v_max", [1.0, 60.0])  # 60: sub-cycled steps
def test_carrying_d_and_tau_does_not_change_a_bit(monkeypatch, v_max):
    # run hands every step D of its start state and reads the accepted
    # iterate's moments; a step that recomputes both gives the same bits
    prob, init = small_problem(n_y=8, t_final=0.01,
                               protocol=protocols.ramp(v_max, 0.002))
    sink, carried_kept = keeping_sink()
    carried = run(prob, init, snap_every=5, snapshot_sink=sink)
    step = coupler.coupled_step

    def recomputing(u, p, t_next, prob, d):
        u, p, stats, rep, b, _ = step(u, p, t_next, prob,
                                      np.asarray(compute_d(p, SGRID, DP.alpha)))
        return u, p, stats, rep, b, SGRID.moments(p)

    monkeypatch.setattr(coupler, "coupled_step", recomputing)
    sink, recomputed_kept = keeping_sink()
    recomputed = run(prob, init, snap_every=5, snapshot_sink=sink)
    if v_max > 1.0:
        assert carried.series["b"].max() * prob.space_grid.dt > SGRID.d_sigma
    for f in SERIES:
        assert carried.series[f.key].tobytes() == \
            recomputed.series[f.key].tobytes(), f.key
    assert carried.p.tobytes() == recomputed.p.tobytes()
    assert carried.u.tobytes() == recomputed.u.tobytes()
    for name in ("xi", "acc_d", "grad_sq"):
        assert getattr(carried.accum, name).tobytes() == \
            getattr(recomputed.accum, name).tobytes()
    for (a, a_d), (b, b_d) in zip(carried_kept, recomputed_kept, strict=True):
        assert a.series["tau"][a.step].tobytes() == b.series["tau"][b.step].tobytes() \
            and a_d.tobytes() == b_d.tobytes()
    assert carried.deficits.tobytes() == recomputed.deficits.tobytes()


@pytest.mark.parametrize("protocol", [protocols.sinusoid(20.0, 0.01),  # b of both signs
                                      protocols.ramp(60.0, 0.002)])  # sub-cycled
def test_run_rows_hold_no_negative_zero(protocol):
    # the invariant behind hl_step's skipped terms and clip (meso docstring)
    prob, init = small_problem(n_y=8, t_final=0.02, protocol=protocol)
    signed_zeros = []

    def sink(state, d):
        signed_zeros.append(int(np.count_nonzero((state.p == 0.0) & np.signbit(state.p))))

    res = run(prob, init, snap_every=1, snapshot_sink=sink)
    b = res.series["b"]
    both_signs = (b > 0).any() and (b < 0).any()
    assert both_signs or b.max() * prob.space_grid.dt > SGRID.d_sigma
    assert signed_zeros == [0] * (prob.space_grid.n_steps + 1)


NO_SCIPY_COMMANDS = """\
import contextlib
import io
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
from hlcouette.cli import main
out = sys.argv[1]
sets = [a for s in ("grid.n_y=4", "grid.n_sigma=64", "run.t_final=0.005", "run.checkpoint_every=5")
        for a in ("--set", s)]
relaxing = ["--set", "model.fully_relaxing=true", *sets]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["validate", *sets]),
             main(["run", "--out", out + "/run", *sets]),
             main(["diagnose", "--checkpoint", out + "/run/checkpoint_000005.npz", *sets]),
             main(["hl-run", "--out", out + "/hl", *sets]),
             main(["oracle", "--t", "0.005", *relaxing]),
             main(["run", "--out", out + "/maxwell", *relaxing])]
print(codes, sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_no_command_loads_scipy(tmp_path):
    # the solves call numpy's own LAPACK (tridiag) and the Gaussian cell
    # averages initial's own ndtr; a fresh interpreter in which every import
    # of scipy fails, because this one has imported scipy for the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(hlcouette.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_COMMANDS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] []\n"


def test_run_does_not_depend_on_the_factor_cache():
    prob, init = small_problem(n_y=8, t_final=0.01)
    _diffusion_factors.cache_clear()
    cold = run(prob, init)
    cold_hits = _diffusion_factors.cache_info().hits
    # warm the cache with the first step's matrix, so that solve hits
    dt = prob.space_grid.dt
    solve_diffusion_batch(compute_d(init.p0, SGRID, DP.alpha) * (dt / SGRID.d_sigma ** 2),
                          init.p0.copy())
    before = _diffusion_factors.cache_info().hits
    warm = run(prob, init)
    assert _diffusion_factors.cache_info().hits - before == cold_hits + 1
    for f in SERIES:
        assert cold.series[f.key].tobytes() == warm.series[f.key].tobytes(), f.key
    assert cold.warnings == warm.warnings
    assert cold.p.tobytes() == warm.p.tobytes()
    assert cold.u.tobytes() == warm.u.tobytes()


def _final_fields(n_sigma: int, dt: float, n_y: int = 8,
                  overrides: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """tau, u and D at t = 0.5 of the standard physics."""
    cfg = load_config(overrides=[f"grid.n_y={n_y}", f"grid.n_sigma={n_sigma}",
                                 f"run.dt={dt!r}", "run.t_final=0.5", *overrides])
    prob, init, report = cfg.build()
    report.raise_if_failed()
    res = run(prob, init)
    return {"tau": res.series["tau"][-1], "u": res.series["u"][-1],
            "d": compute_d(res.p, prob.sigma_grid, prob.dp.alpha)}


@pytest.mark.parametrize("ladder", [
    [(64, 4e-3), (128, 4e-3), (256, 4e-3)],       # halve d_sigma
    [(128, 1e-2), (128, 5e-3), (128, 2.5e-3)],    # halve dt
], ids=["n_sigma", "dt"])
def test_kinetic_path_self_converges_at_first_order(ladder):
    coarse, mid, fine = (_final_fields(*level) for level in ladder)
    for name in coarse:
        e_coarse = np.abs(coarse[name] - mid[name]).max()
        e_fine = np.abs(mid[name] - fine[name]).max()
        # first order halves the gap per halving: 2; measured 1.74-2.30
        assert 1.6 < e_coarse / e_fine < 2.6, (name, e_coarse, e_fine)


def test_gap_grid_self_converges_at_second_order():
    # nested gap grids: each n_y = 2 (n_y + 1) - 1 keeps the coarser nodes,
    # so every level is compared on the nodes of n_y = 7
    levels = [_final_fields(128, 4e-3, n_y) for n_y in (7, 15, 31, 63)]
    for name in ("tau", "u"):
        on_coarse = [restrict_nodes(level[name], 2 ** k)
                     for k, level in enumerate(levels)]
        gaps = [np.abs(a - b).max() for a, b in zip(on_coarse, on_coarse[1:])]
        # second order divides the gap by 4 per halving of dy; measured
        # 3.92, 3.98 (tau) and 3.58, 3.77 (u)
        for e_coarse, e_fine in zip(gaps, gaps[1:]):
            assert 3.4 < e_coarse / e_fine < 4.6, (name, gaps)


def test_the_solution_depends_linearly_on_small_changes_of_the_data():
    # a well-posed problem moves its solution in proportion to a small change
    # of the data, so |change| / eps stays put as eps halves; measured at
    # eps = 4e-2 ... 5e-3: 0.66017-0.66045 (tau, initial.mean), 0.35727-0.35742
    # (tau, protocol.v_max) and 0.092429-0.092419 (u, protocol.v_max), a
    # relative spread of at most 4.2e-4, the O(eps) remainder.  u barely
    # feels a mean shift (quotient 8e-4), so it is graded under v_max only.
    eps = (4e-2, 2e-2, 1e-2, 5e-3)
    base = _final_fields(128, 4e-3)
    for key, at, names in (("initial.mean", 0.0, ("tau",)),
                           ("protocol.v_max", 1.0, ("tau", "u"))):
        moved = [_final_fields(128, 4e-3, overrides=(f"{key}={at + e!r}",)) for e in eps]
        for name in names:
            q = [np.abs(m[name] - base[name]).max() / e for m, e in zip(moved, eps)]
            assert min(q) > 0.05 and max(q) / min(q) < 1 + 2e-3, (key, name, q)


# SHA-256 digests (first 16 hex digits) of a run's SERIES arrays and final
# u and p, recorded from the plain full-matrix factorization on PINNED_ON.
# A change that keeps every bit of the kinetic path keeps them; another
# platform's libm or LAPACK may round differently and need digests of its
# own, recorded from a commit known to be right on that platform.
PINNED_ON = ("x86-64, numpy 2.4, scipy 1.17 with OpenBLAS 0.3.30; "
             "held on numpy's bundled OpenBLAS 0.3.31")
PINNED_DIGESTS = {
    "ramp": {
        "tau": "3b6da1f7d3ce9295", "u": "35872a67e62c57cd",
        "b": "0457119f422827f9", "trunc": "c7eb95dd0765c079",
        "inner": "76583439ca35a432", "mass_err": "56526caf89bb1e57",
        "min_d": "82b4dd460e69583e", "max_p": "be2a4f388cb5e247",
        "iters": "10cc127785670308", "ratios": "cd45ea92744f3f98",
        "u_final": "f8f7c1e534f1762a", "p_final": "9bc858df07cbaa48",
    },
    "dimensional": {
        "tau": "4555e8a090da7eac", "u": "7269f110d3b848b0",
        "b": "52488a998235be93", "trunc": "aa4cab83094f480a",
        "inner": "e084d928bf35a9ea", "mass_err": "b40fd49c65b95432",
        "min_d": "6799122988db9dad", "max_p": "df1111084fe9d228",
        "iters": "9fb1c38ed6c3b166", "ratios": "8bed5b1d63eaea02",
        "u_final": "371cfaa699922faa", "p_final": "67b37e8b713ac43f",
    },
    "sinusoid": {
        "tau": "7e058e6235eb09b3", "u": "e7ab186b225b1d75",
        "b": "0b9508fc089faa90", "trunc": "fd26290cb9e7e68d",
        "inner": "26a6d7578c785a40", "mass_err": "91bfcbc1ae9b5f83",
        "min_d": "627a7d8212d17079", "max_p": "dbb95ba1496e5948",
        "iters": "9e98c99a49489387", "ratios": "c814772ff988b2df",
        "u_final": "06cd3c1bf9564761", "p_final": "76c51f94bcf58c74",
    },
}


# README's nondim constants and scales (t0 = 2, sigma_c = 4, length = 3)
# with a forcing table, so every input passes through the dimensional
# mapping; the velocity scale t0/length = 2/3 rounds each table value
DIMENSIONAL_PIN = [
    "model.mode=dimensional", "model.rho=2", "model.mu=16", "model.g0=2",
    "model.alpha=8", "model.t0=2", "model.sigma_c=4", "model.length=3",
    "grid.n_y=8", "grid.n_sigma=64", "grid.sigma_max=16.0",
    "initial.mean=0.4", "initial.width=4.0", "initial.u0=sine",
    "initial.u0_amplitude=0.3", "run.dt=0.002", "run.t_final=0.04",
    "protocol.kind=table", "protocol.times=0,0.01,0.02,0.06",
    "protocol.values=0,3.0,-1.0,0.5"]


def _pinned_run(case: str):
    if case in ("ramp", "dimensional"):
        # ramp: the default ramp, 50 steps on rows longer than the 32 pivots
        # the stress solve factors first
        overrides = (["grid.n_y=8", "grid.n_sigma=256", "run.t_final=0.05"]
                     if case == "ramp" else DIMENSIONAL_PIN)
        prob, init, report = load_config(overrides=overrides).build()
        report.raise_if_failed()
        return prob, run(prob, init)
    # loading of both signs, sub-cycled where it is large
    prob, init = small_problem(n_y=8, t_final=0.02,
                               protocol=protocols.sinusoid(60.0, 0.01))
    return prob, run(prob, init)


def _digests(res) -> dict[str, str]:
    arrays = {f.key: res.series[f.key] for f in SERIES}
    arrays.update(u_final=res.u, p_final=res.p)
    return {k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()[:16]
            for k, v in arrays.items()}


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_kinetic_runs_keep_their_pinned_bits(case):
    prob, res = _pinned_run(case)
    if case == "ramp":
        assert prob.sigma_grid.n_sigma == 256 and res.step == 50
    elif case == "dimensional":
        assert (prob.dp.t0, prob.dp.sigma_c, prob.dp.length) == (2.0, 4.0, 3.0)
        assert prob.sigma_grid.sigma_max == 4.0 and res.step == 20
    else:
        b = res.series["b"]
        assert (b > 0).any() and (b < 0).any()
        assert np.abs(b).max() * prob.space_grid.dt > prob.sigma_grid.d_sigma
    changed = {k: v for k, v in _digests(res).items()
               if v != PINNED_DIGESTS[case][k]}
    assert not changed, (
        f"{case}: the bits of {sorted(changed)} differ from the digests "
        f"recorded on {PINNED_ON}. On that toolchain this is a bit change "
        f"of the kinetic path; on another (numpy {np.__version__}) the "
        "digests may need re-pinning from a known-good commit")
