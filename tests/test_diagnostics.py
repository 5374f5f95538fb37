"""Diagnostics: every check passes on a healthy run and each one catches
its own doctored violation."""

import copy
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlcouette.diagnostics as diag
from hlcouette import coupler
from hlcouette.coupler import CoupledProblem, RunState, barrier_deficits, run, run_maxwell
from hlcouette.diagnostics import (GENERAL_CHECKS, _soft, check_f2, evaluate,
                                   gradient_energy_bound,
                                   measure_f2_ratio, moment_residuals,
                                   result_from_checkpoint, verify_resume)
from hlcouette.errors import DiagnosticFailure, ValidationError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import InitialData, gaussian_cell_averages
from hlcouette.maxwell import offset_kernel, sub_solution
from hlcouette.meso import compute_d
from hlcouette.params import DimensionlessParams
from hlcouette.protocols import ShearProtocol

DP = DimensionlessParams(rho=1.0, alpha=1.0, g0=1.0, mu=1.0)
SGRID = SigmaGrid(sigma_max=4.0, n_sigma=256)
SPACE = SpaceTimeGrid(n_y=16, dt=1e-3, t_final=0.1)


def make_run(p0_kind="gaussian", p0_args=None, snap_every=25, snapshot_sink=None, **knobs):
    prob = CoupledProblem(dp=DP, sigma_grid=SGRID, space_grid=SPACE,
                          protocol=ShearProtocol.ramp(1.0, 0.5), **knobs)
    init = InitialData.from_preset(
        SGRID, SPACE, p0_kind,
        p0_args if p0_args is not None else {"mean": 0.0, "width": 1.0})
    payloads = []
    res = run(prob, init, snap_every=snap_every, checkpoint_every=50,
              checkpoint_sink=payloads.append, snapshot_sink=snapshot_sink)
    return prob, init, res, payloads


def regrade(result, rows=1.0, d=1.0):
    """Run result's run again with every snapshot's rows and D scaled before
    the barrier grades them, and put that run's deficits on result."""
    graded = coupler.barrier_deficits

    def doctored(prob, p0, state, state_d):
        return graded(prob, p0, replace(state, p=rows * state.p), d * state_d)

    with mock.patch.object(coupler, "barrier_deficits", doctored):
        result.deficits = make_run()[2].deficits


@pytest.fixture(scope="module")
def healthy():
    return make_run()


@pytest.fixture()
def fresh(healthy):
    return copy.deepcopy(healthy[2])


def test_healthy_run_passes_every_check(healthy):
    res = healthy[2]
    report = evaluate(res)
    assert report.ok
    names = [r.name for r in report.results]
    assert names == ["mass_conservation", "positivity", "sup_norm_growth",
                     "diffusivity_floor", "comparison_barrier",
                     "induced_diffusivity_floor", "stress_moment_identity",
                     "gradient_energy", "stress_domain_truncation",
                     "velocity_map_lipschitz"]
    by_name = {r.name: r for r in report.results}
    # Gaussian tails hold ~1e-5 in the outermost cells, a warning not a failure
    assert by_name["stress_domain_truncation"].status == "warn"
    assert all(by_name[n].status == "pass" for n in names
               if n != "stress_domain_truncation")
    text = report.format()
    assert "PASS mass_conservation" in text and "all checks passed" in text


def test_soft_grading_boundaries():
    assert _soft("x", 1.0, 1.0, "").status == "pass"
    assert _soft("x", 1.5, 1.0, "").status == "warn"
    assert _soft("x", 2.0, 1.0, "").status == "warn"
    assert _soft("x", 2.1, 1.0, "").status == "fail"


def test_raise_if_failed(fresh):
    fresh.series["mass_err"][3] = 1e-6
    report = evaluate(fresh)
    assert not report.ok
    with pytest.raises(DiagnosticFailure):
        report.raise_if_failed()


@pytest.mark.parametrize("doctor,check,expect", [
    (lambda r: r.series["mass_err"].__setitem__(3, 1e-6), "mass", "fail"),
    (lambda r: setattr(r.accum, "min_before_clip", -1e-9), "positivity", "fail"),
    (lambda r: setattr(r.accum, "clipped_total", 1e-6), "positivity", "fail"),
    (lambda r: r.series["max_p"].__setitem__(5, r.p0_max + 1.0), "sup_norm", "fail"),
    (lambda r: r.series["min_d"].__setitem__(2, 0.0), "d_floor", "fail"),
    (lambda r: regrade(r, rows=0.9), "comparison", "fail"),
    (lambda r: regrade(r, d=0.0), "induced_d_floor", "fail"),
    (lambda r: r.series["b"].__iadd__(0.2), "moment", "fail"),
    (lambda r: r.accum.grad_sq.__setitem__(
        0, 3.0 * gradient_energy_bound(r.p0_max, 1.0, r.eta, 0.1)),
     "gradient", "fail"),
])
def test_each_check_catches_its_violation(fresh, doctor, check, expect):
    baseline = evaluate(fresh, checks=(check,))
    assert baseline.results[0].status == "pass"
    doctor(fresh)
    report = evaluate(fresh, checks=(check,))
    assert report.results[0].status == expect


def test_truncation_check_passes_for_compactly_spread_data():
    _, _, res, _ = make_run(p0_kind="uniform",
                            p0_args={"lo": -2.0, "hi": 2.0})
    report = evaluate(res, checks=("truncation",))
    assert report.results[0].status == "pass"
    assert res.accum.truncation_steps == 0


def test_f2_check_catches_an_amplifying_velocity_map(fresh, monkeypatch):
    assert evaluate(fresh, checks=("f2",)).results[0].status == "pass"
    amplify = lambda v, tau, vdot, rho, mu, dt, grid: v + 100.0 * tau
    monkeypatch.setattr(diag, "heat_step", amplify)
    assert evaluate(fresh, checks=("f2",)).results[0].status == "fail"


def test_f2_trivial_for_zero_stress():
    prob = CoupledProblem(dp=DP, sigma_grid=SGRID, space_grid=SPACE,
                          protocol=ShearProtocol.ramp(0.0, 1.0))
    res = run_maxwell(prob, tau0=np.zeros(SPACE.n_y), u0=np.zeros(SPACE.n_y))
    r = check_f2(res)
    assert r.status == "pass" and "trivially" in r.message
    with pytest.raises(ValueError):
        measure_f2_ratio(res.series["tau"], SPACE, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        measure_f2_ratio(res.series["tau"], SPACE, 1.0, 1.0, 0.05 + 0.3 * SPACE.dt)


def test_rest_run_has_vanishing_moment_residuals():
    prob = CoupledProblem(dp=DP, sigma_grid=SGRID, space_grid=SPACE,
                          protocol=ShearProtocol.ramp(0.0, 1.0))
    init = InitialData.from_preset(SGRID, SPACE, "gaussian",
                                   {"mean": 0.0, "width": 1.0})
    res = run(prob, init)
    assert np.max(np.abs(moment_residuals(res))) < 1e-11


def test_comparison_skips_without_density_snapshots():
    prob, init, _, _ = make_run()
    res = run(prob, init)  # no snapshots recorded
    report = evaluate(res, checks=("comparison", "induced_d_floor"))
    assert all(r.status == "pass" for r in report.results)
    assert "nothing to compare" in report.results[0].message


def test_an_ungraded_run_warns_on_both_barrier_checks():
    # the run took snapshots and graded none: the checks have nothing to
    # pass it on
    prob, init, _, _ = make_run()
    res = run(prob, init, snap_every=5, grade=False)
    report = evaluate(res, checks=("comparison", "induced_d_floor"))
    assert [r.status for r in report.results] == ["warn", "warn"]
    assert all("not graded" in r.message for r in report.results)


def test_sub_solution_identity_and_mass():
    p0 = gaussian_cell_averages(SGRID, 0.0, 1.0)
    p0 = (p0 / float(SGRID.mass(p0)))[None, :]
    at0 = sub_solution(p0, SGRID, 0.0, np.zeros(1), np.zeros(1))
    assert np.array_equal(at0, p0)
    t = 0.3
    barrier = sub_solution(p0, SGRID, t, np.array([0.05]), np.array([0.04]))
    # widening leaks ~5e-5 of the 4-sigma tails off-grid, nothing more
    assert float(SGRID.mass(barrier[0])) == pytest.approx(math.exp(-t), abs=1e-4)


def test_sub_solution_matches_gaussian_widening():
    w, nu = 0.8, 0.15
    p0 = gaussian_cell_averages(SGRID, 0.0, w)[None, :]
    barrier = sub_solution(p0, SGRID, 0.0, np.zeros(1), np.array([nu]))
    widened = gaussian_cell_averages(SGRID, 0.0, math.sqrt(w * w + 2 * nu))
    assert np.max(np.abs(barrier[0] - widened)) < 1e-3


@pytest.mark.parametrize("n_sigma", [8, 256])
def test_valid_mode_barrier_matches_the_full_convolution_slice(n_sigma):
    # the barrier convolves with mode="valid"; it must keep the bits of the
    # full convolution's middle slice [n-1, 2n-1) it replaced
    grid = SigmaGrid(sigma_max=4.0, n_sigma=n_sigma)
    n, ds = n_sigma, grid.d_sigma
    rng = np.random.default_rng(n_sigma)
    edge_shifts = [(j - 0.5) * ds for j in (-(n - 1), -2, 0, 1, 3, n // 2)]
    shifts = np.array(list(rng.uniform(-3.0, 3.0, size=6)) + edge_shifts + [0.0])
    variances = [0.0, 0.37, 1e-6]
    for shift in shifts:
        for variance in variances:
            kern = offset_kernel(grid, np.array([shift]), np.array([variance]))[0]
            row = rng.uniform(0.0, 1.0, size=n)
            full = np.convolve(row, kern)[n - 1:2 * n - 1]
            assert np.convolve(row, kern, mode="valid").tobytes() == full.tobytes()
    # the whole barrier, row by row, with point kernels (acc_d = 0) among them
    p0 = rng.uniform(0.0, 1.0, size=(shifts.size, n))
    acc = np.where(np.arange(shifts.size) % 2 == 0, 0.0,
                   rng.uniform(0.0, 0.5, size=shifts.size))
    t = 0.3
    ref = np.empty_like(p0)
    for i in range(shifts.size):
        kern = offset_kernel(grid, shifts[i:i + 1], 2.0 * acc[i:i + 1])[0]
        ref[i] = ds * np.convolve(p0[i], kern)[n - 1:2 * n - 1]
    ref = math.exp(-t) * ref
    assert sub_solution(p0, grid, t, shifts, acc).tobytes() == ref.tobytes()


def test_checkpoint_rebuild_supports_full_battery(healthy):
    prob, init, res, payloads = healthy
    view = result_from_checkpoint(prob, init, payloads[0])
    assert view.problem.space_grid.t_final == pytest.approx(0.05)
    assert view.series["tau"].shape == (51, SPACE.n_y)
    report = evaluate(view, checks=GENERAL_CHECKS)
    assert report.ok
    with pytest.raises(ValidationError):
        result_from_checkpoint(prob, init,
                               RunState(step=0, u=init.u0, p=init.p0,
                                        accum=res.accum, series={}, warnings=[]))


def test_verify_resume_accepts_and_rejects(healthy):
    prob, init, res, payloads = healthy
    good = verify_resume(payloads[0], prob, init.p0)
    assert good.ok

    bad = copy.deepcopy(payloads[0])
    bad.p *= 1.01
    report = verify_resume(bad, prob, init.p0)
    assert {r.name for r in report.failures} >= {"resume_mass"}

    neg = copy.deepcopy(payloads[0])
    neg.p[0, 0] = -1e-6
    report = verify_resume(neg, prob, init.p0)
    assert any(r.name == "resume_positivity" for r in report.failures)

    hollow = copy.deepcopy(payloads[0])
    hollow.p *= 0.5
    report = verify_resume(hollow, prob, init.p0)
    assert any(r.name == "resume_comparison" for r in report.failures)


def test_the_barrier_reads_the_runs_own_quadrature(healthy):
    # at t = 0 the barrier is p0, and its D is read by the dot the run read
    # the recorded D with, so neither check sees a deficit, not even a last bit
    res = healthy[2]
    assert res.deficits[0].tolist() == [0.0, 0.0, 0.0]


def test_a_diagnosed_checkpoint_holds_the_runs_own_snapshot(healthy):
    # pins the D that diagnose recomputes against the D the loop carried,
    # and the deficits it grades against those the run graded at that step
    prob, init, res, payloads = healthy
    assert payloads[0].step == 50
    kept = []
    make_run(snapshot_sink=lambda state, d: kept.append((state.checkpoint(), d.copy()))
             if state.step == 50 else None)
    ((snap, snap_d),) = kept
    diagnosed = result_from_checkpoint(prob, init, payloads[0])
    assert diagnosed.step == 50
    for name in ("u", "p"):
        assert getattr(diagnosed, name).tobytes() == getattr(snap, name).tobytes(), name
    assert compute_d(diagnosed.p, SGRID, DP.alpha).tobytes() == snap_d.tobytes()
    for name in ("xi", "acc_d"):
        assert getattr(diagnosed.accum, name).tobytes() == \
            getattr(snap.accum, name).tobytes(), name
    assert diagnosed.series["tau"][50].tobytes() == snap.series["tau"][50].tobytes()
    (row,) = [k for k, t in enumerate(res.deficits[:, 0]) if t == res.times[50]]
    assert diagnosed.deficits.tobytes() == res.deficits[row:row + 1].tobytes()


def test_the_run_builds_each_barrier_once_and_evaluate_none(healthy, monkeypatch):
    res = healthy[2]
    expected = evaluate(res).results[4:6]
    built = []

    def counting(*args):
        built.append(args[2])
        return sub_solution(*args)

    monkeypatch.setattr(coupler, "sub_solution", counting)
    again = make_run()[2]
    assert built == [res.times[k] for k in (0, 25, 50, 75, 100)]
    assert again.deficits.tobytes() == res.deficits.tobytes()
    report = evaluate(again)
    assert len(built) == 5
    assert report.results[4:6] == expected


def parent_barrier_deficits(result, states):
    """The barrier deficits as they were graded after the run, from the kept
    (state, D) of each snapshot: the per-snapshot loop barrier_deficits
    replaced."""
    grid = result.problem.sigma_grid
    alpha = result.problem.dp.alpha
    comparison, induced = [], []
    for snap, d in states:
        t = result.problem.space_grid.time(snap.step)
        barrier = sub_solution(result.p0, grid, t, snap.accum.xi, snap.accum.acc_d)
        comparison.append((t, float((barrier - snap.p).max())))
        induced.append((t, float((compute_d(barrier, grid, alpha) - d).max())))
    return comparison, induced


@settings(deadline=None, max_examples=25)
@given(n_y=st.integers(1, 4), n_sigma=st.sampled_from([8, 16, 32]),
       steps=st.integers(1, 6), snap_every=st.integers(1, 4),
       v_max=st.floats(-20.0, 20.0), width=st.floats(0.3, 1.5),
       mean=st.floats(-0.5, 0.5), alpha=st.floats(0.25, 4.0))
def test_the_per_state_barrier_keeps_the_bits_of_the_per_snapshot_loop_property(
        n_y, n_sigma, steps, snap_every, v_max, width, mean, alpha):
    grid = SigmaGrid(sigma_max=4.0, n_sigma=n_sigma)
    space = SpaceTimeGrid(n_y=n_y, dt=1e-3, t_final=steps * 1e-3)
    dp = DimensionlessParams(rho=1.0, alpha=alpha, g0=1.0, mu=1.0)
    prob = CoupledProblem(dp=dp, sigma_grid=grid, space_grid=space,
                          protocol=ShearProtocol.ramp(v_max, 0.002))
    init = InitialData.from_preset(grid, space, "gaussian", {"mean": mean, "width": width})
    kept = []
    res = run(prob, init, snap_every=snap_every,
              snapshot_sink=lambda state, d: kept.append((state.checkpoint(), d.copy())))
    comparison, induced = parent_barrier_deficits(res, kept)
    assert res.deficits.tolist() == [[t, c, i] for (t, c), (_, i) in zip(comparison, induced)]
    for (snap, d), graded in zip(kept, res.deficits):
        assert np.array(barrier_deficits(prob, res.p0, snap, d)).tobytes() == graded.tobytes()
