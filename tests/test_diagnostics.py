"""Diagnostics: every check passes on a healthy run and each one catches
its own doctored violation."""

import copy
import math

import numpy as np
import pytest

import hlcouette.diagnostics as diag
from hlcouette.coupler import CoupledProblem, RunState, run, run_maxwell
from hlcouette.diagnostics import (GENERAL_CHECKS, _soft, check_f2, evaluate,
                                   gradient_energy_bound,
                                   measure_f2_ratio, moment_residuals,
                                   result_from_checkpoint, sub_solution,
                                   verify_resume)
from hlcouette.errors import DiagnosticFailure, ValidationError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import InitialData, compute_eta, gaussian_cell_averages
from hlcouette.maxwell import offset_kernel
from hlcouette.params import DimensionlessParams
from hlcouette.protocols import ShearProtocol

DP = DimensionlessParams(rho=1.0, alpha=1.0, g0=1.0, mu=1.0)
SGRID = SigmaGrid(sigma_max=4.0, n_sigma=256)
SPACE = SpaceTimeGrid(n_y=16, dt=1e-3, t_final=0.1)


def make_run(p0_kind="gaussian", p0_args=None, snap_every=25, **knobs):
    prob = CoupledProblem(dp=DP, sigma_grid=SGRID, space_grid=SPACE,
                          protocol=ShearProtocol.ramp(1.0, 0.5), **knobs)
    init = InitialData.from_preset(
        SGRID, SPACE, p0_kind,
        p0_args if p0_args is not None else {"mean": 0.0, "width": 1.0})
    eta, _ = compute_eta(init.p0, SGRID, DP.alpha)
    payloads = []
    res = run(prob, init, eta, snap_every=snap_every, checkpoint_every=50,
              checkpoint_sink=payloads.append)
    return prob, init, eta, res, payloads


@pytest.fixture(scope="module")
def healthy():
    return make_run()


@pytest.fixture()
def fresh(healthy):
    return copy.deepcopy(healthy[3])


def test_healthy_run_passes_every_check(healthy):
    res = healthy[3]
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
    (lambda r: [s.p.__imul__(0.9) for s in r.snapshots], "comparison", "fail"),
    (lambda r: [s.d.__imul__(0.0) for s in r.snapshots],
     "induced_d_floor", "fail"),
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
    _, _, _, res, _ = make_run(p0_kind="uniform",
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
    res = run(prob, init, eta=0.3)
    assert np.max(np.abs(moment_residuals(res))) < 1e-11


def test_comparison_skips_without_density_snapshots():
    prob, init, eta, _, _ = make_run()
    res = run(prob, init, eta)          # no snapshots recorded
    report = evaluate(res, checks=("comparison", "induced_d_floor"))
    assert all(r.status == "pass" for r in report.results)
    assert "nothing to compare" in report.results[0].message


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
    prob, init, eta, res, payloads = healthy
    view = result_from_checkpoint(prob, init, eta, payloads[0])
    assert view.problem.space_grid.t_final == pytest.approx(0.05)
    assert view.series["tau"].shape == (51, SPACE.n_y)
    report = evaluate(view, checks=GENERAL_CHECKS)
    assert report.ok
    with pytest.raises(ValidationError):
        result_from_checkpoint(prob, init, eta,
                               RunState(step=0, u=init.u0, p=init.p0,
                                        accum=res.accum, series={}, warnings=[]))


def test_verify_resume_accepts_and_rejects(healthy):
    prob, init, eta, res, payloads = healthy
    good = verify_resume(payloads[0], SGRID, SPACE.dt, init.p0)
    assert good.ok

    bad = copy.deepcopy(payloads[0])
    bad.p *= 1.01
    report = verify_resume(bad, SGRID, SPACE.dt, init.p0)
    assert {r.name for r in report.failures} >= {"resume_mass"}

    neg = copy.deepcopy(payloads[0])
    neg.p[0, 0] = -1e-6
    report = verify_resume(neg, SGRID, SPACE.dt, init.p0)
    assert any(r.name == "resume_positivity" for r in report.failures)

    hollow = copy.deepcopy(payloads[0])
    hollow.p *= 0.5
    report = verify_resume(hollow, SGRID, SPACE.dt, init.p0)
    assert any(r.name == "resume_comparison" for r in report.failures)


def test_the_barrier_reads_the_runs_own_quadrature(healthy):
    # at t = 0 the barrier is p0, and its D is read by the dot the run read
    # the recorded D with, so neither check sees a deficit, not even a last bit
    res = healthy[3]
    assert res.snapshots[0].step == 0
    comparison, induced = diag._barrier_deficits(res)
    assert comparison[0] == (0.0, 0.0)
    assert induced[0] == (0.0, 0.0)


def test_a_diagnosed_checkpoint_holds_the_runs_own_snapshot(healthy):
    # pins the D that diagnose recomputes against the D the loop carried
    prob, init, eta, res, payloads = healthy
    assert payloads[0].step == 50
    diagnosed = result_from_checkpoint(prob, init, eta, payloads[0]).snapshots[0]
    (kept,) = [snap for snap in res.snapshots if snap.step == 50]
    assert diagnosed.step == 50
    for name in ("u", "p", "d"):
        assert getattr(diagnosed, name).tobytes() == getattr(kept, name).tobytes(), name
    for name in ("xi", "acc_d"):
        assert getattr(diagnosed.accum, name).tobytes() == \
            getattr(kept.accum, name).tobytes(), name
    assert diagnosed.series["tau"][50].tobytes() == kept.series["tau"][50].tobytes()


def test_evaluate_builds_each_barrier_once(healthy, monkeypatch):
    res = healthy[3]
    expected = [*evaluate(res, checks=("comparison",)).results,
                *evaluate(res, checks=("induced_d_floor",)).results]
    built = []

    def counting(*args):
        built.append(args[2])
        return sub_solution(*args)

    monkeypatch.setattr(diag, "sub_solution", counting)
    report = evaluate(res)
    assert built == [res.times[s.step] for s in res.snapshots]
    assert report.results[4:6] == expected
