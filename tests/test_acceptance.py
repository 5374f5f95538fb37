"""End-to-end acceptance battery for the coupled solver.

Every test prints one PASS/FAIL line (run with -s to see them on success).
The scenario throughout is the standard one: scaled units, unit material
constants, Gaussian initial density (mean 0, width 1), wall ramp reaching
1 at t = 0.5, n_y = 64, n_sigma = 256, stress window 4, dt = 1e-3, T = 1.
"""

import math
import time

import numpy as np
import pytest

from hlcouette import meso, protocols
from hlcouette.config import standard_config
from hlcouette.coupler import CoupledProblem, run, run_maxwell
from hlcouette.diagnostics import (C_MOMENT, evaluate, measure_f2_ratio,
                                   moment_residuals)
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import InitialData, gaussian_cell_averages
from hlcouette.maxwell import maxwell_p, maxwell_tau
from hlcouette.params import (PhysicalParams, nondimensionalize,
                              redimensionalize, rescale_fields)
from hlcouette.protocols import PiecewiseLinearForcing, SinusoidForcing
from reference_runs import maxwell_reference_run, restrict_nodes, restrict_times
from test_meso import doubled_sink_step

DIMENSIONAL_OVERRIDES = dict(
    model__mode="dimensional", model__rho="16.0", model__alpha="16.0",
    model__g0="4.0", model__mu="8.0", model__t0="2.0",
    model__sigma_c="4.0", model__length="1.0",
    grid__sigma_max="16.0", initial__width="4.0",
    run__dt="0.002", run__t_final="2.0",
    protocol__v_max="0.5", protocol__t_ramp="1.0")


def report(num, name, ok, detail):
    print(f"[{num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}",
          flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def standard():
    cfg = standard_config()
    prob, init, checked = cfg.build()
    eta = checked.eta
    payloads = []
    t0 = time.perf_counter()
    res = run(prob, init, snap_every=100, checkpoint_every=500,
              checkpoint_sink=payloads.append)
    elapsed = time.perf_counter() - t0
    return dict(prob=prob, init=init, eta=eta, res=res,
                payloads=payloads, elapsed=elapsed)


@pytest.fixture(scope="module")
def relax_pairs():
    """Fully relaxing trio at two resolutions: pairwise stress distances."""
    def trio(n_sigma, dt):
        sgrid = SigmaGrid(8.0, n_sigma, threshold=0.0)
        space = SpaceTimeGrid(64, dt, 1.0)
        prob = CoupledProblem(dp=standard_config().dimensionless_params(),
                              sigma_grid=sgrid, space_grid=space,
                              protocol=protocols.ramp(1.0, 0.5))
        init = InitialData.from_preset(sgrid, space, "gaussian",
                                       {"mean": 0.0, "width": 1.0})
        gen = run(prob, init)
        mx = run_maxwell(prob, tau0=np.zeros(64), u0=np.zeros(64))
        ref = maxwell_reference_run(prob, lambda y: 0.0, lambda y: 0.0,
                                    refine=4)
        tau_ref = restrict_nodes(restrict_times(ref.series["tau"], 4), 4)

        def rel(a, b):
            return float(np.linalg.norm(a - b) / np.linalg.norm(b))

        return (rel(gen.series["tau"], mx.series["tau"]),
                rel(gen.series["tau"], tau_ref),
                rel(mx.series["tau"], tau_ref))

    return trio(256, 1e-3), trio(512, 5e-4)


def test_scenario_runtime(standard):
    elapsed = standard["elapsed"]
    ok = elapsed <= 60.0
    print(f"[--] {'PASS' if ok else 'FAIL'} runtime: standard run took "
          f"{elapsed:.2f} s (target 60 s single-threaded)", flush=True)
    assert ok


def test_criterion_01_mass_conservation(standard):
    worst = float(np.max(standard["res"].series["mass_err"]))
    report(1, "mass conservation", worst <= 1e-10,
           f"max row-mass deviation {worst:.3e} (limit 1e-10)")


def test_criterion_02_positivity(standard):
    acc = standard["res"].accum
    ok = acc.min_before_clip >= -1e-12 and acc.clipped_total <= 1e-10
    report(2, "positivity", ok,
           f"min density before clipping {acc.min_before_clip:.3e} "
           f"(limit -1e-12), clipped mass {acc.clipped_total:.3e} "
           f"(limit 1e-10)")


def test_criterion_03_sup_norm_bound(standard):
    res = standard["res"]
    alpha = standard["prob"].dp.alpha
    allowed = res.p0_max + np.sqrt(alpha / math.pi * res.times) + 1e-6
    worst = float(np.max(res.series["max_p"] - allowed))
    report(3, "density sup bound", worst <= 0.0,
           f"worst excess over p0_max + sqrt(alpha t / pi) + 1e-6 is "
           f"{worst:.3e}")


def test_criterion_04_diffusivity_floor(standard):
    eta = standard["eta"]
    floor = 0.5 * eta * math.exp(-1.0) - 1e-3 * eta
    assert abs(0.5 * eta * math.exp(-1.0) - 0.05836) < 1e-4
    observed = float(np.min(standard["res"].series["min_d"]))
    report(4, "diffusivity floor", observed >= floor,
           f"min D {observed:.4f} vs (eta/2) e^-1 - 1e-3 eta = {floor:.5f}")


def test_criterion_05_fully_relaxing_equivalence(relax_pairs):
    coarse, fine = relax_pairs
    shrinks = [coarse[i] / fine[i] for i in range(3)]
    ok = all(d <= 0.02 for d in coarse + fine) and all(
        s >= 1.8 for s in shrinks)
    report(5, "fully relaxing oracle equivalence", ok,
           "pairwise rel L2 distances coarse "
           + "/".join(f"{d:.2e}" for d in coarse) + ", refined "
           + "/".join(f"{d:.2e}" for d in fine) + ", shrink factors "
           + "/".join(f"{s:.2f}" for s in shrinks) + " (need <=0.02, >=1.8)")


def test_criterion_06_relaxation_closed_forms():
    const = PiecewiseLinearForcing([0.0, 1.0], [1.0, 1.0])
    ts = np.linspace(0.0, 1.0, 201)
    tau_err = max(abs(maxwell_tau(0.0, const, t) + math.expm1(-t))
                  for t in ts)
    grid = SigmaGrid(16.0, 512, threshold=0.0)
    p0 = gaussian_cell_averages(grid, 0.0, 1.0)
    forcings = {
        "zero": PiecewiseLinearForcing([0.0, 2.0], [0.0, 0.0]),
        "const": PiecewiseLinearForcing([0.0, 2.0], [1.0, 1.0]),
        "ramp": PiecewiseLinearForcing([0.0, 0.5], [0.0, 1.0]),
        "sinusoid": SinusoidForcing(1.0, 2.0 * math.pi),
    }
    mass_err = 0.0
    for forcing in forcings.values():
        for t in (0.25, 1.0, 2.0):
            p = maxwell_p(p0[None], forcing, t, grid, alpha=1.0)
            mass_err = max(mass_err, abs(float(np.sum(p)) * grid.d_sigma - 1.0))
    ok = tau_err <= 1e-12 and mass_err <= 1e-8
    report(6, "relaxation closed forms", ok,
           f"unit-loading stress error {tau_err:.2e} (limit 1e-12), worst "
           f"density mass error {mass_err:.2e} over 4 loadings x 3 times "
           f"(limit 1e-8)")


@pytest.fixture(scope="module")
def fault_statuses(standard):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meso, "hl_step", doubled_sink_step)
        res = run(standard["prob"], standard["init"], snap_every=100)
    return {r.name: r.status for r in evaluate(res).results}


def test_criterion_07_comparison_barrier(standard, fault_statuses):
    rep = evaluate(standard["res"])
    healthy = {r.name: r.status for r in rep.results}
    ok = (healthy["comparison_barrier"] == "pass"
          and fault_statuses["comparison_barrier"] == "fail")
    report(7, "comparison barrier", ok,
           f"standard run {healthy['comparison_barrier']}; doubled-sink "
           f"fault injection {fault_statuses['comparison_barrier']} "
           f"(also trips {sorted(n for n, s in fault_statuses.items() if s == 'fail' and n != 'comparison_barrier')})")


def test_criterion_08_moment_identity(standard):
    res = standard["res"]
    grid = standard["prob"].sigma_grid
    dt = standard["prob"].space_grid.dt
    coarse = float(np.max(np.abs(moment_residuals(res))))
    slack = C_MOMENT * (dt + grid.d_sigma)
    cfg = standard_config(run__dt="0.0005", grid__n_sigma="512")
    prob_f, init_f, _ = cfg.build()
    res_f = run(prob_f, init_f)
    refined = float(np.max(np.abs(moment_residuals(res_f))))
    ratio = coarse / refined
    ok = coarse <= slack and ratio >= 1.8
    report(8, "stress moment identity", ok,
           f"max residual {coarse:.3e} vs C (dt + dsigma) = {slack:.3e}; "
           f"refined residual {refined:.3e}, ratio {ratio:.2f} (need >=1.8)")


def test_criterion_09_velocity_map_lipschitz():
    sgrid = SpaceTimeGrid(64, 5e-4, 1.0)
    mode = np.tile(np.sin(np.pi * sgrid.y), (sgrid.n_steps + 1, 1))
    ratios = [measure_f2_ratio(mode, sgrid, 1.0, 1.0, t)
              for t in (1.0 / 16.0, 0.25, 1.0)]
    bounds = [2.0 * math.sqrt(t) * 1.05 for t in (1.0 / 16.0, 0.25, 1.0)]
    sweeps = [ratios[0] / ratios[1], ratios[1] / ratios[2]]
    flat = np.ones((sgrid.n_steps + 1, sgrid.n_y))
    ok = (all(r <= b for r, b in zip(ratios, bounds))
          and all(s <= 0.55 for s in sweeps)
          and measure_f2_ratio(flat, sgrid, 1.0, 1.0, 1.0) == 0.0)
    report(9, "velocity map Lipschitz", ok,
           "ratios " + "/".join(f"{r:.3f}" for r in ratios)
           + " vs bounds " + "/".join(f"{b:.3f}" for b in bounds)
           + ", quarter-horizon ratios "
           + "/".join(f"{s:.3f}" for s in sweeps) + " (need <=0.55)")


def test_criterion_10_picard_contraction(standard):
    res = standard["res"]
    iters = int(res.series["iters"].max())
    ratio = float(np.nanmax(res.series["ratios"]))
    cfg = standard_config(run__dt="0.0005")
    prob_h, init_h, _ = cfg.build()
    res_h = run(prob_h, init_h)
    ratio_h = float(np.nanmax(res_h.series["ratios"]))
    ok = iters <= 10 and ratio < 0.5 and ratio_h < ratio
    report(10, "fixed-point contraction", ok,
           f"max iterations {iters} (limit 10), max ratio {ratio:.2e} "
           f"(limit 0.5), half-dt ratio {ratio_h:.2e} (must decrease)")


def test_criterion_11_determinism_and_restart(standard):
    prob, init = standard["prob"], standard["init"]
    res = standard["res"]
    rerun = run(prob, init, snap_every=100, checkpoint_every=500)
    identical = (res.series["tau"].tobytes() == rerun.series["tau"].tobytes()
                 and res.series["u"].tobytes() == rerun.series["u"].tobytes()
                 and res.p.tobytes() == rerun.p.tobytes())
    resumed = run(prob, init, resume=standard["payloads"][0])
    resume_gap = float(np.max(np.abs(resumed.series["tau"][-1]
                                     - res.series["tau"][-1])))
    ok = identical and resume_gap <= 1e-12
    report(11, "determinism and restart", ok,
           f"rerun byte-identical: {identical}; resume-vs-straight final "
           f"stress gap {resume_gap:.1e} (limit 1e-12)")


def test_criterion_12_rescaling(standard):
    rng = np.random.default_rng(20240817)
    worst_ulp = 0.0
    for _ in range(200):
        vals = 10.0 ** rng.uniform(-3, 3, size=7)
        phys = PhysicalParams(*vals)
        back = redimensionalize(nondimensionalize(phys))
        for name in ("rho", "mu", "g0", "alpha", "t0", "sigma_c", "length"):
            a, b = getattr(phys, name), getattr(back, name)
            gap = abs(a - b) / np.spacing(max(abs(a), abs(b)))
            worst_ulp = max(worst_ulp, gap)

    cfg = standard_config(**DIMENSIONAL_OVERRIDES)
    prob_d, init_d, _ = cfg.build()
    res_d = run(prob_d, init_d)
    t0, length, sigma_c = cfg.scales
    fields = {"u": res_d.series["u"], "tau": res_d.series["tau"],
              "p": res_d.p, "t": res_d.times}
    physical = rescale_fields(fields, t0, length, sigma_c,
                              to_dimensionless=False)
    recovered = rescale_fields(physical, t0, length, sigma_c,
                               to_dimensionless=True)
    res_s = standard["res"]
    reference = {"u": res_s.series["u"], "tau": res_s.series["tau"],
                 "p": res_s.p, "t": res_s.times}
    field_gap = max(float(np.max(np.abs(recovered[k] - reference[k])))
                    for k in fields)
    ok = worst_ulp <= 1.0 and field_gap <= 1e-10
    report(12, "rescaling", ok,
           f"worst round-trip error {worst_ulp:.2f} ulp (limit 1); "
           f"dimensional run rescaled onto the scaled run differs by "
           f"{field_gap:.1e} in all fields (limit 1e-10)")
