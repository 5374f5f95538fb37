"""Stress-space relaxation solver: conservation, CFL, and the linear limit."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hlcouette
from hlcouette import config, coupler, meso
from hlcouette.errors import CFLError, SchemeInstabilityError
from hlcouette.grids import SigmaGrid
from hlcouette.initial import gaussian_cell_averages, uniform_cell_averages
from hlcouette.maxwell import maxwell_p
from hlcouette.meso import (INSTABILITY_FLOOR, StepReport, _scratch, advance_rows,
                            compute_d, compute_gradient_energy, compute_inner_moment,
                            compute_tau, hl_solve, hl_step,
                            linf_bound, required_substeps)
from hlcouette.protocols import PiecewiseLinearForcing
from hlcouette.tridiag import solve_diffusion_batch

GRID = SigmaGrid(sigma_max=4.0, n_sigma=256)


def gaussian_row(grid=GRID, width=1.0):
    row = gaussian_cell_averages(grid, 0.0, width)
    return row / float(grid.mass(row))


def constant_forcing(value):
    return PiecewiseLinearForcing([0.0, 1.0], [value, value])


def test_step_conserves_mass_exactly_with_full_bookkeeping():
    p = gaussian_row()
    q, rep = hl_step(p, 0.3, 1e-3, GRID, alpha=1.0)
    assert float(GRID.mass(q)) == pytest.approx(float(GRID.mass(p)), abs=1e-14)
    assert rep.deposit_mass == pytest.approx(
        rep.sink_mass + rep.boundary_mass + rep.outflow_mass, rel=1e-15)
    assert rep.sink_mass[0] > 0 and rep.boundary_mass[0] > 0
    assert rep.outflow_mass[0] > 0          # b > 0 pushes tail mass out at +4
    assert rep.min_before_clip >= 0.0       # monotone stages keep positivity
    assert rep.clipped_mass[0] == 0.0


@pytest.mark.parametrize("b", [12.0, -12.0])
def test_advection_moment_gain_is_exact_for_band_supported_data(b):
    # Support inside the band: no sink, no diffusion (D = 0), no outflow,
    # so the only moment change is the telescoping advective gain b*dt*mass.
    p = uniform_cell_averages(GRID, -0.5, 0.5)
    dt = 1e-3
    q, rep = hl_step(p, b, dt, GRID, alpha=1.0)
    gain = float(compute_tau(q, GRID)) - float(compute_tau(p, GRID))
    assert gain == pytest.approx(b * dt * float(GRID.mass(p)), rel=1e-12)
    assert rep.sink_mass[0] == 0.0 and rep.boundary_mass[0] == 0.0
    assert rep.outflow_mass[0] == 0.0 and rep.trunc_moment[0] == 0.0
    assert float(compute_d(q, GRID, 1.0)) == 0.0


def test_zero_loading_preserves_evenness_and_centering():
    traj = hl_solve(gaussian_row(), constant_forcing(0.0), GRID, alpha=1.0,
                    dt=1e-3, t_final=0.2)
    assert np.max(np.abs(traj.tau)) <= 1e-13
    assert np.max(np.abs(traj.mass - 1.0)) <= 1e-13
    assert np.allclose(traj.p_final, traj.p_final[::-1], atol=1e-15)
    assert traj.min_before_clip >= 0.0
    assert traj.max_density <= linf_bound(float(traj.p[0].max()), 1.0, 0.2)


def test_cfl_guards():
    p = gaussian_row()
    with pytest.raises(CFLError):
        hl_step(p, 32.0, 1e-3, GRID, alpha=1.0)       # |b| dt / d_sigma > 1
    with pytest.raises(CFLError):
        hl_step(p, 0.0, 1.0, GRID, alpha=1.0)         # explicit sink needs dt < 1
    with pytest.raises(CFLError):
        hl_solve(p, constant_forcing(0.0), GRID, 1.0, dt=3e-3, t_final=0.01)


def test_required_substeps():
    assert required_substeps(0.0, 1e-3, GRID) == 1
    assert required_substeps(2.5, 0.02, GRID) == 2    # CFL ratio 1.6
    assert required_substeps(np.array([0.1, -40.0]), 1e-3, GRID) == 2
    assert required_substeps(0.0, 1.2, GRID) == 3     # sink limit dt/n < 1/2


def test_subcycling_matches_manual_lockstep():
    p = np.vstack([gaussian_row(), gaussian_row(width=0.6)])
    b = np.array([0.4, -0.8])
    q, rep = advance_rows(p, b, 4e-3, GRID, alpha=1.0, n_sub=4)
    manual = p
    for _ in range(4):
        manual, _ = hl_step(manual, b, 1e-3, GRID, alpha=1.0)
    assert np.array_equal(q, manual)
    assert rep.n_sub == 4


def test_instability_guard_trips_on_garbage_input():
    p = gaussian_row().copy()
    p[10] = -0.1
    with pytest.raises(SchemeInstabilityError):
        hl_step(p, 0.0, 1e-3, GRID, alpha=1.0)


def test_doubled_sink_breaks_the_sup_norm_safeguard():
    # The fault hook feeds the re-injection more mass than the true source
    # rate; the a-priori sup bound is then crossed and the solver aborts.
    with pytest.raises(SchemeInstabilityError):
        hl_solve(gaussian_row(), constant_forcing(0.0), GRID, alpha=1.0,
                 dt=1e-3, t_final=1.0, sink_scale=2.0)


def test_solver_shapes_and_recording():
    p0 = gaussian_row()
    traj = hl_solve(p0, constant_forcing(0.5), GRID, 1.0, dt=1e-2, t_final=0.05)
    assert traj.times.shape == (6,) and traj.tau.shape == (6,)
    assert traj.p.shape == (6, 256) and traj.p_final.shape == (256,)
    assert np.array_equal(traj.p[0], p0)
    batch = np.vstack([p0, p0])
    tb = hl_solve(batch, constant_forcing(0.5), GRID, 1.0, dt=1e-2,
                  t_final=0.05, record_p=False)
    assert tb.tau.shape == (6, 2) and tb.p is None
    assert np.array_equal(tb.tau[:, 0], tb.tau[:, 1])
    # batch and single runs agree to rounding (BLAS blocking may differ)
    assert np.allclose(tb.tau[:, 0], traj.tau, rtol=0.0, atol=1e-14)


def test_hl_solve_computes_d_once_per_recorded_state(monkeypatch):
    # the D recorded for each state feeds the step that starts from it
    calls = []
    compute = meso.compute_d

    def counting(*args, **kwargs):
        calls.append(1)
        return compute(*args, **kwargs)

    monkeypatch.setattr(meso, "compute_d", counting)
    n_steps, dt = 5, 1e-2
    assert required_substeps(0.5, dt, GRID) == 1
    hl_solve(gaussian_row(), constant_forcing(0.5), GRID, 1.0, dt=dt,
             t_final=n_steps * dt, record_p=False)
    assert len(calls) == n_steps + 1


def maxwell_limit_error(n_sigma, dt, t_final=0.25, b=0.7, alpha=4.0):
    """Errors of the general stepper against the exactly solvable limit.

    alpha = 4 keeps the sup-norm allowance sqrt(alpha t / pi) above the
    height of the not-yet-diffused center deposit on these coarse grids;
    the short horizon keeps the spread well inside +-sigma_max, where the
    untruncated closed forms apply.
    """
    grid = SigmaGrid(sigma_max=8.0, n_sigma=n_sigma, threshold=0.0)
    p0 = gaussian_cell_averages(grid, 0.0, 0.8)
    p0 = p0 / float(grid.mass(p0))
    forcing = constant_forcing(b)
    traj = hl_solve(p0, forcing, grid, alpha, dt=dt, t_final=t_final,
                    record_p=False)
    exact_tau = b * -np.expm1(-traj.times)
    err_tau = np.max(np.abs(traj.tau - exact_tau))
    exact_p = maxwell_p(p0, forcing, t_final, grid, alpha)
    err_p = float(np.sum(np.abs(traj.p_final - exact_p))) * grid.d_sigma
    assert np.max(np.abs(traj.mass - 1.0)) <= 1e-12
    return err_tau, err_p


def test_general_stepper_converges_to_the_relaxing_limit():
    coarse_tau, coarse_p = maxwell_limit_error(n_sigma=160, dt=1e-2)
    fine_tau, fine_p = maxwell_limit_error(n_sigma=320, dt=5e-3)
    assert coarse_tau < 0.01 and coarse_p < 0.05
    assert coarse_tau / fine_tau >= 1.8
    assert coarse_p / fine_p >= 1.8


# Property tests over random rows, diffusion strengths and loadings.  The
# grids have power-of-two cell widths and dt = 2**-k, so b = nu*d_sigma/dt
# gives hl_step's Courant number nu back exactly and |nu| <= 1 holds
# without rounding; the fully relaxing grid has no interior band.
PROPERTY_GRIDS = (SigmaGrid(2.0, 8), SigmaGrid(2.0, 16), SigmaGrid(4.0, 32),
                  SigmaGrid(2.0, 8, threshold=0.0))
CELL = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False))
COURANT = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                    st.floats(-1.0, 1.0, allow_subnormal=False))
ALPHA = st.one_of(st.just(0.0), st.floats(0.0, 20.0, allow_subnormal=False))
# tiny negative cells, or +0.0: the rows of a run hold no -0.0 (see
# test_hl_step_keeps_nonnegative_rows_free_of_negative_zero), and on a row
# that did hl_step's skipped terms may differ in the sign of a zero cell
NEAR_ZERO = st.one_of(st.floats(-1e-10, -np.finfo(float).tiny,
                                allow_subnormal=False), st.just(0.0))
# hl_step evaluates each advective term only where its sign occurs
LOADING_SIGNS = ("any", "nonneg", "nonpos", "zero")


def signed(nu, sign):
    """Courant numbers with the sign pattern `sign` imposed."""
    if sign == "nonneg":
        return np.abs(nu)
    if sign == "nonpos":
        return -np.abs(nu)
    if sign == "zero":
        return np.zeros_like(nu)
    return nu


@st.composite
def step_inputs(draw, even=False, banded=False, cell=CELL, sign="any"):
    grids = [g for g in PROPERTY_GRIDS if g.threshold == 1.0] if banded \
        else PROPERTY_GRIDS
    grid = draw(st.sampled_from(grids))
    n_rows = draw(st.integers(1, 4))
    n = grid.n_sigma
    width = n // 2 if even else n
    p = np.array(draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                               min_size=n_rows, max_size=n_rows)))
    if even:
        p = np.hstack([p, p[:, ::-1]])
    dt = 2.0 ** -draw(st.integers(1, 12))
    nu = np.zeros(n_rows) if even else signed(np.array(
        draw(st.lists(COURANT, min_size=n_rows, max_size=n_rows))), sign)
    return grid, p, nu * (grid.d_sigma / dt), dt, draw(ALPHA)


@settings(max_examples=80, deadline=None)
@given(step_inputs())
def test_hl_step_mass_balance_and_positivity_property(inputs):
    grid, p, b, dt, alpha = inputs
    q, rep = hl_step(p, b, dt, grid, alpha)
    assert np.array_equal(rep.deposit_mass,
                          rep.sink_mass + rep.boundary_mass + rep.outflow_mass)
    before = grid.mass(p)
    balance = (before - rep.sink_mass - rep.boundary_mass - rep.outflow_mass
               + rep.deposit_mass)
    assert np.all(np.abs(grid.mass(q) - balance) <= 1e-13 * (1.0 + before))
    # every stage is monotone, so nonnegative rows never reach the clip
    assert rep.min_before_clip >= 0.0
    assert np.all(rep.clipped_mass == 0.0)
    assert q.min() >= 0.0


@settings(max_examples=60, deadline=None)
@given(step_inputs(even=True))
def test_hl_step_keeps_even_rows_even_without_loading_property(inputs):
    grid, p, b, dt, alpha = inputs
    q, rep = hl_step(p, b, dt, grid, alpha)
    # the batch solve substitutes in one direction, so evenness holds to
    # rounding, not bit for bit
    assert np.all(np.abs(q - q[:, ::-1]) <= 1e-13 * (1.0 + q.max()))
    assert np.all(rep.outflow_mass == 0.0)


@settings(max_examples=80, deadline=None)
@given(step_inputs(banded=True))
def test_hl_step_moment_gain_property(inputs):
    # advection gains exactly b*dt*mass; the metered trunc_moment leaves
    # through +-sigma_max, and the sink takes the first moment of the
    # exterior cells, recovered from the output as
    # eff_dt/(1 - eff_dt) * moment of the scaled cells (the deposit cells
    # flank 0, inside the band, and carry no first moment).
    grid, p, b, dt, alpha = inputs
    q, rep = hl_step(p, b, dt, grid, alpha)
    ext = grid.exterior
    sink_moment = dt / (1.0 - dt) * (q[:, ext] * grid.centers[ext]).sum(axis=1) \
        * grid.d_sigma
    gain = compute_tau(q, grid) - compute_tau(p, grid)
    expected = b * dt * grid.mass(p) - rep.trunc_moment - sink_moment
    scale = 1.0 + grid.sigma_max * grid.mass(p)
    assert np.all(np.abs(gain - expected) <= 1e-12 * scale)


def unfused_hl_step(p, b, dt, grid, alpha, sink_scale=1.0):
    """Reference: the step before its numpy ops were fused, kept verbatim."""
    squeeze = p.ndim == 1
    p2 = np.atleast_2d(np.asarray(p, dtype=float))
    n_rows, n = p2.shape
    b_arr = np.broadcast_to(np.asarray(b, dtype=float), (n_rows,)).astype(float)
    ds = grid.d_sigma

    nu = b_arr * (dt / ds)
    worst = float(np.abs(nu).max()) if n_rows else 0.0
    if worst > 1.0 + 1e-12:
        raise CFLError(
            f"advection CFL violated: max |b| dt / d_sigma = {worst:.6g} > 1; "
            f"sub-cycle with at least {math.ceil(worst)} sub-steps")
    eff_dt = sink_scale * dt
    if eff_dt >= 1.0:
        raise CFLError(f"explicit sink needs dt < 1, got {eff_dt:.6g}")

    # frozen diffusion coefficient from the start-of-step row
    d_coef = compute_d(p2, grid, alpha)

    # explicit upwind advection, zero inflow, metered outflow
    pos = np.maximum(nu, 0.0)[:, None]
    neg = np.minimum(nu, 0.0)[:, None]
    back = np.empty_like(p2)
    back[:, 0] = p2[:, 0]
    back[:, 1:] = p2[:, 1:] - p2[:, :-1]
    fwd = np.empty_like(p2)
    fwd[:, -1] = -p2[:, -1]
    fwd[:, :-1] = p2[:, 1:] - p2[:, :-1]
    q = p2 - pos * back - neg * fwd
    out_right = pos[:, 0] * p2[:, -1] * ds
    out_left = -neg[:, 0] * p2[:, 0] * ds
    outflow = out_right + out_left
    # stress carried by the outflow; the sigma weights fall out of the same
    # telescoping that makes the interior moment gain exactly b*dt*mass
    w_left, w_right = grid.centers[0] - ds, grid.centers[-1] + ds
    trunc_moment = out_right * w_right + out_left * w_left

    # implicit diffusion; column sums of the Dirichlet matrix meter the
    # absorbed boundary flux exactly: sum(rhs) = sum(q) + lam*(q_0 + q_end)
    lam = d_coef * (dt / (ds * ds))
    q = solve_diffusion_batch(lam, q)
    absorbed = lam * (q[:, 0] + q[:, -1]) * ds
    trunc_moment += lam * ds * (q[:, 0] * w_left + q[:, -1] * w_right)

    # explicit relaxation sink beyond the threshold
    ext = grid.exterior
    sink = eff_dt * q[:, ext].sum(axis=1) * ds
    q[:, ext] *= (1.0 - eff_dt)

    # re-injection at sigma = 0 restores every metered removal
    deposit = sink + absorbed + outflow
    i_left, i_right = grid.deposit_cells
    half = deposit / (2.0 * ds)
    q[:, i_left] += half
    q[:, i_right] += half

    min_before = float(q.min())
    if min_before < INSTABILITY_FLOOR:
        raise SchemeInstabilityError(
            f"density reached {min_before:.3e} before clipping; the scheme is unstable")
    negative = np.minimum(q, 0.0)
    clipped = -negative.sum(axis=1) * ds
    np.maximum(q, 0.0, out=q)

    report = StepReport(sink_mass=sink, boundary_mass=absorbed, outflow_mass=outflow,
                        deposit_mass=deposit, clipped_mass=clipped,
                        trunc_moment=trunc_moment,
                        min_before_clip=min_before, n_sub=1)
    return (q[0] if squeeze else q), report


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LOADING_SIGNS).flatmap(
           lambda sign: step_inputs(cell=st.one_of(CELL, NEAR_ZERO), sign=sign)),
       st.booleans(), st.sampled_from([1.0, 0.0, 0.5]), st.booleans())
def test_fused_hl_step_matches_unfused_reference_bitwise(inputs, squeeze, sink_scale,
                                                         pass_d):
    # tiny negative cells drive the clip branch as well as the clip-free
    # one; a row whose exterior mass is negative has a negative D, which the
    # solve rejects in both versions.  Loadings of every sign pattern reach
    # each combination of skipped advective terms, and the start D is either
    # passed in, as coupler.run does, or computed by the step.
    grid, p, b, dt, alpha = inputs
    if squeeze:
        p, b = p[0], b[0]
    d = compute_d(np.atleast_2d(p), grid, alpha) if pass_d else None
    try:
        ref = unfused_hl_step(p, b, dt, grid, alpha, sink_scale=sink_scale)
    except (SchemeInstabilityError, ValueError) as exc:
        with pytest.raises(type(exc)):
            hl_step(p, b, dt, grid, alpha, sink_scale=sink_scale, d=d)
        return
    p_before = p.tobytes()
    q, rep = hl_step(p, b, dt, grid, alpha, sink_scale=sink_scale, d=d)
    assert p.tobytes() == p_before
    assert q.shape == ref[0].shape and q.tobytes() == ref[0].tobytes()
    for name in ("sink_mass", "boundary_mass", "outflow_mass", "deposit_mass",
                 "trunc_moment"):
        assert getattr(rep, name).tobytes() == getattr(ref[1], name).tobytes()
    # with nothing to clip the reference sums -0.0 where the fused step
    # reports +0.0; they add up to the same totals
    assert np.array_equal(rep.clipped_mass, ref[1].clipped_mass)
    assert rep.min_before_clip == ref[1].min_before_clip


def test_hl_step_results_never_share_its_scratch_arrays():
    # the work arrays are kept per batch shape; a result that were a view of
    # one would change under the next call
    rng = np.random.default_rng(5)
    grid = SigmaGrid(4.0, 32)
    first_p = rng.uniform(0.0, 1.0, (3, 32))
    b = np.array([0.5, -0.5, 0.0]) * grid.d_sigma / 2e-3
    first, _ = hl_step(first_p, b, 1e-3, grid, alpha=1.0)
    for buf in _scratch(3, 32, grid.n_exterior_side):  # the buffers it used
        assert not np.shares_memory(first, buf)
    kept = first.copy()
    hl_step(rng.uniform(0.0, 1.0, (3, 32)), -b, 1e-3, grid, alpha=1.0)  # same shape
    hl_step(rng.uniform(0.0, 1.0, (2, 32)), b[:2], 1e-3, grid, alpha=1.0)
    assert first.tobytes() == kept.tobytes()


def has_negative_zero(a):
    return bool(np.any((a == 0.0) & np.signbit(a)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LOADING_SIGNS).flatmap(lambda sign: step_inputs(sign=sign)),
       st.sampled_from([1.0, 0.0, 0.5]))
def test_hl_step_keeps_nonnegative_rows_free_of_negative_zero(inputs, sink_scale):
    # the invariant behind hl_step's skipped terms and clip (meso docstring)
    grid, p, b, dt, alpha = inputs
    assert not has_negative_zero(p)
    q, rep = hl_step(p, b, dt, grid, alpha, sink_scale=sink_scale)
    assert q.min() >= 0.0 and not has_negative_zero(q)
    assert rep.min_before_clip >= 0.0


def unchecked_grid(sigma_max, n_sigma, threshold):
    """A SigmaGrid past its checks.  The quadratures read only n_sigma, the
    centers and the exterior count, so an odd n_sigma or a threshold beyond
    sigma_max (no exterior cell) exercises them as well as a valid grid."""
    grid = object.__new__(SigmaGrid)
    for name, value in (("sigma_max", sigma_max), ("n_sigma", n_sigma),
                        ("threshold", threshold)):
        object.__setattr__(grid, name, value)
    return grid


@st.composite
def quadrature_inputs(draw):
    grid = unchecked_grid(draw(st.sampled_from([0.75, 1.5, 2.0, 4.0])),
                          draw(st.integers(1, 41)),
                          draw(st.sampled_from([0.0, 1.0, 5.0])))
    n, n_ext = grid.n_sigma, grid.n_exterior_side
    # the exterior the quadratures copy: two contiguous ends of n_ext cells
    assume(int(grid.exterior.sum()) == 2 * n_ext
           and grid.exterior[:n_ext].all() and grid.exterior[n - n_ext:].all())
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                       st.floats(-1e3, 1e3, allow_subnormal=False))
    p = draw(arrays(np.float64, (draw(st.integers(1, 5)), n), elements=values))
    return grid, (p[0] if draw(st.booleans()) else p)


def mask_gather_quadratures(p, grid):
    """The allocating forms the scratch meters replace, kept verbatim."""
    ds, ext = grid.d_sigma, grid.exterior
    inner = ~ext
    if not inner.any():
        banded = np.zeros(p.shape[:-1]) if p.ndim > 1 else 0.0
    else:
        banded = (p[..., inner] * grid.centers[inner]).sum(axis=-1) * ds
    diff = np.diff(p, axis=-1) / ds
    return {"exterior_mass": p[..., ext].sum(axis=-1) * ds,
            "first_moment": (p * grid.centers).sum(axis=-1) * ds,
            "inner_moment": banded,
            "gradient_energy": (diff * diff).sum(axis=-1) * ds}


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(quadrature_inputs(), st.sampled_from([1.0, 0.75]))
def test_scratch_meters_match_the_mask_gathers_bitwise_property(inputs, alpha):
    # odd n_sigma, no exterior cell (n_exterior_side = 0), every cell
    # exterior (threshold 0) and single rows, 1-D or (1, n_sigma)
    grid, p = inputs
    ref = mask_gather_quadratures(p, grid)
    for name, value in ref.items():
        assert same_bits(getattr(grid, name)(p), value), name
    assert same_bits(compute_d(p, grid, alpha), alpha * ref["exterior_mass"])
    assert same_bits(compute_tau(p, grid), ref["first_moment"])
    assert same_bits(compute_inner_moment(p, grid), ref["inner_moment"])
    assert same_bits(compute_gradient_energy(p, grid), ref["gradient_energy"])


def test_a_run_keeps_one_scratch_slot_and_no_module_array():
    modules = [importlib.import_module(f"hlcouette.{info.name}")
               for info in pkgutil.iter_modules(hlcouette.__path__)]

    def module_arrays():
        return {(m.__name__, name) for m in modules for name, value in vars(m).items()
                if isinstance(value, np.ndarray)}

    before = module_arrays()
    prob, init, report = config.standard_config(
        grid__n_y="6", grid__n_sigma="64", run__t_final="0.01").build()
    _scratch.cache_clear()
    result = coupler.run(prob, init, report.eta, snap_every=5)
    assert result.step == 10
    info = _scratch.cache_info()
    assert info.currsize == 1
    _scratch(6, 64, prob.sigma_grid.n_exterior_side)  # the run's shape holds the slot
    assert _scratch.cache_info().hits == info.hits + 1
    assert module_arrays() == before == set()
