"""Stress-space relaxation solver: conservation, CFL, and the linear limit."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hlcouette
from hlcouette import config, coupler, meso, protocols
from hlcouette.errors import CFLError, ConfigError, SchemeInstabilityError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import gaussian_cell_averages, uniform_cell_averages
from hlcouette.diagnostics import MESO_CHECKS, evaluate, linf_bound
from hlcouette.maxwell import maxwell_p, offset_kernel, sub_solution
from hlcouette.meso import (INSTABILITY_FLOOR, StepReport, _scratch, advance_rows,
                            compute_d, compute_gradient_energy, compute_tau, hl_step,
                            required_substeps)
from hlcouette.params import DimensionlessParams
from hlcouette.protocols import PiecewiseLinearForcing
from hlcouette.tridiag import solve_diffusion_batch
from test_maxwell import scalar_offset_kernel

GRID = SigmaGrid(sigma_max=4.0, n_sigma=256)


def gaussian_batch(grid=GRID, width=1.0):
    """A one-row batch holding a normalized Gaussian."""
    row = gaussian_cell_averages(grid, 0.0, width)
    return (row / float(grid.mass(row)))[None]


def constant_forcing(value):
    return PiecewiseLinearForcing([0.0, 1.0], [value, value])


def prescribed(p0, forcing, grid, alpha, dt, t_final, snapshot_sink=None):
    """Run the rows p0 under the loading forcing on the prescribed path."""
    prob = coupler.CoupledProblem(
        dp=DimensionlessParams(rho=1.0, alpha=alpha, g0=1.0, mu=1.0), sigma_grid=grid,
        space_grid=SpaceTimeGrid(p0.shape[0], dt, t_final), protocol=forcing)
    return coupler.run_prescribed(prob, p0, snapshot_sink=snapshot_sink)


def recorded(p0, forcing, grid, alpha, dt, t_final):
    """A prescribed run and the step, D and mass of every state its snapshot
    sink sees, in call order; D and mass are (n_steps+1, n_rows) each."""
    steps, d, mass = [], [], []

    def sink(state, d_rows):
        steps.append(state.step)
        d.append(d_rows.copy())
        mass.append(grid.mass(state.p))

    res = prescribed(p0, forcing, grid, alpha, dt, t_final, snapshot_sink=sink)
    return res, steps, np.array(d), np.array(mass)


def test_step_conserves_mass_exactly_with_full_bookkeeping():
    p = gaussian_batch()
    q, rep = hl_step(p, 0.3, 1e-3, GRID, alpha=1.0)
    assert q.shape == p.shape
    assert GRID.mass(q)[0] == pytest.approx(GRID.mass(p)[0], abs=1e-14)
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
    p = uniform_cell_averages(GRID, -0.5, 0.5)[None]
    dt = 1e-3
    q, rep = hl_step(p, b, dt, GRID, alpha=1.0)
    gain = compute_tau(q, GRID)[0] - compute_tau(p, GRID)[0]
    assert gain == pytest.approx(b * dt * GRID.mass(p)[0], rel=1e-12)
    assert rep.sink_mass[0] == 0.0 and rep.boundary_mass[0] == 0.0
    assert rep.outflow_mass[0] == 0.0 and rep.trunc_moment[0] == 0.0
    assert compute_d(q, GRID, 1.0).tolist() == [0.0]


def test_zero_loading_preserves_evenness_and_centering():
    p0 = gaussian_batch()
    res, _, _, mass = recorded(p0, constant_forcing(0.0), GRID, alpha=1.0, dt=1e-3,
                               t_final=0.2)
    tau = res.series["tau"]
    assert np.max(np.abs(tau)) <= 1e-13
    assert np.max(np.abs(mass - 1.0)) <= 1e-13
    assert np.allclose(res.p, res.p[:, ::-1], atol=1e-15)
    assert res.accum.min_before_clip >= 0.0
    assert res.series["max_p"].max() <= linf_bound(float(p0.max()), 1.0, 0.2)


def test_cfl_guards():
    p = gaussian_batch()
    with pytest.raises(CFLError):
        hl_step(p, 32.0, 1e-3, GRID, alpha=1.0)       # |b| dt / d_sigma > 1
    with pytest.raises(CFLError):
        hl_step(p, 0.0, 1.0, GRID, alpha=1.0)         # explicit sink needs dt < 1
    with pytest.raises(ConfigError):  # the horizon is no whole number of steps
        prescribed(p, constant_forcing(0.0), GRID, 1.0, dt=3e-3, t_final=0.01)


def test_required_substeps():
    assert required_substeps(0.0, 1e-3, GRID) == 1
    assert required_substeps(2.5, 0.02, GRID) == 2    # CFL ratio 1.6
    assert required_substeps(np.array([0.1, -40.0]), 1e-3, GRID) == 2
    assert required_substeps(0.0, 1.2, GRID) == 3     # sink limit dt/n < 1/2
    # no count meets the CFL of a non-finite loading: math.ceil raised an
    # OverflowError (inf) or ValueError (nan) without the guard
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(SchemeInstabilityError, match="is not finite"):
            required_substeps(np.array([0.5, bad, 1.0]), 1e-3, GRID)


def test_subcycling_matches_manual_lockstep():
    p = np.vstack([gaussian_batch(), gaussian_batch(width=0.6)])
    b = np.array([10.0, -30.0])  # |b| dt / d_sigma = 3.84 over the macro step
    assert required_substeps(b, 4e-3, GRID) == 4
    q, rep = advance_rows(p, b, 4e-3, GRID, alpha=1.0)
    manual = p
    for _ in range(4):
        manual, _ = hl_step(manual, b, 1e-3, GRID, alpha=1.0)
    assert np.array_equal(q, manual)
    assert rep.n_sub == 4


def test_instability_guard_trips_on_garbage_input():
    p = gaussian_batch()
    p[0, 10] = -0.1
    with pytest.raises(SchemeInstabilityError):
        hl_step(p, 0.0, 1e-3, GRID, alpha=1.0)


def test_doubled_sink_breaks_the_sup_norm_safeguard(monkeypatch):
    # The doubled sink feeds the re-injection more mass than the true source
    # rate; the a-priori sup bound is then crossed and grading fails the run.
    # Without loading the rows stay even, so tau and the moment residual stay
    # zero; under a loading the doubled sink also breaks the stress balance.
    monkeypatch.setattr(meso, "hl_step", doubled_sink_step)
    failed = {}
    for name, loading in (("zero", constant_forcing(0.0)),
                          ("ramp", protocols.ramp(1.0, 0.5))):
        res = prescribed(gaussian_batch(), loading, GRID, alpha=1.0,
                         dt=1e-3, t_final=1.0)
        failed[name] = {r.name for r in evaluate(res, checks=MESO_CHECKS).failures}
    assert failed == {
        "zero": {"sup_norm_growth", "comparison_barrier"},
        "ramp": {"sup_norm_growth", "comparison_barrier", "stress_moment_identity"}}


def test_solver_shapes_and_recording():
    p0 = gaussian_batch()
    res, steps, d, mass = recorded(p0, constant_forcing(0.5), GRID, 1.0, dt=1e-2,
                                   t_final=0.05)
    tau = res.series["tau"]
    assert res.times.shape == (6,) and tau.shape == (6, 1)
    # the sink sees every state once, in step order, with the D of its row
    assert steps == list(range(6))
    assert d.shape == (6, 1) and mass.shape == (6, 1)
    assert d[:, 0].tobytes() == res.series["min_d"].tobytes()
    assert res.p.shape == (1, 256)
    assert np.array_equal(tau[0], compute_tau(p0, GRID))
    assert res.series["max_p"].max() >= float(p0.max())
    assert not np.shares_memory(res.p, p0)
    batch = np.vstack([p0, p0])
    tb = prescribed(batch, constant_forcing(0.5), GRID, 1.0, dt=1e-2,
                    t_final=0.05).series["tau"]
    assert tb.shape == (6, 2)
    assert np.array_equal(tb[:, 0], tb[:, 1])
    # two-row and one-row batches agree to rounding (BLAS blocking may differ)
    assert np.allclose(tb[:, 0], tau[:, 0], rtol=0.0, atol=1e-14)


def test_prescribed_path_computes_d_once_per_recorded_state(monkeypatch):
    # D of each state is read from its moments, taken once; the step that
    # starts from the state is handed that D and computes none of its own
    calls = {"moments": 0, "compute_d": 0}
    moments, compute = SigmaGrid.moments, meso.compute_d

    def counting_moments(*args):
        calls["moments"] += 1
        return moments(*args)

    def counting_d(*args, **kwargs):
        calls["compute_d"] += 1
        return compute(*args, **kwargs)

    monkeypatch.setattr(SigmaGrid, "moments", counting_moments)
    monkeypatch.setattr(meso, "compute_d", counting_d)
    n_steps, dt = 5, 1e-2
    assert required_substeps(0.5, dt, GRID) == 1
    prescribed(gaussian_batch(), constant_forcing(0.5), GRID, 1.0, dt=dt,
               t_final=n_steps * dt)
    assert calls == {"moments": n_steps + 1, "compute_d": 0}


def maxwell_limit_error(n_sigma, dt, t_final=0.25, b=0.7, alpha=4.0):
    """Errors of the general stepper against the exactly solvable limit.

    alpha = 4 keeps the sup-norm allowance sqrt(alpha t / pi) above the
    height of the not-yet-diffused center deposit on these coarse grids;
    the short horizon keeps the spread well inside +-sigma_max, where the
    untruncated closed forms apply.
    """
    grid = SigmaGrid(sigma_max=8.0, n_sigma=n_sigma, threshold=0.0)
    p0 = gaussian_batch(grid, width=0.8)
    forcing = constant_forcing(b)
    res, _, _, mass = recorded(p0, forcing, grid, alpha, dt=dt, t_final=t_final)
    tau = res.series["tau"]
    exact_tau = b * -np.expm1(-res.times)
    err_tau = np.max(np.abs(tau[:, 0] - exact_tau))
    exact_p = maxwell_p(p0, forcing, t_final, grid, alpha)[0]
    err_p = float(np.sum(np.abs(res.p[0] - exact_p))) * grid.d_sigma
    assert np.max(np.abs(mass - 1.0)) <= 1e-12
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
DYADIC_DT = st.integers(1, 12).map(lambda k: 2.0 ** -k)
# On these every scaling by d_sigma or dt is exact, so a reordered one keeps
# every bit; the bit-equality properties also draw a cell width and a step
# that are not powers of two, the standard dt among them
NON_DYADIC_GRID = SigmaGrid(4.0, 192)  # d_sigma = 1/24
ANY_DT = st.one_of(DYADIC_DT, st.just(1e-3))
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


def loading(nu, grid, dt):
    """Loadings of Courant numbers nu: b * (dt / d_sigma) gives nu back
    exactly on a power-of-two grid and dt; elsewhere b is shrunk by the ulps
    that keep |b| dt / d_sigma <= 1 after rounding."""
    b = nu * (grid.d_sigma / dt)
    while (over := np.abs(b * (dt / grid.d_sigma)) > 1.0).any():
        b[over] = np.nextafter(b[over], 0.0)
    return b


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
def step_inputs(draw, even=False, banded=False, cell=CELL, sign="any", non_dyadic=False):
    grids = PROPERTY_GRIDS + (NON_DYADIC_GRID,) if non_dyadic else PROPERTY_GRIDS
    if banded:
        grids = [g for g in grids if g.threshold == 1.0]
    grid = draw(st.sampled_from(grids))
    n_rows = draw(st.integers(1, 4))
    n = grid.n_sigma
    width = n // 2 if even else n
    if grid is NON_DYADIC_GRID:  # arrays fills wide rows faster than lists draws them
        p = draw(arrays(np.float64, (n_rows, width), elements=cell))
    else:
        p = np.array(draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                   min_size=n_rows, max_size=n_rows)))
    if even:
        p = np.hstack([p, p[:, ::-1]])
    dt = draw(ANY_DT if non_dyadic else DYADIC_DT)
    nu = np.zeros(n_rows) if even else signed(np.array(
        draw(st.lists(COURANT, min_size=n_rows, max_size=n_rows))), sign)
    return grid, p, loading(nu, grid, dt), dt, draw(ALPHA)


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
    # dt/(1 - dt) * moment of the scaled cells (the deposit cells
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


def reference_weights(grid):
    """The weights of SigmaGrid.moments from their definition: d_sigma times
    one, the exterior indicator, the centers and the centers on the band."""
    ds, ext, centers = grid.d_sigma, grid.exterior, grid.centers
    return [ds * np.ones(grid.n_sigma), ds * ext, ds * centers,
            ds * np.where(ext, 0.0, centers)]


def row_dots(p, w):
    """np.dot(row, w) of each row of the (n_rows, n) batch p, one at a time,
    summed from +0.0: np.dot takes a one-cell row as a scalar, whose product
    keeps the -0.0 that a sum of products started at +0.0 drops."""
    return np.array([0.0 + np.dot(row, w) for row in p])


def unfused_hl_step(p, b, dt, grid, alpha, sink_scale=1.0):
    """Reference: the step before its numpy ops were fused, kept verbatim but
    for D and the sink, which are np.dot(row, w) of each row with the
    exterior weights."""
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
    w_ext = reference_weights(grid)[1]
    d_coef = alpha * row_dots(p2, w_ext)

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
    sink = eff_dt * row_dots(q, w_ext)
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


def doubled_sink_step(p, b, dt, grid, alpha, d=None):
    """A broken hl_step for fault injection: the reference step with its
    relaxation sink doubled.  It takes hl_step's arguments and computes the
    start D itself."""
    return unfused_hl_step(p, b, dt, grid, alpha, sink_scale=2.0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LOADING_SIGNS).flatmap(
           lambda sign: step_inputs(cell=st.one_of(CELL, NEAR_ZERO), sign=sign,
                                    non_dyadic=True)),
       st.booleans(), st.booleans())
def test_fused_hl_step_matches_unfused_reference_bitwise(inputs, first_row, pass_d):
    # tiny negative cells drive the clip branch as well as the clip-free
    # one; a row whose exterior mass is negative has a negative D, which the
    # solve rejects in both versions.  Loadings of every sign pattern reach
    # each combination of skipped advective terms, and the start D is either
    # passed in, as coupler.run does, or computed by the step.  first_row
    # steps a one-row batch under a scalar loading.
    grid, p, b, dt, alpha = inputs
    if first_row:
        p, b = p[:1], b[0]
    d = compute_d(p, grid, alpha) if pass_d else None
    try:
        ref = unfused_hl_step(p, b, dt, grid, alpha)
    except (SchemeInstabilityError, ValueError) as exc:
        with pytest.raises(type(exc)):
            hl_step(p, b, dt, grid, alpha, d=d)
        return
    p_before = p.tobytes()
    q, rep = hl_step(p, b, dt, grid, alpha, d=d)
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
@given(st.sampled_from(LOADING_SIGNS).flatmap(lambda sign: step_inputs(sign=sign)))
def test_hl_step_keeps_nonnegative_rows_free_of_negative_zero(inputs):
    # the invariant behind hl_step's skipped terms and clip (meso docstring)
    grid, p, b, dt, alpha = inputs
    assert not has_negative_zero(p)
    q, rep = hl_step(p, b, dt, grid, alpha)
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
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                       st.floats(-1e3, 1e3, allow_subnormal=False))
    return grid, draw(arrays(np.float64, (draw(st.integers(1, 5)), grid.n_sigma),
                             elements=values))


def reference_quadratures(p, grid):
    """The per-row references of the quadratures: the moments as np.dot(row,
    w) of each row with each reference weight, and the sums that are no dot
    as their allocating forms, kept verbatim.  On a lone (n_sigma,) row each
    gives the bits the quadratures gave such a row when they still took one
    (the form that reshaped it to a batch of one)."""
    ds = grid.d_sigma
    diff = np.diff(p, axis=-1) / ds
    moments = np.array([row_dots(np.atleast_2d(p), w) for w in reference_weights(grid)]).T
    return {"mass": p.sum(axis=-1) * ds,
            "moments": moments.reshape(p.shape[:-1] + (4,)),
            "gradient_energy": (diff * diff).sum(axis=-1) * ds,
            "outermost_mass": (p[..., 0] + p[..., -1]) * ds}


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(quadrature_inputs(), st.sampled_from([1.0, 0.75]))
def test_quadratures_match_per_row_references_bitwise_property(inputs, alpha):
    # odd n_sigma, no exterior cell (n_exterior_side = 0), every cell
    # exterior (threshold 0) and one-row batches
    grid, p = inputs
    ref = reference_quadratures(p, grid)
    assert same_bits(grid.weights, np.array(reference_weights(grid)))
    for name, value in ref.items():
        scratch = (np.empty(p.shape),) if name == "gradient_energy" else ()
        assert same_bits(getattr(grid, name)(p, *scratch), value), name
    assert same_bits(compute_d(p, grid, alpha), alpha * ref["moments"][:, 1])
    assert same_bits(compute_tau(p, grid), ref["moments"][:, 2])
    assert same_bits(compute_gradient_energy(p, grid), ref["gradient_energy"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_rows_moments_do_not_depend_on_its_batch_property(data):
    # one row shape: a row's moments, D, tau and sink have the bits of the
    # row alone in any batch and at any offset of its memory.  np.vecdot
    # makes each dot alone; a matrix product (p @ w.T) blocks rows together
    grid = data.draw(st.sampled_from(PROPERTY_GRIDS + (NON_DYADIC_GRID,)))
    n_rows, n = data.draw(st.sampled_from([1, 2, 3, 5, 64])), grid.n_sigma
    p = data.draw(arrays(np.float64, (n_rows, n), elements=CELL))
    alpha, dt = data.draw(ALPHA), data.draw(ANY_DT)
    b = loading(data.draw(arrays(np.float64, (n_rows,), elements=COURANT)), grid, dt)
    offset = data.draw(st.integers(1, 7))  # in cells of 8 bytes

    def values(rows, loading_rate):
        return (grid.moments(rows), compute_d(rows, grid, alpha), compute_tau(rows, grid),
                hl_step(rows, loading_rate, dt, grid, alpha)[1].sink_mass)

    batch = values(p, b)
    for i in range(n_rows):
        moved = np.empty(n + offset)[offset:]
        moved[:] = p[i]
        for row in (p[i:i + 1].copy(), moved[None]):
            for name, alone, within in zip(("moments", "d", "tau", "sink_mass"),
                                           values(row, b[i:i + 1]), batch):
                assert alone[0].tobytes() == within[i].tobytes(), (name, i, n_rows)


# every function that steps, sums or bounds density rows takes an
# (n_rows, n_sigma) batch; a batch of one must give the bits a lone
# (n_sigma,) row gave when they still took one.  The references are those
# lone-row forms: reference_quadratures and unfused_hl_step on a 1-D row,
# the scalar offset kernel, and the barrier's convolution of one row.
CONVENTION_GRIDS = (SigmaGrid(2.0, 8), SigmaGrid(4.0, 32), SigmaGrid(2.0, 8, threshold=0.0),
                    unchecked_grid(2.0, 8, 5.0),  # n_exterior_side = 0
                    NON_DYADIC_GRID)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_row_batches_keep_the_bits_of_lone_rows_property(data):
    grid = data.draw(st.sampled_from(CONVENTION_GRIDS))
    n, ds = grid.n_sigma, grid.d_sigma
    cell = st.one_of(CELL, NEAR_ZERO)
    row = data.draw(arrays(np.float64, (n,), elements=cell)) if grid is NON_DYADIC_GRID \
        else np.array(data.draw(st.lists(cell, min_size=n, max_size=n)))
    batch = row[None]
    alpha = data.draw(ALPHA)

    def same(out, ref):
        return out.shape == (1,) + np.shape(ref) and out[0].tobytes() == np.float64(ref).tobytes()

    ref = reference_quadratures(row, grid)
    for name, value in ref.items():
        scratch = (np.empty(batch.shape),) if name == "gradient_energy" else ()
        assert same(getattr(grid, name)(batch, *scratch), value), name
    assert same(compute_d(batch, grid, alpha), alpha * ref["moments"][1])
    assert same(compute_tau(batch, grid), ref["moments"][2])
    assert same(compute_gradient_energy(batch, grid), ref["gradient_energy"])

    # the step under a scalar loading, as a lone row took it
    dt = data.draw(ANY_DT)
    b = loading(np.array([data.draw(COURANT)]), grid, dt)[0]
    try:
        ref_q, ref_rep = unfused_hl_step(row, b, dt, grid, alpha)
    except (SchemeInstabilityError, ValueError) as exc:
        with pytest.raises(type(exc)):
            hl_step(batch, b, dt, grid, alpha)
    else:
        q, rep = hl_step(batch, b, dt, grid, alpha)
        assert q.shape == (1, n) and q[0].tobytes() == ref_q.tobytes()
        for name in ("sink_mass", "boundary_mass", "outflow_mass", "deposit_mass",
                     "trunc_moment"):
            assert getattr(rep, name).tobytes() == getattr(ref_rep, name).tobytes()
        assert np.array_equal(rep.clipped_mass, ref_rep.clipped_mass)
        assert rep.min_before_clip == ref_rep.min_before_clip

    # the kernel and the comparison barrier, point kernels and cell edges included
    shift = data.draw(st.one_of(st.floats(-10.0, 10.0),
                                st.integers(-n - 2, n + 2).map(lambda j: (j - 0.5) * ds)))
    acc = data.draw(st.one_of(st.just(0.0), st.floats(1e-12, 25.0)))
    t = data.draw(st.floats(0.0, 2.0))
    kern = scalar_offset_kernel(grid, shift, 2.0 * acc)
    batch_kern = offset_kernel(grid, np.array([shift]), np.array([2.0 * acc]))
    assert batch_kern.shape == (1, 2 * n - 1) and batch_kern[0].tobytes() == kern.tobytes()
    barrier = sub_solution(batch, grid, t, np.array([shift]), np.array([acc]))
    ref_barrier = math.exp(-t) * (ds * np.convolve(row, kern, mode="valid"))
    assert barrier.shape == (1, n) and barrier[0].tobytes() == ref_barrier.tobytes()


def test_a_run_keeps_one_scratch_slot_and_no_module_array():
    modules = [importlib.import_module(f"hlcouette.{info.name}")
               for info in pkgutil.iter_modules(hlcouette.__path__)]

    def module_arrays():
        return {(m.__name__, name) for m in modules for name, value in vars(m).items()
                if isinstance(value, np.ndarray)}

    before = module_arrays()
    prob, init, report = config.load_config(
        overrides=["grid.n_y=6", "grid.n_sigma=64", "run.t_final=0.01"]).build()
    _scratch.cache_clear()
    result = coupler.run(prob, init, snap_every=5)
    assert result.step == 10
    info = _scratch.cache_info()
    assert info.currsize == 1
    _scratch(6, 64, prob.sigma_grid.n_exterior_side)  # the run's shape holds the slot
    assert _scratch.cache_info().hits == info.hits + 1
    assert module_arrays() == before == set()
