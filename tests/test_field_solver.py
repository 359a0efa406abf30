"""Unit tests for the radial method-of-lines solver: data construction,
discrete Laplacian, energy conservation, cone containment, divergence."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson

from kgflrw import cli, field_solver
from kgflrw.cosmology import (
    Background, ConeData, CosmologyParams, background, cone_radius, curved_mass_sq, scale_factor,
)
from kgflrw.field_solver import (
    _DUST_REL,
    Diagnostics,
    FieldState,
    ResolutionError,
    _simpson_weights,
    _stencil,
    _tableau,
    _window,
    energy,
    init_field,
    radial_laplacian,
    run_until,
    spatial_mean,
    step,
    support_radius,
)
from oracles import cfl_dt, uniform_simpson_weights


class TestInitField:
    def test_means_match_prescription(self):
        state = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=513, w0=2.5, w1=-0.75)
        assert spatial_mean(state.u, 1, state.r) == pytest.approx(2.5, rel=1e-12)
        assert spatial_mean(state.v, 1, state.r) == pytest.approx(-0.75, rel=1e-12)
        assert state.t == 0.0

    def test_support_confined_to_bump(self):
        state = init_field(n=2, r0=1.0, r_max=4.0, num_nodes=513, w0=1.0)
        outside = state.r >= 1.0
        assert np.all(state.u[outside] == 0.0)
        assert support_radius(state, float(np.max(np.abs(state.u)))) <= 1.0  # v = 0

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            init_field(n=1, r0=0.1, r_max=10.0, num_nodes=129, w0=1.0)
        with pytest.raises(ValueError):
            init_field(n=1, r0=2.0, r_max=1.0, num_nodes=513, w0=1.0)

    def test_velocity_via_ratio(self):
        # a velocity mean given as a multiple of w0; none means zero velocity
        state = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=513, w0=2.0, w1=0.5 * 2.0)
        assert spatial_mean(state.v, 1, state.r) == pytest.approx(1.0, rel=1e-12)
        assert not init_field(n=1, r0=1.0, r_max=3.0, num_nodes=513, w0=2.0).v.any()


class TestSimpsonWeights:
    @pytest.mark.parametrize("num_nodes", [3, 4, 1025, 3968, 6145])
    def test_match_scipy_simpson(self, num_nodes):
        # odd counts are the composite 1/3 rule, even ones add scipy's
        # last-interval correction; the sum is exactly rounded, as a BLAS dot
        # product's rounding depends on the kernel
        r = np.linspace(0.0, num_nodes / 512.0, num_nodes)
        w = _simpson_weights(np.full(num_nodes - 1, r[1] - r[0]))
        rng = np.random.default_rng(num_nodes)
        for y in (rng.standard_normal(num_nodes), np.exp(-r) * np.cos(40.0 * r), np.ones_like(r)):
            assert abs(math.fsum(w * y) - simpson(y, x=r)) <= 1e-14 * np.sum(np.abs(w * y))

    @pytest.mark.parametrize("num_nodes", [3, 4, 5, 6, 41, 100, 1001])
    def test_match_scipy_simpson_on_uneven_nodes(self, num_nodes):
        # Cartwright's uneven-step rule, which scipy uses from 1.11, with steps
        # that vary by up to 20x
        rng = np.random.default_rng(num_nodes)
        x = np.cumsum(np.concatenate(([0.0], rng.uniform(0.05, 1.0, num_nodes - 1))))
        w = _simpson_weights(np.diff(x))
        for y in (rng.standard_normal(num_nodes), np.exp(-x) * np.cos(3.0 * x), np.ones_like(x)):
            assert abs(math.fsum(w * y) - simpson(y, x=x)) <= 1e-13 * np.sum(np.abs(w * y))

    @pytest.mark.parametrize("num_nodes", [3, 4, 5, 6, 1025, 3968, 6145])
    @pytest.mark.parametrize("r_max", [1.0, 5.5, 12.0, 0.1])
    def test_equal_widths_give_the_uniform_weights_bit_for_bit(self, num_nodes, r_max):
        r = np.linspace(0.0, r_max, num_nodes)
        w = _simpson_weights(np.full(num_nodes - 1, r[1] - r[0]))
        assert np.array_equal(w, uniform_simpson_weights(r))

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            _simpson_weights(np.array([1.0]))


class TestLaplacian:
    def test_exact_on_quadratics(self):
        # u = r^2 has Laplacian 2n, and central differences are exact on it
        r = np.linspace(0.0, 2.0, 101)
        for n in (1, 2, 3):
            lap = radial_laplacian(r**2, r, n)
            assert np.allclose(lap[:-1], 2.0 * n, atol=1e-10)

    def test_second_order_convergence_on_smooth_profile(self):
        f = lambda r: np.cos(r) ** 2
        exact = lambda r, n: 2.0 * (np.sin(r) ** 2 - np.cos(r) ** 2) - (n - 1) / r * 2.0 * np.sin(r) * np.cos(r)
        errs = []
        for m in (200, 400, 800):
            r = np.linspace(0.0, 2.0, m + 1)
            lap = radial_laplacian(f(r), r, 3)
            errs.append(np.max(np.abs(lap[1:-1] - exact(r[1:-1], 3))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_stencil_applied_to_u(self, n):
        r = np.linspace(0.0, 2.0, 97)
        u = np.cos(3.0 * r) * np.exp(-r)
        sten = _stencil(r, n)
        lo, di, up = sten.rows
        tri = np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
        lap = radial_laplacian(u, r, n)
        scale = np.max(np.abs(tri) @ np.abs(u)) / sten.dr2
        assert np.max(np.abs(lap - tri @ u / sten.dr2)) <= 1e-15 * scale
        # the origin row is n u_rr(0) with a mirrored ghost node; the outer row is zero
        assert lap[0] == pytest.approx(2.0 * n * (u[1] - u[0]) / sten.dr2, rel=1e-14)
        assert lap[-1] == 0.0
        # interior rows are the central difference (u[i-1] - 2u[i] + u[i+1])/dr^2
        # + (n-1)/r (u[i+1] - u[i-1])/(2 dr), up to round-off
        dr = r[1] - r[0]
        central = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dr ** 2 + (n - 1) / r[1:-1] * (
            u[2:] - u[:-2]) / (2.0 * dr)
        assert np.max(np.abs(lap[1:-1] - central)) <= 1e-15 * scale


class TestStepping:
    def test_cfl_scales_with_grid_and_background(self):
        params = CosmologyParams(n=1, c=2.0)
        state = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0)
        assert cfl_dt(params, state) == pytest.approx(0.4 * state.dr / 2.0)

    @pytest.mark.parametrize("params, t0", [
        (CosmologyParams(n=1, c=2.0), 0.0),
        (CosmologyParams(n=2, c=1.5, H=0.5, sigma=0.5, a0=2.0), 0.25),
    ])
    def test_step_and_run_take_the_cfl_step_bit_for_bit(self, params, t0):
        state = init_field(n=params.n, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0)
        state.t = t0
        dt = 0.4 * state.dr * background(params).a(t0) / params.c
        assert step(params, 0.0, 2.0, state).t == t0 + dt
        diag = run_until(params, 0.0, 2.0, state, t0 + 3.0 * dt, 1.0, output_interval=dt / 2.0)
        assert diag.t[1] == t0 + dt

    def test_step_preserves_boundary_and_advances_time(self):
        params = CosmologyParams(n=1, m_sq=1.0)
        state = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0)
        new = step(params, 0.0, 2.0, state)
        assert new.t > 0.0
        assert new.u[-1] == 0.0 and new.v[-1] == 0.0
        assert not new.diverged

    def test_grid_convergence_order(self):
        # linear Klein-Gordon pulse, RMS error against a fine reference
        params = CosmologyParams(n=1, m_sq=1.0)
        t_end = 1.0
        sols = {}
        for nodes in (257, 513, 1025):
            state = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=nodes, w0=1.0)
            while state.t < t_end:
                dt = min(cfl_dt(params, state), t_end - state.t)
                state = step(params, 0.0, 2.0, state, dt=dt)
            sols[nodes] = state
        coarse = sols[257].u[::1]
        mid = sols[513].u[::2]
        fine = sols[1025].u[::4]
        e1 = math.sqrt(np.mean((coarse - fine) ** 2))
        e2 = math.sqrt(np.mean((mid - fine) ** 2))
        order = math.log2(e1 / e2) - math.log2(1 + 1 / 3)  # Richardson correction
        assert order > 1.7

    def test_energy_drift_short_run(self):
        params = CosmologyParams(n=1, m_sq=1.0)
        state = init_field(n=1, r0=1.0, r_max=4.0, num_nodes=1025, w0=1.0)
        e0 = energy(state, params)
        assert e0 > 0.0
        for _ in range(200):
            state = step(params, 0.0, 2.0, state)
        assert abs(energy(state, params) - e0) / e0 < 1e-7

    def test_energy_guard(self):
        params = CosmologyParams(n=1, m_sq=1.0)
        state = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0)
        with pytest.raises(ValueError):
            energy(state, CosmologyParams(n=1, H=1.0))


def _rk4_full_grid(accel, state, dt):
    """RK4 in Nystrom form over every node: u'' = accel(t, u), u' = v, outer node pinned.

    The stage inputs and the new (u, v) are the solver's tableau matrix times
    the stacked rows (k4, k3, k2, k1, v, u), two matrix rows per product.  The
    pinned node takes no velocity; the new u and v are zero there, and beyond
    their last node where |u| or |v| exceeds _DUST_REL times the data scale.
    """
    t, tab = state.t, _tableau(dt)
    rows = np.zeros((6, state.u.size))  # k4, k3, k2, k1, v, u
    rows[5], rows[4, :-1] = state.u, state.v[:-1]
    rows[3] = accel(t, rows[5])
    y3, y2 = tab[3:, 3:] @ rows[3:]
    rows[2] = accel(t + dt / 2.0, y2)
    rows[1] = accel(t + dt / 2.0, y3)
    rows[0] = accel(t + dt, (tab[2:4, 2:] @ rows[2:])[0])
    vn, un = tab[:2] @ rows
    un[-1] = vn[-1] = 0.0
    above = np.flatnonzero(np.maximum(np.abs(un), np.abs(vn)) > _DUST_REL * state.data_scale)
    last = int(above[-1]) + 1 if above.size else 0
    un[last:] = vn[last:] = 0.0
    return FieldState(r=state.r, u=un, v=vn, t=t + dt, data_scale=state.data_scale)


def _classical_rk4_full_grid(rhs, state, dt):
    """Classical staged RK4 of (u, v) over every node, rhs(t, u, v) -> (du, dv), outer node pinned."""
    t, u, v = state.t, state.u, state.v
    k1u, k1v = rhs(t, u, v)
    k2u, k2v = rhs(t + dt / 2, u + dt / 2 * k1u, v + dt / 2 * k1v)
    k3u, k3v = rhs(t + dt / 2, u + dt / 2 * k2u, v + dt / 2 * k2v)
    k4u, k4v = rhs(t + dt, u + dt * k3u, v + dt * k3v)
    un = u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
    vn = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    un[-1] = 0.0
    vn[-1] = 0.0
    return FieldState(r=state.r, u=un, v=vn, t=t + dt, data_scale=state.data_scale)


def _stencil_accel(params, lam, p, r):
    """The solver's acceleration over every node, with its folded arithmetic.

    The rows (s lo, s di - c^2 M^2, s up), s = c^2 / (a^2 dr^2), times u[i-1],
    u[i] and u[i+1] with a zero ghost node either side, summed in that order
    (row 0 adds 0 times the ghost), plus c^2 lam a^(-n(p-1)/2) |u|^p, pinned at
    the outer node.
    """
    n = params.n
    sten = _stencil(r, n)
    c2 = params.c ** 2

    def accel(t, u):
        a = scale_factor(params, t)
        lo, di, up = sten.rows * (c2 / (a * a * sten.dr2))
        di -= c2 * curved_mass_sq(params, t)
        padded = np.concatenate(([0.0], u, [0.0]))
        dv = lo * padded[:-2] + di * u + up * padded[2:]
        if lam != 0.0:
            dv += (c2 * lam * a ** (-n * (p - 1.0) / 2.0)) * np.abs(u) ** p
        dv[-1] = 0.0
        return dv

    return accel


def _full_grid_step(params, lam, p, state, dt):
    """RK4 over every node of the grid: the reference the windowed step must equal."""
    return _rk4_full_grid(_stencil_accel(params, lam, p, state.r), state, dt)


def _classical_step(params, lam, p, state, dt):
    """The same step as classical staged RK4 of the first-order system (u, v)."""
    accel = _stencil_accel(params, lam, p, state.r)

    def rhs(t, u, v):
        du = v.copy()
        du[-1] = 0.0
        return du, accel(t, u)

    return _classical_rk4_full_grid(rhs, state, dt)


class TestWindowedStep:
    # (H, sigma): static, expanding and contracting de Sitter, a power law,
    # and a contraction toward a big crunch
    BACKGROUNDS = [(0.0, 0.0), (0.7, -1.0), (-0.5, -1.0), (0.6, 0.0), (-0.8, 1.0 / 3.0)]
    SPACE = dict(
        n=st.sampled_from([1, 2, 3]),
        background=st.sampled_from(BACKGROUNDS),
        m_sq=st.sampled_from([1.0, 0.0, -1.0]),
        lam_p=st.sampled_from([(0.0, 2.0), (1.0, 2.0), (0.5, 2.5), (2.0, 3.0)]),
        num_nodes=st.integers(97, 140),
        gap=st.integers(0, 12),
        data=st.sampled_from([(1.0, 0.0), (0.3, -2.0), (0.0, 0.0)]),
        steps=st.integers(1, 25),
    )

    @staticmethod
    def _start(n, background, m_sq, num_nodes, gap, data):
        H, sigma = background
        r_max = 2.0
        dr = r_max / (num_nodes - 1)
        # the bump's last nonzero node lies gap + 1 nodes inside the outer one
        state = init_field(n=n, r0=r_max - (gap + 0.5) * dr, r_max=r_max,
                           num_nodes=num_nodes, w0=data[0], w1=data[1])
        return CosmologyParams(n=n, m_sq=m_sq, H=H, sigma=sigma), state

    @settings(max_examples=80, deadline=None)
    @given(**SPACE)
    # the footprint starts one node short of the Dirichlet node
    @example(n=3, background=(0.0, 0.0), m_sq=1.0, lam_p=(1.0, 2.0), num_nodes=128,
             gap=0, data=(1.0, 0.5), steps=5)
    # the zero state
    @example(n=2, background=(0.7, -1.0), m_sq=-1.0, lam_p=(0.5, 2.5), num_nodes=101,
             gap=6, data=(0.0, 0.0), steps=3)
    def test_equals_full_grid_step_bit_for_bit(self, n, background, m_sq, lam_p, num_nodes,
                                                gap, data, steps):
        lam, p = lam_p
        params, state = self._start(n, background, m_sq, num_nodes, gap, data)
        ref = state
        for _ in range(steps):
            dt = cfl_dt(params, state)
            state = step(params, lam, p, state, dt=dt)
            ref = _full_grid_step(params, lam, p, ref, dt)
            assert state.t == ref.t
            assert state.u.tobytes() == ref.u.tobytes()
            assert state.v.tobytes() == ref.v.tobytes()
            assert state.u[-1] == 0.0 and state.v[-1] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(**SPACE)
    def test_steps_end_at_the_dust_floor(self, n, background, m_sq, lam_p, num_nodes, gap, data,
                                         steps):
        # every state a step returns is zero beyond its last node where |u| or
        # |v| exceeds 1e-30 times the data scale, and holds no subnormal
        lam, p = lam_p
        params, state = self._start(n, background, m_sq, num_nodes, gap, data)
        floor = 1e-30 * state.data_scale
        for _ in range(steps):
            state = step(params, lam, p, state)
            mag = np.maximum(np.abs(state.u), np.abs(state.v))
            above = np.flatnonzero(mag > floor)
            assert not mag[(int(above[-1]) + 1 if above.size else 0):].any()
            assert not np.any((mag > 0.0) & (mag < np.finfo(float).tiny))

    def test_zero_data_stays_zero_on_the_five_node_window(self):
        params = CosmologyParams(n=2, m_sq=-1.0, H=0.5, sigma=0.0)
        state = init_field(n=2, r0=1.0, r_max=3.0, num_nodes=257, w0=0.0)
        assert state.data_scale == 0.0
        new = step(params, 1.0, 2.0, state)
        assert not new.u.any() and not new.v.any() and _window(new.u, new.v) == 5
        diag = run_until(params, 1.0, 2.0, state, 0.5, 1.0, output_interval=1e-9,
                         keep_snapshots=True)
        assert diag.steps > 0 and diag.node_steps == 5 * diag.steps
        assert not any(u.any() or v.any() for _, u, v in diag.snapshots)
        assert not any(diag.mean) and not any(diag.sup)

    @pytest.mark.parametrize("num_nodes", [64, 65])
    def test_data_on_the_whole_grid_resets_the_dirichlet_node(self, num_nodes):
        rng = np.random.default_rng(num_nodes)
        r = np.linspace(0.0, 1.0, num_nodes)
        state = FieldState(r=r, u=rng.standard_normal(num_nodes), v=rng.standard_normal(num_nodes), t=0.0)
        params = CosmologyParams(n=3, m_sq=-1.0, H=0.5, sigma=0.0)
        ref = state
        for _ in range(3):
            dt = cfl_dt(params, state)
            state = step(params, 1.0, 2.5, state, dt=dt)
            ref = _full_grid_step(params, 1.0, 2.5, ref, dt)
            assert state.u.tobytes() == ref.u.tobytes()
            assert state.v.tobytes() == ref.v.tobytes()
            assert state.u[-1] == 0.0 and state.v[-1] == 0.0

    def test_window_covers_footprint_plus_stencil_reach(self):
        state = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0)
        last = int(np.flatnonzero(state.u)[-1])
        assert _window(state.u, state.v) == last + 6
        new = step(CosmologyParams(n=1, m_sq=1.0), 0.0, 2.0, state)
        assert np.all(new.u[last + 3:] == 0.0) and np.all(new.v[last + 3:] == 0.0)
        assert _window(new.u, new.v) == int(np.flatnonzero(new.u != 0.0)[-1]) + 6
        # a footprint at the outer node makes the window the whole grid
        edge = init_field(n=1, r0=3.0 - 0.5 * state.dr, r_max=3.0, num_nodes=257, w0=1.0)
        assert _window(edge.u, edge.v) == 257
        zero = init_field(n=1, r0=1.0, r_max=3.0, num_nodes=257, w0=0.0)
        assert _window(zero.u, zero.v) == 5


def _central_difference_step(params, lam, p, state, dt):
    """An RK4 step with the unfolded central differences, evaluated term by term."""
    n, r = params.n, state.r
    dr = r[1] - r[0]

    def rhs(t, u, v):
        a = scale_factor(params, t)
        lap = np.zeros_like(u)
        lap[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dr ** 2 + (n - 1) / r[1:-1] * (
            u[2:] - u[:-2]) / (2.0 * dr)
        lap[0] = n * 2.0 * (u[1] - u[0]) / dr ** 2
        force = lam * a ** (-n * (p - 1.0) / 2.0) * np.abs(u) ** p if lam != 0.0 else 0.0
        dv = params.c ** 2 * (lap / a ** 2 - curved_mass_sq(params, t) * u + force)
        dv[-1] = 0.0
        du = v.copy()
        du[-1] = 0.0
        return du, dv

    return _classical_rk4_full_grid(rhs, state, dt)


def test_tableau_rows_are_the_nystrom_weights():
    # Nystrom RK4 from the classical Butcher tableau (A, b, c):
    # Y_i = u + c_i h v + h^2 (A^2)_i k, u+ = u + h v + h^2 (b A) k, v+ = v + h b k
    A = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0]])
    b, c, h = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0, A.sum(axis=1), 0.0123
    expected = [[1.0, c[i] * h, *(h * h * (A @ A)[i])] for i in (1, 2, 3)]
    expected += [[1.0, h, *(h * h * (b @ A))], [0.0, 1.0, *(h * b)]]
    # rows (v+, u+, Y4, Y3, Y2) over the block rows (k4, k3, k2, k1, v, u)
    np.testing.assert_allclose(np.flip(_tableau(h)), expected, rtol=1e-15, atol=0.0)


class TestFoldedStencilStep:
    # (H, sigma): static, expanding de Sitter, and a contraction toward a big crunch
    @pytest.mark.parametrize("background", [(0.0, 0.0), (0.7, -1.0), (-0.8, 1.0 / 3.0)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam_p", [(0.0, 2.0), (1.0, 2.5)])
    def test_agrees_with_central_differences(self, background, n, lam_p):
        H, sigma = background
        lam, p = lam_p
        params = CosmologyParams(n=n, m_sq=-1.0, H=H, sigma=sigma, c=1.5)
        state = init_field(n=n, r0=1.0, r_max=2.5, num_nodes=161, w0=1.0, w1=0.5)
        ref = state
        for _ in range(40):
            dt = cfl_dt(params, state)
            state = step(params, lam, p, state, dt=dt)
            ref = _central_difference_step(params, lam, p, ref, dt)
        for new, old in ((state.u, ref.u), (state.v, ref.v)):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    # (H, sigma): static, expanding de Sitter, and a contraction toward a big crunch
    @pytest.mark.parametrize("background", [(0.0, 0.0), (0.7, -1.0), (-0.8, 1.0 / 3.0)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam_p", [(0.0, 2.0), (1.0, 2.5)])
    def test_agrees_with_classical_staged_rk4(self, background, n, lam_p):
        # the Nystrom form is classical RK4 rearranged, so only round-off
        # separates them.  A round-off of u moves the next k by about
        # 4n c^2/(a dr)^2 times as much, so v carries the larger share: against
        # a long-double run each form's v is off by up to 2e-13 of its peak
        H, sigma = background
        lam, p = lam_p
        params = CosmologyParams(n=n, m_sq=-1.0, H=H, sigma=sigma, c=1.5)
        state = init_field(n=n, r0=1.0, r_max=2.5, num_nodes=161, w0=1.0, w1=0.5)
        ref = state
        for _ in range(40):
            dt = cfl_dt(params, state)
            state = step(params, lam, p, state, dt=dt)
            ref = _classical_step(params, lam, p, ref, dt)
        assert np.max(np.abs(state.u - ref.u)) <= 1e-13 * np.max(np.abs(ref.u))
        assert np.max(np.abs(state.v - ref.v)) <= 5e-13 * np.max(np.abs(ref.v))

    def test_leaves_its_input_alone_and_repeats_exactly(self):
        params = CosmologyParams(n=3, m_sq=-1.0, H=0.5, sigma=0.0)
        state = init_field(n=3, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0, w1=-0.5)
        u0, v0 = state.u.copy(), state.v.copy()
        first = step(params, 1.0, 2.5, state)
        second = step(params, 1.0, 2.5, state)
        assert state.u.tobytes() == u0.tobytes() and state.v.tobytes() == v0.tobytes()
        assert first.u.tobytes() == second.u.tobytes()
        assert first.v.tobytes() == second.v.tobytes()
        for a in (first.u, first.v):
            assert not any(np.shares_memory(a, b) for b in (state.u, state.v, second.u, second.v))


class TestRunUntil:
    def test_cone_containment_and_records(self):
        params = CosmologyParams(n=1, m_sq=1.0)
        state = init_field(n=1, r0=1.0, r_max=5.0, num_nodes=1025, w0=1.0)
        diag = run_until(params, 0.0, 2.0, state, 3.0, 1.0, output_interval=0.25)
        assert not diag.diverged
        assert diag.t[0] == 0.0 and diag.t[-1] == pytest.approx(3.0, abs=1e-9)
        cone = ConeData(1.0, params)
        for t, sr in zip(diag.t, diag.support_radius):
            assert sr <= cone_radius(cone, t) + 2.0 * state.dr

    def test_counts_steps_and_stepped_nodes(self):
        params = CosmologyParams(n=2, m_sq=1.0)
        state = init_field(n=2, r0=1.0, r_max=3.0, num_nodes=513, w0=1.0)
        diag = run_until(params, 0.0, 2.0, state, 1.0, 1.0, output_interval=0.25)
        steps, node_steps = 0, 0
        while state.t < 1.0:
            # a step updates the nonzero footprint plus six nodes
            node_steps += min(int(np.flatnonzero((state.u != 0) | (state.v != 0))[-1]) + 6, 513)
            state = step(params, 0.0, 2.0, state, dt=min(cfl_dt(params, state), 1.0 - state.t))
            steps += 1
        assert (diag.steps, diag.node_steps) == (steps, node_steps)
        assert node_steps < steps * 513
        assert diag.stop_reason == "t_end"

    @pytest.mark.parametrize("case", [
        (CosmologyParams(n=2, m_sq=1.0), 0.0, 1.0, 3.0, 513, 1.0, 0.0, 1.0),
        # a nonlinear run on a power law, until it diverges
        (CosmologyParams(n=1, m_sq=-1.0, H=0.4, sigma=0.5), 1.0, 0.5, 5.0, 641, 1.0, 1.0, 4.0),
    ])
    def test_scans_once_per_run_and_hands_each_footprint_on(self, monkeypatch, case):
        # the first window comes from a scan, each later one from the
        # footprint the last step trimmed its state to; every step's window
        # is min(last nonzero + 6, N) of the state it read
        params, lam, r0, r_max, nodes, w0, w1, t_end = case
        scans, windows = [], []
        window, advance = field_solver._window, field_solver._Run.advance

        def spy(run, dt):
            windows.append(run.m)  # the number of nodes the step updates
            return advance(run, dt)

        monkeypatch.setattr(field_solver, "_window", lambda u, v: scans.append(1) or window(u, v))
        monkeypatch.setattr(field_solver._Run, "advance", spy)
        state = init_field(n=params.n, r0=r0, r_max=r_max, num_nodes=nodes, w0=w0, w1=w1)
        diag = run_until(params, lam, 2.0, state, t_end, r0,
                         output_interval=1e-9, keep_snapshots=True)
        assert len(scans) == 1
        assert len(diag.snapshots) == len(windows) + 1 == diag.steps + 1 > 10
        for (_, u, v), m in zip(diag.snapshots, windows):
            assert m == min(int(np.flatnonzero((u != 0) | (v != 0))[-1]) + 6, u.size)

    @pytest.mark.parametrize("name", ["a", "mass_sq"])
    def test_step_evaluates_the_background_once_per_stage_time(self, monkeypatch, name):
        # RK4 samples t, t + dt/2 (stages 2 and 3) and t + dt
        times = []
        method = getattr(Background, name)
        monkeypatch.setattr(Background, name, lambda self, t: times.append(t) or method(self, t))
        params = CosmologyParams(n=2, m_sq=-1.0, H=0.5, sigma=0.0)
        state = init_field(n=2, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0, w1=0.5)
        for _ in range(3):
            dt = cfl_dt(params, state)
            times.clear()
            nxt = step(params, 1.0, 2.5, state, dt=dt)
            assert times == [state.t, state.t + dt / 2.0, state.t + dt]
            state = nxt

    @pytest.mark.parametrize("name", ["a", "mass_sq"])
    def test_run_until_reuses_the_stage_coefficients(self, monkeypatch, name):
        # a step starts from the last step's a and M^2 at t + dt, the same float
        # time, and the |M^2 u| integral reads the stage's M^2(t + dt/2): two
        # calls of each per step, and one at t = 0
        times = []
        method = getattr(Background, name)
        monkeypatch.setattr(Background, name, lambda self, t: times.append(t) or method(self, t))
        params = CosmologyParams(n=2, m_sq=-1.0, H=0.5, sigma=0.0)
        state = init_field(n=2, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0, w1=0.5)
        diag = run_until(params, 1.0, 2.5, state, 0.3, 1.0)
        assert diag.steps > 10
        assert len(times) == 2 * diag.steps + 1

    # a power law, where a and M^2 both vary
    POWER_LAW = CosmologyParams(n=1, m_sq=-1.0, H=0.4, sigma=0.5)

    @pytest.mark.parametrize("params, folds_per_step", [
        (CosmologyParams(n=1, m_sq=1.0), 0),  # static: the rows at t = 0 serve the whole run
        (POWER_LAW, 2),  # t + dt/2, and t + dt, which the next step starts from
    ])
    def test_folds_each_stage_time_once(self, monkeypatch, params, folds_per_step):
        folds = []
        fold = field_solver._fold

        def counted(st, c2, a, msq, out):
            folds.append((a, msq))
            fold(st, c2, a, msq, out)

        monkeypatch.setattr(field_solver, "_fold", counted)
        state = init_field(n=1, r0=0.5, r_max=5.0, num_nodes=641, w0=1.0, w1=1.0)
        diag = run_until(params, 1.0, 2.0, state, 1.0, 0.5)
        assert diag.steps > 10
        assert len(folds) == 1 + folds_per_step * diag.steps
        assert len(set(folds)) == len(folds)

    def test_leaves_its_input_alone(self):
        params = CosmologyParams(n=2, m_sq=-1.0)
        state = init_field(n=2, r0=1.0, r_max=3.0, num_nodes=513, w0=1.0, w1=0.5)
        u0, v0 = state.u.copy(), state.v.copy()
        run_until(params, 1.0, 2.0, state, 0.5, 1.0)
        assert state.u.tobytes() == u0.tobytes() and state.v.tobytes() == v0.tobytes()
        assert state.t == 0.0 and not state.diverged

    def test_snapshots_own_their_memory(self, monkeypatch):
        buffers = []
        advance = field_solver._Run.advance

        def spy(run, dt):
            # the two state blocks, then the run's stage inputs, scratch rows
            # and folded rows
            buffers.extend([run.blocks, run.stage, run.prod, run.tmp, run.buf])
            return advance(run, dt)

        monkeypatch.setattr(field_solver._Run, "advance", spy)
        params = CosmologyParams(n=1, m_sq=1.0)
        state = init_field(n=1, r0=1.0, r_max=4.0, num_nodes=513, w0=1.0)
        diag = run_until(params, 0.0, 2.0, state, 1.0, 1.0,
                         output_interval=0.1, keep_snapshots=True)
        arrays = [a for _, u, v in diag.snapshots for a in (u, v)]
        assert buffers and len(arrays) == 2 * len(diag.t)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
            assert not any(np.shares_memory(a, b) for b in buffers + [state.u, state.v])

    def test_clears_what_an_older_wider_window_left(self, monkeypatch):
        # the run writes each buffer every other step; a footprint halved as
        # it is handed to every other write into a buffer leaves the state
        # written there two steps before nonzero beyond the narrower window,
        # yet the new state must be zero there
        windows = []
        advance = field_solver._Run.advance

        def narrowing(run, dt):
            windows.append(run.m)
            result = advance(run, dt)
            if len(windows) % 4 in (2, 3):  # the next window is e + 5, e the footprint: halve e
                run.m = (run.m - 5) // 2 + 5
            return result

        monkeypatch.setattr(field_solver._Run, "advance", narrowing)
        params = CosmologyParams(n=2, m_sq=1.0)
        state = init_field(n=2, r0=1.0, r_max=3.0, num_nodes=257, w0=1.0, w1=0.5)
        diag = run_until(params, 0.0, 2.0, state, 0.2, 1.0,
                         output_interval=1e-9, keep_snapshots=True)
        assert len(diag.snapshots) == len(windows) + 1 > 4
        assert windows[2] < windows[0] and windows[3] < windows[1]
        for (_, u, v), m in zip(diag.snapshots[1:], windows):
            assert not u[m:].any() and not v[m:].any()

    @pytest.mark.parametrize("case", [
        # linear n = 2 on 513 nodes, to t = 1
        (CosmologyParams(n=2, m_sq=1.0), 0.0, 2, 1.0, 3.0, 513, 1.0, 0.0, 1.0),
        # focusing lam > 0 on a de Sitter background, run until it diverges
        (CosmologyParams(n=1, m_sq=-1.0, H=0.3, sigma=-1.0), 1.0, 1, 0.5, 5.0, 641, 1.0, 1.0, 4.0),
        # the same on a power law, where a and M^2 both vary, so every step
        # starts from the rows the last one folded at its t + dt
        (POWER_LAW, 1.0, 1, 0.5, 5.0, 641, 1.0, 1.0, 4.0),
    ])
    def test_snapshots_equal_repeated_steps(self, case):
        params, lam, n, r0, r_max, nodes, w0, w1, t_end = case
        state = init_field(n=n, r0=r0, r_max=r_max, num_nodes=nodes, w0=w0, w1=w1)
        # an interval below one step records every state
        diag = run_until(params, lam, 2.0, state, t_end, r0,
                         output_interval=1e-9, keep_snapshots=True)
        assert diag.diverged == (lam != 0.0)
        assert len(diag.snapshots) == diag.steps + 1
        # the |M^2 u| integral: per step dt |M^2(t + dt/2)| times the mean of
        # int |u| over the two states
        weights, mass = field_solver._mean_weights(state.r, n), 0.0
        for (t, u, v), e, recorded in zip(diag.snapshots, diag.energy, diag.mass_integral):
            assert t == state.t
            assert u.tobytes() == state.u.tobytes() and v.tobytes() == state.v.tobytes()
            if lam == 0.0:  # the record's energy is the public one, on the run's stencil
                assert e == energy(state, params)
            assert recorded == pytest.approx(mass, rel=1e-12)
            if state.diverged:
                break
            dt = min(cfl_dt(params, state), t_end - state.t)
            new = step(params, lam, 2.0, state, dt=dt)
            msq = curved_mass_sq(params, 0.5 * (state.t + new.t))
            mass += dt * abs(msq) * 0.5 * (weights @ np.abs(state.u) + weights @ np.abs(new.u))
            state = new
        assert state.diverged == diag.diverged

    def test_outer_radius_must_cover_cone(self):
        params = CosmologyParams(n=1)
        state = init_field(n=1, r0=1.0, r_max=2.0, num_nodes=1025, w0=1.0)
        with pytest.raises(ValueError):
            run_until(params, 0.0, 2.0, state, 5.0, 1.0)

    def test_nonlinear_divergence_detected(self):
        params = CosmologyParams(n=1, m_sq=-1.0)
        state = init_field(n=1, r0=0.5, r_max=5.0, num_nodes=1025, w0=1.0, w1=1.0)
        diag = run_until(params, 1.0, 2.0, state, 4.0, 0.5, output_interval=0.1)
        assert diag.diverged
        assert diag.divergence_time is not None and diag.divergence_time < 4.0
        assert diag.stop_reason == "diverged"
        assert math.isfinite(diag.mass_integral[-1])
        # the mean grows monotonically up to the divergence
        means = np.array(diag.mean)
        assert means[-2] > means[0]

    def test_divergence_guard_is_scale_free(self):
        # a linear static run cannot blow up, whatever the size of its data
        params = CosmologyParams(n=1, m_sq=1.0)
        runs = [
            run_until(params, 0.0, 2.0,
                      init_field(n=1, r0=1.0, r_max=3.0, num_nodes=1025, w0=w0),
                      1.0, 1.0, output_interval=0.25)
            for w0 in (1.0, 1e9)
        ]
        assert not runs[0].diverged and not runs[1].diverged
        assert runs[1].t == runs[0].t
        np.testing.assert_allclose(runs[1].mean, 1e9 * np.array(runs[0].mean), rtol=1e-12)

    @pytest.mark.parametrize("params", [CosmologyParams(n=1, m_sq=1.0), POWER_LAW])
    def test_dust_floor_is_scale_free(self, params):
        # linear runs on data 2^40 times larger record every mean, sup and
        # |M^2 u| integral exactly 2^40 times larger, on the same nodes
        runs = [run_until(params, 0.0, 2.0,
                          init_field(n=1, r0=0.5, r_max=5.0, num_nodes=641, w0=w0, w1=w0),
                          2.0, 0.5, output_interval=0.05)
                for w0 in (1.0, 2.0 ** 40)]
        assert (runs[1].steps, runs[1].node_steps) == (runs[0].steps, runs[0].node_steps)
        for name in ("mean", "sup", "mass_integral"):
            small, big = (np.array(getattr(run, name)) for run in runs)
            assert big.tobytes() == (2.0 ** 40 * small).tobytes()

    def test_snapshots_carry_grid(self):
        params = CosmologyParams(n=1, m_sq=1.0)
        state = init_field(n=1, r0=1.0, r_max=4.0, num_nodes=513, w0=1.0)
        diag = run_until(params, 0.0, 2.0, state, 1.0, 1.0,
                         output_interval=0.2, keep_snapshots=True)
        assert diag.snapshot_grid is not None
        assert len(diag.snapshots) == len(diag.t)
        t0, u0, v0 = diag.snapshots[0]
        assert t0 == 0.0
        assert u0.shape == diag.snapshot_grid.shape

    def test_horizon_cap(self):
        # crunch ends at t = 2/3: the run must stop below it
        params = CosmologyParams(n=3, H=-1.0, sigma=0.0, m_sq=1.0)
        state = init_field(n=3, r0=0.5, r_max=4.0, num_nodes=1025, w0=0.5)
        diag = run_until(params, 0.0, 2.0, state, 5.0, 0.5)
        assert diag.t[-1] < 2.0 / 3.0
        assert diag.t[-1] == pytest.approx(2.0 / 3.0, rel=1e-6)
        assert diag.stop_reason == "horizon"


def test_save_diagnostics_round_trip(tmp_path):
    diag = Diagnostics(
        t=[0.0, 0.5], mean=[1.0, 1.1], sup=[2.0, 2.1], energy=[3.0, 3.0],
        support_radius=[1.0, 1.4], cone_radius=[1.0, 1.5], mass_integral=[0.0, 0.2],
    )
    path = tmp_path / "diag.csv"
    cli._write_table(path, cli._DIAGNOSTICS, [getattr(diag, name) for name in cli._DIAGNOSTICS])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t" and rows[0][-1] == "mass_integral"
    assert [float(x) for x in rows[2]] == [0.5, 1.1, 2.1, 3.0, 1.4, 1.5, 0.2]
