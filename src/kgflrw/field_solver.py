"""Method-of-lines solver for the radial semilinear Klein-Gordon field.

Second-order central differences in the radius, classical RK4 in time with a
CFL-limited step.  Compactly supported data plus the finite propagation
speed justify a homogeneous Dirichlet condition at the outer edge; the run
records the spatial mean, sup norm, energy, support radius and light-cone
radius, and accumulates the space-time integral of |M^2 u| as a diagnostic.

The Laplacian is one three-row stencil per grid, row i (lo[i] u[i-1] +
di[i] u[i] + up[i] u[i+1]) / dr^2, applied to a read-only (3, m) view of a
field padded with a zero ghost node either side: one product and one sum.
The time stepping folds the background into the rows, (s lo, s di - c^2 M^2,
s up) with s = c^2/(a^2 dr^2): once per run on a static background, else at
t + dt/2 and t + dt.  RK4 is taken in its Nystrom form, as f in v' = f(t, u)
does not depend on v.  A state is one padded (6, N + 2) block of rows k4,
k3, k2, k1 (the stage accelerations), v and u.  The tableau is one (5, 6)
matrix per step size; the stage inputs and the new (u, v) are three products
of two of its rows with the block (a one-row product takes a BLAS path whose
rounding depends on the window length).  A step updates only the nodes the
stencil reaches from the nonzero part of the field, and ends by zeroing the
new state beyond its last node above `_DUST_REL` times the data scale;
that footprint sets the next step's window, so a run scans a field for its
footprint once.  One private run object, `_Run`, holds the two state blocks
a run steps between and takes each step; `run_until` drives it, and `step`
is one step of a run started from its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cosmology import CosmologyParams, background, unit_ball_volume

__all__ = [
    "FieldState",
    "Diagnostics",
    "ResolutionError",
    "ConeViolationError",
    "init_field",
    "radial_laplacian",
    "step",
    "spatial_mean",
    "energy",
    "run_until",
]

# A state diverges once its sup exceeds this multiple of its data scale.
_SUP_GUARD = 1e8
# A step zeroes the state beyond its last node where |u| or |v| exceeds this multiple
# of the data scale; beyond it lies only dispersive precursor, decaying into subnormals.
_DUST_REL = 1e-30
# The time step is this fraction of the CFL limit dr a(t) / c.
_CFL = 0.4
# Fraction of the data scale below which grid values count as numerical dust
# when measuring the support radius.  Chosen about 15x above the dispersive
# precursor level that second-order central differences shed ahead of the
# wave front at desk resolutions (empirically ~6e-4 of the peak sup-norm at
# dr = 1/512 over ten crossing times).
_SUPPORT_REL_TOL = 1e-2


class ResolutionError(ValueError):
    """Grid too coarse to resolve the initial bump."""


class ConeViolationError(RuntimeError):
    """Numerical support escaped the light cone; indicates a discretization bug."""


@dataclass
class FieldState:
    r: np.ndarray  # uniform radial nodes, r[0] = 0, r[-1] = r_max
    u: np.ndarray
    v: np.ndarray  # time derivative of u
    t: float
    diverged: bool = False
    # sup of |u| and |v| of the data this state evolved from; by default the
    # state's own, so a state built from data carries its data scale
    data_scale: Optional[float] = None

    def __post_init__(self):
        if self.data_scale is None:
            self.data_scale = max(float(np.max(np.abs(self.u))), float(np.max(np.abs(self.v))))

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])


@dataclass
class Diagnostics:
    """Recorded time series of one run, plus optional field snapshots."""

    t: list = field(default_factory=list)
    mean: list = field(default_factory=list)
    sup: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    support_radius: list = field(default_factory=list)
    cone_radius: list = field(default_factory=list)
    mass_integral: list = field(default_factory=list)  # running int int |M^2 u| dx dt
    snapshots: list = field(default_factory=list)  # (t, u.copy(), v.copy())
    snapshot_grid: Optional[np.ndarray] = None  # shared radial grid of the snapshots
    diverged: bool = False
    divergence_time: Optional[float] = None
    steps: int = 0  # RK4 steps taken
    node_steps: int = 0  # nodes those steps updated, summed over the steps
    stop_reason: Optional[str] = None  # "t_end", "horizon" or "diverged"


def bump_profile(r: np.ndarray, r0: float) -> np.ndarray:
    """Unit-amplitude smooth bump exp(-1/(1-(r/r0)^2)) on r < r0, zero beyond."""
    out = np.zeros_like(r)
    inside = np.abs(r) < r0
    s2 = (r[inside] / r0) ** 2
    out[inside] = np.exp(-1.0 / (1.0 - s2))
    return out


def spatial_mean(u: np.ndarray, n: int, r: np.ndarray) -> float:
    """Integral of u over space on the grid r: n omega_n int u r^(n-1) dr (Simpson)."""
    return float(_mean_weights(r, n) @ u)


def _simpson_weights(h: np.ndarray) -> np.ndarray:
    """Weights w with w @ y = Simpson's rule for int y over nodes spaced by the widths h.

    Cartwright's uneven-step 1/3 rule (J. Math. Sci. Math. Educ. 12(2), 2017), as
    scipy.integrate.simpson's from 1.11: pair by pair, and an odd last interval by
    its three-node correction.  Each weight is a width times a function of width
    ratios, so equal widths give h/3 (1, 4, 2, ..., 4, 1) and h (-1, 8, 5)/12 exactly.
    """
    if h.size < 2:
        raise ValueError(f"Simpson's rule needs at least 3 nodes, got {h.size + 1}")
    pairs = h.size - h.size % 2
    h0, h1 = h[0:pairs:2], h[1:pairs:2]
    q, third = h1 / h0, (h0 + h1) / 6.0
    w = np.zeros(h.size + 1)
    w[0:pairs:2] = third * (2.0 - q)
    w[1:pairs:2] = third * (1.0 + q) ** 2 / q
    w[2:pairs + 1:2] += third * (2.0 - 1.0 / q)
    if pairs < h.size:
        q = h[-1] / h[-2]
        w[-3:] += np.array([-2.0 * q * q / (1.0 + q), 2.0 * (q + 3.0),
                            (4.0 * q + 6.0) / (1.0 + q)]) * (h[-1] / 12.0)
    return w


def _mean_weights(r: np.ndarray, n: int) -> np.ndarray:
    """Weights w with w @ u = n omega_n int u r^(n-1) dr (Simpson)."""
    return n * unit_ball_volume(n) * r ** (n - 1) * _simpson_weights(np.full(r.size - 1, r[1] - r[0]))


def init_field(n: int, r0: float, r_max: float, num_nodes: int, w0: float,
               w1: float = 0.0) -> FieldState:
    """Smooth compact bump data with prescribed spatial means.

    The amplitude is solved so the spatial mean of u equals w0 on the given
    grid; the velocity is a multiple of the profile so its mean is w1
    (default 0).  Requires at least 32 nodes inside the bump.
    """
    if r_max <= r0:
        raise ValueError(f"r_max = {r_max} must exceed the support radius r0 = {r0}")
    r = np.linspace(0.0, r_max, num_nodes)
    dr = r[1] - r[0]
    if r0 / dr < 32:
        raise ResolutionError(
            f"only {int(r0 / dr)} nodes resolve the bump; at least 32 required"
        )
    shape = bump_profile(r, r0)
    base = spatial_mean(shape, n, r)
    if base <= 0:
        raise ResolutionError("bump quadrature degenerated")
    u = (w0 / base) * shape
    v = (w1 / base) * shape
    return FieldState(r=r, u=u, v=v, t=0.0)


@dataclass(frozen=True)
class _Stencil:
    """The radial Laplacian of one grid as a (3, N) stack of coefficient rows.

    rows = (lo, di, up): row i of the Laplacian is
    (lo[i] u[i-1] + di[i] u[i] + up[i] u[i+1]) / dr2, with lo[0] = 0 and the
    last row zero.  The coefficients are dimensionless: at n = 1 they are the
    integers (1, -2, 1).
    """

    rows: np.ndarray
    dr2: float


def _stencil(r: np.ndarray, n: int) -> _Stencil:
    """The `_Stencil` of the grid r in dimension n.

    Interior rows are 1 -+ (n-1) dr/(2r) off the diagonal and -2 on it; the
    origin row is n u_rr(0) with the ghost value u(-dr) = u(dr), that is
    (-2n, 2n); the outer (Dirichlet) row is zero.
    """
    dr = r[1] - r[0]
    drift = np.zeros_like(r)
    drift[1:-1] = (n - 1) * dr / (2.0 * r[1:-1])
    rows = np.stack([1.0 - drift, np.full_like(r, -2.0), 1.0 + drift])
    rows[:, 0] = 0.0, -2.0 * n, 2.0 * n
    rows[:, -1] = 0.0
    return _Stencil(rows, float(dr ** 2))


def _row_view(padded: np.ndarray) -> np.ndarray:
    """Read-only (..., 3, N) view u[i-1], u[i], u[i+1] of fields padded with a node either side."""
    return np.lib.stride_tricks.sliding_window_view(padded, padded.shape[-1] - 2, axis=-1)


def _apply(rows: np.ndarray, view: np.ndarray, prod: np.ndarray, out: np.ndarray) -> None:
    """out = rows[0] u[i-1] + rows[1] u[i] + rows[2] u[i+1], read from a (3, m) `_row_view`.

    One product into the (3, m) scratch prod and one sum over its rows.
    """
    np.multiply(rows, view, out=prod)
    np.add.reduce(prod, axis=0, out=out)


def radial_laplacian(u: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """u_rr + (n-1)/r u_r by second-order central differences.

    At the origin the symmetric regularization is n u_rr(0) with the ghost
    value u(-dr) = u(dr).  The outer node is Dirichlet and gets zero.
    """
    st = _stencil(r, n)
    padded = np.zeros(u.size + 2)
    padded[1:-1] = u
    lap = np.empty_like(u)
    _apply(st.rows, _row_view(padded), np.empty(st.rows.shape), lap)
    lap /= st.dr2
    lap[-1] = 0.0
    return lap


def _fold(st: _Stencil, c2: float, a: float, msq: float, out: np.ndarray) -> None:
    """out = the rows (s lo, s di - c^2 M^2, s up), s = c^2/(a^2 dr^2), over out's nodes.

    Applied to u they give c^2 (Delta u / a^2 - M^2 u), the linear part of the acceleration.
    """
    np.multiply(st.rows[:, :out.shape[1]], c2 / (a * a * st.dr2), out=out)
    out[1] -= c2 * msq


def _cfl(dr: float, a: float, c: float) -> float:
    """The CFL step `_CFL` * dr * a / c, which `step` and `run_until` take."""
    return _CFL * dr * a / c


def _window(u: np.ndarray, v: np.ndarray) -> int:
    """Number of leading nodes a step of (u, v) updates.

    That is min(e + 6, N), e the last node where u or v is nonzero (-1 if
    none): a step carries nonzero values at most two nodes beyond e, and pins
    the window's last node, which is zero anyway.
    """
    hits = np.logical_or(u, v).nonzero()[0]
    return min((int(hits[-1]) if hits.size else -1) + 6, u.size)


def _tableau(h: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Nystrom RK4 of step h as a (5, 6) matrix over the block rows (k4, k3, k2, k1, v, u).

    Its rows give v+ = v + (h/6)(k1 + 2 k2 + 2 k3 + k4), u+ = u + h v +
    (h^2/6)(k1 + k2 + k3), Y4 = u + h v + (h^2/2) k2, Y3 = u + (h/2) v +
    (h^2/4) k1 and Y2 = u + (h/2) v: everything turned end for end, so that a
    product, which BLAS sums in row order, adds the state last and once.
    Writes the entries that depend on h into out, a tableau of another step,
    or else into a new one.
    """
    if out is None:
        out = np.zeros((5, 6))
        out[0, 4] = out[1:, 5] = 1.0
    g, h2 = h / 2.0, h * h
    out[0, 0] = out[0, 3] = h / 6.0
    out[0, 1] = out[0, 2] = h / 3.0
    out[1, 1] = out[1, 2] = out[1, 3] = h2 / 6.0
    out[1, 4] = out[2, 4] = h
    out[2, 2], out[3, 3] = h2 / 2.0, h2 / 4.0
    out[3, 4] = out[4, 4] = g
    return out


class _Run:
    """One RK4 run on one grid: its two state blocks, folded rows, tableau and scratch.

    The run steps from block `cur` into the other one and back; each block is
    padded like a u, its rows are k4, k3, k2, k1 (the stage accelerations), v
    and u, and block k is zero from node extent[k] on.  `m` is the number of
    leading nodes the next step updates, t, a and msq the time and a, M^2 at
    it.  buf[0] holds the rows folded at (a, M^2(t)) and buf[1] those at
    t + dt/2; on a static background buf[0], folded once over the whole grid,
    serves every stage of every step.  The tableau of step dt is rewritten in
    place when dt changes, and tabs are its three two-row blocks.  The stage
    inputs are padded like a u.  The outer node takes no velocity.
    """

    def __init__(self, bg, lam: float, p: float, state: FieldState):
        n, size = bg.params.n, state.r.size
        self.bg, self.lam, self.p, self.c2, self.dt = bg, lam, p, bg.c ** 2, math.nan
        self.expo = -n * (p - 1.0) / 2.0  # of a in the nonlinearity
        self.r, self.scale, self.t, self.st = state.r, state.data_scale, state.t, _stencil(state.r, n)
        self.a, self.msq = bg.a(self.t), bg.mass_sq(self.t)
        self.tab = _tableau(self.dt)
        self.tabs = (self.tab[3:, 3:], self.tab[2:4, 2:], self.tab[:2])
        self.buf, self.stage = np.empty((2, 3, size)), np.zeros((2, size + 2))
        self.views, self.prod, self.tmp = _row_view(self.stage), np.empty((3, size)), np.empty(size)
        _fold(self.st, self.c2, self.a, self.msq, self.buf[0])
        self.blocks = np.zeros((2, 6, size + 2))
        self.us, self.vs = self.blocks[:, 5, 1:-1], self.blocks[:, 4, 1:-1]
        self.us[0], self.vs[0, :-1] = state.u, state.v[:-1]
        self.u_views = [_row_view(b[5]) for b in self.blocks]
        self.extent, self.cur, self.m = [size, 0], 0, _window(state.u, state.v)

    def state(self, diverged: bool) -> FieldState:
        """The run's current state, whose u and v are views of its block."""
        return FieldState(self.r, self.us[self.cur], self.vs[self.cur], self.t, diverged, self.scale)

    def advance(self, dt: float) -> tuple[bool, float]:
        """One RK4 step of the first m nodes from t to t + dt, into the other block.

        (Y3, Y2), (Y4, Y3) and the new (v, u) are rows 3-4, 2-3 and 0-1 of
        `_tableau(dt)` times the block's last 3, 4 and 6 rows.  On a moving
        background the rows at t + dt/2 are folded into buf[1], and once
        stage 1 has read buf[0], the rows at t + dt into it over m + 2 nodes,
        the next window's reach.  The new state is pinned at the last node
        and, with its |v| and |u| left in the stage inputs, zeroed from its
        footprint e on: the node after the last above `_DUST_REL` times the
        data scale.  The next step's window is then min(e + 5, N), `_window`
        of the new state.  Returns (diverged, M^2(t + dt/2)), diverged when
        sup |u+| is not finite or exceeds `_SUP_GUARD` times the data scale.
        """
        bg, lam, p, c2, expo, st, buf = self.bg, self.lam, self.p, self.c2, self.expo, self.st, self.buf
        m, cur, t, a0, m0, tabs = self.m, self.cur, self.t, self.a, self.msq, self.tabs
        blk, u_rows, nxt = self.blocks[cur, :, 1:m + 1], self.u_views[cur][:, :m], self.blocks[1 - cur]
        nxt[4:, m + 1:self.extent[1 - cur] + 1] = 0.0  # what a wider window left two steps ago
        out, self.extent[1 - cur] = nxt[4:, 1:m + 1], m
        rows, prod, tmp = buf[:, :, :m], self.prod[:, :m], self.tmp[:m]
        ys, (y_lo, y_hi) = self.stage[:, 1:m + 1], self.views[:, :, :m]

        def accel(i, a, view, k):
            # k = folded rows i applied to a stage input + c^2 lam a^(-n(p-1)/2) |u|^p, pinned
            _apply(rows[i], view, prod, k)
            if lam != 0.0:
                np.power(np.abs(view[1], out=tmp), p, out=tmp)
                np.multiply(tmp, c2 * lam * a ** expo, out=tmp)
                k += tmp
            k[-1] = 0.0

        th, t1 = t + dt / 2.0, t + dt  # a and M^2 at the later stage times, which stages 2 and 3 share
        if bg.static:
            ah, a1, mh, m1, ih = a0, a0, m0, m0, 0
        else:
            ah, a1, mh, m1, ih = bg.a(th), bg.a(t1), bg.mass_sq(th), bg.mass_sq(t1), 1
            _fold(st, c2, ah, mh, rows[1])
        if dt != self.dt:
            self.dt = dt
            _tableau(dt, self.tab)
        accel(0, a0, u_rows, blk[3])
        if not bg.static:
            _fold(st, c2, a1, m1, buf[0, :, :m + 2])
        np.matmul(tabs[0], blk[3:], out=ys)  # Y3, Y2
        accel(ih, ah, y_hi, blk[2])
        accel(ih, ah, y_lo, blk[1])
        np.matmul(tabs[1], blk[2:], out=ys)  # Y4 beside Y3 again, as a product takes two rows
        accel(0, a1, y_lo, blk[0])
        np.matmul(tabs[2], blk, out=out)
        out[:, -1] = 0.0
        sup = float(np.maximum.reduce(np.abs(out, out=ys)[1]))
        floor, lo, e = _DUST_REL * self.scale, max(m - 8, 0), 0
        for a, b in ((lo, m), (0, lo)):  # the last node above floor moves about one node a step
            hits = (np.maximum(ys[0, a:b], ys[1, a:b]) > floor).nonzero()[0]
            if hits.size:
                e = a + int(hits[-1]) + 1
                break
        out[:, e:] = ys[:, e:] = 0.0
        self.t, self.a, self.msq, self.cur, self.m = t1, a1, m1, 1 - cur, min(e + 5, self.r.size)
        return not math.isfinite(sup) or sup > _SUP_GUARD * self.scale, mh


def step(params: CosmologyParams, lam: float, p: float, state: FieldState,
         dt: Optional[float] = None) -> FieldState:
    """One classical RK4 step of the first-order system (u, v), in Nystrom form.

    One `_Run.advance` of a run started from ``state``: the step `run_until`
    takes.  Only the first ``_window`` nodes are stepped and the rest are set
    to zero; each stepped node sees the same arithmetic as on the full grid,
    so the result equals a full-grid step bit for bit.  The outer node takes
    no velocity.  ``dt`` defaults to the CFL step `_cfl` at a(t).
    """
    if state.diverged:
        raise RuntimeError("cannot step a diverged state")
    run = _Run(background(params), lam, p, state)
    new = run.state(run.advance(_cfl(state.dr, run.a, params.c) if dt is None else dt)[0])
    new.u, new.v = new.u.copy(), new.v.copy()  # not views of the run's blocks
    return new


def support_radius(state: FieldState, scale: float) -> float:
    """Outermost radius where max(|u|, |v|) exceeds _SUPPORT_REL_TOL times ``scale``; 0 if none.

    Runs pass the running peak sup-norm as the scale: a centered
    second-order scheme sheds a dispersive precursor ahead of the true front
    whose absolute size is set by the data scale, so measuring against a
    decaying current sup would mistake that numerical dust for genuine
    support.
    """
    mag = np.maximum(np.abs(state.u), np.abs(state.v))
    idx = np.nonzero(mag > _SUPPORT_REL_TOL * scale)[0]
    return float(state.r[idx[-1]]) if idx.size else 0.0


def energy(state: FieldState, params: CosmologyParams) -> float:
    """Conserved energy of the linear (lam = 0) flow on a static background.

    E = 1/2 int (c^-2 v^2 + a0^-2 u_r^2 + m^2 u^2) n omega_n r^(n-1) dr.
    Only meaningful, and only allowed, on a static background.

    The gradient term is evaluated in summation-by-parts form,
    int u_r^2 r^(n-1) dr = -int u (Delta u) r^(n-1) dr for fields vanishing
    at the boundary, using the same discrete Laplacian that drives the time
    stepping.  This pairs the quadratic form with the semidiscrete flow that
    actually conserves it, so the reported drift reflects time integration
    error rather than finite-difference error in a separately reconstructed
    u_r.
    """
    if params.H != 0.0:
        raise ValueError("energy conservation only holds on a static background")
    r, u, v = state.r, state.u, state.v
    n = params.n
    weights = np.full_like(r, state.dr)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    radial = weights * r ** (n - 1)
    lap = radial_laplacian(u, r, n)
    quad = (v / params.c) ** 2 + params.m_sq * u ** 2
    total = np.sum(radial * quad) - np.sum(radial * u * lap) / params.a0 ** 2
    return float(0.5 * n * unit_ball_volume(n) * total)


def run_until(params: CosmologyParams, lam: float, p: float, state: FieldState, t_end: float,
              r0: float, output_interval: Optional[float] = None,
              keep_snapshots: bool = False) -> Diagnostics:
    """Advance with the CFL steps of `_cfl` to t_end, divergence, or the horizon cap.

    Diagnostics are recorded every ``output_interval`` (default t_end/200).
    The grid must cover the light cone r(t) at the last time, else ValueError.
    A cone-containment failure raises ConeViolationError: the numerical
    support must stay within r(t) + 2 dr.
    """
    bg = background(params, r0)
    t_cap = min(t_end, bg.t_end_cap)
    r_need = bg.r(t_cap)
    if state.r[-1] <= r_need:
        raise ValueError(
            f"outer radius {state.r[-1]} does not cover the light cone r({t_cap}) = {r_need}"
        )
    if output_interval is None:
        output_interval = t_cap / 200.0
    weights = _mean_weights(state.r, params.n)
    diag = Diagnostics()
    if keep_snapshots:
        diag.snapshot_grid = state.r.copy()
    linear_static = lam == 0.0 and params.H == 0.0
    mass_acc = peak_mag = 0.0

    def record(st: FieldState):
        # a diverged state gets no energy, is measured against the peak
        # before it, and its support is not checked against the cone
        nonlocal peak_mag
        live = not st.diverged
        sup = float(np.max(np.abs(st.u)))
        if live:
            peak_mag = max(peak_mag, sup, float(np.max(np.abs(st.v))))
        diag.t.append(st.t)
        diag.mean.append(float(weights @ st.u))
        diag.sup.append(sup)
        diag.energy.append(energy(st, params) if linear_static and live else math.nan)
        sr = support_radius(st, scale=peak_mag)
        rc = bg.r(st.t)
        diag.support_radius.append(sr)
        diag.cone_radius.append(rc)
        diag.mass_integral.append(mass_acc)
        if keep_snapshots:
            diag.snapshots.append((st.t, st.u.copy(), st.v.copy()))
        if live and sr > rc + 2.0 * st.dr:
            raise ConeViolationError(
                f"support radius {sr} exceeds cone radius {rc} + 2 dr at t = {st.t}"
            )

    record(state)
    next_record = output_interval
    diag.stop_reason = "t_end" if t_cap == t_end else "horizon"
    mass_u = float(weights @ np.abs(state.u))  # int |u| of the current state
    run, dr = _Run(bg, lam, p, state), state.dr
    while run.t < t_cap:
        m = run.m
        dt = min(_cfl(dr, run.a, bg.c), t_cap - run.t)
        diverged, m_mid = run.advance(dt)
        diag.steps += 1
        diag.node_steps += m
        # the |M^2 u| space-time integral by the midpoint rule, M^2 from the
        # step's stage at t + dt/2; |u+| is in the stage inputs
        mass_new = float(weights[:m] @ run.stage[1, 1:m + 1])
        mass_acc += dt * abs(m_mid) * (0.5 * (mass_u + mass_new))
        mass_u = mass_new
        if diverged:
            diag.diverged, diag.divergence_time, diag.stop_reason = True, run.t, "diverged"
            record(run.state(True))
            break
        if run.t >= next_record - 1e-12:
            record(run.state(False))
            next_record += output_interval
    if diag.t[-1] < run.t:  # a diverged run recorded its last state
        record(run.state(False))
    return diag
