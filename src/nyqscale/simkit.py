"""Independent time-domain and eigenvalue oracle: finite-dimensional
state-space realization of the closed-loop network (delays rationalized by
Pade), simulation, and the average/center-of-inertia frequency aggregates.

Simulation is exact on the linear path: the disturbances are piecewise
constant, so a zero-order-hold step built from the Van Loan block
exponential advances the state from record to record, with the pulse edges
as extra breakpoints. Fixed-step RK4 remains only for the nonlinear hydro
rate clamp.

This module deliberately shares no frequency-domain machinery with the
nyquist checks; agreement between the two routes is what the acceptance
suite certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import (
    DivergenceError,
    IntegratorConfigError,
    InvalidInputError,
    RealizationError,
)
from .lti import TransferFunction, pade_delay, tf_combine
from .network import PowerNetwork
from .powerplant import Agent

__all__ = [
    "StateSpaceModel",
    "SimulationResult",
    "Pulse",
    "realize_state_space",
    "simulate",
    "compute_aggregates",
    "pade_sensitivity",
]


def _ccf(tf: TransferFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Controllable canonical form of a proper rational function:
    (A, b, c, d) with y = c x + d u. Degree-0 denominators yield an empty
    state block (pure gain)."""
    if tf.delay_s:
        raise RealizationError("rationalize delays before realization")
    if not tf.is_proper:
        raise RealizationError("cannot realize an improper transfer function")
    den = tf.den.as_array()
    num = tf.num.as_array()
    lead = den[-1]
    den = den / lead
    num = num / lead
    m = len(den) - 1
    if len(num) - 1 == m and m >= 0:
        d0 = float(num[-1])
        num = num - d0 * den
        num = num[:-1]
    else:
        d0 = 0.0
        num = np.pad(num, (0, m - len(num)))
    A = np.zeros((m, m))
    for k in range(m - 1):
        A[k, k + 1] = 1.0
    if m:
        A[-1, :] = -den[:-1]
    b = np.zeros(m)
    if m:
        b[-1] = 1.0
    return A, b, num.astype(float), d0


@dataclass(frozen=True)
class _ActuatorBlock:
    bus: int
    name: str
    state_slice: slice
    c_local: np.ndarray
    d_local: float


@dataclass(frozen=True)
class StateSpaceModel:
    """Closed-loop realization dx/dt = A x + B d with outputs y = C x + D d.

    Output rows are ordered: angles (one per bus, Hz*s), frequencies (Hz),
    then actuator injections (MW, one per named actuator part; positive =
    power added to the bus). D is zero unless a zero-inertia agent or a
    relative-degree-one raw transfer function forces an input feedthrough
    on a frequency row.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    output_names: tuple[str, ...]
    state_roles: tuple[str, ...]
    n_buses: int
    inertia: np.ndarray
    laplacian: np.ndarray
    actuator_blocks: tuple[_ActuatorBlock, ...] = ()
    pade_order: int = 3

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "inertia", "laplacian"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)

    @property
    def delta_rows(self) -> np.ndarray:
        return self.C[: self.n_buses]

    @property
    def omega_rows(self) -> np.ndarray:
        return self.C[self.n_buses : 2 * self.n_buses]

    @property
    def omega_feedthrough(self) -> np.ndarray:
        return self.D[self.n_buses : 2 * self.n_buses]


def realize_state_space(
    net: PowerNetwork,
    agents: Sequence,
    pade_order: int = 3,
) -> StateSpaceModel:
    """Realize the closed loop delta = G(s)(d - L*delta) as one state-space
    system: per-agent canonical blocks coupled through -L on the angle
    outputs. Swing agents contribute (delta_i, omega_i) plus actuator
    states; zero-inertia agents are eliminated algebraically (their
    frequency becomes an output expression); raw transfer functions must be
    strictly proper.

    For connected lossless networks with no angle actuators the realization
    carries exactly one zero eigenvalue: the uniform angle-shift mode.
    """
    n = net.n
    if len(agents) != n:
        raise InvalidInputError("agent count must match bus count")
    L = net.laplacian

    blocks = []  # per agent: dict with local matrices
    for idx, a in enumerate(agents):
        if isinstance(a, Agent):
            blocks.append(_swing_block(a, idx, pade_order))
        elif isinstance(a, TransferFunction):
            blocks.append(_tf_block(a, idx, pade_order))
        else:
            raise InvalidInputError(
                f"agent {idx}: expected Agent or TransferFunction, got "
                f"{type(a).__name__}"
            )

    offsets = []
    total = 0
    for blk in blocks:
        offsets.append(total)
        total += blk["A"].shape[0]

    A_blk = np.zeros((total, total))
    B_blk = np.zeros((total, n))
    C_delta = np.zeros((n, total))
    Cw_loc = np.zeros((n, total))
    Dw_loc = np.zeros((n, n))
    roles: list[str] = []
    act_blocks: list[_ActuatorBlock] = []
    act_rows_loc: list[np.ndarray] = []
    act_feed_loc: list[np.ndarray] = []
    act_names: list[str] = []

    for idx, (blk, off) in enumerate(zip(blocks, offsets)):
        m = blk["A"].shape[0]
        sl = slice(off, off + m)
        A_blk[sl, sl] = blk["A"]
        B_blk[sl, idx] = blk["b"]
        C_delta[idx, sl] = blk["c_delta"]
        Cw_loc[idx, sl] = blk["c_omega"]
        Dw_loc[idx, idx] = blk["d_omega"]
        roles.extend(blk["roles"])
        for part in blk["actuators"]:
            row = np.zeros(total)
            row[sl] = part["c"]
            act_rows_loc.append(row)
            feed = np.zeros(n)
            feed[idx] = part["d"]
            act_feed_loc.append(feed)
            act_names.append(f"p_{part['name']}_bus{idx + 1}")
            act_blocks.append(
                _ActuatorBlock(
                    bus=idx,
                    name=part["name"],
                    state_slice=slice(off + part["lo"], off + part["hi"]),
                    c_local=part["c_block"],
                    d_local=part["d"],
                )
            )

    # close the loop: u = d - L delta
    A_cl = A_blk - B_blk @ L @ C_delta
    B_cl = B_blk
    # omega rows: omega = Cw_loc x + Dw_loc u
    C_omega = Cw_loc - Dw_loc @ L @ C_delta
    D_omega = Dw_loc
    # actuator rows measure y = F(s) omega; injection is -y
    C_act = np.zeros((len(act_rows_loc), total))
    D_act = np.zeros((len(act_rows_loc), n))
    for k, (row, feed) in enumerate(zip(act_rows_loc, act_feed_loc)):
        # y_k = c x + d_k * omega_bus, omega itself may be algebraic
        bus = act_blocks[k].bus
        C_act[k] = -(row + feed[bus] * C_omega[bus])
        D_act[k] = -(feed[bus] * D_omega[bus])

    C = np.vstack([C_delta, C_omega, C_act]) if len(act_rows_loc) else np.vstack(
        [C_delta, C_omega]
    )
    D = np.vstack([np.zeros((n, n)), D_omega, D_act]) if len(act_rows_loc) else np.vstack(
        [np.zeros((n, n)), D_omega]
    )
    names = (
        [f"delta_bus{i + 1}" for i in range(n)]
        + [f"f_bus{i + 1}" for i in range(n)]
        + act_names
    )
    inertia = np.array(
        [a.inertia if isinstance(a, Agent) else 0.0 for a in agents]
    )
    return StateSpaceModel(
        A=A_cl,
        B=B_cl,
        C=C,
        D=D,
        output_names=tuple(names),
        state_roles=tuple(roles),
        n_buses=n,
        inertia=inertia,
        laplacian=L,
        actuator_blocks=tuple(act_blocks),
        pade_order=pade_order,
    )


def _rationalized_parts(agent: Agent, pade_order: int):
    parts = []
    for f, name in zip(agent.f_parts, agent.f_part_names):
        if f.delay_s:
            f = tf_combine(
                "series",
                TransferFunction(f.num, f.den),
                pade_delay(f.delay_s, pade_order),
            )
        parts.append((name, f))
    return parts


def _swing_block(agent: Agent, idx: int, pade_order: int) -> dict:
    """Local realization of one swing agent with input u and outputs
    (delta, omega, actuator parts). State layout: [delta, (omega), F-part
    states..., R states...]."""
    parts = _rationalized_parts(agent, pade_order)
    sub = [( name, *_ccf(f)) for name, f in parts]
    use_R = not agent.angle_actuator.num.is_zero
    if use_R:
        A_R, b_R, c_R, d_R = _ccf(agent.angle_actuator)
    else:
        A_R = np.zeros((0, 0))
        b_R = np.zeros(0)
        c_R = np.zeros(0)
        d_R = 0.0
    d_total = agent.load_damping + sum(d for (_, _, _, _, d) in sub)
    M = agent.inertia
    has_omega_state = M > 0.0
    if not has_omega_state and d_total == 0.0:
        raise RealizationError(
            f"agent {idx}: zero inertia needs direct frequency damping "
            "(D or an actuator feedthrough) for algebraic elimination"
        )

    n_sub = sum(A.shape[0] for (_, A, _, _, _) in sub)
    m = 1 + (1 if has_omega_state else 0) + n_sub + A_R.shape[0]
    A = np.zeros((m, m))
    b = np.zeros(m)
    roles = [f"delta_bus{idx + 1}"]
    i_delta = 0
    pos = 1
    if has_omega_state:
        i_omega = pos
        roles.append(f"omega_bus{idx + 1}")
        pos += 1
    part_slices = []
    for name, As, bs, cs, ds in sub:
        k = As.shape[0]
        part_slices.append((name, pos, pos + k, cs, ds))
        roles.extend([f"{name}_bus{idx + 1}_x{j}" for j in range(k)])
        pos += k
    sl_R = slice(pos, pos + A_R.shape[0])
    roles.extend([f"R_bus{idx + 1}_x{j}" for j in range(A_R.shape[0])])

    c_delta = np.zeros(m)
    c_delta[i_delta] = 1.0
    sub_mats = [(A_s, b_s) for (_, A_s, b_s, _, _) in sub]

    if has_omega_state:
        # delta' = omega; M omega' = u - D omega - sum y_k - y_R
        A[i_delta, i_omega] = 1.0
        A[i_omega, i_omega] = -d_total / M
        for (A_s, b_s), (name, lo, hi, cs, ds) in zip(sub_mats, part_slices):
            A[i_omega, lo:hi] = -cs / M
            A[lo:hi, i_omega] = b_s
            A[lo:hi, lo:hi] = A_s
        if use_R:
            A[i_omega, sl_R] = -c_R / M
            A[i_omega, i_delta] += -d_R / M
            A[sl_R, sl_R] = A_R
            A[sl_R, i_delta] = b_R
        b[i_omega] = 1.0 / M
        c_omega = np.zeros(m)
        c_omega[i_omega] = 1.0
        d_omega = 0.0
    else:
        # algebraic: omega = (u - sum c x - y_R)/d_total
        kappa = d_total
        c_omega = np.zeros(m)
        for name, lo, hi, cs, ds in part_slices:
            c_omega[lo:hi] = -cs / kappa
        if use_R:
            c_omega[sl_R] = -c_R / kappa
            c_omega[i_delta] += -d_R / kappa
        d_omega = 1.0 / kappa
        # delta' = omega; part states driven by omega
        A[i_delta, :] = c_omega
        b[i_delta] = d_omega
        for (A_s, b_s), (name, lo, hi, cs, ds) in zip(sub_mats, part_slices):
            A[lo:hi, lo:hi] = A_s
            A[lo:hi, :] += np.outer(b_s, c_omega)
            b[lo:hi] = b_s * d_omega
        if use_R:
            A[sl_R, sl_R] = A_R
            A[sl_R, i_delta] = b_R

    actuators = []
    for name, lo, hi, cs, ds in part_slices:
        actuators.append(
            {
                "name": name,
                "lo": lo,
                "hi": hi,
                "c_block": cs,
                "d": ds,
                "c": _scatter(m, lo, hi, cs),
            }
        )
    return {
        "A": A,
        "b": b,
        "c_delta": c_delta,
        "c_omega": c_omega,
        "d_omega": d_omega,
        "roles": roles,
        "actuators": actuators,
    }


def _scatter(m, lo, hi, cs):
    row = np.zeros(m)
    row[lo:hi] = cs
    return row


def _tf_block(g: TransferFunction, idx: int, pade_order: int) -> dict:
    """Local realization of a raw transfer-function agent u -> delta."""
    if g.delay_s:
        g = tf_combine(
            "series", TransferFunction(g.num, g.den), pade_delay(g.delay_s, pade_order)
        )
    if not g.is_strictly_proper:
        raise RealizationError(
            f"agent {idx}: raw transfer-function agents must be strictly "
            "proper (angle cannot feed through instantaneously)"
        )
    A, b, c, d0 = _ccf(g)
    m = A.shape[0]
    # omega = delta' = c(Ax + bu)
    c_omega = c @ A
    d_omega = float(c @ b)
    return {
        "A": A,
        "b": b,
        "c_delta": c,
        "c_omega": c_omega,
        "d_omega": d_omega,
        "roles": [f"g_bus{idx + 1}_x{j}" for j in range(m)],
        "actuators": [],
    }


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pulse:
    """Rectangular power disturbance at one bus: amplitude_mw from t_start_s
    until t_end_s (None = sustained)."""

    bus: int
    amplitude_mw: float
    t_start_s: float = 0.0
    t_end_s: float | None = None


@dataclass(frozen=True)
class SimulationResult:
    """Fixed-step simulation traces (strictly increasing time grid)."""

    time_s: np.ndarray
    frequency_hz: np.ndarray  # (n_buses, T)
    tie_flow_mw: np.ndarray  # (n_buses, T): rows of L @ delta
    actuator_mw: Mapping[str, np.ndarray]
    omega_avg_hz: np.ndarray
    omega_coi_hz: np.ndarray
    diverged_at_s: float | None = None

    def __post_init__(self):
        t = np.asarray(self.time_s, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("time grid must be strictly increasing")
        lengths = {arr.shape[-1] for arr in (
            self.frequency_hz, self.tie_flow_mw, self.omega_avg_hz,
            self.omega_coi_hz)}
        lengths.add(len(t))
        if len(lengths) != 1:
            raise InvalidInputError("trace lengths must agree")

    @property
    def peak_avg_deviation_hz(self) -> float:
        return float(np.abs(self.omega_avg_hz).max())

    def summary_dict(self) -> dict:
        tail = max(1, len(self.time_s) // 20)
        return {
            "settling_value_hz": float(self.omega_avg_hz[-tail:].mean()),
            "peak_deviation_hz": self.peak_avg_deviation_hz,
            "max_abs_tie_flow_mw": float(np.abs(self.tie_flow_mw).max()),
            "omega_avg_final_hz": float(self.omega_avg_hz[-1]),
            "omega_coi_final_hz": float(self.omega_coi_hz[-1]),
            "diverged_at_s": self.diverged_at_s,
        }


def simulate(
    model: StateSpaceModel,
    disturbance: Sequence[Pulse],
    t_end: float,
    dt: float = 1e-3,
    x0: np.ndarray | None = None,
    rate_limiter: bool = False,
    rate_limits_mw_per_s: Mapping[int, float] | None = None,
    record_decimation: int = 1,
) -> SimulationResult:
    """Simulate the closed loop from ``x0`` (default zero) under ``disturbance``.

    States are recorded at t = j*dt for every multiple j of
    ``record_decimation`` and at the last step, j = round(t_end/dt).

    Without a binding rate limit (``rate_limiter`` off, or no hydro bound
    given) the system is linear and the pulses piecewise constant, so the
    records are the exact zero-order-hold solution: each step between
    records, split at the pulse edges, applies x <- Phi x + Gamma d with
    [[Phi, Gamma], [0, I]] = expm([[A h, B h], [0, 0]]) (Van Loan 1978),
    computed once per distinct step length h. ``dt`` then only sets the
    record grid.

    With the hydro servo rate limiter the named actuator blocks' state
    derivatives are clamped so the actuator output rate stays within the
    per-bus MW/s bound. That is nonlinear, and classical fixed-step RK4 at
    ``dt`` integrates it, with the disturbance taken at each step's midpoint.
    The clamp is off in all oracle comparisons.

    Preconditions on both paths: dt <= 0.1/|lambda_max(A)| (the explicit
    integrator's stability margin), else IntegratorConfigError. A state that
    stops being finite raises DivergenceError: on the linear path at the
    first such record, under the clamp within 200 steps.
    """
    if not (0 < t_end < math.inf and 0 < dt < math.inf) or record_decimation < 1:
        raise InvalidInputError(
            "need finite positive t_end and dt, and record_decimation >= 1"
        )
    lam_max = float(np.abs(model.eigenvalues).max())
    if lam_max > 0 and dt > 0.1 / lam_max:
        raise IntegratorConfigError(
            f"dt = {dt:.3g} s exceeds the stability margin "
            f"0.1/|lambda_max| = {0.1 / lam_max:.3g} s"
        )
    n = model.n_buses
    for p in disturbance:
        if not (0 <= p.bus < n):
            raise InvalidInputError(f"disturbance bus {p.bus} out of range")

    def d_of(t: float) -> np.ndarray:
        d = np.zeros(n)
        for p in disturbance:
            if t >= p.t_start_s and (p.t_end_s is None or t < p.t_end_s):
                d[p.bus] += p.amplitude_mw
        return d

    limits = []
    if rate_limiter:
        for blk in model.actuator_blocks:
            bound = None
            if rate_limits_mw_per_s and blk.bus in rate_limits_mw_per_s:
                bound = rate_limits_mw_per_s[blk.bus]
            if bound is not None and blk.name == "hydro":
                limits.append((blk.state_slice, blk.c_local, float(bound)))

    steps = int(round(t_end / dt))
    x = np.zeros(model.n_states) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (model.n_states,):
        raise InvalidInputError("x0 has wrong dimension")

    idx = np.arange(0, steps + 1, record_decimation)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    T = idx * dt
    if limits:
        X = _rk4_records(model, x, d_of, limits, dt, idx)
    else:
        edges = {p.t_start_s for p in disturbance}
        edges |= {p.t_end_s for p in disturbance if p.t_end_s is not None}
        X = _zoh_records(model, x, d_of, dt, T, edges)

    X = X.T  # (n_states, T)
    Dm = np.array([d_of(t) for t in T.tolist()]).T  # (n, T)
    delta = model.delta_rows @ X
    freq = model.omega_rows @ X + model.omega_feedthrough @ Dm
    tie = model.laplacian @ delta
    act = {}
    rows = model.C[2 * n :]
    feeds = model.D[2 * n :]
    for name, row, feed in zip(model.output_names[2 * n :], rows, feeds):
        act[name] = row @ X + feed @ Dm
    avg, coi = _aggregate(freq, model.inertia)
    return SimulationResult(
        time_s=T,
        frequency_hz=freq,
        tie_flow_mw=tie,
        actuator_mw=act,
        omega_avg_hz=avg,
        omega_coi_hz=coi,
    )


def _zoh_step(A: np.ndarray, B: np.ndarray, h: float):
    """(Phi, Gamma) of the exact zero-order-hold step over h."""
    n_x, n_u = B.shape
    blk = np.zeros((n_x + n_u, n_x + n_u))
    blk[:n_x, :n_x] = A * h
    blk[:n_x, n_x:] = B * h
    E = expm(blk)
    return E[:n_x, :n_x].copy(), E[:n_x, n_x:].copy()


def _zoh_records(model, x, d_of, dt, T, edges) -> np.ndarray:
    """States at the record times T, stepped exactly with the pulse edges
    inside (0, T[-1]) as breakpoints; DivergenceError at the first record
    that is not finite."""
    grid = np.union1d(T, [e for e in edges if 0 < e < T[-1]])
    # in units of dt the step lengths between records differ only in their
    # last bits, so rounding leaves one expm per distinct length
    units, which = np.unique(np.round(np.diff(grid) / dt, 9), return_inverse=True)
    steps = [_zoh_step(model.A, model.B, u * dt) for u in units]
    mids = 0.5 * (grid[:-1] + grid[1:])
    is_record = np.isin(grid[1:], T)
    X = np.empty((len(T), len(x)))
    X[0] = x
    r = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t, rec in zip(which.tolist(), mids.tolist(), is_record.tolist()):
            phi, gam = steps[k]
            x = phi @ x + gam @ d_of(t)
            if rec:
                X[r] = x
                r += 1
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise DivergenceError(float(T[np.argmax(bad)]))
    return X


def _rk4_records(model, x, d_of, limits, dt, idx) -> np.ndarray:
    """Classical RK4 with the rate clamp, states at the steps in idx."""
    A, B = model.A, model.B

    def deriv(x: np.ndarray, bd: np.ndarray) -> np.ndarray:
        dx = A @ x + bd
        for sl, c_loc, bound in limits:
            rate = float(c_loc @ dx[sl])
            if abs(rate) > bound:
                dx[sl] *= bound / abs(rate)
        return dx

    steps = int(idx[-1])
    record = set(idx.tolist())
    X = [x.copy()]
    t = 0.0
    for k in range(steps):
        bd = B @ d_of((k + 0.5) * dt)
        k1 = deriv(x, bd)
        k2 = deriv(x + dt / 2 * k1, bd)
        k3 = deriv(x + dt / 2 * k2, bd)
        k4 = deriv(x + dt * k3, bd)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (k + 1) * dt
        if k % 200 == 0 and not np.all(np.isfinite(x)):
            raise DivergenceError(t)
        if k + 1 in record:
            X.append(x.copy())
    if not np.all(np.isfinite(x)):
        raise DivergenceError(t)
    return np.array(X)


def _aggregate(freq: np.ndarray, inertia: np.ndarray):
    avg = freq.mean(axis=0)
    M = float(inertia.sum())
    coi = (inertia[:, None] * freq).sum(axis=0) / M if M > 0 else np.full_like(avg, np.nan)
    return avg, coi


def compute_aggregates(result: SimulationResult, agents: Sequence[Agent]):
    """(omega_avg, omega_COI) traces from per-bus frequencies: the plain
    average and the inertia-weighted center-of-inertia frequency."""
    M = np.array([a.inertia if isinstance(a, Agent) else 0.0 for a in agents])
    if M.sum() <= 0:
        raise InvalidInputError("omega_COI undefined: total inertia is zero")
    avg, coi = _aggregate(result.frequency_hz, M)
    return avg, coi


def pade_sensitivity(
    net: PowerNetwork,
    agents: Sequence,
    orders: tuple[int, int] = (3, 5),
    re_floor: float = -2.0,
    mod_ceiling: float = 20.0,
) -> dict:
    """Relative movement of verdict-relevant closed-loop eigenvalues between
    two Pade orders. "Verdict-relevant" = Re >= re_floor and |lambda| <=
    mod_ceiling (near-axis, in-band modes; fast Pade artifacts excluded).
    Returns {max_rel_change, flagged} with flagged = change >= 1e-3.
    """
    ev = []
    for q in orders:
        ev.append(realize_state_space(net, agents, pade_order=q).eigenvalues)
    base, other = ev
    sel = base[(base.real >= re_floor) & (np.abs(base) <= mod_ceiling)]
    worst = 0.0
    for lam in sel:
        d = np.abs(other - lam).min()
        worst = max(worst, d / max(abs(lam), 1e-6))
    return {"max_rel_change": worst, "flagged": bool(worst >= 1e-3)}
