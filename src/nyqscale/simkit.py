"""Independent time-domain and eigenvalue oracle: finite-dimensional
state-space realization of the closed-loop network (delays rationalized by
Pade), simulation, and the average/center-of-inertia frequency aggregates.

Simulation is exact on the linear path: the disturbances are piecewise
constant, so a zero-order-hold step built from the Van Loan block
exponential advances the state from record to record, with the pulse edges
as extra breakpoints. Runs of equal steps under one disturbance advance up
to 200 records at a time through one stacked map of the step's powers.
Fixed-step RK4 remains only for the nonlinear hydro rate clamp. Wherever
all four stage rates of a step stay within the bounds, that RK4 step is a
fixed linear map, applied to blocks of up to 200 steps at once through the
same kind of stack; only the steps where the clamp binds run stage by stage,
in one buffer that holds the state and its four stage derivatives. Each
stage is one matvec on that buffer that yields the derivative and the rates
to clamp together, and the new state is one more.

SciPy's ``expm`` is the module's only SciPy call, and it is imported inside
``_zoh_step`` on the first simulation: ``nyqscale.cli`` imports this module,
and importing scipy.linalg at the top would add about 0.3 s to every
``analyze`` and ``export-loci`` process, which never simulate.

This module deliberately shares no frequency-domain machinery with the
nyquist checks; agreement between the two routes is what the acceptance
suite certifies.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DivergenceError,
    IntegratorConfigError,
    InvalidInputError,
    RealizationError,
)
from .lti import PADE_ORDER, TransferFunction
from .network import PowerNetwork
from .powerplant import Agent

__all__ = [
    "StateSpaceModel",
    "SimulationResult",
    "Pulse",
    "realize_state_space",
    "simulate",
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
    pade_order: int = PADE_ORDER,
) -> StateSpaceModel:
    """Realize the closed loop delta = G(s)(d - L*delta) as one state-space
    system: per-agent canonical blocks coupled through -L on the angle
    outputs. Swing agents contribute (delta_i, omega_i) plus actuator
    states; zero-inertia agents are eliminated algebraically (their
    frequency becomes an output expression); raw transfer functions must be
    strictly proper.

    For connected lossless networks the realization carries exactly one
    zero eigenvalue: the uniform angle-shift mode.
    """
    n = net.n
    if len(agents) != n:
        raise InvalidInputError("agent count must match bus count")
    L = net.laplacian

    blocks = []  # per agent: (A, b, c_delta, c_omega, d_omega, roles, parts)
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

    total = sum(len(blk[1]) for blk in blocks)
    n_act = sum(len(blk[6]) for blk in blocks)
    A_blk = np.zeros((total, total))
    B_blk = np.zeros((total, n))
    C_delta = np.zeros((n, total))
    Cw_loc = np.zeros((n, total))
    Dw_loc = np.zeros((n, n))
    C_act = np.zeros((n_act, total))  # each part's c, scattered to its states
    d_act = np.zeros(n_act)  # each part's feedthrough from its bus frequency
    roles: list[str] = []
    act_blocks: list[_ActuatorBlock] = []

    off = 0
    for idx, (A, b, c_delta, c_omega, d_omega, blk_roles, parts) in enumerate(blocks):
        sl = slice(off, off + len(b))
        A_blk[sl, sl] = A
        B_blk[sl, idx] = b
        C_delta[idx, sl] = c_delta
        Cw_loc[idx, sl] = c_omega
        Dw_loc[idx, idx] = d_omega
        roles.extend(blk_roles)
        for name, lo, hi, c, d, _, _ in parts:
            k = len(act_blocks)
            C_act[k, off + lo : off + hi] = c
            d_act[k] = d
            act_blocks.append(_ActuatorBlock(
                bus=idx, name=name, state_slice=slice(off + lo, off + hi), c_local=c))
        off = sl.stop

    # close the loop: u = d - L delta
    A_cl = A_blk - B_blk @ L @ C_delta
    # omega rows: omega = Cw_loc x + Dw_loc u
    C_omega = Cw_loc - Dw_loc @ L @ C_delta
    # actuator rows measure y_k = c x + d_k omega_bus, where omega itself may
    # be algebraic; the injection is -y_k
    buses = [blk.bus for blk in act_blocks]
    C = np.vstack([C_delta, C_omega, -(C_act + d_act[:, None] * C_omega[buses])])
    D = np.vstack([np.zeros((n, n)), Dw_loc, -(d_act[:, None] * Dw_loc[buses])])
    names = (
        [f"delta_bus{i + 1}" for i in range(n)]
        + [f"f_bus{i + 1}" for i in range(n)]
        + [f"p_{blk.name}_bus{blk.bus + 1}" for blk in act_blocks]
    )
    inertia = np.array(
        [a.inertia if isinstance(a, Agent) else 0.0 for a in agents]
    )
    return StateSpaceModel(
        A=A_cl,
        B=B_blk,
        C=C,
        D=D,
        output_names=tuple(names),
        state_roles=tuple(roles),
        n_buses=n,
        inertia=inertia,
        laplacian=L,
        actuator_blocks=tuple(act_blocks),
    )


def _swing_block(agent: Agent, idx: int, pade_order: int) -> tuple:
    """Local realization of one swing agent with input u and outputs
    (delta, omega, actuator parts), as (A, b, c_delta, c_omega, d_omega,
    roles, parts) with one (name, lo, hi, c, d, A_s, b_s) per actuator part.
    State 0 is delta, state 1 is omega when M > 0, and the part states
    follow."""
    M = agent.inertia
    has_omega_state = M > 0.0
    roles = [f"delta_bus{idx + 1}"]
    if has_omega_state:
        roles.append(f"omega_bus{idx + 1}")
    parts = []
    pos = len(roles)
    for f, name in zip(agent.f_parts, agent.f_part_names):
        A_s, b_s, c, d = _ccf(f.rational(pade_order))
        k = len(b_s)
        parts.append((name, pos, pos + k, c, d, A_s, b_s))
        roles.extend([f"{name}_bus{idx + 1}_x{j}" for j in range(k)])
        pos += k
    d_total = agent.load_damping + sum(part[4] for part in parts)
    if not has_omega_state and d_total == 0.0:
        raise RealizationError(
            f"agent {idx}: zero inertia needs direct frequency damping "
            "(D or an actuator feedthrough) for algebraic elimination"
        )

    m = pos
    A = np.zeros((m, m))
    b = np.zeros(m)
    c_delta = np.zeros(m)
    c_delta[0] = 1.0
    c_omega = np.zeros(m)
    if has_omega_state:
        # delta' = omega; M omega' = u - D omega - sum y_k
        A[0, 1] = 1.0
        A[1, 1] = -d_total / M
        for _, lo, hi, c, _, A_s, b_s in parts:
            A[1, lo:hi] = -c / M
            A[lo:hi, 1] = b_s
            A[lo:hi, lo:hi] = A_s
        b[1] = 1.0 / M
        c_omega[1] = 1.0
        d_omega = 0.0
    else:
        # algebraic: omega = (u - sum c x)/d_total
        for _, lo, hi, c, _, _, _ in parts:
            c_omega[lo:hi] = -c / d_total
        d_omega = 1.0 / d_total
        # delta' = omega; part states driven by omega
        A[0, :] = c_omega
        b[0] = d_omega
        for _, lo, hi, _, _, A_s, b_s in parts:
            A[lo:hi, lo:hi] = A_s
            A[lo:hi, :] += np.outer(b_s, c_omega)
            b[lo:hi] = b_s * d_omega
    return A, b, c_delta, c_omega, d_omega, roles, parts


def _tf_block(g: TransferFunction, idx: int, pade_order: int) -> tuple:
    """Local realization of a raw transfer-function agent u -> delta, in
    _swing_block's layout, with no actuator parts."""
    g = g.rational(pade_order)
    if not g.is_strictly_proper:
        raise RealizationError(
            f"agent {idx}: raw transfer-function agents must be strictly "
            "proper (angle cannot feed through instantaneously)"
        )
    A, b, c, d0 = _ccf(g)
    # omega = delta' = c(Ax + bu)
    roles = [f"g_bus{idx + 1}_x{j}" for j in range(len(b))]
    return A, b, c, c @ A, float(c @ b), roles, []


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

    def __post_init__(self):
        if not (math.isfinite(self.amplitude_mw) and math.isfinite(self.t_start_s)):
            raise InvalidInputError("pulse needs a finite amplitude and start time")
        if self.t_end_s is not None and not (self.t_end_s > self.t_start_s):
            raise InvalidInputError("pulse needs t_end_s > t_start_s")


@dataclass(frozen=True)
class SimulationResult:
    """Fixed-step simulation traces (strictly increasing time grid)."""

    time_s: np.ndarray
    frequency_hz: np.ndarray  # (n_buses, T)
    tie_flow_mw: np.ndarray  # (n_buses, T): rows of L @ delta
    actuator_mw: Mapping[str, np.ndarray]
    omega_avg_hz: np.ndarray
    omega_coi_hz: np.ndarray

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
            # a diverged run raises DivergenceError instead of returning
            "diverged_at_s": None,
        }


def simulate(
    model: StateSpaceModel,
    disturbance: Sequence[Pulse],
    t_end: float,
    dt: float = 1e-3,
    x0: np.ndarray | None = None,
    rate_limits_mw_per_s: Mapping[int, float] | None = None,
    record_decimation: int = 1,
) -> SimulationResult:
    """Simulate the closed loop from ``x0`` (default zero) under ``disturbance``.

    States are recorded at t = j*dt for every multiple j of
    ``record_decimation`` and at the last step, j = round(t_end/dt).

    Without a hydro rate bound (``rate_limits_mw_per_s`` None, empty, or
    naming no bus with a hydro block) the system is linear and the pulses
    piecewise constant, so the records are the exact zero-order-hold
    solution: each step between records, split at the pulse edges, applies
    x <- Phi x + Gamma d with
    [[Phi, Gamma], [0, I]] = expm([[A h, B h], [0, 0]]) (Van Loan 1978),
    computed once per distinct step length h. Runs of equal steps under
    one d advance in blocks through the stacked powers [Phi^j | S_j], so
    records can differ from one-step-at-a-time stepping in the last bits.
    ``dt`` then only sets the record grid.

    Given ``rate_limits_mw_per_s``, the hydro actuator blocks of the listed
    buses have their state derivatives clamped so the actuator output rate
    stays within the bus's MW/s bound (one below 0, or NaN, raises
    InvalidInputError).
    That is nonlinear, and classical fixed-step RK4 at ``dt`` integrates
    it, with the disturbance taken at each step's midpoint.
    A step whose four stage rates all lie within the bounds is the linear
    RK4 map x <- P x + Q B d; such steps advance in blocks of up to 200
    through one precomputed matrix, and the steps where the clamp binds run
    stage by stage, with the clamp tested at every stage for every bound.
    Each stage is one matvec on a buffer of the state and its four stage
    derivatives. Each pulse edge's first step is found from the edge itself,
    so memory grows with the records, not with the steps. The clamp is off
    in all oracle comparisons.

    Under the clamp, dt <= 0.1/|lambda_max(A)| (RK4's stability margin),
    else IntegratorConfigError; the linear path is exact at any dt. A state
    that stops being finite raises DivergenceError: on the linear path at
    the first such record; under the clamp at the end of the block that
    produced it, or, among steps run stage by stage, at the next step that
    is a multiple of 200 or the last one, so within 200 steps.
    """
    if not (0 < t_end < math.inf and 0 < dt < math.inf) or record_decimation < 1:
        raise InvalidInputError(
            "need finite positive t_end and dt, and record_decimation >= 1"
        )
    n = model.n_buses
    for p in disturbance:
        if not (0 <= p.bus < n):
            raise InvalidInputError(f"disturbance bus {p.bus} out of range")

    limits = []
    for blk in model.actuator_blocks:
        bound = (rate_limits_mw_per_s or {}).get(blk.bus)
        if bound is not None and blk.name == "hydro":
            if not bound >= 0:
                raise InvalidInputError(
                    f"rate limit of bus {blk.bus} must be >= 0 MW/s, got {bound}")
            limits.append((blk.state_slice, blk.c_local, float(bound)))

    steps = int(round(t_end / dt))
    x = np.zeros(model.n_states) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (model.n_states,):
        raise InvalidInputError("x0 has wrong dimension")

    idx = np.arange(0, steps + 1, record_decimation)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    T = idx * dt
    edges, rows = _disturbance_rows(disturbance, n)
    if limits:
        lam_max = float(np.abs(model.eigenvalues).max())
        if lam_max > 0 and dt > 0.1 / lam_max:
            raise IntegratorConfigError(
                f"dt = {dt:.3g} s exceeds the stability margin "
                f"0.1/|lambda_max| = {0.1 / lam_max:.3g} s"
            )
        X = _rk4_records(model, x, rows, _segment_starts(edges, dt, steps), limits,
                         dt, idx)
    else:
        X = _zoh_records(model, x, edges, rows, dt, T)

    X = X.T  # (n_states, T)
    Dm = rows[np.searchsorted(edges, T, side="right")].T  # (n, T)
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
    """(Phi, Gamma) of the exact zero-order-hold step over h.

    SciPy is imported here, on the first simulation, rather than with the
    module: importing scipy.linalg costs about 0.3 s, which every
    ``analyze`` and ``export-loci`` call would otherwise pay for nothing."""
    from scipy.linalg import expm

    n_x, n_u = B.shape
    blk = np.zeros((n_x + n_u, n_x + n_u))
    blk[:n_x, :n_x] = A * h
    blk[:n_x, n_x:] = B * h
    E = expm(blk)
    return E[:n_x, :n_x].copy(), E[:n_x, n_x:].copy()


def _disturbance_rows(pulses: Sequence[Pulse], n: int):
    """The piecewise-constant disturbance as a table: the sorted distinct
    pulse edges, and one row of d per interval between them (row 0 before
    the first edge), so d(t) = rows[searchsorted(edges, t, side="right")].
    Each row adds its active pulses in their given order."""
    edges = np.unique(
        [p.t_start_s for p in pulses]
        + [p.t_end_s for p in pulses if p.t_end_s is not None]
    )
    left = np.concatenate(([-math.inf], edges))  # a time in each interval
    rows = np.zeros((len(left), n))
    for p in pulses:
        on = left >= p.t_start_s
        if p.t_end_s is not None:
            on &= left < p.t_end_s
        rows[on, p.bus] += p.amplitude_mw
    return edges, rows


def _segment_starts(edges: np.ndarray, dt: float, steps: int) -> list[int]:
    """For each pulse edge, the first step k in [0, steps] whose midpoint
    (k + 0.5) dt lies at or after it (steps if none does), so that step k
    takes rows[bisect_right(starts, k)], which is
    rows[searchsorted(edges, (k + 0.5) * dt, side="right")]."""
    starts = []
    for t in edges.tolist():
        q = t / dt - 0.5
        k = 0 if q <= 0 else steps if q >= steps else math.ceil(q)
        # the rounded quotient can be one step off the rounded midpoints
        while k > 0 and (k - 0.5) * dt >= t:
            k -= 1
        while k < steps and (k + 0.5) * dt < t:
            k += 1
        starts.append(k)
    return starts


def _zoh_records(model, x, edges, rows, dt, T) -> np.ndarray:
    """States at the record times T, stepped exactly with the pulse edges
    inside (0, T[-1]) as breakpoints; DivergenceError at the first record
    that is not finite.

    Within a run of equal steps under one d, the state after j steps is
    [Phi^j | S_j] (x, d), so a run advances up to _BLOCK_STEPS steps at a
    time through one stacked map of at most _ZOH_STACK_DOUBLES entries,
    built once per step length, and its records go straight into X."""
    grid = np.union1d(T, edges[(edges > 0) & (edges < T[-1])])
    # in units of dt the step lengths between records differ only in their
    # last bits, so rounding leaves one expm per distinct length
    units, which = np.unique(np.round(np.diff(grid) / dt, 9), return_inverse=True)
    seg = np.searchsorted(edges, 0.5 * (grid[:-1] + grid[1:]), side="right")
    is_record = np.isin(grid[1:], T)
    # runs of equal steps under one d: where either changes, and both ends
    bounds = np.flatnonzero(np.diff(which, prepend=-1, append=-1)
                            | np.diff(seg, prepend=-1, append=-1))
    n_x, n_d = model.B.shape
    cap = min(_BLOCK_STEPS, max(1, _ZOH_STACK_DOUBLES // (n_x * (n_x + n_d))))
    longest = np.zeros(len(units), dtype=int)
    np.maximum.at(longest, which[bounds[:-1]], np.diff(bounds))
    bounds = bounds.tolist()
    stacks = {}
    X = np.empty((len(T), n_x))
    X[0] = x
    r = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(bounds[:-1], bounds[1:]):
            k = int(which[a])
            if k not in stacks:
                stack = np.empty((min(cap, int(longest[k])), n_x, n_x + n_d))
                J = _fill_powers(*_zoh_step(model.A, model.B, units[k] * dt), stack)
                stacks[k] = stack[:J].reshape(J * n_x, n_x + n_d)
            stack = stacks[k]
            J = len(stack) // n_x
            d = rows[seg[a]]
            for lo in range(a, b, J):
                hi = min(lo + J, b)
                Y = (stack[: (hi - lo) * n_x] @ np.concatenate((x, d))).reshape(hi - lo, n_x)
                x = Y[-1]
                rec = is_record[lo:hi]
                r1 = r + int(rec.sum())
                X[r:r1] = Y[rec]
                r = r1
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise DivergenceError(float(T[np.argmax(bad)]))
    return X


_BLOCK_STEPS = 200  # steps per stacked linear block, and per divergence check
_STACK_DOUBLES = 1 << 22  # size cap of the clamped path's stacked map (32 MiB)
_ZOH_STACK_DOUBLES = 1 << 17  # size cap of a linear path's stacked map (1 MiB)


def _fill_powers(P: np.ndarray, S: np.ndarray, out: np.ndarray) -> int:
    """Fill out[j] = [P^(j+1) | S_(j+1)], the map from (x, d) to the state
    after j + 1 steps of x <- P x + S d, and return how many entries were
    filled: all of them, unless some power stops being finite, in which case
    the fill ends before it (out[0] is always filled). A truncated stack
    keeps a zero state at zero where a product with an overflowed power
    would turn it into nan."""
    n_x = len(P)
    Pj, Sj = np.eye(n_x), np.zeros(S.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(out)):
            Pj, Sj = P @ Pj, P @ Sj + S
            if j and not (np.isfinite(Pj).all() and np.isfinite(Sj).all()):
                return j
            out[j, :, :n_x] = Pj
            out[j, :, n_x:] = Sj
    return len(out)


def _rk4_records(model, x, rows, starts, limits, dt, idx) -> np.ndarray:
    """Classical RK4 with the rate clamp, states at the steps in idx.

    Step k takes the disturbance d = rows[bisect_right(starts, k)] (see
    _segment_starts). Where all four stage rates of a step lie within the
    bounds, the step is the linear map x <- P x + Q B d with P = R4(dt A),
    the RK4 stability polynomial. Runs of such steps advance in blocks of
    up to 200 through one stacked map that also yields each step's stage
    rates. A block stops before d changes or at the first step whose rates
    leave the bounds; from that step on, steps run stage by stage with the
    clamp until one of them clamps nothing.

    A stage-by-stage step works in one buffer Z = [x | 1 | k1 | k2 | k3 | k4].
    Stage m's derivative and rates are one matvec M[m] Z, where M[m] holds
    [A; Cr A] on x, c_m [A; Cr A] on the previous stage's k (c = dt/2,
    dt/2, dt) and [B d; Cr B d] on the 1; that column is rewritten only
    when d changes. The clamp factors are computed from the rates as Python
    floats, and the derivative, scaled by them when some factor is below 1,
    goes straight into its slot of Z. The new state is one matvec N Z with
    N = [I | 0 | dt/6 (1, 2, 2, 1) (x) I]. DivergenceError at the end of a
    block that leaves a state that is not finite, and at every 200th step
    and the last step when run stage by stage, so within 200 steps of the
    first such state.
    """
    A, B = model.A, model.B
    n_x, n_d = B.shape
    eye = np.eye(n_x)
    # on the linear path stage m's derivative is K[m] x + L[m] B d
    K, L = [A], [eye]
    for c in (dt / 2, dt / 2, dt):
        K.append(A + c * A @ K[-1])
        L.append(eye + c * A @ L[-1])
    P = eye + dt / 6 * (K[0] + 2 * K[1] + 2 * K[2] + K[3])
    QB = dt / 6 * (L[0] + 2 * L[1] + 2 * L[2] + L[3]) @ B

    n_l = len(limits)
    bounds = np.array([bound for _, _, bound in limits])
    Cr = np.zeros((n_l, n_x))
    # the limit that owns each state; n_l, whose factor is always 1, for the rest
    who = np.full(n_x, n_l)
    for i, (sl, c_loc, _) in enumerate(limits):
        Cr[i, sl] = c_loc
        who[sl] = i

    # the stage rates of one linear step from x are G x + g d
    G = np.vstack([Cr @ Km for Km in K])
    g = np.vstack([Cr @ Lm for Lm in L]) @ B
    limit = np.tile(bounds, 4)
    n_g = len(G)
    w = n_g + n_x
    n_blk = min(_BLOCK_STEPS, max(1, _STACK_DOUBLES // (w * (n_x + n_d))))
    # row block j maps (x, d) to [stage rates of step j; state after step j]
    # for a block that starts at x under a constant d
    stack = np.empty((n_blk, w, n_x + n_d))
    n_blk = _fill_powers(P, QB, stack[:, n_g:])
    stack = stack[:n_blk]
    for j in range(n_blk):  # the rates of step j + 1 come from x_j = Pj x + Sj d
        Pj, Sj = (eye, np.zeros((n_x, n_d))) if j == 0 else (
            stack[j - 1, n_g:, :n_x], stack[j - 1, n_g:, n_x:])
        stack[j, :n_g, :n_x] = G @ Pj
        stack[j, :n_g, n_x:] = G @ Sj + g
    stack = stack.reshape(n_blk * w, n_x + n_d)

    # stage by stage, Z = [x | 1 | k1 | k2 | k3 | k4] holds the step's state
    # and its clamped stage derivatives: M[0] Z is [derivative; rates] at x,
    # and M[m] Z at x + c_m k_m for m = 1, 2, 3
    AC = np.vstack([A, Cr @ A])
    BCd = rows @ np.vstack([B, Cr @ B]).T
    n_z = 5 * n_x + 1
    kz = [slice(n_x + 1 + m * n_x, n_x + 1 + (m + 1) * n_x) for m in range(4)]
    M = np.zeros((4, n_x + n_l, n_z))
    M[:, :, :n_x] = AC
    for m, c in enumerate((dt / 2, dt / 2, dt)):
        M[m + 1, :, kz[m]] = c * AC
    N = np.zeros((n_x, n_z))  # the new state x + dt/6 (k1 + 2 k2 + 2 k3 + k4)
    N[:, :n_x] = eye
    for m, c in enumerate((dt / 6, dt / 3, dt / 3, dt / 6)):
        N[:, kz[m]] = c * eye
    Z = np.zeros(n_z)
    Z[n_x] = 1.0
    xz = Z[:n_x]
    y = np.empty(n_x + n_l)
    yd, yr = y[:n_x], y[n_x:]
    xn = np.empty(n_x)
    fac = np.ones(n_l + 1)  # the clamp factors, and 1 for the states no limit owns
    stages = [(M[m], Z[kz[m]]) for m in range(4)]
    bl = bounds.tolist()

    steps = int(idx[-1])
    # the records before the list of their steps: a run too long to hold
    # fails in numpy, whose MemoryError names the size it asked for
    X = np.empty((len(idx), n_x))
    X[0] = x
    rec = idx.tolist()
    ends = sorted({k0 for k0 in starts if 0 < k0 < steps}) + [steps]  # where d changes
    s, s_col = bisect_right(starts, 0), -1  # d's row, and the row in M's column
    r, e, k = 1, 0, 0
    span = n_blk  # steps to try as one block; 0 while the clamp binds
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps:
            while ends[e] <= k:
                e += 1
                s = bisect_right(starts, k)
            if span:
                J = min(span, ends[e] - k)
                Y = (stack[: J * w] @ np.concatenate((x, rows[s]))).reshape(J, w)
                ok = (np.abs(Y[:, :n_g]) <= limit).all(axis=1)
                p = J if ok.all() else int(ok.argmin())
                if p:
                    x = Y[p - 1, n_g:]
                    r1 = bisect_right(rec, k + p, r)
                    X[r:r1] = Y[idx[r:r1] - (k + 1), n_g:]
                    r = r1
                    k += p
                span = min(2 * span, n_blk) if p == J else 0
                if not np.isfinite(x).all():
                    raise DivergenceError(k * dt)
                if not span:
                    xz[:] = x
            else:
                if s != s_col:
                    M[:, :, n_x] = BCd[s]
                    s_col = s
                clamped = False
                for Mm, km in stages:
                    Mm.dot(Z, out=y)
                    # bound/|rate| where |rate| > bound, else exactly 1 (nan too)
                    f = [b / abs(v) if abs(v) > b else 1.0 for v, b in zip(yr.tolist(), bl)]
                    if min(f) < 1.0:
                        fac[:n_l] = f
                        np.multiply(yd, fac.take(who), out=km)
                        clamped = True
                    else:
                        km[:] = yd
                N.dot(Z, out=xn)
                xz[:] = xn
                k += 1
                if rec[r] == k:
                    X[r] = xn
                    r += 1
                if not clamped:
                    span, x = 1, xn.copy()
                if (k % _BLOCK_STEPS == 0 or k == steps) and not np.isfinite(xn).all():
                    raise DivergenceError(k * dt)
    return X


def _aggregate(freq: np.ndarray, inertia: np.ndarray):
    avg = freq.mean(axis=0)
    M = float(inertia.sum())
    coi = (inertia[:, None] * freq).sum(axis=0) / M if M > 0 else np.full_like(avg, np.nan)
    return avg, coi


def pade_sensitivity(
    net: PowerNetwork,
    agents: Sequence,
    orders: tuple[int, int] = (PADE_ORDER, 5),
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
