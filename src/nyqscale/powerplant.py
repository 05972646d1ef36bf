"""Concrete actuators and controllers of the frequency-reserve test case:
the FCR design target, hydro turbine + model-matching FCR controller, wind
turbine + FFR controller, and per-bus agent assembly.

An agent is evaluated as one item of ``lti.RationalStack``: its own
one-item stack for ``g_value``, and the stack of all agents in a network
sweep. The scenario roots all hydro turbines' NMP zeros in one batched pass
(``lti.fill_roots``) before the FCR designs read them.

Units at every boundary: power MW, frequency Hz, inertia MW*s/Hz
(M = 2*W_kin/f0 with f0 = 50 Hz, so a kinetic energy given in GWs converts
as M = 2*W_GWs*1000/50). Angle signals are in Hz*s; see the scenario
module's docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    AssemblyError,
    InvalidInputError,
    ModelMatchingError,
    PropernessError,
)
from .lti import Polynomial, RationalStack, TransferFunction, mp_mirror

__all__ = [
    "C_ROTOR_FLOOR_08",
    "Agent",
    "HydroParams",
    "WindParams",
    "FcrDesign",
    "make_fdes",
    "make_hydro_turbine",
    "make_fcr_controller",
    "make_wind_turbine",
    "make_ffr_controller",
    "assemble_agent",
]

# power sensitivity bound when the rotor may slow to 80% of the MPP speed
C_ROTOR_FLOOR_08 = 5.8e-3

_ZERO_TF = TransferFunction(Polynomial([0.0]), Polynomial([1.0]))
_S = Polynomial([0.0, 1.0])


@dataclass(frozen=True)
class HydroParams:
    """Hydro servo/turbine parameters (seconds, per-unit gate) of the linear
    turbine model. The servo's rate bound is a simulation setting: the
    scenario turns it into MW/s per bus (``hydro_rate_limits_mw_per_s``).
    """

    servo_time_s: float
    water_time_s: float
    initial_gate_pu: float

    def __post_init__(self):
        if self.servo_time_s <= 0 or self.water_time_s <= 0:
            raise InvalidInputError("servo and water time constants must be > 0")
        if not (0.0 < self.initial_gate_pu <= 1.0):
            raise InvalidInputError("initial gate must be in (0, 1]")

    @property
    def z(self) -> float:
        """Nonminimum-phase zero 1/(g0 * Tw) [rad/s]."""
        return 1.0 / (self.initial_gate_pu * self.water_time_s)


@dataclass(frozen=True)
class WindParams:
    """Wind turbine linearization data.

    ``c_omega`` is the power sensitivity to rotor-speed deviation; it may
    not exceed the conservative bound C_ROTOR_FLOOR_08 that holds while the
    rotor stays above 80% of its MPP speed.
    """

    wind_speed_m_s: float
    c_omega: float = C_ROTOR_FLOOR_08

    def __post_init__(self):
        if self.wind_speed_m_s <= 0:
            raise InvalidInputError("wind speed must be positive")
        if self.c_omega <= 0:
            raise InvalidInputError("c_omega must be positive")
        if self.c_omega > C_ROTOR_FLOOR_08 * (1 + 1e-12):
            raise InvalidInputError(
                f"c_omega = {self.c_omega} exceeds the 80% rotor-speed bound "
                f"{C_ROTOR_FLOOR_08}"
            )

    @property
    def z(self) -> float:
        return self.wind_speed_m_s * self.c_omega


def make_fdes(k_mw_per_hz: float) -> TransferFunction:
    """FCR design target k*(6.5s+1)/((2s+1)(17s+1)); positive real on the
    imaginary axis, DC gain k."""
    if k_mw_per_hz <= 0:
        raise InvalidInputError("FCR gain k must be positive")
    num = Polynomial([1.0, 6.5]) * k_mw_per_hz
    den = Polynomial([1.0, 2.0]) * Polynomial([1.0, 17.0])
    return TransferFunction(num, den)


def make_hydro_turbine(p: HydroParams) -> TransferFunction:
    """Linearized hydro servo+turbine 2(z-s)/((s+2z)(s*Ty+1)) with
    z = 1/(g0*Tw): unit DC gain, strictly proper, exactly one RHP zero."""
    z = p.z
    num = Polynomial([2.0 * z, -2.0])
    den = Polynomial([2.0 * z, 1.0]) * Polynomial([1.0, p.servo_time_s])
    return TransferFunction(num, den)


@dataclass(frozen=True)
class FcrDesign:
    """Model-matching FCR result: the feedback controller K, the verified
    composed actuator F = K*H (in its exactly cancelled all-pass form
    c*F_des*(z-s)/(z+s)), and the turbine's NMP zero z."""

    controller: TransferFunction
    actuator: TransferFunction
    z: float


def make_fcr_controller(
    c_share: float,
    f_des: TransferFunction,
    h_hydro: TransferFunction,
) -> FcrDesign:
    """Model matching against a nonminimum-phase hydro turbine:
    K = c * F_des * Hhat^-1 with Hhat the minimum-phase mirror of H.

    The composition K*H must reduce exactly to c*F_des*(z-s)/(z+s); the
    identity is verified by cross-multiplied coefficients (residual 1e-9
    relative) and the cancelled form is what the returned ``actuator``
    carries -- the improper mirror inverse is never exposed on its own.
    """
    if not (0.0 < c_share <= 1.0):
        raise InvalidInputError("FCR share must be in (0, 1]")
    rhp_zeros = [zz for zz in h_hydro.zeros if zz.real > 0]
    if len(rhp_zeros) != 1 or abs(rhp_zeros[0].imag) > 1e-9 * (1 + abs(rhp_zeros[0])):
        raise InvalidInputError(
            "hydro turbine must carry exactly one real RHP zero"
        )
    z = rhp_zeros[0].real
    h_hat = mp_mirror(h_hydro)
    controller = c_share * f_des * h_hat.inverse()
    if not controller.is_proper:
        raise PropernessError(
            "model-matching controller came out improper; the design target "
            "must roll off at least as fast as the turbine"
        )
    composed = controller * h_hydro
    target = TransferFunction(
        c_share * f_des.num * Polynomial([z, -1.0]),
        f_des.den * Polynomial([z, 1.0]),
    )
    lhs = (composed.num * target.den).as_array()
    rhs = (target.num * composed.den).as_array()
    m = max(len(lhs), len(rhs))
    lhs = np.pad(lhs, (0, m - len(lhs)))
    rhs = np.pad(rhs, (0, m - len(rhs)))
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
    residual = np.abs(lhs - rhs).max() / scale
    if residual > 1e-9:
        raise ModelMatchingError(
            f"K*H failed to reproduce c*F_des*(z-s)/(z+s): residual {residual:.3g}"
        )
    return FcrDesign(controller=controller, actuator=target, z=z)


def make_wind_turbine(p: WindParams) -> TransferFunction:
    """Wind turbine linearization with the conservative stabilizing gain
    2*v*c_omega: the all-pass (s-z)/(s+z), z = v*c_omega, with DC gain -1
    and high-frequency gain +1, overestimating the negative phase shift.
    """
    z = p.z
    return TransferFunction(Polynomial([-z, 1.0]), Polynomial([z, 1.0]))


def make_ffr_controller(
    c_share: float,
    k_ffr_mw_per_hz: float,
    tau_s: float,
    h_wind: TransferFunction,
) -> TransferFunction:
    """Proportional FFR with washout and actuation delay:
    F = c * k_ffr * (5s e^(-s tau)/(5s+1)) * H_wind.

    The washout (corner 0.2 rad/s) forces zero DC gain, so the turbine is
    never asked for sustained power; the delay rides on the transfer
    function exactly (rationalized only for state-space work).
    """
    if c_share <= 0:
        raise InvalidInputError("FFR share must be positive")
    if tau_s < 0:
        raise InvalidInputError("delay must be nonnegative")
    washout = TransferFunction(
        Polynomial([0.0, 5.0]) * (c_share * k_ffr_mw_per_hz),
        Polynomial([1.0, 5.0]),
        delay_s=tau_s,
    )
    return washout * h_wind


@dataclass(frozen=True)
class Agent:
    """Per-bus swing dynamics d_i -> delta_i:

        g_i(s) = 1 / (s^2 M + s*(sum F_k(s) + D)).

    Frequency-actuator parts are kept as separate transfer functions so a
    delayed branch coexists exactly with delay-free ones. An agent is
    callable like a :class:`TransferFunction`: ``agent(s)`` is the exact
    ``g_value(s)``, delays through their exponentials, evaluated by
    :class:`~nyqscale.lti.RationalStack` as any stack of agents is, so a
    multi-agent caller evaluates all of them in one call. ``g_rational``
    substitutes diagonal Pade approximants of order ``lti.PADE_ORDER`` for
    the pole counts; it is built once per agent, so its poles and zeros are
    rooted once.
    """

    inertia: float
    f_parts: tuple[TransferFunction, ...]
    load_damping: float = 0.0
    f_part_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0 <= self.inertia < math.inf and 0 <= self.load_damping < math.inf):
            raise InvalidInputError("inertia and load damping must be finite and >= 0")
        if self.f_part_names and len(self.f_part_names) != len(self.f_parts):
            raise InvalidInputError("part names must match parts")
        if not self.f_part_names:
            object.__setattr__(
                self,
                "f_part_names",
                tuple(f"F{k + 1}" for k in range(len(self.f_parts))),
            )

    # -- the agent transfer function -----------------------------------------
    def __call__(self, s):
        return self.g_value(s)

    def g_value(self, s):
        """Exact evaluation of g(s); vectorized over s. Delays enter through
        the exact exponential. The one-item case of
        :class:`~nyqscale.lti.RationalStack` (this agent's, built on first
        use): a pole hit raises PoleHitError."""
        value = self._stack(s)[0]
        return value if np.ndim(s) else complex(value)

    @cached_property
    def _stack(self) -> RationalStack:
        return RationalStack([self])

    @cached_property
    def g_rational(self) -> TransferFunction:
        """g as a single rational function, the sum of the F parts each
        through :meth:`TransferFunction.rational` (delays Pade-rationalized
        at ``lti.PADE_ORDER``). Exact whenever the agent carries no delay."""
        parts = [f.rational() for f in self.f_parts] or [_ZERO_TF]
        F = sum(parts[1:], parts[0])
        if self.load_damping:
            F = F + self.load_damping
        nF, dF = F.num, F.den
        den = Polynomial([0.0, 0.0, self.inertia]) * dF + _S * nF
        if den.is_zero:
            raise AssemblyError("agent has no dynamics (algebraic node)")
        return TransferFunction(dF, den)


def assemble_agent(
    inertia_mw_s_per_hz: float,
    f_parts: Sequence[TransferFunction] = (),
    load_damping_mw_per_hz: float = 0.0,
    part_names: Sequence[str] = (),
) -> Agent:
    """Validate and build a per-bus agent; its bus is its position in the
    agent list. An algebraic node (no inertia, no actuators, no damping)
    cannot be an agent -- Kron-reduce it instead."""
    parts = tuple(f_parts)
    if (
        inertia_mw_s_per_hz == 0.0
        and load_damping_mw_per_hz == 0.0
        and all(f.num.is_zero for f in parts)
    ):
        raise AssemblyError(
            "algebraic node: all of M, F, D are zero; remove it by Kron "
            "reduction before assembling agents"
        )
    return Agent(
        inertia=float(inertia_mw_s_per_hz),
        f_parts=parts,
        load_damping=float(load_damping_mw_per_hz),
        f_part_names=tuple(part_names),
    )
