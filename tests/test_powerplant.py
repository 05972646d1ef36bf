"""Actuator/controller constructors and agent assembly."""

import math

import numpy as np
import pytest

from nyqscale.errors import (
    AssemblyError,
    InvalidInputError,
    PoleHitError,
)
from nyqscale.lti import TransferFunction, rhp_poles_in_region
from nyqscale.powerplant import (
    C_ROTOR_FLOOR_08,
    HydroParams,
    WindParams,
    assemble_agent,
    make_fcr_controller,
    make_fdes,
    make_ffr_controller,
    make_hydro_turbine,
    make_wind_turbine,
)

TF = TransferFunction

TABLE_II = [
    dict(share=0.6, T_y=0.2, T_w=0.7, g0=0.8),
    dict(share=0.3, T_y=0.2, T_w=1.4, g0=0.8),
    dict(share=0.1, T_y=0.2, T_w=1.4, g0=0.8),
]


# ---------------------------------------------------------------- F_des
def test_fdes_dc_gain():
    f = make_fdes(3100.0)
    assert f(0.0) == pytest.approx(3100.0)


def test_fdes_poles():
    f = make_fdes(3100.0)
    assert sorted(p.real for p in f.poles) == pytest.approx([-0.5, -1 / 17])


def test_fdes_positive_real_on_log_grid():
    f = make_fdes(3100.0)
    omegas = np.geomspace(1e-2, 1e2, 1000)
    assert np.all(np.real(f(1j * omegas)) >= 0.0)


def test_fdes_rejects_nonpositive_gain():
    with pytest.raises(InvalidInputError):
        make_fdes(0.0)


# ---------------------------------------------------------------- hydro
def test_hydro_turbine_z_from_table():
    h = make_hydro_turbine(HydroParams(0.2, 0.7, 0.8))
    (zero,) = h.zeros
    assert zero == pytest.approx(1.0 / 0.56)
    assert zero.real == pytest.approx(1.78571, abs=5e-6)


def test_hydro_turbine_dc_and_rolloff():
    h = make_hydro_turbine(HydroParams(0.2, 1.4, 0.8))
    assert h(0.0) == pytest.approx(1.0)
    assert h.is_strictly_proper
    assert abs(h(1j * 1e6)) < 1e-5


def test_hydro_params_validation():
    with pytest.raises(InvalidInputError):
        HydroParams(0.0, 0.7, 0.8)
    with pytest.raises(InvalidInputError):
        HydroParams(0.2, 0.7, 0.0)


# ---------------------------------------------------------------- FCR matching
def test_fcr_controller_unit_share_dc():
    f_des = make_fdes(3100.0)
    h = make_hydro_turbine(HydroParams(0.2, 0.7, 0.8))
    design = make_fcr_controller(1.0, f_des, h)
    assert design.actuator(0.0) == pytest.approx(3100.0)


def test_fcr_allpass_magnitude_identity():
    f_des = make_fdes(3100.0)
    h = make_hydro_turbine(HydroParams(0.2, 1.4, 0.8))
    design = make_fcr_controller(0.3, f_des, h)
    omegas = np.geomspace(1e-2, 1e2, 50)
    lhs = np.abs(design.actuator(1j * omegas))
    rhs = 0.3 * np.abs(f_des(1j * omegas))
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_fcr_model_matching_identity_all_rows():
    # spec/acceptance invariant: K*H == c*F_des*(z-s)/(z+s) to 1e-9 coeffs
    f_des = make_fdes(3100.0)
    for row in TABLE_II:
        h = make_hydro_turbine(HydroParams(row["T_y"], row["T_w"], row["g0"]))
        design = make_fcr_controller(row["share"], f_des, h)
        composed = design.controller * h
        lhs = (composed.num * design.actuator.den).as_array()
        rhs = (design.actuator.num * composed.den).as_array()
        m = max(len(lhs), len(rhs))
        lhs = np.pad(lhs, (0, m - len(lhs)))
        rhs = np.pad(rhs, (0, m - len(rhs)))
        scale = max(np.abs(lhs).max(), np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() < 1e-9 * scale
        assert design.controller.is_proper


def test_fcr_share_validation():
    f_des = make_fdes(3100.0)
    h = make_hydro_turbine(HydroParams(0.2, 0.7, 0.8))
    with pytest.raises(InvalidInputError):
        make_fcr_controller(0.0, f_des, h)
    with pytest.raises(InvalidInputError):
        make_fcr_controller(1.2, f_des, h)


# ---------------------------------------------------------------- wind
def test_wind_turbine_dc_and_hf():
    w = WindParams(10.0)
    h = make_wind_turbine(w)
    assert h(0.0) == pytest.approx(-1.0)
    assert abs(h(1j * 1e6) - 1.0) < 1e-5
    assert w.z == pytest.approx(0.058)


def test_wind_turbine_allpass_magnitude_near_band_edge():
    h = make_wind_turbine(WindParams(10.0))
    assert abs(abs(h(1j * 0.06)) - 1.0) < 1e-12


def test_wind_floor_bound_enforced():
    with pytest.raises(InvalidInputError):
        WindParams(10.0, c_omega=2 * C_ROTOR_FLOOR_08)
    assert WindParams(10.0, c_omega=C_ROTOR_FLOOR_08).c_omega == C_ROTOR_FLOOR_08


# ---------------------------------------------------------------- FFR
def test_ffr_dc_gain_zero_and_washout():
    h = make_wind_turbine(WindParams(10.0))
    f = make_ffr_controller(0.6, 1000.0, 0.1, h)
    assert f(0.0) == 0.0
    assert f.delay_s == 0.1
    # washout corner at 0.2 rad/s: |5s/(5s+1)| = 1/sqrt(2) there
    bare = TransferFunction(f.num, f.den)  # rational part only
    mag_at_corner = abs(bare(0.2j)) / abs(bare(1j * 1e4))
    assert mag_at_corner == pytest.approx(1 / math.sqrt(2), rel=1e-6)


def test_ffr_delay_phase_contribution():
    h = make_wind_turbine(WindParams(10.0))
    with_delay = make_ffr_controller(0.6, 1000.0, 0.1, h)
    without = make_ffr_controller(0.6, 1000.0, 0.0, h)
    s = 5j
    dphi = np.angle(with_delay(s) / without(s))
    assert dphi == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------------- agents
def test_assemble_pure_inertia():
    a = assemble_agent(1.0)
    g = a.g_rational
    assert np.allclose(g.num.as_array(), [1.0])
    assert np.allclose(g.den.as_array(), [0.0, 0.0, 1.0])
    assert a.g_value(2j) == pytest.approx(1.0 / (2j) ** 2)


def test_assemble_n5_bus4_machine_only():
    # M_4 = 2*33 GWs/50 = 1.32 GW s/Hz = 1320 MW s/Hz
    a = assemble_agent(2 * 33.0 * 1000 / 50)
    assert a.inertia == pytest.approx(1320.0)
    g = a.g_rational
    assert np.allclose(g.den.as_array(), [0.0, 0.0, 1320.0])


def test_assemble_algebraic_node_rejected():
    with pytest.raises(AssemblyError):
        assemble_agent(0.0)


def test_agent_exact_vs_rational_no_delay():
    f_des = make_fdes(3100.0)
    h = make_hydro_turbine(HydroParams(0.2, 0.7, 0.8))
    act = make_fcr_controller(0.6, f_des, h).actuator
    a = assemble_agent(1360.0, [act], load_damping_mw_per_hz=150.0)
    s = np.array([0.3j, 2j, 1.0 + 0.5j])
    g = a.g_rational
    assert np.allclose(a.g_value(s), g(s), rtol=1e-12)


def test_agent_rational_form_is_built_once():
    # one order, lti.PADE_ORDER = 3: the wind turbine's 1, the washout's 1,
    # the delay's 3 and the swing's 2 make degree 7
    h = make_wind_turbine(WindParams(10.0))
    delayed = assemble_agent(1360.0, [make_ffr_controller(0.6, 1000.0, 0.1, h)])
    assert delayed.g_rational is delayed.g_rational
    assert delayed.g_rational.den.degree == 7
    plain = assemble_agent(1.0, [TF([1.0], [1.0, 1.0])], load_damping_mw_per_hz=0.5)
    assert plain.g_rational is plain.g_rational
    assert plain.g_rational.poles is plain.g_rational.poles


def test_agent_call_is_exact_g_value():
    h = make_wind_turbine(WindParams(10.0))
    a = assemble_agent(1360.0, [make_ffr_controller(0.6, 1000.0, 0.1, h)],
                       load_damping_mw_per_hz=150.0)
    s = np.array([0.3j, 2j, 1.0 + 0.5j])
    np.testing.assert_array_equal(a(s), a.g_value(s))
    assert isinstance(a(2j), complex) and a(2j) == a.g_value(2j)
    inertia = assemble_agent(1.0)  # 1/s^2
    with pytest.raises(PoleHitError):
        inertia(0.0)
    with pytest.raises(PoleHitError):
        inertia(np.array([1j, 0.0]))


def test_agent_delay_exact_evaluation():
    h = make_wind_turbine(WindParams(10.0))
    f_wind = make_ffr_controller(0.6, 1000.0, 0.1, h)
    a = assemble_agent(1360.0, [f_wind])
    s = 3j
    washout = TF([0.0, 5.0 * 600.0], [1.0, 5.0])
    expected_F = washout(s) * h(s) * np.exp(-s * 0.1)
    assert a.g_value(s) == pytest.approx(1.0 / (s * s * 1360.0 + s * expected_F))


def test_agent_pole_gate_hydro_d0():
    """Hydro-FCR agents, D = 0: pole pattern of the frozen oracle.

    Frozen from the quartic roots of s*M*(2s+1)(17s+1)(z+s)+c*k*(6.5s+1)(z-s):
    bus 1 carries a lightly damped LHP pair at modulus ~0.445, buses 2-3 an
    RHP pair at modulus ~0.3456 (DECISIONS.md records why the spec's
    [0.35, 0.65] rad/s band does not apply). All RHP poles sit inside the
    paper's r = 0.75 disc.
    """
    f_des = make_fdes(3100.0)
    Ms = [1360.0, 900.0, 300.0]
    agents = []
    for M, row in zip(Ms, TABLE_II):
        h = make_hydro_turbine(HydroParams(row["T_y"], row["T_w"], row["g0"]))
        act = make_fcr_controller(row["share"], f_des, h).actuator
        agents.append(assemble_agent(M, [act]))
    rhp1 = rhp_poles_in_region(agents[0].g_rational, 0.0)
    assert rhp1 == []
    for a in agents[1:]:
        rhp = rhp_poles_in_region(a.g_rational, 0.0)
        assert len(rhp) == 2
        assert np.allclose(sorted(abs(p) for p in rhp), [0.3456273, 0.3456273], atol=1e-6)
        # inside the 0.75 rad/s exclusion disc
        assert rhp_poles_in_region(a.g_rational, 0.75) == []
