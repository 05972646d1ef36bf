"""State-space realization and simulation against independent oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from nyqscale.errors import (
    DivergenceError,
    IntegratorConfigError,
    InvalidInputError,
    RealizationError,
)
from nyqscale.lti import Polynomial, TransferFunction, poly_roots
from nyqscale.powerplant import (
    HydroParams,
    assemble_agent,
    make_fcr_controller,
    make_fdes,
    make_hydro_turbine,
)
from nyqscale.scenario import bundled_scenario_path, load_scenario, loads_scenario
from nyqscale.simkit import (
    Pulse,
    compute_aggregates,
    pade_sensitivity,
    realize_state_space,
    simulate,
)

from util import (
    closed_loop_charpoly,
    diverging_scenario_doc,
    network_from_laplacian,
    random_connected_laplacian,
    random_stable_proper_tf,
)

TF = TransferFunction.from_coeffs


def sorted_eigs(vals):
    return np.array(sorted(vals, key=lambda z: (round(z.real, 6), round(z.imag, 6))))


# ---------------------------------------------------------------- realize
def test_realize_two_bus_double_integrators():
    # characteristic s^2 (s^2 + lambda_2) by hand: eigenvalues {0,0,+-j sqrt(2)}
    net = network_from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    agents = [assemble_agent(1.0), assemble_agent(1.0)]
    model = realize_state_space(net, agents)
    ev = sorted_eigs(model.eigenvalues)
    want = sorted_eigs([0.0, 0.0, 1j * math.sqrt(2), -1j * math.sqrt(2)])
    assert np.allclose(ev, want, atol=1e-7)


def test_realize_single_bus_static_actuator():
    net = network_from_laplacian([[0.0]])
    agents = [assemble_agent(1.0, [TF([3.0], [1.0])])]
    model = realize_state_space(net, agents)
    assert np.allclose(sorted(model.eigenvalues.real), [-3.0, 0.0])


def test_realize_matches_det_oracle_random():
    # spec invariant: eigenvalues agree with roots of det(Q + P L) to 1e-6
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        L = random_connected_laplacian(rng, n)
        net = network_from_laplacian(L)
        agents = [random_stable_proper_tf(rng) for _ in range(n)]
        model = realize_state_space(net, agents)
        cp = closed_loop_charpoly(L, agents)
        roots = np.array(poly_roots(Polynomial(cp)))
        ev = sorted_eigs(model.eigenvalues)
        rt = sorted_eigs(roots)
        assert len(ev) == len(rt)
        assert np.allclose(ev, rt, atol=1e-6, rtol=1e-6)


def test_realize_structural_zero_eigenvalue_count():
    # connected lossless network with some frequency damping present:
    # exactly one zero eigenvalue (the uniform angle shift). With no
    # damping anywhere the rigid-body mode doubles, so ensure >= 1 damper.
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        L = random_connected_laplacian(rng, n)
        net = network_from_laplacian(L)
        agents = []
        any_damped = False
        for i in range(n):
            parts = [random_stable_proper_tf(rng)] if rng.random() < 0.7 else []
            if parts and parts[0](0.0).real < 0:
                parts = [TF((-1 * parts[0].num).coefficients, parts[0].den.coefficients)]
            any_damped = any_damped or bool(parts)
            agents.append(assemble_agent(rng.uniform(0.5, 3.0), parts))
        if not any_damped:
            agents[0] = assemble_agent(agents[0].inertia, [], 1.0)
        model = realize_state_space(net, agents)
        n_zero = int(np.sum(np.abs(model.eigenvalues) < 1e-7))
        assert n_zero == 1


def test_realize_zero_inertia_algebraic_elimination():
    # bus 2 has M = 0, D > 0: eliminated algebraically
    net = network_from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    agents = [assemble_agent(1.0), assemble_agent(0.0, [], 2.0)]
    model = realize_state_space(net, agents)
    cp = closed_loop_charpoly(
        net.laplacian,
        [TF([1.0], [0.0, 0.0, 1.0]), TF([1.0], [0.0, 2.0])],
    )
    roots = np.array(poly_roots(Polynomial(cp)))
    ev = sorted_eigs(model.eigenvalues)
    rt = sorted_eigs(roots)
    assert np.allclose(ev, rt, atol=1e-8)


def test_realize_zero_inertia_without_damping_rejected():
    net = network_from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    good = assemble_agent(1.0)
    strictly_proper_F = TF([1.0], [1.0, 1.0])
    with pytest.raises(RealizationError):
        realize_state_space(net, [good, assemble_agent(0.0, [strictly_proper_F])])


def test_realize_biproper_raw_tf_rejected():
    net = network_from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    biproper = TF([1.0, 1.0], [2.0, 1.0])
    with pytest.raises(RealizationError):
        realize_state_space(net, [biproper, biproper])


def test_realize_n5_hydro_d0_has_unstable_eigen():
    # paper's instability claim for the load-free hydro-FCR system
    model = n5_model(include_loads=False)
    assert model.eigenvalues.real.max() > 1e-6


def test_realize_n5_hydro_loads_stable():
    model = n5_model(include_loads=True)
    ev = model.eigenvalues
    nonzero = ev[np.abs(ev) > 1e-7]
    assert nonzero.real.max() < 0


# ---------------------------------------------------------------- N5 fixture
N5_W = [34.0, 22.5, 7.5, 33.0, 13.0]
N5_D = [150.0, 60.0, 20.0, 120.0, 50.0]
N5_ROWS = [(0.6, 0.7), (0.3, 1.4), (0.1, 1.4)]
# reconstruction: gamma/2pi matches the published incidence parameters
N5_EDGES = [(0, 1, 1675.0), (0, 3, 1425.0), (1, 2, 2600.0), (1, 3, 825.0), (3, 4, 1500.0)]


def n5_network():
    L = np.zeros((5, 5))
    for a, b, w_mw_rad in N5_EDGES:
        w = 2 * math.pi * w_mw_rad
        L[a, b] -= w
        L[b, a] -= w
        L[a, a] += w
        L[b, b] += w
    return network_from_laplacian(L)


def n5_agents(include_loads=True):
    f_des = make_fdes(3100.0)
    agents = []
    for i in range(5):
        parts, names = [], []
        if i < 3:
            share, tw = N5_ROWS[i]
            h = make_hydro_turbine(HydroParams(0.2, tw, 0.8))
            parts.append(make_fcr_controller(share, f_des, h).actuator)
            names.append("hydro")
        agents.append(
            assemble_agent(
                2 * N5_W[i] * 1000 / 50,
                parts,
                load_damping_mw_per_hz=N5_D[i] if include_loads else 0.0,
                part_names=names,
                bus=i,
            )
        )
    return agents


def n5_model(include_loads=True):
    return realize_state_space(n5_network(), n5_agents(include_loads))


# ---------------------------------------------------------------- simulate
def test_simulate_average_mode_invariance():
    # uniform angle offset: L*delta = 0, all traces stay constant
    net = network_from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    agents = [assemble_agent(1.0, [TF([1.0], [1.0])]), assemble_agent(2.0, [TF([1.0], [1.0])])]
    model = realize_state_space(net, agents)
    x0 = np.zeros(model.n_states)
    for i, role in enumerate(model.state_roles):
        if role.startswith("delta"):
            x0[i] = 0.7
    res = simulate(model, [], t_end=2.0, dt=1e-3, x0=x0)
    assert np.abs(res.frequency_hz).max() < 1e-12
    assert np.abs(res.tie_flow_mw).max() < 1e-9


def test_simulate_flat_without_disturbance():
    model = n5_model()
    res = simulate(model, [], t_end=1.0, dt=1e-3, record_decimation=10)
    assert np.abs(res.frequency_hz).max() == 0.0


def test_simulate_steady_state_minus_04_hz():
    # final-value oracle: -1400/(3100 + 400) = -0.4 Hz
    model = n5_model(include_loads=True)
    res = simulate(
        model,
        [Pulse(bus=1, amplitude_mw=-1400.0)],
        t_end=60.0,
        dt=1e-3,
        record_decimation=20,
    )
    assert res.omega_avg_hz[-1] == pytest.approx(-0.4, rel=0.01)
    assert res.omega_coi_hz[-1] == pytest.approx(-0.4, rel=0.01)


def test_simulate_pulse_returns_to_nominal():
    model = n5_model(include_loads=True)
    res = simulate(
        model,
        [Pulse(bus=1, amplitude_mw=-1400.0, t_start_s=0.5, t_end_s=5.5)],
        t_end=40.0,
        dt=1e-3,
        record_decimation=20,
    )
    assert res.peak_avg_deviation_hz > 0.3
    assert abs(res.omega_avg_hz[-1]) < 0.05


def van_loan_gamma(model, tau):
    """Input-to-state map of a constant input held for tau: the top-right
    block of expm([[A tau, B tau], [0, 0]])."""
    n_x, n_u = model.B.shape
    blk = np.zeros((n_x + n_u, n_x + n_u))
    blk[:n_x, :n_x] = model.A * tau
    blk[:n_x, n_x:] = model.B * tau
    return expm(blk)[:n_x, n_x:]


@pytest.mark.parametrize(
    "name, pulses",
    [
        ("n5_hydro_loads", None),
        ("n5_hydro_wind", None),
        # edges between records, one inside a 1 ms step
        ("n5_hydro_loads", (Pulse(1, -1400.0, 0.5037, 3.21115), Pulse(3, 500.0, 2.0))),
    ],
    ids=["loads", "wind", "loads-edges-between-records"],
)
def test_simulate_linear_path_matches_van_loan_reference(name, pulses):
    # reference by superposition from t = 0 at each checked record, so it
    # shares no stepping with simulate: x(t) = sum over pulse edges of
    # +-amplitude * Gamma(t - edge) e_bus
    scn = load_scenario(bundled_scenario_path(name))
    model = realize_state_space(scn.network, list(scn.agents))
    pulses = scn.disturbance if pulses is None else pulses
    dt, dec = scn.dt_s, scn.record_decimation
    res = simulate(model, list(pulses), t_end=scn.t_end_s, dt=dt,
                   record_decimation=dec)
    steps = int(round(scn.t_end_s / dt))
    want_t = [0.0] + [(k + 1) * dt for k in range(steps)
                      if (k + 1) % dec == 0 or k == steps - 1]
    assert res.time_s.tolist() == want_t
    n = model.n_buses
    for k in [*range(0, len(want_t), 97), len(want_t) - 1]:
        t = want_t[k]
        x = np.zeros(model.n_states)
        d = np.zeros(n)
        for p in pulses:
            for edge, sign in ((p.t_start_s, 1.0), (p.t_end_s, -1.0)):
                if edge is not None and t > edge:
                    x += sign * p.amplitude_mw * van_loan_gamma(model, t - edge)[:, p.bus]
            if t >= p.t_start_s and (p.t_end_s is None or t < p.t_end_s):
                d[p.bus] += p.amplitude_mw
        freq = model.omega_rows @ x + model.omega_feedthrough @ d
        tie = model.laplacian @ (model.delta_rows @ x)
        assert np.abs(res.frequency_hz[:, k] - freq).max() <= 1e-9
        assert np.abs(res.tie_flow_mw[:, k] - tie).max() <= 1e-6


def test_simulate_rk4_path_matches_zoh_when_clamp_never_binds():
    # bounds far above any reachable rate: the RK4 path runs but never
    # clamps, and pulse edges on the dt grid are seen by all four stages
    model = n5_model(include_loads=True)
    pulses = [Pulse(bus=1, amplitude_mw=-1400.0, t_start_s=0.5, t_end_s=5.5)]
    zoh = simulate(model, pulses, t_end=8.0, dt=1e-3, record_decimation=20)
    rk4 = simulate(model, pulses, t_end=8.0, dt=1e-3, record_decimation=20,
                   rate_limiter=True,
                   rate_limits_mw_per_s={0: 1e12, 1: 1e12, 2: 1e12})
    assert np.array_equal(zoh.time_s, rk4.time_s)
    assert np.abs(zoh.frequency_hz - rk4.frequency_hz).max() <= 1e-8


def test_simulate_divergence_raises_at_first_nonfinite_record():
    scn = loads_scenario(diverging_scenario_doc())
    model = realize_state_space(scn.network, list(scn.agents))
    assert model.eigenvalues.real.max() > 40
    with pytest.raises(DivergenceError) as err:
        simulate(model, list(scn.disturbance), t_end=scn.t_end_s, dt=scn.dt_s,
                 record_decimation=scn.record_decimation)
    t = err.value.t
    assert 1.0 < t < scn.t_end_s
    # up to the record before, the state is still finite (the outputs of
    # such a state may overflow)
    prev = t - scn.dt_s * scn.record_decimation
    with np.errstate(over="ignore", invalid="ignore"):
        res = simulate(model, list(scn.disturbance), t_end=prev, dt=scn.dt_s,
                       record_decimation=scn.record_decimation)
    assert res.time_s[-1] == pytest.approx(prev)


def test_simulate_dt_gate():
    model = n5_model()
    with pytest.raises(IntegratorConfigError):
        simulate(model, [], t_end=1.0, dt=0.5)


def test_simulate_rate_limiter_slows_hydro():
    model = n5_model(include_loads=True)
    pulses = [Pulse(bus=1, amplitude_mw=-1400.0)]
    free = simulate(model, pulses, t_end=3.0, dt=1e-3, record_decimation=5)
    limited = simulate(
        model,
        pulses,
        t_end=3.0,
        dt=1e-3,
        rate_limiter=True,
        rate_limits_mw_per_s={0: 0.1 * 9000.0, 1: 0.1 * 6000.0, 2: 0.1 * 2000.0},
        record_decimation=5,
    )
    name = "p_hydro_bus1"
    # clamped actuator cannot move faster than the bound
    dt = np.diff(limited.time_s)
    rate = np.abs(np.diff(limited.actuator_mw[name])) / dt
    assert rate.max() <= 0.1 * 9000.0 * 1.05
    assert np.abs(free.actuator_mw[name]).max() >= np.abs(limited.actuator_mw[name]).max() - 1e-9


def test_energy_sanity_passive_agents():
    """Passivity oracle after input removal.

    With memoryless dampers the swing energy E = 1/2 sum M w^2 +
    1/2 delta^T L delta dissipates at rate sum D w^2, so E is pointwise
    non-increasing (potential recovered from tie flows via the
    pseudo-inverse: delta^T L delta = tie^T L^+ tie). For dynamic
    positive-real actuators the actuators store energy too, so only the
    envelope of sum w^2 is asserted to decay.
    """
    rng = np.random.default_rng(3)
    L = random_connected_laplacian(rng, 3)
    net = network_from_laplacian(L)
    M = np.array([1.0, 2.0, 1.5])
    agents = [assemble_agent(m, [], d) for m, d in zip(M, [0.5, 0.2, 1.0])]
    model = realize_state_space(net, agents)
    res = simulate(
        model,
        [Pulse(bus=0, amplitude_mw=1.0, t_start_s=0.0, t_end_s=1.0)],
        t_end=20.0,
        dt=1e-3,
        record_decimation=20,
    )
    after = res.time_s > 1.0
    w = res.frequency_hz[:, after]
    tie = res.tie_flow_mw[:, after]
    Lp = np.linalg.pinv(L)
    kinetic = 0.5 * (M[:, None] * w**2).sum(axis=0)
    potential = 0.5 * np.einsum("it,ij,jt->t", tie, Lp, tie)
    energy = kinetic + potential
    assert np.all(np.diff(energy) <= 1e-9 * max(energy.max(), 1e-12))

    agents2 = [
        assemble_agent(1.0, [TF([1.0], [1.0, 1.0])], 0.5),
        assemble_agent(2.0, [TF([2.0], [1.0, 2.0])], 0.2),
        assemble_agent(1.5, [], 1.0),
    ]
    model2 = realize_state_space(net, agents2)
    res2 = simulate(
        model2,
        [Pulse(bus=0, amplitude_mw=1.0, t_start_s=0.0, t_end_s=1.0)],
        t_end=20.0,
        dt=1e-3,
        record_decimation=20,
    )
    e2 = (res2.frequency_hz**2).sum(axis=0)
    env2 = e2[res2.time_s > 1.5]
    n3 = len(env2) // 3
    assert env2[-n3:].max() <= env2[:n3].max() + 1e-12


# ---------------------------------------------------------------- aggregates
def test_aggregates_identical_traces():
    model = n5_model()
    res = simulate(model, [Pulse(1, -500.0)], t_end=1.0, dt=1e-3, record_decimation=10)
    avg, coi = compute_aggregates(res, n5_agents())
    assert np.allclose(avg, res.omega_avg_hz)
    assert np.allclose(coi, res.omega_coi_hz)


def test_aggregates_antisymmetric_two_bus():
    net = network_from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    agents = [assemble_agent(1.0), assemble_agent(1.0)]
    model = realize_state_space(net, agents)
    x0 = np.zeros(model.n_states)
    # antisymmetric initial angles: +0.1, -0.1
    deltas = [i for i, r in enumerate(model.state_roles) if r.startswith("delta")]
    x0[deltas[0]], x0[deltas[1]] = 0.1, -0.1
    res = simulate(model, [], t_end=5.0, dt=1e-3, record_decimation=10)
    res2 = simulate(model, [], t_end=5.0, dt=1e-3, x0=x0, record_decimation=10)
    assert np.abs(res2.omega_avg_hz).max() < 1e-10
    assert np.abs(res2.omega_coi_hz).max() < 1e-10


def test_aggregates_converge_for_stable_n5():
    model = n5_model(include_loads=True)
    res = simulate(
        model,
        [Pulse(bus=1, amplitude_mw=-1400.0)],
        t_end=60.0,
        dt=1e-3,
        record_decimation=50,
    )
    gap = abs(res.omega_avg_hz[-1] - res.omega_coi_hz[-1])
    assert gap < 0.01 * res.peak_avg_deviation_hz


def test_aggregates_zero_inertia_rejected():
    net = network_from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    agents = [assemble_agent(0.0, [], 1.0), assemble_agent(0.0, [], 1.0)]
    model = realize_state_space(net, agents)
    res = simulate(model, [], t_end=0.5, dt=1e-3)
    with pytest.raises(InvalidInputError):
        compute_aggregates(res, agents)


# ---------------------------------------------------------------- pade
def test_pade_sensitivity_n5_wind_small():
    from nyqscale.powerplant import WindParams, make_ffr_controller, make_wind_turbine

    f_des = make_fdes(3100.0)
    wind_rows = [(0.6, 10.0), (0.3, 6.0), (0.1, 7.0)]
    agents = []
    for i in range(5):
        parts, names = [], []
        if i < 3:
            share, tw = N5_ROWS[i]
            h = make_hydro_turbine(HydroParams(0.2, tw, 0.8))
            parts.append(make_fcr_controller(share, f_des, h).actuator)
            names.append("hydro")
            hw = make_wind_turbine(WindParams(wind_rows[i][1]))
            parts.append(make_ffr_controller(wind_rows[i][0], 1000.0, 0.1, hw))
            names.append("wind")
        agents.append(assemble_agent(2 * N5_W[i] * 1000 / 50, parts, part_names=names))
    report = pade_sensitivity(n5_network(), agents, orders=(3, 5))
    assert report["max_rel_change"] < 1e-3
    assert not report["flagged"]
