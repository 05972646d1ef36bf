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
from nyqscale import simkit
from nyqscale.simkit import (
    Pulse,
    realize_state_space,
    simulate,
)

from util import (
    closed_loop_charpoly,
    diverging_scenario_doc,
    network_from_laplacian,
    random_connected_laplacian,
    random_stable_proper_tf,
    rk4_clamped_reference,
    zoh_records_stepwise,
)

TF = TransferFunction


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


def test_realize_actuator_rows_equal_minus_part_times_frequency():
    # bus 1 swings with a strictly proper part; bus 2 has M = 0 and D > 0
    # with a biproper part (a feedthrough) and a delayed part. Each actuator
    # output must be -F_k(s) times its bus frequency, F_k at Pade order 3.
    net = network_from_laplacian([[1.5, -1.5], [-1.5, 1.5]])
    parts = [
        [TF([2.0], [1.0, 0.5])],
        [TF([1.0, 3.0], [2.0, 1.0]), TF([0.8], [1.0, 0.3], delay_s=0.2)],
    ]
    agents = [assemble_agent(2.0, parts[0]), assemble_agent(0.0, parts[1], 1.2)]
    model = realize_state_space(net, agents, pade_order=3)
    n = model.n_buses
    rows = [(bus, f.rational(3)) for bus in range(n) for f in parts[bus]]
    assert len(model.C) == 2 * n + len(rows)
    assert np.any(model.D[2 * n :] != 0)

    for s in (0.3j, 2j, 1 + 5j):
        H = model.C @ np.linalg.solve(s * np.eye(model.n_states) - model.A, model.B) + model.D
        for k, (bus, F) in enumerate(rows):
            want = -F(s) * H[n + bus]
            err = np.abs(H[2 * n + k] - want).max()
            assert err <= 1e-9 * np.abs(want).max(), (s, k)


def test_analysis_and_oracle_rationalize_delays_at_one_order():
    # the pole counts read each agent's g_rational; the oracle's default order
    # must realize the same Pade form, one state per denominator degree
    scn = load_scenario(bundled_scenario_path("n5_hydro_wind"))
    agents = list(scn.agents)
    assert any(f.delay_s for a in agents for f in a.f_parts)
    model = realize_state_space(scn.network, agents)
    assert sum(a.g_rational.den.degree for a in agents) == model.n_states == 34


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


@pytest.mark.parametrize(
    "name, pulses, dec, stack_doubles, flow_tol",
    [
        ("n5_hydro_loads", None, None, None, 1e-8),
        ("n5_hydro_wind", None, None, None, 1e-8),
        # d0's closed loop is unstable: its flows keep growing (2,713 MW at
        # the end against peaks of about 1,900 MW on loads and wind), and
        # the rounding with them
        ("n5_hydro_d0", None, None, None, 2e-8),
        # edges off the record grid, one inside a 1 ms step
        ("n5_hydro_loads", (Pulse(1, -1400.0, 0.5037, 3.21115), Pulse(3, 500.0, 2.0)),
         None, None, 1e-8),
        # 7 does not divide the 60,000 steps, so the last record interval is short
        ("n5_hydro_wind", (Pulse(0, 300.0, 0.0123, 7.0051),), 7, None, 1e-8),
        # a budget below one step's map: blocks of a single step
        ("n5_hydro_wind", (Pulse(0, 300.0, 0.0123, 7.0051),), 7, 1, 1e-8),
    ],
    ids=["loads", "wind", "d0", "loads-edges-off-grid", "wind-decimation-7",
         "wind-single-step-blocks"],
)
def test_simulate_linear_blocks_match_stepwise_reference(monkeypatch, name, pulses,
                                                         dec, stack_doubles, flow_tol):
    scn = load_scenario(bundled_scenario_path(name))
    model = realize_state_space(scn.network, list(scn.agents))
    args = dict(model=model, disturbance=list(pulses or scn.disturbance),
                t_end=scn.t_end_s, dt=scn.dt_s,
                record_decimation=dec or scn.record_decimation)
    if stack_doubles is not None:
        monkeypatch.setattr(simkit, "_ZOH_STACK_DOUBLES", stack_doubles)
    res = simulate(**args)
    monkeypatch.setattr(simkit, "_zoh_records", zoh_records_stepwise)
    ref = simulate(**args)
    assert np.array_equal(res.time_s, ref.time_s)
    assert np.abs(res.frequency_hz - ref.frequency_hz).max() <= 1e-10
    assert np.abs(res.tie_flow_mw - ref.tie_flow_mw).max() <= flow_tol
    for key, trace in ref.actuator_mw.items():
        assert np.abs(res.actuator_mw[key] - trace).max() <= flow_tol, key


def test_simulate_linear_blocks_stop_before_powers_overflow():
    # the diverging model's +49 1/s mode grows by about e^98 per 2 s record
    # step, so Phi^j overflows within 8 steps; a zero state with no
    # disturbance must still stay exactly zero, not turn into inf * 0 = nan
    scn = loads_scenario(diverging_scenario_doc())
    model = realize_state_space(scn.network, list(scn.agents))
    res = simulate(model, [], t_end=60.0, dt=1e-3, record_decimation=2000)
    assert len(res.time_s) == 31
    assert not res.frequency_hz.any()


def test_simulate_shorter_than_half_a_step_records_only_the_start():
    res = simulate(n5_model(), [Pulse(1, -100.0)], t_end=4e-4, dt=1e-3)
    assert res.time_s.tolist() == [0.0]
    assert not res.frequency_hz.any()


def test_simulate_dt_gate():
    # the gate guards RK4, which runs only under a rate bound
    model = n5_model()
    with pytest.raises(IntegratorConfigError):
        simulate(model, [], t_end=1.0, dt=0.5, rate_limits_mw_per_s={0: 900.0})


@pytest.mark.parametrize("name", ["n5_hydro_wind", "n5_hydro_loads"])
def test_simulate_linear_path_takes_any_dt(name):
    # the zero-order hold is exact at any step: dt = 0.01 s (over RK4's
    # 0.1/|lambda_max| = 0.00189 s on n5_hydro_wind) records what
    # dt = 1e-3 s records every 10th step
    scn = load_scenario(bundled_scenario_path(name))
    model = realize_state_space(scn.network, list(scn.agents))
    fine = simulate(model, scn.disturbance, t_end=scn.t_end_s, dt=1e-3, record_decimation=10)
    coarse = simulate(model, scn.disturbance, t_end=scn.t_end_s, dt=0.01)
    assert np.allclose(coarse.time_s, fine.time_s, rtol=0, atol=1e-9)
    assert np.abs(coarse.frequency_hz - fine.frequency_hz).max() <= 1e-9
    assert np.abs(coarse.tie_flow_mw - fine.tie_flow_mw).max() <= 1e-6
    for key, mw in fine.actuator_mw.items():
        assert np.abs(coarse.actuator_mw[key] - mw).max() <= 1e-6


def test_simulate_rate_limiter_slows_hydro():
    model = n5_model(include_loads=True)
    pulses = [Pulse(bus=1, amplitude_mw=-1400.0)]
    free = simulate(model, pulses, t_end=3.0, dt=1e-3, record_decimation=5)
    limited = simulate(
        model,
        pulses,
        t_end=3.0,
        dt=1e-3,
        rate_limits_mw_per_s={0: 0.1 * 9000.0, 1: 0.1 * 6000.0, 2: 0.1 * 2000.0},
        record_decimation=5,
    )
    name = "p_hydro_bus1"
    # clamped actuator cannot move faster than the bound
    dt = np.diff(limited.time_s)
    rate = np.abs(np.diff(limited.actuator_mw[name])) / dt
    assert rate.max() <= 0.1 * 9000.0 * 1.05
    assert np.abs(free.actuator_mw[name]).max() >= np.abs(limited.actuator_mw[name]).max() - 1e-9


@pytest.mark.parametrize("bound", [-1.0, math.nan])
def test_simulate_rate_limiter_rejects_negative_or_nan_bound(bound):
    model = n5_model(include_loads=True)
    with pytest.raises(InvalidInputError):
        simulate(model, [Pulse(bus=1, amplitude_mw=-1400.0)], t_end=1.0, dt=1e-3,
                 rate_limits_mw_per_s={0: bound})


def clamped_reference(model, pulses, t_end, dt, rate_limits, record_decimation):
    """simulate(..., rate_limits_mw_per_s=...) stepped by rk4_clamped_reference:
    the same record grid, limits, midpoint disturbance and output rows."""
    n = model.n_buses

    def d_of(t):
        d = np.zeros(n)
        for p in pulses:
            if t >= p.t_start_s and (p.t_end_s is None or t < p.t_end_s):
                d[p.bus] += p.amplitude_mw
        return d

    limits = [(blk.state_slice, blk.c_local, float(rate_limits[blk.bus]))
              for blk in model.actuator_blocks
              if blk.name == "hydro" and blk.bus in rate_limits]
    steps = int(round(t_end / dt))
    idx = np.arange(0, steps + 1, record_decimation)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    T = idx * dt
    X = rk4_clamped_reference(model, np.zeros(model.n_states), d_of, limits, dt, idx).T
    Dm = np.array([d_of(t) for t in T.tolist()]).T
    freq = model.omega_rows @ X + model.omega_feedthrough @ Dm
    tie = model.laplacian @ (model.delta_rows @ X)
    act = {name: row @ X + feed @ Dm for name, row, feed in
           zip(model.output_names[2 * n:], model.C[2 * n:], model.D[2 * n:])}
    return T, freq, tie, act


def clamped_bundled_case(name, t_end):
    """The bundled scenario with every hydro rate bound at 0.01 pu/s."""
    doc = load_scenario(bundled_scenario_path(name)).to_json_dict()
    for bus in doc["agents"]["buses"]:
        if "hydro" in bus:
            bus["hydro"]["rate_limit_pu_s"] = 0.01
    scn = loads_scenario(doc)
    model = realize_state_space(scn.network, list(scn.agents))
    return (model, list(scn.disturbance), t_end, scn.dt_s,
            scn.hydro_rate_limits_mw_per_s, scn.record_decimation)


def clamped_n5_case():
    # the clamp binds from about 2.5 s and releases for good by about 20.8 s
    return clamped_bundled_case("n5_hydro_loads", 21.0)


def clamped_wind_case():
    # 34 states: the clamped hydro blocks run beside wind and Pade states
    return clamped_bundled_case("n5_hydro_wind", 12.0)


def tight_bound_case():
    pulses = [Pulse(bus=1, amplitude_mw=-1400.0, t_start_s=0.5, t_end_s=5.5)]
    return n5_model(include_loads=True), pulses, 8.0, 1e-3, {0: 0.01 * 9000.0}, 20


def off_grid_pulses_case():
    # edges between dt grid points and away from any 200-step block edge
    pulses = [Pulse(bus=1, amplitude_mw=-1400.0, t_start_s=0.5004, t_end_s=3.2503),
              Pulse(bus=3, amplitude_mw=600.0, t_start_s=1.7771)]
    limits = {0: 0.02 * 9000.0, 1: 0.1 * 6000.0, 2: 0.005 * 2000.0}
    return n5_model(include_loads=True), pulses, 6.0, 1e-3, limits, 7


def zero_bound_case():
    # a bound of exactly 0 MW/s on bus 1: each of its clamp factors is 0
    model, pulses, t_end, dt, _, dec = tight_bound_case()
    return model, pulses, t_end, dt, {0: 0.0, 1: 0.05 * 6000.0}, dec


CLAMPED_CASES = [
    pytest.param(clamped_n5_case, id="n5-loads-0.01pu"),
    pytest.param(clamped_wind_case, id="n5-wind-0.01pu"),
    pytest.param(tight_bound_case, id="tight-bound"),
    pytest.param(off_grid_pulses_case, id="off-grid-pulses"),
    pytest.param(zero_bound_case, id="zero-bound"),
]


def assert_matches_clamped_reference(case):
    model, pulses, t_end, dt, limits, dec = case
    res = simulate(model, pulses, t_end=t_end, dt=dt,
                   rate_limits_mw_per_s=limits, record_decimation=dec)
    T, freq, tie, act = clamped_reference(model, pulses, t_end, dt, limits, dec)
    assert np.array_equal(res.time_s, T)
    assert np.abs(res.frequency_hz - freq).max() <= 1e-9
    assert np.abs(res.tie_flow_mw - tie).max() <= 1e-6
    assert res.actuator_mw.keys() == act.keys()
    for name, trace in act.items():
        assert np.abs(res.actuator_mw[name] - trace).max() <= 1e-6, name


@pytest.mark.parametrize("make_case", CLAMPED_CASES)
def test_simulate_rate_limiter_matches_stepwise_rk4(make_case):
    assert_matches_clamped_reference(make_case())


def test_simulate_rate_limiter_zero_bound_holds_hydro_output_at_zero():
    model, pulses, t_end, dt, limits, dec = zero_bound_case()
    res = simulate(model, pulses, t_end=t_end, dt=dt,
                   rate_limits_mw_per_s=limits, record_decimation=dec)
    assert np.all(res.actuator_mw["p_hydro_bus1"] == 0.0)
    assert np.abs(res.actuator_mw["p_hydro_bus2"]).max() > 1.0


def test_segment_starts_match_midpoint_searchsorted():
    # step k takes rows[searchsorted(edges, (k + 0.5) dt, side="right")]
    rng = np.random.default_rng(1501)
    for trial in range(300):
        dt = 10.0 ** rng.uniform(-4, 0)
        steps = int(rng.integers(1, 2000))
        mids = (np.arange(steps) + 0.5) * dt
        on_mid = mids[rng.integers(0, steps, 4)]
        edges = np.unique(np.concatenate([
            rng.uniform(-2 * dt, (steps + 2) * dt, rng.integers(0, 6)),
            on_mid,  # exactly on a midpoint
            np.nextafter(on_mid, -np.inf), np.nextafter(on_mid, np.inf),
            rng.integers(0, steps + 1, 2) * dt,  # on the step grid
            [0.0] if trial % 2 else [],
        ]))
        starts = simkit._segment_starts(edges, dt, steps)
        got = np.searchsorted(starts, np.arange(steps), side="right")
        assert np.array_equal(got, np.searchsorted(edges, mids, side="right"))
    # runs too long to list every midpoint: each start is the first step at
    # or after its edge
    for dt, steps in ((1e-9, 6 * 10**10), (1e-7, 6 * 10**8), (3e-3, 10**12)):
        k = rng.integers(0, steps, 20)
        edges = np.unique(np.concatenate([(k + 0.5) * dt, k * dt, rng.uniform(0, steps * dt, 20)]))
        for t, k0 in zip(edges.tolist(), simkit._segment_starts(edges, dt, steps)):
            assert (k0 == steps or (k0 + 0.5) * dt >= t) and (k0 == 0 or (k0 - 0.5) * dt < t)


def test_simulate_rate_limiter_blocks_capped_by_stack_size(monkeypatch):
    # a stack budget below one step's rows leaves blocks of a single step
    monkeypatch.setattr(simkit, "_STACK_DOUBLES", 1)
    assert_matches_clamped_reference(off_grid_pulses_case())


def test_simulate_rate_limiter_divergence_within_200_steps():
    # one bus: u' = 10 u starts near overflow beside a hydro state h' = -h
    # whose rate far exceeds its 1 MW/s bound, so every step runs stage by
    # stage with the clamp binding while u overflows (after about 1.5 s)
    model = simkit.StateSpaceModel(
        A=np.diag([10.0, -1.0]), B=np.zeros((2, 1)),
        C=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, -1.0]]), D=np.zeros((3, 1)),
        output_names=("delta_bus1", "f_bus1", "p_hydro_bus1"),
        state_roles=("u", "hydro_bus1_x0"), n_buses=1, inertia=np.ones(1),
        laplacian=np.zeros((1, 1)),
        actuator_blocks=(simkit._ActuatorBlock(bus=0, name="hydro", state_slice=slice(1, 2),
                                               c_local=np.ones(1)),),
    )
    x0, dt = np.array([1e300, 1e6]), 1e-3
    kw = dict(dt=dt, x0=x0, rate_limits_mw_per_s={0: 1.0})
    with pytest.raises(DivergenceError) as err:
        simulate(model, [], t_end=5.0, **kw)
    t = err.value.t
    assert 1.0 < t < 2.5
    # 200 steps before the error every state is still finite, so the error
    # comes within 200 steps of the first state that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        res = simulate(model, [], t_end=t - 200 * dt, **kw)
    assert res.time_s[-1] == pytest.approx(t - 200 * dt)
    # the clamp held h to its bound the whole way: h = 1e6 - 1 MW/s * t
    assert res.actuator_mw["p_hydro_bus1"] == pytest.approx(res.time_s - 1e6, abs=1e-6)


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
    M = np.array([a.inertia for a in n5_agents()])
    f = res.frequency_hz
    assert np.allclose(f.mean(axis=0), res.omega_avg_hz)
    assert np.allclose((M[:, None] * f).sum(axis=0) / M.sum(), res.omega_coi_hz)


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
    # the centre of inertia is undefined without inertia
    assert np.isnan(res.omega_coi_hz).all()
    assert np.isfinite(res.omega_avg_hz).all()


# ---------------------------------------------------------------- pade
def test_pade_orders_3_and_5_agree_on_n5_wind_slow_modes():
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
    base, other = (realize_state_space(n5_network(), agents, pade_order=q).eigenvalues
                   for q in (3, 5))
    # the near-axis, in-band modes; the fast Pade artefacts move with the order
    slow = base[(base.real >= -2.0) & (np.abs(base) <= 20.0)]
    assert slow.size
    moved = [np.abs(other - lam).min() / max(abs(lam), 1e-6) for lam in slow]
    assert max(moved) < 1e-3
