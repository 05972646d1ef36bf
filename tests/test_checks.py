"""theorem1 / fov / decentralized / lossy checks against independent oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nyqscale.errors import InvalidInputError
from nyqscale.lti import TransferFunction, poly_roots
from nyqscale.network import normalize
from nyqscale.nyquist import (
    DecentralizedPolicy,
    decentralized_check,
    default_outer_radius,
    fov_check,
    lossy_exponential_check,
    make_contour,
    theorem1_check,
    vertex_axis_crossings,
    _default_contour,
)
from nyqscale.powerplant import (
    HydroParams,
    WindParams,
    assemble_agent,
    make_fcr_controller,
    make_fdes,
    make_ffr_controller,
    make_hydro_turbine,
    make_wind_turbine,
)
from nyqscale.scenario import bundled_scenario_path, load_scenario
from nyqscale.simkit import realize_state_space

from util import (
    network_from_laplacian,
    random_connected_laplacian,
    random_stable_proper_tf,
)

TF = TransferFunction.from_coeffs


def two_bus_norm(w=1.0):
    return normalize(network_from_laplacian([[w, -w], [-w, w]]))


# ---------------------------------------------------------------- theorem 1
def test_theorem1_two_bus_type1_stable():
    # g = 1/(s(s+1)): closed interarea char s^2 + s + mu2*gamma > 0 (Routh)
    netN = two_bus_norm(1.0)
    g = TF([1.0], [0.0, 1.0, 1.0])
    v = theorem1_check(netN, [g, g])
    assert v.result == "stable"
    assert v.winding_count == 0 and v.n_required == 0
    # root oracle
    roots = poly_roots(TF([1.0], [0.0, 1.0, 1.0]).den * 1 + 0 * TF([1.0], [1.0]).den)


def test_theorem1_two_bus_unstable_agent_small_gain():
    # g = 1/(s(s-1)), mu2*gamma = 0.1: char s^2 - s + 0.1 has RHP roots
    netN = two_bus_norm(0.05)  # gamma = 0.1, mu2 = 1
    g = TF([1.0], [0.0, -1.0, 1.0])
    v = theorem1_check(netN, [g, g])
    assert v.result == "unstable"
    assert v.n_required == 1  # shared simple pole: Smith-McMillan rank 1
    assert v.winding_count != v.n_required
    char_roots = np.roots([1.0, -1.0, 0.1])
    assert np.all(np.real(char_roots) > 0)


def test_theorem1_shared_pole_smith_mcmillan_count():
    # three homogeneous agents sharing one RHP pole: N = rank = n-1 = 2
    L = random_connected_laplacian(np.random.default_rng(0), 3)
    netN = normalize(network_from_laplacian(L))
    g = TF([1.0], [0.0, -1.0, 1.0])
    v = theorem1_check(netN, [g, g, g])
    assert v.n_required == 2


def test_theorem1_distinct_rhp_poles_counted_individually():
    netN = two_bus_norm(1.0)
    g1 = TF([1.0], [-1.0, 1.0])  # pole +1
    g2 = TF([1.0], [-2.0, 1.0])  # pole +2
    v = theorem1_check(netN, [g1, g2])
    assert v.n_required == 2


def test_theorem1_degenerate_zero_loop():
    netN = two_bus_norm(1.0)
    zero = TF([0.0], [1.0])
    v = theorem1_check(netN, [zero, zero])
    assert v.result == "inconclusive"
    assert any("degenerate" in viol.condition for viol in v.violated_conditions)


def test_theorem1_verdict_matches_eigen_oracle_small_batch():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 5))
        L = random_connected_laplacian(rng, n)
        net = network_from_laplacian(L)
        netN = normalize(net)
        agents = [random_stable_proper_tf(rng) for _ in range(n)]
        model = realize_state_space(net, agents)
        max_re = float(model.eigenvalues.real.max())
        if abs(max_re) < 1e-6:
            continue
        v = theorem1_check(netN, agents)
        assert v.result in ("stable", "unstable")
        assert (v.result == "stable") == (max_re < 0), (
            f"mismatch: verdict {v.result}, max Re {max_re:.3e}"
        )
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------------- lossy
def test_lossy_high_gain_first_order_stable():
    netN = two_bus_norm(1.0)
    g = TF([1.0], [1.0, 1.0])
    v = lossy_exponential_check(netN, [g, g], epsilon=5.0)
    assert v.result == "stable"


def test_lossy_epsilon_zero_rejected():
    netN = two_bus_norm(1.0)
    g = TF([1.0], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        lossy_exponential_check(netN, [g, g], epsilon=0.0)


def test_lossy_matches_root_oracle():
    # 2-bus homogeneous g = 1/(s(s+1)), eps = 0.1:
    # loci i: gamma*(mu_i+eps)*g; char s^2+s+gamma*(mu_i+eps), all stable
    netN = two_bus_norm(1.0)
    g = TF([1.0], [0.0, 1.0, 1.0])
    v = lossy_exponential_check(netN, [g, g], epsilon=0.1)
    assert v.result == "stable"
    for mu in netN.mu:
        roots = np.roots([1.0, 1.0, netN.gamma[0] * (mu + 0.1)])
        assert np.all(roots.real < 0)


def test_lossy_detects_unstable_closed_loop():
    # negative-gain lag: mode char (s+1) - 3*gamma*(mu+eps) has the root
    # s = 3*gamma*(mu+eps) - 1, unstable for the average-ish mode
    netN = two_bus_norm(1.0)
    g = TF([-3.0], [1.0, 1.0])
    v_lossy = lossy_exponential_check(netN, [g, g], epsilon=0.4)
    worst_root = max(3.0 * netN.gamma[0] * (mu + 0.4) - 1.0 for mu in netN.mu)
    assert worst_root > 0
    assert v_lossy.result == "unstable"


# ------------------------------------------------- bundled N5 vs the oracle
def _n5(name):
    scn = load_scenario(bundled_scenario_path(name))
    return scn, normalize(scn.network), list(scn.agents)


def _oracle_unstable_count(scn, r=0.0, epsilon=None):
    """Closed-loop eigenvalues of the state-space oracle with Re > 0 in the
    contour's region (|lambda| >= r; off the origin for the full D). With
    ``epsilon`` the lossy interconnection L + eps*Gamma: A - B eps Gamma C_delta."""
    model = realize_state_space(scn.network, list(scn.agents))
    A = model.A
    if epsilon is not None:
        gamma = normalize(scn.network).gamma
        A = A - model.B @ (epsilon * np.diag(gamma)) @ model.delta_rows
    ev = np.linalg.eigvals(A)
    mod = np.abs(ev)
    assert not np.any((np.abs(ev.real) <= 1e-9) & (mod > 1e-6)), "oracle is marginal"
    return int(np.sum((ev.real > 1e-9) & (mod >= max(r, 1e-6))))


@pytest.mark.parametrize("name, expected", [
    ("n5_hydro_d0", "unstable"),
    ("n5_hydro_loads", "stable"),
    ("n5_hydro_wind", "stable"),
])
def test_theorem1_bundled_full_d_matches_oracle(name, expected):
    # type-1 agents drive the loci to ~1e10 on the origin indentation; the
    # winding must still resolve a pass of -1 at 1e-4
    scn, netN, agents = _n5(name)
    v = theorem1_check(netN, agents)
    Z = _oracle_unstable_count(scn)
    assert v.result == expected == ("stable" if Z == 0 else "unstable")
    assert v.winding_count == v.n_required - Z
    assert v.sweep is not None and v.sweep.eigs_upper.shape[1] == netN.n - 1


def test_lossy_d0_full_d_matches_oracle():
    scn, netN, agents = _n5("n5_hydro_d0")
    v = lossy_exponential_check(netN, agents, 0.01)
    Z = _oracle_unstable_count(scn, epsilon=0.01)
    assert (v.result, v.n_required, Z) == ("unstable", 4, 10)
    assert v.winding_count == v.n_required - Z


@pytest.mark.parametrize("r", [0.75, 5.0, 10.0])
def test_theorem1_d0_dr_counts_poles_in_contour_region(r):
    # N and Z both count only poles with |p| >= r: the d0 agents' RHP poles
    # sit at modulus 0.35, inside every one of these discs
    scn, netN, agents = _n5("n5_hydro_d0")
    contour = _default_contour(netN, agents, "D_r", r, None, 200, 3)
    v = theorem1_check(netN, agents, contour)
    Z = _oracle_unstable_count(scn, r=r)
    assert v.n_required == 0
    assert v.winding_count == v.n_required - Z
    assert v.result == ("stable" if Z == 0 else "unstable")


# ---------------------------------------------------------------- fov
def test_fov_positive_real_agents_stable():
    netN = two_bus_norm(1.0)
    g = TF([1.0], [1.0, 1.0])  # Re g(jw) > 0
    contour = make_contour("full-D", 0.0, 200.0)
    v = fov_check(netN, [g, g], contour)
    assert v.result == "stable"


def test_fov_pole_gate_failure_reported():
    netN = two_bus_norm(1.0)
    g = TF([1.0], [-0.5, 1.0])  # RHP pole 0.5
    contour = make_contour("full-D", 0.0, 200.0)
    v = fov_check(netN, [g, g], contour)
    assert v.result == "unstable"
    conds = [viol.condition for viol in v.violated_conditions]
    assert "pole-gate" in conds
    # the same agents pass the gate on a D_r contour that excludes the pole
    contour_r = make_contour("D_r", 0.75, 200.0)
    v2 = fov_check(netN, [g, g], contour_r)
    assert "pole-gate" not in [viol.condition for viol in v2.violated_conditions]


def test_fov_ray_violation_detected():
    # strong negative-real vertex: hull hits (-inf, -1]
    netN = two_bus_norm(10.0)  # gamma = 20
    g = TF([1.0], [0.0, 0.0, 1.0])  # 1/s^2: vertex -gamma/w^2 on the ray
    contour = make_contour("D_r", 1.0, 500.0)
    v = fov_check(netN, [g, g], contour)
    assert v.result == "unstable"
    assert any(viol.condition == "fov-ray" for viol in v.violated_conditions)


def test_fov_conservative_wrt_theorem1():
    # whenever fov certifies on full-D with N = 0, theorem1 agrees
    rng = np.random.default_rng(77)
    agree = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        L = random_connected_laplacian(rng, n)
        netN = normalize(network_from_laplacian(L))
        agents = [random_stable_proper_tf(rng) for _ in range(n)]
        contour = make_contour("full-D", 0.0, 300.0)
        v_fov = fov_check(netN, agents, contour)
        if v_fov.result != "stable":
            continue
        v_thm = theorem1_check(netN, agents)
        assert v_thm.result == "stable", "fov certified but theorem1 disagrees"
        agree += 1
    assert agree >= 3


def test_fov_alpha_fallback_is_labeled_heuristic():
    netN = two_bus_norm(10.0)
    g = TF([1.0], [0.0, 0.0, 1.0])
    contour = make_contour("D_r", 1.0, 500.0)
    v = fov_check(netN, [g, g], contour, alpha_fallback=True)
    assert "alpha_fallback" in v.diagnostics
    assert v.diagnostics["alpha_fallback"]["heuristic"] is True
    # vertices slide along the ray itself here: windings are marginal/zero,
    # never certifying stability
    assert v.result in ("unstable", "inconclusive")


# ---------------------------------------------------------------- decentralized
POLICY = DecentralizedPolicy(
    r=0.75,
    hyperplane_point=-0.9 + 0j,
    hyperplane_normal=1.0 + 0j,
    tau_max=0.1,
)


def test_decentralized_inertia_agent_small_gamma_passes():
    # gamma/(r^2 M) < 1: vertex magnitude stays below 1 on the contour
    agent = assemble_agent(10.0)
    v = decentralized_check(agent, gamma_bound=10.0 * 0.75**2 * 0.5, policy=POLICY)
    assert v.result == "stable"


def test_decentralized_inertia_agent_large_gamma_passes_condition2():
    # vertex = -gamma/(w^2 M) never has Im > 0: condition 2 holds even for
    # large gamma (the real-axis excursion left of -1 is allowed)
    agent = assemble_agent(10.0)
    v = decentralized_check(agent, gamma_bound=100.0, policy=POLICY)
    conds = [viol.condition for viol in v.violated_conditions]
    assert "vertex-in-top-left-of-minus-one" not in conds
    assert v.result == "stable"


def test_decentralized_wind_delay_crossing_at_pi_over_2tau():
    # pure delayed proportional FFR: vertex crosses the real axis exactly
    # at pi/(2 tau)
    tau = 0.1
    f_wind = TransferFunction.from_coeffs([600.0], [1.0], delay_s=tau)
    agent = assemble_agent(1360.0, [f_wind], part_names=["wind"])
    crossings = vertex_axis_crossings(agent, 38955.7, 2.0, 40.0)
    assert crossings, "no crossing found"
    w0 = crossings[0]["omega_rad_s"]
    assert abs(w0 - math.pi / (2 * tau)) / (math.pi / (2 * tau)) < 1e-9
    assert crossings[0]["re"] > -1.0  # crosses right of -1 for this gamma


def _brentq_crossings(agent, gamma, omega_lo, omega_hi, density=400):
    """Reference: one scalar brentq per sign change of Im on the same grid."""
    def im_vertex(w):
        return float(np.imag(gamma * agent.g_value(1j * w)))

    grid = np.geomspace(omega_lo, omega_hi,
                        max(64, int(density * math.log10(omega_hi / omega_lo))))
    vals = np.imag(gamma * agent.g_value(1j * grid))
    out = []
    for i in np.flatnonzero(np.diff(np.signbit(vals))):
        try:
            out.append(brentq(im_vertex, grid[i], grid[i + 1], xtol=1e-12, rtol=1e-12))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("name", ["n5_hydro_loads", "n5_hydro_wind", "n5_hydro_d0"])
def test_vertex_axis_crossings_match_brentq_on_bundled_agents(name):
    scn = load_scenario(bundled_scenario_path(name))
    netN = normalize(scn.network)
    total = 0
    for agent, gamma in zip(scn.agents, netN.gamma):
        R = max(default_outer_radius([agent], [gamma]), 75.0, 4.0 * math.pi / 0.2)
        got = vertex_axis_crossings(agent, float(gamma), 0.75, R)
        ref = _brentq_crossings(agent, float(gamma), 0.75, R)
        assert len(got) == len(ref)
        for c, w in zip(got, ref):
            assert abs(c["omega_rad_s"] - w) <= 1e-10 * w
            assert c["re"] == pytest.approx(float(np.real(gamma * agent.g_value(1j * w))),
                                            rel=1e-8, abs=1e-12)
        total += len(ref)
    assert total == {"n5_hydro_loads": 4, "n5_hydro_wind": 502, "n5_hydro_d0": 0}[name]


def test_decentralized_unstable_pole_inside_region_fails():
    g_bad = TF([1.0], [-2.0, 1.0])  # pole at +2 > r
    agent = assemble_agent(1.0, [TF([1.0], [1.0])])
    v = decentralized_check(g_bad, gamma_bound=1.0, policy=POLICY)
    assert v.result == "unstable"
    assert any(
        viol.condition == "unstable-poles-inside-contour"
        for viol in v.violated_conditions
    )


def test_decentralized_hyperplane_violation_detected():
    # stable agent (small delayed damping), but gamma so large the vertex
    # still sits left of Re = -0.9 above pi/(2 tau_max)
    f = TransferFunction.from_coeffs([50.0], [1.0], delay_s=0.1)
    agent = assemble_agent(100.0, [f])
    v = decentralized_check(agent, gamma_bound=40000.0, policy=POLICY)
    assert v.result == "unstable"
    conds = [viol.condition for viol in v.violated_conditions]
    assert "unstable-poles-inside-contour" not in conds
    assert "vertex-off-hyperplane-side" in conds or "vertex-in-top-left-of-minus-one" in conds


def test_decentralized_pass_implies_hull_on_policy_side():
    # all-agent pass => above pi/(2 tau_max) every vertex is right of the
    # hyperplane, hence (convexity) the hull cannot reach (-inf, -1]
    rng = np.random.default_rng(5)
    n = 4
    L = random_connected_laplacian(rng, n)
    netN = normalize(network_from_laplacian(L))
    agents = [random_stable_proper_tf(rng, strictly_proper=True) for _ in range(n)]
    results = [
        decentralized_check(a, gamma_bound=float(g), policy=POLICY)
        for a, g in zip(agents, netN.gamma)
    ]
    if all(r.result == "stable" for r in results):
        omegas = np.geomspace(math.pi / (2 * POLICY.tau_max) * 1.01, 500.0, 400)
        verts = np.stack(
            [g * a(1j * omegas) for a, g in zip(agents, netN.gamma)], axis=1
        )
        for k in range(len(omegas)):
            assert POLICY.side(verts[k]).min() > 0


# ---------------------------------------------------------------- N5 spot checks
def n5_hydro_agents(include_loads: bool):
    f_des = make_fdes(3100.0)
    W = [34.0, 22.5, 7.5, 33.0, 13.0]
    D = [150.0, 60.0, 20.0, 120.0, 50.0] if include_loads else [0.0] * 5
    rows = [
        (0.6, 0.2, 0.7, 0.8),
        (0.3, 0.2, 1.4, 0.8),
        (0.1, 0.2, 1.4, 0.8),
    ]
    agents = []
    for i in range(5):
        M = 2 * W[i] * 1000 / 50
        parts, names = [], []
        if i < 3:
            share, ty, tw, g0 = rows[i]
            h = make_hydro_turbine(HydroParams(ty, tw, g0))
            parts.append(make_fcr_controller(share, f_des, h).actuator)
            names.append("hydro")
        agents.append(
            assemble_agent(M, parts, load_damping_mw_per_hz=D[i], part_names=names)
        )
    return agents


def n5_gamma():
    return 2 * math.pi * np.array([6.2, 10.2, 5.2, 7.5, 3.0]) * 1000.0


def test_n5_wind_agents_pass_decentralized():
    # criterion-6 shaped spot check at reduced density (fast)
    f_des = make_fdes(3100.0)
    hydro_rows = [(0.6, 0.7), (0.3, 1.4), (0.1, 1.4)]
    wind_rows = [(0.6, 10.0), (0.3, 6.0), (0.1, 7.0)]
    W = [34.0, 22.5, 7.5, 33.0, 13.0]
    gam = n5_gamma()
    for i in range(5):
        parts, names = [], []
        if i < 3:
            share, tw = hydro_rows[i]
            h = make_hydro_turbine(HydroParams(0.2, tw, 0.8))
            parts.append(make_fcr_controller(share, f_des, h).actuator)
            names.append("hydro")
            ws, v = wind_rows[i][0], wind_rows[i][1]
            hw = make_wind_turbine(WindParams(v))
            parts.append(make_ffr_controller(ws, 1000.0, 0.1, hw))
            names.append("wind")
        agent = assemble_agent(2 * W[i] * 1000 / 50, parts, part_names=names)
        verdict = decentralized_check(agent, float(gam[i]), POLICY, density=120)
        assert verdict.result == "stable", (i, verdict.violated_conditions)
