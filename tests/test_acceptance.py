"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criterion tolerances are pinned here, not configurable.

Criterion 3 checks the open-loop instability of the D = 0 hydro-FCR agents
against the table data: each FCR agent's RHP poles must equal the roots of
the agent quartic computed in the test from the scenario's JSON values with
plain numpy (1e-6 relative). That gives no RHP pole at bus 1 and the pair
+0.0054 +- 0.3456j at buses 2-3, all inside the r = 0.75 rad/s exclusion
disc; fov_check on the full-D contour must fail. The spec's band
"modulus in [0.35, 0.65] rad/s at every FCR bus" cannot be met by the table
data and is not checked; DECISIONS.md records why.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from scipy.optimize import brentq

from nyqscale.lti import rhp_poles_in_region
from nyqscale.network import normalize
from nyqscale.nyquist import (
    DecentralizedPolicy,
    decentralized_check,
    eigenloci_sweep,
    fov_check,
    make_contour,
    theorem1_check,
    winding_number,
    _default_contour,
)
from nyqscale.powerplant import assemble_agent
from nyqscale.scenario import bundled_scenario_path, load_scenario
from nyqscale.simkit import Pulse, realize_state_space, simulate
from nyqscale.lti import TransferFunction

from util import (
    network_from_laplacian,
    random_connected_laplacian,
    random_stable_proper_tf,
)

TF = TransferFunction


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}")
    return ok


@pytest.fixture(scope="module")
def n5_loads():
    return load_scenario(bundled_scenario_path("n5_hydro_loads"))


@pytest.fixture(scope="module")
def n5_d0():
    return load_scenario(bundled_scenario_path("n5_hydro_d0"))


@pytest.fixture(scope="module")
def n5_wind():
    return load_scenario(bundled_scenario_path("n5_hydro_wind"))


def test_criterion_1_oracle_equivalence():
    """100 random connected networks, random stable proper agents:
    theorem1 verdict == sign(max Re eig) in every non-marginal case."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = mismatches = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        L = random_connected_laplacian(rng, n)
        net = network_from_laplacian(L)
        netN = normalize(net)
        agents = [random_stable_proper_tf(rng) for _ in range(n)]
        model = realize_state_space(net, agents)
        max_re = float(model.eigenvalues.real.max())
        if abs(max_re) < 1e-6:
            continue
        verdict = theorem1_check(netN, agents)
        if (verdict.result == "stable") != (max_re < 0):
            mismatches += 1
        checked += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0
    assert report(
        1, ok, f"({checked} cases, {mismatches} mismatches, {elapsed:.1f} s)"
    )


def test_criterion_2_siso_reduction_exactness():
    """50 random homogeneous 2-bus cases: summed eigenloci winding equals
    the scalar Nyquist winding of mu2*gamma*g; zero mismatches."""
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(50):
        w = rng.uniform(0.2, 3.0)
        netN = normalize(network_from_laplacian([[w, -w], [-w, w]]))
        g = random_stable_proper_tf(rng)
        contour = _default_contour(netN.gamma, [g, g], "full-D", 0.0, None, 200)
        sweep = eigenloci_sweep(netN, [g, g], contour)
        w_multi, _ = sweep.total_winding()
        scalar_curve = netN.mu[1] * netN.gamma[0] * g(sweep.s_full)
        w_scalar = winding_number(scalar_curve, -1.0)
        if w_multi != w_scalar:
            mismatches += 1
    assert report(2, mismatches == 0, f"(50 cases, {mismatches} mismatches)")


def _fcr_agent_rhp_roots(bus_doc: dict, k: float) -> list[complex]:
    """Reference RHP poles of a hydro-FCR agent straight from its table row.

    With the model-matched actuator c*k*(6.5s+1)(z-s)/((2s+1)(17s+1)(z+s)),
    z = 1/(g0*Tw), the agent 1/(s^2 M + s(F + D)) has a pole at s = 0 and
    the roots of the quartic (sM + D)(2s+1)(17s+1)(z+s) + c*k*(6.5s+1)(z-s).
    The servo time constant cancels in the model matching. M = 2*W_kin/f0
    with f0 = 50 Hz (W_kin in GWs, M in MW*s/Hz). Plain numpy, no nyqscale
    transfer-function algebra.
    """
    h = bus_doc["hydro"]
    M = 2.0 * bus_doc["W_kin_GWs"] * 1000.0 / 50.0
    D = bus_doc.get("D_MW_per_Hz", 0.0)
    z = 1.0 / (h["g0"] * h["T_w"])
    swing = npp.polymul(
        npp.polymul([D, M], [1.0, 2.0]), npp.polymul([1.0, 17.0], [z, 1.0])
    )
    fcr = h["fcr_share"] * k * npp.polymul([1.0, 6.5], [z, -1.0])
    roots = npp.polyroots(npp.polyadd(swing, fcr))
    return sorted((complex(p) for p in roots if p.real > 0), key=lambda p: p.imag)


def test_criterion_3_d0_pole_band_and_fov_failure(n5_d0):
    """Hydro-FCR, D = 0: each FCR agent's RHP poles equal the quartic roots
    computed from the table values (1e-6 relative; none at bus 1, one
    conjugate pair at buses 2-3), all of them lie inside the r = 0.75 rad/s
    exclusion disc, and fov_check on the full-D contour fails.

    The spec's band "modulus in [0.35, 0.65] rad/s at every FCR bus" is not
    reachable from the table data; see DECISIONS.md.
    """
    t0 = time.time()
    with open(bundled_scenario_path("n5_hydro_d0")) as fh:
        doc = json.load(fh)
    k = doc["agents"]["fcr_design_k_MW_per_Hz"]
    fcr_rows = [b for b in doc["agents"]["buses"] if "hydro" in b]
    # agents are ordered like the network's bus list
    index = {b["id"]: i for i, b in enumerate(doc["network"]["buses"])}
    poles_ok = True
    pattern, details = [], []
    for row in fcr_rows:
        ref = _fcr_agent_rhp_roots(row, k)
        pattern.append(len(ref))
        g = n5_d0.agents[index[row["bus"]]].g_rational
        got = sorted(rhp_poles_in_region(g, 0.0), key=lambda p: p.imag)
        match = len(got) == len(ref) and all(
            abs(p - q) <= 1e-6 * abs(q) for p, q in zip(got, ref)
        )
        inside_disc = rhp_poles_in_region(g, 0.75) == []
        details.append(
            f"bus{row['bus']} ref {np.round(ref, 6).tolist()} "
            f"got {np.round(got, 6).tolist()}"
        )
        poles_ok = poles_ok and match and inside_disc
    expected_pattern = [0, 2, 2]  # RHP poles at buses 1-3
    netN = normalize(n5_d0.network)
    contour = _default_contour(netN.gamma, list(n5_d0.agents), "full-D", 0.0, None, 200)
    verdict = fov_check(netN, list(n5_d0.agents), contour)
    fov_fails = verdict.result == "unstable"
    elapsed = time.time() - t0
    ok = poles_ok and pattern == expected_pattern and fov_fails and elapsed < 10.0
    report(
        3,
        ok,
        f"(rhp poles {'match' if poles_ok else 'MISMATCH'}: {'; '.join(details)}; "
        f"fov full-D {'fails as required' if fov_fails else 'did not fail'}; "
        f"{elapsed:.1f} s)",
    )
    assert fov_fails
    assert pattern == expected_pattern, (
        f"RHP pole count per FCR bus {pattern}, expected {expected_pattern} "
        "(see DECISIONS.md)"
    )
    assert poles_ok, "see DECISIONS.md: " + "; ".join(details)


def test_criterion_4_loads_pole_gate_and_minimal_r(n5_loads):
    """Hydro-FCR with loads: r = 0.75 pole gate passes for every agent, and
    the minimal r at which fov_check passes lies in [0.30, 0.45]*2pi;
    cross-checked against the state-space oracle."""
    t0 = time.time()
    agents = list(n5_loads.agents)
    gate_ok = all(
        rhp_poles_in_region(a.g_rational, 0.75) == [] for a in agents
    )
    netN = normalize(n5_loads.network)

    def fov_passes(r):
        contour = make_contour("D_r", r, 2000.0, density=150)
        return fov_check(netN, agents, contour).result == "stable"

    lo, hi = 0.25 * 2 * math.pi, 0.50 * 2 * math.pi
    assert not fov_passes(lo) and fov_passes(hi)
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        if fov_passes(mid):
            hi = mid
        else:
            lo = mid
    r_min = hi
    in_band = 0.30 * 2 * math.pi <= r_min <= 0.45 * 2 * math.pi
    # oracle cross-check on the bundled topology: no closed-loop eigenvalue
    # with Re > 0 outside the |s| < r_min disc (here: none at all)
    model = realize_state_space(n5_loads.network, agents)
    ev = model.eigenvalues
    oracle_ok = not np.any((ev.real > 1e-9) & (np.abs(ev) >= r_min))
    elapsed = time.time() - t0
    ok = gate_ok and in_band and oracle_ok and elapsed < 30.0
    assert report(
        4,
        ok,
        f"(gate ok={gate_ok}, r_min={r_min:.4f} rad/s = "
        f"{r_min / (2 * math.pi):.4f}*2pi, oracle ok={oracle_ok}, {elapsed:.1f} s)",
    )


def test_criterion_5_wind_delay_crossing(n5_wind):
    """Idealized wind FFR vertex (delayed proportional reserve, hydro terms
    removed): first real-axis crossing at pi/(2 tau) within 1e-3 relative."""
    tau = 0.1
    target = math.pi / (2 * tau)
    shares = [0.6, 0.3, 0.1]
    gam = 2 * np.diag(n5_wind.network.laplacian)
    worst = 0.0
    for i in range(3):
        M = n5_wind.agents[i].inertia
        k = shares[i] * 1000.0

        def im_vertex(w, M=M, k=k, g=gam[i]):
            s = 1j * w
            F = k * np.exp(-s * tau)
            return float(np.imag(g / (s * (s * M + F))))

        w_star = brentq(im_vertex, 10.0, 20.0, xtol=1e-12)
        rel = abs(w_star - target) / target
        worst = max(worst, rel)
    assert report(5, worst < 1e-3, f"(worst relative error {worst:.2e})")


def test_criterion_6_wind_decentralized_and_oracle(n5_wind):
    """Hydro+wind, tau = 100 ms: all five agents pass the three-condition
    decentralized check with the bundled policy; the state-space oracle
    confirms no eigenvalue with Re > 0 outside the |s| < r disc."""
    t0 = time.time()
    policy = n5_wind.policy
    assert isinstance(policy, DecentralizedPolicy) and policy.r == 0.75
    netN = normalize(n5_wind.network)
    verdicts = [
        decentralized_check(a, float(g), policy, density=150)
        for a, g in zip(n5_wind.agents, netN.gamma)
    ]
    all_pass = all(v.result == "stable" for v in verdicts)
    model = realize_state_space(n5_wind.network, list(n5_wind.agents), pade_order=3)
    ev = model.eigenvalues
    oracle_ok = not np.any((ev.real > 1e-9) & (np.abs(ev) >= policy.r))
    elapsed = time.time() - t0
    ok = all_pass and oracle_ok and elapsed < 30.0
    assert report(
        6,
        ok,
        f"(agents pass={all_pass}, oracle ok={oracle_ok}, "
        f"max Re eig={ev.real.max():.2e}, {elapsed:.1f} s)",
    )


def test_criterion_7_steady_state_frequency(n5_loads):
    """Sustained -1400 MW step against F(0) = 3100 MW/Hz + 400 MW/Hz loads:
    settles at -0.400 Hz within 1%."""
    model = realize_state_space(n5_loads.network, list(n5_loads.agents))
    res = simulate(
        model,
        [Pulse(bus=1, amplitude_mw=-1400.0)],
        t_end=60.0,
        dt=1e-3,
        record_decimation=20,
    )
    final = float(res.omega_avg_hz[-1])
    ok = abs(final - (-0.400)) <= 0.01 * 0.400
    assert report(7, ok, f"(settled at {final:.4f} Hz)")


def test_criterion_8_model_matching_identity(n5_loads):
    """K*H_hydro reproduces c*F_des*(z-s)/(z+s) with coefficient residual
    < 1e-9 for all machine-table rows."""
    from nyqscale.powerplant import (
        HydroParams,
        make_fcr_controller,
        make_fdes,
        make_hydro_turbine,
    )

    f_des = make_fdes(3100.0)
    rows = [(0.6, 0.2, 0.7, 0.8), (0.3, 0.2, 1.4, 0.8), (0.1, 0.2, 1.4, 0.8)]
    worst = 0.0
    for share, ty, tw, g0 in rows:
        h = make_hydro_turbine(HydroParams(ty, tw, g0))
        design = make_fcr_controller(share, f_des, h)
        composed = design.controller * h
        lhs = (composed.num * design.actuator.den).as_array()
        rhs = (design.actuator.num * composed.den).as_array()
        m = max(len(lhs), len(rhs))
        lhs = np.pad(lhs, (0, m - len(lhs)))
        rhs = np.pad(rhs, (0, m - len(rhs)))
        worst = max(
            worst, float(np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1.0))
        )
    assert report(8, worst < 1e-9, f"(worst coefficient residual {worst:.2e})")


def test_criterion_9_remark1_convergence(n5_loads, n5_wind):
    """Every stable bundled simulation: |omega_avg - omega_COI| at 60 s is
    below 1% of the peak deviation."""
    worst = 0.0
    for scn in (n5_loads, n5_wind):
        model = realize_state_space(scn.network, list(scn.agents))
        if model.eigenvalues.real.max() > 1e-9:
            continue  # only stable runs are in scope
        res = simulate(
            model,
            [Pulse(bus=1, amplitude_mw=-1400.0)],
            t_end=60.0,
            dt=1e-3,
            record_decimation=50,
        )
        gap = abs(float(res.omega_avg_hz[-1] - res.omega_coi_hz[-1]))
        ratio = gap / res.peak_avg_deviation_hz
        worst = max(worst, ratio)
    assert report(9, worst < 0.01, f"(worst |avg-coi|/peak = {worst:.4f})")
