"""Contour geometry, winding numbers, eigenloci sweeps."""

import math

import numpy as np
import pytest

from nyqscale.errors import (
    ContourError,
    InvalidInputError,
    MarginalStabilityError,
    UndersampledContourError,
)
from nyqscale.lti import TransferFunction
from nyqscale.network import normalize
from nyqscale.nyquist import (
    eigenloci_sweep,
    make_contour,
    winding_number,
    _default_contour,
)
from nyqscale.powerplant import assemble_agent
from nyqscale.scenario import bundled_scenario_path, load_scenario

from util import network_from_laplacian, ray_crossing_winding

TF = TransferFunction.from_coeffs


# ---------------------------------------------------------------- contours
def test_contour_full_d_origin_indent():
    c = make_contour("full-D", 0.0, 100.0, jw_pole_list=[0.0])
    # degenerate D_r with tiny r = 1e-4 * R
    assert c.indent_radius == pytest.approx(1e-2)
    pts = c.upper_points()
    assert pts[0] == pytest.approx(1e-2)  # starts on the positive real axis
    assert pts[-1] == pytest.approx(100.0)


def test_contour_dr_first_axis_sample():
    c = make_contour("D_r", 0.75, 1e3)
    roles = c.node_roles()
    pts = c.upper_points()
    first_axis = pts[roles.index("axis")]
    assert first_axis == pytest.approx(0.75j)


def test_contour_dr_paper_interarea_radius():
    r = 0.37 * 2 * math.pi
    c = make_contour("D_r", r, 1e3)
    roles = c.node_roles()
    pts = c.upper_points()
    first_axis = pts[roles.index("axis")]
    assert first_axis.imag == pytest.approx(2.32478, abs=1e-5)


def test_contour_closed_and_conjugate_mirrored():
    c = make_contour("D_r", 0.5, 200.0, jw_pole_list=[3.0])
    s = c.samples
    assert s[0] == s[-1]
    m = len(c.upper_points())
    assert np.allclose(s[:m], np.conj(s[-1:-m - 1:-1]))
    # clockwise: axis upward first, so early samples have increasing imag
    roles = c.node_roles()
    ax = [p for p, r in zip(c.upper_points(), roles) if r == "axis"]
    assert ax[0].imag < ax[-1].imag


def test_contour_indentation_overlap_rejected():
    with pytest.raises(ContourError):
        make_contour("D_r", 0.5, 100.0, jw_pole_list=[2.0, 2.0 + 1e-5], indent_radius=0.01)


def test_contour_density_validation():
    with pytest.raises(InvalidInputError):
        make_contour("D_r", 0.5, 100.0, density=50)


def test_contour_extra_axis_marker():
    w = math.pi / (2 * 0.1)
    c = make_contour("D_r", 0.75, 1e3, extra_axis_omegas=[w])
    axis_omegas = [p.imag for p, r in zip(c.upper_points(), c.node_roles()) if r == "axis"]
    assert min(abs(o - w) for o in axis_omegas) < 1e-9


# ---------------------------------------------------------------- winding
def test_winding_circle_both_orientations():
    th = np.linspace(0, 2 * math.pi, 401)
    circle = 2.0 * np.exp(1j * th)
    assert winding_number(circle, -1.0) == 1
    assert winding_number(circle[::-1], -1.0) == -1


def test_winding_small_circle_excludes_point():
    th = np.linspace(0, 2 * math.pi, 401)
    assert winding_number(0.5 * np.exp(1j * th), -1.0) == 0


def test_winding_trochoid_vs_ray_crossing_oracle():
    # frozen from the crossing-parity oracle: winding = +1
    th = np.linspace(0.05, 0.05 + 2 * math.pi, 20001)
    curve = 1.5 * np.exp(1j * th) + 0.2 * np.exp(-3j * th)
    oracle = ray_crossing_winding(curve, -1.0)
    assert oracle == 1
    assert winding_number(curve, -1.0) == oracle


def test_winding_point_on_curve_rejected():
    th = np.linspace(0, 2 * math.pi, 401)
    curve = np.exp(1j * th)  # passes through -1
    with pytest.raises(MarginalStabilityError):
        winding_number(curve, -1.0)


def test_winding_undersampled_rejected():
    # antipodal step: the chord passes through the point, arg jump = pi
    degenerate = np.array([1.0 + 0j, -1.0 + 0j, 1.0 + 0j])
    with pytest.raises(UndersampledContourError):
        winding_number(degenerate, 0.0)
    square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    with pytest.raises(InvalidInputError):
        winding_number(square[:-1], 0.0)  # not closed


def test_winding_tolerance_is_local_to_the_point():
    # damped copies of the n5_hydro_wind inertia agents at buses 4-5 on the
    # scenario's full-D contour: they pass -1 at 8.2e-3 and 3.9e-4 while the
    # origin indentation drives them to ~3e10
    scn = load_scenario(bundled_scenario_path("n5_hydro_wind"))
    netN = normalize(scn.network)
    agents = list(scn.agents)
    s = _default_contour(netN, agents, "full-D", 0.0, None, scn.contour_density, 3).samples
    for i in (3, 4):
        damped = assemble_agent(agents[i].inertia, load_damping_mw_per_hz=0.01)
        curve = netN.gamma[i] * damped.g_value(s)
        assert np.abs(curve).max() > 1e10 and np.abs(curve + 1).min() < 1e-2
        assert winding_number(curve, -1.0) == ray_crossing_winding(curve, -1.0) == 0
        # undamped, the vertex -gamma/(M w^2) runs along the negative real
        # axis through -1 itself: no winding exists
        with pytest.raises((MarginalStabilityError, UndersampledContourError)):
            winding_number(netN.gamma[i] * agents[i].g_value(s), -1.0)


def test_winding_integerness_random_loops():
    rng = np.random.default_rng(23)
    # start away from theta = 0 so the seam never sits on the oracle's ray
    th = np.linspace(0.0317, 0.0317 + 2 * math.pi, 4001)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.0, 0.4)
        k = int(rng.integers(1, 4))
        curve = a * np.exp(1j * th) + b * np.exp(-1j * k * th) + rng.uniform(-0.3, 0.3)
        curve[-1] = curve[0]
        try:
            w = winding_number(curve, -1.0)
        except MarginalStabilityError:
            continue
        assert w == ray_crossing_winding(curve, -1.0)


# ---------------------------------------------------------------- sweeps
def two_bus(gamma_total=2.0):
    w = gamma_total / 2.0
    return normalize(network_from_laplacian([[w, -w], [-w, w]]))


def test_sweep_rank_one_reduction_two_bus():
    # n=2 homogeneous: the single interarea locus is mu_2 * gamma * g(s)
    netN = two_bus()
    g = TF([1.0], [1.0, 1.0, 1.0])
    contour = make_contour("full-D", 0.0, 50.0)
    sweep = eigenloci_sweep(netN, [g, g], contour)
    assert sweep.branches_upper.shape[1] == 1
    mu2 = netN.mu[1]
    gam = netN.gamma[0]
    expected = mu2 * gam * g(sweep.s_upper)
    assert np.allclose(sweep.branches_upper[:, 0], expected, rtol=1e-10, atol=1e-12)


def test_sweep_zero_agents_all_loci_zero():
    netN = two_bus()
    zero = TF([0.0], [1.0])
    contour = make_contour("full-D", 0.0, 10.0)
    sweep = eigenloci_sweep(netN, [zero, zero], contour)
    assert np.abs(sweep.branches_upper).max() == 0.0


def test_sweep_vertices_recorded_for_all_agents():
    netN = two_bus()
    g1, g2 = TF([1.0], [1.0, 1.0]), TF([2.0], [1.0, 0.5])
    contour = make_contour("full-D", 0.0, 50.0)
    sweep = eigenloci_sweep(netN, [g1, g2], contour)
    assert sweep.vertices_upper.shape == (len(sweep.s_upper), 2)
    assert np.allclose(sweep.vertices_upper[:, 0], netN.gamma[0] * g1(sweep.s_upper))


def test_sweep_conjugate_symmetry_against_direct_lower_half():
    rng = np.random.default_rng(4)
    from util import random_connected_laplacian, random_stable_proper_tf

    L = random_connected_laplacian(rng, 4)
    netN = normalize(network_from_laplacian(L))
    agents = [random_stable_proper_tf(rng) for _ in range(4)]
    contour = make_contour("full-D", 0.0, 200.0)
    sweep = eigenloci_sweep(netN, agents, contour)
    # direct recomputation at conjugated sample points
    idx = np.linspace(0, len(sweep.s_upper) - 1, 25).astype(int)
    for i in idx:
        s = np.conj(sweep.s_upper[i])
        verts = np.array([netN.gamma[k] * agents[k](s) for k in range(4)])
        mats = netN.U_hat.T @ np.diag(verts) @ netN.U_hat * netN.mu_hat[None, :]
        eig_direct = np.sort_complex(np.linalg.eigvals(mats))
        eig_mirror = np.sort_complex(np.conj(sweep.branches_upper[i]))
        assert np.allclose(eig_direct, eig_mirror, rtol=1e-10, atol=1e-10)


def test_sweep_loci_inside_scaled_vertex_hull():
    # field-of-values containment: each locus inside the union over
    # alpha in [mu_2, 1] of alpha * hull(vertices)
    rng = np.random.default_rng(9)
    from util import random_connected_laplacian, random_stable_proper_tf

    for _ in range(5):
        n = int(rng.integers(2, 6))
        L = random_connected_laplacian(rng, n)
        netN = normalize(network_from_laplacian(L))
        agents = [random_stable_proper_tf(rng) for _ in range(n)]
        contour = make_contour("full-D", 0.0, 100.0)
        sweep = eigenloci_sweep(netN, agents, contour)
        idx = np.linspace(0, len(sweep.s_upper) - 1, 40).astype(int)
        alphas = np.linspace(netN.mu[1], 1.0, 160)
        for i in idx:
            verts = sweep.vertices_upper[i]
            for lam in sweep.branches_upper[i]:
                ok = any(_in_hull(lam / a, verts) for a in alphas)
                assert ok, f"locus {lam} escaped the scaled vertex hull"


def _in_hull(point, verts, tol=1e-7):
    """Membership of point in conv(verts) via support-function check over
    many directions (robust for degenerate hulls)."""
    p = complex(point)
    scale = max(1.0, max(abs(v) for v in verts))
    for theta in np.linspace(0, 2 * math.pi, 90, endpoint=False):
        d = complex(math.cos(theta), math.sin(theta))
        support = max((v * d.conjugate()).real for v in verts)
        if (p * d.conjugate()).real > support + tol * scale:
            return False
    return True
