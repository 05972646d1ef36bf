"""Contour geometry, winding numbers, eigenloci sweeps."""

import importlib.util
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nyqscale
from nyqscale import nyquist
from nyqscale.errors import (
    ContourError,
    InvalidInputError,
    MarginalStabilityError,
    UndersampledContourError,
)
from nyqscale.lti import TransferFunction
from nyqscale.network import normalize
from nyqscale.nyquist import (
    _hull_ray_min_x,
    eigenloci_sweep,
    make_contour,
    winding_number,
    _default_contour,
)
from nyqscale.powerplant import Agent, assemble_agent
from nyqscale.scenario import bundled_scenario_path, load_scenario

from util import (
    hull_ray_min_x_loops,
    network_from_laplacian,
    outer_radius_doubling,
    ray_crossing_winding,
    sequential_branches,
)

TF = TransferFunction


def _closed_loop(contour):
    # the upper chain, then its conjugate mirror back to the first point
    up = contour.upper_points()
    return np.concatenate([up, np.conj(up[-2::-1])])


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
    first_axis = pts[np.flatnonzero(roles == "axis")[0]]
    assert first_axis == pytest.approx(0.75j)


def test_contour_dr_paper_interarea_radius():
    r = 0.37 * 2 * math.pi
    c = make_contour("D_r", r, 1e3)
    roles = c.node_roles()
    pts = c.upper_points()
    first_axis = pts[np.flatnonzero(roles == "axis")[0]]
    assert first_axis.imag == pytest.approx(2.32478, abs=1e-5)


def test_contour_closed_and_conjugate_mirrored():
    c = make_contour("D_r", 0.5, 200.0, jw_pole_list=[3.0])
    s = _closed_loop(c)
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


@pytest.mark.parametrize("R", [math.inf, math.nan, -1.0])
def test_contour_rejects_non_finite_or_negative_radius(R):
    with pytest.raises(InvalidInputError):
        make_contour("D_r", 0.5, R)


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


def test_ray_crossing_oracle_rejects_curve_through_point():
    # boundary of the upper half disc about -1: out along the real axis
    # through -1 (no sample on it), back over the arc. Counting crossings
    # alone would call this +1, though no winding exists.
    line = np.linspace(-3.0, 1.0, 10) - 0.0j
    arc = -1.0 + 2.0 * np.exp(1j * np.linspace(0.0, math.pi, 50))
    curve = np.concatenate([line, arc[1:-1], line[:1]])
    assert not np.any(curve == -1.0)
    with pytest.raises(ValueError):
        ray_crossing_winding(curve, -1.0)
    with pytest.raises(ValueError):
        ray_crossing_winding(np.array([1j, -1.0, -1j, 1j]), -1.0)
    assert ray_crossing_winding(curve, -1.0 + 0.5j) == 1


def test_winding_undersampled_rejected():
    # antipodal step: the chord passes through the point, arg jump = pi
    degenerate = np.array([1.0 + 0j, -1.0 + 0j, 1.0 + 0j])
    with pytest.raises(UndersampledContourError):
        winding_number(degenerate, 0.0)
    square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    with pytest.raises(InvalidInputError):
        winding_number(square[:-1], 0.0)  # not closed
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):  # no argument exists
        curve = 2.0 * np.exp(1j * np.linspace(0, 2 * math.pi, 401))
        curve[200] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            winding_number(curve, -1.0)


def test_winding_tolerance_is_local_to_the_point():
    # damped copies of the n5_hydro_wind inertia agents at buses 4-5 on the
    # scenario's full-D contour: they pass -1 at 8.2e-3 and 3.9e-4 while the
    # origin indentation drives them to ~3e10
    scn = load_scenario(bundled_scenario_path("n5_hydro_wind"))
    netN = normalize(scn.network)
    agents = list(scn.agents)
    s = _closed_loop(_default_contour(netN.gamma, agents, "full-D", 0.0, None,
                                      scn.contour_density))
    for i in (3, 4):
        damped = assemble_agent(agents[i].inertia, load_damping_mw_per_hz=0.01)
        curve = netN.gamma[i] * damped.g_value(s)
        assert np.abs(curve).max() > 1e10 and np.abs(curve + 1).min() < 1e-2
        assert winding_number(curve, -1.0) == ray_crossing_winding(curve, -1.0) == 0
        # undamped, the vertex -gamma/(M w^2) runs along the negative real
        # axis through -1 itself: no winding exists
        undamped = netN.gamma[i] * agents[i].g_value(s)
        with pytest.raises((MarginalStabilityError, UndersampledContourError)):
            winding_number(undamped, -1.0)
        with pytest.raises(ValueError):
            ray_crossing_winding(undamped, -1.0)


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


def _scalar_point(sg, t: float) -> complex:
    """The contour point at parameter t of segment sg, by Python scalars."""
    if sg.role != "axis":
        th = sg.a + (sg.b - sg.a) * t
        return sg.center + sg.radius * complex(math.cos(th), math.sin(th))
    return 1j * (sg.a * (sg.b / sg.a) ** t)


def test_refined_nodes_points_equal_a_fresh_per_point_evaluation(monkeypatch):
    # every node the sweep evaluates, refined midpoints included, lies where
    # its segment's scalar formula puts it, one point at a time, and the
    # sweep's samples and roles are those of all its nodes in contour order
    scn = load_scenario(bundled_scenario_path("n5_hydro_d0"))
    netN, agents = normalize(scn.network), list(scn.agents)
    contour = _default_contour(netN.gamma, agents, "full-D", 0.0, None, 100)
    asked = []
    upper_points = nyquist.Contour.upper_points

    def recording(self, nodes=None):
        asked.append(self.nodes if nodes is None else nodes.copy())
        return upper_points(self, nodes)

    monkeypatch.setattr(nyquist.Contour, "upper_points", recording)
    sweep = eigenloci_sweep(netN, agents, contour)
    assert len(asked) > 1 and len(sweep.s_upper) > len(contour.nodes)  # it refined
    nodes = np.sort(np.concatenate(asked), order=("seg", "t"))
    fresh = np.array([_scalar_point(contour.segments[k], t) for k, t in nodes.tolist()])
    assert np.array_equal(sweep.s_upper.view(float), fresh.view(float))
    assert np.array_equal(sweep.roles, contour.node_roles(nodes))


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


# ------------------------------------------------- branch matching, hull
BUNDLED = ("n5_hydro_loads", "n5_hydro_wind", "n5_hydro_d0")


@pytest.fixture(scope="module")
def bundled_sweeps():
    """Interarea sweeps of the bundled scenarios on their own contour and
    on the full D-contour."""
    sweeps = {}
    for name in BUNDLED:
        scn = load_scenario(bundled_scenario_path(name))
        netN = normalize(scn.network)
        agents = list(scn.agents)
        for kind in (scn.contour_kind, "full-D"):
            r = 0.0 if kind == "full-D" else scn.policy.r
            contour = _default_contour(netN.gamma, agents, kind, r, scn.policy.R,
                                       scn.contour_density)
            sweeps[name, kind] = eigenloci_sweep(netN, agents, contour)
    return sweeps


def test_branches_equal_sequential_matching_bundled(bundled_sweeps):
    assert {kind for _, kind in bundled_sweeps} == {"D_r", "full-D"}
    for key, sweep in bundled_sweeps.items():
        ref = sequential_branches(sweep.eigs_upper)
        assert np.array_equal(sweep.branches_upper, ref), key


def test_branches_equal_sequential_matching_ring16():
    # a 16-bus ring of the n5_hydro_d0 agents: its loop eigenvalues come in
    # near-degenerate pairs, so most rows' nearest neighbours are no strict
    # permutation (a row minimum ties, or two rows share a nearest column)
    scn = load_scenario(bundled_scenario_path("n5_hydro_d0"))
    n = 16
    L = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        L[[i, j], [j, i]] -= 1e4
        L[[i, j], [i, j]] += 1e4
    netN = normalize(network_from_laplacian(L))
    agents = [scn.agents[i % 5] for i in range(n)]
    contour = _default_contour(netN.gamma, agents, "D_r", 0.75, None, 100)
    sweep = eigenloci_sweep(netN, agents, contour)
    eigs = sweep.eigs_upper
    D = np.abs(eigs[:-1, :, None] - eigs[1:, None, :])
    nearest = D.argmin(axis=2)
    unique_min = ((D <= D.min(axis=2, keepdims=True)).sum(axis=2) == 1).all(axis=1)
    is_perm = (np.sort(nearest, axis=1) == np.arange(D.shape[1])).all(axis=1)
    strict = unique_min & is_perm
    assert (~strict).sum() > len(strict) // 2
    assert np.array_equal(sweep.branches_upper, sequential_branches(eigs))


def test_branches_equal_sequential_matching_near_tie():
    # two branches crossing 1e-9 apart, in a shuffled solver order, with
    # rows of exact ties (equal eigenvalues, equidistant neighbours)
    rng = np.random.default_rng(11)
    t = np.linspace(-1.0, 1.0, 41)
    eigs = np.stack([t + 1e-9j, -t - 1e-9j, 3.0 + 0.1 * t, 3.0 - 0.1 * t], axis=1)
    eigs[5] = [0.5, 0.5, 3.0, 3.0]
    eigs[6] = [0.0, 1.0, 2.9, 3.1]
    for row in eigs:
        rng.shuffle(row)
    assert np.array_equal(nyquist._match_branches(eigs), sequential_branches(eigs))
    # eigenvalues on an integer lattice: distances tie across and within rows
    rng = np.random.default_rng(40)
    lattice = (rng.integers(-2, 3, (6, 5)) + 1j * rng.integers(-2, 3, (6, 5))).astype(complex)
    assert np.array_equal(nyquist._match_branches(lattice), sequential_branches(lattice))


def test_hull_ray_min_x_equals_double_loop():
    rng = np.random.default_rng(3)
    for trial in range(200):
        k = int(rng.integers(1, 12))
        pts = rng.normal(size=k) + 1j * rng.normal(size=k)
        if trial % 3 == 0:
            pts[rng.integers(k)] = rng.normal()  # a point on the axis
        if trial % 5 == 0:
            pts.imag = np.abs(pts.imag)  # all on one side
        assert _hull_ray_min_x(pts[None])[0] == hull_ray_min_x_loops(pts)


def test_hull_ray_min_x_equals_double_loop_on_bundled_sweeps(bundled_sweeps):
    for key, sweep in bundled_sweeps.items():
        for verts in sweep.vertices_upper:
            assert _hull_ray_min_x(verts[None])[0] == hull_ray_min_x_loops(verts), key


def _near_degenerate_pairs(rng, k: int, m: int = 60) -> np.ndarray:
    """m rows of k eigenvalues in shuffled order: k // 2 pairs split by
    1e-7..1e-3 around centres drifting by 1e-5..1e-1 over the rows, turning
    about them (plus one lone branch when k is odd); rows 30 and 45 jump to
    random values."""
    t = np.linspace(0.0, 1.0, m)[:, None]
    n_pairs = k // 2
    centre = rng.normal(size=n_pairs) + 1j * rng.normal(size=n_pairs)
    drift = 10.0 ** rng.uniform(-5, -1, n_pairs) * np.exp(2j * np.pi * rng.random(n_pairs))
    c = centre + t * drift
    split = 10.0 ** rng.uniform(-7, -3, n_pairs) * np.exp(
        1j * (rng.uniform(0, 2 * np.pi, n_pairs) + rng.uniform(2, 12, n_pairs) * t))
    cols = [c + split, c - split]
    if k % 2:
        cols.append(rng.normal() + 1j * rng.normal() - 0.5j * t)
    eigs = np.hstack(cols)
    eigs[[30, 45]] = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
    for row in eigs:
        rng.shuffle(row)
    return eigs


@pytest.mark.parametrize("block_rows", [None, 3])
def test_batched_greedy_equals_sequential_matching(monkeypatch, block_rows):
    rng = np.random.default_rng(21)
    sets = {k: _near_degenerate_pairs(rng, k) for k in range(2, 17)}
    # rows 10 -> 11: distances 0.5, 1.7, 0.5, 0.7 tie, at a greedy cost well
    # under the threshold; rows 20 -> 21: greedy cost 0.25 + 1.75 sits
    # exactly at 2 * lower = 2 * (0.25 + 0.75)
    special = sets[2]
    special[10], special[11] = [0.0, 1.0], [0.5, 1.7]
    special[20], special[21] = [1.0, 0.0], [2.75, 0.25]
    D = np.abs(special[20][:, None] - special[21][None, :])
    assert len(set(D.ravel())) == 4 and D[0, 0] + D[1, 1] == 2 * D.min(axis=1).sum()
    for k, eigs in sets.items():
        if block_rows is not None:
            monkeypatch.setattr(nyquist, "_MATCH_BLOCK_BYTES", 16 * k * k * block_rows)
        assert np.array_equal(nyquist._match_branches(eigs), sequential_branches(eigs)), k
        monkeypatch.undo()


def test_match_branches_takes_the_optimal_assignment_past_the_guard():
    # greedy pairs 1.9 -> 1 (0.9), then 0 -> 10: cost 10.9 > 2 * (1 + 0.9),
    # so the optimal assignment 0 -> 1, 1.9 -> 10 (cost 9.1) is taken
    eigs = np.array([[0.0, 1.9], [1.0, 10.0]], dtype=complex)
    assert np.array_equal(nyquist._match_branches(eigs)[1], [1.0, 10.0])
    assert np.array_equal(sequential_branches(eigs)[1], [1.0, 10.0])


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_match_branches_breaks_ties_alike_across_block_boundaries(monkeypatch, block_rows):
    # rows 2 -> 3 and 3 -> 4 tie exactly. From 0, the values 1 and 3 are 1
    # and 3 away; from 2, both are 1 away. The first flat index, 0 -> 1,
    # wins; the other pick, 2 -> 1, then 0 -> 3, would cost 4 = 2 * lower,
    # which keeps the greedy assignment too. Row 3 -> 4 ties the same way.
    rng = np.random.default_rng(5)
    eigs = _near_degenerate_pairs(rng, 2)
    eigs[2], eigs[3], eigs[4] = [0.0, 2.0], [1.0, 3.0], [2.0, 0.0]
    for i in (2, 3):
        D = np.abs(eigs[i][:, None] - eigs[i + 1][None, :])
        assert (D == D.min()).sum() == 3
    ref = sequential_branches(eigs)
    assert {(ref[2, c], ref[3, c], ref[4, c]) for c in range(2)} == {(0, 1, 2), (2, 3, 0)}
    monkeypatch.setattr(nyquist, "_MATCH_BLOCK_BYTES", 16 * 2 * 2 * block_rows)
    assert np.array_equal(nyquist._match_branches(eigs), ref)


@pytest.mark.parametrize("block_rows", [None, 7])
def test_hull_ray_min_x_rows_equal_double_loop(monkeypatch, block_rows):
    n = 9
    if block_rows is not None:
        monkeypatch.setattr(nyquist, "_HULL_BLOCK_BYTES", 8 * n * n * block_rows)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n))
    pts[::3, 2] = pts[::3, 2].real  # a point on the axis
    pts[1::7, :4] = pts[1::7, :4].real  # several
    pts[::5] = pts[::5].real + 1j * np.abs(pts[::5].imag)  # all on one side
    pts[2::11] = pts[2::11].real - 1j * np.abs(pts[2::11].imag)
    got = _hull_ray_min_x(pts)
    assert got.shape == (200,)
    for row, value in zip(pts, got):
        assert value == hull_ray_min_x_loops(row)
    assert np.isinf(got[::5][np.all(pts[::5].imag > 0, axis=1)]).all()


def test_batched_passes_stay_within_their_block_budgets():
    # numpy reports its buffers to tracemalloc; inputs are allocated first,
    # and one call of each warms up lazy imports (scipy's assignment solver)
    rng = np.random.default_rng(2)
    verts = rng.normal(size=(50, 400)) + 1j * rng.normal(size=(50, 400))
    eigs = _near_degenerate_pairs(rng, 60, 200)
    cases = ((_hull_ray_min_x, verts, nyquist._HULL_BLOCK_BYTES),
             (nyquist._match_branches, eigs, nyquist._MATCH_BLOCK_BYTES))
    for fn, arg, _ in cases:
        fn(arg)
    tracemalloc.start()
    try:
        for fn, arg, budget in cases:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(arg)
            assert tracemalloc.get_traced_memory()[1] - base < 4 * budget, fn.__name__
    finally:
        tracemalloc.stop()


def _perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_outer_radius_equals_doubling_loop(tmp_path, monkeypatch):
    gen = _perfbench_gen()
    data = Path(nyqscale.__file__).parent / "data"
    paths = [bundled_scenario_path(name) for name in BUNDLED]
    rng = random.Random(1)
    for name, n, edges in (("ring16", 16, gen.ring_lines(16)),
                           ("grid3x4", 12, gen.grid_lines(3, 4))):
        doc = gen.synthetic_scenario(data, name, n, edges, rng)
        paths.append(gen.write(tmp_path / f"{name}.json", doc))
    cases = []
    for path in paths:
        scn = load_scenario(path)
        agents, gamma = list(scn.agents), normalize(scn.network).gamma
        cases.append((agents, gamma))
        # decentralized_check's radius: one agent against its gamma bound
        cases += [([a], [float(g)]) for a, g in zip(agents, gamma)]
    calls = []
    g_value = Agent.g_value
    monkeypatch.setattr(Agent, "g_value", lambda self, s: calls.append(1) or g_value(self, s))
    batched = loop = 0
    for agents, gamma in cases:
        calls.clear()
        R = nyquist.default_outer_radius(agents, gamma)
        batched += len(calls)
        calls.clear()
        assert R == outer_radius_doubling(agents, gamma)
        loop += len(calls)
    assert batched < loop / 2


# ------------------------------------------------- loop assembly
def _ring16_sweep_inputs(tmp_path):
    gen = _perfbench_gen()
    doc = gen.synthetic_scenario(Path(nyqscale.__file__).parent / "data", "ring16", 16,
                                 gen.ring_lines(16), random.Random(3))
    scn = load_scenario(gen.write(tmp_path / "ring16.json", doc))
    netN, agents = normalize(scn.network), list(scn.agents)
    contour = _default_contour(netN.gamma, agents, scn.contour_kind, scn.policy.r,
                               scn.policy.R, scn.contour_density)
    return netN, agents, contour


@pytest.mark.parametrize("rows", [1, 3])
def test_sweep_rejects_a_loop_matrix_that_is_not_finite(monkeypatch, tmp_path, rows):
    # mu + epsilon is finite, the loop matrix overflows; once a LinAlgError.
    # The sample named must not depend on how many rows each block assembles
    netN, agents, contour = _ring16_sweep_inputs(tmp_path)
    monkeypatch.setattr(nyquist, "_ASSEMBLY_BLOCK_BYTES", rows * 16 * netN.U.size)
    with pytest.raises(ContourError, match="not finite at s = \\(0.75\\+0j\\)"):
        eigenloci_sweep(netN, agents, contour, 1e308)


def test_sweep_names_the_first_loop_matrix_that_is_not_finite_in_a_later_block(monkeypatch):
    # |g| peaks at 1000 near 1 rad/s, so only samples near the resonance
    # overflow the lossy loop; four samples per assembly block
    netN = two_bus()
    g = TF([1.0], [1.0, 1e-3, 1.0])
    contour = make_contour("full-D", 0.0, 50.0)
    eps, rows = 1e306, 4
    monkeypatch.setattr(nyquist, "_ASSEMBLY_BLOCK_BYTES", rows * 16 * netN.U.size)
    s = contour.upper_points()
    v = np.asarray(netN.gamma)[None, :] * g(s)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        loops = np.einsum("ji,mj,jl->mil", netN.U, v, netN.U) * (netN.mu + eps)
    first = int(np.argmin(np.isfinite(loops).all(axis=(1, 2))))
    assert first >= 2 * rows and not np.isfinite(loops[first]).all()
    with pytest.raises(ContourError) as exc:
        eigenloci_sweep(netN, [g, g], contour, eps)
    assert f"not finite at s = {s[first]};" in str(exc.value)


def test_sweep_holds_no_batch_sized_stack_of_loop_matrices(tmp_path):
    # each block's matrices are solved as soon as they are assembled, so the
    # sweep's peak stays under one (samples, k, k) complex array
    netN, agents, contour = _ring16_sweep_inputs(tmp_path)
    eigenloci_sweep(netN, agents, contour)  # warms up lazy allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eigenloci_sweep(netN, agents, contour)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    k = netN.U_hat.shape[1]
    assert peak < len(contour.nodes) * k * k * 16
