"""Shared generators and independent oracles for the test suite."""

import itertools
import math

import numpy as np
from numpy.polynomial import polynomial as npp

from nyqscale.errors import DivergenceError
from nyqscale.lti import TransferFunction
from nyqscale.network import PowerNetwork
from nyqscale.nyquist import _agent_rational
from nyqscale.scenario import bundled_scenario_path, load_scenario
from nyqscale.simkit import _zoh_step


def random_connected_laplacian(rng, n: int) -> np.ndarray:
    """Random weighted connected graph Laplacian."""
    while True:
        W = np.triu((rng.random((n, n)) < 0.7) * rng.uniform(0.2, 2.0, (n, n)), 1)
        W = W + W.T
        L = np.diag(W.sum(axis=1)) - W
        if n == 1 or np.sort(np.linalg.eigvalsh(L))[1] > 1e-6:
            return L


def random_stable_proper_tf(rng, max_order: int = 3, strictly_proper: bool = True):
    """Random stable rational transfer function with poles in
    Re in [-6, -0.2]; gain sign random so closed loops can go either way."""
    order = int(rng.integers(1, max_order + 1))
    poles = []
    while len(poles) < order:
        if order - len(poles) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.2, 6.0)
            im = rng.uniform(0.2, 5.0)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(-rng.uniform(0.2, 6.0), 0.0))
    den = npp.polyfromroots(poles).real
    n_zeros = int(rng.integers(0, order if strictly_proper else order + 1))
    zeros = []
    while len(zeros) < n_zeros:
        if n_zeros - len(zeros) >= 2 and rng.random() < 0.4:
            re = rng.uniform(-5.0, -0.2)
            im = rng.uniform(0.2, 4.0)
            zeros += [complex(re, im), complex(re, -im)]
        else:
            zeros.append(complex(rng.uniform(-6.0, -0.2), 0.0))
    num = npp.polyfromroots(zeros).real if zeros else np.array([1.0])
    gain = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
    return TransferFunction(gain * num, den)


def closed_loop_charpoly(L: np.ndarray, tfs) -> np.ndarray:
    """Characteristic polynomial of the interconnection delta = G(d - L delta)
    by direct determinant expansion of (Q + P L), Q = diag(den_i),
    P = diag(num_i). Permutation-sum oracle, exact for small n."""
    n = L.shape[0]
    entries = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                e = npp.polyadd(tfs[i].den.as_array(), tfs[i].num.as_array() * L[i, j])
            else:
                e = tfs[i].num.as_array() * L[i, j]
            entries[i, j] = np.atleast_1d(e)
    det = np.array([0.0])
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = np.array([1.0])
        for i in range(n):
            term = npp.polymul(term, entries[i, perm[i]])
        det = npp.polyadd(det, sign * term)
    return np.trim_zeros(det, "b")


def _perm_sign(perm) -> float:
    perm = list(perm)
    sign = 1.0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def ray_crossing_winding(curve, point) -> int:
    """Independent winding oracle: signed count of crossings of the
    rightward horizontal ray from ``point`` (anticlockwise positive).
    The curve must not start on the ray. Raises ValueError when a sample
    or a segment of the curve hits the point: the winding is undefined."""
    z = np.asarray(curve, dtype=complex) - point
    a, d = z[:-1], np.diff(z)
    d2 = np.abs(d) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-(np.conj(a) * d).real / d2, 0.0, 1.0)
    gap = min(np.abs(z).min(), np.abs(a + np.where(d2 > 0, t, 0.0) * d).min(initial=np.inf))
    if gap <= 1e-12 * max(1.0, abs(point)):
        raise ValueError(f"curve passes within {gap:.3g} of the point")
    x = z.real
    y = z.imag
    crossings = 0
    for k in range(len(z) - 1):
        ya, yb = y[k], y[k + 1]
        if (ya > 0) != (yb > 0):
            t = ya / (ya - yb)
            xc = x[k] + t * (x[k + 1] - x[k])
            if xc > 0:
                crossings += 1 if yb > ya else -1
    return crossings


def match_indices(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Reference assignment of one pair of rows: greedy minimal-distance
    matching in a stable sort of the distances (a tie goes to the first flat
    index), with an optimal (Hungarian) fallback when the greedy cost
    exceeds twice the row-minimum lower bound."""
    k = len(prev)
    if k == 1:
        return np.array([0])
    D = np.abs(prev[:, None] - cur[None, :])
    order = np.argsort(D, axis=None, kind="stable")
    rows_taken = np.zeros(k, dtype=bool)
    cols_taken = np.zeros(k, dtype=bool)
    assign = np.full(k, -1)
    cost = 0.0
    for flat in order:
        i, j = divmod(int(flat), k)
        if rows_taken[i] or cols_taken[j]:
            continue
        assign[i] = j
        rows_taken[i] = True
        cols_taken[j] = True
        cost += D[i, j]
        if rows_taken.all():
            break
    lower = float(D.min(axis=1).sum())
    if cost > 2.0 * lower + 1e-300:
        from scipy.optimize import linear_sum_assignment

        ri, ci = linear_sum_assignment(D)
        assign = np.empty(k, dtype=int)
        assign[ri] = ci
    return assign


def sequential_branches(eigs) -> np.ndarray:
    """Reference branch matching: ``match_indices`` of each pair of
    consecutive raw rows, one pair at a time, composed along the rows."""
    eigs = np.array(eigs, dtype=complex)
    order = np.arange(eigs.shape[1])
    matched = eigs.copy()
    for i in range(1, eigs.shape[0]):
        order = match_indices(eigs[i - 1], eigs[i])[order]
        matched[i] = eigs[i][order]
    return matched


def hull_ray_min_x_loops(points) -> float:
    """Reference for the leftmost real-axis crossing of the points' convex
    hull: the same per-pair arithmetic in a double loop over the
    (above-axis, below-axis) pairs."""
    points = np.asarray(points, dtype=complex)
    re, im = points.real, points.imag
    tol = 1e-12 * (1.0 + float(np.abs(points).max()))
    best = math.inf
    on_axis = np.abs(im) <= tol
    if on_axis.any():
        best = float(re[on_axis].min())
    up = im > tol
    dn = im < -tol
    if up.any() and dn.any():
        for i in np.where(up)[0]:
            for j in np.where(dn)[0]:
                t = im[i] / (im[i] - im[j])
                x = re[i] + t * (re[j] - re[i])
                best = min(best, float(x))
    return best


def outer_radius_doubling(agents, gammas) -> float:
    """Reference closure radius: 100x the largest agent pole/zero modulus,
    doubled one scalar vertex evaluation per agent at a time until every
    |gamma_i g_i(R)| is below 1e-4."""
    moduli = [1.0]
    for a in agents:
        g = _agent_rational(a)
        moduli.extend(abs(p) for p in g.poles)
        moduli.extend(abs(z) for z in g.zeros)
    R = 100.0 * max(moduli)
    for _ in range(60):
        worst = 0.0
        for a, gi in zip(agents, gammas):
            worst = max(worst, abs(gi * a(complex(R))))
        if worst < 1e-4:
            return R
        R *= 2.0
    raise ValueError("no closure radius within 60 doublings")


def network_from_laplacian(L) -> PowerNetwork:
    return PowerNetwork.from_laplacian(np.asarray(L, dtype=float))


def diverging_scenario_doc():
    """n5_hydro_d0 with 1e4 x the FCR design gain. The hydro actuators'
    negative high-frequency gain then gives a real RHP mode near +49 1/s,
    which overflows within the 60 s run, while |lambda_max| ~ 53 keeps
    dt = 1 ms inside the integrator gate."""
    doc = load_scenario(bundled_scenario_path("n5_hydro_d0")).to_json_dict()
    doc["name"] = "n5_fcr_gain_1e4"
    doc["agents"]["fcr_design_k_MW_per_Hz"] *= 1e4
    return doc


def rk4_clamped_reference(model, x, d_of, limits, dt, idx) -> np.ndarray:
    """Reference for the rate-clamped simulation: classical RK4 stepped one
    step at a time, with the clamp tested per stage and per limit; states
    at the steps in idx. ``d_of(t)`` is the disturbance vector at time t,
    and ``limits`` holds (state slice, c_local, bound) per clamped block."""
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


def zoh_records_stepwise(model, x, edges, rows, dt, T) -> np.ndarray:
    """Reference for the linear simulation: the exact zero-order-hold steps
    applied one grid step at a time, x <- Phi x + Gamma d, with the pulse
    edges inside (0, T[-1]) as breakpoints; states at the record times T,
    and DivergenceError at the first record that is not finite."""
    grid = np.union1d(T, edges[(edges > 0) & (edges < T[-1])])
    units, which = np.unique(np.round(np.diff(grid) / dt, 9), return_inverse=True)
    steps = [_zoh_step(model.A, model.B, u * dt) for u in units]
    seg = np.searchsorted(edges, 0.5 * (grid[:-1] + grid[1:]), side="right")
    is_record = np.isin(grid[1:], T)
    X = np.empty((len(T), len(x)))
    X[0] = x
    r = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k, s, rec in zip(which.tolist(), seg.tolist(), is_record.tolist()):
            phi, gam = steps[k]
            x = phi @ x + gam @ rows[s]
            if rec:
                X[r] = x
                r += 1
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise DivergenceError(float(T[np.argmax(bad)]))
    return X


def svg_polyline_loop(zs, color, dash=""):
    """Reference for loci.svg's polylines: each point clipped and formatted
    in a Python loop; one <polyline> per run of at least two consecutive
    points within 9 of the origin in both axes, on the 640 px plot of
    [-6, 6]^2."""
    half = 6.0
    size = 640
    scale = size / (2 * half)

    def to_px(z):
        return ((z.real + half) * scale, (half - z.imag) * scale)

    pts = []
    chunks = []
    for z in zs:
        if abs(z.real) <= half * 1.5 and abs(z.imag) <= half * 1.5:
            pts.append("%.2f,%.2f" % to_px(z))
        elif pts:
            chunks.append(pts)
            pts = []
    if pts:
        chunks.append(pts)
    return "".join(
        f'<polyline points="{" ".join(c)}" fill="none" stroke="{color}" '
        f'stroke-width="1.2" {dash}/>' for c in chunks if len(c) > 1
    )
