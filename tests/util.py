"""Shared generators and independent oracles for the test suite."""

import itertools
import math

import numpy as np
from numpy.polynomial import polynomial as npp

from nyqscale.lti import TransferFunction
from nyqscale.network import PowerNetwork
from nyqscale.nyquist import _match_indices
from nyqscale.scenario import bundled_scenario_path, load_scenario


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
    return TransferFunction.from_coeffs(gain * num, den)


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


def sequential_branches(eigs) -> np.ndarray:
    """Reference branch matching: each sample's eigenvalues reordered by
    ``_match_indices`` against the previous, already matched, sample."""
    matched = np.array(eigs, dtype=complex)
    for i in range(1, matched.shape[0]):
        matched[i] = matched[i][_match_indices(matched[i - 1], matched[i])]
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
