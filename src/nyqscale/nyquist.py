"""Nyquist contours, eigenloci sweeps, winding numbers, and the scalable
stability criteria (exact generalized-Nyquist check, field-of-values
sufficient check, per-agent decentralized blueprint, lossy full-rank
variant).

Conventions: contours are traversed clockwise around the right half-plane;
anticlockwise encirclements count positive. The upper half of a contour is
sampled and conjugate-mirrored to the lower half (loop values at conjugate
points are conjugates for real-coefficient systems). Frequency-domain
evaluation of delays is exact; only pole *counting* for delayed agents goes
through the Pade-rationalized form, at the one order ``lti.PADE_ORDER``
(DECISIONS.md D13).

The eigenloci taken together encircle -1 as often as the scalar curve
det(I + Q(s)) = prod_k (1 + lambda_k(s)) encircles 0, so the theorem-1 and
lossy windings, and the sweep's refinement, use the summed argument of the
per-sample eigenvalues in solver order. Eigenvalues are matched into
continuous branches only for export and plots: every pair of consecutive
solver rows gets a greedy minimal-distance assignment, taken for all pairs
at once, or the optimal one where the greedy cost is over twice its lower
bound, and the pairs are composed along the contour (DECISIONS.md D8).
The FOV hull test takes every sample's vertex pairs in whole-array passes.
The vertex's real-axis crossings are refined by vectorised Illinois regula
falsi, one vertex evaluation per iteration for all brackets.

All four checks build their contour with one rule (``_default_contour``),
which roots every agent's rational form in one batched pass, and evaluate
vertices through ``_vertices``: one ``lti.RationalStack`` call for all
agents per batch of points, which turns a pole hit into ContourError.
Theorem 1 and its lossy variant are one winding count on two loops
(``_winding_check``). The decentralized screening evaluates its contour
once, not in ``eigenloci_sweep``, and brackets axis crossings on its own
denser grid (DECISIONS.md D5). Each check builds one Verdict from the
violations it found (D9); only a pole on the screening's D_r exits first.

A sweep runs in the calling thread (DECISIONS.md D3). It assembles each
block of samples' loop matrices by batched ``np.matmul`` (one BLAS product
per sample) and solves the block by one ``eigvals`` call as soon as it is
assembled, so no batch-sized stack of matrices is ever held.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryAmbiguityError,
    ContourError,
    InvalidInputError,
    MarginalStabilityError,
    PoleHitError,
    UndersampledContourError,
)
from .lti import (
    RationalStack,
    TransferFunction,
    fill_roots,
    jw_axis_poles,
    rhp_poles_in_region,
)
from .network import NormalizedNetwork
from .powerplant import Agent

__all__ = [
    "Contour",
    "LociSweep",
    "Verdict",
    "Violation",
    "DecentralizedPolicy",
    "make_contour",
    "eigenloci_sweep",
    "winding_number",
    "theorem1_check",
    "fov_check",
    "decentralized_check",
    "lossy_exponential_check",
    "default_outer_radius",
    "vertex_axis_crossings",
]

POINT_ON_CURVE_RTOL = 1e-9
WINDING_INTEGER_TOL = 1e-6
FOV_MARGIN_BAND = 1e-6
CLOSURE_LOCI_BOUND = 1e-3
REFINE_JUMP = math.pi / 2
MAX_REFINE_LEVELS = 12
DEGENERATE_LOCI = 1e-12
# region poles this close (relative) share one moment circle, so a pole that
# several agents share counts once although each agent's root is computed apart
CLUSTER_RTOL = 1e-6
# bytes of each block of k x k distance matrices in the batched matching
_MATCH_BLOCK_BYTES = 1 << 22
# bytes of each block of n x n vertex-pair arrays in the hull-axis test
_HULL_BLOCK_BYTES = 1 << 22
# bytes of each block of k x n products U^T diag(v) in the loop assembly; a
# block's loop matrices are assembled and solved together
_ASSEMBLY_BLOCK_BYTES = 1 << 18
# points per decade of vertex_axis_crossings' log grid. A delayed vertex runs
# along the negative real axis at |v| << 1 and crosses it every pi/tau rad/s
# (about 31 rad/s on n5_hydro_wind) up to R (about 5,260 rad/s); 400 per
# decade spaces the grid about 30 rad/s apart there and brackets all 502
# crossings, where the contour's 200 per decade bracket only 358
CROSSING_DENSITY = 400
# vertex_axis_crossings stops a bracket at width <= XTOL + RTOL * omega
CROSSING_XTOL = 1e-12
CROSSING_RTOL = 1e-12
CROSSING_MAX_ITER = 100
# a contour node: the index of its segment and its parameter t on it
_NODE = np.dtype([("seg", np.intp), ("t", float)])
# contour nodes numpy can size, with room for the float runs they are built from
_MAX_NODES = np.iinfo(np.intp).max // (2 * _NODE.itemsize)


# ---------------------------------------------------------------------------
# contour geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Segment:
    """One smooth piece of the upper contour chain, parameterized t in [0,1].

    roles: origin-arc | axis | indent | closure; every role but axis is an arc.
    """

    role: str
    a: float  # arc: theta0 [rad]; axis: omega0
    b: float  # arc: theta1 [rad]; axis: omega1
    center: complex = 0.0 + 0.0j
    radius: float = 0.0

    def points(self, ts) -> list[complex]:
        """The points at parameters ``ts``, one scalar evaluation each."""
        a = self.a
        if self.role != "axis":
            step, c, rad = self.b - a, self.center, self.radius
            return [c + rad * complex(math.cos(th), math.sin(th))
                    for th in [a + step * t for t in ts]]
        # logarithmic interpolation along the imaginary axis
        ratio = self.b / a
        return [1j * (a * ratio ** t) for t in ts]


@dataclass(frozen=True, eq=False)
class Contour:
    """Sampled Nyquist contour (full-D or D_r).

    ``nodes`` hold the upper chain from +r through +jR to +R, one read-only
    ``_NODE`` record (segment index, parameter) each. The full clockwise
    closed loop is their points followed by the lower half's conjugate
    mirror, ending at the first point again (``LociSweep.s_full``).
    """

    kind: str
    inner_radius: float
    outer_radius: float
    indent_radius: float
    segments: tuple[_Segment, ...]
    nodes: np.ndarray

    def __eq__(self, other) -> bool:  # field by field, the nodes by value
        return isinstance(other, Contour) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def upper_points(self, nodes=None) -> np.ndarray:
        """The points of ``nodes`` (default: the contour's own), each run of
        one segment's nodes by that segment's scalar formula."""
        nodes = self.nodes if nodes is None else nodes
        seg, t = nodes["seg"], nodes["t"]
        pts = np.empty(len(nodes), dtype=complex)
        starts = np.flatnonzero(np.diff(seg, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(seg)]):
            pts[lo:hi] = self.segments[seg[lo]].points(t[lo:hi].tolist())
        return pts

    def node_roles(self, nodes=None) -> np.ndarray:
        """The segment role of each of ``nodes`` (default: the contour's own)."""
        nodes = self.nodes if nodes is None else nodes
        return np.array([sg.role for sg in self.segments])[nodes["seg"]]


def make_contour(
    kind: str,
    r: float,
    R: float,
    density: int = 200,
    jw_pole_list: Sequence[float] = (),
    indent_radius: float | None = None,
    extra_axis_omegas: Sequence[float] = (),
) -> Contour:
    """Build a clockwise D- or D_r-contour.

    ``kind`` is "full-D" (r ignored; the origin gets a small indentation of
    radius ``indent_radius``, default 1e-4*R) or "D_r" (RHP indentation of
    radius r at the origin). ``jw_pole_list`` gives imaginary-axis pole
    frequencies (rad/s, or complex poles whose imaginary parts are taken)
    that receive small RHP semicircular indentations. ``density`` is samples
    per decade on the axis segments (>= 100). ``extra_axis_omegas`` forces
    exact samples at the given frequencies (plot markers).
    """
    if density < 100:
        raise InvalidInputError("density must be at least 100 samples per decade")
    if not 0 < R < math.inf:
        raise InvalidInputError("outer radius must be positive and finite")
    rho = indent_radius if indent_radius is not None else 1e-4 * R
    if kind == "full-D":
        r_eff = rho
    elif kind == "D_r":
        if not r > 0:
            raise InvalidInputError("D_r contour needs r > 0")
        r_eff = float(r)
    else:
        raise InvalidInputError(f"unknown contour kind: {kind!r}")
    if not (R > r_eff >= 0):
        raise InvalidInputError("need R > r >= 0")
    if not r_eff > 0 or math.isinf(R / r_eff):
        raise InvalidInputError(f"contour radius {r_eff:.3g} rad/s is too small for "
                                f"R = {R:.3g} rad/s: R/r is not finite")
    most = _MAX_NODES / (math.log10(R / r_eff) + 1)  # nodes: about density * (decades + 1)
    if density > most:
        raise InvalidInputError(f"density must be at most {most:.3g} per decade on this contour")

    omegas = []
    for p in jw_pole_list:
        w = abs(p.imag) if isinstance(p, complex) else abs(float(p))
        if w <= r_eff or w >= R:
            continue  # outside the swept axis range; covered by r or R
        omegas.append(w)
    omegas = sorted(set(omegas))
    for wa, wb in zip(omegas, omegas[1:]):
        if wb - wa < 2.2 * rho:
            raise ContourError(
                f"indentations at {wa:.4g} and {wb:.4g} rad/s overlap; "
                "reduce indent_radius"
            )
    if omegas:
        if omegas[0] - r_eff < 1.1 * rho or R - omegas[-1] < 1.1 * rho:
            raise ContourError(
                "pole indentation overlaps the contour start/closure; "
                "adjust r, R, or indent_radius"
            )

    segments: list[_Segment] = [
        _Segment("origin-arc", 0.0, math.pi / 2, 0.0j, r_eff)
    ]
    marks = sorted(w for w in extra_axis_omegas if r_eff < w < R)
    lo = r_eff
    for w in omegas:
        segments.append(_Segment("axis", lo, w - rho))
        segments.append(_Segment("indent", -math.pi / 2, math.pi / 2, 1j * w, rho))
        lo = w + rho
    segments.append(_Segment("axis", lo, R))
    segments.append(_Segment("closure", math.pi / 2, 0.0, 0.0j, R))

    n_arc = max(49, density // 2 + 1)
    n_indent = 33
    runs = []
    for seg in segments:
        if seg.role == "axis":
            decades = math.log10(seg.b / seg.a)
            n = max(2, int(math.ceil(density * decades)) + 1)
            marked = [math.log(w / seg.a) / math.log(seg.b / seg.a)
                      for w in marks if seg.a < w < seg.b]
            runs.append(np.sort(np.concatenate([np.linspace(0.0, 1.0, n), marked])))
        else:
            n = n_arc if seg.role in ("origin-arc", "closure") else n_indent
            runs.append(np.linspace(0.0, 1.0, n))
    nodes = np.empty(sum(map(len, runs)), dtype=_NODE)
    nodes["seg"] = np.repeat(np.arange(len(segments)), list(map(len, runs)))
    nodes["t"] = np.concatenate(runs)
    nodes.flags.writeable = False
    return Contour(
        kind=kind,
        inner_radius=r_eff if kind == "D_r" else 0.0,
        outer_radius=float(R),
        indent_radius=rho,
        segments=tuple(segments),
        nodes=nodes,
    )


def default_outer_radius(agents: Sequence, gammas: Sequence[float]) -> float:
    """Closure radius: at least 100x the largest agent pole/zero modulus,
    doubled until every vertex magnitude |gamma_i g_i(R)| falls below 1e-4
    (so the closure arc cannot contribute winding). All agents are evaluated
    in one stacked pass at all 60 doublings, and the first radius that
    passes is returned; when none does, ContourError names the agent
    (1-based) with the largest |gamma_i g_i| at the last radius."""
    rational = _agent_rationals(agents)
    R0 = 100.0 * max([1.0, *(abs(p) for g in rational for p in g.poles + g.zeros)])
    Rs = R0 * 2.0 ** np.arange(60)
    with np.errstate(all="ignore"):
        values = RationalStack(agents)(Rs.astype(complex))
        mags = np.abs(np.asarray(gammas, dtype=float)[:, None] * values)
    passed = np.flatnonzero(np.fmax.reduce(mags, axis=0, initial=0.0) < 1e-4)  # NaN ignored
    if passed.size:
        return float(Rs[passed[0]])
    i = int(np.nanargmax(mags[:, -1]))
    raise ContourError(f"could not find a closure radius with negligible loci: agent {i + 1} "
                       f"has |gamma*g| = {mags[i, -1]:.3g} at R = {Rs[-1]:.3g} rad/s")


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------


def winding_number(closed_curve: Sequence[complex], point: complex) -> int:
    """Signed winding number of a sampled closed curve about a point,
    anticlockwise positive, by accumulated argument increments.

    The curve must be finite, closed (first == last within 1e-9 of the
    endpoints' magnitude) and stay off the point (no sample within
    1e-9*max(1, |point|) of it); a per-step argument increment of >= pi
    means the polyline cannot be disambiguated and is reported as
    undersampled. Both tolerances are local, so a curve that reaches 1e10
    elsewhere still resolves a pass at 1e-4 from the point.
    """
    z = np.asarray(closed_curve, dtype=complex)
    if len(z) < 3:
        raise InvalidInputError("need at least 3 samples")
    if not np.isfinite(z).all():
        raise InvalidInputError("curve samples must be finite")
    if abs(z[0] - z[-1]) > 1e-9 * max(1.0, abs(z[0]), abs(z[-1])):
        raise InvalidInputError("curve is not closed (first != last)")
    rel = z - point
    _checked_distance(rel, point)
    steps = np.angle(rel[1:] / rel[:-1])
    if np.abs(steps).max() >= math.pi * (1 - 1e-12):
        raise UndersampledContourError(
            "argument increment >= pi between consecutive samples"
        )
    total = steps.sum() / (2 * math.pi)
    w = round(float(total))
    if abs(total - w) > WINDING_INTEGER_TOL:
        raise UndersampledContourError(
            f"accumulated winding {total:.3e} is not an integer"
        )
    return int(w)


def _checked_distance(rel: np.ndarray, point: complex) -> float:
    """Smallest |value - point| given ``rel`` = values - point; raises
    MarginalStabilityError when it is within 1e-9*max(1, |point|)."""
    closest = float(np.abs(rel).min())
    if closest <= POINT_ON_CURVE_RTOL * max(1.0, abs(point)):
        raise MarginalStabilityError(
            f"point {point} lies on the curve (distance {closest:.3g})"
        )
    return closest


def _match_branches(eigs: np.ndarray) -> np.ndarray:
    """Rows of ``eigs`` (finite, as a sweep's are) reordered into branches.

    Each pair of consecutive solver rows is matched by one rule: the greedy
    minimal-distance assignment, in k rounds of masked argmin, so a tie goes
    to the first flat index; or the optimal (Hungarian) one where the greedy
    cost exceeds twice the row-minimum lower bound. The distance matrices
    are taken in blocks of at most ``_MATCH_BLOCK_BYTES``, and the pairs'
    assignments are composed along the contour.
    """
    m, k = eigs.shape
    if k <= 1:
        return eigs.copy()
    order = np.empty((m, k), dtype=np.intp)  # each row's assignment, then composed
    order[0] = np.arange(k)
    rows = max(1, _MATCH_BLOCK_BYTES // (16 * k * k))
    for lo in range(1, m, rows):
        hi = min(lo + rows, m)
        D = np.abs(eigs[lo - 1:hi - 1, :, None] - eigs[lo:hi, None, :])
        lower = D.min(axis=2).sum(axis=1)
        flat = D.reshape(hi - lo, k * k)  # a view of D: picks are masked in place
        r = np.arange(hi - lo)
        cost = np.zeros(hi - lo)
        for _ in range(k):
            pick = flat.argmin(axis=1)
            i, j = np.divmod(pick, k)
            cost += flat[r, pick]
            order[lo + r, i] = j
            D[r, i, :] = np.inf
            D[r, :, j] = np.inf
        del D, flat  # before the next block's arrays
        for t in np.flatnonzero(cost > 2.0 * lower + 1e-300) + lo:
            from scipy.optimize import linear_sum_assignment

            order[t] = linear_sum_assignment(np.abs(eigs[t - 1, :, None] - eigs[t]))[1]
    for i in range(1, m):
        order[i] = order[i][order[i - 1]]
    return np.take_along_axis(eigs, order, axis=1)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LociSweep:
    """Eigenloci and vertex trajectories along a contour.

    Upper-chain arrays are stored; the full closed loop is derived by
    conjugate mirroring. ``eigs_upper`` holds each sample's loop eigenvalues
    in solver order; windings come from their summed argument, which needs
    no branch identity. ``branches_upper`` matches them into continuous
    curves (a bijection between consecutive samples) on first use, for
    export and plots only, by ``_match_branches``. ``roles`` is the array
    of the upper samples' contour segment roles, and ``flagged`` lists the
    samples whose determinant argument step still reaches pi/2 when
    refinement stops.
    """

    roles: np.ndarray
    s_upper: np.ndarray
    eigs_upper: np.ndarray  # (m, k)
    vertices_upper: np.ndarray  # (m, n)
    flagged: tuple[int, ...] = ()

    @property
    def s_full(self) -> np.ndarray:
        return self._mirror(self.s_upper)

    def _mirror(self, arr: np.ndarray) -> np.ndarray:
        return np.concatenate([arr, np.conj(arr[-2::-1])], axis=0)

    @cached_property
    def branches_upper(self) -> np.ndarray:
        return _match_branches(self.eigs_upper)

    @property
    def branches_full(self) -> np.ndarray:
        return self._mirror(self.branches_upper)

    @property
    def vertices_full(self) -> np.ndarray:
        return self._mirror(self.vertices_upper)

    def total_winding(self) -> tuple[int, float]:
        """(summed anticlockwise winding of all eigenloci about -1, closest
        approach distance).

        The summed winding equals that of det(I + Q(s)) about 0, so it is
        taken from the unit phasor of sum_k arg(1 + lambda_k) per sample
        (MacFarlane & Postlethwaite 1977).
        """
        rel = self._mirror(self.eigs_upper) + 1.0
        closest = _checked_distance(rel, -1.0)
        phasor = np.exp(1j * np.angle(rel).sum(axis=1))
        return winding_number(phasor, 0.0), closest

    def closest_approach(self):
        """(distance, s, locus value) of the eigenvalue nearest -1."""
        rel = np.abs(self.eigs_upper + 1.0)
        i, j = np.unravel_index(int(np.argmin(rel)), rel.shape)
        return float(rel[i, j]), complex(self.s_upper[i]), complex(
            self.eigs_upper[i, j]
        )


def _vertices(stack: RationalStack, gamma: Sequence[float], s: np.ndarray) -> np.ndarray:
    """Vertex values gamma_i g_i(s) of the stacked agents, one column per
    agent, from one stacked evaluation; a contour point on an agent pole
    raises ContourError."""
    try:
        values = stack(s)
    except PoleHitError as exc:
        raise ContourError(
            f"vertex evaluation hit a pole at s = {exc.s}; re-route the contour "
            "(add a jw-axis indentation there or adjust r)"
        ) from None
    # C order: (samples, agents) rows, as the sweep slices and inserts them
    return np.multiply(values.T, np.asarray(gamma, dtype=float), order="C")


def eigenloci_sweep(
    netN: NormalizedNetwork,
    agents: Sequence,
    contour: Contour,
    epsilon: float | None = None,
) -> LociSweep:
    """Eigenvalue trajectories of the loop matrix along the contour.

    ``epsilon`` None: the (n-1)x(n-1) projected return ratio
    Uhat^T G'(s) Uhat diag(mu_2..mu_n) -- its eigenvalues are exactly the
    nonzero eigenloci of L'G'(s). A number: the lossy full-rank loop
    U^T G'(s) U diag(mu + epsilon).

    Vertex values gamma_i g_i(s) are recorded at every sample, with each
    sample's argument of det(I + Q(s)) = prod_k (1 + lambda_k(s)).
    Consecutive samples whose argument steps by >= pi/2 are bisected along
    the contour's own geometry, up to 12 levels; each level evaluates only
    the inserted samples and inserts only their arguments.

    A loop matrix that is not finite (a vertex value or the lossy weight
    mu + epsilon overflows it) raises ContourError, naming the first such
    sample, before its block reaches ``eigvals``; so does a pole hit on the
    contour.
    """
    if len(agents) != netN.n:
        raise InvalidInputError("agent count must match network size")
    if epsilon is None:
        U = netN.U_hat
        weights = netN.mu_hat
    else:
        U = netN.U
        weights = netN.mu + epsilon

    stack = RationalStack(agents)
    rows = max(1, _ASSEMBLY_BLOCK_BYTES // (16 * U.size))

    def evaluate(points: np.ndarray):
        verts = _vertices(stack, netN.gamma, points)
        eigs = np.empty((len(points), U.shape[1]), dtype=complex)
        for lo in range(0, len(points), rows):
            # (U^T diag(v)) U of ``rows`` samples by one batched matmul, then
            # columns scaled by the weights
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                block = np.matmul(U.T * verts[lo:lo + rows, None, :], U)
                block *= weights
            finite = np.isfinite(block).all(axis=(1, 2))
            if not finite.all():
                raise ContourError(
                    f"loop matrix is not finite at s = {points[lo + finite.argmin()]}; "
                    "a vertex value or a Laplacian weight overflows"
                )
            eigs[lo:lo + rows] = np.linalg.eigvals(block)
        return eigs, verts, np.angle(eigs + 1.0).sum(axis=1)

    nodes = contour.nodes
    pts = contour.upper_points()
    eigs, verts, phase = evaluate(pts)
    for level in range(MAX_REFINE_LEVELS + 1):
        jumps = np.abs(np.angle(np.exp(1j * np.diff(phase))))
        seg, t = nodes["seg"], nodes["t"]
        split = np.flatnonzero(
            (jumps >= REFINE_JUMP) & (seg[1:] == seg[:-1]) & (np.abs(np.diff(t)) > 1e-12)
        )
        if not split.size or level == MAX_REFINE_LEVELS:
            break
        new = nodes[split]  # each split's segment, at its midpoint
        new["t"] = 0.5 * (t[split] + t[split + 1])
        new_pts = contour.upper_points(new)
        new_eigs, new_verts, new_phase = evaluate(new_pts)
        at = split + 1
        nodes = np.insert(nodes, at, new)
        pts = np.insert(pts, at, new_pts)
        eigs = np.insert(eigs, at, new_eigs, axis=0)
        verts = np.insert(verts, at, new_verts, axis=0)
        phase = np.insert(phase, at, new_phase)

    return LociSweep(
        roles=contour.node_roles(nodes),
        s_upper=pts,
        eigs_upper=eigs,
        vertices_upper=verts,
        flagged=tuple(int(i) + 1 for i in np.flatnonzero(jumps >= REFINE_JUMP)),
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    condition: str
    frequency_rad_s: float | None = None
    value: object = None


@dataclass(frozen=True)
class Verdict:
    """Structured result of a stability check.

    ``result`` is "stable" (criterion satisfied), "unstable" (criterion
    violated; for the sufficient checks this means stability is not
    certified and the analysis suggests instability), or "inconclusive"
    (marginal/touching case). ``winding_count``/``n_required`` hold the
    generalized-Nyquist accounting where applicable. ``sweep`` is the
    interarea sweep the check ran on, if it ran one (not serialized).
    """

    result: str
    winding_count: int | None = None
    n_required: int | None = None
    violated_conditions: tuple[Violation, ...] = ()
    diagnostics: dict = field(default_factory=dict)
    sweep: LociSweep | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.result not in ("stable", "unstable", "inconclusive"):
            raise InvalidInputError(f"bad verdict result {self.result!r}")
        if self.result == "stable" and self.violated_conditions:
            raise InvalidInputError("stable verdict cannot carry violations")

    def to_json_dict(self) -> dict:
        return {
            "result": self.result,
            "winding": self.winding_count,
            "N": self.n_required,
            "violations": [
                {
                    "condition": v.condition,
                    "frequency_rad_s": _jsonable(v.frequency_rad_s),
                    "value": _jsonable(v.value),
                }
                for v in self.violated_conditions
            ],
            "closest_approach": _jsonable(self.diagnostics.get("closest_approach")),
        }


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_jsonable(x) for x in v]
    return str(v)


# ---------------------------------------------------------------------------
# open-loop pole accounting
# ---------------------------------------------------------------------------


def _agent_rational(a) -> TransferFunction:
    """The rational form whose poles and zeros are counted: an Agent's
    (memoised) Pade form, or a TransferFunction agent itself."""
    return a.g_rational if isinstance(a, Agent) else a


def _agent_rationals(agents) -> list[TransferFunction]:
    """Every agent's ``_agent_rational``, with the poles and zeros not yet
    cached rooted in one batched pass (``fill_roots``)."""
    rational = [_agent_rational(a) for a in agents]
    fill_roots(rational)
    return rational


def _count_unstable_loop_poles(
    agents, gamma: np.ndarray, U: np.ndarray, r: float
) -> tuple[int, int]:
    """(N, P_open): the McMillan degree of the loop U^T G' U X at its poles
    in the contour's region (strict RHP, modulus >= r), and the agents'
    count of those poles. N sums the ranks of block Hankel matrices of
    contour moments about clusters of those poles, each cut on its own
    circle (Kravanja & Van Barel 2000; Beyn 2012); DECISIONS.md D11."""
    rational = _agent_rationals(agents)
    poles = np.array([p for g in rational for p in g.poles], dtype=complex)
    owner = np.array([i for i, g in enumerate(rational) for _ in g.poles], dtype=int)
    region = [set(rhp_poles_in_region(g, r)) for g in rational]
    inside = np.array([p in region[i] for p, i in zip(poles, owner)], dtype=bool)

    def geometry(members):  # mean, spread, distances (members' inf), nearest
        c = poles[members].mean()
        dist = np.abs(poles - c)
        dist[members] = np.inf
        return c, float(np.abs(poles[members] - c).max()), dist, int(dist.argmin())

    def factored(g, s):  # pole-zero form stays accurate about a multiple root
        return (g.num.leading / g.den.leading * np.prod(s[:, None] - np.array(g.zeros), axis=1)
                / np.prod(s[:, None] - np.array(g.poles), axis=1))

    todo, done = [[i] for i in np.flatnonzero(inside).tolist()], []
    while todo:
        members = todo.pop()
        c, spread, dist, j = geometry(members)
        if spread < 0.5 * dist[j] and not (inside[j] and dist[j] <= CLUSTER_RTOL * (1 + abs(c))):
            done.append(members)
        elif not inside[j]:
            raise ContourError(f"the region poles near {c:.6g} are not separated from "
                               f"the agent pole {poles[j]:.6g} outside the region")
        else:  # take in the cluster that holds pole j
            pool = next(p for p in (todo, done) if any(j in o for o in p))
            todo.append(members + pool.pop(next(k for k, o in enumerate(pool) if j in o)))
    N = 0
    for members in done:
        c, spread, dist, j = geometry(members)
        d = min(dist[j], max(1.0 + abs(c), 4.0 * spread))
        rho_c = max(spread, d / 16.0)
        S, counts = np.unique(owner[members], return_counts=True)
        R = np.linalg.qr(U[S].T, mode="r")  # keeps the singular values
        # K grows while the rank rises, from the largest agent's count (a
        # Jordan block's leading sections are singular) to this bound
        K_max = len(members) - R.shape[0] + 1  # on the controllability index
        nodes = max(32, 2 * K_max + math.ceil(30.0 / math.log10(d / rho_c)))
        z = np.exp(2j * math.pi * (np.arange(nodes) + 0.5) / nodes)
        vals = np.array([gamma[i] * factored(rational[i], c + math.sqrt(rho_c * d) * z)
                         for i in S])
        moments = vals @ z[:, None] ** np.arange(1, 2 * K_max) / nodes  # (|S|, 2K_max - 1)
        cut = 64 * np.finfo(float).eps * np.abs(vals).max()
        rank = -1
        for K in range(int(counts.max()), K_max + 1):
            blocks = (R * moments[:, :2 * K - 1].T[:, None, :]) @ R.T  # R M_k R^T
            H = blocks[np.add.outer(np.arange(K), np.arange(K))].transpose(0, 2, 1, 3)
            sv = np.linalg.svd(H.reshape(K * R.shape[0], -1), compute_uv=False)
            before, rank = rank, int((sv > max(1e-9 * sv[0], cut)).sum())
            if rank in (before, len(members)):  # settled, or all poles count
                break
        N += rank
    return N, int(inside.sum())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _default_contour(gammas, agents, kind, r, R, density, extra=()):
    """The contour rule of every check. ``extra`` are frequencies the axis
    samples exactly. Every agent's rational form is rooted first, in one
    batched pass. A closure radius R (when None) of the largest of
    ``default_outer_radius``, 100*r and 4*w for every w in ``extra``; an RHP
    indentation around each imaginary-axis agent pole; and an indentation
    radius of 1e-4*R, capped at 1e-3 times the smallest nonzero agent pole
    or zero modulus so that the origin indentation cannot exempt slow
    closed-loop poles."""
    rational = _agent_rationals(agents)
    if R is None:
        R = max(default_outer_radius(agents, gammas), 100.0 * r,
                *(4.0 * w for w in extra))
    rho, jw = 1e-4 * R, []
    for g in rational:
        rho = min([rho, *(1e-3 * abs(p) for p in g.poles + g.zeros if abs(p) > 1e-9)])
        jw += jw_axis_poles(g)
    return make_contour(kind, r, R, density=density, jw_pole_list=jw,
                        indent_radius=rho, extra_axis_omegas=extra)


def theorem1_check(
    netN: NormalizedNetwork,
    agents: Sequence,
    contour: Contour | None = None,
) -> Verdict:
    """Exact asymptotic-synchronization test: the interarea eigenloci, taken
    together, must encircle -1 exactly N times anticlockwise, N being the
    McMillan degree of the projected loop at its RHP poles.

    Necessary and sufficient (up to the marginal band) for the interarea
    modes, all it judges (DECISIONS.md D11): with P_open the agents' RHP
    pole count (``open_loop_poles``), P_open - winding is the network-wide
    count, and the P_open - N modes at poles all agents share belong to the
    uniform mode. Delayed agents are swept with exact exponentials but
    their N comes from the Pade form."""
    return _winding_check(netN, agents, None, contour)


def lossy_exponential_check(
    netN: NormalizedNetwork,
    agents: Sequence,
    epsilon: float,
    contour: Contour | None = None,
) -> Verdict:
    """Exponential-stability test for the lossy interconnection L' + eps*I
    (full rank): all n eigenloci must encircle -1 N times anticlockwise."""
    if not 0 < epsilon < math.inf:
        raise InvalidInputError("lossy check needs a finite epsilon > 0; use "
                                "theorem1_check for the lossless network")
    # the report's loci stay the interarea ones: the caller sweeps those
    return replace(_winding_check(netN, agents, epsilon, contour), sweep=None)


def _winding_check(netN, agents, epsilon, contour) -> Verdict:
    """The generalized Nyquist count of theorem 1 (``epsilon`` None: the loop
    on Uhat) or of the lossy variant (on U, weighted by mu + epsilon), on a
    default full-D contour of density 200 when ``contour`` is None. The
    verdict follows from the one violation found, if any: a winding other
    than N is unstable; zero loci, or loci through -1, are inconclusive."""
    if contour is None:
        contour = _default_contour(netN.gamma, agents, "full-D", 0.0, None, 200)
    U = netN.U_hat if epsilon is None else netN.U
    N, p_open = _count_unstable_loop_poles(agents, netN.gamma, U, contour.inner_radius)
    sweep = eigenloci_sweep(netN, agents, contour, epsilon)
    closure = sweep.roles == "closure"
    closure_mag = float(np.abs(sweep.eigs_upper[closure]).max()) if closure.any() else 0.0
    if closure_mag >= CLOSURE_LOCI_BOUND:
        raise ContourError(
            f"loci reach {closure_mag:.3g} on the closure arc; increase the "
            "outer radius R"
        )
    max_loci = float(np.abs(sweep.eigs_upper).max())
    diagnostics = {
        "check": "theorem1" if epsilon is None else "lossy",
        "max_loci_magnitude": max_loci,
        "closure_max_magnitude": closure_mag,
        "flagged_samples": list(sweep.flagged),
        "open_loop_poles": p_open,
    }
    winding = violation = None
    if max_loci < DEGENERATE_LOCI:
        violation = Violation("degenerate-loop", None, "all loci identically zero")
    else:
        dist, s_at, val = sweep.closest_approach()
        diagnostics["closest_approach"] = {
            "distance": dist,
            "s": complex(s_at),
            "value": complex(val),
        }
        try:
            winding, _ = sweep.total_winding()
        except MarginalStabilityError:
            violation = Violation("loci-touch-minus-one", abs(s_at.imag), dist)
        if winding is not None and winding != N:
            violation = Violation("winding-mismatch", None,
                                  f"summed winding {winding} != required {N}")
    return Verdict(
        result=("stable" if violation is None
                else "inconclusive" if winding is None else "unstable"),
        winding_count=winding,
        n_required=N,
        violated_conditions=() if violation is None else (violation,),
        diagnostics=diagnostics,
        sweep=sweep,
    )


# ---------------------------------------------------------------------------
# field-of-values (sufficient) check
# ---------------------------------------------------------------------------


def _hull_ray_min_x(points: np.ndarray):
    """Leftmost abscissa where the convex hull of the points meets the real
    axis (+inf when it does not). Exact segment/axis intersections over all
    opposite-side pairs; the extremes are attained on hull edges, which are
    a subset of those pairs.

    ``points`` is an (m, n) array of m sets, and m values are returned; the
    pairs of all sets are taken in row blocks of n x n arrays of at most
    ``_HULL_BLOCK_BYTES``."""
    m, n = points.shape
    re, im = points.real, points.imag
    tol = 1e-12 * (1.0 + np.abs(points).max(axis=1, keepdims=True))
    best = np.where(np.abs(im) <= tol, re, np.inf).min(axis=1)
    up = im > tol
    dn = im < -tol
    rows = max(1, _HULL_BLOCK_BYTES // (8 * n * n))
    for lo in range(0, m, rows):
        sl = slice(lo, lo + rows)
        re_i, im_i = re[sl, :, None], im[sl, :, None]
        # t = im_i / (im_i - im_j), x = re_i + t * (re_j - re_i), in place
        with np.errstate(divide="ignore", invalid="ignore"):
            t = im_i - im[sl, None, :]
            np.divide(im_i, t, out=t)
            x = re[sl, None, :] - re_i
            x *= t
            del t
            x += re_i
        np.putmask(x, ~(up[sl, :, None] & dn[sl, None, :]), np.inf)
        x_min = x.min(axis=(1, 2))
        del x  # before the next block's arrays
        best[sl] = np.where(x_min < best[sl], x_min, best[sl])  # min(best, x_min)
    return best


def fov_check(
    netN: NormalizedNetwork,
    agents: Sequence,
    contour: Contour,
) -> Verdict:
    """Sufficient scalable criterion: at every contour sample the convex
    hull of the vertices gamma_i g_i(s) (the field of values of the diagonal
    G'(s)) must not intersect the real ray (-inf, -1]; then no alpha-scaled
    field of values, alpha in (0,1], can encircle -1, because any
    encirclement would have to cross that ray and scaling by alpha <= 1 only
    moves hull points x <= -1/alpha onto it.

    Precondition (pole gate): no open-loop unstable poles inside the contour
    region -- violations are returned as a failed verdict listing agents and
    pole moduli.
    """
    r_gate = contour.inner_radius
    gated = [rhp_poles_in_region(g, r_gate) for g in _agent_rationals(agents)]
    violations = [
        Violation("pole-gate", None, {"agent": idx, "pole_moduli_rad_s": [abs(p) for p in poles]})
        for idx, poles in enumerate(gated) if poles
    ]
    sweep = eigenloci_sweep(netN, agents, contour)
    min_x = _hull_ray_min_x(sweep.vertices_upper)
    worst_i = int(np.argmin(min_x))
    worst = float(min_x[worst_i])
    freq = float(sweep.s_upper[worst_i].imag)
    diagnostics = {
        "check": "fov",
        "worst_hull_axis_x": worst,
        "worst_frequency_rad_s": freq,
        "pole_gate_r": r_gate,
    }
    ray_failed = worst <= -1.0 - FOV_MARGIN_BAND
    # within the band of -1, and nothing else failed
    marginal = not (ray_failed or violations) and abs(worst + 1.0) <= FOV_MARGIN_BAND
    if ray_failed or marginal:
        violations.append(Violation("fov-ray-marginal" if marginal else "fov-ray", freq, worst))
    return Verdict(
        result="inconclusive" if marginal else "unstable" if violations else "stable",
        violated_conditions=tuple(violations),
        diagnostics=diagnostics,
        sweep=sweep,
    )


# ---------------------------------------------------------------------------
# decentralized per-agent blueprint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecentralizedPolicy:
    """Network-wide policy every connecting agent is checked against: the
    D_r radius, a separating hyperplane (point + unit normal; "right of" is
    Re(conj(normal) * (z - point)) > 0), and the slowest admissible
    actuation delay."""

    r: float
    hyperplane_point: complex
    hyperplane_normal: complex
    tau_max: float
    R: float | None = None

    def __post_init__(self):
        if not (0 < self.r < math.inf and 0 < self.tau_max < math.inf):
            raise InvalidInputError("policy needs finite r > 0 and tau_max > 0")
        if not cmath.isfinite(self.hyperplane_point):
            raise InvalidInputError("hyperplane point must be finite")
        n = abs(self.hyperplane_normal)
        if not (0 < n < math.inf):
            raise InvalidInputError("hyperplane normal must be finite and nonzero")
        object.__setattr__(self, "hyperplane_normal", self.hyperplane_normal / n)
        # side(-1 - t) = side(-1) - t*Re(normal) for t >= 0, so the whole
        # ray (-inf, -1] is inadmissible iff both conditions hold
        if not (self.side(-1.0) < 0 and self.hyperplane_normal.real >= 0):
            raise InvalidInputError("hyperplane must leave all of (-inf, -1] inadmissible: "
                                    "need side(-1) < 0 and Re(normal) >= 0")

    def side(self, z) -> np.ndarray:
        """Signed distance to the hyperplane, positive on the admissible side."""
        return np.real(np.conj(self.hyperplane_normal) * (np.asarray(z) - self.hyperplane_point))


def decentralized_check(
    agent,
    gamma_bound: float,
    policy: DecentralizedPolicy,
    density: int = 200,
) -> Verdict:
    """Per-agent, network-independent screening (the decentralized
    blueprint): with gamma_bound an upper bound on the agent's network
    incidence, require

    1. no unstable agent poles inside the D_r-contour,
    2. the vertex gamma*g(s) never enters {Re < -1, Im > 0} along the
       positive-imaginary part of the contour, and
    3. gamma*g(jw) strictly on the designated hyperplane side for all
       w > pi/(2 tau_max).

    Every agent passing this against the same policy keeps the network free
    of unstable interarea modes faster than r.

    The D_r contour is ``_default_contour``'s, with closure radius
    ``policy.R`` and an exact sample at pi/(2 tau_max).
    """
    if not 0 < gamma_bound < math.inf:
        raise InvalidInputError("gamma bound must be positive and finite")
    w_delay = math.pi / (2 * policy.tau_max)
    contour = _default_contour([gamma_bound], [agent], "D_r", policy.r, policy.R, density,
                               extra=(w_delay,))
    try:
        inside = rhp_poles_in_region(_agent_rational(agent), policy.r)
    except BoundaryAmbiguityError as exc:
        return Verdict(
            result="inconclusive",
            violated_conditions=(Violation("pole-on-contour", policy.r, str(exc)),),
            diagnostics={"check": "decentralized"},
        )
    violations: list[Violation] = []
    if inside:
        violations.append(
            Violation(
                "unstable-poles-inside-contour",
                None,
                {"pole_moduli_rad_s": [abs(p) for p in inside]},
            )
        )

    # vertex along the positive-imaginary chain (everything but the closure)
    roles = contour.node_roles()
    keep = roles != "closure"
    pts = contour.upper_points()[keep]
    v = _vertices(RationalStack([agent]), [gamma_bound], pts)[:, 0]
    scale_tol = 1e-12 * (1.0 + np.abs(v))
    in_bad_region = (v.real <= -1.0) & (v.imag > scale_tol)
    if in_bad_region.any():
        first = int(np.argmax(in_bad_region))
        violations.append(
            Violation(
                "vertex-in-top-left-of-minus-one",
                float(pts[first].imag),
                complex(v[first]),
            )
        )

    on_axis = roles[keep] == "axis"
    omega = pts[on_axis].imag
    v_axis = v[on_axis]
    fast = omega > w_delay
    side = policy.side(v_axis[fast])
    if side.size and side.min() <= 0.0:
        first = int(np.argmax(side <= 0.0))
        violations.append(
            Violation(
                "vertex-off-hyperplane-side",
                float(omega[fast][first]),
                complex(v_axis[fast][first]),
            )
        )
    diagnostics = {
        "check": "decentralized",
        "gamma_bound": gamma_bound,
        "pi_over_2tau": w_delay,
        "min_hyperplane_margin": float(side.min()) if side.size else None,
        # per axis segment, so no bracket straddles an indented jw-axis pole
        "vertex_axis_crossings": [
            c for sg in contour.segments if sg.role == "axis"
            for c in vertex_axis_crossings(agent, gamma_bound, sg.a, sg.b)
        ],
    }
    return Verdict(
        result="unstable" if violations else "stable",
        violated_conditions=tuple(violations),
        diagnostics=diagnostics,
    )


def vertex_axis_crossings(agent, gamma: float, omega_lo: float, omega_hi: float) -> list[dict]:
    """Real-axis crossings of the vertex gamma*g(jw) for w in [lo, hi]:
    sign changes of Im on a log grid of ``CROSSING_DENSITY`` points per
    decade (its own grid, not the contour's nodes: DECISIONS.md D5), refined
    on the exact evaluator by Illinois regula falsi, vectorised over all
    brackets (one evaluation per iteration), until each bracket is at most
    1e-12 + 1e-12*w wide. A bracket whose ends do not have opposite signs (a
    NaN end) is skipped; one with a zero end resolves to that end. [lo, hi]
    must hold no jw-axis pole, where Im flips sign without a crossing and
    the refinement would converge onto the pole; ``decentralized_check``
    calls it once per axis segment of its contour. Returns
    [{omega_rad_s, re}] sorted by frequency."""

    def im_vertex(w: np.ndarray) -> np.ndarray:
        return np.imag(gamma * agent(1j * w))

    n = max(64, int(CROSSING_DENSITY * math.log10(omega_hi / omega_lo)))
    grid = np.geomspace(omega_lo, omega_hi, n)
    vals = im_vertex(grid)
    i = np.flatnonzero(np.diff(np.signbit(vals)))
    a, b = grid[i], grid[i + 1]
    fa, fb = vals[i], vals[i + 1]
    keep = fa * fb <= 0
    a, b, fa, fb = a[keep], b[keep], fa[keep], fb[keep]
    active = np.flatnonzero((fa != 0) & (fb != 0))
    b[fa == 0] = a[fa == 0]
    # b is each bracket's latest estimate, a its other end
    for _ in range(CROSSING_MAX_ITER):
        if not active.size:
            break
        xa, xb, ya, yb = a[active], b[active], fa[active], fb[active]
        c = xb - yb * (xb - xa) / (yb - ya)
        fc = im_vertex(c)
        flip = fc * yb < 0
        # Illinois: the end that stays gets its value halved
        a[active] = np.where(flip, xb, xa)
        fa[active] = np.where(flip, yb, 0.5 * ya)
        b[active], fb[active] = c, fc
        done = (fc == 0) | (np.abs(c - a[active]) <= CROSSING_XTOL + CROSSING_RTOL * c)
        active = active[~done]
    if not b.size:
        return []
    re = np.real(gamma * agent(1j * b))
    return [{"omega_rad_s": float(w), "re": float(x)} for w, x in zip(b, re)]
