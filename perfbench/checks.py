"""Output checks, computed apart from the program's frequency-domain code.

Closed-loop eigenvalues come from ``realize_state_space`` (the state-space
oracle, which shares no code with ``nyquist``); simulation traces are
compared with an exact matrix-exponential (Van Loan) solution computed
here. Every function returns a list of problems, empty when the output is
correct. None of this runs inside a timed region.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

VERDICT_EXIT = {"stable": 0, "unstable": 1, "inconclusive": 2}
RE_TOL = 1e-8  # Re(lambda) above RE_TOL * max(1, |lambda|) counts as unstable
AXIS_BAND = 1e-6  # an eigenvalue this close to the axis makes the case marginal
ZERO_MODE = 1e-6  # |lambda| below this is the uniform angle-shift mode
# RK4 does not break its steps at pulse edges; today that costs up to
# 6e-4 Hz of frequency error, so the trace tolerance sits above it
SIM_TOL_HZ = 2e-3
RATE_RTOL = 1e-3  # clamped hydro rates: within and reaching bound*(1 +- RATE_RTOL)
LOSSY_EPSILON = 0.01  # the CLI's default --epsilon, which the lossy ops use


class Oracle:
    """Cached state-space facts about the scenarios of one run."""

    def __init__(self, nyq):
        self.nyq = nyq
        self._cache = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def scenario(self, path: str):
        return self._get(("scn", path), lambda: self.nyq.load_scenario(path))

    def model(self, path: str):
        def make():
            scn = self.scenario(path)
            return self.nyq.realize_state_space(scn.network, list(scn.agents), pade_order=3)

        return self._get(("model", path), make)

    def eigenvalues(self, path: str, epsilon: float | None) -> np.ndarray:
        """Closed-loop eigenvalues; with ``epsilon`` those of the lossy
        interconnection L + eps*Gamma, i.e. A - B eps Gamma C_delta."""

        def make():
            m = self.model(path)
            A = m.A
            if epsilon is not None:
                gamma = 2.0 * np.diag(m.laplacian)
                A = A - m.B @ (epsilon * np.diag(gamma)) @ m.delta_rows
            return np.linalg.eigvals(A)

        return self._get(("eig", path, epsilon), make)

    def exact_traces(self, path: str, times: np.ndarray) -> dict:
        return self._get(("exact", path, len(times)), lambda: _exact_traces(
            self.model(path), self.scenario(path), times))


def _region(ev: np.ndarray, kind: str, r: float):
    """(unstable count, marginal) of the eigenvalues in the contour's
    region: Re > 0 and |lambda| >= r on D_r, Re > 0 off the origin on D."""
    mod = np.abs(ev)
    inside = mod >= r if kind == "D_r" else mod > ZERO_MODE
    scale = np.maximum(1.0, mod)
    unstable = inside & (ev.real > RE_TOL * scale)
    marginal = inside & (np.abs(ev.real) <= AXIS_BAND * scale)
    return int(unstable.sum()), bool(marginal.any())


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    body = [r[: len(header) - (header[-1] == "marker")] for r in rows[1:]]
    return header, np.array(body, dtype=float)


def check_loci(out: Path, n: int, markers: bool) -> list[str]:
    problems = []
    path = out / "loci.csv"
    if not path.is_file():
        return ["loci.csv missing"]
    header, data = read_csv(path)
    want = 1 + 2 * (n - 1) + 2 * n + (1 if markers else 0)
    if len(header) != want:
        problems.append(f"loci.csv has {len(header)} columns, expected {want}")
    if data.shape[0] < 3 or not np.all(np.isfinite(data)):
        problems.append("loci.csv has too few rows or non-finite values")
    return problems


def check_analyze(oracle: Oracle, op, code: int, out: Path) -> list[str]:
    report_path = out / "report.json"
    if not report_path.is_file():
        return [f"exit {code} without report.json"]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    result = report["result"]
    problems = []
    if VERDICT_EXIT[result] != code:
        problems.append(f"exit {code} but report says {result}")
    problems += check_loci(out, op.n, op.markers)
    params = report["parameters"]
    kind = params["contour_kind"]
    r = params["contour_r_rad_s"] or 0.0
    eps = LOSSY_EPSILON if op.check == "lossy" else None
    z, marginal = _region(oracle.eigenvalues(op.scenario, eps), kind, r)
    if marginal:
        return problems  # the oracle itself cannot decide
    if op.check in ("theorem1", "lossy"):
        expected = "stable" if z == 0 else "unstable"
        if result != expected:
            problems.append(f"{result}, oracle has {z} closed-loop RHP eigenvalues "
                            f"in the {kind} region (r = {r:.4g}): {expected}")
        elif kind == "full-D" and report["winding"] != report["N"] - z:
            problems.append(f"winding {report['winding']} != N - Z = "
                            f"{report['N']} - {z}")
    elif result == "stable" and z:
        problems.append(f"{op.check} says stable, oracle has {z} RHP eigenvalues "
                        f"in the {kind} region (r = {r:.4g})")
    return problems


def check_export(op, code: int, out: Path) -> list[str]:
    problems = [] if code == 0 else [f"export-loci exit {code}"]
    problems += check_loci(out, op.n, op.markers)
    svg = out / "loci.svg"
    if not svg.is_file() or not svg.read_text(encoding="utf-8").startswith("<svg"):
        problems.append("loci.svg missing or malformed")
    return problems


def _exact_traces(model, scn, times: np.ndarray) -> dict:
    """Zero-order-hold solution of dx/dt = A x + B d(t) on the record grid,
    exact for piecewise-constant pulses: every pulse edge is a breakpoint
    and each interval is stepped with the Van Loan block exponential."""
    n_x, n_u = model.B.shape
    edges = {p.t_start_s for p in scn.disturbance}
    edges |= {p.t_end_s for p in scn.disturbance if p.t_end_s is not None}
    grid = np.union1d(times, [e for e in edges if times[0] < e < times[-1]])

    def d_of(t):
        d = np.zeros(n_u)
        for p in scn.disturbance:
            if t >= p.t_start_s and (p.t_end_s is None or t < p.t_end_s):
                d[p.bus] += p.amplitude_mw
        return d

    steps = {}
    x = np.zeros(n_x)
    xs = {float(grid[0]): x}
    for t0, t1 in zip(grid[:-1], grid[1:]):
        h = round(float(t1 - t0), 12)
        if h not in steps:
            blk = np.zeros((n_x + n_u, n_x + n_u))
            blk[:n_x, :n_x] = model.A * h
            blk[:n_x, n_x:] = model.B * h
            E = expm(blk)
            steps[h] = (E[:n_x, :n_x], E[:n_x, n_x:])
        phi, gam = steps[h]
        x = phi @ x + gam @ d_of(0.5 * (t0 + t1))
        xs[float(t1)] = x
    X = np.array([xs[float(t)] for t in times]).T
    Dm = np.array([d_of(float(t)) for t in times]).T
    delta = model.delta_rows @ X
    return {
        "freq": model.omega_rows @ X + model.omega_feedthrough @ Dm,
        "tie": model.laplacian @ delta,
    }


def check_simulate(oracle: Oracle, op, code: int, out: Path) -> list[str]:
    if code != 0:
        return [f"simulate exit {code}"]
    path = out / "traces.csv"
    if not path.is_file():
        return ["traces.csv missing"]
    header, data = read_csv(path)
    scn = oracle.scenario(op.scenario)
    n = scn.n
    times = data[:, 0]
    want_t = np.arange(len(times)) * scn.dt_s * scn.record_decimation
    if len(times) != round(scn.t_end_s / (scn.dt_s * scn.record_decimation)) + 1 or \
            np.abs(times - want_t).max() > 1e-6:
        return ["traces.csv time grid differs from t_end, dt and decimation"]
    freq = data[:, 1:1 + n].T
    problems = []
    if op.rate_limiter:
        for col, name in enumerate(header):
            if not name.startswith("p_hydro_bus"):
                continue
            bus = int(name[len("p_hydro_bus"):]) - 1
            bound = scn.hydro_rate_limits_mw_per_s[bus]
            peak = float(np.abs(np.diff(data[:, col]) / np.diff(times)).max())
            if not bound * (1 - RATE_RTOL) <= peak <= bound * (1 + RATE_RTOL):
                problems.append(f"{name}: peak rate {peak:.6g} MW/s, bound {bound:.6g}")
        return problems
    exact = oracle.exact_traces(op.scenario, times)
    err = float(np.abs(freq - exact["freq"]).max())
    if not err <= SIM_TOL_HZ:
        problems.append(f"frequency off the exact solution by {err:.3g} Hz")
    tie = data[:, 1 + n:1 + 2 * n].T
    scale = max(1.0, float(np.abs(exact["tie"]).max()))
    tie_err = float(np.abs(tie - exact["tie"]).max())
    if not tie_err <= 3e-3 * scale:
        problems.append(f"tie flows off the exact solution by {tie_err:.3g} MW")
    return problems
