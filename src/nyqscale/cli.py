"""Command-line front end: analyze / simulate / export-loci.

Exit codes: 0 stable, 1 unstable, 2 inconclusive, 3 input or configuration
error (an input too large to allocate included), 4 simulation divergence.
Reports are JSON, trajectories CSV, plots SVG polylines -- all data-first,
meant for batch runs.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .errors import DivergenceError, NyqscaleError
from .network import normalize
# default_outer_radius and make_contour are unused here but stay module
# attributes: perfbench/spans.py wraps cli's copies of them by name
from .nyquist import (
    LociSweep,
    Verdict,
    decentralized_check,
    default_outer_radius,
    eigenloci_sweep,
    fov_check,
    lossy_exponential_check,
    make_contour,
    theorem1_check,
    _default_contour,
)
from .scenario import load_scenario
from .simkit import realize_state_space, simulate as run_simulation

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_DIVERGED = 4

_VERDICT_EXIT = {
    "stable": EXIT_STABLE,
    "unstable": EXIT_UNSTABLE,
    "inconclusive": EXIT_INCONCLUSIVE,
}

# decentralized_check diagnostics copied into each report.json per_agent entry
_AGENT_DIAGNOSTICS = ("min_hyperplane_margin", "pi_over_2tau", "vertex_axis_crossings")


class _Omega(click.ParamType):
    """A frequency in rad/s: '0.75', '0.37*2pi' or '0.5*pi'."""

    name = "omega"

    def convert(self, value, param, ctx):
        t = str(value).strip().lower().replace(" ", "")
        try:
            if t.endswith("*2pi"):
                return float(t[:-4]) * 2.0 * math.pi
            if t.endswith("*pi"):
                return float(t[:-3]) * math.pi
            return float(t)
        except ValueError:
            self.fail(f"{value!r} is not a frequency like 0.75 or 0.37*2pi",
                      param, ctx)


class _Hyperplane(click.ParamType):
    """A hyperplane point and normal as four numbers: re,im,nre,nim."""

    name = "re,im,nre,nim"

    def convert(self, value, param, ctx):
        try:
            parts = [float(x) for x in str(value).split(",")]
        except ValueError:
            parts = []
        if len(parts) != 4:
            self.fail(f"{value!r} is not four numbers re,im,nre,nim", param, ctx)
        return complex(parts[0], parts[1]), complex(parts[2], parts[3])


class _Cli(click.Group):
    """Click exits 2 on a usage error, such as an option value that does not
    parse; here 2 means inconclusive, so usage errors exit 3 instead."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT_ERROR
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT_ERROR
            raise


@contextmanager
def _input_errors():
    """Exit 3 on an input the program rejects, or one too large to allocate
    (numpy's MemoryError names the size it asked for)."""
    try:
        yield
    except NyqscaleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    except MemoryError as exc:
        click.echo(f"error: input too large: {exc or 'out of memory'}", err=True)
        sys.exit(EXIT_INPUT_ERROR)


def _echo_verdict(name: str, verdict: Verdict):
    click.echo(f"{name}: {verdict.result}")
    for v in verdict.violated_conditions:
        freq = "" if v.frequency_rad_s is None else f" @ {v.frequency_rad_s:.4g} rad/s"
        click.echo(f"  violated: {v.condition}{freq}: {v.value}")


def _write_report(out_dir: Path, payload: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    click.echo(f"report: {path}")


# rows formatted per block of loci.csv and traces.csv: traces.csv formats a
# whole block with one %, so large blocks spread the per-block calls over
# many cells; loci.csv formats row by row, and a block only sets how much
# text is held at once
_CSV_BLOCK_ROWS = 512


def _write_csv(path: Path, header, columns, formats):
    """Write ``columns`` (equal-length 1-D real arrays, or 2-D blocks of
    them) side by side, each cell printf-formatted by its entry in
    ``formats``. Line ends and the header are csv.writer's. The columns
    are stacked once, and each block of rows is formatted by one % over
    the row format repeated once per row."""
    fmt = ",".join(formats) + "\r\n"
    table = np.column_stack(columns)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[lo:lo + _CSV_BLOCK_ROWS]
            fh.write(fmt * len(block) % tuple(block.ravel().tolist()))


def _write_loci_csv(path: Path, sweep: LociSweep, markers=()):
    """CSV contract: omega_rad_s, branch_k_re/im, vertex_i_re/im [, marker],
    one row per sample of the closed contour: the upper chain, then its
    conjugate mirror in reverse order.

    Only the upper rows are formatted, a block at a time. A mirrored row is
    the text of its upper row with the sign of the omega cell and of every
    _im cell toggled, since %.12g of -x is "-" + %.12g of x (+-0 included).
    A row with a non-finite cell is formatted from its mirrored values
    instead, because nan carries no sign. Marker tags are matched over the
    full omega column."""
    omega, br, vx = sweep.s_upper.imag, sweep.branches_upper, sweep.vertices_upper
    m = len(omega)
    header = ["omega_rad_s"]
    for k in range(br.shape[1]):
        header += [f"branch_{k + 1}_re", f"branch_{k + 1}_im"]
    for i in range(vx.shape[1]):
        header += [f"vertex_{i + 1}_re", f"vertex_{i + 1}_im"]
    ends = ["\r\n"] * (2 * m - 1)
    if markers:
        header.append("marker")
        omega_full = np.concatenate([omega, -omega[-2::-1]])
        tags = [""] * len(omega_full)
        for name, w_mark in markers:
            for row in np.flatnonzero(np.abs(omega_full - w_mark) <= 1e-9 * max(1.0, w_mark)):
                tags[row] = name
        ends = [f",{tag}\r\n" for tag in tags]
    # "\0" marks the cells whose sign a mirrored row toggles
    pairs = br.shape[1] + vx.shape[1]
    marked = "\0%.12g" + ",%.12g,\0%.12g" * pairs
    plain = marked.replace("\0", "")

    def cells(lo, hi, sign=1.0):
        """Rows lo:hi as cells: omega, then re and im of each complex
        column; sign -1 gives their mirrored (conjugate) rows."""
        z = np.hstack([br[lo:hi], vx[lo:hi]])
        reim = np.stack([z.real, sign * z.imag], axis=-1).reshape(hi - lo, -1)
        return np.hstack([sign * omega[lo:hi, None], reim])

    upper: list[str] = []
    finite = np.empty(m, dtype=bool)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, m, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, m)
            block = cells(lo, hi)
            finite[lo:hi] = np.isfinite(block).all(axis=1)
            lines = [marked % tuple(row) for row in block.tolist()]
            upper += lines
            fh.write("".join(map(str.__add__, lines, ends[lo:hi])).replace("\0", ""))
        for lo in range(m, 2 * m - 1, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, 2 * m - 1)
            text = []
            for row in range(lo, hi):
                u = 2 * m - 2 - row
                line = upper[u] if finite[u] else plain % tuple(cells(u, u + 1, -1.0)[0].tolist())
                text.append(line + ends[row])
            fh.write("".join(text).replace("\0-", "\1").replace("\0", "-").replace("\1", ""))
    click.echo(f"loci: {path}")


def _write_traces_csv(path: Path, bus_ids, result):
    """CSV contract: time_s, f_busB_Hz, tie_busB_MW, actuator injections,
    omega_avg_Hz, omega_coi_Hz."""
    act_names = list(result.actuator_mw)
    header = (
        ["time_s"]
        + [f"f_bus{b}_Hz" for b in bus_ids]
        + [f"tie_bus{b}_MW" for b in bus_ids]
        + act_names
        + ["omega_avg_Hz", "omega_coi_Hz"]
    )
    columns = [
        result.time_s,
        result.frequency_hz.T,
        result.tie_flow_mw.T,
        *(result.actuator_mw[nm] for nm in act_names),
        result.omega_avg_hz,
        result.omega_coi_hz,
    ]
    _write_csv(path, header, columns, ["%.6f"] + ["%.9g"] * (len(header) - 1))


# loci.svg: a square of _SVG_SIZE px showing [-_SVG_HALF, _SVG_HALF] in
# both axes; polylines keep the points within 1.5x that box
_SVG_HALF = 6.0
_SVG_SIZE = 640
_SVG_SCALE = _SVG_SIZE / (2 * _SVG_HALF)


def _svg_px(z):
    """Pixel coordinates (x, y) of z, or of an array of points."""
    return ((z.real + _SVG_HALF) * _SVG_SCALE, (_SVG_HALF - z.imag) * _SVG_SCALE)


def _svg_polyline(zs, color, dash=""):
    """One <polyline> per run of at least two consecutive points of ``zs``
    inside the clip box; NaN points fall outside it."""
    z = np.asarray(zs, dtype=complex)
    inside = np.flatnonzero((np.abs(z.real) <= _SVG_HALF * 1.5)
                            & (np.abs(z.imag) <= _SVG_HALF * 1.5))
    px = np.stack(_svg_px(z[inside]), axis=-1)
    cuts = np.flatnonzero(np.diff(inside) != 1) + 1
    out = []
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(inside)]):
        if hi - lo > 1:
            pts = ("%.2f,%.2f " * (hi - lo)) % tuple(px[lo:hi].ravel().tolist())
            out.append(f'<polyline points="{pts[:-1]}" fill="none" '
                       f'stroke="{color}" stroke-width="1.2" {dash}/>')
    return "".join(out)


def _svg_line(p0: complex, direction: complex) -> list[complex]:
    """End points of the line p0 + t*direction within the polyline clip box
    (none if it misses the box or runs along an edge); a coordinate cut by
    the box is set to exactly its bound, which ``_svg_polyline`` keeps."""
    bound = _SVG_HALF * 1.5
    p, d = np.array([p0.real, p0.imag]), np.array([direction.real, direction.imag])
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0: t is +-inf or NaN
        t = np.sort([(-bound - p) / d, (bound - p) / d], axis=0)
    lo, hi = t[0].max(), t[1].min()
    if not lo < hi:
        return []
    ends = p0 + np.array([lo, hi]) * direction
    return list(np.clip(ends.real, -bound, bound) + 1j * np.clip(ends.imag, -bound, bound))


def _write_loci_svg(path: Path, sweep: LociSweep, policy, markers=()):
    """Static SVG polyline plot of vertices, branches and the policy's
    hyperplane, clipped to a box around the critical point."""
    half, size = _SVG_HALF, _SVG_SIZE
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f"]
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        _svg_polyline([complex(-half, 0), complex(half, 0)], "#cccccc"),
        _svg_polyline([complex(0, -half), complex(0, half)], "#cccccc"),
    ]
    for i in range(sweep.vertices_full.shape[1]):
        body.append(
            _svg_polyline(sweep.vertices_full[:, i], palette[i % len(palette)])
        )
    for k in range(sweep.branches_full.shape[1]):
        body.append(
            _svg_polyline(
                sweep.branches_full[:, k],
                palette[(k + sweep.vertices_full.shape[1]) % len(palette)],
                dash='stroke-dasharray="4 3"',
            )
        )
    body.append(
        _svg_polyline(_svg_line(policy.hyperplane_point, 1j * policy.hyperplane_normal),
                      "#444444", 'stroke-dasharray="6 4"')
    )
    mx, my = _svg_px(complex(-1.0, 0.0))
    body.append(
        f'<path d="M{mx - 5},{my - 5} L{mx + 5},{my + 5} M{mx - 5},{my + 5} '
        f'L{mx + 5},{my - 5}" stroke="black" stroke-width="1.5"/>'
    )
    for name, w_mark in markers:
        idx = int(np.argmin(np.abs(sweep.s_full.imag - w_mark)))
        for i in range(sweep.vertices_full.shape[1]):
            z = sweep.vertices_full[idx, i]
            if abs(z.real) <= half and abs(z.imag) <= half:
                px, py = _svg_px(z)
                body.append(
                    f'<path d="M{px - 4},{py - 4} L{px + 4},{py + 4} '
                    f'M{px - 4},{py + 4} L{px + 4},{py - 4}" stroke="#d62728" '
                    f'stroke-width="1.2"/>'
                )
    body.append("</svg>")
    path.write_text("\n".join(body), encoding="utf-8")
    click.echo(f"svg: {path}")


def _load(path):
    """The scenario at ``path``, its normalized network, its agents, and one
    pi_over_2tau marker per distinct actuator delay."""
    scn = load_scenario(path)
    taus = sorted({f.delay_s for a in scn.agents for f in a.f_parts if f.delay_s > 0})
    markers = [("pi_over_2tau", math.pi / (2 * t)) for t in taus]
    return scn, normalize(scn.network), list(scn.agents), markers


def _resolve_contour(scn, netN, agents, kind, r, R, density, pade_order, markers):
    """The contour of a command's options: an explicit ``r`` means D_r,
    unset options fall back to the scenario, and full-D means r = 0."""
    if r is not None:
        kind = "D_r"
    kind = kind or scn.contour_kind
    r = scn.policy.r if r is None else r
    R = scn.policy.R if R is None else R
    return _default_contour(netN.gamma, agents, kind, 0.0 if kind == "full-D" else r, R,
                            density, pade_order, extra=[w for _, w in markers])


@click.group(cls=_Cli)
def main():
    """Scalable Nyquist stability analysis for Laplacian-coupled agents."""


@main.command()
@click.argument("scenario_path", type=str)
@click.option("--check", "check_name",
              type=click.Choice(["theorem1", "fov", "decentralized", "lossy"]),
              default="fov", show_default=True)
@click.option("--contour-kind", type=click.Choice(["full-D", "D_r"]), default=None)
@click.option("--contour-r", type=_Omega(), default=None,
              help="D_r radius [rad/s]; accepts 0.37*2pi")
@click.option("--contour-R", "contour_R", type=float, default=None)
@click.option("--density", type=int, default=None, help="samples per decade")
@click.option("--tau-max", type=float, default=None, help="--check decentralized only")
@click.option("--hyperplane", type=_Hyperplane(), default=None, help="--check decentralized only")
@click.option("--pade-order", type=click.IntRange(1, 5), default=3, show_default=True)
@click.option("--epsilon", type=float, default=0.01, show_default=True,
              help="Laplacian shift for --check lossy")
@click.option("--out-dir", type=str, default="out", show_default=True)
def analyze(scenario_path, check_name, contour_kind, contour_r, contour_R,
            density, tau_max, hyperplane, pade_order, epsilon, out_dir):
    """Run a stability check on a scenario and emit report + loci CSV."""
    # options the check would not read are refused, not dropped
    if check_name == "decentralized":
        unread = ["--contour-kind full-D"] if contour_kind == "full-D" else []
    else:
        unread = [o for o, v in (("--tau-max", tau_max), ("--hyperplane", hyperplane)) if v is not None]
    if unread:
        raise click.UsageError(f"--check {check_name} does not read {' and '.join(unread)}")
    with _input_errors():
        scn, netN, agents, markers = _load(scenario_path)
        dens = scn.contour_density if density is None else density

        per_agent = None
        if check_name == "decentralized":
            # the scenario's policy, with the options given replacing its fields
            given = {"r": contour_r, "R": contour_R, "tau_max": tau_max}
            if hyperplane is not None:
                given["hyperplane_point"], given["hyperplane_normal"] = hyperplane
            policy = replace(scn.policy, **{k: v for k, v in given.items() if v is not None})
            per_agent = [
                decentralized_check(a, float(g), policy, density=dens,
                                    pade_order=pade_order)
                for a, g in zip(agents, netN.gamma)
            ]
            results = [v.result for v in per_agent]
            overall = ("unstable" if "unstable" in results
                       else "inconclusive" if "inconclusive" in results
                       else "stable")
            violations = tuple(
                viol for v in per_agent for viol in v.violated_conditions
            )
            verdict = Verdict(
                result=overall,
                violated_conditions=violations,
                diagnostics={"check": "decentralized",
                             "per_agent": [v.result for v in per_agent]},
            )
            contour = _resolve_contour(scn, netN, agents, "D_r", policy.r,
                                       policy.R, dens, pade_order, markers)
        else:
            contour = _resolve_contour(scn, netN, agents, contour_kind,
                                       contour_r, contour_R, dens, pade_order,
                                       markers)
            if check_name == "theorem1":
                verdict = theorem1_check(netN, agents, contour,
                                         pade_order=pade_order)
            elif check_name == "lossy":
                verdict = lossy_exponential_check(netN, agents, epsilon,
                                                  contour, pade_order=pade_order)
            else:
                verdict = fov_check(netN, agents, contour, pade_order=pade_order)

        sweep = verdict.sweep or eigenloci_sweep(netN, agents, contour)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_loci_csv(out / "loci.csv", sweep, markers=markers)
        payload = {
            "scenario": scn.name,
            "check": check_name,
            "parameters": {
                "contour_kind": contour.kind,
                "contour_r_rad_s": contour.inner_radius,
                "contour_R_rad_s": contour.outer_radius,
                "density": dens,
                "pade_order": pade_order,
            },
            **verdict.to_json_dict(),
        }
        if per_agent is not None:
            payload["per_agent"] = [
                {"bus": scn.bus_ids[i], **v.to_json_dict(),
                 **{key: v.diagnostics.get(key) for key in _AGENT_DIAGNOSTICS}}
                for i, v in enumerate(per_agent)
            ]
        _write_report(out, payload)
        _echo_verdict(f"{scn.name} [{check_name}]", verdict)
    sys.exit(_VERDICT_EXIT[verdict.result])


@main.command()
@click.argument("scenario_path", type=str)
@click.option("--dt", type=float, default=None,
              help="time grid step [s]; traces are recorded every "
                   "record_decimation steps. It is the integration step "
                   "only with --rate-limiter.")
@click.option("--t-end", type=float, default=None)
@click.option("--pade-order", type=click.IntRange(1, 5), default=3, show_default=True)
@click.option("--rate-limiter/--no-rate-limiter", default=False,
              help="clamp each hydro servo's power rate to its scenario "
                   "bound: rate_limit_pu_s (default 0.1) x P_gen_MW, in MW/s "
                   "(demo only)")
@click.option("--pulse-duration", type=float, default=None,
              help="override disturbance duration [s]")
@click.option("--out-dir", type=str, default="out", show_default=True)
def simulate(scenario_path, dt, t_end, pade_order, rate_limiter,
             pulse_duration, out_dir):
    """Simulate the scenario's disturbance and emit traces CSV + summary."""
    out = Path(out_dir)
    with _input_errors():
        scn = load_scenario(scenario_path)
        model = realize_state_space(scn.network, list(scn.agents),
                                    pade_order=pade_order)
        pulses = list(scn.disturbance)
        if pulse_duration is not None:
            pulses = [
                type(p)(p.bus, p.amplitude_mw, p.t_start_s,
                        p.t_start_s + pulse_duration)
                for p in pulses
            ]
        try:
            result = run_simulation(
                model,
                pulses,
                t_end=t_end if t_end is not None else scn.t_end_s,
                dt=dt if dt is not None else scn.dt_s,
                rate_limits_mw_per_s=scn.hydro_rate_limits_mw_per_s if rate_limiter else None,
                record_decimation=scn.record_decimation,
            )
        except DivergenceError as exc:
            out.mkdir(parents=True, exist_ok=True)
            summary = {"scenario": scn.name, "diverged_at_s": exc.t}
            (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
            click.echo(f"diverged at t = {exc.t:.3f} s", err=True)
            sys.exit(EXIT_DIVERGED)

        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "traces.csv"
        _write_traces_csv(csv_path, scn.bus_ids, result)
        summary = {"scenario": scn.name, **result.summary_dict()}
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    click.echo(f"traces: {csv_path}")
    click.echo(f"summary: {out / 'summary.json'}")
    click.echo(
        f"settling {summary['settling_value_hz']:.4f} Hz, peak "
        f"{summary['peak_deviation_hz']:.4f} Hz"
    )
    sys.exit(EXIT_STABLE)


@main.command("export-loci")
@click.argument("scenario_path", type=str)
@click.option("--contour-kind", type=click.Choice(["full-D", "D_r"]), default=None)
@click.option("--contour-r", type=_Omega(), default=None,
              help="accepts 0.75 or 0.37*2pi")
@click.option("--contour-R", "contour_R", type=float, default=None)
@click.option("--density", type=int, default=None)
@click.option("--pade-order", type=click.IntRange(1, 5), default=3, show_default=True)
@click.option("--out-dir", type=str, default="out", show_default=True)
def export_loci(scenario_path, contour_kind, contour_r, contour_R, density,
                pade_order, out_dir):
    """Emit vertex/eigenloci trajectories as CSV and an SVG quick-look."""
    with _input_errors():
        scn, netN, agents, markers = _load(scenario_path)
        contour = _resolve_contour(
            scn, netN, agents, contour_kind, contour_r, contour_R,
            scn.contour_density if density is None else density, pade_order,
            markers,
        )
        sweep = eigenloci_sweep(netN, agents, contour)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_loci_csv(out / "loci.csv", sweep, markers=markers)
        _write_loci_svg(out / "loci.svg", sweep, policy=scn.policy,
                        markers=markers)
    sys.exit(EXIT_STABLE)


if __name__ == "__main__":
    main()
