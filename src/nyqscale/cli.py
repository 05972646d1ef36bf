"""Command-line front end: analyze / simulate / export-loci.

Exit codes: 0 stable, 1 unstable, 2 inconclusive, 3 input or configuration
error, 4 simulation divergence. Reports are JSON, trajectories CSV, plots
SVG polylines -- all data-first, meant for batch runs.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .errors import DivergenceError, NyqscaleError
from .network import normalize
# default_outer_radius and make_contour are unused here but stay module
# attributes: perfbench/spans.py wraps cli's copies of them by name
from .nyquist import (
    DecentralizedPolicy,
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
from .scenario import Scenario, load_scenario
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


# rows formatted per block: larger blocks are no faster and raise peak RSS
_CSV_BLOCK_ROWS = 32


def _write_csv(path: Path, header, columns, formats, tags=None):
    """Write ``columns`` (equal-length 1-D arrays, or 2-D blocks of them)
    side by side, each cell printf-formatted by its entry in ``formats``;
    a complex column gives two cells, re then im. The text column ``tags``
    goes last if given. Line ends and the header are csv.writer's. Rows are
    formatted a block at a time with one % per row."""
    fmt = ",".join(formats) + (",%s" if tags is not None else "") + "\r\n"
    n_rows = len(columns[0])
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n_rows)
            parts = []
            for col in columns:
                part = np.asarray(col[lo:hi]).reshape(hi - lo, -1)
                if np.iscomplexobj(part):
                    part = np.stack([part.real, part.imag], axis=-1).reshape(hi - lo, -1)
                parts.append(part)
            rows = np.hstack(parts).tolist()
            if tags is not None:
                rows = [[*row, tag] for row, tag in zip(rows, tags[lo:hi])]
            fh.writelines(fmt % tuple(row) for row in rows)


def _write_loci_csv(path: Path, sweep: LociSweep, markers=()):
    """CSV contract: omega_rad_s, branch_k_re/im, vertex_i_re/im [, marker]."""
    omega = sweep.s_full.imag
    br = sweep.branches_full
    vx = sweep.vertices_full
    header = ["omega_rad_s"]
    for k in range(br.shape[1]):
        header += [f"branch_{k + 1}_re", f"branch_{k + 1}_im"]
    for i in range(vx.shape[1]):
        header += [f"vertex_{i + 1}_re", f"vertex_{i + 1}_im"]
    tags = None
    if markers:
        header.append("marker")
        tags = [""] * len(omega)
        for name, w_mark in markers:
            for row in np.flatnonzero(np.abs(omega - w_mark) <= 1e-9 * max(1.0, w_mark)):
                tags[row] = name
    _write_csv(path, header, [omega, br, vx], ["%.12g"] * (len(header) - bool(markers)),
               tags)
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


def _write_loci_svg(path: Path, sweep: LociSweep, policy=None, markers=()):
    """Static SVG polyline plot of vertices and branches, clipped to a box
    around the critical point."""
    half = 6.0
    size = 640
    scale = size / (2 * half)

    def to_px(z):
        return ((z.real + half) * scale, (half - z.imag) * scale)

    def polyline(zs, color, dash=""):
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

    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f"]
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        polyline([complex(-half, 0), complex(half, 0)], "#cccccc"),
        polyline([complex(0, -half), complex(0, half)], "#cccccc"),
    ]
    for i in range(sweep.vertices_full.shape[1]):
        body.append(
            polyline(sweep.vertices_full[:, i], palette[i % len(palette)])
        )
    for k in range(sweep.branches_full.shape[1]):
        body.append(
            polyline(
                sweep.branches_full[:, k],
                palette[(k + sweep.vertices_full.shape[1]) % len(palette)],
                dash='stroke-dasharray="4 3"',
            )
        )
    if policy is not None:
        n = policy.hyperplane_normal
        p0 = policy.hyperplane_point
        tangent = complex(-n.imag, n.real)
        body.append(
            polyline([p0 - 20 * tangent, p0 + 20 * tangent], "#444444",
                     'stroke-dasharray="6 4"')
        )
    mx, my = to_px(complex(-1.0, 0.0))
    body.append(
        f'<path d="M{mx - 5},{my - 5} L{mx + 5},{my + 5} M{mx - 5},{my + 5} '
        f'L{mx + 5},{my - 5}" stroke="black" stroke-width="1.5"/>'
    )
    for name, w_mark in markers:
        idx = int(np.argmin(np.abs(sweep.s_full.imag - w_mark)))
        for i in range(sweep.vertices_full.shape[1]):
            z = sweep.vertices_full[idx, i]
            if abs(z.real) <= half and abs(z.imag) <= half:
                px, py = to_px(z)
                body.append(
                    f'<path d="M{px - 4},{py - 4} L{px + 4},{py + 4} '
                    f'M{px - 4},{py + 4} L{px + 4},{py - 4}" stroke="#d62728" '
                    f'stroke-width="1.2"/>'
                )
    body.append("</svg>")
    path.write_text("\n".join(body), encoding="utf-8")
    click.echo(f"svg: {path}")


def _scenario_policy(scn: Scenario, contour_r, contour_R, tau_max, hyperplane):
    policy = scn.policy
    point, normal = (-0.9 + 0j, 1.0 + 0j)
    tau = 0.1
    r = scn.contour_r or 0.75
    R = scn.contour_R
    if policy is not None:
        point, normal = policy.hyperplane_point, policy.hyperplane_normal
        tau = policy.tau_max
        r = policy.r
        R = policy.R if policy.R is not None else R
    if hyperplane is not None:
        point, normal = hyperplane
    if tau_max is not None:
        tau = tau_max
    if contour_r is not None:
        r = contour_r
    if contour_R is not None:
        R = contour_R
    return DecentralizedPolicy(
        r=r, hyperplane_point=point, hyperplane_normal=normal, tau_max=tau, R=R
    )


def _marker_list(scn: Scenario):
    taus = sorted(
        {f.delay_s for a in scn.agents for f in a.f_parts if f.delay_s > 0}
    )
    return [("pi_over_2tau", math.pi / (2 * t)) for t in taus]


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
@click.option("--tau-max", type=float, default=None)
@click.option("--hyperplane", type=_Hyperplane(), default=None)
@click.option("--pade-order", type=int, default=3, show_default=True)
@click.option("--epsilon", type=float, default=0.01, show_default=True,
              help="Laplacian shift for --check lossy")
@click.option("--alpha-fallback", is_flag=True, default=False,
              help="also run the heuristic sampled-alpha winding fallback")
@click.option("--out-dir", type=str, default="out", show_default=True)
def analyze(scenario_path, check_name, contour_kind, contour_r, contour_R,
            density, tau_max, hyperplane, pade_order, epsilon, alpha_fallback,
            out_dir):
    """Run a stability check on a scenario and emit report + loci CSV."""
    try:
        scn = load_scenario(scenario_path)
        dens = scn.contour_density if density is None else density
        netN = normalize(scn.network)
        agents = list(scn.agents)

        per_agent = None
        if check_name == "decentralized":
            policy = _scenario_policy(scn, contour_r, contour_R, tau_max, hyperplane)
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
            contour = _default_contour(
                netN, agents, "D_r", policy.r, policy.R, dens, pade_order,
                extra=[w for _, w in _marker_list(scn)],
            )
        else:
            kind = contour_kind or scn.contour_kind
            if contour_r is not None:
                kind = "D_r"
            r = contour_r if contour_r is not None else scn.contour_r
            R = contour_R if contour_R is not None else scn.contour_R
            if kind == "full-D":
                r = 0.0
            contour = _default_contour(
                netN, agents, kind, r, R, dens, pade_order,
                extra=[w for _, w in _marker_list(scn)],
            )
            if check_name == "theorem1":
                verdict = theorem1_check(netN, agents, contour,
                                         pade_order=pade_order)
            elif check_name == "lossy":
                verdict = lossy_exponential_check(netN, agents, epsilon,
                                                  contour, pade_order=pade_order)
            else:
                verdict = fov_check(netN, agents, contour,
                                    alpha_fallback=alpha_fallback,
                                    pade_order=pade_order)

        sweep = verdict.sweep or eigenloci_sweep(netN, agents, contour)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_loci_csv(out / "loci.csv", sweep, markers=_marker_list(scn))
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
    except NyqscaleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    sys.exit(_VERDICT_EXIT[verdict.result])


@main.command()
@click.argument("scenario_path", type=str)
@click.option("--dt", type=float, default=None,
              help="time grid step [s]; traces are recorded every "
                   "record_decimation steps. It is the integration step "
                   "only with --rate-limiter.")
@click.option("--t-end", type=float, default=None)
@click.option("--pade-order", type=int, default=3, show_default=True)
@click.option("--rate-limiter/--no-rate-limiter", default=False,
              help="apply the hydro servo +-0.1 pu/s clamp (demo only)")
@click.option("--pulse-duration", type=float, default=None,
              help="override disturbance duration [s]")
@click.option("--out-dir", type=str, default="out", show_default=True)
def simulate(scenario_path, dt, t_end, pade_order, rate_limiter,
             pulse_duration, out_dir):
    """Simulate the scenario's disturbance and emit traces CSV + summary."""
    out = Path(out_dir)
    try:
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
        result = run_simulation(
            model,
            pulses,
            t_end=t_end if t_end is not None else scn.t_end_s,
            dt=dt if dt is not None else scn.dt_s,
            rate_limiter=rate_limiter,
            rate_limits_mw_per_s=scn.hydro_rate_limits_mw_per_s,
            record_decimation=scn.record_decimation,
        )
    except DivergenceError as exc:
        out.mkdir(parents=True, exist_ok=True)
        summary = {"scenario": scenario_path, "diverged_at_s": exc.t}
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        click.echo(f"diverged at t = {exc.t:.3f} s", err=True)
        sys.exit(EXIT_DIVERGED)
    except NyqscaleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)

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
@click.option("--pade-order", type=int, default=3, show_default=True)
@click.option("--out-dir", type=str, default="out", show_default=True)
def export_loci(scenario_path, contour_kind, contour_r, contour_R, density,
                pade_order, out_dir):
    """Emit vertex/eigenloci trajectories as CSV and an SVG quick-look."""
    try:
        scn = load_scenario(scenario_path)
        if not scn.agents:
            raise NyqscaleError("scenario has no agents")
        netN = normalize(scn.network)
        agents = list(scn.agents)
        kind = contour_kind or scn.contour_kind
        r = contour_r
        if r is not None:
            kind = "D_r"
        else:
            r = scn.contour_r
        R = contour_R if contour_R is not None else scn.contour_R
        markers = _marker_list(scn)
        contour = _default_contour(
            netN, agents, kind, 0.0 if kind == "full-D" else r, R,
            scn.contour_density if density is None else density, pade_order,
            extra=[w for _, w in markers],
        )
        sweep = eigenloci_sweep(netN, agents, contour)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_loci_csv(out / "loci.csv", sweep, markers=markers)
        _write_loci_svg(out / "loci.svg", sweep, policy=scn.policy,
                        markers=markers)
    except NyqscaleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    sys.exit(EXIT_STABLE)


if __name__ == "__main__":
    main()
