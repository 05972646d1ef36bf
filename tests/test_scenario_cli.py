"""Scenario ingestion, round-trips, CLI exit codes and artifacts."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from nyqscale import cli
from nyqscale.cli import _svg_line, _svg_polyline, _write_loci_csv, _write_traces_csv, main
from nyqscale.errors import ScenarioError
from nyqscale.lti import PADE_ORDER
from nyqscale.scenario import bundled_scenario_path, load_scenario, loads_scenario
from nyqscale.simkit import SimulationResult

from util import diverging_scenario_doc, svg_polyline_loop

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def loads_path():
    return bundled_scenario_path("n5_hydro_loads")


@pytest.fixture(scope="module")
def d0_path():
    return bundled_scenario_path("n5_hydro_d0")


@pytest.fixture(scope="module")
def wind_path():
    return bundled_scenario_path("n5_hydro_wind")


# ---------------------------------------------------------------- scenario
def test_bundled_scenarios_parse(loads_path, d0_path, wind_path):
    for p in (loads_path, d0_path, wind_path):
        scn = load_scenario(p)
        assert scn.n == 5
        # gamma/2pi must reproduce the published incidence parameters
        gamma_over_2pi = 2 * np.diag(scn.network.laplacian) / (2 * math.pi) / 1000
        assert np.allclose(gamma_over_2pi, [6.2, 10.2, 5.2, 7.5, 3.0], rtol=1e-12)


def test_scenario_inertia_conversion(loads_path):
    scn = load_scenario(loads_path)
    assert [a.inertia for a in scn.agents] == pytest.approx(
        [1360.0, 900.0, 300.0, 1320.0, 520.0]
    )
    assert sum(a.inertia for a in scn.agents) == pytest.approx(4400.0)


def test_scenario_round_trip_idempotent(loads_path):
    scn1 = load_scenario(loads_path)
    doc = scn1.to_json_dict()
    scn2 = loads_scenario(json.loads(json.dumps(doc)))
    assert scn2.to_json_dict() == doc
    assert np.allclose(scn1.network.laplacian, scn2.network.laplacian)


def test_scenario_schema_violation_paths(tmp_path):
    bad = {"name": "x", "network": {"buses": [], "lines": []}, "agents": {"buses": []}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert any("$.network.buses" in v for v in err.value.violations)


def test_scenario_share_sum_enforced(loads_path, tmp_path):
    doc = load_scenario(loads_path).to_json_dict()
    doc["agents"]["buses"][0]["hydro"]["fcr_share"] = 0.5
    p = tmp_path / "shares.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert any("FCR shares" in v for v in err.value.violations)


def test_scenario_unknown_line_bus(loads_path, tmp_path):
    doc = load_scenario(loads_path).to_json_dict()
    doc["network"]["lines"][0]["from"] = 99
    p = tmp_path / "badline.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert any("unknown bus id 99" in v for v in err.value.violations)


def test_scenario_unknown_algebraic_bus():
    doc = load_scenario(bundled_scenario_path("n5_hydro_loads")).to_json_dict()
    doc["network"]["algebraic_buses"] = [999]
    with pytest.raises(ScenarioError) as err:
        loads_scenario(doc)
    assert err.value.violations == ["$.network.algebraic_buses[0]: unknown bus id 999"]


@pytest.mark.parametrize("argv", [["analyze", "--check", "theorem1"],
                                  ["simulate", "--t-end", "2"]])
def test_scenario_duplicate_agent_bus_exit_3(tmp_path, argv):
    # a second row for bus 4 must not silently replace the first one
    doc = load_scenario(bundled_scenario_path("n5_hydro_loads")).to_json_dict()
    row = next(a for a in doc["agents"]["buses"] if a["bus"] == 4)
    doc["agents"]["buses"].append(dict(row, W_kin_GWs=99.0))
    with pytest.raises(ScenarioError) as err:
        loads_scenario(doc)
    assert err.value.violations == ["$.agents.buses: duplicate bus id(s) [4]"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, [argv[0], str(path), *argv[1:], "--out-dir", str(tmp_path)])
    assert res.exit_code == 3, res.output


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the stressed angles make "
                   "the Laplacian indefinite, and the connectivity test reads mu_2 < 0 as "
                   "a disconnected graph (exit 3); the oracle has a real RHP eigenvalue")
def test_cli_indefinite_stressed_operating_point_exit_1(tmp_path):
    doc = load_scenario(bundled_scenario_path("n5_hydro_loads")).to_json_dict()
    doc["network"]["operating_point"]["angles_rad"] = [0.9, 0.0, 0.0, 2.2, 2.2]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["analyze", str(path), "--check", "theorem1",
                                    "--out-dir", str(tmp_path)])
    assert res.exit_code == 1, res.output


def test_scenario_missing_file_raises():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/path.json")


# ---------------------------------------------------------------- cli
def test_cli_missing_file_exit_3(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main, ["analyze", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
    )
    assert res.exit_code == 3


def test_cli_analyze_fov_d0_unstable_exit_1(d0_path, tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "analyze", str(d0_path),
            "--check", "fov",
            "--contour-kind", "full-D",
            "--density", "120",
            "--out-dir", str(tmp_path),
        ],
    )
    assert res.exit_code == 1, res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"] == "unstable"
    conds = [v["condition"] for v in report["violations"]]
    assert "pole-gate" in conds or "fov-ray" in conds
    assert (tmp_path / "loci.csv").exists()


def test_cli_analyze_decentralized_wind_stable_exit_0(wind_path, tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "analyze", str(wind_path),
            "--check", "decentralized",
            "--contour-r", "0.75",
            "--tau-max", "0.1",
            "--density", "120",
            "--out-dir", str(tmp_path),
        ],
    )
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"] == "stable"
    assert len(report["per_agent"]) == 5
    # each agent's decentralized diagnostics are in the report
    for entry in report["per_agent"]:
        assert entry["pi_over_2tau"] == pytest.approx(math.pi / 0.2, rel=1e-12)
        assert entry["min_hyperplane_margin"] > 0.0
        for c in entry["vertex_axis_crossings"]:
            assert set(c) == {"omega_rad_s", "re"}
    wind_bus = report["per_agent"][0]["vertex_axis_crossings"]
    assert wind_bus and wind_bus[0]["omega_rad_s"] > 0.75
    # loci CSV honors the column contract, with the pi/(2 tau) marker row
    rows = (tmp_path / "loci.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[0] == "omega_rad_s"
    assert "branch_1_re" in header and "vertex_5_im" in header
    assert header[-1] == "marker"
    marked = [r for r in rows[1:] if r.endswith("pi_over_2tau")]
    assert len(marked) == 1, "no marker row at pi/(2 tau)"
    assert float(marked[0].split(",")[0]) == pytest.approx(math.pi / 0.2, rel=1e-9)


BUNDLED = ["n5_hydro_loads", "n5_hydro_d0", "n5_hydro_wind"]


def run_cli(tmp_path, name, *argv):
    """Run the CLI with ``--out-dir tmp_path/name``; return that directory."""
    out = tmp_path / name
    res = CliRunner().invoke(main, [*argv, "--out-dir", str(out)])
    assert res.exit_code in (0, 1, 2), res.output
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_cli_default_policy_equals_the_bundled_policy(name, tmp_path):
    # every bundled policy block is the default one, so a scenario without
    # hyperplane and tau_max_s (the defaults fill them in) analyzes the same
    path = bundled_scenario_path(name)
    doc = json.loads(path.read_text())
    del doc["policy"]["hyperplane"], doc["policy"]["tau_max_s"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    assert load_scenario(bare).policy == load_scenario(path).policy
    outs = [run_cli(tmp_path, str(i), "analyze", str(p), "--check", "decentralized")
            for i, p in enumerate((path, bare))]
    for fn in ("report.json", "loci.csv"):
        assert (outs[0] / fn).read_bytes() == (outs[1] / fn).read_bytes(), fn


def test_cli_policy_options_replace_the_scenario_policy(wind_path, tmp_path):
    def per_agent(tag, *options):
        out = run_cli(tmp_path, tag, "analyze", str(wind_path),
                      "--check", "decentralized", *options)
        return json.loads((out / "report.json").read_text())["per_agent"]

    base = per_agent("base")
    # the hyperplane point moves from -0.9 to -0.5 along its unit normal
    shifted = per_agent("shifted", "--hyperplane=-0.5,0,1,0")
    slow = per_agent("slow", "--tau-max", "0.2")
    assert len(base) == len(shifted) == len(slow) == 5
    for b, h, t in zip(base, shifted, slow):
        assert h["min_hyperplane_margin"] == pytest.approx(
            b["min_hyperplane_margin"] - 0.4, abs=1e-12)
        assert t["pi_over_2tau"] == pytest.approx(math.pi / 0.4, rel=1e-12)


@pytest.mark.parametrize("argv, option", [
    (["--check", "theorem1", "--tau-max", "0.2"], "--tau-max"),
    (["--check", "fov", "--hyperplane=-5,0,1,0"], "--hyperplane"),
    (["--check", "decentralized", "--contour-kind", "full-D"], "--contour-kind full-D"),
    (["--check", "theorem1", "--contour-kind", "full-D", "--contour-r", "1"], "--contour-r"),
    (["--check", "theorem1", "--epsilon", "5"], "--epsilon"),
])
def test_cli_analyze_refuses_an_option_its_check_does_not_read(wind_path, tmp_path, argv,
                                                               option):
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["analyze", str(wind_path), *argv, "--out-dir", str(out)])
    assert res.exit_code == 3, res.output
    assert f"does not read {option}" in res.output
    assert not out.exists()


def test_cli_export_loci_refuses_contour_r_beside_full_d(wind_path, tmp_path):
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["export-loci", str(wind_path), "--contour-kind", "full-D",
                                    "--contour-r", "1", "--out-dir", str(out)])
    assert res.exit_code == 3, res.output
    assert "--contour-kind full-D does not read --contour-r" in res.output
    assert not out.exists()


def test_cli_decentralized_accepts_its_own_contour_kind(wind_path, tmp_path):
    plain = run_cli(tmp_path, "plain", "analyze", str(wind_path), "--check", "decentralized")
    named = run_cli(tmp_path, "named", "analyze", str(wind_path), "--check", "decentralized",
                    "--contour-kind", "D_r")
    for name in ("report.json", "loci.csv"):
        assert (plain / name).read_bytes() == (named / name).read_bytes(), name


def wind_policy_copy(wind_path, tmp_path, **policy):
    """n5_hydro_wind with its policy fields updated by ``policy``; a field
    given as None is deleted."""
    doc = json.loads(wind_path.read_text())
    for key, value in policy.items():
        if value is None:
            del doc["policy"][key]
        else:
            doc["policy"][key] = value
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_file_hyperplane_without_tau_max_exit_3(wind_path, tmp_path):
    # the file's hyperplane is the policy's even without tau_max_s, and one
    # through -5 admits -1 (DECISIONS.md D2)
    path = wind_policy_copy(wind_path, tmp_path, tau_max_s=None,
                            hyperplane={"point": [-5, 0], "normal": [1, 0]})
    res = CliRunner().invoke(main, ["analyze", str(path), "--check", "decentralized",
                                    "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == 3, res.output
    assert "hyperplane must leave all of (-inf, -1] inadmissible" in res.output


def test_cli_file_tau_max_without_hyperplane_sets_pi_over_2tau(wind_path, tmp_path):
    path = wind_policy_copy(wind_path, tmp_path, tau_max_s=0.001, hyperplane=None)
    out = run_cli(tmp_path, "out", "analyze", str(path), "--check", "decentralized")
    per_agent = json.loads((out / "report.json").read_text())["per_agent"]
    assert [a["pi_over_2tau"] for a in per_agent] == [math.pi / 0.002] * 5


def test_cli_file_d_r_without_radius_takes_the_policy_radius(wind_path, tmp_path):
    # the policy's default r = 0.75 rad/s is the D_r analysis contour's
    # radius too, as n5_hydro_wind gives it explicitly
    path = wind_policy_copy(wind_path, tmp_path, contour={"kind": "D_r", "density": 200})
    copy = run_cli(tmp_path, "copy", "analyze", str(path), "--check", "theorem1")
    bundled = run_cli(tmp_path, "bundled", "analyze", str(wind_path), "--check", "theorem1")
    for name in ("report.json", "loci.csv"):
        assert (copy / name).read_bytes() == (bundled / name).read_bytes(), name


@pytest.mark.parametrize("name", BUNDLED)
def test_cli_export_loci_csv_equals_analyze_theorem1(name, tmp_path):
    path = str(bundled_scenario_path(name))
    exported = run_cli(tmp_path, "export", "export-loci", path)
    analyzed = run_cli(tmp_path, "analyze", "analyze", path, "--check", "theorem1")
    assert (exported / "loci.csv").read_bytes() == (analyzed / "loci.csv").read_bytes()


def run_fresh_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no SciPy module at all: importing scipy.linalg alone costs about 0.3 s;
    # no jsonschema either: scenario files are checked without it; and no
    # concurrent.futures, which pulls in logging: nothing in nyqscale uses it
    res = run_fresh_python(
        "import sys, nyqscale.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'jsonschema') or m == 'concurrent.futures'))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_sweeps_run_in_the_calling_thread_and_load_no_thread_pool():
    # a small sweep and one of at least 256 samples: neither starts a thread
    # or imports concurrent.futures (and with it logging)
    res = run_fresh_python(
        "import sys, threading, nyqscale.cli\n"
        "from nyqscale import nyquist\n"
        "from nyqscale.network import normalize\n"
        "from nyqscale.scenario import bundled_scenario_path, load_scenario\n"
        "scn = load_scenario(bundled_scenario_path('n5_hydro_wind'))\n"
        "netN, agents = normalize(scn.network), list(scn.agents)\n"
        "for R in (5.0, 50.0):\n"
        "    contour = nyquist.make_contour('D_r', 0.5, R, density=100)\n"
        "    m = len(nyquist.eigenloci_sweep(netN, agents, contour).s_upper)\n"
        "    print(m >= 256, [name in sys.modules for name in ('concurrent.futures', 'logging')],\n"
        "          threading.active_count())\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False [False, False] 1", "True [False, False] 1"]


def test_cli_analyze_and_export_loci_leave_scipy_linalg_unloaded(wind_path, d0_path, tmp_path):
    calls = [["analyze", str(wind_path), "--check", check, "--out-dir", str(tmp_path / check)]
             for check in ("theorem1", "fov", "decentralized", "lossy")]
    calls.append(["export-loci", str(wind_path), "--out-dir", str(tmp_path / "loci")])
    # n5_hydro_d0's full-D count has RHP agent poles to take moments around
    calls += [["analyze", str(d0_path), "--check", check,
               "--out-dir", str(tmp_path / f"d0-{check}")] for check in ("theorem1", "lossy")]
    res = run_fresh_python(
        "import sys\n"
        "from nyqscale.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    try:\n"
        "        main(argv, standalone_mode=False)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, 1), (argv, exc.code)\n"
        "print('scipy.linalg' in sys.modules)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "loci" / "loci.svg").exists()


def test_cli_zero_inertia_bus_names_the_agent_without_a_closure_radius(wind_path, tmp_path):
    # bus 1 with no inertia and D = 0 keeps |gamma*g| from decaying
    doc = json.loads(Path(wind_path).read_text(encoding="utf-8"))
    doc["agents"]["buses"][0].update(W_kin_GWs=0.0, D_MW_per_Hz=0.0)
    path = tmp_path / "zero_inertia.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    res = CliRunner().invoke(main, ["analyze", str(path), "--check", "theorem1",
                                    "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == 3, res.output
    assert "could not find a closure radius" in res.output
    assert re.search(r"agent 1 has \|gamma\*g\| = [0-9.e+]+ at R = ", res.output), res.output


def test_cli_analyze_fov_paper_radius_passes(loads_path, tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "analyze", str(loads_path),
            "--check", "fov",
            "--contour-r", "0.45*2pi",
            "--density", "120",
            "--out-dir", str(tmp_path),
        ],
    )
    assert res.exit_code == 0, res.output


def test_cli_simulate_summary_and_traces(loads_path, tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "simulate", str(loads_path),
            "--t-end", "60",
            "--out-dir", str(tmp_path),
        ],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["settling_value_hz"] == pytest.approx(-0.4, rel=0.01)
    lines = (tmp_path / "traces.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "time_s"
    assert "f_bus1_Hz" in header and "tie_bus5_MW" in header
    assert "p_hydro_bus1" in header
    assert "omega_avg_Hz" in header and "omega_coi_Hz" in header
    assert len(lines) > 100


def test_cli_simulate_dt_too_large_exit_3(loads_path, tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["simulate", str(loads_path), "--dt", "0.5", "--t-end", "1", "--rate-limiter",
         "--out-dir", str(tmp_path)],
    )
    assert res.exit_code == 3


def test_cli_simulate_zero_disturbance_flat(loads_path, tmp_path):
    doc = load_scenario(loads_path).to_json_dict()
    doc.pop("disturbance")
    p = tmp_path / "quiet.json"
    p.write_text(json.dumps(doc))
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["simulate", str(p), "--t-end", "2", "--out-dir", str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["peak_deviation_hz"] == 0.0


def test_cli_simulate_rate_limiter_holds_hydro_rates_at_bound(loads_path, tmp_path):
    doc = load_scenario(loads_path).to_json_dict()
    bounds = {}
    for bus in doc["agents"]["buses"]:
        if "hydro" in bus:
            bus["hydro"]["rate_limit_pu_s"] = 0.01
            bounds[f"p_hydro_bus{bus['bus']}"] = 0.01 * bus["hydro"]["P_gen_MW"]
    p = tmp_path / "clamped.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = CliRunner().invoke(
        main, ["simulate", str(p), "--rate-limiter", "--out-dir", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "summary.json").is_file()
    with (out / "traces.csv").open() as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1)
    assert sorted(c for c in header if c.startswith("p_hydro_bus")) == sorted(bounds)
    for name, bound in bounds.items():
        col = data[:, header.index(name)]
        peak = float(np.abs(np.diff(col) / np.diff(data[:, 0])).max())
        assert bound * (1 - 1e-3) <= peak <= bound * (1 + 1e-3), name


def test_cli_export_loci_marker_present(wind_path, tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "export-loci", str(wind_path),
            "--contour-r", "0.75",
            "--density", "120",
            "--out-dir", str(tmp_path),
        ],
    )
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "loci.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[-1] == "marker"
    marked = [r for r in rows[1:] if r.endswith("pi_over_2tau")]
    assert marked, "no marker row at pi/(2 tau)"
    omega = float(marked[0].split(",")[0])
    assert omega == pytest.approx(math.pi / 0.2, rel=1e-9)
    svg = (tmp_path / "loci.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("name", BUNDLED)
def test_cli_export_loci_draws_the_policy_hyperplane(name, tmp_path):
    # line 14, after the two axes, five vertices and four branches: the
    # hyperplane Re z = -0.9 across the whole clip box |Re z|, |Im z| <= 9
    out = run_cli(tmp_path, "export", "export-loci", str(bundled_scenario_path(name)))
    line = (out / "loci.svg").read_text().splitlines()[13]
    assert line.count("<polyline") == 1 and 'stroke="#444444"' in line
    points = re.search(r'points="([^"]*)"', line).group(1).split()
    assert points == ["272.00,800.00", "272.00,-160.00"]


def test_cli_export_loci_empty_agents_exit_3(loads_path, tmp_path):
    doc = load_scenario(loads_path).to_json_dict()
    doc["agents"]["buses"] = []
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(doc))
    runner = CliRunner()
    res = runner.invoke(main, ["export-loci", str(p), "--out-dir", str(tmp_path)])
    assert res.exit_code == 3


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("simulate", "--dt", "abc"),
        ("simulate", "--dt", "nan"),
        ("simulate", "--dt", "-1e-3"),
        ("simulate", "--t-end", "abc"),
        ("simulate", "--t-end", "inf"),
        ("simulate", "--t-end", "0"),
        ("simulate", "--pade-order", "x"),
        ("simulate", "--pade-order", "0"),
        # analyze has no --pade-order: any value is refused as an unknown option
        ("analyze", "--pade-order", "x"),
        ("analyze", "--contour-r", "abc"),
        ("analyze", "--contour-r", "0.5*tau"),
        ("analyze", "--contour-r", "-1"),
        ("analyze", "--hyperplane", "1,2,3"),
        ("analyze", "--hyperplane", "a,b,c,d"),
        ("analyze", "--hyperplane", "0,0,0,0"),
        ("analyze", "--density", "abc"),
        ("analyze", "--density", "0"),
        ("analyze", "--density", "99"),
        ("export-loci", "--contour-r", "abc"),
        ("export-loci", "--density", "0"),
        # once an OverflowError in make_contour, or a LinAlgError in eigvals
        ("analyze", "--contour-R", "inf"),
        ("analyze --check theorem1", "--contour-R", "inf"),
        ("analyze --check decentralized", "--contour-R", "inf"),
        ("export-loci", "--contour-R", "inf"),
        ("analyze --check lossy", "--epsilon", "inf"),
        ("analyze --check lossy", "--epsilon", "1e308"),
    ],
)
def test_cli_malformed_option_exit_3(wind_path, tmp_path, command, option, value):
    command, *extra = command.split()
    argv = [command, str(wind_path), *extra, option, value, "--out-dir", str(tmp_path)]
    if command == "simulate":
        argv += ["--t-end", "1"] if option != "--t-end" else []
    if option == "--hyperplane":
        argv += ["--check", "decentralized"]
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 3, res.output


@pytest.mark.parametrize(
    "name, patch, argv",
    [
        ("n5_hydro_loads", None, ["simulate", "--pulse-duration", "-1"]),
        ("n5_hydro_loads", None, ["simulate", "--pulse-duration", "0"]),
        ("n5_hydro_loads", None, ["simulate", "--pulse-duration", "nan"]),
        ("n5_hydro_loads", ("disturbance", "duration_s", -1), ["simulate"]),
        ("n5_hydro_loads", ("disturbance", "duration_s", 0), ["simulate"]),
        ("n5_hydro_wind", None, ["analyze", "--check", "decentralized", "--tau-max", "nan"]),
        ("n5_hydro_wind", None,
         ["analyze", "--check", "decentralized", "--hyperplane", "nan,0,1,0"]),
        ("n5_hydro_wind", None,
         ["analyze", "--check", "decentralized", "--hyperplane", "-0.9,0,inf,0"]),
        ("n5_hydro_wind", ("policy", "hyperplane", "point", ["a", 0]),
         ["analyze", "--check", "decentralized"]),
        # the analysis commands have no --pade-order, so each value is refused
        ("n5_hydro_loads", None, ["analyze", "--pade-order", "-1"]),
        ("n5_hydro_loads", None, ["analyze", "--pade-order", "0"]),
        ("n5_hydro_loads", None, ["analyze", "--pade-order", "6"]),
        ("n5_hydro_loads", None, ["export-loci", "--pade-order", "0"]),
        ("n5_hydro_loads", None, ["simulate", "--pade-order", "-1"]),
        # hyperplanes that admit part of the ray (-inf, -1]
        ("n5_hydro_wind", None,
         ["analyze", "--check", "decentralized", "--hyperplane", "-5,0,1,0"]),
        ("n5_hydro_wind", None,
         ["analyze", "--check", "decentralized", "--hyperplane", "-0.9,0,0,1"]),
        # non-finite numbers, which json.loads accepts as NaN and Infinity
        ("n5_hydro_loads", ("network", "lines", 0, "b", math.inf), ["analyze"]),
        ("n5_hydro_loads", ("network", "lines", 0, "b", math.inf), ["simulate"]),
        ("n5_hydro_loads", ("agents", "buses", 0, "hydro", "T_y", math.nan), ["analyze"]),
        ("n5_hydro_loads", ("output", "dt_s", math.nan), ["analyze"]),
        # -1 is inadmissible, but the ray left of -2 is admissible
        ("n5_hydro_wind", None,
         ["analyze", "--check", "decentralized", "--hyperplane", "-2,0,-1,0"]),
        # a Kron-reduced bus that the network does not have
        ("n5_hydro_loads", ("network", "algebraic_buses", [999]), ["analyze"]),
        ("n5_hydro_loads", ("network", "algebraic_buses", [999]), ["simulate"]),
        # finite numbers that overflow to inf once scaled: 2000*pi*b, 2*W/f0
        ("n5_hydro_loads", ("network", "lines", 0, "b", 1e306), ["analyze"]),
        ("n5_hydro_loads", ("network", "lines", 0, "b", 1e306), ["simulate"]),
        ("n5_hydro_loads", ("agents", "buses", 0, "W_kin_GWs", 1e308), ["analyze"]),
        ("n5_hydro_loads", ("agents", "buses", 0, "W_kin_GWs", 1e308), ["simulate"]),
        # counts that overflow or that numpy cannot size: R/r, nodes, steps
        ("n5_hydro_wind", None, ["analyze", "--check", "theorem1", "--contour-r", "1e-320"]),
        ("n5_hydro_wind", None, ["export-loci", "--contour-r", "1e-320"]),
        ("n5_hydro_wind", ("policy", "contour", "r_rad_s", 5e-324),
         ["analyze", "--check", "theorem1"]),
        ("n5_hydro_wind", ("policy", "contour", "r_rad_s", 5e-324),
         ["analyze", "--check", "decentralized"]),
        ("n5_hydro_wind", ("policy", "contour", "density", 1e300),
         ["analyze", "--check", "theorem1"]),
        ("n5_hydro_wind", ("policy", "contour", "density", 1e300),
         ["analyze", "--check", "decentralized"]),
        ("n5_hydro_wind", None, ["simulate", "--dt", "1e-300", "--t-end", "1"]),
    ],
)
def test_cli_malformed_value_exit_3(tmp_path, name, patch, argv):
    # each of these once ran to a verdict, a flat trace or a traceback
    path = bundled_scenario_path(name)
    if patch is not None:
        doc = json.loads(Path(path).read_text())
        *keys, last, value = patch
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
    argv = [argv[0], str(path), *argv[1:], "--out-dir", str(tmp_path)]
    if argv[0] == "simulate" and "--t-end" not in argv:
        argv += ["--t-end", "2"]
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 3, res.output
    assert "Traceback" not in res.output
    # the count rows name the input that makes the count
    named = {"1e-320": "radius", "5e-324": "radius", "1e+300": "density", "1e-300": "dt"}
    for value in map(str, (*argv, *(patch or ()))):
        assert named.get(value, "") in res.output, res.output


@pytest.mark.parametrize("command", ["analyze --check theorem1", "export-loci"])
def test_analysis_commands_have_no_pade_order(wind_path, tmp_path, command):
    # the analysis counts poles at lti.PADE_ORDER alone; simulate keeps the option
    command, *extra = command.split()
    argv = [command, str(wind_path), *extra, "--out-dir", str(tmp_path)]
    res = CliRunner().invoke(main, argv + ["--pade-order", "3"])
    assert res.exit_code == 3 and "--pade-order" in res.output, res.output
    assert CliRunner().invoke(main, argv).exit_code == 0
    if command == "analyze":
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"]["pade_order"] == PADE_ORDER


def test_cli_unknown_option_and_command_exit_3(wind_path):
    runner = CliRunner()
    assert runner.invoke(main, ["analyze", str(wind_path), "--bogus"]).exit_code == 3
    assert runner.invoke(main, ["bogus"]).exit_code == 3


def test_cli_simulate_divergence_exit_4(tmp_path):
    doc = diverging_scenario_doc()
    p = tmp_path / "diverging.json"
    p.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["simulate", str(p), "--out-dir", str(tmp_path)])
    assert res.exit_code == 4, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    # the scenario's name, as a completed run writes it, not the file path
    assert summary["scenario"] == doc["name"]
    assert 1.0 < summary["diverged_at_s"] < 60.0
    assert not (tmp_path / "traces.csv").exists()


# address space of the child in the allocation tests: the interpreter with
# numpy, scipy and click fits, the arrays these inputs ask for do not
_CHILD_ADDRESS_SPACE = 512 << 20


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux")
@pytest.mark.parametrize("argv", [
    ("simulate", "--rate-limiter", "--dt", "1e-7"),  # 458 MiB of record indices
    ("simulate", "--rate-limiter", "--dt", "1e-9"),  # 44.7 GiB of record indices
    ("analyze", "--check", "theorem1", "--density", "1000000000"),  # 3.73 GiB of contour
    ("export-loci", "--density", "1000000000"),
], ids=["simulate-dt-1e-7", "simulate-dt-1e-9", "analyze-density-1e9", "export-loci-density-1e9"])
def test_cli_input_too_large_to_allocate_exit_3(loads_path, tmp_path, argv):
    # never run uncapped: the child's allocation fails at once under the cap
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-m", "nyqscale.cli", argv[0], str(loads_path), *argv[1:],
         "--out-dir", str(tmp_path)],
        env=env, preexec_fn=_cap_address_space, timeout=120, capture_output=True, text=True)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert re.search(r"error: input too large: .*\d+(\.\d*)? [KMGT]iB", res.stderr), res.stderr
    assert not (tmp_path / "traces.csv").exists() and not (tmp_path / "report.json").exists()


def per_cell_csv(path, header, rows):
    """The per-cell csv.writer formatting the CSV writers replaced."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


TRICKY = np.array([0.0, -0.0, 1.0 / 3.0, -2.5e-7, 123456789.123, 1e300, -7.0, 4e-320,
                   np.nan, np.inf, -np.inf])


def test_write_traces_csv_matches_per_cell_formatting(tmp_path):
    # two full blocks of rows and a partial third
    rng = np.random.default_rng(5)
    tricky = np.resize(TRICKY, 2 * cli._CSV_BLOCK_ROWS + 7)
    T = len(tricky)
    freq = np.vstack([tricky, rng.normal(size=T)])
    tie = np.vstack([rng.normal(scale=1e3, size=T), tricky[::-1]])
    act = {"p_hydro_bus1": rng.normal(size=T), "p_wind_bus2": tricky * 3}
    result = SimulationResult(
        time_s=np.arange(T) * 0.01 + 1e-7, frequency_hz=freq, tie_flow_mw=tie,
        actuator_mw=act, omega_avg_hz=freq.mean(axis=0), omega_coi_hz=freq[1],
    )
    bus_ids = (3, 7)
    _write_traces_csv(tmp_path / "new.csv", bus_ids, result)
    names = list(act)
    header = (["time_s"] + [f"f_bus{b}_Hz" for b in bus_ids]
              + [f"tie_bus{b}_MW" for b in bus_ids] + names
              + ["omega_avg_Hz", "omega_coi_Hz"])
    rows = []
    for k in range(T):
        row = [f"{result.time_s[k]:.6f}"]
        row += [f"{freq[i, k]:.9g}" for i in range(2)]
        row += [f"{tie[i, k]:.9g}" for i in range(2)]
        row += [f"{act[nm][k]:.9g}" for nm in names]
        row += [f"{result.omega_avg_hz[k]:.9g}", f"{result.omega_coi_hz[k]:.9g}"]
        rows.append(row)
    per_cell_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_loci_csv_matches_per_cell_formatting(tmp_path):
    # more rows than the writer formats in one block, on both halves
    rng = np.random.default_rng(6)
    omega = np.concatenate([[0.0, 0.5, 1.0, math.pi / 0.2, 2.0, 7.5, 10.0, 1e3, 2e3],
                            np.linspace(20.0, 900.0, cli._CSV_BLOCK_ROWS + 7)])
    m = len(omega)
    tricky = np.resize(TRICKY, m)
    branches = np.empty((m, 2), dtype=complex)
    branches.real = np.stack([tricky, -np.roll(tricky, 3)], axis=1)
    branches.imag = np.stack([tricky[::-1], np.roll(tricky, 5)], axis=1)
    sweep = SimpleNamespace(
        s_upper=1j * omega,
        branches_upper=branches,
        vertices_upper=rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3)),
    )
    sweep.vertices_upper[7, 1] = complex(np.nan, -np.inf)  # non-finite vertex only
    markers = [("pi_over_2tau", math.pi / 0.2), ("second", 1e3)]
    _write_loci_csv(tmp_path / "new.csv", sweep, markers=markers)

    def mirror(arr):  # LociSweep's closed loop: upper, then conjugates reversed
        return np.concatenate([arr, np.conj(arr[-2::-1])], axis=0)

    s, br, vx = (mirror(a) for a in (sweep.s_upper, sweep.branches_upper,
                                     sweep.vertices_upper))
    header = ["omega_rad_s"]
    header += [f"branch_{k + 1}_{part}" for k in range(2) for part in ("re", "im")]
    header += [f"vertex_{i + 1}_{part}" for i in range(3) for part in ("re", "im")]
    header.append("marker")
    rows = []
    for row in range(2 * m - 1):
        w = s[row].imag
        cells = [f"{w:.12g}"]
        for k in range(2):
            cells += [f"{br[row, k].real:.12g}", f"{br[row, k].imag:.12g}"]
        for i in range(3):
            cells += [f"{vx[row, i].real:.12g}", f"{vx[row, i].imag:.12g}"]
        tag = ""
        for name, w_mark in markers:
            if abs(w - w_mark) <= 1e-9 * max(1.0, w_mark):
                tag = name
        rows.append(cells + [tag])
    per_cell_csv(tmp_path / "old.csv", header, rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"pi_over_2tau") == 1 and new.count(b"second") == 1
    # the mirrored rows toggle signs: -0 closes the loop, nan stays unsigned
    lines = new.decode().splitlines()
    assert len(lines) == 2 * m and lines[-1].startswith("-0,")
    assert b"-nan" not in new and b"--" not in new


@pytest.mark.parametrize("name", ["n5_hydro_loads", "n5_hydro_d0", "n5_hydro_wind"])
def test_write_loci_svg_matches_per_point_loop(monkeypatch, tmp_path, name):
    argv = ["export-loci", str(bundled_scenario_path(name))]
    res = CliRunner().invoke(main, argv + ["--out-dir", str(tmp_path / "new")])
    assert res.exit_code == 0, res.output
    monkeypatch.setattr(cli, "_svg_polyline", svg_polyline_loop)
    res = CliRunner().invoke(main, argv + ["--out-dir", str(tmp_path / "old")])
    assert res.exit_code == 0, res.output
    new = (tmp_path / "new" / "loci.svg").read_bytes()
    assert new.count(b"<polyline") > 4
    assert new == (tmp_path / "old" / "loci.svg").read_bytes()


def test_svg_polyline_matches_per_point_loop_at_the_clip_box():
    # the box is |re|, |im| <= 9.0: points exactly on its edges are inside,
    # NaN and inf points outside, and a run of one point draws nothing
    edge = np.nextafter(9.0, np.inf)
    zs = np.array([
        9.0 + 0j, -9.0 + 9.0j, 0.5 - 9.0j,               # run on the edges
        edge + 0j,                                       # just outside
        1.0 + 1.0j,                                      # single-point run
        complex(np.nan, 0.0), 2.0 + 0j, 3.0 + 0j,        # NaN, then a run
        complex(0.0, np.nan), -1.0 + 0j,                 # single after NaN
        complex(np.inf, 0.0), 0.0 - 0j, -0.0 + 0j, 4.0 - 8.999j,
        -9.0 - edge * 1j, -7.0 + 2.0j,                   # single at the end
    ])
    for points in (zs, zs[:1], zs[3:5], zs[::-1], [complex(-6, 0), complex(6, 0)], []):
        assert _svg_polyline(points, "#123456") == svg_polyline_loop(points, "#123456")
        assert (_svg_polyline(points, "red", 'stroke-dasharray="4 3"')
                == svg_polyline_loop(points, "red", 'stroke-dasharray="4 3"'))
    assert _svg_polyline(zs, "k").count("<polyline") == 3


def test_svg_line_ends_on_the_clip_box():
    # a diagonal through the origin ends in two corners, a steep line ends
    # on the bottom and top edges, and lines that miss the box have no ends
    assert _svg_line(0j, (1 + 1j) / math.sqrt(2)) == [-9 - 9j, 9 + 9j]
    assert _svg_line(8 + 8j, 1 + 2j) == [-0.5 - 9j, 8.5 + 9j]
    assert _svg_line(-9.5 + 0j, 1j) == [] and _svg_line(0 + 20j, 1 + 0j) == []
    assert _svg_line(30 + 0j, 1 + 1j) == []
