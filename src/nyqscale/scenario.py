"""Scenario files: a single JSON document describing the network, the
per-bus reserve equipment, the screening policy, and the disturbance.

Susceptance units declared on each line are converted once at ingestion
into the package's internal system (power MW, frequency Hz, angle Hz*s):
a per-radian susceptance picks up a factor 2*pi. Everything downstream is
unit-naive.

The format is the JSON Schema dict ``_SCHEMA``. A recursive checker
interprets exactly the keywords it uses: ``type`` (a name or a list),
``required``, ``properties``, ``items``, ``minItems``, ``maxItems``,
``minimum``, ``exclusiveMinimum``, ``maximum`` and ``enum``, each judged on
its own as in JSON Schema (a bool is no number; 1.0 is an integer). Unlike
JSON Schema, numbers must be finite: a NaN or Infinity is a violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ScenarioError
from .network import Line, OperatingPoint, PowerNetwork, build_laplacian, kron_reduce
from .nyquist import DecentralizedPolicy
from .powerplant import (
    C_ROTOR_FLOOR_08,
    Agent,
    HydroParams,
    WindParams,
    assemble_agent,
    make_fcr_controller,
    make_fdes,
    make_ffr_controller,
    make_hydro_turbine,
    make_wind_turbine,
)
from .simkit import Pulse

__all__ = ["Scenario", "load_scenario", "loads_scenario", "bundled_scenario_path"]

_B_UNIT_FACTORS = {
    "GW_per_rad": 2000.0 * math.pi,
    "MW_per_rad": 2.0 * math.pi,
    "MW_per_Hz_s": 1.0,
}

_SCHEMA = {
    "type": "object",
    "required": ["name", "network", "agents"],
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "network": {
            "type": "object",
            "required": ["buses", "lines"],
            "properties": {
                "buses": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["id"],
                        "properties": {
                            "id": {"type": "integer"},
                            "voltage_pu": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
                "lines": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["from", "to", "b", "units"],
                        "properties": {
                            "from": {"type": "integer"},
                            "to": {"type": "integer"},
                            "b": {"type": "number", "minimum": 0},
                            "units": {"enum": sorted(_B_UNIT_FACTORS)},
                        },
                    },
                },
                "operating_point": {
                    "type": "object",
                    "properties": {
                        "angles_rad": {"type": "array", "items": {"type": "number"}}
                    },
                },
                "algebraic_buses": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "agents": {
            "type": "object",
            "required": ["buses"],
            "properties": {
                "fcr_design_k_MW_per_Hz": {"type": "number", "exclusiveMinimum": 0},
                "buses": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["bus"],
                        "properties": {
                            "bus": {"type": "integer"},
                            "W_kin_GWs": {"type": "number", "minimum": 0},
                            "M_MW_s_per_Hz": {"type": "number", "minimum": 0},
                            "D_MW_per_Hz": {"type": "number", "minimum": 0},
                            "hydro": {
                                "type": "object",
                                "required": ["T_y", "T_w", "g0", "fcr_share"],
                                "properties": {
                                    "T_y": {"type": "number", "exclusiveMinimum": 0},
                                    "T_w": {"type": "number", "exclusiveMinimum": 0},
                                    "g0": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                                    "fcr_share": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                                    "P_gen_MW": {"type": "number", "minimum": 0},
                                    "rate_limit_pu_s": {"type": "number", "exclusiveMinimum": 0},
                                },
                            },
                            "wind": {
                                "type": "object",
                                "required": ["v_m_s", "ffr_share", "tau_s", "k_ffr_MW_per_Hz"],
                                "properties": {
                                    "v_m_s": {"type": "number", "exclusiveMinimum": 0},
                                    "P_nom_MW": {"type": "number", "minimum": 0},
                                    "P_MPP_MW": {"type": "number", "minimum": 0},
                                    "ffr_share": {"type": "number", "exclusiveMinimum": 0},
                                    "tau_s": {"type": "number", "minimum": 0},
                                    "k_ffr_MW_per_Hz": {"type": "number", "exclusiveMinimum": 0},
                                    "C_omega": {"type": "number", "exclusiveMinimum": 0},
                                },
                            },
                        },
                    },
                },
            },
        },
        "policy": {
            "type": "object",
            "properties": {
                "contour": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["full-D", "D_r"]},
                        "r_rad_s": {"type": "number", "minimum": 0},
                        "R_rad_s": {"type": ["number", "null"]},
                        "density": {"type": "integer", "minimum": 100},
                    },
                },
                "hyperplane": {
                    "type": "object",
                    "required": ["point", "normal"],
                    "properties": {
                        "point": {"type": "array", "items": {"type": "number"},
                                  "minItems": 2, "maxItems": 2},
                        "normal": {"type": "array", "items": {"type": "number"},
                                   "minItems": 2, "maxItems": 2},
                    },
                },
                "tau_max_s": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "disturbance": {
            "type": "object",
            "required": ["bus", "amplitude_MW"],
            "properties": {
                "bus": {"type": "integer"},
                "amplitude_MW": {"type": "number"},
                "t_start_s": {"type": "number", "minimum": 0},
                "duration_s": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
        },
        "output": {
            "type": "object",
            "properties": {
                "dt_s": {"type": "number", "exclusiveMinimum": 0},
                "t_end_s": {"type": "number", "exclusiveMinimum": 0},
                "record_decimation": {"type": "integer", "minimum": 1},
            },
        },
    },
}

SHARE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """Parsed, validated, cross-referenced scenario.

    ``policy`` is the one decentralized policy every agent is screened
    against: each field the file's policy block gives, else the default
    (hyperplane through -0.9 with normal 1, tau_max 0.1 s, r 0.75 rad/s,
    no R). Its ``r`` and ``R`` are also the analysis contour's D_r radius
    and closure radius.
    """

    name: str
    description: str
    network: PowerNetwork
    agents: tuple[Agent, ...]
    bus_ids: tuple[int, ...]
    policy: DecentralizedPolicy
    contour_kind: str
    contour_density: int
    disturbance: tuple[Pulse, ...]
    dt_s: float
    t_end_s: float
    record_decimation: int
    hydro_rate_limits_mw_per_s: dict[int, float]
    raw: dict

    @property
    def n(self) -> int:
        return self.network.n

    def to_json_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))


_PY_TYPES = {"object": dict, "array": list, "string": str, "null": type(None)}


def _of_type(v, t) -> bool:
    """Whether ``v`` has the JSON Schema type ``t``, a name or a list of
    names. Numbers must be finite, and a bool is no number."""
    if isinstance(t, list):
        return any(_of_type(v, name) for name in t)
    if t in _PY_TYPES:
        return isinstance(v, _PY_TYPES[t])
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return isinstance(v, int) or math.isfinite(v) and (t == "number" or v.is_integer())


# keyword -> (fails(instance, keyword value), message after the instance)
_RULES = {
    "type": (lambda v, t: not _of_type(v, t), "is not of type {!r}"),
    "enum": (lambda v, e: v not in e, "is not one of {!r}"),
    "minimum": (lambda v, m: _of_type(v, "number") and v < m,
                "is less than the minimum of {!r}"),
    "exclusiveMinimum": (lambda v, m: _of_type(v, "number") and v <= m,
                         "is less than or equal to the minimum of {!r}"),
    "maximum": (lambda v, m: _of_type(v, "number") and v > m,
                "is greater than the maximum of {!r}"),
    "minItems": (lambda v, m: isinstance(v, list) and len(v) < m, "is too short"),
    "maxItems": (lambda v, m: isinstance(v, list) and len(v) > m, "is too long"),
}


def _violations(node, schema: dict, path: str = "$") -> list[str]:
    """``path: message`` for every keyword of ``schema`` that ``node``
    fails, each judged on its own, then for the members of ``node``."""
    out = []
    for key, want in schema.items():
        if key in _RULES:
            fails, msg = _RULES[key]
            if fails(node, want):
                out.append(f"{path}: {node!r} {msg.format(want)}")
        elif key == "required" and isinstance(node, dict):
            out += [f"{path}: {k!r} is a required property" for k in want if k not in node]
        elif key == "properties" and isinstance(node, dict):
            for k in want.keys() & node.keys():
                out += _violations(node[k], want[k], f"{path}.{k}")
        elif key == "items" and isinstance(node, list):
            for i, item in enumerate(node):
                out += _violations(item, want, f"{path}[{i}]")
    return out


def _schema_violations(doc) -> list[str]:
    return sorted(_violations(doc, _SCHEMA), key=lambda line: line.split(": ", 1)[0])


def loads_scenario(doc: dict) -> Scenario:
    """Validate and cross-reference an already-parsed scenario document."""
    violations = _schema_violations(doc)
    if violations:
        raise ScenarioError(violations)

    net_doc = doc["network"]
    bus_ids = [b["id"] for b in net_doc["buses"]]
    if len(set(bus_ids)) != len(bus_ids):
        raise ScenarioError(["$.network.buses: duplicate bus ids"])
    index = {b: i for i, b in enumerate(bus_ids)}
    voltages = {
        b["id"]: float(b.get("voltage_pu", 1.0)) for b in net_doc["buses"]
    }
    lines = []
    for k, ln in enumerate(net_doc["lines"]):
        for end in ("from", "to"):
            if ln[end] not in index:
                raise ScenarioError(
                    [f"$.network.lines[{k}].{end}: unknown bus id {ln[end]}"]
                )
        factor = _B_UNIT_FACTORS[ln["units"]]
        lines.append(
            Line(
                from_bus=index[ln["from"]],
                to_bus=index[ln["to"]],
                susceptance_b=float(ln["b"]) * factor,
                from_voltage=voltages[ln["from"]],
                to_voltage=voltages[ln["to"]],
            )
        )
    angles = net_doc.get("operating_point", {}).get("angles_rad")
    op = OperatingPoint(angles) if angles is not None else OperatingPoint.flat(len(bus_ids))
    network = build_laplacian(lines, op, len(bus_ids))
    algebraic = []
    for k, b in enumerate(net_doc.get("algebraic_buses", [])):
        if b not in index:
            raise ScenarioError([f"$.network.algebraic_buses[{k}]: unknown bus id {b}"])
        algebraic.append(index[b])
    if algebraic:
        network = kron_reduce(network, algebraic)
        bus_ids = [b for i, b in enumerate(bus_ids) if i not in set(algebraic)]
        index = {b: i for i, b in enumerate(bus_ids)}

    agents_doc = doc["agents"]
    k_fcr = agents_doc.get("fcr_design_k_MW_per_Hz")
    f_des = make_fdes(k_fcr) if k_fcr else None
    per_bus, dup = {}, set()
    for a in agents_doc["buses"]:
        if a["bus"] in per_bus:
            dup.add(a["bus"])
        per_bus[a["bus"]] = a
    if dup:
        raise ScenarioError([f"$.agents.buses: duplicate bus id(s) {sorted(dup)}"])
    for b in per_bus:
        if b not in index:
            raise ScenarioError([f"$.agents.buses: unknown bus id {b}"])
    fcr_sum = sum(
        a["hydro"]["fcr_share"] for a in agents_doc["buses"] if "hydro" in a
    )
    if any("hydro" in a for a in agents_doc["buses"]):
        if abs(fcr_sum - 1.0) > SHARE_SUM_TOL:
            raise ScenarioError(
                [f"$.agents: FCR shares sum to {fcr_sum}, expected 1"]
            )
        if f_des is None:
            raise ScenarioError(
                ["$.agents.fcr_design_k_MW_per_Hz required when hydro FCR present"]
            )
    ffr_sum = sum(
        a["wind"]["ffr_share"] for a in agents_doc["buses"] if "wind" in a
    )
    if any("wind" in a for a in agents_doc["buses"]) and abs(ffr_sum - 1.0) > SHARE_SUM_TOL:
        raise ScenarioError([f"$.agents: FFR shares sum to {ffr_sum}, expected 1"])

    agents: list[Agent | None] = [None] * len(bus_ids)
    rate_limits: dict[int, float] = {}
    for bus_id, spec_a in per_bus.items():
        i = index[bus_id]
        if "M_MW_s_per_Hz" in spec_a:
            M = float(spec_a["M_MW_s_per_Hz"])
        elif "W_kin_GWs" in spec_a:
            M = 2.0 * float(spec_a["W_kin_GWs"]) * 1000.0 / 50.0
        else:
            M = 0.0
        parts, names = [], []
        if "hydro" in spec_a:
            h = spec_a["hydro"]
            turbine = make_hydro_turbine(HydroParams(
                servo_time_s=h["T_y"], water_time_s=h["T_w"], initial_gate_pu=h["g0"]))
            parts.append(make_fcr_controller(h["fcr_share"], f_des, turbine).actuator)
            names.append("hydro")
            if "P_gen_MW" in h:
                # the servo's rate bound, 0.1 pu/s unless the file gives one
                rate_limits[i] = h.get("rate_limit_pu_s", 0.1) * float(h["P_gen_MW"])
        if "wind" in spec_a:
            w = spec_a["wind"]
            turbine = make_wind_turbine(
                WindParams(wind_speed_m_s=w["v_m_s"], c_omega=w.get("C_omega", C_ROTOR_FLOOR_08))
            )
            parts.append(
                make_ffr_controller(
                    w["ffr_share"], w["k_ffr_MW_per_Hz"], w["tau_s"], turbine
                )
            )
            names.append("wind")
        agents[i] = assemble_agent(
            M,
            parts,
            load_damping_mw_per_hz=float(spec_a.get("D_MW_per_Hz", 0.0)),
            part_names=names,
        )
    missing = [bus_ids[i] for i, a in enumerate(agents) if a is None]
    if missing:
        raise ScenarioError(
            [f"$.agents.buses: no agent for bus id(s) {missing}; every retained "
             "bus needs dynamics (Kron-reduce algebraic ones)"]
        )

    pol_doc = doc.get("policy", {})
    cont = pol_doc.get("contour", {})
    hp = pol_doc.get("hyperplane", {"point": [-0.9, 0.0], "normal": [1.0, 0.0]})
    policy = DecentralizedPolicy(
        # the per-agent policy always needs a strictly positive D_r radius,
        # even when the scenario's analysis contour is the full D-contour;
        # a D_r analysis contour takes the same radius
        r=float(cont.get("r_rad_s") or 0.75),
        hyperplane_point=complex(*hp["point"]),
        hyperplane_normal=complex(*hp["normal"]),
        tau_max=float(pol_doc.get("tau_max_s", 0.1)),
        R=cont.get("R_rad_s"),
    )

    dist_doc = doc.get("disturbance")
    pulses: tuple[Pulse, ...] = ()
    if dist_doc:
        if dist_doc["bus"] not in index:
            raise ScenarioError(
                [f"$.disturbance.bus: unknown bus id {dist_doc['bus']}"]
            )
        t0 = float(dist_doc.get("t_start_s", 0.0))
        dur = dist_doc.get("duration_s")
        pulses = (
            Pulse(
                bus=index[dist_doc["bus"]],
                amplitude_mw=float(dist_doc["amplitude_MW"]),
                t_start_s=t0,
                t_end_s=None if dur is None else t0 + float(dur),
            ),
        )

    out_doc = doc.get("output", {})
    return Scenario(
        name=doc["name"],
        description=doc.get("description", ""),
        network=network,
        agents=tuple(agents),
        bus_ids=tuple(bus_ids),
        policy=policy,
        contour_kind=cont.get("kind", "D_r" if cont.get("r_rad_s") else "full-D"),
        contour_density=int(cont.get("density", 200)),
        disturbance=pulses,
        dt_s=float(out_doc.get("dt_s", 1e-3)),
        t_end_s=float(out_doc.get("t_end_s", 60.0)),
        record_decimation=int(out_doc.get("record_decimation", 10)),
        hydro_rate_limits_mw_per_s=rate_limits,
        raw=doc,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read, schema-validate, and cross-reference a scenario JSON file."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError([f"scenario file not found: {p}"])
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"invalid JSON: {exc}"]) from None
    return loads_scenario(doc)


def bundled_scenario_path(name: str) -> Path:
    """Path of a bundled scenario: n5_hydro_d0, n5_hydro_loads, n5_hydro_wind."""
    fn = f"{name}.json"
    base = resources.files("nyqscale").joinpath("data")
    p = Path(str(base.joinpath(fn)))
    if not p.is_file():
        available = sorted(q.stem for q in Path(str(base)).glob("*.json"))
        raise ScenarioError(
            [f"no bundled scenario {name!r}; available: {available}"]
        )
    return p
