"""Seeded scenario generator for the benchmark.

Every input the program sees is a scenario JSON file written here, built
from the bundled Nordic-5 (N5) scenarios. Synthetic networks cycle the five
N5 agent rows over their buses; the seed only jitters inertia, by a little,
so the operation mix and its cost barely depend on the seed (README.md
says why the jitter is small).
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

N5_NAMES = ("n5_hydro_loads", "n5_hydro_wind", "n5_hydro_d0")
INERTIA_JITTER = 0.02  # W_kin scaled by U(1 - j, 1 + j); see README.md
CLAMP_RATE_PU_S = 0.01  # low enough that the hydro rate clamp binds


def bundled(data_dir: Path, name: str) -> dict:
    return json.loads((data_dir / f"{name}.json").read_text(encoding="utf-8"))


def ring_lines(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def grid_lines(rows: int, cols: int) -> list[tuple[int, int]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if c + 1 < cols:
                out.append((k, k + 1))
            if r + 1 < rows:
                out.append((k, k + cols))
    return out


def synthetic_scenario(data_dir: Path, name: str, n: int, edges, rng: random.Random) -> dict:
    """Scenario on ``n`` buses joined by ``edges``. Line susceptances cycle
    through the five N5 lines and agents through the five ``n5_hydro_d0``
    rows (hydro FCR, D = 0), each with jittered inertia. FCR shares are
    renormalised to sum to 1 and the FCR design gain grows with n/5, so each
    agent keeps its N5 reserve. Contour, policy, disturbance and output
    settings are those of ``n5_hydro_loads`` (D_r, r = 0.75 rad/s)."""
    n5 = bundled(data_dir, "n5_hydro_loads")
    b_vals = [ln["b"] for ln in n5["network"]["lines"]]
    templates = bundled(data_dir, "n5_hydro_d0")["agents"]["buses"]
    agents = []
    for i in range(n):
        row = copy.deepcopy(templates[i % len(templates)])
        row["bus"] = i + 1
        row["W_kin_GWs"] = round(
            row["W_kin_GWs"] * rng.uniform(1 - INERTIA_JITTER, 1 + INERTIA_JITTER), 6
        )
        agents.append(row)
    hydro = [a["hydro"] for a in agents if "hydro" in a]
    total = sum(h["fcr_share"] for h in hydro)
    for h in hydro:
        h["fcr_share"] /= total
    # the loader checks the sum to 1e-9; put the rounding residue on one row
    hydro[0]["fcr_share"] += 1.0 - sum(h["fcr_share"] for h in hydro)
    scale = n / 5.0
    doc = {
        "name": name,
        "description": f"synthetic {n}-bus network with N5 agent rows (benchmark input)",
        "network": {
            "buses": [{"id": i + 1, "voltage_pu": 1.0} for i in range(n)],
            "lines": [
                {"from": a + 1, "to": b + 1, "b": b_vals[k % len(b_vals)],
                 "units": "GW_per_rad"}
                for k, (a, b) in enumerate(edges)
            ],
        },
        "agents": {
            "fcr_design_k_MW_per_Hz": n5["agents"]["fcr_design_k_MW_per_Hz"] * scale,
            "buses": agents,
        },
        "policy": copy.deepcopy(n5["policy"]),
        "disturbance": copy.deepcopy(n5["disturbance"]),
        "output": copy.deepcopy(n5["output"]),
    }
    return doc


def clamped_copy(data_dir: Path) -> dict:
    """``n5_hydro_loads`` with the hydro rate limit lowered until it binds."""
    doc = bundled(data_dir, "n5_hydro_loads")
    doc["name"] = "n5_hydro_loads_clamped"
    for a in doc["agents"]["buses"]:
        if "hydro" in a:
            a["hydro"]["rate_limit_pu_s"] = CLAMP_RATE_PU_S
    return doc


def write(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path
