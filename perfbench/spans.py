"""Span tracer for the traced run.

``Tracer.install`` wraps public functions of the ``nyqscale`` modules in
their module namespaces (and the names ``cli`` imported from them), so every
call records a span: name, start, end, parent. Spans stay in memory until
``write``. A layer's self time is its spans' durations minus their
children's. ``uninstall`` restores the original functions.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name); "Class.method" patches a class attribute
TARGETS = [
    ("scenario", "load_scenario", "scenario.load"),
    ("cli", "load_scenario", "scenario.load"),
    ("network", "normalize", "network.normalize"),
    ("cli", "normalize", "network.normalize"),
    ("lti", "poly_roots", "lti.roots"),
    ("powerplant", "Agent.g_value", "powerplant.g_value"),
    ("nyquist", "eigenloci_sweep", "nyquist.sweep"),
    ("cli", "eigenloci_sweep", "nyquist.sweep"),
    ("nyquist", "winding_number", "nyquist.winding"),
    ("nyquist", "LociSweep.total_winding", "nyquist.winding"),
    ("nyquist", "vertex_axis_crossings", "nyquist.axis_crossings"),
    ("nyquist", "make_contour", "nyquist.contour"),
    ("nyquist", "default_outer_radius", "nyquist.contour"),
    ("cli", "make_contour", "nyquist.contour"),
    ("cli", "default_outer_radius", "nyquist.contour"),
    ("cli", "_default_contour", "nyquist.contour"),
    ("simkit", "realize_state_space", "simkit.realize"),
    ("cli", "realize_state_space", "simkit.realize"),
    ("simkit", "simulate", "simkit.simulate"),
    ("cli", "run_simulation", "simkit.simulate"),
]
CHECKS = ("theorem1_check", "fov_check", "lossy_exponential_check", "decentralized_check")
for _mod in ("nyquist", "cli"):
    TARGETS += [(_mod, name, "nyquist.check") for name in CHECKS]


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self._saved = []

    # -- recording -------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        sp = Span(name, time.perf_counter(), parent)
        idx = len(self.spans)
        self.spans.append(sp)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += sp.end - sp.start
        if name == "nyquist.sweep":
            contour = kwargs.get("contour", args[2] if len(args) > 2 else None)
            sp.info = (len(contour.nodes), len(result.s_upper))
        elif name == "powerplant.g_value":
            sp.info = int(np.size(args[1] if len(args) > 1 else kwargs["s"]))
        elif name == "simkit.simulate":
            sp.info = (len(result.time_s), float(result.time_s[-1] - result.time_s[0]))
        return result

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _eigvals(self, fn):
        """numpy.linalg.eigvals, recorded only directly under a sweep."""

        @functools.wraps(fn)
        def wrapper(a):
            if self.stack and self.spans[self.stack[-1]].name == "nyquist.sweep":
                return self.span("nyquist.eig", fn, a)
            return fn(a)

        return wrapper

    def _counter(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        import importlib

        for mod_name, attr, name in TARGETS:
            owner = importlib.import_module(f"{package}.{mod_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        lti = importlib.import_module(f"{package}.lti")
        self._patch(lti, "tf_evaluate", self._counter(lti.tf_evaluate, "lti.tf_eval_calls"))
        self._patch(np.linalg, "eigvals", self._eigvals(np.linalg.eigvals))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------
    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer totals divided by the number of traced rounds."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for sp in self.spans:
            self_s[sp.name] += (sp.end - sp.start) - sp.child_s
            calls[sp.name] += 1
        sweeps = [sp.info for sp in self.spans if sp.name == "nyquist.sweep"]
        points = sum(sp.info for sp in self.spans if sp.name == "powerplant.g_value")
        sims = [(sp.info, sp.end - sp.start) for sp in self.spans
                if sp.name == "simkit.simulate"]
        sim_s = sum(d for _, d in sims)
        per = 1.0 / rounds
        m = {
            "scenario.load_s": (self_s["scenario.load"] * per, "s"),
            "scenario.load_calls": (calls["scenario.load"] * per, "count"),
            "network.normalize_s": (self_s["network.normalize"] * per, "s"),
            "lti.roots_s": (self_s["lti.roots"] * per, "s"),
            "lti.roots_calls": (calls["lti.roots"] * per, "count"),
            "lti.tf_eval_calls": (self.counts["lti.tf_eval_calls"] * per, "count"),
            "powerplant.g_value_s": (self_s["powerplant.g_value"] * per, "s"),
            "powerplant.g_value_calls": (calls["powerplant.g_value"] * per, "count"),
            "powerplant.g_value_points_per_call": (
                points / calls["powerplant.g_value"] if calls["powerplant.g_value"] else 0.0,
                "points/call"),
            "nyquist.sweep_calls": (calls["nyquist.sweep"] * per, "count"),
            "nyquist.sweep_self_s": (self_s["nyquist.sweep"] * per, "s"),
            "nyquist.eig_s": (self_s["nyquist.eig"] * per, "s"),
            "nyquist.samples_initial": (sum(a for a, _ in sweeps) * per, "count"),
            "nyquist.samples_final": (sum(b for _, b in sweeps) * per, "count"),
            "nyquist.winding_s": (self_s["nyquist.winding"] * per, "s"),
            "nyquist.check_self_s": (self_s["nyquist.check"] * per, "s"),
            "nyquist.axis_crossings_s": (self_s["nyquist.axis_crossings"] * per, "s"),
            "nyquist.contour_s": (self_s["nyquist.contour"] * per, "s"),
            "simkit.realize_s": (self_s["simkit.realize"] * per, "s"),
            "simkit.simulate_s": (self_s["simkit.simulate"] * per, "s"),
            "simkit.records": (sum(r for (r, _), _ in sims) * per, "count"),
            "simkit.sim_rate": (sum(t for (_, t), _ in sims) / sim_s if sim_s else 0.0,
                                "s/s"),
            "cli.self_s": (self_s["cli"] * per, "s"),
        }
        return m

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent]) + "\n")
