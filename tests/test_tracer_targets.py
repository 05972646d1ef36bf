"""The benchmark tracer (perfbench/spans.py) patches nyqscale attributes by
name; every one of them must exist, or a rename only shows up as a KeyError
in a traced benchmark run. Besides TARGETS, ``Tracer.install`` swaps
``lti.tf_evaluate`` for a call counter."""

import importlib
import importlib.util
from pathlib import Path

import nyqscale.lti as lti
from nyqscale import nyquist
from nyqscale.network import normalize
from nyqscale.scenario import bundled_scenario_path, load_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return _spans_module().TARGETS


def test_tracer_targets_resolve_in_nyqscale():
    targets = _tracer_targets()
    assert targets
    missing = []
    for mod_name, attr, _span in targets:
        owner = importlib.import_module(f"nyqscale.{mod_name}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # Tracer._patch reads the attribute from the owner's own __dict__
        if owner is None or name not in vars(owner):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing


def test_transfer_function_calls_go_through_tf_evaluate(monkeypatch):
    assert "tf_evaluate" in vars(lti)
    calls = []
    original = lti.tf_evaluate

    def counting(g, s):
        calls.append(s)
        return original(g, s)

    monkeypatch.setattr(lti, "tf_evaluate", counting)
    g = lti.TransferFunction([1.0], [1.0, 1.0])
    assert g(0.0) == 1.0
    assert len(calls) == 1


def test_tracer_nests_every_eig_span_in_its_sweep():
    # sweeps run in the calling thread, so the tracer's one span stack puts
    # each eigvals span under the sweep that made it
    scn = load_scenario(bundled_scenario_path("n5_hydro_wind"))
    netN, agents = normalize(scn.network), list(scn.agents)
    tracer = _spans_module().Tracer()
    tracer.install("nyqscale")
    try:
        contour = nyquist._default_contour(netN.gamma, agents, "full-D", 0.0, None, 100)
        verdict = nyquist.theorem1_check(netN, agents, contour)
    finally:
        tracer.uninstall()
    assert verdict.result == "stable"
    assert tracer.stack == []
    spans = tracer.spans
    eig = [sp for sp in spans if sp.name == "nyquist.eig"]
    assert eig and all(sp.parent >= 0 and spans[sp.parent].name == "nyquist.sweep" for sp in eig)
    for i, sweep in enumerate(spans):
        if sweep.name == "nyquist.sweep":
            inner = sum(sp.end - sp.start for sp in eig if sp.parent == i)
            assert 0.0 < inner <= sweep.end - sweep.start
    # the sweep span's first count, len(contour.nodes), is the upper chain's
    info = next(sp.info for sp in spans if sp.name == "nyquist.sweep")
    assert info[0] == len(contour.nodes) == len(contour.upper_points())
