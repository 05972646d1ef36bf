"""The benchmark tracer (perfbench/spans.py) patches nyqscale attributes by
name; every one of them must exist, or a rename only shows up as a KeyError
in a traced benchmark run. Besides TARGETS, ``Tracer.install`` swaps
``lti.tf_evaluate`` for a call counter."""

import importlib
import importlib.util
from pathlib import Path

import nyqscale.lti as lti

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
