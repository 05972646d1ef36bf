"""The stacked kernels: one rational evaluation for many agents and one root
finder for many polynomials, each bit-identical to its one-item case and to
an oracle built from numpy.polynomial; and the call counts of a ring16
sweep."""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import nyqscale
import nyqscale.lti as lti
from nyqscale.errors import NumericalError, PoleHitError
from nyqscale.lti import Polynomial, RationalStack, TransferFunction, poly_roots, roots_stack
from nyqscale.network import normalize
from nyqscale.nyquist import _default_contour, fov_check, theorem1_check
from nyqscale.powerplant import Agent
from nyqscale.scenario import bundled_scenario_path, load_scenario
from util import random_stable_proper_tf

TF = TransferFunction


def bits(z) -> np.ndarray:
    return np.ascontiguousarray(z, dtype=complex).view(float)


# ------------------------------------------------------------------ oracles
def tf_oracle(g: TransferFunction, s: np.ndarray) -> np.ndarray:
    value = npp.polyval(s, g.num.as_array()) / npp.polyval(s, g.den.as_array())
    return value * np.exp(-s * g.delay_s) if g.delay_s else value


def agent_oracle(a: Agent, s: np.ndarray) -> np.ndarray:
    total = np.zeros_like(s)
    for f in a.f_parts:
        total = total + tf_oracle(f, s)
    return 1.0 / (s * s * a.inertia + s * (total + a.load_damping))


def roots_oracle(p: Polynomial) -> np.ndarray:
    """``npp.polyroots`` on the max-scaled coefficients and two guarded
    Newton steps by ``npp.polyval``, in complex arithmetic."""
    c = p.as_array() / np.abs(p.as_array()).max()
    roots, dc = npp.polyroots(c).astype(complex), npp.polyder(c)
    for _ in range(2):
        val, dval = npp.polyval(roots, c), npp.polyval(roots, dc)
        cand = roots - np.where(dval != 0, val / np.where(dval == 0, 1.0, dval), 0.0)
        roots = np.where(np.abs(npp.polyval(cand, c)) < np.abs(val), cand, roots)
    return roots


def random_items(rng, count: int) -> list:
    """Raw transfer functions and agents: delay-free and delayed parts, one
    to three parts or none, and M = 0 with D > 0 in about a third."""
    items = []
    for _ in range(count):
        if rng.random() < 0.3:
            items.append(random_stable_proper_tf(rng, 4))
            continue
        parts = []
        for _ in range(int(rng.integers(0, 4))):
            f = random_stable_proper_tf(rng, 3, strictly_proper=bool(rng.random() < 0.5))
            delay = float(rng.uniform(0.01, 0.3)) if rng.random() < 0.4 else 0.0
            parts.append(TF(f.num, f.den, delay_s=delay))
        inertia = 0.0 if rng.random() < 0.35 else float(rng.uniform(0.1, 5.0))
        damping = float(rng.uniform(0.1, 3.0)) if inertia == 0.0 or rng.random() < 0.5 else 0.0
        items.append(Agent(inertia=inertia, f_parts=tuple(parts), load_damping=damping))
    return items


def contour_like_points(rng) -> np.ndarray:
    w = np.geomspace(1e-3, 1e4, 300)
    arc = 0.75 * np.exp(1j * np.linspace(0.0, np.pi / 2, 25))
    return np.concatenate([1j * w, arc, 5e3 * arc, rng.normal(size=20) + 1j * rng.normal(size=20)])


# ----------------------------------------------------- stacked evaluation
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rational_stack_is_bit_identical_to_polyval_oracle(seed):
    rng = np.random.default_rng(seed)
    items = random_items(rng, 12)
    s = contour_like_points(rng)
    got = RationalStack(items)(s)
    assert got.shape == (len(items), len(s))
    for row, item in zip(got, items):
        ref = tf_oracle(item, s) if isinstance(item, TF) else agent_oracle(item, s)
        assert np.array_equal(bits(row), bits(ref))
        # each item's own one-item evaluation is the same stack
        assert np.array_equal(bits(item(s)), bits(ref))


def test_rational_stack_keeps_the_shape_of_s():
    items = random_items(np.random.default_rng(7), 4)
    s = 1j * np.geomspace(0.1, 10.0, 12).reshape(3, 4)
    got = RationalStack(items)(s)
    assert got.shape == (4, 3, 4)
    for row, item in zip(got, items):
        assert np.array_equal(bits(row), bits(item(s)))
    assert isinstance(items[0](2j), complex) and items[0](2j) == items[0](np.array([2j]))[0]


def test_rational_stack_of_bundled_agents_matches_one_agent_at_a_time():
    agents = [a for name in ("n5_hydro_wind", "n5_hydro_d0", "n5_hydro_loads")
              for a in load_scenario(bundled_scenario_path(name)).agents]
    assert any(f.delay_s for a in agents for f in a.f_parts)
    s = contour_like_points(np.random.default_rng(5))
    got = RationalStack(agents)(s)
    for row, a in zip(got, agents):
        assert np.array_equal(bits(row), bits(agent_oracle(a, s)))


def test_rational_stack_names_the_first_pole_hit_in_item_order():
    s = np.array([0.5j, 1j, 2j, 3j])
    swing = Agent(inertia=1.0, f_parts=(TF([4.0], [0.0, 1.0]),))  # chi = s^2 + 4
    part = Agent(inertia=1.0, f_parts=(TF([1.0], [1.0, 1.0]), TF([1.0], [1.0, 0.0, 1.0])),
                 load_damping=1.0)  # second part has poles at +-1j
    plain = TF([1.0], [9.0, 0.0, 1.0])  # poles at +-3j
    with pytest.raises(PoleHitError) as exc:
        RationalStack([TF([1.0], [1.0, 1.0]), swing, part, plain])(s)
    assert exc.value.s == 2j
    with pytest.raises(PoleHitError) as exc:
        RationalStack([plain, part])(s)
    assert exc.value.s == 3j
    with pytest.raises(PoleHitError) as exc:
        RationalStack([part, swing])(s)
    assert exc.value.s == 1j


# ------------------------------------------------------------ batched roots
@pytest.mark.parametrize("degree", range(1, 11))
def test_roots_stack_equals_one_at_a_time_and_the_oracle(degree):
    rng = np.random.default_rng(100 + degree)
    polys = []
    for k in range(12):
        if k % 3 == 0:  # all roots real
            polys.append(Polynomial(npp.polyfromroots(rng.uniform(-5.0, 5.0, degree))))
        else:
            polys.append(Polynomial(rng.normal(size=degree + 1) * rng.uniform(0.1, 10.0)))
    # another degree in the same batch must not change these rows
    batch = roots_stack(polys + [Polynomial([1.0, 3.0, 2.0]), Polynomial([4.0])])
    assert batch[-1] == []
    for p, roots in zip(polys, batch):
        assert len(roots) == degree
        assert np.array_equal(bits(roots), bits(poly_roots(p)))
        assert np.array_equal(bits(roots), bits(roots_oracle(p)))


def test_roots_stack_polishes_real_rows_in_complex_arithmetic():
    # numpy's complex division takes a reciprocal, so polishing this row in
    # real arithmetic gives -2.0000000000000027 for the root at -2
    p = Polynomial(npp.polyfromroots([-3.0, -3.0, -2.0, -1.0, 0.0, 0.0, 2.0]))
    roots = poly_roots(p)
    assert all(r.imag == 0.0 for r in roots)
    assert np.array_equal(bits(roots), bits(roots_oracle(p)))


def test_roots_stack_raises_for_the_first_bad_polynomial_of_a_batch():
    good = [Polynomial([1.0, 3.0, 2.0]), Polynomial([2.0, 1.0, 0.5, 1.0])]
    bad3 = Polynomial([1e-30, 1.0, 1.0, 1e-15])  # violates the residual contract
    bad4 = Polynomial([1e-30, 1e-30, 1e15, 1.0, 1e-30])
    for bad in (bad3, bad4):
        with pytest.raises(NumericalError) as one:
            poly_roots(bad)
        with pytest.raises(NumericalError) as batched:
            roots_stack([good[0], bad, good[1]])
        assert str(batched.value) == str(one.value)
    with pytest.raises(NumericalError, match=r"degree 4\)"):
        roots_stack(good + [bad4, bad3])


# -------------------------------------------------------------- call counts
def _ring16():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.synthetic_scenario(Path(nyqscale.__file__).parent / "data", "ring16", 16,
                                  gen.ring_lines(16), random.Random(3)), gen


def test_ring16_sweep_makes_no_per_agent_or_per_polynomial_call(tmp_path, monkeypatch):
    doc, gen = _ring16()
    scn = load_scenario(gen.write(tmp_path / "ring16.json", doc))
    netN, agents = normalize(scn.network), list(scn.agents)
    calls = {"g_value": 0, "poly_roots": 0, "stacked_polys": 0}
    g_value, one_root, stacked = Agent.g_value, lti.poly_roots, lti.roots_stack

    def count(key, fn, n=lambda *a: 1):
        def wrapper(*args):
            calls[key] += n(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Agent, "g_value", count("g_value", g_value))
    monkeypatch.setattr(lti, "poly_roots", count("poly_roots", one_root))
    monkeypatch.setattr(lti, "roots_stack", count("stacked_polys", stacked, len))
    for kind, r in (("full-D", 0.0), ("D_r", scn.policy.r)):
        contour = _default_contour(netN.gamma, agents, kind, r, None, scn.contour_density)
        theorem1_check(netN, agents, contour)
        fov_check(netN, agents, contour)
    assert calls["g_value"] == 0 and calls["poly_roots"] == 0
    # each agent's Pade form rooted once, in the batched pass
    assert 0 < calls["stacked_polys"] <= 2 * len(agents)
