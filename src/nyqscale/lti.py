"""Proper rational transfer functions with an optional pure time delay.

Exact polynomial arithmetic and evaluation for the SISO blocks every
criterion in this package is built from. ``*`` composes in series and ``+``
in parallel. Frequency-domain sweeps always use the exact exponential for
delays; state-space work and pole counts rationalize them through
:meth:`TransferFunction.rational`, the package's only Pade substitution.

Two array kernels do all evaluation and root finding, so a caller with many
agents makes one call for all of them: :class:`RationalStack` evaluates
many transfer functions and swing agents at the same points by one Horner
pass per group of same-shaped coefficient rows, and :func:`roots_stack`
roots many polynomials with one ``eigvals`` call per degree.
:func:`tf_evaluate`, :func:`poly_roots` and ``Agent.g_value`` are their
one-item cases, and each stacked value or root is bit-identical to its
one-item case (DECISIONS.md D12).

All values are immutable after construction and every operation is a pure
function, so the same objects may be evaluated from many threads.

Numerical contracts (module constants below):

* root residuals: every root r returned by :func:`roots_stack` satisfies
  |p(r)| <= ROOT_RESIDUAL_RTOL * sum_k |c_k| max(1, |r|)^k,
* right-half-plane pole/zero near-cancellations within RHP_CANCEL_BAND
  (relative) are rejected with an error instead of silently cancelled,
* a pole whose modulus falls within BOUNDARY_BAND * r of the contour radius
  r raises :class:`~nyqscale.errors.BoundaryAmbiguityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    AmbiguousMirrorError,
    BoundaryAmbiguityError,
    InvalidInputError,
    NumericalError,
    PoleHitError,
    RhpCancellationError,
    UnsupportedStructureError,
)

__all__ = [
    "Polynomial",
    "TransferFunction",
    "RationalStack",
    "roots_stack",
    "poly_roots",
    "fill_roots",
    "tf_evaluate",
    "mp_mirror",
    "PADE_ORDER",
    "pade_delay",
    "rhp_poles_in_region",
    "jw_axis_poles",
]

ROOT_RESIDUAL_RTOL = 1e-8
RHP_CANCEL_BAND = 1e-6
BOUNDARY_BAND = 1e-6
AXIS_RTOL = 1e-9
# the order of pade_delay wherever the frequency-domain analysis counts the
# poles of a delayed agent; only the state-space oracle takes another order
PADE_ORDER = 3
# bytes of each block of points' values and temporaries in RationalStack
_STACK_BLOCK_BYTES = 1 << 17


def _trim_trailing_zeros(coeffs: Sequence[float]) -> tuple[float, ...]:
    c = [float(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored ascending-degree; trailing zeros trimmed.

    The zero polynomial is the unique ``Polynomial((0.0,))``; its degree is
    reported as 0 and it is the only polynomial with a zero leading
    coefficient.
    """

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Iterable[float]):
        coeffs = _trim_trailing_zeros(list(coefficients))
        if not coeffs:
            coeffs = (0.0,)
        if not all(math.isfinite(c) for c in coeffs):
            raise InvalidInputError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    # -- basic queries -----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    @property
    def leading(self) -> float:
        return self.coefficients[-1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)

    def __call__(self, s):
        return npp.polyval(s, self.as_array())

    # -- arithmetic (exact, coefficient level) ------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        # npp.polyadd's sum, without its input checks
        short, long = sorted((self.coefficients, other.coefficients), key=len)
        total = np.array(long)
        total[:len(short)] += short
        return Polynomial(total)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):  # npp.polymul's product, without its input checks
            return Polynomial(np.convolve(self.coefficients, other.coefficients))
        return Polynomial(self.as_array() * float(other))

    __rmul__ = __mul__

    def residual_scale(self, s) -> np.ndarray:
        """sum_k |c_k| max(1,|s|)^k -- the natural evaluation scale at s."""
        mags = np.maximum(1.0, np.abs(np.asarray(s)))
        powers = mags[..., None] ** np.arange(len(self.coefficients))
        return powers @ np.abs(self.as_array())

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)})"


def as_polynomial(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if np.isscalar(value):
        return Polynomial([float(value)])
    return Polynomial(value)


def _horner(C: np.ndarray, x) -> np.ndarray:
    """``npp.polyval``'s recurrence, c_k + v*x from the top, for every row of
    the coefficient stack C (rows, L) at once: x broadcasts against (rows, 1),
    and every element sees the same operations as one ``polyval`` call."""
    v = C[:, -1, None] + x * 0
    for i in range(2, C.shape[1] + 1):
        v = C[:, -i, None] + v * x
    return v


def roots_stack(polys: Sequence[Polynomial]) -> list[list[complex]]:
    """All ``deg(p)`` roots of each p in ``polys``, with multiplicity.

    Each p is scaled to max-|coefficient| 1. Those of one degree share one
    ``eigvals`` call on their stacked companion matrices (LAPACK-balanced;
    Edelman & Murakami 1995, Math. Comp. 64(210)), then up to two Newton
    polish steps per root on the whole stack, in complex arithmetic, so
    every root is bit-identical to a one-polynomial call.
    Residual contract: |p(r)| <= 1e-8 * sum |c_k| max(1,|r|)^k on the scaled
    p; the first p in ``polys`` that breaks it raises NumericalError.
    """
    polys = [as_polynomial(p) for p in polys]
    if any(p.is_zero for p in polys):
        raise InvalidInputError("zero polynomial has no well-defined roots")
    groups: dict[int, list[int]] = {}
    scaled = []
    for k, p in enumerate(polys):
        c = p.as_array()
        c = c / np.abs(c).max()
        L = len(c)
        while L > 1 and c[L - 1] == 0.0:  # a leading coefficient that underflowed
            L -= 1
        scaled.append(c[:L])
        groups.setdefault(L, []).append(k)
    out: list[list[complex]] = [[] for _ in polys]
    bad: dict[int, float] = {}
    for L, members in groups.items():
        if L < 2:
            continue
        C = np.array([scaled[k] for k in members])
        n = L - 1
        mats = np.zeros((len(members), n, n))
        mats.reshape(len(members), -1)[:, n::n + 1] = 1
        mats[:, :, -1] -= C[:, :-1] / C[:, -1:]
        R = np.sort(np.linalg.eigvals(mats).astype(complex), axis=1)
        dC = C[:, 1:] * np.arange(1, L)
        for _ in range(2):
            val = _horner(C, R)
            dval = _horner(dC, R)
            step = np.where(dval != 0, val / np.where(dval == 0, 1.0, dval), 0.0)
            cand = R - step
            better = np.abs(_horner(C, cand)) < np.abs(val)
            R = np.where(better, cand, R)
        residual = np.abs(_horner(C, R))
        bound = ROOT_RESIDUAL_RTOL * _horner(np.abs(C), np.maximum(1.0, np.abs(R)))
        for j, k in enumerate(members):
            out[k] = R[j].tolist()
            if np.any(residual[j] > bound[j]):
                bad[k] = float((residual[j] / bound[j]).max())
    if bad:
        k = min(bad)
        raise NumericalError(
            f"root residual exceeds contract by factor {bad[k]:.3g} "
            f"(degree {polys[k].degree})"
        )
    return out


def poly_roots(p: Polynomial) -> list[complex]:
    """All ``deg(p)`` roots of p, with multiplicity: :func:`roots_stack` of
    the one polynomial."""
    return roots_stack([p])[0]


def fill_roots(tfs: Sequence["TransferFunction"], poles: bool = True) -> None:
    """Cache the ``zeros`` (and, with ``poles``, the ``poles``) of every
    function in ``tfs`` that lacks them, from one :func:`roots_stack` call
    over all their polynomials."""
    todo = {}
    for g in tfs:
        if poles and "poles" not in vars(g):
            todo[id(g), "poles"] = (g, g.den)
        if "zeros" not in vars(g) and not g.num.is_zero:
            todo[id(g), "zeros"] = (g, g.num)
    found = roots_stack([p for _, p in todo.values()])
    for ((_, name), (g, _)), roots in zip(todo.items(), found):
        vars(g)[name] = tuple(roots)  # what the cached_property would store


@dataclass(frozen=True)
class TransferFunction:
    """num/den * exp(-s*delay_s), with real-coefficient polynomials.

    No automatic simplification is performed: common factors survive
    composition exactly as built (see the module docstring for the
    cancellation policy).
    """

    num: Polynomial
    den: Polynomial
    delay_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "num", as_polynomial(self.num))
        object.__setattr__(self, "den", as_polynomial(self.den))
        if self.den.is_zero:
            raise InvalidInputError("denominator must not be the zero polynomial")
        if not (self.delay_s >= 0.0):
            raise InvalidInputError("delay_s must be a nonnegative real")

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(cls, k: float) -> "TransferFunction":
        return cls(Polynomial([float(k)]), Polynomial([1.0]))

    # -- structure -----------------------------------------------------------
    @property
    def is_proper(self) -> bool:
        return self.num.is_zero or self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.is_zero or self.num.degree < self.den.degree

    @cached_property
    def poles(self) -> tuple[complex, ...]:
        """Poles of the rational part (delays contribute no poles)."""
        return tuple(poly_roots(self.den))

    @cached_property
    def zeros(self) -> tuple[complex, ...]:
        if self.num.is_zero:
            return ()
        return tuple(poly_roots(self.num))

    @cached_property
    def _stack(self) -> "RationalStack":
        return RationalStack([self])

    def inverse(self) -> "TransferFunction":
        """den/num. The result may be improper; callers requiring properness
        must check it (see :class:`~nyqscale.errors.PropernessError`)."""
        if self.delay_s != 0.0:
            raise UnsupportedStructureError("cannot invert a delayed branch")
        if self.num.is_zero:
            raise InvalidInputError("cannot invert an identically zero function")
        return TransferFunction(self.den, self.num)

    # -- evaluation ------------------------------------------------------------
    def __call__(self, s):
        return tf_evaluate(self, s)

    # -- algebra -------------------------------------------------------------
    def __mul__(self, other):
        """Series composition: numerators and denominators multiply, delays
        add. A number scales the numerator."""
        if isinstance(other, TransferFunction):
            return TransferFunction(
                self.num * other.num, self.den * other.den, self.delay_s + other.delay_s
            )
        return TransferFunction(self.num * float(other), self.den, self.delay_s)

    __rmul__ = __mul__

    def __add__(self, other):
        """Parallel composition; a number is a constant branch. Both branches
        must carry the same delay."""
        if not isinstance(other, TransferFunction):
            other = TransferFunction.constant(float(other))
        if self.delay_s != other.delay_s:
            raise UnsupportedStructureError(
                "parallel composition needs equal delays "
                f"({self.delay_s} s vs {other.delay_s} s); keep the parts "
                "separate or rationalize them"
            )
        num = self.num * other.den + other.num * self.den
        return TransferFunction(num, self.den * other.den, self.delay_s)

    def rational(self, pade_order: int = PADE_ORDER) -> "TransferFunction":
        """This function with its delay replaced by the diagonal Pade
        approximant of order ``pade_order`` (see :func:`pade_delay`).
        Returns ``self`` when there is no delay, whatever the order."""
        if not self.delay_s:
            return self
        return TransferFunction(self.num, self.den) * pade_delay(self.delay_s, pade_order)

    def __repr__(self) -> str:
        d = f", delay_s={self.delay_s}" if self.delay_s else ""
        return (
            f"TransferFunction({list(self.num.coefficients)}, "
            f"{list(self.den.coefficients)}{d})"
        )


class RationalStack:
    """Values of many functions at the same points, in one pass.

    An item is a :class:`TransferFunction`, num(s)/den(s) * exp(-s*delay_s),
    or a swing agent with ``inertia`` M, ``load_damping`` D and transfer
    function ``f_parts`` F_k (:class:`~nyqscale.powerplant.Agent`), whose
    value is 1/chi(s) with chi(s) = s^2 M + s (sum_k F_k(s) + D). The
    transfer functions, items and agents' parts alike, are grouped by
    (numerator length, denominator length, delayed or not), and each group
    is evaluated by one Horner pass over its coefficient rows; an agent
    sums its parts in part order. Each value is bit-identical to the same
    item's one-item evaluation (DECISIONS.md D12).

    ``stack(s)`` returns an array of shape (items, *shape(s)). A denominator
    or a chi that vanishes to within 1e-12 of its natural scale at a point
    raises PoleHitError carrying that point: the first one of the first
    item that has one, an agent's parts in order before its chi.
    """

    def __init__(self, items: Iterable):
        parts: list[TransferFunction] = []
        plain, agents, order = [], [], []
        for i, item in enumerate(items):
            if isinstance(item, TransferFunction):
                plain.append((i, len(parts)))
                order.append(([len(parts)], None))
                parts.append(item)
            else:
                rows = list(range(len(parts), len(parts) + len(item.f_parts)))
                order.append((rows, len(agents)))
                agents.append((i, item, rows))
                parts += item.f_parts
        P = len(parts)
        # the hit mask's rows (parts, then agents' chi) in the order they raise
        self._hit_order = [r for rows, a in order for r in rows + ([] if a is None else [P + a])]
        groups: dict[tuple, list[int]] = {}
        for row, f in enumerate(parts):
            key = (len(f.num.coefficients), len(f.den.coefficients), f.delay_s > 0)
            groups.setdefault(key, []).append(row)
        self._groups = []  # (rows, numerators, denominators, |denominators|, delays)
        for (_, _, delayed), rows in groups.items():
            N = np.array([parts[r].num.coefficients for r in rows])
            D = np.array([parts[r].den.coefficients for r in rows])
            delays = np.array([[parts[r].delay_s] for r in rows]) if delayed else None
            self._groups.append((_index(rows), N, D, np.abs(D).T, delays))
        self._items, self._parts = len(order), P
        self._plain = [_index([i for i, _ in plain]), _index([r for _, r in plain])]
        self._agents = None
        if agents:
            width = max(len(rows) for *_, rows in agents)
            # each part slot's row per agent; row P is a zero row for a part
            # the agent does not have (x + 0 == x, since no sum is -0.0)
            slots = [_index([rows[j] if j < len(rows) else P for *_, rows in agents])
                     for j in range(width)]
            self._agents = (_index([i for i, *_ in agents]), slots,
                            np.array([[a.inertia] for _, a, _ in agents], dtype=float),
                            np.array([[a.load_damping] for _, a, _ in agents], dtype=float))

    def __call__(self, s) -> np.ndarray:
        s_arr = np.asarray(s, dtype=complex)
        x = s_arr.reshape(-1)
        out = np.empty((self._items, x.size), dtype=complex)
        hit = np.empty((len(self._hit_order), x.size), dtype=bool)
        # points in blocks, so the temporaries stay within _STACK_BLOCK_BYTES
        cols = max(1, _STACK_BLOCK_BYTES // (16 * (len(self._hit_order) + 1)))
        with np.errstate(all="ignore"):  # pole hits raise below
            for lo in range(0, x.size, cols):
                self._fill(x[lo:lo + cols], out[:, lo:lo + cols], hit[:, lo:lo + cols])
        if hit.any():
            for r in self._hit_order:
                if hit[r].any():
                    raise PoleHitError(complex(x[hit[r].argmax()]))
        return out.reshape((self._items,) + s_arr.shape)

    def _fill(self, x: np.ndarray, out: np.ndarray, hit: np.ndarray) -> None:
        """Values at the points x into ``out``, and the parts' and then the
        agents' pole-hit masks into the rows of ``hit``."""
        vals = np.zeros((self._parts + 1, x.size), dtype=complex)
        t = np.maximum(1.0, np.abs(x))[:, None]
        for rows, N, D, D_abs_T, delays in self._groups:
            den = _horner(D, x)
            scale = (t ** np.arange(len(D_abs_T)) @ D_abs_T).T  # sum |d_k| max(1,|s|)^k
            hit[rows] = np.abs(den) <= 1e-12 * scale
            value = _horner(N, x) / den
            if delays is not None:
                value = value * np.exp(-x * delays)
            vals[rows] = value
        out[self._plain[0]] = vals[self._plain[1]]
        if self._agents is not None:
            items, slots, M, D = self._agents
            total = np.zeros((len(M), x.size), dtype=complex)
            mag = np.zeros((len(M), x.size))
            for slot in slots:
                value = vals[slot]
                total = total + value
                mag = mag + np.abs(value)
            chi = x * x * M + x * (total + D)
            scale = np.abs(x) ** 2 * M + np.abs(x) * (mag + D)
            hit[self._parts:] = np.abs(chi) <= 1e-12 * np.maximum(scale, 1e-300)
            out[items] = 1.0 / chi


def _index(rows: list[int]):
    """``rows`` as an index: a slice when they are contiguous, since basic
    indexing costs a fraction of fancy indexing on small arrays."""
    lo = rows[0] if rows else 0
    return slice(lo, lo + len(rows)) if rows == list(range(lo, lo + len(rows))) else rows


def tf_evaluate(g: TransferFunction, s):
    """num(s)/den(s) * exp(-s*delay_s); vectorized over s. The one-item case
    of :class:`RationalStack`, whose pole-hit rule raises PoleHitError
    (carrying the offending point) where the denominator vanishes to within
    1e-12 of its natural scale."""
    value = g._stack(s)[0]
    return value if np.ndim(s) else complex(value)


def mp_mirror(g: TransferFunction) -> TransferFunction:
    """Minimum-phase image of g: RHP zeros reflected across the imaginary
    axis, poles and |g(jw)| untouched, DC sign preserved.

    Precondition: g rational with no zero on the imaginary axis (within
    1e-9 relative), otherwise the mirror is ambiguous.
    """
    if g.delay_s != 0.0:
        raise UnsupportedStructureError("mp_mirror needs a rational function")
    if g.num.is_zero or g.num.degree == 0:
        return g
    zeros = np.array(g.zeros)
    scale = 1.0 + np.abs(zeros)
    on_axis = np.abs(zeros.real) <= AXIS_RTOL * scale
    if np.any(on_axis):
        raise AmbiguousMirrorError(
            f"zero(s) on the imaginary axis: {zeros[on_axis]}"
        )
    rhp = zeros.real > 0
    if not np.any(rhp):
        return g
    mirrored = zeros.copy()
    mirrored[rhp] = -np.conj(zeros[rhp])
    # all mirrored roots lie in the open LHP, so the positive-leading
    # representative has all-positive coefficients (the conventional one)
    coeffs = npp.polyfromroots(mirrored) * abs(g.num.leading)
    imag_leak = np.abs(coeffs.imag).max()
    if imag_leak > 1e-9 * max(1.0, np.abs(coeffs.real).max()):
        raise NumericalError("mirrored numerator failed to stay real")
    return TransferFunction(Polynomial(coeffs.real), g.den)


def pade_delay(tau: float, order: int) -> TransferFunction:
    """Diagonal Pade approximant of exp(-s*tau).

    Unit gain at s = 0 and all-pass magnitude on the imaginary axis. Meant
    for state-space realization only; frequency-domain sweeps keep the exact
    exponential. Order is limited to 1..5, the regime where the coefficient
    growth stays benign.
    """
    if not tau >= 0.0:
        raise InvalidInputError("tau must be nonnegative")
    if order not in (1, 2, 3, 4, 5):
        raise InvalidInputError("pade order must be in 1..5")
    if tau == 0.0:
        return TransferFunction.constant(1.0)
    q = order
    num = np.zeros(q + 1)
    den = np.zeros(q + 1)
    for k in range(q + 1):
        c = (
            math.factorial(2 * q - k)
            * math.factorial(q)
            / (math.factorial(2 * q) * math.factorial(k) * math.factorial(q - k))
        )
        num[k] = c * (-tau) ** k
        den[k] = c * tau**k
    return TransferFunction(Polynomial(num), Polynomial(den))


def _classify_poles(poles: Sequence[complex]):
    """Split into (strict RHP, jw-axis) under the relative axis band."""
    rhp, axis = [], []
    for p in poles:
        scale = 1.0 + abs(p)
        if abs(p.real) <= AXIS_RTOL * scale:
            axis.append(complex(0.0, p.imag))
        elif p.real > 0:
            rhp.append(p)
    return rhp, axis


def jw_axis_poles(g: TransferFunction) -> list[complex]:
    """Poles lying on the imaginary axis (within the relative axis band);
    these are the Nyquist-contour indentation candidates."""
    if g.num.is_zero:
        return []
    return _classify_poles(g.poles)[1]


def rhp_poles_in_region(g: TransferFunction, r: float) -> list[complex]:
    """Open-loop unstable poles enclosed by the D_r-contour: strict-RHP
    poles p with |p| >= r. With r = 0 this is the plain RHP pole set used
    for N in the generalized Nyquist count.

    Poles on the imaginary axis are never returned -- the contour indents
    around them, leaving them outside the enclosed region. A pole whose
    modulus falls within 1e-6*r of r raises BoundaryAmbiguityError (the
    caller must adjust r); an RHP pole within 1e-6 (relative) of a zero
    raises RhpCancellationError.
    """
    if not r >= 0.0:
        raise InvalidInputError("region radius r must be nonnegative")
    if g.num.is_zero:
        return []
    rhp, _axis = _classify_poles(g.poles)
    if rhp:
        zeros = np.array(g.zeros) if g.num.degree > 0 else np.array([])
        for p in rhp:
            if zeros.size:
                gap = np.abs(zeros - p).min()
                if gap <= RHP_CANCEL_BAND * (1.0 + abs(p)):
                    raise RhpCancellationError(
                        f"RHP pole {p:.6g} nearly cancelled by a zero "
                        f"(gap {gap:.3g}); criteria assume no internal RHP "
                        "pole-zero cancellations"
                    )
    selected = []
    for p in rhp:
        if r > 0.0 and abs(abs(p) - r) <= BOUNDARY_BAND * r:
            raise BoundaryAmbiguityError(
                f"pole {p:.6g} has modulus within {BOUNDARY_BAND:g}*r of the "
                f"contour radius r = {r:g}; adjust r"
            )
        if abs(p) >= r:
            selected.append(p)
    return selected
