"""Proper rational transfer functions with an optional pure time delay.

Exact polynomial arithmetic and evaluation for the SISO blocks every
criterion in this package is built from. ``*`` composes in series and ``+``
in parallel. Frequency-domain sweeps always use the exact exponential for
delays; state-space work and pole counts rationalize them through
:meth:`TransferFunction.rational`, the package's only Pade substitution.

All values are immutable after construction and every operation is a pure
function, so the same objects may be evaluated from many threads.

Numerical contracts (module constants below):

* root residuals: every root r returned by :func:`poly_roots` satisfies
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
    "poly_roots",
    "tf_evaluate",
    "mp_mirror",
    "pade_delay",
    "rhp_poles_in_region",
    "jw_axis_poles",
]

ROOT_RESIDUAL_RTOL = 1e-8
RHP_CANCEL_BAND = 1e-6
BOUNDARY_BAND = 1e-6
AXIS_RTOL = 1e-9


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
        return Polynomial(npp.polyadd(self.as_array(), other.as_array()))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return Polynomial(npp.polymul(self.as_array(), other.as_array()))
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


def poly_roots(p: Polynomial) -> list[complex]:
    """All ``deg(p)`` roots of p, with multiplicity.

    Companion-matrix eigenvalues (LAPACK-balanced) on max-|coefficient|
    normalized input, followed by up to two Newton polish steps per root.
    Residual contract: |p(r)| <= 1e-8 * sum |c_k| max(1,|r|)^k.
    """
    p = as_polynomial(p)
    if p.is_zero:
        raise InvalidInputError("zero polynomial has no well-defined roots")
    if p.degree == 0:
        return []
    c = p.as_array()
    c = c / np.abs(c).max()
    roots = npp.polyroots(c)
    dp = npp.polyder(c)
    for _ in range(2):
        val = npp.polyval(roots, c)
        dval = npp.polyval(roots, dp)
        step = np.where(dval != 0, val / np.where(dval == 0, 1.0, dval), 0.0)
        cand = roots - step
        better = np.abs(npp.polyval(cand, c)) < np.abs(val)
        roots = np.where(better, cand, roots)
    scaled = Polynomial(c)
    residual = np.abs(npp.polyval(roots, c))
    bound = ROOT_RESIDUAL_RTOL * scaled.residual_scale(roots)
    if np.any(residual > bound):
        worst = float((residual / bound).max())
        raise NumericalError(
            f"root residual exceeds contract by factor {worst:.3g} "
            f"(degree {p.degree})"
        )
    return [complex(r) for r in roots]


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

    def rational(self, pade_order: int | None) -> "TransferFunction":
        """This function with its delay replaced by the diagonal Pade
        approximant of order ``pade_order`` (see :func:`pade_delay`).

        Returns ``self`` when there is no delay, whatever the order. A
        delayed function has no rational form without an order, so ``None``
        raises InvalidInputError.
        """
        if not self.delay_s:
            return self
        if pade_order is None:
            raise InvalidInputError("a delay is rational only at a pade_order")
        return TransferFunction(self.num, self.den) * pade_delay(self.delay_s, pade_order)

    def __repr__(self) -> str:
        d = f", delay_s={self.delay_s}" if self.delay_s else ""
        return (
            f"TransferFunction({list(self.num.coefficients)}, "
            f"{list(self.den.coefficients)}{d})"
        )


def tf_evaluate(g: TransferFunction, s):
    """num(s)/den(s) * exp(-s*delay_s); vectorized over s.

    Raises :class:`PoleHitError` (carrying the offending point) when the
    denominator vanishes to within 1e-12 of its natural scale at s.
    """
    s_arr = np.asarray(s, dtype=complex)
    den_val = g.den(s_arr)
    scale = g.den.residual_scale(s_arr)
    hit = np.abs(den_val) <= 1e-12 * scale
    if np.any(hit):
        bad = s_arr[hit] if s_arr.ndim else s_arr
        raise PoleHitError(complex(np.atleast_1d(bad)[0]))
    value = g.num(s_arr) / den_val
    if g.delay_s:
        value = value * np.exp(-s_arr * g.delay_s)
    return value if s_arr.ndim else complex(value)


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
    zeros = np.array(poly_roots(g.num))
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
