"""Quaternion arithmetic over two scalar backends.

A quaternion ``w + x*e1 + y*e2 + z*e3`` either carries exact rational
components (``fractions.Fraction``) or binary64 components.  The backend is
fixed per value, arithmetic never mixes backends, and the only way from exact
to float is the explicit ``to_float`` call.  Exact values feed the polynomial
operator calculus; float values feed kernel evaluation and quadrature.

All values are immutable and all operations are pure, so everything here can
be shared freely between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction | float

#: default absolute tolerance for float comparisons of O(1) quantities
DEFAULT_TOL = 1e-12

_UNIT_ULPS = 8 * sys.float_info.epsilon

_MIXED = "mixed scalar backends; convert explicitly with to_float()"


@dataclass(frozen=True, slots=True)
class Quaternion:
    """A quaternion with homogeneous scalar components.

    Integer and ``Fraction`` components form the exact backend; a single
    float component makes the whole value float-backed.  Mixing a float with
    a ``Fraction`` raises, since that would silently lose exactness.
    """

    w: Scalar
    x: Scalar
    y: Scalar
    z: Scalar

    def __post_init__(self):
        comps = (self.w, self.x, self.y, self.z)
        if any(type(c) is float for c in comps):
            if any(isinstance(c, Fraction) for c in comps):
                raise TypeError("cannot mix float and exact components; use to_float()")
            for name, c in zip("wxyz", comps):
                if type(c) is not float:
                    object.__setattr__(self, name, float(c))
        else:
            # exact backend: ints stay ints (fast path), Fractions appear only
            # where division forces them; both are exact and interoperate
            for name, c in zip("wxyz", comps):
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"unsupported scalar type {type(c).__name__}")

    # -- backend ----------------------------------------------------------

    @classmethod
    def _new(cls, w, x, y, z) -> "Quaternion":
        # trusted fast path for arithmetic results: components are already homogeneous,
        # so skip normalization; the slots' own descriptors bypass the frozen __setattr__
        q = object.__new__(cls)
        _set_w(q, w)
        _set_x(q, x)
        _set_y(q, y)
        _set_z(q, z)
        return q

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.w, float)

    def to_float(self) -> "Quaternion":
        """Explicit one-way conversion to the binary64 backend."""
        if not self.is_exact:
            return self
        return Quaternion._new(float(self.w), float(self.x), float(self.y), float(self.z))

    # -- ring structure ----------------------------------------------------
    # a value's components share one backend, so a type test on w tells it

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, e = self.w, other.w
        if (type(a) is float) is not (type(e) is float):
            raise TypeError(_MIXED)
        return Quaternion._new(a + e, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, e = self.w, other.w
        if (type(a) is float) is not (type(e) is float):
            raise TypeError(_MIXED)
        return Quaternion._new(a - e, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion._new(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        a, b, c, d = self.w, self.x, self.y, self.z
        if isinstance(other, Quaternion):
            e, f, g, h = other.w, other.x, other.y, other.z
            if (type(a) is float) is not (type(e) is float):
                raise TypeError(_MIXED)
            # _hamilton inlined: the extra call and tuple are measurable on scalar products
            return Quaternion._new(
                a * e - b * f - c * g - d * h,
                a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f,
                a * h + b * g - c * f + d * e,
            )
        if isinstance(other, (float, int, Fraction)):
            # an int scales either backend; a float or Fraction must match it
            if (type(a) is float) is not isinstance(other, float) and not isinstance(other, int):
                raise TypeError(_MIXED)
            return Quaternion._new(a * other, b * other, c * other, d * other)
        return NotImplemented

    __rmul__ = __mul__  # real scalars commute; a Quaternion left operand never gets here

    def __pow__(self, n: int) -> "Quaternion":
        if not isinstance(n, int) or n < 0:
            raise ValueError("quaternion powers are defined for nonnegative integers")
        result = Quaternion(1, 0, 0, 0) if self.is_exact else Quaternion(1.0, 0.0, 0.0, 0.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- involutions and norms ---------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion._new(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> Scalar:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def vec_norm_sq(self) -> Scalar:
        """Squared norm of the vector part."""
        return self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        n2 = self.norm_sq()
        if type(n2) is not float or 2.0**-960 <= n2 < math.inf:  # exact, or the squares are safe
            return math.sqrt(float(n2))
        return math.hypot(self.w, self.x, self.y, self.z)  # squares overflowed or lost bits

    def vec(self) -> "Quaternion":
        return Quaternion._new(0 if self.is_exact else 0.0, self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return not (self.w or self.x or self.y or self.z)

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if not n2:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conjugate() * ((Fraction(1) if self.is_exact else 1.0) / n2)

    def approx_eq(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        return abs(self.to_float() - other.to_float()) <= tol

    # -- serialization -----------------------------------------------------

    def to_json(self):
        """JSON 4-array; exact scalars become "p/q" strings."""
        if self.is_exact:
            return [str(c) for c in (self.w, self.x, self.y, self.z)]
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_json(cls, data) -> "Quaternion":
        if isinstance(data, (int, float, str)):
            data = [data, 0, 0, 0]
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError("quaternion JSON must be a 4-array [w, x, y, z]")
        return cls(*(_scalar_from_json(c) for c in data))

    def __str__(self) -> str:
        return f"({self.w}, {self.x}, {self.y}, {self.z})"


_set_w, _set_x, _set_y, _set_z = (Quaternion.__dict__[n].__set__ for n in "wxyz")


def _hamilton(p: tuple, q: tuple) -> tuple:
    """The Hamilton product of two component tuples (w, x, y, z)."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _scalar_from_json(c) -> Scalar:
    if isinstance(c, str):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in quaternion JSON: {c!r}") from None
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise ValueError(f"bad scalar in quaternion JSON: {c!r}")
    if isinstance(c, float) and not math.isfinite(c):
        raise ValueError(f"non-finite scalar in quaternion JSON: {c!r}")
    return c


def quatf(w=0.0, x=0.0, y=0.0, z=0.0) -> Quaternion:
    """Float-backed quaternion from anything numeric."""
    return Quaternion(float(w), float(x), float(y), float(z))


ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)
E1 = Quaternion(0, 1, 0, 0)
E2 = Quaternion(0, 0, 1, 0)
E3 = Quaternion(0, 0, 0, 1)


@dataclass(frozen=True, slots=True)
class UnitImaginary:
    """An imaginary unit: zero real part and unit vector norm, so u*u == -1.

    The exact backend validates exactly; the float backend allows 8 ulps of
    drift on both conditions.
    """

    u: Quaternion

    def __post_init__(self):
        q = self.u
        if q.is_exact:
            if q.w != 0 or q.vec_norm_sq() != 1:
                raise ValueError(f"{q} is not an exact imaginary unit")
        elif not (abs(q.w) <= _UNIT_ULPS and abs(q.vec_norm_sq() - 1.0) <= _UNIT_ULPS):
            raise ValueError(f"{q} is not an imaginary unit within 8 ulps")

    @classmethod
    def from_vector(cls, x: float, y: float, z: float) -> "UnitImaginary":
        """Normalize a nonzero finite 3-vector (scaled norm, so any float range) into a float unit."""
        n = math.hypot(x, y, z)
        if not 0.0 < n < math.inf:
            raise ValueError(f"cannot normalize the vector ({x}, {y}, {z})")
        if n < sys.float_info.min:
            # a subnormal norm has lost precision: rescale exactly by a power of two first
            x, y, z = x * 2.0**600, y * 2.0**600, z * 2.0**600
            n = math.hypot(x, y, z)
        return cls(Quaternion(0.0, x / n, y / n, z / n))

    @property
    def is_exact(self) -> bool:
        return self.u.is_exact

    def to_float(self) -> "UnitImaginary":
        return self if not self.is_exact else UnitImaginary(self.u.to_float())

    def __str__(self) -> str:
        return str(self.u)


U1 = UnitImaginary(E1)
U2 = UnitImaginary(E2)
