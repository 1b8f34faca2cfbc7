"""Pointwise float evaluation of the slice Cauchy kernels.

The kernels are rational, not polynomial, so they are never built
symbolically; every structural claim about them is checked through the
finite-difference oracle or through quadrature.  All arguments must be
float-backed quaternions.  They compute on component floats in the operation
order of the Quaternion route ``(s - q.conjugate()) * D.inverse()``, so each
value is bit-identical to it, and build one Quaternion per result.
"""

from __future__ import annotations

import math

from .errors import OnSingularSphere
from .quat import Quaternion, _hamilton

#: evaluation closer than this to the singular sphere raises OnSingularSphere
SINGULAR_GUARD = 1e-9


def _parts(s: Quaternion, q: Quaternion) -> tuple[tuple, tuple]:
    """(s - conj q) and D(s, q)^(-1), with D = s^2 - 2 Re(q) s + |q|^2, as component tuples."""
    sw, sx, sy, sz = s.w, s.x, s.y, s.z
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    if type(sw) is not float or type(qw) is not float:
        raise TypeError("s and q must be float-backed; call to_float() first")
    gap = abs(qw - sw) + abs(math.sqrt(qx * qx + qy * qy + qz * qz)
                            - math.sqrt(sx * sx + sy * sy + sz * sz))
    if gap < SINGULAR_GUARD:
        raise OnSingularSphere(f"q={q} lies on the singular sphere of s={s}")
    # s*s - s*(2 Re q) + (|q|^2, 0.0, 0.0, 0.0), rounded step by step as the operators do
    t = 2.0 * qw
    dw = sw * sw - sx * sx - sy * sy - sz * sz - sw * t + (qw * qw + qx * qx + qy * qy + qz * qz)
    dx = sw * sx + sx * sw + sy * sz - sz * sy - sx * t + 0.0
    dy = sw * sy - sx * sz + sy * sw + sz * sx - sy * t + 0.0
    dz = sw * sz + sx * sy - sy * sx + sz * sw - sz * t + 0.0
    if not 0.0 < (n2 := dw * dw + dx * dx + dy * dy + dz * dz) < math.inf:  # as quad refuses
        raise OnSingularSphere(f"D(s, q) rounds to 0 at s={s} for q={q}") if n2 == 0.0 \
            else ValueError(f"|D(s, q)|^2 is beyond the float range at s={s} for q={q}")
    r = 1.0 / n2  # D's inverse is conj(D) * r
    # s - conj q: x - (-y) is x + y in IEEE arithmetic
    return (sw - qw, sx + qx, sy + qy, sz + qz), (dw * r, -dx * r, -dy * r, -dz * r)


def s_inv(s: Quaternion, q: Quaternion) -> Quaternion:
    """Slice Cauchy kernel (s - conj q)(s^2 - 2 Re(q) s + |q|^2)^(-1).

    Left slice regular in q, right slice regular in s; reduces to (s - q)^(-1)
    when both arguments share a slice.
    """
    return Quaternion._new(*_hamilton(*_parts(s, q)))


def delta_s_inv(s: Quaternion, q: Quaternion) -> Quaternion:
    """Laplacian image of the slice Cauchy kernel: -4 (s - conj q) D(s, q)^(-2).

    Fueter regular in q away from the singular sphere.
    """
    num, inv = _parts(s, q)
    w, x, y, z = _hamilton(num, _hamilton(inv, inv))
    return Quaternion._new(w * -4.0, x * -4.0, y * -4.0, z * -4.0)


def f_j(w: Quaternion, q: Quaternion, j: int) -> Quaternion:
    """Order-j reproducing kernel s_inv(w, q) * Re(w - q)^j / j!.

    j = 0 is exactly the slice Cauchy kernel.
    """
    if j < 0:
        raise ValueError("kernel index must be nonnegative")
    a, b, c, d = _hamilton(*_parts(w, q))
    if j == 0:
        return Quaternion._new(a, b, c, d)
    t = (w.w - q.w) ** j / math.factorial(j)
    return Quaternion._new(a * t, b * t, c * t, d * t)
