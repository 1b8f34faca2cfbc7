"""Circle quadrature on a slice realizing the reproducing and mapping integrals.

The contour is the circle of radius rho in the slice C_I of a unit I, sampled
at N equispaced nodes; the trapezoidal rule converges spectrally on these
periodic analytic integrands (Trefethen and Weideman, SIAM Review 56(3),
2014), so the default N = 512 is far past the point where results stop moving.

Every integrand is a noncommutative sandwich: kernel value, then the scalar
line element dw_I = exp(I theta) rho dtheta, then the slice derivative of the
integrated function, in exactly that order (the tests keep a witness that
moving dw_I changes the answer).  All node work stays in C_I as Python
complex: with J = canonical_perp(I) every quaternion is a + b J for a, b in
C_I, and J c = conj(c) J, so one driver, _contour_sum, serves all four
integrals, reading the coefficients as split once by slicefn.restrict.
Per-component math.fsum makes results bit-for-bit reproducible for a given N;
they move only in the last ulps from the per-node quaternion route, which
verify keeps as the independent reference.  No numpy: its import alone costs
about 11 MB RSS and 160 ms per CLI start.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from . import kernels
from .errors import OnSingularSphere, OrderMismatch, OutsideContour
from .quat import Quaternion, UnitImaginary, quatf
from .slicefn import (
    RightSlicePolyFn, SlicePolyFn, _finite, canonical_perp, restrict, split_coeff, split_frame)

#: accepted node counts: MIN_NODES <= N <= MAX_NODES
MIN_NODES = 4
MAX_NODES = 2**20


@dataclass(frozen=True)
class CirclePath:
    """Quadrature contour: N nodes on the circle of radius rho in one slice.

    Node counts are conventionally powers of two (default 512) so doubling
    studies reuse even subgrids; any N in [MIN_NODES, MAX_NODES] is accepted.
    """

    unit: UnitImaginary
    rho: float = 1.0
    n: int = 512
    _z: tuple = field(init=False, repr=False, compare=False)
    _perp: UnitImaginary = field(init=False, repr=False, compare=False)
    _frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError("radius must be positive and finite")
        if not MIN_NODES <= self.n <= MAX_NODES:
            raise ValueError(f"node count must lie in [{MIN_NODES}, {MAX_NODES}]")
        unit = self.unit.to_float()
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_perp", canonical_perp(unit))
        object.__setattr__(self, "_frame", split_frame(unit, self._perp))
        dtheta, rho = 2.0 * math.pi / self.n, self.rho
        object.__setattr__(self, "_z", tuple(  # the nodes w_m, as complex numbers of the slice
            complex(rho * math.cos(dtheta * m), rho * math.sin(dtheta * m)) for m in range(self.n)))

    def nodes(self) -> tuple:
        """Pairs (w_m, dw_m) of float quaternions in node order, built on each call."""
        u = self.unit.u
        dtheta = 2.0 * math.pi / self.n
        return tuple((quatf(z.real) + u * z.imag, quatf(z.real * dtheta) + u * (z.imag * dtheta))
                     for z in self._z)


def _require_inside(q: Quaternion, path: CirclePath) -> Quaternion:
    q = q.to_float()
    if not all(map(math.isfinite, (q.w, q.x, q.y, q.z))):
        raise ValueError(f"point {q} is not finite")
    if abs(q) >= path.rho:
        raise OutsideContour(f"|q| = {abs(q)} is not inside radius {path.rho}")
    return q


def _reduce(terms: list[Quaternion], scale: float) -> Quaternion:
    return Quaternion(*(math.fsum(getattr(t, c) for t in terms) * scale for c in "wxyz"))


def _contour_sum(path: CirclePath, left: Callable, right: Callable, scale: float) -> Quaternion:
    """scale * sum over nodes of left(z) dz right(z), dz = z dtheta.

    left(z), right(z): equally long lists of complex pairs (a, b) for a + b J;
    (a + b J) dz (p + q J) = [a dz p - b conj(dz q)] + [a dz q + b conj(dz p)] J.
    """
    s1, s2 = [], []
    for z in path._z:
        for (a, b), (p, q) in zip(left(z), right(z)):
            u, v = z * p, z * q
            s1.append(a * u - b * v.conjugate())
            s2.append(a * v + b * u.conjugate())
    parts = (operator.attrgetter("real"), operator.attrgetter("imag"))
    r1, i1, r2, i2 = (math.fsum(map(part, s)) for s in (s1, s2) for part in parts)
    iu, ju, ku = path._frame
    out = (quatf(r1) + iu * i1 + ju * r2 + ku * i2) * (scale * 2.0 * math.pi / path.n)
    _finite(sum(map(abs, (out.w, out.x, out.y, out.z))), "the integral")
    return out


def _kernel_left(q: Quaternion, path: CirclePath, const: float, power: int) -> Callable:
    """left(z) for (w - conj q) const D^(-power), D = w^2 - 2 Re(q) w + |q|^2, guarded as in kernels."""
    c1, c2 = split_coeff(q.conjugate(), path._frame)
    q0, norm2, qv = q.w, q.norm_sq(), math.sqrt(q.vec_norm_sq())

    def left(z: complex) -> tuple:
        if abs(q0 - z.real) + abs(qv - abs(z.imag)) < kernels.SINGULAR_GUARD:
            w = quatf(z.real) + path.unit.u * z.imag
            raise OnSingularSphere(f"q={q} lies on the singular sphere of s={w}")
        inv = 1.0 / (z * z - z * (2.0 * q0) + norm2)
        kappa = const * inv if power == 1 else const * inv * inv
        return ((z - c1) * kappa, -c2 * kappa.conjugate()),

    return left


def poly_cauchy_eval(f: SlicePolyFn, q: Quaternion, path: CirclePath) -> Quaternion:
    """Reproduce f(q) from boundary data of all slice CR derivatives.

    Quadrature of (1/2 pi) sum_j (-2)^j [s_inv(w,q) Re(w-q)^j / j!] dw_I
    (d/d conj z)^j f(w) over the contour; the real factors (-2 Re(w-q))^j / j!
    commute, so they ride with the derivatives.
    """
    q = _require_inside(q, path)
    # CR^j f = 0 from the trimmed order on
    derivs = restrict(f, path.unit, path._perp).cr_values(range(f.trim().order))

    def right(z: complex) -> tuple:
        t, e, p, r = -2.0 * (z.real - q.w), 1.0, 0j, 0j
        for j, (pj, qj) in enumerate(derivs(z)):
            p, r, e = p + e * pj, r + e * qj, e * t / (j + 1)
        return ((p, r),)

    return _contour_sum(path, _kernel_left(q, path, 1.0, 1), right, 0.5 / math.pi)


def fueter_integral(f: SlicePolyFn, q: Quaternion, path: CirclePath) -> Quaternion:
    """Integral form of the order-n Fueter map: matches tau_n of the expansion.

    Quadrature of (2^(n-1) / 2 pi) [laplacian s_inv](w, q) dw_I
    (d/d conj z)^(n-1) f(w), where laplacian s_inv = -4 (w - conj q) D^(-2).
    """
    q = _require_inside(q, path)
    scale = _finite(2 ** (f.order - 1), "the order prefactor") / (2.0 * math.pi)
    top = restrict(f, path.unit, path._perp).cr_values((f.order - 1,))
    return _contour_sum(path, _kernel_left(q, path, -4.0, 2), top, scale)


def fueter_integral_explicit(f: SlicePolyFn, q: Quaternion, path: CirclePath) -> Quaternion:
    """Same map written with the expanded kernel (conj q - w) D(w,q)^(-2) and prefactor 2^n / pi.

    -1 * 2^n/pi = -4 * 2^(n-1)/(2 pi) is exact in binary64, so this is the same
    computation as fueter_integral, kept as the name that the benchmark's fixed
    metric quad.fueter_integral_explicit.self_s and its ``explicit`` op time.
    """
    return fueter_integral(f, q, path)


def cauchy_theorem_residual(
    f: SlicePolyFn, g: RightSlicePolyFn, path: CirclePath
) -> Quaternion:
    """Value of the bilinear boundary integral pairing g against f.

    sum_j (-1)^j [right CR^(n-1-j) g](w) dw_I [CR^j f](w) integrated over the
    contour; vanishes (to quadrature accuracy) when both sides are slice
    polyanalytic of the same order on a neighborhood of the closed disk.
    """
    if f.order != g.order:
        raise OrderMismatch(f"orders differ: {f.order} vs {g.order}")
    n = f.order
    rder = restrict(g, path.unit, path._perp).cr_values(range(n - 1, -1, -1))

    def left(z: complex) -> list:
        return [(a, b) if j % 2 == 0 else (-a, -b) for j, (a, b) in enumerate(rder(z))]

    return _contour_sum(path, left, restrict(f, path.unit, path._perp).cr_values(range(n)), 1.0)


def unit_independence_check(
    f: SlicePolyFn,
    q: Quaternion,
    unit1: UnitImaginary,
    unit2: UnitImaginary,
    rho: float = 1.0,
    n: int = 512,
) -> float:
    """Absolute gap between the Cauchy integrals of f at q over two slice contours."""
    a = poly_cauchy_eval(f, q, CirclePath(unit1, rho, n))
    b = poly_cauchy_eval(f, q, CirclePath(unit2, rho, n))
    return abs(a - b)
