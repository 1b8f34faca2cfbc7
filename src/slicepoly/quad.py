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
integrals, reading the coefficients as split once by restrict.
Per-component math.fsum makes results bit-for-bit reproducible for a given N;
they move only in the last ulps from the per-node quaternion route, which
verify keeps as the independent reference.  No numpy: its import alone costs
about 11 MB RSS and 160 ms per CLI start.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable

from . import kernels
from .errors import NotOrthogonal, OnSingularSphere, OrderMismatch, OutsideContour
from .quat import Quaternion, UnitImaginary, quatf
from .slicefn import RightSlicePolyFn, SlicePolyFn

#: accepted node counts: MIN_NODES <= N <= MAX_NODES
MIN_NODES = 4
MAX_NODES = 2**20
#: restrict scales split parts above 2^PRESCALE down to it; the residual multiplies two such sides
PRESCALE = 256


# -- slice restriction and splitting -------------------------------------------


def _dot4(a: Quaternion, b: Quaternion) -> float:
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


def canonical_perp(i: UnitImaginary) -> UnitImaginary:
    """A deterministic unit orthogonal to i: normalize i x e1, or i x e2 when i x e1 is exactly 0."""
    u = i.to_float().u
    vx, vy, vz = 0.0, u.z, -u.y          # cross(vec(i), e1)
    if not (vy or vz):                   # i = +-e1; from_vector rescales a tiny i x e1 exactly
        vx, vy, vz = -u.z, 0.0, u.x      # cross(vec(i), e2)
    return UnitImaginary.from_vector(vx, vy, vz)


def split_frame(i: UnitImaginary, j: UnitImaginary) -> tuple[Quaternion, Quaternion, Quaternion]:
    """Float units (i, j, k = ij) of a splitting; NotOrthogonal unless i and j anticommute."""
    i, j = i.to_float(), j.to_float()
    if not abs(i.u * j.u + j.u * i.u) <= 1e-12:
        raise NotOrthogonal("the chosen units do not anticommute")
    return i.u, j.u, (i.u * j.u).vec()


def split_coeff(a: Quaternion, frame: tuple) -> tuple[complex, complex]:
    """The pair (c1, c2) with a = c1 + c2 j and c1, c2 on the slice of i, as complex numbers."""
    av = a.to_float()
    iu, ju, ku = frame
    return complex(av.w, _dot4(av, iu)), complex(_dot4(av, ju), _dot4(av, ku))


def restrict(f: SlicePolyFn | RightSlicePolyFn, frame: tuple, js) -> Callable[[complex], list]:
    """values(z) -> [(P_j, Q_j) for j in js] with CR^j f = P_j + Q_j J at z on the slice of I.

    The one place that splits a left or right function's coefficients: over a
    split_frame triple (I, J, IJ), a = c1 + c2 J with c1, c2 on the slice of I,
    as complex numbers via 1 -> 1, I -> i.  CR^j f = sum_{k>=j} k!/(k-j)!
    conj(z)^(k-j) (F_k(z) + G_k(z) J) by Horner sums; for a right function
    J z^m = conj(z)^m J swaps z and conj(z) in G_k and in its power factor.
    Only the components that js reads (k >= min(js)) are split; the others stay ().
    Weights beyond the float range raise ValueError.  If a part exceeds 2^PRESCALE, every part
    is scaled by 2^-e so that none does, ``values.shift`` is e (else 0) and the integral adds e
    to the exponent of _contour_sum.  So a float integral is accurate relative to the largest
    split part that it reads, and a part more than 2^1278 below that part may lose bits.
    """
    right_sided = isinstance(f, RightSlicePolyFn)
    comps = f.components if right_sided else [c.coeffs for c in f.components]
    low = min(js)
    pairs = [tuple(split_coeff(a, frame) for a in reversed(cs)) if k >= low else ()
             for k, cs in enumerate(comps)]
    while pairs and not pairs[-1]:
        pairs.pop()
    top = max((abs(v) for cs in pairs for c in cs for p in c for v in (p.real, p.imag)), default=0.0)
    shift = max(math.frexp(top)[1] - PRESCALE, 0)
    if shift:
        s = 2.0 ** -shift
        pairs = [tuple(tuple(complex(p.real * s, p.imag * s) for p in c) for c in cs) for cs in pairs]
    try:
        plans = [[(k, float(math.perm(k, j)) if pairs[k] else 0.0)
                  for k in range(len(pairs) - 1, j - 1, -1)] for j in js]
    except OverflowError:
        raise ValueError("a derivative weight k!/(k-j)! is beyond the float range") from None

    def values(z: complex) -> list:
        zb = z.conjugate()
        zq, zqb = (zb, z) if right_sided else (z, zb)
        fk = []
        for cs in pairs:
            p = q = 0j
            for c1, c2 in cs:
                p, q = p * z + c1, q * zq + c2
            fk.append((p, q))
        out = []
        for plan in plans:
            p = q = 0j
            for k, weight in plan:
                p, q = p * zb + weight * fk[k][0], q * zqb + weight * fk[k][1]
            out.append((p, q))
        return out

    values.shift = shift
    return values


class CirclePath:
    """Quadrature contour: N nodes on the circle of radius rho in one slice.

    Node counts are conventionally powers of two (default 512) so doubling
    studies reuse even subgrids; any N in [MIN_NODES, MAX_NODES] is accepted.
    ``_frame`` is the split_frame of (unit, canonical_perp(unit)), computed once
    for every integral over this contour.
    """

    __slots__ = ("unit", "rho", "n", "_z", "_frame")

    def __init__(self, unit: UnitImaginary, rho: float = 1.0, n: int = 512):
        if not 0.0 < rho < math.inf:
            raise ValueError("radius must be positive and finite")
        if not MIN_NODES <= n <= MAX_NODES:
            raise ValueError(f"node count must lie in [{MIN_NODES}, {MAX_NODES}]")
        self.unit = unit = unit.to_float()
        self.rho, self.n = rho, n
        self._frame = split_frame(unit, canonical_perp(unit))
        dtheta = 2.0 * math.pi / n
        self._z = tuple(  # the nodes w_m, as complex numbers of the slice
            complex(rho * math.cos(dtheta * m), rho * math.sin(dtheta * m)) for m in range(n))

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


def _contour_sum(path: CirclePath, left: Callable, right: Callable, scale: float,
                 exp: int) -> Quaternion:
    """2^exp scale * sum over nodes of left(z) dz right(z), dz = z dtheta.

    left(z), right(z): equally long lists of complex pairs (a, b) for a + b J;
    (a + b J) dz (p + q J) = [a dz p - b conj(dz q)] + [a dz q + b conj(dz p)] J.
    exp carries every power of two (prescale shifts, the Fueter prefactor): each component is
    the exact product c k 2^exp rounded once, and ValueError refuses one beyond the float range.
    """
    s1, s2 = [], []
    for z in path._z:
        for (a, b), (p, q) in zip(left(z), right(z)):
            u, v = z * p, z * q
            s1.append(a * u - b * v.conjugate())
            s2.append(a * v + b * u.conjugate())
    parts = (operator.attrgetter("real"), operator.attrgetter("imag"))
    iu, ju, ku = path._frame
    try:
        r1, i1, r2, i2 = (math.fsum(map(part, s)) for s in (s1, s2) for part in parts)
        out = quatf(r1) + iu * i1 + ju * r2 + ku * i2
        k = Fraction(scale * 2.0 * math.pi / path.n) * 2**exp  # exact: float() rounds once
        return quatf(*(math.copysign(float(Fraction(c) * k), c)  # copysign keeps a -0.0
                       for c in (out.w, out.x, out.y, out.z)))
    except (OverflowError, ValueError):  # a partial sum or a component leaves the float range
        raise ValueError("the integral is beyond the float range") from None


def _kernel_left(q: Quaternion, path: CirclePath, const: float, power: int) -> Callable:
    """left(z) for (w - conj q) const D^(-power), D = w^2 - 2 Re(q) w + |q|^2, guarded as in kernels."""
    c1, c2 = split_coeff(q.conjugate(), path._frame)
    q0, norm2, qv = q.w, q.norm_sq(), math.sqrt(q.vec_norm_sq())

    def node(z: complex) -> Quaternion:
        return quatf(z.real) + path.unit.u * z.imag

    def left(z: complex) -> tuple:
        if abs(q0 - z.real) + abs(qv - abs(z.imag)) < kernels.SINGULAR_GUARD:
            raise OnSingularSphere(f"q={q} lies on the singular sphere of s={node(z)}")
        try:
            inv = 1.0 / (z * z - z * (2.0 * q0) + norm2)
        except ZeroDivisionError:  # D cancels to 0 in rounding, at a scale far above the guard
            raise OnSingularSphere(f"D(s, q) rounds to 0 at s={node(z)} for q={q}") from None
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
    derivs = restrict(f, path._frame, range(f.trim().order))

    def right(z: complex) -> tuple:
        t, e, p, r = -2.0 * (z.real - q.w), 1.0, 0j, 0j
        for j, (pj, qj) in enumerate(derivs(z)):
            p, r, e = p + e * pj, r + e * qj, e * t / (j + 1)
        return ((p, r),)

    return _contour_sum(path, _kernel_left(q, path, 1.0, 1), right, 0.5 / math.pi, derivs.shift)


def fueter_integral(f: SlicePolyFn, q: Quaternion, path: CirclePath) -> Quaternion:
    """Integral form of the order-n Fueter map: matches tau_n of the expansion.

    Quadrature of (2^(n-1) / 2 pi) [laplacian s_inv](w, q) dw_I
    (d/d conj z)^(n-1) f(w), where laplacian s_inv = -4 (w - conj q) D^(-2), with 2^(n-1)
    in the exponent of _contour_sum.
    """
    q = _require_inside(q, path)
    top = restrict(f, path._frame, (f.order - 1,))
    return _contour_sum(path, _kernel_left(q, path, -4.0, 2), top, 0.5 / math.pi,
                        top.shift + f.order - 1)


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
    rder = restrict(g, path._frame, range(n - 1, -1, -1))

    def left(z: complex) -> list:
        return [(a, b) if j % 2 == 0 else (-a, -b) for j, (a, b) in enumerate(rder(z))]

    fder = restrict(f, path._frame, range(n))
    return _contour_sum(path, left, fder, 1.0, rder.shift + fder.shift)


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
