"""Slice regular series and slice polyanalytic functions.

A slice regular (finite) series is ``f(q) = sum_m q^m a_m`` with right
quaternion coefficients.  A slice polyanalytic function of order n is an
ordered list ``(f_0, ..., f_{n-1})`` of such series representing
``f(q) = sum_k conj(q)^k f_k(q)``; the decomposition is unique, and this
module recovers it from a raw polynomial expansion, restricts functions to a
complex slice split over an orthogonal frame of units, takes
slice Cauchy-Riemann derivatives in closed form, and exposes the Appell ladder
of conjugate powers.

A function's expansion and its operator images are computed on its stem and
expanded once.  With q = x0 + v and s = |v|^2 = -v^2, each function is A(x0, s) +
v B(x0, s) (R. Ghiloni and A. Perotti, Adv. Math. 226, 2011).  The stem is the dict
{(part, i, j): c} of x0^i s^j c (part 0) and v x0^i s^j c (part 1), c on the right.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

from . import qpoly
from .errors import NotDivisible, NotInClass, NotOrthogonal
from .qpoly import QPoly
from .quat import E1, Quaternion, UnitImaginary, ZERO, quatf


def _horner(coeffs: Sequence[Quaternion], q: Quaternion, right_coeffs: bool) -> Quaternion:
    """sum_m q^m a_m (right coefficients) or sum_m a_m q^m; a float q converts exact a_m."""
    if not coeffs:
        return ZERO if q.is_exact else quatf()
    if not q.is_exact and coeffs[0].is_exact:
        coeffs = tuple(c.to_float() for c in coeffs)
    elif q.is_exact and not coeffs[0].is_exact:
        raise TypeError("cannot evaluate a float series at an exact point")
    acc = coeffs[-1]
    for m in range(len(coeffs) - 2, -1, -1):
        acc = (q * acc if right_coeffs else acc * q) + coeffs[m]
    return acc


class SliceRegularSeries:
    """Finite power series sum_m q^m a_m with right quaternion coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Quaternion] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not all(c.is_exact for c in coeffs) and any(c.is_exact for c in coeffs):
            # Quaternion's own rule across the series: int coefficients beside
            # a float become float, a Fraction beside a float raises
            if any(isinstance(v, Fraction) for c in coeffs for v in (c.w, c.x, c.y, c.z)):
                raise TypeError("cannot mix float and Fraction coefficients; use to_float()")
            coeffs = [c.to_float() for c in coeffs]
        self._coeffs = tuple(coeffs)

    @property
    def coeffs(self) -> tuple[Quaternion, ...]:
        return self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1 if self._coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_exact(self) -> bool:
        return not self._coeffs or self._coeffs[0].is_exact

    def __eq__(self, other) -> bool:
        if not isinstance(other, SliceRegularSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"SliceRegularSeries(degree={self.degree})"

    def evaluate(self, q: Quaternion) -> Quaternion:
        """Horner evaluation; a float point converts coefficients on the fly."""
        return _horner(self._coeffs, q, right_coeffs=True)

    def expand(self) -> QPoly:
        """Exact polynomial expansion sum_m (q^m as QPoly) a_m, built from the stem."""
        self._refuse()
        return qpoly._expand_stem(_stem([self]))

    def _refuse(self) -> None:
        """The refusals of expand: TypeError for a float series, DegreeCapExceeded above the cap."""
        if not self.is_exact:
            raise TypeError("only exact series expand to polynomials")
        qpoly._refuse_degree(self.degree)

    def scale(self, s) -> "SliceRegularSeries":
        """Multiply every coefficient by a real scalar."""
        return SliceRegularSeries([c * s for c in self._coeffs])

    def to_float(self) -> "SliceRegularSeries":
        return SliceRegularSeries([c.to_float() for c in self._coeffs])

    def to_json(self):
        return [c.to_json() for c in self._coeffs]

    @classmethod
    def from_json(cls, data) -> "SliceRegularSeries":
        if not isinstance(data, list):
            raise ValueError("series JSON must be a list of coefficients")
        return cls([Quaternion.from_json(c) for c in data])


class SlicePolyFn:
    """Slice polyanalytic function of declared order n as components (f_0..f_{n-1}).

    The declared order is an upper bound: trailing components may be zero.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[SliceRegularSeries]):
        components = tuple(components)
        if not components:
            raise ValueError("order must be at least 1")
        self._components = components

    @property
    def order(self) -> int:
        return len(self._components)

    @property
    def components(self) -> tuple[SliceRegularSeries, ...]:
        return self._components

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c in self._components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SlicePolyFn):
            return NotImplemented
        return self._components == other._components

    def __repr__(self) -> str:
        return f"SlicePolyFn(order={self.order})"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._components)

    def trim(self) -> "SlicePolyFn":
        """Drop trailing zero components down to the minimal order (at least 1)."""
        comps = list(self._components)
        while len(comps) > 1 and comps[-1].is_zero():
            comps.pop()
        return SlicePolyFn(comps)

    def evaluate(self, q: Quaternion) -> Quaternion:
        """sum_k conj(q)^k f_k(q), the order-0 slice CR sum."""
        return _cr_sum([c._coeffs for c in self._components], 0, q, left=True)

    def expand(self) -> QPoly:
        """Exact expansion sum_k conj(q)^k f_k as a polynomial in x0..x3, built from the stem."""
        return qpoly._expand_stem(self._checked_stem())

    def image(self, op: str, order: int | None = None) -> QPoly:
        """G, V, D, Dbar, laplacian, tau = laplacian o V^(n-1) (n ``order`` or the declared order)
        or c_n = sum_k x0^k laplacian(f_k) of the expansion, on the stem.  Each is refused where
        qpoly refuses that image of the expansion (c_n: also x0^k above the cap)."""
        comps = self._components
        if op == "c_n":
            for c in comps:
                c._refuse()
            qpoly._refuse_degree(max(k + max(c.degree - 2, 0) for k, c in enumerate(comps)))
            return qpoly._expand_stem(qpoly._merge(
                ((part, i + k, j), c) for k, comp in enumerate(comps)
                for (part, i, j), c in _laplacian_terms(_stem([comp]))))
        n = self.order if order is None else order
        stem = self._checked_stem(rise=op in ("G", "V") or op == "tau" and n > 1)
        while op == "tau" and n > 1 and stem:  # V^(n-1), which ends once the stem is empty
            stem, n = qpoly._merge(_first_order_terms(stem, *_FIRST_ORDER["V"])), n - 1
        terms = _laplacian_terms(stem) if op in ("laplacian", "tau") \
            else _first_order_terms(stem, *_FIRST_ORDER[op])
        return qpoly._expand_stem(qpoly._merge(terms))

    def fueter_image(self) -> QPoly:
        """laplacian o V^(order-1) of the expansion: a Fueter regular polynomial."""
        return self.image("tau")

    def _checked_stem(self, rise: bool = False) -> dict:
        """The stem, after the refusals of expand and, if ``rise``, of an image a degree higher."""
        degree = max(k + c.degree for k, c in enumerate(self._components))
        qpoly._refuse_degree(degree)
        for c in self._components:
            c._refuse()
        if rise:
            qpoly._refuse_degree(degree + 1)
        return _stem(self._components)

    def to_float(self) -> "SlicePolyFn":
        return SlicePolyFn([c.to_float() for c in self._components])

    def to_json(self) -> dict:
        return {"order": self.order, "components": [c.to_json() for c in self._components]}

    @classmethod
    def from_json(cls, data) -> "SlicePolyFn":
        return cls(_parse_fn_json(data))


#: largest declared order a function spec may carry; padding costs O(order)
MAX_ORDER = 4096


def _parse_fn_json(data) -> list[SliceRegularSeries]:
    if not isinstance(data, dict) or "order" not in data or "components" not in data:
        raise ValueError('function JSON must be {"order": n, "components": [...]}')
    order = data["order"]
    raw = data["components"]
    if type(order) is not int or not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [1, {MAX_ORDER}]")
    if not isinstance(raw, list) or len(raw) > order:
        raise ValueError("components must be a list with at most `order` entries")
    comps = [SliceRegularSeries.from_json(c) for c in raw]
    while len(comps) < order:
        comps.append(SliceRegularSeries())
    return comps


# -- stems ----------------------------------------------------------------------------

_FIRST_ORDER = {"V": (1, 1, 0), "G": (1, 1, 1), "D": (1, 3, 0), "Dbar": (-1, 3, 0)}


def _stem(comps: Sequence[SliceRegularSeries]) -> dict:
    """sum_k conj(q)^k f_k over exact components as a stem; zero coefficients add no entry."""
    return qpoly._merge((key, (n * w, n * x, n * y, n * z)) for k, comp in enumerate(comps)
                        for m, a in enumerate(comp._coeffs) if not a.is_zero()
                        for (w, x, y, z) in [qpoly._coef(a)] for key, n in qpoly._power_stem(k, m))


def _first_order_terms(stem: dict, sign: int, base: int, shift: int):
    """Rule (sign, base, shift): x0^i s^j c gives i c at (0, i-1, j) and 2j sign c at (1, i, j-1),
    v x0^i s^j c gives -sign (base + 2j) c at (0, i, j) and i c at (1, i-1, j); j rises by shift."""
    for (part, i, j), (w, x, y, z) in stem.items():
        if i:
            yield (part, i - 1, j + shift), (i * w, i * x, i * y, i * z)
        if part:
            n = -sign * (base + 2 * j)
            yield (0, i, j + shift), (n * w, n * x, n * y, n * z)
        elif j:
            n = 2 * j * sign
            yield (1, i, j - 1 + shift), (n * w, n * x, n * y, n * z)


def _laplacian_terms(stem: dict):
    """i(i-1) c at i-2, and 2j(2j+1) c (part 0) or 2j(2j+3) c (part 1) at j-1."""
    for (part, i, j), (w, x, y, z) in stem.items():
        if i > 1:
            n = i * (i - 1)
            yield (part, i - 2, j), (n * w, n * x, n * y, n * z)
        if j:
            n = 2 * j * (2 * j + 1 + 2 * part)
            yield (part, i, j - 1), (n * w, n * x, n * y, n * z)


def decompose(p: QPoly, n: int) -> SlicePolyFn:
    """Recover the unique components of an order-n slice polyanalytic expansion.

    Reads them off the slice of e1: there q = z = x0 + e1 x1 commutes with e1,
    and 2 x0 = z + conj z, 2 x1 = (z - conj z)(-e1) turn the terms with
    a2 = a3 = 0 into sum_{k,m} conj(z)^k z^m a_m of f_k.  One slice fixes a
    function of the class (the identity principle), so p is in the order-n
    class exactly when its components below n expand back to it.  Returns the
    minimal order; raises NotInClass when p is outside the class.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > 1:
        qpoly._refuse_degree(p.degree + 1)  # as the first G of V^(n-1) would
    top = max(p.degree, 0)
    # z and conj z are the formal variables x0 and x1; 2 x0 and 2 x1 have integer coefficients
    sums = list(accumulate([qpoly.X0 + qpoly.X1] * top, mul, initial=QPoly.one()))
    diffs = list(accumulate([(qpoly.X0 - qpoly.X1) * -E1] * top, mul, initial=QPoly.one()))
    read = qpoly.qsum(sums[a] * diffs[b] * c for (a, b, a2, a3), c in p.terms() if a2 == a3 == 0)
    grid = [[ZERO] * (top + 1) for _ in range(top + 1)]  # grid[k][m] is a_m of f_k
    for (m, k, _, _), c in read.terms():
        grid[k][m] = c * Fraction(1, 2 ** (k + m))
    fn = SlicePolyFn([SliceRegularSeries(row) for row in grid[:n]])
    if fn.expand() == p:
        return fn.trim()
    # V is linear and keeps the class, so only V^(n-1) of p itself can fail to extend
    try:
        qpoly.global_v_power(p, n - 1)
    except NotDivisible as exc:
        raise NotInClass(f"normalized global operator does not extend at level {n - 1}") from exc
    raise NotInClass("polynomial is not the expansion of a slice regular series")


# -- slice restriction and splitting -------------------------------------------


def _dot4(a: Quaternion, b: Quaternion) -> float:
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


def canonical_perp(i: UnitImaginary) -> UnitImaginary:
    """A deterministic unit orthogonal to i: normalize i x e1, falling back to i x e2."""
    u = i.to_float().u
    vx, vy, vz = 0.0, u.z, -u.y          # cross(vec(i), e1)
    if vy * vy + vz * vz < 1e-12:
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


def _finite(value, what: str) -> float:
    """float(value), or ValueError when it lies beyond the float range."""
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} is beyond the float range")
    return float(value)


def restrict(f: SlicePolyFn | RightSlicePolyFn, frame: tuple, js) -> Callable[[complex], list]:
    """values(z) -> [(P_j, Q_j) for j in js] with CR^j f = P_j + Q_j J at z on the slice of I.

    The one place that splits a left or right function's coefficients: over a
    split_frame triple (I, J, IJ), a = c1 + c2 J with c1, c2 on the slice of I,
    as complex numbers via 1 -> 1, I -> i.  CR^j f = sum_{k>=j} k!/(k-j)!
    conj(z)^(k-j) (F_k(z) + G_k(z) J) by Horner sums; for a right function
    J z^m = conj(z)^m J swaps z and conj(z) in G_k and in its power factor.
    Weights beyond the float range raise ValueError.
    """
    right_sided = isinstance(f, RightSlicePolyFn)
    comps = f.components if right_sided else [c.coeffs for c in f.components]
    pairs = [tuple(split_coeff(a, frame) for a in reversed(cs)) for cs in comps]
    while pairs and not pairs[-1]:
        pairs.pop()
    plans = [[(k, _finite(math.perm(k, j), "a derivative weight k!/(k-j)!") if pairs[k] else 0.0)
              for k in range(len(pairs) - 1, j - 1, -1)] for j in js]

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

    return values


# -- slice Cauchy-Riemann derivatives ---------------------------------------------


def _cr_sum(comps: Sequence[Sequence[Quaternion]], j: int, z: Quaternion, left: bool) -> Quaternion:
    """sum_{k >= j} k!/(k-j)! conj(z)^(k-j) f_k(z), or f_k(z) conj(z)^(k-j) unless ``left``.

    ``comps[k]`` holds the coefficients of f_k, on the right of q^m if ``left``;
    empty ones are skipped.  At j = 0 every weight is 1 and is not multiplied in."""
    acc = ZERO if z.is_exact else quatf()
    zbar = z.conjugate()
    for k in range(j, len(comps)):
        if comps[k]:
            fk = _horner(comps[k], z, right_coeffs=left)
            t = zbar ** (k - j) * fk if left else fk * zbar ** (k - j)
            acc = acc + (t * math.perm(k, j) if j else t)
    return acc


def slice_cr_derivative(f: SlicePolyFn, j: int) -> Callable[[Quaternion], Quaternion]:
    """The j-th slice CR derivative of f as a callable on any slice.

    Closed form: sum_{k >= j} k!/(k-j)! conj(z)^(k-j) f_k(z), which depends on
    z alone, so one callable serves every slice; j >= order gives the zero
    function.
    """
    if j < 0:
        raise ValueError("derivative order must be nonnegative")
    comps = [c.coeffs for c in f.components]
    return lambda z: _cr_sum(comps, j, z, left=True)


# -- the Appell ladder ------------------------------------------------------------


def appell_apply(f: SliceRegularSeries, k: int) -> SlicePolyFn:
    """The order-(k+1) function conj(q)^k f(q)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    comps = [SliceRegularSeries()] * k + [f]
    return SlicePolyFn(comps)


def appell_check(f: SliceRegularSeries, k: int) -> bool:
    """Exact ladder identity: V(conj(q)^k f) == 2k conj(q)^(k-1) f."""
    lhs = qpoly.global_v(appell_apply(f, k).expand())
    if k == 0:
        return lhs.is_zero()
    rhs = appell_apply(f, k - 1).expand() * k
    return lhs == rhs * 2


# -- right-sided variants (for the bilinear Cauchy integral) -----------------------


class RightSlicePolyFn:
    """Right slice polyanalytic function g(q) = sum_k g_k(q) conj(q)^k.

    Component series carry *left* coefficients: g_k(q) = sum_m a_m q^m.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[Sequence[Quaternion]]):
        # the series rules: trailing zeros trimmed, one scalar backend per component
        comps = [SliceRegularSeries(coeffs).coeffs for coeffs in components]
        if not comps:
            raise ValueError("order must be at least 1")
        self._components = tuple(comps)

    @property
    def order(self) -> int:
        return len(self._components)

    @property
    def components(self) -> tuple[tuple[Quaternion, ...], ...]:
        return self._components

    def evaluate(self, q: Quaternion) -> Quaternion:
        """sum_k g_k(q) conj(q)^k, the order-0 right slice CR sum."""
        return _cr_sum(self._components, 0, q, left=False)

    def to_float(self) -> "RightSlicePolyFn":
        return RightSlicePolyFn([[c.to_float() for c in comp] for comp in self._components])

    @classmethod
    def from_json(cls, data) -> "RightSlicePolyFn":
        return cls([c.coeffs for c in _parse_fn_json(data)])


def right_cr_derivative(g: RightSlicePolyFn, j: int) -> Callable[[Quaternion], Quaternion]:
    """j-th right slice CR derivative on any slice: sum_{k >= j} k!/(k-j)! g_k(z) conj(z)^(k-j)."""
    if j < 0:
        raise ValueError("derivative order must be nonnegative")
    return lambda z: _cr_sum(g.components, j, z, left=False)
