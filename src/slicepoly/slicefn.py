"""Slice regular series and slice polyanalytic functions.

A slice regular (finite) series is ``f(q) = sum_m q^m a_m`` with right
quaternion coefficients.  A slice polyanalytic function of order n is an
ordered list ``(f_0, ..., f_{n-1})`` of such series representing
``f(q) = sum_k conj(q)^k f_k(q)``; the decomposition is unique, and this
module recovers it from a raw polynomial expansion, takes slice Cauchy-Riemann
derivatives in closed form, and exposes the Appell ladder of conjugate powers.

A function's expansion and its operator images are computed on its stem by
``qpoly.function_image``, which holds the stem format.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from . import qpoly
from .errors import NotDivisible, NotInClass
from .qpoly import QPoly
from .quat import Quaternion, ZERO, quatf


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
        return f"SliceRegularSeries(degree={len(self._coeffs) - 1 if self._coeffs else '-inf'})"

    def evaluate(self, q: Quaternion) -> Quaternion:
        """Horner evaluation; a float point converts coefficients on the fly."""
        return _horner(self._coeffs, q, right_coeffs=True)

    def expand(self) -> QPoly:
        """Exact polynomial expansion sum_m (q^m as QPoly) a_m, built from the stem."""
        return qpoly.function_image([self._coeffs])

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
        return qpoly.function_image([c._coeffs for c in self._components])

    def image(self, op: str, order: int | None = None) -> QPoly:
        """G, V, D, Dbar, laplacian, tau = laplacian o V^(n-1) (n ``order`` or the declared order)
        or c_n = sum_k x0^k laplacian(f_k) of the expansion, on the stem (qpoly.function_image)."""
        return qpoly.function_image([c._coeffs for c in self._components], op,
                                    self.order if order is None else order)

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


def decompose(p: QPoly, n: int) -> SlicePolyFn:
    """Recover the unique components of an order-n slice polyanalytic expansion.

    Reads them off the slice of e1 (qpoly.slice_cells).  One slice fixes a function of the
    class (the identity principle), so p is in the order-n class exactly when its components
    below n expand back to it.  Returns the minimal order; raises NotInClass outside the class.
    Refuses no degree: V^(n-1), run only to name a failure, divides each G image unchecked.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    top = max(p.degree, 0)
    grid = [[ZERO] * (top + 1) for _ in range(top + 1)]  # grid[k][m] is a_m of f_k
    for (k, m), a in qpoly.slice_cells(p).items():
        grid[k][m] = a
    fn = SlicePolyFn([SliceRegularSeries(row) for row in grid[:n]])
    if fn.expand() == p:
        return fn.trim()
    # V is linear and keeps the class, so only V^(n-1) of p itself can fail to extend
    try:
        qpoly.global_v_power(p, n - 1)
    except NotDivisible as exc:
        raise NotInClass(f"normalized global operator does not extend at level {n - 1}") from exc
    raise NotInClass("polynomial is not the expansion of a slice regular series")


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
