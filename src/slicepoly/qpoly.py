"""Exact sparse polynomials in the four real coordinates of a quaternion.

A polynomial maps a multi-exponent ``(a0, a1, a2, a3)`` to a quaternion
coefficient.  Coefficients always use the exact backend and sit to the
*right* of their monomial; since monomials are real-valued this placement is
invisible pointwise, but it fixes the coefficient arithmetic of products:
``(m1 c1) * (m2 c2) = (m1 m2)(c1 c2)`` with the left factor's coefficient on
the left.

On top of the ring structure the module provides the operator calculus:
coordinate partials, the Laplacian, the Cauchy-Fueter operator and its
conjugate (imaginary units multiply derivatives from the left), the global
operator ``G = |vec|^2 d/dx0 + vec * sum x_l d/dx_l``, its normalization
``V = G / |vec|^2`` realized as exact division, the iterated map
``tau_n = laplacian o V^(n-1)``, and the componentwise map
``c_n = sum x0^k laplacian(f_k)``.

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import DegreeCapExceeded, NotDivisible, NotFueterRegular
from .quat import E1, E2, E3, Quaternion, ZERO

Exponent = tuple[int, int, int, int]

_ZERO_EXP: Exponent = (0, 0, 0, 0)

# hard bound on total degree; protects memory when powers/products run away
_degree_cap = 64


def set_degree_cap(cap: int) -> int:
    """Set the total-degree cap for products and powers; returns the old cap."""
    global _degree_cap
    if cap < 1:
        raise ValueError("degree cap must be positive")
    old, _degree_cap = _degree_cap, cap
    return old


class QPoly:
    """Sparse polynomial with exact quaternion coefficients.

    Stored in canonical form: no zero coefficients.  Treat instances as
    immutable; operations return new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, Quaternion] | None = None):
        clean: dict[Exponent, Quaternion] = {}
        if terms:
            for exp, coef in terms.items():
                if len(exp) != 4 or any(a < 0 or not isinstance(a, int) for a in exp):
                    raise ValueError(f"bad exponent {exp!r}")
                if not coef.is_exact:
                    raise TypeError("QPoly coefficients must use the exact backend")
                if not coef.is_zero():
                    clean[tuple(exp)] = coef
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def constant(cls, c: Quaternion) -> "QPoly":
        return cls({_ZERO_EXP: c})

    @classmethod
    def one(cls) -> "QPoly":
        return cls.constant(Quaternion(1, 0, 0, 0))

    @classmethod
    def variable(cls, axis: int) -> "QPoly":
        if axis not in (0, 1, 2, 3):
            raise ValueError("axis must be 0..3")
        exp = [0, 0, 0, 0]
        exp[axis] = 1
        return cls({tuple(exp): Quaternion(1, 0, 0, 0)})

    # -- inspection ----------------------------------------------------------

    def terms(self) -> list[tuple[Exponent, Quaternion]]:
        """Terms in canonical (lexicographic exponent) order."""
        return sorted(self._terms.items(), key=lambda t: t[0])

    def coeff(self, exp: Exponent) -> Quaternion:
        return self._terms.get(tuple(exp), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Max total degree; float('-inf') for the zero polynomial."""
        if not self._terms:
            return float("-inf")
        return max(sum(e) for e in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coef in self.terms():
            mono = "*".join(f"x{i}^{a}" for i, a in enumerate(exp) if a) or "1"
            parts.append(f"{mono}*{coef}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({len(self._terms)} terms, degree {self.degree})"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coef in other._terms.items():
            acc = out.get(exp)
            s = coef if acc is None else acc + coef
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return _wrap(out)

    def __sub__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _wrap({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, QPoly):
            out: dict[Exponent, Quaternion] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                    c = c1 * c2
                    acc = out.get(e)
                    s = c if acc is None else acc + c
                    if s.is_zero():
                        out.pop(e, None)
                    else:
                        out[e] = s
            if out and max(sum(e) for e in out) > _degree_cap:
                raise DegreeCapExceeded(f"product degree exceeds cap {_degree_cap}")
            return _wrap(out)
        if isinstance(other, Quaternion):
            # coefficient sits on the right: p * c scales from the right
            return _wrap({e: c * other for e, c in self._terms.items() if not (c * other).is_zero()})
        if isinstance(other, (int, Fraction)):
            if not other:
                return QPoly.zero()
            return _wrap({e: c * other for e, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Quaternion):
            return _wrap({e: other * c for e, c in self._terms.items() if not (other * c).is_zero()})
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int) -> "QPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers are defined for nonnegative integers")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Quaternion) -> Quaternion:
        """Substitute the four real coordinates of ``point``.

        Coefficients multiply the (real) monomial value from the right; the
        result lives in the backend of ``point``, so evaluating at a float
        point performs the one-way exact-to-float conversion per coefficient.
        """
        if point.is_exact:
            acc = ZERO
            for (a0, a1, a2, a3), coef in self._terms.items():
                m = point.w**a0 * point.x**a1 * point.y**a2 * point.z**a3
                acc = acc + coef * m
            return acc
        w = x = y = z = 0.0
        pw, px, py, pz = point.w, point.x, point.y, point.z
        for (a0, a1, a2, a3), coef in self._terms.items():
            m = pw**a0 * px**a1 * py**a2 * pz**a3
            w += float(coef.w) * m
            x += float(coef.x) * m
            y += float(coef.y) * m
            z += float(coef.z) * m
        return Quaternion(w, x, y, z)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"exp": list(exp), "coef": coef.to_json()} for exp, coef in self.terms()
            ]
        }

    @classmethod
    def from_json(cls, data) -> "QPoly":
        if not isinstance(data, dict) or "terms" not in data:
            raise ValueError('polynomial JSON must be {"terms": [...]}')
        terms: dict[Exponent, Quaternion] = {}
        for item in data["terms"]:
            exp = tuple(item["exp"])
            coef = Quaternion.from_json(item["coef"])
            if not coef.is_exact:
                raise ValueError(
                    "polynomial coefficients must be exact: integers or 'p/q' strings"
                )
            acc = terms.get(exp)
            terms[exp] = coef if acc is None else acc + coef
        return cls(terms)


def _wrap(terms: dict[Exponent, Quaternion]) -> QPoly:
    p = QPoly.__new__(QPoly)
    p._terms = terms
    return p


# -- the quaternion variable and its conjugate ------------------------------------

X0 = QPoly.variable(0)
X1 = QPoly.variable(1)
X2 = QPoly.variable(2)
X3 = QPoly.variable(3)

#: q = x0 + x1 e1 + x2 e2 + x3 e3 as a polynomial function of itself
Q_POLY = QPoly({(1, 0, 0, 0): Quaternion(1, 0, 0, 0),
                (0, 1, 0, 0): E1, (0, 0, 1, 0): E2, (0, 0, 0, 1): E3})

#: conj(q)
QBAR_POLY = QPoly({(1, 0, 0, 0): Quaternion(1, 0, 0, 0),
                   (0, 1, 0, 0): -E1, (0, 0, 1, 0): -E2, (0, 0, 0, 1): -E3})

#: vector part x1 e1 + x2 e2 + x3 e3
VEC_POLY = QPoly({(0, 1, 0, 0): E1, (0, 0, 1, 0): E2, (0, 0, 0, 1): E3})

#: squared vector norm x1^2 + x2^2 + x3^2
VEC_NORM_SQ_POLY = QPoly({(0, 2, 0, 0): Quaternion(1, 0, 0, 0),
                          (0, 0, 2, 0): Quaternion(1, 0, 0, 0),
                          (0, 0, 0, 2): Quaternion(1, 0, 0, 0)})


@lru_cache(maxsize=None)
def expand_q_power(n: int) -> QPoly:
    """The function q -> q^n as a polynomial in x0..x3."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    return Q_POLY**n


@lru_cache(maxsize=None)
def expand_qbar_power(k: int) -> QPoly:
    """The function q -> conj(q)^k as a polynomial in x0..x3."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return QBAR_POLY**k


# -- differential operators ----------------------------------------------------------


def partial(p: QPoly, axis: int) -> QPoly:
    """Formal partial derivative along coordinate ``axis`` (0..3)."""
    if axis not in (0, 1, 2, 3):
        raise ValueError("axis must be 0..3")
    out: dict[Exponent, Quaternion] = {}
    for exp, coef in p._terms.items():
        a = exp[axis]
        if a:
            e = list(exp)
            e[axis] = a - 1
            out[tuple(e)] = coef * a
    return _wrap(out)


def laplacian(p: QPoly) -> QPoly:
    """Four-dimensional Laplacian, the first-order Fueter map on slice regular input."""
    acc = QPoly.zero()
    for axis in range(4):
        acc = acc + partial(partial(p, axis), axis)
    return acc


def cauchy_fueter(p: QPoly) -> QPoly:
    """Cauchy-Fueter operator: d/dx0 + e1 d/dx1 + e2 d/dx2 + e3 d/dx3.

    The imaginary units multiply the derivatives from the left.
    """
    return partial(p, 0) + E1 * partial(p, 1) + E2 * partial(p, 2) + E3 * partial(p, 3)


def conjugate_cauchy_fueter(p: QPoly) -> QPoly:
    """Conjugate Cauchy-Fueter operator: d/dx0 - e1 d/dx1 - e2 d/dx2 - e3 d/dx3."""
    return partial(p, 0) - E1 * partial(p, 1) - E2 * partial(p, 2) - E3 * partial(p, 3)


def global_g(p: QPoly) -> QPoly:
    """Global operator |vec q|^2 d/dx0 + (vec q) sum_l x_l d/dx_l (vector on the left)."""
    radial = X1 * partial(p, 1) + X2 * partial(p, 2) + X3 * partial(p, 3)
    return VEC_NORM_SQ_POLY * partial(p, 0) + VEC_POLY * radial


def divide_by_vecnorm_sq(p: QPoly) -> QPoly:
    """Exact quotient of p by x1^2 + x2^2 + x3^2.

    Long division in x1 by the monic divisor x1^2 + (x2^2 + x3^2): terms of
    x1-degree >= 2 are peeled greedily; the loop only ever creates terms of
    strictly smaller x1-degree, so it terminates with a remainder of
    x1-degree <= 1.  The divisor is monic with central (real) coefficients,
    hence quotient and remainder are unique and a zero remainder is exactly
    divisibility.  Raises NotDivisible carrying the remainder otherwise.
    """
    quot: dict[Exponent, Quaternion] = {}
    rem = dict(p._terms)
    while True:
        best = None
        for exp in rem:
            if exp[1] >= 2 and (best is None or exp[1] > best[1]):
                best = exp
        if best is None:
            break
        coef = rem.pop(best)
        qexp = (best[0], best[1] - 2, best[2], best[3])
        acc = quot.get(qexp)
        quot[qexp] = coef if acc is None else acc + coef
        for axis in (2, 3):
            e = list(qexp)
            e[axis] += 2
            e = tuple(e)
            old = rem.get(e)
            s = -coef if old is None else old - coef
            if s.is_zero():
                rem.pop(e, None)
            else:
                rem[e] = s
    if rem:
        raise NotDivisible(_wrap(rem))
    return _wrap({e: c for e, c in quot.items() if not c.is_zero()})


def global_v(p: QPoly) -> QPoly:
    """Normalized global operator V = G / |vec q|^2.

    Exact division realizes the continuous extension of V across the real
    axis whenever that extension exists; NotDivisible signals that p is not
    the expansion of a slice polyanalytic function.
    """
    return divide_by_vecnorm_sq(global_g(p))


def tau_n(p: QPoly, n: int) -> QPoly:
    """laplacian o V^(n-1): maps order-n slice polyanalytic expansions to Fueter regular ones."""
    if n < 1:
        raise ValueError("order must be >= 1")
    g = p
    for _ in range(n - 1):
        g = global_v(g)
    return laplacian(g)


def c_n(components: Sequence[QPoly]) -> QPoly:
    """sum_k x0^k laplacian(f_k) over slice regular component expansions.

    The result is poly-Fueter regular of the order given by the component
    count (the Cauchy-Fueter operator applied that many times kills it).
    """
    acc = QPoly.zero()
    for k, comp in enumerate(components):
        acc = acc + X0**k * laplacian(comp)
    return acc


def build_poly_fueter(phis: Iterable[QPoly]) -> QPoly:
    """Assemble sum_k x0^k phi_k after checking each phi_k is Fueter regular."""
    acc = QPoly.zero()
    for k, phi in enumerate(phis):
        if not cauchy_fueter(phi).is_zero():
            raise NotFueterRegular(f"component {k} is not Fueter regular")
        acc = acc + X0**k * phi
    return acc


def is_poly_fueter(p: QPoly, n: int) -> bool:
    """Whether the Cauchy-Fueter operator applied n times annihilates p exactly."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    g = p
    for _ in range(n):
        if g.is_zero():
            return True
        g = cauchy_fueter(g)
    return g.is_zero()


# -- closed forms for powers of the quaternion variable -------------------------------


def dirac_power_closed_form(n: int) -> QPoly:
    """-2 sum_{k=1..n} q^(n-k) conj(q)^(k-1): the Cauchy-Fueter image of q^n (n >= 2)."""
    acc = QPoly.zero()
    for k in range(1, n + 1):
        acc = acc + expand_q_power(n - k) * expand_qbar_power(k - 1)
    return acc * Fraction(-2)


def laplacian_power_closed_form(n: int) -> QPoly:
    """-4 sum_{k=1..n-1} (n-k) q^(n-k-1) conj(q)^(k-1): the Laplacian of q^n (n >= 2)."""
    acc = QPoly.zero()
    for k in range(1, n):
        acc = acc + (expand_q_power(n - k - 1) * expand_qbar_power(k - 1)) * (n - k)
    return acc * Fraction(-4)
