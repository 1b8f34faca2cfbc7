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
``V = G / |vec|^2`` realized as exact division, its powers ``V^k``, the
iterated map ``tau_n = laplacian o V^(n-1)``, and the componentwise map
``c_n = sum x0^k laplacian(f_k)``.

A slice function ``sum_k conj(q)^k f_k`` is ``A(x0, s) + v B(x0, s)`` with ``q = x0 + v``,
``s = |v|^2`` (Ghiloni and Perotti, Adv. Math. 226, 2011); its stem is the dict
``{(part, i, j): c}`` of ``x0^i s^j c`` (part 0) and ``v x0^i s^j c`` (part 1).
``function_image`` builds it, applies an operator as a rule on the ``(i, j)`` grid
and expands it once, as for ``q^n``; ``slice_cells`` reads it back off a slice.

The Laplacian, both Cauchy-Fueter operators and ``G`` are single sweeps over
the term dict: each term ``x^a c`` emits its image terms into one dict, and
sums that cancel are dropped.  Left multiplication by ``e_l`` is a signed
permutation of the coefficient tuple, and in ``G`` the radial part
``sum_l x_l d/dx_l`` scales each term by its vector degree ``a1 + a2 + a3``
(Euler's identity), so no intermediate polynomial is built.  Float evaluation
sums each component with ``math.fsum``, so its value does not depend on the
order of the terms.

Each monomial is one int key with 7-bit fields ``d<<28 | a0<<21 | a1<<14 |
a2<<7 | a3``, ``d`` the total degree.  No polynomial exceeds total degree
``DEGREE_CAP`` = 64 < 128: the constructor refuses more, products and powers
refuse a larger result before any work, and a stem expansion and ``G`` refuse
what they build; ``V`` divides an unchecked ``G`` image of degree at most 65.
So no field carries into the next: a product term's key is the sum of its
factors' keys, and each operator moves keys by constant steps.  The low 28 bits
order keys lexicographically by exponent, the canonical order of ``terms`` and
``to_json``.

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, fsum
from typing import Iterable, Mapping, Sequence

from .errors import DegreeCapExceeded, NotDivisible, NotFueterRegular
from .quat import E1, E2, E3, Quaternion, ZERO, _hamilton

Exponent = tuple[int, int, int, int]
Coef = tuple  # an exact coefficient as its components (w, x, y, z), ints or Fractions

#: hard bound on the total degree of every polynomial; protects memory when products run away
DEGREE_CAP = 64

# key layout (see the module docstring): _E[l] is the key step of multiplying by x_l
_LOW = (1 << 28) - 1
_E0, _E1, _E2, _E3 = _E = tuple((1 << 28) + (1 << s) for s in (21, 14, 7, 0))
_L0, _L1, _L2, _L3 = (2 * e for e in _E)  # x_l^2


class QPoly:
    """Sparse polynomial with exact quaternion coefficients.

    Stored in canonical form: no zero coefficients.  Each packed monomial key
    maps to a plain ``(w, x, y, z)`` tuple of ints and Fractions; exponent
    tuples and ``Quaternion`` values appear only at the API (constructor, ``terms``,
    ``coeff``, ``to_json``, exact ``evaluate``).  Treat instances as immutable.
    """

    __slots__ = ("_terms", "_decoded")

    def __init__(self, terms: Mapping[Exponent, Quaternion] | None = None):
        self._terms = _intake((_exponent(e), c) for e, c in terms.items()) if terms else {}
        self._decoded = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def constant(cls, c: Quaternion) -> "QPoly":
        return cls({(0, 0, 0, 0): c})

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
        return [(_unpack(k), Quaternion._new(*self._terms[k]))
                for k in sorted(self._terms, key=_LOW.__and__)]

    def coeff(self, exp: Exponent) -> Quaternion:
        """The coefficient of x^exp; ZERO for any exponent no packed key can hold."""
        exp = tuple(exp)
        if len(exp) != 4 or any(type(a) is not int or not 0 <= a <= 127 for a in exp):
            return ZERO
        c = self._terms.get(_pack(exp))
        return ZERO if c is None else Quaternion._new(*c)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Max total degree; float('-inf') for the zero polynomial."""
        if not self._terms:
            return float("-inf")
        return max(self._terms) >> 28

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
        return _wrap(_merge(other._terms.items(), dict(self._terms)))

    def __sub__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _wrap({e: (-w, -x, -y, -z) for e, (w, x, y, z) in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, QPoly):
            # H[x0..x3] has no zero divisors, so deg(pq) = deg p + deg q exactly
            _refuse_degree(self.degree + other.degree)
            out: dict[int, Coef] = {}
            get = out.get
            rhs = list(other._terms.items())
            # _hamilton inlined: a call per pair of terms is measurably slower
            for pk, (a, b, c, d) in self._terms.items():
                for rk, (e, f, g, h) in rhs:
                    k = pk + rk
                    w = a * e - b * f - c * g - d * h
                    x = a * f + b * e + c * h - d * g
                    y = a * g - b * h + c * e + d * f
                    z = a * h + b * g - c * f + d * e
                    acc = get(k)
                    if acc is None:
                        # nonzero: quaternions have no zero divisors
                        out[k] = (w, x, y, z)
                        continue
                    w, x, y, z = acc[0] + w, acc[1] + x, acc[2] + y, acc[3] + z
                    if w or x or y or z:
                        out[k] = (w, x, y, z)
                    else:
                        del out[k]
            return _wrap(out)
        if isinstance(other, Quaternion):
            # coefficient sits on the right: p * c scales from the right
            s = _coef(other)
            return _wrap({e: _hamilton(c, s) for e, c in self._terms.items()} if any(s) else {})
        if isinstance(other, (int, Fraction)):
            if not other:
                return QPoly.zero()
            s = _real(other)
            return _wrap({e: (_real(w * s), _real(x * s), _real(y * s), _real(z * s))
                          for e, (w, x, y, z) in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Quaternion):
            s = _coef(other)
            return _wrap({e: _hamilton(s, c) for e, c in self._terms.items()} if any(s) else {})
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int) -> "QPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers are defined for nonnegative integers")
        if n and self._terms:
            _refuse_degree(n * self.degree)
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
        pw, px, py, pz = point.w, point.x, point.y, point.z
        # a stencil evaluates one polynomial many times: keep the unpacked exponents
        terms = self._decoded
        if terms is None:
            terms = self._decoded = [(_unpack(k), c) for k, c in self._terms.items()]
        if point.is_exact:
            w = x = y = z = 0
            for (a0, a1, a2, a3), (cw, cx, cy, cz) in terms:
                m = pw**a0 * px**a1 * py**a2 * pz**a3
                w, x, y, z = w + cw * m, x + cx * m, y + cy * m, z + cz * m
            return Quaternion._new(w, x, y, z)
        # fsum rounds each component once, so the value does not depend on the
        # order in which the terms were inserted
        ws, xs, ys, zs = [], [], [], []
        for (a0, a1, a2, a3), (cw, cx, cy, cz) in terms:
            m = pw**a0 * px**a1 * py**a2 * pz**a3
            ws.append(float(cw) * m)
            xs.append(float(cx) * m)
            ys.append(float(cy) * m)
            zs.append(float(cz) * m)
        return Quaternion._new(fsum(ws), fsum(xs), fsum(ys), fsum(zs))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"terms": [{"exp": list(_unpack(k)), "coef": [str(v) for v in self._terms[k]]}
                          for k in sorted(self._terms, key=_LOW.__and__)]}

    @classmethod
    def from_json(cls, data) -> "QPoly":
        if not isinstance(data, dict) or "terms" not in data:
            raise ValueError('polynomial JSON must be {"terms": [...]}')
        return _wrap(_intake(map(_json_term, data["terms"])))


def _wrap(terms: dict[int, Coef]) -> QPoly:
    p = QPoly.__new__(QPoly)
    p._terms = terms
    p._decoded = None
    return p


def _refuse_degree(degree) -> None:
    """DegreeCapExceeded for a polynomial of total degree above DEGREE_CAP."""
    if degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"total degree exceeds cap {DEGREE_CAP}")


def _exponent(exp) -> Exponent:
    """A validated exponent tuple: four nonnegative ints, never bools, of total degree <= DEGREE_CAP."""
    exp = tuple(exp)
    if len(exp) != 4 or any(type(a) is not int or a < 0 for a in exp):
        raise ValueError(f"bad exponent {exp!r}")
    _refuse_degree(sum(exp))
    return exp


def _pack(exp: Exponent) -> int:
    return sum(exp) << 28 | exp[0] << 21 | exp[1] << 14 | exp[2] << 7 | exp[3]


def _unpack(k: int) -> Exponent:
    return (k >> 21 & 127, k >> 14 & 127, k >> 7 & 127, k & 127)


def _real(s):
    """An exact real scalar, as an int when it is integral."""
    return s.numerator if type(s) is Fraction and s.denominator == 1 else s


def _coef(q: Quaternion) -> Coef:
    """The component tuple of an exact quaternion."""
    if not isinstance(q, Quaternion) or not q.is_exact:
        raise TypeError("QPoly coefficients must use the exact backend")
    return (_real(q.w), _real(q.x), _real(q.y), _real(q.z))


def _json_term(item) -> tuple[Exponent, Quaternion]:
    """A raw term's (exponent, coefficient), checked in that order; a float coefficient is a ValueError."""
    exp = _exponent(item["exp"])
    coef = Quaternion.from_json(item["coef"])
    if not coef.is_exact:
        raise ValueError("polynomial coefficients must be exact: integers or 'p/q' strings")
    return exp, coef


def _intake(pairs: Iterable[tuple[Exponent, Quaternion]]) -> dict[int, Coef]:
    """Checked (exponent, coefficient) pairs as terms: float ones refused, zeros dropped, repeats merged."""
    return _merge((_pack(e), c) for e, q in pairs if any(c := _coef(q)))


def _merge(pairs: Iterable[tuple], out: dict | None = None) -> dict:
    """Merge (key, nonzero coefficient) pairs into ``out`` (taken over) or {}; zero sums drop.
    Keys are packed monomials for a polynomial and (part, i, j) for a stem."""
    if out is None:
        out = {}
    get = out.get
    for k, c in pairs:
        acc = get(k)
        if acc is None:
            out[k] = c
            continue
        w, x, y, z = acc[0] + c[0], acc[1] + c[1], acc[2] + c[2], acc[3] + c[3]
        if w or x or y or z:
            out[k] = (w, x, y, z)
        else:
            del out[k]
    return out


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
def _binomial_row(k: int, m: int) -> tuple:
    """The coefficients of (1 - t)^k (1 + t)^m by ascending power of t, zeros included."""
    c = [1]  # c_t = sum_b (-1)^b C(k, b) C(m, t-b), one factor 1 -+ t at a time
    for sign in (-1,) * k + (1,) * m:
        c = [a + sign * b for a, b in zip(c + [0], [0] + c)]
    return tuple(c)


@lru_cache(maxsize=None)
def _power_stem(k: int, m: int) -> tuple:
    """The stem of conj(q)^k q^m = sum_t c_t x0^(k+m-t) v^t as ((part, i, j), w) pairs, w != 0."""
    if k < 0 or m < 0:
        raise ValueError("power must be nonnegative")
    _refuse_degree(k + m)
    return tuple(((t % 2, k + m - t, t // 2), -w if t & 2 else w)  # v^2 = -s
                 for t, w in enumerate(_binomial_row(k, m)) if w)


@lru_cache(maxsize=None)
def _multinomial(j: int) -> tuple:
    """(key step, j!/(a! b! c!)) of each monomial x1^2a x2^2b x3^2c of s^j."""
    return tuple((a * _L1 + b * _L2 + (j - a - b) * _L3, comb(j, a) * comb(j - a, b))
                 for a in range(j + 1) for b in range(j - a + 1))


def _expand_stem(stem: Mapping[tuple, Coef]) -> QPoly:
    """The polynomial of a stem: s^j by the multinomial theorem, v c = sum_l x_l (e_l c).  Part 0
    gives even a1, a2, a3 and part 1 one odd one, so no two entries share a key, and the degree
    is the largest i + 2j + part, refused above DEGREE_CAP before any term is built."""
    _refuse_degree(max((i + 2 * j + part for part, i, j in stem), default=0))
    out: dict[int, Coef] = {}
    for (part, i, j), (w, x, y, z) in stem.items():
        base = i * _E0
        units = ((_E1, (-x, w, -z, y)), (_E2, (-y, z, w, -x)), (_E3, (-z, -y, x, w))) if part \
            else ((0, (w, x, y, z)),)
        for step, n in _multinomial(j):
            for e, (cw, cx, cy, cz) in units:
                out[base + step + e] = (n * cw, n * cx, n * cy, n * cz)
    return _wrap(out)


def _stem(cells: Iterable[tuple]) -> dict:
    """The stem of sum conj(q)^k q^m c over the cells (k, m, c), c a nonzero coefficient tuple."""
    return _merge((key, (n * w, n * x, n * y, n * z)) for k, m, (w, x, y, z) in cells
                  for key, n in _power_stem(k, m))


def _cells(components: Sequence[Sequence[Quaternion]]):
    """The cells (k, m, a_m) of sum_k conj(q)^k f_k, f_k = sum_m q^m a_m; zero a_m give none."""
    return ((k, m, _coef(a)) for k, comp in enumerate(components)
            for m, a in enumerate(comp) if not a.is_zero())


def _power_sum(weights: Iterable[tuple[int, int, int]]) -> QPoly:
    """sum w conj(q)^k q^m over the nonzero integer weights (k, m, w), built on the stem."""
    return _expand_stem(_stem((k, m, (w, 0, 0, 0)) for k, m, w in weights))


@lru_cache(maxsize=None)
def expand_q_power(n: int) -> QPoly:
    """The function q -> q^n as a polynomial in x0..x3."""
    return _power_sum([(0, n, 1)])


@lru_cache(maxsize=None)
def expand_qbar_power(k: int) -> QPoly:
    """The function q -> conj(q)^k as a polynomial in x0..x3."""
    return _power_sum([(k, 0, 1)])


# -- differential operators ----------------------------------------------------------


def partial(p: QPoly, axis: int) -> QPoly:
    """Formal partial derivative along coordinate ``axis`` (0..3)."""
    if axis not in (0, 1, 2, 3):
        raise ValueError("axis must be 0..3")
    out: dict[int, Coef] = {}
    shift, step = 21 - 7 * axis, _E[axis]
    for k, (w, x, y, z) in p._terms.items():
        a = k >> shift & 127
        if a:
            out[k - step] = (w * a, x * a, y * a, z * a)
    return _wrap(out)


def qsum(polys: Iterable[QPoly]) -> QPoly:
    """The sum of ``polys`` in one pass: the first one's terms are copied once, the rest merged in."""
    it = iter(polys)
    first = next(it, QPoly.zero())
    return _wrap(_merge(chain.from_iterable(p._terms.items() for p in it), dict(first._terms)))


# Left multiplication by e1, e2, e3 is a signed permutation of (w, x, y, z):
#   e1 c = (-x, w, -z, y),  e2 c = (-y, z, w, -x),  e3 c = (-z, -y, x, w).
# Each sweep moves keys by constant steps: the Laplacian by x_l^-2, the
# |vec|^2 d/dx0 part of G by x0^-1 x_l^2.
_G1, _G2, _G3 = (2 * e - _E0 for e in (_E1, _E2, _E3))


def _laplacian_terms(p: QPoly):
    for k, (w, x, y, z) in p._terms.items():
        a0, a1 = k >> 21 & 127, k >> 14 & 127
        a2, a3 = k >> 7 & 127, k & 127
        if a0 > 1:
            m = a0 * (a0 - 1)
            yield k - _L0, (m * w, m * x, m * y, m * z)
        if a1 > 1:
            m = a1 * (a1 - 1)
            yield k - _L1, (m * w, m * x, m * y, m * z)
        if a2 > 1:
            m = a2 * (a2 - 1)
            yield k - _L2, (m * w, m * x, m * y, m * z)
        if a3 > 1:
            m = a3 * (a3 - 1)
            yield k - _L3, (m * w, m * x, m * y, m * z)


def _fueter_terms(p: QPoly, sign: int):
    for k, (w, x, y, z) in p._terms.items():
        a = k >> 21 & 127
        if a:
            yield k - _E0, (a * w, a * x, a * y, a * z)
        m = sign * (k >> 14 & 127)
        if m:
            yield k - _E1, (-m * x, m * w, -m * z, m * y)
        m = sign * (k >> 7 & 127)
        if m:
            yield k - _E2, (-m * y, m * z, m * w, -m * x)
        m = sign * (k & 127)
        if m:
            yield k - _E3, (-m * z, -m * y, m * x, m * w)


def _g_terms(p: QPoly):
    for k, (w, x, y, z) in p._terms.items():
        a0 = k >> 21 & 127
        if a0:
            # |vec|^2 d/dx0
            c = (a0 * w, a0 * x, a0 * y, a0 * z)
            yield k + _G1, c
            yield k + _G2, c
            yield k + _G3, c
        r = (k >> 28) - a0
        if r:
            # sum_l x_l d/dx_l scales the term by its vector degree r (Euler),
            # then vec = sum_l x_l e_l multiplies from the left
            w, x, y, z = r * w, r * x, r * y, r * z
            yield k + _E1, (-x, w, -z, y)
            yield k + _E2, (-y, z, w, -x)
            yield k + _E3, (-z, -y, x, w)


def laplacian(p: QPoly) -> QPoly:
    """Four-dimensional Laplacian, the first-order Fueter map on slice regular input.

    One sweep: x^a c contributes a_l (a_l - 1) c at a - 2 e_l for each axis l.
    """
    return _wrap(_merge(_laplacian_terms(p)))


def cauchy_fueter(p: QPoly) -> QPoly:
    """Cauchy-Fueter operator: d/dx0 + e1 d/dx1 + e2 d/dx2 + e3 d/dx3.

    The imaginary units multiply the derivatives from the left.  One sweep:
    x^a c contributes a0 c at a - e0 and a_l (e_l c) at a - e_l.
    """
    return _wrap(_merge(_fueter_terms(p, 1)))


def conjugate_cauchy_fueter(p: QPoly) -> QPoly:
    """Conjugate Cauchy-Fueter operator: d/dx0 - e1 d/dx1 - e2 d/dx2 - e3 d/dx3."""
    return _wrap(_merge(_fueter_terms(p, -1)))


def global_g(p: QPoly) -> QPoly:
    """Global operator |vec q|^2 d/dx0 + (vec q) sum_l x_l d/dx_l (vector on the left).

    One sweep: x^a c contributes a0 c at a - e0 + 2 e_l and, by Euler's
    identity for sum_l x_l d/dx_l, (a1 + a2 + a3)(e_l c) at a + e_l, for
    l = 1, 2, 3.  The image of p of degree d may reach degree d + 1; its true
    degree is refused above DEGREE_CAP after the sweep.
    """
    g = _wrap(_merge(_g_terms(p)))
    _refuse_degree(g.degree)
    return g


def divide_by_vecnorm_sq(p: QPoly) -> QPoly:
    """Exact quotient of p by x1^2 + x2^2 + x3^2.

    Long division in x1 by the monic divisor x1^2 + (x2^2 + x3^2): terms of
    x1-degree >= 2 are peeled greedily; the loop only ever creates terms of
    strictly smaller x1-degree, so it terminates with a remainder of
    x1-degree <= 1.  The divisor is monic with central (real) coefficients,
    hence quotient and remainder are unique and a zero remainder is exactly
    divisibility.  Raises NotDivisible carrying the remainder otherwise.
    Terms sit in buckets by x1-degree, emptied from the top down: peeling a
    term of x1-degree d only touches bucket d - 2.
    """
    buckets: dict[int, dict[int, Coef]] = {}
    for k, coef in p._terms.items():
        buckets.setdefault(k >> 14 & 127, {})[k] = coef
    quot: dict[int, Coef] = {}
    for d in range(max(buckets, default=0), 1, -1):
        below = buckets.setdefault(d - 2, {})
        for k, c in buckets.pop(d, {}).items():
            k -= 2 * _E1
            quot[k] = c
            w, x, y, z = c
            for e in (k + 2 * _E2, k + 2 * _E3):
                old = below.get(e, (0, 0, 0, 0))
                s = (old[0] - w, old[1] - x, old[2] - y, old[3] - z)
                if s[0] or s[1] or s[2] or s[3]:
                    below[e] = s
                else:
                    del below[e]
    rem = {**buckets.get(1, {}), **buckets.get(0, {})}
    if rem:
        raise NotDivisible(_wrap(rem))
    return _wrap(quot)


def global_v(p: QPoly) -> QPoly:
    """Normalized global operator V = G / |vec q|^2.

    Exact division of the G image, unchecked at degree DEGREE_CAP + 1 at most, realizes the
    continuous extension of V across the real axis whenever that extension exists; NotDivisible
    signals that p is not the expansion of a slice polyanalytic function.
    """
    return divide_by_vecnorm_sq(_wrap(_merge(_g_terms(p))))


def global_v_power(p: QPoly, k: int) -> QPoly:
    """V^k p, stopping as soon as the work is zero, since V(0) = 0."""
    for _ in range(k):
        if not p._terms:
            break
        p = global_v(p)
    return p


def tau_n(p: QPoly, n: int) -> QPoly:
    """laplacian o V^(n-1): maps order-n slice polyanalytic expansions to Fueter regular ones."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return laplacian(global_v_power(p, n - 1))


def c_n(components: Sequence[QPoly]) -> QPoly:
    """sum_k x0^k laplacian(f_k) over slice regular component expansions.

    The result is poly-Fueter regular of the order given by the component count (the
    Cauchy-Fueter operator applied that many times kills it); a zero laplacian(f_k) costs no x0^k.
    """
    return qsum(X0**k * lap for k, lap in enumerate(map(laplacian, components)) if lap._terms)


def build_poly_fueter(phis: Iterable[QPoly]) -> QPoly:
    """Assemble sum_k x0^k phi_k after checking each phi_k is Fueter regular."""
    phis = list(phis)
    for k, phi in enumerate(phis):
        if not cauchy_fueter(phi).is_zero():
            raise NotFueterRegular(f"component {k} is not Fueter regular")
    return qsum(X0**k * phi for k, phi in enumerate(phis))


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
    return _power_sum((k - 1, n - k, -2) for k in range(1, n + 1))


def laplacian_power_closed_form(n: int) -> QPoly:
    """-4 sum_{k=1..n-1} (n-k) q^(n-k-1) conj(q)^(k-1): the Laplacian of q^n (n >= 2)."""
    return _power_sum((k - 1, n - k - 1, -4 * (n - k)) for k in range(1, n))


# -- slice functions on their stems ------------------------------------------------------

# (sign, base, shift): V, G = s V, D and Dbar as one first-order rule (see _first_order_stem)
_FIRST_ORDER = {"V": (1, 1, 0), "G": (1, 1, 1), "D": (1, 3, 0), "Dbar": (-1, 3, 0)}


def _first_order_stem(stem: dict, sign: int, base: int, shift: int):
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


def _laplacian_stem(stem: dict):
    """i(i-1) c at i-2, and 2j(2j+1) c (part 0) or 2j(2j+3) c (part 1) at j-1."""
    for (part, i, j), (w, x, y, z) in stem.items():
        if i > 1:
            n = i * (i - 1)
            yield (part, i - 2, j), (n * w, n * x, n * y, n * z)
        if j:
            n = 2 * j * (2 * j + 1 + 2 * part)
            yield (part, i, j - 1), (n * w, n * x, n * y, n * z)


def function_image(components: Sequence[Sequence[Quaternion]], op: str | None = None,
                   order: int = 1) -> QPoly:
    """The expansion of sum_k conj(q)^k f_k, f_k = sum_m q^m a_m with the a_m in ``components[k]``
    (trimmed), or its image under ``op``: G, V, D, Dbar, laplacian, tau = laplacian o V^(order-1)
    or c_n = sum_k x0^k laplacian(f_k), on the stem, expanded once.  A float component raises
    TypeError first; DegreeCapExceeded then refuses a term conj(q)^k q^m or an expanded result
    above DEGREE_CAP."""
    for c in components:
        if c and not c[0].is_exact:
            raise TypeError("only exact series expand to polynomials")
    if op == "c_n":
        return _expand_stem(_merge(((part, i + k, j), c) for k, comp in enumerate(components)
                                   for (part, i, j), c in _laplacian_stem(_stem(_cells([comp])))))
    stem = _stem(_cells(components))
    if op is None:
        return _expand_stem(stem)
    while op == "tau" and order > 1 and stem:  # V^(order-1), which ends once the stem is empty
        stem, order = _merge(_first_order_stem(stem, *_FIRST_ORDER["V"])), order - 1
    terms = _laplacian_stem(stem) if op in ("laplacian", "tau") \
        else _first_order_stem(stem, *_FIRST_ORDER[op])
    return _expand_stem(_merge(terms))


def slice_cells(p: QPoly) -> dict:
    """{(k, m): a_m of f_k} off the slice of e1, if p = sum_k conj(q)^k f_k.  There z = x0 + e1 x1
    commutes with e1, and x0^a x1^b c = 2^-(a+b) (z + conj z)^a (z - conj z)^b (-e1)^b c weighs
    conj(z)^k z^(a+b-k) by _binomial_row(b, a)[k], the stem's table read the other way."""
    cells = {}  # (k, m) -> 2^(k+m) a_m of f_k
    for key, (w, x, y, z) in p._terms.items():
        if not key & 16383:  # a2 = a3 = 0
            a, b = key >> 21 & 127, key >> 14 & 127
            for _ in range(b % 4):  # (-e1) c = (x, -w, z, -y)
                w, x, y, z = x, -w, z, -y
            _merge((((k, a + b - k), (t * w, t * x, t * y, t * z))
                    for k, t in enumerate(_binomial_row(b, a)) if t), cells)
    return {(k, m): Quaternion._new(*c) * Fraction(1, 2 ** (k + m)) for (k, m), c in cells.items()}
