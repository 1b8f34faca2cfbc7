"""Shared test utilities: independent mini-oracles and seeded generators.

The oracles here deliberately avoid the package's arithmetic paths: naive_mul
works off the literal basis multiplication table, naive_poly_eval walks a raw
term dictionary, pointwise_integral sums quaternion sandwiches node by node
instead of using the slice-complex driver, v_peel_decompose peels the
components off with the operator V instead of reading them off one slice, and
horner_expansions multiplies by q and conj(q) one factor at a time instead of
building a stem, so the tests cross two independent implementations wherever
a derived value is asserted.  The seeded generators are the verify suites' own corpus,
re-exported under public names: they only draw inputs, and one corpus means
the tests and the suites draw the same instances.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from slicepoly import kernels, qpoly
from slicepoly.errors import NotDivisible, NotInClass
from slicepoly.qpoly import QPoly
from slicepoly.quat import Quaternion, UnitImaginary, quatf
from slicepoly.slicefn import SlicePolyFn, SliceRegularSeries, right_cr_derivative, slice_cr_derivative
from slicepoly.verify import (  # noqa: F401  (re-exported for the tests)
    _rand_circle_node as rand_circle_node,
    _rand_point as rand_point,
    _rand_qpoly as rand_qpoly,
    _rand_quat as rand_quat,
    _rand_right_fn as rand_rightfn,
    _rand_series as rand_series,
    _rand_slicefn as rand_slicefn,
    _rand_unit as rand_unit,
)

# basis products e_i * e_j as (sign, index) with indices 0=1, 1=i, 2=j, 3=k
_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def naive_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Quaternion product by expanding over the basis table, term by term."""
    a = (p.w, p.x, p.y, p.z)
    b = (q.w, q.x, q.y, q.z)
    out = [a[0] * 0, a[0] * 0, a[0] * 0, a[0] * 0]
    for i in range(4):
        for j in range(4):
            sign, idx = _TABLE[(i, j)]
            out[idx] += sign * a[i] * b[j]
    return Quaternion(*out)


def naive_poly_eval(terms: dict, point: Quaternion) -> Quaternion:
    """Evaluate a raw {exponent: coefficient} dict with right coefficients."""
    acc = Quaternion(0, 0, 0, 0) if point.is_exact else quatf()
    for (a0, a1, a2, a3), coef in terms.items():
        m = point.w**a0 * point.x**a1 * point.y**a2 * point.z**a3
        acc = acc + coef * m
    return acc


def v_peel_decompose(p: QPoly, n: int) -> SlicePolyFn:
    """slicefn.decompose by the V peel, the oracle for its slice read.

    Peels from the top: V^k applied to the residual isolates
    2^k k! (f_k expansion), which is read back into a series and scaled by
    1/(2^k k!).  Returns the minimal order; raises NotInClass when p is
    outside the class.  A series is read off the pure x0^m monomials, because
    q^m is the only power contributing that monomial (with unit coefficient).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    comps: list[SliceRegularSeries] = [SliceRegularSeries()] * n
    work, top = p, p.degree
    for k in range(n - 1, -1, -1):
        if work is p and n - 1 > k > top:
            continue  # V lowers degrees, so this level reruns the top level's chain to 0
        try:
            g = qpoly.global_v_power(work, k)
        except NotDivisible as exc:
            raise NotInClass(
                f"normalized global operator does not extend at level {k}"
            ) from exc
        f_k = SliceRegularSeries()
        if not g.is_zero():
            f_k = SliceRegularSeries([g.coeff((m, 0, 0, 0)) for m in range(int(g.degree) + 1)])
            if f_k.expand() != g:
                raise NotInClass("polynomial is not the expansion of a slice regular series")
        if not f_k.is_zero():
            f_k = comps[k] = f_k.scale(Fraction(1, (2**k) * math.factorial(k)))
            work = work - qpoly.expand_qbar_power(k) * f_k.expand()
    if not work.is_zero():
        raise NotInClass("nonzero residual after peeling all components")
    return SlicePolyFn(comps).trim()


def horner_expansions(f: SlicePolyFn) -> tuple[QPoly, list[QPoly]]:
    """The expansion of f and of each component by four-variable products, the stem's oracle.

    Horner's rule, f_k = a_0 + q (a_1 + q (...)) and f = f_0 + conj(q) (f_1 +
    conj(q) (...)), multiplies by the four-term Q_POLY or QBAR_POLY at each
    step, so q^64 costs about 1.6M term pairs and not the 12M of the last
    product of a square-and-multiply.
    """
    comps = []
    for comp in f.components:
        acc = QPoly.zero()
        for a in reversed(comp.coeffs):
            acc = qpoly.Q_POLY * acc + QPoly.constant(a)
        comps.append(acc)
    total = QPoly.zero()
    for acc in reversed(comps):
        total = qpoly.QBAR_POLY * total + acc
    return total, comps


def rand_nonzero_quat(rng: random.Random, cmax: int = 3) -> Quaternion:
    while True:
        q = rand_quat(rng, cmax)
        if not q.is_zero():
            return q


def exact(n, d=1) -> Fraction:
    return Fraction(n, d)


def embed_complex(c: complex, i: UnitImaginary) -> Quaternion:
    """The point c.real + c.imag * i on the slice of i (float backend)."""
    return quatf(c.real) + i.to_float().u * c.imag


def pointwise_integral(kind, f, g, q, path):
    """An integral as pointwise quaternion sandwiches kernel * dw * derivative.

    Built from path.nodes(), the kernels module and the CR-derivative
    callables, and reduced per component with fsum; returns the value and
    the node terms.
    """
    nodes = path.nodes()
    ff, n = f.to_float(), f.order
    if kind == "residual":
        lder = [slice_cr_derivative(ff, j) for j in range(n)]
        rder = [right_cr_derivative(g.to_float(), j) for j in range(n)]
        terms = [rder[n - 1 - j](w) * dw * lder[j](w) * (-1.0) ** j
                 for w, dw in nodes for j in range(n)]
        scale = 1.0
    elif kind == "cauchy":
        der = [slice_cr_derivative(ff, j) for j in range(n)]
        terms = [kernels.f_j(w, q, j) * dw * der[j](w) * (-2.0) ** j
                 for w, dw in nodes for j in range(n)]
        scale = 0.5 / math.pi
    elif kind == "fueter":
        top = slice_cr_derivative(ff, n - 1)
        terms = [kernels.delta_s_inv(w, q) * dw * top(w) for w, dw in nodes]
        scale = 2.0 ** (n - 1) / (2.0 * math.pi)
    else:
        top = slice_cr_derivative(ff, n - 1)
        terms = []
        for w, dw in nodes:
            dinv = (w * w - w * (2.0 * q.w) + quatf(q.norm_sq())).inverse()
            terms.append((q.conjugate() - w) * (dinv * dinv) * dw * top(w))
        scale = 2.0**n / math.pi
    value = Quaternion(*(math.fsum(getattr(t, c) for t in terms) * scale for c in "wxyz"))
    return value, terms
