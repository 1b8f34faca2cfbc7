"""Reference values for the benchmark's correctness gate, by routes of its own.

Quaternions here are plain 4-tuples ``(w, x, y, z)`` of ints, Fractions or
floats, and a function spec is a list of components, each a list of
coefficient tuples: ``f(q) = sum_k conj(q)^k sum_m q^m a_{k,m}``.  Nothing in
this module imports slicepoly, so a reference never repeats the code path it
checks.  The identities used are the ones the paper proves:

* ``V`` lowers order componentwise: ``V f = sum_h conj(q)^h 2(h+1) f_{h+1}``;
* hence ``tau_n f = 2^(n-1) (n-1)! laplacian(f_{n-1})``;
* ``laplacian(q^m) = -4 sum_{k=1}^{m-1} (m-k) q^(m-k-1) conj(q)^(k-1)``;
* ``c_n f = sum_k x0^k laplacian(f_k)``.

The Cauchy-Fueter image is checked by exact differentiation: a polynomial of
degree d restricted to a coordinate line is recovered exactly from 2r+1 >= d+1
integer samples, and the derivative weights of that interpolant are rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = (0, 0, 0, 0)
ONE = (1, 0, 0, 0)
AXES = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def qscale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qabs(a) -> float:
    return math.sqrt(sum(float(c) * float(c) for c in a))


def powers(q, n: int) -> list:
    out = [ONE]
    for _ in range(n):
        out.append(qmul(out[-1], q))
    return out


def series_eval(coeffs, q):
    """sum_m q^m a_m by Horner, q on the left."""
    acc = ZERO
    for a in reversed(coeffs):
        acc = qadd(qmul(q, acc), a)
    return acc


def fn_eval(components, q):
    """sum_k conj(q)^k f_k(q)."""
    qbar = powers(qconj(q), len(components))
    acc = ZERO
    for k, comp in enumerate(components):
        acc = qadd(acc, qmul(qbar[k], series_eval(comp, q)))
    return acc


def lap_series(coeffs, q):
    """Laplacian of sum_m q^m a_m at q, from the closed form for laplacian(q^m)."""
    n = len(coeffs)
    qp = powers(q, n)
    qb = powers(qconj(q), n)
    acc = ZERO
    for m in range(2, n):
        lap = ZERO
        for k in range(1, m):
            lap = qadd(lap, qscale(qmul(qp[m - k - 1], qb[k - 1]), m - k))
        acc = qadd(acc, qmul(qscale(lap, -4), coeffs[m]))
    return acc


def v_image(components, q):
    """V f at q through the order-lowering identity."""
    acc = ZERO
    qbar = powers(qconj(q), len(components))
    for h in range(len(components) - 1):
        term = qscale(series_eval(components[h + 1], q), 2 * (h + 1))
        acc = qadd(acc, qmul(qbar[h], term))
    return acc


def tau_image(components, q):
    """tau_n f at q: the top component's Laplacian times 2^(n-1) (n-1)!."""
    n = len(components)
    return qscale(lap_series(components[n - 1], q), 2 ** (n - 1) * math.factorial(n - 1))


def c_image(components, q):
    """c_n f at q: sum_k x0^k laplacian(f_k)."""
    acc = ZERO
    for k, comp in enumerate(components):
        acc = qadd(acc, qscale(lap_series(comp, q), q[0] ** k))
    return acc


def _derivative_weights(r: int) -> dict[int, Fraction]:
    """Weights w_t with p'(0) = sum_t w_t p(t) for every polynomial of degree <= 2r."""
    rf2 = math.factorial(r) ** 2
    return {
        t: Fraction((1 if t % 2 else -1) * rf2, t * math.factorial(r + t) * math.factorial(r - t))
        for t in range(-r, r + 1)
        if t
    }


def dirac_image(components, q):
    """Cauchy-Fueter image d/dx0 + sum_l e_l d/dx_l at an exact point, by exact interpolation."""
    degree = max((k + len(comp) - 1 for k, comp in enumerate(components) if comp), default=0)
    weights = _derivative_weights(max(1, (degree + 1) // 2))
    acc = ZERO
    for axis, unit in enumerate(AXES):
        d = ZERO
        for t, w in weights.items():
            d = qadd(d, qscale(fn_eval(components, qadd(q, qscale(unit, t))), w))
        acc = qadd(acc, qmul(unit, d))
    return acc


def poly_eval(terms, q):
    """Evaluate a CLI polynomial ``{"terms": [{"exp": [...], "coef": [...]}, ...]}`` at an exact point."""
    acc = [0, 0, 0, 0]
    cache = [{}, {}, {}, {}]
    for term in terms:
        m = 1
        for axis, a in enumerate(term["exp"]):
            if a:
                p = cache[axis].get(a)
                if p is None:
                    p = cache[axis][a] = q[axis] ** a
                m *= p
        for i, c in enumerate(term["coef"]):
            acc[i] += Fraction(c) * m
    return tuple(acc)
