"""Seeded theorem suites behind the command line verifier.

Each suite renders a family of structural identities as machine-checkable
tests over a seeded random corpus: the exact suites demand literal polynomial
equality, the kernel suites compare against finite-difference oracles inside
calibrated sampling windows, and the quadrature suites bound the gap between
contour integrals and their symbolic references.

Reports are plain data so the CLI can serialize them; a zero instance count
produces a vacuous pass flagged with a warning note.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

from . import kernels, oracle, qpoly, quad
from .qpoly import QPoly
from .quat import Quaternion, UnitImaginary, quatf
from .slicefn import (
    RightSlicePolyFn,
    SlicePolyFn,
    SliceRegularSeries,
    appell_check,
    decompose,
    slice_cr_derivative,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    instances: int
    max_error: float
    tolerance: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        """The fields as a dict, leaving out an unset tolerance and an empty note."""
        return {k: v for k, v in asdict(self).items()
                if not (k == "tolerance" and v is None or k == "note" and not v)}


@dataclass
class SuiteReport:
    suite: str
    seed: int
    count: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "count": self.count,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


# -- random corpora -----------------------------------------------------------


def _rand_quat(rng: random.Random, cmax: int = 3) -> Quaternion:
    return Quaternion(*(rng.randint(-cmax, cmax) for _ in range(4)))


def _rand_qpoly(rng: random.Random, max_deg: int = 3, n_terms: int = 4, cmax: int = 3) -> QPoly:
    terms: dict = {}
    for _ in range(n_terms):
        exp = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(4)] += 1
        key = tuple(exp)
        c = _rand_quat(rng, cmax)
        terms[key] = terms.get(key, Quaternion(0, 0, 0, 0)) + c
    return QPoly(terms)


def _rand_series(rng: random.Random, deg: int, cmax: int = 3) -> SliceRegularSeries:
    return SliceRegularSeries([_rand_quat(rng, cmax) for _ in range(deg + 1)])


def _rand_slicefn(rng: random.Random, order: int, deg: int, cmax: int = 2) -> SlicePolyFn:
    return SlicePolyFn([_rand_series(rng, rng.randint(0, deg), cmax) for _ in range(order)])


def _rand_right_fn(rng: random.Random, order: int, deg: int, cmax: int = 2) -> RightSlicePolyFn:
    return RightSlicePolyFn(
        [[_rand_quat(rng, cmax) for _ in range(rng.randint(0, deg) + 1)] for _ in range(order)]
    )


def _rand_unit(rng: random.Random) -> UnitImaginary:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        if sum(t * t for t in v) > 1e-6:
            return UnitImaginary.from_vector(*v)


def _rand_point(rng: random.Random, rmin: float, rmax: float, vecmin: float = 0.0) -> Quaternion:
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(t * t for t in v))
        if n < 1e-9:
            continue
        r = rng.uniform(rmin, rmax)
        q = quatf(*(t * r / n for t in v))
        if math.sqrt(q.vec_norm_sq()) >= vecmin:
            return q


def _rand_circle_node(rng: random.Random) -> Quaternion:
    u = _rand_unit(rng)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return quatf(math.cos(theta)) + u.u * math.sin(theta)


# -- suite plumbing -------------------------------------------------------------


def _check(name: str, count: int, instance: Callable[[random.Random], bool | float],
           rng: random.Random, tol: float | None = None, note: str = "") -> CheckResult:
    """Run ``instance`` ``count`` times: an exact check (``tol`` None) reports its
    failures as the error, a float check its largest error, a NaN one as inf."""
    if count == 0:
        return CheckResult(name, True, 0, 0.0, tolerance=tol, note="vacuous: empty corpus")
    results = [instance(rng) for _ in range(count)]
    if tol is None:
        failures = sum(not ok for ok in results)
        return CheckResult(name, failures == 0, count, float(failures), note=note)
    worst = max(0.0, *(math.inf if math.isnan(err) else err for err in results))
    return CheckResult(name, worst <= tol, count, worst, tolerance=tol, note=note)


# -- exact operator identity suite ----------------------------------------------


def suite_leibniz(seed: int, count: int, tol: float, nodes: int) -> SuiteReport:
    rep = SuiteReport("leibniz", seed, count)
    rng = random.Random(seed)
    radial = lambda g: qpoly.X1 * qpoly.partial(g, 1) + qpoly.X2 * qpoly.partial(g, 2) \
        + qpoly.X3 * qpoly.partial(g, 3)

    def right_linearity(r):
        f, g, lam = _rand_qpoly(r), _rand_qpoly(r), _rand_quat(r)
        return qpoly.global_g(f * lam + g) == qpoly.global_g(f) * lam + qpoly.global_g(g)

    def x0_product(r):
        f = _rand_qpoly(r)
        return qpoly.global_g(qpoly.X0 * f) == qpoly.VEC_NORM_SQ_POLY * f + qpoly.X0 * qpoly.global_g(f)

    def vec_product(r):
        f = _rand_qpoly(r)
        return qpoly.global_g(qpoly.VEC_POLY * f) == \
            -(qpoly.VEC_NORM_SQ_POLY * f) + qpoly.VEC_POLY * qpoly.global_g(f)

    def q_power_commutes(r):
        f = _rand_qpoly(r)
        k = r.randint(1, 8)
        qk = qpoly.expand_q_power(k)
        return qpoly.global_g(qk * f) == qk * qpoly.global_g(f)

    def general_product(r):
        f, g = _rand_qpoly(r), _rand_qpoly(r)
        lhs = qpoly.global_g(f * g)
        comm = qpoly.VEC_POLY * f - f * qpoly.VEC_POLY
        rhs = qpoly.global_g(f) * g + f * qpoly.global_g(g) + comm * radial(g)
        return lhs == rhs

    def conjugate_shift(r):
        psi = _rand_qpoly(r)
        lhs = qpoly.global_g(qpoly.QBAR_POLY * psi)
        rhs = qpoly.QBAR_POLY * qpoly.global_g(psi) + (qpoly.VEC_NORM_SQ_POLY * psi) * 2
        return lhs == rhs

    def conj_power_ladder(r):
        f = _rand_series(r, r.randint(0, 4))
        k = r.randint(1, 8)
        top = SlicePolyFn([SliceRegularSeries()] * k + [f]).expand()
        rung = SlicePolyFn([SliceRegularSeries()] * (k - 1) + [f]).expand() * (2 * k)
        g_ok = qpoly.global_g(top) == qpoly.VEC_NORM_SQ_POLY * rung
        v_ok = qpoly.global_v(top) == rung
        return g_ok and v_ok

    def dirac_power(r):
        n = r.randint(2, 8)
        return qpoly.cauchy_fueter(qpoly.expand_q_power(n)) == qpoly.dirac_power_closed_form(n)

    def laplacian_power(r):
        n = r.randint(2, 8)
        return qpoly.laplacian(qpoly.expand_q_power(n)) == qpoly.laplacian_power_closed_form(n)

    def laplacian_factorization(r):
        p = _rand_qpoly(r)
        lap = qpoly.laplacian(p)
        return qpoly.cauchy_fueter(qpoly.conjugate_cauchy_fueter(p)) == lap \
            and qpoly.conjugate_cauchy_fueter(qpoly.cauchy_fueter(p)) == lap

    def fueter_map_regular(r):
        f = _rand_series(r, r.randint(0, 8)).expand()
        return qpoly.cauchy_fueter(qpoly.laplacian(f)).is_zero()

    def slice_regular_kernel(r):
        f = _rand_series(r, r.randint(0, 8)).expand()
        return qpoly.global_g(f).is_zero()

    for name, fn in (
        ("right_linearity", right_linearity),
        ("x0_product_rule", x0_product),
        ("vector_product_rule", vec_product),
        ("q_power_commutes", q_power_commutes),
        ("general_product_rule", general_product),
        ("conjugate_shift", conjugate_shift),
        ("conjugate_power_ladder", conj_power_ladder),
        ("dirac_power_closed_form", dirac_power),
        ("laplacian_power_closed_form", laplacian_power),
        ("laplacian_factorization", laplacian_factorization),
        ("fueter_map_regular", fueter_map_regular),
        ("slice_regular_in_global_kernel", slice_regular_kernel),
    ):
        rep.checks.append(_check(name, count, fn, rng))
    return rep


def suite_appell(seed: int, count: int, tol: float, nodes: int) -> SuiteReport:
    rep = SuiteReport("appell", seed, count)
    rng = random.Random(seed)

    def ladder(r):
        return appell_check(_rand_series(r, r.randint(0, 6)), r.randint(0, 6))

    def conjugate_powers(r):
        k = r.randint(1, 8)
        lhs = qpoly.global_v(qpoly.expand_qbar_power(k))
        return lhs == qpoly.expand_qbar_power(k - 1) * (2 * k)

    rep.checks.append(_check("half_v_ladder", count, ladder, rng))
    rep.checks.append(_check("conjugate_power_system", count, conjugate_powers, rng))
    return rep


def suite_vn(seed: int, count: int, tol: float, nodes: int) -> SuiteReport:
    rep = SuiteReport("vn", seed, count)
    rng = random.Random(seed)

    def annihilation(r):
        f = _rand_slicefn(r, r.randint(1, 4), 6)
        return qpoly.global_v_power(f.expand(), f.order).is_zero()

    def lowers_order(r):
        n = r.randint(2, 4)
        f = _rand_slicefn(r, n, 5)
        lhs = qpoly.global_v(f.expand())
        shifted = SlicePolyFn(
            [f.components[h + 1].scale(2 * (h + 1)) for h in range(n - 1)]
        )
        return lhs == shifted.expand()

    def decompose_roundtrip(r):
        f = _rand_slicefn(r, r.randint(1, 4), 6)
        g = decompose(f.expand(), f.order)
        return g.expand() == f.expand() and g == f.trim()

    rep.checks.append(_check("power_annihilation", count, annihilation, rng))
    rep.checks.append(_check("lowers_order_componentwise", count, lowers_order, rng))
    rep.checks.append(_check("decompose_roundtrip", count, decompose_roundtrip, rng))
    return rep


def suite_poly_fueter(seed: int, count: int, tol: float, nodes: int) -> SuiteReport:
    rep = SuiteReport("poly_fueter", seed, count)
    rng = random.Random(seed)

    def tau_image_regular(r):
        f = _rand_slicefn(r, r.randint(1, 4), 6)
        return qpoly.cauchy_fueter(qpoly.tau_n(f.expand(), f.order)).is_zero()

    def c_image_poly_regular(r):
        f = _rand_slicefn(r, r.randint(1, 4), 6)
        return qpoly.is_poly_fueter(qpoly.c_n([c.expand() for c in f.components]), f.order)

    def x0_decomposition(r):
        phis = [qpoly.laplacian(_rand_series(r, r.randint(2, 5)).expand())
                for _ in range(r.randint(1, 3))]
        built = qpoly.build_poly_fueter(phis)
        return qpoly.is_poly_fueter(built, len(phis))

    rep.checks.append(_check("fueter_image_regular", count, tau_image_regular, rng))
    rep.checks.append(_check("componentwise_image_poly_regular", count, c_image_poly_regular, rng))
    rep.checks.append(_check("x0_assembly_poly_regular", count, x0_decomposition, rng))
    return rep


def suite_tauc(seed: int, count: int, tol: float, nodes: int) -> SuiteReport:
    rep = SuiteReport("tauc", seed, count)
    rng = random.Random(seed)

    def bridge(r):
        n = r.randint(1, 4)
        f = _rand_slicefn(r, n, 5)
        lhs = qpoly.c_n([c.expand() for c in f.components])
        for _ in range(n - 1):
            lhs = qpoly.cauchy_fueter(lhs)
        return lhs == qpoly.tau_n(f.expand(), n) * Fraction(1, 2 ** (n - 1))

    rep.checks.append(_check("dirac_power_bridge", count, bridge, rng))
    return rep


# -- kernel suite (finite-difference oracles) ---------------------------------------

# sampling windows keep the h^2 truncation noise of each stencil at least 2x
# under its tolerance; measured worst cases are recorded in the test suite
_KERNEL_S_RING = (1.8, 2.6)
_KERNEL_Q_MAX = 0.4
_LADDER_Q = (0.05, 0.3, 0.1)
_COMPOSED_Q = (0.05, 0.25, 0.12)


def _rand_shell(rng: random.Random, rmin: float, rmax: float) -> Quaternion:
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(t * t for t in v))
    r = rng.uniform(rmin, rmax)
    return quatf(*(t * r / n for t in v))


def suite_kernels(seed: int, count: int, tol: float, nodes: int) -> SuiteReport:
    rep = SuiteReport("kernels", seed, count)
    rng = random.Random(seed)

    def image_regular(r):
        s = _rand_shell(r, *_KERNEL_S_RING)
        q = _rand_point(r, 0.05, _KERNEL_Q_MAX)
        return abs(oracle.fd_cauchy_fueter(lambda p: kernels.delta_s_inv(s, p), q, 1e-3))

    def laplacian_match(r):
        s = _rand_shell(r, *_KERNEL_S_RING)
        q = _rand_point(r, 0.05, _KERNEL_Q_MAX)
        fd = oracle.fd_laplacian(lambda p: kernels.s_inv(s, p), q, 1e-3)
        return abs(fd - kernels.delta_s_inv(s, q))

    def ladder(r):
        w = _rand_circle_node(r)
        q = _rand_point(r, *_LADDER_Q)
        j = r.randint(1, 2)
        fd = oracle.fd_global_v(lambda p: kernels.f_j(w, p, j), q, 5e-4)
        return abs(fd + kernels.f_j(w, q, j - 1))

    def ladder_base(r):
        w = _rand_circle_node(r)
        q = _rand_point(r, *_LADDER_Q)
        return abs(oracle.fd_global_v(lambda p: kernels.f_j(w, p, 0), q, 5e-4))

    def composed_map(r):
        w = _rand_circle_node(r)
        q = _rand_point(r, *_COMPOSED_Q)

        def stencil(h):
            return oracle.fd_laplacian(
                lambda p: oracle.fd_global_v(lambda t: kernels.f_j(w, t, 1), p, h), q, h
            )

        return abs(oracle.richardson(stencil, oracle.NESTED_H) + kernels.delta_s_inv(w, q))

    def right_regular(r):
        u = _rand_unit(r)
        s = quatf(r.uniform(-1.5, 1.5)) + u.u * r.uniform(0.5, 1.5)
        if abs(s) < 1.3:
            s = s * (1.3 / abs(s))
        q = _rand_point(r, 0.05, _KERNEL_Q_MAX)
        fd = oracle.fd_slice_cr(lambda p: kernels.s_inv(p, q), u.u, s, 1e-5, side="right")
        return abs(fd)

    def common_slice(r):
        u = _rand_unit(r)
        s = quatf(r.uniform(-1.0, 1.0)) + u.u * r.uniform(0.8, 1.5)
        q = quatf(r.uniform(-0.4, 0.4)) + u.u * r.uniform(-0.4, 0.4)
        return abs(kernels.s_inv(s, q) - (s - q).inverse())

    rep.checks.append(_check("image_fueter_regular", count, image_regular, rng, 1e-5,
                             note="fd Cauchy-Fueter of the mapped kernel"))
    rep.checks.append(_check("laplacian_matches_closed_form", count, laplacian_match, rng, 1e-5,
                             note="h = 1e-3 central stencil"))
    rep.checks.append(_check("ladder_steps_down", count, ladder, rng, 1e-5,
                             note="fd V sends kernel j to minus kernel j-1"))
    rep.checks.append(_check("ladder_base_vanishes", count, ladder_base, rng, 1e-5))
    rep.checks.append(_check("composed_map_on_kernel", count, composed_map, rng, 1e-3,
                             note="Richardson over nested h = 1e-2 stencils"))
    rep.checks.append(_check("right_slice_regular_in_s", count, right_regular, rng, 1e-8))
    rep.checks.append(_check("common_slice_reduction", count, common_slice, rng, 1e-12))
    return rep


# -- quadrature suite -----------------------------------------------------------------


def _rel_gap(value: Quaternion, ref: Quaternion) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


def _node_sum(path: quad.CirclePath, scale: float, term: Callable) -> Quaternion:
    """scale * sum of term(w, dw) over path.nodes(): the per-node quaternion route."""
    return quad._reduce([term(w, dw) for w, dw in path.nodes()], scale)


def suite_quadrature(seed: int, count: int, tol: float, nodes: int) -> SuiteReport:
    rep = SuiteReport("quadrature", seed, count)
    rng = random.Random(seed)

    def reproduces(r):
        f = _rand_slicefn(r, r.randint(1, 3), 4)
        q = _rand_point(r, 0.0, 0.6)
        path = quad.CirclePath(_rand_unit(r), 1.0, nodes)
        return _rel_gap(quad.poly_cauchy_eval(f, q, path), f.evaluate(q))

    def independence(r):
        f = _rand_slicefn(r, r.randint(1, 3), 4)
        q = _rand_point(r, 0.0, 0.6)
        return quad.unit_independence_check(f, q, _rand_unit(r), _rand_unit(r), 1.0, nodes)

    def doubling(r):
        f = _rand_slicefn(r, r.randint(1, 3), 4)
        q = _rand_point(r, 0.0, 0.6)
        u = _rand_unit(r)
        a = quad.poly_cauchy_eval(f, q, quad.CirclePath(u, 1.0, nodes))
        b = quad.poly_cauchy_eval(f, q, quad.CirclePath(u, 1.0, 2 * nodes))
        return _rel_gap(a, b)

    def fueter_matches(r):
        f = _rand_slicefn(r, r.randint(1, 3), 4)
        q = _rand_point(r, 0.0, 0.6)
        path = quad.CirclePath(_rand_unit(r), 1.0, nodes)
        ref = f.fueter_image().evaluate(q)
        return _rel_gap(quad.fueter_integral(f, q, path), ref)

    def formulations_agree(r):
        # the driver against (conj q - w) D^(-2) dw CR^(n-1) f in quaternion arithmetic
        f = _rand_slicefn(r, r.randint(1, 3), 4)
        q = _rand_point(r, 0.0, 0.6)
        path = quad.CirclePath(_rand_unit(r), 1.0, nodes)
        top = slice_cr_derivative(f.to_float(), f.order - 1)

        def term(w, dw):
            dinv = (w * w - w * (2.0 * q.w) + quatf(q.norm_sq())).inverse()
            return (q.conjugate() - w) * (dinv * dinv) * dw * top(w)

        explicit = _node_sum(path, 2.0**f.order / math.pi, term)
        return _rel_gap(quad.fueter_integral(f, q, path), explicit)

    def bilinear_vanishes(r):
        n = r.randint(1, 3)
        f = _rand_slicefn(r, n, 4)
        g = _rand_right_fn(r, n, 4)
        path = quad.CirclePath(_rand_unit(r), 1.0, nodes)
        return abs(quad.cauchy_theorem_residual(f, g, path))

    def placement_witness(r):
        # correct sandwich reproduces a j-coefficient function; swapping the
        # measure element to the outside must visibly break it
        f = SlicePolyFn([SliceRegularSeries([Quaternion(0, 0, 0, 0), Quaternion(0, 0, 1, 0)])])
        q = quatf(0.2, 0.0, 0.3, 0.0)
        path = quad.CirclePath(UnitImaginary(Quaternion(0, 1, 0, 0)), 1.0, nodes)
        good = _rel_gap(quad.poly_cauchy_eval(f, q, path), f.evaluate(q))
        deriv = slice_cr_derivative(f.to_float(), 0)
        swapped = _node_sum(path, 0.5 / math.pi, lambda w, dw: kernels.f_j(w, q, 0) * deriv(w) * dw)
        bad = _rel_gap(swapped, f.evaluate(q))
        return good if bad > 1e-3 else float("inf")

    rep.checks.append(_check("reproduces_boundary_data", count, reproduces, rng, tol))
    rep.checks.append(_check("unit_independence", count, independence, rng, tol))
    rep.checks.append(_check("node_doubling_stable", min(count, 5), doubling, rng, 1e-13,
                             note="spectral plateau at the working node count"))
    rep.checks.append(_check("fueter_integral_matches_symbolic", count, fueter_matches, rng, 1e-7))
    rep.checks.append(_check("kernel_formulations_agree", count, formulations_agree, rng, 1e-12))
    rep.checks.append(_check("bilinear_integral_vanishes", count, bilinear_vanishes, rng, tol))
    rep.checks.append(_check("measure_placement_witness", min(count, 1), placement_witness, rng, tol,
                             note="infinite error reported if the swapped ordering also reproduces"))
    return rep


#: largest instance count per check; `verify all` costs about 80 ms per unit of count
MAX_COUNT = 1000

SUITES: dict[str, Callable[[int, int, float, int], SuiteReport]] = {
    "leibniz": suite_leibniz,
    "appell": suite_appell,
    "vn": suite_vn,
    "poly_fueter": suite_poly_fueter,
    "tauc": suite_tauc,
    "kernels": suite_kernels,
    "quadrature": suite_quadrature,
}


def run_suites(names: list[str], seed: int = 42, count: int = 12, tol: float = 1e-9,
               nodes: int = 512) -> list[SuiteReport]:
    if not 0 <= count <= MAX_COUNT:
        raise ValueError(f"count must be an integer in [0, {MAX_COUNT}], got {count}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    if "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return [SUITES[n](seed, count, tol, nodes) for n in names]
