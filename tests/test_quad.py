import contextlib
import io
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from slicepoly import kernels, qpoly, quad, verify
from slicepoly.cli import main
from slicepoly.errors import OnSingularSphere, OrderMismatch, OutsideContour
from slicepoly.oracle import fd_cauchy_fueter
from slicepoly.quad import (
    CirclePath,
    cauchy_theorem_residual,
    fueter_integral,
    fueter_integral_explicit,
    poly_cauchy_eval,
    unit_independence_check,
)
from slicepoly.quat import E2, ONE, Quaternion, U1, UnitImaginary, ZERO, quatf
from slicepoly.slicefn import (
    RightSlicePolyFn,
    SlicePolyFn,
    SliceRegularSeries,
    slice_cr_derivative,
)

from helpers import pointwise_integral, rand_point, rand_rightfn, rand_slicefn, rand_unit

S = SliceRegularSeries


def fn(*coeff_lists):
    return SlicePolyFn([S(list(c)) for c in coeff_lists])


PATH = CirclePath(U1, 1.0, 512)


class TestCirclePath:
    def test_nodes_on_circle(self):
        path = CirclePath(UnitImaginary.from_vector(0, 1, 1), 2.0, 16)
        for w, dw in path.nodes():
            assert math.isclose(abs(w), 2.0, rel_tol=1e-12)
            assert math.isclose(abs(dw), 2.0 * 2.0 * math.pi / 16, rel_tol=1e-12)

    def test_accepts_unnormalized_unit(self):
        path = CirclePath(UnitImaginary.from_vector(0, 3, 4), 1.0, 64)
        assert path.unit.u.approx_eq(quatf(0.0, 0.0, 0.6, 0.8))

    def test_validation(self):
        with pytest.raises(ValueError):
            CirclePath(U1, -1.0, 64)
        with pytest.raises(ValueError):
            CirclePath(U1, 1.0, 2)

    def test_rejects_non_finite_radius_and_huge_node_count(self):
        for rho in (math.nan, math.inf):
            with pytest.raises(ValueError):
                CirclePath(U1, rho, 64)
        with pytest.raises(ValueError):
            CirclePath(U1, 1.0, quad.MAX_NODES + 1)
        assert CirclePath(U1, 1.0, quad.MIN_NODES).n == quad.MIN_NODES

    def test_nodes_match_line_elements(self):
        # dw_m = w_m dtheta, both on the slice of the contour's unit
        path = CirclePath(UnitImaginary.from_vector(1, -2, 0.5), 1.5, 32)
        dtheta = 2.0 * math.pi / 32
        for w, dw in path.nodes():
            assert (w * dtheta).approx_eq(dw, 1e-15)
            assert abs(w * path.unit.u - path.unit.u * w) <= 1e-15


class TestPolyCauchy:
    def test_constant(self):
        f = fn([ONE])
        got = poly_cauchy_eval(f, quatf(0.3, 0.1, -0.2, 0.05), PATH)
        assert abs(got - quatf(1.0)) <= 1e-12

    def test_conjugate_order_two(self):
        f = fn([], [ONE])
        got = poly_cauchy_eval(f, quatf(0.25, 0.25), PATH)
        assert got.approx_eq(quatf(0.25, -0.25), 1e-11)

    def test_mixed_function_via_eval_oracle(self):
        f = fn([ZERO, ONE], [ZERO, ZERO, ONE])  # q + conj(q) q^2
        q = quatf(0.3, 0.0, 0.1, 0.0)
        got = poly_cauchy_eval(f, q, PATH)
        ref = f.evaluate(q)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_random_corpus(self):
        rng = random.Random(101)
        for _ in range(10):
            f = rand_slicefn(rng, rng.randint(1, 3), 4)
            q = rand_point(rng, 0.0, 0.6)
            path = CirclePath(rand_unit(rng), 1.0, 512)
            got = poly_cauchy_eval(f, q, path)
            ref = f.evaluate(q)
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_outside_contour(self):
        with pytest.raises(OutsideContour):
            poly_cauchy_eval(fn([ONE]), quatf(1.5), PATH)
        with pytest.raises(OutsideContour):
            poly_cauchy_eval(fn([ONE]), quatf(0.0, 1.0), PATH)

    def test_configurable_radius(self):
        f = fn([], [ONE])
        path = CirclePath(U1, 2.0, 512)
        q = quatf(1.2, 0.3)
        got = poly_cauchy_eval(f, q, path)
        assert got.approx_eq(q.conjugate(), 1e-9)


class TestFueterIntegral:
    def test_symbolic_oracle_case(self):
        f = fn([], [ZERO, ZERO, ONE])  # conj(q) q^2, order 2
        got = fueter_integral(f, quatf(0.2, 0.1), PATH)
        assert got.approx_eq(quatf(-8.0), 1e-8)

    def test_order_one_constant_image(self):
        f = fn([ZERO, ZERO, ONE])  # q^2, order 1
        for q in (quatf(0.1), quatf(-0.2, 0.3), quatf(0.0, 0.1, 0.4, 0.0)):
            got = fueter_integral(f, q, PATH)
            assert got.approx_eq(quatf(-4.0), 1e-9)

    def test_vanishing_image(self):
        f = fn([], [ONE])  # conj(q): V gives the constant 2, laplacian kills it
        got = fueter_integral(f, quatf(0.3, 0.2), PATH)
        assert abs(got) <= 1e-9

    def test_cubic_at_real_point(self):
        f = fn([ZERO, ZERO, ZERO, ONE])
        got = fueter_integral(f, quatf(0.1), PATH)
        assert got.approx_eq(quatf(-1.2), 1e-9)

    def test_matches_symbolic_on_corpus(self):
        rng = random.Random(103)
        for _ in range(8):
            f = rand_slicefn(rng, rng.randint(1, 3), 4)
            q = rand_point(rng, 0.0, 0.6)
            path = CirclePath(rand_unit(rng), 1.0, 512)
            ref = qpoly.tau_n(f.expand(), f.order).evaluate(q)
            got = fueter_integral(f, q, path)
            assert abs(got - ref) <= 1e-7 * max(1.0, abs(ref))

    def test_explicit_formulation_agrees(self):
        rng = random.Random(107)
        for _ in range(8):
            f = rand_slicefn(rng, rng.randint(1, 3), 4)
            q = rand_point(rng, 0.0, 0.6)
            path = CirclePath(rand_unit(rng), 1.0, 512)
            # -1 * 2^n/pi = -4 * 2^(n-1)/(2 pi) exactly in binary64
            assert fueter_integral_explicit(f, q, path) == fueter_integral(f, q, path)

    def test_reads_only_the_top_component(self):
        # f_0..f_{n-2} never reach the integral: replacing them, even by 2^600, which would
        # prescale a tiny top component into the subnormal range, moves no bit
        rng = random.Random(109)
        tiny = fn([], [ZERO, ZERO, quatf(0.0, 0.0, 1.1 * 2.0**-1000)])
        cases = [(tiny, quatf(0.2, 0.1), CirclePath(U1, 1.0, 64))]
        for _ in range(6):
            f = rand_slicefn(rng, rng.randint(2, 4), 4)
            cases.append((f, rand_point(rng, 0.0, 0.6), CirclePath(rand_unit(rng), 1.0, 64)))
        for f, q, path in cases:
            want = fueter_integral(f, q, path)
            top = f.components[-1]
            for low in (S(), S([quatf(2.0**600)]), S([ONE, E2, ONE])):
                g = SlicePolyFn([low] * (f.order - 1) + [top])
                assert fueter_integral(g, q, path) == want
        assert fueter_integral(tiny, quatf(0.2, 0.1), CirclePath(U1, 1.0, 64)).approx_eq(
            quatf(0.0, 0.0, -8 * 1.1 * 2.0**-1000), 1e-9 * 2.0**-1000)

    def test_explicit_on_constant(self):
        got = fueter_integral_explicit(fn([ONE]), quatf(0.2, 0.3), PATH)
        assert abs(got) <= 1e-12

    def test_output_fueter_regular_in_q(self):
        f = fn([], [ZERO, ONE])  # conj(q) q
        g = lambda p: fueter_integral(f, p, CirclePath(U1, 1.0, 128))
        got = fd_cauchy_fueter(g, quatf(0.2, 0.1, -0.1, 0.15), 1e-3)
        assert abs(got) < 1e-6


class TestCauchyTheorem:
    def test_conjugate_against_constant(self):
        f = fn([], [ONE])  # conj(q), order 2
        g = RightSlicePolyFn([[ONE], []])  # constant, padded to order 2
        assert abs(cauchy_theorem_residual(f, g, PATH)) <= 1e-9

    def test_constants_order_one(self):
        f = fn([Quaternion(0, 1, 2, 0)])
        g = RightSlicePolyFn([[Quaternion(3, 0, 0, -1)]])
        assert abs(cauchy_theorem_residual(f, g, PATH)) <= 1e-12

    def test_mixed_pair(self):
        f = fn([ZERO, ONE], [ZERO, ZERO, ONE])  # q + conj(q) q^2
        g = RightSlicePolyFn([[], [ONE]])  # conj(q), right-sided
        assert abs(cauchy_theorem_residual(f, g, PATH)) <= 1e-9

    def test_random_pairs(self):
        rng = random.Random(109)
        for _ in range(6):
            n = rng.randint(1, 3)
            f = rand_slicefn(rng, n, 4)
            g = rand_rightfn(rng, n, 4)
            path = CirclePath(rand_unit(rng), 1.0, 512)
            assert abs(cauchy_theorem_residual(f, g, path)) <= 1e-9

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            cauchy_theorem_residual(fn([ONE]), RightSlicePolyFn([[ONE], []]), PATH)


class TestUnitIndependence:
    def test_conjugate_across_units(self):
        f = fn([], [ONE])
        q = quatf(0.25, 0.0, 0.0, 0.25)
        u2 = UnitImaginary.from_vector(0.0, 1.0, 1.0)
        assert unit_independence_check(f, q, U1, u2) <= 1e-9

    def test_constant_to_roundoff(self):
        f = fn([ONE])
        got = unit_independence_check(f, quatf(0.1, 0.2), U1, UnitImaginary.from_vector(1, 1, 1))
        assert got <= 1e-13

    def test_fueter_integral_across_units(self):
        f = fn([], [ZERO, ZERO, ONE])
        q = quatf(0.2, 0.1)
        u2 = UnitImaginary.from_vector(0.5, -1.0, 2.0)
        a = fueter_integral(f, q, CirclePath(U1, 1.0, 512))
        b = fueter_integral(f, q, CirclePath(u2, 1.0, 512))
        assert abs(a - b) <= 1e-8


class TestSpectralBehavior:
    def test_doubling_stability_at_working_sizes(self):
        rng = random.Random(113)
        for _ in range(4):
            f = rand_slicefn(rng, rng.randint(1, 3), 4)
            q = rand_point(rng, 0.0, 0.6)
            u = rand_unit(rng)
            a = poly_cauchy_eval(f, q, CirclePath(u, 1.0, 512))
            b = poly_cauchy_eval(f, q, CirclePath(u, 1.0, 1024))
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_threshold_exactness_for_small_points(self):
        # with |q| small the node count threshold 2*deg+4 already reaches the
        # plateau: the aliasing tail scales like |q|^N
        rng = random.Random(127)
        for _ in range(4):
            f = rand_slicefn(rng, 2, 3)  # order 2, degree <= 3: deg(expansion) <= 5
            q = rand_point(rng, 0.0, 0.1)
            u = rand_unit(rng)
            n0 = 2 * 5 + 4 + 2
            a = poly_cauchy_eval(f, q, CirclePath(u, 1.0, n0))
            b = poly_cauchy_eval(f, q, CirclePath(u, 1.0, 2 * n0))
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_convergence_from_coarse(self):
        # below the plateau the error is visible, then collapses
        f = fn([], [ZERO, ZERO, ONE])
        q = quatf(0.45, 0.35)
        ref = f.evaluate(q)
        err8 = abs(poly_cauchy_eval(f, q, CirclePath(U1, 1.0, 8)) - ref)
        err64 = abs(poly_cauchy_eval(f, q, CirclePath(U1, 1.0, 64)) - ref)
        assert err8 > 1e-4
        assert err64 < 1e-9


class TestOrderingSensitivity:
    def test_measure_placement_witness(self):
        # data with coefficients off the contour slice: the sandwich ordering
        # reproduces the function, moving the measure to the outside does not
        f = SlicePolyFn([S([ZERO, Quaternion(0, 0, 1, 0)])])  # f(q) = q e2
        q = quatf(0.2, 0.0, 0.3, 0.0)
        ref = f.evaluate(q)
        good = poly_cauchy_eval(f, q, PATH)
        assert abs(good - ref) <= 1e-10

        deriv = slice_cr_derivative(f.to_float(), 0)
        swapped = verify._node_sum(PATH, 0.5 / math.pi,
                                   lambda w, dw: kernels.f_j(w, q, 0) * deriv(w) * dw)
        assert abs(swapped - ref) > 1e-3


class TestSliceComplexRoute:
    """The slice-complex driver against the pointwise quaternion sandwiches of helpers."""

    KERNEL_INTEGRALS = {
        "cauchy": poly_cauchy_eval,
        "fueter": fueter_integral,
        "explicit": fueter_integral_explicit,
    }

    def test_agrees_with_pointwise_sandwich(self):
        rng = random.Random(131)
        for n_nodes in (16, 512, 1024):
            for order in (1, 2, 3):
                f = rand_slicefn(rng, order, 4)
                g = rand_rightfn(rng, order, 4)
                q = rand_point(rng, 0.0, 0.6)
                path = CirclePath(rand_unit(rng), 1.0, n_nodes)
                for kind, integral in self.KERNEL_INTEGRALS.items():
                    ref, _ = pointwise_integral(kind, f, None, q, path)
                    assert abs(integral(f, q, path) - ref) <= 1e-13 * max(1.0, abs(ref)), kind
                # the residual's true value is 0, so both routes sit at the rounding
                # floor of the node sum, a few ulps of sum |term| (over 1e-13 for
                # some order-3 sums at N = 16)
                ref, terms = pointwise_integral("residual", f, g, q, path)
                floor = 4.0 * sys.float_info.epsilon * math.fsum(abs(t) for t in terms)
                assert abs(cauchy_theorem_residual(f, g, path) - ref) <= max(1e-13, floor)

    def test_singular_sphere_guard(self):
        # the node at theta = pi/2 lies within 1e-12 of the sphere of q
        q = quatf(0.0, 1.0 - 1e-12)
        f = fn([ONE], [ZERO, ONE])
        for integral in self.KERNEL_INTEGRALS.values():
            with pytest.raises(OnSingularSphere):
                integral(f, q, PATH)
        # that node is about 2e-9 from the sphere of the first point, 5e-10 from the second's
        path = CirclePath(U1, 1.0, 4)
        assert math.isfinite(abs(poly_cauchy_eval(f, quatf(0.0, 1.0 - 2e-9), path)))
        with pytest.raises(OnSingularSphere):
            poly_cauchy_eval(f, quatf(0.0, 1.0 - 5e-10), path)

    def test_rejects_non_finite_point(self):
        for q in (quatf(math.nan), quatf(0.1, math.inf), quatf(0.0, 0.0, -math.inf)):
            for integral in self.KERNEL_INTEGRALS.values():
                with pytest.raises(ValueError):
                    integral(fn([ONE]), q, PATH)

    def test_weights_beyond_float_range(self):
        # CR^1199 of conj(q)^1199 carries the weight 1199!; the order-1200 prefactor
        # 2^1199 is only an exponent, so a vanishing top component answers 0
        top = SlicePolyFn([S([])] * 1199 + [S([ONE])])
        bottom = SlicePolyFn([S([ONE])] + [S([])] * 1199)
        q = quatf(0.1, 0.2)
        for integral in self.KERNEL_INTEGRALS.values():
            with pytest.raises(ValueError):
                integral(top, q, PATH)
        for integral in (fueter_integral, fueter_integral_explicit):
            assert integral(bottom, q, PATH) == quatf()
        with pytest.raises(ValueError):
            cauchy_theorem_residual(top, RightSlicePolyFn([[ONE]] * 1200), PATH)

    def test_high_order_with_small_weights_still_integrates(self):
        # a padded order-200 constant needs no weight above 1
        f = SlicePolyFn([S([ONE])] + [S([])] * 199)
        assert poly_cauchy_eval(f, quatf(0.1, 0.2), PATH).approx_eq(quatf(1.0), 1e-12)
        # at order 1024 the top derivative vanishes too, whatever the prefactor 2^1023
        f = SlicePolyFn([S([ONE])] + [S([])] * 1023)
        for integral in (fueter_integral, fueter_integral_explicit):
            assert integral(f, quatf(0.1, 0.2), PATH).is_zero()


def _unconjugated_sum(path, left, right, scale, exp):
    """quad._contour_sum with J c = conj(c) J dropped from the node sandwich."""
    s1, s2 = [], []
    for z in path._z:
        for (a, b), (p, q) in zip(left(z), right(z)):
            u, v = z * p, z * q
            s1.append(a * u - b * v)
            s2.append(a * v + b * u)
    r1, i1, r2, i2 = (math.fsum(getattr(t, part) for t in s)
                      for s in (s1, s2) for part in ("real", "imag"))
    iu, ju, ku = path._frame
    out = (quatf(r1) + iu * i1 + ju * r2 + ku * i2) * (scale * 2.0 * math.pi / path.n)
    return quatf(*(math.ldexp(c, exp) for c in (out.w, out.x, out.y, out.z)))


class TestFormulationsCheck:
    def test_fails_on_a_driver_without_the_conjugation_rule(self, monkeypatch):
        def formulations():
            rep = verify.suite_quadrature(seed=3, count=2, tol=1e-9, nodes=128)
            return next(c for c in rep.checks if c.name == "kernel_formulations_agree")

        assert formulations().passed
        monkeypatch.setattr(quad, "_contour_sum", _unconjugated_sum)
        check = formulations()
        assert not check.passed and check.max_error > 1e-3


_ints = st.integers(-3, 3)
_quats = st.builds(Quaternion, _ints, _ints, _ints, _ints)
_coords = st.integers(-290, 290).map(lambda n: n / 1000)  # |q| <= 0.58


def _integrate(kind, spec, q, unit, n) -> float:
    """abs_deviation of the in-process ``slicepoly integrate``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["integrate", kind, json.dumps(spec), json.dumps(q.to_json()),
                     f"--unit={','.join(map(str, unit))}", f"--nodes={n}"])
    assert code == 0
    return json.loads(out.getvalue())["abs_deviation"]


class TestFloatRange:
    """Scaling f by 2^e scales every integral by 2^e bit for bit, for e in [-900, 900].

    Below that, partial node terms turn subnormal and the last bits move.  The CLI's
    abs_deviation agrees within 4 ulps, since float abs switches between the sum of
    squares and hypot across the range."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(_quats, max_size=5), min_size=1, max_size=3),
           st.integers(-900, 900), st.sampled_from([16, 64, 512]),
           st.tuples(_coords, _coords, _coords, _coords),
           st.tuples(_ints, _ints, _ints).filter(any))
    @example([[Quaternion(1, -2, 3, 0)] * 5] * 3, -900, 512, (0.29, -0.29, 0.29, -0.29), (1, 0, 0))
    @example([[Quaternion(0, 0, 1, 0)]] * 2, 900, 16, (0.0, 0.0, 0.0, 0.0), (0, 0, 1))
    def test_scaling_is_exact(self, comps, e, n, point, vector):
        f = SlicePolyFn([S(c) for c in comps])
        g = RightSlicePolyFn(comps[::-1])
        scaled = SlicePolyFn([c.to_float().scale(2.0**e) for c in f.components])
        q, unit = quatf(*point), UnitImaginary.from_vector(*vector)
        path = CirclePath(unit, 1.0, n)
        for integral in (poly_cauchy_eval, fueter_integral, fueter_integral_explicit):
            assert integral(scaled, q, path) == integral(f, q, path) * 2.0**e
        assert cauchy_theorem_residual(scaled, g, path) == \
            cauchy_theorem_residual(f, g, path) * 2.0**e
        for kind in ("cauchy", "fueter"):
            want = _integrate(kind, f.to_json(), q, vector, n) * 2.0**e
            got = _integrate(kind, scaled.to_json(), q, vector, n)
            assert abs(got - want) <= 4 * sys.float_info.epsilon * want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(_quats, max_size=5), min_size=1, max_size=3),
           st.integers(-400, 511), st.sampled_from([16, 64, 512]),
           st.tuples(_ints, _ints, _ints).filter(any))
    @example([[Quaternion(1, -2, 3, 0)] * 5] * 3, 511, 512, (1, 0, 0))
    @example([[Quaternion(3, 3, 3, 3)] * 5] * 3, 511, 16, (0, 1, 1))
    def test_residual_scaling_is_exact(self, comps, e, n, vector):
        # both sides scaled by 2^e scale the residual by 2^(2e); each side is prescaled
        # to at most 2^PRESCALE = 2^256, so their node products stay in range to e = 511
        f = SlicePolyFn([S(c) for c in comps])
        g = RightSlicePolyFn(comps[::-1])
        path = CirclePath(UnitImaginary.from_vector(*vector), 1.0, n)
        scaled = cauchy_theorem_residual(
            SlicePolyFn([c.to_float().scale(2.0**e) for c in f.components]),
            RightSlicePolyFn([[a.to_float() * 2.0**e for a in cs] for cs in g.components]), path)
        assert scaled == cauchy_theorem_residual(f, g, path) * 2.0 ** (2 * e)
