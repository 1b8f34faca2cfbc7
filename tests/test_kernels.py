import math
import random

import pytest
from hypothesis import example, given, strategies as st

from slicepoly import kernels, oracle
from slicepoly.errors import OnSingularSphere
from slicepoly.kernels import SINGULAR_GUARD, delta_s_inv, f_j, s_inv
from slicepoly.quat import Quaternion, quatf

from helpers import rand_circle_node, rand_point, rand_unit


def shell_point(rng, rmin, rmax):
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(t * t for t in v))
    r = rng.uniform(rmin, rmax)
    return quatf(*(t * r / n for t in v))


class TestSInv:
    def test_at_origin_is_inverse(self):
        rng = random.Random(1)
        for _ in range(10):
            s = shell_point(rng, 0.5, 2.0)
            assert s_inv(s, quatf()).approx_eq(s.inverse())

    def test_real_arguments(self):
        assert s_inv(quatf(2.0), quatf(1.0)).approx_eq(quatf(1.0))

    def test_common_slice_reduction(self):
        assert s_inv(quatf(0, 2), quatf(0, 1)).approx_eq(quatf(0, -1))
        rng = random.Random(2)
        for _ in range(20):
            u = rand_unit(rng)
            s = quatf(rng.uniform(-1, 1)) + u.u * rng.uniform(0.8, 1.6)
            q = quatf(rng.uniform(-0.5, 0.5)) + u.u * rng.uniform(-0.5, 0.5)
            assert s_inv(s, q).approx_eq((s - q).inverse())

    def test_right_slice_regular_in_s(self):
        rng = random.Random(3)
        for _ in range(20):
            u = rand_unit(rng)
            s = quatf(rng.uniform(-1.5, 1.5)) + u.u * rng.uniform(0.8, 1.6)
            if abs(s) < 1.3:
                s = s * (1.5 / abs(s))
            q = rand_point(rng, 0.05, 0.4)
            fd = oracle.fd_slice_cr(lambda p: s_inv(p, q), u.u, s, 1e-5, side="right")
            assert abs(fd) < 1e-8

    def test_singular_sphere_guard(self):
        with pytest.raises(OnSingularSphere):
            s_inv(quatf(1.0, 1.0), quatf(1.0, 0.0, 1.0))
        # symmetric representative on the same sphere, different unit
        with pytest.raises(OnSingularSphere):
            s_inv(quatf(0.3, 0.0, 0.4), quatf(0.3, 0.4))

    def test_rejects_exact_backend(self):
        with pytest.raises(TypeError):
            s_inv(Quaternion(2, 0, 0, 0), quatf(0.5))


class TestDeltaSInv:
    def test_at_origin(self):
        rng = random.Random(5)
        for _ in range(10):
            s = shell_point(rng, 0.7, 2.0)
            expected = s.inverse() ** 3 * -4.0
            assert delta_s_inv(s, quatf()).approx_eq(expected)

    def test_real_example(self):
        assert delta_s_inv(quatf(2.0), quatf()).approx_eq(quatf(-0.5))

    def test_fd_laplacian_matches_closed_form(self):
        # the stated spot check: s = 2, q = 0.1 + 0.2i, h = 1e-3
        s, q = quatf(2.0), quatf(0.1, 0.2)
        fd = oracle.fd_laplacian(lambda p: s_inv(s, p), q, 1e-3)
        assert abs(fd - delta_s_inv(s, q)) < 1e-5

    def test_fd_laplacian_matches_on_corpus(self):
        rng = random.Random(7)
        for _ in range(25):
            s = shell_point(rng, 1.8, 2.6)
            q = rand_point(rng, 0.05, 0.4)
            fd = oracle.fd_laplacian(lambda p: s_inv(s, p), q, 1e-3)
            assert abs(fd - delta_s_inv(s, q)) < 1e-5

    def test_fueter_regular_in_q(self):
        rng = random.Random(9)
        for _ in range(25):
            s = shell_point(rng, 1.8, 2.6)
            q = rand_point(rng, 0.05, 0.4)
            fd = oracle.fd_cauchy_fueter(lambda p: delta_s_inv(s, p), q, 1e-3)
            assert abs(fd) < 1e-5


class TestFj:
    def test_order_zero_is_cauchy_kernel(self):
        rng = random.Random(11)
        for _ in range(10):
            w = rand_circle_node(rng)
            q = rand_point(rng, 0.05, 0.5)
            assert f_j(w, q, 0) == s_inv(w, q)

    def test_real_example(self):
        assert f_j(quatf(2.0), quatf(), 1).approx_eq(quatf(1.0))

    def test_vanishes_on_equal_real_parts(self):
        w = quatf(0.3, 1.0)
        q = quatf(0.3, 0.0, 0.2, 0.0)
        assert f_j(w, q, 2).approx_eq(quatf(0.0))

    def test_ladder_under_fd_v(self):
        rng = random.Random(13)
        for _ in range(25):
            w = rand_circle_node(rng)
            q = rand_point(rng, 0.05, 0.3, vecmin=0.1)
            for j in (1, 2):
                fd = oracle.fd_global_v(lambda p: f_j(w, p, j), q, 5e-4)
                assert abs(fd + f_j(w, q, j - 1)) < 1e-5

    def test_ladder_base_in_kernel(self):
        rng = random.Random(17)
        for _ in range(25):
            w = rand_circle_node(rng)
            q = rand_point(rng, 0.05, 0.3, vecmin=0.1)
            fd = oracle.fd_global_v(lambda p: f_j(w, p, 0), q, 5e-4)
            assert abs(fd) < 1e-5

    def test_composed_map_sends_top_kernel_down(self):
        # laplacian after V on the order-1 kernel lands on minus the mapped
        # Cauchy kernel; nested h = 1e-2 stencils plus one Richardson step
        rng = random.Random(19)
        for _ in range(15):
            w = rand_circle_node(rng)
            q = rand_point(rng, 0.05, 0.25, vecmin=0.12)

            def stencil(h):
                return oracle.fd_laplacian(
                    lambda p: oracle.fd_global_v(lambda t: f_j(w, t, 1), p, h), q, h
                )

            assert abs(oracle.richardson(stencil, 1e-2) + delta_s_inv(w, q)) < 1e-3

    def test_right_polyanalytic_order_in_w(self):
        # j = 1: the kernel has order exactly 2 in w on the w-slice; the
        # second right CR power vanishes to nested-stencil noise while the
        # first stays visibly nonzero
        rng = random.Random(23)
        for _ in range(8):
            u = rand_unit(rng)
            theta = rng.uniform(0, 2 * math.pi)
            w = quatf(math.cos(theta)) + u.u * math.sin(theta)
            q = rand_point(rng, 0.05, 0.3)
            h = 1e-2

            def d1(p):
                return oracle.fd_slice_cr(lambda t: f_j(t, q, 1), u.u, p, h, side="right")

            second = oracle.fd_slice_cr(d1, u.u, w, h, side="right")
            assert abs(second) < 5e-3
            assert abs(d1(w)) > 1e-2


# -- bit identity with the Quaternion-operator formulas ---------------------------


def _ref_parts(s, q):
    gap = abs(q.w - s.w) + abs(math.sqrt(q.vec_norm_sq()) - math.sqrt(s.vec_norm_sq()))
    if gap < SINGULAR_GUARD:
        raise OnSingularSphere("reference guard")
    d = s * s - s * (2.0 * q.w) + Quaternion(q.norm_sq(), 0.0, 0.0, 0.0)
    return s - q.conjugate(), d.inverse()


def _ref_kernel(kind, s, q):
    num, inv = _ref_parts(s, q)
    if kind == "delta_s_inv":
        return num * (inv * inv) * -4.0
    base = num * inv
    j = int(kind[-1]) if kind.startswith("f_") else 0
    return base if j == 0 else base * ((s.w - q.w) ** j / math.factorial(j))


def _kernel(kind, s, q):
    if kind.startswith("f_"):
        return f_j(s, q, int(kind[-1]))
    return getattr(kernels, kind)(s, q)


def _bits(fn, *args):
    """Component reprs (so -0.0 differs from 0.0), or the exception type raised."""
    try:
        r = fn(*args)
    except (OnSingularSphere, ZeroDivisionError) as exc:
        return type(exc)
    return tuple(repr(v) for v in (r.w, r.x, r.y, r.z))


_comp = st.floats(-3.0, 3.0, allow_nan=False)
_fquat = st.builds(Quaternion, _comp, _comp, _comp, _comp)
_kinds = st.sampled_from(["s_inv", "delta_s_inv", "f_0", "f_1", "f_2", "f_3"])
# just outside and just inside the guard: |Re q - Re s| = 1.5 and 0.5 guards
_OUTSIDE = Quaternion(1.0 + 1.5 * SINGULAR_GUARD, 0.0, 1.0, 0.0)
_INSIDE = Quaternion(1.0 + 0.5 * SINGULAR_GUARD, 0.0, 1.0, 0.0)


class TestBitIdentity:
    @given(_kinds, _fquat, _fquat)
    @example("s_inv", quatf(0.7, 1.1, -0.4, 0.2), Quaternion(0.3, -0.0, -0.0, -0.0))
    @example("delta_s_inv", quatf(-1.2, 0.0, 0.9), Quaternion(0.3, -0.0, -0.0, -0.0))
    @example("f_2", quatf(1.0, 1.0), Quaternion(-0.5, -0.0, -0.0, -0.0))
    @example("s_inv", quatf(1.0, 1.0), _OUTSIDE)
    @example("delta_s_inv", quatf(1.0, 1.0), _OUTSIDE)
    @example("f_3", quatf(1.0, 1.0), _OUTSIDE)
    @example("s_inv", quatf(1.0, 1.0), _INSIDE)
    @example("f_1", quatf(1.0, 1.0), _INSIDE)
    def test_matches_quaternion_route(self, kind, s, q):
        assert _bits(_kernel, kind, s, q) == _bits(_ref_kernel, kind, s, q)

    def test_guard_boundary(self):
        s = quatf(1.0, 1.0)
        for kind in ("s_inv", "delta_s_inv", "f_0", "f_2"):
            assert isinstance(_bits(_kernel, kind, s, _OUTSIDE), tuple)
            with pytest.raises(OnSingularSphere):
                _kernel(kind, s, _INSIDE)
