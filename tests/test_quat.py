import dataclasses
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from slicepoly.quat import (
    E1,
    E2,
    E3,
    ONE,
    Quaternion,
    UnitImaginary,
    quatf,
)

from helpers import naive_mul

ints = st.integers(-50, 50)
floats = st.floats(-10.0, 10.0, allow_nan=False)
exact_quats = st.builds(Quaternion, ints, ints, ints, ints)
float_quats = st.builds(Quaternion, floats, floats, floats, floats)


class TestMul:
    def test_basis_table(self):
        assert E1 * E2 == E3
        assert E2 * E1 == -E3
        assert E2 * E3 == E1
        assert E3 * E2 == -E1
        assert E3 * E1 == E2
        assert E1 * E3 == -E2
        for e in (E1, E2, E3):
            assert e * e == -ONE

    def test_identity(self):
        q = Quaternion(3, -1, 2, 7)
        assert q * ONE == q
        assert ONE * q == q

    def test_distributive_example(self):
        # (1+i)(1+j) expanded over the basis table by the independent oracle
        p = ONE + E1
        q = ONE + E2
        assert p * q == naive_mul(p, q) == Quaternion(1, 1, 1, 1)

    @given(exact_quats, exact_quats)
    def test_matches_naive_table(self, p, q):
        assert p * q == naive_mul(p, q)

    @given(exact_quats, exact_quats)
    def test_conjugate_antihomomorphism(self, p, q):
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()

    @given(exact_quats, exact_quats)
    def test_norm_multiplicative_exact(self, p, q):
        assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()

    @given(float_quats, float_quats)
    def test_norm_multiplicative_float(self, p, q):
        assert math.isclose(abs(p * q), abs(p) * abs(q), rel_tol=1e-12, abs_tol=1e-12)

    @given(float_quats, float_quats)
    def test_conjugate_antihomomorphism_float(self, p, q):
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_backend_mixing_rejected(self):
        with pytest.raises(TypeError):
            Quaternion(1, 0, 0, 0) * quatf(1.0)
        with pytest.raises(TypeError):
            Quaternion(0.5, Fraction(1, 2), 0, 0)


class TestInverse:
    def test_unit_imaginary(self):
        assert E1.inverse() == -E1

    def test_real(self):
        assert Quaternion(2, 0, 0, 0).inverse() == Quaternion(Fraction(1, 2), 0, 0, 0)

    def test_multiply_back(self):
        q = ONE + E1
        assert q.inverse() == Quaternion(Fraction(1, 2), Fraction(-1, 2), 0, 0)
        assert q * q.inverse() == ONE

    @given(exact_quats)
    def test_roundtrip(self, q):
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                q.inverse()
        else:
            assert q * q.inverse() == ONE
            assert q.inverse() * q == ONE

    def test_modulus_identity(self):
        q = Quaternion(1, 2, -3, 4)
        assert q * q.conjugate() == Quaternion(q.norm_sq(), 0, 0, 0)


class TestNorm:
    @given(float_quats, st.integers(-1000, 1000))
    @example(quatf(1.0, -1.0, 0.0, 0.0), 1000)
    @example(quatf(3.0, 4.0, 0.0, 0.0), -997)
    def test_scales_over_the_float_range(self, q, e):
        # |2^e q| = 2^e |q| to a few ulps although the squares leave the float range
        top = max(map(abs, (q.w, q.x, q.y, q.z)))
        assume(top >= 1e-3 and math.ldexp(top, e) >= 2.0**-1000)
        want = math.ldexp(abs(q), e)
        got = abs(quatf(*(math.ldexp(c, e) for c in (q.w, q.x, q.y, q.z))))
        assert abs(got - want) <= 4 * sys.float_info.epsilon * want


class TestUnitImaginary:
    def test_standard_units(self):
        for e in (E1, E2, E3):
            u = UnitImaginary(e)
            assert u.u * u.u == -ONE

    def test_exact_pythagorean(self):
        u = UnitImaginary(Quaternion(0, Fraction(3, 5), Fraction(4, 5), 0))
        assert u.u * u.u == -ONE

    def test_rejects_non_units(self):
        with pytest.raises(ValueError):
            UnitImaginary(Quaternion(1, 1, 0, 0))
        with pytest.raises(ValueError):
            UnitImaginary(Quaternion(0, 1, 1, 0))
        with pytest.raises(ValueError):
            UnitImaginary(quatf(0.0, 0.9999, 0.0, 0.0))

    def test_from_vector_scaled_norm(self):
        for x, y, z in ((1e-170, 0.0, 0.0), (0.0, 5e-324, 0.0), (1e300, -1e300, 1e300),
                        (0.0, 2.225073858507e-311, 2.225073858507e-311), (1e-320, 0.0, 1e-320),
                        (5e-324, -5e-324, 5e-324)):
            u = UnitImaginary.from_vector(x, y, z)
            assert abs(u.u.vec_norm_sq() - 1.0) < 8e-16
        for bad in ((0.0, 0.0, 0.0), (math.nan, 1.0, 0.0), (math.inf, 0.0, 0.0)):
            with pytest.raises(ValueError):
                UnitImaginary.from_vector(*bad)

    def test_float_tolerance(self):
        u = UnitImaginary.from_vector(1.0, 1.0, 1.0)
        assert abs(u.u * u.u + quatf(1.0)) < 1e-14

    @given(floats, floats, floats)
    def test_from_vector_normalizes(self, x, y, z):
        if x * x + y * y + z * z < 1e-6:
            return
        u = UnitImaginary.from_vector(x, y, z)
        assert abs(u.u.vec_norm_sq() - 1.0) < 8e-16


class TestSerialization:
    def test_exact_roundtrip(self):
        q = Quaternion(Fraction(1, 3), -2, 0, Fraction(7, 2))
        data = q.to_json()
        assert data == ["1/3", "-2", "0", "7/2"]
        assert Quaternion.from_json(data) == q

    def test_float_roundtrip(self):
        q = quatf(0.5, -1.25, 0.0, 3.0)
        assert Quaternion.from_json(q.to_json()) == q

    def test_scalar_shorthand(self):
        assert Quaternion.from_json(3) == Quaternion(3, 0, 0, 0)

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            Quaternion.from_json([1, 2, 3])
        with pytest.raises(ValueError):
            Quaternion.from_json([1, 2, 3, None])

    def test_non_finite_scalars_refused(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Quaternion.from_json([0.5, 0, bad, 0])
            with pytest.raises(ValueError):
                Quaternion.from_json(bad)

    def test_zero_denominator_refused(self):
        for bad in ("1/0", "-3/0", "0/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                Quaternion.from_json([0, bad, 0, 0])
            with pytest.raises(ValueError, match="zero denominator"):
                Quaternion.from_json(bad)


class TestFastPaths:
    """The lean arithmetic keeps the backend rules and the frozen value semantics."""

    def test_mixed_backend_sums_and_products_raise(self):
        f, e = quatf(1.5, -2.0, 0.0, 0.25), Quaternion(1, Fraction(1, 3), 0, -2)
        for a, b in ((f, e), (e, f)):
            for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
                with pytest.raises(TypeError):
                    op(a, b)

    def test_mixed_backend_scalars_raise(self):
        f, e = quatf(1.5, -2.0, 0.0, 0.25), Quaternion(1, Fraction(1, 3), 0, -2)
        for bad in (lambda: f * Fraction(1, 2), lambda: Fraction(1, 2) * f,
                    lambda: e * 0.5, lambda: 0.5 * e):
            with pytest.raises(TypeError):
                bad()
        # ints scale either backend, from either side
        assert f * 2 == 2 * f == quatf(3.0, -4.0, 0.0, 0.5)
        assert e * 3 == 3 * e == Quaternion(3, 1, 0, -6)

    @given(float_quats)
    def test_new_is_frozen_and_equals_constructor(self, q):
        fast = Quaternion._new(q.w, q.x, q.y, q.z)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.w = 1.0
        assert fast == q and hash(fast) == hash(q)
        assert fast * 2.0 == Quaternion(q.w * 2.0, q.x * 2.0, q.y * 2.0, q.z * 2.0)

    @given(st.builds(Quaternion, ints, ints, ints, ints)
           | st.builds(Quaternion, *[st.fractions(max_denominator=10**6)] * 4))
    def test_to_float_componentwise(self, q):
        f = q.to_float()
        assert not f.is_exact
        assert (f.w, f.x, f.y, f.z) == tuple(float(c) for c in (q.w, q.x, q.y, q.z))
        assert all(type(c) is float for c in (f.w, f.x, f.y, f.z))


def test_pow_matches_repeated_mul():
    q = Quaternion(1, -2, 3, 1)
    acc = ONE
    for n in range(6):
        assert q**n == acc
        acc = acc * q


def test_to_float_is_explicit_and_one_way():
    q = Quaternion(1, Fraction(1, 2), 0, 0)
    f = q.to_float()
    assert not f.is_exact and f.x == 0.5
    assert q.is_exact
