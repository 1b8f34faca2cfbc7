import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from slicepoly import qpoly
from slicepoly.errors import DegreeCapExceeded, NotInClass, NotOrthogonal
from slicepoly.qpoly import QPoly, expand_q_power, expand_qbar_power, global_v
from slicepoly.quat import E1, E2, ONE, Quaternion, U1, U2, UnitImaginary, ZERO, quatf
from slicepoly.slicefn import (
    MAX_ORDER,
    RightSlicePolyFn,
    SlicePolyFn,
    SliceRegularSeries,
    appell_apply,
    appell_check,
    decompose,
    right_cr_derivative,
    slice_cr_derivative,
    _horner,
)
from slicepoly.quad import canonical_perp, restrict, split_frame

from helpers import (
    embed_complex,
    horner_expansions,
    rand_point,
    rand_quat,
    rand_rightfn,
    rand_series,
    rand_slicefn,
    rand_unit,
    v_peel_decompose,
)

S = SliceRegularSeries


def fn(*component_coeff_lists):
    return SlicePolyFn([S(list(c)) for c in component_coeff_lists])


class TestExpand:
    def test_identity_series(self):
        f = fn([ZERO, ONE])
        assert f.expand() == expand_q_power(1)

    def test_pure_conjugate(self):
        f = fn([], [ONE])
        assert f.expand() == expand_qbar_power(1)

    def test_pointwise_oracle(self):
        # f = q + conj(q) q^2 at q = i: i + (-i)(-1) = 2i
        f = fn([ZERO, ONE], [ZERO, ZERO, ONE])
        assert f.evaluate(E1) == Quaternion(0, 2, 0, 0)
        assert f.expand().evaluate(E1) == Quaternion(0, 2, 0, 0)

    def test_expansion_matches_pointwise_on_random_data(self):
        rng = random.Random(3)
        for _ in range(20):
            f = rand_slicefn(rng, rng.randint(1, 4), 4)
            p = f.expand()
            for _ in range(5):
                q = rand_quat(rng)
                assert p.evaluate(q) == f.evaluate(q)

    def test_zero_coefficients_skipped(self):
        # q^3 = x0^3 + 3 v x0^2 - 3 x0 s - v s: the zeros below E2 add no stem entry
        f = S([ZERO, ZERO, ZERO, E2])
        assert qpoly._stem(qpoly._cells([f.coeffs])) == {
            (0, 3, 0): (0, 0, 1, 0), (1, 2, 0): (0, 0, 3, 0),
            (0, 1, 1): (0, 0, -3, 0), (1, 0, 1): (0, 0, -1, 0)}
        assert f.expand() == expand_q_power(3) * E2

    def test_degree_cap_before_any_power(self, monkeypatch):
        # conj(q)^k q^m above the cap is refused while the stem is built, before it expands
        expanded = []
        monkeypatch.setattr(qpoly, "_expand_stem", lambda stem: expanded.append(stem))
        with pytest.raises(DegreeCapExceeded):
            S([ONE] * (qpoly.DEGREE_CAP + 2)).expand()
        with pytest.raises(DegreeCapExceeded):
            SlicePolyFn([S()] * qpoly.DEGREE_CAP + [S([ZERO, ONE])]).expand()
        assert expanded == []

    def test_series_expansion_in_global_kernel(self):
        rng = random.Random(5)
        for _ in range(10):
            s = rand_series(rng, rng.randint(0, 6))
            assert qpoly.global_g(s.expand()).is_zero()


class TestDecompose:
    def test_pure_conjugate_square(self):
        got = decompose(expand_qbar_power(2), 3)
        assert got.order == 3
        assert got.components[0].is_zero() and got.components[1].is_zero()
        assert got.components[2] == S([ONE])

    def test_roundtrip_example(self):
        f = fn([ZERO, ONE], [ZERO, ZERO, ONE])
        assert decompose(f.expand(), 2) == f

    def test_order_one(self):
        got = decompose(expand_q_power(3), 1)
        assert got.components[0] == S([ZERO, ZERO, ZERO, ONE])

    def test_uniqueness_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(25):
            f = rand_slicefn(rng, rng.randint(1, 4), 5)
            g = decompose(f.expand(), f.order)
            assert g == f.trim()
            assert g.expand() == f.expand()

    def test_minimal_order_returned(self):
        f = SlicePolyFn([S([ONE, E2]), S(), S()])
        assert decompose(f.expand(), 3).order == 1

    def test_rejects_non_class_input(self):
        with pytest.raises(NotInClass):
            decompose(QPoly.variable(1), 2)
        with pytest.raises(NotInClass):
            decompose(QPoly.variable(2), 1)

    def test_constant_at_high_order_applies_v_once_per_level(self, monkeypatch):
        calls = []
        v = qpoly.global_v
        monkeypatch.setattr(qpoly, "global_v", lambda p: calls.append(1) or v(p))
        assert decompose(QPoly.constant(E2), 1000) == fn([E2])
        assert len(calls) <= 1000

    def test_declared_order_far_above_the_degree(self, monkeypatch):
        rng = random.Random(17)
        f = rand_slicefn(rng, 4, 4)
        p = f.expand()
        calls = []
        v = qpoly.global_v
        monkeypatch.setattr(qpoly, "global_v", lambda r: calls.append(1) or v(r))
        assert decompose(p, MAX_ORDER) == f.trim()
        assert len(calls) <= (p.degree + 2) ** 2

    def test_level_of_failure_in_message(self):
        with pytest.raises(NotInClass, match="does not extend at level 3"):
            decompose(QPoly.variable(1), 4)

    def test_rejects_wrong_order(self):
        p = expand_qbar_power(3)
        with pytest.raises(NotInClass):
            decompose(p, 2)

    def test_no_ring_products(self, monkeypatch):
        # the slice is read through the binomial table; the certificate expands on stems
        f = fn([ONE, E2, ZERO, E1], [E1, ONE], [ZERO, E2, ONE])
        p, off = f.expand(), f.expand() + QPoly.variable(2)
        mul, calls = QPoly.__mul__, []
        monkeypatch.setattr(QPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert decompose(p, 3) == f
        for q, n in ((p, 2), (off, 3)):
            with pytest.raises(NotInClass):
                decompose(q, n)
        assert calls == []


_scalars = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
_quats = st.builds(Quaternion, _scalars, _scalars, _scalars, _scalars)
_fns = st.lists(st.lists(_quats, max_size=4).map(S), min_size=1, max_size=4).map(SlicePolyFn)
_raw = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), _quats, max_size=5).map(QPoly)

# (p, n): in-class expansions, orders set too low, perturbed expansions, raw
# polynomials, Fraction-scaled expansions, and declared orders far above the degree
_decompose_cases = st.one_of(
    _fns.flatmap(lambda f: st.tuples(st.just(f.expand()), st.integers(f.order, f.order + 2))),
    _fns.filter(lambda f: f.order > 1).flatmap(
        lambda f: st.tuples(st.just(f.expand()), st.integers(1, f.order - 1))),
    st.builds(lambda f, r: (f.expand() + r, f.order), _fns, _raw),
    st.tuples(_raw, st.integers(1, 5)),
    st.builds(lambda f, s: (f.expand() * s, f.order), _fns, st.fractions(-3, 3, max_denominator=5)),
    st.builds(lambda f, d: (f.expand(), f.order + d), _fns, st.integers(10, 200)),
)


def _outcome(route, p, n):
    try:
        return route(p, n).to_json()
    except (NotInClass, DegreeCapExceeded) as exc:
        return type(exc).__name__, str(exc)


class TestDecomposeOracle:
    """The slice read against the V peel of tests/helpers.py."""

    def test_binomial_power_builder(self):
        # square-and-multiply is the independent reference
        for n in range(13):
            assert expand_q_power(n) == qpoly.Q_POLY**n
            assert expand_qbar_power(n) == qpoly.QBAR_POLY**n

    @settings(deadline=None)
    @given(_decompose_cases)
    @example((QPoly.zero(), 5))
    @example((QPoly.variable(1), 4))
    @example((expand_qbar_power(3), 2))
    @example((expand_q_power(qpoly.DEGREE_CAP), 1))
    @example((expand_q_power(qpoly.DEGREE_CAP), 2))
    @example((QPoly.constant(E2), 1000))
    @example((expand_qbar_power(qpoly.DEGREE_CAP), qpoly.DEGREE_CAP + 1))
    def test_same_outcome_as_the_v_peel(self, case):
        p, n = case
        assert _outcome(decompose, p, n) == _outcome(v_peel_decompose, p, n)

    def test_v_runs_only_to_name_a_failure(self, monkeypatch):
        calls = []
        v = qpoly.global_v
        monkeypatch.setattr(qpoly, "global_v", lambda p: calls.append(1) or v(p))
        p = qpoly.qsum(expand_qbar_power(k) for k in range(24))
        assert decompose(p, 24) == SlicePolyFn([S([ONE])] * 24)
        assert calls == []
        with pytest.raises(NotInClass, match="not the expansion"):
            decompose(p, 23)
        assert 0 < len(calls) <= 22


def _image(route):
    """The image, or the DegreeCapExceeded message."""
    try:
        return route()
    except DegreeCapExceeded as exc:
        return str(exc)


_C = Quaternion(1, -1, 2, 0)  # int: Fraction products at the cap take minutes
_SWEEPS = (("G", qpoly.global_g), ("V", qpoly.global_v), ("D", qpoly.cauchy_fueter),
           ("Dbar", qpoly.conjugate_cauchy_fueter), ("laplacian", qpoly.laplacian))


class TestStemRoutes:
    """Every stem route against its four-variable sweep on the Horner expansion."""

    @settings(deadline=None)
    @given(_fns)
    @example(SlicePolyFn([S([ZERO] * qpoly.DEGREE_CAP + [_C])]))
    @example(SlicePolyFn([S()] * qpoly.DEGREE_CAP + [S([_C])]))
    @example(SlicePolyFn([S()] * 32 + [S([ZERO] * 32 + [_C])]))
    def test_stem_routes_match_the_sweeps(self, f):
        p, comps = horner_expansions(f)
        assert f.expand() == p
        for op, sweep in _SWEEPS:
            assert _image(lambda: f.image(op)) == _image(lambda: sweep(p)), op
        for n in range(1, 6):
            assert _image(lambda: f.image("tau", n)) == _image(lambda: qpoly.tau_n(p, n)), n
        assert _image(lambda: f.image("c_n")) == _image(lambda: qpoly.c_n(comps))


class TestVLowersOrder:
    def test_componentwise_shift(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            f = rand_slicefn(rng, n, 5)
            lhs = global_v(f.expand())
            shifted = SlicePolyFn(
                [f.components[h + 1].scale(2 * (h + 1)) for h in range(n - 1)]
            )
            assert lhs == shifted.expand()

    def test_power_annihilation(self):
        rng = random.Random(13)
        for _ in range(20):
            f = rand_slicefn(rng, rng.randint(1, 4), 6)
            p = f.expand()
            for _ in range(f.order):
                p = global_v(p)
            assert p.is_zero()


class TestRestrict:
    def test_identity_function(self):
        z = 0.3 + 0.4j
        (F, G), = restrict(fn([ZERO, ONE]), split_frame(U1, U2), (0,))(z)
        assert abs(F - z) < 1e-15 and abs(G) < 1e-15

    def test_coefficient_splits_off(self):
        z = -0.2 + 0.9j
        (F, G), = restrict(SlicePolyFn([S([ZERO, E2])]), split_frame(U1, U2), (0,))(z)
        assert abs(F) < 1e-15 and abs(G - z) < 1e-15

    def test_conjugate_restriction(self):
        z = 0.6 - 0.1j
        (F, G), = restrict(fn([], [ONE]), split_frame(U1, U2), (0,))(z)
        assert abs(F - z.conjugate()) < 1e-15 and abs(G) < 1e-15

    def _assert_reconstructs(self, seed, rand_fn, cr_derivative):
        """P_j + Q_j J from restrict matches f at j = 0 and the closed-form CR^j f at every j < order."""
        rng = random.Random(seed)
        for _ in range(15):
            f = rand_fn(rng, rng.randint(1, 3), 4)
            i = rand_unit(rng)
            frame = split_frame(i, canonical_perp(i))
            values = restrict(f, frame, range(f.order))
            derivs = [cr_derivative(f.to_float(), j) for j in range(f.order)]
            for _ in range(5):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                w = embed_complex(z, i)
                split = [embed_complex(p, i) + embed_complex(q, i) * frame[1] for p, q in values(z)]
                direct = f.evaluate(w)
                assert abs(split[0] - direct) <= 1e-12 * max(1.0, abs(direct))
                for value, d in zip(split, derivs, strict=True):
                    ref = d(w)
                    assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_reconstruction_invariant(self):
        self._assert_reconstructs(17, rand_slicefn, slice_cr_derivative)

    def test_right_function_reconstruction(self):
        self._assert_reconstructs(19, rand_rightfn, right_cr_derivative)

    def test_requires_anticommuting_units(self):
        with pytest.raises(NotOrthogonal):
            split_frame(U1, U1)
        skew = UnitImaginary.from_vector(1.0, 1.0, 0.0)
        with pytest.raises(NotOrthogonal):
            split_frame(U1, skew)
        # i j + j i = -2 <i, j> is about -1e-6 here
        with pytest.raises(NotOrthogonal):
            split_frame(U1, UnitImaginary.from_vector(5e-7, 1.0, 0.0))

    def test_canonical_perp_always_orthogonal(self):
        rng = random.Random(19)
        for _ in range(25):
            i = rand_unit(rng)
            j = canonical_perp(i)
            assert abs(i.u * j.u + j.u * i.u) < 1e-12
        # degenerate direction: i itself
        j = canonical_perp(U1)
        u1f = U1.to_float().u
        assert abs(u1f * j.u + j.u * u1f) < 1e-12


class TestSliceCRDerivative:
    def test_conjugate_square_ladder(self):
        f = fn([], [], [ONE])  # conj(q)^2 at order 3
        z = quatf(0.3, 0.7)
        assert slice_cr_derivative(f, 1)(z).approx_eq(z.conjugate() * 2.0)
        assert slice_cr_derivative(f, 2)(z).approx_eq(quatf(2.0))
        assert slice_cr_derivative(f, 3)(z).approx_eq(quatf(0.0))

    def test_slice_regular_has_zero_derivative(self):
        f = fn([ZERO, ONE])
        z = quatf(-0.4, 0.2)
        assert slice_cr_derivative(f, 1)(z).approx_eq(quatf(0.0))

    def test_mixed_example(self):
        # f = conj(q) q^2, first derivative is z^2 on the slice
        f = fn([], [ZERO, ZERO, ONE])
        for y in (0.5, 1.0, -0.7):
            z = quatf(1.0) + U1.to_float().u * y
            assert slice_cr_derivative(f, 1)(z).approx_eq(z * z)

    def test_order_derivative_annihilates(self):
        rng = random.Random(23)
        for _ in range(10):
            f = rand_slicefn(rng, rng.randint(1, 4), 4)
            i = rand_unit(rng)
            d = slice_cr_derivative(f.to_float(), f.order)
            for _ in range(5):
                x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
                z = quatf(x) + i.u * y
                assert abs(d(z)) == 0.0

    def test_matches_fd_on_slice(self):
        from slicepoly.oracle import fd_slice_cr

        rng = random.Random(29)
        for _ in range(10):
            f = rand_slicefn(rng, rng.randint(1, 3), 4).to_float()
            i = rand_unit(rng)
            z = quatf(rng.uniform(-0.8, 0.8)) + i.u * rng.uniform(-0.8, 0.8)
            fd = fd_slice_cr(lambda p: f.evaluate(p), i.u, z, 1e-5)
            closed = slice_cr_derivative(f, 1)(z)
            assert abs(fd - closed) < 1e-8


class TestAppell:
    def test_conjugate_cube(self):
        # half of V applied to conj(q)^3 steps down to 3 conj(q)^2
        lhs = global_v(appell_apply(S([ONE]), 3).expand()) * Fraction(1, 2)
        assert lhs == expand_qbar_power(2) * 3

    def test_square_series(self):
        f = S([ZERO, ZERO, ONE])
        lhs = global_v(appell_apply(f, 1).expand()) * Fraction(1, 2)
        assert lhs == f.expand()

    def test_base_level_vanishes(self):
        f = S([rand_quat(random.Random(1)), rand_quat(random.Random(2))])
        assert appell_check(f, 0)

    def test_ladder_exact(self):
        rng = random.Random(37)
        for _ in range(20):
            f = rand_series(rng, rng.randint(0, 6))
            assert appell_check(f, rng.randint(0, 6))


class TestRightSided:
    def test_components_follow_the_series_rules(self):
        with pytest.raises(TypeError):
            RightSlicePolyFn([[Quaternion(Fraction(1, 3), 0, 0, 0), quatf(0.5)]])
        g = RightSlicePolyFn([[ONE, quatf(0.5), ZERO], [ZERO]])
        assert g.components == ((quatf(1.0), quatf(0.5)), ())
        assert not g.components[0][0].is_exact

    def test_evaluation_places_coefficients_left(self):
        g = RightSlicePolyFn([[ZERO, E2]])  # g(q) = e2 * q
        q = Quaternion(0, 1, 0, 0)
        assert g.evaluate(q) == E2 * E1

    def test_right_derivative_ladder(self):
        g = RightSlicePolyFn([[], [], [ONE]])  # conj(q)^2, order 3
        z = quatf(0.2, -0.4)
        assert right_cr_derivative(g, 1)(z).approx_eq(z.conjugate() * 2.0)
        assert right_cr_derivative(g, 2)(z).approx_eq(quatf(2.0))
        assert right_cr_derivative(g, 3)(z).approx_eq(quatf(0.0))

    def test_right_regular_annihilated(self):
        rng = random.Random(41)
        for _ in range(10):
            g = rand_rightfn(rng, rng.randint(1, 3), 4).to_float()
            i = rand_unit(rng)
            z = quatf(rng.uniform(-1, 1)) + i.u * rng.uniform(-1, 1)
            assert abs(right_cr_derivative(g, g.order)(z)) == 0.0


# -- evaluate is the order-0 slice CR sum ------------------------------------------------


def loop_evaluate(h, q):
    """Reference: the sum over components one at a time, zero components skipped:
    conj(q)^k f_k(q) for a SlicePolyFn, g_k(q) conj(q)^k for a RightSlicePolyFn."""
    qbar = q.conjugate()
    acc = ZERO if q.is_exact else quatf()
    for k, comp in enumerate(h.components):
        if isinstance(h, SlicePolyFn):
            if not comp.is_zero():
                acc = acc + qbar**k * comp.evaluate(q)
        elif comp:
            acc = acc + _horner(comp, q, right_coeffs=False) * qbar**k
    return acc


def bits(q: Quaternion) -> tuple:
    """The components with their types, floats as hex, so -0.0 and 0.0 differ."""
    return tuple(v.hex() if type(v) is float else (type(v), v) for v in (q.w, q.x, q.y, q.z))


def gapped_pair(rng):
    """A left and a right function of order 4 to 6 with zero components in the middle and on top."""
    order = rng.randint(3, 5)
    gap = rng.randrange(1, order - 1)
    f, g = rand_slicefn(rng, order, 4), rand_rightfn(rng, order, 4)
    f = SlicePolyFn([S() if k == gap else c for k, c in enumerate(f.components)] + [S()])
    g = RightSlicePolyFn([[] if k == gap else c for k, c in enumerate(g.components)] + [[]])
    return f, g


class TestEvaluateIsTheOrderZeroSum:
    def test_matches_the_component_loop_bit_for_bit(self):
        rng = random.Random(53)
        for _ in range(30):
            f, g = gapped_pair(rng)
            exact_q = Quaternion(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)))
            float_q = rand_point(rng, 0.1, 1.5)
            for h, points in ((f, (exact_q, float_q)), (g, (exact_q, float_q)),
                              (f.to_float(), (float_q,)), (g.to_float(), (float_q,))):
                for q in points:
                    assert bits(h.evaluate(q)) == bits(loop_evaluate(h, q))

    def test_order_zero_derivative_is_evaluate(self):
        rng = random.Random(59)
        for _ in range(20):
            f, g = gapped_pair(rng)
            i = rand_unit(rng)
            z = quatf(rng.uniform(-1, 1)) + i.u * rng.uniform(-1, 1)
            z_exact = Quaternion(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 5), 0, 0)
            for h, cr in ((f, slice_cr_derivative), (g, right_cr_derivative)):
                assert bits(cr(h, 0)(z_exact)) == bits(h.evaluate(z_exact))
                hf = h.to_float()
                assert bits(cr(hf, 0)(z)) == bits(hf.evaluate(z))


class TestJsonSchema:
    def test_roundtrip(self):
        rng = random.Random(43)
        f = rand_slicefn(rng, 3, 4)
        data = f.to_json()
        assert data["order"] == 3
        assert SlicePolyFn.from_json(data) == f

    def test_scalar_shorthand_and_padding(self):
        f = SlicePolyFn.from_json({"order": 2, "components": [[0], [[1, 0, 0, 0]]]})
        assert f.order == 2
        assert f.components[0].is_zero()
        assert f.components[1] == S([ONE])
        padded = SlicePolyFn.from_json({"order": 3, "components": [[1]]})
        assert padded.order == 3 and padded.components[2].is_zero()

    def test_fraction_strings(self):
        f = SlicePolyFn.from_json({"order": 1, "components": [[["1/2", 0, 0, 0]]]})
        assert f.components[0].coeffs[0] == Quaternion(Fraction(1, 2), 0, 0, 0)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            SlicePolyFn.from_json({"order": 0, "components": []})
        with pytest.raises(ValueError):
            SlicePolyFn.from_json({"components": [[1]]})
        with pytest.raises(ValueError):
            SlicePolyFn.from_json({"order": 1, "components": [[1], [2]]})


class TestMaps:
    def test_fueter_image_regular(self):
        rng = random.Random(47)
        for _ in range(15):
            f = rand_slicefn(rng, rng.randint(1, 4), 5)
            assert qpoly.cauchy_fueter(f.image("tau")).is_zero()

    def test_poly_fueter_image_order(self):
        rng = random.Random(53)
        for _ in range(15):
            f = rand_slicefn(rng, rng.randint(1, 4), 5)
            assert qpoly.is_poly_fueter(f.image("c_n"), f.order)

    def test_bridge_identity(self):
        rng = random.Random(59)
        for _ in range(15):
            n = rng.randint(1, 4)
            f = rand_slicefn(rng, n, 5)
            lhs = f.image("c_n")
            for _ in range(n - 1):
                lhs = qpoly.cauchy_fueter(lhs)
            assert lhs == f.image("tau") * Fraction(1, 2 ** (n - 1))
