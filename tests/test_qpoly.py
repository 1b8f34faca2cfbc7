import json
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from slicepoly import qpoly
from slicepoly.cli import main
from slicepoly.errors import DegreeCapExceeded, NotDivisible, NotFueterRegular
from slicepoly.qpoly import (
    DEGREE_CAP,
    QPoly,
    build_poly_fueter,
    c_n,
    cauchy_fueter,
    conjugate_cauchy_fueter,
    dirac_power_closed_form,
    divide_by_vecnorm_sq,
    expand_q_power,
    expand_qbar_power,
    global_g,
    global_v,
    global_v_power,
    is_poly_fueter,
    laplacian,
    laplacian_power_closed_form,
    partial,
    qsum,
    tau_n,
)
from slicepoly.quat import E1, E2, E3, ONE, ZERO, Quaternion, quatf

from helpers import naive_mul, naive_poly_eval, rand_qpoly, rand_quat, rand_series

CONST = QPoly.constant


def naive_qpoly_mul(p: QPoly, r: QPoly) -> QPoly:
    """Independent product: convolve raw term dicts with the naive quaternion table."""
    out: dict = {}
    for e1, c1 in p.terms():
        for e2, c2 in r.terms():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = naive_mul(c1, c2)
            out[e] = out.get(e, Quaternion(0, 0, 0, 0)) + c
    return QPoly(out)


class TestExpansions:
    def test_zeroth_power(self):
        assert expand_q_power(0) == QPoly.one()
        assert expand_qbar_power(0) == QPoly.one()

    def test_square_by_independent_product(self):
        assert expand_q_power(2) == naive_qpoly_mul(qpoly.Q_POLY, qpoly.Q_POLY)
        expected = QPoly({
            (2, 0, 0, 0): ONE, (0, 2, 0, 0): -ONE, (0, 0, 2, 0): -ONE, (0, 0, 0, 2): -ONE,
            (1, 1, 0, 0): E1 * 2, (1, 0, 1, 0): E2 * 2, (1, 0, 0, 1): E3 * 2,
        })
        assert expand_q_power(2) == expected

    def test_conjugate_linear(self):
        assert expand_qbar_power(1) == QPoly({
            (1, 0, 0, 0): ONE, (0, 1, 0, 0): -E1, (0, 0, 1, 0): -E2, (0, 0, 0, 1): -E3,
        })

    def test_high_powers_match_naive(self):
        p = qpoly.Q_POLY
        acc = QPoly.one()
        for n in range(5):
            assert expand_q_power(n) == acc
            acc = naive_qpoly_mul(acc, p)

    @pytest.mark.parametrize("n", [*range(6), DEGREE_CAP])
    def test_evaluation_agrees_pointwise(self, n):
        rng = random.Random(100 + n)
        for _ in range(5):
            q = rand_quat(rng)
            assert expand_q_power(n).evaluate(q) == q**n
            assert expand_qbar_power(n).evaluate(q) == q.conjugate() ** n

    def test_negative_power_refused(self):
        for power in (expand_q_power, expand_qbar_power):
            with pytest.raises(ValueError):
                power(-1)


class TestPartial:
    def test_monomial(self):
        x0sq = QPoly({(2, 0, 0, 0): ONE})
        assert partial(x0sq, 0) == QPoly({(1, 0, 0, 0): Quaternion(2, 0, 0, 0)})

    def test_constant(self):
        for axis in range(4):
            assert partial(CONST(rand_quat(random.Random(axis))), axis).is_zero()

    def test_on_q_square(self):
        # d/dx1 of the explicit expansion above: -2 x1 + 2 x0 e1
        got = partial(expand_q_power(2), 1)
        assert got == QPoly({(0, 1, 0, 0): Quaternion(-2, 0, 0, 0), (1, 0, 0, 0): E1 * 2})


class TestLaplacian:
    def test_q_squared(self):
        assert laplacian(expand_q_power(2)) == CONST(Quaternion(-4, 0, 0, 0))

    def test_q_cubed(self):
        expected = (expand_q_power(1) * 2 + expand_qbar_power(1)) * Fraction(-4)
        assert laplacian(expand_q_power(3)) == expected

    def test_harmonic_coordinate(self):
        assert laplacian(QPoly.variable(0)).is_zero()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_power_closed_form(self, n):
        assert laplacian(expand_q_power(n)) == laplacian_power_closed_form(n)


class TestCauchyFueter:
    def test_q_squared(self):
        assert cauchy_fueter(expand_q_power(2)) == QPoly({(1, 0, 0, 0): Quaternion(-4, 0, 0, 0)})

    def test_conjugate(self):
        # term-by-term: 1 + e1(-e1) + e2(-e2) + e3(-e3) = 1 + 3
        assert cauchy_fueter(expand_qbar_power(1)) == CONST(Quaternion(4, 0, 0, 0))

    def test_constant(self):
        assert cauchy_fueter(CONST(Quaternion(2, -1, 5, 0))).is_zero()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_power_closed_form(self, n):
        assert cauchy_fueter(expand_q_power(n)) == dirac_power_closed_form(n)

    def test_laplacian_factorization(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rand_qpoly(rng)
            lap = laplacian(p)
            assert cauchy_fueter(conjugate_cauchy_fueter(p)) == lap
            assert conjugate_cauchy_fueter(cauchy_fueter(p)) == lap


class TestGlobalG:
    def test_slice_regular_in_kernel(self):
        assert global_g(expand_q_power(1)).is_zero()
        for n in range(8):
            assert global_g(expand_q_power(n)).is_zero()

    def test_conjugate(self):
        assert global_g(expand_qbar_power(1)) == qpoly.VEC_NORM_SQ_POLY * 2

    def test_conjugate_square(self):
        assert global_g(expand_qbar_power(2)) == (qpoly.VEC_NORM_SQ_POLY * expand_qbar_power(1)) * 4


class TestDivide:
    def test_scalar_multiple(self):
        assert divide_by_vecnorm_sq(qpoly.VEC_NORM_SQ_POLY * 2) == CONST(Quaternion(2, 0, 0, 0))

    def test_ladder_case(self):
        p = (qpoly.VEC_NORM_SQ_POLY * expand_qbar_power(1)) * 4
        assert divide_by_vecnorm_sq(p) == expand_qbar_power(1) * 4

    def test_low_degree_fails(self):
        with pytest.raises(NotDivisible) as exc:
            divide_by_vecnorm_sq(QPoly.variable(1))
        assert exc.value.remainder == QPoly.variable(1)

    def test_quotient_times_divisor_roundtrip(self):
        rng = random.Random(11)
        for _ in range(30):
            r = rand_qpoly(rng)
            p = qpoly.VEC_NORM_SQ_POLY * r
            assert divide_by_vecnorm_sq(p) == r

    def test_remainder_identity(self):
        # p = quotient * divisor + remainder with remainder of x1-degree <= 1
        rng = random.Random(13)
        for _ in range(20):
            p = rand_qpoly(rng, max_deg=4)
            try:
                quot = divide_by_vecnorm_sq(p)
                assert qpoly.VEC_NORM_SQ_POLY * quot == p
            except NotDivisible as exc:
                rem = exc.remainder
                assert all(e[1] <= 1 for e, _ in rem.terms())


class TestGlobalV:
    def test_conjugate(self):
        assert global_v(expand_qbar_power(1)) == CONST(Quaternion(2, 0, 0, 0))

    def test_conjugate_square(self):
        assert global_v(expand_qbar_power(2)) == expand_qbar_power(1) * 4

    def test_slice_regular_annihilated(self):
        assert global_v(expand_q_power(5)).is_zero()

    def test_failure_propagates(self):
        with pytest.raises(NotDivisible):
            global_v(QPoly.variable(1))

    def test_power_matches_repeated_application(self):
        p = expand_qbar_power(3) * expand_q_power(2)
        assert global_v_power(p, 0) is p
        g = p
        for k in range(1, 6):
            g = global_v(g)
            assert global_v_power(p, k) == g
        assert global_v_power(p, 4).is_zero()

    def test_power_stops_at_zero(self, monkeypatch):
        calls = []
        v = qpoly.global_v
        monkeypatch.setattr(qpoly, "global_v", lambda p: calls.append(1) or v(p))
        assert global_v_power(expand_qbar_power(2), 10**6).is_zero()
        assert len(calls) == 3
        with pytest.raises(NotDivisible):
            global_v_power(QPoly.variable(1), 10**6)


class TestTauN:
    def test_symbolic_oracle_case(self):
        # V(conj(q) q^2) = 2 q^2 by the ladder, then laplacian gives 2 * (-4)
        p = expand_qbar_power(1) * expand_q_power(2)
        step = global_v(p)
        assert step == expand_q_power(2) * 2
        assert tau_n(p, 2) == CONST(Quaternion(-8, 0, 0, 0))

    def test_order_one_is_laplacian(self):
        assert tau_n(expand_q_power(2), 1) == CONST(Quaternion(-4, 0, 0, 0))

    def test_constant_image(self):
        assert tau_n(expand_qbar_power(1), 2).is_zero()


class TestCn:
    def test_single_shifted_component(self):
        got = c_n([QPoly.zero(), expand_q_power(2)])
        assert got == QPoly({(1, 0, 0, 0): Quaternion(-4, 0, 0, 0)})

    def test_order_one_is_laplacian(self):
        assert c_n([expand_q_power(3)]) == (expand_q_power(1) * 2 + expand_qbar_power(1)) * Fraction(-4)

    def test_constants_vanish(self):
        assert c_n([QPoly.one(), QPoly.one()]).is_zero()

    def test_zero_laplacian_builds_no_power(self):
        # x0^65 is above the cap, but its factor laplacian(0) is zero
        assert c_n([QPoly.one()] + [QPoly.zero()] * 65).is_zero()


class TestPolyFueterDecomposition:
    def test_constant(self):
        p = CONST(Quaternion(-4, 0, 0, 0))
        assert build_poly_fueter([p]) == p
        assert is_poly_fueter(p, 1)

    def test_x0_needs_order_two(self):
        p = QPoly({(1, 0, 0, 0): Quaternion(-4, 0, 0, 0)})
        assert cauchy_fueter(p) == CONST(Quaternion(-4, 0, 0, 0))
        assert not is_poly_fueter(p, 1)
        assert is_poly_fueter(p, 2)

    def test_build_and_check(self):
        built = build_poly_fueter([QPoly.one(), QPoly.one()])
        assert built == QPoly.one() + QPoly.variable(0)
        assert is_poly_fueter(built, 2)

    def test_build_rejects_non_regular(self):
        with pytest.raises(NotFueterRegular):
            build_poly_fueter([QPoly.variable(1)])


class TestEvaluate:
    def test_examples(self):
        assert expand_q_power(2).evaluate(E1) == -ONE
        assert expand_qbar_power(1).evaluate(Quaternion(1, 0, 1, 0)) == Quaternion(1, 0, -1, 0)
        got = laplacian(expand_q_power(3)).evaluate(Quaternion(1, 1, 0, 0))
        assert got == Quaternion(-12, -4, 0, 0)

    def test_matches_naive_eval(self):
        rng = random.Random(17)
        for _ in range(25):
            p = rand_qpoly(rng)
            q = rand_quat(rng)
            assert p.evaluate(q) == naive_poly_eval(dict(p.terms()), q)

    def test_product_respects_right_placement(self):
        # pointwise product equals polynomial product for arbitrary
        # noncommutative coefficients: monomials are real-valued
        rng = random.Random(19)
        for _ in range(25):
            p, r = rand_qpoly(rng), rand_qpoly(rng)
            q = rand_quat(rng)
            assert (p * r).evaluate(q) == p.evaluate(q) * r.evaluate(q)

    def test_float_point(self):
        p = expand_q_power(2)
        assert p.evaluate(quatf(0.0, 1.0, 0.0, 0.0)).approx_eq(quatf(-1.0))


class TestLeibnizSuite:
    """Exact identities of the global operator on random polynomial data."""

    def test_right_linearity(self):
        rng = random.Random(23)
        for _ in range(25):
            f, g, lam = rand_qpoly(rng), rand_qpoly(rng), rand_quat(rng)
            assert global_g(f * lam + g) == global_g(f) * lam + global_g(g)

    def test_x0_rule(self):
        rng = random.Random(29)
        for _ in range(25):
            f = rand_qpoly(rng)
            assert global_g(qpoly.X0 * f) == qpoly.VEC_NORM_SQ_POLY * f + qpoly.X0 * global_g(f)

    def test_vector_rule(self):
        rng = random.Random(31)
        for _ in range(25):
            f = rand_qpoly(rng)
            lhs = global_g(qpoly.VEC_POLY * f)
            assert lhs == -(qpoly.VEC_NORM_SQ_POLY * f) + qpoly.VEC_POLY * global_g(f)

    def test_q_power_commutes(self):
        rng = random.Random(37)
        for k in range(1, 6):
            f = rand_qpoly(rng)
            qk = expand_q_power(k)
            assert global_g(qk * f) == qk * global_g(f)

    def test_general_product_rule(self):
        rng = random.Random(41)
        for _ in range(25):
            f, g = rand_qpoly(rng), rand_qpoly(rng)
            radial = qpoly.X1 * partial(g, 1) + qpoly.X2 * partial(g, 2) + qpoly.X3 * partial(g, 3)
            comm = qpoly.VEC_POLY * f - f * qpoly.VEC_POLY
            assert global_g(f * g) == global_g(f) * g + f * global_g(g) + comm * radial

    def test_conjugate_shift(self):
        rng = random.Random(43)
        for _ in range(25):
            psi = rand_qpoly(rng)
            lhs = global_g(qpoly.QBAR_POLY * psi)
            assert lhs == qpoly.QBAR_POLY * global_g(psi) + (qpoly.VEC_NORM_SQ_POLY * psi) * 2

    def test_conjugate_power_ladder(self):
        rng = random.Random(47)
        for k in range(1, 9):
            f = rand_series(rng, rng.randint(0, 4)).expand()
            qbk, qbk1 = expand_qbar_power(k), expand_qbar_power(k - 1)
            assert global_g(qbk * f) == (qpoly.VEC_NORM_SQ_POLY * (qbk1 * f)) * (2 * k)
            assert global_v(qbk * f) == (qbk1 * f) * (2 * k)

    def test_fueter_mapping_on_series(self):
        rng = random.Random(53)
        for _ in range(20):
            f = rand_series(rng, rng.randint(0, 8)).expand()
            assert cauchy_fueter(laplacian(f)).is_zero()

    def test_conjugate_dirac_of_v_is_poly_regular(self):
        # for order-2 input, the conjugate operator applied after V lands in
        # the order-2 kernel of the Cauchy-Fueter operator
        rng = random.Random(59)
        for _ in range(10):
            f0 = rand_series(rng, 3).expand()
            f1 = rand_series(rng, 3).expand()
            p = f0 + expand_qbar_power(1) * f1
            img = conjugate_cauchy_fueter(global_v(p))
            assert is_poly_fueter(img, 2)


class TestDegreeCap:
    def test_cap_blocks_runaway_products(self):
        with pytest.raises(DegreeCapExceeded):
            expand_q_power(2) ** (DEGREE_CAP // 2 + 1)

    def test_cap_is_a_constant(self):
        X0, X1, X2 = qpoly.X0, qpoly.X1, qpoly.X2
        assert DEGREE_CAP == 64
        assert (X0**DEGREE_CAP).degree == DEGREE_CAP
        with pytest.raises(DegreeCapExceeded, match=f"total degree exceeds cap {DEGREE_CAP}"):
            X0 ** (DEGREE_CAP + 1)
        with pytest.raises(DegreeCapExceeded):
            (X0**40 + X2) * (X1**25 + QPoly.one())
        assert ((X0**40) * (X1**24)).degree == DEGREE_CAP

    def test_operator_images_refused_above_the_cap(self, capsys):
        # G(x0^64) = 64 x0^63 |vec|^2 has degree 65 and is refused; V = G / |vec|^2 and
        # tau = laplacian o V lower the degree, so they answer, as D and the Laplacian do
        top = qpoly.X0**DEGREE_CAP
        message = f"total degree exceeds cap {DEGREE_CAP}"
        with pytest.raises(DegreeCapExceeded, match=message):
            global_g(top)
        assert global_v(top) == qpoly.X0 ** (DEGREE_CAP - 1) * DEGREE_CAP
        assert tau_n(top, 2) == \
            qpoly.X0 ** (DEGREE_CAP - 3) * (DEGREE_CAP * (DEGREE_CAP - 1) * (DEGREE_CAP - 2))
        assert cauchy_fueter(top) == qpoly.X0 ** (DEGREE_CAP - 1) * DEGREE_CAP
        assert laplacian(top) == qpoly.X0 ** (DEGREE_CAP - 2) * (DEGREE_CAP * (DEGREE_CAP - 1))
        assert global_g(qpoly.X0 ** (DEGREE_CAP - 1)).degree == DEGREE_CAP

        spec = json.dumps(top.to_json())
        error = json.dumps({"error": "DegreeCapExceeded", "message": message}) + "\n"
        assert main(["apply", "G", spec]) == 2
        assert capsys.readouterr().out == error
        for argv in (("V", spec), ("tau", spec, "--order", "2"), ("D", spec), ("laplacian", spec)):
            assert main(["apply", *argv]) == 0
            out = capsys.readouterr().out
            assert QPoly.from_json(json.loads(out)).degree < DEGREE_CAP

    def test_construction_refuses_above_the_cap(self):
        for exp in ((DEGREE_CAP + 1, 0, 0, 0), (0, 0, 0, 100000000), (16, 16, 16, 17)):
            with pytest.raises(DegreeCapExceeded):
                QPoly({exp: ONE})
            with pytest.raises(DegreeCapExceeded):
                QPoly.from_json({"terms": [{"exp": list(exp), "coef": [1, 0, 0, 0]}]})
        assert QPoly({(16, 16, 16, 16): ONE}).degree == DEGREE_CAP

    def test_refused_before_any_product(self, monkeypatch):
        cube = qpoly.X0**3
        calls = []
        mul = QPoly.__mul__
        monkeypatch.setattr(QPoly, "__mul__", lambda p, r: calls.append(1) or mul(p, r))
        with pytest.raises(DegreeCapExceeded):
            qpoly.Q_POLY ** (DEGREE_CAP + 1)
        for power in (expand_q_power, expand_qbar_power):
            with pytest.raises(DegreeCapExceeded):
                power(DEGREE_CAP + 1)
        with pytest.raises(DegreeCapExceeded):
            cube ** 22
        assert calls == []
        assert (QPoly.zero() ** (10 * DEGREE_CAP)).is_zero()
        assert qpoly.X0**0 == QPoly.one()


class TestJson:
    def test_roundtrip_canonical_order(self):
        rng = random.Random(61)
        p = rand_qpoly(rng)
        data = p.to_json()
        exps = [tuple(t["exp"]) for t in data["terms"]]
        assert exps == sorted(exps)
        assert QPoly.from_json(data) == p

    def test_exact_scalars_as_strings(self):
        p = QPoly.constant(Quaternion(Fraction(1, 2), 0, 0, 0))
        assert p.to_json()["terms"][0]["coef"] == ["1/2", "0", "0", "0"]

    def test_rejects_float_coefficients(self):
        with pytest.raises(ValueError):
            QPoly.from_json({"terms": [{"exp": [0, 0, 0, 0], "coef": [0.5, 0, 0, 0]}]})

    def test_rejects_float_backed_construction(self):
        with pytest.raises(TypeError):
            QPoly({(0, 0, 0, 0): quatf(1.0)})

    def test_rejects_boolean_exponents(self):
        with pytest.raises(ValueError):
            QPoly.from_json({"terms": [{"exp": [True, 2, 0, 0], "coef": [1, 0, 0, 0]}]})
        with pytest.raises(ValueError):
            QPoly({(0, False, 0, 0): ONE})


# -- the one intake: raw JSON terms against an independent sum by exponent ----------


def _json_scalar(x: Fraction, form: int):
    """x as a raw JSON scalar: an int where it is integral (form 0), a reduced "p/q" string
    (form 1) or an unreduced one (form 2)."""
    if form == 0 and x.denominator == 1:
        return int(x)
    k = 1 if form < 2 else 3
    return f"{x.numerator * k}/{x.denominator * k}"


@st.composite
def raw_terms(draw):
    """Raw {"exp", "coef"} terms in a drawn order: repeated exponents, zero coefficients and
    cancelling pairs, with every scalar drawn as an int or a "p/q" string."""
    exps = st.tuples(*[st.integers(0, 2)] * 4)  # 81 exponents, so repeats are common
    coefs = st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4)
    terms = draw(st.lists(st.tuples(exps, coefs), max_size=6))
    terms += [(e, [Fraction(0)] * 4) for e in draw(st.lists(exps, max_size=2))]
    for e, c in draw(st.lists(st.tuples(exps, coefs), max_size=2)):
        terms += [(e, c), (e, [-x for x in c])]
    return [{"exp": list(e), "coef": [_json_scalar(x, draw(st.integers(0, 2))) for x in c]}
            for e, c in draw(st.permutations(terms))]


def sum_by_exponent(raw) -> dict:
    """The nonzero coefficients of raw terms by exponent tuple, summed as Fractions."""
    out: dict = {}
    for t in raw:
        acc = out.setdefault(tuple(t["exp"]), [0] * 4)
        acc[:] = [a + Fraction(v) for a, v in zip(acc, t["coef"])]
    return {e: Quaternion(*c) for e, c in out.items() if any(c)}


_BIG = [DEGREE_CAP + 1, 0, 0, 0]


class TestIntake:
    @given(raw_terms(), st.just(None))
    @example([{"exp": [1, 0, 0, 0], "coef": ["1/2", 0, 0, 0]},
              {"exp": [1, 0, 0, 0], "coef": ["-2/4", 0, 0, 0]}], None)
    @example([{"exp": [0, 1, 0, 0], "coef": [0, 1, 0, 0]},
              {"exp": [0, 1, 0, 0], "coef": ["1/3", "2/3", 0, 0]},
              {"exp": [0, 0, 0, 0], "coef": [0, 0, 0, 0]}], None)
    # each term is checked exponent first, then coefficient, in input order
    @example([{"exp": _BIG, "coef": [0.5, 0, 0, 0]}], DegreeCapExceeded)
    @example([{"exp": _BIG, "coef": ["1/0", 0, 0, 0]}], DegreeCapExceeded)
    @example([{"exp": [0, 0, 0, 0], "coef": [0.5, 0, 0, 0]},
              {"exp": _BIG, "coef": [1, 0, 0, 0]}], ValueError)
    @example([{"exp": [0, 0, 0, 0]}, {"exp": _BIG, "coef": [1, 0, 0, 0]}], KeyError)
    def test_from_json_matches_a_sum_by_exponent(self, raw, error):
        if error is not None:
            with pytest.raises(error):
                QPoly.from_json({"terms": raw})
            return
        want = sum_by_exponent(raw)
        p = QPoly.from_json({"terms": raw})
        assert dict(p.terms()) == want
        assert p == QPoly(want)
        assert p.to_json() == QPoly(want).to_json()


# -- the component-tuple kernel against the naive basis table ---------------------

int_scalars = st.integers(-4, 4)
exact_scalars = st.one_of(int_scalars, st.fractions(-3, 3, max_denominator=4))


def polys(scalars=exact_scalars, max_x1=3):
    # few, low exponents so that products collide and cancel often
    exps = st.tuples(st.integers(0, 2), st.integers(0, max_x1), st.integers(0, 2), st.integers(0, 2))
    coefs = st.builds(Quaternion, scalars, scalars, scalars, scalars)
    return st.dictionaries(exps, coefs, max_size=5).map(QPoly)


# (x0 + x1 e1)(x0 - x1 e1) = x0^2 + x1^2: the mixed terms cancel
_LINEAR = QPoly({(1, 0, 0, 0): ONE, (0, 1, 0, 0): E1})
_LINEAR_CONJ = QPoly({(1, 0, 0, 0): ONE, (0, 1, 0, 0): -E1})


class TestTupleKernel:
    @given(polys(), polys())
    @example(_LINEAR, _LINEAR_CONJ)
    def test_product_matches_naive_table(self, p, r):
        expected: dict = {}
        for e1, c1 in p.terms():
            for e2, c2 in r.terms():
                e = tuple(a + b for a, b in zip(e1, e2))
                expected[e] = expected.get(e, ZERO) + naive_mul(c1, c2)
        prod = p * r
        assert all(not c.is_zero() for _, c in prod.terms())
        assert {e for e, _ in prod.terms()} == {e for e, c in expected.items() if not c.is_zero()}
        for e, c in expected.items():
            assert prod.coeff(e) == c

    @given(polys(), exact_scalars)
    @example(QPoly.constant(Quaternion(2, -4, 0, 6)), Fraction(-1, 2))
    @example(QPoly.constant(Quaternion(Fraction(1, 3), 1, 0, 0)), Fraction(-6, 2))
    def test_real_scaling_never_stores_integral_fractions(self, p, s):
        q = p * s
        assert all(type(v) is int or v.denominator != 1
                   for _, c in q.terms() for v in (c.w, c.x, c.y, c.z))
        for e, c in p.terms():
            assert q.coeff(e) == c * s

    @given(polys())
    def test_division_undoes_the_divisor(self, p):
        assert divide_by_vecnorm_sq(p * qpoly.VEC_NORM_SQ_POLY) == p

    @given(polys(), polys(max_x1=1))
    @example(QPoly.zero(), QPoly.variable(1))
    def test_not_divisible_carries_the_unique_remainder(self, r, s):
        p = qpoly.VEC_NORM_SQ_POLY * r + s
        if s.is_zero():
            assert divide_by_vecnorm_sq(p) == r
            return
        with pytest.raises(NotDivisible) as exc:
            divide_by_vecnorm_sq(p)
        rem = exc.value.remainder
        assert all(e[1] <= 1 for e, _ in rem.terms())
        assert rem == s
        quot = divide_by_vecnorm_sq(p - rem)
        assert quot == r and quot * qpoly.VEC_NORM_SQ_POLY + rem == p


# -- qsum and + against a plain dict sum ------------------------------------------------


def dict_sum(ps) -> dict:
    """The nonzero coefficients of sum(ps) by exponent tuple, summed over terms() one by one."""
    out: dict = {}
    for p in ps:
        for e, c in p.terms():
            out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if not c.is_zero()}


class TestSum:
    @given(st.lists(polys(), max_size=5))
    @example([])
    @example([_LINEAR, -_LINEAR])
    @example([_LINEAR, -_LINEAR, _LINEAR_CONJ, _LINEAR])
    def test_qsum_and_add_match_a_dict_sum(self, ps):
        before = [p.to_json() for p in ps]
        want = dict_sum(ps)
        for total in (qsum(ps), qsum(iter(ps)), reduce(operator.add, ps, QPoly.zero())):
            assert dict(total.terms()) == want
            assert all(any(c) for c in total._terms.values())
        assert [p.to_json() for p in ps] == before


# -- the one-pass operator sweeps against their ring-composition definitions --------


def ring_laplacian(p: QPoly) -> QPoly:
    acc = QPoly.zero()
    for axis in range(4):
        acc = acc + partial(partial(p, axis), axis)
    return acc


def ring_cauchy_fueter(p: QPoly) -> QPoly:
    return partial(p, 0) + E1 * partial(p, 1) + E2 * partial(p, 2) + E3 * partial(p, 3)


def ring_conjugate_cauchy_fueter(p: QPoly) -> QPoly:
    return partial(p, 0) - E1 * partial(p, 1) - E2 * partial(p, 2) - E3 * partial(p, 3)


def ring_global_g(p: QPoly) -> QPoly:
    radial = qpoly.X1 * partial(p, 1) + qpoly.X2 * partial(p, 2) + qpoly.X3 * partial(p, 3)
    return qpoly.VEC_NORM_SQ_POLY * partial(p, 0) + qpoly.VEC_POLY * radial


def ring_global_v(p: QPoly) -> QPoly:
    return divide_by_vecnorm_sq(ring_global_g(p))


SWEEPS = [
    (global_g, ring_global_g),
    (global_v, ring_global_v),
    (laplacian, ring_laplacian),
    (cauchy_fueter, ring_cauchy_fueter),
    (conjugate_cauchy_fueter, ring_conjugate_cauchy_fueter),
]


def _outcome(op, p: QPoly):
    """The image, or the remainder that NotDivisible carries."""
    try:
        return "image", op(p)
    except NotDivisible as exc:
        return "remainder", exc.remainder


def expansions():
    # sums of conj(q)^k q^m c: in-class input, on which G, V and the Fueter
    # operators cancel most of the terms they emit
    quats = st.builds(Quaternion, exact_scalars, exact_scalars, exact_scalars, exact_scalars)
    term = st.builds(lambda k, m, c: expand_qbar_power(k) * expand_q_power(m) * c,
                     st.integers(0, 2), st.integers(0, 4), quats)
    return st.lists(term, max_size=3).map(lambda ts: sum(ts, QPoly.zero()))


class TestOperatorSweeps:
    @given(st.one_of(polys(), polys(int_scalars), expansions()))
    @example(QPoly.zero())
    @example(CONST(Quaternion(Fraction(-1, 2), 3, 0, 1)))
    @example(qpoly.X0**63)
    @settings(deadline=None)
    def test_sweeps_match_ring_definitions(self, p):
        for sweep, ring in SWEEPS:
            kind, got = _outcome(sweep, p)
            want_kind, want = _outcome(ring, p)
            assert (kind, got) == (want_kind, want), sweep.__name__
            assert got.to_json() == want.to_json()
            assert all(any(c) for c in got._terms.values())


# -- packed monomial keys at the field boundaries -------------------------------------

AXES = (qpoly.X0, qpoly.X1, qpoly.X2, qpoly.X3)
UNITS = (ONE, E1, E2, E3)


def _unit_exp(axis: int, a: int, extra: int | None = None) -> tuple:
    """a on ``axis``, plus one on ``extra`` when given."""
    return tuple(a * (i == axis) + (i == extra) for i in range(4))


def _assert_sweeps_match_rings(p: QPoly, sweeps=SWEEPS):
    for sweep, ring in sweeps:
        assert _outcome(sweep, p) == _outcome(ring, p), sweep.__name__


class TestPackedKeys:
    """Every field of a key reaches 64 = DEGREE_CAP; read back through exponent tuples."""

    def test_axis_powers_at_the_cap(self):
        for axis, x in enumerate(AXES):
            top = x**DEGREE_CAP
            assert top.terms() == [(_unit_exp(axis, DEGREE_CAP), ONE)]
            assert top.degree == DEGREE_CAP
            assert top.coeff(_unit_exp(axis, DEGREE_CAP)) == ONE
            assert x ** (DEGREE_CAP // 2) * x ** (DEGREE_CAP // 2) == top

    def test_products_that_fill_a_field(self):
        assert ((qpoly.X0**40) * (qpoly.X1**24)).terms() == [((40, 24, 0, 0), ONE)]
        mixed = (qpoly.X0**16 * qpoly.X1**16) * (qpoly.X2**16 * qpoly.X3**16)
        assert mixed.terms() == [((16, 16, 16, 16), ONE)]
        # (x0 + x3)^64 touches every split of 64 between the first and last field
        binom = (qpoly.X0 + qpoly.X3) ** DEGREE_CAP
        assert [e for e, _ in binom.terms()] == [(a, 0, 0, DEGREE_CAP - a)
                                                 for a in range(DEGREE_CAP + 1)]
        assert binom.coeff((32, 0, 0, 32)) == ONE * math.comb(64, 32)

    def test_global_g_one_below_the_cap(self):
        a = DEGREE_CAP - 1
        g0 = global_g(qpoly.X0**a)
        assert g0.terms() == sorted(((a - 1, 2 * (m == 1), 2 * (m == 2), 2 * (m == 3)), ONE * a)
                                    for m in (1, 2, 3))
        for axis in (1, 2, 3):
            g = global_g(AXES[axis] ** a)
            want = sorted((_unit_exp(axis, a, m), UNITS[m] * a) for m in (1, 2, 3))
            assert g.terms() == want and g.degree == DEGREE_CAP
        for p in (qpoly.X0**a, *(x**a for x in AXES[1:])):
            _assert_sweeps_match_rings(p)

    def test_laplacian_and_dirac_at_the_cap(self):
        n = DEGREE_CAP
        for axis, x in enumerate(AXES):
            top = x**n
            assert laplacian(top).terms() == [(_unit_exp(axis, n - 2), ONE * (n * (n - 1)))]
            assert cauchy_fueter(top).terms() == [(_unit_exp(axis, n - 1), UNITS[axis] * n)]
            assert conjugate_cauchy_fueter(top).terms() == \
                [(_unit_exp(axis, n - 1), UNITS[axis].conjugate() * n)]
            _assert_sweeps_match_rings(top, SWEEPS[2:])

    def test_division_at_the_cap(self):
        p = qpoly.VEC_NORM_SQ_POLY * qpoly.X1 ** (DEGREE_CAP - 2)
        assert [e for e, _ in p.terms()] == [(0, 62, 0, 2), (0, 62, 2, 0), (0, 64, 0, 0)]
        quot = divide_by_vecnorm_sq(p)
        assert quot.terms() == [((0, DEGREE_CAP - 2, 0, 0), ONE)]
        assert quot * qpoly.VEC_NORM_SQ_POLY == p

    @given(st.one_of(polys(), expansions()))
    @example(QPoly.zero())
    @example(qpoly.X3**DEGREE_CAP + qpoly.X0)
    def test_tuple_api_round_trip(self, p):
        terms = p.terms()
        exps = [e for e, _ in terms]
        assert QPoly(dict(terms)) == p
        assert exps == sorted(exps)
        assert p.degree == max(map(sum, exps), default=float("-inf"))
        for e, c in terms:
            assert p.coeff(e) == c
        for e in ((DEGREE_CAP + 1, 0, 0, 0), (0, 0, 0, 100000000), (0, 200, 0, 0), (1, 2)):
            assert p.coeff(e) == ZERO

    def test_coeff_reads_a_remainder_above_the_cap(self):
        # V of x1^64 leaves a degree-65 remainder; a read returns what is stored there
        with pytest.raises(NotDivisible) as info:
            global_v(qpoly.X1**DEGREE_CAP)
        rem = info.value.remainder
        assert rem.degree == DEGREE_CAP + 1
        assert rem.coeff((0, 0, 0, DEGREE_CAP + 1)) == E3 * DEGREE_CAP
        for e, c in rem.terms():
            assert rem.coeff(e) == c

    def test_coeff_of_an_exponent_no_key_holds_is_zero(self):
        p = qpoly.X2 + qpoly.X3**DEGREE_CAP
        # (1, -128, 0, 128) packs to the key of x2, (0, 0, 1, 0): it must not alias it
        for e in ((1, -128, 0, 128), (0, 0, -1, 0), (0, 0, 0, 128), (0, 0, 1), (0, 0, 1, 0, 0),
                  (0, 0, True, 0), (0, 0, 1.0, 0)):
            assert p.coeff(e) == ZERO, e
        assert p.coeff((0, 0, 1, 0)) == ONE and p.coeff((0, 0, 0, DEGREE_CAP)) == ONE
