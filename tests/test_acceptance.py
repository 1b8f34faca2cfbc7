"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one ``ACCEPTANCE <nn> <name>: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  Exact criteria assert literal
polynomial equality; float criteria measure a worst case over a seeded corpus
and compare against the pinned tolerance.  Relative errors are measured
against max(1, |reference|) so vanishing references degrade gracefully to an
absolute bound.
"""

import math
import random
from fractions import Fraction

import pytest

from slicepoly import kernels, oracle, qpoly, quad
from slicepoly.qpoly import (
    QPoly,
    cauchy_fueter,
    dirac_power_closed_form,
    expand_q_power,
    expand_qbar_power,
    global_g,
    global_v,
    laplacian,
    laplacian_power_closed_form,
    tau_n,
)
from slicepoly.quat import Quaternion, quatf
from slicepoly.slicefn import appell_apply
from slicepoly.quad import (
    CirclePath,
    cauchy_theorem_residual,
    fueter_integral,
    poly_cauchy_eval,
)

from helpers import (
    pointwise_integral,
    rand_circle_node,
    rand_point,
    rand_qpoly,
    rand_quat,
    rand_rightfn,
    rand_series,
    rand_slicefn,
    rand_unit,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def rel_gap(value, ref) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


@pytest.fixture(scope="module")
def mapping_corpus():
    """50 random functions of orders 1..4 with component degree <= 6 (criteria 2-4)."""
    rng = random.Random(20260809)
    return [rand_slicefn(rng, rng.randint(1, 4), 6) for _ in range(50)]


def test_criterion_01_exact_operator_identities():
    rng = random.Random(101)
    radial = lambda g: qpoly.X1 * qpoly.partial(g, 1) + qpoly.X2 * qpoly.partial(g, 2) \
        + qpoly.X3 * qpoly.partial(g, 3)
    checked = 0
    ok = True
    for i in range(100):
        f, g, lam = rand_qpoly(rng), rand_qpoly(rng), rand_quat(rng)
        fsr = rand_series(rng, rng.randint(0, 4)).expand()
        k = (i % 8) + 1
        qk, qbk, qbk1 = expand_q_power(k), expand_qbar_power(k), expand_qbar_power(k - 1)
        vn2 = qpoly.VEC_NORM_SQ_POLY
        comm = qpoly.VEC_POLY * f - f * qpoly.VEC_POLY
        ok &= global_g(f * lam + g) == global_g(f) * lam + global_g(g)
        ok &= global_g(qpoly.X0 * f) == vn2 * f + qpoly.X0 * global_g(f)
        ok &= global_g(qpoly.VEC_POLY * f) == -(vn2 * f) + qpoly.VEC_POLY * global_g(f)
        ok &= global_g(qk * f) == qk * global_g(f)
        ok &= global_g(f * g) == global_g(f) * g + f * global_g(g) + comm * radial(g)
        ok &= global_g(qpoly.QBAR_POLY * g) == qpoly.QBAR_POLY * global_g(g) + (vn2 * g) * 2
        ok &= global_g(qbk * fsr) == (vn2 * (qbk1 * fsr)) * (2 * k)
        ok &= global_v(qbk * fsr) == (qbk1 * fsr) * (2 * k)
        ok &= global_v(qpoly.QBAR_POLY * fsr) == fsr * 2
        n = (i % 7) + 2
        ok &= cauchy_fueter(expand_q_power(n)) == dirac_power_closed_form(n)
        ok &= laplacian(expand_q_power(n)) == laplacian_power_closed_form(n)
        checked += 11
        if not ok:
            break
    report(1, "exact-operator-identities", ok, f"{checked} identity instances, n,k <= 8")


def test_criterion_02_power_annihilation(mapping_corpus):
    ok = True
    for f in mapping_corpus:
        p = f.expand()
        for _ in range(f.order):
            p = global_v(p)
        ok &= p.is_zero()
        if not ok:
            break
    report(2, "normalized-global-power-annihilation", ok, f"{len(mapping_corpus)} functions, orders 1-4")


def test_criterion_03_poly_fueter_mappings(mapping_corpus):
    ok = True
    for f in mapping_corpus:
        ok &= cauchy_fueter(tau_n(f.expand(), f.order)).is_zero()
        ok &= qpoly.is_poly_fueter(qpoly.c_n([c.expand() for c in f.components]), f.order)
        if not ok:
            break
    report(3, "poly-fueter-mapping-kernels", ok, f"{len(mapping_corpus)} functions, both maps")


def test_criterion_04_bridge_identity(mapping_corpus):
    ok = True
    n_checked = 0
    for f in mapping_corpus:
        if f.order > 4:
            continue
        lhs = qpoly.c_n([c.expand() for c in f.components])
        for _ in range(f.order - 1):
            lhs = cauchy_fueter(lhs)
        ok &= lhs == tau_n(f.expand(), f.order) * Fraction(1, 2 ** (f.order - 1))
        n_checked += 1
        if not ok:
            break
    report(4, "dirac-power-bridge", ok, f"{n_checked} functions, n <= 4")


def test_criterion_05_appell_system():
    rng = random.Random(505)
    ok = True
    for i in range(50):
        f = rand_series(rng, rng.randint(0, 6))
        k = (i % 7)
        lhs = global_v(appell_apply(f, k).expand()) * Fraction(1, 2)
        if k == 0:
            ok &= lhs.is_zero()
        else:
            ok &= lhs == appell_apply(f, k - 1).expand() * k
        if not ok:
            break
    report(5, "appell-ladder", ok, "50 series, k <= 6")


def test_criterion_06_poly_cauchy_formula():
    rng = random.Random(606)
    corpus = []
    for _ in range(20):
        f = rand_slicefn(rng, rng.randint(1, 3), 4)
        q = rand_point(rng, 0.0, 0.6)
        corpus.append((f, q))

    worst_rep = 0.0
    for f, q in corpus:
        path = CirclePath(rand_unit(rng), 1.0, 512)
        worst_rep = max(worst_rep, rel_gap(poly_cauchy_eval(f, q, path), f.evaluate(q)))

    worst_unit = 0.0
    for f, q in corpus[:10]:
        gap = quad.unit_independence_check(f, q, rand_unit(rng), rand_unit(rng), 1.0, 512)
        worst_unit = max(worst_unit, gap)

    worst_dbl = 0.0
    for f, q in corpus[:5]:
        u = rand_unit(rng)
        a = poly_cauchy_eval(f, q, CirclePath(u, 1.0, 512))
        b = poly_cauchy_eval(f, q, CirclePath(u, 1.0, 1024))
        worst_dbl = max(worst_dbl, rel_gap(a, b))

    ok = worst_rep <= 1e-9 and worst_unit <= 1e-9 and worst_dbl <= 1e-13
    report(6, "poly-cauchy-formula", ok,
           f"reproduction {worst_rep:.2e} <= 1e-9, units {worst_unit:.2e} <= 1e-9, "
           f"doubling {worst_dbl:.2e} <= 1e-13")


def test_criterion_07_integral_fueter_map():
    rng = random.Random(707)
    worst_sym = 0.0
    worst_pair = 0.0
    for _ in range(20):
        f = rand_slicefn(rng, rng.randint(1, 3), 4)
        q = rand_point(rng, 0.0, 0.6)
        path = CirclePath(rand_unit(rng), 1.0, 512)
        a = fueter_integral(f, q, path)
        b, _ = pointwise_integral("explicit", f, None, q, path)
        ref = tau_n(f.expand(), f.order).evaluate(q)
        worst_sym = max(worst_sym, rel_gap(a, ref))
        worst_pair = max(worst_pair, rel_gap(a, b))
    ok = worst_sym <= 1e-7 and worst_pair <= 1e-12
    report(7, "integral-fueter-map", ok,
           f"vs symbolic {worst_sym:.2e} <= 1e-7, formulations {worst_pair:.2e} <= 1e-12")


def test_criterion_08_cauchy_integral_theorem():
    rng = random.Random(808)
    worst = 0.0
    for _ in range(10):
        n = rng.randint(1, 3)
        f = rand_slicefn(rng, n, 4)
        g = rand_rightfn(rng, n, 4)
        path = CirclePath(rand_unit(rng), 1.0, 512)
        worst = max(worst, abs(cauchy_theorem_residual(f, g, path)))
    ok = worst <= 1e-9
    report(8, "bilinear-cauchy-theorem", ok, f"10 pairs, worst residual {worst:.2e} <= 1e-9")


def test_criterion_09_kernel_lemmas():
    rng = random.Random(909)
    worst_ladder = 0.0
    for _ in range(25):
        w = rand_circle_node(rng)
        q = rand_point(rng, 0.05, 0.3, vecmin=0.1)
        for j in (1, 2):
            fd = oracle.fd_global_v(lambda p: kernels.f_j(w, p, j), q, 5e-4)
            worst_ladder = max(worst_ladder, abs(fd + kernels.f_j(w, q, j - 1)))

    worst_cf = 0.0
    worst_lap = 0.0
    for _ in range(25):
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        nrm = math.sqrt(sum(t * t for t in v))
        r = rng.uniform(1.8, 2.6)
        s = quatf(*(t * r / nrm for t in v))
        q = rand_point(rng, 0.05, 0.4)
        fd_cf = oracle.fd_cauchy_fueter(lambda p: kernels.delta_s_inv(s, p), q, 1e-3)
        worst_cf = max(worst_cf, abs(fd_cf))
        fd_lap = oracle.fd_laplacian(lambda p: kernels.s_inv(s, p), q, 1e-3)
        worst_lap = max(worst_lap, abs(fd_lap - kernels.delta_s_inv(s, q)))

    ok = worst_ladder <= 1e-5 and worst_cf <= 1e-5 and worst_lap <= 1e-5
    report(9, "kernel-lemmas", ok,
           f"ladder {worst_ladder:.2e}, regular {worst_cf:.2e}, "
           f"laplacian-match {worst_lap:.2e}, all <= 1e-5")


def test_criterion_10_oracle_cross_check():
    rng = random.Random(1010)
    worst = 0.0
    ratios_ok = True
    measurable = 0
    for _ in range(50):
        # corpus guarantees one term with a single-axis exponent >= 4 so the
        # second-order truncation term of the laplacian stencil is visible
        p = rand_qpoly(rng, max_deg=6, n_terms=4, cmax=1)
        exp = [0, 0, 0, 0]
        exp[rng.randrange(4)] = rng.randint(4, 5)
        comp = [0, 0, 0, 0]
        comp[rng.randrange(4)] = rng.choice([-1, 1])
        p = p + QPoly({tuple(exp): Quaternion(*comp)})

        lap, cf, gg = laplacian(p), cauchy_fueter(p), global_g(p)
        f = lambda w: p.evaluate(w)
        pt = rand_point(rng, 0.25, 0.4, vecmin=0.15)
        e1 = abs(oracle.fd_laplacian(f, pt, 1e-3) - lap.evaluate(pt))
        worst = max(worst, e1)
        worst = max(worst, abs(oracle.fd_cauchy_fueter(f, pt, 1e-3) - cf.evaluate(pt)))
        vref = gg.evaluate(pt) * (1.0 / pt.vec_norm_sq())
        worst = max(worst, abs(oracle.fd_global_v(f, pt, 1e-3) - vref))

        if e1 >= 1e-7:
            measurable += 1
            e2 = abs(oracle.fd_laplacian(f, pt, 5e-4) - lap.evaluate(pt))
            ratios_ok &= 0.15 <= e2 / e1 <= 0.35

    ok = worst <= 1e-5 and ratios_ok and measurable >= 25
    report(10, "oracle-cross-check", ok,
           f"worst {worst:.2e} <= 1e-5 at h=1e-3, h/2 ratio in [0.15,0.35] "
           f"on {measurable} measurable instances")
