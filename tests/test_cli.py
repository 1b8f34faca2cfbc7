import contextlib
import functools
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from slicepoly import kernels, qpoly, verify
from slicepoly.cli import main
from slicepoly.qpoly import DEGREE_CAP, QPoly
from slicepoly.quat import quatf
from slicepoly.slicefn import MAX_ORDER, SlicePolyFn
from slicepoly.verify import run_suites

QBAR_SPEC = '{"order":2,"components":[[0],[[1,0,0,0]]]}'
QBAR_QSQ_SPEC = '{"order":2,"components":[[0],[[0,0,0,0],[0,0,0,0],[1,0,0,0]]]}'
X1_POLY_SPEC = '{"terms":[{"exp":[0,1,0,0],"coef":[1,0,0,0]}]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestApply:
    def test_v_on_conjugate_gives_constant_two(self, capsys):
        code, out = run_cli(capsys, "apply", "V", QBAR_SPEC)
        assert code == 0
        data = json.loads(out)
        assert data == {"terms": [{"exp": [0, 0, 0, 0], "coef": ["2", "0", "0", "0"]}]}

    def test_tau_gives_constant_minus_eight(self, capsys):
        code, out = run_cli(capsys, "apply", "tau", QBAR_QSQ_SPEC)
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [{"exp": [0, 0, 0, 0], "coef": ["-8", "0", "0", "0"]}]

    def test_non_class_input_exits_two_with_remainder(self, capsys):
        code, out = run_cli(capsys, "apply", "V", X1_POLY_SPEC)
        assert code == 2
        data = json.loads(out)
        assert data["error"] == "NotDivisible"
        assert data["remainder"]["terms"]

    def test_malformed_json_exits_one(self, capsys):
        code = main(["apply", "V", '{"order": 2, "components"'])
        assert code == 1

    def test_missing_file_exits_one(self, capsys):
        code = main(["apply", "V", "no-such-spec.json"])
        assert code == 1

    @pytest.mark.parametrize("argv", [("apply", "V"), ("integrate", "residual", QBAR_SPEC, "--right-spec")])
    def test_unreadable_spec_path_exits_one(self, capsys, tmp_path, argv):
        # a directory makes read_text raise IsADirectoryError, an OSError like PermissionError
        code = main([*argv, str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"slicepoly: input error: cannot read spec file {tmp_path}: Is a directory\n"

    def test_dirac_on_polynomial_spec(self, capsys):
        spec = '{"terms":[{"exp":[2,0,0,0],"coef":[1,0,0,0]}]}'
        code, out = run_cli(capsys, "apply", "D", spec)
        assert code == 0
        assert json.loads(out)["terms"] == [{"exp": [1, 0, 0, 0], "coef": ["2", "0", "0", "0"]}]

    def test_c_n_on_function_spec(self, capsys):
        spec = '{"order":2,"components":[[0],[[0,0,0,0],[0,0,0,0],[1,0,0,0]]]}'
        code, out = run_cli(capsys, "apply", "c_n", spec)
        assert code == 0
        assert json.loads(out)["terms"] == [{"exp": [1, 0, 0, 0], "coef": ["-4", "0", "0", "0"]}]

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "apply", "V", QBAR_SPEC, "--format", "text")
        assert code == 0 and out.strip() == "1*(2, 0, 0, 0)"

    def test_text_format_errors(self, capsys):
        # the error payload leaves through the same writer as a result, in either format
        assert run_cli(capsys, "apply", "V", X1_POLY_SPEC, "--format", "text") == (2, (
            "error: NotDivisible: polynomial is not divisible by the squared vector norm\n"
            "remainder: x3^2*(0, -1, 0, 0) + x2^2*(0, -1, 0, 0) + x1^1*x3^1*(0, 0, 0, 1)"
            " + x1^1*x2^1*(0, 0, 1, 0)\n"))
        assert run_cli(capsys, "integrate", "cauchy", '{"order":1,"components":[[1]]}',
                       "[2,0,0,0]", "--format", "text") == (
            2, "error: OutsideContour: |q| = 2.0 is not inside radius 1.0\n")

    def test_boolean_exponent_exits_one(self, capsys):
        spec = '{"terms":[{"exp":[true,2,0,0],"coef":[1,0,0,0]}]}'
        assert run_cli(capsys, "apply", "laplacian", spec) == (1, "")

    def test_boolean_order_exits_one(self, capsys):
        assert run_cli(capsys, "apply", "V", '{"order":true,"components":[[1]]}') == (1, "")


class TestVerify:
    def test_vn_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "vn", "--seed", "7", "--count", "6")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        names = {c["name"] for s in data["suites"] for c in s["checks"]}
        assert "power_annihilation" in names

    def test_quadrature_reports_errors_under_tolerance(self, capsys):
        code, out = run_cli(capsys, "verify", "quadrature", "--count", "3", "--nodes", "256")
        assert code == 0
        data = json.loads(out)
        for check in data["suites"][0]["checks"]:
            assert check["max_error"] <= check["tolerance"]

    def test_empty_corpus_vacuous_pass_with_warning(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--count", "0")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True and "warning" in data
        assert all(c["instances"] == 0 for s in data["suites"] for c in s["checks"])

    def test_text_format_lines(self, capsys):
        code, out = run_cli(capsys, "verify", "appell", "--count", "4", "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "PASS overall"
        assert all(line.startswith("PASS") for line in lines)

    def test_negative_count_exits_one(self, capsys):
        assert run_cli(capsys, "verify", "appell", "--count", "-5") == (1, "")

    def test_count_above_the_bound_runs_no_suite(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(verify.SUITES, "appell", lambda *args: calls.append(args))
        assert run_cli(capsys, "verify", "appell", "--count", "1001") == (1, "")
        assert calls == []

    def test_non_finite_or_negative_tolerance_exits_one(self, capsys):
        for tol in ("nan", "inf", "-inf", "-1"):
            assert run_cli(capsys, "verify", "quadrature", "--count", "1", f"--tol={tol}") == (1, "")

    def test_nan_error_fails_its_check(self, capsys, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN error must be recorded as inf to fail
        monkeypatch.setattr(kernels, "s_inv", lambda s, q: quatf(math.nan, 0.0, 0.0, 0.0))
        nan_checks = {"laplacian_matches_closed_form", "right_slice_regular_in_s",
                      "common_slice_reduction"}
        report, = run_suites(["kernels"], seed=1, count=3)
        assert {c.name: c.max_error for c in report.checks if not c.passed} == \
            dict.fromkeys(nan_checks, math.inf)
        code, out = run_cli(capsys, "verify", "kernels", "--seed", "1", "--count", "3")
        data = json.loads(out)
        assert code == 3 and data["passed"] is False
        failed = {c["name"]: c["max_error"] for c in data["suites"][0]["checks"] if not c["passed"]}
        assert failed == dict.fromkeys(nan_checks, math.inf)
        assert '"max_error": Infinity' in out

    def test_determinism(self, capsys):
        _, out1 = run_cli(capsys, "verify", "kernels", "--seed", "5", "--count", "4")
        _, out2 = run_cli(capsys, "verify", "kernels", "--seed", "5", "--count", "4")
        assert out1 == out2


class TestIntegrate:
    def test_cauchy_example(self, capsys):
        code, out = run_cli(capsys, "integrate", "cauchy", QBAR_SPEC, "[0.25,0.25,0,0]")
        assert code == 0
        data = json.loads(out)
        value = data["value"]
        assert abs(value[0] - 0.25) < 1e-10 and abs(value[1] + 0.25) < 1e-10
        assert data["abs_deviation"] < 1e-10

    def test_fueter_example(self, capsys):
        code, out = run_cli(capsys, "integrate", "fueter", QBAR_QSQ_SPEC, "[0.2,0.1,0,0]")
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"][0] + 8.0) < 1e-7
        assert data["abs_deviation"] < 1e-7

    def test_outside_contour_exits_two(self, capsys):
        code, out = run_cli(capsys, "integrate", "cauchy", QBAR_SPEC, "[1.5,0,0,0]")
        assert code == 2
        assert json.loads(out)["error"] == "OutsideContour"

    def test_residual(self, capsys):
        right = '{"order":2,"components":[[[1,0,0,0]]]}'
        code, out = run_cli(capsys, "integrate", "residual", QBAR_SPEC, "--right-spec", right)
        assert code == 0
        assert json.loads(out)["abs_deviation"] < 1e-9

    def test_residual_needs_right_spec(self, capsys):
        code = main(["integrate", "residual", QBAR_SPEC])
        assert code == 1

    def test_contour_flags(self, capsys):
        code, out = run_cli(capsys, "integrate", "cauchy", QBAR_SPEC, "[0.5,0,0.9,0]",
                            "--radius", "2.0", "--unit", "0,1,1", "--nodes", "256")
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"][0] - 0.5) < 1e-9 and abs(data["value"][2] + 0.9) < 1e-9

    def test_determinism(self, capsys):
        args = ("integrate", "cauchy", QBAR_SPEC, "[0.25,0.25,0,0]", "--nodes", "128")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_unit_with_leading_minus_and_tiny_norm(self, capsys):
        # the --unit=X,Y,Z form lets a value start with a minus sign; a vector
        # whose squared norm underflows is still normalized
        for unit in ("--unit=-0.5,0.1,0.8", "--unit=1e-170,0,0"):
            code, out = run_cli(capsys, "integrate", "cauchy", QBAR_SPEC, "[0.25,0.25,0,0]", unit)
            assert code == 0, unit
            assert json.loads(out)["abs_deviation"] < 1e-10

    def test_int_coefficients_beside_a_float_are_promoted(self, capsys):
        spec = '{"order":2,"components":[[0,0,0.5],[1,[0,1,0,0]]]}'
        code, out = run_cli(capsys, "integrate", "cauchy", spec, "[0.1,0.2,0,0]")
        assert code == 0
        assert json.loads(out)["abs_deviation"] < 1e-12

    def test_fueter_float_spec(self, capsys):
        # the reference expands the exact rational value of each binary64
        # coefficient, so it matches the same spec written with fractions
        floats = '{"order":2,"components":[[0,0,0.5,1],[1,[0,1,0,0],0.25,-0.75]]}'
        exact = '{"order":2,"components":[[0,0,"1/2",1],[1,[0,1,0,0],"1/4","-3/4"]]}'
        code, out = run_cli(capsys, "integrate", "fueter", floats, "[0.1,0.2,0,0]")
        assert code == 0
        assert (code, out) == run_cli(capsys, "integrate", "fueter", exact, "[0.1,0.2,0,0]")
        assert json.loads(out)["abs_deviation"] < 1e-12
        spec = '{"order":2,"components":[[0,0,0.5],[1,[0,1,0,0]]]}'
        code, out = run_cli(capsys, "integrate", "fueter", spec, "[0.1,0.2,0,0]")
        assert code == 0 and json.loads(out)["abs_deviation"] < 1e-12

    def test_fraction_beside_a_float_exits_one(self, capsys):
        spec = '{"order":1,"components":[["1/2",0,0.5]]}'
        assert run_cli(capsys, "integrate", "cauchy", spec, "[0.1,0.2,0,0]") == (1, "")

    def test_stdin_spec(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(QBAR_SPEC))
        code, out = run_cli(capsys, "integrate", "cauchy", "-", "[0.1,0.1,0,0]")
        assert code == 0

    def test_deviation_is_finite_across_the_float_range(self, capsys):
        # the squares of a 1e183 deviation overflow and those of 5e-203 underflow to 0
        for scale, flags, deviation in (("1e200", (), 4.249103942534137e+183),
                                        ("1e-200", ("--nodes", "4"), 5.439282932204142e-203)):
            spec = '{"order":2,"components":[[0],[[%s,0,0,0]]]}' % scale
            code, out = run_cli(capsys, "integrate", "cauchy", spec, "[0.25,0.25,0,0]", *flags)
            assert code == 0
            assert json.loads(out)["abs_deviation"] == deviation


def _strict_json(out: str) -> None:
    """stdout is empty or one JSON document without NaN or infinities."""
    if out.strip():
        json.dumps(json.loads(out), allow_nan=False)


class TestIntegrateBoundary:
    """Out-of-range input is refused with an error exit, never NaN output and exit 0."""

    def check_refused(self, capsys, *argv, codes=(1, 2)):
        code, out = run_cli(capsys, "integrate", *argv)
        assert code in codes
        _strict_json(out)
        return code

    def test_non_finite_radius(self, capsys):
        for radius in ("nan", "inf", "-inf"):
            assert self.check_refused(capsys, "cauchy", QBAR_SPEC, "[0.25,0.25,0,0]",
                                      f"--radius={radius}") == 1

    def test_non_finite_point(self, capsys):
        for point in ("[NaN,0,0,0]", "[0,Infinity,0,0]"):
            for kind in ("cauchy", "fueter"):
                self.check_refused(capsys, kind, QBAR_SPEC, point)

    def test_node_count_bounds(self, capsys):
        for nodes in ("100000000", "3", "-5"):
            assert self.check_refused(capsys, "cauchy", QBAR_SPEC, "[0.25,0.25,0,0]",
                                      "--nodes", nodes) == 1
        code, out = run_cli(capsys, "verify", "quadrature", "--count", "1",
                            "--nodes", "100000000")
        assert code == 1 and out == ""

    def test_non_finite_unit(self, capsys):
        assert self.check_refused(capsys, "cauchy", QBAR_SPEC, "[0.25,0.25,0,0]",
                                  "--unit=nan,0,1") == 1

    def test_order_beyond_float_range(self, capsys):
        # the weight 199! leaves the float range; the prefactor 2^1199 is only an
        # exponent, applied to a top derivative that vanishes
        spec = json.dumps({"order": 1200, "components": [[1]]})
        code, out = run_cli(capsys, "integrate", "fueter", spec, "[0.1,0,0,0]")
        assert code == 0 and json.loads(out)["value"] == [0.0, 0.0, 0.0, 0.0]
        spec = json.dumps({"order": 200, "components": [[]] * 199 + [[1]]})
        assert self.check_refused(capsys, "cauchy", spec, "[0.1,0,0,0]") == 1

    def test_declared_order_bound(self, capsys):
        for order in (MAX_ORDER + 1, 10**6):
            spec = json.dumps({"order": order, "components": [[1]]})
            assert run_cli(capsys, "apply", "V", spec) == (1, "")
            assert self.check_refused(capsys, "cauchy", spec, "[0.1,0,0,0]", codes=(1,)) == 1
        spec = json.dumps({"order": MAX_ORDER, "components": [[1]]})
        assert run_cli(capsys, "apply", "V", spec) == (0, '{"terms": []}\n')
        for op in ("tau", "c_n"):
            for order in ("0", str(MAX_ORDER + 1)):
                assert run_cli(capsys, "apply", op, X1_POLY_SPEC, "--order", order) == (1, "")

    def test_non_finite_coefficients(self, capsys):
        for bad in ("NaN", "Infinity", "-Infinity"):
            spec = '{"order":1,"components":[[[%s,0,0,0]]]}' % bad
            for kind in ("cauchy", "fueter"):
                assert run_cli(capsys, "integrate", kind, spec, "[0.1,0,0,0]") == (1, "")
            assert run_cli(capsys, "integrate", "residual", QBAR_SPEC,
                           "--right-spec", spec) == (1, "")
            assert run_cli(capsys, "integrate", "cauchy", QBAR_SPEC,
                           "[0.1,%s,0,0]" % bad) == (1, "")
            assert run_cli(capsys, "apply", "V", spec) == (1, "")

    def test_overflow_in_the_contour_sum_is_named(self, capsys):
        # near the float maximum the answers leave the float range: a component of
        # cauchy and fueter, and the residual's rounding-level value times 6e600
        big = "[8.98846567431158e+307,0,0,0]"
        qbar = '{"order":2,"components":[[0],[%s]]}' % big
        qbar_qsq = '{"order":2,"components":[[0],[0,0,%s]]}' % big
        # an order-12 node sum near -8e307 whose prefactor 2^11 / 512 = 4 overflows it
        late = json.dumps({"order": 12, "components": [[]] * 11 + [[0, 0, [1e297, 0, 0, 0]]]})
        for argv in (("cauchy", qbar, "[3,0,0,0]", "--radius", "4"),
                     ("fueter", qbar_qsq, "[0.25,0.25,0,0]"), ("fueter", late, "[0.1,0,0,0]"),
                     ("residual", '{"order":1,"components":[[1e300,2e300]]}',
                      "--right-spec", '{"order":1,"components":[[3e300,1e300]]}')):
            assert main(["integrate", *argv]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "slicepoly: input error: the integral is beyond the float range\n"

    def test_huge_coefficients_whose_answer_fits(self, capsys):
        # unscaled, the node terms of both overflow; the answers are near -8e306 and 2.2e307
        spec = '{"order":2,"components":[[0],[0,0,[1e306,0,0,0]]]}'
        code, out = run_cli(capsys, "integrate", "fueter", spec, "[0.9,0,0,0]")
        assert code == 0
        assert json.loads(out)["value"] == [-8.000000000000082e306, -3.097956746429284e291, 0.0, 0.0]
        qbar = '{"order":2,"components":[[0],[[8.98846567431158e+307,0,0,0]]]}'
        code, out = run_cli(capsys, "integrate", "cauchy", qbar, "[0.25,0.25,0,0]")
        assert code == 0
        assert json.loads(out)["value"] == [2.2471164185778954e307, -2.247116418577895e307, 0.0, 0.0]

    def test_answers_that_fit_beside_huge_powers_of_two(self, capsys):
        # each answer fits, though the sum of its |components| (cauchy), the prefactor 2^1024
        # (fueter) and the product of the two sides, about 6e320 (residual), do not
        code, out = run_cli(capsys, "integrate", "cauchy",
                            '{"order":1,"components":[[[1e308,1e308,0,0]]]}', "[0.1,0,0,0]")
        assert code == 0 and json.loads(out)["value"] == [1e308, 1e308, 0.0, 0.0]
        code, out = run_cli(capsys, "integrate", "fueter",
                            '{"order":1025,"components":[[1],[0,0,1]]}', "[0.2,0.1,0,0]")
        assert code == 0 and json.loads(out)["value"] == [0.0, 0.0, 0.0, 0.0]
        assert run_cli(capsys, "apply", "tau", '{"order":1025,"components":[[1],[0,0,1]]}') == \
            (0, '{"terms": []}\n')
        code, out = run_cli(capsys, "integrate", "residual",
                            '{"order":1,"components":[[1e160,2e160]]}',
                            "--right-spec", '{"order":1,"components":[[3e160,1e160]]}')
        # the exact residual is 0; this is rounding, about eps * 6e320
        assert code == 0
        assert json.loads(out)["value"] == [-2.45399156150547e305, -3.6295721158834646e303, 0.0, 0.0]

    def test_kernel_denominator_that_rounds_to_zero(self, capsys):
        # the node s = 1e10 is 100 from the sphere of q, but D(s, q) cancels to exactly 0
        code, out = run_cli(capsys, "integrate", "cauchy", '{"order":1,"components":[[1]]}',
                            "[9999999900.0,0,0,0]", "--radius", "1e10", "--nodes", "4")
        assert code == 2
        assert out == ('{"error": "OnSingularSphere", "message": "D(s, q) rounds to 0 at '
                       's=(10000000000.0, 0.0, 0.0, 0.0) for q=(9999999900.0, 0.0, 0.0, 0.0)"}\n')

    def test_missing_point_and_short_unit(self, capsys):
        for argv, message in ((("cauchy", QBAR_SPEC), "cauchy integration needs a point argument"),
                              (("cauchy", QBAR_SPEC, "[0.1,0,0,0]", "--unit=1,2"),
                               "--unit expects three comma-separated numbers X,Y,Z")):
            assert main(["integrate", *argv]) == 1
            assert capsys.readouterr() == ("", f"slicepoly: input error: {message}\n")


CONST_POLY_SPEC = '{"terms":[{"exp":[0,0,0,0],"coef":[1,0,0,0]}]}'
#: q^65 as an order-1 function spec: one nonzero coefficient above 65 zeros
Q65_SPEC = json.dumps({"order": 1, "components": [[0] * (DEGREE_CAP + 1) + [1]]})
#: a degree-64 order-1 spec: q^64 (1/2 e1 + e3) + q^32 2 e1 + (1 - 1/3 e2 + 2 e3)
Q64_SPEC = json.dumps({"order": 1, "components": [[[1, 0, "-1/3", 2]] + [0] * 31 + [[0, 2, 0, 0]]
                                                  + [0] * 31 + [[0, "1/2", 0, 1]]]})
CAP_ERROR = '{"error": "DegreeCapExceeded", "message": "total degree exceeds cap 64"}\n'


def _budget(monkeypatch, owner, name, limit):
    """Wrap owner.name so that more than ``limit`` calls fail the test at once."""
    fn = getattr(owner, name)
    calls = []

    def counted(*args):
        calls.append(1)
        assert len(calls) <= limit, f"{name} called more than {limit} times"
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkBounds:
    """Inputs whose answer is known early are answered before the work grows."""

    def test_c_n_of_a_constant_at_max_order(self, capsys, monkeypatch):
        calls = _budget(monkeypatch, qpoly, "global_v", MAX_ORDER)
        assert run_cli(capsys, "apply", "c_n", CONST_POLY_SPEC,
                       "--order", str(MAX_ORDER)) == (0, '{"terms": []}\n')
        assert len(calls) < MAX_ORDER

    def test_degree_cap_refused_before_expansion(self, capsys, monkeypatch):
        _budget(monkeypatch, QPoly, "__mul__", 0)
        _budget(monkeypatch, qpoly, "_multinomial", 0)
        full = json.dumps({"order": 1, "components": [[1] * (DEGREE_CAP + 2)]})
        late = json.dumps({"order": 60, "components": [[]] * 59 + [[0] * 10 + [1]]})
        for spec in (Q65_SPEC, full, late):
            for op in ("G", "V", "D", "Dbar", "laplacian", "tau", "c_n"):
                assert run_cli(capsys, "apply", op, spec) == (2, CAP_ERROR)
        # a constant's Laplacian is zero, so c_n never reaches x0^65: the answer is 0
        const = json.dumps({"order": DEGREE_CAP + 2, "components": [[1]]})
        assert run_cli(capsys, "apply", "c_n", const) == (0, '{"terms": []}\n')

    def test_float_spec_above_the_cap_is_an_input_error(self, capsys):
        # the float check comes first for every operator, before any degree
        spec = json.dumps({"order": 2, "components": [[0.5], [0] * DEGREE_CAP + [1]]})
        for op in ("G", "V", "D", "Dbar", "laplacian", "tau", "c_n"):
            assert main(["apply", op, spec]) == 1
            assert capsys.readouterr() == \
                ("", "slicepoly: input error: only exact series expand to polynomials\n")

    def test_raw_polynomial_above_the_cap(self, capsys, monkeypatch):
        _budget(monkeypatch, QPoly, "__mul__", 0)
        for op, exp in (("laplacian", [100, 0, 0, 0]), ("D", [0, 0, 0, 100000000])):
            spec = json.dumps({"terms": [{"exp": exp, "coef": [1, 0, 0, 0]}]})
            assert run_cli(capsys, "apply", op, spec) == (2, CAP_ERROR)

    def test_zero_denominator_is_an_input_error(self, capsys):
        for coef in ('["1/0",0,0,0]', '"1/0"', '[0,0,"-3/0",0]'):
            spec = '{"order":1,"components":[[%s]]}' % coef
            assert run_cli(capsys, "apply", "V", spec) == (1, "")
            assert run_cli(capsys, "integrate", "cauchy", QBAR_SPEC, coef) == (1, "")
        raw = '{"terms":[{"exp":[1,0,0,0],"coef":["0/0",0,0,0]}]}'
        assert run_cli(capsys, "apply", "laplacian", raw) == (1, "")


#: conj(q) q^63, order 2 and degree 64; its raw expansion is built on first use
QBAR_Q63_SPEC = json.dumps({"order": 2, "components": [[], [0] * 63 + [1]]})


@functools.lru_cache(maxsize=None)
def _raw_qbar_q63() -> str:
    return json.dumps(SlicePolyFn.from_json(json.loads(QBAR_Q63_SPEC)).expand().to_json())


class TestAtTheCap:
    """An operator is refused only for the degree of what it builds: V, tau and c_n lower
    the degree, and both routes print the same bytes."""

    @pytest.mark.parametrize("op, degree", [("V", 63), ("tau", 61), ("c_n", 62)])
    def test_both_routes_agree(self, capsys, op, degree):
        code, out = run_cli(capsys, "apply", op, QBAR_Q63_SPEC)
        assert code == 0
        assert run_cli(capsys, "apply", op, _raw_qbar_q63(), "--order", "2") == (0, out)
        assert QPoly.from_json(json.loads(out)).degree == degree

    def test_g_image_above_the_cap(self, capsys):
        for argv in (("G", QBAR_Q63_SPEC), ("G", _raw_qbar_q63())):
            assert run_cli(capsys, "apply", *argv) == (2, CAP_ERROR)

    def test_fueter_integral_at_the_cap(self, capsys):
        assert run_cli(capsys, "integrate", "fueter", QBAR_Q63_SPEC, "[0.2,0.1,0,0]")[0] == 0

    def test_v_remainder_one_degree_above_the_cap(self, capsys):
        # G of x1^64 has degree 65 and is not divisible: the remainder keeps that degree
        spec = json.dumps({"terms": [{"exp": [0, DEGREE_CAP, 0, 0], "coef": [1, 0, 0, 0]}]})
        code, out = run_cli(capsys, "apply", "V", spec)
        assert code == 2
        data = json.loads(out)
        assert data["error"] == "NotDivisible"
        assert max(sum(t["exp"]) for t in data["remainder"]["terms"]) == DEGREE_CAP + 1


F3 = ('{"order":3,"components":[[[1,"1/2",0,-2],[0,1,2,3],[0,0,0,0],[1,0,-1,0]],'
      '[[2,0,-1,"3/4"],[0,0,0,0],[0,1,0,0],["1/5",0,0,1]],'
      '[[0,0,0,1],[1,1,0,0],[-1,2,"-5/3",0],[0,0,2,0],[1,0,0,"-1/4"]]]}')
F2 = ('{"order":2,"components":[[[0,1,0,0],[2,0,0,1],[0,0,0,0],["7/2",1,-1,0],[1,0,2,0]],'
      '[[3,-1,0,2],[0,0,"1/3",0],[1,1,1,1]]]}')
F4 = '{"order":4,"components":[[],[[1,0,0,0]],[[0,2,0,-1],[1,0,0,0]],[["-1/2",0,1,0],[0,0,0,0],[2,1,0,0]]]}'
RAW_MIXED = ('{"terms":[{"exp":[2,1,0,3],"coef":["1/2",0,1,0]},{"exp":[0,2,2,0],"coef":[1,-2,0,"3/7"]},'
             '{"exp":[1,0,0,1],"coef":[0,0,5,0]},{"exp":[4,0,0,0],"coef":[1,1,1,1]}]}')
RAW_X1 = '{"terms":[{"exp":[0,1,0,0],"coef":[1,0,0,0]},{"exp":[1,3,0,0],"coef":[0,"2/3",0,1]}]}'


def _raw_f3() -> str:
    return json.dumps(SlicePolyFn.from_json(json.loads(F3)).expand().to_json(), sort_keys=True)


class TestApplyDigests:
    """sha256 of the stdout of fixed apply calls: a change of kernel must not move a byte."""

    CASES = [
        (("V", F3), 0, "d3084473ab7ef696ed56db80372ff82cd2c842dd51b31c6c2a7cd480f1d0a4f1"),
        (("tau", F3), 0, "a9f9f2195c9190d654207746b4685aae7c6d6a1a8eeb09aeedb536765011ecdb"),
        (("c_n", F3), 0, "f529f334b46f7aad0344f27245607c8d6e818ac6df3b13d7937d62546b8e9b16"),
        (("D", F2), 0, "328b23df64d2c12cfd58a76472cf4792b03801a4c1c9c125f5bdeb7eb241f98e"),
        (("laplacian", F2), 0, "5dfc08423a5221711d26d9406e0ec21fca62febc105df40db4b0439c6b79cfae"),
        (("tau", F4), 0, "3fa208d511cacccb6c5b27f73b1b14c93fccf8beb2c3343f2a074c9774e9f572"),
        (("V", F2, "--format", "text"), 0,
         "aa50037eb69de4f67cf3375285d52191cea1427b61244bba42a782e41868d87f"),
        (("V", RAW_X1), 2, "003c1972ddc78f12f30118c091e39209f2f8e002967ef097f0deacd62b0710c7"),
        (("laplacian", RAW_MIXED), 0, "a95252d2cb092edb25a72760de8b0d80f081e5b77d99667b31d4d2ab824bda55"),
        (("D", RAW_MIXED), 0, "34cadc72c9bc1603cdb8d816d41c395707a86cc51b72587a0185ecf46d37769a"),
        # a raw expansion: c_n goes through decompose and its Fraction scaling
        (("c_n", None, "--order", "3"), 0,
         "f529f334b46f7aad0344f27245607c8d6e818ac6df3b13d7937d62546b8e9b16"),
        (("tau", None, "--order", "3"), 0,
         "a9f9f2195c9190d654207746b4685aae7c6d6a1a8eeb09aeedb536765011ecdb"),
        (("G", F3), 0, "077236113266ac99811985772cf3872da3a99c0e7ef9c87db14af761f5fe671e"),
        (("G", F2, "--format", "text"), 0,
         "b04429c4a3710387f8c76270fa68d61b936632185682aed204f15a1ab50a6a13"),
        (("Dbar", F2), 0, "94efb6fec1eed7a4e7571e2f049bd183038ba315c326fd8fe6ffeb6768c64048"),
        (("Dbar", F3), 0, "4d79f04f7ebdf43ee14150bbd93c018d71d603d4389bb70712fc3a2fc1bad0fd"),
        # --order overrides the declared order
        (("tau", F2, "--order", "4"), 0,
         "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
        (("tau", F3, "--order", "1"), 0,
         "4b616cbdb67106cb24b064927376511fc9930fbbc28115e370c2c0959a6dceae"),
        # at the degree cap: G, V and tau of order 2 of a slice regular function are 0,
        # the others lower the degree
        *((argv, 0, "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5")
          for argv in (("G", Q64_SPEC), ("V", Q64_SPEC), ("tau", Q64_SPEC, "--order", "2"))),
        (("D", Q64_SPEC), 0, "cdce75af97b4c3d822949dad963b260697c18a995b6d7d906f09d08743c17965"),
        (("Dbar", Q64_SPEC), 0, "d92fba98fc29a9e107fe2b39737ea3864a78cf592487d547c85aa3fb1dfc0c4c"),
        *(((op, Q64_SPEC), 0, "bd91e3d633fd60957dc517163f6ed78235fe6f5e07fc074d733c54825e91115a")
          for op in ("laplacian", "tau", "c_n")),
    ]

    @pytest.mark.parametrize("argv, code, digest", CASES,
                             ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(CASES)])
    def test_stdout_digest(self, capsys, argv, code, digest):
        op, spec, *flags = argv
        got, out = run_cli(capsys, "apply", op, _raw_f3() if spec is None else spec, *flags)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


#: an order-3 spec with binary64 coefficients: its reference goes through the exact copy
F3_FLOAT = ('{"order":3,"components":[[[0.5,0.25,0,-1.5],[1,0,0.75,0],[0,0.1,0,0]],'
            '[[0,1,0,0.125],[0.3,0,0,0]],[[0.3,0,0,0],[0,0,-0.7,1],[0.2,0.2,0,0]]]}')


class TestIntegrateDigests:
    """sha256 of the stdout of fixed integrate calls: pins the float bytes of
    ``reference = tau_n(...).evaluate(q)``, so a change of exact kernel must not move them."""

    CASES = [
        ((F3, "[0.2,0.1,-0.15,0.05]"), "78bfde12d1ee5f603826ca30f7d5f90b7ef1fc846b9b216bb43b0d8caccd5fa1"),
        ((F3_FLOAT, "[0.2,0.1,-0.15,0.05]"), "d2f9a5e33f08724e56cfd056040c0b8f55550cf229b1ae10619b43f36900a62a"),
    ]

    @pytest.mark.parametrize("argv, digest", CASES, ids=["exact", "float"])
    def test_fueter_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, "integrate", "fueter", *argv, "--nodes", "512")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyDigests:
    """sha256 of the stdout of fixed verify calls: pins the float kernels' max_error bytes."""

    CASES = [
        (("kernels", "--seed", "7", "--count", "20"),
         "0c89a6882325a6907e70b57324e607b98e285b7b3273f9df4cf06e580985de13"),
        (("quadrature", "--seed", "7", "--count", "3"),
         "19f54df0c8d9e1af0da865cdb1b1504fe2ecde940a057aefc73b0df7d5459728"),
    ]

    @pytest.mark.parametrize("argv, digest", CASES, ids=[argv[0] for argv, _ in CASES])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "slicepoly.cli", "apply", "V", QBAR_SPEC],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["terms"][0]["coef"] == ["2", "0", "0", "0"]

    def test_unknown_flag_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "slicepoly.cli", "verify", "vn", "--bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1


# -- in-process fuzz of the exit-code contract ------------------------------------

EXACT = st.sampled_from([0, 1, -1, 2, "1/2", "-3/4", 10**30])
FLOAT = st.sampled_from([0.0, 1.0, -0.5, 0.25, 3])
#: what a spec must not carry: zero denominators, malformed strings, NaN,
#: overflowing floats, booleans, ints beyond binary64, nulls
HOSTILE = st.sampled_from(["1/0", "0/0", "x", math.nan, 1e308, -1e308, True, -(10**400), None])
POINT = st.one_of(st.sampled_from(["1/4", 0.3, -0.2, 2]),
                  st.lists(st.sampled_from([0, 0.25, -0.1, "1/4", "-1/8"]), min_size=4, max_size=4))


def _coefs(pool):
    return st.one_of(pool, st.lists(pool, min_size=4, max_size=4))


@st.composite
def _spoiled(draw, value, slots):
    """value, or with one drawn scalar slot replaced by a hostile one (about one draw in three)."""
    if slots and draw(st.integers(0, 2)) == 0:
        holder, key = slots[draw(st.integers(0, len(slots) - 1))]
        holder[key] = draw(st.one_of(HOSTILE, st.builds(lambda h: [0, h, 0, 0], HOSTILE)))
    return value


@st.composite
def fn_specs(draw):
    """An order-<=4 function spec of degree <= 8, exact or float, maybe spoiled."""
    pool = draw(st.sampled_from([EXACT, FLOAT]))
    order = draw(st.integers(1, 4))
    comps = draw(st.lists(st.lists(_coefs(pool), max_size=9), max_size=order))
    spec = {"order": draw(st.sampled_from([order] * 6 + [0, True, order + 1]))}
    spec["components"] = comps
    return draw(_spoiled(spec, [(c, i) for c in comps for i in range(len(c))]))


@st.composite
def poly_specs(draw):
    """A raw polynomial spec of at most five exact terms of degree <= 8, maybe spoiled."""
    terms = draw(st.lists(st.builds(lambda exp, coef: {"exp": exp, "coef": coef},
                                    st.lists(st.integers(0, 2), min_size=4, max_size=4),
                                    _coefs(EXACT)), max_size=5))
    return draw(_spoiled({"terms": terms}, [(t, "coef") for t in terms]))


FORMAT = st.sampled_from([[], ["--format", "text"]])
APPLY_ARGV = st.builds(
    lambda op, spec, order, fmt: ["apply", op, *order, *fmt, "--", json.dumps(spec)],
    st.sampled_from(["G", "V", "D", "Dbar", "laplacian", "tau", "c_n"]),
    st.one_of(fn_specs(), poly_specs()),
    st.sampled_from([[], [], ["--order=-1"], ["--order=1"], ["--order=3"], ["--order=4"]]),
    FORMAT)
INTEGRATE_ARGV = st.builds(
    lambda kind, spec, point, right, opts, fmt: [
        "integrate", kind, *opts, *fmt, *(["--right-spec", json.dumps(right)] if right else []),
        "--", json.dumps(spec), *([json.dumps(point)] if point is not None else [])],
    st.sampled_from(["cauchy", "fueter", "residual"]),
    fn_specs(),
    st.one_of(POINT, POINT, HOSTILE),
    st.one_of(st.none(), fn_specs()),
    st.lists(st.sampled_from(["--nodes=4", "--nodes=16", "--nodes=16", "--nodes=3",
                              "--radius=0.5", "--radius=nan", "--radius=-1", "--unit=0,1,0",
                              "--unit=0,0,0", "--unit=1e-320,0,1e-320"]), max_size=2),
    FORMAT)


class TestFuzz:
    """No input makes the CLI escape its exit codes or print non-JSON output."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(APPLY_ARGV, INTEGRATE_ARGV))
    @example(["apply", "D", Q65_SPEC])
    @example(["apply", "c_n", "--order", str(MAX_ORDER), CONST_POLY_SPEC])
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert out.getvalue() == ""
        if "text" not in argv:
            _strict_json(out.getvalue())
