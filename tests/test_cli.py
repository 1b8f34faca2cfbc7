import json
import subprocess
import sys

from slicepoly.cli import main

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

    def test_stdin_spec(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(QBAR_SPEC))
        code, out = run_cli(capsys, "integrate", "cauchy", "-", "[0.1,0.1,0,0]")
        assert code == 0


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
        # 2^(n-1) and the weights (n-1)!/(n-1-j)! leave the float range
        spec = json.dumps({"order": 1200, "components": [[1]]})
        assert self.check_refused(capsys, "fueter", spec, "[0.1,0,0,0]") == 1
        spec = json.dumps({"order": 200, "components": [[]] * 199 + [[1]]})
        assert self.check_refused(capsys, "cauchy", spec, "[0.1,0,0,0]") == 1


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
