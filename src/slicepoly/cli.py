"""Command line front end: apply operators, run theorem suites, integrate.

Specs are JSON, passed inline, as a file path, or as ``-`` for stdin.  A
function spec is ``{"order": n, "components": [[coef, ...], ...]}`` with
quaternion coefficients as 4-arrays (exact scalars as "p/q" strings, plain
numbers for reals); a raw polynomial spec is ``{"terms": [...]}``.

Exit codes: 0 success, 1 input error, 2 domain or class error.  Identical
flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import qpoly, quad
from .errors import SlicePolyError
from .qpoly import QPoly
from .quat import Quaternion, UnitImaginary
from .slicefn import MAX_ORDER, RightSlicePolyFn, SlicePolyFn, SliceRegularSeries, decompose


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_spec(arg: str):
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read spec file {arg}: {exc.strerror or exc}") from exc
    return json.loads(text)


def _parse_unit(text: str) -> UnitImaginary:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--unit expects three comma-separated numbers X,Y,Z")
    return UnitImaginary.from_vector(*parts)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _fn_or_poly(data):
    """Dispatch a spec dict to a function or a raw polynomial."""
    if isinstance(data, dict) and "terms" in data:
        return QPoly.from_json(data)
    return SlicePolyFn.from_json(data)


# -- apply ---------------------------------------------------------------------

_SIMPLE_OPS = {
    "G": qpoly.global_g,
    "V": qpoly.global_v,
    "D": qpoly.cauchy_fueter,
    "Dbar": qpoly.conjugate_cauchy_fueter,
    "laplacian": qpoly.laplacian,
}


def _cmd_apply(args) -> int:
    data = _read_spec(args.spec)
    obj = _fn_or_poly(data)
    is_fn = isinstance(obj, SlicePolyFn)
    if args.order is not None and not 1 <= args.order <= MAX_ORDER:
        raise ValueError(f"--order must be an integer in [1, {MAX_ORDER}]")
    order = args.order if args.order is not None else (obj.order if is_fn else None)

    if not is_fn and args.op in ("tau", "c_n") and order is None:
        raise ValueError(f"{args.op} on a raw polynomial spec needs --order")
    if is_fn:  # on the stem; a raw spec goes through the four-variable sweeps
        result = obj.image(args.op, order)
    elif args.op == "c_n":
        result = decompose(obj, order).image("c_n")
    else:
        result = qpoly.tau_n(obj, order) if args.op == "tau" else _SIMPLE_OPS[args.op](obj)

    _emit(result.to_json(), args.format, [str(result)])
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    # imported here, so that apply and integrate do not load the suites at start-up
    from .verify import run_suites

    reports = run_suites([args.suite], seed=args.seed, count=args.count,
                         tol=args.tol, nodes=args.nodes)
    overall = all(r.passed for r in reports)
    payload = {"passed": overall, "suites": [r.to_dict() for r in reports]}
    lines = []
    for rep in reports:
        for c in rep.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f" tol={c.tolerance}" if c.tolerance is not None else ""
            warn = " (warning: vacuous)" if c.instances == 0 else ""
            lines.append(
                f"{status} {rep.suite}.{c.name} instances={c.instances} "
                f"max_error={c.max_error:.3e}{extra}{warn}"
            )
    lines.append(f"{'PASS' if overall else 'FAIL'} overall")
    if args.count == 0:
        payload["warning"] = "empty corpus: all checks vacuous"
    _emit(payload, args.format, lines)
    return 0 if overall else 3


# -- integrate --------------------------------------------------------------------


def _exact(f: SlicePolyFn) -> SlicePolyFn:
    """The same function over the rationals: Fraction(x) is the exact value of a binary64 x."""
    if f.is_exact:
        return f
    return SlicePolyFn([SliceRegularSeries([Quaternion(*map(Fraction, (c.w, c.x, c.y, c.z)))
                                            for c in comp.coeffs]) for comp in f.components])


def _cmd_integrate(args) -> int:
    data = _read_spec(args.spec)
    f = SlicePolyFn.from_json(data)
    path = quad.CirclePath(_parse_unit(args.unit), args.radius, args.nodes)

    if args.kind == "residual":
        if args.right_spec is None:
            raise ValueError("residual integration needs --right-spec")
        g = RightSlicePolyFn.from_json(_read_spec(args.right_spec))
        value = quad.cauchy_theorem_residual(f, g, path)
        reference = Quaternion(0.0, 0.0, 0.0, 0.0)
    else:
        if args.point is None:
            raise ValueError(f"{args.kind} integration needs a point argument")
        q = Quaternion.from_json(json.loads(args.point)).to_float()
        if args.kind == "cauchy":
            value = quad.poly_cauchy_eval(f, q, path)
            reference = f.evaluate(q)
        else:
            value = quad.fueter_integral(f, q, path)
            reference = _exact(f).fueter_image().evaluate(q)

    deviation = abs(value - reference)
    payload = {
        "value": value.to_json(),
        "reference": reference.to_json(),
        "abs_deviation": deviation,
    }
    _emit(payload, args.format,
          [f"value     {value}", f"reference {reference}", f"deviation {deviation:.3e}"])
    return 0


# -- parser ------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="slicepoly", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_apply = sub.add_parser("apply", help="apply an operator to a function or polynomial spec")
    p_apply.add_argument("op", choices=("G", "V", "D", "Dbar", "laplacian", "tau", "c_n"))
    p_apply.add_argument("spec", help="inline JSON, a file path, or - for stdin")
    p_apply.add_argument("--order", type=int, default=None,
                         help=f"order for tau/c_n on raw polynomial specs (at most {MAX_ORDER})")
    common(p_apply)
    p_apply.set_defaults(func=_cmd_apply)

    p_verify = sub.add_parser("verify", help="run a seeded theorem suite")
    p_verify.add_argument("suite", choices=("leibniz", "appell", "vn", "poly_fueter",
                                            "tauc", "kernels", "quadrature", "all"))
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--count", type=int, default=12,
                          help="instances per check; 0 gives a vacuous pass")
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--nodes", type=int, default=512)
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_int = sub.add_parser("integrate", help="evaluate a contour integral")
    p_int.add_argument("kind", choices=("cauchy", "fueter", "residual"))
    p_int.add_argument("spec", help="function spec: inline JSON, file path, or -")
    p_int.add_argument("point", nargs="?", default=None,
                       help="evaluation point as a JSON 4-array (not used by residual)")
    p_int.add_argument("--right-spec", default=None,
                       help="right-sided function spec for the residual integral")
    p_int.add_argument("--nodes", type=int, default=512)
    p_int.add_argument("--radius", type=float, default=1.0)
    p_int.add_argument("--unit", default="1,0,0",
                       help="slice unit X,Y,Z (normalized); write --unit=X,Y,Z if X is negative")
    common(p_int)
    p_int.set_defaults(func=_cmd_integrate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlicePolyError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        remainder = getattr(exc, "remainder", None)
        if remainder is not None:
            payload["remainder"] = remainder.to_json()
        fmt = getattr(args, "format", "json")
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"error: {payload['error']}: {payload['message']}")
            if remainder is not None:
                print(f"remainder: {remainder}")
        return 2
    except ZeroDivisionError as exc:
        print(json.dumps({"error": "ZeroDivision", "message": str(exc)}, sort_keys=True))
        return 2
    except (ValueError, TypeError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        print(f"slicepoly: input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
