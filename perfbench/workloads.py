"""The four benchmark workloads: seeded inputs, references, timed calls, checks.

Every workload draws its inputs from ``random.Random("<name>:<seed>")`` and
hands the program only those inputs.  References are computed during set-up
by a different route than the timed call (see each class), and every
operation is checked after it is timed.  A raised exception or a failed check
counts the operation as failed; nothing is retried, dropped or filtered.

Schedules are fixed and only the drawn values depend on the seed, so the cost
mix of a run does not change from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import selectors
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import refmath
from slicepoly import oracle, qpoly, quad, slicefn, verify
from slicepoly.quat import Quaternion, UnitImaginary
from slicepoly.slicefn import RightSlicePolyFn, SlicePolyFn, SliceRegularSeries

#: seed of the fixed warm-up inputs, so set-up does the same work for every seed
WARMUP_SEED = 0
#: per-operation limit for a CLI child process
CHILD_TIMEOUT_S = 60.0


class Op:
    """One operation: its inputs as plain data, the program objects, the reference."""

    __slots__ = ("label", "spec", "args", "expected")

    def __init__(self, label: str, spec: dict, args=None, expected=None):
        self.label = label
        self.spec = spec
        self.args = args
        self.expected = expected


# -- input draws -----------------------------------------------------------------


def draw_coeffs(rng: random.Random, deg: int, cmax: int) -> list[list[int]]:
    return [[rng.randint(-cmax, cmax) for _ in range(4)] for _ in range(deg + 1)]


def draw_point(rng: random.Random, rmin: float, rmax: float, vecmin: float = 0.0) -> list[float]:
    """Uniform direction on S^3, radius uniform in [rmin, rmax), |vec| >= vecmin."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(t * t for t in v))
        if n < 1e-9:
            continue
        r = rng.uniform(rmin, rmax)
        q = [t * r / n for t in v]
        if math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2) >= vecmin:
            return q


def draw_unit(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(t * t for t in v))
        if n > 1e-3:
            return [t / n for t in v]


def fn_spec(components) -> dict:
    return {"order": len(components), "components": components}


def make_fn(components) -> SlicePolyFn:
    return SlicePolyFn([SliceRegularSeries([Quaternion(*c) for c in comp]) for comp in components])


def as_tuples(components) -> list[list[tuple]]:
    return [[tuple(c) for c in comp] for comp in components]


def rel_gap(value: Quaternion, ref: Quaternion) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


def suite_failure(report, expected: bool) -> str | None:
    """Why a count-1 suite report fails its gate, or None if it passes."""
    if report.passed != expected:
        failed = [c.name for c in report.checks if not c.passed]
        return f"suite {report.suite} seed {report.seed}: passed={report.passed}, failing {failed}"
    if any(c.instances != 1 for c in report.checks):
        return f"suite {report.suite} seed {report.seed} ran a check on other than 1 instance"
    return None


# -- the workloads ----------------------------------------------------------------------


class Workload:
    """Common steps: draw the corpus, prepare program objects and references, warm up."""

    name = ""
    #: corpus length; runs that outlast it cycle through it again
    corpus_size = 0
    #: tail percentile reported as op_tail_ms, the highest with >= 10 samples beyond it here
    tail_pct = 90.0
    warmup_ops = 0
    #: operations in one turn of the schedule; a timed run ends on a whole cycle
    cycle = 1

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.specs = self.draw(random.Random(f"{self.name}:{seed}"), self.corpus_size)
        self.ops: list[Op] = []

    def digest(self) -> str:
        text = json.dumps(self.specs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def prepare(self) -> None:
        """Program objects, references and warm-up: everything set-up time covers."""
        self.ops = [self.make_op(s) for s in self.specs]
        warm = self.draw(random.Random(f"{self.name}:warmup:{WARMUP_SEED}"), self.warmup_ops)
        for spec in warm:
            op = self.make_op(spec)
            failure = self.check(op, self.execute(op, None))
            if failure:
                raise RuntimeError(f"warm-up operation {op.label} failed: {failure}")

    def draw(self, rng: random.Random, n: int) -> list[dict]:
        raise NotImplementedError

    def make_op(self, spec: dict) -> Op:
        raise NotImplementedError

    def execute(self, op: Op, tracer):
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ExactVerify(Workload):
    """One call of an exact suite from ``verify.SUITES`` at count 1, or one decompose, warm caches.

    The reference is the suite's own verdict, ``passed``; the suites compare
    two exact routes to each identity.  One slot in 13 is the ``vn`` suite's
    costliest check, the decompose round trip, on a drawn order-3 function
    whose components all have degree 4: ``decompose(f.expand(), 3)`` must
    give back ``f``.  The ``vn`` suite itself draws each instance's order and
    degrees from the call's seed, so its calls cost from 10 ms to 1.5 s, and
    the 40 to 60 of them in a run moved the run's figures with the seed.
    """

    name = "exact_verify"
    schedule = ("leibniz", "appell", "decompose", "poly_fueter", "tauc",
                "leibniz", "appell", "poly_fueter", "tauc",
                "leibniz", "appell", "poly_fueter", "tauc")
    corpus_size = 13 * 80
    #: p95 falls among the decompose calls (one op in 13), the costliest kind
    tail_pct = 95.0
    cycle = 13
    warmup_ops = 5
    decompose_order = 3
    decompose_degree = 4

    def draw(self, rng, n):
        specs = []
        for i in range(n):
            suite = self.schedule[i % 13]
            if suite == "decompose":
                f = [draw_coeffs(rng, self.decompose_degree, 2) for _ in range(self.decompose_order)]
                specs.append({"suite": suite, "f": f})
            else:
                specs.append({"suite": suite, "seed": rng.getrandbits(31)})
        return specs

    def make_op(self, spec):
        if spec["suite"] == "decompose":
            f = make_fn(spec["f"])
            return Op("decompose", spec, f, f.trim())
        return Op(spec["suite"], spec, expected=True)

    def execute(self, op, tracer):
        if op.spec["suite"] == "decompose":
            # through the module attribute, so the traced run sees the call
            return slicefn.decompose(op.args.expand(), self.decompose_order)
        return verify.SUITES[op.spec["suite"]](op.spec["seed"], 1, 1e-9, 512)

    def check(self, op, result):
        if op.spec["suite"] == "decompose":
            return None if result == op.expected else "decompose: round trip differs from the input"
        return suite_failure(result, op.expected)


class ContourQuad(Workload):
    """A ``CirclePath`` plus one contour integral, mostly at N=512, one op in 13 at N=8192.

    A cycle of 13 operations runs the four integrals at orders 1, 2, 3 with
    N=512, then one order-1 integral at N=8192 whose kind rotates by cycle.
    Every component has degree 4, so an operation's cost depends on its kind,
    order and N alone; the seed draws coefficients, points and units.
    References come from set-up by exact routes: ``f.evaluate(q)`` for the
    reproducing integral, the exact ``tau_n`` expansion evaluated at ``q`` for
    both Fueter integrals, and 0 for the bilinear residual.
    """

    name = "contour_quad"
    kinds = ("cauchy", "fueter", "explicit", "residual")
    corpus_size = 13 * 12
    cycle = 13
    tail_pct = 90.0
    warmup_ops = 4
    tolerance = {"cauchy": 1e-9, "fueter": 1e-7, "explicit": 1e-7, "residual": 1e-9}

    def draw(self, rng, n):
        specs = []
        for i in range(n):
            cycle, slot = divmod(i, 13)
            if slot < 12:
                kind, order, nodes = self.kinds[slot % 4], 1 + slot // 4, 512
            else:
                kind, order, nodes = self.kinds[cycle % 4], 1, 8192
            spec = {
                "kind": kind,
                "nodes": nodes,
                "f": [draw_coeffs(rng, 4, 2) for _ in range(order)],
                "q": draw_point(rng, 0.0, 0.6),
                "unit": draw_unit(rng),
            }
            if kind == "residual":
                spec["g"] = [draw_coeffs(rng, 4, 2) for _ in range(order)]
            specs.append(spec)
        return specs

    def make_op(self, spec):
        f = make_fn(spec["f"])
        q = Quaternion(*spec["q"])
        unit = UnitImaginary.from_vector(*spec["unit"])
        kind = spec["kind"]
        if kind == "cauchy":
            expected = f.evaluate(q)
        elif kind == "residual":
            expected = Quaternion(0.0, 0.0, 0.0, 0.0)
        else:
            expected = qpoly.tau_n(f.expand(), f.order).evaluate(q)
        g = RightSlicePolyFn([[Quaternion(*c) for c in comp] for comp in spec["g"]]) \
            if kind == "residual" else None
        return Op(f"{kind}/{spec['nodes']}", spec, (f, q, unit, g), expected)

    def execute(self, op, tracer):
        f, q, unit, g = op.args
        path = quad.CirclePath(unit, 1.0, op.spec["nodes"])
        kind = op.spec["kind"]
        if kind == "cauchy":
            return quad.poly_cauchy_eval(f, q, path)
        if kind == "fueter":
            return quad.fueter_integral(f, q, path)
        if kind == "explicit":
            return quad.fueter_integral_explicit(f, q, path)
        return quad.cauchy_theorem_residual(f, g, path)

    def check(self, op, value):
        kind = op.spec["kind"]
        gap = abs(value) if kind == "residual" else rel_gap(value, op.expected)
        if not gap <= self.tolerance[kind]:
            return f"{op.label}: gap {gap:.3e} above {self.tolerance[kind]:.0e}"
        return None


class PointwiseOracle(Workload):
    """One finite-difference oracle check at one point, rotating over three kinds.

    * ``kernels``: one ``verify.SUITES["kernels"]`` call at count 1;
    * ``qpoly``: a stencil on ``QPoly.evaluate`` against the exact
      derivative polynomial evaluated at the point;
    * ``slicefn``: a stencil on ``SlicePolyFn.evaluate`` against the exact
      image under ``V``, the Laplacian, or ``V/2`` for the slice CR stencil.

    Inputs have total degree <= 4, where one Richardson step makes the
    stencils exact up to rounding, so the gate 1e-8 (relative above 1) sits
    orders of magnitude above the noise and below any real error.
    """

    name = "pointwise_oracle"
    corpus_size = 3 * 300
    tail_pct = 95.0
    cycle = 27
    warmup_ops = 9
    step = 0.05
    tolerance = 1e-8

    def draw(self, rng, n):
        specs = []
        for i in range(n):
            kind = ("kernels", "qpoly", "slicefn")[i % 3]
            j = i // 3
            if kind == "kernels":
                spec = {"kind": kind, "seed": rng.getrandbits(31)}
            elif kind == "qpoly":
                terms = []
                for _ in range(6):
                    exp = [0, 0, 0, 0]
                    for _ in range(rng.randint(0, 4)):
                        exp[rng.randrange(4)] += 1
                    terms.append([exp, [rng.randint(-3, 3) for _ in range(4)]])
                spec = {"kind": kind, "stencil": ("partial", "laplacian", "cauchy_fueter")[j % 3],
                        "axis": rng.randrange(4), "terms": terms, "q": draw_point(rng, 0.0, 0.6)}
            else:
                order = 1 + j % 3
                spec = {"kind": kind, "stencil": ("global_v", "laplacian", "slice_cr")[(j // 3) % 3],
                        "f": [draw_coeffs(rng, 4 - k, 2) for k in range(order)],
                        "q": draw_point(rng, 0.2, 0.6, vecmin=0.15),
                        "unit": draw_unit(rng),
                        "z": [rng.uniform(-0.4, 0.4), rng.uniform(0.15, 0.45)]}
            specs.append(spec)
        return specs

    def make_op(self, spec):
        kind = spec["kind"]
        if kind == "kernels":
            return Op(kind, spec, expected=True)
        stencil = spec["stencil"]
        if kind == "qpoly":
            terms: dict = {}
            for exp, c in spec["terms"]:
                key = tuple(exp)
                terms[key] = terms.get(key, Quaternion(0, 0, 0, 0)) + Quaternion(*c)
            p = qpoly.QPoly(terms)
            q = Quaternion(*spec["q"])
            image = {"partial": lambda: qpoly.partial(p, spec["axis"]),
                     "laplacian": lambda: qpoly.laplacian(p),
                     "cauchy_fueter": lambda: qpoly.cauchy_fueter(p)}[stencil]()
            return Op(f"qpoly/{stencil}", spec, (p, q), image.evaluate(q))
        f = make_fn(spec["f"])
        expansion = f.expand()
        if stencil == "slice_cr":
            unit = UnitImaginary.from_vector(*spec["unit"]).u
            x, y = spec["z"]
            q = Quaternion(x, 0.0, 0.0, 0.0) + unit * y
            expected = qpoly.global_v(expansion).evaluate(q) * 0.5
            return Op(f"slicefn/{stencil}", spec, (f, q, unit), expected)
        q = Quaternion(*spec["q"])
        image = qpoly.global_v(expansion) if stencil == "global_v" else qpoly.laplacian(expansion)
        return Op(f"slicefn/{stencil}", spec, (f, q, None), image.evaluate(q))

    def execute(self, op, tracer):
        spec = op.spec
        kind = spec["kind"]
        if kind == "kernels":
            return verify.SUITES["kernels"](spec["seed"], 1, 1e-9, 512)
        stencil = spec["stencil"]
        if kind == "qpoly":
            p, q = op.args
            if stencil == "partial":
                axis = spec["axis"]
                return oracle.richardson(lambda h: oracle.fd_partial(p.evaluate, q, axis, h), self.step)
            fd = oracle.fd_laplacian if stencil == "laplacian" else oracle.fd_cauchy_fueter
            return oracle.richardson(lambda h: fd(p.evaluate, q, h), self.step)
        f, q, unit = op.args
        if stencil == "slice_cr":
            return oracle.richardson(
                lambda h: oracle.fd_slice_cr(f.evaluate, unit, q, h, side="left"), self.step)
        fd = oracle.fd_global_v if stencil == "global_v" else oracle.fd_laplacian
        return oracle.richardson(lambda h: fd(f.evaluate, q, h), self.step)

    def check(self, op, result):
        if op.spec["kind"] == "kernels":
            return suite_failure(result, op.expected)
        gap = rel_gap(result, op.expected)
        if not gap <= self.tolerance:
            return f"{op.label}: gap {gap:.3e} above {self.tolerance:.0e}"
        return None


class CliCold(Workload):
    """One fresh ``python -m slicepoly.cli`` process per operation.

    ``apply`` results are evaluated exactly at two integer points with
    components in [-999, 999] and compared with references from
    ``refmath`` (order lowering for V, tau_n and c_n; exact interpolation
    for D).  ``integrate`` values are compared with float references from the
    same identities.  Stdout must be strict JSON: NaN and infinities are
    rejected.
    """

    name = "cli_cold"
    # (command, operator or integral, order, degree, nodes); the 8192-node slot
    # rotates over the three integrals
    schedule = (
        ("apply", "V", 2, 12, None),
        ("apply", "tau", 3, 16, None),
        ("apply", "c_n", 4, 10, None),
        ("apply", "D", 2, 14, None),
        ("apply", "tau", 1, 8, None),
        ("apply", "V", 4, 6, None),
        ("apply", "c_n_raw", 2, 6, None),
        ("integrate", "cauchy", 2, 4, 512),
        ("integrate", "fueter", 3, 4, 512),
        ("integrate", "residual", 2, 4, 512),
        ("integrate", None, 1, 4, 8192),
    )
    corpus_size = 11 * 8
    cycle = 11
    tail_pct = 70.0
    warmup_ops = 1
    tolerance = {"cauchy": 1e-9, "fueter": 1e-7, "residual": 1e-9}

    def __init__(self, seed, root):
        self.out_dir = root / ".perfbench"
        self.child_rss_kb = 0
        super().__init__(seed, root)

    def draw(self, rng, n):
        specs = []
        for i in range(n):
            command, what, order, deg, nodes = self.schedule[i % len(self.schedule)]
            if what is None:
                what = ("cauchy", "fueter", "residual")[(i // len(self.schedule)) % 3]
            cmax = 3 if command == "apply" else 2
            comps = [draw_coeffs(rng, deg, cmax) for _ in range(order)]
            spec = {"command": command, "what": what, "f": comps}
            if command == "apply":
                spec["points"] = [[rng.randint(-999, 999) for _ in range(4)] for _ in range(2)]
            else:
                spec["nodes"] = nodes
                spec["unit"] = draw_unit(rng)
                if what == "residual":
                    spec["g"] = [draw_coeffs(rng, deg, cmax) for _ in range(order)]
                else:
                    spec["q"] = draw_point(rng, 0.0, 0.6)
            specs.append(spec)
        return specs

    def make_op(self, spec):
        comps = as_tuples(spec["f"])
        what = spec["what"]
        fn_json = json.dumps(fn_spec(spec["f"]))
        if spec["command"] == "apply":
            if what == "c_n_raw":
                raw = json.dumps(make_fn(spec["f"]).expand().to_json())
                argv = ["apply", "c_n", raw, "--order", str(len(comps))]
            else:
                argv = ["apply", what, fn_json]
            image = {"V": refmath.v_image, "tau": refmath.tau_image, "c_n": refmath.c_image,
                     "c_n_raw": refmath.c_image, "D": refmath.dirac_image}[what]
            expected = [image(comps, tuple(p)) for p in spec["points"]]
        else:
            argv = ["integrate", what, fn_json]
            if what == "residual":
                argv += ["--right-spec", json.dumps(fn_spec(spec["g"]))]
                expected = refmath.ZERO
            else:
                argv.append(json.dumps(spec["q"]))
                q = tuple(spec["q"])
                expected = refmath.fn_eval(comps, q) if what == "cauchy" \
                    else refmath.tau_image(comps, q)
            # "--unit=" keeps argparse from reading a leading minus sign as an option
            argv += ["--nodes", str(spec["nodes"]),
                     "--unit=" + ",".join(repr(u) for u in spec["unit"])]
        return Op(f"{spec['command']} {what}", spec, argv, expected)

    def execute(self, op, tracer):
        python = sys.executable
        if tracer is None:
            argv = [python, "-m", "slicepoly.cli", *op.args]
            trace_file = None
        else:
            trace_file = self.out_dir / f"cli-trace-{os.getpid()}.json"
            argv = [python, str(Path(__file__).with_name("tracedcli.py")),
                    repr(perf_counter()), str(trace_file), *op.args]
        rc, out, err, rss_kb = run_child(argv, self.root, CHILD_TIMEOUT_S)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        if trace_file is not None and trace_file.exists():
            tracer.absorb(json.loads(trace_file.read_text()))
            trace_file.unlink()
            tracer.count("cli.stdout_bytes", len(out))
        return rc, out, err

    def check(self, op, result):
        rc, out, err = result
        if rc != 0:
            return f"{op.label}: exit {rc}: {err.strip()[-200:]}"
        try:
            payload = json.loads(out, parse_constant=_reject_constant)
        except ValueError as exc:
            return f"{op.label}: stdout is not strict JSON: {exc}"
        spec = op.spec
        if spec["command"] == "apply":
            for point, ref in zip(spec["points"], op.expected):
                got = refmath.poly_eval(payload["terms"], tuple(point))
                if got != ref:
                    return f"{op.label}: value at {point} differs from the reference"
            return None
        value = tuple(payload["value"])
        if spec["what"] == "residual":
            gap = refmath.qabs(value)
        else:
            diff = tuple(a - b for a, b in zip(value, op.expected))
            gap = refmath.qabs(diff) / max(1.0, refmath.qabs(op.expected))
        if not gap <= self.tolerance[spec["what"]]:
            return f"{op.label}: gap {gap:.3e} above {self.tolerance[spec['what']]:.0e}"
        return None

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def run_child(argv: list[str], root: Path, timeout: float) -> tuple[int, bytes, str, int]:
    """Run one child to completion: exit code, stdout, stderr text, peak RSS in KiB.

    The child is reaped with ``os.wait4`` so its own resource usage is read;
    one past its time limit is killed and reported with exit code -9.
    """
    err_path = root / ".perfbench" / f"stderr-{os.getpid()}.txt"
    err_path.parent.mkdir(exist_ok=True)
    with open(err_path, "w+b") as err, selectors.DefaultSelector() as sel:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=root,
                                env={**os.environ, "PYTHONPATH": str(root / "src")})
        deadline = perf_counter() + timeout
        chunks = []
        fd = proc.stdout.fileno()
        sel.register(fd, selectors.EVENT_READ)
        try:
            while True:
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                if sel.select(remaining):
                    data = os.read(fd, 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    err_path.unlink()
    return proc.returncode, b"".join(chunks), err_text, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (ExactVerify, ContourQuad, PointwiseOracle, CliCold)}
