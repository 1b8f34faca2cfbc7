"""Differential of the contour integrals and of ``slicepoly apply`` between two source trees.

    python tools/integral_diff.py PARENT_SRC CHANGE_SRC [--count N] [--seed S]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a ``slicepoly``
package.  One seeded corpus of cauchy, fueter and residual integrals and apply
calls runs against each tree in its own subprocess.  The integrals cover int and
float coefficients scaled by 2^e with e in [-1000, 1015] (one e for both sides of
a residual), N in {16, 64, 512} and a radius in {0.5, 1, 2}.  The apply calls run
``cli.main`` in the worker's process: each of the seven operators on an int or
Fraction function spec of order 1-3, or on its raw expansion with ``--order`` for
tau and c_n.  The tree under test builds the expansion and may refuse it.  About
one spec in ten has degree 62-66, the others at most 4.  An apply answer is its
exit code and output.  The script prints how many answers are identical (bit for
bit, or refused with the same message), changed, newly answered, newly refused,
and refused in both trees with a different message, with up to three witnesses of
each kind that is not identical.  It exits 1 when an answer changed or was newly
refused, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

#: runs in each tree: reads the corpus on stdin, writes one result per case on stdout
WORKER = r"""
import contextlib, hashlib, io, json, sys
from slicepoly import cli, quad
from slicepoly.quat import Quaternion, UnitImaginary
from slicepoly.slicefn import RightSlicePolyFn, SlicePolyFn


def apply(case):
    spec = case["spec"]
    if case["raw"]:
        try:  # a spec above the degree cap has no expansion
            spec = SlicePolyFn.from_json(spec).expand().to_json()
        except Exception as exc:
            return ["refused", f"expand: {type(exc).__name__}: {exc}"]
    argv = ["apply", case["op"], json.dumps(spec)]
    if case["raw"] and case["op"] in ("tau", "c_n"):
        argv += ["--order", str(case["spec"]["order"])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = stdout.getvalue() + stderr.getvalue()
    if len(text) > 300:
        text = "sha256 " + hashlib.sha256(text.encode()).hexdigest()
    return ["ok" if code == 0 else "refused", f"exit {code}: {text}"]


out = []
for case in json.load(sys.stdin):
    if case["kind"] == "apply":
        out.append(apply(case))
        continue
    try:
        f = SlicePolyFn.from_json(case["spec"])
        path = quad.CirclePath(UnitImaginary.from_vector(*case["unit"]), case["rho"], case["n"])
        if case["kind"] == "residual":
            value = quad.cauchy_theorem_residual(f, RightSlicePolyFn.from_json(case["right"]), path)
        else:
            integral = quad.poly_cauchy_eval if case["kind"] == "cauchy" else quad.fueter_integral
            value = integral(f, Quaternion.from_json(case["point"]).to_float(), path)
        out.append(["ok", [repr(c) for c in (value.w, value.x, value.y, value.z)]])
    except Exception as exc:
        out.append(["refused", f"{type(exc).__name__}: {exc}"])
json.dump(out, sys.stdout)
"""


def _coeff(rng: random.Random, e: int) -> list:
    if rng.random() < 0.5:
        return [rng.randint(-3, 3) * 2**e if e >= 0 else rng.randint(-3, 3) * 2.0**e
                for _ in range(4)]
    return [rng.uniform(-1.0, 1.0) * 2.0**e for _ in range(4)]


def _spec(rng: random.Random, order: int, e: int) -> dict:
    return {"order": order,
            "components": [[_coeff(rng, e) for _ in range(rng.randint(0, 4))] for _ in range(order)]}


def _exact_coeff(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return [f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}" for _ in range(4)]


def _apply_case(rng: random.Random) -> dict:
    """One of the seven operators on an exact spec of order 1-3, or on its raw expansion."""
    order = rng.randint(1, 3)
    comps = [[_exact_coeff(rng) for _ in range(rng.randint(0, 3))] for _ in range(order)]
    if rng.random() < 0.1:  # a sparse term conj(q)^k q^m of degree 62-66 on top
        k = rng.randrange(order)
        m = rng.randint(62, 66) - k
        comps[k] += [0] * (m - len(comps[k])) + [rng.choice((1, [0, "1/2", 0, -1]))]
    return {"kind": "apply", "op": rng.choice(("G", "V", "D", "Dbar", "laplacian", "tau", "c_n")),
            "spec": {"order": order, "components": comps}, "raw": rng.random() < 0.5}


def corpus(count: int, seed: int) -> list:
    """``count`` seeded integral and apply cases, as the worker reads them."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        kind = ("cauchy", "fueter", "residual", "apply")[i % 4]
        if kind == "apply":
            cases.append(_apply_case(rng))
            continue
        order, e = rng.randint(1, 3), rng.randint(-1000, 1015)
        rho = rng.choice((0.5, 1.0, 2.0))
        case = {"kind": kind, "spec": _spec(rng, order, e), "rho": rho,
                "n": rng.choice((16, 64, 512)),
                "unit": rng.choice([(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1)
                                    for z in (0, 1, 2) if (x, y, z) != (0, 0, 0)])}
        if kind == "residual":
            case["right"] = _spec(rng, order, e)
        else:
            case["point"] = [rng.uniform(-0.3, 0.3) * rho for _ in range(4)]
        cases.append(case)
    return cases


def run(src: str, cases: list) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--count", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    cases = corpus(args.count, args.seed)
    before, after = run(args.parent_src, cases), run(args.change_src, cases)
    groups = {"identical": [], "changed": [], "newly answered": [], "newly refused": [],
              "reworded": []}
    for case, old, new in zip(cases, before, after):
        if old == new:
            key = "identical"
        elif old[0] == new[0]:
            key = "changed" if new[0] == "ok" else "reworded"
        else:
            key = "newly answered" if new[0] == "ok" else "newly refused"
        groups[key].append((case, old, new))
    kinds = sorted({c["kind"] for c in cases})
    print(f"{len(cases)} cases (seed {args.seed}): "
          + ", ".join(f"{sum(c['kind'] == k for c in cases)} {k}" for k in kinds))
    for key, rows in groups.items():
        by_kind = ", ".join(f"{k} {sum(c['kind'] == k for c, _, _ in rows)}" for k in kinds)
        refused = sum(new[0] == "refused" for _, _, new in rows)
        print(f"{key:15s} {len(rows):6d}  ({by_kind}; {refused} of them refused with the change)")
    for key, rows in groups.items():
        for case, old, new in rows[:3] if key != "identical" else ():
            print(f"\n{key}: {json.dumps(case)}\n  parent: {old}\n  change: {new}")
    return 1 if groups["changed"] or groups["newly refused"] else 0


if __name__ == "__main__":
    sys.exit(main())
