"""Shows that every check of the benchmark rejects a wrong output.

    python3 bench/perturb.py

For each workload one real output goes through the check, which must pass
it, and then copies of it perturbed a little beyond the check's tolerance,
or produced by a less accurate method, which the check must reject. Prints
one line per case; exits 1 if any check passes a wrong output or rejects a
right one.
"""
from __future__ import annotations

import dataclasses
import sys

import numpy as np

import workloads as wl  # puts the checkout's src/ on the path first

cw = wl.cw


def _solid_cases():
    work = wl.build("solid-integrate", 1)
    ka = max(work.inputs)
    res = work.operation(ka)
    b = list(res.b)
    b[1] *= 1.0 + 1e-8
    exp2a = cw.solve_scattering(cw.ScatteringConfig(
        layers=(work.layer,), ka=ka, scheme="exp2a", steps=500))
    check = lambda out: work.check(ka, out)  # noqa: E731
    return [
        ("solid-integrate", "lp4 output", check, res, True),
        ("solid-integrate", "B_1 scaled by 1+1e-8", check,
         dataclasses.replace(res, b=tuple(b)), False),
        ("solid-integrate", "sigma_tot scaled by 1+1e-8", check,
         dataclasses.replace(res, sigma_tot=res.sigma_tot * (1.0 + 1e-8)),
         False),
        ("solid-integrate", "exp2a, 500 steps", check, exp2a, False),
    ]


def _graded_cases():
    work = wl.build("graded-march", 1)
    inp = work.inputs[0]
    z = work.operation(inp)
    skew = z.copy()
    skew[0, 1] += 1e-9 * np.linalg.norm(z)
    zs = [work._march(inp, work.profile, s) for s in (50, 100, 200)]
    second = wl.build("graded-march", 1)
    second.scheme = "exp2a"
    zs2 = [second._march(inp, second.profile, s) for s in (50, 100, 200)]
    zu = work._march(inp, work.uniform, wl.GRADED_STEPS)
    conv = lambda out: work.convergence_check(inp, out)  # noqa: E731
    unif = lambda out: work.uniform_check(inp, out)  # noqa: E731
    return [
        ("graded-march", "mg4 z(1)", lambda out: work.check(inp, out), z,
         True),
        ("graded-march", "z[0,1] moved by 1e-9 |z|",
         lambda out: work.check(inp, out), skew, False),
        ("graded-march", "mg4 at 50/100/200 steps", conv, zs, True),
        ("graded-march", "exp2a at 50/100/200 steps", conv, zs2, False),
        ("graded-march", "uniform-limit z(1)", unif, zu, True),
        ("graded-march", "uniform-limit z(1) scaled by 1+1e-7", unif,
         zu * (1.0 + 1e-7), False),
    ]


def _replace_value(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = lines[body[row]].split(",")
    cells[col] = wl._g17(float(cells[col]) * factor)
    lines[body[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _sweep_cases():
    work = wl.build("sweep-cli", 1)
    try:
        inp = work.inputs[0]
        text = work.operation(inp)
        solid = work._sweep(work.solid, *inp)
        work._split_rows(inp)  # the fold reference, before close() drops files
        check = lambda out: work.check(inp, out)  # noqa: E731
        solid_check = lambda out: work.solid_check(out, *inp)  # noqa: E731
        short = "\n".join(text.splitlines()[:-1]) + "\n"
        return [
            ("sweep-cli", "stack CSV", check, text, True),
            ("sweep-cli", "one sigma_tot scaled by 1+1e-8", check,
             _replace_value(text, 4, 1, 1.0 + 1e-8), False),
            ("sweep-cli", "one |f(pi)| scaled by 1+1e-8", check,
             _replace_value(text, 7, 2, 1.0 + 1e-8), False),
            ("sweep-cli", "last row missing", check, short, False),
            ("sweep-cli", "one ka moved by 1e-12", check,
             _replace_value(text, 2, 0, 1.0 + 1e-12), False),
            ("sweep-cli", "homogeneous-profile CSV", solid_check, solid,
             True),
            ("sweep-cli", "homogeneous sigma_tot scaled by 1+1e-8",
             solid_check, _replace_value(solid, 0, 1, 1.0 + 1e-8), False),
        ]
    finally:
        work.close()


def main() -> int:
    wrong = 0
    for workload, label, check, output, should_pass in (
            _solid_cases() + _graded_cases() + _sweep_cases()):
        problems = check(output)
        ok = (not problems) == should_pass
        wrong += not ok
        verdict = "passed" if not problems else "rejected"
        print(f"{'ok ' if ok else 'BAD'} {workload:16s} {label:40s} {verdict}"
              + (f"  ({problems[0]})" if problems else ""))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
