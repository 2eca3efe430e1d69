"""Command line front end: experiment orchestration and CSV emission.

Four commands, all driven by a layer-profile JSON plus flags:

    impedance-trace   emit det of z's in-plane block at each march group end
    convergence       error vs step count for every marching scheme
    scatter           cross-section at kz = 0 (single ka or a sweep)
    field             exterior pressure map at kz = 0 on a cartesian grid

Flags override values in the profile's optional "run" object.  Output is
deterministic: fixed column order, fixed 17-significant-digit formatting,
and a comment header recording the fully resolved configuration, so
identical configs give byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .elastodyn import (RadialProfile, WaveContext, _is_number, _ti_moduli,
                        profile_from_json)
from .errors import (CylwaveError, DomainError, EntryFaults, SchemaError,
                     UsageError)
from .impedance import _march, integrate_impedance
from .matricant import SCHEME_NAMES, get_scheme
from .scatter import (ScatteringConfig, pressure_field, solve_scattering,
                      solve_sweep)
from .tilayers import LayerTI, ti_conditional_impedance

_COMMANDS = ("impedance-trace", "convergence", "scatter", "field")
_LADDER = (250, 500, 1000, 2000, 4000)
_FIELD_EXTENT = 3.0
_FIELD_POINTS = 121


@dataclass(frozen=True)
class RunConfig:
    command: str
    profile_path: str
    profile: RadialProfile
    layers: tuple | None
    ka: float | None
    sweep: tuple | None
    n: int
    kz: float
    scheme: str
    steps: int
    r0: float
    r1: float
    method: str
    threads: int
    out: str | None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cylwave", add_help=True)
    p.add_argument("command_pos", nargs="?", metavar="COMMAND",
                   help=f"one of {', '.join(_COMMANDS)}")
    p.add_argument("--command", dest="command_flag")
    p.add_argument("--profile")
    p.add_argument("--ka", type=float)
    p.add_argument("--sweep", nargs=3, metavar=("MIN", "MAX", "N"))
    p.add_argument("--n", type=int)
    p.add_argument("--kz", type=float)
    p.add_argument("--scheme")
    p.add_argument("--steps", type=int)
    p.add_argument("--r0", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--out")
    p.add_argument("--threads", type=int)
    return p


def _pick(flag, run_defaults: dict, key: str, fallback):
    if flag is not None:
        return flag
    if key in run_defaults:
        return run_defaults[key]
    return fallback


def _numeric(value, text: bool = False):
    """value if it is a JSON number (a boolean is not one, see
    elastodyn._is_number) or, with text, a string from the command line or
    the environment; a TypeError otherwise."""
    if not (_is_number(value) or text and isinstance(value, str)):
        raise TypeError(f"not a number: {value!r}")
    return value


def _whole(value, flag: str, text: bool = False) -> int:
    """An integer setting; a float must be finite and integral."""
    if isinstance(value, float) and not value.is_integer():
        raise UsageError(f"{flag} must be an integer")
    try:
        return int(_numeric(value, text))
    except (TypeError, ValueError):
        raise UsageError(f"{flag} must be an integer") from None


def _real(value, flag: str) -> float:
    """A real setting; it and its square must be finite numbers."""
    try:
        value = float(_numeric(value))
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value * value):
        raise UsageError(f"{flag} must be a finite number, its square too")
    return value


def parse_config(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)

    if ns.command_pos and ns.command_flag and ns.command_pos != ns.command_flag:
        raise UsageError("positional command and --command disagree")
    if ns.profile is None:
        raise UsageError("--profile is required")

    try:
        with open(ns.profile) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"/: invalid JSON ({exc})") from None
    profile = profile_from_json(doc)
    run_defaults = doc.get("run", {})
    if not isinstance(run_defaults, dict):
        raise SchemaError("/run: expected object")

    command = ns.command_pos or ns.command_flag or run_defaults.get("command")
    if command not in _COMMANDS:
        raise UsageError(
            f"command must be one of {', '.join(_COMMANDS)}, got {command!r}")

    ka = _pick(ns.ka, run_defaults, "ka", None)
    sweep_raw = _pick(ns.sweep, run_defaults, "sweep", None)
    if ka is not None and sweep_raw is not None:
        raise UsageError("--ka and --sweep are mutually exclusive")
    sweep = None
    if sweep_raw is not None:
        if command != "scatter":
            raise UsageError("--sweep only applies to the scatter command")
        text = ns.sweep is not None  # the flag's values are text
        try:
            lo, hi, cnt = sweep_raw
            lo, hi = float(_numeric(lo, text)), float(_numeric(hi, text))
            cnt = _whole(cnt, "--sweep N", text)
        except (TypeError, ValueError, OverflowError):
            raise UsageError("--sweep expects MIN MAX N") from None
        if not (0 < lo <= hi and hi * hi < math.inf) or cnt < 1:
            raise UsageError("--sweep bounds must be positive and finite, "
                             "with finite squares, and N >= 1")
        sweep = (lo, hi, cnt)
    if ka is None and sweep is None:
        raise UsageError("--ka (or --sweep for scatter) is required")
    if ka is not None:
        ka = _real(ka, "--ka")
        if not ka > 0:
            raise UsageError("--ka must be positive")

    scheme = _pick(ns.scheme, run_defaults, "scheme", "lp4")
    try:
        scheme = get_scheme(scheme).tag
    except ValueError as exc:
        raise UsageError(f"--scheme: {exc}") from None

    steps = _whole(_pick(ns.steps, run_defaults, "steps", 500), "--steps")
    if steps < 1:
        raise UsageError("--steps must be >= 1")
    n = _whole(_pick(ns.n, run_defaults, "n", 0), "--n")
    if n < 0:
        raise UsageError("--n must be >= 0")
    kz = _real(_pick(ns.kz, run_defaults, "kz", 0.0), "--kz")

    lo, hi = profile.support
    r0 = _real(_pick(ns.r0, run_defaults, "r0", lo), "--r0")
    r1 = _real(_pick(ns.r1, run_defaults, "r1", hi), "--r1")
    if not (lo - 1e-12 <= r0 < r1 <= hi + 1e-12 < math.inf):
        raise UsageError(
            f"need support min <= r0 < r1 <= support max, "
            f"got r0={r0}, r1={r1}, support [{lo}, {hi}]")
    if command in ("scatter", "field"):
        # the header records these, so a value the solve ignores is refused
        for flag, value, default in (("--n", n, 0), ("--kz", kz, 0.0),
                                     ("--r0", r0, lo), ("--r1", r1, hi)):
            if value != default:
                raise UsageError(
                    f"{flag} only applies to impedance-trace and convergence "
                    "(scatter and field solve every order at kz = 0 over the "
                    "whole profile)")

    method = run_defaults.get("method", "integrate")
    if method not in ("integrate", "recursion"):
        raise SchemaError("/run/method: expected 'integrate' or 'recursion'")

    from_env = ns.threads is None and "threads" not in run_defaults
    threads = _whole(_pick(ns.threads, run_defaults, "threads",
                           os.environ.get("CYLWAVE_THREADS", 1)), "--threads",
                     from_env)
    if threads < 1:
        raise UsageError("--threads must be >= 1")

    try:  # the LayerTI view, None unless every layer is TI
        layers = tuple(LayerTI(r_in, r_out, mp.rho, *_ti_moduli(mp))
                       for (r_in, r_out, mp) in profile.layers)
    except DomainError:
        layers = None

    return RunConfig(command=command, profile_path=ns.profile, profile=profile,
                     layers=layers, ka=ka, sweep=sweep, n=n,
                     kz=kz, scheme=scheme, steps=steps, r0=r0, r1=r1,
                     method=method, threads=threads, out=ns.out)


def _g17(x) -> str:
    return format(float(x), ".17g")


def _header(cfg: RunConfig, columns: str) -> list:
    lines = [f"# cylwave {cfg.command}",
             f"# profile={cfg.profile_path}"]
    if cfg.sweep is not None:
        lines.append(
            f"# sweep={_g17(cfg.sweep[0])}:{_g17(cfg.sweep[1])}:{cfg.sweep[2]}")
    else:
        lines.append(f"# ka={_g17(cfg.ka)}")
    lines.append(f"# n={cfg.n} kz={_g17(cfg.kz)} scheme={cfg.scheme} "
                 f"steps={cfg.steps} r0={_g17(cfg.r0)} r1={_g17(cfg.r1)} "
                 f"method={cfg.method} threads={cfg.threads}")
    lines.append(f"# columns: {columns}")
    return lines


def _det2(z: np.ndarray) -> complex:
    return complex(z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0])


def _inner_z(cfg: RunConfig, m: int, n: int, omega: float) -> np.ndarray:
    ctx3 = WaveContext(omega=omega, n=n, kz=cfg.kz, m=3)
    z3 = ti_conditional_impedance(1, cfg.layers[0], ctx3, cfg.r0).z
    return z3[:m, :m]


def _run_impedance_trace(cfg: RunConfig) -> list:
    m = 2 if cfg.kz == 0.0 else 3
    omega = cfg.ka / cfg.r1
    ctx = WaveContext(omega=omega, n=cfg.n, kz=cfg.kz, m=m)
    norm = cfg.n ** 3 + 1
    z0 = _inner_z(cfg, m, cfg.n, omega)
    faults = EntryFaults(1)
    rows = [(cfg.r0, _det2(z0) / norm)]
    for r, z, _ in _march(cfg.profile, [ctx], [z0], cfg.r0, cfg.r1,
                          cfg.steps, cfg.scheme, faults):
        rows.append((r, _det2(z[0]) / norm))
    faults.check(0)
    return [f"{_g17(r)},{_g17(d.real)},{_g17(d.imag)}" for (r, d) in rows]


def _run_convergence(cfg: RunConfig) -> list:
    if len(cfg.layers) != 1:
        raise DomainError("convergence needs a single uniform layer "
                          "(the reference solution is closed-form)")
    m = 2 if cfg.kz == 0.0 else 3
    omega = cfg.ka / cfg.r1
    ctx3 = WaveContext(omega=omega, n=cfg.n, kz=cfg.kz, m=3)
    exact = ti_conditional_impedance(1, cfg.layers[0], ctx3, cfg.r1).z
    det_exact = _det2(exact)
    ctx = WaveContext(omega=omega, n=cfg.n, kz=cfg.kz, m=m)
    z_in = _inner_z(cfg, m, cfg.n, omega)
    lines = []
    for tag in SCHEME_NAMES:
        for steps in _LADDER:
            z = integrate_impedance(cfg.profile, ctx, z_in, cfg.r0, cfg.r1,
                                    steps, tag)
            err = abs(_det2(z.z) - det_exact)
            lines.append(f"{tag},{steps},{_g17(err)}")
    return lines


def _run_scatter(cfg: RunConfig) -> list:
    if cfg.sweep is None:
        kas = [cfg.ka]
    else:
        kas = list(np.linspace(cfg.sweep[0], cfg.sweep[1], cfg.sweep[2]))

    results = solve_sweep(ScatteringConfig(
        layers=cfg.layers, ka=kas[0], scheme=cfg.scheme, steps=cfg.steps,
        method=cfg.method), kas)
    return [f"{_g17(res.ka)},{_g17(res.sigma_tot)},"
            f"{_g17(abs(res.f_samples[-1][1]))}" for res in results]


def _run_field(cfg: RunConfig) -> list:
    res = solve_scattering(ScatteringConfig(
        layers=cfg.layers, ka=cfg.ka, scheme=cfg.scheme, steps=cfg.steps,
        method=cfg.method))
    axis = np.linspace(-_FIELD_EXTENT, _FIELD_EXTENT, _FIELD_POINTS)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    xs = xs.ravel()
    ys = ys.ravel()
    r = np.hypot(xs, ys)
    theta = np.arctan2(ys, xs)
    outside = r >= 1.0
    # a point inside the scatterer reads nan in every pressure column
    p = np.full(r.shape, complex(math.nan, math.nan))
    p[outside] = pressure_field(np.column_stack([r[outside], theta[outside]]),
                                res.b, cfg.ka)
    return [f"{_g17(x)},{_g17(y)},{_g17(v.real)},{_g17(v.imag)},{_g17(abs(v))}"
            for x, y, v in zip(xs, ys, p)]


_COLUMNS = {
    "impedance-trace": "r,re_det2,im_det2",
    "convergence": "scheme,steps,abs_err_det2",
    "scatter": "ka,sigma_tot,abs_f_pi",
    "field": "x,y,re_p,im_p,abs_p",
}

_RUNNERS = {
    "impedance-trace": _run_impedance_trace,
    "convergence": _run_convergence,
    "scatter": _run_scatter,
    "field": _run_field,
}


def run(cfg: RunConfig) -> int:
    # every command needs the closed-form inner or layer impedances
    if cfg.layers is None:
        raise DomainError(
            f"the {cfg.command} command needs a piecewise profile of "
            "isotropic or transversely isotropic layers")
    lines = _header(cfg, _COLUMNS[cfg.command]) + _RUNNERS[cfg.command](cfg)
    text = "\n".join(lines) + "\n"
    if cfg.out is None or cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        return run(cfg)
    except (UsageError, SchemaError) as exc:
        print(f"cylwave: {exc}", file=sys.stderr)
        return 1
    except CylwaveError as exc:
        print(f"cylwave: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cylwave: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
