"""Command line front end: experiment orchestration and CSV emission.

Four commands, all driven by a layer-profile JSON plus flags:

    impedance-trace   emit det of z's in-plane block after each march step
    convergence       error vs step count for every marching scheme
    scatter           cross-section (single ka or a sweep)
    field             exterior pressure map on a cartesian grid

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

from .elastodyn import (RadialProfile, WaveContext, profile_from_json,
                        ti_stiffness)
from .errors import (CylwaveError, DomainError, EntryFaults, SchemaError,
                     UsageError)
from .impedance import _march, integrate_impedance
from .matricant import SCHEME_NAMES, get_scheme
from .scatter import (ScatteringConfig, pressure_field, solve_scattering)
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


def _ti_layers(profile: RadialProfile) -> tuple | None:
    """LayerTI view of a piecewise profile, or None if any layer is not TI."""
    if profile.layers is None:
        return None
    out = []
    for (r_in, r_out, mp) in profile.layers:
        c = mp.stiffness
        cand = (c[1, 1], c[1, 2], c[1, 3], c[3, 3], c[4, 4])
        try:
            ref = ti_stiffness(*cand)
        except ValueError:
            return None
        if not np.allclose(c.c, ref.c, rtol=1e-9, atol=1e-12):
            return None
        out.append(LayerTI(r_in, r_out, mp.rho, *cand))
    return tuple(out)


def _pick(flag, run_defaults: dict, key: str, fallback):
    if flag is not None:
        return flag
    if key in run_defaults:
        return run_defaults[key]
    return fallback


def _whole(value, flag: str) -> int:
    """An integer setting; a float must be finite and integral."""
    if isinstance(value, float) and not value.is_integer():
        raise UsageError(f"{flag} must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} must be an integer") from None


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
        try:
            lo, hi, cnt = float(sweep_raw[0]), float(sweep_raw[1]), int(sweep_raw[2])
        except (TypeError, ValueError, OverflowError):
            raise UsageError("--sweep expects MIN MAX N") from None
        if not (0 < lo <= hi < math.inf) or cnt < 1:
            raise UsageError(
                "--sweep bounds must be positive and finite, N >= 1")
        sweep = (lo, hi, cnt)
    if ka is None and sweep is None:
        raise UsageError("--ka (or --sweep for scatter) is required")
    if ka is not None and not 0 < ka < math.inf:
        raise UsageError("--ka must be positive and finite")

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
    kz = float(_pick(ns.kz, run_defaults, "kz", 0.0))
    if not math.isfinite(kz):
        raise UsageError("--kz must be finite")

    lo, hi = profile.support
    r0 = float(_pick(ns.r0, run_defaults, "r0", lo))
    r1 = float(_pick(ns.r1, run_defaults, "r1", hi))
    if not (lo - 1e-12 <= r0 < r1 <= hi + 1e-12 < math.inf):
        raise UsageError(
            f"need support min <= r0 < r1 <= support max, "
            f"got r0={r0}, r1={r1}, support [{lo}, {hi}]")

    method = run_defaults.get("method", "integrate")
    if method not in ("integrate", "recursion"):
        raise SchemaError("/run/method: expected 'integrate' or 'recursion'")

    threads = _pick(ns.threads, run_defaults, "threads",
                    os.environ.get("CYLWAVE_THREADS", 1))
    try:
        threads = int(threads)
    except (TypeError, ValueError, OverflowError):
        raise UsageError("--threads must be an integer") from None
    if threads < 1:
        raise UsageError("--threads must be >= 1")

    return RunConfig(command=command, profile_path=ns.profile, profile=profile,
                     layers=_ti_layers(profile), ka=ka, sweep=sweep, n=n,
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


def _require_ti(cfg: RunConfig) -> tuple:
    if cfg.layers is None:
        raise DomainError(
            f"the {cfg.command} command needs a piecewise profile of "
            "isotropic or transversely isotropic layers")
    return cfg.layers


def _det2(z: np.ndarray) -> complex:
    return complex(z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0])


def _inner_z(cfg: RunConfig, m: int, n: int, omega: float) -> np.ndarray:
    lay0 = _require_ti(cfg)[0]
    ctx3 = WaveContext(omega=omega, n=n, kz=cfg.kz, m=3)
    z3 = ti_conditional_impedance(1, lay0, ctx3, cfg.r0).z
    return z3[:m, :m]


def _run_impedance_trace(cfg: RunConfig) -> list:
    m = 2 if cfg.kz == 0.0 else 3
    omega = cfg.ka / cfg.r1
    ctx = WaveContext(omega=omega, n=cfg.n, kz=cfg.kz, m=m)
    norm = cfg.n ** 3 + 1
    z0 = _inner_z(cfg, m, cfg.n, omega)
    faults = EntryFaults(1)
    rows = [(cfg.r0, _det2(z0) / norm)]
    for r, _, z, _ in _march(cfg.profile, [ctx], [z0], cfg.r0, cfg.r1,
                             cfg.steps, cfg.scheme, faults):
        rows.append((r, _det2(z[0]) / norm))
    faults.check(0)
    return [f"{_g17(r)},{_g17(d.real)},{_g17(d.imag)}" for (r, d) in rows]


def _run_convergence(cfg: RunConfig) -> list:
    layers = _require_ti(cfg)
    if len(layers) != 1:
        raise DomainError("convergence needs a single uniform layer "
                          "(the reference solution is closed-form)")
    m = 2 if cfg.kz == 0.0 else 3
    omega = cfg.ka / cfg.r1
    ctx3 = WaveContext(omega=omega, n=cfg.n, kz=cfg.kz, m=3)
    exact = ti_conditional_impedance(1, layers[0], ctx3, cfg.r1).z
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
    layers = _require_ti(cfg)
    if cfg.sweep is None:
        kas = [cfg.ka]
    else:
        kas = list(np.linspace(cfg.sweep[0], cfg.sweep[1], cfg.sweep[2]))

    lines = []
    for ka in kas:
        res = solve_scattering(ScatteringConfig(
            layers=layers, ka=ka, scheme=cfg.scheme, steps=cfg.steps,
            method=cfg.method))
        f_pi = res.f_samples[-1][1]
        lines.append(f"{_g17(ka)},{_g17(res.sigma_tot)},{_g17(abs(f_pi))}")
    return lines


def _run_field(cfg: RunConfig) -> list:
    layers = _require_ti(cfg)
    res = solve_scattering(ScatteringConfig(
        layers=layers, ka=cfg.ka, scheme=cfg.scheme, steps=cfg.steps,
        method=cfg.method))
    axis = np.linspace(-_FIELD_EXTENT, _FIELD_EXTENT, _FIELD_POINTS)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    xs = xs.ravel()
    ys = ys.ravel()
    r = np.hypot(xs, ys)
    theta = np.arctan2(ys, xs)
    outside = r >= 1.0
    p = np.full(r.shape, np.nan + 0j, dtype=complex)
    if np.any(outside):
        pts = np.column_stack([r[outside], theta[outside]])
        p[outside] = pressure_field(pts, res.b, cfg.ka)
    lines = []
    for i in range(xs.size):
        if outside[i]:
            lines.append(f"{_g17(xs[i])},{_g17(ys[i])},{_g17(p[i].real)},"
                         f"{_g17(p[i].imag)},{_g17(abs(p[i]))}")
        else:
            lines.append(f"{_g17(xs[i])},{_g17(ys[i])},nan,nan,nan")
    return lines


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
