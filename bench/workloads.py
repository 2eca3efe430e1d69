"""The benchmark's three workloads; one process runs one workload.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workloads.py --workload NAME --seed N --setup-only

A closed loop with one client: operations run back to back, in whole rounds
of the same seeded inputs, until a round ends after --seconds. Every output
is checked after the timed window, against the solid-cylinder solution of
solid_cylinder.py or a property the method must have; further checks run on
a fixed subset once the window is over. The last line of standard output is
one JSON object with the raw figures, which run.py turns into metrics.
--setup-only stops where the first timed operation would start and prints
the monotonic time of that moment.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cylwave as cw  # noqa: E402
import cylwave.cli  # noqa: E402,F401  (the sweep workload drives it)
import solid_cylinder as sc  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Materials in normalized units (moduli over rho_w c_w^2, density over rho_w).
# Aluminium is the README quick-start material, fibre composite a carbon-
# epoxy with fibres along z, steel E = 200 GPa and G = 80 GPa.
AL_RHO, AL_LAM, AL_MU = sc.ALUMINIUM
FIBRE = dict(rho=1.6, c11=6.6, c12=3.2, c13=2.8, c33=64.8, c44=3.2)
STEEL_RHO, STEEL_LAM, STEEL_MU = (7.85, 80.0e9 / sc.MODULUS_SCALE,
                                  80.0e9 / sc.MODULUS_SCALE)


class SolidIntegrate:
    """solve_scattering on the integrate route, lp4 with 500 steps, for the
    aluminium cylinder at ka in [1, 5].

    A round is four ka: one in each of [1, 2) and [2, 3), and their mirrors
    6 - ka. The cost of a solve follows its number of orders, about 7 + 2 ka,
    so the middle pair's summed cost, the round's median, stays put from
    seed to seed.
    """

    def __init__(self, rng):
        low = [1.0 + i + rng.random() for i in range(2)]
        self.inputs = low + [6.0 - ka for ka in low]
        rng.shuffle(self.inputs)
        self.layer = cw.LayerTI.isotropic(0.5, 1.0, AL_RHO, AL_LAM, AL_MU)
        self._ref = {}

    def operation(self, ka):
        return cw.solve_scattering(cw.ScatteringConfig(
            layers=(self.layer,), ka=ka, scheme="lp4", steps=500,
            method="integrate"))

    def warm_up(self):
        cw.solve_scattering(cw.ScatteringConfig(
            layers=(self.layer,), ka=1.0, steps=20, n_max=2))

    def reference(self, ka):
        if ka not in self._ref:
            b = sc.b_series(ka, AL_RHO, AL_LAM, AL_MU)
            self._ref[ka] = (b, sc.cross_section(b, ka))
        return self._ref[ka]

    def check(self, ka, res) -> list:
        b_ref, sigma_ref = self.reference(ka)
        bad = []
        for n, bn in enumerate(res.b):
            if not abs(bn - b_ref[n]) <= 1e-10:
                bad.append(f"ka={ka}: B_{n} off by {abs(bn - b_ref[n]):.2e}")
            if not abs(abs(1.0 + 2.0 * bn) - 1.0) <= 1e-9:
                bad.append(f"ka={ka}: |1+2B_{n}| = {abs(1.0 + 2.0 * bn)!r}")
        rel = abs(res.sigma_tot - sigma_ref) / sigma_ref
        if not rel <= 1e-9:
            bad.append(f"ka={ka}: sigma_tot off by {rel:.2e} relative")
        return bad

    def final_checks(self) -> list:
        return sc.self_check()

    def close(self):
        pass


# graded coating: r in [RC, 1] over a solid fibre-composite core r < RC
RC = 0.6
GRADED_STEPS = 200


def _bond(rot: np.ndarray) -> np.ndarray:
    """6x6 Bond matrix taking Voigt stiffness C to K C K^T under rot."""
    k = np.empty((6, 6))
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            k[i, j] = rot[i, j] ** 2
            k[i, j + 3] = 2.0 * rot[i, j1] * rot[i, j2]
            k[i + 3, j] = rot[i1, j] * rot[i2, j]
            k[i + 3, j + 3] = (rot[i1, j1] * rot[i2, j2]
                               + rot[i1, j2] * rot[i2, j1])
    return k


def graded_law(gradient: float):
    """Smooth material law of the coating, equal to the core at r = RC.

    The stiffness blends convexly from the core's TI table to 1.3 times
    that table rotated off every axis (all 21 moduli nonzero), so it stays
    positive definite; density rises by half. gradient = 0 gives the
    uniform core material everywhere.
    """
    c0 = cw.ti_stiffness(FIBRE["c11"], FIBRE["c12"], FIBRE["c13"],
                         FIBRE["c33"], FIBRE["c44"]).c
    cx, sx, cy, sy = math.cos(0.6), math.sin(0.6), math.cos(0.4), math.sin(0.4)
    rot = (np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
           @ np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]]))
    bond = _bond(rot)
    dc = 1.3 * (bond @ c0 @ bond.T) - c0
    rho0 = FIBRE["rho"]

    def law(r: float):
        s = gradient * math.sin(0.5 * math.pi * (r - RC) / (1.0 - RC)) ** 2
        return cw.MaterialPoint(rho0 * (1.0 + 0.5 * s),
                                cw.StiffnessVoigt(c0 + s * dc))

    return law


class GradedMarch:
    """integrate_impedance, m = 3, kz != 0, mg4 with 200 steps, through a
    coating whose 21 moduli and density vary smoothly in r, from the core's
    closed-form impedance at r = RC to z(1).

    A round is twelve (omega, kz, n): n = 0..5 twice, omega in [1, 6] and kz
    in [0.5, 3] drawn uniformly. The cost does not depend on them.
    """

    scheme = "mg4"

    def __init__(self, rng, wrap=None):
        self.inputs = [(float(rng.uniform(1.0, 6.0)),
                        float(rng.uniform(0.5, 3.0)), i % 6)
                       for i in range(12)]
        self.core = cw.MaterialPoint(FIBRE["rho"], cw.ti_stiffness(
            FIBRE["c11"], FIBRE["c12"], FIBRE["c13"], FIBRE["c33"],
            FIBRE["c44"]))
        law = graded_law(1.0)
        if wrap is not None:
            law = wrap("bench.law", law)
        self.profile = cw.RadialProfile.smooth(law, RC, 1.0)
        self.uniform = cw.RadialProfile.smooth(graded_law(0.0), RC, 1.0)

    def _march(self, inp, profile, steps):
        omega, kz, n = inp
        ctx = cw.WaveContext(omega=omega, n=n, kz=kz, m=3)
        z_in = cw.ti_conditional_impedance(1, self.core, ctx, RC).z
        return cw.integrate_impedance(profile, ctx, z_in, RC, 1.0, steps,
                                      self.scheme).z

    def operation(self, inp):
        return self._march(inp, self.profile, GRADED_STEPS)

    def warm_up(self):
        self._march(self.inputs[0], self.profile, 10)

    def check(self, inp, z) -> list:
        res = np.linalg.norm(z - z.conj().T) / np.linalg.norm(z)
        if not res <= 1e-11:
            return [f"{inp}: Hermiticity residual {res:.2e}"]
        return []

    def final_checks(self) -> list:
        bad = []
        for inp in self.inputs[:3]:
            bad += self.convergence_check(inp, [
                self._march(inp, self.profile, steps)
                for steps in (50, 100, 200)])
        inp = self.inputs[0]
        return bad + self.uniform_check(
            inp, self._march(inp, self.uniform, GRADED_STEPS))

    @staticmethod
    def convergence_check(inp, zs) -> list:
        """Fourth order: differences at N, 2N, 4N steps shrink by 2^4."""
        d1 = np.linalg.norm(zs[0] - zs[1])
        d2 = np.linalg.norm(zs[1] - zs[2])
        if d2 < 1e-12 * np.linalg.norm(zs[2]):
            return []  # at round-off there is no order to read
        slope = math.log2(d1 / d2)
        if not abs(slope - 4.0) <= 0.3:
            return [f"{inp}: self-convergence slope {slope:.3f}"]
        return []

    def uniform_check(self, inp, z) -> list:
        """Without a gradient z(1) is the core's closed form at r = 1."""
        omega, kz, n = inp
        ctx = cw.WaveContext(omega=omega, n=n, kz=kz, m=3)
        exact = cw.ti_conditional_impedance(1, self.core, ctx, 1.0).z
        rel = np.linalg.norm(z - exact) / np.linalg.norm(exact)
        if not rel <= 1e-8:
            return [f"{inp}: uniform limit off by {rel:.2e}"]
        return []

    def close(self):
        pass


def _iso_json(rho, lam, mu):
    return {"type": "isotropic", "rho": rho,
            "params": {"lambda": lam, "mu": mu}}


SWEEP_POINTS = 10
SWEEP_SPACING = 1.15  # 10 points from lo in [0.5, 1.65) stay below ka = 12


def _g17(x) -> str:
    return format(float(x), ".17g")


class SweepCli:
    """cylwave.cli.main scatter --sweep over 10 ka in [0.5, 12], recursion
    route, --threads 1, on an aluminium / fibre-composite / steel stack.

    A round is four windows, each spanning the whole band from a start
    drawn in one quarter of [0.5, 1.65).
    """

    def __init__(self, rng):
        self.inputs = []
        for i in range(4):
            lo = 0.5 + SWEEP_SPACING * (i + rng.random()) / 4.0
            self.inputs.append((lo, lo + SWEEP_SPACING * (SWEEP_POINTS - 1)))
        rng.shuffle(self.inputs)
        os.makedirs(RESULTS, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="sweep-", dir=RESULTS)
        al = _iso_json(AL_RHO, AL_LAM, AL_MU)
        fibre = {"type": "ti", "rho": FIBRE["rho"],
                 "params": {k: v for k, v in FIBRE.items() if k != "rho"}}
        steel = _iso_json(STEEL_RHO, STEEL_LAM, STEEL_MU)
        stack = [(0.3, 0.6, al), (0.6, 0.8, fibre), (0.8, 1.0, steel)]
        split = []
        for r_in, r_out, mat in stack:
            mid = 0.5 * (r_in + r_out)
            split += [(r_in, mid, mat), (mid, r_out, mat)]
        self.stack = self._profile("stack", stack)
        self.split = self._profile("split", split)
        self.solid = self._profile("solid", [(0.5, 1.0, al)])
        self.out = os.path.join(self.tmp, "sweep.csv")
        self._split_cache = {}

    def _profile(self, name, layers):
        path = os.path.join(self.tmp, name + ".json")
        doc = {"layers": [{"r_in": a, "r_out": b, "material": m}
                          for a, b, m in layers],
               "run": {"method": "recursion"}}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _sweep(self, profile, lo, hi, points=SWEEP_POINTS) -> str:
        rc = cylwave.cli.main(["scatter", "--profile", profile, "--sweep",
                               repr(lo), repr(hi), str(points),
                               "--threads", "1", "--out", self.out])
        if rc != 0:
            raise RuntimeError(f"cylwave exited {rc}")
        with open(self.out) as fh:
            return fh.read()

    def operation(self, inp):
        return self._sweep(self.stack, *inp)

    def warm_up(self):
        self._sweep(self.stack, 1.0, 2.0, 2)

    def _rows(self, text, profile, lo, hi) -> tuple:
        """(rows as floats, problems) of a scatter --sweep CSV."""
        lines = text.splitlines()
        head = ["# cylwave scatter", f"# profile={profile}",
                f"# sweep={_g17(lo)}:{_g17(hi)}:{SWEEP_POINTS}"]
        bad = [f"header line {i}: {lines[i]!r}"
               for i in range(3) if i >= len(lines) or lines[i] != head[i]]
        if len(lines) < 5 or "method=recursion threads=1" not in lines[3] \
                or lines[4] != "# columns: ka,sigma_tot,abs_f_pi":
            bad.append("settings or columns header wrong")
        try:
            rows = np.array([[float(x) for x in line.split(",")]
                             for line in lines[5:]])
        except ValueError:
            return None, bad + ["unparsable row"]
        if rows.shape != (SWEEP_POINTS, 3):
            return None, bad + [f"rows of shape {rows.shape}"]
        if not np.array_equal(rows[:, 0], np.linspace(lo, hi, SWEEP_POINTS)):
            bad.append("ka column differs from the requested sweep")
        if not (np.all(np.isfinite(rows)) and np.all(rows[:, 1] > 0)):
            bad.append("non-finite or non-positive cross section")
        return rows, bad

    def check(self, inp, text) -> list:
        rows, bad = self._rows(text, self.stack, *inp)
        if rows is None:
            return bad
        # fold invariance: every layer split in two gives the same rows
        ref = self._split_rows(inp)
        rel = np.max(np.abs(rows[:, 1:] - ref[:, 1:]) / np.abs(ref[:, 1:]))
        if not rel <= 1e-9:
            bad.append(f"{inp}: split stack differs by {rel:.2e} relative")
        return bad

    def _split_rows(self, inp):
        if inp not in self._split_cache:
            rows, bad = self._rows(self._sweep(self.split, *inp), self.split,
                                   *inp)
            if bad:
                raise RuntimeError(f"split-stack sweep malformed: {bad}")
            self._split_cache[inp] = rows
        return self._split_cache[inp]

    def final_checks(self) -> list:
        lo, hi = self.inputs[0]
        return sc.self_check() + self.solid_check(
            self._sweep(self.solid, lo, hi), lo, hi)

    def solid_check(self, text, lo, hi) -> list:
        """A homogeneous aluminium profile is the solid cylinder."""
        rows, bad = self._rows(text, self.solid, lo, hi)
        if rows is None:
            return bad
        for ka, sigma, f_pi in rows:
            b = sc.b_series(ka, AL_RHO, AL_LAM, AL_MU)
            s_ref = sc.cross_section(b, ka)
            f_ref = abs(sc.form_function(math.pi, b, ka))
            if not abs(sigma - s_ref) <= 1e-9 * s_ref:
                bad.append(f"solid ka={ka}: sigma_tot {sigma:.17g}, "
                           f"reference {s_ref:.17g}")
            if not abs(f_pi - f_ref) <= 1e-9 * max(f_ref, 1.0):
                bad.append(f"solid ka={ka}: |f(pi)| {f_pi:.17g}, "
                           f"reference {f_ref:.17g}")
        return bad

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"solid-integrate": SolidIntegrate,
             "graded-march": GradedMarch,
             "sweep-cli": SweepCli}


def build(name: str, seed: int, wrap=None):
    rng = np.random.default_rng(seed)
    if name == "graded-march":
        return GradedMarch(rng, wrap)
    return WORKLOADS[name](rng)


def _timed_rounds(work, op, seconds: float) -> tuple:
    """Whole rounds of work.inputs, back to back, until one ends after
    `seconds`; returns ([(input index, seconds, output or exception)],
    window seconds)."""
    clock = time.perf_counter
    records = []
    start = clock()
    while True:
        for i, inp in enumerate(work.inputs):
            t0 = clock()
            try:
                out = op(inp)
            except Exception as exc:  # a failed operation, counted later
                out = exc
            records.append((i, clock() - t0, out))
        if clock() - start >= seconds:
            return records, clock() - start


def _judge(work, records) -> tuple:
    """(times of the good operations, failure notes, wrong outputs).

    An operation fails when it raises or when its output is wrong; only a
    wrong output makes the run incorrect.
    """
    times, failures, wrong = [], [], 0
    for i, seconds, out in records:
        if isinstance(out, Exception):
            failures.append(f"{work.inputs[i]}: {out!r}")
            continue
        try:
            bad = work.check(work.inputs[i], out)
        except Exception as exc:  # the check's own run of cylwave
            bad = [f"{work.inputs[i]}: check raised {exc!r}"]
        if bad:
            wrong += 1
            failures.extend(bad)
        else:
            times.append(seconds)
    return times, failures, wrong


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.instrument()
    work = build(args.workload, args.seed,
                 tracer.wrap if tracer is not None else None)
    try:
        work.warm_up()
        op = work.operation
        if tracer is not None:
            op = tracer.wrap("op", op)
            tracer.recording = True
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        records, window = _timed_rounds(work, op, args.seconds)
        if tracer is not None:
            tracer.recording = False
        times, failures, wrong = _judge(work, records)
        try:
            final = work.final_checks()
        except Exception as exc:
            final = [f"final checks raised {exc!r}"]
        result = {
            "ready": ready,
            "attempted": len(records),
            "failed": len(records) - len(times),
            "correct": wrong == 0 and not final,
            "failures": (failures + final)[:20],
            "times": times,
            "window_s": window,
            "rounds": len(records) // len(work.inputs),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": {"numpy": np.__version__,
                         "scipy": scipy.__version__},
        }
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.summary(len(records)))
            os.makedirs(RESULTS, exist_ok=True)
            tracer.save(os.path.join(RESULTS, f"{args.workload}.trace.npz"))
        print(json.dumps(result))
        return 0
    finally:
        work.close()


if __name__ == "__main__":
    sys.exit(main())
