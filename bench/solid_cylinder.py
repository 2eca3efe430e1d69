"""Sound scattered by a solid isotropic elastic cylinder in water, solved
from Helmholtz potentials with scipy.special alone (no cylwave code).

This is the classical solution of Faran, JASA 23 (1951) 405, in the
normalized units of cylwave: fluid density 1, sound speed 1, radius 1, so
k = omega = ka. The time factor is e^{-i omega t}; the pressure of order n
is J_n(kr) + B_n H1_n(kr) per unit incident amplitude, and the solid holds
the potentials phi = A J_n(k_L r) cos(n theta), psi = C J_n(k_T r)
sin(n theta). Continuity of the normal displacement, the normal stress
balancing the pressure and a free shear stress at r = 1 give a 3x3 system
in (A, C, B_n) per order.

Run as a script it prints its own checks: |1 + 2 B_n| = 1 for real moduli,
and the rigid, immovable limit B_n -> -J_n'(ka)/H_n'(ka) when density and
moduli grow together.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special


def b_coefficient(n: int, ka: float, rho: float, lam: float,
                  mu: float) -> complex:
    """B_n of a solid cylinder with density rho and Lame moduli lam, mu."""
    k = ka
    kl = ka / math.sqrt((lam + 2.0 * mu) / rho)
    kt = ka / math.sqrt(mu / rho)
    jl, jlp, jlpp = (special.jv(n, kl), special.jvp(n, kl, 1),
                     special.jvp(n, kl, 2))
    jt, jtp, jtpp = (special.jv(n, kt), special.jvp(n, kt, 1),
                     special.jvp(n, kt, 2))
    a = np.array([
        # u_r(solid) = u_r(fluid) = (J_n' + B_n H_n') / k
        [kl * jlp, n * jt, -special.h1vp(n, k) / k],
        # sigma_rr = -p
        [2.0 * mu * kl * kl * jlpp - lam * kl * kl * jl,
         2.0 * mu * n * (kt * jtp - jt), special.hankel1(n, k)],
        # sigma_r_theta = 0
        [2.0 * n * (jl - kl * jlp), kt * jtp - kt * kt * jtpp - n * n * jt,
         0.0],
    ], dtype=complex)
    rhs = np.array([special.jvp(n, k) / k, -special.jv(n, k), 0.0],
                   dtype=complex)
    return complex(np.linalg.solve(a, rhs)[2])


def b_series(ka: float, rho: float, lam: float, mu: float,
             n_max: int | None = None) -> list:
    """B_0 .. B_n_max; by default far enough that the tail is below 1e-16."""
    if n_max is None:
        n_max = int(math.ceil(ka)) + 30
    return [b_coefficient(n, ka, rho, lam, mu) for n in range(n_max + 1)]


def form_function(theta: float, b, ka: float) -> complex:
    """f(theta) = (-i / sqrt(ka)) sum_n eps_n B_n cos(n theta)."""
    s = sum((1.0 if n == 0 else 2.0) * bn * math.cos(n * theta)
            for n, bn in enumerate(b))
    return -1j * s / math.sqrt(ka)


def cross_section(b, ka: float) -> float:
    """sigma_tot = (4 pi / ka) Im f(0), the optical theorem."""
    return 4.0 * math.pi / ka * form_function(0.0, b, ka).imag


# Aluminium as cylwave normalizes it: rho 2.7, lambda 58.5 GPa, mu 26 GPa,
# moduli over rho_w c_w^2 = 1000 kg/m^3 * (1470 m/s)^2.
MODULUS_SCALE = 1000.0 * 1470.0 ** 2
ALUMINIUM = (2.7, 58.5e9 / MODULUS_SCALE, 26.0e9 / MODULUS_SCALE)


def self_check() -> list:
    """Failures of the reference's own invariants (empty when it is sound)."""
    failures = []
    rho, lam, mu = ALUMINIUM
    for ka in (0.3, 1.0, 2.7, 5.0, 9.5):
        for n, bn in enumerate(b_series(ka, rho, lam, mu, n_max=25)):
            dev = abs(abs(1.0 + 2.0 * bn) - 1.0)
            if not dev <= 1e-12:
                failures.append(f"|1+2B_{n}|-1 = {dev:.2e} at ka={ka}")
    scale = 1e9
    for ka in (0.7, 3.1, 6.4):
        for n in range(12):
            bn = b_coefficient(n, ka, scale * rho, scale * lam, scale * mu)
            rigid = -special.jvp(n, ka) / special.h1vp(n, ka)
            dev = abs(bn - rigid)
            if not dev <= 1e-8:
                failures.append(
                    f"rigid limit off by {dev:.2e} at n={n}, ka={ka}")
    return failures


if __name__ == "__main__":
    found = self_check()
    for line in found:
        print(line)
    print("solid-cylinder reference:", "FAIL" if found else "ok")
    raise SystemExit(1 if found else 0)
