"""Leafwise recurrence statistics through the uniformizing disc.

Each leaf piece over the sector is simply connected, so the Poincare disc
covers it by a biholomorphism.  Pulling the ambient geometry back through
that map turns dynamical questions ("how often does the leaf revisit a
small ball?") into averages over hyperbolic circles.  This script walks
the full chain on one leaf:

  1.  the three-leg covering map (disc -> half plane -> sector -> leaf)
      and its isometry property,
  2.  angular ball-hitting averages on circles of growing radius,
  3.  finite-horizon visibility N(r) and the compensated product
      N(r) |log r| along a shrinking-ball tail,
  4.  the normalizing mass M_R of log(1/|zeta|) omega_P, whose deviation
      from 2 pi R converges to the explicit constant 2 pi (1 - 2 log 2),
  5.  the rate at which circle mass equidistributes: the weight per unit
      angle is sinh(t) log(coth(t/2)), and although each factor carries an
      e^{-t} correction, the two cancel exactly and the gap decays like
      e^{-2t} — twice the rate a factor-by-factor estimate predicts.

Everything below is deterministic (uniform angular grids); the seeded
Monte Carlo variant lives in the command-line `recurrence` report.
"""

from __future__ import annotations

import math

import numpy as np

from leafcurrent import (
    M_of_R,
    circle_average,
    circle_factor,
    eta_local,
    m_aR_pushforward,
    normalize_singularity,
    poincare_distance_disc,
    poincare_distance_halfplane,
    uniformize_leaf,
    visibility_N,
)

RNG = np.random.default_rng(20250819)


def main() -> None:
    print(__doc__)
    sing = normalize_singularity(1, 1j)
    alpha = math.exp(-math.pi * sing.b)          # middle of the fundamental annulus
    base = complex(math.log(2.0), math.log(2.0)) # |z| = |w| = 1/2 on this leaf
    uni = uniformize_leaf(sing, alpha, base)

    print(f"leaf atom alpha = {alpha:.6f}, base sector point zeta = {base}")
    zb, wb = uni.base_point.z, uni.base_point.w
    print(f"covering map at xi = 0:  |z| = {abs(zb):.12f}, |w| = {abs(wb):.12f} "
          "(both 0.5 by construction)")

    print()
    print("isometry check: Poincare distances in the disc match distances of")
    print("the half-plane images for five random pairs")
    for _ in range(5):
        x1, x2 = (complex(*p) for p in 0.9 * RNG.uniform(-0.7, 0.7, (2, 2)))
        d_disc = poincare_distance_disc(x1, x2)
        d_half = poincare_distance_halfplane(
            complex(uni.halfplane_at(x1)), complex(uni.halfplane_at(x2))
        )
        print(f"  d_disc = {d_disc:.12f}   d_halfplane = {d_half:.12f}   "
              f"diff = {abs(d_disc - d_half):.2e}")

    print()
    print("ball-hitting averages around the origin: fraction of the circle of")
    print("hyperbolic radius t whose image lies within distance r of (0, 0)")
    print("  t        r = 0.5     r = 0.25    r = 0.1")
    for t in (1.0, 2.0, 4.0, 8.0, 12.0, 20.0):
        row = [circle_average(uni, 0, r, t, n_theta=4096) for r in (0.5, 0.25, 0.1)]
        print(f"  {t:5.1f}   {row[0]:9.6f}   {row[1]:9.6f}   {row[2]:9.6f}")
    print("small balls are seen only on a window of intermediate radii; as t")
    print("grows the circle concentrates near the edge of the leaf piece and")
    print("the averages vanish — hence the time average below.")

    print()
    print("finite-horizon visibility at R = 20 (deterministic grid):")
    print("  r          N(r)          N(r) |log r|")
    ks = range(7, 13)
    radii = [2.0**-k for k in ks]
    values = visibility_N(uni, 0, radii, 20.0, n_t=128, n_theta=4096)
    for k, r, n in zip(ks, radii, values):
        print(f"  2^-{k:<3d}    {n:.6e}   {n * abs(math.log(r)):.6e}")
    print("the raw visibility falls by a factor ~3 over this tail while the")
    print("compensated product falls by under ~2 and keeps shrinking slowly —")
    print("it is the quantity with a finite limit.  The seeded command-line")
    print("`recurrence` report adds Monte Carlo error bars to the same tail.")

    print()
    limit = 2.0 * math.pi * (1.0 - 2.0 * math.log(2.0))
    print("normalizing mass M_R and its deviation from 2 pi R")
    print(f"(limit of the deviation: 2 pi (1 - 2 log 2) = {limit:.9f}):")
    print("  R       M_R             M_R - 2 pi R     pushforward mass of 1")
    for R in (5.0, 10.0, 15.0, 20.0):
        m = M_of_R(R)
        mass = m_aR_pushforward(uni, R, lambda z, w: np.ones(z.shape))
        print(f"  {R:4.1f}   {m.value:.9f}   {m.value - 2.0 * math.pi * R:.9f}   "
              f"{mass:.9f}")

    print()
    ts = np.linspace(5.0, 15.0, 41)
    gaps = np.abs(circle_factor(ts) - 1.0)
    slope = float(np.polyfit(ts, np.log(gaps), 1)[0])
    print(f"equidistribution rate: log |circle_factor(t) - 1| has slope "
          f"{slope:.4f} in t")
    print("— the e^{-t} corrections of sinh(t) and log(coth(t/2)) cancel")
    print("exactly, so the true rate is -2, not the -1 a term-by-term")
    print("estimate suggests.")

    print()
    print(f"metric comparison at the base point: eta = {eta_local(uni):.9f}")
    print("(extremal ambient speed per unit Poincare length; finite and")
    print("positive, as the leafwise metrics are comparable on compacta).")


if __name__ == "__main__":
    main()
