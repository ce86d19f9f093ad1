#!/usr/bin/env python3
# Spreading from a point mass at theta = 1: solve the planning problem
# whose terminal density is the parabolic bump (1 - x^2)_+, which is the
# self-similar slice at T = R^(-1/alpha), and check every scaling law of
# the intermediate regime against its fitted exponent.
#
# Usage:
#   python3 demos/spreading_rates.py
#
# Dependencies: the installed dirac_mfp package (numpy, scipy underneath).

import numpy as np

from dirac_mfp.metrics import rate_report
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import make_grid, solve
from dirac_mfp.target import power_bump

p = make_profile(1.0)
print(f"theta = 1: alpha = {p.alpha:.6f}, support radius R = {p.r_alpha:.6f}")
print(f"The profile phi(r) = (c (R^2 - r^2))_+ spreads as t^alpha from a Dirac.")

# The bump (1-x^2)_+ equals the self-similar density exactly when the
# free support radius R t^alpha reaches 1:
T = p.r_alpha ** (-1.0 / p.alpha)
print(f"\nTerminal datum: power_bump(-1, 1) at horizon T = R^(-1/alpha) = {T:.6f}")

eps = 1e-4
grid = make_grid(p, eps=eps, T=T, nt=128, ny=128)
f = solve(p, power_bump(-1.0, 1.0, 1.0), grid)
print(f"solved: {f.info.iterations} Newton steps, "
      f"scaled gradient {f.info.grad_norm:.2e}")

# free boundary: gamma_R ~ R t^alpha, convex/concave envelopes
print("\n      t        gamma_R     R*t^alpha    ratio")
for i in range(8, grid.nt + 1, 24):
    t = grid.t[i]
    ref = p.r_alpha * t ** p.alpha
    print(f"  {t:9.5f}  {f.gamma[i, -1]:10.6f}  {ref:10.6f}  "
          f"{f.gamma[i, -1] / ref:8.5f}")

# density collapse: t^alpha m(t, t^alpha y) -> phi(y)
print("\nsup |t^alpha m(t, gamma(t,y)) gamma_y(t,y) - phi(y)| is zero by")
print("construction in mass coordinates; the Eulerian collapse error is")
print("the interpolation defect of the reconstructed density:")
for i in (32, 64, 96, 128):
    x, m = f.gamma[i], f.density[i]
    t = grid.t[i]
    mu = t ** p.alpha * m
    eta = x / t ** p.alpha
    err = np.max(np.abs(mu - p.phi(eta)))
    print(f"  t = {t:8.5f}   sup |mu - phi| = {err:.3e}")

# every scaling law of the window [10 eps, 0.25]
rep = rate_report(f, window=(10 * eps, 0.25))
print("\nfitted scaling laws over t in [1e-3, 0.25]:")
print("  law              theoretical   fitted      r^2      verdict")
for r in rep["laws"]:
    print(f"  {r['law']:16s} {r['theoretical_exponent']:+.4f}      "
          f"{r['fitted_exponent']:+.4f}   {r['r2']:.5f}  "
          f"{'pass' if r['pass'] else 'FAIL'}")
print("\nThe value oscillation law t^(2 alpha - 1) only emerges when the")
print("horizon matches the datum: at other horizons the value function")
print("carries the terminal-layer correction throughout the window.")
