#!/usr/bin/env python3
# Supercritical congestion (theta = 3): the rescaled system has the
# Lyapunov functional
#
#   H(tau) = int (mu w_eta^2 / 2 - mu^(theta+1)/(theta+1) - c eta^2 mu)
#            - theta/(theta+1) int phi^(theta+1) + c R^2,
#
# with H' = -(2 alpha - 1) int mu w_eta^2 along the flow, so for
# kappa = 1 - 2 alpha > 0 the functional certifies convergence to the
# stationary profile as tau -> -infty.  The demo prints the certified
# inequalities and the measured decay rates, which are faster than the
# one-sided kappa bounds: the decay is set by the slowest deviation
# mode of the linearized flow (rate 1 - alpha), not by kappa.
#
# Usage:
#   python3 demos/supercritical_lyapunov.py

import numpy as np

from dirac_mfp.metrics import rate_report
from dirac_mfp.profile import make_profile
from dirac_mfp.rescale import build_series
from dirac_mfp.solver import make_grid, solve
from dirac_mfp.target import power_bump

p = make_profile(3.0)
print(f"theta = 3: alpha = {p.alpha:.3f}, kappa = 1 - 2 alpha = {p.kappa:.3f}")

eps = 1e-4
grid = make_grid(p, eps=eps, T=1.0, nt=128, ny=128)
f = solve(p, power_bump(-0.6, 1.4, 3.0), grid)   # asymmetric datum
print(f"solved: {f.info.iterations} Newton steps, "
      f"scaled gradient {f.info.grad_norm:.2e}\n")

s = build_series(f)
tau, H, du = s["tau"], s["H"], s["duality_pairing"]
t = np.exp(tau)

# inequality certificates (these hold at every resolved row)
q = eps / t
b = p.alpha * q / (1.0 + q)
lam = (1.0 + q) ** p.alpha
floor = 0.5 * b * (lam * lam - 1.0) * p.second_moment()
resolved = floor <= 1e-5
print("certified along the run:")
print(f"  H nonnegative up to the eps floor : "
      f"min H + 1.5*floor = {np.min(H + 1.5 * np.abs(floor)):+.2e}")
print(f"  H nondecreasing in tau            : "
      f"min dH = {np.min(np.diff(H)):+.2e}")
print(f"  duality pairing <= 0 once resolved: "
      f"max over {resolved.sum()} rows = {np.max(du[resolved]):+.2e}")
print(f"  int mu^(1-theta) bounded          : varies "
      f"{s['recip_integral'].max() / s['recip_integral'].min():.3f}x\n")

# measured rates vs the one-sided bound exponents, as `rate_report` fits them
print("local log-slopes (window t in [0.02, 0.25]):")
laws = {r["law"]: r for r in rate_report(f, window=(0.02, 0.25), series=s)["laws"]}
for name, law, bound in (("d2 ", "d2_profile", p.kappa), ("H  ", "lyapunov", 2 * p.kappa)):
    slope = laws[law]["fitted_exponent"]
    print(f"  {name} decays like e^({slope:.3f} tau); "
          f"one-sided bound rate {bound:.2f}; "
          f"slowest linear mode {1 - p.alpha if name == 'd2 ' else 2 * (1 - p.alpha):.2f}")

print("\nBoth observables beat their Gronwall bounds: the spectrum of the")
print("linearized rescaled flow at the fixed point is")
print("  Lambda_n = c n (theta n + theta + 2),   rate_n = (kappa + sqrt(1 + 4 Lambda_n)) / 2")
for n in range(4):
    lam_n = p.c * n * (p.theta * n + p.theta + 2.0)
    rate = 0.5 * (p.kappa + np.sqrt(1.0 + 4.0 * lam_n))
    print(f"  n = {n}: Lambda = {lam_n:.3f}, decay rate = {rate:.3f}")
print("so the slowest admissible decay is 0.6, already 3x the kappa bound.")
