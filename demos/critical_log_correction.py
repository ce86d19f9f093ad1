#!/usr/bin/env python3
# The critical exponent theta = 2: alpha = 1/2 makes 2 alpha - 1 = 0, so
# the value function loses its power-law prefactor and gains a logarithm,
# while the density laws stay intact.  The library refuses the power-law
# value oracle at theta = 2 and the rate report flags the criticality
# instead of fitting exponential laws.
#
# Usage:
#   python3 demos/critical_log_correction.py

import numpy as np

from dirac_mfp.errors import UnsupportedParameterError
from dirac_mfp.metrics import rate_report
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import make_grid, solve
from dirac_mfp.target import self_similar_terminal

p = make_profile(2.0)
print(f"theta = 2: alpha = {p.alpha}, kappa = {p.kappa}")

try:
    p.self_similar_value(0.5, 0.0)
except UnsupportedParameterError as exc:
    print(f"power-law value oracle refused: {exc}")

# the logarithmic replacement closes the Hamilton-Jacobi equation exactly
print("\ncritical value: u(t, x) = -x^2/(4t) - (R^2/8) ln t on the support")
for t in (0.25, 0.5, 1.0):
    x = np.linspace(-0.5, 0.5, 5) * p.r_alpha * np.sqrt(t)
    u = p.critical_self_similar_value(t, x)
    m = p.self_similar_density(t, x)
    # -u_t + u_x^2/2 - m^2 must vanish identically
    ut = (x * x / (4.0 * t * t)) - p.r_alpha ** 2 / (8.0 * t)
    ux = -x / (2.0 * t)
    res = np.max(np.abs(-ut + 0.5 * ux * ux - m * m))
    print(f"  t = {t:4.2f}: HJ residual of the closed form = {res:.2e}")

# a full solve against the analytic terminal slice
grid = make_grid(p, eps=1e-3, T=1.0, nt=64, ny=64)
f = solve(p, self_similar_terminal(p, 1.0, 1e-3), grid)
ref = (grid.t[:, None] + grid.eps) ** p.alpha * grid.y[None, :]
print(f"\nsolved 64x64 against the analytic slice: "
      f"sup flow error {np.max(np.abs(f.gamma - ref)):.2e}")

rep = rate_report(f)
print(f"rate report: critical = {rep['critical']}, kappa = {rep['kappa']}")
for flag in rep["flags"]:
    print(f"  flag: {flag}")
print("fitted density laws (value laws skipped):")
for r in rep["laws"]:
    print(f"  {r['law']:16s} theoretical {r['theoretical_exponent']:+.3f} "
          f"fitted {r['fitted_exponent']:+.4f} "
          f"{'pass' if r['pass'] else 'FAIL'}")
