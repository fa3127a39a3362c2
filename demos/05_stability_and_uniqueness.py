"""Stability: nearby initial data stays nearby, and the flow is rigid.

Three experiments on the same flow. First, a tiny perturbation of the
initial data grows no faster than the exponential stability envelope
allows, and in practice barely grows at all. Second, halving the
perturbation halves the final distance: the response is linear in this
regime. Third, the flow is rigid under rescaling: started from alpha times
the data, it is alpha times the flow on a clock alpha times slower. The
right-hand side is quadratic, so this holds for every kernel, and the
integrator reproduces it to solver accuracy.
"""
from dataclasses import replace

import numpy as np

from coagkin import SizeDistribution, SolverConfig, constant, integrate, monomer
from coagkin.experiments import continuous_dependence

kernel = constant(1.0)
init = monomer(32)


def perturbed(eps):
    v = init.values.copy()
    v[1] += eps  # a whiff of dimers
    return SizeDistribution(v, 32)


rep = continuous_dependence(kernel, init, perturbed(1e-6), 2.0)
print(f"perturbation 1e-6 on the dimer, horizon T=2:")
print(f"  initial distance {rep.metrics['d_initial']:.3e} -> final {rep.metrics['d_final']:.3e}")
print(f"  amplification {rep.metrics['amplification']:.4f}")
print(f"  stability-envelope ratio {rep.metrics['max_envelope_ratio']:.3f} "
      f"(envelope constant C = {rep.metrics['c_cd']:.1f})")

rep_half = continuous_dependence(kernel, init, perturbed(0.5e-6), 2.0)
print(f"half the perturbation -> final distance ratio "
      f"{rep_half.metrics['d_final'] / rep.metrics['d_final']:.6f} (linear response)")

same = continuous_dependence(kernel, init, init.copy(), 2.0)
print(f"identical initial data stays identical: sup distance {same.metrics['uniqueness_sup']:.1e}")

print()
small = monomer(16)
solver = SolverConfig(t_end=2.0, sample_times=np.linspace(0.0, 2.0, 51))
residuals = {}
for alpha in (0.5, 2.0):
    scaled = integrate(SizeDistribution(alpha * small.values, 16), kernel, solver)
    slow = integrate(small, kernel, replace(solver, t_end=alpha * 2.0,
                                            sample_times=alpha * solver.sample_times))
    width = max(scaled.states.shape[1], slow.states.shape[1])
    err = np.max(np.abs(scaled.states_matrix(width) - alpha * slow.states_matrix(width)))
    residuals[alpha] = err / (alpha * small.values.max())
ok = max(residuals.values()) <= 10.0 * solver.rel_tol
print(f"rescaling identity, alpha in (0.5, 2): {'pass' if ok else 'fail'}")
for alpha, val in residuals.items():
    print(f"  rescaling_residual_alpha_{alpha:g}: {val:.2e}")
