"""Long-time behaviour: every cluster concentration dies out.

When the collision rate is bounded below by zeta > 0 the particle count
obeys dM0/dt <= -(zeta/2) M0^2, which forces M0 under the hyperbola
M0(0) / (1 + (zeta/2) M0(0) t). The individual concentrations follow a
slow power law toward zero: visible, but patient.
"""
import os

import numpy as np

from coagkin import SolverConfig, constant, integrate, monomer
from coagkin.experiments import asymptotic_decay
from coagkin.output import write_line_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

kernel = constant(1.0)  # zeta = 1
traj = integrate(
    monomer(128), kernel,
    SolverConfig(t_end=100.0, sample_times=np.linspace(0.0, 100.0, 201)),
)
times = traj.times
m0 = traj.number_series()
envelope = 1.0 / (1.0 + 0.5 * times)

print("   t      M0          envelope    ratio")
for idx in (0, 10, 40, 100, 200):
    print(f"{times[idx]:6.1f}  {m0[idx]:.6f}   {envelope[idx]:.6f}   {m0[idx] / envelope[idx]:.4f}")

print()
x = traj.final().values
print("smallest components at T = 100:", " ".join(f"{v:.2e}" for v in x[:5]))
states = traj.states_matrix()
idx90 = np.argmin(np.abs(times - 90.0))
drift = np.max(np.abs(states[-1, :5] - states[idx90, :5]))
print(f"their drift over the last 10 time units: {drift:.2e} (settling toward zero)")

report = asymptotic_decay(kernel, monomer(128), 100.0)
print()
print(f"decay report: {report.status}")
for key in ("max_envelope_ratio", "m0_final", "component_limit", "component_convergence"):
    print(f"  {key}: {report.metrics[key]:.4e}  (threshold "
          f"{report.thresholds.get(key, float('nan')):.4g})" if key in report.thresholds
          else f"  {key}: {report.metrics[key]:.4e}")

write_line_svg(
    os.path.join(OUT, "decay_envelope.svg"),
    times,
    [("M0", m0), ("Riccati envelope", envelope)],
    title="Particle-number decay under the comparison hyperbola",
    xlabel="t",
    ylabel="M0 (log)",
    logy=True,
)
print(f"wrote {OUT}/decay_envelope.svg")
