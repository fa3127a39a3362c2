"""Convex weights: the collision inequality and moment envelopes.

Weighted moments sum G(i) xi_i with convex G control how much mass can
sit in large sizes. Two facts get demonstrated: the collision
inequality that makes such moments controllable, with G(x) = x^2
saturating it exactly, and the exponential envelope that bounds their
growth along a run. A superlinear weight is then constructed directly
from decaying size data, tight enough that its weighted moment stays
finite by design.
"""
import numpy as np

from coagkin import (
    SolverConfig,
    additive,
    check_inequality,
    check_moment_propagation,
    construct_tail_weight,
    evaluate,
    g_moment,
    integrate,
    monomer,
    power_weight,
)

# the inequality, saturated by the square weight
w2 = power_weight(2.0)
for i, j in [(1, 1), (2, 3), (4, 7)]:
    lhs = (i + j) * (evaluate(w2, float(i + j)) - evaluate(w2, float(i)) - evaluate(w2, float(j)))
    rhs = 2.0 * (i * evaluate(w2, float(j)) + j * evaluate(w2, float(i)))
    print(f"square weight at ({i},{j}): lhs = {lhs:6.0f}, rhs = {rhs:6.0f}"
          + ("  <- exact equality" if lhs == rhs else ""))

for w in [power_weight(1.0), power_weight(1.5), w2]:
    rep = check_inequality(w, 500)
    print(f"inequality on the 500x500 grid, {w.name:6s}: {rep.status}, "
          f"max lhs/rhs = {rep.metrics['max_lhs_rhs_ratio']:.4f}")

# moment envelope along a run
print()
kernel = additive(1.0)
traj = integrate(monomer(32), kernel, SolverConfig(t_end=5.0))
rep = check_moment_propagation(traj, w2, kernel)
print(f"squared-size moment under exp(4 A M1(0) t) envelope: {rep.status}, "
      f"max ratio {rep.metrics['max_ratio']:.2e}")
print(f"observed growth rate {rep.metrics['observed_growth_rate']:.3f} "
      f"vs safe constant {rep.metrics['c_safe']:.1f}")

# constructing a superlinear weight from data
print()
xi = 0.5 ** np.arange(1, 1001)
w = construct_tail_weight(xi, tail_budget=1.0)
sizes = np.arange(1, 1001, dtype=float)
total = float(np.sum(np.asarray(evaluate(w, sizes)) * xi))
print(f"constructed weight: knots at {[int(x) for x in w.knots[:6]]}..., "
      f"derivative climbing one unit per knot")
print(f"weighted moment against the data: {total:.4f} "
      f"(guaranteed <= M1 + 3 = {float(np.dot(sizes, xi)) + 3.0:.4f})")
ratio = np.asarray(evaluate(w, w.knots[1:])) / w.knots[1:]
print(f"G(x)/x along knots: {ratio[0]:.3f} -> {ratio[-1]:.3f}, strictly increasing "
      f"(superlinearity witness)")

# the same weight stays controlled along the dynamics
traj = integrate(monomer(64), additive(1.0), SolverConfig(t_end=5.0))
rep = check_moment_propagation(traj, w, additive(1.0))
print(f"constructed weight along an integrated run: {rep.status}, "
      f"max ratio {rep.metrics['max_ratio']:.2e}")
print(f"g-moment at start {g_moment(traj.state(0), w):.4e}, "
      f"at end {g_moment(traj.final(), w):.4e}")
