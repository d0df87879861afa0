"""The stage-slack schedule, its failure mass, and path-polynomial profiles.

The companion deletion rule backs off from 1 by a stage-dependent slack; the
mass check sums the implied failure probabilities against the budget R/2 and
scales exactly linearly in the leading constant.  The second half profiles
the alternating-path count as a polynomial in independent edge indicators:
its expectation, the conditioned expectations over forced edge subsets, and
the literal concentration bound they feed.
"""

import random
from fractions import Fraction

from sandwichlab import (
    ModelParams,
    path_polynomial_stats,
    schedule_mass,
    uniform_regular,
)

params = ModelParams(n=16, d=6, c0=1.0, mu=0.1)
print("stage slack eta_i at n=16, d=6 (limit", params.steps_upper, "):")
for i in (0, 10, 30, 50, 60, 70, 71, 72, 80):
    print(f"  eta({i:2d}) = {params.stage_slack(i):.4f}")

print("\nschedule mass over a small grid:")
for n, d, c0 in ((8, 3, 1.0), (12, 4, 1.0), (16, 6, 1.0), (16, 6, 0.02)):
    params = ModelParams(n=n, d=d, c0=c0)
    mass = schedule_mass(params)
    print(f"  n={n:2d} d={d} c0={c0:5.2f}: E_S = {mass.e_s:9.4f}  "
          f"R/2 = {params.R / 2:5.1f}  within budget: {mass.passed}")
unit = schedule_mass(ModelParams(n=16, d=6, c0=1.0))
tripled = schedule_mass(ModelParams(n=16, d=6, c0=3.0))
print(f"  exact scaling: E_S(3.0) == 3 * E_S(1.0): "
      f"{tripled.e_s == 3.0 * unit.base_sum}")

print("\npath polynomial profile at n=10, d=3, k=2:")
rng = random.Random(77)
k_graph = uniform_regular(10, 3, rng)
m = 12
p = Fraction(m, 45 - 15)
stat = path_polynomial_stats(k_graph, p, 1, 2, 2, z=(5,))
delta = 2 * m / 10
center = delta ** 2 * 3 ** 2 / 10
print(f"  skeletons: {stat.skeleton_count}")
print(f"  E Y    = {stat.e_y} = {float(stat.e_y):.4f} "
      f"(heuristic center {center:.4f}, relative gap "
      f"{abs(float(stat.e_y) - center) / center:.3f})")
for order, value in stat.by_order.items():
    print(f"  order {order}: {value} = {float(value):.4f}")
print(f"  E'Y    = {stat.e_prime}")
print(f"  E^max Y = {stat.e_max}")
print(f"  deviation bound at alpha = log^2 n: {stat.deviation_bound:.2f} "
      "(reported verbatim; usually vacuous at desk scale)")
