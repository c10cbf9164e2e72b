"""Exact enumeration vs seeded Monte Carlo pseudo-samples.

Exact plans walk every one of the C(n, k) combinations (within a budget);
Monte Carlo plans draw combinations uniformly with replacement using one
RNG substream per block, so results are reproducible bit for bit per seed.
"""

import numpy as np

from hlmoments import (
    CapacityError,
    ExactPlan,
    MonteCarloPlan,
    TrimSpec,
    Weibull,
    build_pseudosample,
    count_combinations,
    hl_central_moment,
)

x = Weibull(1.0, 1.0).sample(20, seed=2024)
trim = TrimSpec(eps0=0.1, gamma=1.0)

print("=== exact plan ===")
print("C(20, 3) =", count_combinations(20, 3))
exact = hl_central_moment(x, 3, trim)
print("trimmed third-moment estimate:", exact.value)

print()
print("=== Monte Carlo convergence toward the exact value ===")
for draws in (10**3, 10**4, 10**5, 10**6):
    devs = []
    for seed in range(5):
        mc = hl_central_moment(x, 3, trim, plan=MonteCarloPlan(draws=draws, seed=seed))
        devs.append(abs(mc.value - exact.value) / abs(exact.value))
    print(f"draws={draws:>8}: mean rel dev over 5 seeds {np.mean(devs):.3%}")

print()
print("=== determinism ===")
plan = MonteCarloPlan(draws=50_000, seed=99)
a = build_pseudosample(x, 3, plan)
b = build_pseudosample(x, 3, plan)
print("same seed, bit-identical pseudo-samples:", np.array_equal(a, b))

print()
print("=== capacity guard ===")
big = np.arange(200.0)
print("C(200, 4) =", count_combinations(200, 4), "> default budget 5e7")
try:
    build_pseudosample(big, 4, ExactPlan())
except CapacityError as exc:
    print("ExactPlan refused:", exc)
mc = hl_central_moment(big, 4, plan=MonteCarloPlan(draws=200_000, seed=3))
print("Monte Carlo fallback estimate:", f"{mc.value:.6g}", f"(pseudo_n={mc.pseudo_n})")
