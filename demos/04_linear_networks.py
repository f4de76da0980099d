"""Linear transitions make the optimal mask a sort: gains just add up.

When every stage-1 probability is a weighted sum of its parents, hiding (or
flipping) index r shifts each child's belief by a fixed amount regardless of
what else is masked, so at p = 1 the objective is the empty-mask value plus a
sum of per-index gains.  The optimal mask is the top-k positive gains, checked
here against brute force.
"""

from halftruth import (
    AttackProblem,
    GenSpec,
    Mask,
    brute_force_attack,
    flip_linear_exact_attack,
    generate,
    linear_exact_attack,
    linear_gains,
    objective_value,
)
from halftruth.simulate import draw_realization, realization_rng

model = generate(GenSpec("random_linear", n0=12, n1=8, edge_density=0.5, seed=21))
x0 = draw_realization(model, realization_rng(21))
problem = AttackProblem(model, x0, budget=4, p=1, action="hide")

gains = linear_gains(problem)  # keyed by problem.action
print("realization:", x0)
print("per-index hide gains:")
for j, g in enumerate(gains):
    tag = " <- worth hiding" if g > 0 else ""
    print(f"  index {j:2d}: {g:+.5f}{tag}")

exact = linear_exact_attack(problem)
brute = brute_force_attack(problem)
print(f"\ntop-k positive gains -> mask {list(exact.mask.indices)} value {exact.value:.6f}")
print(f"brute force          -> mask {list(brute.mask.indices)} value {brute.value:.6f}")
print(f"agreement: {abs(exact.value - brute.value):.2e} "
      f"({exact.evaluations} vs {brute.evaluations} objective calls)")

# gains are additive: the change from adding an index never depends on the mask
eta = Mask([1, 5])
j = int(max((g, j) for j, g in enumerate(gains) if j not in eta.indices)[1])
with_j = objective_value(model, x0, Mask(sorted(eta.indices + (j,))), 1)
without = objective_value(model, x0, eta, 1)
print(f"\nadding index {j} on top of {list(eta.indices)} changes the objective by "
      f"{with_j - without:+.6f}")
print(f"its standalone gain is {gains[j]:+.6f} (same number)")

flip_problem = AttackProblem(model, x0, budget=4, p=1, action="flip")
flip = flip_linear_exact_attack(flip_problem)
flip_brute = brute_force_attack(flip_problem)
print(f"\nflipping variant: exact {flip.value:.6f} vs brute force {flip_brute.value:.6f}")
print("(flip gains drop the prior factor: a flipped value is certain, not averaged)")
