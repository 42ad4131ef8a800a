"""Latency-first synthesis, including sizes that need pruning.

No structure can beat the best uniform replicated tree on latency, so
the latency-first synthesizer optimizes over level fan-in sequences.
A ceiling DP picks the fastest shape for any n; when n - 1 does not
factor over the allowed fan-ins (say 7 inputs per output at fan-in
<= 3), or when a larger shape is faster, it takes that shape at a
workable size n' > n and builds it directly at n, as if the surplus
inputs and outputs had been built and pruned away, without losing a
tick.  The exact-size DP is shown for comparison.
"""

from mpsynth import CostModel, complexity, latency, synthesize_min_latency, validate
from mpsynth.structure import prune
from mpsynth.uniform import min_uniform_latency

cm = CostModel.from_factors(3, c=[1, 2], l=[1, 1])

print("exact sizes, no over-provisioning:")
for n in (3, 5, 7, 9, 13):
    result = min_uniform_latency(n, cm)
    print(f"  n={n:3d}: latency {result.value}, level profiles {result.type_vectors}")

print("\nn=8 has no exact shape at fan-in <= 3 (7 is prime), so over-provision:")
result = synthesize_min_latency(8, cm)
print(f"  shape for n'={result.n_prime} with profile {result.w},"
      f" built at n=8: latency {result.latency},"
      f" complexity {complexity(result.structure, cm)},"
      f" valid {validate(result.structure).ok}")

nine = synthesize_min_latency(9, cm)
print(f"\nn=9 fits exactly at latency {min_uniform_latency(9, cm).value}, but"
      f" the shape for n'={nine.n_prime} reaches latency {nine.latency}")

print("\nshrinking a 7-input structure to 6 keeps the latency:")
seven = synthesize_min_latency(7, cm)
six = prune(seven.structure, 6)
print(f"  before: latency {latency(seven.structure, cm)};"
      f" after: latency {latency(six.structure, cm)},"
      f" valid {validate(six.structure).ok}")
