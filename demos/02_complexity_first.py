"""Complexity-first synthesis.

When area matters more than delay, the star-tree family is the place to
look: a single undirected tree whose leaves are the inputs generates
all n outputs by re-rooting, and every computation unit is shared by as
many outputs as the exclusion rule allows.  The cheapest member depends
only on how many internal nodes of each width the tree uses, which a
small DP finds; a second DP then picks the fastest tree among the
cheapest.
"""

from mpsynth import CostModel, complexity, latency, synthesize_star, validate
from mpsynth.staropt import min_star_complexity, min_star_latency, optimal_degree_vectors
from mpsynth.startree import star_complexity

for c3 in (2, 1):
    cm = CostModel.from_factors(3, c=[1, c3], l=[1, 1])
    print(f"\n=== 3-input unit costs {c3} (2-input costs 1) ===")
    table = min_star_complexity(7, cm)
    print(f"cheapest complexity for n=7: {table.value()}")
    for q in optimal_degree_vectors(table):
        print(f"  achieved by degree vector {q}: "
              f"{q[0]} three-way nodes, {q[1]} four-way nodes"
              f" -> cost {star_complexity(q, cm)}")

cm = CostModel.from_factors(3, c=[1, 2], l=[1, 1])
syn = synthesize_star(7, cm)
print(f"\nfull pipeline at n=7: complexity {syn.complexity}, latency {syn.latency},"
      f" degree vector {syn.q}")
print(f"witness checks out: complexity {complexity(syn.structure, cm)},"
      f" latency {latency(syn.structure, cm)}, valid {validate(syn.structure).ok}")

# the latency side alone, for a fixed degree vector
result = min_star_latency((5, 0), cm)
print(f"\nfastest tree with five 3-way internal nodes: latency {result.value}"
      f" (a chain would take 5 ticks)")
