"""From per-output trees to a shared structure.

A node with 7 incoming messages computes 7 outgoing ones; output j may
use every input except x_j.  Computing each output with its own tree
costs 14 three-input and 7 two-input units.  Uniting the trees so that
equal subtrees are built once drops that to 8 three-input units, and a
smarter (cyclic) assignment of inputs to leaves drops it to 7 with the
same two-stage latency.
"""

from mpsynth import CostModel, complexity, latency, to_dot, validate
from mpsynth.oracles import ascending_labeling, structure_from_labeled_copies
from mpsynth.uniform import UniformTree, structure_from_uniform_tree

cm = CostModel.from_factors(3, c=[1, 2], l=[1, 1])
print("cost model: 2-input unit costs 1, 3-input unit costs 2, both take 1 tick\n")

# each output's tree: a 2-input root over two 3-input units (6 leaves)
shape = UniformTree((2, 3))
print(f"per-output tree shape: fan-ins {shape.levels}, {shape.leaf_count} leaves")

standalone_units = 7 * 2, 7 * 1
print(f"7 standalone trees would use {standalone_units[0]} three-input "
      f"and {standalone_units[1]} two-input units\n")

cyclic = structure_from_uniform_tree(shape, 3)
ascending = structure_from_labeled_copies(shape, ascending_labeling(7), 3)
for name, dag in (("ascending", ascending), ("cyclic", cyclic)):
    hist = dag.degree_histogram()
    print(f"{name:9s} labeling: {hist.get(3, 0)} three-input + {hist.get(2, 0)} two-input units,"
          f" complexity {complexity(dag, cm)}, latency {latency(dag, cm)},"
          f" valid: {validate(dag).ok}")

print("\nDOT of the cyclic structure:\n")
print(to_dot(cyclic))
