"""Trust, but enumerate.

Every optimizer in the package has a brute-force twin that simply
builds all the candidates and takes the minimum.  This demo runs the
bundled cross-check report for a few sizes and shows the enumerators
the report is built from.  (The second strategies that guard the
enumerators themselves live with the tests.)
"""

from mpsynth import CostModel, verify_report
from mpsynth.oracles import (
    enumerate_degree_vectors,
    enumerate_rooted_trees,
    enumerate_star_trees,
)

cm = CostModel.from_factors(3, c=[1, 2], l=[1, 1])

print("degree vectors for n=7 at fan-in <= 3:", enumerate_degree_vectors(7, 3))
for q in enumerate_degree_vectors(7, 3):
    if sum(q) == 0:
        continue
    print(f"  star trees with degree vector {q}: {len(enumerate_star_trees(q))}")

print("\nrooted trees with 6 leaves, fan-in <= 3:", len(enumerate_rooted_trees(6, 3)))

for n in (5, 7):
    print(f"\nverification report for n={n}:")
    report = verify_report(n, cm)
    for check in report.checks:
        flag = "pass" if check.passed else "FAIL"
        print(f"  [{flag}] {check.name:20s} dp={check.dp_value:>5s}"
              f" oracle={check.oracle_value:>5s}  {check.params}")
    print(f"  overall: {'all pass' if report.ok else 'MISMATCH'}")
