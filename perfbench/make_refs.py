"""Record the reference values the benchmark gate cannot compute itself.

Usage (from the root of a checkout)::

    python3 perfbench/make_refs.py          # rewrites perfbench/refs.json

Records, for every size of the workloads:

* ``ties_latency``: the least star latency of each star-ties cost model;
* ``isom_complexity``: the complexity of the pruned latency-first
  structure of each isom-prune cost model (a ceiling for later commits).

Before recording, every formula and recorder is cross-checked: against
``mpsynth.oracles`` on the same cost models at sizes the oracles reach,
and the closed forms of ``workloads.py`` against the synthesizers over
every size they gate.  Any disagreement aborts without writing.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpsynth import costs, oracles, staropt, structure, uniform  # noqa: E402
from mpsynth.drt import tree_latency  # noqa: E402

ORACLE_STAR_N = range(4, oracles.DEFAULT_BUDGET.max_star_leaves + 1)
ORACLE_TREE_N = range(3, oracles.DEFAULT_BUDGET.max_tree_leaves + 2)


def cost_model(model: wl.Model) -> costs.CostModel:
    return costs.load_cost_model(model.to_json())


def oracle_star(n: int, cm: costs.CostModel) -> tuple[Fraction, Fraction]:
    """(complexity, latency) of the best star structure, by enumeration."""
    table = staropt.min_star_complexity(n, cm)
    vectors = [q for q in oracles.enumerate_degree_vectors(n, cm.m) if sum(q) > 0]
    best_c = min(oracles.star_complexity(q, cm) for q in vectors)
    best_l = min(
        oracles.oracle_star_tree_latency(t, cm)
        for q in vectors
        if oracles.star_complexity(q, cm) == best_c
        for t in oracles.enumerate_star_trees(q)
    )
    check(best_c == table.value(), f"n={n} complexity DP vs enumeration")
    return best_c, best_l


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def main() -> int:
    refs: dict = {"ties_latency": {}, "isom_complexity": {}}

    chain_l = (Fraction(7, 3), Fraction(3), Fraction(10, 3), Fraction(4), Fraction(9, 2))
    for m, count, lo, hi in wl.CHAIN_STRATA:
        model = wl.Model(f"chain{m}", m, wl.CHAIN_C[m], chain_l[: m - 1])
        cm = cost_model(model)
        for n in ORACLE_STAR_N:
            want = (wl.min_complexity(n, m, model.c), wl.min_binary_star_latency(n, model.l[0]))
            check(oracle_star(n, cm) == want, f"{model.name} n={n} closed form vs oracle")
        for n in wl.stratum_sizes(count, lo, hi):
            got = staropt.synthesize_star(n, cm)
            want = (wl.min_complexity(n, m, model.c), wl.min_binary_star_latency(n, model.l[0]))
            check((got.complexity, got.latency) == want, f"{model.name} n={n} closed form")
        print(f"{model.name}: closed forms agree", flush=True)

    for m, count, lo, hi in wl.TIES_STRATA:
        for v, l in enumerate(wl.TIES_L[m]):
            model = wl.Model(f"ties{m}v{v}", m, wl.TIES_C[m], l)
            cm = cost_model(model)
            for n in ORACLE_STAR_N:
                got = staropt.synthesize_star(n, cm)
                check(oracle_star(n, cm) == (got.complexity, got.latency), f"{model.name} n={n} vs oracle")
            table = refs["ties_latency"][model.name] = {}
            for n in wl.stratum_sizes(count, lo, hi):
                got = staropt.synthesize_star(n, cm)
                check(got.complexity == wl.min_complexity(n, m, model.c), f"{model.name} n={n} knapsack")
                table[str(n)] = str(got.latency)
            print(f"{model.name}: {len(table)} sizes", flush=True)

    for model in wl.ISOM_MODELS:
        cm = cost_model(model)
        for n in ORACLE_TREE_N:
            brute = min(tree_latency(t, cm) for t in oracles.enumerate_rooted_trees(n - 1, cm.m))
            check(wl.min_ceiling_latency(n, model.l) == brute, f"{model.name} n={n} ceiling vs oracle")
        table = refs["isom_complexity"][model.name] = {}
        for k, count, lo, hi in wl.ISOM_STRATA:
            if wl.ISOM_MODELS[k] != model:
                continue
            for n in wl.stratum_sizes(count, lo, hi):
                got = uniform.synthesize_min_latency(n, cm)
                check(got.latency == wl.min_ceiling_latency(n, model.l), f"{model.name} n={n} ceiling")
                table[str(n)] = str(structure.complexity(got.structure, cm))
        print(f"{model.name}: {len(table)} sizes", flush=True)

    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {wl.REFS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
