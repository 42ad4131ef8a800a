"""mpsynth: cost-optimal multi-input computation structures.

A node in a message-passing algorithm turns incoming messages
``x_1..x_n`` into outgoing messages ``y_1..y_n``, where ``y_j`` is
computed over every input except ``x_j``.  This package synthesizes the
DAGs that carry out all n computations with shared subtrees, optimally
under a user-supplied per-fan-in cost model:

* complexity-first: star-tree-based structures
  (:func:`mpsynth.staropt.synthesize_star`),
* latency-first: uniform-replicated-tree structures, over-provisioned
  and pruned (:func:`mpsynth.uniform.synthesize_min_latency`),

and every optimizer result is reproducible by the brute-force oracles
in :mod:`mpsynth.oracles`.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .costs import CostModel, CostModelError, format_rational, load_cost_model
from .structure import (
    Dag,
    DagBuilder,
    PruneResult,
    ValidationReport,
    canonical_key,
    canonical_keys,
    complexity,
    dumps,
    from_json_dict,
    latency,
    loads,
    prune,
    signature,
    to_dot,
    to_json_dict,
    union,
    validate,
    wire_structure,
)
from .startree import (
    StarTree,
    balanced_edge_split,
    degree_vector_of,
    feasible_input_size,
    star_complexity,
    star_tree_from_degree_vector,
    star_tree_latency,
    structure_from_star_tree,
)
from .staropt import (
    ComplexityTable,
    ForestLatencyTable,
    StarLatencyResult,
    StarSynthesis,
    forest_latency_table,
    min_star_complexity,
    min_star_latency,
    optimal_degree_vectors,
    synthesize_star,
)
from .uniform import (
    PrunedSynthesis,
    UniformLatencyResult,
    UniformTree,
    ascending_labeling,
    consecutive_labeling,
    min_uniform_latency,
    structure_from_uniform_tree,
    synthesize_min_latency,
    type_vector_latency,
    type_vector_of,
    uniform_tree_from_type_vector,
)
from .oracles import (
    EnumerationBudget,
    VerifyReport,
    enumerate_degree_vectors,
    enumerate_rooted_trees,
    enumerate_star_trees,
    enumerate_type_vectors,
    oracle_star_tree_latency,
    oracle_structure_latency,
    verify_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
