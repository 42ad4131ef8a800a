"""mpsynth: cost-optimal multi-input computation structures.

A node in a message-passing algorithm turns incoming messages
``x_1..x_n`` into outgoing messages ``y_1..y_n``, where ``y_j`` is
computed over every input except ``x_j``.  This package synthesizes the
DAGs that carry out all n computations with shared subtrees, optimally
under a user-supplied per-fan-in cost model:

* complexity-first: star-tree-based structures
  (:func:`mpsynth.staropt.synthesize_star`),
* latency-first: uniform-replicated-tree structures, an over-provisioned
  shape built directly at n (:func:`mpsynth.uniform.synthesize_min_latency`),

and every optimizer result is reproducible by the brute-force oracles
in :mod:`mpsynth.oracles`.

The package namespace holds what the command line and the README's
library example use; everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .costs import CostModel, CostModelError, format_rational, load_cost_model
from .oracles import DEFAULT_BUDGET, EnumerationBudget, verify_report
from .staropt import synthesize_star
from .structure import Dag, complexity, dumps, latency, loads, to_dot, validate
from .uniform import synthesize_min_latency

__all__ = [
    "CostModel",
    "CostModelError",
    "DEFAULT_BUDGET",
    "Dag",
    "EnumerationBudget",
    "complexity",
    "dumps",
    "format_rational",
    "latency",
    "load_cost_model",
    "loads",
    "synthesize_min_latency",
    "synthesize_star",
    "to_dot",
    "validate",
    "verify_report",
]
