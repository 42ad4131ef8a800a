"""In-memory spans around mpsynth's public functions, and the per-layer
metrics derived from them.

:meth:`Tracer.install` replaces every public function of the layer
modules with a wrapper under each module attribute that held it, so a
caller that looks the name up (``mpsynth.cli.synthesize_star``,
``mpsynth.uniform.prune``, ``mpsynth.structure.canonical_keys`` from
inside ``structure``) goes through the wrapper, internal calls included.
No file of the program changes; :meth:`Tracer.uninstall` puts the
originals back.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``request`` the id of the
request being served.  A layer's self time is its span time minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

LAYERS = ("costs", "staropt", "startree", "uniform", "structure", "oracles", "drt", "cli")

Span = tuple[str, float, float, int, int]


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children[i]) for i, (_, start, end, _, _) in enumerate(spans)]


def outermost(spans: list[Span], name: str) -> list[int]:
    """Indices of the spans named ``name`` with no ancestor of that name,
    so a recursive function's time is counted once."""
    out = []
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


class Tracer:
    """Wraps the layer modules of an imported ``mpsynth`` package."""

    def __init__(self, package: types.ModuleType) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- hooks that turn results into counts -------------------------------

    def _hooks(self) -> dict[str, Callable[[tuple, object], None]]:
        c = self.counts

        def forest(args, table):
            c["staropt.forest_tables"] += 1
            c["staropt.forest_cells"] += len(table.values)

        def build(args, dag):
            c["structure.nodes"] += dag.node_count

        def emit(args, result):
            c["structure.emitted"] += 1

        return {
            "staropt.min_star_complexity": lambda a, r: c.update({"staropt.complexity_ops": r.ops}),
            "staropt.optimal_degree_vectors": lambda a, r: c.update({"staropt.optima": len(r)}),
            "staropt.forest_latency_table": forest,
            "uniform.synthesize_min_latency": lambda a, r: c.update(
                {"uniform.overprovision": r.n_prime - a[0]}
            ),
            "structure.prune": lambda a, r: c.update({"structure.prune_actions": len(r.actions)}),
            "structure.canonical_keys": lambda a, r: c.update(
                {"structure.key_chars": sum(map(len, r))}
            ),
            "structure.dumps": lambda a, r: c.update({"structure.json_bytes": len(r)}),
            "oracles.enumerate_star_trees": lambda a, r: c.update({"oracles.star_trees": len(r)}),
            "oracles.enumerate_rooted_trees": lambda a, r: c.update(
                {"oracles.rooted_trees": len(r)}
            ),
            "oracles.verify_report": lambda a, r: c.update({"oracles.checks": len(r.checks)}),
            "structure.DagBuilder.build": build,
            "structure.DagBuilder.emit": emit,
        }

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, hook) -> Callable:
        spans, stack, errors = self.spans, self._stack, self.errors
        cli_main = name == "cli.main"

        def wrapper(*args, **kwargs):
            label = name
            if cli_main:
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0]}" if argv else name
            idx = len(spans)
            spans.append((label, 0.0, 0.0, stack[-1] if stack else -1, self.request))
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[label] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, spans[idx][3], spans[idx][4])
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @staticmethod
    def _hook_wrapper(fn: Callable, hook) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.package.__name__
        loaded = [
            mod for key, mod in sys.modules.items() if key == pkg or key.startswith(pkg + ".")
        ]
        hooks = self._hooks()
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._span_wrapper(name, fn, hooks.get(name))
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapped)
        # Builder calls are far too many for spans: count them instead.
        builder = sys.modules[f"{pkg}.structure"].DagBuilder
        for method in ("input", "op", "output"):
            self._set(
                builder, method, self._hook_wrapper(getattr(builder, method), hooks["structure.DagBuilder.emit"])
            )
        self._set(builder, "build", self._hook_wrapper(builder.build, hooks["structure.DagBuilder.build"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# Times are seconds per traced round.
TIME_METRICS = (
    "costs.load_cost_model.s",
    "staropt.min_star_complexity.s",
    "staropt.optimal_degree_vectors.s",
    "staropt.forest_latency_table.s",
    "staropt.min_star_latency.self_s",
    "staropt.synthesize_star.self_s",
    "startree.structure_from_star_tree.s",
    "uniform.structure_from_uniform_tree.s",
    "uniform.synthesize_min_latency.self_s",
    "structure.prune.s",
    "structure.validate.s",
    "structure.canonical_keys.s",
    "structure.complexity.s",
    "structure.latency.s",
    "structure.dumps.s",
    "structure.to_dot.s",
    "structure.loads.s",
    "cli.synthesize.self_s",
    "cli.validate.self_s",
    "cli.eval.self_s",
    "cli.verify.self_s",
    "oracles.verify_report.self_s",
    "oracles.enumerate_star_trees.s",
    "oracles.enumerate_rooted_trees.s",
    "oracles.min_labeling_complexity.s",
    "drt.tree_latency.s",
)

# Counts that must repeat exactly between two traced rounds at one seed.
EXACT_COUNTS = (
    "staropt.complexity_ops",
    "staropt.optima",
    "staropt.forest_cells",
    "structure.emitted",
    "structure.nodes",
    "structure.key_chars",
    "structure.prune_actions",
    "structure.json_bytes",
    "oracles.star_trees",
    "oracles.rooted_trees",
    "oracles.checks",
)

OTHER_COUNTS = (
    "staropt.forest_tables",
    "uniform.overprovision",
    "structure.canonical_keys.calls",
    "drt.tree_latency.calls",
)

# Exceptions raised through these functions (the RecursionError of the
# known defect passes through all four of the star path).
ERROR_METRICS = (
    "cli.synthesize.errors",
    "cli.validate.errors",
    "cli.eval.errors",
    "cli.verify.errors",
    "staropt.synthesize_star.errors",
    "staropt.optimal_degree_vectors.errors",
    "staropt.min_star_latency.errors",
    "startree.structure_from_star_tree.errors",
    "uniform.synthesize_min_latency.errors",
    "structure.validate.errors",
    "oracles.verify_report.errors",
)


def layer_counts(spans: list[Span], counts: Counter) -> dict[str, int]:
    """Counts of one round: the tracer's counters plus span-derived calls."""
    out = {name: counts.get(name, 0) for name in EXACT_COUNTS + OTHER_COUNTS}
    calls = Counter(span[0] for span in spans)
    out["structure.canonical_keys.calls"] = calls["structure.canonical_keys"]
    out["drt.tree_latency.calls"] = calls["drt.tree_latency"]
    return out


CLI_COMMANDS = ("synthesize", "validate", "eval", "verify")


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per time metric over ``spans``, plus the self time of each
    layer (``<layer>.self_s``) and the span time of each CLI command
    (``cli.<command>.s``), the base of every layer's share."""
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for t, span in zip(selfs, spans):
        out[f"{span[0].partition('.')[0]}.self_s"] += t
    for command in CLI_COMMANDS:
        name = f"cli.{command}"
        out[f"{name}.s"] = sum(spans[i][2] - spans[i][1] for i in outermost(spans, name))
    for metric in TIME_METRICS:
        name, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = sum(t for t, span in zip(selfs, spans) if span[0] == name)
        else:
            out[metric] = sum(spans[i][2] - spans[i][1] for i in outermost(spans, name))
    return out


def command_shares(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time per layer inside each CLI command, as a share of the
    command's span time: where the time of ``synthesize`` (say) goes."""
    selfs = self_times(spans)
    top: list[int] = []
    for i, span in enumerate(spans):
        top.append(i if span[3] < 0 else top[span[3]])
    shares: dict[str, dict[str, float]] = {}
    for i, (t, span) in enumerate(zip(selfs, spans)):
        command = spans[top[i]][0]
        layer = span[0].partition(".")[0]
        shares.setdefault(command, Counter())[layer] += t
    for command, by_layer in shares.items():
        total = sum(by_layer.values())
        shares[command] = {layer: t / total for layer, t in by_layer.most_common()}
    return shares


def layer_errors(errors: Counter) -> dict[str, int]:
    return {metric: errors.get(metric.rpartition(".")[0], 0) for metric in ERROR_METRICS}
