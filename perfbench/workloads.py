"""Seeded request generation and reference values for the two workloads.

A *request* is what one user of mpsynth does in one go:
``synthesize <mode> N --costs F --out D [--prune]`` followed by
``validate D/structure.json`` and ``eval D/structure.json --costs F``;
a verify request also runs ``verify N --costs F``.  Each workload is a
fixed list of requests (one *round*) made from ``--seed``; the same seed
always gives the same list.  A workload joins two parts: ``ties-verify``
the small-n star-ties and verify requests, ``chain-isom`` the large-n
star-chain and isom-prune ones.

Sizes are fixed: the workload's size range is cut into equal strata in
log space and each stratum contributes its centre, rounded.  A run's
median is the time of the few requests in the middle of the round, so
any seed-drawn size moves it: independent draws over the range moved it
by more than the benchmark's bound, and sizes jittered by 3 % within
their stratum still by up to 13 % between seeds.  The seed draws what
leaves the amount of work alone: the latency factors (star-chain,
star-ties, verify) and the order of the requests.

Reference values never come from the function under test.  They are
either computed here by independent code (the complexity knapsack, the
closed-form latency of binary star trees, the ceiling recursion of
latency-first synthesis) or read from ``refs.json``, which holds values
recorded at the commit that defined the benchmark and cross-checked
against ``mpsynth.oracles`` where the oracles can reach (``make_refs.py``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

# n = 1000 on this model raises RecursionError in optimal_degree_vectors,
# whose backtrack recurses once per size; star-chain keeps the request so
# the defect shows until it is fixed.
KNOWN_DEFECT_N = 1000


@dataclass(frozen=True)
class Model:
    """A cost model as written to the program's ``--costs`` file."""

    name: str
    m: int
    c: tuple[Fraction, ...]  # factors for fan-in 2..m
    l: tuple[Fraction, ...]

    def to_json(self) -> str:
        def fmt(x: Fraction) -> int | str:
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return json.dumps({"m": self.m, "c": [fmt(x) for x in self.c], "l": [fmt(x) for x in self.l]})


@dataclass(frozen=True)
class Request:
    """One request of a round.  ``kind`` is ``star``, ``isom`` (with
    ``--prune``) or ``verify`` (a star synthesis, then ``verify``)."""

    rid: str
    kind: str
    n: int
    model: Model


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]

    @property
    def models(self) -> tuple[Model, ...]:
        seen: dict[str, Model] = {}
        for r in self.requests:
            seen.setdefault(r.model.name, r.model)
        return tuple(seen.values())


def F(*xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


# ---------------------------------------------------------------------------
# cost models

# Complexity first, one optimal degree vector each (every internal star-tree
# node has degree 3).  The seed draws l; only l[2] reaches the result.
CHAIN_C = {2: F(1), 3: F(1, 2), 6: F(1, 2, 3, 4, 5)}

# Complexity first, degree classes that tie per leaf: many optimal degree
# vectors, one forest-latency table each.  l is one of a fixed family, so
# refs.json can hold the exact latency for every (model, variant, n).
TIES_C = {3: F(1, "3/2"), 4: F(1, "3/2", 2), 6: F(1, "3/2", "9/5", 2, "15/7")}
TIES_L = {
    3: (F(1, "3/2"), F(1, "5/3"), F("2/3", 1), F("3/4", "5/4")),
    4: (F(1, "3/2", 2), F(1, "4/3", "5/3"), F("1/2", 1, "3/2"), F("2/3", "5/6", "7/6")),
    6: (
        F(1, "3/2", "9/5", 2, "15/7"),
        F(1, "5/4", "3/2", "7/4", 2),
        F("1/2", "2/3", 1, "4/3", "3/2"),
        F("3/4", 1, "5/4", "3/2", "7/4"),
    ),
}

# Latency first, integer and rational l; fixed, so refs.json can hold the
# complexity recorded for every size the family uses.
ISOM_MODELS = (
    Model("iso2", 2, F(1), F(1)),
    Model("iso3", 3, F(1, 2), F(1, "3/2")),
    Model("iso4", 4, F(1, "3/2", 2), F(2, 3, 3)),
    Model("iso6", 6, F(1, 2, 3, 4, 5), F(1, "4/3", "5/3", 2, "7/3")),
)

# ---------------------------------------------------------------------------
# size strata: (model key, number of strata, lo, hi) per family

# m = 6 stops at 160: at 224 its largest sizes took 4-5x the round's median
# and alone made the tail, a few executions of one request per run
CHAIN_STRATA = ((2, 13, 60, 224), (3, 13, 60, 224), (6, 13, 60, 160))
TIES_STRATA = ((3, 14, 16, 34), (4, 14, 14, 28), (6, 12, 8, 16))
ISOM_STRATA = ((0, 10, 96, 256), (1, 10, 96, 256), (2, 10, 96, 256), (3, 10, 96, 256))
VERIFY_SIZES = tuple(range(5, 13))
# verify runs on three of the models above: with 24 verify requests to the
# 40 star-ties ones, the median synthesize time (a few ms on verify, 13 ms
# and more on star-ties) lies inside the star-ties ones, not in the gap
VERIFY_MODELS = (("chain3", 3, CHAIN_C[3]), ("ties3", 3, TIES_C[3]), ("ties4", 4, TIES_C[4]))

WORKLOAD_NAMES = ("ties-verify", "chain-isom")


def stratum_sizes(count: int, lo: int, hi: int) -> list[int]:
    """The rounded centres of ``count`` equal strata of [lo, hi] in log space."""
    step = math.log(hi / lo) / count
    return [round(lo * math.exp((k + 0.5) * step)) for k in range(count)]


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A non-integer rational in (lo, hi) with denominator 2, 3 or 4."""
    q = rng.choice((2, 3, 4))
    p = rng.randrange(lo * q + 1, hi * q)
    while p % q == 0:
        p = rng.randrange(lo * q + 1, hi * q)
    return Fraction(p, q)


def _increasing_l(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    l = [_rational(rng, 1, 4)]
    for _ in range(m - 2):
        l.append(l[-1] + Fraction(rng.randrange(0, 4), rng.choice((2, 3))))
    return tuple(l)


def _star_chain(rng: random.Random) -> list[Request]:
    models = {m: Model(f"chain{m}", m, c, _increasing_l(rng, m)) for m, c in CHAIN_C.items()}
    reqs = [
        Request(f"star-{models[m].name}-{n}", "star", n, models[m])
        for m, count, lo, hi in CHAIN_STRATA
        for n in stratum_sizes(count, lo, hi)
    ]
    reqs.append(Request(f"star-chain3-{KNOWN_DEFECT_N}", "star", KNOWN_DEFECT_N, models[3]))
    return reqs


def _star_ties(rng: random.Random) -> list[Request]:
    reqs = []
    for m, count, lo, hi in TIES_STRATA:
        # neighbouring strata take the next l variant, so two strata
        # that round to one size still make two distinct requests
        first = rng.randrange(len(TIES_L[m]))
        for k, n in enumerate(stratum_sizes(count, lo, hi)):
            v = (first + k) % len(TIES_L[m])
            model = Model(f"ties{m}v{v}", m, TIES_C[m], TIES_L[m][v])
            reqs.append(Request(f"star-{model.name}-{n}", "star", n, model))
    return reqs


def _isom_prune() -> list[Request]:
    # the models are fixed so refs.json can hold their complexities
    return [
        Request(f"isom-{ISOM_MODELS[k].name}-{n}", "isom", n, ISOM_MODELS[k])
        for k, count, lo, hi in ISOM_STRATA
        for n in stratum_sizes(count, lo, hi)
    ]


def _verify(rng: random.Random) -> list[Request]:
    reqs = []
    for label, m, c in VERIFY_MODELS:
        model = Model(f"v{label}", m, c, _increasing_l(rng, m))
        for n in VERIFY_SIZES:
            reqs.append(Request(f"verify-{model.name}-{n}", "verify", n, model))
    return reqs


def make_workload(name: str, seed: int) -> Workload:
    """The round of requests of workload ``name`` at ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ties-verify":
        reqs = _star_ties(rng) + _verify(rng)
    elif name == "chain-isom":
        reqs = _star_chain(rng) + _isom_prune()
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    return Workload(name, tuple(reqs))


# ---------------------------------------------------------------------------
# references computed here, independently of mpsynth


def min_complexity(n: int, m: int, c: tuple[Fraction, ...]) -> Fraction:
    """Least star-structure complexity: unbounded knapsack over degree
    classes t = 1..m-1, class t buying t leaves for (t + 2) * c[t + 1]."""
    best = [Fraction(0)] * (n + 1)
    for size in range(3, n + 1):
        best[size] = min(
            best[size - t] + (t + 2) * c[t - 1] for t in range(1, m) if size - t >= 2
        )
    return best[n]


def min_binary_star_latency(n: int, l2: Fraction) -> Fraction:
    """Least latency of a structure induced by a star tree whose internal
    nodes all have degree 3.  Output y_j sees every internal node on the
    path from leaf j to the farthest leaf, so the latency is
    l2 * (diameter - 1).  A cubic tree of diameter 2r has at most
    3 * 2**(r-1) leaves and one of diameter 2r+1 at most 2**(r+1); any
    smaller leaf count fits, so the least diameter is the first that fits n."""
    d = 2
    while (3 * 2 ** (d // 2 - 1) if d % 2 == 0 else 2 ** (d // 2 + 1)) < n:
        d += 1
    return l2 * (d - 1)


def min_ceiling_latency(n: int, l: tuple[Fraction, ...]) -> Fraction:
    """Latency-first lower bound: lat(k) = min_t l[t] + lat(ceil(k / t))
    over fan-in t in 2..m, evaluated at k = n - 1 (bottom-up)."""
    m = len(l) + 1
    memo: dict[int, Fraction] = {1: Fraction(0)}
    pending = [n - 1]
    while pending:
        k = pending[-1]
        missing = [-(-k // t) for t in range(2, m + 1) if -(-k // t) not in memo]
        if missing:
            pending.extend(missing)
            continue
        pending.pop()
        memo[k] = min(l[t - 2] + memo[-(-k // t)] for t in range(2, m + 1))
    return memo[n - 1]


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="ascii"))


def reference(req: Request, refs: dict) -> tuple[Fraction, Fraction, bool]:
    """(complexity, latency, complexity_is_ceiling) expected of ``req``.

    For isom the recorded complexity is a ceiling: a later commit may
    build a cheaper structure of the same latency, never a dearer one."""
    model = req.model
    if req.kind == "isom":
        recorded = Fraction(refs["isom_complexity"][model.name][str(req.n)])
        return recorded, min_ceiling_latency(req.n, model.l), True
    cplx = min_complexity(req.n, model.m, model.c)
    if model.name.startswith("ties"):
        return cplx, Fraction(refs["ties_latency"][model.name][str(req.n)]), False
    return cplx, min_binary_star_latency(req.n, model.l[0]), False
