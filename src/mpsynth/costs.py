"""Fan-in indexed hardware cost model.

A :class:`CostModel` assigns every fan-in ``i`` in ``0..m`` an exact
rational complexity factor ``c[i]`` and latency factor ``l[i]``.  An
``i``-input computation node costs ``c[i]`` area-ish units and adds
``l[i]`` to any path through it.  Zero- and one-input "nodes" (sources
and wires) are free, and wider nodes never cost less than narrower
ones.

Factors are :class:`fractions.Fraction` throughout so that every
optimizer comparison and every test assertion is exact; no float
tolerance exists anywhere in this package.  Hot loops read them as ints
scaled by one LCM per sequence (:attr:`CostModel.scaled_l`, ``scaled_c``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable


class CostModelError(ValueError):
    """A cost model config violates the schema or an invariant."""


# Each factor sequence, over the LCM of its denominators, stays below
# 10**_MAX_DIGITS: far inside the 4300 digits Python prints an int with,
# so every complexity and latency derived from a model prints too.
_MAX_DIGITS = 1000
_BOUND = 10**_MAX_DIGITS


def _too_long(text: str) -> bool:
    """Whether the rational ``text`` spells is written with more than
    ``_MAX_DIGITS`` digits in ``p`` or ``q`` of ``p/q``, or in a decimal
    counting its exponent; read without building the number
    ("1e-10000000" has a ten-million-digit denominator)."""
    mantissa, _, exponent = text.lower().partition("e")
    if not exponent and len(text) <= _MAX_DIGITS:
        return False
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if len(exponent) > len(str(_MAX_DIGITS)):
        return True
    shift = int(exponent) if exponent.isdecimal() else 0
    digits = max(sum(map(str.isdecimal, part)) for part in mantissa.split("/"))
    return digits + shift > _MAX_DIGITS


def _json_number(text: str) -> int | Fraction | str:
    """A JSON number, exactly; one too long to read stays text, which
    :func:`_as_fraction` then refuses under its field's name."""
    if _too_long(text):
        return text
    return int(text) if text.lstrip("-").isdecimal() else Fraction(text)


def _as_fraction(value: object, field: str) -> Fraction:
    if isinstance(value, bool):
        raise CostModelError(f"{field}: expected a rational, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        # Exact decimal reading, not the binary float expansion.
        value = str(value)
    if isinstance(value, str):
        if _too_long(value):
            raise CostModelError(f"{field}: more than {_MAX_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CostModelError(f"{field}: cannot parse rational {value!r}") from exc
    raise CostModelError(
        f"{field}: expected an int, decimal, or 'p/q' string, got {type(value).__name__}"
    )


def _scaled(seq: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """``seq`` times ``scale``, the LCM of its denominators, as ints."""
    scale = lcm(*(x.denominator for x in seq))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in seq)


def _format_rational(x: Fraction) -> int | str:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class CostModel:
    """Per-fan-in complexity and latency factors, indices ``0..m``.

    Invariants (checked on construction):

    * ``m >= 2``
    * ``c[0] == c[1] == l[0] == l[1] == 0``
    * both sequences non-negative and non-decreasing

    Instances are immutable and safe to share across threads.
    """

    m: int
    c: tuple[Fraction, ...]
    l: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 2:
            raise CostModelError(f"m: must be an integer >= 2, got {self.m!r}")
        for name, seq in (("c", self.c), ("l", self.l)):
            if len(seq) != self.m + 1:
                raise CostModelError(
                    f"{name}: expected {self.m + 1} factors (indices 0..{self.m}),"
                    f" got {len(seq)}"
                )
            for i in (0, 1):
                if seq[i] != 0:
                    raise CostModelError(f"{name}[{i}]: must be 0, got {seq[i]}")
            for i, x in enumerate(seq):
                if x < 0:
                    raise CostModelError(f"{name}[{i}]: negative factor {x}")
            for i in range(self.m):
                if seq[i] > seq[i + 1]:
                    raise CostModelError(
                        f"{name}[{i + 1}]: monotonicity violated at"
                        f" {name}[{i + 1}] = {seq[i + 1]} < {name}[{i}] = {seq[i]}"
                    )
            scale, ints = getattr(self, f"scaled_{name}")
            if max(scale, ints[-1]) >= _BOUND:
                raise CostModelError(
                    f"{name}: needs more than {_MAX_DIGITS} digits over the LCM of its denominators"
                )

    @cached_property
    def scaled_l(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, ints)``: ``l[i] == Fraction(ints[i], scale)``."""
        return _scaled(self.l)

    @cached_property
    def scaled_c(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, ints)``: ``c[i] == Fraction(ints[i], scale)``."""
        return _scaled(self.c)

    @classmethod
    def from_factors(
        cls,
        m: int,
        c: Iterable[object],
        l: Iterable[object],
    ) -> "CostModel":
        """Build a model from factor sequences.

        Each sequence may cover indices ``0..m`` in full or only
        ``2..m`` (the two leading zeros are implied).  Entries may be
        ints, Fractions, decimal floats, or ``"p/q"`` strings.
        """
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            raise CostModelError(f"m: must be an integer >= 2, got {m!r}")
        out = {}
        for name, seq in (("c", list(c)), ("l", list(l))):
            if len(seq) == m - 1:
                seq = [0, 0] + seq
            elif len(seq) != m + 1:
                raise CostModelError(
                    f"{name}: expected {m + 1} factors (indices 0..{m})"
                    f" or {m - 1} factors (indices 2..{m}), got {len(seq)}"
                )
            out[name] = tuple(_as_fraction(x, f"{name}[{i}]") for i, x in enumerate(seq))
        return cls(m=m, c=out["c"], l=out["l"])

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "c": [_format_rational(x) for x in self.c],
            "l": [_format_rational(x) for x in self.l],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content hash of the parsed model (stable across input spellings)."""
        return hashlib.sha256(self.dumps().encode("ascii")).hexdigest()


def load_cost_model(source: bytes | str) -> CostModel:
    """Parse a JSON cost-model config.

    Schema: ``{"m": int, "c": [...], "l": [...]}`` where each array
    holds rationals (int, decimal, or ``"p/q"`` string) covering either
    indices ``0..m`` or ``2..m``.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        raw = json.loads(source, parse_int=_json_number, parse_float=_json_number)
    except json.JSONDecodeError as exc:
        raise CostModelError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CostModelError(f"config is nested too deeply: {exc}") from exc
    if not isinstance(raw, dict):
        raise CostModelError("config: expected a JSON object")
    for key in ("m", "c", "l"):
        if key not in raw:
            raise CostModelError(f"{key}: missing required field")
    m = raw["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise CostModelError(f"m: must be an integer, got {m!r}")
    for key in ("c", "l"):
        if not isinstance(raw[key], list):
            raise CostModelError(f"{key}: expected an array of rationals")
    return CostModel.from_factors(m, raw["c"], raw["l"])


def format_rational(x: Fraction) -> str:
    """Render exactly: integers bare, otherwise ``p/q``."""
    return str(_format_rational(x))
