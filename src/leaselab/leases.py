"""Lease catalogs and slot-aligned triplets under the interval model.

Leases of duration d may only start at multiples of d, durations are powers
of two, and longer leases cost no more per unit of time. A purchase is a
triplet (node, lease index, aligned start) active on the half-open window
[start, start + duration).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Tuple, Union

from .errors import InstanceError

CostLike = Union[int, str, float, Fraction]
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# a cost's numerator and denominator stay under 10^1000, so that sums of costs
# still print within CPython's 4300-digit int/str limit
COST_BITS = math.ceil(1000 * math.log2(10))


def as_cost(value: CostLike) -> Fraction:
    """Parse a cost into an exact rational.

    Floats are read through their decimal repr, so 1.5 from a JSON file
    means exactly 3/2. A bool raises ValueError, though Fraction(True) is 1.
    Text with an exponent past CPython's 4300-digit int/str limit raises
    ValueError: Fraction would build that power of ten in full.
    So does a numerator or denominator past COST_BITS bits (about 1000 digits).
    """
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a cost")
    text = str(value) if isinstance(value, float) else value
    exponent = _EXPONENT.search(text) if isinstance(text, str) else None
    if exponent and abs(int(exponent[1])) > 4300:
        raise ValueError(f"cost exponent {exponent[1]} is past 4300 digits")
    cost = Fraction(text)
    if max(cost.numerator.bit_length(), cost.denominator.bit_length()) > COST_BITS:
        raise ValueError(f"a cost's numerator or denominator is past {COST_BITS} bits")
    return cost


def cost_sum(costs: Iterable[Fraction]) -> Fraction:
    """The exact sum as one Fraction: numerator·(lcm // denominator) added over the running lcm."""
    total, scale = 0, 1
    for cost in costs:
        d = cost.denominator
        if scale % d:
            grown = math.lcm(scale, d)
            total *= grown // scale
            scale = grown
        total += cost.numerator * (scale // d)
    return Fraction(total, scale)


def as_whole(value: object) -> int:
    """Read an integer field: an int, or a float with no fractional part (inf % 1 is nan).
    A bool, text or anything else raises ValueError, so 2.7 and 1e400 are never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


class Triplet(NamedTuple):
    """One purchasable unit: node leased with catalog index ``lease`` from ``start``."""

    node: int
    lease: int
    start: int


@dataclass(frozen=True)
class LeaseType:
    duration: int
    cost: Fraction


@dataclass(frozen=True)
class LeaseCatalog:
    """Lease types by ascending duration; lease i is ``types[i - 1]``, so its index is its
    1-based position. Every catalog is valid by construction: a broken rule or field type
    (an int duration, a Fraction cost) raises an InstanceError naming the first bad lease."""

    types: Tuple[LeaseType, ...]

    def __post_init__(self) -> None:
        types = self.types
        if not isinstance(types, tuple):  # a list would leave the catalog unhashable
            raise InstanceError(f"lease types are a {type(types).__name__}, not a tuple")
        if not types:
            raise InstanceError("catalog has no lease types")
        for i, lt in enumerate(types, 1):
            if not isinstance(lt, LeaseType):
                raise InstanceError(f"lease {i} is a {type(lt).__name__}, not a LeaseType")
            if type(lt.duration) is not int or lt.duration < 1 or lt.duration & (lt.duration - 1):
                raise InstanceError(f"lease {i} has duration {lt.duration!r}")
            if not isinstance(lt.cost, Fraction):  # exact costs only: an int or float is refused
                raise InstanceError(f"lease {i} has cost {lt.cost!r}, not a Fraction")
            if lt.cost <= 0:
                # the multiplicative weight rule divides by the cost
                raise InstanceError(f"lease {i} has cost {lt.cost}")
        for i, (prev, cur) in enumerate(zip(types, types[1:]), 2):
            if cur.duration == prev.duration:
                raise InstanceError(f"leases {i - 1} and {i} share duration {cur.duration}")
            if cur.duration < prev.duration:
                raise InstanceError(f"lease {i} is shorter than lease {i - 1}")
            if cur.cost < prev.cost:
                raise InstanceError(f"lease {i} costs less than lease {i - 1}")
            if cur.cost * prev.duration > prev.cost * cur.duration:
                raise InstanceError(f"lease {i} has higher per-unit cost than lease {i - 1}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, CostLike]]) -> "LeaseCatalog":
        """Build a catalog from (duration, cost) pairs, sorted by duration."""
        ordered = sorted(((as_whole(d), as_cost(c)) for d, c in pairs), key=lambda p: p[0])
        return cls(types=tuple(LeaseType(d, c) for d, c in ordered))

    @cached_property
    def scale(self) -> int:
        """The lcm of the cost denominators: a sum of catalog costs is a whole number of 1/scale."""
        return math.lcm(*(lt.cost.denominator for lt in self.types))

    @cached_property
    def units(self) -> Tuple[int, ...]:
        """In lease order, each cost c_l·scale as an int; units[k] is type k + 1's."""
        return tuple(lt.cost.numerator * (self.scale // lt.cost.denominator) for lt in self.types)

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self) -> Iterator[LeaseType]:
        return iter(self.types)

    def duration(self, index: int) -> int:
        return self.types[index - 1].duration

    def cost(self, index: int) -> Fraction:
        return self.types[index - 1].cost

    def max_duration(self) -> int:
        return self.types[-1].duration

    def slots(self, t: int) -> Tuple[Tuple[int, int], ...]:
        """In lease order, the (lease index, start) of the one window per lease type
        that holds ``t``: the largest start s <= t with s ≡ 0 (mod duration)."""
        if t < 0:
            raise InstanceError(f"time must be nonnegative, got {t}")
        return tuple([(i, t - t % lt.duration) for i, lt in enumerate(self.types, 1)])

    def triplet_at(self, node: int, index: int, t: int) -> Triplet:
        """The unique triplet of this lease type on ``node`` whose window contains ``t``:
        its start is that of ``slots(t)`` for this one type."""
        if t < 0:
            raise InstanceError(f"time must be nonnegative, got {t}")
        # built positionally, skipping the NamedTuple's Python-level __new__
        return tuple.__new__(Triplet, (node, index, t - t % self.types[index - 1].duration))
