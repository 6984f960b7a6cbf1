"""Monotone binary update rules on finite neighborhoods.

A rule maps the spins (-1/+1) found at a fixed set of integer offsets to a new
spin, via an explicit truth table over all 2^R local configurations.  Local
configurations are encoded as integers: bit i set means spin +1 at the i-th
neighborhood offset.  The module validates monotonicity and non-constancy,
extracts the inclusion-minimal "plus sets" (subsets of the neighborhood on
which all-plus forces output +1), and ships the standard built-in rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import RuleValidationError

PLUS = 1
MINUS = -1

# Explicit truth tables become unwieldy past this neighborhood size.
MAX_NEIGHBORHOOD = 20

Offset = tuple[int, ...]


def _bit_to_spin(b: int) -> int:
    return PLUS if b else MINUS


@dataclass(frozen=True)
class RuleSpec:
    """A binary update rule: dimension, neighborhood offsets, truth table.

    ``table[cfg]`` is 1 (spin +1) or 0 (spin -1) for the local configuration
    encoded by ``cfg``.  Construction validates shapes only; monotonicity and
    non-constancy are checked by :func:`check_monotone` so that invalid tables
    can still be inspected.
    """

    dimension: int
    neighborhood: tuple[Offset, ...]
    table: np.ndarray = field(repr=False)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise RuleValidationError("dimension must be >= 1")
        offsets = tuple(tuple(int(c) for c in u) for u in self.neighborhood)
        if len(offsets) < 1:
            raise RuleValidationError("neighborhood must contain at least one offset")
        if len(offsets) > MAX_NEIGHBORHOOD:
            raise RuleValidationError(
                f"neighborhood size {len(offsets)} exceeds cap {MAX_NEIGHBORHOOD}"
            )
        if len(set(offsets)) != len(offsets):
            raise RuleValidationError("neighborhood offsets must be distinct")
        for u in offsets:
            if len(u) != self.dimension:
                raise RuleValidationError(
                    f"offset {u} does not match dimension {self.dimension}"
                )
        object.__setattr__(self, "neighborhood", offsets)
        table = np.asarray(self.table, dtype=np.uint8)
        if table.shape != (1 << len(offsets),):
            raise RuleValidationError(
                f"table must have length 2^{len(offsets)}, got {table.shape}"
            )
        if not np.all((table == 0) | (table == 1)):
            raise RuleValidationError("table entries must be 0/1 bits")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def size(self) -> int:
        """Number of neighborhood offsets (R)."""
        return len(self.neighborhood)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleSpec):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.neighborhood == other.neighborhood
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash((self.dimension, self.neighborhood, self.table.tobytes()))


@dataclass(frozen=True)
class PlusSetFamily:
    """The inclusion-minimal plus sets of a rule, as index tuples into its neighborhood."""

    dimension: int
    offsets: tuple[Offset, ...]
    sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MonotoneReport:
    """Outcome of the exhaustive monotonicity / non-constancy scan."""

    monotone: bool
    constant: Optional[int]  # +1/-1 if the table is constant, else None
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]  # (lo, hi) spins

    @property
    def ok(self) -> bool:
        return self.monotone and self.constant is None


def decode(cfg: int, size: int) -> tuple[int, ...]:
    """Spins of local configuration ``cfg`` on ``size`` offsets: bit i set is +1 at offset i."""
    return tuple(_bit_to_spin((cfg >> i) & 1) for i in range(size))


def check_monotone(rule: RuleSpec) -> MonotoneReport:
    """Scan all single-spin raises of all 2^R configurations for monotonicity.

    The scan is the definition: the rule is monotone iff no configuration pair
    (lo <= hi differing in one raised spin) has table[lo] > table[hi].
    """
    table = rule.table
    n = table.shape[0]
    cfgs = np.arange(n, dtype=np.uint32)
    witness = None
    for i in range(rule.size):
        bit = np.uint32(1 << i)
        lo = cfgs[(cfgs & bit) == 0]
        bad = table[lo] > table[lo | bit]
        if bad.any():
            c = int(lo[np.argmax(bad)])
            witness = (decode(c, rule.size), decode(c | int(bit), rule.size))
            break
    constant = None
    if table.min() == table.max():
        constant = _bit_to_spin(int(table[0]))
    return MonotoneReport(monotone=witness is None, constant=constant, witness=witness)


def _require_valid(rule: RuleSpec) -> None:
    report = check_monotone(rule)
    if not report.monotone:
        raise RuleValidationError(f"rule is not monotone, witness {report.witness}")
    if report.constant is not None:
        raise RuleValidationError(f"rule is constant ({report.constant:+d})")


def minimal_plus_sets(rule: RuleSpec) -> PlusSetFamily:
    """Enumerate the inclusion-minimal plus sets of a monotone non-constant rule.

    By monotonicity a subset Z of the neighborhood is a plus set iff the
    configuration with +1 exactly on Z maps to +1, and it is minimal iff
    dropping any single element breaks that.  Sets are returned in canonical
    order: sorted lexicographically by their sorted offset-index tuples.
    """
    _require_valid(rule)
    table = rule.table.astype(bool)
    n = table.shape[0]
    cfgs = np.arange(n, dtype=np.uint32)
    minimal = table.copy()
    for i in range(rule.size):
        bit = np.uint32(1 << i)
        has = (cfgs & bit) != 0
        minimal[has] &= ~table[cfgs[has] ^ bit]
    masks = np.flatnonzero(minimal)
    sets = tuple(
        tuple(i for i in range(rule.size) if (int(m) >> i) & 1) for m in masks
    )
    sets = tuple(sorted(sets))
    return PlusSetFamily(dimension=rule.dimension, offsets=rule.neighborhood, sets=sets)


def monotone_closure(size: int, seed_masks: Sequence[int]) -> np.ndarray:
    """Truth table of the minimal monotone function that is +1 on the given masks."""
    table = np.zeros(1 << size, dtype=np.uint8)
    for m in seed_masks:
        if not 0 <= m < (1 << size):
            raise RuleValidationError(f"plus-set mask {m} out of range for R={size}")
        table[m] = 1
    cfgs = np.arange(1 << size, dtype=np.uint32)
    for i in range(size):
        bit = np.uint32(1 << i)
        has = (cfgs & bit) != 0
        table[has] |= table[cfgs[has] ^ bit]
    return table


_MAJORITY3 = np.array([0, 0, 0, 1, 0, 1, 1, 1], dtype=np.uint8)

_BUILTINS = {
    # percolation rule: output -1 only when both tracked spins are -1
    "stavskaya": lambda: RuleSpec(
        dimension=1,
        neighborhood=((0,), (1,)),
        table=np.array([0, 1, 1, 1], dtype=np.uint8),
        name="stavskaya",
    ),
    # two-dimensional majority vote over center, east, north
    "nec": lambda: RuleSpec(
        dimension=2,
        neighborhood=((0, 0), (1, 0), (0, 1)),
        table=_MAJORITY3,
        name="nec",
    ),
    # one-dimensional nearest-neighbor majority (not an eroder)
    "majority1d": lambda: RuleSpec(
        dimension=1,
        neighborhood=((-1,), (0,), (1,)),
        table=_MAJORITY3,
        name="majority1d",
    ),
    "identity": lambda: RuleSpec(
        dimension=1,
        neighborhood=((0,),),
        table=np.array([0, 1], dtype=np.uint8),
        name="identity",
    ),
}


BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def rule_from_json(data: dict, name: Optional[str] = None) -> RuleSpec:
    """Parse a rule dict holding either a hex "table" or a "plus_sets" list.

    With "plus_sets" (offset-index lists) the table is completed as the
    minimal monotone extension of the listed sets.
    """
    if not isinstance(data, dict):
        raise RuleValidationError("rule file must hold a JSON object")
    known = {"dimension", "neighborhood", "table", "plus_sets"}
    extra = set(data) - known
    if extra:
        raise RuleValidationError(f"unknown rule fields: {sorted(extra)}")
    try:
        dimension = int(data["dimension"])
        neighborhood = tuple(tuple(int(c) for c in u) for u in data["neighborhood"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RuleValidationError(f"bad rule header: {exc}") from exc
    size = len(neighborhood)
    if "table" in data and "plus_sets" in data:
        raise RuleValidationError("give either 'table' or 'plus_sets', not both")
    if "table" in data:
        try:
            value = int(str(data["table"]), 16)
        except ValueError as exc:
            raise RuleValidationError(f"table is not a hex string: {exc}") from exc
        if value >> (1 << size):
            raise RuleValidationError("table hex string has more than 2^R bits")
        table = np.array([(value >> i) & 1 for i in range(1 << size)], dtype=np.uint8)
    elif "plus_sets" in data:
        masks = []
        for zs in data["plus_sets"]:
            mask = 0
            for j in zs:
                j = int(j)
                if not 0 <= j < size:
                    raise RuleValidationError(f"plus-set index {j} out of range")
                mask |= 1 << j
            masks.append(mask)
        if not masks:
            raise RuleValidationError("'plus_sets' must list at least one set")
        table = monotone_closure(size, masks)
    else:
        raise RuleValidationError("rule needs a 'table' or 'plus_sets' field")
    return RuleSpec(dimension=dimension, neighborhood=neighborhood, table=table, name=name)


def load_rule_unchecked(source: str) -> RuleSpec:
    """Resolve a rule without the monotonicity/constancy validation."""
    if source in _BUILTINS:
        return _BUILTINS[source]()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no rule file or built-in rule {source!r}; built-ins: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return rule_from_json(data, name=source)


def load_rule(source: str) -> RuleSpec:
    """Resolve a rule from a built-in name or a JSON file path, validated."""
    rule = load_rule_unchecked(source)
    _require_valid(rule)
    return rule
