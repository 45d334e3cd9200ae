"""Exhaustive verification of difference families and the designs they span.

Every check here is a full census over ordered pairs or translates; nothing
is sampled.  These routines are the ground truth the construction modules
re-verify against before returning anything, all through one raising gate,
`require_certified`.  The census forms every difference with the group
kind's one `sub_index` kernel and counts them with `np.bincount`, as the
partition checks count canonical indices; the design checks sort rows of
them.  Elements become tuples again only in reports and in the views of
`Design`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import jsonio
from .errors import InputNotDDF, InvalidElement, TooLarge, VerificationFailed
from .groups import Element, Group
from .jsonio import json_plain

_MAX_VIOLATIONS = 20
_DESIGN_POINT_LIMIT = 10**4


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of a difference-family census."""

    passed: bool
    lam: int
    census_min: int
    census_max: int
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "lambda": self.lam,
            "census_min": self.census_min,
            "census_max": self.census_max,
            "violations": list(self.violations),
        }


def _indexed(G: Group, blocks, universe=None):
    """The blocks as checked canonical indices, ready for counting.

    Returns the indices of all block elements in block order, the block
    sizes, and the universe as a 0/1 count per index (`_target`).
    """
    blocks = list(blocks)
    flat = G.indices(chain.from_iterable(blocks))
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    return flat, sizes, _target(G, None if universe is None else G.indices(universe))


def _target(G: Group, universe=None) -> np.ndarray:
    """A 0/1 count per index: 1 on the `universe` indices, or everywhere."""
    G._require_enumerable()
    target = np.zeros(G.order, dtype=np.int64)
    target[slice(None) if universe is None else universe] = 1
    return target


def _census(G: Group, flat, sizes, target) -> np.ndarray:
    """Count of each index as a right difference x + (-y), over the ordered
    pairs of distinct positions within a block.

    Every difference is one `G.sub_index`, the kind's fused kernel.  Blocks
    of one size are stacked and handled as many positions at a time as keep
    the differences near `jsonio._CHUNK`, one position at least, so
    temporaries stay linear in the number of block elements.
    """
    outside = target[flat] == 0
    if outside.any():
        e = G.element_at(int(flat[outside.argmax()]))
        raise InvalidElement(f"{e} is outside the stated universe")
    census = np.zeros(G.order, dtype=np.int64)
    for _, stacked in _stacks(flat, sizes):
        step = max(1, jsonio._CHUNK // stacked.size)
        for i in range(0, stacked.shape[1], step):
            diffs = G.sub_index(stacked[:, i : i + step, None], stacked[:, None, :])
            census += np.bincount(diffs.ravel(), minlength=G.order)
        census[0] -= stacked.size  # each position paired with itself: x + (-x) = 0
    return census


def _stacks(flat, sizes):
    """The blocks of each size, as (block ids, one row per block)."""
    starts = np.cumsum(sizes) - sizes
    for s in np.unique(sizes).tolist():
        ids = np.flatnonzero(sizes == s)
        yield ids, flat[starts[ids, None] + np.arange(s)]


def difference_multiset(G: Group, blocks, *, universe=None) -> Counter:
    """Census of right differences x + (-y) over ordered pairs within blocks.

    `universe` (optional element collection) bounds the ambient set when the
    family lives in a proper subgroup; membership of every block element is
    then enforced.
    """
    census = _census(G, *_indexed(G, blocks, universe))
    return Counter({G.element_at(i): int(census[i]) for i in np.flatnonzero(census).tolist()})


def check_difference_family(G: Group, blocks, lam: int, *, universe=None) -> FamilyReport:
    """Full report: does every non-zero element occur exactly lam times?"""
    return certify(G, blocks, lam, "df", universe=universe)


def is_difference_family(G: Group, blocks, lam: int, *, universe=None) -> bool:
    return check_difference_family(G, blocks, lam, universe=universe).passed


def is_disjoint(blocks) -> bool:
    """Pairwise disjointness of the blocks."""
    seen: set[Element] = set()
    total = 0
    for block in blocks:
        total += len(block)
        seen.update(block)
    return len(seen) == total


_KINDS = ("df", "disjoint", "ddf", "pdf")


def certify(G: Group, blocks, lam: int, kind: str, *, universe=None) -> FamilyReport:
    """The one check of a difference-family claim, with what failed.

    kind "df" runs the census only; "disjoint" adds pairwise disjointness;
    "ddf" adds a partition of the non-zero elements and "pdf" a partition
    of the whole group (of `universe` when given).  Structural failures
    follow the census violations, in that order; all three are read off
    one count of each element's occurrences in the blocks.
    """
    flat, sizes, target = _indexed(G, blocks, universe)
    return certify_indices(G, flat, sizes, lam, kind, target)


def certify_indices(G: Group, flat, sizes, lam: int, kind: str, target=None) -> FamilyReport:
    """`certify` on canonical indices, for callers that hold them.

    `flat` lists the block elements block after block and `sizes` the block
    sizes; `target` is the universe as a 0/1 count per index, None for the
    whole group.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, not {kind!r}")
    if target is None:
        target = _target(G)
    census = _census(G, flat, sizes, target)
    v = int(target.sum())
    hit = np.flatnonzero(census[1:]) + 1
    counts = census[hit]
    violations: list[str] = []
    if census[0]:
        violations.append(f"zero difference occurs {census[0]} times")
    for i in hit[counts != lam][:_MAX_VIOLATIONS].tolist():
        violations.append(f"census[{G.element_at(i)}] = {census[i]} != {lam}")
    if len(hit) != v - 1:
        violations.append(f"{v - 1 - len(hit)} non-zero elements never occur as differences")
    if kind != "df":
        mult = np.bincount(flat, minlength=G.order)
        if mult.max(initial=0) > 1:
            violations.append("blocks are not pairwise disjoint")
        if kind == "ddf" and not (mult[0] == 0 and np.array_equal(mult[1:], target[1:])):
            violations.append("blocks do not partition the non-zero elements")
        if kind == "pdf" and not np.array_equal(mult, target):
            violations.append("blocks do not partition the whole group")
    census_min = int(counts.min()) if len(hit) else 0
    census_max = int(counts.max()) if len(hit) else 0
    return FamilyReport(
        # v == 1 is the vacuous case: no non-zero elements, empty census passes.
        passed=not violations and (v == 1 or census_min == census_max == lam),
        lam=lam,
        census_min=census_min,
        census_max=census_max,
        violations=tuple(violations),
    )


def require_certified(
    G: Group, flat, sizes, lam: int, kind: str, what: str, target=None, error=VerificationFailed
) -> None:
    """The one raising gate: `certify_indices`, then `error` with `what`
    and the violations unless the family passes."""
    report = certify_indices(G, flat, sizes, lam, kind, target)
    if not report.passed:
        raise error(f"{what}: {report.violations}")


def is_partition_of_nonzero(G: Group, blocks, *, universe=None) -> bool:
    """Do the blocks partition the non-zero elements exactly?"""
    flat, _, target = _indexed(G, blocks, universe)
    target[0] = 0
    return np.array_equal(np.bincount(flat, minlength=G.order), target)


def zdbf_check(G: Group, labels: dict, lam: int) -> bool:
    """Zero-difference balance: |{x : f(g + x) = f(x)}| = lam for all g != 0.

    `labels` maps every element of G to an arbitrary hashable label.
    """
    elems = G.elements()
    if set(labels) != set(elems):
        raise InvalidElement("labels must cover the group exactly")
    ids: dict = {}
    f = np.array([ids.setdefault(labels[e], len(ids)) for e in elems])
    every = np.arange(G.order)
    return all(np.count_nonzero(f[G.add_index(g, every)] == f) == lam for g in range(1, G.order))


def fibers(labels: dict) -> list[tuple]:
    """Blocks of the label partition, canonically ordered."""
    groups: dict = {}
    for e, lab in labels.items():
        groups.setdefault(lab, []).append(e)
    return sorted(tuple(sorted(v)) for v in groups.values())


@dataclass(frozen=True, eq=False)
class Design:
    """A design on the points of `group`: one sorted row of canonical
    indices per block, class after class, and one row of block ids per
    class.  `points`, `blocks` and `classes` are tuple views built on first
    use, for the API boundary."""

    group: Group
    rows: np.ndarray
    class_rows: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        return self.group == other.group and (
            np.array_equal(self.rows, other.rows) and np.array_equal(self.class_rows, other.class_rows)
        )

    @cached_property
    def points(self) -> tuple[Element, ...]:
        return tuple(self.group.elements())

    @cached_property
    def blocks(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(tuple(map(tuple, row)) for row in self.group.coords(self.rows).tolist())

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.class_rows.tolist()))

    def payload(self) -> dict:
        """The JSON payload as int arrays: the coordinates of every point,
        the (blocks, k, coordinates) array of the blocks, and the block ids
        of each class.  `to_json` is its plain form."""
        return {
            "points": self.group.coords(np.arange(self.group.order)),
            "blocks": self.group.coords(self.rows),
            "classes": self.class_rows,
        }

    def to_json(self) -> dict:
        return json_plain(self.payload())


def expand_to_nrb(G: Group, fam, *, side: str = "right") -> Design:
    """All translates of a (v,k,k-1) family, one class per group element.

    The input must verify as a disjoint (v,k,k-1) difference family whose
    blocks partition the non-zero elements; otherwise InputNotDDF is
    raised, naming the violations.  Translation is on the right by default
    ({b + g}); side="left" uses {g + b}.  Groups above the design check
    limit raise TooLarge before anything is built.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    v = G.order
    if v > _DESIGN_POINT_LIMIT:
        raise TooLarge(f"{v} points exceeds the design check limit")
    if fam.group != G:
        raise ValueError("family belongs to a different group")
    # At lambda = k-1 a partition leaves no room for blocks of another size.
    require_certified(
        G, fam.flat, fam.sizes, fam.k - 1, "ddf",
        "input family is not a disjoint (v,k,k-1) difference family", error=InputNotDDF,
    )
    nb = len(fam.sizes)
    base = fam.flat.reshape(nb, fam.k)
    shifts = np.arange(v)[:, None, None]
    moved = G.add_index(base, shifts) if side == "right" else G.add_index(shifts, base)
    moved.sort(axis=2)
    rows, class_rows = moved.reshape(v * nb, fam.k), np.arange(v * nb).reshape(v, nb)
    rows.flags.writeable = class_rows.flags.writeable = False
    return Design(G, rows, class_rows)


def verify_2_design(design: Design, k: int, lam: int) -> bool:
    """Pair census: every unordered point pair lies in exactly lam blocks.

    Blocks of another width than k, or with a repeated point, fail.  Pairs
    are counted as codes i*v + j by sort, in memory linear in the design.
    """
    v = design.group.order
    if v > _DESIGN_POINT_LIMIT:
        raise TooLarge(f"{v} points exceeds the design check limit")
    rows = np.sort(design.rows, axis=1)
    if rows.shape[1] != k or (rows[:, 1:] == rows[:, :-1]).any():
        return False
    first, second = np.triu_indices(k, 1)
    _, counts = np.unique(rows[:, first] * v + rows[:, second], return_counts=True)
    # A one-point design has no pairs to count, and fails.
    return v > 1 and len(counts) == v * (v - 1) // 2 and bool((counts == lam).all())


def verify_near_resolution(design: Design) -> bool:
    """Each class partitions all points except exactly one."""
    v = design.group.order
    c, m = design.class_rows.shape
    covered = np.sort(design.rows[design.class_rows].reshape(c, m * design.rows.shape[1]), axis=1)
    return c == 0 or (covered.shape[1] == v - 1 and not (covered[:, 1:] == covered[:, :-1]).any())
