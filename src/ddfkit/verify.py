"""Exhaustive verification of difference families and the designs they span.

Every check here is a full census over ordered pairs or translates; nothing
is sampled.  These routines are the ground truth the construction modules
re-verify against before returning anything, all through `certify`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import InputNotDDF, InvalidElement, TooLarge
from .groups import Element, Group, enumeration_bound

DifferenceCensus = Counter

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


def difference_multiset(G: Group, blocks, *, universe=None) -> Counter:
    """Census of right differences x + (-y) over ordered pairs within blocks.

    `universe` (optional element collection) bounds the ambient set when the
    family lives in a proper subgroup; membership of every block element is
    then enforced.
    """
    allowed = None if universe is None else set(universe)
    census: Counter = Counter()
    for block in blocks:
        elems = [G.check(e) for e in block]
        if allowed is not None:
            for e in elems:
                if e not in allowed:
                    raise InvalidElement(f"{e} is outside the stated universe")
        negs = [G.neg(e) for e in elems]
        for i, x in enumerate(elems):
            for j, ny in enumerate(negs):
                if i != j:
                    census[G.add(x, ny)] += 1
    return census


def check_difference_family(G: Group, blocks, lam: int, *, universe=None) -> FamilyReport:
    """Full report: does every non-zero element occur exactly lam times?"""
    if G.order > enumeration_bound():
        raise TooLarge(f"group order {G.order} exceeds the enumeration bound")
    census = difference_multiset(G, blocks, universe=universe)
    v = G.order if universe is None else len(set(universe))
    zero = G.zero
    violations: list[str] = []
    counts = [c for e, c in census.items() if e != zero]
    census_min = min(counts) if counts else 0
    census_max = max(counts) if counts else 0
    if census.get(zero):
        violations.append(f"zero difference occurs {census[zero]} times")
    bad = [e for e, c in census.items() if e != zero and c != lam]
    for e in sorted(bad)[:_MAX_VIOLATIONS]:
        violations.append(f"census[{e}] = {census[e]} != {lam}")
    covered = len(census) - (1 if zero in census else 0)
    if covered != v - 1:
        missing = (v - 1) - covered
        violations.append(f"{missing} non-zero elements never occur as differences")
    # v == 1 is the vacuous case: no non-zero elements, empty census passes.
    passed = not violations and (v == 1 or census_min == census_max == lam)
    return FamilyReport(
        passed=passed,
        lam=lam,
        census_min=census_min,
        census_max=census_max,
        violations=tuple(violations),
    )


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
    follow the census violations, in that order.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, not {kind!r}")
    base = check_difference_family(G, blocks, lam, universe=universe)
    violations = list(base.violations)
    if kind != "df" and not is_disjoint(blocks):
        violations.append("blocks are not pairwise disjoint")
    if kind == "ddf" and not is_partition_of_nonzero(G, blocks, universe=universe):
        violations.append("blocks do not partition the non-zero elements")
    if kind == "pdf":
        target = set(universe) if universe is not None else set(G.elements())
        union = {e for b in blocks for e in b}
        if sum(len(b) for b in blocks) != len(target) or union != target:
            violations.append("blocks do not partition the whole group")
    return FamilyReport(
        passed=base.passed and len(violations) == len(base.violations),
        lam=lam,
        census_min=base.census_min,
        census_max=base.census_max,
        violations=tuple(violations),
    )


def is_partition_of_nonzero(G: Group, blocks, *, universe=None) -> bool:
    """Do the blocks partition the non-zero elements exactly?"""
    target = set(universe) if universe is not None else set(G.elements())
    target.discard(G.zero)
    seen: set[Element] = set()
    total = 0
    for block in blocks:
        total += len(block)
        seen.update(G.check(e) for e in block)
    return total == len(seen) and seen == target


def zdbf_check(G: Group, labels: dict, lam: int) -> bool:
    """Zero-difference balance: |{x : f(g + x) = f(x)}| = lam for all g != 0.

    `labels` maps every element of G to an arbitrary hashable label.
    """
    elems = G.elements()
    if set(labels) != set(elems):
        raise InvalidElement("labels must cover the group exactly")
    for g in elems:
        if g == G.zero:
            continue
        hits = sum(1 for x in elems if labels[G.add(g, x)] == labels[x])
        if hits != lam:
            return False
    return True


def fibers(labels: dict) -> list[tuple]:
    """Blocks of the label partition, canonically ordered."""
    groups: dict = {}
    for e, lab in labels.items():
        groups.setdefault(lab, []).append(e)
    return sorted(tuple(sorted(v)) for v in groups.values())


@dataclass(frozen=True)
class Design:
    """Point set, block multiset, and a grouping of blocks into classes."""

    points: tuple[Element, ...]
    blocks: tuple[tuple[Element, ...], ...]
    classes: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "blocks": [[list(e) for e in b] for b in self.blocks],
            "classes": [list(c) for c in self.classes],
        }


def expand_to_nrb(G: Group, fam, *, side: str = "right") -> Design:
    """All translates of a (v,k,k-1) family, one class per group element.

    The input must verify as a disjoint difference family whose blocks
    partition the non-zero elements; otherwise InputNotDDF is raised.
    Translation is on the right by default ({b + g}); side="left" uses
    {g + b}.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    blocks = fam.blocks
    if not certify(G, blocks, fam.lam, "ddf").passed:
        raise InputNotDDF("input family is not a disjoint (v,k,k-1) difference family")
    all_blocks: list[tuple[Element, ...]] = []
    classes: list[tuple[int, ...]] = []
    for g in G.elements():
        idxs = []
        for block in blocks:
            if side == "right":
                moved = tuple(sorted(G.add(b, g) for b in block))
            else:
                moved = tuple(sorted(G.add(g, b) for b in block))
            idxs.append(len(all_blocks))
            all_blocks.append(moved)
        classes.append(tuple(idxs))
    return Design(points=tuple(G.elements()), blocks=tuple(all_blocks), classes=tuple(classes))


def verify_2_design(design: Design, k: int, lam: int) -> bool:
    """Pair census: every unordered point pair lies in exactly lam blocks."""
    v = len(design.points)
    if v > _DESIGN_POINT_LIMIT:
        raise TooLarge(f"{v} points exceeds the design check limit")
    if any(len(b) != k for b in design.blocks):
        return False
    census: Counter = Counter()
    for block in design.blocks:
        if len(set(block)) != len(block):
            return False
        for pair in combinations(sorted(block), 2):
            census[pair] += 1
    expected_pairs = v * (v - 1) // 2
    if len(census) != expected_pairs:
        return False
    counts = set(census.values())
    return counts == {lam}


def verify_near_resolution(design: Design) -> bool:
    """Each class partitions all points except exactly one."""
    points = set(design.points)
    v = len(points)
    for cls in design.classes:
        covered: list[Element] = []
        for idx in cls:
            covered.extend(design.blocks[idx])
        if len(covered) != v - 1 or len(set(covered)) != v - 1:
            return False
        if len(points - set(covered)) != 1:
            return False
    return True
