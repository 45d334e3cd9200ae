"""Recursive composition of difference families along a normal series.

A family in a prime-index normal subgroup N and a family in the quotient
G/N (supplied through coset representatives) combine into a family in G:
each quotient block (g_1, ..., g_k) contributes the blocks

    B(n) = {g_i + i*n : 1 <= i <= k},   n in N,

with i*n meaning n added to itself i times.  `compose_ddf` checks its
inputs at the boundary: the quotient and subgroup families must each be
certified DFs in their place.  The lift itself only builds rows; each
family handed out is certified exactly once, by brute force, by the
function that returns it.  That one certification implies what a lift
could get wrong: a lifted block cannot meet N (N is normal, so g + i*n
stays in g's coset), two lifted blocks of a disjoint quotient family
cannot coincide, and a passing census fixes the block count at
lam(v-1)/(k(k-1)).

Chains of such extensions drive `ddf_for_group`, which builds a verified
(v, k, k-1)-DDF in any supplied group whose prime factors are all
congruent to 1 mod k, using multiplicative-coset families in the prime
quotients as base cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import Field, factorize, is_prime, smallest_prime_factor
from .constructions import _coset_rows, patterned_starter
from .errors import (
    BadChain,
    CongruenceViolation,
    IndexNotPrime,
    InputNotDF,
    SmallPrimeFactor,
    TooLarge,
)
from .ferrero import DiffFamily
from .groups import (
    AbelianProduct,
    CayleyGroup,
    Element,
    Group,
    HeisenbergGroup,
    Subgroup,
    require_normal,
)
from .verify import _DESIGN_POINT_LIMIT, require_certified


@dataclass(frozen=True)
class ExtensionData:
    """One prime-index step: a normal subgroup with chosen coset reps.

    `universe` restricts the step to a subgroup of `group` (used for the
    interior levels of a chain); None means the whole group.  `reps` holds
    one representative per coset, zero coset first; `build` derives the
    canonical-least choice.  The carrier (the universe or the whole group)
    is held as one canonical index array.  Every carrier index is labelled
    by its right coset N + reps[t], and projection, the quotient table and
    lifting read those labels.  The multiples j*g, j < p, of reps[1] are
    kept too: the coset N + j*g is j in Z_p.
    """

    group: Group
    normal: Subgroup
    reps: tuple[Element, ...]
    universe: "Subgroup | None" = None

    def __post_init__(self) -> None:
        G = self.group
        carrier, p = self._check_level()
        reps = tuple(map(tuple, self.reps))
        rep_idx = G.indices(reps)
        if len(reps) != p:
            raise ValueError(f"expected {p} coset representatives, got {len(reps)}")
        if reps[0] not in self.normal:
            raise ValueError("reps[0] must represent the zero coset")
        inside = np.isin(rep_idx, carrier)
        if not inside.all():
            raise ValueError(f"representative {reps[int(inside.argmin())]} is outside the universe")
        labels, rep_idx, multiples = _right_cosets(G, self.normal.indices, rep_idx, p)
        if len(rep_idx) != p:
            raise ValueError("two representatives share a coset")
        vars(self).update(reps=reps, _carrier=carrier, _labels=labels, _rep_idx=rep_idx, _multiples=multiples)

    def _check_level(self) -> tuple[np.ndarray, int]:
        """The carrier and the index p, once N is checked to be a normal
        subgroup of prime index in it."""
        G = self.group
        if self.normal.parent != G:
            raise ValueError("normal subgroup belongs to a different group")
        if self.universe is not None and self.universe.parent != G:
            raise ValueError("universe belongs to a different group")
        carrier = _carrier(G, self.universe)
        # At a chain's top the carrier is the whole group, which holds N.
        if self.universe is not None and not np.isin(self.normal.indices, carrier).all():
            raise ValueError("normal subgroup is not inside the universe")
        p, rem = divmod(len(carrier), self.normal.order)
        if rem != 0:
            raise ValueError("subgroup order does not divide the universe order")
        if not is_prime(p):
            raise IndexNotPrime(f"index {p} is not prime")
        require_normal(G, self.normal, self.universe)
        return carrier, p

    @classmethod
    def build(cls, group: Group, normal: Subgroup, universe: "Subgroup | None" = None) -> "ExtensionData":
        """Derive canonical-least representatives by scanning the carrier.
        The level is checked as in the constructor; the scan's labels are
        kept, and its representatives need no check."""
        ext = cls.__new__(cls)
        vars(ext).update(group=group, normal=normal, universe=universe)
        carrier, p = ext._check_level()
        labels, rep_idx, multiples = _right_cosets(group, normal.indices, carrier, p)
        reps = tuple(zip(*group.coords(rep_idx).T.tolist()))
        vars(ext).update(reps=reps, _carrier=carrier, _labels=labels, _rep_idx=rep_idx, _multiples=multiples)
        return ext

    @property
    def index(self) -> int:
        return len(self.reps)

    def project(self, e: Element) -> int:
        """Coset index of an element of the carrier."""
        t = int(self._labels[self.group.index_of(e)])
        if t < 0:
            raise ValueError(f"{e} is not in the carrier")
        return t

    def quotient(self) -> CayleyGroup:
        """The p cosets as an explicit (validated) group on indices 0..p-1.
        Its p*p table is refused above the table limit."""
        cached = getattr(self, "_quotient", None)
        if cached is None:
            if self.index > _DESIGN_POINT_LIMIT:
                raise TooLarge(
                    f"a quotient table of order {self.index} exceeds the table limit {_DESIGN_POINT_LIMIT}")
            r = self._rep_idx
            cached = CayleyGroup(self._labels[self.group.add_index(r[:, None], r[None, :])])
            object.__setattr__(self, "_quotient", cached)
        return cached


def _carrier(G: Group, universe: "Subgroup | None") -> np.ndarray:
    return np.arange(G.order, dtype=np.int64) if universe is None else universe.indices


def _right_cosets(G: Group, normal, candidates, p: int):
    """Label indices by right coset N + r, for r taken from `candidates`,
    which lie in a group where N has prime index p.

    The first candidate g outside N generates the quotient, so one
    broadcast over its multiples j*g, j < p, finds every coset N + j*g.
    Each coset is labelled by the first candidate in it, in order of first
    appearance, as a scan that starts a coset at each candidate outside
    the cosets so far would; so the carrier in canonical order yields the
    canonical-least representatives.  Returns the labels (-1 off the
    cosets reached), the candidates taken and the multiples (only the
    zero when every candidate lies in N).
    """
    coset = np.full(G.order, -1, dtype=np.intp)  # j of each index in N + j*g
    coset[normal] = 0
    outside = coset[candidates] != 0
    if outside.any():
        multiples = _multiples(G, candidates[outside.argmax()], p)
    else:
        multiples = np.zeros(1, dtype=np.int64)
    coset[G.add_index(normal[None, :], multiples[:, None])] = np.arange(len(multiples))[:, None]
    cj = coset[candidates]
    first = np.full(len(multiples), len(cj))
    np.minimum.at(first, cj, np.arange(len(cj)))  # where each coset first appears
    first = np.sort(first[first < len(cj)])
    label_of_j = np.full(len(multiples) + 1, -1, dtype=np.intp)  # its last entry serves j = -1
    label_of_j[cj[first]] = np.arange(len(first))
    return label_of_j[coset], candidates[first].astype(np.int64), multiples


def _multiples(G: Group, g, p: int) -> np.ndarray:
    """j*g for j < p, the run doubled by one vector add at a time."""
    run, step = np.zeros(1, dtype=np.int64), g  # step = len(run) * g
    while len(run) < p:
        more = G.add_index(np.append(run, step), step)
        run, step = np.concatenate([run, more[:-1]]), more[-1]
    return run[:p]


class _CosetLabels(Group):
    """The quotient of a level on its coset labels, as Z_p without a table.

    `label_of_j[j]` labels the coset N + j*g, and j is an isomorphism onto
    Z_p, so labels add as their j do.  Elements are 1-tuples (label,), as
    in `ExtensionData.quotient`, so a census reads the same on both.
    """

    def __init__(self, label_of_j) -> None:
        self.order = len(label_of_j)
        self.radices = (self.order,)
        self._label = label_of_j
        self._j = np.argsort(label_of_j)  # the inverse permutation

    def add_index(self, a, b):
        return self._label[(self._j[a] + self._j[b]) % self.order]

    def sub_index(self, a, b):
        return self._label[(self._j[a] - self._j[b]) % self.order]

    def is_abelian(self) -> bool:
        return True


def _rows(G: Group, blocks, k: int, what: str) -> np.ndarray:
    """Blocks of size k, given as element blocks or as a DiffFamily, as an
    (n, k) index array."""
    if isinstance(blocks, DiffFamily):
        flat, sizes = blocks.flat, blocks.sizes
    else:
        blocks = list(blocks)
        flat, sizes = None, np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    bad = sizes != k
    if bad.any():
        raise InputNotDF(f"{what} block size {sizes[bad.argmax()]} != {k}")
    if flat is None:
        flat = G.indices(chain.from_iterable(blocks))
    return flat.reshape(len(sizes), k)


def _lift(ext: ExtensionData, f1_idx, f2_idx, k: int) -> np.ndarray:
    """The quotient rows lifted to {g_i + i*n}, one row per (block, n) in
    N, then the subgroup rows."""
    G = ext.group
    mults = [ext.normal.indices]
    for _ in range(k - 1):
        mults.append(G.add_index(mults[-1], mults[0]))
    lifted = G.add_index(f1_idx[:, None, :], np.stack(mults, axis=1)).reshape(-1, k)
    return np.concatenate([lifted, f2_idx])


def _disjoint(rows) -> bool:
    return np.bincount(rows.ravel()).max(initial=0) <= 1


def compose_ddf(ext: ExtensionData, f1_blocks, f2, k: int, lam: int) -> DiffFamily:
    """Compose a quotient family with a subgroup family into one over G.

    `f1_blocks`: blocks of coset representatives in G (element order inside
    each block is positional and preserved).  `f2`: a family whose blocks
    lie inside ext.normal, given as a DiffFamily over the same group or as
    raw blocks.  Both inputs are checked here, as DFs in the quotient and
    in N; the output is then certified once, as a (v,k,lam)-DF, and as
    disjoint whenever both inputs are disjoint.
    """
    G = ext.group
    if ext.universe is not None and ext.universe.order != G.order:
        raise ValueError("compose_ddf works on full-group extensions; chains use ddf_for_group")
    if isinstance(f2, DiffFamily) and f2.group != G:
        raise InputNotDF("subgroup family must live in the same ambient group")
    if k < 2:
        raise ValueError("k must be >= 2")
    q = smallest_prime_factor(G.order)
    if q <= k:
        raise SmallPrimeFactor(f"prime factor {q} of {G.order} does not exceed {k}")
    labels = ext._labels  # the coset of each index, 0 on the subgroup
    f1_idx = _rows(G, f1_blocks, k, "quotient")
    f2_idx = _rows(G, f2, k, "subgroup")
    qlabels = labels[f1_idx]
    inside = qlabels == 0
    if inside.any():
        e = G.element_at(int(f1_idx[inside][0]))
        raise InputNotDF(f"quotient representative {e} lies in the subgroup")
    require_certified(
        _CosetLabels(labels[ext._multiples]), qlabels.ravel(), np.full(len(qlabels), k), lam, "df",
        f"quotient family is not a ({ext.index},{k},{lam})-DF", error=InputNotDF,
    )
    outside = labels[f2_idx] != 0
    if outside.any():
        e = G.element_at(int(f2_idx[outside][0]))
        raise InputNotDF(f"subgroup block element {e} is outside the subgroup")
    require_certified(
        G, f2_idx.ravel(), np.full(len(f2_idx), k), lam, "df",
        f"subgroup family is not a ({ext.normal.order},{k},{lam})-DF", labels == 0, InputNotDF,
    )
    kind = "disjoint" if _disjoint(qlabels) and _disjoint(f2_idx) else "df"
    rows = _lift(ext, f1_idx, f2_idx, k)
    return DiffFamily.certified(G, rows.ravel(), np.full(len(rows), k), k, lam, kind, "composed family")


# ---------------------------------------------------------------------------
# Chains of extensions and the any-group closure.


def chain_from_subgroups(G: Group, subgroup_elements) -> list[ExtensionData]:
    """Extensions for a descending chain given by subgroup element lists.

    `subgroup_elements` lists the successive normal subgroups (the whole
    group is implicit at the top); the last list must be the trivial
    subgroup.
    """
    exts: list[ExtensionData] = []
    universe: Subgroup | None = None
    for elems in subgroup_elements:
        N = Subgroup(G, elems)
        exts.append(ExtensionData.build(G, N, universe=universe))
        universe = N
    return exts


def standard_chain(G: Group) -> list[ExtensionData]:
    """A built-in full normal series for the structured group kinds: the
    subgroups d_1 Z x ... x d_n Z over G's radices, each d_i refined by one
    prime at a time, first coordinate first.

    For the twisted product every level is closed: z is free until x and y
    are pinned, and the twist term x1*y2 vanishes once x is pinned to zero.
    So the levels are built unchecked, in closed form (`Subgroup._lattice`);
    `build` still checks each level's normality.  TooLarge comes before any
    level when G is above the enumeration bound.  Cayley-table groups have
    no canonical series here; supply one through chain_from_subgroups.
    """
    if not isinstance(G, (AbelianProduct, HeisenbergGroup)):
        raise TypeError(f"no built-in chain for {type(G).__name__}; supply one explicitly")
    G._require_enumerable()
    radices = G.radices
    divs = [1] * len(radices)
    exts: list[ExtensionData] = []
    universe = None
    for axis, m in enumerate(radices):
        while divs[axis] < m:
            divs[axis] *= smallest_prime_factor(m // divs[axis])
            N = Subgroup._lattice(G, divs)
            exts.append(ExtensionData.build(G, N, universe=universe))
            universe = N
    return exts


def _validate_chain(G: Group, exts: list[ExtensionData]) -> None:
    if not exts:
        raise BadChain("empty chain for a non-trivial group")
    for ext in exts:
        if ext.group != G:
            raise BadChain("chain level belongs to a different group")
    if exts[0].universe is not None and exts[0].universe.order != G.order:
        raise BadChain("chain must start at the whole group")
    for upper, lower in zip(exts, exts[1:]):
        if lower.universe is None or lower.universe != upper.normal:
            raise BadChain("each level's universe must be the previous normal subgroup")
    if exts[-1].normal.order != 1:
        raise BadChain("chain must descend to the trivial subgroup")


def _lift_prime_base(ext: ExtensionData, k: int) -> np.ndarray:
    """A (p,k,k-1)-DDF over the quotient, as index rows of the stored reps.

    The quotient is cyclic of prime order p; the coset of reps[1] generates
    it, and its multiples transfer the multiplicative-coset rows of Z_p.
    """
    coset_of_j = ext._labels[ext._multiples]
    base = _coset_rows(Field(ext.index), k)  # Z_p: the index of x is x
    return ext._rep_idx[coset_of_j[base]]


def ddf_for_group(G: Group, normal_series, k: int) -> DiffFamily:
    """A verified (v,k,k-1)-DDF in G from a full prime-index normal series.

    Requires every prime factor of |G| to be 1 (mod k).  Prime quotients
    get multiplicative-coset base families; the chain composes them upward.
    k = 2 on a commutative G is served by the patterned starter instead.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    for p in factorize(G.order):
        if p % k != 1:
            raise CongruenceViolation(f"prime factor {p} of {G.order} != 1 (mod {k})")
    if k == 2 and G.is_abelian():
        return patterned_starter(G)
    exts = list(normal_series)
    if G.order > 1:
        _validate_chain(G, exts)
    elif exts:
        raise BadChain("trivial group takes an empty chain")
    rows = np.empty((0, k), dtype=np.int64)
    for ext in reversed(exts):
        rows = _lift(ext, _lift_prime_base(ext, k), rows, k)
    # One certification proves every level and every base family.  The
    # blocks inside a level's normal subgroup N are the level below; a block
    # lifted at N or above has its elements in distinct cosets of N (N is
    # normal), so its differences fall outside N.  The census on N\{0} is
    # thus the lower level's, and on each non-trivial coset of N a lifted
    # level's census is |N| times its base family's.
    return DiffFamily.certified(G, rows.ravel(), np.full(len(rows), k), k, k - 1, "ddf", "composed family")
