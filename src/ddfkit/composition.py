"""Recursive composition of difference families along a normal series.

A family in a prime-index normal subgroup N and a family in the quotient
G/N (supplied through coset representatives) combine into a family in G:
each quotient block (g_1, ..., g_k) contributes the blocks

    B(n) = {g_i + i*n : 1 <= i <= k},   n in N,

with i*n meaning n added to itself i times.  Everything is re-verified by
brute force after lifting.

Chains of such extensions drive `ddf_for_group`, which builds a verified
(v, k, k-1)-DDF in any supplied group whose prime factors are all
congruent to 1 mod k, using multiplicative-coset families in the prime
quotients as base cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import factorize, is_prime, smallest_prime_factor
from .constructions import patterned_starter, roots_of_unity_ddf
from .errors import (
    BadChain,
    CongruenceViolation,
    IndexNotPrime,
    InputNotDF,
    SmallPrimeFactor,
    VerificationFailed,
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
from .verify import certify, is_disjoint


@dataclass(frozen=True)
class ExtensionData:
    """One prime-index step: a normal subgroup with chosen coset reps.

    `universe` restricts the step to a subgroup of `group` (used for the
    interior levels of a chain); None means the whole group.  `reps` holds
    one representative per coset, zero coset first; `build` derives the
    canonical-least choice.
    """

    group: Group
    normal: Subgroup
    reps: tuple[Element, ...]
    universe: "Subgroup | None" = None

    def __post_init__(self) -> None:
        G = self.group
        if self.normal.parent != G:
            raise ValueError("normal subgroup belongs to a different group")
        if self.universe is not None and self.universe.parent != G:
            raise ValueError("universe belongs to a different group")
        carrier = self.carrier_set()
        if not self.normal.as_set <= carrier:
            raise ValueError("normal subgroup is not inside the universe")
        n = self.normal.order
        v = len(carrier)
        p, rem = divmod(v, n)
        if rem != 0:
            raise ValueError("subgroup order does not divide the universe order")
        if not is_prime(p):
            raise IndexNotPrime(f"index {p} is not prime")
        require_normal(G, self.normal, universe=self.carrier_elements())
        reps = tuple(G.check(e) for e in self.reps)
        object.__setattr__(self, "reps", reps)
        if len(reps) != p:
            raise ValueError(f"expected {p} coset representatives, got {len(reps)}")
        if reps[0] not in self.normal:
            raise ValueError("reps[0] must represent the zero coset")
        for e in reps:
            if e not in carrier:
                raise ValueError(f"representative {e} is outside the universe")
        nset = self.normal.as_set
        for i in range(p):
            for j in range(i):
                if G.sub(reps[i], reps[j]) in nset:
                    raise ValueError("two representatives share a coset")

    @classmethod
    def build(cls, group: Group, normal: Subgroup, universe: "Subgroup | None" = None) -> "ExtensionData":
        """Derive canonical-least representatives by scanning the carrier."""
        nset = normal.as_set
        reps: list[Element] = []
        elems = universe.elements if universe is not None else group.elements()
        for e in elems:  # canonical order, so first hit per coset is least
            if all(group.sub(e, r) not in nset for r in reps):
                reps.append(e)
        return cls(group=group, normal=normal, reps=tuple(reps), universe=universe)

    @property
    def index(self) -> int:
        return len(self.reps)

    def carrier_elements(self):
        if self.universe is not None:
            return self.universe.elements
        return self.group.elements()

    def carrier_set(self) -> frozenset:
        if self.universe is not None:
            return self.universe.as_set
        return frozenset(self.group.elements())

    @property
    def carrier_order(self) -> int:
        return self.universe.order if self.universe is not None else self.group.order

    def project(self, e: Element) -> int:
        """Coset index of an element of the carrier."""
        cached = getattr(self, "_coset_map", None)
        if cached is None:
            G = self.group
            nset = self.normal.as_set
            cached = {}
            for x in self.carrier_elements():
                for t, r in enumerate(self.reps):
                    if G.sub(x, r) in nset:
                        cached[x] = t
                        break
            object.__setattr__(self, "_coset_map", cached)
        try:
            return cached[self.group.check(e)]
        except KeyError:
            raise ValueError(f"{e} is not in the carrier") from None

    def quotient(self) -> CayleyGroup:
        """The p cosets as an explicit (validated) group on indices 0..p-1."""
        cached = getattr(self, "_quotient", None)
        if cached is None:
            G = self.group
            p = self.index
            table = [
                [self.project(G.add(self.reps[i], self.reps[j])) for j in range(p)]
                for i in range(p)
            ]
            cached = CayleyGroup(table)
            object.__setattr__(self, "_quotient", cached)
        return cached


def _as_blocks(family) -> list[tuple[Element, ...]]:
    blocks = family.blocks if isinstance(family, DiffFamily) else family
    return [tuple(b) for b in blocks]


def _compose_blocks(ext: ExtensionData, f1_blocks, f2_blocks, k: int, lam: int, kind=None):
    """Lift, then brute-force verify, inside the extension's carrier.

    The lifted blocks are certified as `kind`, by default "disjoint" when
    both inputs are disjoint and "df" otherwise.
    """
    G = ext.group
    carrier = ext.carrier_elements()
    carrier_set = ext.carrier_set()
    v = len(carrier)
    if k < 2:
        raise ValueError("k must be >= 2")
    q = smallest_prime_factor(v)
    if q <= k:
        raise SmallPrimeFactor(f"prime factor {q} of {v} does not exceed {k}")
    nset = ext.normal.as_set

    f1 = [tuple(G.check(e) for e in b) for b in _as_blocks(f1_blocks)]
    for b in f1:
        if len(b) != k:
            raise InputNotDF(f"quotient block size {len(b)} != {k}")
        for e in b:
            if e not in carrier_set:
                raise InputNotDF(f"quotient representative {e} is outside the carrier")
            if e in nset:
                raise InputNotDF(f"quotient representative {e} lies in the subgroup")
    Q = ext.quotient()
    qblocks = [tuple((ext.project(e),) for e in b) for b in f1]
    report = certify(Q, qblocks, lam, "df")
    if not report.passed:
        raise InputNotDF(f"quotient family is not a ({ext.index},{k},{lam})-DF: {report.violations}")

    f2 = [tuple(G.check(e) for e in b) for b in _as_blocks(f2_blocks)]
    for b in f2:
        if len(b) != k:
            raise InputNotDF(f"subgroup block size {len(b)} != {k}")
        for e in b:
            if e not in nset:
                raise InputNotDF(f"subgroup block element {e} is outside the subgroup")
    report = certify(G, f2, lam, "df", universe=ext.normal.elements)
    if not report.passed:
        raise InputNotDF(
            f"subgroup family is not a ({ext.normal.order},{k},{lam})-DF: {report.violations}"
        )

    disjoint = is_disjoint(qblocks) and is_disjoint(f2)

    lifted: list[tuple[Element, ...]] = []
    for b in f1:
        for n in ext.normal.elements:
            mult = G.zero
            block = []
            for g in b:  # position i gets i*n, i = 1..k in stored order
                mult = G.add(mult, n)
                block.append(G.add(g, mult))
            tb = tuple(block)
            if any(e in nset for e in tb):
                raise VerificationFailed(f"lifted block {tb} meets the subgroup")
            lifted.append(tb)
    if is_disjoint(qblocks):
        if len({frozenset(b) for b in lifted}) != len(lifted):
            raise VerificationFailed("distinct (block, n) pairs produced equal blocks")

    out = lifted + f2
    num, rem = divmod(lam * (v - 1), k * (k - 1))
    if rem != 0 or len(out) != num:
        raise VerificationFailed(
            f"block count {len(out)} != lambda(v-1)/(k(k-1)) = {lam * (v - 1)}/{k * (k - 1)}"
        )
    if kind is None:
        kind = "disjoint" if disjoint else "df"
    report = certify(G, out, lam, kind, universe=carrier)
    if not report.passed:
        raise VerificationFailed(f"composed family failed verification: {report.violations}")
    return out


def compose_ddf(ext: ExtensionData, f1_blocks, f2, k: int, lam: int) -> DiffFamily:
    """Compose a quotient family with a subgroup family into one over G.

    `f1_blocks`: blocks of coset representatives in G (element order inside
    each block is positional and preserved).  `f2`: a family whose blocks
    lie inside ext.normal, given as a DiffFamily over the same group or as
    raw blocks.  The output is verified as a (v,k,lam)-DF, and as disjoint
    whenever both inputs are disjoint.
    """
    if ext.universe is not None and ext.universe.order != ext.group.order:
        raise ValueError("compose_ddf works on full-group extensions; chains use ddf_for_group")
    if isinstance(f2, DiffFamily) and f2.group != ext.group:
        raise InputNotDF("subgroup family must live in the same ambient group")
    blocks = _compose_blocks(ext, f1_blocks, f2, k, lam)
    return DiffFamily.build(ext.group, blocks, k, lam)


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


def _abelian_chain(G: AbelianProduct) -> list[ExtensionData]:
    mods = G.moduli
    divs = [1] * len(mods)
    exts: list[ExtensionData] = []
    universe: Subgroup | None = None
    while True:
        try:
            i = next(j for j in range(len(mods)) if divs[j] < mods[j])
        except StopIteration:
            return exts
        divs[i] *= smallest_prime_factor(mods[i] // divs[i])
        from itertools import product

        N = Subgroup(G, product(*(range(0, m, d) for m, d in zip(mods, divs))))
        exts.append(ExtensionData.build(G, N, universe=universe))
        universe = N


def _heisenberg_chain(G: HeisenbergGroup) -> list[ExtensionData]:
    # Pin x fully, then y, then z; every intermediate set is closed because
    # the twist term x1*y2 vanishes once x is pinned to zero.
    from itertools import product

    m = G.m
    divs = [1, 1, 1]
    exts: list[ExtensionData] = []
    universe: Subgroup | None = None
    for axis in range(3):
        while divs[axis] < m:
            divs[axis] *= smallest_prime_factor(m // divs[axis])
            N = Subgroup(G, product(*(range(0, m, d) for d in divs)))
            exts.append(ExtensionData.build(G, N, universe=universe))
            universe = N
    return exts


def standard_chain(G: Group) -> list[ExtensionData]:
    """A built-in full normal series for the structured group kinds.

    Cayley-table groups have no canonical series here; supply one through
    chain_from_subgroups.
    """
    if isinstance(G, AbelianProduct):
        return _abelian_chain(G)
    if isinstance(G, HeisenbergGroup):
        return _heisenberg_chain(G)
    raise TypeError(f"no built-in chain for {type(G).__name__}; supply one explicitly")


def _validate_chain(G: Group, exts: list[ExtensionData]) -> None:
    if not exts:
        raise BadChain("empty chain for a non-trivial group")
    for ext in exts:
        if ext.group != G:
            raise BadChain("chain level belongs to a different group")
    if exts[0].universe is not None and exts[0].universe.order != G.order:
        raise BadChain("chain must start at the whole group")
    for upper, lower in zip(exts, exts[1:]):
        if lower.universe is None or lower.universe.as_set != upper.normal.as_set:
            raise BadChain("each level's universe must be the previous normal subgroup")
    if exts[-1].normal.order != 1:
        raise BadChain("chain must descend to the trivial subgroup")


def _lift_prime_base(ext: ExtensionData, k: int) -> list[tuple[Element, ...]]:
    """A (p,k,k-1)-DDF over the quotient, written via the stored reps.

    The quotient is cyclic of prime order p; the coset of reps[1] generates
    it, which transfers the multiplicative-coset family on Z_p.
    """
    G = ext.group
    p = ext.index
    base = roots_of_unity_ddf(p, k)
    coset_of_j = []
    cur = G.zero
    for _ in range(p):
        coset_of_j.append(ext.project(cur))
        cur = G.add(cur, ext.reps[1])
    return [
        tuple(ext.reps[coset_of_j[x[0]]] for x in block) for block in base.blocks
    ]


def ddf_for_group(G: Group, normal_series, k: int) -> DiffFamily:
    """A verified (v,k,k-1)-DDF in G from a full prime-index normal series.

    Requires every prime factor of |G| to be 1 (mod k).  Prime quotients
    get multiplicative-coset base families; the chain composes them upward.
    k = 2 is served by the patterned starter instead.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    for p in factorize(G.order):
        if p % k != 1:
            raise CongruenceViolation(f"prime factor {p} of {G.order} != 1 (mod {k})")
    if k == 2:
        return patterned_starter(G)
    if G.order == 1:
        if list(normal_series):
            raise BadChain("trivial group takes an empty chain")
        return DiffFamily.build(G, (), k, k - 1)
    exts = list(normal_series)
    _validate_chain(G, exts)
    blocks: list[tuple[Element, ...]] = []
    for ext in reversed(exts):
        # Each level partitions its carrier's non-zero elements.
        blocks = _compose_blocks(ext, _lift_prime_base(ext, k), blocks, k, k - 1, "ddf")
    return DiffFamily.build(G, blocks, k, k - 1)
