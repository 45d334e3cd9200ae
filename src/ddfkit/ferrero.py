"""Fixed-point-free automorphism groups and the orbit difference families
they generate.

A pair (G, A) with A a group of automorphisms acting without non-trivial
fixed points yields a disjoint (v, k, k-1) difference family: the A-orbits
on the non-zero elements.  When G is commutative and v*k is odd the orbit
family splits into two halves of index (k-1)/2 via negation pairing.

Every map is one `Automorphism`, a permutation of canonical element
indices; `UnitMul`, `MatrixAuto` and `HeisenbergUnit` build it from a
formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from types import SimpleNamespace

import numpy as np

from .algebra import Matrix2, factorize
from .errors import (
    NotAUnit,
    NotSemiregular,
    OrderOverflow,
    PairingFailure,
    RequiresAbelianOddOrder,
    VerificationFailed,
)
from .groups import (
    AbelianProduct,
    Element,
    Group,
    HeisenbergGroup,
    element_from_json,
    element_to_json,
    group_from_json,
    group_to_json,
    span_generators,
)
from .verify import certify

_ORDER_CAP = 10**4


class Automorphism:
    """A group automorphism as a permutation of canonical element indices.

    `perm[i]` is the index of the image of element i, as a read-only numpy
    array, so composition is a gather and the inverse a scatter; maps are
    equal when their groups and perms are.  A fresh table is checked
    exactly: it must be a bijection fixing the identity with
    f(x + g) = f(x) + f(g) for every x and every generator g of the group,
    which gives the homomorphism law by induction on word length.
    `trusted` maps skip the homomorphism check: the factories below, which
    apply an algebraic automorphism, and compositions and inverses of
    checked maps.
    """

    def __init__(self, group: Group, perm, trusted: bool = False) -> None:
        n = group.order
        perm = np.array(perm, dtype=np.intp)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm must be a bijection on 0..order-1")
        if perm[0] != 0:
            raise ValueError("an automorphism must fix the identity")
        perm.flags.writeable = False
        self.group = group
        self.perm = perm
        self.trusted = trusted
        if not trusted:
            self._check_homomorphism()

    def _check_homomorphism(self) -> None:
        G = self.group
        perm = self.perm
        every = np.arange(G.order)
        for g in G.generators():
            i = G.index_of(g)
            if not np.array_equal(perm[G.add_index(every, i)], G.add_index(perm, perm[i])):
                raise ValueError("table is not a homomorphism")

    def __call__(self, e: Element) -> Element:
        G = self.group
        return G.element_at(int(self.perm[G.index_of(e)]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.perm, other.perm)

    def __hash__(self) -> int:
        return hash(self.perm.tobytes())

    def __repr__(self) -> str:
        return f"Automorphism({self.group!r}, {self.perm.tolist()})"

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Map applying `other` first, then self."""
        if other.group != self.group:
            raise TypeError("can only compose maps of the same group")
        return Automorphism(self.group, self.perm[other.perm], trusted=True)

    def inverse(self) -> "Automorphism":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(inv))
        return Automorphism(self.group, inv, trusted=True)

    def is_identity(self) -> bool:
        return np.array_equal(self.perm, np.arange(len(self.perm)))


# The name for maps given as an explicit table, which is checked.
ExplicitAuto = Automorphism


def _apply_formula(G: Group, f) -> Automorphism:
    """The trusted map e -> f(e), applied once per element."""
    return Automorphism(G, G.indices(map(f, G.elements())), trusted=True)


def UnitMul(group: AbelianProduct, units) -> Automorphism:
    """Componentwise multiplication by units on an AbelianProduct."""
    if not isinstance(group, AbelianProduct):
        raise TypeError("UnitMul acts on AbelianProduct groups")
    moduli = group.moduli
    units = tuple(u % m for u, m in zip(units, moduli))
    if len(units) != len(moduli):
        raise ValueError("one unit per component required")
    for u, m in zip(units, moduli):
        if gcd(u, m) != 1:
            raise NotAUnit(f"{u} is not a unit mod {m}")
    return _apply_formula(group, lambda e: tuple(u * x % m for u, x, m in zip(units, e, moduli)))


def MatrixAuto(group: AbelianProduct, matrix: Matrix2) -> Automorphism:
    """An invertible 2x2 matrix acting on Z_m x Z_m."""
    moduli = group.moduli
    if len(moduli) != 2 or moduli[0] != moduli[1] or moduli[0] != matrix.m:
        raise ValueError("matrix modulus must match a Z_m x Z_m group")
    if not matrix.is_invertible():
        raise NotAUnit("matrix determinant is not a unit")
    return _apply_formula(group, lambda e: matrix.apply(e[0], e[1]))


def HeisenbergUnit(group: HeisenbergGroup, u: int) -> Automorphism:
    """(x, y, z) -> (u x, u y, u^2 z) on the twisted product over Z_m.

    A homomorphism for every unit u: the twist term transforms as
    u^2(x1 y2) = (u x1)(u y2).
    """
    m = group.m
    u %= m
    if gcd(u, m) != 1:
        raise NotAUnit(f"{u} is not a unit mod {m}")
    return _apply_formula(group, lambda e: (u * e[0] % m, u * e[1] % m, u * u * e[2] % m))


def identity_automorphism(G: Group) -> Automorphism:
    return Automorphism(G, np.arange(G.order), trusted=True)


def generate_cyclic_group(alpha: Automorphism, cap: int = _ORDER_CAP) -> list[Automorphism]:
    """[id, alpha, alpha^2, ...] up to the first repeat of the identity."""
    out = [identity_automorphism(alpha.group)]
    cur = alpha
    while not cur.is_identity():
        out.append(cur)
        cur = cur.compose(alpha)
        if len(out) > cap:
            raise OrderOverflow(f"automorphism order exceeds {cap}")
    return out


def is_fixed_point_free(G: Group, autos) -> bool:
    """No non-identity map in `autos` fixes a non-zero element."""
    nonzero = np.arange(1, G.order)
    return not any((a.perm[1:] == nonzero).any() for a in autos if not a.is_identity())


def orbits(G: Group, autos) -> list[tuple[Element, ...]]:
    """A-orbits on the non-zero elements, each sorted, in canonical order.

    Index order is the canonical element order, so scanning the indices for
    the least unvisited one yields the block list already sorted by least
    element.  The images of element i are row i of the stacked perms.
    Raises NotSemiregular when any orbit is shorter than |A|, or meets an
    earlier one (possible only when `autos` is not closed).
    """
    k = len(autos)
    elems = G.elements()
    images = np.stack([a.perm for a in autos], axis=1)
    seen = bytearray(G.order)
    blocks: list[tuple[Element, ...]] = []
    for i in range(1, G.order):
        if seen[i]:
            continue
        orbit = sorted(set(images[i].tolist()))
        if len(orbit) != k or any(seen[j] for j in orbit):
            raise NotSemiregular(f"orbit of {elems[i]} has size {len(orbit)} != {k}")
        for j in orbit:
            seen[j] = 1
        blocks.append(tuple(elems[j] for j in orbit))
    return blocks


@dataclass(frozen=True)
class DiffFamily:
    """A block family over a group, stored canonically.

    Blocks are sorted tuples of elements; the block list is sorted by its
    least elements.  `lam` is the common difference multiplicity.
    """

    group: Group
    blocks: tuple[tuple[Element, ...], ...]
    k: int
    lam: int

    @property
    def v(self) -> int:
        return self.group.order

    @classmethod
    def build(cls, group: Group, blocks, k: int, lam: int, *, allow_singletons: bool = False) -> "DiffFamily":
        blocks = [tuple(map(tuple, block)) for block in blocks]
        group.indices(e for b in blocks for e in b)  # checks every element
        canon = []
        for block in blocks:
            b = tuple(sorted(block))
            if len(set(b)) != len(b):
                raise ValueError("block has repeated elements")
            if len(b) != k and not (allow_singletons and len(b) == 1):
                raise ValueError(f"block size {len(b)} != {k}")
            canon.append(b)
        return cls(group=group, blocks=tuple(sorted(canon)), k=k, lam=lam)

    def to_json(self) -> dict:
        return {
            "group": group_to_json(self.group),
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "blocks": [[element_to_json(e) for e in b] for b in self.blocks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiffFamily":
        group = group_from_json(data["group"])
        blocks = [
            [element_from_json(e) for e in block] for block in data["blocks"]
        ]
        fam = cls.build(group, blocks, int(data["k"]), int(data["lambda"]), allow_singletons=True)
        if "v" in data and int(data["v"]) != fam.v:
            raise ValueError("declared v does not match the group order")
        return fam


@dataclass(frozen=True)
class FerreroPair:
    """A group together with a fixed-point-free automorphism group.

    `autos` must start with the identity, be closed under composition,
    contain no duplicates, and act semiregularly; all of this is checked.
    """

    group: Group
    autos: tuple[Automorphism, ...]

    def __post_init__(self) -> None:
        autos = tuple(self.autos)
        object.__setattr__(self, "autos", autos)
        if len(autos) < 2:
            raise ValueError("the automorphism group must be non-trivial")
        if any(a.group != self.group for a in autos):
            raise ValueError("automorphisms of a different group")
        if not autos[0].is_identity():
            raise ValueError("autos[0] must be the identity")
        if len(set(autos)) != len(autos):
            raise ValueError("duplicate automorphisms")
        # A finite set holding the identity is closed iff it is the span of
        # its greedy generators S: |A|*|S| compositions.
        composition = SimpleNamespace(zero=autos[0], add=Automorphism.compose)
        try:
            span_generators(composition, autos, members=set(autos))
        except ValueError:
            raise ValueError("automorphism set is not closed") from None
        if not is_fixed_point_free(self.group, autos):
            raise NotSemiregular("a non-identity map fixes a non-zero element")

    @property
    def k(self) -> int:
        return len(self.autos)

    @classmethod
    def from_generator(cls, alpha: Automorphism) -> "FerreroPair":
        return cls(group=alpha.group, autos=tuple(generate_cyclic_group(alpha)))


def ferrero_ddf(pair: FerreroPair) -> DiffFamily:
    """The orbit family of the pair, re-verified as a (v,k,k-1)-DDF."""
    G = pair.group
    k = pair.k
    blocks = orbits(G, pair.autos)
    fam = DiffFamily.build(G, blocks, k, k - 1)
    report = certify(G, fam.blocks, k - 1, "ddf")
    if not report.passed:
        raise VerificationFailed(f"orbit family failed verification: {report.violations}")
    return fam


def split_family(G: Group, fam: DiffFamily) -> tuple[DiffFamily, DiffFamily]:
    """Split a (v,k,k-1) orbit family into two (v,k,(k-1)/2) halves.

    Requires G commutative with v*k odd.  Blocks pair up with their
    negations; the half containing the canonical-lesser representative of
    each pair goes first.  Both halves are re-verified.
    """
    if not G.is_abelian() or (fam.v * fam.k) % 2 == 0:
        raise RequiresAbelianOddOrder("splitting needs a commutative group and odd v*k")
    by_set = {frozenset(b): b for b in fam.blocks}
    seen: set[frozenset] = set()
    first: list[tuple[Element, ...]] = []
    second: list[tuple[Element, ...]] = []
    for block in fam.blocks:
        key = frozenset(block)
        if key in seen:
            continue
        neg_block = tuple(sorted(G.neg(e) for e in block))
        neg_key = frozenset(neg_block)
        if neg_key == key:
            raise PairingFailure(f"block {block} is its own negation")
        partner = by_set.get(neg_key)
        if partner is None:
            raise PairingFailure(f"negation of block {block} is not in the family")
        seen.add(key)
        seen.add(neg_key)
        # Canonical scan order guarantees `block` is the lesser of the pair.
        first.append(block)
        second.append(partner)
    half = (fam.k - 1) // 2
    fam1 = DiffFamily.build(G, first, fam.k, half)
    fam2 = DiffFamily.build(G, second, fam.k, half)
    for part in (fam1, fam2):
        report = certify(G, part.blocks, half, "disjoint")
        if not report.passed:
            raise VerificationFailed(f"split half failed verification: {report.violations}")
    return fam1, fam2


def split_ddf(pair: FerreroPair, fam: DiffFamily) -> tuple[DiffFamily, DiffFamily]:
    """split_family plus a check that `fam` really is the pair's orbit family."""
    G = pair.group
    for block in fam.blocks:
        image = {a(block[0]) for a in pair.autos}
        if image != set(block):
            raise ValueError("family blocks are not orbits of the given pair")
    return split_family(G, fam)


def feasible_parameters(v: int, k: int) -> bool:
    """Does every maximal prime-power factor q of v satisfy q = 1 (mod k)?

    This is exactly the condition for a fixed-point-free pair with |A| = k
    to exist on some group of order v.
    """
    if v < 1:
        raise ValueError("v must be positive")
    if k < 2:
        raise ValueError("k must be >= 2")
    return all((p**e) % k == 1 for p, e in factorize(v).items())
