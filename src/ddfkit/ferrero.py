"""Fixed-point-free automorphism groups and the orbit difference families
they generate.

A pair (G, A) with A a group of automorphisms acting without non-trivial
fixed points yields a disjoint (v, k, k-1) difference family: the A-orbits
on the non-zero elements.  When G is commutative and v*k is odd the orbit
family splits into two halves of index (k-1)/2 via negation pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .algebra import Matrix2, factorize
from .errors import (
    EvenOrder,
    NotAUnit,
    NotSemiregular,
    OrderOverflow,
    PairingFailure,
    RequiresAbelianOddOrder,
    VerificationFailed,
)
from .groups import (
    AbelianProduct,
    CayleyGroup,
    Element,
    Group,
    HeisenbergGroup,
    element_from_json,
    element_to_json,
    group_from_json,
    group_to_json,
)
from .verify import check_difference_family, is_disjoint, is_partition_of_nonzero

_ORDER_CAP = 10**4


class Automorphism:
    """Base class; concrete variants know how to apply and compose."""

    group: Group

    def __call__(self, e: Element) -> Element:
        raise NotImplementedError

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Map applying `other` first, then self."""
        raise NotImplementedError

    def inverse(self) -> "Automorphism":
        raise NotImplementedError

    def is_identity(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class UnitMul(Automorphism):
    """Componentwise multiplication by units on an AbelianProduct."""

    group: AbelianProduct
    units: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.group, AbelianProduct):
            raise TypeError("UnitMul acts on AbelianProduct groups")
        units = tuple(u % m for u, m in zip(self.units, self.group.moduli))
        if len(units) != len(self.group.moduli):
            raise ValueError("one unit per component required")
        for u, m in zip(units, self.group.moduli):
            if gcd(u, m) != 1:
                raise NotAUnit(f"{u} is not a unit mod {m}")
        object.__setattr__(self, "units", units)

    def __call__(self, e: Element) -> Element:
        self.group.check(e)
        return tuple(u * x % m for u, x, m in zip(self.units, e, self.group.moduli))

    def compose(self, other: "UnitMul") -> "UnitMul":
        if not isinstance(other, UnitMul) or other.group != self.group:
            raise TypeError("can only compose matching UnitMul maps")
        return UnitMul(self.group, tuple(a * b for a, b in zip(self.units, other.units)))

    def inverse(self) -> "UnitMul":
        return UnitMul(
            self.group,
            tuple(pow(u, -1, m) for u, m in zip(self.units, self.group.moduli)),
        )

    def is_identity(self) -> bool:
        return all(u == 1 for u in self.units)


@dataclass(frozen=True)
class MatrixAuto(Automorphism):
    """An invertible 2x2 matrix acting on Z_m x Z_m."""

    group: AbelianProduct
    matrix: Matrix2

    def __post_init__(self) -> None:
        moduli = self.group.moduli
        if len(moduli) != 2 or moduli[0] != moduli[1] or moduli[0] != self.matrix.m:
            raise ValueError("matrix modulus must match a Z_m x Z_m group")
        if not self.matrix.is_invertible():
            raise NotAUnit("matrix determinant is not a unit")

    def __call__(self, e: Element) -> Element:
        self.group.check(e)
        return self.matrix.apply(e[0], e[1])

    def compose(self, other: "MatrixAuto") -> "MatrixAuto":
        if not isinstance(other, MatrixAuto) or other.group != self.group:
            raise TypeError("can only compose matching MatrixAuto maps")
        return MatrixAuto(self.group, self.matrix.mul(other.matrix))

    def inverse(self) -> "MatrixAuto":
        return MatrixAuto(self.group, self.matrix.inverse())

    def is_identity(self) -> bool:
        return self.matrix == Matrix2.identity(self.matrix.m)


@dataclass(frozen=True)
class HeisenbergUnit(Automorphism):
    """(x, y, z) -> (u x, u y, u^2 z) on the twisted product over Z_m.

    A homomorphism for every unit u: the twist term transforms as
    u^2(x1 y2) = (u x1)(u y2).
    """

    group: HeisenbergGroup
    u: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", self.u % self.group.m)
        if gcd(self.u, self.group.m) != 1:
            raise NotAUnit(f"{self.u} is not a unit mod {self.group.m}")

    def __call__(self, e: Element) -> Element:
        self.group.check(e)
        m = self.group.m
        u = self.u
        return (u * e[0] % m, u * e[1] % m, u * u * e[2] % m)

    def compose(self, other: "HeisenbergUnit") -> "HeisenbergUnit":
        if not isinstance(other, HeisenbergUnit) or other.group != self.group:
            raise TypeError("can only compose matching HeisenbergUnit maps")
        return HeisenbergUnit(self.group, self.u * other.u)

    def inverse(self) -> "HeisenbergUnit":
        return HeisenbergUnit(self.group, pow(self.u, -1, self.group.m))

    def is_identity(self) -> bool:
        return self.u == 1


@dataclass(frozen=True)
class ExplicitAuto(Automorphism):
    """A permutation table over canonical element indices.

    The only variant with no algebraic structure to lean on, so a fresh
    table is checked exactly: it must be a bijection fixing the identity
    with f(x + g) = f(x) + f(g) for every x and every generator g of the
    group, which gives the homomorphism law by induction on word length.
    Compositions and inverses of validated maps skip the check (they are
    homomorphisms by construction).
    """

    group: Group
    perm: tuple[int, ...]
    trusted: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.group.order
        perm = tuple(int(i) for i in self.perm)
        object.__setattr__(self, "perm", perm)
        if len(perm) != n or sorted(perm) != list(range(n)):
            raise ValueError("perm must be a bijection on 0..order-1")
        if perm[0] != 0:
            raise ValueError("an automorphism must fix the identity")
        if self.trusted:
            return
        G = self.group
        elems = G.elements()
        for g in G.generators():
            fg = elems[perm[G.index_of(g)]]
            for ia, a in enumerate(elems):
                left = perm[G.index_of(G.add(a, g))]
                right = G.index_of(G.add(elems[perm[ia]], fg))
                if left != right:
                    raise ValueError("table is not a homomorphism")

    def __call__(self, e: Element) -> Element:
        G = self.group
        return G.element_at(self.perm[G.index_of(e)])

    def compose(self, other: "ExplicitAuto") -> "ExplicitAuto":
        if not isinstance(other, ExplicitAuto) or other.group != self.group:
            raise TypeError("can only compose matching ExplicitAuto maps")
        return ExplicitAuto(
            self.group, tuple(self.perm[i] for i in other.perm), trusted=True
        )

    def inverse(self) -> "ExplicitAuto":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return ExplicitAuto(self.group, tuple(inv), trusted=True)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))


def identity_automorphism(G: Group) -> Automorphism:
    if isinstance(G, AbelianProduct):
        return UnitMul(G, (1,) * len(G.moduli))
    if isinstance(G, HeisenbergGroup):
        return HeisenbergUnit(G, 1)
    return ExplicitAuto(G, tuple(range(G.order)), trusted=True)


def generate_cyclic_group(alpha: Automorphism, cap: int = _ORDER_CAP) -> list[Automorphism]:
    """[id, alpha, alpha^2, ...] up to the first repeat of the identity.

    The identity is produced in alpha's own variant so the resulting list
    composes uniformly.
    """
    if isinstance(alpha, ExplicitAuto):
        ident: Automorphism = ExplicitAuto(
            alpha.group, tuple(range(alpha.group.order)), trusted=True
        )
    elif isinstance(alpha, MatrixAuto):
        ident = MatrixAuto(alpha.group, Matrix2.identity(alpha.matrix.m))
    else:
        ident = identity_automorphism(alpha.group)
    out = [ident]
    cur = alpha
    while not cur.is_identity():
        out.append(cur)
        cur = cur.compose(alpha)
        if len(out) > cap:
            raise OrderOverflow(f"automorphism order exceeds {cap}")
    return out


def is_fixed_point_free(G: Group, autos) -> bool:
    """No non-identity map in `autos` fixes a non-zero element."""
    nontrivial = [a for a in autos if not a.is_identity()]
    if not nontrivial:
        return True
    for g in G.nonzero():
        for a in nontrivial:
            if a(g) == g:
                return False
    return True


def orbits(G: Group, autos) -> list[tuple[Element, ...]]:
    """A-orbits on the non-zero elements, each sorted, in canonical order.

    Representatives are the canonical-least unvisited elements, so the
    resulting block list is already sorted by least element.  Raises
    NotSemiregular when any orbit is shorter than |A|.
    """
    k = len(autos)
    seen: set[Element] = set()
    blocks: list[tuple[Element, ...]] = []
    for g in G.nonzero():
        if g in seen:
            continue
        orbit = {a(g) for a in autos}
        if len(orbit) != k or orbit & seen:
            raise NotSemiregular(f"orbit of {g} has size {len(orbit)} != {k}")
        seen.update(orbit)
        blocks.append(tuple(sorted(orbit)))
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
        canon = []
        for block in blocks:
            b = tuple(sorted(group.check(e) for e in block))
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
        if not autos[0].is_identity():
            raise ValueError("autos[0] must be the identity")
        if len(set(autos)) != len(autos):
            raise ValueError("duplicate automorphisms")
        members = set(autos)
        for a in autos:
            for b in autos:
                if a.compose(b) not in members:
                    raise ValueError("automorphism set is not closed")
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
    report = check_difference_family(G, fam.blocks, k - 1)
    if not report.passed or not is_disjoint(fam.blocks) or not is_partition_of_nonzero(G, fam.blocks):
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
        report = check_difference_family(G, part.blocks, half)
        if not report.passed or not is_disjoint(part.blocks):
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
