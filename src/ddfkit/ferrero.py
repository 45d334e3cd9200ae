"""Fixed-point-free automorphism groups and the orbit difference families
they generate.

A pair (G, A) with A a group of automorphisms acting without non-trivial
fixed points yields a disjoint (v, k, k-1) difference family: the A-orbits
on the non-zero elements.  When G is commutative and v*k is odd the orbit
family splits into two halves of index (k-1)/2 via negation pairing.

Every map is one `Automorphism`, a permutation of canonical element
indices.  The library builds them by two formulas: `_digit_map`, a lookup
per mixed-radix digit (every unit and field map), and `MatrixAuto`.  Every
pair the library builds is cyclic, and a `FerreroPair` holds it as its
generator and cycle leaders, found by one doubling pass over its cycles;
the orbit rows and `split_ddf` are walks of that perm.  A caller's own
maps are held as one read-only (k, v) table of permutation rows; the table
and `autos`, a view of it, are built on first use for any pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, islice
from math import gcd, lcm
from types import SimpleNamespace

import numpy as np

from .algebra import Matrix2, factorize
from .errors import (
    NotAUnit,
    NotSemiregular,
    OrderOverflow,
    PairingFailure,
    RequiresAbelianOddOrder,
)
from .groups import (
    AbelianProduct,
    Element,
    Group,
    HeisenbergGroup,
    element_from_json,
    group_from_json,
    group_payload,
    int_from_json,
    span_generators,
)
from .jsonio import json_plain
from .verify import _stacks, require_certified

_ORDER_CAP = 10**4


class Automorphism:
    """A group automorphism as a permutation of canonical element indices.

    `perm[i]` is the index of the image of element i, as a read-only numpy
    array, so composition is a gather and the inverse a scatter; maps are
    equal when their groups and perms are.  Every table must be a
    bijection fixing the identity, which the constructor checks; a digit
    map (`_digit_map`) is one by construction and skips it.  The trust
    rule: a table that a caller passes is checked to be a homomorphism,
    f(x + g) = f(x) + f(g) for every x and every generator g of the group,
    which gives the law by induction on word length.  Maps the library
    builds from a formula on validated parameters are built with
    `trusted=True` and skip that check: the factories below, the field
    maps and negation of `constructions`, and compositions and inverses
    of maps.
    """

    @classmethod
    def _row(cls, group: Group, perm: np.ndarray) -> "Automorphism":
        """A trusted map on a read-only intp perm known to be a bijection
        fixing 0 (a row of a checked table, or a digit map), not copied."""
        auto = cls.__new__(cls)
        auto.group, auto.perm, auto.trusted = group, perm, True
        return auto

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
        for i in G.generators():
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


# The name for maps that a caller gives as an explicit table: checked.
ExplicitAuto = Automorphism


def _digit_map(G: Group, tables) -> Automorphism:
    """The trusted map sending digit i of every index, in mixed radix with
    radices `len(tables[i])`, to `tables[i][digit]`: a unit or field element
    multiplying each component, whose codes are the digits.

    Each table must be a permutation of its digits fixing 0, as every
    caller's checked unit gives; the map is then a bijection fixing the
    identity, and is not sorted again to show it."""
    scaled, w = [], 1
    for table in reversed(tables):
        scaled.append(np.asarray(table, dtype=np.intp) * w)
        w *= len(scaled[-1])
    # The outer sum over the digits, most significant first, raveled.
    perm = reduce(np.add.outer, reversed(scaled), np.zeros(1, dtype=np.intp)).ravel()
    perm.flags.writeable = False
    return Automorphism._row(G, perm)


def UnitMul(group: AbelianProduct, units) -> Automorphism:
    """Componentwise multiplication by units on an AbelianProduct."""
    if not isinstance(group, AbelianProduct):
        raise TypeError("UnitMul acts on AbelianProduct groups")
    moduli, units = group.moduli, tuple(units)
    if len(units) != len(moduli):
        raise ValueError("one unit per component required")
    for u, m in zip(units, moduli):
        if gcd(u, m) != 1:
            raise NotAUnit(f"{u % m} is not a unit mod {m}")
    return _digit_map(group, [np.arange(m) * (u % m) % m for u, m in zip(units, moduli)])


def MatrixAuto(group: AbelianProduct, matrix: Matrix2) -> Automorphism:
    """An invertible 2x2 matrix acting on Z_m x Z_m."""
    moduli = group.moduli
    if len(moduli) != 2 or moduli[0] != moduli[1] or moduli[0] != matrix.m:
        raise ValueError("matrix modulus must match a Z_m x Z_m group")
    if not matrix.is_invertible():
        raise NotAUnit("matrix determinant is not a unit")
    c = group.coords(np.arange(group.order))
    perm = group.from_coords(np.stack(matrix.apply(c[:, 0], c[:, 1]), axis=1))
    return Automorphism(group, perm, trusted=True)


def HeisenbergUnit(group: HeisenbergGroup, u: int) -> Automorphism:
    """(x, y, z) -> (u x, u y, u^2 z) on the twisted product over Z_m.

    A homomorphism for every unit u: the twist term transforms as
    u^2(x1 y2) = (u x1)(u y2).
    """
    m = group.m
    u %= m
    if gcd(u, m) != 1:
        raise NotAUnit(f"{u} is not a unit mod {m}")
    times_u = np.arange(m) * u % m
    return _digit_map(group, [times_u, times_u, np.arange(m) * (u * u % m) % m])


def identity_automorphism(G: Group) -> Automorphism:
    return Automorphism(G, np.arange(G.order), trusted=True)


def _powers(alpha: Automorphism, cap: int) -> np.ndarray:
    """The perms of id, alpha, alpha^2, ... up to the first repeat of the
    identity, as the rows of one read-only table; OrderOverflow past `cap`."""
    perm = alpha.perm
    row = ident = np.arange(len(perm), dtype=np.intp)
    rows = []
    while True:
        rows.append(row)
        if len(rows) > cap:
            raise OrderOverflow(f"automorphism order exceeds {cap}")
        row = perm[row]
        if (row == ident).all():
            break
    table = np.stack(rows)
    table.flags.writeable = False
    return table


def generate_cyclic_group(alpha: Automorphism, cap: int = _ORDER_CAP) -> list[Automorphism]:
    """[id, alpha, alpha^2, ...] up to the first repeat of the identity."""
    return [Automorphism._row(alpha.group, row) for row in _powers(alpha, cap)]


def _walk(perm: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """Rows x, perm[x], ..., perm^(k-1)[x], one for each x in `points`, by
    doubling: the first w columns and perm^w give the next w."""
    rows = np.empty((len(points), k), dtype=perm.dtype)
    rows[:, 0], w, jump = points, 1, perm
    while w < k:
        rows[:, w : 2 * w] = jump[rows[:, : min(w, k - w)]]
        w *= 2
        if w < k:
            jump = jump[jump]
    return rows


def _cycle_least(perm: np.ndarray, window: int) -> np.ndarray:
    """least[x], the least of x, perm[x], ... in the first 2^r steps, 2^r >=
    window, by pointer doubling (`jump` is perm^(2^s) after s rounds).  It
    is the same at every point of a cycle exactly when no cycle is longer
    than 2^r, which `(least[perm] == least).all()` tells."""
    least, jump = np.arange(len(perm)), perm
    for _ in range((window - 1).bit_length()):
        least, jump = np.minimum(least, least[jump]), jump[jump]
    return least


def _cycles(perm: np.ndarray, k: int) -> np.ndarray:
    """The cycles of `perm`, which fixes 0 and has all other cycles of length
    k, as rows walked from their least index, found by `_cycle_least`."""
    least = _cycle_least(perm, k)
    return _walk(perm, np.flatnonzero(least == np.arange(len(perm)))[1:], k)


def is_fixed_point_free(G: Group, autos) -> bool:
    """No non-identity map in `autos` fixes a non-zero element."""
    nonzero = np.arange(1, G.order)
    return not any((a.perm[1:] == nonzero).any() for a in autos if not a.is_identity())


def _orbit_rows(G: Group, table: np.ndarray) -> np.ndarray:
    """Orbits on the non-zero elements of the maps whose perms are the rows
    of `table`, as sorted index rows, in canonical order; see `orbits`.
    Column i of the table, the images of element i, sorted is the orbit of
    element i; only the columns whose least entry is their own index are
    read.  When they partition the non-zero indices, they are the orbits:
    the least index i that a scan has not seen lies in one such column,
    whose least entry is at most i and cannot be less (i would have been
    seen), so that column is column i.  Otherwise the scan runs on all the
    columns and keeps its verdict.
    """
    # Every perm fixes 0, so 0 leads the indices that are their column's least.
    picked = np.flatnonzero(table.min(axis=0) == np.arange(G.order))[1:]
    rows = np.sort(table[:, picked].T, axis=1)
    if (np.bincount(rows.ravel(), minlength=G.order)[1:] == 1).all():
        return rows
    rows = np.sort(table.T, axis=1)
    k = rows.shape[1]
    seen = bytearray(G.order)
    scanned = []
    for i in range(1, G.order):
        if seen[i]:
            continue
        orbit = sorted(set(rows[i].tolist()))
        if len(orbit) != k or any(seen[j] for j in orbit):
            raise NotSemiregular(f"orbit of {G.element_at(i)} has size {len(orbit)} != {k}")
        for j in orbit:
            seen[j] = 1
        scanned.append(orbit)
    return np.array(scanned, dtype=np.intp).reshape(-1, k)


def orbits(G: Group, autos) -> list[tuple[Element, ...]]:
    """A-orbits on the non-zero elements, each sorted, in canonical order.

    Index order is the canonical element order, so scanning the indices for
    the least unvisited one yields the block list already sorted by least
    element.  Raises NotSemiregular when any orbit is shorter than |A|, or
    meets an earlier one (possible only when `autos` is not closed).
    """
    rows = _orbit_rows(G, np.stack([a.perm for a in autos]))
    points = map(tuple, G.coords(rows.ravel()).tolist())
    return [tuple(islice(points, rows.shape[1])) for _ in range(len(rows))]


@dataclass(frozen=True, eq=False)
class DiffFamily:
    """A block family over a group, stored canonically as index arrays.

    `flat` holds the canonical indices of the block elements, block after
    block, and `sizes` the block sizes.  Each block is sorted, and the blocks
    are in the order of their index rows, which is the order of their
    element tuples.  Element tuples appear only at the API and JSON
    boundary: `blocks` is a tuple view built on first use.  `lam` is the
    common difference multiplicity.
    """

    group: Group
    flat: np.ndarray
    sizes: np.ndarray
    k: int
    lam: int

    @property
    def v(self) -> int:
        return self.group.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffFamily):
            return NotImplemented
        return (self.group, self.k, self.lam) == (other.group, other.k, other.lam) and (
            np.array_equal(self.flat, other.flat) and np.array_equal(self.sizes, other.sizes)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.k, self.lam, self.flat.tobytes(), self.sizes.tobytes()))

    @cached_property
    def blocks(self) -> tuple[tuple[Element, ...], ...]:
        points = map(tuple, self.group.coords(self.flat).tolist())
        return tuple(tuple(islice(points, s)) for s in self.sizes.tolist())

    @classmethod
    def build(cls, group: Group, blocks, k: int, lam: int, *, allow_singletons: bool = False) -> "DiffFamily":
        blocks = list(blocks)
        flat = group.indices(chain.from_iterable(blocks))  # checks every element
        sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
        return cls.from_indices(group, flat, sizes, k, lam, allow_singletons=allow_singletons)

    @classmethod
    def from_indices(
        cls, group: Group, flat, sizes, k: int, lam: int, *, allow_singletons: bool = False
    ) -> "DiffFamily":
        """The family of blocks given as canonical indices, in any order.

        Raises ValueError for the first block, in input order, that repeats
        an element or has a size other than k (or 1, with
        `allow_singletons`); repetition is reported first.
        """
        flat = np.asarray(flat, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.intp)
        # Stacked by size, so that memory stays linear in the block elements.
        repeated = np.zeros(len(sizes), dtype=bool)
        stacks = {}
        for ids, rows in _stacks(flat, sizes):
            rows = stacks[rows.shape[1]] = np.sort(rows, axis=1)
            repeated[ids] = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        bad = repeated | ((sizes != k) & ~(allow_singletons & (sizes == 1)))
        if bad.any():
            i = int(bad.argmax())
            if repeated[i]:
                raise ValueError("block has repeated elements")
            raise ValueError(f"block size {sizes[i]} != {k}")
        singles = stacks.get(1) if k != 1 else None
        flat, sizes = _canonical(stacks.get(k, np.empty((0, k), dtype=np.int64)), singles)
        flat.flags.writeable = sizes.flags.writeable = False
        return cls(group=group, flat=flat, sizes=sizes, k=k, lam=lam)

    @classmethod
    def certified(cls, group: Group, flat, sizes, k: int, lam: int, kind: str, what: str) -> "DiffFamily":
        """The family of the blocks `flat`/`sizes`, once `require_certified`
        passes it as `kind` at `lam`; else VerificationFailed, "<what>
        failed verification".  The one way the library hands out a family.

        Past a disjoint, ddf or pdf verdict no block repeats an element and
        no two blocks share a least one, so the sorted rows in the order of
        their first elements are `from_indices`' canonical order, with its
        size check; a "df" family goes through `from_indices`.
        """
        require_certified(group, flat, sizes, lam, kind, f"{what} failed verification")
        if kind == "df":
            return cls.from_indices(group, flat, sizes, k, lam)
        sizes = np.array(sizes, dtype=np.intp)
        bad = sizes != k
        if bad.any():
            raise ValueError(f"block size {sizes[bad.argmax()]} != {k}")
        rows = np.sort(np.asarray(flat, dtype=np.int64).reshape(len(sizes), k), axis=1)
        # Orbit rows come in ascending order of their first elements already.
        if not (rows[1:, 0] > rows[:-1, 0]).all():
            rows = rows[np.argsort(rows[:, 0])]
        flat = rows.ravel()
        flat.flags.writeable = sizes.flags.writeable = False
        return cls(group=group, flat=flat, sizes=sizes, k=k, lam=lam)

    def payload(self) -> dict:
        """The JSON payload with its bulk as int arrays: the blocks as one
        (blocks, k, coordinates) array when every block has size k, else
        one array per block.  `to_json` is its plain form."""
        coords = self.group.coords(self.flat)
        if (self.sizes == self.k).all():
            blocks = coords.reshape(len(self.sizes), self.k, coords.shape[1])
        else:
            blocks = np.split(coords, np.cumsum(self.sizes)[:-1])
        return {
            "group": group_payload(self.group),
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "blocks": blocks,
        }

    def to_json(self) -> dict:
        return json_plain(self.payload())

    @classmethod
    def from_json(cls, data: dict) -> "DiffFamily":
        group = group_from_json(data["group"])
        blocks = [
            [element_from_json(e) for e in block] for block in data["blocks"]
        ]
        k, lam = int_from_json(data["k"], "k"), int_from_json(data["lambda"], "lambda")
        fam = cls.build(group, blocks, k, lam, allow_singletons=True)
        if "v" in data and int_from_json(data["v"], "v") != fam.v:
            raise ValueError("declared v does not match the group order")
        return fam


class FerreroPair:
    """A group together with a fixed-point-free automorphism group.

    `table` is the read-only (k, v) table whose row i is the perm of map i,
    the identity first, and `autos` a tuple view of trusted `Automorphism`s
    on its rows.  `FerreroPair(group, autos)`, for a caller's list of maps,
    holds their table after checking that they start with the identity,
    are closed under composition, hold no duplicates and act semiregularly.
    `from_generator`, which builds every library pair, holds a cyclic pair
    as its generator perm and cycle leaders, and builds `table` and `autos`
    only for a caller that asks.  Pairs are equal when their groups and
    tables are; two pairs held as generators compare their generators, and
    the hash reads the orbit of index 1, so neither builds a table for them.
    """

    def __init__(self, group: Group, autos) -> None:
        autos = tuple(autos)
        if len(autos) < 2:
            raise ValueError("the automorphism group must be non-trivial")
        if any(a.group != group for a in autos):
            raise ValueError("automorphisms of a different group")
        if not autos[0].is_identity():
            raise ValueError("autos[0] must be the identity")
        table = np.stack([a.perm for a in autos])
        # A finite set holding the identity is closed iff it is the span of
        # its greedy generators S: |A|*|S| compositions, on row positions in
        # the table (the identity at 0, and k, absorbing, for any map outside).
        k, position = len(table), {row.tobytes(): i for i, row in enumerate(table)}
        if len(position) != k:
            raise ValueError("duplicate automorphisms")
        at = SimpleNamespace(
            element_at=str,
            add_index=lambda i, j: k if i == k else position.get(table[i][table[j]].tobytes(), k),
        )
        try:
            span_generators(at, range(k), members=range(k))
        except ValueError:
            raise ValueError("automorphism set is not closed") from None
        if (table[1:, 1:] == np.arange(1, group.order)).any():
            raise NotSemiregular("a non-identity map fixes a non-zero element")
        table.flags.writeable = False
        self.__dict__.update(group=group, k=k, table=table, _generator=None)

    @classmethod
    def from_generator(cls, alpha: Automorphism, k: int | None = None) -> "FerreroPair":
        """The pair of the powers of `alpha`, held as alpha and the least
        index of each non-zero cycle, which one `_cycle_least` pass finds:
        over the stated k if 2 <= k <= _ORDER_CAP, then, if a cycle is
        longer, over _ORDER_CAP + 1.  The order d is the lcm of the cycle
        lengths; alpha^j fixes x exactly when x's cycle length divides j, so
        no power but the identity fixes a non-zero index exactly when every
        non-zero cycle has length d.  The errors are a walk's of the powers,
        in its order (OrderOverflow, the identity, a trivial group,
        NotSemiregular); the caller compares d with k."""
        perm = alpha.perm
        windows = (k, _ORDER_CAP + 1) if k is not None and 2 <= k <= _ORDER_CAP else (_ORDER_CAP + 1,)
        for window in windows:
            least = _cycle_least(perm, window)
            if (least[perm] == least).all():
                break
        else:
            raise OrderOverflow(f"automorphism order exceeds {_ORDER_CAP}")
        # The length of each index's cycle, and the lcm of the distinct ones.
        lengths = np.bincount(least)[least]
        d = lcm(*np.flatnonzero(np.bincount(lengths)).tolist())
        if d > _ORDER_CAP:
            raise OrderOverflow(f"automorphism order exceeds {_ORDER_CAP}")
        if perm[0] != 0:
            raise ValueError("an automorphism must fix the identity")
        if d < 2:
            raise ValueError("the automorphism group must be non-trivial")
        if (lengths[1:] != d).any():
            raise NotSemiregular("a non-identity map fixes a non-zero element")
        pair = cls.__new__(cls)
        leaders = np.flatnonzero(least == np.arange(len(perm)))[1:]
        pair.__dict__.update(group=alpha.group, k=d, _generator=perm, _leaders=leaders)
        return pair

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def table(self) -> np.ndarray:
        return _powers(Automorphism._row(self.group, self._generator), self.k)

    @cached_property
    def autos(self) -> tuple[Automorphism, ...]:
        return tuple(Automorphism._row(self.group, row) for row in self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FerreroPair):
            return NotImplemented
        if self.group != other.group or self.k != other.k:
            return False
        if self._generator is not None and other._generator is not None:
            # Row 1 of a generator's table is the generator, and the rest
            # are its powers.
            return np.array_equal(self._generator, other._generator)
        return np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        # Equal tables have equal columns, and column 1 sorted is the orbit
        # of index 1, walked through a generator with no table.
        alpha = self._generator
        orbit = self.table[:, 1] if alpha is None else _walk(alpha, np.array([1]), self.k)[0]
        return hash((self.group, self.k, np.sort(orbit).tobytes()))

    def __repr__(self) -> str:
        return f"FerreroPair({self.group!r}, k={self.k})"


def ferrero_ddf(pair: FerreroPair) -> DiffFamily:
    """The orbit family of the pair, re-verified as a (v,k,k-1)-DDF: the
    cycles of the generator, walked from the leaders the pair holds, or the
    orbits read off a caller's table."""
    G, k, alpha = pair.group, pair.k, pair._generator
    rows = _orbit_rows(G, pair.table) if alpha is None else _walk(alpha, pair._leaders, k)
    return DiffFamily.certified(G, rows.ravel(), np.full(len(rows), k), k, k - 1, "ddf", "orbit family")


def split_family(G: Group, fam: DiffFamily) -> tuple[DiffFamily, DiffFamily]:
    """Split a (v,k,k-1) orbit family into two (v,k,(k-1)/2) halves.

    Requires G commutative with v*k odd.  Blocks pair up with their
    negations; the canonical-lesser block of each pair goes to the first
    half, and repeated blocks count once.  Both halves are re-verified.
    """
    if fam.group != G:
        raise ValueError("family belongs to a different group")
    if not G.is_abelian() or (fam.v * fam.k) % 2 == 0:
        raise RequiresAbelianOddOrder("splitting needs a commutative group and odd v*k")
    # Per block size, the family's rows, then their negations; `first` is
    # the first row equal to each, so a negation's partner is the first
    # such family row.  Block ids rise with the rows of each size.
    nb = len(fam.sizes)
    first = np.empty(nb, dtype=np.intp)
    partner = np.empty(nb, dtype=np.intp)
    for ids, rows in _stacks(fam.flat, fam.sizes):
        negs = np.sort(G.neg_index(rows), axis=1)
        _, firsts, inverse = np.unique(
            np.concatenate([rows, negs]), axis=0, return_index=True, return_inverse=True
        )
        firsts = firsts[inverse.reshape(-1)]
        first[ids] = ids[firsts[: len(ids)]]
        negs_first = firsts[len(ids) :]
        found = negs_first < len(ids)
        partner[ids] = -1
        partner[ids[found]] = ids[negs_first[found]]
    j = np.arange(nb)
    # A scan in canonical order skips repeated blocks and the partners of
    # the blocks it has taken, so it takes each block below its partner.
    taken = (first == j) & ((partner < 0) | (partner >= j))
    bad = taken & ((partner < 0) | (partner == j))
    if bad.any():
        i = int(bad.argmax())
        if partner[i] == i:
            raise PairingFailure(f"block {fam.blocks[i]} is its own negation")
        raise PairingFailure(f"negation of block {fam.blocks[i]} is not in the family")
    half = (fam.k - 1) // 2
    starts = np.cumsum(fam.sizes) - fam.sizes
    parts = []
    for ids in (np.flatnonzero(taken), partner[taken]):
        sizes = fam.sizes[ids]
        # The elements of the blocks `ids`, block after block.
        at = np.arange(sizes.sum()) + np.repeat(starts[ids] - (np.cumsum(sizes) - sizes), sizes)
        parts.append(DiffFamily.certified(G, fam.flat[at], sizes, fam.k, half, "disjoint", "split half"))
    return parts[0], parts[1]


def split_ddf(pair: FerreroPair, fam: DiffFamily) -> tuple[DiffFamily, DiffFamily]:
    """split_family plus a check that `fam` really is the pair's orbit family.

    A block is the orbit of its least element, the images of that element
    under every map (walked through the generator, or read off a caller's
    table): {0} for the zero element.
    """
    G = pair.group
    if fam.group != G:
        raise ValueError("family belongs to a different group")
    k = pair.k
    starts = np.cumsum(fam.sizes) - fam.sizes
    least = fam.flat[starts]
    full = fam.sizes == k
    alpha = pair._generator
    images = np.sort(pair.table[:, least[full]].T if alpha is None else _walk(alpha, least[full], k), axis=1)
    is_orbit = (fam.sizes == 1) & (least == 0)
    is_orbit[full] = (images == fam.flat[starts[full, None] + np.arange(k)]).all(axis=1)
    if not is_orbit.all():
        raise ValueError("family blocks are not orbits of the given pair")
    return split_family(G, fam)


def _canonical(rows: np.ndarray, singles) -> tuple[np.ndarray, np.ndarray]:
    """(flat, sizes) of the sorted size-k `rows` and of the singleton
    blocks `singles` (a column, or None), all in canonical order.

    The rows go by lexsort and the singletons by value; merged by first
    element, a singleton goes ahead of the rows it starts, as a prefix does.
    """
    nb, k = rows.shape
    rows = rows[np.lexsort(rows.T[::-1])] if k else rows
    singles = np.sort(singles[:, 0]) if singles is not None else np.empty(0, dtype=np.int64)
    firsts = rows[:, 0] if k else np.full(nb, -1)
    at_rows = np.arange(nb) + np.searchsorted(singles, firsts, side="right")
    at_singles = np.arange(len(singles)) + np.searchsorted(firsts, singles, side="left")
    sizes = np.empty(nb + len(singles), dtype=np.intp)
    sizes[at_rows], sizes[at_singles] = k, 1
    starts = np.cumsum(sizes) - sizes
    flat = np.empty(nb * k + len(singles), dtype=np.int64)
    flat[starts[at_rows, None] + np.arange(k)] = rows
    flat[starts[at_singles]] = singles
    return flat, sizes


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
