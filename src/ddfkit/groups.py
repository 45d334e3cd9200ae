"""Finite groups with exact element arithmetic.

Three concrete representations: direct products of cyclic rings, a twisted
(non-commutative) product on triples over Z_m, and explicit Cayley tables.
Elements are tuples of non-negative integer coordinates at the API and JSON
boundary, and their indices in the canonical order inside the library: the
order is lexicographic on the tuples, with the identity (all zeros) first.

All differences in this library are right differences: diff(a, b) = a + (-b).
"""

from __future__ import annotations

import operator
import os
from functools import cached_property
from itertools import chain, product
from math import prod

import numpy as np

from . import jsonio
from .algebra import _power
from .errors import InvalidElement, NotNormal, TooLarge
from .jsonio import json_plain

Element = tuple[int, ...]

DEFAULT_MAX_ORDER = 10**6


def enumeration_bound() -> int:
    """Largest group order full enumeration will attempt.

    Overridable through the DDF_MAX_ORDER environment variable.
    """
    raw = os.environ.get("DDF_MAX_ORDER")
    return int(raw) if raw else DEFAULT_MAX_ORDER


class Group:
    """Shared interface, and the one codec between tuples and indices.

    Every kind is mixed-radix in canonical order: element (x_1, ..., x_n)
    with 0 <= x_i < radices[i] has index sum_i x_i * prod(radices[i+1:]).
    Each kind writes its arithmetic once, as two kernels on canonical
    indices given as Python ints or numpy integer arrays (which broadcast):
    `add_index` and the fused right difference `sub_index`.  Negation is
    the difference from the identity, `sub_index(0, a)`.  `add`, `neg` and
    `sub` wrap them for tuples, which appear only at the API and JSON
    boundary.
    """

    order: int
    radices: tuple[int, ...]

    def add_index(self, a, b):
        raise NotImplementedError

    def neg_index(self, a):
        return self.sub_index(0, a)

    def sub_index(self, a, b):
        """The right difference a + (-b), fused into one kernel per kind."""
        raise NotImplementedError

    def is_abelian(self) -> bool:
        raise NotImplementedError

    @property
    def zero(self) -> Element:
        return (0,) * len(self.radices)

    def check(self, a: Element) -> Element:
        """Validate arity, coordinate types and ranges; returns the element."""
        self.index_of(a)
        return tuple(a)

    def index_of(self, a: Element) -> int:
        """The canonical index of `a`, which is validated as in `check`."""
        if len(a) != len(self.radices):
            raise InvalidElement(f"expected {len(self.radices)} coordinates, got {len(a)}")
        idx = 0
        for x, m in zip(a, self.radices):
            if type(x) is not int and not isinstance(x, np.integer):
                raise InvalidElement(f"coordinate {x!r} is not an integer")
            if not 0 <= x < m:
                raise InvalidElement(f"coordinate {x} out of range for modulus {m}")
            idx = idx * m + x
        return idx

    def element_at(self, idx: int) -> Element:
        coords = []
        for m in reversed(self.radices):
            idx, x = divmod(idx, m)
            coords.append(x)
        return tuple(reversed(coords))

    def indices(self, elements) -> np.ndarray:
        """Canonical indices of `elements` as an int64 array.

        Raises what `check` raises on the first bad element, and TooLarge
        when the order does not fit in int64.
        """
        if self.order >= 2**63:
            raise TooLarge(f"order {self.order} does not fit in a 64-bit index")
        elems = list(elements)
        n, r = len(elems), len(self.radices)
        try:
            if set(map(len, elems)) - {r} or set(map(type, chain.from_iterable(elems))) - {int}:
                raise TypeError
            coords = np.fromiter(chain.from_iterable(elems), dtype=np.int64, count=n * r)
        except (TypeError, OverflowError):
            # A bad or unusual element: the scalar codec names it, or
            # accepts numpy integer coordinates.
            return np.array([self.index_of(e) for e in elems], dtype=np.int64)
        coords = coords.reshape(n, r)
        bad = ((coords < 0) | (coords >= np.array(self.radices, dtype=np.int64))).any(axis=1)
        if bad.any():
            self.check(elems[int(bad.argmax())])  # raises, naming the element
        return self.from_coords(coords)

    def from_coords(self, coords) -> np.ndarray:
        """Canonical indices of in-range coordinates, given along the last
        axis of an int64 array; unchecked."""
        weights = [prod(self.radices[i + 1 :]) for i in range(len(self.radices))]
        return coords @ np.array(weights, dtype=np.int64)

    def coords(self, idx) -> np.ndarray:
        """The coordinates of canonical indices, along a new last axis: the
        array inverse of `indices`."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(idx.shape + (len(self.radices),), dtype=np.int64)
        for i in reversed(range(len(self.radices))):
            idx, out[..., i] = np.divmod(idx, self.radices[i])
        return out

    def add(self, a: Element, b: Element) -> Element:
        return self.element_at(int(self.add_index(self.index_of(a), self.index_of(b))))

    def neg(self, a: Element) -> Element:
        return self.element_at(int(self.neg_index(self.index_of(a))))

    def sub(self, a: Element, b: Element) -> Element:
        """Right difference a + (-b), the library-wide convention."""
        return self.element_at(int(self.sub_index(self.index_of(a), self.index_of(b))))

    def elements(self) -> list[Element]:
        """All elements in canonical order, identity first."""
        cached = getattr(self, "_elements", None)
        if cached is None:
            self._require_enumerable()
            cached = list(product(*map(range, self.radices)))
            self._elements = cached
        return cached

    def generators(self) -> tuple[int, ...]:
        """Canonical-greedy generators of the whole group, as indices: for the radix
        kinds the unit vectors 1, r_n, r_n*r_(n-1), ..., as `span_generators` finds."""
        self._require_enumerable()
        return tuple(prod(self.radices[i + 1 :]) for i in reversed(range(len(self.radices))))

    def _require_enumerable(self) -> None:
        if self.order > enumeration_bound():
            raise TooLarge(f"order {self.order} exceeds enumeration bound {enumeration_bound()}")

    def nonzero(self) -> list[Element]:
        return self.elements()[1:]

    def scalar(self, t: int, a: Element) -> Element:
        """t-fold sum a + a + ... + a (t >= 0)."""
        if t < 0:
            raise ValueError("scalar multiple must be non-negative")
        return self.element_at(int(_power(self.index_of(a), t, self.add_index, 0)))


class AbelianProduct(Group):
    """Direct product Z_{m_1} x ... x Z_{m_n} with componentwise addition.

    An empty modulus list gives the trivial group (order 1, elements are
    the empty tuple).  Each modulus must be at least 2.
    """

    def __init__(self, moduli) -> None:
        moduli = tuple(int(m) for m in moduli)
        if any(m < 2 for m in moduli):
            raise ValueError("every modulus must be >= 2")
        self.moduli = self.radices = moduli
        self.order = prod(moduli)

    def __repr__(self) -> str:
        return f"AbelianProduct({list(self.moduli)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianProduct) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("abelian", self.moduli))

    def add_index(self, a, b):
        return self._digitwise(operator.add, a, b)

    def sub_index(self, a, b):
        return self._digitwise(operator.sub, a, b)

    def _digitwise(self, op, a, b):
        # Digit by digit, last coordinate first: op(x, y) mod m at weight w; the
        # digit at weight 1 is read off op(a, b) whole, in the broadcast shape.
        if not self.moduli:
            return 0 * op(a, b)
        *rest, m = self.moduli
        out, w = op(a, b) % m, m
        for m in reversed(rest):
            out = out + op(a // w, b // w) % m * w
            w *= m
        return out

    def is_abelian(self) -> bool:
        return True


class HeisenbergGroup(Group):
    """Triples over Z_m under (x1,y1,z1) + (x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1*y2).

    Non-commutative for every m >= 2: (0,1,0) + (1,0,0) = (1,1,0) but
    (1,0,0) + (0,1,0) = (1,1,1).  The inverse is -(x,y,z) = (-x,-y,-z+xy),
    read off symbolically from the operation.
    """

    def __init__(self, m: int) -> None:
        m = int(m)
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.radices = (m, m, m)
        self.order = m**3

    def __repr__(self) -> str:
        return f"HeisenbergGroup({self.m})"

    def __eq__(self, other) -> bool:
        return isinstance(other, HeisenbergGroup) and self.m == other.m

    def __hash__(self) -> int:
        return hash(("heisenberg", self.m))

    def add_index(self, a, b):
        m = self.m
        x1, y1, z1 = a // (m * m), a // m % m, a % m
        x2, y2, z2 = b // (m * m), b // m % m, b % m
        return ((x1 + x2) % m * m + (y1 + y2) % m) * m + (z1 + z2 + x1 * y2) % m

    def sub_index(self, a, b):
        # a + (-b) = (x1 - x2, y1 - y2, z1 - z2 - (x1 - x2) y2)
        m = self.m
        x1, y1, z1 = a // (m * m), a // m % m, a % m
        x2, y2, z2 = b // (m * m), b // m % m, b % m
        dx = x1 - x2
        return (dx % m * m + (y1 - y2) % m) * m + (z1 - z2 - dx * y2) % m

    def is_abelian(self) -> bool:
        return False


class CayleyGroup(Group):
    """Group given by an explicit operation table over indices 0..n-1.

    Index 0 must be the identity.  Elements are 1-tuples (i,).  The table is
    held as an int32 array: a table array that `jsonio.loads` read in int32
    as it is, any other table as a copy, so a caller's table is never
    shared.  Its entry types and shape are checked on the whole; the range
    of its entries, a right inverse for every element, the identity row and
    column, and Light's associativity test on generators of the table are
    checked a block of rows at a time, about `jsonio._CHUNK` cells per
    block, so no temporary grows with the table.  Together these make the
    table a group.  `table` gives the entries as tuples of plain ints.
    """

    def __init__(self, table, trusted: bool = False) -> None:
        n = len(table)
        if n == 0:
            raise ValueError("table must be non-empty")
        if isinstance(table, np.ndarray):
            types = {table.dtype.type}  # one type for every entry
        else:
            types = set(map(type, chain.from_iterable(table)))
        if bool in types or not all(issubclass(ty, (int, np.integer)) for ty in types):
            raise TypeError("table entries must be integers")
        kept = jsonio.is_read_table(table) and table.dtype == np.int32
        try:
            t = table if kept else np.asarray(table, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"table entry out of range: {exc}") from None
        if t.ndim != 2:
            raise TypeError("table rows must be sequences of integers")
        if t.shape[1] != n:
            raise ValueError("table must be square")
        self.order = n
        self.radices = (n,)
        self._table = t if kept else np.empty((n, n), dtype=np.int32)
        # The right inverse of a is the first b with a + b = 0.
        self._inv = np.empty(n, dtype=np.intp)
        has_inverses = True
        step = max(1, jsonio._CHUNK // n)
        for r0 in range(0, n, step):
            block = t[r0 : r0 + step]
            if block.min() < 0 or block.max() >= n:
                raise ValueError(f"table entry {block[(block < 0) | (block >= n)][0]} out of range")
            rows = self._table[r0 : r0 + step]
            if not kept:
                rows[:] = block
            zeros = rows == 0
            has_inverses = has_inverses and bool(zeros.any(axis=1).all())
            self._inv[r0 : r0 + step] = zeros.argmax(axis=1)
        # An entry out of range is reported first, wherever it lies.
        if not has_inverses:
            raise ValueError("some element has no inverse")
        if not trusted:
            self._validate(self._table)

    def _validate(self, t) -> None:
        n = self.order
        idx = np.arange(n)
        if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
            raise ValueError("index 0 is not a two-sided identity")
        # Light's test: the s with (ab)s = a(bs) for all a, b are closed
        # under the operation and hold the identity, so they hold all that
        # generators in them reach, and passing the test on generators gives
        # associativity.  The greedy generators taken last first span again
        # to at most as many, often fewer (Heisenberg(13): 169 and 13, not
        # 1, 13 and 169), and their span holds the greedy ones.  As column
        # gathers: col[t[a, b]] == t[a, col[b]], for a block of rows a at a
        # time.
        gens = span_generators(self, reversed(self.generators()))
        cols = [np.ascontiguousarray(t[:, s]) for s in gens]
        step = max(1, jsonio._CHUNK // n)
        for r0 in range(0, n, step):
            rows = t[r0 : r0 + step]
            for col in cols:
                if not np.array_equal(np.take(col, rows), np.take(rows, col, axis=1)):
                    raise ValueError("operation is not associative")

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._table.tolist()))

    def __repr__(self) -> str:
        return f"CayleyGroup(order={self.order})"

    def __eq__(self, other) -> bool:
        same_order = isinstance(other, CayleyGroup) and self.order == other.order
        return self is other or (same_order and np.array_equal(self._table, other._table))

    def __hash__(self) -> int:
        return hash(("cayley", self.order, tuple(self._table[min(1, self.order - 1)].tolist())))

    def add_index(self, a, b):
        return self._table[a, b]

    def sub_index(self, a, b):
        return self._table[a, self._inv[b]]

    def generators(self) -> tuple[int, ...]:
        """Canonical-greedy generators of the table, by `span_generators`."""
        if getattr(self, "_generators", None) is None:
            self._require_enumerable()
            self._generators = span_generators(self, range(self.order))
        return self._generators

    def is_abelian(self) -> bool:
        gens = self.generators()
        return all(self.add_index(a, b) == self.add_index(b, a) for a in gens for b in gens)


class Subgroup:
    """A subgroup held as the sorted int64 canonical indices of its members.

    The identity and closure under the operation are verified at
    construction: the span of the set's greedy `generators` must stay
    inside it (a finite closed set is closed under negation too).  Only
    `standard_chain` builds its levels unchecked, through `_lattice`.
    """

    def __init__(self, parent: Group, elements) -> None:
        idx = np.sort(parent.indices(elements))
        if (idx[1:] == idx[:-1]).any():
            raise ValueError("duplicate elements in subgroup")
        if not len(idx) or idx[0] != 0:
            raise ValueError("subgroup must contain the identity")
        members = idx.tolist()
        self.generators = span_generators(parent, members, members=set(members))
        self.parent = parent
        self.indices = idx

    @classmethod
    def _lattice(cls, parent: Group, divs) -> "Subgroup":
        """The set d_1 Z x ... x d_n Z (d_i | r_i), unchecked: the caller
        ensures it is a subgroup.  Sorted indices and greedy generators as
        the checked constructor finds them: an outer sum of strided ranges,
        and d_i * w_i (w_i the weight of axis i) where d_i < r_i, last first."""
        idx, gens, w = np.zeros(1, dtype=np.int64), [], 1
        for r, d in zip(reversed(parent.radices), reversed(divs)):
            idx = (np.arange(0, r * w, d * w, dtype=np.int64)[:, None] + idx).ravel()
            if d < r:
                gens.append(d * w)
            w *= r
        H = cls.__new__(cls)
        H.parent, H.indices, H.generators = parent, idx, tuple(gens)
        return H

    @property
    def order(self) -> int:
        return len(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """The members as element tuples, in canonical order."""
        return tuple(map(self.parent.element_at, self.indices.tolist()))

    def __contains__(self, e: Element) -> bool:
        try:
            i = self.parent.index_of(e)
        except InvalidElement:
            return False
        return bool((self.indices == i).any())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.indices.tobytes()))


def span_generators(G: Group, elements, members=None) -> tuple[int, ...]:
    """Canonical-greedy generators of `elements`, canonical indices in G.

    Each element outside the span so far becomes the next generator, and the
    span (everything reached from the identity, index 0, by right addition
    of generators) is closed again.  In a group every span is a subgroup, so
    each new generator at least doubles it.  Raises ValueError once a span
    leaves `members`, when given, naming its least element outside them
    (TooLarge if that span passes the enumeration bound), or when more
    generators are needed than that doubling allows, which only a table
    that is not associative can cause.
    """
    limit = (G.order if members is None else len(members)).bit_length()
    gens: list[int] = []
    span = {0}
    for g in elements:
        if g in span:
            continue
        if len(gens) == limit:
            raise ValueError(f"more than {limit} generators: the operation is not associative")
        gens.append(g)
        # The old span is closed under the old generators; only g is new to it.
        todo = [(x, (g,)) for x in span]
        left = False
        while todo:
            x, steps = todo.pop()
            for s in steps:
                y = int(G.add_index(x, s))
                if y not in span:
                    left = left or (members is not None and y not in members)
                    if left and len(span) >= enumeration_bound():
                        raise TooLarge("the span of a set that is not closed exceeds the enumeration bound")
                    span.add(y)
                    todo.append((y, gens))
        if left:
            missing = G.element_at(min(span.difference(members)))
            raise ValueError(f"not closed under the operation: {missing} is missing")
    return tuple(gens)


def require_normal(G: Group, N: Subgroup, universe=None) -> None:
    """Raise NotNormal unless N is stable under conjugation by `universe`.

    `universe` defaults to the whole group; a Subgroup of G restricts the
    conjugating elements (used for nested chain levels).  Only its stored
    generators conjugate N's generators, which suffices.
    """
    if N.parent != G or (universe is not None and universe.parent != G):
        raise ValueError("subgroup belongs to a different group")
    if G.is_abelian():
        return
    conjugators = G.generators() if universe is None else universe.generators
    gens = np.array(N.generators, dtype=np.int64)
    for g in conjugators:
        outside = ~np.isin(G.sub_index(G.add_index(g, gens), g), N.indices)
        if outside.any():
            n = G.element_at(N.generators[outside.argmax()])
            raise NotNormal(f"conjugate of {n} by {G.element_at(int(g))} leaves the subgroup")


def is_normal_subgroup(G: Group, N: Subgroup) -> bool:
    """Is N stable under conjugation by all of G?  See require_normal."""
    try:
        require_normal(G, N)
    except NotNormal:
        return False
    return True


def group_payload(G: Group) -> dict:
    """The JSON descriptor of G, with a Cayley table as its int array."""
    if isinstance(G, AbelianProduct):
        return {"kind": "abelian", "moduli": list(G.moduli)}
    if isinstance(G, HeisenbergGroup):
        return {"kind": "heisenberg", "m": G.m}
    if isinstance(G, CayleyGroup):
        return {"kind": "cayley", "order": G.order, "table": G._table}
    raise TypeError(f"unknown group type {type(G)!r}")


def group_to_json(G: Group) -> dict:
    return json_plain(group_payload(G))


def int_from_json(x, name: str) -> int:
    """A JSON integer field as given: bools, floats and strings raise TypeError."""
    if type(x) is not int:
        raise TypeError(f"{name} must be an integer, not {x!r}")
    return x


def group_from_json(data: dict) -> Group:
    kind = data.get("kind")
    if kind == "abelian":
        return AbelianProduct([int_from_json(m, "modulus") for m in data["moduli"]])
    if kind == "heisenberg":
        return HeisenbergGroup(int_from_json(data["m"], "m"))
    if kind == "cayley":
        table = data["table"]
        if "order" in data and int_from_json(data["order"], "order") != len(table):
            raise ValueError("declared order does not match table size")
        return CayleyGroup(table)
    raise ValueError(f"unknown group kind {kind!r}")


def element_from_json(data) -> Element:
    """The coordinates as given; the group's codec checks them."""
    return tuple(data)
