"""Concrete (v, k, k-1) disjoint difference family constructions.

Each function builds a fixed-point-free pair (or directly a coset family),
then re-verifies the resulting family exhaustively before returning it.
Unit and root choices are always the canonical-least ones, so outputs are
deterministic.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .algebra import (
    Field,
    Matrix2,
    element_of_multiplicative_order,
    factorize,
    is_prime_power,
    kth_roots_of_unity,
    matrix_power,
    pisano_data,
)
from .errors import (
    CongruenceViolation,
    DivisibleByThree,
    DoesNotDivide,
    EvenOrder,
    EvenOrderU,
    NotSpanning,
    OrderOverflow,
    RequiresAbelianOddOrder,
    TooLarge,
    VerificationFailed,
)
from .ferrero import (
    _ORDER_CAP,
    Automorphism,
    DiffFamily,
    FerreroPair,
    MatrixAuto,
    UnitMul,
    _cycles,
    _digit_map,
    ferrero_ddf,
)
from .groups import AbelianProduct, CayleyGroup, Group, HeisenbergGroup
from .verify import _DESIGN_POINT_LIMIT


def field_additive_group(field: Field) -> AbelianProduct:
    """The additive group of F_{p^e} as Z_p x ... x Z_p (Z_q when e = 1)."""
    return AbelianProduct((field.p,) * field.e)


def scalar_matrix(field: Field, u: int) -> Matrix2:
    """Multiplication by u on a degree-2 field as a 2x2 matrix over Z_p.

    Columns are the coordinate images of the basis t, 1 (big-endian
    coordinate convention).
    """
    if field.e != 2:
        raise ValueError("scalar_matrix needs a degree-2 field")
    c_t = field.to_coords(field.mul(u, field.p))  # code of t is p
    c_1 = field.to_coords(u)
    return Matrix2(c_t[0], c_1[0], c_t[1], c_1[1], field.p)


def _times(field: Field, u: int) -> np.ndarray:
    """Multiplication by u on every code of `field`, as a lookup table.

    On F_p it is u x mod p.  On F_{p^e}, x -> u x is F_p-linear: the
    digits of u x are those of x times the matrix whose row j holds the
    digits of u t^j (t^j has code p^j).
    """
    if field.e == 1:
        return np.arange(field.p, dtype=np.int64) * u % field.p
    weights = field.p ** np.arange(field.e, dtype=np.int64)
    digits = np.arange(field.order, dtype=np.int64)[:, None] // weights % field.p
    images = digits[[field.mul(u, int(w)) for w in weights]]
    return digits @ images % field.p @ weights


def _cyclic_pair(alpha: Automorphism, k: int) -> FerreroPair:
    """The pair generated by `alpha`, which must have order k; OrderOverflow before the cycle pass past the cap."""
    if k > _ORDER_CAP:
        raise OrderOverflow(f"automorphism order exceeds {_ORDER_CAP}")
    pair = FerreroPair.from_generator(alpha, k)
    if pair.k != k:
        raise VerificationFailed(f"generator order {pair.k} != {k}")
    return pair


# ---------------------------------------------------------------------------
# Multiplicative-coset family in one finite field.


def roots_of_unity_ddf(field: "Field | int", k: int) -> DiffFamily:
    """Cosets of the k-th roots of unity as a (q, k, k-1)-DDF.

    Blocks are the multiplicative cosets of {x : x^k = 1} inside F_q*,
    written additively: the orbits of multiplication by zeta, the least
    element of order k, whose powers are the roots.  Equivalently these are
    the fibers of x -> x^k away from zero.
    """
    if isinstance(field, int):
        field = Field.of(field)
    if k < 2:
        raise ValueError("k must be >= 2")
    if (field.order - 1) % k != 0:
        raise DoesNotDivide(f"{k} does not divide {field.order - 1}")
    G = field_additive_group(field)
    G._require_enumerable()
    # A field's code is the canonical index of its coordinates in G.
    rows = _coset_rows(field, k)
    return DiffFamily.certified(G, rows.ravel(), np.full(len(rows), k), k, k - 1, "ddf", "coset family")


def _coset_rows(field: Field, k: int) -> np.ndarray:
    """The cosets of the k-th roots of unity as rows of field codes, each
    row sorted, uncertified; k must divide q - 1."""
    return np.sort(_cycles(_times(field, element_of_multiplicative_order(field, k)), k), axis=1)


# ---------------------------------------------------------------------------
# Products of fields (componentwise roots of unity).


def ea_product_pair(prime_powers, k: int) -> FerreroPair:
    """Fixed-point-free pair on a product of field additive groups.

    Each q_i must be a prime power with q_i = 1 (mod k); the generator
    multiplies component i by the least element of multiplicative order k
    in F_{q_i}.
    """
    qs = [int(q) for q in prime_powers]
    if k < 2:
        raise ValueError("k must be >= 2")
    if not qs:
        raise ValueError("at least one prime power required")
    pes = [is_prime_power(q) for q in qs]
    for q, pe in zip(qs, pes):
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        if q % k != 1:
            raise CongruenceViolation(f"{q} != 1 (mod {k})")
    G = AbelianProduct([p for p, e in pes for _ in range(e)])
    G._require_enumerable()
    fields = [Field(p, e) for p, e in pes]
    # A field's code is the mixed-radix index of its e coordinates in G.
    alpha = _digit_map(G, [_times(f, element_of_multiplicative_order(f, k)) for f in fields])
    return _cyclic_pair(alpha, k)


def ea_product_ddf(prime_powers, k: int) -> DiffFamily:
    """Orbit (v, k, k-1)-DDF over the product of the given fields.

    An empty factor list yields the empty family over the trivial group.
    """
    qs = list(prime_powers)
    if qs:
        return ferrero_ddf(ea_product_pair(qs, k))
    if k < 2:
        raise ValueError("k must be >= 2")
    none = np.empty(0, dtype=np.int64)
    return DiffFamily.certified(AbelianProduct(()), none, none, k, k - 1, "ddf", "orbit family")


# ---------------------------------------------------------------------------
# Cyclic rings Z_{q_1} x ... x Z_{q_n} without field structure.


def cyclic_abelian_pair(moduli, k: int) -> FerreroPair:
    """Componentwise unit multiplication of order k on a product of Z_q.

    Requires every prime factor of every modulus to be 1 (mod k); each
    component takes the least unit of order k modulo each of its primes.
    """
    mods = [int(m) for m in moduli]
    if k < 2:
        raise ValueError("k must be >= 2")
    if not mods:
        raise ValueError("at least one modulus required")
    for m in mods:
        if m < 2:
            raise ValueError("moduli must be >= 2")
        for p in factorize(m):
            if p % k != 1:
                raise CongruenceViolation(f"prime {p} of modulus {m} != 1 (mod {k})")
    G = AbelianProduct(mods)
    G._require_enumerable()
    return _cyclic_pair(UnitMul(G, [_fixed_point_free_unit(m, k) for m in mods]), k)


def _fixed_point_free_unit(m: int, k: int) -> int:
    """The least u of order k modulo every prime p | m (p = 1 mod k gives
    one), so x -> u x fixes only 0.  On a prime power that is the least
    unit of order k; elsewhere the least may fix a residue (4 mod 15 fixes
    5), so the scan needs u^k = 1 and gcd(u^(k/r) - 1, m) = 1, r | k prime."""
    if is_prime_power(m) is not None:
        return element_of_multiplicative_order(m, k)
    cofactors = [k // r for r in factorize(k)]
    return next(
        u for u in range(2, m) if pow(u, k, m) == 1 and all(gcd(pow(u, c, m) - 1, m) == 1 for c in cofactors)
    )


def cyclic_abelian_ddf(moduli, k: int) -> DiffFamily:
    return ferrero_ddf(cyclic_abelian_pair(moduli, k))


# ---------------------------------------------------------------------------
# Fibonacci-matrix construction on Z_{p^2} x Z_{p^2}.


def pisano_pair(p: int, k: int) -> FerreroPair:
    """Pair generated by the order-k power of the period-pi(p) matrix.

    Needs k | pi(p) and p != 5.  The acting matrix is phi^(pi(p)/k) on
    Z_{p^2} x Z_{p^2} where phi is F or F^p, whichever has order pi(p)
    mod p^2.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    data = pisano_data(p)  # FiveExcluded, primality, size guards
    if data.pi_p % k != 0:
        raise DoesNotDivide(f"{k} does not divide pi({p}) = {data.pi_p}")
    m = p * p
    G = AbelianProduct((m, m))
    G._require_enumerable()
    return _cyclic_pair(MatrixAuto(G, matrix_power(data.phi, data.pi_p // k)), k)


def pisano_ddf(p: int, k: int) -> DiffFamily:
    """(p^4, k, k-1)-DDF from Fibonacci-matrix orbits; p != 5, k | pi(p)."""
    return ferrero_ddf(pisano_pair(p, k))


# ---------------------------------------------------------------------------
# The order-3 map (x, y) -> (y - x, -x) on Z_{q^2} x Z_{q^2}.


def q4_order3_pair(q: int) -> FerreroPair:
    """Order-3 fixed-point-free pair on Z_{q^2} x Z_{q^2}, gcd(q, 3) = 1."""
    if is_prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if q % 3 == 0:
        raise DivisibleByThree(f"gcd({q}, 3) != 1")
    m = q * q
    G = AbelianProduct((m, m))
    G._require_enumerable()
    return _cyclic_pair(MatrixAuto(G, Matrix2(m - 1, 1, m - 1, 0, m)), 3)  # (x,y) -> (y-x, -x)


def q4_order3_ddf(q: int) -> DiffFamily:
    """(q^4, 3, 2)-DDF for any prime power q coprime to 3."""
    return ferrero_ddf(q4_order3_pair(q))


# ---------------------------------------------------------------------------
# Non-commutative construction on the twisted product over F_q.


def _field_heisenberg_group(field: Field) -> CayleyGroup:
    """The twisted product on F_q^3 as a trusted Cayley table.

    Element (a, b, c) gets index a*q^2 + b*q + c, so index order matches
    the lexicographic order on triples.  The field's add table (`add_index`
    of its additive group) and mul table (`_times`) are gathered over every
    pair of indices; v = q^3 is bounded as in a design check (v^2 cells).
    """
    q = field.order
    if q**3 > _DESIGN_POINT_LIMIT:
        raise TooLarge(f"a table of order {q**3} exceeds the table limit {_DESIGN_POINT_LIMIT}")
    codes = np.arange(q)
    fadd = field_additive_group(field).add_index(codes[:, None], codes).astype(np.int32)
    fmul = np.stack([_times(field, x) for x in range(q)]).astype(np.int32)
    idx = np.arange(q**3, dtype=np.int32)
    a, b, c = idx // (q * q), idx // q % q, idx % q
    table = fadd[a[:, None], a] * q + fadd[b[:, None], b]
    table *= q
    table += fadd[fadd[c[:, None], c], fmul[a[:, None], b]]
    return CayleyGroup(table, trusted=True)


def heisenberg_pair(q: int, units=None, k: int | None = None) -> FerreroPair:
    """Pair of the scalar maps (x,y,z) -> (ux, uy, u^2 z) over R = F_q, u in
    a subgroup U of F_q*: the powers of the map of zeta, the least element
    of order |U|.

    `units` is U (integer codes); omit it and pass k to use the k-th roots
    of unity (k must be an odd divisor of q-1).  A closed finite set of
    units is a subgroup of the cyclic group F_q*, whose one subgroup of
    order n is the n-th roots of unity, so `units` is checked against
    those.  Every non-identity u needs u^2 - 1 invertible, which holds
    exactly when |U| is odd (no element of order 2).
    """
    field = Field.of(q)
    if units is None:
        if k is None:
            raise ValueError("pass either units or k")
        if k < 2:
            raise ValueError("k must be >= 2")
        if k % 2 == 0:
            raise EvenOrderU(f"subgroup order {k} must be odd")
        if (q - 1) % k:
            raise DoesNotDivide(f"{k} does not divide {q - 1}")
    elif k is not None:
        raise ValueError("pass either units or k, not both")
    else:
        us = sorted({int(u) for u in units})
        if not us or us[0] < 1 or us[-1] >= q:
            raise ValueError("units must be non-zero field element codes")
        if 1 not in us:
            raise ValueError("units must contain 1")
    # The twisted product over F_q has the order of the one over Z_q.
    HeisenbergGroup(q)._require_enumerable()
    if units is not None:
        k = len(us)
        if (q - 1) % k or tuple(us) != kth_roots_of_unity(field, k):
            raise ValueError("units are not closed under multiplication")
        if k % 2 == 0:
            raise EvenOrderU(f"subgroup order {k} must be odd")
    G: Group = HeisenbergGroup(q) if field.e == 1 else _field_heisenberg_group(field)
    # (a, b, c) -> (zeta a, zeta b, zeta^2 c), as in HeisenbergUnit
    t = _times(field, element_of_multiplicative_order(field, k))
    return _cyclic_pair(_digit_map(G, [t, t, t[t]]), k)


def heisenberg_ddf(q: int, units=None, k: int | None = None) -> DiffFamily:
    """(q^3, |U|, |U|-1)-DDF on the twisted product over F_q."""
    return ferrero_ddf(heisenberg_pair(q, units=units, k=k))


# ---------------------------------------------------------------------------
# Patterned starter and partition completion.


def starter_pair(G: Group) -> FerreroPair:
    """The pair (G, {id, -id}) on a commutative group of odd order."""
    if not G.is_abelian():
        raise RequiresAbelianOddOrder("patterned pairs need a commutative group")
    if G.order % 2 == 0:
        raise EvenOrder("group order must be odd")
    G._require_enumerable()
    # Negation is an automorphism of every commutative group.
    return _cyclic_pair(Automorphism(G, G.neg_index(np.arange(G.order)), trusted=True), 2)


def patterned_starter(G: Group) -> DiffFamily:
    """The (v, 2, 1)-DDF of pairs {g, -g} on an odd-order commutative group."""
    if not G.is_abelian():
        raise RequiresAbelianOddOrder("patterned starters need a commutative group")
    if G.order % 2 == 0:
        raise EvenOrder("group order must be odd")
    G._require_enumerable()
    # Pairs {g, -g}, each led by its lesser index.
    idx = np.arange(1, G.order)
    neg = G.neg_index(idx)
    lead = idx < neg
    rows = np.stack([idx[lead], neg[lead]], axis=1)
    return DiffFamily.certified(G, rows.ravel(), np.full(len(rows), 2), 2, 1, "ddf", "starter")


def complete_to_pdf(fam: DiffFamily) -> DiffFamily:
    """Append the singleton {0} to a family partitioning the non-zero part."""
    G = fam.group
    if len(fam.flat) != G.order - 1 or not np.array_equal(np.sort(fam.flat), np.arange(1, G.order)):
        raise NotSpanning("blocks do not partition the non-zero elements")
    flat = np.append(fam.flat, 0)
    sizes = np.append(fam.sizes, 1)
    return DiffFamily.from_indices(G, flat, sizes, fam.k, fam.lam, allow_singletons=True)


def partition_labels(fam: DiffFamily) -> dict:
    """Element -> block index for a family partitioning the whole group."""
    points = map(tuple, fam.group.coords(fam.flat).tolist())
    labels = dict(zip(points, np.repeat(np.arange(len(fam.sizes)), fam.sizes).tolist()))
    if len(labels) != fam.group.order:
        raise NotSpanning("blocks do not partition the group")
    return labels
