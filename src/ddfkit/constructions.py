"""Concrete (v, k, k-1) disjoint difference family constructions.

Each function builds a fixed-point-free pair (or directly a coset family),
then re-verifies the resulting family exhaustively before returning it.
Unit and root choices are always the canonical-least ones, so outputs are
deterministic.
"""

from __future__ import annotations

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
    NotUnitCondition,
    RequiresAbelianOddOrder,
    VerificationFailed,
)
from .ferrero import (
    DiffFamily,
    ExplicitAuto,
    FerreroPair,
    HeisenbergUnit,
    MatrixAuto,
    UnitMul,
    ferrero_ddf,
    identity_automorphism,
)
from .groups import AbelianProduct, CayleyGroup, Group, HeisenbergGroup
from .verify import certify_indices


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


def _product_mul_perm(G: AbelianProduct, fields: list[Field], units: list[int]) -> np.ndarray:
    """Permutation of G's indices given by componentwise field multiplication.

    A field's code is the mixed-radix index of its coordinates, so each
    field is one digit of G's index, of radix q, multiplied by a lookup.
    """
    idx = np.arange(G.order)
    perm, w = 0, 1
    for f, u in zip(reversed(fields), reversed(units)):
        times_u = np.array([f.mul(u, x) for x in range(f.order)])
        perm = perm + times_u[idx // w % f.order] * w
        w *= f.order
    return perm


# ---------------------------------------------------------------------------
# Multiplicative-coset family in one finite field.


def roots_of_unity_ddf(field: "Field | int", k: int) -> DiffFamily:
    """Cosets of the k-th roots of unity as a (q, k, k-1)-DDF.

    Blocks are the multiplicative cosets of {x : x^k = 1} inside F_q*,
    written additively.  Equivalently these are the fibers of
    x -> x^((q-1)/k) away from zero.
    """
    if isinstance(field, int):
        field = Field.of(field)
    if k < 2:
        raise ValueError("k must be >= 2")
    roots = kth_roots_of_unity(field, k)  # DoesNotDivide when k does not divide q-1
    G = field_additive_group(field)
    # A field's code is the canonical index of its coordinates in G.
    assigned: set[int] = set()
    cosets = []
    for x in range(1, field.order):
        if x in assigned:
            continue
        coset = [field.mul(x, h) for h in roots]
        assigned.update(coset)
        cosets.extend(coset)
    fam = DiffFamily.from_indices(G, cosets, np.full(len(cosets) // k, k), k, k - 1)
    report = certify_indices(G, fam.flat, fam.sizes, k - 1, "ddf")
    if not report.passed:
        raise VerificationFailed(f"coset family failed verification: {report.violations}")
    return fam


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
    for q in qs:
        if is_prime_power(q) is None:
            raise ValueError(f"{q} is not a prime power")
        if q % k != 1:
            raise CongruenceViolation(f"{q} != 1 (mod {k})")
    fields = [Field.of(q) for q in qs]
    units = [element_of_multiplicative_order(f, k) for f in fields]
    moduli: list[int] = []
    for f in fields:
        moduli.extend([f.p] * f.e)
    G = AbelianProduct(moduli)
    if all(f.e == 1 for f in fields):
        alpha = UnitMul(G, tuple(units))
    elif len(fields) == 1 and fields[0].e == 2:
        alpha = MatrixAuto(G, scalar_matrix(fields[0], units[0]))
    else:
        alpha = ExplicitAuto(G, _product_mul_perm(G, fields, units))
    pair = FerreroPair.from_generator(alpha)
    if pair.k != k:
        raise VerificationFailed(f"generator order {pair.k} != {k}")
    return pair


def ea_product_ddf(prime_powers, k: int) -> DiffFamily:
    """Orbit (v, k, k-1)-DDF over the product of the given fields.

    An empty factor list yields the empty family over the trivial group.
    """
    qs = list(prime_powers)
    if not qs:
        if k < 2:
            raise ValueError("k must be >= 2")
        return DiffFamily.build(AbelianProduct(()), (), k, k - 1)
    return ferrero_ddf(ea_product_pair(qs, k))


# ---------------------------------------------------------------------------
# Cyclic rings Z_{q_1} x ... x Z_{q_n} without field structure.


def cyclic_abelian_pair(moduli, k: int) -> FerreroPair:
    """Componentwise unit multiplication of order k on a product of Z_q.

    Requires every prime factor of every modulus to be 1 (mod k); the
    canonical-least unit of order k is chosen in each component.
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
    units = []
    for m in mods:
        u = element_of_multiplicative_order(m, k)
        if u is None:  # cannot happen when the congruence holds
            raise VerificationFailed(f"no unit of order {k} mod {m}")
        units.append(u)
    G = AbelianProduct(mods)
    pair = FerreroPair.from_generator(UnitMul(G, tuple(units)))
    if pair.k != k:
        raise VerificationFailed(f"generator order {pair.k} != {k}")
    return pair


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
    gen = matrix_power(data.phi, data.pi_p // k)
    pair = FerreroPair.from_generator(MatrixAuto(G, gen))
    if pair.k != k:
        raise VerificationFailed(f"generator order {pair.k} != {k}")
    return pair


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
    alpha = MatrixAuto(G, Matrix2(m - 1, 1, m - 1, 0, m))  # (x,y) -> (y-x, -x)
    pair = FerreroPair.from_generator(alpha)
    if pair.k != 3:
        raise VerificationFailed(f"generator order {pair.k} != 3")
    return pair


def q4_order3_ddf(q: int) -> DiffFamily:
    """(q^4, 3, 2)-DDF for any prime power q coprime to 3."""
    return ferrero_ddf(q4_order3_pair(q))


# ---------------------------------------------------------------------------
# Non-commutative construction on the twisted product over F_q.


def _field_heisenberg_group(field: Field) -> CayleyGroup:
    """The twisted product on F_q^3 as a trusted Cayley table.

    Element (a, b, c) gets index a*q^2 + b*q + c, so index order matches
    the lexicographic order on triples.  The field's add and mul tables are
    gathered over every pair of indices.
    """
    q = field.order
    fadd = np.array([[field.add(x, y) for y in range(q)] for x in range(q)], dtype=np.int32)
    fmul = np.array([[field.mul(x, y) for y in range(q)] for x in range(q)], dtype=np.int32)
    idx = np.arange(q**3, dtype=np.int32)
    a, b, c = idx // (q * q), idx // q % q, idx % q
    table = fadd[a[:, None], a] * q + fadd[b[:, None], b]
    table *= q
    table += fadd[fadd[c[:, None], c], fmul[a[:, None], b]]
    return CayleyGroup(table, trusted=True)


def _field_heisenberg_perm(field: Field, u: int) -> np.ndarray:
    """Index permutation of (a,b,c) -> (ua, ub, u^2 c)."""
    q = field.order
    u2 = field.mul(u, u)
    times_u = np.array([field.mul(u, x) for x in range(q)])
    times_u2 = np.array([field.mul(u2, x) for x in range(q)])
    idx = np.arange(q**3)
    return (times_u[idx // (q * q)] * q + times_u[idx // q % q]) * q + times_u2[idx % q]


def heisenberg_pair(q: int, units=None, k: int | None = None) -> FerreroPair:
    """Pair from scalar maps (x,y,z) -> (ux, uy, u^2 z) over R = F_q.

    `units` is a multiplicative subgroup of F_q* (integer codes); omit it
    and pass k to use the k-th roots of unity (k must be an odd divisor of
    q-1).  Every non-identity u needs u^2 - 1 invertible, which forces the
    subgroup order to be odd.
    """
    pe = is_prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    field = Field.of(q)
    if units is None:
        if k is None:
            raise ValueError("pass either units or k")
        if k < 2:
            raise ValueError("k must be >= 2")
        if k % 2 == 0:
            raise EvenOrderU(f"subgroup order {k} must be odd")
        units = kth_roots_of_unity(field, k)  # DoesNotDivide when k does not divide q-1
    elif k is not None:
        raise ValueError("pass either units or k, not both")
    us = sorted({int(u) for u in units})
    if not us or us[0] < 1 or us[-1] >= q:
        raise ValueError("units must be non-zero field element codes")
    if 1 not in us:
        raise ValueError("units must contain 1")
    uset = set(us)
    for a in us:
        for b in us:
            if field.mul(a, b) not in uset:
                raise ValueError("units are not closed under multiplication")
    if len(us) % 2 == 0:
        raise EvenOrderU(f"subgroup order {len(us)} must be odd")
    for u in us:
        if u == 1:
            continue
        if field.sub(field.mul(u, u), 1) == 0:
            raise NotUnitCondition(f"u^2 - 1 vanishes for u = {u}")
    if field.e == 1:
        G: Group = HeisenbergGroup(q)
        autos = [HeisenbergUnit(G, u) for u in us]
    else:
        G = _field_heisenberg_group(field)
        autos = [
            ExplicitAuto(G, _field_heisenberg_perm(field, u), trusted=(u == 1))
            for u in us
        ]
    return FerreroPair(group=G, autos=tuple(autos))


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
    if isinstance(G, AbelianProduct):
        neg = UnitMul(G, tuple(m - 1 for m in G.moduli))
    else:
        neg = ExplicitAuto(G, G.neg_index(np.arange(G.order)))
    return FerreroPair(group=G, autos=(identity_automorphism(G), neg))


def patterned_starter(G: Group) -> DiffFamily:
    """The (v, 2, 1)-DDF of pairs {g, -g} on an odd-order commutative group."""
    if not G.is_abelian():
        raise RequiresAbelianOddOrder("patterned starters need a commutative group")
    if G.order % 2 == 0:
        raise EvenOrder("group order must be odd")
    # Pairs {g, -g}, each led by its lesser index.
    idx = np.arange(1, G.order)
    neg = G.neg_index(idx)
    lead = idx < neg
    rows = np.stack([idx[lead], neg[lead]], axis=1)
    fam = DiffFamily.from_indices(G, rows.ravel(), np.full(len(rows), 2), 2, 1)
    report = certify_indices(G, fam.flat, fam.sizes, 1, "ddf")
    if not report.passed:
        raise VerificationFailed(f"starter failed verification: {report.violations}")
    return fam


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
