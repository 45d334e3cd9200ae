"""The digit-lookup maps and field tables against the code they replaced.

`_times(field, u)` is multiplication by u on every code; `_digit_map` sends
each mixed-radix digit of an index through a table.  The references below
are `field.mul` itself, the coset loop of `roots_of_unity_ddf` and the
fibers of x -> x^k for its cycles of x zeta, and the
three ways `ea_product_pair` chose its generator: `UnitMul` on prime
fields, `MatrixAuto(scalar_matrix)` on one degree-2 field and a digit
lookup through `field.mul` tables otherwise.
"""

import numpy as np
import pytest

from ddfkit.algebra import (
    Field,
    element_of_multiplicative_order,
    is_prime_power,
    kth_roots_of_unity,
    prime_power_factors,
)
from ddfkit.constructions import (
    _cycles,
    _times,
    ea_product_pair,
    field_additive_group,
    roots_of_unity_ddf,
    scalar_matrix,
)
from ddfkit.ferrero import (
    Automorphism,
    DiffFamily,
    MatrixAuto,
    UnitMul,
    _digit_map,
    feasible_parameters,
)
from ddfkit.groups import AbelianProduct

FIELDS = [Field.of(q) for q in range(2, 257) if is_prime_power(q) is not None]
# Non-default moduli: x^2+2x+2 over Z_3, x^3+x^2+1 over Z_2, x^2+x+2 over Z_5.
OTHER_FIELDS = [Field(3, 2, (2, 2, 1)), Field(2, 3, (1, 0, 1, 1)), Field(5, 2, (2, 1, 1))]


@pytest.mark.parametrize("field", FIELDS + OTHER_FIELDS, ids=repr)
def test_times_is_field_multiplication(field):
    q = field.order
    for u in range(1, q):
        assert _times(field, u).tolist() == [field.mul(u, x) for x in range(q)]


def test_digit_map_reads_digits_by_table_length():
    # radices 2, 3 and 5 on an order-30 group of any kind
    G = AbelianProduct((30,))
    tables = [[0, 1], [0, 2, 1], [0, 3, 1, 4, 2]]
    want = [(a * 15 + b * 5 + c) for a in (0, 1) for b in (0, 2, 1) for c in (0, 3, 1, 4, 2)]
    assert _digit_map(G, tables).perm.tolist() == want
    assert _digit_map(G, tables).trusted
    assert _digit_map(AbelianProduct(()), []).is_identity()


# ---------------------------------------------------------------------------
# roots_of_unity_ddf against its earlier coset loop.


def ref_roots_family(field, k):
    """The earlier loop: x times the k-th roots, for the least x not yet seen."""
    roots = kth_roots_of_unity(field, k)
    assigned, cosets = set(), []
    for x in range(1, field.order):
        if x in assigned:
            continue
        coset = [field.mul(x, h) for h in roots]
        assigned.update(coset)
        cosets.extend(coset)
    G = field_additive_group(field)
    return DiffFamily.from_indices(G, cosets, np.full(len(cosets) // k, k), k, k - 1)


@pytest.mark.parametrize("field", FIELDS + OTHER_FIELDS, ids=repr)
def test_roots_family_is_the_coset_loop(field):
    for k in range(2, field.order):
        if (field.order - 1) % k == 0:
            assert roots_of_unity_ddf(field, k) == ref_roots_family(field, k)


@pytest.mark.parametrize("q, k", [(65537, 4096), (12289, 12288), (65537, 2)])
def test_cosets_at_large_k_are_the_fibers(q, k):
    # The cycles of x zeta in O(q log k): a pass per zeta power, O(q k),
    # would make this take seconds.  The fibers of x -> x^k are the
    # cosets of the k-th roots of unity.
    field = Field.of(q)
    rows = _cycles(_times(field, element_of_multiplicative_order(field, k)), k)
    keys = np.array([pow(x, k, q) for x in range(1, q)])
    fibers = (np.lexsort((np.arange(1, q), keys)) + 1).reshape(-1, k)
    assert np.array_equal(np.sort(rows, axis=1), fibers[np.argsort(fibers[:, 0])])


# ---------------------------------------------------------------------------
# ea_product_pair against its earlier three-way choice of generator.


def ref_product_mul_perm(G, fields, units):
    """The earlier digit lookup, one field per digit of radix q."""
    idx = np.arange(G.order)
    perm, w = 0, 1
    for f, u in zip(reversed(fields), reversed(units)):
        times_u = np.array([f.mul(u, x) for x in range(f.order)])
        perm = perm + times_u[idx // w % f.order] * w
        w *= f.order
    return perm


def ref_ea_generator(qs, k):
    fields = [Field.of(q) for q in qs]
    units = [element_of_multiplicative_order(f, k) for f in fields]
    G = AbelianProduct([f.p for f in fields for _ in range(f.e)])
    if all(f.e == 1 for f in fields):
        return UnitMul(G, tuple(units))
    if len(fields) == 1 and fields[0].e == 2:
        return MatrixAuto(G, scalar_matrix(fields[0], units[0]))
    return Automorphism(G, ref_product_mul_perm(G, fields, units), trusted=True)


GRID = [(v, k) for v in range(2, 201) for k in range(2, 13) if feasible_parameters(v, k)]


def test_grid_has_every_feasible_cell():
    assert len(GRID) == 278


@pytest.mark.parametrize("v", sorted({v for v, _ in GRID}))
def test_ea_generator_is_the_three_way_choice(v):
    qs = prime_power_factors(v)
    for k in (k for w, k in GRID if w == v):
        assert ea_product_pair(qs, k).autos[1] == ref_ea_generator(qs, k)
