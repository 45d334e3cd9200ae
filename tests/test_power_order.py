"""One square-and-multiply and one walk to the identity.

`algebra._power` serves `Field.pow`, `matrix_power` and `Group.scalar`, and
`algebra._order` serves `matrix_order` and `pisano_data`.  `_power` makes
popcount(n) + bit_length(n) - 2 products for n >= 1 and none for n = 0.  Each caller once
wrote its own loop; those loops are kept below as the reference.  Every
caller must give the same value, or raise the same exception type with the
same message, at its cap and just past it included.  The walk also runs
here on the unit, field and group operations of three callers that no
longer exist; where their loops raised, it must pass its cap (None).
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit.algebra import Field, Matrix2, _order, _power, _powers_of, matrix_order, matrix_power, pisano_data
from ddfkit.errors import NotAUnit, TooLarge
from ddfkit.groups import AbelianProduct, CayleyGroup, Group, HeisenbergGroup
from test_index_kernel import heisenberg_as_table

SETTINGS = settings(max_examples=200, deadline=None)

FIELDS = [Field(2), Field(13), Field(2, 2), Field(2, 3), Field(3, 2), Field(2, 4), Field(3, 3), Field(5, 2)]
GROUPS = [
    AbelianProduct(()),
    AbelianProduct((12,)),
    AbelianProduct((4, 6)),
    AbelianProduct((2, 3, 5)),
    HeisenbergGroup(4),
    HeisenbergGroup(5),
    CayleyGroup(heisenberg_as_table(3)),
]


# ---------------------------------------------------------------------------
# References: the loops each caller wrote.


def ref_field_pow(F, x, n):
    if n < 0:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return ref_field_pow(F, ref_field_pow(F, x, F.order - 2), -n)
    if F.e == 1:
        return pow(x, n, F.p)
    acc = 1
    base = x
    while n:
        if n & 1:
            acc = F.mul(acc, base)
        base = F.mul(base, base)
        n >>= 1
    return acc


def ref_matrix_power(M, t):
    if t < 0:
        raise ValueError("exponent must be non-negative")
    acc = Matrix2.identity(M.m)
    base = M
    while t:
        if t & 1:
            acc = acc.mul(base)
        base = base.mul(base)
        t >>= 1
    return acc


def ref_scalar(G, t, a):
    if t < 0:
        raise ValueError("scalar multiple must be non-negative")
    acc, base = 0, G.index_of(a)
    while t:
        if t & 1:
            acc = G.add_index(acc, base)
        base = G.add_index(base, base)
        t >>= 1
    return G.element_at(int(acc))


def ref_unit_order(q, u):
    u %= q
    if gcd(u, q) != 1:
        raise NotAUnit(f"{u} is not a unit mod {q}")
    cur = u
    t = 1
    while cur != 1:
        cur = cur * u % q
        t += 1
    return t


def ref_mult_order(F, x):
    if x == 0:
        raise ValueError("0 has no multiplicative order")
    cur = x
    t = 1
    while cur != 1:
        cur = F.mul(cur, x)
        t += 1
    return t


def ref_element_order(G, a):
    a = cur = G.index_of(a)
    t = 1
    while cur != 0:
        cur = G.add_index(cur, a)
        t += 1
        if t > G.order:
            raise RuntimeError("element order exceeded group order")
    return t


def ref_matrix_order(M, cap=10**7):
    ident = Matrix2.identity(M.m)
    cur = M
    t = 1
    while cur != ident:
        cur = cur.mul(M)
        t += 1
        if t > cap:
            raise TooLarge("matrix order exceeds cap")
    return t


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raises."""
    try:
        return "value", f(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def same(new, ref, *args):
    assert outcome(new, *args) == outcome(ref, *args)


def same_walk(x, op, unit, cap, ref, *args):
    """`_order` gives the reference's value, or None where it raises."""
    want = outcome(ref, *args)
    assert _order(x, op, unit, cap) == (want[1] if want[0] == "value" else None)


# ---------------------------------------------------------------------------
# Square-and-multiply.


@given(st.sampled_from(FIELDS), st.data())
@SETTINGS
def test_field_pow(F, data):
    x = data.draw(st.integers(0, F.order - 1))
    n = data.draw(st.integers(-3 * F.order, 3 * F.order))
    same(F.pow, lambda x, n: ref_field_pow(F, x, n), x, n)


def matrices(max_m=12):
    return st.integers(2, max_m).flatmap(
        lambda m: st.builds(Matrix2, *[st.integers(-m, 2 * m)] * 4, st.just(m))
    )


@given(matrices(), st.integers(-3, 300))
@SETTINGS
def test_matrix_power(M, t):
    same(matrix_power, ref_matrix_power, M, t)


@given(st.sampled_from(GROUPS), st.data())
@SETTINGS
def test_group_scalar(G, data):
    a = G.element_at(data.draw(st.integers(0, G.order - 1)))
    t = data.draw(st.integers(-3, 3 * G.order))
    same(G.scalar, lambda t, a: ref_scalar(G, t, a), t, a)


@given(st.integers(0, 2**70), st.integers(-50, 50))
@SETTINGS
def test_power_makes_no_wasted_product(n, x):
    # starts from x at the lowest set bit and squares no further than the
    # top bit: no product by the unit and no squaring past the end
    calls = []

    def op(a, b):
        calls.append(None)
        return a + b

    assert _power(x, n, op, 0) == n * x
    assert len(calls) == (n.bit_count() + n.bit_length() - 2 if n else 0)


@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=5), st.integers(-50, 50))
@SETTINGS
def test_powers_share_one_run_of_squarings(exponents, x):
    calls = []

    def op(a, b):
        calls.append(None)
        return a + b

    assert _powers_of(x, exponents, op, 0) == [n * x for n in exponents]
    squarings = max(max(exponents).bit_length() - 1, 0)
    assert len(calls) == squarings + sum(max(n.bit_count() - 1, 0) for n in exponents)


# ---------------------------------------------------------------------------
# The walk to the identity.


@given(st.integers(2, 500), st.integers(-1000, 1000))
@SETTINGS
def test_unit_order(q, u):
    # a unit's order is below q; a non-unit's walk never meets 1
    same_walk(u % q, lambda x, y: x * y % q, 1, q, ref_unit_order, q, u)


@given(st.sampled_from(FIELDS), st.data())
@SETTINGS
def test_field_mult_order(F, data):
    x = data.draw(st.integers(0, F.order - 1))
    same_walk(x, F.mul, 1, F.order, ref_mult_order, F, x)


@given(st.sampled_from(GROUPS), st.data())
@SETTINGS
def test_group_element_order(G, data):
    a = G.element_at(data.draw(st.integers(0, G.order - 1)))
    same_walk(G.index_of(a), G.add_index, 0, G.order, ref_element_order, G, a)


class Cycle(Group):
    """Index arithmetic mod `length` under a stated order, so that an
    element's walk can end at the order cap or just past it."""

    def __init__(self, order, length):
        self.order, self.radices, self.length = order, (max(order, length),), length

    def add_index(self, a, b):
        return (a + b) % self.length


@pytest.mark.parametrize("length", [1, 2, 6, 7, 8, 20])
def test_group_element_order_at_its_cap(length):
    # the walk of 1 takes `length` steps; the cap is the stated order, 7
    G = Cycle(7, length)
    a = G.element_at(min(1, length - 1))
    same_walk(G.index_of(a), G.add_index, 0, G.order, ref_element_order, G, a)
    assert (_order(G.index_of(a), G.add_index, 0, G.order) is None) == (length > 7)


@given(matrices(), st.data())
@SETTINGS
def test_matrix_order_at_its_cap(M, data):
    # a singular M never reaches I, so every cap is passed
    t = outcome(ref_matrix_order, M, 500)
    caps = [0, 1, 2, 500] + ([t[1] - 1, t[1], t[1] + 1] if t[0] == "value" else [])
    cap = data.draw(st.sampled_from(caps))
    same(matrix_order, ref_matrix_order, M, cap)


def test_matrix_order_default_cap():
    F = Matrix2.fibonacci(1000)
    assert matrix_order(F) == ref_matrix_order(F) == 1500


@pytest.mark.parametrize("p", [2, 3, 7, 11, 13, 29, 31, 97])
def test_pisano_data_period_walk(p):
    # pi(p^2) as the order of F^pi(p) mod p^2, walked at most p steps
    data = pisano_data(p)
    step = ref_matrix_power(Matrix2.fibonacci(p * p), data.pi_p)
    assert data.pi_p2 == data.pi_p * ref_matrix_order(step, cap=p)
