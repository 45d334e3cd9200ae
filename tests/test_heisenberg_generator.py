"""`heisenberg_pair` from one generator against the pair of every scalar map.

`reference_heisenberg_pair` is `heisenberg_pair` as it was when it built
one map (x, y, z) -> (ux, uy, u^2 z) per unit u, from one multiplication
table per unit, and checked the units for closure with sets.  The library
now builds the powers of the map of one zeta and checks `units` against
the roots of unity of its size.  On every field with q^3 <= 10^4 and every
odd k | q - 1 both forms must give the reference's family, and a set of
units that is not a subgroup must raise the reference's error.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddfkit.algebra import Field, is_prime_power, kth_roots_of_unity
from ddfkit.constructions import _field_heisenberg_group, _times, heisenberg_pair
from ddfkit.errors import DoesNotDivide, EvenOrderU
from ddfkit.ferrero import FerreroPair, _digit_map, ferrero_ddf
from ddfkit.groups import HeisenbergGroup


def reference_heisenberg_pair(q, units=None, k=None):
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
    HeisenbergGroup(q)._require_enumerable()
    if units is None:
        us = list(kth_roots_of_unity(field, k))
    times = [_times(field, u) for u in us]
    if not all(set(t[us].tolist()) <= set(us) for t in times):
        raise ValueError("units are not closed under multiplication")
    if len(us) % 2 == 0:
        raise EvenOrderU(f"subgroup order {len(us)} must be odd")
    G = HeisenbergGroup(q) if field.e == 1 else _field_heisenberg_group(field)
    autos = [_digit_map(G, [t, t, _times(field, t[u])]) for u, t in zip(us, times)]
    return FerreroPair(group=G, autos=tuple(autos))


def outcome(build, *args, **kwargs):
    """The pair's orbit family, or the type and message of what it raises."""
    try:
        return ferrero_ddf(build(*args, **kwargs))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


FIELDS = [q for q in range(2, 22) if is_prime_power(q) is not None]
CELLS = [(q, k) for q in FIELDS for k in range(3, q, 2) if (q - 1) % k == 0]


def test_every_field_up_to_order_21_is_covered():
    assert FIELDS == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert CELLS == [(4, 3), (7, 3), (8, 7), (11, 5), (13, 3), (16, 3), (16, 5), (16, 15), (19, 3), (19, 9)]


@pytest.mark.parametrize("q, k", CELLS, ids=[f"q{q}-k{k}" for q, k in CELLS])
def test_both_forms_give_the_reference_family(q, k):
    want = outcome(reference_heisenberg_pair, q, k=k)
    assert not isinstance(want, tuple), want
    assert outcome(heisenberg_pair, q, k=k) == want
    units = list(kth_roots_of_unity(Field.of(q), k))
    random.Random(q * 100 + k).shuffle(units)
    assert outcome(heisenberg_pair, q, units=units) == want


def test_the_pair_is_the_powers_of_one_map():
    # zeta = 3, the least element of order 3 in F_13, sends (0,1,0), index
    # 13, to (0,3,0), index 39, and (0,0,1) to (0,0,9)
    pair = heisenberg_pair(13, k=3)
    assert pair.table[:, 13].tolist() == [13, 39, 117] and pair.table[:, 1].tolist() == [1, 9, 3]
    assert pair.table[2].tolist() == pair.table[1][pair.table[1]].tolist()


def not_a_subgroup(q, units):
    us = set(units)
    field = Field.of(q)
    return any(field.mul(a, b) not in us for a in us for b in us)


@given(st.sampled_from([q for q in FIELDS if q > 3]), st.data())
@settings(max_examples=200, deadline=None)
def test_a_set_that_is_not_a_subgroup_raises_the_reference_error(q, data):
    units = data.draw(st.sets(st.integers(2, q - 1), min_size=1).map(lambda s: sorted(s | {1})))
    assume(not_a_subgroup(q, units))
    units = data.draw(st.permutations(units))
    got = outcome(heisenberg_pair, q, units=units)
    assert got == outcome(reference_heisenberg_pair, q, units=units)
    assert got == (ValueError, "units are not closed under multiplication")
