"""Roots of unity from one generator of mu_k.

`element_of_multiplicative_order` and `kth_roots_of_unity` once scanned
x = 1, 2, ... with one power per code; on a field, and on Z_q with q
prime, they now take the powers of one generator of mu_k instead.  The
scans are kept below as the reference: every answer, None and every
exception included, must be the same.  Z_q with q composite still scans,
since its units need not be cyclic.
"""

from math import prod

import pytest

from ddfkit.algebra import (
    Field,
    element_of_multiplicative_order,
    factorize,
    is_prime,
    is_prime_power,
    kth_roots_of_unity,
)
from ddfkit.errors import DoesNotDivide


def ref_element_of_multiplicative_order(ring, k):
    if k < 1:
        raise ValueError("order must be >= 1")
    if isinstance(ring, Field):
        units = ring.order - 1
        power = ring.pow
        stop = ring.order
    else:
        q = int(ring)
        if q < 2:
            raise ValueError("modulus must be >= 2")
        units = prod((p - 1) * p ** (e - 1) for p, e in factorize(q).items())

        def power(x, t):
            return pow(x, t, q)

        stop = q
    if units % k:
        return None
    cofactors = [k // r for r in factorize(k)]
    for x in range(1, stop):
        if power(x, k) == 1 and all(power(x, c) != 1 for c in cofactors):
            return x
    return None


def ref_kth_roots_of_unity(field, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    if (field.order - 1) % k != 0:
        raise DoesNotDivide(f"{k} does not divide {field.order - 1}")
    roots = tuple(x for x in range(1, field.order) if field.pow(x, k) == 1)
    if len(roots) != k:
        raise RuntimeError("root count mismatch")
    return roots


class LogField(Field):
    """F_q whose `pow` reads a discrete-log table.

    The scans make one power per code and k, which on extension fields of
    order up to 2000 would take minutes of pure-Python polynomial
    products.  The table is built from `Field.mul` alone: the first code
    whose walk g, g^2, ... first returns to 1 after q - 1 steps is
    primitive, and that walk gives every code's logarithm.
    """

    def __post_init__(self):
        super().__post_init__()
        n = self.order - 1
        for g in range(1, self.order):
            exp = [1]
            while len(exp) <= n:
                nxt = Field.mul(self, exp[-1], g)
                if nxt == 1:
                    break
                exp.append(nxt)
            if len(exp) == n:
                break
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", {x: i for i, x in enumerate(exp)})

    def pow(self, x, t):
        if x == 0:
            return 0 if t else 1
        return self._exp[self._log[x] * t % (self.order - 1)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message must agree
        return type(exc), str(exc)


FIELD_ORDERS = [q for q in range(2, 2001) if is_prime_power(q)]


def test_log_field_powers_are_field_powers():
    for p, e in [(2, 1), (13, 1), (2, 4), (3, 3), (5, 2), (2, 7)]:
        F, L = Field(p, e), LogField(p, e)
        for x in range(F.order):
            for t in (0, 1, 2, 3, 5, F.order - 2, F.order - 1, F.order):
                assert L.pow(x, t) == F.pow(x, t), (p, e, x, t)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_fields_match_scan(q):
    # every k | q - 1, and for the None answers and DoesNotDivide every
    # other k below 60 as well
    F, L = Field.of(q), LogField(*is_prime_power(q))
    for k in sorted({k for k in range(1, q) if (q - 1) % k == 0} | set(range(1, 60))):
        assert element_of_multiplicative_order(F, k) == ref_element_of_multiplicative_order(L, k), (q, k)
        assert outcome(kth_roots_of_unity, F, k) == outcome(ref_kth_roots_of_unity, L, k), (q, k)


def test_moduli_match_scan():
    # every Z_q, q < 1400, k < 40: prime moduli take the generator, the
    # rest still scan, non-cyclic unit groups included
    for q in range(2, 1400):
        for k in range(1, 40):
            got = element_of_multiplicative_order(q, k)
            assert got == ref_element_of_multiplicative_order(q, k), (q, k)


@pytest.mark.parametrize("q", [15, 56, 91])
def test_non_cyclic_units(q):
    units = prod((p - 1) * p ** (e - 1) for p, e in factorize(q).items())
    assert not is_prime(q)
    # no element has order |units|, yet Lagrange allows it: the scan's None
    assert element_of_multiplicative_order(q, units) is None
    for k in range(1, units + 1):
        assert element_of_multiplicative_order(q, k) == ref_element_of_multiplicative_order(q, k), (q, k)


def test_f2_and_order_one():
    F = Field(2)
    assert element_of_multiplicative_order(F, 1) == 1
    assert element_of_multiplicative_order(F, 2) is None
    assert kth_roots_of_unity(F, 1) == (1,)
    with pytest.raises(DoesNotDivide):
        kth_roots_of_unity(F, 2)
    for ring in (2, 3, 15, Field(2, 3), Field(7)):
        assert element_of_multiplicative_order(ring, 1) == 1


@pytest.mark.parametrize("ring", [1, 0, -7, Field(7)])
def test_rejects_like_scan(ring):
    for k in (0, -1, 1, 3):
        assert outcome(element_of_multiplicative_order, ring, k) == outcome(
            ref_element_of_multiplicative_order, ring, k
        ), (ring, k)
    if isinstance(ring, Field):
        for k in (0, -1, 4):
            assert outcome(kth_roots_of_unity, ring, k) == outcome(ref_kth_roots_of_unity, ring, k)


class Exhausted(Exception):
    pass


FIELD_MUL = Field.mul


def count_mul(monkeypatch, limit=None):
    """Count the calls of Field.mul from here on; past `limit`, raise."""
    calls = [0]

    def counting(self, x, y):
        calls[0] += 1
        if limit is not None and calls[0] > limit:
            raise Exhausted
        return FIELD_MUL(self, x, y)

    monkeypatch.setattr(Field, "mul", counting)
    return calls


@pytest.mark.parametrize(
    "fn, ref, F, k",
    [
        (element_of_multiplicative_order, ref_element_of_multiplicative_order, Field(3, 12), 7),
        (kth_roots_of_unity, ref_kth_roots_of_unity, Field(2, 16), 3),
    ],
    ids=["least_order_7_in_F_3^12", "cube_roots_in_F_2^16"],
)
def test_few_multiplications(monkeypatch, fn, ref, F, k):
    calls = count_mul(monkeypatch)
    fn(F, k)
    assert 0 < calls[0] < 1000
    # the scan passes ten times the bound long before its answer (it makes
    # more than 10^5 products in all)
    count_mul(monkeypatch, limit=10**4)
    with pytest.raises(Exhausted):
        ref(F, k)
