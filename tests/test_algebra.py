"""Number theory, finite fields, matrices, Fibonacci periods.

Golden values are frozen from independent computation: periods from the
plain big-integer Fibonacci sequence, field tables from hand-reduced
polynomial arithmetic.
"""

from math import gcd
from unittest import mock

import pytest

from ddfkit import algebra
from ddfkit.algebra import (
    Field,
    _find_irreducible,
    Matrix2,
    element_of_multiplicative_order,
    factorize,
    is_prime,
    is_prime_power,
    kth_roots_of_unity,
    matrix_order,
    matrix_power,
    pisano_data,
    pisano_period,
    prime_power_factors,
    smallest_prime_factor,
)
from ddfkit.errors import DoesNotDivide, FiveExcluded, TooLarge

PRIMES_BELOW_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def naive_fib_period(n: int) -> int:
    """Independent oracle: scan the big-integer Fibonacci sequence."""
    a, b = 0, 1
    t = 0
    while True:
        a, b = b, a + b
        t += 1
        if a % n == 0 and b % n == 1:
            return t


def orders_by_full_scan(ring) -> dict[int, int]:
    """Every unit's multiplicative order by repeated multiplication: the
    reference for the order test in element_of_multiplicative_order."""
    if isinstance(ring, Field):
        units, mul = range(1, ring.order), ring.mul
    else:
        units, mul = [x for x in range(1, ring) if gcd(x, ring) == 1], lambda x, y: x * y % ring
    orders = {}
    for x in units:
        y, t = x, 1
        while y != 1:
            y, t = mul(y, x), t + 1
        orders[x] = t
    return orders


class TestPrimes:
    def test_small_primes(self):
        assert [n for n in range(2, 60) if is_prime(n)] == PRIMES_BELOW_60

    def test_carmichael_numbers_rejected(self):
        assert not is_prime(561)
        assert not is_prime(1105)
        assert not is_prime(41041)

    def test_large_values(self):
        assert is_prime(2**31 - 1)
        assert is_prime(10**9 + 7)
        assert not is_prime((2**31 - 1) * 3)

    def test_edge(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)


class TestFactorization:
    def test_golden(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}
        assert factorize(97) == {97: 1}

    def test_prime_power_factors(self):
        assert prime_power_factors(360) == [5, 8, 9]
        assert prime_power_factors(117) == [9, 13]
        assert prime_power_factors(1) == []

    def test_smallest_prime_factor(self):
        assert smallest_prime_factor(91) == 7
        assert smallest_prime_factor(97) == 97
        assert smallest_prime_factor(4) == 2
        with pytest.raises(ValueError):
            smallest_prime_factor(1)

    def test_is_prime_power(self):
        assert is_prime_power(64) == (2, 6)
        assert is_prime_power(243) == (3, 5)
        assert is_prime_power(7) == (7, 1)
        assert is_prime_power(12) is None
        assert is_prime_power(1) is None

    def test_too_large(self):
        with pytest.raises(TooLarge):
            factorize(10**9 + 1)


class TestPrimeField:
    def test_arithmetic_mod_13(self):
        f = Field.of(13)
        assert f.order == 13 and f.e == 1
        assert f.mul(6, 11) == 1
        assert f.inv(6) == 11
        assert f.add(9, 9) == 5
        assert f.neg(5) == 8
        assert f.pow(2, 12) == 1
        assert (f.pow(2, 4), f.pow(2, 6)) == (3, 12)  # 2 has order 12
        assert f.to_coords(7) == (7,)
        assert f.from_coords((7,)) == 7

    def test_element_code_check(self):
        f = Field.of(13)
        assert f.check(7) == 7
        with pytest.raises(ValueError):
            f.check(13)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


class TestExtensionField:
    def test_f9_modulus_is_first_in_code_order(self):
        # x^2 + 1 is the least monic irreducible over Z_3: every candidate
        # with zero constant term has the root 0.
        f = Field(3, 2)
        assert f.irreducible == (1, 0, 1)

    def test_f9_table_spots(self):
        f = Field(3, 2)
        # code 3 encodes t; t^2 = -1 = 2 under the modulus t^2 + 1
        assert f.mul(3, 3) == 2
        assert f.to_coords(3) == (1, 0)
        assert f.from_coords((1, 0)) == 3
        # coordinate tuples sort like the codes themselves
        codes = list(range(9))
        assert sorted(codes, key=f.to_coords) == codes

    def test_f4_table(self):
        f = Field(2, 2)
        assert f.irreducible == (1, 1, 1)
        assert f.mul(2, 2) == 3  # t^2 = t + 1
        assert f.mul(2, 3) == 1  # t and t+1 are inverse
        assert f.pow(2, 3) == 1

    def test_field_axioms_exhaustive_f9_f8(self):
        for f in (Field(3, 2), Field(2, 3)):
            q = f.order
            for a in range(q):
                for b in range(q):
                    assert f.mul(a, b) == f.mul(b, a)
                    assert f.add(a, b) == f.add(b, a)
                    for c in range(q):
                        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_every_nonzero_invertible_f27(self):
        f = Field(3, 3)
        for x in range(1, 27):
            assert f.mul(x, f.inv(x)) == 1

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            Field(3, 2, irreducible=(0, 0, 1))  # t^2 factors as t*t

    def test_default_moduli_pass_the_given_modulus_checks(self):
        # A default modulus is not re-checked: given back as the caller's
        # modulus, it must pass the checks that are skipped for it.  The
        # memoised modulus is the one the search finds.
        fields = 0
        for q in range(4, 4097):
            pe = is_prime_power(q)
            if pe is None or pe[1] == 1:
                continue
            f = Field.of(q)
            assert f.irreducible == _find_irreducible(*pe) == _find_irreducible.__wrapped__(*pe)
            assert Field(*pe, irreducible=f.irreducible) == f
            fields += 1
        assert fields == 40

    def test_default_modulus_is_searched_once(self):
        # The second field of each (p, e) takes the memoised modulus and
        # tests no polynomial for irreducibility.
        for pe in [(2, 6), (3, 4), (2, 7), (5, 3)]:
            first = Field(*pe)
            with mock.patch.object(algebra, "_is_irreducible", side_effect=AssertionError):
                assert Field(*pe) == first


class TestUnitsAndRoots:
    def test_least_order_k_unit(self):
        assert element_of_multiplicative_order(49, 3) == 18
        assert element_of_multiplicative_order(Field.of(13), 3) == 3
        assert element_of_multiplicative_order(7, 3) == 2
        assert element_of_multiplicative_order(7, 5) is None

    def test_least_choice_is_minimal(self):
        u = element_of_multiplicative_order(49, 3)
        assert u == 18
        assert all(pow(c, 3, 49) != 1 for c in range(2, u))

    @pytest.mark.parametrize("as_field", [False, True], ids=["Z_q", "F_q"])
    def test_order_test_matches_full_order_scan(self, as_field):
        # every k <= q, for every modulus 2 <= q <= 256 and every field of
        # order at most 256: the least element of order exactly k, or None
        qs = [q for q in range(2, 257) if not as_field or is_prime_power(q)]
        for q in qs:
            ring = Field.of(q) if as_field else q
            orders = orders_by_full_scan(ring)
            for k in range(1, q + 1):
                least = min((x for x, o in orders.items() if o == k), default=None)
                assert element_of_multiplicative_order(ring, k) == least, (q, k)

    def test_kth_roots(self):
        f = Field.of(13)
        assert kth_roots_of_unity(f, 3) == (1, 3, 9)
        assert kth_roots_of_unity(f, 2) == (1, 12)
        assert kth_roots_of_unity(f, 12) == tuple(range(1, 13))
        with pytest.raises(DoesNotDivide):
            kth_roots_of_unity(f, 5)

    def test_kth_roots_extension_field(self):
        f = Field(3, 2)
        roots = kth_roots_of_unity(f, 4)
        assert len(roots) == 4
        for r in roots:
            assert f.pow(r, 4) == 1


class TestMatrix2:
    def test_fibonacci_matrix(self):
        F = Matrix2.fibonacci(9)
        assert F.rows() == [[1, 1], [1, 0]]
        assert matrix_power(F, 3).rows() == [[3, 2], [2, 1]]
        assert matrix_power(F, 12).rows() == [[8, 0], [0, 8]]

    def test_inverse(self):
        F = Matrix2.fibonacci(49)
        assert F.det() == 48
        assert F.mul(F.inverse()) == Matrix2.identity(49)
        assert F.inverse().mul(F) == Matrix2.identity(49)

    def test_non_invertible(self):
        M = Matrix2(2, 4, 1, 2, 8)
        assert not M.is_invertible()
        with pytest.raises(Exception):
            M.inverse()

    def test_apply(self):
        M = Matrix2(3, 2, 2, 1, 9)
        assert M.apply(0, 1) == (2, 1)
        assert M.apply(0, 4) == (8, 4)

    def test_order_equals_pisano_period(self):
        for m in (2, 3, 4, 5, 9, 10, 11):
            F = Matrix2.fibonacci(m)
            pi = pisano_period(m)
            assert matrix_power(F, pi) == Matrix2.identity(m)
            assert matrix_order(F) == pi


class TestPisanoPeriod:
    GOLDEN = {2: 3, 3: 8, 4: 6, 5: 20, 6: 24, 7: 16, 8: 12, 9: 24,
              10: 60, 11: 10, 12: 24, 13: 28, 25: 100, 49: 112, 121: 110}

    def test_golden_table(self):
        for n, pi in self.GOLDEN.items():
            assert pisano_period(n) == pi, n

    def test_against_naive_oracle(self):
        for n in range(2, 40):
            assert pisano_period(n) == naive_fib_period(n)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            pisano_period(1)
        with pytest.raises(ValueError):
            pisano_period(10**9 + 1)


class TestPisanoData:
    def test_p3(self):
        d = pisano_data(3)
        assert (d.pi_p, d.pi_p2) == (8, 24)
        assert d.phi.rows() == [[3, 2], [2, 1]]
        assert matrix_order(d.phi) == 8

    def test_p3_power_group(self):
        # the eight powers of phi mod 9, as an unordered set of row lists
        d = pisano_data(3)
        powers = {tuple(map(tuple, matrix_power(d.phi, i).rows())) for i in range(8)}
        expected = {
            ((1, 0), (0, 1)),
            ((3, 2), (2, 1)),
            ((4, 8), (8, 5)),
            ((1, 7), (7, 3)),
            ((8, 0), (0, 8)),
            ((6, 7), (7, 8)),
            ((5, 1), (1, 4)),
            ((8, 2), (2, 6)),
        }
        assert powers == expected

    def test_p2(self):
        d = pisano_data(2)
        assert (d.pi_p, d.pi_p2) == (3, 6)
        assert d.phi.rows() == [[2, 1], [1, 1]]  # F^2 mod 4
        assert matrix_order(d.phi) == 3

    def test_p7_and_p11(self):
        d7 = pisano_data(7)
        assert (d7.pi_p, d7.pi_p2) == (16, 112)
        assert matrix_order(d7.phi) == 16
        d11 = pisano_data(11)
        assert (d11.pi_p, d11.pi_p2) == (10, 110)

    def test_consistency_with_direct_period(self):
        for p in (2, 3, 7, 11, 13):
            d = pisano_data(p)
            assert d.pi_p == pisano_period(p)
            assert d.pi_p2 == pisano_period(p * p)

    def test_rejections(self):
        with pytest.raises(FiveExcluded):
            pisano_data(5)
        with pytest.raises(ValueError):
            pisano_data(4)
        with pytest.raises(TooLarge):
            pisano_data(10007)

    def test_json(self):
        d = pisano_data(3)
        j = d.to_json()
        assert j["pi_p"] == 8 and j["pi_p2"] == 24
        assert j["phi"] == [[3, 2], [2, 1]]
