"""Number theory and small linear algebra: primes, finite fields,
2x2 matrices over Z_m, and Fibonacci (Pisano) periods.

Field elements are encoded as integers 0..q-1.  The integer code of
c_0 + c_1*t + ... + c_{e-1}*t^{e-1} is sum(c_i * p^i); the additive
coordinate tuple used by the group layer is the BIG-endian digit vector,
so lexicographic order on coordinates equals numeric order on codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, prod

from .errors import DoesNotDivide, FiveExcluded, NotAUnit, TooLarge

_FACTOR_LIMIT = 10**9
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n must be 1..10^9."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > _FACTOR_LIMIT:
        raise TooLarge(f"{n} exceeds the factorization limit {_FACTOR_LIMIT}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_factors(n: int) -> list[int]:
    """Maximal prime-power divisors p^e || n, ascending."""
    return sorted(p**e for p, e in factorize(n).items())


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e, or None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, e),) = fac.items()
    return p, e


def _power(x, n: int, op, unit):
    """x op x op ... op x (n >= 0 terms, `unit` for none) by square-and-multiply."""
    return _powers_of(x, (n,), op, unit)[0]


def _powers_of(x, exponents, op, unit) -> list:
    """[x^n for n in exponents] (each n >= 0, `unit` for n = 0) from one run
    of squarings x, x^2, x^4, ..., folded into one accumulator per exponent.

    Each accumulator starts at x^(2^i) for its lowest set bit i, and the
    squaring stops at the top bit of the largest exponent, so a lone n >= 1
    costs popcount(n) + bit_length(n) - 2 products, none of them by
    `unit`.  A result may be `x` itself, not a copy.
    """
    acc = [None] * len(exponents)
    square = x
    for i in range(max(exponents, default=0).bit_length()):
        if i:
            square = op(square, square)
        for j, n in enumerate(exponents):
            if n >> i & 1:
                acc[j] = square if acc[j] is None else op(acc[j], square)
    return [unit if a is None else a for a in acc]


def _order(x, op, unit, cap):
    """Least t >= 1 with x op ... op x (t terms) == `unit`; None past `cap`."""
    cur, t = x, 1
    while cur != unit:
        if t >= cap:
            return None
        cur, t = op(cur, x), t + 1
    return t


# ---------------------------------------------------------------------------
# Polynomial helpers over Z_p (little-endian coefficient tuples).


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, mod, p):
    """a*b reduced by the monic polynomial `mod`, coefficients mod p."""
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % p
    deg = len(mod) - 1
    # mod is monic, so reduction is plain long division.
    for i in range(len(res) - 1, deg - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(deg):
                res[i - deg + j] = (res[i - deg + j] - c * mod[j]) % p
    return res[:deg] + [0] * (deg - len(res[:deg]))


def _poly_divides(d, f, p):
    """True when monic d divides f over Z_p."""
    f = list(f)
    deg_d = len(d) - 1
    inv_lead = pow(d[-1], -1, p)
    while len(_poly_trim(list(f))) - 1 >= deg_d:
        f = _poly_trim(list(f))
        shift = len(f) - 1 - deg_d
        c = f[-1] * inv_lead % p
        for j, x in enumerate(d):
            f[shift + j] = (f[shift + j] - c * x) % p
    return not _poly_trim(list(f))


def _monic_polys(p: int, deg: int):
    """All monic polynomials of the given degree over Z_p."""
    for code in range(p**deg):
        coeffs = []
        n = code
        for _ in range(deg):
            coeffs.append(n % p)
            n //= p
        yield coeffs + [1]


def _is_irreducible(poly, p: int) -> bool:
    """Brute-force divisor scan for monic `poly` of degree e over Z_p."""
    e = len(poly) - 1
    if e < 1 or poly[0] == 0 and e > 1:
        # A zero constant term means t divides the polynomial.
        return e == 1
    if p ** (e // 2) > 10**6:
        raise TooLarge("irreducibility scan out of range")
    for d in range(1, e // 2 + 1):
        for cand in _monic_polys(p, d):
            if _poly_divides(cand, poly, p):
                return False
    return True


@dataclass(frozen=True)
class Field:
    """F_{p^e} with elements encoded as integers 0..p^e - 1.

    `irreducible` is the monic modulus polynomial as a little-endian
    coefficient tuple of length e+1 (None for prime fields).  The default
    modulus is the first irreducible polynomial in code order.
    """

    p: int
    e: int = 1
    irreducible: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e < 1:
            raise ValueError("extension degree must be >= 1")
        if self.e == 1:
            if self.irreducible is not None:
                raise ValueError("prime fields take no modulus polynomial")
            return
        if self.irreducible is None:
            # Monic, of degree e and irreducible by construction.
            object.__setattr__(self, "irreducible", _find_irreducible(self.p, self.e))
            return
        poly = tuple(int(c) % self.p for c in self.irreducible)
        object.__setattr__(self, "irreducible", poly)
        if len(poly) != self.e + 1 or poly[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if not _is_irreducible(list(poly), self.p):
            raise ValueError("modulus polynomial is reducible")

    @classmethod
    def of(cls, q: int) -> "Field":
        pe = is_prime_power(q)
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        return cls(pe[0], pe[1])

    @property
    def order(self) -> int:
        return self.p**self.e

    # -- encoding ----------------------------------------------------------

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return out

    def _undigits(self, digits) -> int:
        x = 0
        for d in reversed(list(digits)):
            x = x * self.p + d
        return x

    def to_coords(self, x: int) -> tuple[int, ...]:
        """Big-endian digit tuple; matches the additive group's order."""
        self.check(x)
        return tuple(reversed(self._digits(x)))

    def from_coords(self, coords) -> int:
        coords = list(coords)
        if len(coords) != self.e:
            raise ValueError("wrong number of coordinates")
        return self._undigits(reversed(coords))

    def check(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise ValueError(f"{x} is not a field element code")
        return x

    # -- arithmetic --------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        dx, dy = self._digits(x), self._digits(y)
        return self._undigits((a + b) % self.p for a, b in zip(dx, dy))

    def neg(self, x: int) -> int:
        if self.e == 1:
            return (-x) % self.p
        return self._undigits((-a) % self.p for a in self._digits(x))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.e == 1:
            return x * y % self.p
        res = _poly_mulmod(self._digits(x), self._digits(y), list(self.irreducible), self.p)
        return self._undigits(res)

    def pow(self, x: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(x), -n)
        if self.e == 1:
            return pow(x, n, self.p)
        return _power(x, n, self.mul, 1)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(x, self.order - 2)


@cache
def _find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e in code order, searched once per
    (p, e) in a process."""
    for poly in _monic_polys(p, e):
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Units of Z_q and roots of unity.


def _roots_of_unity(ring: "int | Field", k: int):
    """Yield y^0, y^1, ..., y^(k-1) for one generator y of mu_k, the k-th
    roots of unity of F_q or of Z_q with q prime; k must divide q - 1.

    The units form a cyclic group of order q - 1, so x -> x^((q-1)/k) maps
    them onto mu_k, and its image y generates mu_k exactly when
    y^(k/r) != 1 for every prime r | k.  Any generator serves, so the
    candidates x may come in any order.  The units of the prime subfield
    F_p, the codes 1..p-1, have orders dividing p - 1.  So when k | p - 1,
    mu_k lies in F_p, and the search and the powers run there, as integers
    mod p.  Otherwise no code below p gives a generator, and the
    candidates start at p.  In all, O(k + log q) products.
    """
    if isinstance(ring, Field) and (ring.p - 1) % k:
        q, mul, power, start = ring.order, ring.mul, ring.pow, ring.p
    else:
        q, start = ring.p if isinstance(ring, Field) else ring, 1

        def mul(a: int, b: int) -> int:
            return a * b % q

        def power(a: int, t: int) -> int:
            return pow(a, t, q)

    cofactors = [k // r for r in factorize(k)]
    candidates = (power(x, (q - 1) // k) for x in range(start, q))
    y = next(y for y in candidates if all(power(y, c) != 1 for c in cofactors))
    cur = 1
    yield cur
    for _ in range(k - 1):
        cur = mul(cur, y)
        yield cur


def element_of_multiplicative_order(ring: "int | Field", k: int):
    """Least element of multiplicative order exactly k, or None.

    An integer argument means the ring Z_q; a Field means F_{p^e}.  By
    Lagrange no element has order k unless k divides the number of units.
    When the units are cyclic (a field, or Z_q with q prime), the elements
    of order k are the powers y^j, gcd(j, k) = 1, of a generator y of the
    k-th roots of unity, and the least of them is read off those powers
    (`_roots_of_unity`).  Otherwise x = 1, 2, ... is scanned: x has order
    exactly k when x^k = 1 and x^(k/r) != 1 for every prime r | k.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if isinstance(ring, Field):
        q = ring.order
        units = q - 1
    else:
        q = ring = int(ring)
        if q < 2:
            raise ValueError("modulus must be >= 2")
        units = prod((p - 1) * p ** (e - 1) for p, e in factorize(q).items())
    if units % k:
        return None
    if units == q - 1:
        return min(r for j, r in enumerate(_roots_of_unity(ring, k)) if gcd(j, k) == 1)
    # Z_q with q composite, whose units need not be cyclic.  x^k = 1 makes
    # x a unit, so non-units fail the first test.
    cofactors = [k // r for r in factorize(k)]
    for x in range(1, q):
        if pow(x, k, q) == 1 and all(pow(x, c, q) != 1 for c in cofactors):
            return x
    return None


def kth_roots_of_unity(field: Field, k: int) -> tuple[int, ...]:
    """The k solutions of x^k = 1 in F_q, ascending; requires k | q-1.

    They are the powers of one generator of the cyclic group they form
    (`_roots_of_unity`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if (field.order - 1) % k != 0:
        raise DoesNotDivide(f"{k} does not divide {field.order - 1}")
    return tuple(sorted(_roots_of_unity(field, k)))


# ---------------------------------------------------------------------------
# 2x2 matrices over Z_m and Pisano periods.


@dataclass(frozen=True)
class Matrix2:
    """[[a, b], [c, d]] over Z_m, acting on pairs by (x,y) -> (ax+by, cx+dy)."""

    a: int
    b: int
    c: int
    d: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("modulus must be >= 2")
        for name in "abcd":
            object.__setattr__(self, name, getattr(self, name) % self.m)

    @classmethod
    def identity(cls, m: int) -> "Matrix2":
        return cls(1, 0, 0, 1, m)

    @classmethod
    def fibonacci(cls, m: int) -> "Matrix2":
        return cls(1, 1, 1, 0, m)

    def mul(self, o: "Matrix2") -> "Matrix2":
        if o.m != self.m:
            raise ValueError("modulus mismatch")
        m = self.m
        return Matrix2(
            (self.a * o.a + self.b * o.c) % m,
            (self.a * o.b + self.b * o.d) % m,
            (self.c * o.a + self.d * o.c) % m,
            (self.c * o.b + self.d * o.d) % m,
            m,
        )

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.m

    def is_invertible(self) -> bool:
        return gcd(self.det(), self.m) == 1

    def inverse(self) -> "Matrix2":
        d = self.det()
        if gcd(d, self.m) != 1:
            raise NotAUnit("matrix determinant is not a unit")
        di = pow(d, -1, self.m)
        return Matrix2(self.d * di, -self.b * di, -self.c * di, self.a * di, self.m)

    def apply(self, x: int, y: int) -> tuple[int, int]:
        m = self.m
        return ((self.a * x + self.b * y) % m, (self.c * x + self.d * y) % m)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


def matrix_power(M: Matrix2, t: int) -> Matrix2:
    """M^t by square-and-multiply; t >= 0."""
    if t < 0:
        raise ValueError("exponent must be non-negative")
    return _power(M, t, Matrix2.mul, Matrix2.identity(M.m))


def matrix_order(M: Matrix2, cap: int = 10**7) -> int:
    """Least t >= 1 with M^t = I."""
    t = _order(M, Matrix2.mul, Matrix2.identity(M.m), cap)
    if t is None:
        raise TooLarge("matrix order exceeds cap")
    return t


_PISANO_LIMIT = 10**9


def pisano_period(n: int) -> int:
    """Period of the Fibonacci sequence mod n.

    Least t >= 1 with (F_t, F_{t+1}) = (0, 1) mod n, found by iterating
    the pair recurrence from (0, 1).
    """
    if not 2 <= n <= _PISANO_LIMIT:
        raise ValueError("n must be between 2 and 10^9")
    a, b = 0, 1
    t = 0
    while True:
        a, b = b, (a + b) % n
        t += 1
        if a == 0 and b == 1:
            return t


@dataclass(frozen=True)
class PisanoData:
    """Periods mod p and p^2 plus the order-pi(p) Fibonacci-power matrix."""

    p: int
    pi_p: int
    pi_p2: int
    phi: Matrix2

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "pi_p": self.pi_p,
            "pi_p2": self.pi_p2,
            "phi": self.phi.rows(),
            "phi_is_f_power": self.p if self.pi_p2 != self.pi_p else 1,
        }


def pisano_data(p: int) -> PisanoData:
    """Compute pi(p), pi(p^2) and the matrix generating the period subgroup.

    pi(p^2) is computed as the exact multiplicative order of the Fibonacci
    matrix mod p^2: pi(p) divides it (reduction mod p), so stepping powers
    of F^pi(p) finds it without assuming the classical p*pi(p) value.  phi
    is F when the two periods agree and F^p otherwise; either way phi has
    order pi(p) mod p^2.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 5:
        raise FiveExcluded("p = 5 is excluded (its period 20 is divisible by 5)")
    if p > 10**4:
        raise TooLarge("p must be at most 10^4")
    pi_p = pisano_period(p)
    f = Matrix2.fibonacci(p * p)
    j = _order(matrix_power(f, pi_p), Matrix2.mul, Matrix2.identity(f.m), p)
    if j is None:
        raise RuntimeError("period search overran p * pi(p)")  # unreachable
    pi_p2 = pi_p * j
    if pi_p2 not in (pi_p, p * pi_p):
        raise RuntimeError("computed period violates the p-step dichotomy")
    phi = f if pi_p2 == pi_p else matrix_power(f, p)
    if matrix_order(phi, cap=2 * pi_p) != pi_p:
        raise RuntimeError("phi does not have order pi(p) mod p^2")
    return PisanoData(p=p, pi_p=pi_p, pi_p2=pi_p2, phi=phi)
