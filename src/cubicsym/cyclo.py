"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored in the power basis {zeta_N^0, ..., zeta_N^(phi(N)-1)} after
reduction modulo the N-th cyclotomic polynomial, as an integer coefficient
vector over a common positive denominator.  Everything is immutable and
canonical, so equality and hashing are plain tuple comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic, division is exact over Z
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    if n == 1:
        return (-1, 1)
    p = [0] * (n + 1)
    p[0], p[n] = -1, 1
    for d in divisors(n)[:-1]:
        p = _polydiv_exact(p, cyclotomic_polynomial(d))
    return tuple(p)


class CycContext:
    """Reduction data for one conductor: phi(N) and the table of zeta^i mod
    Phi_N for phi(N) <= i < N."""

    __slots__ = ("conductor", "phi", "table")

    def __init__(self, n: int):
        self.conductor = n
        cyclo = cyclotomic_polynomial(n)
        self.phi = len(cyclo) - 1
        rows: list[tuple[int, ...]] = []
        if self.phi < n:
            base = tuple(-c for c in cyclo[: self.phi])
            rows.append(base)
            for _ in range(self.phi + 1, n):
                prev = rows[-1]
                top = prev[-1]
                shifted = [0] + list(prev[:-1])
                if top:
                    for j in range(self.phi):
                        shifted[j] += top * base[j]
                rows.append(tuple(shifted))
        self.table = tuple(rows)


@lru_cache(maxsize=None)
def context(n: int) -> CycContext:
    if n < 1:
        raise ValueError("conductor must be >= 1")
    return CycContext(n)


def _fold(vec: list[int], ctx: CycContext) -> list[int]:
    """The power-basis coefficients of sum vec[k] zeta^k over k < N: the
    exponents phi..N-1 fold through ctx.table (vec is changed in place)."""
    phi = ctx.phi
    table = ctx.table
    for k in range(phi, ctx.conductor):
        c = vec[k]
        if c:
            row = table[k - phi]
            for j in range(phi):
                if row[j]:
                    vec[j] += c * row[j]
    return vec[:phi]


def _conjugate(x: "CycNum", k: int) -> "CycNum":
    """sigma_k(x), the Galois conjugate under zeta -> zeta^k (gcd(k, N) = 1)."""
    return reduce({i * k: c for i, c in enumerate(x.num) if c}, x.conductor, x.den)


class CycNum:
    """Element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int):
        # use the factory functions; this constructor trusts its input
        self.conductor = conductor
        self.num = num
        self.den = den

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(n: int, nums: list[int], den: int) -> "CycNum":
        if den < 0:
            den = -den
            nums = [-c for c in nums]
        g = den
        for c in nums:
            if c:
                g = gcd(g, c)
        if g == 0:
            return CycNum(n, tuple(nums), 1)
        if g > 1:
            den //= g
            nums = [c // g for c in nums]
        if not any(nums):
            den = 1
        return CycNum(n, tuple(nums), den)

    @staticmethod
    def from_vector(n: int, nums: Iterable[int], den: int = 1) -> "CycNum":
        ctx = context(n)
        vec = list(nums)
        if len(vec) != ctx.phi:
            raise ValueError("coefficient vector must have length phi(N)")
        return CycNum._make(n, vec, den)

    @staticmethod
    def rational(value, n: int = 1) -> "CycNum":
        q = Fraction(value)
        ctx = context(n)
        vec = [0] * ctx.phi
        vec[0] = q.numerator
        return CycNum._make(n, vec, q.denominator)

    @staticmethod
    def zero(n: int = 1) -> "CycNum":
        return CycNum.rational(0, n)

    @staticmethod
    def one(n: int = 1) -> "CycNum":
        return CycNum.rational(1, n)

    @staticmethod
    def root(n: int, k: int = 1) -> "CycNum":
        """zeta_N^k."""
        return reduce({k: 1}, n)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(other, self.conductor)
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        da, db = self.den, b.den
        nums = [x * db + y * da for x, y in zip(self.num, b.num)]
        return CycNum._make(self.conductor, nums, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        da, db = self.den, b.den
        nums = [x * db - y * da for x, y in zip(self.num, b.num)]
        return CycNum._make(self.conductor, nums, da * db)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycNum(self.conductor, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        n = self.conductor
        out = [0] * n
        bnum = b.num
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(bnum):
                    if y:
                        k = i + j
                        if k >= n:
                            k -= n
                        out[k] += x * y
        return CycNum._make(n, _fold(out, context(n)), self.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def inv(self) -> "CycNum":
        """1/a = R / (aR), where aR = prod_{h in H} sigma_h(a) is the norm of a
        down to the fixed field of a subgroup H of (Z/N)^*, grown until aR is
        rational.  H grows one cyclic subgroup <k> at a time: with s least such
        that k^s is in H, the factor prod_{0<j<s} sigma_{k^j}(aR), built by
        doubling over the bits of s - 1, turns aR into the norm to H<k>."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.conductor
        b, r, used = self, CycNum.one(n), {1}
        for k in range(2, n):
            if b.is_rational():
                break
            if k in used or gcd(k, n) != 1:
                continue
            s, power = 1, k
            while power not in used:
                s, power = s + 1, power * k % n
            # p = prod_{0<j<=t} sigma_{k^j}(b), from t = 1 up to t = s - 1
            p, t = _conjugate(b, k), 1
            for bit in bin(s - 1)[3:]:
                p, t = p * _conjugate(p, pow(k, t, n)), 2 * t
                if bit == "1":
                    t += 1
                    p = p * _conjugate(b, pow(k, t, n))
            r, b = r * p, b * p
            used = {h * pow(k, j, n) % n for h in used for j in range(s)}
        return CycNum._make(n, [c * b.den for c in r.num], r.den * b.num[0])

    def __pow__(self, e: int) -> "CycNum":
        if e < 0:
            return self.inv() ** (-e)
        result = CycNum.one(self.conductor)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- conversion --------------------------------------------------------

    def embed(self, m: int) -> "CycNum":
        """Rewrite in Q(zeta_M); requires conductor | M, value unchanged."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"cannot embed conductor {n} into {m}")
        step = m // n
        return reduce({i * step: c for i, c in enumerate(self.num) if c}, m, self.den)

    def encode(self) -> str:
        """Textual form `N d c0 c1 ... c_{phi(N)-1}` meaning (sum c_i zeta^i)/d."""
        return " ".join([str(self.conductor), str(self.den)] + [str(c) for c in self.num])

    @staticmethod
    @lru_cache(maxsize=4096)  # a corpus file repeats few coefficients many times
    def parse(text: str) -> "CycNum":
        parts = text.split()
        if len(parts) < 2:
            raise ValueError(f"bad cyclotomic number encoding: {text!r}")
        n, den = int(parts[0]), int(parts[1])
        if den <= 0:
            raise ValueError("denominator must be positive")
        nums = [int(p) for p in parts[2:]]
        return CycNum.from_vector(n, nums, den)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(other, self.conductor)
        if not isinstance(other, CycNum):
            return NotImplemented
        return (
            self.conductor == other.conductor
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.conductor, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_rational():
            q = self.rational_value()
            return f"Cyc({q}, N={self.conductor})"
        return f"Cyc([{' '.join(map(str, self.num))}]/{self.den}, N={self.conductor})"


def reduce(raw: Mapping[int, int | Fraction], n: int, den: int = 1) -> CycNum:
    """Canonical CycNum equal to (sum_k raw[k] * zeta_N^k) / den (exponents
    arbitrary).  The sum runs over integers, on the lcm of the coefficients'
    denominators."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    ctx = context(n)
    common = lcm(1, *(c.denominator for c in raw.values()))
    vec = [0] * n
    for k, coeff in raw.items():
        vec[k % n] += coeff.numerator * (common // coeff.denominator)
    return CycNum._make(n, _fold(vec, ctx), common * den)


def zeta(n: int, k: int = 1) -> CycNum:
    return CycNum.root(n, k)


def common_conductor(*conductors: int) -> int:
    return lcm(*conductors)


def multiplicative_order(a: CycNum) -> int | None:
    """Smallest k >= 1 with a^k = 1, or None when a is not a root of unity.

    The roots of unity in Q(zeta_N) have orders dividing L = lcm(2, N), so
    the order divides L whenever it exists: divide the primes of L out of L
    while the power stays 1."""
    k = lcm(2, a.conductor)
    if not (a ** k).is_one():
        return None
    for q in filter(_is_prime, divisors(k)):
        while k % q == 0 and (a ** (k // q)).is_one():
            k //= q
    return k


# -- reduction modulo a prime --------------------------------------------------

MODULAR_PRIME_BOUND = 2**31


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


class ModularEmbedding:
    """The ring map Z[zeta_N] -> F_p with zeta_N -> r, extended to the values
    whose denominator is prime to p.

    p is the largest prime below `below` (MODULAR_PRIME_BOUND by default) with
    p = 1 (mod N), so Phi_N splits into distinct linear factors mod p; r is a
    primitive N-th root of unity mod p, hence a root of Phi_N, and the map is
    well defined.
    """

    __slots__ = ("conductor", "p", "r", "powers")

    def __init__(self, n: int, below: int = MODULAR_PRIME_BOUND):
        if n < 1:
            raise ValueError("conductor must be >= 1")
        p = (below - 2) // n * n + 1
        while p > 1 and not _is_prime(p):
            p -= n
        if p <= 1:
            raise ValueError(f"no prime = 1 (mod {n}) below {below}")
        proper = divisors(n)[:-1]
        a = 2
        while True:
            r = pow(a, (p - 1) // n, p)
            if all(pow(r, k, p) != 1 for k in proper):
                break
            a += 1
        self.conductor = n
        self.p = p
        self.r = r
        self.powers = tuple(pow(r, i, p) for i in range(context(n).phi))

    def __call__(self, x: CycNum) -> int | None:
        """Image of x in [0, p), or None when p divides its denominator."""
        if x.conductor != self.conductor:
            raise ValueError(f"conductor mismatch: {x.conductor} vs {self.conductor}")
        p = self.p
        if x.den % p == 0:
            return None
        s = sum(c * w for c, w in zip(x.num, self.powers))
        return s * pow(x.den, -1, p) % p


@lru_cache(maxsize=None)
def modular_embedding(n: int, below: int = MODULAR_PRIME_BOUND) -> ModularEmbedding:
    """The embedding for conductor n and the largest such prime below `below`,
    built on first use."""
    return ModularEmbedding(n, below)
