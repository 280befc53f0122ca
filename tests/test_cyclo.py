import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicsym import corpus
from cubicsym.cyclo import (MODULAR_PRIME_BOUND, CycNum, common_conductor, context,
                            cyclotomic_polynomial, divisors, modular_embedding,
                            multiplicative_order, reduce, zeta)
from tests import corpus_oracle

CONDUCTORS = (3, 4, 8, 12, 24, 43)


def rand_cyc(rng, n):
    ctx_len = len(cyclotomic_polynomial(n)) - 1
    nums = [rng.randint(-9, 9) for _ in range(ctx_len)]
    return CycNum.from_vector(n, nums, rng.randint(1, 7))


def test_reduce_examples():
    assert zeta(4, 2) == CycNum.rational(-1, 4)
    assert zeta(3) + zeta(3, 2) == CycNum.rational(-1, 3)
    root2 = zeta(8) + zeta(8, 7)
    assert root2 * root2 == CycNum.rational(2, 8)


def test_reduce_rejects_zero_conductor():
    with pytest.raises(ValueError):
        reduce({0: 1}, 0)


def reduce_oracle(raw, n):
    """The Fraction summation `reduce` used before it summed integers."""
    ctx = context(n)
    acc = [Fraction(0)] * n
    for k, coeff in raw.items():
        acc[k % n] += Fraction(coeff)
    den = 1
    for f in acc:
        den = den * f.denominator // gcd(den, f.denominator)
    vec = [int(f * den) for f in acc]
    phi = ctx.phi
    for k in range(phi, n):
        if vec[k]:
            for j, r in enumerate(ctx.table[k - phi]):
                vec[j] += vec[k] * r
    return CycNum._make(n, vec[:phi], den)


REDUCE_CONDUCTORS = CONDUCTORS + (1, 2, 45, 48, 60, 63)


def rand_raw(rng, n):
    """Int and Fraction coefficients at exponents in [-2n, 3n), plus terms
    that cancel: one coefficient split over exponents equal mod n, and for
    n > 1 a multiple of the sum of all n-th roots of unity, which is 0."""
    raw = {}
    for _ in range(rng.randint(0, 8)):
        c = rng.randint(-9, 9)
        if rng.random() < 0.5:
            c = Fraction(c, rng.randint(1, 12))
        raw[rng.randrange(-2 * n, 3 * n)] = c
    if rng.random() < 0.5:
        k, q = rng.randrange(-n, n), Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        raw[k] = raw.get(k, 0) + q
        raw[k + 2 * n] = raw.get(k + 2 * n, 0) - q
    if n > 1 and rng.random() < 0.3:
        c, shift = rng.choice((1, -2, Fraction(1, 3))), rng.randrange(-1, 2) * n
        for k in range(shift, shift + n):
            raw[k] = raw.get(k, 0) + c
    return raw


def test_integer_reduce_and_embed_match_the_fraction_oracle():
    rng = random.Random(19)
    for n in REDUCE_CONDUCTORS:
        for _ in range(200):
            raw = rand_raw(rng, n)
            got, want = reduce(raw, n), reduce_oracle(raw, n)
            assert (got.num, got.den) == (want.num, want.den), (n, raw)
        zero = {k: Fraction(1, 3) for k in range(-n, 0)} if n > 1 else {0: 1, -1: -1}
        assert reduce(zero, n) == reduce_oracle(zero, n) == CycNum.zero(n)
        multiples = {n, 2 * n, 3 * n} | {m for m in REDUCE_CONDUCTORS if m % n == 0}
        for m in sorted(multiples):
            step = m // n
            for _ in range(20):
                a = rand_cyc(rng, n)
                want = reduce_oracle({i * step: Fraction(c, a.den) for i, c in enumerate(a.num)}, m)
                got = a.embed(m)
                assert (got.num, got.den) == (want.num, want.den), (a, m)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _polydivmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and r:
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        for j, bc in enumerate(b):
            r[shift + j] -= c * bc
        _trim(r)
    return q, r


def _polymulsub(s0, q, s1):
    # s0 - q*s1
    out = list(s0) + [Fraction(0)] * max(len(q) + len(s1) - 1 - len(s0), 0)
    for i, qc in enumerate(q):
        if qc:
            for j, sc in enumerate(s1):
                if sc:
                    out[i + j] -= qc * sc
    return _trim(out)


def _xgcd_poly(a, b):
    # returns (g, s) with s*a = g mod b; g is a nonzero constant when gcd(a, b) = 1
    r0, r1 = _trim(list(a)), _trim(list(b))
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _polydivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _polymulsub(s0, q, s1)
    return r0, s0


def inv_oracle(x):
    """The Fraction polynomial xgcd against Phi_N that `CycNum.inv` used
    before it took products of Galois conjugates."""
    n = x.conductor
    if x.is_rational():
        return CycNum.rational(1 / x.rational_value(), n)
    a = [Fraction(c, x.den) for c in x.num]
    g, s = _xgcd_poly(a, [Fraction(c) for c in cyclotomic_polynomial(n)])
    assert len(g) == 1
    return reduce({i: c / g[0] for i, c in enumerate(s)}, n)


def corpus_conductors():
    # what the program reads (one conductor per group) and what the builders
    # print (one per generator)
    out = set()
    for r in [*map(corpus.record, corpus.all_ids()), *corpus_oracle.records().values()]:
        out |= {g.conductor for g in r.generators} | {r.form.conductor}
    return out


def test_inverse_matches_the_xgcd_oracle():
    """Dense and sparse random elements, rationals, roots of unity and subfield
    elements, at every tested conductor and every conductor of the corpus.  The
    oracle is slow at large phi, so those conductors get few dense samples."""
    rng = random.Random(21)
    for n in sorted(set(REDUCE_CONDUCTORS) | corpus_conductors()):
        phi = context(n).phi
        xs = [CycNum.rational(Fraction(-rng.randint(1, 30), rng.randint(1, 9)), n)
              for _ in range(3)]
        xs += [zeta(n, k) for k in rng.sample(range(n), min(n, 4))]
        xs += [rand_cyc(rng, n) for _ in range(12 if phi <= 16 else 1)]
        for _ in range(12):
            vec = [0] * phi
            for _ in range(rng.randint(1, 3)):
                vec[rng.randrange(phi)] = rng.randint(-4, 4)
            xs.append(CycNum.from_vector(n, vec, rng.randint(1, 5)))
        for d in divisors(n)[1:-1]:
            xs.append(rand_cyc(rng, d).embed(n))
        for x in xs:
            if not x.is_zero():
                got, want = x.inv(), inv_oracle(x)
                assert (got.num, got.den) == (want.num, want.den), (n, x)
    for x in (zeta(3).embed(12), (zeta(8) + zeta(8, 7)).embed(24),
              (1 + zeta(4)).embed(60), (zeta(7) + zeta(7, 6)).embed(63)):
        got, want = x.inv(), inv_oracle(x)
        assert (got.num, got.den) == (want.num, want.den), x


def test_mul_and_inverse_examples():
    assert (1 + zeta(8)) * (1 - zeta(8)) == 1 - zeta(8, 2)
    for n in CONDUCTORS:
        assert zeta(n).inv() == zeta(n, n - 1)
    a = 1 + zeta(3)
    inv = a.inv()
    assert inv * a == CycNum.one(3)
    assert inv == -zeta(3)
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(8).inv()


def test_conductor_mismatch_is_an_error():
    with pytest.raises(ValueError):
        zeta(3) + zeta(4)
    with pytest.raises(ValueError):
        zeta(3) * zeta(4)


def test_embed_examples():
    assert zeta(3).embed(12) == zeta(12, 4)
    for k in (1, 2, 3, 5):
        minus = CycNum.rational(-1, 2)
        assert minus.embed(2 * k) == CycNum.rational(-1, 2 * k)
    s2 = (zeta(8) + zeta(8, 7)).embed(24)
    assert s2 * s2 == CycNum.rational(2, 24)
    with pytest.raises(ValueError):
        zeta(8).embed(12)


def test_field_axioms_1000_random_pairs():
    rng = random.Random(20240811)
    trials_per_n = 1000 // len(CONDUCTORS) + 1
    for n in CONDUCTORS:
        for _ in range(trials_per_n):
            a, b, c = (rand_cyc(rng, n) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inv() == CycNum.one(n)


def test_embed_is_ring_homomorphism():
    rng = random.Random(7)
    for n, m in ((3, 12), (4, 8), (8, 24), (12, 24), (4, 24)):
        for _ in range(40):
            a, b = rand_cyc(rng, n), rand_cyc(rng, n)
            assert (a * b).embed(m) == a.embed(m) * b.embed(m)
            assert (a + b).embed(m) == a.embed(m) + b.embed(m)


MODULAR_CONDUCTORS = (1, 12, 24, 60)


@st.composite
def cyc_pair(draw):
    n = draw(st.sampled_from(MODULAR_CONDUCTORS))
    phi = len(cyclotomic_polynomial(n)) - 1
    coeffs = st.lists(st.integers(-10**6, 10**6), min_size=phi, max_size=phi)
    dens = st.integers(1, 10**4)
    return (CycNum.from_vector(n, draw(coeffs), draw(dens)),
            CycNum.from_vector(n, draw(coeffs), draw(dens)))


@settings(max_examples=200, deadline=None)
@given(cyc_pair())
def test_modular_embedding_is_ring_homomorphism(pair):
    a, b = pair
    emb = modular_embedding(a.conductor)
    p = emb.p
    assert emb(a + b) == (emb(a) + emb(b)) % p
    assert emb(a * b) == emb(a) * emb(b) % p
    assert emb(-a) == -emb(a) % p
    assert emb(CycNum.one(a.conductor)) == 1


def test_modular_embedding_prime_and_root():
    for n in MODULAR_CONDUCTORS + CONDUCTORS:
        emb = modular_embedding(n)
        p, r = emb.p, emb.r
        assert p < MODULAR_PRIME_BOUND and p % n == 1 % n
        assert all(p % q for q in range(2, 46341))  # 46341^2 > 2^31
        assert pow(r, n, p) == 1
        assert all(pow(r, k, p) != 1 for k in range(1, n))
        assert emb(zeta(n)) == r
    assert modular_embedding(12) is modular_embedding(12)
    emb = modular_embedding(12)
    assert emb(CycNum.rational(Fraction(1, emb.p), 12)) is None
    with pytest.raises(ValueError):
        emb(zeta(24))
    # the next prime = 1 (mod 12) below p: every one in between is composite
    below = modular_embedding(12, emb.p)
    assert below.p < emb.p and below.p % 12 == 1
    assert all(below.p % q for q in range(2, 46341))
    assert all(any(c % q == 0 for q in range(2, 46341))
               for c in range(below.p + 12, emb.p, 12))
    assert below(CycNum.rational(Fraction(1, emb.p), 12)) is not None
    assert modular_embedding(12, 14).p == 13
    with pytest.raises(ValueError):
        modular_embedding(12, 13)


def test_root_of_unity_orders():
    for n in CONDUCTORS + (96,):
        assert multiplicative_order(zeta(n)) == n
    assert multiplicative_order(1 + zeta(3)) == 6
    assert multiplicative_order(-CycNum.one(3)) == 2
    assert multiplicative_order(CycNum.rational(2)) is None
    assert multiplicative_order(1 + zeta(5)) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(1, 40), st.sampled_from(CONDUCTORS))
def test_encoding_round_trip(num, den, n):
    phi = len(cyclotomic_polynomial(n)) - 1
    value = CycNum.from_vector(n, [num] + [3] * (phi - 1), den)
    assert CycNum.parse(value.encode()) == value


def test_power_basis_is_reduced():
    for n in CONDUCTORS:
        phi = len(cyclotomic_polynomial(n)) - 1
        x = zeta(n, n - 1)
        assert len(x.num) == phi


def test_rational_detection():
    q = CycNum.rational(Fraction(-21, 14), 12)
    assert q.is_rational() and q.rational_value() == Fraction(-3, 2)
    assert not zeta(12).is_rational()


def test_common_conductor():
    assert common_conductor(3, 4, 8) == 24
    assert common_conductor(43) == 43
