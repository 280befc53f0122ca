"""Plain Buchberger over Q(zeta_N) or F_p, graded-reverse-lex only.

Coefficients are CycNum values, or with `modulus=p` plain ints standing for
residues mod p; the one loop serves both fields.  Pair selection uses the
sugar strategy, with the chain criterion; every reduction renormalizes to a
monic leading coefficient.  All entry points take a step budget and raise
BudgetExhausted instead of returning a wrong or partial basis.

Inside one call a monomial e in m variables is the int K(e) =
deg(e)*2^(W*m) - sum_i e_i*2^(W*i): K adds under multiplication, a larger K is
a larger grevlex monomial, and the W-bit fields of (-K) mod 2^(W*m) hold the
exponents under a guard bit each, so a divides b iff (K(a) - K(b)) & GUARD is 0.
W is fitted to the input degree, and an lcm of degree above 2^(W-1) - 1 reruns
the call at double width, so no field wraps.  deg(e) is -(-K >> W*m).  The
entry points take and return exponent tuples.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .cyclo import CycNum

Terms = dict[tuple[int, ...], CycNum | int]

DEFAULT_BUDGET = 1_000_000


class BudgetExhausted(Exception):
    def __init__(self, steps: int):
        super().__init__(f"reduction budget exhausted after {steps} steps")
        self.steps = steps


class _Overflow(Exception):
    """An lcm degree does not fit the packed fields."""


class GPoly:
    """Monic polynomial with its leading monomial and sugar degree; keys are
    packed ints inside a call and exponent tuples in what a call returns."""

    __slots__ = ("terms", "lm", "sugar")

    def __init__(self, terms: dict, lm, sugar: int):
        self.terms, self.lm, self.sugar = terms, lm, sugar


class _Ring:
    """Per-call state: the packing of width W, the field and the budget."""

    def __init__(self, m: int, width: int, modulus: int | None, budget_limit: int):
        self.m, self.width, self.shift = m, width, width * m
        self.mask = (1 << self.shift) - 1
        self.ones = sum(1 << (width * i) for i in range(m))
        self.guard = self.ones << (width - 1)
        self.modulus, self.limit, self.spent = modulus, budget_limit, 0

    def pack(self, e: tuple[int, ...]) -> int:
        return (sum(e) << self.shift) - sum(a << (self.width * i) for i, a in enumerate(e))

    def unpack(self, k: int) -> tuple[int, ...]:
        x, w = -k & self.mask, self.width
        return tuple((x >> (w * i)) & ((1 << w) - 1) for i in range(self.m))

    def lcm(self, a: int, b: int) -> int:
        w, guard = self.width, self.guard
        xa, xb = -a & self.mask, -b & self.mask
        ge = ((xa | guard) - xb) & guard  # guard bit set where a_i >= b_i
        sel = ge - (ge >> (w - 1))
        x = (xa & sel) | (xb & ~sel)
        # deg <= deg a + deg b < 2^W, so the field sums below do not carry
        deg = (x * self.ones >> (self.shift - w)) & ((1 << w) - 1)
        if deg >> (w - 1):
            raise _Overflow
        return (deg << self.shift) - x

    def monic(self, terms: dict, sugar: int | None = None) -> GPoly:
        lm = max(terms)
        lc = terms[lm]
        if self.modulus is not None:
            if lc != 1:
                inv = pow(lc, -1, self.modulus)
                terms = {e: c * inv % self.modulus for e, c in terms.items()}
        elif not lc.is_one():
            inv = lc.inv()
            terms = {e: c * inv for e, c in terms.items()}
        return GPoly(terms, lm, sugar if sugar is not None else -(-lm >> self.shift))


def normal_form(terms: dict, basis: Sequence[GPoly], ring: _Ring) -> dict:
    """Full normal form (head and tail reduced) against basis, on packed keys;
    each step reduces by the first basis element whose leading term divides.

    Mod p the working coefficients are left unreduced, and each one is reduced
    once, when its monomial leaves the heap: every update adds less than p^2,
    so they stay small."""
    modulus, guard = ring.modulus, ring.guard
    work = dict(terms)
    heap = [-e for e in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e)
        if modulus is not None:
            c %= modulus
        if not c:
            continue
        for red in basis:
            if not (red.lm - e) & guard:
                break
        else:
            out[e] = c
            continue
        ring.spent += 1
        if ring.spent > ring.limit:
            raise BudgetExhausted(ring.spent)
        lm = red.lm
        shift = e - lm
        for ge, gc in red.terms.items():
            if ge == lm:
                continue
            te = ge + shift
            v = c * gc
            # te < e in grevlex, so te was not popped yet and cannot sit in out
            if te in work:
                work[te] = work[te] - v
            else:
                work[te] = -v
                heapq.heappush(heap, -te)
    return out


def _s_poly_terms(f: GPoly, g: GPoly, lcm: int) -> dict:
    sf, sg = lcm - f.lm, lcm - g.lm
    terms = {e + sf: c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        te = e + sg
        if te in terms:
            v = terms[te] - c
            if not v:
                del terms[te]
            else:
                terms[te] = v
        else:
            terms[te] = -c
    return terms


def _grow(gens: list[dict], ring: _Ring):
    """Buchberger's pair loop; yields each basis element as it is appended."""
    basis: list[GPoly] = []
    for terms in gens:
        nf = normal_form(terms, basis, ring) if basis else dict(terms)
        if nf:
            basis.append(ring.monic(nf))
            yield basis[-1]
    pairs: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(t: int):
        g = basis[t]
        for i in range(t):
            f = basis[i]
            lcm = ring.lcm(f.lm, g.lm)
            if lcm == f.lm + g.lm:
                continue  # coprime leading terms reduce to zero
            # -k >> W*m is -deg(k): each sugar grows by deg(lcm) - deg(lm)
            sugar = -(-lcm >> ring.shift) + max(f.sugar + (-f.lm >> ring.shift),
                                                g.sugar + (-g.lm >> ring.shift))
            heapq.heappush(pairs, (sugar, -lcm, i, t))
            pending.add((i, t))

    for t in range(len(basis)):
        push_pairs(t)

    while pairs:
        sugar, lcm, i, j = heapq.heappop(pairs)
        lcm = -lcm
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        # chain criterion: a third leading term dividing the lcm, with both
        # linking pairs already handled, makes this pair redundant
        if any(k != i and k != j and not (g.lm - lcm) & ring.guard
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, g in enumerate(basis)):
            continue
        nf = normal_form(_s_poly_terms(basis[i], basis[j], lcm), basis, ring)
        if nf:
            basis.append(ring.monic(nf, sugar))
            push_pairs(len(basis) - 1)
            yield basis[-1]


def _run(gens: Sequence[Terms], budget_limit: int, modulus: int | None, finish):
    """finish(ring, _grow(...)) on gens packed at the smallest width that
    holds their degree, rerun at double width while an lcm overflows."""
    degree = max((sum(e) for g in gens for e in g), default=0)
    m = next((len(e) for g in gens for e in g), 0)
    width = max(8, degree.bit_length() + 1)
    while True:
        ring = _Ring(m, width, modulus, budget_limit)
        try:
            return finish(ring, _grow([{ring.pack(e): c for e, c in g.items()}
                                       for g in gens], ring))
        except _Overflow:
            width *= 2


def _reduce_basis(ring: _Ring, grown) -> list[GPoly]:
    kept: list[GPoly] = []
    for g in sorted(grown, key=lambda g: g.lm):
        if all((h.lm - g.lm) & ring.guard for h in kept):
            kept.append(g)
    reduced = []
    for idx, g in enumerate(kept):
        nf = normal_form(g.terms, kept[:idx] + kept[idx + 1:], ring)
        if nf:
            reduced.append(ring.monic(nf))
    reduced.sort(key=lambda g: g.lm, reverse=True)
    return [GPoly({ring.unpack(e): c for e, c in g.terms.items()}, ring.unpack(g.lm), g.sugar)
            for g in reduced]


def buchberger(gens: Sequence[Terms], budget_limit: int = DEFAULT_BUDGET,
               modulus: int | None = None) -> list[GPoly]:
    """Reduced graded-reverse-lex Groebner basis of the ideal generated by gens,
    over F_p when modulus = p (gens then hold residues in [0, p))."""
    return _run(gens, budget_limit, modulus, _reduce_basis)


def _covered_by(lm: tuple[int, ...]) -> Sequence[int]:
    """Variables lm covers: i if lm is a power of x_i, all if lm is 1 (the unit ideal)."""
    nz = [i for i, a in enumerate(lm) if a]
    return nz if len(nz) == 1 else () if nz else range(len(lm))


def _covers(ring: _Ring, grown) -> bool:
    covered = set()
    for g in grown:
        covered.update(_covered_by(ring.unpack(g.lm)))
        if len(covered) == ring.m:
            return True
    return False


def pure_power_certificate(gens: Sequence[Terms], budget_limit: int = DEFAULT_BUDGET,
                           modulus: int | None = None) -> bool:
    """all(pure_power_coverage(buchberger(gens, ...))), from the pair loop of
    `buchberger`: it returns as soon as the leading monomials found so far
    cover every variable, and never reduces the basis."""
    return _run(gens, budget_limit, modulus, _covers)


def pure_power_coverage(basis: Sequence[GPoly], nvars: int) -> list[bool]:
    """covered[i] is true when some basis element leads with a pure power of x_i."""
    covered = {i for g in basis for i in _covered_by(g.lm)}
    return [i in covered for i in range(nvars)]
