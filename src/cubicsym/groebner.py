"""Plain Buchberger over Q(zeta_N) or F_p, graded-reverse-lex only.

Coefficients are CycNum values, or with `modulus=p` plain ints standing for
residues mod p; the one loop serves both fields.  Pair selection uses the
sugar strategy; every reduction renormalizes to a monic leading coefficient.
All entry points take a step budget and raise BudgetExhausted instead of
returning a wrong or partial basis.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub
from typing import Sequence

from .cyclo import CycNum
from .forms import grevlex_key

Terms = dict[tuple[int, ...], CycNum | int]


class BudgetExhausted(Exception):
    def __init__(self, steps: int):
        super().__init__(f"reduction budget exhausted after {steps} steps")
        self.steps = steps


def _neg_key(e: tuple[int, ...]):
    return (-sum(e), tuple(c for c in reversed(e)))


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


class GPoly:
    """Monic polynomial with cached leading data and sugar degree."""

    __slots__ = ("terms", "lm", "sugar")

    def __init__(self, terms: Terms, sugar: int | None = None,
                 modulus: int | None = None):
        if not terms:
            raise ValueError("zero polynomial")
        lm = max(terms, key=grevlex_key)
        lc = terms[lm]
        if modulus is not None:
            if lc != 1:
                inv = pow(lc, -1, modulus)
                terms = {e: c * inv % modulus for e, c in terms.items()}
        elif not lc.is_one():
            inv = lc.inv()
            terms = {e: c * inv for e, c in terms.items()}
        self.terms = terms
        self.lm = lm
        self.sugar = sugar if sugar is not None else sum(lm)


class _Budget:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, amount: int = 1):
        self.spent += amount
        if self.spent > self.limit:
            raise BudgetExhausted(self.spent)


def normal_form(terms: Terms, basis: Sequence[GPoly], budget: _Budget,
                modulus: int | None = None) -> Terms:
    """Full normal form (head and tail reduced) against basis.

    Mod p the working coefficients are left unreduced, and each one is reduced
    once, when its monomial leaves the heap: every update adds less than p^2,
    so they stay small."""
    work = dict(terms)
    heap = [(_neg_key(e)) + (e,) for e in work]
    heapq.heapify(heap)
    out: Terms = {}
    while heap:
        entry = heapq.heappop(heap)
        e = entry[-1]
        c = work.get(e)
        if c is not None and modulus is not None:
            c %= modulus
        if not c:
            work.pop(e, None)
            continue
        red = None
        for g in basis:
            if _divides(g.lm, e):
                red = g
                break
        if red is None:
            out[e] = c
            del work[e]
            continue
        budget.spend()
        shift = tuple(map(sub, e, red.lm))
        del work[e]
        for ge, gc in red.terms.items():
            if ge == red.lm:
                continue
            te = tuple(map(add, ge, shift))
            v = c * gc
            # te < e in grevlex, so te was not popped yet and cannot sit in out
            if te in work:
                work[te] = work[te] - v
            else:
                work[te] = -v
                heapq.heappush(heap, _neg_key(te) + (te,))
    return out


def _s_poly_terms(f: GPoly, g: GPoly, lcm: tuple[int, ...]) -> Terms:
    sf = tuple(map(sub, lcm, f.lm))
    sg = tuple(map(sub, lcm, g.lm))
    terms: Terms = {}
    for e, c in f.terms.items():
        terms[tuple(map(add, e, sf))] = c
    for e, c in g.terms.items():
        te = tuple(map(add, e, sg))
        if te in terms:
            v = terms[te] - c
            if not v:
                del terms[te]
            else:
                terms[te] = v
        else:
            terms[te] = -c
    return terms


def buchberger(gens: Sequence[Terms], budget_limit: int = 1_000_000,
               modulus: int | None = None) -> list[GPoly]:
    """Reduced graded-reverse-lex Groebner basis of the ideal generated by gens,
    over F_p when modulus = p (gens then hold residues in [0, p))."""
    budget = _Budget(budget_limit)
    basis: list[GPoly] = []
    for terms in gens:
        nf = normal_form(terms, basis, budget, modulus) if basis else dict(terms)
        if nf:
            basis.append(GPoly(nf, modulus=modulus))
    pairs: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(t: int):
        g = basis[t]
        for i in range(t):
            f = basis[i]
            lcm = _lcm(f.lm, g.lm)
            if lcm == tuple(map(add, f.lm, g.lm)):
                continue  # coprime leading terms reduce to zero
            deg = sum(lcm)
            sugar = max(f.sugar + deg - sum(f.lm), g.sugar + deg - sum(g.lm))
            heapq.heappush(pairs, (sugar, _neg_key(lcm), i, t, lcm))
            pending.add((i, t))

    for t in range(len(basis)):
        push_pairs(t)

    while pairs:
        sugar, _, i, j, lcm = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        # chain criterion: a third leading term dividing the lcm, with both
        # linking pairs already handled, makes this pair redundant
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(basis[k].lm, lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 not in pending and p2 not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _s_poly_terms(basis[i], basis[j], lcm)
        nf = normal_form(s, basis, budget, modulus)
        if nf:
            basis.append(GPoly(nf, sugar=sugar, modulus=modulus))
            push_pairs(len(basis) - 1)
    return _reduce_basis(basis, budget, modulus)


def _reduce_basis(basis: list[GPoly], budget: _Budget,
                  modulus: int | None) -> list[GPoly]:
    ordered = sorted(basis, key=lambda g: grevlex_key(g.lm))
    kept: list[GPoly] = []
    for g in ordered:
        if not any(_divides(h.lm, g.lm) for h in kept):
            kept.append(g)
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        nf = normal_form(g.terms, others, budget, modulus)
        if nf:
            reduced.append(GPoly(nf, modulus=modulus))
    reduced.sort(key=lambda g: grevlex_key(g.lm), reverse=True)
    return reduced


def pure_power_coverage(basis: Sequence[GPoly], nvars: int) -> list[bool]:
    """covered[i] is true when some basis element leads with a pure power of x_i."""
    covered = [False] * nvars
    for g in basis:
        nz = [i for i, e in enumerate(g.lm) if e]
        if len(nz) == 1:
            covered[nz[0]] = True
        elif len(nz) == 0:
            return [True] * nvars  # unit ideal
    return covered
