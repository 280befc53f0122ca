"""Smoothness of the projective hypersurface X_F.

Two combinatorial non-smoothness filters for cubics (positive answers are
certificates of singularity), plus an exact decision through the Jacobian
criterion: X_F is smooth iff the partials have no common projective zero,
certified by pure-power leading terms in a graded-reverse-lex Groebner basis.

Before the exact basis over Q(zeta_N), `is_smooth` runs Buchberger over F_p,
through the map zeta_N -> r of `cyclo.modular_embedding`, whose kernel on
Z[zeta_N] is a prime ideal P above p.  That certificate is one-sided.  The resultant of
the m partials is an integer polynomial in their coefficients, and reduction
mod P commutes with it.  Pure powers of every variable mod p mean the reduced
partials have no common zero over the algebraic closure of F_p, so the
resultant is not in P, hence not zero, hence X_F is smooth.  Any elements of
the ideal I mod p serve, not only its reduced basis: leading terms x_i^(a_i)
put every x_i^(a_i) in in(I), so S/in(I), and with it S/I, is finite-dimensional.
So the run stops at the first cover (`pure_power_certificate`).  Any other outcome
mod p (no pure-power cover, a partial that vanishes mod p, a denominator
divisible by p, an exhausted budget) proves nothing, and the exact path
decides as if the modular run had not happened: every singular verdict,
witness and exhausted answer comes from the exact computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, combinations_with_replacement, islice
from operator import or_
from typing import Iterable, Sequence

from .cyclo import modular_embedding
from .forms import Form, monomials, partial
from .groebner import BudgetExhausted, buchberger, pure_power_certificate, pure_power_coverage

DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class NonSmoothWitness:
    """Certificate of non-smoothness; replaying it against F re-triggers it."""

    kind: str  # L38-i | L38-ii | L38-iii | L38-iv | L310 | JacobianZero
    data: tuple

    def __str__(self):
        return f"{self.kind}{self.data}"


@dataclass(frozen=True)
class SmoothResult:
    status: str  # smooth | singular | exhausted
    witness: NonSmoothWitness | None = None

    @property
    def is_smooth(self) -> bool:
        return self.status == "smooth"


@lru_cache(maxsize=None)
def _l38_table(m: int) -> tuple[dict[tuple[int, ...], int], dict[NonSmoothWitness, int]]:
    """Each cubic monomial's bit, and each L38 condition in scan order with the mask of
    the monomials outside its ideal (x_A) + (x_B)^2, which a support meets iff it misses
    the mask: (i) at i: A empty, B all variables but i; (ii) |A| = 3, B empty;
    (iii) |A| = |B| = 2; (iv) |A| = 1, |B| = 4."""
    bit = {e: 1 << k for k, e in enumerate(monomials(m, 3))}
    # the monomials each generator divides: x_v, keyed (v,), for v in A, and x_v x_w,
    # keyed (v, w), for v <= w in B
    div = {g: sum(x for e, x in bit.items() if all(e[v] >= g.count(v) for v in g))
           for n in (1, 2) for g in combinations_with_replacement(range(m), n)}
    shapes = [("L38-i", (i,), (), tuple(v for v in range(m) if v != i)) for i in range(m)]
    shapes += [("L38-ii", trio, trio, ()) for trio in combinations(range(m), 3)]
    shapes += [("L38-iii", pq + rs, pq, rs) for pq in combinations(range(m), 2)
               for rs in combinations(range(m), 2) if not set(pq) & set(rs)]
    shapes += [("L38-iv", (p,) + quad, (p,), quad) for p in range(m)
               for quad in combinations(range(m), 4) if p not in quad]
    return bit, {NonSmoothWitness(kind, data): ((1 << len(bit)) - 1) & ~reduce(or_, [
        div[g] for g in chain(combinations(a, 1), combinations_with_replacement(b, 2))], 0)
        for kind, data, a, b in shapes}


def _support_non_smooth(support: Iterable[tuple[int, ...]], m: int) -> NonSmoothWitness | None:
    """The first of the four cubic conditions that a monomial support meets.

    Condition (i) (a coordinate point where all partials vanish) is sound for
    every m.  Conditions (ii)-(iv) force a singular point by intersecting 3, 2,
    or 1 quadrics on a linear subspace of dimension m-4, m-5, m-6, so they are
    sound only for m >= 7: at m = 6 there are smooth cubics inside an ideal of
    three variables, so below m = 7 the scan reads only the m entries of (i)."""
    bit, table = _l38_table(m)
    bits = reduce(or_, map(bit.__getitem__, support), 0)
    entries = table.items() if m >= 7 else islice(table.items(), m)
    return next((w for w, mask in entries if not bits & mask), None)


def combinatorial_non_smooth(f: Form) -> NonSmoothWitness | None:
    """First witness among conditions (i)-(iv), scanning in order; None proves nothing."""
    if f.degree != 3:
        raise ValueError("combinatorial filter applies to cubic forms only")
    if f.nvars < 4:
        raise ValueError("combinatorial filter needs at least 4 variables")
    return _support_non_smooth(f.terms.keys(), f.nvars)


def _cover_ok(e: tuple[int, ...], labels: Sequence[int]) -> bool:
    c1 = sum(x for x, l in zip(e, labels) if l == 0)
    if c1 == 0 or c1 == 1:
        return True
    if c1 == 2:
        c3 = sum(x for x, l in zip(e, labels) if l == 2)
        return c3 == 0
    return False


def partition_non_smooth(f: Form, v1: Sequence[int], v2: Sequence[int],
                         v3: Sequence[int]) -> bool:
    """True iff every monomial matches one of the three patterns for the cover
    (V1, V2, V3); a true answer certifies that F is not smooth."""
    if f.degree != 3:
        raise ValueError("partition filter applies to cubic forms only")
    m = f.nvars
    sets = [set(v1), set(v2), set(v3)]
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        raise ValueError("variable collections must be disjoint")
    if sets[0] | sets[1] | sets[2] != set(range(m)):
        raise ValueError("variable collections must cover all variables")
    if len(sets[0]) <= len(sets[1]):
        raise ValueError("need |V1| > |V2|")
    labels = [0] * m
    for v in sets[1]:
        labels[v] = 1
    for v in sets[2]:
        labels[v] = 2
    return all(_cover_ok(e, labels) for e in f.terms)


def find_partition_cover(support: Iterable[tuple[int, ...]], m: int):
    """Return the first (V1, V2, V3) cover whose patterns absorb every monomial
    of the support, or None.  "First" is in the order of `product((0, 1, 2),
    repeat=m)` over the labelings (0, 1, 2 for V1, V2, V3).

    Backtracks over the variables in that order: a monomial is checked as
    soon as its highest variable is labelled, and a branch stops once
    |V1| > |V2| can no longer hold.
    """
    last: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for e in support:
        last[max((i for i, x in enumerate(e) if x), default=0)].append(e)
    labels = [0] * m

    def extend(i: int, n1: int, n2: int) -> bool:
        if i == m:
            return n1 > n2
        for label in (0, 1, 2):
            labels[i] = label
            a, b = n1 + (label == 0), n2 + (label == 1)
            # the variables after i carry no exponent in last[i]
            if (a + m - 1 - i > b and all(_cover_ok(e, labels) for e in last[i])
                    and extend(i + 1, a, b)):
                return True
        return False

    if not extend(0, 0, 0):
        return None
    return tuple(tuple(i for i, l in enumerate(labels) if l == k) for k in range(3))


def replay(witness: NonSmoothWitness, f: Form) -> bool:
    """Check that the witness still triggers against F."""
    if witness.kind.startswith("L38-"):
        bit, table = _l38_table(f.nvars)
        if witness not in table:
            raise ValueError(f"unknown witness {witness}")
        return not any(bit[e] & table[witness] for e in f.terms)
    if witness.kind == "L310":
        return partition_non_smooth(f, *witness.data)
    if witness.kind == "JacobianZero":
        return is_smooth(f).status == "singular"
    raise ValueError(f"unknown witness kind {witness.kind}")


def jacobian_generators(f: Form) -> list[dict]:
    return [partial(f, i).terms for i in range(f.nvars)]


def _smooth_mod_p(partials: Sequence[dict], conductor: int, budget: int) -> bool:
    """True when leading terms of the partials' ideal mod p include a pure power
    of every variable, which certifies smoothness; False proves nothing."""
    emb = modular_embedding(conductor)
    reduced = []
    for terms in partials:
        image = {}
        for e, c in terms.items():
            v = emb(c)
            if v is None:
                return False
            if v:
                image[e] = v
        if not image:
            return False
        reduced.append(image)
    try:
        return pure_power_certificate(reduced, budget_limit=budget, modulus=emb.p)
    except BudgetExhausted:
        return False


def is_smooth(f: Form, budget: int = DEFAULT_BUDGET) -> SmoothResult:
    """Decide smoothness of X_F; honest tri-state (smooth/singular/exhausted)."""
    if f.is_zero():
        raise ValueError("smoothness of the zero form is undefined")
    if f.degree < 2:
        raise ValueError("smoothness test needs degree >= 2")
    m = f.nvars
    if f.degree == 3 and m >= 4:
        w = _support_non_smooth(f.terms.keys(), m)
        if w is not None:
            return SmoothResult("singular", w)
    partials = []
    for i in range(m):
        p = partial(f, i)
        if p.is_zero():
            # F does not involve x_i at all: X_F is a cone
            return SmoothResult("singular", NonSmoothWitness("JacobianZero", (i,)))
        partials.append(p.terms)
    if _smooth_mod_p(partials, f.conductor, budget):
        return SmoothResult("smooth")
    try:
        gb = buchberger(partials, budget_limit=budget)
    except BudgetExhausted:
        return SmoothResult("exhausted")
    covered = pure_power_coverage(gb, m)
    if all(covered):
        return SmoothResult("smooth")
    missing = tuple(i for i, c in enumerate(covered) if not c)
    return SmoothResult("singular", NonSmoothWitness("JacobianZero", missing))
