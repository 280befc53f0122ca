"""Smoothness of the projective hypersurface X_F.

One combinatorial non-smoothness filter for cubics, whose positive answers
certify singularity: F lies in (x_A) + (x_B)^2 for disjoint sets A, B of
variables with 2|A| + |B| < m.  On the linear space x_A = x_B = 0, a
P^(m-|A|-|B|-1), F and its partials by the other variables vanish, and its
partials by x_A restrict to |A| quadrics, which have a common zero there since
|A| <= m-|A|-|B|-1.  The conditions L38-i..iv are the shapes (|A|, |B|) =
(0, m-1), (3, 0), (2, 2) and (1, 4), and the cover (V1, V2, V3) of L310 with
|V1| > |V2| is A = V2, B = V3.

Plus an exact decision through the Jacobian criterion: X_F is smooth iff the
partials have no common projective zero, certified by pure-power leading terms
in a graded-reverse-lex Groebner basis.

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
from itertools import combinations
from operator import or_
from typing import Iterable, Sequence

from .cyclo import modular_embedding
from .forms import Form, monomials, partial
from .groebner import (DEFAULT_BUDGET, BudgetExhausted, buchberger, pure_power_certificate,
                       pure_power_coverage)


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
def _monomial_masks(m: int) -> tuple[dict[tuple[int, ...], int], list[int], list[int]]:
    """Each cubic monomial's bit, and for each variable v the masks of the monomials
    that x_v and x_v^2 divide."""
    bit = {e: 1 << k for k, e in enumerate(monomials(m, 3))}
    once, twice = ([sum(x for e, x in bit.items() if e[v] >= n) for v in range(m)]
                   for n in (1, 2))
    return bit, once, twice


def _outside(m: int, a: Sequence[int], b: Sequence[int]) -> int:
    """The mask of the cubic monomials outside (x_A) + (x_B)^2: those that no x_v,
    v in A, divides and whose degree in the variables of B is at most 1."""
    bit, once, twice = _monomial_masks(m)
    inside = reduce(or_, [once[v] for v in a], 0)
    seen = 0
    for v in b:
        inside |= twice[v] | (seen & once[v])
        seen |= once[v]
    return ((1 << len(bit)) - 1) & ~inside


def _witness(a: tuple[int, ...], b: tuple[int, ...], m: int) -> NonSmoothWitness:
    """The witness that F lies in (x_A) + (x_B)^2, named by the shape (|A|, |B|):
    L38-i (0, m - 1) by the variable missing from B, L38-ii..iv (3, 0), (2, 2) and
    (1, 4) as A + B, and every other shape as the L310 cover (V1, A, B)."""
    kind = {(0, m - 1): "L38-i", (3, 0): "L38-ii", (2, 2): "L38-iii",
            (1, 4): "L38-iv"}.get((len(a), len(b)), "L310")
    rest = tuple(v for v in range(m) if v not in a + b)
    if kind == "L310":
        return NonSmoothWitness(kind, (rest, a, b))
    return NonSmoothWitness(kind, rest if kind == "L38-i" else a + b)


@lru_cache(maxsize=None)
def _support_table(m: int) -> tuple[dict[tuple[int, ...], int], dict[NonSmoothWitness, int]]:
    """Each cubic monomial's bit, and in scan order, for every disjoint A, B with
    2|A| + |B| = m - 1, the witness of (x_A) + (x_B)^2 with the mask of the
    monomials outside it: a support lies in the ideal iff it misses the mask.
    L38-i comes first, for i ascending; then |A| descending, A and B in
    `combinations` order."""
    shapes = [((), tuple(v for v in range(m) if v != i)) for i in range(m)]
    shapes += [(a, b) for n in range((m - 1) // 2, 0, -1) for a in combinations(range(m), n)
               for b in combinations([v for v in range(m) if v not in a], m - 1 - 2 * n)]
    return _monomial_masks(m)[0], {_witness(a, b, m): _outside(m, a, b) for a, b in shapes}


def _support_non_smooth(support: Iterable[tuple[int, ...]], m: int) -> NonSmoothWitness | None:
    """The first entry of the support table that a monomial support meets.  A
    larger B only widens the ideal, so the maximal shapes, 2|A| + |B| = m - 1,
    catch every support that some condition of the family holds."""
    bit, table = _support_table(m)
    bits = reduce(or_, map(bit.__getitem__, support), 0)
    return next((w for w, mask in table.items() if not bits & mask), None)


def combinatorial_non_smooth(f: Form) -> NonSmoothWitness | None:
    """The first ideal (x_A) + (x_B)^2 with 2|A| + |B| < m that holds F, in scan
    order: F is then singular at the common zeros of |A| quadrics on the
    P^(m-|A|-|B|-1) where x_A = x_B = 0.  None proves nothing."""
    if f.degree != 3:
        raise ValueError("combinatorial filter applies to cubic forms only")
    if f.nvars < 4:
        raise ValueError("combinatorial filter needs at least 4 variables")
    return _support_non_smooth(f.terms.keys(), f.nvars)


def _meets(f: Form, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether F lies in (x_A) + (x_B)^2."""
    bit = _monomial_masks(f.nvars)[0]
    mask = _outside(f.nvars, a, b)
    return not any(bit[e] & mask for e in f.terms)


def partition_non_smooth(f: Form, v1: Sequence[int], v2: Sequence[int],
                         v3: Sequence[int]) -> bool:
    """True iff every monomial matches one of the three patterns for the cover
    (V1, V2, V3), that is F lies in (x_V2) + (x_V3)^2; a true answer certifies
    that F is not smooth."""
    if f.degree != 3:
        raise ValueError("partition filter applies to cubic forms only")
    sets = [set(v1), set(v2), set(v3)]
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        raise ValueError("variable collections must be disjoint")
    if sets[0] | sets[1] | sets[2] != set(range(f.nvars)):
        raise ValueError("variable collections must cover all variables")
    if len(sets[0]) <= len(sets[1]):
        raise ValueError("need |V1| > |V2|")
    return _meets(f, tuple(sets[1]), tuple(sets[2]))


def replay(witness: NonSmoothWitness, f: Form) -> bool:
    """Check that the witness still triggers against F."""
    m, d = f.nvars, witness.data
    if witness.kind.startswith("L38-"):
        # L38-ii..iv are the shapes with 2|A| + |B| = 6, written A + B
        k = 6 - len(d)
        a, b = ((), tuple(v for v in range(m) if v not in d)) if witness.kind == "L38-i" \
            else (d[:k], d[k:])
        # the data of a table entry: distinct variables, A and B each ascending
        if not (_witness(a, b, m) == witness and len(set(d) & set(range(m))) == len(d)
                and list(a) == sorted(a) and list(b) == sorted(b)):
            raise ValueError(f"unknown witness {witness}")
        return _meets(f, a, b)
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
    if budget < 0:
        raise ValueError(f"the budget must be at least 0, got {budget}")
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
