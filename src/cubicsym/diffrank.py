"""The differential method: derivative ranks, characteristic sets, and
partition detection for cubic forms.

rank_d(F, i) is the rank of the coefficient matrix of all order-i partial
derivatives of F over the degree-(d-i) monomial basis; it is invariant under
invertible linear changes of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .cyclo import CycNum, common_conductor, zeta
from .forms import CycMatrix, Form, monomials, partial
from .groebner import DEFAULT_BUDGET, BudgetExhausted, pure_power_certificate
from .linalg import dense_rank, rank as sparse_rank


def _falling(e: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= e - j
    return out


def rank_d(f: Form, order: int) -> int:
    """rk(D_i^F): rank of the order-i derivative coefficient matrix."""
    if not 1 <= order <= f.degree:
        raise ValueError("derivative order must be in [1, d]")
    m, d = f.nvars, f.degree
    target = {e: idx for idx, e in enumerate(monomials(m, d - order))}
    rows = []
    for alpha in monomials(m, order):
        row: dict[int, CycNum] = {}
        for e, c in f.terms.items():
            if all(x >= a for x, a in zip(e, alpha)):
                mult = 1
                for x, a in zip(e, alpha):
                    if a:
                        mult *= _falling(x, a)
                res = tuple(x - a for x, a in zip(e, alpha))
                v = c * mult
                idx = target[res]
                row[idx] = row[idx] + v if idx in row else v
        rows.append({k: v for k, v in row.items() if not v.is_zero()})
    return sparse_rank(rows)


def contraction(f: Form, l: list[CycNum] | tuple[CycNum, ...]) -> Form:
    """sum_i l_i dF/dx_i."""
    if len(l) != f.nvars:
        raise ValueError("direction vector has wrong length")
    n = common_conductor(f.conductor, *(c.conductor for c in l))
    out = Form(f.nvars, f.degree - 1, n, {})
    for i, c in enumerate(l):
        if not c.is_zero():
            out = out + partial(f, i).lift(n).scale(c.embed(n))
    return out


def char_set_member(f: Form, l, r: int) -> bool:
    """l in S_r^F: the first-order rank of sum l_i dF/dx_i equals r exactly."""
    if f.degree < 2:
        raise ValueError("characteristic sets need degree >= 2")
    vec = [c if isinstance(c, CycNum) else CycNum.rational(c) for c in l]
    if all(c.is_zero() for c in vec):
        raise ValueError("zero direction vector rejected")
    g = contraction(f, vec)
    if g.is_zero():
        return r == 0
    return rank_d(g, 1) == r


def transport_map(a: CycMatrix, l) -> tuple[CycNum, ...]:
    """The linear map carrying S_r^{A(G)} to S_r^G: l -> A l."""
    vec = [c if isinstance(c, CycNum) else CycNum.rational(c) for c in l]
    n = common_conductor(a.conductor, *(c.conductor for c in vec))
    am = a.lift(n)
    vec = [c.embed(n) for c in vec]
    out = []
    for i in range(a.dim):
        s = CycNum.zero(n)
        for j in range(a.dim):
            if not am.rows[i][j].is_zero() and not vec[j].is_zero():
                s = s + am.rows[i][j] * vec[j]
        out.append(s)
    return tuple(out)


# -- first characteristic set ----------------------------------------------


@dataclass(frozen=True)
class S1Result:
    status: str  # yes | no | exhausted
    witness: tuple[CycNum, ...] | None = None


def _third_derivative_tensor(f: Form) -> list[list[list[CycNum]]]:
    m = f.nvars
    n = f.conductor
    zero = CycNum.zero(n)
    t = [[[zero] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        fi = partial(f, i)
        for j in range(m):
            fij = partial(fi, j)
            for e, c in fij.terms.items():
                k = next(v for v, x in enumerate(e) if x)
                t[i][j][k] = c
    return t


def _gram_at(t, l: list[CycNum], m: int, n: int):
    zero = CycNum.zero(n)
    b = [[zero] * m for _ in range(m)]
    for i, li in enumerate(l):
        if li.is_zero():
            continue
        ti = t[i]
        for j in range(m):
            row = ti[j]
            for k in range(m):
                if not row[k].is_zero():
                    b[j][k] = b[j][k] + li * row[k]
    return b


def _candidate_vectors(m: int, n: int):
    # n is assumed to already contain the third roots of unity
    w3 = zeta(3).embed(n)
    values = [CycNum.one(n), -CycNum.one(n), w3, w3 * w3]
    zero = CycNum.zero(n)
    one = values[0]
    max_support = m if m <= 5 else 2
    for size in range(1, max_support + 1):
        for supp in combinations(range(m), size):
            for vals in product(values, repeat=size - 1):
                vec = [zero] * m
                vec[supp[0]] = one  # projective normalization
                for pos, v in zip(supp[1:], vals):
                    vec[pos] = v
                yield tuple(vec)


def s1_non_empty(f: Form, budget: int = DEFAULT_BUDGET) -> S1Result:
    """Solvability of the rank-1 locus for a smooth cubic (first characteristic
    set non-empty).  Witness search first, then the 2x2-minor ideal decides the
    negative case; smoothness of F rules out the rank-0 branch."""
    if f.degree != 3:
        raise ValueError("first characteristic set is implemented for cubics")
    m = f.nvars
    n = common_conductor(f.conductor, 3)
    fl = f.lift(n)
    t = _third_derivative_tensor(fl)
    for vec in _candidate_vectors(m, n):
        b = _gram_at(t, list(vec), m, n)
        if dense_rank(b) == 1:
            return S1Result("yes", vec)
    # minor ideal in the l variables: entries of the gram matrix are linear in l
    lin = [[{i: t[i][j][k] for i in range(m) if not t[i][j][k].is_zero()}
            for k in range(m)] for j in range(m)]
    quadrics: list[dict] = []
    for j1, j2 in combinations(range(m), 2):
        for k1, k2 in combinations(range(m), 2):
            q: dict[tuple[int, ...], CycNum] = {}
            for (pa, pb, sign) in ((lin[j1][k1], lin[j2][k2], 1),
                                   (lin[j1][k2], lin[j2][k1], -1)):
                for i1, c1 in pa.items():
                    for i2, c2 in pb.items():
                        e = [0] * m
                        e[i1] += 1
                        e[i2] += 1
                        e = tuple(e)
                        v = c1 * c2 if sign > 0 else -(c1 * c2)
                        q[e] = q[e] + v if e in q else v
            q = {e: c for e, c in q.items() if not c.is_zero()}
            if q:
                quadrics.append(q)
    if not quadrics:
        # gram matrix has rank <= 1 identically; smoothness forces rank exactly 1
        return S1Result("yes", tuple([CycNum.one(n)] + [CycNum.zero(n)] * (m - 1)))
    try:
        covered = pure_power_certificate(quadrics, budget_limit=budget)
    except BudgetExhausted:
        return S1Result("exhausted")
    return S1Result("no" if covered else "exhausted")


# -- eigenvalue-based partition witnesses ----------------------------------


def eigenvalue_multiset(a: CycMatrix, cap: int = 10_000) -> dict[CycNum, int]:
    """Eigenvalues with multiplicity for a finite-order matrix, found by rank
    drops at the n-th roots of unity."""
    n = a.order(cap)
    if n is None:
        raise ValueError(f"matrix order exceeds cap {cap}")
    if a.is_diagonal():
        out: dict[CycNum, int] = {}
        for i in range(a.dim):
            v = a.rows[i][i]
            out[v] = out.get(v, 0) + 1
        return out
    big = common_conductor(a.conductor, n)
    al = a.lift(big)
    out = {}
    found = 0
    for k in range(n):
        z = zeta(big, (big // n) * k)
        shifted = [[al.rows[i][j] - z if i == j else al.rows[i][j]
                    for j in range(a.dim)] for i in range(a.dim)]
        mult = a.dim - dense_rank(shifted)
        if mult:
            out[z] = mult
            found += mult
            if found == a.dim:
                break
    if found != a.dim:
        raise ArithmeticError("eigenvalue multiplicities do not sum to the dimension")
    return out


def eigen_partition_witness(a: CycMatrix, cap: int = 10_000) -> tuple[int, int] | None:
    """(2,5) or (3,4) when the eigenvalue multiset matches a partition-forcing
    shape up to the cube-root scalar normalization; None otherwise."""
    if a.dim != 7:
        raise ValueError("partition witness shapes are specific to 7 variables")
    ev = eigenvalue_multiset(a, cap)
    base = common_conductor(3, *(v.conductor for v in ev))
    lifted = {k.embed(base): v for k, v in ev.items()}
    w = zeta(3).embed(base)
    for adjust in range(3):
        scale = w ** adjust
        for tag in ((2, 5), (3, 4)):
            if lifted == {w * scale: tag[0], scale: tag[1]}:
                return tag
    return None


# -- monomial-support partitions -------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    blocks: tuple[tuple[int, ...], ...]
    residual: tuple[int, ...]
    certified_by: str

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def support_partition(support, m: int) -> PartitionReport:
    """Connected components of the variable co-occurrence graph of a monomial set."""
    supp = list(support)
    if not supp:
        raise ValueError("empty monomial set")
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    used = set()
    for e in supp:
        vs = [i for i, x in enumerate(e) if x]
        used.update(vs)
        for v in vs[1:]:
            ra, rb = find(vs[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    comps: dict[int, list[int]] = {}
    for v in sorted(used):
        comps.setdefault(find(v), []).append(v)
    blocks = tuple(sorted((tuple(sorted(c)) for c in comps.values()),
                          key=lambda b: (b[0],)))
    residual = tuple(v for v in range(m) if v not in used)
    return PartitionReport(blocks, residual, "MonomialSupport")
