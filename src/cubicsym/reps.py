"""Faithful diagonal representations of finite abelian groups, enumerated up to
d-equivalence, and the smoothness filter selecting the (n,d)-representations.

A diagonal representation is an exponent matrix: row j holds the zeta_{n_j}
exponents of the j-th invariant-factor generator across the m coordinates.
Two representations are d-equivalent when the diagonal groups obtained by
adjoining zeta_d*I are conjugate, which for diagonal groups means equal up to
a coordinate permutation.  Enumeration is orderly generation over column
multisets pruned by the dual automorphisms and the d-torsion scalar twists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .cyclo import CycNum, zeta
from .forms import CycMatrix, Form, monomials
from .smooth import NonSmoothWitness, _support_non_smooth, is_smooth

AUT_ENUM_CAP = 300_000


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Finite abelian group presented by its invariant factors n1 | n2 | ... | nk."""

    factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.factors
        if not fs or any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("divisibility chain violated")

    @staticmethod
    def from_factors(factors: Iterable[int]) -> "AbelianGroupSpec":
        """Normalize an arbitrary direct-product presentation to invariant factors."""
        primary: dict[int, list[int]] = {}
        for f in factors:
            if f < 2:
                raise ValueError("factors must be >= 2")
            n, p = f, 2
            while p * p <= n:
                if n % p == 0:
                    q = 1
                    while n % p == 0:
                        n //= p
                        q *= p
                    primary.setdefault(p, []).append(q)
                p += 1
            if n > 1:
                primary.setdefault(n, []).append(n)
        if not primary:
            raise ValueError("need at least one factor")
        depth = max(len(v) for v in primary.values())
        chain = []
        for slot in range(depth):
            val = 1
            for p, qs in primary.items():
                qs_sorted = sorted(qs, reverse=True)
                if slot < len(qs_sorted):
                    val *= qs_sorted[slot]
            chain.append(val)
        chain.reverse()
        return AbelianGroupSpec(tuple(chain))

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f
        return out

    @property
    def exponent(self) -> int:
        return self.factors[-1]

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*[range(f) for f in self.factors]))


@dataclass(frozen=True)
class RepClass:
    """One d-equivalence class of faithful diagonal representations."""

    spec: AbelianGroupSpec
    m: int
    d: int
    exp_matrix: tuple[tuple[int, ...], ...]  # k rows, m columns

    def generator_matrices(self) -> list[CycMatrix]:
        out = []
        for j, nj in enumerate(self.spec.factors):
            out.append(CycMatrix.diagonal(
                [zeta(nj, self.exp_matrix[j][c] % nj) for c in range(self.m)]))
        return out

    def invariant_support(self) -> tuple[tuple[int, ...], ...]:
        """Degree-d monomials fixed by every generator."""
        out = []
        for e in monomials(self.m, self.d):
            ok = True
            for j, nj in enumerate(self.spec.factors):
                if sum(x * a for x, a in zip(e, self.exp_matrix[j])) % nj:
                    ok = False
                    break
            if ok:
                out.append(e)
        return tuple(out)


# -- canonical subgroup encodings -------------------------------------------


def _diagonal_subgroup(rep: RepClass) -> tuple[int, list[tuple[int, ...]]]:
    """The finite diagonal group <rho(G), zeta_d I> as a subgroup of (Z/L)^m."""
    L = lcm(rep.spec.exponent, rep.d)
    gens = []
    for j, nj in enumerate(rep.spec.factors):
        step = L // nj
        gens.append(tuple((rep.exp_matrix[j][c] * step) % L for c in range(rep.m)))
    gens.append(tuple([L // rep.d] * rep.m))
    seen = {tuple([0] * rep.m)}
    frontier = [tuple([0] * rep.m)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % L for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return L, sorted(seen)


def _min_columns(elements: list[tuple[int, ...]], m: int) -> tuple:
    """Lexicographically minimal sorted element table over all column
    permutations.  Column-prefix profiles do not bound the row-major objective,
    so the minimization is exhaustive; m <= 8 keeps it cheap.  Duplicate columns
    are collapsed first."""
    import numpy as np
    if m > 8:
        raise ValueError("canonical column minimization limited to 8 columns")
    arr = np.array(elements, dtype=np.int64)
    # identical columns are interchangeable: permute distinct columns, then
    # re-expand by multiplicity
    col_keys = [tuple(arr[:, c]) for c in range(m)]
    distinct: dict[tuple, int] = {}
    mult: list[int] = []
    rep_cols: list[int] = []
    for c, key in enumerate(col_keys):
        if key in distinct:
            mult[distinct[key]] += 1
        else:
            distinct[key] = len(rep_cols)
            rep_cols.append(c)
            mult.append(1)
    base = arr[:, rep_cols]
    k = len(rep_cols)
    best: tuple | None = None
    for perm in permutations(range(k)):
        cols: list[int] = []
        for p in perm:
            cols.extend([p] * mult[p])
        table = base[:, cols]
        rows = sorted(map(tuple, table))
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
    return best


def canonicalize(rep: RepClass) -> tuple:
    """Canonical encoding of <rho(G), zeta_d I>; equal encodings characterize
    d-equivalence of diagonal representations."""
    L, elements = _diagonal_subgroup(rep)
    return (L, rep.m, _min_columns(elements, rep.m))


def _first_per_class(classes: Iterable[RepClass]) -> list[RepClass]:
    """The first class of each canonical encoding, in the order given."""
    by_canonical: dict[tuple, RepClass] = {}
    for rc in classes:
        by_canonical.setdefault(canonicalize(rc), rc)
    return list(by_canonical.values())


# -- enumeration -------------------------------------------------------------


def _element_grid(spec: AbelianGroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """The elements as an (order, k) array in the order of spec.elements(), and
    the weights taking an element to its index there (the index of e_j is the
    j-th weight)."""
    import numpy as np
    factors = spec.factors
    weights = [spec.order // prod(factors[:j + 1]) for j in range(len(factors))]
    return np.array(spec.elements(), dtype=np.int64), np.array(weights, dtype=np.int64)


def _dual_automorphism_tables(spec: AbelianGroupSpec) -> tuple[np.ndarray, bool]:
    """Index tables of automorphisms of the dual group (= Aut(G)), one per row;
    the flag says whether the whole automorphism group was enumerated.

    Both cases close a set of automorphisms under composition.  When
    order^k <= AUT_ENUM_CAP (which bounds |Aut(G)|) the set is the unit
    scalings and the transvections e_j -> e_j + c*e_t, c = n_t/gcd(n_t, n_j),
    which generate Aut(G) (Hillar & Rhea 2007); the tables are then sorted by
    their images of e_1..e_k.  Otherwise the unit scalings and the swaps of
    equal factors generate a subgroup, closed until it has 20,000 tables."""
    import numpy as np
    factors = spec.factors
    k = len(factors)
    elems, weights = _element_grid(spec)

    def table(images: np.ndarray) -> np.ndarray:
        # row j of images is the image of the j-th standard generator
        return (elems @ images % factors) @ weights

    def elementary(j: int, t: int, c: int) -> np.ndarray:
        images = np.eye(k, dtype=np.int64)
        images[j, t] = c
        return images

    seeds = [elementary(j, j, u) for j, nj in enumerate(factors)
             for u in range(2, nj) if gcd(u, nj) == 1]
    complete = spec.order ** k <= AUT_ENUM_CAP
    if complete:
        seeds += [elementary(j, t, factors[t] // gcd(factors[t], factors[j]))
                  for j, t in permutations(range(k), 2)]
    else:
        seeds += [np.eye(k, dtype=np.int64)[[*range(j), j + 1, j, *range(j + 2, k)]]
                  for j in range(k - 1) if factors[j] == factors[j + 1]]
    # each table is held once, narrow, as a key of the insertion-ordered seen
    # (joined into a bytearray, so the result is writable); it is widened once
    # to index with, as numpy would on every gather
    dtype = np.min_scalar_type(spec.order - 1)
    base = [table(img).astype(dtype) for img in seeds]
    ident = np.arange(spec.order, dtype=dtype).tobytes()
    seen = {ident: None}
    frontier = [ident]
    while frontier and (complete or len(seen) < 20_000):
        nxt = []
        for t in frontier:
            t = np.frombuffer(t, dtype).astype(np.intp)
            for b in base:
                key = b[t].tobytes()
                if key not in seen:
                    seen[key] = None
                    nxt.append(key)
        frontier = nxt
    tables = np.frombuffer(bytearray().join(seen), dtype).reshape(len(seen), spec.order)
    del seen, frontier
    if complete:
        # lexsort's last key is its primary one: keys are the images of e_k..e_1
        tables = tables[np.lexsort(tables[:, weights[::-1]].T)]
    return tables, complete


def _twist_shifts(spec: AbelianGroupSpec, d: int) -> list[tuple[int, ...]]:
    """The d-torsion elements of the dual group: scalar twists preserved by
    d-equivalence."""
    ranges = []
    for nj in spec.factors:
        g = gcd(nj, d)
        ranges.append([(nj // g) * t for t in range(g)])
    return [tuple(t) for t in product(*ranges)]


def _combined_tables(spec: AbelianGroupSpec, d: int) -> tuple[np.ndarray, bool]:
    """The automorphism tables followed by each twist, automorphism-major, in
    the closure's narrow dtype.  Every automorphism fixes 0, so a table's image
    of 0 names its twist and the tables are distinct."""
    import numpy as np
    elems, weights = _element_grid(spec)
    auts, complete = _dual_automorphism_tables(spec)
    shifts = np.array(_twist_shifts(spec, d), dtype=np.int64)
    shift_tabs = ((elems + shifts[:, None]) % spec.factors @ weights).astype(auts.dtype)
    return shift_tabs[:, auts].swapaxes(0, 1).reshape(-1, spec.order), complete


_BLOCK = 1 << 16  # rows, (table, parent) cells or mask words per pass: a pass stays in cache


def _blocks(n: int):
    """Slices that cover range(n), _BLOCK rows each."""
    return (slice(s, s + _BLOCK) for s in range(0, n, _BLOCK))


def _sort_columns(cols: list[np.ndarray]) -> None:
    """Sort the rows held column-wise in cols, in place, with the odd-even
    transposition network: m rounds of compare-exchanges on adjacent
    positions, starting alternately at 0 and 1."""
    import numpy as np
    m = len(cols)
    for r in range(m):
        for i in range(r % 2, m - 1, 2):
            lo = np.minimum(cols[i], cols[i + 1])
            np.maximum(cols[i], cols[i + 1], out=cols[i + 1])
            cols[i] = lo


def _rejection_masks(tabs: np.ndarray, words: int) -> tuple[np.ndarray, np.ndarray]:
    """For each table t over n elements, bit sets over c in `words` uint64
    words: row v <= n holds {c : t(c) < v}, row n + 1 holds {c : t(c) < c}.
    Also the inverse tables, padded with two zero columns."""
    import numpy as np
    count, n = tabs.shape
    rows = np.arange(count)[:, None]
    inverse = np.zeros((count, n + 2), dtype=tabs.dtype)
    inverse[rows, tabs] = np.arange(n, dtype=tabs.dtype)
    inv = inverse[:, :n].astype(np.intp)
    masks = np.zeros((count, n + 2, words), dtype="<u8")
    # bit c of row v + 1 is set for c = t^-1(v); the running OR gives row v + 1
    masks[rows, np.arange(1, n + 1), inv >> 6] = np.uint64(1) << (inv & 63).astype(np.uint64)
    masks = np.bitwise_or.accumulate(masks, axis=1)
    below = np.zeros((count, 64 * words), dtype=bool)
    below[:, :n] = tabs < np.arange(n)
    masks[:, n + 1] = np.packbits(below, axis=1, bitorder="little").view("<u8")
    return masks, inverse


def _rejected_children(parents: np.ndarray, images: np.ndarray, masks: np.ndarray,
                       inverse: np.ndarray) -> np.ndarray:
    """The children c whose row parent + [c] some table rejects, as one bit
    set per parent (a row of parents); images[x] holds every table's image
    of x.  The parents are canonical, so S = sort(t(parent)) >= parent; let
    i0 be the first index where they differ and v = parent[i0].  Table t
    rejects the child exactly when S = parent and t(c) < c; or t(c) < v; or
    t(c) = v and S[i0..k-1] is below parent[i0+1..k-1] + [c].  The last case
    holds for the one c = t^-1(v) or for none, so the rejected set is
    {c : t(c) < v} or {c : t(c) < v + 1}: one mask row per (parent, table)."""
    import numpy as np
    count, k = parents.shape
    n = masks.shape[1] - 2
    cols = list(parents.T)
    img = [images[c.astype(np.intp)] for c in cols]  # S, one (parent, table) array per column
    _sort_columns(img)
    shape = img[0].shape if k else (count, images.shape[1])
    # v starts at parent[0] and steps to parent[j + 1] while S[0..j] = parent[0..j];
    # row n + 1 (the mask of t(c) < c) stands after parent[k-1], where S = parent
    heads = np.concatenate([parents, np.full((count, 1), n + 1)], axis=1).astype(np.uint16)
    steps = np.diff(heads, axis=1)
    v = np.repeat(heads[:, :1], shape[1], axis=1)
    same = np.ones(shape, dtype=bool)  # S[0..j] = parent[0..j]
    open_ = np.ones(shape, dtype=bool)  # S[i0..j] = parent[i0+1..j+1] so far
    below = np.zeros(shape, dtype=bool)  # S[i0..] < parent[i0+1..]
    for j, col in enumerate(cols):
        same &= img[j] == col[:, None]
        v += same * steps[:, j:j + 1]
        if j + 1 < k:
            nxt = cols[j + 1][:, None]
            decided = np.greater(img[j] != nxt, same)
            below |= open_ & decided & (img[j] < nxt)
            np.greater(open_, decided, out=open_)
    at = v + np.arange(shape[1]) * (n + 2)
    if k:  # where S = parent, v = n + 1 reads a zero pad: 0 > S[k-1] fails
        below |= open_ & (inverse.ravel()[at] > img[-1])
    at += below
    return np.bitwise_or.reduce(masks.reshape(-1, masks.shape[2])[at], axis=1)


def _listed_children(cols: list[np.ndarray], rejected: np.ndarray, order: int, dtype) -> np.ndarray:
    """The rows parent + [c], c >= last(parent) not rejected, parent by
    parent with c ascending, as a transposed view of one buffer row per
    column."""
    import numpy as np
    lasts = cols[-1] if cols else np.zeros(1, dtype=dtype)
    c = np.arange(order, dtype=dtype)
    step = max(1, _BLOCK // order)

    def kept(p: int) -> np.ndarray:
        bits = np.unpackbits(rejected[p:p + step].view(np.uint8), axis=1, count=order,
                             bitorder="little")
        return (bits == 0) & (c >= lasts[p:p + step, None])
    parts = range(0, rejected.shape[0], step)
    buf = np.empty((len(cols) + 1, sum(np.count_nonzero(kept(p)) for p in parts)), dtype=dtype)
    n = 0
    for p in parts:
        keep = kept(p)
        counts = np.count_nonzero(keep, axis=1)
        size = int(counts.sum())
        for row, col in zip(buf, cols):
            row[n:n + size] = np.repeat(col[p:p + step], counts)
        buf[-1, n:n + size] = np.broadcast_to(c, keep.shape)[keep]
        n += size
    return buf.T


def _require_shape(m: int, d: int) -> None:
    # level 0 of the generation is its one empty row, which is no class
    if m < 1 or d < 1:
        raise ValueError(f"need at least one variable and degree at least 1, got {m} and {d}")


def _canonical_rows(spec: AbelianGroupSpec, m: int, d: int) -> tuple[np.ndarray, bool]:
    """Orderly generation of canonical column-multiset rows (indices into the
    dual-group element list); a row survives only when no transform gives a
    strictly smaller sorted row.  Its parent is canonical, so each table's
    verdict on all children of one parent is one rule (_rejected_children).
    A pass takes the tables whose masks fill about _BLOCK words and the
    parents that make about _BLOCK (table, parent) cells with them."""
    import numpy as np
    order = spec.order
    if order > 60_000:
        raise ValueError("group too large for column enumeration")
    tables, complete = _combined_tables(spec, d)
    dtype = np.uint16 if order > 255 else np.uint8
    tables = tables.astype(dtype, copy=False)
    words = -(-order // 64)
    per_pass = max(1, _BLOCK // ((order + 2) * words))
    rows = np.zeros((1, 0), dtype=dtype)
    for _ in range(m):
        count = rows.shape[0]
        if count == 0:
            break
        cols = list(rows.T)  # the parents, one contiguous array per column
        rejected = np.zeros((count, words), dtype="<u8")
        for t in range(0, len(tables), per_pass):
            tabs = tables[t:t + per_pass]
            masks, inverse = _rejection_masks(tabs, words)
            images = tabs.T.copy()
            step = max(1, _BLOCK // len(tabs))
            for p in range(0, count, step):
                rejected[p:p + step] |= _rejected_children(rows[p:p + step], images, masks, inverse)
        rows = _listed_children(cols, rejected, order, dtype)
    return rows, complete


def _character_tables(spec: AbelianGroupSpec) -> list[np.ndarray]:
    """For one generator g of each subgroup of prime order in G, the table
    col -> chi_col(g) as an integer in Z/L (L the exponent); scalar image
    means all chosen columns agree.  The g with scalar image form a subgroup,
    and a nontrivial subgroup has a subgroup of prime order."""
    import numpy as np
    elems = spec.elements()
    factors = spec.factors
    L = spec.exponent
    steps = [L // nj for nj in factors]
    out = []
    seen = set()
    for g in elems:
        p = lcm(*(f // gcd(x, f) for x, f in zip(g, factors)))
        if g in seen or p == 1 or any(p % q == 0 for q in range(2, p)):
            continue
        seen.update(tuple(k * x % f for x, f in zip(g, factors)) for k in range(p))
        vals = np.array(
            [sum(c[j] * g[j] * steps[j] for j in range(len(factors))) % L
             for c in elems], dtype=np.min_scalar_type(L))
        out.append(vals)
    return out


def _row_mask(rows: np.ndarray, fn) -> np.ndarray:
    """Apply fn block by block to rows given as an (m, block) intp array."""
    import numpy as np
    out = np.ones(rows.shape[0], dtype=bool)
    for b in _blocks(rows.shape[0]):
        out[b] = fn(rows[b].T.astype(np.intp))
    return out


def _valid_mask(rows: np.ndarray, spec: AbelianGroupSpec) -> np.ndarray:
    """Faithfulness plus injective projective image: no nonzero group element
    has all column characters equal."""
    import numpy as np
    chars = _character_tables(spec)

    def block(cols):
        keep = np.ones(cols.shape[1], dtype=bool)
        for vals in chars:
            v = [vals[c] for c in cols]
            differs = np.zeros(cols.shape[1], dtype=bool)
            for x in v[1:]:
                differs |= x != v[0]
            keep &= differs
        return keep
    return _row_mask(rows, block)


def _rows_to_classes(rows: np.ndarray, spec: AbelianGroupSpec, m: int, d: int) -> list[RepClass]:
    elems = spec.elements()
    k = len(spec.factors)
    out = []
    for row in rows:
        cols = [elems[int(i)] for i in row]
        exp = tuple(tuple(c[j] for c in cols) for j in range(k))
        out.append(RepClass(spec, m, d, exp))
    return out


ENUM_MATERIALIZE_CAP = 200_000


def enumerate_diagonal_reps(spec: AbelianGroupSpec, m: int, d: int) -> list[RepClass]:
    """One representative per d-equivalence class of faithful diagonal
    representations with injective projective image, in deterministic order.

    Groups whose class count exceeds the materialization cap should go through
    classify(), which keeps the bulk of the work vectorized.
    """
    import numpy as np
    _require_shape(m, d)
    rows, complete = _canonical_rows(spec, m, d)
    valid = _valid_mask(rows, spec)
    count = int(np.count_nonzero(valid))
    if count > ENUM_MATERIALIZE_CAP:
        raise ValueError(f"{count} classes exceed the materialization cap "
                         f"{ENUM_MATERIALIZE_CAP}; count them with `reps --filter` (reps-count)")
    classes = _rows_to_classes(rows[valid], spec, m, d)
    # partial symmetry pruning: finish the deduplication exactly
    return classes if complete else _first_per_class(classes)


# -- the (n,d) filter ---------------------------------------------------------


@dataclass(frozen=True)
class RepVerdict:
    rep: RepClass
    status: str  # accepted | rejected | undecided
    witness_form: Form | None
    witness: NonSmoothWitness | None
    support: tuple[tuple[int, ...], ...]


# the witness search's tries per class, before it calls the class undecided
STRUCTURED_TRIES = 64
RANDOM_TRIES = 200


@cache
def _witness_coeffs() -> tuple[CycNum, ...]:
    s3 = zeta(12) + zeta(12, 11)
    return CycNum.one(12), -CycNum.one(12), zeta(3).embed(12), (s3 - 1) * 3


def _require_cubic(d: int) -> None:
    # the support conditions and the witness forms are cubic
    if d != 3:
        raise ValueError(f"the smoothness filter handles degree 3 only, got degree {d}")


def filter_to_nd_reps(classes: Sequence[RepClass], n: int, d: int) -> list[RepVerdict]:
    """Classify each representation class: reject when the full invariant
    support already violates smoothness, otherwise hunt for a smooth invariant
    witness form; undecided when the search budget runs out.

    A rejection holds for every invariant cubic, not only for the full
    support. Each witness says that the support lies in an ideal
    (x_A) + (x_B)^2, and so does every subset of it, such as the support of
    an invariant cubic.
    """
    _require_cubic(d)
    if any(rc.m != n + 2 for rc in classes):
        raise ValueError("representation dimension must equal n + 2")
    if any(rc.d != d for rc in classes):
        raise ValueError(f"representation classes must be of degree {d}")
    out = []
    for rc in classes:
        support = rc.invariant_support()
        rng = random.Random(hash((rc.exp_matrix, n, d)) & 0xFFFFFFFF)
        w = _support_non_smooth(support, rc.m)
        if w is not None:
            out.append(RepVerdict(rc, "rejected", None, w, support))
        else:
            out.append(_search_smooth_witness(rc, support, rng))
    return out


def _search_smooth_witness(rc: RepClass, support, rng: random.Random) -> RepVerdict:
    """Smooth witness forms: one monomial x_i^2 x_j per variable, then random
    coefficients on the whole support."""
    m = rc.m
    options = []
    for i in range(m):
        opts = [e for e in support if e[i] >= 2]
        opts.sort(key=lambda e: (e[i] != 3,))
        options.append(opts)
    seen: set[frozenset] = set()
    count = 0
    one = CycNum.one(1)
    for combo in product(*options):
        chosen = frozenset(combo)
        if chosen in seen:
            continue
        seen.add(chosen)
        count += 1
        if count > STRUCTURED_TRIES:
            break
        cand = Form(m, 3, 1, {e: one for e in chosen})
        if is_smooth(cand).status == "smooth":
            return RepVerdict(rc, "accepted", cand, None, support)
    coeffs = _witness_coeffs()
    for _ in range(RANDOM_TRIES):
        terms = {e: rng.choice(coeffs) for e in support}
        cand = Form(m, 3, 12, terms)
        if is_smooth(cand).status == "smooth":
            return RepVerdict(rc, "accepted", cand, None, support)
    return RepVerdict(rc, "undecided", None, None, support)


def accepted_count(verdicts: Sequence[RepVerdict]) -> int:
    return sum(1 for v in verdicts if v.status == "accepted")


@dataclass(frozen=True)
class ClassificationReport:
    """Full run over one abelian group: class count, bulk rejections via the
    missing-square-monomial condition, and honest verdicts for the remainder."""

    spec: AbelianGroupSpec
    m: int
    d: int
    total_classes: int  # an upper bound unless total_exact
    bulk_rejected: int  # classes with no invariant x_i^2 x_j for some i
    verdicts: tuple[RepVerdict, ...]
    total_exact: bool

    @property
    def accepted(self) -> int:
        return accepted_count(self.verdicts)

    @property
    def rejected(self) -> int:
        return self.bulk_rejected + sum(1 for v in self.verdicts if v.status == "rejected")

    @property
    def undecided(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "undecided")


def _bulk_square_mask(rows: np.ndarray, spec: AbelianGroupSpec) -> np.ndarray:
    """True where the invariant support contains, for every position i, some
    monomial x_i^2 x_j; the complement is exactly the support-level witness
    of kind L38-i."""
    import numpy as np
    index = {e: i for i, e in enumerate(spec.elements())}
    # x_i^2 x_j is invariant exactly when column j is -2 times column i
    minus_twice = np.array([index[tuple(-2 * a % f for a, f in zip(e, spec.factors))]
                            for e in index])

    def block(cols):
        keep = np.ones(cols.shape[1], dtype=bool)
        for ci in cols:
            want = minus_twice[ci]
            has = np.zeros(cols.shape[1], dtype=bool)
            for cj in cols:
                has |= cj == want
            keep &= has
        return keep
    return _row_mask(rows, block)


def classify(spec: AbelianGroupSpec, m: int, d: int) -> ClassificationReport:
    """Enumerate all classes and classify them, keeping the bulk of the work
    vectorized: classes whose support misses every x_i^2 x_j for some i are
    rejected wholesale, the rest get the full filter.

    For groups where only a subgroup of the dual symmetries was enumerated the
    exact deduplication runs on the filter survivors only, so the bulk-rejected
    rows may still repeat a class: total_classes is then an upper bound and
    total_exact is False.  The verdicts, and so the accepted count, stay exact.

    Both masks are row-wise, so they run over the canonical rows in place and
    only the rows that pass both are copied.
    """
    import numpy as np
    _require_cubic(d)
    _require_shape(m, d)
    rows, complete = _canonical_rows(spec, m, d)
    valid = _valid_mask(rows, spec)
    total = int(np.count_nonzero(valid))
    survivors = rows[valid & _bulk_square_mask(rows, spec)]
    bulk_rejected = total - int(survivors.shape[0])
    classes = _rows_to_classes(survivors, spec, m, d)
    if not complete:
        deduped = _first_per_class(classes)
        total -= len(classes) - len(deduped)
        classes = deduped
    verdicts = filter_to_nd_reps(classes, m - 2, d)
    return ClassificationReport(spec, m, d, total, bulk_rejected, tuple(verdicts), complete)
