"""Homogeneous forms, cyclotomic matrices, and the substitution action A(F).

A(F)(x) = F(x A^T), i.e. variable k of F is replaced by the linear form given
by row k of A.  The action is contravariant: (AB)(F) = B(A(F)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .cyclo import CycNum, common_conductor
from .linalg import rref


@lru_cache(maxsize=None)
def monomials(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All degree-d exponent vectors in m variables, graded-reverse-lex descending."""
    if m < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be >= 0")
    exps = []
    for combo in combinations_with_replacement(range(m), d):
        e = [0] * m
        for i in combo:
            e[i] += 1
        exps.append(tuple(e))
    exps.sort(key=lambda e: tuple(reversed(e)))
    return tuple(exps)


def grevlex_key(e: Sequence[int]):
    """Sort key; larger key = larger monomial in graded-reverse-lex."""
    return (sum(e), tuple(-c for c in reversed(e)))


class Form:
    """Homogeneous polynomial: map from exponent vectors to nonzero CycNum."""

    __slots__ = ("nvars", "degree", "conductor", "terms")

    def __init__(self, nvars: int, degree: int, conductor: int,
                 terms: Mapping[tuple[int, ...], CycNum]):
        clean: dict[tuple[int, ...], CycNum] = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != nvars or any(x < 0 for x in e) or sum(e) != degree:
                raise ValueError(f"bad exponent vector {e} for degree {degree}")
            if c.conductor != conductor:
                c = c.embed(conductor)
            if not c.is_zero():
                clean[e] = c
        self.nvars = nvars
        self.degree = degree
        self.conductor = conductor
        self.terms = clean

    @staticmethod
    def from_terms(nvars: int, degree: int,
                   terms: Iterable[tuple[object, Sequence[int]]],
                   conductor: int | None = None) -> "Form":
        """Build from (coefficient, exponent-vector) pairs; coefficients may be
        ints, Fractions, or CycNum at divisor conductors."""
        coeffs: dict[tuple[int, ...], CycNum] = {}
        items = [(c, tuple(e)) for c, e in terms]
        if conductor is None:
            conductor = common_conductor(
                *(c.conductor for c, _ in items if isinstance(c, CycNum)), 1)
        for c, e in items:
            if not isinstance(c, CycNum):
                c = CycNum.rational(c, conductor)
            else:
                c = c.embed(conductor)
            coeffs[e] = coeffs[e] + c if e in coeffs else c
        return Form(nvars, degree, conductor, coeffs)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.terms)

    def lift(self, n: int) -> "Form":
        if n == self.conductor:
            return self
        return Form(self.nvars, self.degree, n,
                    {e: c.embed(n) for e, c in self.terms.items()})

    def scale(self, c) -> "Form":
        if not isinstance(c, CycNum):
            c = CycNum.rational(c, self.conductor)
        n = common_conductor(self.conductor, c.conductor)
        c = c.embed(n)
        return Form(self.nvars, self.degree, n,
                    {e: v.embed(n) * c for e, v in self.terms.items()})

    def __add__(self, other: "Form") -> "Form":
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("form shape mismatch")
        n = common_conductor(self.conductor, other.conductor)
        out = {e: c.embed(n) for e, c in self.terms.items()}
        for e, c in other.terms.items():
            c = c.embed(n)
            out[e] = out[e] + c if e in out else c
        return Form(self.nvars, self.degree, n, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.nvars, self.degree, self.conductor, self.terms) == (
            other.nvars, other.degree, other.conductor, other.terms)

    def __hash__(self):
        return hash((self.nvars, self.degree, self.conductor,
                     tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero form has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def encode(self) -> str:
        lines = [f"form {self.nvars} {self.degree} {self.conductor}"]
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            lines.append(" ".join(map(str, e)) + " | " + self.terms[e].encode())
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Form":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("form"):
            raise ValueError("missing form header")
        _, m, d, n = lines[0].split()
        m, d, n = int(m), int(d), int(n)
        terms: dict[tuple[int, ...], CycNum] = {}
        for ln in lines[1:]:
            left, right = ln.split("|")
            e = tuple(int(x) for x in left.split())
            terms[e] = CycNum.parse(right.strip()).embed(n)
        return Form(m, d, n, terms)

    def __repr__(self):
        return f"Form(m={self.nvars}, d={self.degree}, N={self.conductor}, {len(self.terms)} terms)"


class CycMatrix:
    """Square matrix over Q(zeta_N)."""

    __slots__ = ("dim", "conductor", "rows", "_hash")

    def __init__(self, rows: Sequence[Sequence[CycNum]], conductor: int | None = None):
        m = len(rows)
        if any(len(r) != m for r in rows):
            raise ValueError("matrix must be square")
        if conductor is None:
            conductor = common_conductor(*(c.conductor for r in rows for c in r))
        self.dim = m
        self.conductor = conductor
        self.rows = tuple(
            tuple(c.embed(conductor) for c in r) for r in rows)
        self._hash = None

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]], conductor: int = 1) -> "CycMatrix":
        conv = []
        for r in rows:
            row = []
            for c in r:
                if not isinstance(c, CycNum):
                    c = CycNum.rational(c, 1)
                row.append(c)
            conv.append(row)
        n = common_conductor(conductor, *(c.conductor for r in conv for c in r))
        return CycMatrix([[c.embed(n) for c in r] for r in conv], n)

    @staticmethod
    def identity(m: int, conductor: int = 1) -> "CycMatrix":
        one, zero = CycNum.one(conductor), CycNum.zero(conductor)
        return CycMatrix([[one if i == j else zero for j in range(m)]
                          for i in range(m)], conductor)

    @staticmethod
    def scalar(m: int, value: CycNum) -> "CycMatrix":
        zero = CycNum.zero(value.conductor)
        return CycMatrix([[value if i == j else zero for j in range(m)]
                          for i in range(m)], value.conductor)

    @staticmethod
    def diagonal(values: Sequence[CycNum]) -> "CycMatrix":
        n = common_conductor(*(v.conductor for v in values))
        zero = CycNum.zero(n)
        return CycMatrix([[values[i].embed(n) if i == j else zero
                           for j in range(len(values))]
                          for i in range(len(values))], n)

    @staticmethod
    def permutation(images: Sequence[int], conductor: int = 1) -> "CycMatrix":
        """Matrix realizing the substitution x_k -> x_{images[k]} under the action."""
        m = len(images)
        if sorted(images) != list(range(m)):
            raise ValueError("not a permutation")
        one, zero = CycNum.one(conductor), CycNum.zero(conductor)
        return CycMatrix([[one if j == images[i] else zero for j in range(m)]
                          for i in range(m)], conductor)

    def lift(self, n: int) -> "CycMatrix":
        if n == self.conductor:
            return self
        return CycMatrix([[c.embed(n) for c in r] for r in self.rows], n)

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = common_conductor(self.conductor, other.conductor)
        a, b = self.lift(n), other.lift(n)
        m = self.dim
        zero = CycNum.zero(n)
        out = []
        brows = b.rows
        for i in range(m):
            arow = a.rows[i]
            acc = [zero] * m
            for k in range(m):
                x = arow[k]
                if not x.is_zero():
                    brow = brows[k]
                    for j in range(m):
                        y = brow[j]
                        if not y.is_zero():
                            acc[j] = acc[j] + x * y
            out.append(acc)
        return CycMatrix(out, n)

    def __pow__(self, e: int) -> "CycMatrix":
        if e < 0:
            return self.inv() ** (-e)
        result = CycMatrix.identity(self.dim, self.conductor)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return (self.dim == other.dim and self.conductor == other.conductor
                and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, self.conductor, self.rows))
        return self._hash

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j].is_zero()
                   for i in range(self.dim) for j in range(self.dim) if i != j)

    def is_semi_permutation(self) -> bool:
        """Exactly one nonzero entry in every row and every column."""
        m = self.dim
        cols = [0] * m
        for i in range(m):
            nz = [j for j in range(m) if not self.rows[i][j].is_zero()]
            if len(nz) != 1:
                return False
            cols[nz[0]] += 1
        return all(c == 1 for c in cols)

    def is_scalar(self) -> bool:
        if not self.is_diagonal():
            return False
        first = self.rows[0][0]
        return all(self.rows[i][i] == first for i in range(self.dim))

    def is_identity(self) -> bool:
        return self.is_scalar() and self.rows[0][0].is_one()

    def det(self) -> CycNum:
        n = self.conductor
        m = self.dim
        rows = [list(r) for r in self.rows]
        det = CycNum.one(n)
        for col in range(m):
            pivot = next((r for r in range(col, m) if not rows[r][col].is_zero()), None)
            if pivot is None:
                return CycNum.zero(n)
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = -det
            p = rows[col][col]
            det = det * p
            pinv = p.inv()
            for r in range(col + 1, m):
                f = rows[r][col]
                if not f.is_zero():
                    f = f * pinv
                    for c in range(col, m):
                        rows[r][c] = rows[r][c] - f * rows[col][c]
        return det

    def inv(self) -> "CycMatrix":
        """A^-1 read off the reduced echelon form of [A | I]."""
        n = self.conductor
        m = self.dim
        one, zero = CycNum.one(n), CycNum.zero(n)
        aug = [{j: c for j, c in enumerate(row) if not c.is_zero()} | {m + i: one}
               for i, row in enumerate(self.rows)]
        pivots = rref(aug)
        if any(col not in pivots for col in range(m)):
            raise ZeroDivisionError("matrix is singular")
        return CycMatrix([[pivots[i].get(m + j, zero) for j in range(m)]
                          for i in range(m)], n)

    def order(self, cap: int = 10_000) -> int | None:
        """Multiplicative order, or None if it exceeds cap."""
        x = self
        for k in range(1, cap + 1):
            if x.is_identity():
                return k
            x = x * self
        return None

    def encode(self) -> str:
        lines = [f"matrix {self.dim} {self.conductor}"]
        for r in self.rows:
            lines.append(" ; ".join(c.encode() for c in r))
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "CycMatrix":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("matrix"):
            raise ValueError("missing matrix header")
        _, m, n = lines[0].split()
        m, n = int(m), int(n)
        if len(lines) != m + 1:
            raise ValueError("wrong number of matrix rows")
        rows = []
        for ln in lines[1:]:
            cells = [CycNum.parse(p.strip()).embed(n) for p in ln.split(";")]
            if len(cells) != m:
                raise ValueError("wrong row length")
            rows.append(cells)
        return CycMatrix(rows, n)

    def __repr__(self):
        return f"CycMatrix(dim={self.dim}, N={self.conductor})"


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], CycNum] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
    return {e: c for e, c in out.items() if not c.is_zero()}


def apply(a: CycMatrix, f: Form) -> Form:
    """The action A(F) = F(x A^T): substitute row k of A for variable k."""
    if a.dim != f.nvars:
        raise ValueError("matrix dimension does not match variable count")
    n = common_conductor(a.conductor, f.conductor)
    a, f = a.lift(n), f.lift(n)
    m, d = f.nvars, f.degree
    zero = CycNum.zero(n)
    out: dict[tuple[int, ...], CycNum] = {}
    if a.is_semi_permutation():
        col = [0] * m
        val = [zero] * m
        for k in range(m):
            j = next(j for j in range(m) if not a.rows[k][j].is_zero())
            col[k], val[k] = j, a.rows[k][j]
        pows = [[CycNum.one(n)] for _ in range(m)]
        for e, c in f.terms.items():
            new_e = [0] * m
            factor = c
            for k in range(m):
                if e[k]:
                    new_e[col[k]] += e[k]
                    pk = pows[k]
                    while len(pk) <= e[k]:
                        pk.append(pk[-1] * val[k])
                    factor = factor * pk[e[k]]
            key = tuple(new_e)
            out[key] = out[key] + factor if key in out else factor
    else:
        unit = {tuple(0 for _ in range(m)): CycNum.one(n)}
        linear = []
        for k in range(m):
            lf = {}
            for j in range(m):
                c = a.rows[k][j]
                if not c.is_zero():
                    e = [0] * m
                    e[j] = 1
                    lf[tuple(e)] = c
            linear.append(lf)
        pows: list[list[dict]] = [[unit] for _ in range(m)]
        for e, c in f.terms.items():
            prod = unit
            for k in range(m):
                if e[k]:
                    pk = pows[k]
                    while len(pk) <= e[k]:
                        pk.append(_poly_mul(pk[-1], linear[k]))
                    prod = _poly_mul(prod, pk[e[k]])
            for ee, cc in prod.items():
                v = cc * c
                out[ee] = out[ee] + v if ee in out else v
    return Form(m, d, n, out)


def semi_invariance_factor(a: CycMatrix, f: Form) -> CycNum | None:
    """lambda with A(F) = lambda*F, or None if A(F) is not proportional to F."""
    if f.is_zero():
        raise ValueError("semi-invariance factor of the zero form is undefined")
    g = apply(a, f)
    if g.support() != f.lift(g.conductor).support():
        return None
    fl = f.lift(g.conductor)
    e0 = fl.leading_monomial()
    lam = g.terms[e0] * fl.terms[e0].inv()
    for e, c in fl.terms.items():
        if g.terms[e] != lam * c:
            return None
    return lam


def fixes(a: CycMatrix, f: Form) -> bool:
    """A(F) = F exactly."""
    g = apply(a, f)
    return g == f.lift(g.conductor)


def hat(f: Form) -> Form:
    """F + x_{m+1}^d in one more variable."""
    m, d = f.nvars, f.degree
    terms = {e + (0,): c for e, c in f.terms.items()}
    top = tuple([0] * m + [d])
    one = CycNum.one(f.conductor)
    terms[top] = terms[top] + one if top in terms else one
    return Form(m + 1, d, f.conductor, terms)


def partial(f: Form, i: int) -> Form:
    """dF/dx_i as a homogeneous form of degree d-1."""
    if not 0 <= i < f.nvars:
        raise ValueError("variable index out of range")
    if f.degree == 0:
        raise ValueError("cannot differentiate a constant form")
    terms: dict[tuple[int, ...], CycNum] = {}
    for e, c in f.terms.items():
        if e[i]:
            ee = list(e)
            ee[i] -= 1
            terms[tuple(ee)] = c * e[i]
    return Form(f.nvars, f.degree - 1, f.conductor, terms)


def evaluate(f: Form, point: Sequence[CycNum]) -> CycNum:
    """Exact value of F at a point (all coordinates at the form's conductor)."""
    if len(point) != f.nvars:
        raise ValueError("point has wrong dimension")
    n = common_conductor(f.conductor, *(p.conductor for p in point))
    pt = [p.embed(n) for p in point]
    total = CycNum.zero(n)
    for e, c in f.terms.items():
        v = c.embed(n)
        for i, exp in enumerate(e):
            if exp:
                v = v * pt[i] ** exp
        total = total + v
    return total


def unhat(f: Form) -> Form:
    """Inverse of hat: drop x_m^d and the last (otherwise unused) variable."""
    m, d = f.nvars, f.degree
    top = tuple([0] * (m - 1) + [d])
    terms = {}
    for e, c in f.terms.items():
        if e == top:
            c = c - CycNum.one(f.conductor)
            if c.is_zero():
                continue
        if e[m - 1] != 0:
            raise ValueError("last variable occurs outside the hat term")
        terms[e[: m - 1]] = c
    return Form(m - 1, d, f.conductor, terms)
