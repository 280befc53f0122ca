"""The corpus builders: every record's form and generators constructed from
the printed data of the source paper, and the reference the tests hold the
shipped files under `cubicsym/data/examples` against.

Generators are the ones printed in the source material plus the
diagonal/permutation generators reconstructible from the stated group
structure; records whose full generator sets exist only in external ancillary
files are marked partial and carry whatever subgroup is reconstructible.
For records marked complete, the shipped generators generate a lifting of the
full projective group and fix the form exactly.

To regenerate the shipped files from the builders:

    PYTHONPATH=src python -m tests.corpus_oracle src/cubicsym/data/examples
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from cubicsym.corpus import ExampleRecord, stem
from cubicsym.cyclo import CycNum, zeta
from cubicsym.forms import CycMatrix, Form, hat
from cubicsym.groups import MatGroup

# -- scalars -----------------------------------------------------------------

W3 = zeta(3)
SQRT2 = zeta(8) + zeta(8, 7)
SQRT3 = zeta(12) + zeta(12, 11)
SQRT5 = zeta(5) * 2 + zeta(5, 4) * 2 + 1
LAMBDA_STAR = (SQRT3 - 1) * 3  # the Hesse parameter 3(sqrt(3)-1)


def _q(a, b=1) -> CycNum:
    return CycNum.rational(Fraction(a, b))


def _e(m: int, *vars_: int) -> tuple[int, ...]:
    out = [0] * m
    for v in vars_:
        out[v] += 1
    return tuple(out)


def _form(m: int, terms, conductor=None) -> Form:
    """terms: iterable of (coeff, vars tuple); vars listed with multiplicity."""
    return Form.from_terms(m, 3, [(c, _e(m, *vs)) for c, vs in terms],
                           conductor=conductor)


def _cubes(m: int, vars_) -> list:
    return [(1, (v, v, v)) for v in vars_]


def _chain(vars_) -> list:
    """x_{v1}^2 x_{v2} + x_{v2}^2 x_{v3} + ... along the list."""
    return [(1, (a, a, b)) for a, b in zip(vars_, vars_[1:])]


def _cycle(vars_) -> list:
    pairs = list(zip(vars_, vars_[1:])) + [(vars_[-1], vars_[0])]
    return [(1, (a, a, b)) for a, b in pairs]


def _hesse(a: int, b: int, c: int) -> list:
    return [(1, (a, a, a)), (1, (b, b, b)), (1, (c, c, c)), (LAMBDA_STAR, (a, b, c))]


def _diag(m: int, entries: dict[int, CycNum]) -> CycMatrix:
    return CycMatrix.diagonal([entries.get(i, CycNum.one(1)) for i in range(m)])


def _chain_diag(m: int, vars_: list[int], root: int) -> CycMatrix:
    """Diagonal symmetry of a chain: eigenvalue zeta_root^((-2)^i) on vars_[i]."""
    entries = {}
    exp = 1
    for v in vars_:
        entries[v] = zeta(root, exp % root)
        exp = (-2 * exp) % root
    return _diag(m, entries)


def _perm(m: int, images: dict[int, int]) -> CycMatrix:
    full = [images.get(i, i) for i in range(m)]
    return CycMatrix.permutation(full)


def _swap(m: int, a: int, b: int) -> CycMatrix:
    return _perm(m, {a: b, b: a})


def _hesse_trio(m: int, a: int, b: int, c: int) -> list[CycMatrix]:
    """Generators of the order-108 linear stabilizer of the special Hesse cubic
    on three of the m variables: 3-cycle, diag(1, w, w^2), DFT/sqrt3."""
    cycle = _perm(m, {a: b, b: c, c: a})
    dg = _diag(m, {b: W3, c: W3 * W3})
    s3inv = SQRT3.embed(12).inv()
    w = W3.embed(12)
    rows = []
    for i in range(m):
        row = [CycNum.zero(12)] * m
        if i == a:
            row[a] = s3inv
            row[b] = s3inv
            row[c] = s3inv
        elif i == b:
            row[a] = s3inv
            row[b] = s3inv * w
            row[c] = s3inv * w * w
        elif i == c:
            row[a] = s3inv
            row[b] = s3inv * w * w
            row[c] = s3inv * w
        else:
            row[i] = CycNum.one(12)
        rows.append(row)
    dft = CycMatrix(rows, 12)
    return [cycle, dg, dft]


def _fermat_free_diags(m: int, vars_: list[int]) -> list[CycMatrix]:
    """Scalar-free lift generators diag(w, w^2) on consecutive variable pairs."""
    out = []
    for a, b in zip(vars_, vars_[1:]):
        out.append(_diag(m, {a: W3, b: W3 * W3}))
    return out


def _sn_perms(m: int, vars_: list[int]) -> list[CycMatrix]:
    """A transposition and a full cycle on the listed variables."""
    out = [_swap(m, vars_[0], vars_[1])]
    if len(vars_) > 2:
        out.append(_perm(m, {a: b for a, b in zip(vars_, vars_[1:] + [vars_[0]])}))
    return out


def _hyperplane_fermat(m_total: int, cut: int) -> tuple[Form, list[CycMatrix]]:
    """Fermat cubic in cut+1 variables restricted to their sum being zero, in
    m_total variables total: the eliminated variable contributes -(sum)^3 and
    the symmetric group on cut+1 letters acts linearly."""
    terms = [(1, (v, v, v)) for v in range(cut)]
    sums: dict[tuple[int, ...], int] = {}
    for i in range(cut):
        for j in range(cut):
            for k in range(cut):
                e = _e(m_total, i, j, k)
                sums[e] = sums.get(e, 0) + 1
    extra = [(Fraction(-c), e) for e, c in sums.items()]
    base = [(Fraction(c), _e(m_total, *vs)) for c, vs in terms]
    form = Form.from_terms(m_total, 3, base + extra, conductor=1)
    gens = _sn_perms(m_total, list(range(cut)))
    refl_rows = []
    for i in range(m_total):
        row = [CycNum.zero(1)] * m_total
        if i == cut - 1:
            for j in range(cut):
                row[j] = CycNum.rational(-1)
        else:
            row[i] = CycNum.one(1)
        refl_rows.append(row)
    gens.append(CycMatrix(refl_rows, 1))
    return form, gens


# -- printed matrices ---------------------------------------------------------


def _x15_big_matrix() -> CycMatrix:
    i = zeta(4).embed(24)
    e8 = zeta(8).embed(24)
    e83 = zeta(8, 3).embed(24)
    r2 = SQRT2.embed(24)
    h = _q(1, 2).embed(24)
    q4 = _q(1, 4).embed(24)
    q8 = _q(1, 8).embed(24)
    inv8r2 = r2 * _q(1, 16).embed(24)  # 1/(8*sqrt2)
    z = CycNum.zero(24)
    one = CycNum.one(24)
    rows = [
        [one, z, z, z, z, z, z],
        [z, -(r2 * q4), z, (r2 - 3) * q8, (r2 - 3) * q8 * i,
         -q8 + i * q4 + (i + 3) * inv8r2, -q4 + i * q8 - (i * 3 + 1) * inv8r2],
        [z, z, r2 * q4, (r2 + 3) * q8 * i, (r2 + 3) * q8,
         q8 - i * q4 + (i + 3) * inv8r2, q4 - i * q8 - (i * 3 + 1) * inv8r2],
        [z, h, i * h, -h, -(r2 * q4 * i), -(i * q4) - e8 * q4, -(i * q4) + e83 * q4],
        [z, -(i * h), -h, r2 * q4 * i, -h, -(i * q4) + e8 * q4, -(i * q4) - e83 * q4],
        [z, h + e8 * h, -h + e8 * h, q4 + e8 * q4, q4 - e8 * q4, i * h, z],
        [z, i * h + e8 * h, -(i * h) + e8 * h, -q4 - e83 * q4, -q4 + e83 * q4, z, -(i * h)],
    ]
    return CycMatrix(rows, 24)


def _f13p_terms() -> list:
    i = zeta(4).embed(24)
    r2 = SQRT2.embed(24)
    a = (r2 * 4 - 5) * 8          # 8(-5+4sqrt2)
    b = (r2 * 6 - 11) * 2 * i     # 2 xi4 (-11+6sqrt2)
    c = (r2 * 4 - 5) * -4 * i     # -4 xi4 (-5+4sqrt2)
    d = (r2 - 3) * -8 * i         # -4 xi4 * 2(-3+sqrt2)
    f = (1 + i) * (r2 * 11 - 12)  # (1+xi4)(-12+11sqrt2)
    return [
        (_q(8).embed(24), (0, 0, 0)), (a, (0, 1, 1)),
        (b, (1, 2, 2)), (b, (1, 3, 3)),
        (c, (0, 2, 3)), (d, (0, 4, 5)),
        (f, (3, 4, 4)), (-f, (2, 5, 5)),
    ]


def _a7_terms() -> list:
    s15 = (SQRT3.embed(60)) * (SQRT5.embed(60))
    return [
        (1, (0, 0, 0)), (1, (1, 1, 1)), (1, (2, 2, 2)),
        (Fraction(12, 5), (0, 1, 2)),
        (1, (0, 3, 3)), (1, (1, 4, 4)), (1, (2, 5, 5)),
        (s15 * Fraction(4, 9), (3, 4, 5)),
    ]


def _a7_generators() -> list[CycMatrix]:
    w = W3.embed(60)
    g1 = CycMatrix.diagonal([CycNum.one(60), w, w * w, CycNum.rational(-1, 60),
                             w, -(w * w)])
    s15 = SQRT3.embed(60) * SQRT5.embed(60)
    s5 = SQRT5.embed(60)
    i = zeta(4).embed(60)
    w6 = zeta(6).embed(60)
    h = _q(1, 2).embed(60)
    a = s15 * Fraction(1, 18)
    b = s15 * Fraction(1, 10)
    mixed = -(s5 * 3 * i + s15) * Fraction(1, 36)  # -(3 sqrt5 xi4 + sqrt15)/36
    rows = [
        [h, h, h, a, a, a],
        [h, w * h, -(w6 * h), a, a * w, mixed],
        [h, -(w6 * h), w * h, a, mixed, a * w],
        [b, b, b, -h, -h, -h],
        [b, b * w, -(b * w6), -h, -(w * h), w6 * h],
        [b, -(b * w6), b * w, -h, w6 * h, -(w * h)],
    ]
    return [g1, CycMatrix(rows, 60)]


def _x17_matrices() -> list[CycMatrix]:
    w = W3.embed(24)
    w2 = (W3 * W3).embed(24)
    e8 = zeta(8).embed(24)
    e83 = zeta(8, 3).embed(24)
    z = CycNum.zero(24)
    one = CycNum.one(24)
    s = e8 + e83  # xi8 + xi8^3 = i*sqrt2
    m1 = CycMatrix([
        [one, z, z, z, z, z, z],
        [z, one, z, z, z, z, z],
        [z, z, 1 - s, _q(-2).embed(24), z, z, z],
        [z, z, -1 - s, -1 + s, z, z, z],
        [z, z, z, z, one, w2, z],
        [z, z, z, z, z, -one, z],
        [z, z, z, z, z, w2, one],
    ], 24)
    m2 = CycMatrix([
        [one, z, z, z, z, z, z],
        [z, w, z, z, z, z, z],
        [z, z, z, -w, z, z, z],
        [z, z, w, -w, z, z, z],
        [z, z, z, z, w, one, z],
        [z, z, z, z, z, -w, -w2],
        [z, z, z, z, z, one, z],
    ], 24)
    m3 = CycMatrix([
        [one, z, z, z, z, z, z],
        [z, one, z, z, z, z, z],
        [z, z, one, -s, z, z, z],
        [z, z, -s, -one, z, z, z],
        [z, z, z, z, z, -w2, -one],
        [z, z, z, z, -w, z, w],
        [z, z, z, z, z, z, -one],
    ], 24)
    return [m1, m2, m3]


def _f14p_terms() -> list:
    w6 = zeta(6).embed(24)
    e24 = zeta(24)
    e245 = zeta(24, 5)
    e247 = zeta(24, 7)
    e8 = zeta(8).embed(24)
    t23 = Fraction(2, 3)
    return [
        (1, (0, 0, 0)),
        (1, (0, 3, 3)), (-_q(2, 3).embed(24), (0, 3, 5)), (1, (0, 5, 5)),
        (-(w6 * t23), (0, 3, 4)), (-(w6 * t23), (0, 4, 5)), (w6 - 1, (0, 4, 4)),
        (1, (1, 1, 3)), (-1, (1, 2, 3)), (1, (2, 2, 3)), (1, (2, 2, 5)),
        (w6 * 3, (1, 2, 4)),
        (e24 - e8 - e245 - 1, (1, 1, 5)),
        (e8 * 2 + e245 * 2 - e24 * 2 - 1, (1, 2, 5)),
        (e24 - w6 - e247, (2, 2, 4)),
        (-e24 - w6 + e247, (1, 1, 4)),
        (1, (3, 3, 3)), (-1, (4, 4, 4)), (-1, (3, 3, 5)), (-1, (3, 5, 5)),
        (1, (5, 5, 5)),
        (-w6, (3, 3, 4)), (w6 * 2, (3, 4, 5)), (-w6, (4, 5, 5)),
        (1 - w6, (3, 4, 4)), (1 - w6, (4, 4, 5)),
    ]


def _x18_matrices() -> list[CycMatrix]:
    w = W3.embed(12)
    w2 = (W3 * W3).embed(12)
    i = zeta(4).embed(12)
    i3 = zeta(4, 3).embed(12)
    e7 = zeta(12, 7)
    e11 = zeta(12, 11)
    z = CycNum.zero(12)
    one = CycNum.one(12)
    m1 = CycMatrix([
        [one, z, z, z, z, z, z],
        [z, one, z, z, i, -one, z],
        [z, z, z, z, z, z, e7],
        [z, z, z, z, e11, z, z],
        [z, z, z, z, z, i3, z],
        [z, z, z, w, z, z, z],
        [z, z, e7, z, z, z, -w],
    ], 12)
    m2 = CycMatrix([
        [one, z, z, z, z, z, z],
        [z, -w2, e7, z, z, w2 - e11, -w],
        [z, 1 - i, -e7, -w + e7, i, z, z],
        [z, z, i, z, z, z, -one],
        [z, -w2, z, z, z, w2, z],
        [z, -w2 - e11, z, z, z, w2, -e7],
        [z, i, w + e7, -e7, -one, z, e7],
    ], 12)
    m3 = CycMatrix([
        [one, z, z, z, z, z, z],
        [z, -w2, i, -w, z, z, i],
        [z, -1 - i, -w, w + e7, one, z, z],
        [z, -w, i3, -one, z, z, i3],
        [z, z, -e11, z, z, z, w2 - e11],
        [z, one, -1 + i, -w, i, w, -one],
        [z, one, z, -w, -one, z, -w],
    ], 12)
    return [m1, m2, m3]


def _f15p_terms() -> list:
    i = zeta(4).embed(12)
    w6 = zeta(6).embed(12)
    e12 = zeta(12)
    h = Fraction(1, 2)

    def c(ci=0, cw=0, ce=0, cq=0):
        # ci*xi4 + cw*xi6 + ce*xi12 + cq
        out = CycNum.rational(Fraction(cq), 12)
        if ci:
            out = out + i * Fraction(ci)
        if cw:
            out = out + w6 * Fraction(cw)
        if ce:
            out = out + e12 * Fraction(ce)
        return out

    return [
        (1, (0, 0, 0)),
        (c(Fraction(3, 2), -1, 0, h), (0, 0, 1)),
        (c(-h, h, h, -1), (0, 1, 1)),
        (c(0, -h, -h, h), (1, 1, 1)),
        (c(1, -2, -1, 2), (0, 0, 2)),
        (c(0, 0, 2, -1), (0, 1, 2)),
        (c(h, h, -h, 0), (1, 1, 2)),
        (c(1, -2, 0, 1), (0, 2, 2)),
        (c(Fraction(-3, 2), 1, 1, -h), (1, 2, 2)),
        (c(0, -h, h, -h), (2, 2, 2)),
        (c(1, 1, 0, -1), (0, 0, 3)),
        (c(-1, -1, 1, -1), (0, 1, 3)),
        (c(-h, 0, 0, -h), (1, 1, 3)),
        (c(0, 0, 2, 0), (0, 2, 3)),
        (c(0, 1, -1, -1), (1, 2, 3)),
        (c(Fraction(-3, 2), h, Fraction(3, 2), -1), (2, 2, 3)),
        (c(0, -1, -1, 0), (0, 3, 3)),
        (c(-h, h, h, 0), (1, 3, 3)),
        (c(h, 1, -1, -h), (2, 3, 3)),
        (c(0, -h, h, h), (3, 3, 3)),
        (c(0, 0, 1, -2), (0, 0, 4)),
        (c(-1, 2, 0, -1), (0, 1, 4)),
        (c(0, -h, -h, h), (1, 1, 4)),
        (c(-2, 2, 2, -2), (0, 2, 4)),
        (c(0, h, -h, h), (2, 2, 4)),
        (c(-2, 0, 0, 0), (0, 3, 4)),
        (c(0, 1, -1, 0), (1, 3, 4)),
        (c(1, -1, -1, 0), (2, 3, 4)),
        (c(-h, 1, 1, -h), (3, 3, 4)),
        (c(0, 1, -1, 1), (0, 4, 4)),
        (c(1, Fraction(-3, 2), -h, h), (1, 4, 4)),
        (c(0, h, -h, h), (2, 4, 4)),
        (c(Fraction(3, 2), -h, Fraction(-3, 2), 1), (3, 4, 4)),
        (c(0, -h, h, -h), (4, 4, 4)),
        (c(h, Fraction(-3, 2), h, 0), (0, 0, 5)),
        (c(-2, 1, 1, -1), (0, 1, 5)),
        (c(h, -2, -1, Fraction(5, 2)), (1, 1, 5)),
        (c(0, 1, 1, -2), (0, 2, 5)),
        (c(0, 1, -1, -1), (1, 2, 5)),
        (c(-h, h, h, 0), (2, 2, 5)),
        (c(-2, 0, 2, 0), (0, 3, 5)),
        (c(-1, 1, -1, 0), (1, 3, 5)),
        (c(-1, 0, 0, -1), (2, 3, 5)),
        (c(0, Fraction(3, 2), -h, -h), (3, 3, 5)),
        (c(0, 2, -1, 0), (0, 4, 5)),
        (c(1, -2, 0, 1), (1, 4, 5)),
        (c(0, 0, -1, 1), (2, 4, 5)),
        (c(2, -1, -2, 1), (3, 4, 5)),
        (c(-h, -1, 1, -h), (4, 4, 5)),
        (c(-h, 1, 0, -h), (0, 5, 5)),
        (c(h, Fraction(-5, 2), h, 2), (1, 5, 5)),
        (c(h, 0, -1, h), (2, 5, 5)),
        (c(0, -h, -h, h), (3, 5, 5)),
        (c(-h, -h, h, 0), (4, 5, 5)),
        (c(0, -h, h, h), (5, 5, 5)),
    ]


def _shift_terms(terms, by: int) -> list:
    return [(c, tuple(v + by for v in vs)) for c, vs in terms]


def _m10_printed_diagonal() -> CycMatrix:
    i = zeta(4).embed(8)
    return CycMatrix.diagonal([
        CycNum.one(8), CycNum.rational(-1, 8), i, -i, zeta(8, 7), -zeta(8)])


def _fivefold_builders():
    def x1():
        form = _form(7, _cubes(7, range(7)))
        gens = [_diag(7, {0: W3, 1: W3 * W3})] + _sn_perms(7, list(range(7)))
        return ExampleRecord("X1", form, tuple(gens), 3674160, 3674160, None,
                             False, "Fermat")

    def x2():
        form = _form(7, _hesse(0, 1, 2) + _cubes(7, (3, 4, 5, 6)))
        gens = _hesse_trio(7, 0, 1, 2) + _fermat_free_diags(7, [3, 4, 5, 6]) \
            + _sn_perms(7, [3, 4, 5, 6])
        return ExampleRecord("X2", form, tuple(gens), 69984, 69984, None,
                             False)

    def x3():
        form = _form(7, _chain([0, 1, 2, 3]) + _cubes(7, (3, 4, 5, 6)))
        gens = [_chain_diag(7, [0, 1, 2, 3], 8),
                _diag(7, {4: W3}), _diag(7, {5: W3}), _diag(7, {6: W3})] \
            + _sn_perms(7, [4, 5, 6])
        return ExampleRecord("X3", form, tuple(gens), 1296, 1296, None,
                             False)

    def x4():
        form, sgens = _hyperplane_fermat(7, 4)
        cubes = _form(7, _cubes(7, (4, 5, 6)))
        form = form + cubes
        gens = sgens + [_diag(7, {4: W3}), _diag(7, {5: W3}), _diag(7, {6: W3})] \
            + _sn_perms(7, [4, 5, 6])
        return ExampleRecord("X4", form, tuple(gens), 19440, 19440, None,
                             False, "hyperplane section of Fermat in 8 variables")

    def x5():
        form = _form(7, _chain([0, 1, 2, 3, 4]) + _cubes(7, (4, 5, 6)))
        gens = [_chain_diag(7, [0, 1, 2, 3, 4], 48),
                _diag(7, {5: W3, 6: W3 * W3}), _swap(7, 5, 6)]
        return ExampleRecord("X5", form, tuple(gens), 288, 288, None,
                             False)

    def x6():
        form = _form(7, _cycle([0, 1, 2, 3, 4]) + _cubes(7, (5, 6)))
        gens = [_chain_diag(7, [0, 1, 2, 3, 4], 11),
                _perm(7, {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}),
                _diag(7, {5: W3}), _diag(7, {6: W3}), _swap(7, 5, 6)]
        return ExampleRecord("X6", form, tuple(gens), 11880, 990, None,
                             True,
                             "PSL(2,11) part available only in ancillary files")

    def x7():
        form = _form(7, _hesse(0, 1, 2) + _hesse(3, 4, 5) + _cubes(7, (6,)))
        gens = _hesse_trio(7, 0, 1, 2) + _hesse_trio(7, 3, 4, 5) \
            + [_perm(7, {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2})]
        return ExampleRecord("X7", form, tuple(gens), 23328, 23328, None,
                             False)

    def x8():
        form = _form(7, _chain([0, 1, 2, 3]) + [(1, (3, 3, 3))] + _hesse(4, 5, 6))
        gens = [_chain_diag(7, [0, 1, 2, 3], 8)] + _hesse_trio(7, 4, 5, 6)
        return ExampleRecord("X8", form, tuple(gens), 864, 864, None,
                             False)

    def x9():
        form, sgens = _hyperplane_fermat(7, 4)
        form = form + _form(7, _hesse(4, 5, 6))
        gens = sgens + _hesse_trio(7, 4, 5, 6)
        return ExampleRecord("X9", form, tuple(gens), 12960, 12960, None,
                             False, "hyperplane section plus Hesse block")

    def x10():
        form = _form(7, _chain([0, 1, 2, 3, 4, 5]) + _cubes(7, (5, 6)))
        gens = [_chain_diag(7, [0, 1, 2, 3, 4, 5], 96)]
        return ExampleRecord("X10", form, tuple(gens), 96, 96, None,
                             False)

    def x11():
        form = _form(7, _cycle([0, 1, 2, 3, 4, 5]) + _cubes(7, (6,)))
        gens = [_chain_diag(7, [0, 1, 2, 3, 4, 5], 63),
                _perm(7, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 0})]
        return ExampleRecord("X11", form, tuple(gens), 378, 378, None,
                             False)

    def x12():
        form = hat(_fourfold_builders()["X10'"]().form)
        return ExampleRecord("X12", form, (), 2160, None, None, True,
                             "C3.M10 generators live in ancillary files")

    def x13():
        form, sgens = _hyperplane_fermat(7, 6)
        form = form + _form(7, _cubes(7, (6,)))
        gens = sgens + [_diag(7, {6: W3})]
        return ExampleRecord("X13", form, tuple(gens), 15120, 15120, None,
                             False, "hyperplane section of Fermat in 8 variables")

    def x14():
        form = _form(7, [(1, (0, 0, 1)), (1, (1, 1, 4)), (1, (2, 2, 3)),
                         (1, (3, 3, 4)), (1, (4, 4, 5)), (1, (1, 3, 5)),
                         (1, (5, 5, 5)), (1, (6, 6, 6))])
        d = _diag(7, {0: zeta(12), 1: zeta(12, 10), 2: zeta(12), 3: zeta(12, 10),
                      4: zeta(12, 4), 5: zeta(12, 4)})
        gens = [d, _perm(7, {0: 2, 2: 0, 1: 3, 3: 1})]
        return ExampleRecord("X14", form, tuple(gens), 96, 24, None,
                             True,
                             "non-semi-permutation part available only in ancillary files")

    def x15():
        form = _form(7, [(1, (0, 0, 0))] + _shift_terms(_f13p_terms(), 1))
        gens = [_diag(7, {0: W3, 2: CycNum.rational(-1), 3: zeta(4, 3),
                          4: zeta(4), 5: zeta(8, 7), 6: zeta(8)}),
                _x15_big_matrix()]
        return ExampleRecord("X15", form, tuple(gens), 1008, 1008, None,
                             False)

    def x16():
        form = _form(7, _shift_terms(_a7_terms(), 0) + [(1, (6, 6, 6))])
        a1, a2 = _a7_generators()
        g1 = _embed_block(a1, 7)
        g2 = _embed_block(a2, 7)
        return ExampleRecord("X16", form, (g1, g2), 7560, None, None,
                             False)

    def x17():
        form = _form(7, [(1, (0, 0, 0))] + _shift_terms(_f14p_terms(), 1))
        return ExampleRecord("X17", form, tuple(_x17_matrices()), 144, 144, None,
                             False)

    def x18():
        form = _form(7, [(1, (0, 0, 0))] + _shift_terms(_f15p_terms(), 1))
        return ExampleRecord("X18", form, tuple(_x18_matrices()), 648, 648, None,
                             False)

    def x19():
        form = _form(7, _chain([0, 1, 2, 3, 4, 5, 6]) + _cubes(7, (6,)))
        gens = [_chain_diag(7, [0, 1, 2, 3, 4, 5, 6], 64)]
        return ExampleRecord("X19", form, tuple(gens), 64, 64, None,
                             False)

    def x20():
        form = _form(7, _cycle([0, 1, 2, 3, 4, 5, 6]))
        gens = [_chain_diag(7, [0, 1, 2, 3, 4, 5, 6], 43),
                _perm(7, {i: (i + 1) % 7 for i in range(7)})]
        return ExampleRecord("X20", form, tuple(gens), 301, 301, None,
                             False, "Klein")

    return {f"X{i}": fn for i, fn in enumerate(
        [x1, x2, x3, x4, x5, x6, x7, x8, x9, x10,
         x11, x12, x13, x14, x15, x16, x17, x18, x19, x20], start=1)}


def _embed_block(a: CycMatrix, m: int) -> CycMatrix:
    """diag(A, I) in dimension m."""
    n = a.conductor
    z = CycNum.zero(n)
    one = CycNum.one(n)
    rows = []
    for i in range(m):
        row = [z] * m
        if i < a.dim:
            for j in range(a.dim):
                row[j] = a.rows[i][j]
        else:
            row[i] = one
        rows.append(row)
    return CycMatrix(rows, n)


def _restrict_block(a: CycMatrix, drop_first: bool) -> CycMatrix:
    """Lower-right (or upper-left) block of a block-diagonal matrix."""
    m = a.dim
    if drop_first:
        rows = [[a.rows[i][j] for j in range(1, m)] for i in range(1, m)]
    else:
        rows = [[a.rows[i][j] for j in range(m - 1)] for i in range(m - 1)]
    return CycMatrix(rows, a.conductor)


def _fourfold_builders():
    def x1p():
        form = _form(6, _cubes(6, range(6)))
        gens = [_diag(6, {i: W3}) for i in range(6)] + _sn_perms(6, list(range(6)))
        return ExampleRecord("X1'", form, tuple(gens), 174960, 524880, 29160,
                             False, "Fermat fourfold")

    def x2p():
        form = _form(6, _hesse(0, 1, 2) + _cubes(6, (3, 4, 5)))
        gens = _hesse_trio(6, 0, 1, 2) + [_diag(6, {i: W3}) for i in (3, 4, 5)] \
            + _sn_perms(6, [3, 4, 5])
        return ExampleRecord("X2'", form, tuple(gens), 5832, 17496, 486,
                             False)

    def x3p():
        form = _form(6, _chain([0, 1, 2, 3]) + _cubes(6, (3, 4, 5)))
        gens = [_chain_diag(6, [0, 1, 2, 3], 8),
                _diag(6, {4: W3}), _diag(6, {5: W3}), _swap(6, 4, 5)]
        return ExampleRecord("X3'", form, tuple(gens), 144, 144, 6,
                             False)

    def x4p():
        form, sgens = _hyperplane_fermat(6, 4)
        form = form + _form(6, _cubes(6, (4, 5)))
        gens = sgens + [_diag(6, {4: W3}), _diag(6, {5: W3}), _swap(6, 4, 5)]
        return ExampleRecord("X4'", form, tuple(gens), 2160, 2160, 360,
                             False)

    def x5p():
        form = _form(6, _chain([0, 1, 2, 3, 4]) + _cubes(6, (4, 5)))
        gens = [CycMatrix.diagonal([zeta(16), zeta(8, 7).embed(16),
                                    zeta(4).embed(16), CycNum.rational(-1, 16),
                                    CycNum.one(16), W3])]
        return ExampleRecord("X5'", form, tuple(gens), 48, 48, 1,
                             False)

    def x6p():
        form = _form(6, _cycle([0, 1, 2, 3, 4]) + _cubes(6, (5,)))
        gens = [_chain_diag(6, [0, 1, 2, 3, 4], 11),
                _perm(6, {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}),
                _diag(6, {5: W3})]
        return ExampleRecord("X6'", form, tuple(gens), 1980, 165, None,
                             True,
                             "PSL(2,11) part available only in ancillary files")

    def x7p():
        form = _form(6, _hesse(0, 1, 2) + _hesse(3, 4, 5))
        gens = _hesse_trio(6, 0, 1, 2) + _hesse_trio(6, 3, 4, 5) \
            + [_perm(6, {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2})]
        return ExampleRecord("X7'", form, tuple(gens), 7776, 23328, 1944,
                             False)

    def x8p():
        form = _form(6, _chain([0, 1, 2, 3, 4, 5]) + _cubes(6, (5,)))
        gens = [_chain_diag(6, [0, 1, 2, 3, 4, 5], 32)]
        return ExampleRecord("X8'", form, tuple(gens), 32, 32, 1,
                             False)

    def x9p():
        form = _form(6, _cycle([0, 1, 2, 3, 4, 5]))
        gens = [_chain_diag(6, [0, 1, 2, 3, 4, 5], 63),
                _perm(6, {i: (i + 1) % 6 for i in range(6)})]
        return ExampleRecord("X9'", form, tuple(gens), 126, 378, 21,
                             False)

    def x10p():
        w6 = zeta(6).embed(24)
        c = (zeta(24, 7) * -3 - zeta(24, 5) * 3 + w6 * 3 - zeta(8).embed(24) * 3
             + zeta(24) * 6 - 3) * Fraction(1, 5)
        trip = {
            (0, 1, 2): 1, (0, 1, 3): 1, (0, 1, 4): "w-1", (0, 1, 5): 1,
            (0, 2, 3): "w-1", (0, 2, 4): 1, (0, 2, 5): 1, (0, 3, 4): "w-1",
            (0, 3, 5): "-w", (0, 4, 5): "-w", (1, 2, 3): "w-1", (1, 2, 4): "w-1",
            (1, 2, 5): "-w", (1, 3, 4): 1, (1, 3, 5): 1, (1, 4, 5): "-w",
            (2, 3, 4): 1, (2, 3, 5): "-w", (2, 4, 5): 1, (3, 4, 5): 1,
        }
        terms = _cubes(6, range(6))
        for vs, tag in trip.items():
            if tag == 1:
                coeff = c
            elif tag == "w-1":
                coeff = c * (w6 - 1)
            else:
                coeff = c * (-w6)
            terms.append((coeff, vs))
        form = _form(6, terms, conductor=24)
        return ExampleRecord("X10'", form, (), 720, None, 720, True,
                             "M10 generators live in ancillary files")

    def x11p():
        form, sgens = _hyperplane_fermat(6, 6)
        return ExampleRecord("X11'", form, tuple(sgens), 5040, 5040, 2520,
                             False, "hyperplane section of Fermat in 7 variables")

    def x12p():
        form = _form(6, [(1, (0, 0, 1)), (1, (1, 1, 4)), (1, (2, 2, 3)),
                         (1, (3, 3, 4)), (1, (4, 4, 5)), (1, (1, 3, 5)),
                         (1, (5, 5, 5))])
        d = _diag(6, {0: zeta(12), 1: zeta(12, 10), 2: zeta(12), 3: zeta(12, 10),
                      4: zeta(12, 4), 5: zeta(12, 4)})
        gens = [d, _perm(6, {0: 2, 2: 0, 1: 3, 3: 1})]
        return ExampleRecord("X12'", form, tuple(gens), 32, 24, None,
                             True,
                             "non-semi-permutation part available only in ancillary files")

    def x13p():
        form = _form(6, _f13p_terms())
        gens = [CycMatrix.diagonal([CycNum.one(24), CycNum.rational(-1, 24),
                                    zeta(4, 3).embed(24), zeta(4).embed(24),
                                    zeta(8, 7).embed(24), zeta(8).embed(24)]),
                _restrict_block(_x15_big_matrix(), drop_first=True)]
        return ExampleRecord("X13'", form, tuple(gens), 336, 336, 168,
                             False)

    def x14p():
        form = _form(6, _f14p_terms())
        gens = [_restrict_block(m, drop_first=True) for m in _x17_matrices()]
        # the restricted blocks generate the scalar extension C3 x GL(2,3)
        return ExampleRecord("X14'", form, tuple(gens), 48, 144, 48,
                             False)

    def x15p():
        form = _form(6, _f15p_terms())
        gens = [_restrict_block(m, drop_first=True) for m in _x18_matrices()]
        # the restricted blocks generate the scalar extension of the projective group
        return ExampleRecord("X15'", form, tuple(gens), 216, 648, 72,
                             False)

    return {rid: fn for rid, fn in [
        ("X1'", x1p), ("X2'", x2p), ("X3'", x3p), ("X4'", x4p), ("X5'", x5p),
        ("X6'", x6p), ("X7'", x7p), ("X8'", x8p), ("X9'", x9p), ("X10'", x10p),
        ("X11'", x11p), ("X12'", x12p), ("X13'", x13p), ("X14'", x14p),
        ("X15'", x15p)]}


def a7_fourfold() -> tuple[Form, list[CycMatrix]]:
    """The A7-symmetric cubic fourfold and its two printed generators."""
    return _form(6, _a7_terms(), conductor=60), _a7_generators()


def m10_printed_diagonal() -> CycMatrix:
    """The printed diagonal generator of the second M10 fourfold (determinant 1,
    order 8); its partner matrix exists only in ancillary files."""
    return _m10_printed_diagonal()


def records() -> dict[str, ExampleRecord]:
    """Every record, built, in the corpus order."""
    builders = {**_fivefold_builders(), **_fourfold_builders()}
    return {rid: build() for rid, build in builders.items()}


def shipped_files() -> dict[str, str]:
    """File name -> text of every file under data/examples, from the builders."""
    out = {}
    for rid, rec in records().items():
        out[f"{stem(rid)}.form"] = rec.form.encode()
        if rec.generators:
            out[f"{stem(rid)}.group"] = MatGroup(rec.generators).encode()
    form, gens = a7_fourfold()
    out["a7.form"] = form.encode()
    out["a7.group"] = MatGroup(gens).encode()
    out["m10_diag.matrix"] = m10_printed_diagonal().encode()
    return out


if __name__ == "__main__":
    for name, text in shipped_files().items():
        (Path(sys.argv[1]) / name).write_text(text)
