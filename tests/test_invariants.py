import random

import pytest

from cubicsym import corpus
from cubicsym.cyclo import CycNum, common_conductor, multiplicative_order, zeta
from cubicsym.forms import (CycMatrix, Form, apply, fixes, hat, monomials,
                            semi_invariance_factor)
from cubicsym.groups import closure, projective_classes
from cubicsym.invariants import (covering_lift, f_lifting_exists,
                                 invariant_forms, is_symplectic,
                                 reynolds_average, symplectic_character,
                                 symplectic_order)
from tests.test_forms import rand_matrix


def m96_generators():
    s = [CycNum.one(32), zeta(4, 3).embed(32), zeta(8, 5).embed(32),
         zeta(16, 3).embed(32), zeta(32, 13)]
    z = CycNum.zero(32)
    rows = []
    for i in range(7):
        row = [z] * 7
        if i < 5:
            row[i] = s[i]
        rows.append(row)
    rows[5][6] = CycNum.one(32)
    rows[6][5] = CycNum.one(32)
    a2 = CycMatrix.diagonal([CycNum.one(3)] * 5 + [zeta(3), zeta(3, 2)])
    return [CycMatrix(rows, 32), a2]


def test_scalar_generator_fixes_all_cubics():
    space = invariant_forms([CycMatrix.scalar(7, zeta(3))], 3)
    assert space.dimension == 84


def test_m96_invariant_basis():
    space = invariant_forms(m96_generators(), 3)
    assert space.dimension == 6
    def mono(spec):
        e = [0] * 7
        for v, x in spec.items():
            e[v] = x
        return tuple(e)
    expected = [
        {mono({0: 3}): 1}, {mono({0: 1, 5: 1, 6: 1}): 1},
        {mono({3: 1, 4: 2}): 1}, {mono({5: 3}): 1, mono({6: 3}): 1},
        {mono({2: 1, 3: 2}): 1}, {mono({1: 1, 2: 2}): 1},
    ]
    got = [{e: c.rational_value() for e, c in f.terms.items()} for f in space.basis]
    for want in expected:
        assert want in got
    gens = m96_generators()
    for b in space.basis:
        for g in gens:
            assert fixes(g, b)


def test_c11_invariant_space_is_the_nine_monomials():
    a = CycMatrix.diagonal([zeta(11, k) for k in (9, 5, 4, 3, 1, 0, 0)])
    space = invariant_forms([a], 3)
    assert space.dimension == 9
    assert all(len(b.terms) == 1 for b in space.basis)


def test_invariant_dimension_is_conjugation_invariant():
    rng = random.Random(17)
    for _ in range(6):
        m = rng.choice((2, 3, 4, 5))
        d1 = CycMatrix.diagonal([zeta(3, rng.randrange(3)) for _ in range(m)])
        p = rand_matrix(rng, m)
        conj = p * d1 * p.inv()
        s1 = invariant_forms([d1], 3)
        s2 = invariant_forms([conj], 3)
        assert s1.dimension == s2.dimension


def test_reynolds_projection_lands_in_invariant_space():
    rec = corpus.record("X5'")
    g = closure(rec.generators)  # 48 elements
    space = invariant_forms(list(g.generators), 3)
    index = {e: i for i, e in enumerate(monomials(6, 3))}
    span_rows = []
    for b in space.basis:
        span_rows.append({index[e]: c for e, c in b.terms.items()})
    from cubicsym.linalg import rank
    base_rank = rank(span_rows)
    rng = random.Random(23)
    for _ in range(10):
        e = rng.choice(list(index))
        f = Form(6, 3, g.conductor, {e: CycNum.one(g.conductor)})
        proj = reynolds_average(g, f)
        row = {index[ee]: c for ee, c in proj.terms.items()}
        assert rank(span_rows + [row]) == base_rank  # projection is in the span
        for gen in g.generators:
            assert fixes(gen, proj) or proj.is_zero()


def test_symplectic_examples():
    a5 = CycMatrix.diagonal([zeta(16), zeta(8, 7).embed(16), zeta(4).embed(16),
                             CycNum.rational(-1, 16), CycNum.one(16), zeta(3)])
    f5p = corpus.record("X5'").form
    assert multiplicative_order(a5.det()) == 48
    assert is_symplectic(a5, f5p) is False
    assert is_symplectic(CycMatrix.identity(6), f5p) is True
    form_a7, gens_a7 = corpus.a7_fourfold()
    for g in gens_a7:
        assert g.det().is_one()
        assert is_symplectic(g, form_a7) is True
    with pytest.raises(ValueError):
        is_symplectic(CycMatrix.diagonal([CycNum.rational(2)] * 6), f5p)


def test_symplectic_is_conjugation_invariant():
    rng = random.Random(41)
    f = corpus.record("X5'").form
    a = CycMatrix.diagonal([zeta(16), zeta(8, 7).embed(16), zeta(4).embed(16),
                            CycNum.rational(-1, 16), CycNum.one(16), zeta(3)])
    for _ in range(4):
        p = rand_matrix(rng, 6)
        conj = p.inv() * a * p
        g = apply(p, f)
        from cubicsym.forms import semi_invariance_factor
        lam1 = semi_invariance_factor(a, f)
        lam2 = semi_invariance_factor(conj, g)
        assert lam1.embed(48) == lam2.embed(48)
        assert a.det().embed(48) == conj.det().embed(48)
        assert is_symplectic(conj, g) == is_symplectic(a, f)


def test_m10_determinant_checks():
    a = corpus.m10_printed_diagonal()
    assert a.det().is_one()
    assert a.order() == 8


# Reference for the symplectic test: scale A to a representative whose order
# equals the order of [A] in PGL, then test det = lambda^2 on it.

def _projective_matrix_order(a: CycMatrix, cap: int = 10_000) -> tuple[int, CycNum]:
    """(n, c): smallest n >= 1 with A^n scalar, and that scalar value c."""
    x = a
    for n in range(1, cap + 1):
        if x.is_scalar():
            return n, x.rows[0][0]
        x = x * a
    raise ValueError(f"projective order exceeds cap {cap}")


def _normalize_order(a: CycMatrix, cap: int = 10_000) -> CycMatrix:
    """Scale A by a root of unity so that ord(A) equals the order of [A] in PGL."""
    n, c = _projective_matrix_order(a, cap)
    if c.is_one():
        return a
    r = multiplicative_order(c, cap)
    big = common_conductor(a.conductor, n * r)
    ce = c.embed(big)
    s = next(s for s in range(r) if zeta(big, (big // r) * s) == ce)
    # mu = zeta_{nr}^{-s} satisfies mu^n = c^{-1}
    mu = zeta(n * r, (n * r - s) % (n * r)).embed(big)
    scaled = CycMatrix.scalar(a.dim, mu) * a.lift(big)
    assert scaled.order(cap) == n
    return scaled


def _reference_is_symplectic(a: CycMatrix, f: Form) -> bool:
    b = _normalize_order(a)
    lam = semi_invariance_factor(b, f)
    n = common_conductor(b.conductor, lam.conductor)
    return b.lift(n).det() == (lam ** 2).embed(n)


@pytest.mark.parametrize("rid", ["X3'", "X5'", "X8'", "X14'"])
def test_character_matches_order_normalized_reference_on_every_class(rid):
    rec = corpus.record(rid)
    g = closure(rec.generators)
    classes = projective_classes(g)
    symplectic = 0
    for cls in classes:
        verdict = is_symplectic(cls[0], rec.form)
        assert verdict == _reference_is_symplectic(cls[0], rec.form), rid
        symplectic += verdict
    assert symplectic == rec.symplectic_order == symplectic_order(g, rec.form)


def test_character_is_multiplicative_on_x9p():
    rec = corpus.record("X9'")
    elems = closure(rec.generators).elements
    rng = random.Random(29)
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        chi_ab = symplectic_character(a * b, rec.form)
        chi_a = symplectic_character(a, rec.form)
        chi_b = symplectic_character(b, rec.form)
        n = common_conductor(chi_ab.conductor, chi_a.conductor, chi_b.conductor)
        assert chi_ab.embed(n) == chi_a.embed(n) * chi_b.embed(n)


def test_character_ignores_scaling():
    rec = corpus.record("X5'")
    a = rec.generators[0]
    chi = symplectic_character(a, rec.form)
    # c^12 != 1 for these, so det * lambda^2 would change under the scaling
    for c in (zeta(16, 3), zeta(9, 2), zeta(5)):
        n = common_conductor(a.conductor, c.conductor)
        scaled = CycMatrix.scalar(6, c.embed(n)) * a.lift(n)
        assert symplectic_character(scaled, rec.form) == chi.embed(n)


def test_form_not_preserved_raises():
    f = corpus.record("X5'").form
    swap = CycMatrix.permutation([1, 0, 2, 3, 4, 5], conductor=f.conductor)
    assert semi_invariance_factor(swap, f) is None
    with pytest.raises(ValueError):
        is_symplectic(swap, f)
    with pytest.raises(ValueError):
        symplectic_order(closure([swap]), f)


def test_covering_lift_identity_and_x5p():
    f5p = corpus.record("X5'").form
    lift = covering_lift([CycMatrix.identity(6)], 3, form=f5p)
    g = closure(lift)
    assert g.order == 3
    f5 = hat(f5p)
    assert all(fixes(a, f5) for a in g.elements)
    rec = corpus.record("X5'")
    lifted = closure(covering_lift(list(rec.generators), 3, form=rec.form))
    base = closure(rec.generators)
    assert lifted.order == 3 * base.order == 144
    assert all(fixes(a, f5) for a in lifted.elements)


def test_covering_lift_rescales_semi_invariant_generators():
    # a generator fixing F only up to a cube root of unity is rescaled inside
    # the ninth roots of unity and then fixes hat(F) exactly
    from cubicsym.forms import semi_invariance_factor

    f = Form.from_terms(2, 3, [(1, (2, 1))], conductor=3)
    a = CycMatrix.diagonal([zeta(3), CycNum.one(3)])
    lam = semi_invariance_factor(a, f)
    assert lam == zeta(3, 2)
    lifted = covering_lift([a], 3, form=f)
    gl = closure(lifted)
    f_hat = hat(f)
    assert all(fixes(x, f_hat) for x in gl.elements)
    # a factor of order not dividing d is rejected
    b = CycMatrix.diagonal([zeta(9), CycNum.one(9)])
    with pytest.raises(ValueError):
        covering_lift([b], 3, form=f.lift(9))


def test_f_lifting_gcd_criterion():
    assert f_lifting_exists(7, 3) is True
    assert f_lifting_exists(6, 3) is False
    assert f_lifting_exists(5, 3) is True
    for bad in ((3, 3), (4, 4), (2, 3), (5, 2)):
        with pytest.raises(ValueError):
            f_lifting_exists(*bad)


def test_symplectic_order_requires_fourfold():
    rec = corpus.record("X20")
    g = closure(rec.generators)
    with pytest.raises(ValueError):
        symplectic_order(g, rec.form)
