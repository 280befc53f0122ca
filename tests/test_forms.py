import random

import pytest

from cubicsym.cyclo import CycNum, zeta
from cubicsym.forms import (CycMatrix, Form, apply, evaluate, hat,
                            monomials, partial, semi_invariance_factor, unhat)


def cube(m, i):
    return tuple(3 if j == i else 0 for j in range(m))


def fermat(m, conductor=1):
    return Form.from_terms(m, 3, [(1, cube(m, i)) for i in range(m)],
                           conductor=conductor)


def rand_matrix(rng, m, n=3):
    while True:
        rows = [[CycNum.from_vector(n, [rng.randint(-2, 2)
                                        for _ in range(len(zeta(n).num))])
                 for _ in range(m)] for _ in range(m)]
        a = CycMatrix(rows, n)
        if not a.det().is_zero():
            return a


def rand_cubic(rng, m, n=3):
    terms = {}
    for e in monomials(m, 3):
        if rng.random() < 0.5:
            c = CycNum.from_vector(n, [rng.randint(-3, 3)
                                       for _ in range(len(zeta(n).num))])
            if not c.is_zero():
                terms[e] = c
    if not terms:
        terms[cube(m, 0)] = CycNum.one(n)
    return Form(m, 3, n, terms)


def test_monomials_counts_and_order():
    assert len(monomials(7, 3)) == 84
    assert monomials(1, 5) == ((5,),)
    assert len(monomials(3, 2)) == 6
    ms = monomials(3, 3)
    assert ms[0] == (3, 0, 0) and ms[-1] == (0, 0, 3)
    assert len(set(ms)) == len(ms)


def test_apply_swap():
    sw = CycMatrix.permutation([1, 0])
    f = Form.from_terms(2, 3, [(1, (2, 1))])
    assert apply(sw, f).terms == {(1, 2): CycNum.one(1)}


def test_apply_hesse_binary_example():
    # the (1,1)-partition of x^2 y + y^2 x through an explicit matrix
    i = zeta(12, 3)
    s3 = zeta(12) + zeta(12, 11)
    half = CycNum.rational("1/2", 12)
    a = CycMatrix([[CycNum.rational(-1, 12), CycNum.rational(-1, 12)],
                   [(1 - s3 * i) * half, (1 + s3 * i) * half]])
    h2 = Form.from_terms(2, 3, [(1, (2, 1)), (1, (1, 2))])
    assert apply(a, h2) == Form.from_terms(2, 3, [(1, (3, 0)), (1, (0, 3))],
                                           conductor=12)


def test_apply_identity_and_dimension_mismatch():
    f = fermat(7)
    assert apply(CycMatrix.identity(7), f) == f
    with pytest.raises(ValueError):
        apply(CycMatrix.identity(6), f)


def test_contravariance_500_random_triples():
    rng = random.Random(99)
    for trial in range(500):
        m = rng.choice((2, 2, 3, 3, 4, 5))
        a, b = rand_matrix(rng, m), rand_matrix(rng, m)
        f = rand_cubic(rng, m)
        assert apply(a * b, f) == apply(b, apply(a, f))


def test_apply_is_linear_in_f():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.choice((2, 3, 4))
        a = rand_matrix(rng, m)
        f, g = rand_cubic(rng, m), rand_cubic(rng, m)
        assert apply(a, f + g) == apply(a, f) + apply(a, g)


def test_semi_invariance_examples_and_product_rule():
    f = fermat(7, conductor=3)
    lam = semi_invariance_factor(CycMatrix.scalar(7, zeta(3)), f)
    assert lam is not None and lam.is_one()
    bad = CycMatrix.diagonal([CycNum.rational(2)] + [CycNum.one(1)] * 6)
    assert semi_invariance_factor(bad, fermat(7)) is None
    with pytest.raises(ValueError):
        semi_invariance_factor(CycMatrix.identity(2), Form(2, 3, 1, {}))
    rng = random.Random(31)
    a = CycMatrix.diagonal([zeta(9), zeta(9, 4), zeta(9, 4)])
    b = CycMatrix.diagonal([zeta(9, 2), zeta(9, 8), zeta(9, 8)])
    g = Form.from_terms(3, 3, [(1, (1, 1, 1))], conductor=9)
    la, lb = semi_invariance_factor(a, g), semi_invariance_factor(b, g)
    lab = semi_invariance_factor(a * b, g)
    assert lab == la * lb


def test_hat_and_unhat():
    f6 = fermat(6)
    f7 = hat(f6)
    assert f7 == fermat(7)
    assert unhat(f7) == f6
    assert f7.degree == 3 and f7.nvars == 7
    chain = Form.from_terms(2, 3, [(1, (2, 1))])
    assert len(hat(chain).terms) == len(chain.terms) + 1


def test_partial_and_evaluate():
    f = Form.from_terms(3, 3, [(2, (2, 1, 0)), (1, (0, 0, 3))])
    fx = partial(f, 0)
    assert fx.terms == {(1, 1, 0): CycNum.rational(4)}
    val = evaluate(f, [CycNum.rational(1), CycNum.rational(2), CycNum.rational(-1)])
    assert val.rational_value() == 4 - 1


def test_form_and_matrix_round_trip():
    f = fermat(7, conductor=12) + Form.from_terms(
        7, 3, [(zeta(12, 5), (1, 1, 1, 0, 0, 0, 0))], conductor=12)
    assert Form.parse(f.encode()) == f
    rng = random.Random(2)
    a = rand_matrix(rng, 3, n=8)
    assert CycMatrix.parse(a.encode()) == a


def test_matrix_operations():
    rng = random.Random(12)
    a = rand_matrix(rng, 4)
    assert (a * a.inv()).is_identity()
    p = CycMatrix.permutation([2, 0, 1, 3])
    assert p.is_semi_permutation()
    assert p.inv() == p * p
    assert not CycMatrix.from_rows([[1, 1], [0, 1]]).is_semi_permutation()
    monomial = CycMatrix.permutation([1, 2, 0]) * CycMatrix.diagonal(
        [zeta(3), CycNum.rational(-2, 3), zeta(3, 2)])
    assert monomial.is_semi_permutation()
    d = CycMatrix.diagonal([zeta(4), zeta(4, 3)])
    assert d.order() == 4
    assert CycMatrix.scalar(3, zeta(3)).is_scalar()


def test_singular_matrix_has_no_inverse():
    w = zeta(3)
    # the third row is w times the first plus the second
    rows = [[1, w, 0], [0, 1, w * w], [w, w * w + 1, w * w]]
    with pytest.raises(ZeroDivisionError, match="singular"):
        CycMatrix.from_rows(rows).inv()
    with pytest.raises(ZeroDivisionError, match="singular"):
        CycMatrix.from_rows([[0, 1], [0, w]]).inv()
