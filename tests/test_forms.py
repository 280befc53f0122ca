import random

import pytest

from cubicsym import corpus
from cubicsym.cyclo import CycNum, common_conductor, zeta
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


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _apply_oracle(a, f):
    # reference: the two-branch action the prefix-tree recursion replaced.  A
    # semi-permutation matrix moves and scales each monomial; any other matrix
    # expands the product of the powers of its linear forms per monomial.
    n = common_conductor(a.conductor, f.conductor)
    a, f = a.lift(n), f.lift(n)
    m, d = f.nvars, f.degree
    zero = CycNum.zero(n)
    out = {}
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
        pows = [[unit] for _ in range(m)]
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


def _rand_num(rng, n, zero_share=0.0):
    if rng.random() < zero_share:
        return CycNum.zero(n)
    while True:
        c = CycNum.from_vector(n, [rng.choice((-2, -1, 0, 0, 0, 1, 2))
                                   for _ in range(len(zeta(n).num))])
        if not c.is_zero():
            return c


def _rand_form(rng, m, d, n):
    terms = {e: _rand_num(rng, n) for e in monomials(m, d) if rng.random() < 0.6}
    return Form(m, d, n, terms)


def test_apply_matches_the_two_branch_oracle_on_the_corpus():
    pairs = [(g, corpus.record(rid).form) for rid in corpus.all_ids()
             for g in corpus.record(rid).generators]
    assert len(pairs) == 125
    for g, f in pairs:
        assert apply(g, f) == _apply_oracle(g, f)


def test_apply_matches_the_two_branch_oracle_on_random_matrices():
    rng = random.Random(24)
    for n in (1, 12, 48):
        for d in range(5):
            for m in (1, 2, 3, 4):
                perm = list(range(m))
                rng.shuffle(perm)
                diag = [_rand_num(rng, n) for _ in range(m)]
                dense = CycMatrix([[_rand_num(rng, n, 0.3) for _ in range(m)]
                                   for _ in range(m)], n)
                for a in (dense, CycMatrix.diagonal(diag),
                          CycMatrix.permutation(perm, n) * CycMatrix.diagonal(diag)):
                    f = _rand_form(rng, m, d, n)
                    assert apply(a, f) == _apply_oracle(a, f)
                    zero = Form(m, d, n, {})
                    assert apply(a, zero) == _apply_oracle(a, zero) == zero


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
