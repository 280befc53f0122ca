import random

import pytest

from cubicsym.cyclo import CycNum, zeta
from cubicsym.diffrank import (S1Result, char_set_member, eigen_partition_witness,
                               eigenvalue_multiset, rank_d, s1_non_empty,
                               support_partition, transport_map)
from cubicsym.forms import CycMatrix, Form, apply, monomials
from cubicsym.linalg import rank as sparse_rank
from cubicsym.smooth import is_smooth
from tests.test_forms import fermat, rand_cubic, rand_matrix
from tests.test_smooth import form7


# checks that no job calls, kept here as the tests' own helpers

def span_of_samples(vectors: list) -> int:
    """Dimension of the span of finitely many sampled characteristic-set
    witnesses (the infinite span itself has no algorithm; callers sample)."""
    rows = []
    for v in vectors:
        row = {}
        for i, c in enumerate(v):
            if not isinstance(c, CycNum):
                c = CycNum.rational(c)
            if not c.is_zero():
                row[i] = c
        rows.append(row)
    return sparse_rank(rows)


def verify_block_shape(matrices, block_sizes, allow_swap: bool | None = None) -> bool:
    """Every matrix is block-diagonal of the given consecutive shape; for the
    (1,3,3) shape the two equal blocks may also be swapped."""
    mats = list(matrices)
    if not mats:
        return True
    m = mats[0].dim
    if sum(block_sizes) > m:
        raise ValueError("block sizes exceed the dimension")
    sizes = list(block_sizes)
    if sum(sizes) < m:
        sizes.append(m - sum(sizes))
    if allow_swap is None:
        allow_swap = tuple(sizes) == (1, 3, 3)
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s

    def block_of(i):
        for b, (lo, hi) in enumerate(bounds):
            if lo <= i < hi:
                return b
        raise AssertionError

    def fits(mat, pairing):
        # pairing maps row-block -> allowed column-block
        for i in range(m):
            bi = pairing[block_of(i)]
            lo, hi = bounds[bi]
            for j in range(m):
                if not lo <= j < hi and not mat.rows[i][j].is_zero():
                    return False
        return True

    ident = list(range(len(sizes)))
    swapped = None
    if allow_swap and len(sizes) == 3 and sizes[1] == sizes[2]:
        swapped = [0, 2, 1]
    for mat in mats:
        if mat.dim != m:
            raise ValueError("mixed dimensions")
        if fits(mat, ident):
            continue
        if swapped is not None and fits(mat, swapped):
            continue
        return False
    return True


def form(m, d, *terms, N=1):
    return Form.from_terms(m, d, terms, conductor=N)


def test_rank_d_examples():
    assert rank_d(fermat(7), 1) == 7
    assert rank_d(form(1, 3, (1, (3,))), 1) == 1
    assert rank_d(form(2, 3, (1, (2, 1))), 2) == 2
    with pytest.raises(ValueError):
        rank_d(fermat(3), 4)


def test_rank_d_invariance_100_random_changes():
    rng = random.Random(1001)
    for _ in range(100):
        m = rng.choice((2, 3, 4, 5))
        f = rand_cubic(rng, m)
        a = rand_matrix(rng, m)
        g = apply(a, f)
        for i in (1, 2, 3):
            assert rank_d(f, i) == rank_d(g, i)


def test_char_set_member_examples():
    e1 = [1] + [0] * 6
    assert char_set_member(fermat(7), e1, 1) is True
    hesse1 = form(3, 3, (1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3)),
                  (1, (1, 1, 1)))
    assert char_set_member(hesse1, [1, 0, 0], 1) is False
    assert char_set_member(hesse1, [1, 0, 0], 3) is True
    with pytest.raises(ValueError):
        char_set_member(fermat(3), [0, 0, 0], 1)


def test_char_set_transport_100_samples():
    rng = random.Random(55)
    done = 0
    while done < 100:
        m = rng.choice((2, 3, 4))
        g = rand_cubic(rng, m)
        a = rand_matrix(rng, m)
        f = apply(a, g)
        l = [CycNum.rational(rng.randint(-3, 3)) for _ in range(m)]
        if all(c.is_zero() for c in l):
            continue
        pl = transport_map(a, l)
        if all(c.is_zero() for c in pl):
            continue
        for r in range(m + 1):
            assert char_set_member(f, l, r) == char_set_member(g, list(pl), r)
        done += 1


S3 = zeta(12) + zeta(12, 11)
LAM = (S3 - 1) * 3


def test_s1_non_empty_named_forms():
    r = s1_non_empty(fermat(3))
    assert r.status == "yes"
    # a rank-1 witness really has first-order rank 1
    assert char_set_member(fermat(3), list(r.witness), 1)
    hstar = form(3, 3, (1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3)),
                 (LAM, (1, 1, 1)), N=12)
    assert s1_non_empty(hstar).status == "no"
    h2 = form(2, 3, (1, (2, 1)), (1, (1, 2)))
    r = s1_non_empty(h2)
    assert r.status == "yes"
    with pytest.raises(ValueError):
        s1_non_empty(form(2, 2, (1, (2, 0))))


def test_s1_without_a_witness_is_decided_by_the_minor_ideal():
    # Fermat in dense coordinates: the witness search tries small supports
    # only and finds no l, and the complete basis of the 2x2-minor ideal has
    # no pure-power cover, so some l over Q-bar has rank <= 1, which F smooth
    # makes rank 1
    f = apply(CycMatrix.from_rows([[1, 2, 0], [0, 1, 3], [5, 0, 1]]), fermat(3, conductor=3))
    assert is_smooth(f).status == "smooth"
    assert s1_non_empty(f) == S1Result("yes", None)


def test_s1_refuses_singular_forms_and_reports_a_spent_budget():
    # the cone over hstar: its only points of rank <= 1 have rank 0, so
    # without the smoothness check the minor ideal would give a wrong yes
    cone = form(4, 3, (1, (3, 0, 0, 0)), (1, (0, 3, 0, 0)), (1, (0, 0, 3, 0)),
                (LAM, (1, 1, 1, 0)), N=12)
    with pytest.raises(ValueError):
        s1_non_empty(cone)
    klein = form7(*[(1, {i: 2, (i + 1) % 7: 1}) for i in range(7)])
    assert is_smooth(klein, budget=1).status == "exhausted"
    assert s1_non_empty(klein, budget=1) == S1Result("exhausted")


def test_s1_matches_unpartitionability_at_small_m():
    # smooth cubics with m in {3,4,5}: unpartitionable iff S_1 empty;
    # Fermat is partitionable, the special Hesse member is not
    assert s1_non_empty(fermat(3, conductor=3)).status == "yes"
    assert s1_non_empty(fermat(4, conductor=3)).status == "yes"
    assert s1_non_empty(fermat(5, conductor=3)).status == "yes"
    hstar = form(3, 3, (1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3)),
                 (LAM, (1, 1, 1)), N=12)
    assert s1_non_empty(hstar).status == "no"


def test_eigen_partition_witness_shapes():
    one = CycNum.one(3)
    w = zeta(3)
    assert eigen_partition_witness(CycMatrix.diagonal([w, w] + [one] * 5)) == (2, 5)
    assert eigen_partition_witness(CycMatrix.diagonal([w] * 3 + [one] * 4)) == (3, 4)
    assert eigen_partition_witness(CycMatrix.diagonal([w] + [one] * 6)) is None
    assert eigen_partition_witness(
        CycMatrix.diagonal([w * w] * 2 + [w] * 5)) == (2, 5)
    with pytest.raises(ValueError):
        eigen_partition_witness(CycMatrix.identity(6))


def test_span_of_samples():
    r = s1_non_empty(Form.from_terms(3, 3, [(1, (3, 0, 0)), (1, (0, 3, 0)),
                                            (1, (0, 0, 3))], conductor=3))
    assert r.status == "yes"
    assert span_of_samples([list(r.witness)]) == 1
    assert span_of_samples([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2


def test_infinite_order_matrix_rejected():
    shear = CycMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        eigenvalue_multiset(shear, cap=50)


def test_eigenvalue_multiset_nondiagonal():
    p = CycMatrix.permutation([1, 2, 0])
    ev = eigenvalue_multiset(p)
    assert sum(ev.values()) == 3
    w = zeta(3)
    keys = set(ev)
    assert CycNum.one(w.conductor) in keys or CycNum.one(3) in keys


def test_support_partition_paper_cases():
    c11 = [(0, 0, 0, 0, 0, 0, 3), (0, 0, 0, 0, 0, 1, 2), (0, 0, 0, 0, 0, 2, 1),
           (0, 0, 0, 0, 0, 3, 0), (0, 0, 2, 1, 0, 0, 0), (0, 1, 0, 2, 0, 0, 0),
           (0, 2, 0, 0, 1, 0, 0), (1, 0, 0, 0, 2, 0, 0), (2, 0, 1, 0, 0, 0, 0)]
    rep = support_partition(c11, 7)
    assert rep.blocks == ((0, 1, 2, 3, 4), (5, 6))
    assert rep.certified_by == "MonomialSupport"
    c95 = [(2, 1, 0, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0, 0), (1, 0, 2, 0, 0, 0, 0),
           (0, 0, 0, 2, 1, 0, 0), (0, 0, 0, 0, 2, 1, 0), (0, 0, 0, 0, 0, 2, 1),
           (0, 0, 0, 1, 0, 0, 2)]
    assert support_partition(c95, 7).blocks == ((0, 1, 2), (3, 4, 5, 6))
    assert support_partition(monomials(7, 3), 7).blocks == (tuple(range(7)),)
    with pytest.raises(ValueError):
        support_partition([], 7)


def test_support_partition_relabeling_equivariance():
    rng = random.Random(8)
    base = [(2, 1, 0, 0, 0), (0, 2, 1, 0, 0), (0, 0, 0, 2, 1)]
    for _ in range(20):
        perm = list(range(5))
        rng.shuffle(perm)
        relabeled = [tuple(e[perm.index(i)] for i in range(5)) for e in base]
        rep = support_partition(relabeled, 5)
        sizes = sorted(len(b) for b in rep.blocks)
        assert sizes == [2, 3]


def test_verify_block_shape():
    ident = CycMatrix.identity(7)
    assert verify_block_shape([ident], (3, 4)) is True
    cyc = CycMatrix.permutation([1, 2, 3, 4, 5, 6, 0])
    assert verify_block_shape([cyc], (3, 4)) is False
    swap33 = CycMatrix.permutation([0, 4, 5, 6, 1, 2, 3])
    assert verify_block_shape([swap33], (1, 3, 3)) is True
    assert verify_block_shape([swap33], (1, 3, 3), allow_swap=False) is False
    # trailing residual block
    assert verify_block_shape([ident], (3,)) is True


def test_x2_block_shape_3_4():
    from cubicsym import corpus
    rec = corpus.record("X2")
    assert verify_block_shape(rec.generators, (3, 4)) is True
    assert verify_block_shape([CycMatrix.permutation([1, 2, 3, 4, 5, 6, 0])],
                              (3, 4)) is False
