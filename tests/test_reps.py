import random
from itertools import permutations

import pytest

from cubicsym import reps
from cubicsym.cyclo import zeta
from cubicsym.forms import Form, fixes, monomials
from cubicsym.reps import (AbelianGroupSpec, RepClass, _diagonal_subgroup,
                           accepted_count, canonicalize, classify,
                           enumerate_diagonal_reps, filter_to_nd_reps)
from cubicsym.smooth import _support_non_smooth, is_smooth, replay
from tests.test_smooth import _cover_ok, _oracle_scan


def test_spec_normalization():
    assert AbelianGroupSpec.from_factors([9, 5]).factors == (45,)
    assert AbelianGroupSpec.from_factors([7, 2]).factors == (14,)
    assert AbelianGroupSpec.from_factors([3, 3]).factors == (3, 3)
    assert AbelianGroupSpec.from_factors([4, 6]).factors == (2, 12)
    assert AbelianGroupSpec.from_factors([2]).order == 2
    with pytest.raises(ValueError):
        AbelianGroupSpec.from_factors([1])
    with pytest.raises(ValueError):
        AbelianGroupSpec((4, 2))  # chain violated


def test_c2_prefilter_classes():
    spec = AbelianGroupSpec.from_factors([2])
    classes = enumerate_diagonal_reps(spec, 7, 3)
    assert len(classes) == 6
    patterns = {rc.exp_matrix[0].count(1) for rc in classes}
    assert patterns == {1, 2, 3, 4, 5, 6}


def test_c3_in_one_variable_has_no_classes():
    spec = AbelianGroupSpec.from_factors([3])
    assert enumerate_diagonal_reps(spec, 1, 3) == []


def test_c2_filter_matches_the_three_sign_patterns():
    spec = AbelianGroupSpec.from_factors([2])
    classes = enumerate_diagonal_reps(spec, 7, 3)
    verdicts = filter_to_nd_reps(classes, 5, 3)
    assert accepted_count(verdicts) == 3
    for v in verdicts:
        negs = v.rep.exp_matrix[0].count(1)
        if negs <= 3:
            assert v.status == "accepted"
            assert fixes(v.rep.generator_matrices()[0], v.witness_form)
            assert is_smooth(v.witness_form).status == "smooth"
        else:
            assert v.status == "rejected"
            assert v.witness.kind == "L38-ii"


def test_deterministic_enumeration_order():
    spec = AbelianGroupSpec.from_factors([7])
    a = enumerate_diagonal_reps(spec, 7, 3)
    b = enumerate_diagonal_reps(spec, 7, 3)
    assert [rc.exp_matrix for rc in a] == [rc.exp_matrix for rc in b]


def test_c7_unique_accepted_rep():
    report = classify(AbelianGroupSpec.from_factors([7]), 7, 3)
    assert report.total_classes == 290
    assert report.accepted == 1
    assert report.undecided == 0
    acc = [v for v in report.verdicts if v.status == "accepted"][0]
    assert acc.rep.exp_matrix == ((0, 1, 2, 3, 4, 5, 6),)


def test_total_is_a_bound_when_automorphisms_are_capped(monkeypatch):
    spec = AbelianGroupSpec.from_factors([2, 2])
    exact = classify(spec, 7, 3)
    assert (exact.total_classes, exact.total_exact) == (20, True)
    monkeypatch.setattr(reps, "AUT_ENUM_CAP", 10)
    bound = classify(spec, 7, 3)
    assert not bound.total_exact
    assert bound.total_classes == 25
    assert (bound.accepted, bound.undecided) == (exact.accepted, exact.undecided)


def test_canonicalize_column_permutation_and_scaling():
    spec2 = AbelianGroupSpec.from_factors([2])
    a = RepClass(spec2, 7, 3, ((0, 0, 0, 0, 0, 1, 1),))
    b = RepClass(spec2, 7, 3, ((1, 0, 0, 1, 0, 0, 0),))
    c = RepClass(spec2, 7, 3, ((1, 0, 0, 0, 0, 0, 0),))
    assert canonicalize(a) == canonicalize(b)
    assert canonicalize(a) != canonicalize(c)
    spec11 = AbelianGroupSpec.from_factors([11])
    r1 = RepClass(spec11, 7, 3, ((0, 0, 1, 3, 4, 5, 9),))
    scaled = tuple(sorted((2 * x) % 11 for x in (0, 0, 1, 3, 4, 5, 9)))
    r2 = RepClass(spec11, 7, 3, (scaled,))
    assert canonicalize(r1) == canonicalize(r2)


def test_paper_c45_representative_is_equivalent():
    spec = AbelianGroupSpec.from_factors([9, 5])
    mine = RepClass(spec, 7, 3, ((3, 5, 12, 20, 21, 35, 39),))
    paper = RepClass(spec, 7, 3, ((10, 25, 40, 36, 18, 9, 27),))
    assert canonicalize(mine) == canonicalize(paper)


def _brute_force_conjugate(rep1: RepClass, rep2: RepClass) -> bool:
    l1, e1 = _diagonal_subgroup(rep1)
    l2, e2 = _diagonal_subgroup(rep2)
    if l1 != l2 or len(e1) != len(e2):
        return False
    s2 = set(e2)
    m = rep1.m
    for perm in permutations(range(m)):
        if {tuple(v[p] for p in perm) for v in e1} == s2:
            return True
    return False


def test_canonicalize_equality_iff_brute_force_conjugacy():
    rng = random.Random(2024)
    specs = [AbelianGroupSpec.from_factors(f) for f in ([2], [4], [3, 3], [6], [12])]
    reps = []
    for spec in specs:
        for _ in range(6):
            k = len(spec.factors)
            exp = tuple(tuple(rng.randrange(spec.factors[j]) for _ in range(4))
                        for j in range(k))
            rc = RepClass(spec, 4, 3, exp)
            _, elements = _diagonal_subgroup(rc)
            if len(elements) <= 200:
                reps.append(rc)
    assert len(reps) >= 20
    pairs = 0
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            a, b = reps[i], reps[j]
            if a.spec != b.spec:
                continue
            same = canonicalize(a) == canonicalize(b)
            brute = _brute_force_conjugate(a, b)
            assert same == brute, (a.exp_matrix, b.exp_matrix)
            pairs += 1
    assert pairs >= 30


def test_restriction_coherence_of_accepted_witness():
    # the C45 accepted witness is fixed by every subgroup restriction
    spec = AbelianGroupSpec.from_factors([9, 5])
    rc = RepClass(spec, 7, 3, ((3, 5, 12, 20, 21, 35, 39),))
    verdicts = filter_to_nd_reps([rc], 5, 3)
    assert verdicts[0].status == "accepted"
    w = verdicts[0].witness_form
    gen = rc.generator_matrices()[0]
    for power in (1, 3, 5, 9, 15):
        assert fixes(gen ** power, w)
    assert is_smooth(w).status == "smooth"


def test_c14_rejections_follow_the_forced_monomial_argument():
    # pair the unique good C7 weight pattern with each nontrivial sign pattern:
    # the forced square monomials pin the sign part to the identity, so the
    # support always misses one of them and condition (i) fires
    c7_good = (0, 1, 2, 3, 4, 5, 6)
    spec = AbelianGroupSpec.from_factors([7, 2])
    hits = 0
    for signs_count in range(1, 7):
        signs = tuple(1 if i < signs_count else 0 for i in range(7))
        # columns of C14 = CRT pairs (u mod 7, s mod 2) -> value mod 14
        cols = []
        for u, s in zip(c7_good, signs):
            v = next(x for x in range(14) if x % 7 == u and x % 2 == s)
            cols.append(v)
        rc = RepClass(spec, 7, 3, (tuple(cols),))
        verdicts = filter_to_nd_reps([rc], 5, 3)
        assert verdicts[0].status == "rejected"
        assert verdicts[0].witness.kind == "L38-i"
        hits += 1
    assert hits == 6


def test_filter_checks_every_class_before_the_first_verdict(monkeypatch):
    # a class of another degree, or of another dimension in last place, is
    # refused before any class is filtered, not by a crash in the middle
    c7 = AbelianGroupSpec.from_factors([7])
    good = RepClass(c7, 7, 3, ((0, 1, 2, 3, 4, 5, 6),))
    monkeypatch.setattr(reps, "_support_non_smooth",
                        lambda *args: pytest.fail("a class was filtered first"))
    for bad in (RepClass(c7, 7, 2, good.exp_matrix), RepClass(c7, 7, 4, good.exp_matrix),
                RepClass(c7, 6, 3, ((0, 1, 2, 3, 4, 5),))):
        with pytest.raises(ValueError):
            filter_to_nd_reps([bad], 5, 3)
        with pytest.raises(ValueError):
            filter_to_nd_reps([good, bad], 5, 3)


def test_enumerate_raises_when_materialization_too_large():
    spec = AbelianGroupSpec.from_factors([9, 5])
    with pytest.raises(ValueError):
        enumerate_diagonal_reps(spec, 7, 3)


def test_support_rejections_replay_on_every_sub_support():
    # filter_to_nd_reps rejects a class on its full invariant support only:
    # each witness must then hold for every invariant cubic, whose support is
    # a subset of it
    rng = random.Random(53)
    rejected = [(v.witness, v.support) for v in filter_to_nd_reps(
        enumerate_diagonal_reps(AbelianGroupSpec.from_factors([4]), 7, 3), 5, 3)
        if v.status == "rejected"]
    # in 7 variables an L310 cover never adds to L38, so take an 8-variable
    # support made of every monomial a cover absorbs, which no L38 condition holds
    labels = (0, 0, 0, 0, 1, 1, 1, 2)
    support = tuple(e for e in monomials(8, 3) if _cover_ok(e, labels))
    assert _oracle_scan(support, 8) is None
    w = _support_non_smooth(support, 8)
    assert w is not None and w.kind == "L310"
    rejected.append((w, support))
    kinds = {w.kind for w, _ in rejected}
    assert kinds == {"L38-i", "L38-ii", "L38-iii", "L38-iv", "L310"}
    for w, supp in rejected:
        m = len(supp[0])
        for _ in range(10):
            sub = [e for e in supp if rng.random() < 0.5] or [supp[0]]
            member = Form(m, 3, 12, {e: zeta(12, rng.randrange(12)) for e in sub})
            assert replay(w, member), (w, sub)
