"""Acceptance criteria, one test per criterion, each printing a PASS line with
its measured numbers.  Time limits are the stated ones; failures raise."""

import time

from cubicsym import corpus
from cubicsym.cyclo import CycNum, multiplicative_order, zeta
from cubicsym.forms import CycMatrix, Form, fixes, hat
from cubicsym.groups import MatGroup, closure, scalar_subgroup
from cubicsym.diffrank import eigen_partition_witness, support_partition
from cubicsym.invariants import (covering_lift, invariant_forms, is_symplectic,
                                 symplectic_order)
from cubicsym.reps import (AbelianGroupSpec, RepClass, canonicalize, classify,
                           filter_to_nd_reps)
from cubicsym.smooth import combinatorial_non_smooth, is_smooth


def _report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


def test_acceptance_1_smoothness_regressions():
    t0 = time.perf_counter()
    assert is_smooth(corpus.record("X1").form).status == "smooth"
    t_fermat = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert is_smooth(corpus.record("X20").form).status == "smooth"
    t_klein = time.perf_counter() - t0
    assert t_fermat < 60 and t_klein < 60
    from cubicsym.forms import Form
    f6in7 = Form.from_terms(7, 3, [(1, tuple(3 if j == i else 0 for j in range(7)))
                                   for i in range(6)])
    best = min(_timed_filter(f6in7) for _ in range(5))
    w = combinatorial_non_smooth(f6in7)
    assert w.kind == "L38-i" and w.data == (6,)
    assert best < 0.001, f"filter took {best * 1000:.3f} ms"
    _report(1, f"Fermat {t_fermat:.2f}s, Klein {t_klein:.2f}s, "
               f"missing-square filter {best * 1e6:.0f}us")


def _timed_filter(f):
    t0 = time.perf_counter()
    combinatorial_non_smooth(f)
    return time.perf_counter() - t0


def test_acceptance_2_m96_invariant_basis():
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
    a1 = CycMatrix(rows, 32)
    a2 = CycMatrix.diagonal([CycNum.one(3)] * 5 + [zeta(3), zeta(3, 2)])
    t0 = time.perf_counter()
    space = invariant_forms([a1, a2], 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"invariant solve took {elapsed:.2f}s"
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
        assert want in got, want
    _report(2, f"dimension 6, exact basis match, {elapsed:.2f}s")


def test_acceptance_3_representation_counts():
    targets = [("2", 3), ("7", 1), ("11", 1), ("9,5", 1), ("7,2", 0)]
    details = []
    for factors, expect in targets:
        spec = AbelianGroupSpec.from_factors([int(x) for x in factors.split(",")])
        t0 = time.perf_counter()
        report = classify(spec, 7, 3)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"{factors} took {elapsed:.1f}s"
        assert report.accepted == expect, (factors, report.accepted)
        assert report.undecided == 0
        details.append(f"{factors}->{report.accepted} ({elapsed:.1f}s)")
    # the C7 x C2 rejection trace: the good C7 weights force seven square
    # monomials, pinning the sign part to the identity; every faithful pairing
    # of that weight pattern with a sign pattern dies on a missing square
    spec14 = AbelianGroupSpec.from_factors([7, 2])
    for signs_count in range(1, 7):
        cols = []
        for i in range(7):
            u = i
            sgn = 1 if i < signs_count else 0
            cols.append(next(x for x in range(14) if x % 7 == u and x % 2 == sgn))
        rc = RepClass(spec14, 7, 3, (tuple(cols),))
        verdict = filter_to_nd_reps([rc], 5, 3)[0]
        assert verdict.status == "rejected" and verdict.witness.kind == "L38-i"
    _report(3, "; ".join(details) + "; C7xC2 trace: forced-monomial L38-i")


def test_acceptance_4_group_order_regressions():
    targets = [("X20", 301), ("X17", 144), ("X3", 1296), ("X15", 1008),
               ("X5", 288), ("X10", 96), ("X19", 64)]
    details = []
    for rid, expect in targets:
        rec = corpus.record(rid)
        t0 = time.perf_counter()
        g = closure(rec.generators)
        assert all(fixes(a, rec.form) for a in g.elements), rid
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, f"{rid} took {elapsed:.1f}s"
        assert g.order == expect, (rid, g.order)
        details.append(f"{rid}->{g.order} ({elapsed:.1f}s)")
    _report(4, "; ".join(details))


def test_acceptance_5_symplectic_regressions():
    # X5': the printed generator is non-symplectic (det a primitive 48th root)
    rec = corpus.record("X5'")
    a5 = rec.generators[0]
    assert multiplicative_order(a5.det()) == 48
    assert is_symplectic(a5, rec.form) is False
    g5 = closure(rec.generators)
    assert symplectic_order(g5, rec.form) == 1
    # the A7 fourfold generators are symplectic with det = lambda^2 = 1
    form_a7 = Form.parse((corpus.DATA / "a7.form").read_text())
    gens_a7 = MatGroup.parse((corpus.DATA / "a7.group").read_text()).generators
    for g in gens_a7:
        assert g.det().is_one()
        assert is_symplectic(g, form_a7) is True
    details = ["X5' Aut^s trivial", "A7 generators det=lambda^2=1"]
    for rid in ("X5'", "X8'", "X9'", "X15'"):
        rec = corpus.record(rid)
        g = closure(rec.generators)
        so = symplectic_order(g, rec.form)
        assert so == rec.symplectic_order, (rid, so)
        details.append(f"{rid}->{so}")
    _report(5, "; ".join(details))


def test_acceptance_6_partition_detection():
    c11 = RepClass(AbelianGroupSpec.from_factors([11]), 7, 3,
                   ((0, 0, 1, 3, 4, 5, 9),))
    rep = support_partition(c11.invariant_support(), 7)
    assert sorted(len(b) for b in rep.blocks) == [2, 5]
    c45 = RepClass(AbelianGroupSpec.from_factors([9, 5]), 7, 3,
                   ((3, 5, 12, 20, 21, 35, 39),))
    rep45 = support_partition(c45.invariant_support(), 7)
    assert sorted(len(b) for b in rep45.blocks) == [3, 4]
    w = zeta(3)
    one = CycNum.one(3)
    assert eigen_partition_witness(CycMatrix.diagonal([w, w] + [one] * 5)) == (2, 5)
    assert eigen_partition_witness(CycMatrix.diagonal([w] * 3 + [one] * 4)) == (3, 4)
    _report(6, "C11 support splits 5+2, C9xC5 splits 3+4, eigen witnesses OK")


def test_acceptance_7_property_suites():
    from tests.test_forms import test_contravariance_500_random_triples
    from tests.test_diffrank import (test_char_set_transport_100_samples,
                                     test_rank_d_invariance_100_random_changes)
    from tests.test_cyclo import test_field_axioms_1000_random_pairs
    from tests.test_reps import test_canonicalize_equality_iff_brute_force_conjugacy

    t0 = time.perf_counter()
    test_contravariance_500_random_triples()
    test_rank_d_invariance_100_random_changes()
    test_char_set_transport_100_samples()
    test_field_axioms_1000_random_pairs()
    test_canonicalize_equality_iff_brute_force_conjugacy()
    _report(7, f"contravariance x500, rank invariance x100, transport x100, "
               f"field axioms x1000, conjugacy<->canonical at m<=4 "
               f"({time.perf_counter() - t0:.0f}s)")


def test_acceptance_8_covering_construction():
    details = []
    for rid in ("X5'", "X8'"):
        rec = corpus.record(rid)
        base = closure(rec.generators)
        assert scalar_subgroup(base) == 1
        lifted = closure(covering_lift(list(rec.generators), 3, form=rec.form))
        assert lifted.order == 3 * base.order, rid
        hf = hat(rec.form)
        assert all(fixes(a, hf) for a in lifted.elements), rid
        details.append(f"{rid}: {base.order}->{lifted.order}")
    _report(8, "; ".join(details) + "; lifted groups fix hat(F) exactly")
