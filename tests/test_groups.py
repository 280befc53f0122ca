import tracemalloc
from fractions import Fraction

import pytest

from cubicsym import corpus
from cubicsym.cyclo import CycNum, modular_embedding, zeta
from cubicsym.forms import CycMatrix, fixes
from cubicsym.diffrank import eigen_partition_witness, eigenvalue_multiset
from cubicsym.groups import (CapExceeded, MatGroup, closure, is_semi_permutation,
                             projective_order, scalar_subgroup)


# predicates that no job calls, kept here as the tests' own helpers

def is_abelian(group: MatGroup) -> bool:
    gens = group.generators
    return all(gens[i] * gens[j] == gens[j] * gens[i]
               for i in range(len(gens)) for j in range(i + 1, len(gens)))


def eigen_multisets(group: MatGroup, cap: int = 10_000) -> list[dict[CycNum, int]]:
    if not group.materialized():
        raise ValueError("group not materialized")
    return [eigenvalue_multiset(a, cap) for a in group.elements]


def is_special(group: MatGroup, cap: int = 10_000) -> bool:
    """No element carries one of the two forbidden cube-root eigenvalue shapes."""
    if group.dimension != 7:
        raise ValueError("special representations are defined for dimension 7")
    if not group.materialized():
        raise ValueError("group not materialized")
    return all(eigen_partition_witness(a, cap) is None for a in group.elements)


def klein_generators():
    rec = corpus.record("X20")
    return list(rec.generators)


def test_scalar_group_of_order_three():
    g = closure([CycMatrix.scalar(7, zeta(3))])
    assert g.order == 3
    assert scalar_subgroup(g) == 3
    assert projective_order(g) == 1


def test_klein_closure_and_lift():
    d, p = klein_generators()
    g = closure([d, p])
    assert g.order == 301
    assert scalar_subgroup(g) == 1
    assert projective_order(g) == 301
    lifted = closure([d, p, CycMatrix.scalar(7, zeta(3))])
    assert lifted.order == 903
    assert projective_order(lifted) == 301
    assert scalar_subgroup(lifted) == 3


def test_closure_generator_set_independence():
    d, p = klein_generators()
    a = closure([d, p])
    b = closure([p, d])
    c = closure([d * p, p])  # another generating set of the same group
    assert set(a.elements) == set(b.elements) == set(c.elements)


def test_cap_exceeded_carries_partial_count():
    d, p = klein_generators()
    with pytest.raises(CapExceeded) as ex:
        closure([d, p], cap=50)
    assert ex.value.count > 50


def test_closure_rejects_a_cap_below_one():
    ident = CycMatrix.identity(2)
    for cap in (0, -7):
        with pytest.raises(ValueError, match="cap"):
            closure([ident], cap=cap)
    assert closure([ident], cap=1).order == 1


def _exact_closure(gens, cap):
    # reference: the breadth-first closure that hashes every exact product
    group = MatGroup(gens)
    ident = CycMatrix.identity(group.dimension, group.conductor)
    seen, ordered, frontier = {ident}, [ident], [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in group.generators:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    ordered.append(b)
                    nxt.append(b)
                    if len(ordered) > cap:
                        raise CapExceeded(len(ordered))
        frontier = nxt
    return tuple(ordered)


def test_closure_matches_the_exact_breadth_first_search():
    cases = [corpus.record(rid).generators
             for rid in ("X3", "X5", "X8", "X10", "X17", "X19", "X20",
                         "X3'", "X5'", "X8'", "X14'")]
    cases.append(klein_generators() + [CycMatrix.scalar(7, zeta(3))])
    # X8' conjugated by a unimodular integer matrix: all 192 rows are distinct
    m = 6
    lower = CycMatrix.from_rows([[int(j <= i) for j in range(m)] for i in range(m)])
    upper = CycMatrix.from_rows([[max(j - i + 1, 0) for j in range(m)] for i in range(m)])
    v = (lower * upper).lift(32)
    vi = v.inv()
    cases.append([v * g * vi for g in corpus.record("X8'").generators])
    for gens in cases:
        assert closure(gens).elements == _exact_closure(gens, 10_000)
    with pytest.raises(CapExceeded) as ours:
        closure(klein_generators(), cap=50)
    with pytest.raises(CapExceeded) as theirs:
        _exact_closure(klein_generators(), 50)
    assert ours.value.count == theirs.value.count


def test_closure_moves_past_a_prime_in_a_denominator():
    p = modular_embedding(1).p
    swap = CycMatrix.from_rows([[0, p], [Fraction(1, p), 0]])
    assert modular_embedding(1)(swap.rows[1][0]) is None
    g = closure([swap])
    assert g.order == 2
    assert g.elements == (CycMatrix.identity(2), swap)
    # read as 0 mod p, swap would fold the dihedral group of order 8 onto 3 images
    sign = CycMatrix.from_rows([[-1, 0], [0, 1]])
    dihedral = closure([swap, sign])
    assert dihedral.order == 8
    assert dihedral.elements == _exact_closure([swap, sign], 100)


def test_closure_rejects_an_infinite_group():
    # the shear reduces to I mod p, so its products are checked against I
    p = modular_embedding(1).p
    shear = CycMatrix.from_rows([[1, p], [0, 1]])
    sign = CycMatrix.from_rows([[-1, 0], [0, 1]])
    # [[p, 1], [1, 0]] is a swap mod p whose square is I mod p but not I: the
    # repeated image comes at depth 2, on rows that are not identity rows
    twist = CycMatrix.from_rows([[p, 1], [1, 0]])
    for gens in ([shear], [sign, shear], [shear, sign], [twist]):
        with pytest.raises(ValueError, match="infinite"):
            closure(gens)
    # the check is decided when the search ends, so a cap reached first wins
    with pytest.raises(CapExceeded) as ex:
        closure([shear, sign], cap=1)
    assert ex.value.count == 2


def test_closure_of_x9_peaks_below_10_mb():
    # besides the elements, the search keeps one tuple of row ids and one
    # image key per element, and no numpy arrays
    gens = corpus.record("X9").generators
    tracemalloc.start()
    try:
        assert closure(gens).order == 12960
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


def test_closure_shares_equal_entries_and_rows():
    g = closure(corpus.record("X15").generators)
    rows = [r for a in g.elements for r in a.rows]
    entries = [c for r in rows for c in r]
    assert len(rows) == 7056
    assert len({id(r) for r in rows}) == len(set(rows)) == 570
    assert len({id(c) for c in entries}) == len(set(entries)) == 146


def test_closure_rejects_singular_generator():
    z = CycNum.zero(1)
    bad = CycMatrix([[CycNum.one(1), z], [z, z]], 1)
    with pytest.raises(ValueError):
        closure([bad])


def test_predicates():
    d, p = klein_generators()
    g = MatGroup([d, p])
    assert is_semi_permutation(g)
    assert not is_abelian(g)
    assert is_abelian(MatGroup([d]))
    rec = corpus.record("X2")
    dft = rec.generators[2]  # the 1/sqrt3 Fourier block
    assert not is_semi_permutation(MatGroup([dft]))


def test_eigen_multisets_and_special():
    w = zeta(3)
    one = CycNum.one(3)
    forbidden = closure([CycMatrix.diagonal([w, w] + [one] * 5)])
    assert not is_special(forbidden)
    seven_cycle = closure([CycMatrix.permutation([1, 2, 3, 4, 5, 6, 0])])
    assert is_special(seven_cycle)
    trivial = closure([CycMatrix.identity(7)])
    assert is_special(trivial)
    ms = eigen_multisets(closure([CycMatrix.diagonal([w, w] + [one] * 5)]))
    assert {tuple(sorted(v for v in m.values())) for m in ms} == {(7,), (2, 5)}
    with pytest.raises(ValueError):
        is_special(closure([CycMatrix.identity(6)]))


def test_m96_group_scalars():
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
    base = closure([a1, a2])
    assert base.order == 96  # the C3 x C32 image of the order-96 candidate
    extended = closure([a1, a2, CycMatrix.scalar(7, zeta(3))])
    assert scalar_subgroup(extended) == 3
    assert extended.order == 288
    # a pure permutation group has trivial scalar subgroup
    assert scalar_subgroup(closure([CycMatrix.permutation([1, 2, 3, 4, 5, 6, 0])])) == 1


def test_projective_order_arithmetic_d_times_order():
    # |<G, xi_3 I>| = 3|G| for a scalar-free G
    rec = corpus.record("X17")
    g = closure(rec.generators)
    assert scalar_subgroup(g) == 1 and g.order == 144
    lifted = closure(list(rec.generators) + [CycMatrix.scalar(7, zeta(3))])
    assert lifted.order == 3 * g.order
    assert projective_order(lifted) == 144


def test_lagrange_sanity_against_published_orders():
    for rid in ("X3", "X5", "X8", "X10", "X11", "X15", "X17", "X18", "X19", "X20"):
        rec = corpus.record(rid)
        g = closure(rec.generators)
        assert rec.projective_order % projective_order(g) == 0


def test_elements_fix_the_paired_form():
    for rid in ("X20", "X17", "X5", "X10", "X19"):
        rec = corpus.record(rid)
        g = closure(rec.generators)
        assert all(fixes(a, rec.form) for a in g.elements)


def test_group_file_round_trip():
    d, p = klein_generators()
    g = MatGroup([d, p])
    back = MatGroup.parse(g.encode())
    assert back.dimension == 7
    assert back.generators == tuple(x.lift(back.conductor) for x in g.generators)
