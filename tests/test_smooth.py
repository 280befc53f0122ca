import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb

import pytest

from cubicsym import corpus
from cubicsym.cyclo import CycNum, modular_embedding, zeta
from cubicsym.forms import Form, apply, evaluate, monomials
from cubicsym.groebner import buchberger, pure_power_coverage
from cubicsym.reps import AbelianGroupSpec, enumerate_diagonal_reps
from cubicsym.smooth import (NonSmoothWitness, SmoothResult, _smooth_mod_p,
                             _support_non_smooth, _support_table,
                             combinatorial_non_smooth, is_smooth, jacobian_generators,
                             partition_non_smooth, replay)
from tests.test_forms import fermat, rand_matrix


def mono(m, spec):
    e = [0] * m
    for v, x in spec.items():
        e[v] = x
    return tuple(e)


def form7(*terms):
    return Form.from_terms(7, 3, [(c, mono(7, s)) for c, s in terms])


def test_fermat_and_klein_smooth():
    assert is_smooth(fermat(7)).status == "smooth"
    klein = form7(*[(1, {i: 2, (i + 1) % 7: 1}) for i in range(7)])
    assert is_smooth(klein).status == "smooth"


def test_six_cubes_in_seven_variables_rejected_by_missing_square():
    f = form7(*[(1, {i: 3}) for i in range(6)])
    w = combinatorial_non_smooth(f)
    assert w == NonSmoothWitness("L38-i", (6,))
    assert replay(w, f)
    r = is_smooth(f)
    assert r.status == "singular" and r.witness.kind == "L38-i"


def test_fermat_triggers_no_condition():
    assert combinatorial_non_smooth(fermat(7)) is None
    assert _scan_partition_cover(fermat(7).terms.keys(), 7) is None


def _cover_ok(e, labels):
    # reference: whether the L310 cover labelled 0, 1, 2 for V1, V2, V3 absorbs e
    c1 = sum(x for x, l in zip(e, labels) if l == 0)
    if c1 == 0 or c1 == 1:
        return True
    if c1 == 2:
        c3 = sum(x for x, l in zip(e, labels) if l == 2)
        return c3 == 0
    return False


def _scan_partition_cover(support, m):
    # reference: every labeling in product order, the first that absorbs the support
    supp = list(support)
    for labels in product((0, 1, 2), repeat=m):
        if labels.count(0) <= labels.count(1):
            continue
        if all(_cover_ok(e, labels) for e in supp):
            return tuple(tuple(i for i, l in enumerate(labels) if l == k) for k in range(3))
    return None


def test_support_scan_rejects_exactly_when_l38_or_a_cover_does():
    # the witness groups' supports that pass the L38 scan
    cases = []
    for factors in ([8], [12], [2, 2], [2, 4], [2, 6], [2, 2, 2]):
        for rc in enumerate_diagonal_reps(AbelianGroupSpec.from_factors(factors), 7, 3):
            support = rc.invariant_support()
            if support and _oracle_scan(support, 7) is None:
                cases.append((support, 7))
    assert len(cases) == 93
    # random supports, and random subsets of what a random cover absorbs
    rng = random.Random(71)
    for m in range(3, 10):
        monos = monomials(m, 3)
        for _ in range(12):
            cases.append((rng.sample(monos, rng.randrange(1, 2 * m)), m))
            labels = [rng.randrange(3) for _ in range(m)]
            absorbed = [e for e in monos if _cover_ok(e, labels)]
            cases.append(([e for e in absorbed if rng.random() < 0.7], m))
    rng = random.Random(38)
    for m in range(4, 10):
        monos = monomials(m, 3)
        cases += [(rng.sample(monos, rng.randrange(1, 3 * m)), m) for _ in range(40)]
    rejected = Counter()
    for support, m in cases:
        w = _support_non_smooth(support, m)
        oracle = _oracle_scan(support, m) or _scan_partition_cover(support, m)
        assert (w is None) == (oracle is None), (support, m)
        if w is not None:
            rejected[w.kind == "L310"] += 1
            assert replay(w, Form(m, 3, 1, {e: CycNum.one(1) for e in support})), (w, support)
    assert rejected[True] > 0 and rejected[False] > 0


def _oracle_scan(support, m):
    # reference: the L38 scan written out condition by condition
    supp = list(support)
    for i in range(m):
        if not any(e[i] >= 2 for e in supp):
            return NonSmoothWitness("L38-i", (i,))
    if m < 7:
        return None
    for trio in combinations(range(m), 3):
        if all(any(e[v] for v in trio) for e in supp):
            return NonSmoothWitness("L38-ii", trio)
    for pq in combinations(range(m), 2):
        rest = [v for v in range(m) if v not in pq]
        for rs in combinations(rest, 2):
            if all(e[pq[0]] + e[pq[1]] >= 1 or e[rs[0]] + e[rs[1]] >= 2 for e in supp):
                return NonSmoothWitness("L38-iii", pq + rs)
    for p in range(m):
        rest = [v for v in range(m) if v != p]
        for quad in combinations(rest, 4):
            if all(e[p] >= 1 or sum(e[v] for v in quad) >= 2 for e in supp):
                return NonSmoothWitness("L38-iv", (p,) + quad)
    return None


def _oracle_meets(witness, supp):
    # reference: each L38 condition as a predicate on the exponent vectors
    k, d = witness.kind, witness.data
    if k == "L38-i":
        return not any(e[d[0]] >= 2 for e in supp)
    if k == "L38-ii":
        return all(any(e[v] for v in d) for e in supp)
    if k == "L38-iii":
        return all(e[d[0]] + e[d[1]] >= 1 or e[d[2]] + e[d[3]] >= 2 for e in supp)
    assert k == "L38-iv"
    return all(e[d[0]] >= 1 or sum(e[v] for v in d[1:]) >= 2 for e in supp)


def _l38_witnesses(m):
    # reference: every L38 instance, in the order of the written-out scan
    out = [NonSmoothWitness("L38-i", (i,)) for i in range(m)]
    out += [NonSmoothWitness("L38-ii", trio) for trio in combinations(range(m), 3)]
    out += [NonSmoothWitness("L38-iii", pq + rs) for pq in combinations(range(m), 2)
            for rs in combinations(range(m), 2) if not set(pq) & set(rs)]
    out += [NonSmoothWitness("L38-iv", (p,) + quad) for p in range(m)
            for quad in combinations(range(m), 4) if p not in quad]
    return out


def _ideal(w, m):
    # reference: the (A, B) of a witness that F lies in (x_A) + (x_B)^2
    d = w.data
    if w.kind == "L38-i":
        return (), tuple(v for v in range(m) if v not in d)
    if w.kind == "L310":
        return d[1], d[2]
    k = {"L38-ii": 3, "L38-iii": 2, "L38-iv": 1}[w.kind]
    return d[:k], d[k:]


@cache
def _absorbed_sets(m):
    """For each labeling with |V1| > |V2|, the monomials its L310 cover absorbs."""
    monos = monomials(m, 3)
    return [[e for e in monos if _cover_ok(e, labels)]
            for labels in product((0, 1, 2), repeat=m) if labels.count(0) > labels.count(1)]


def test_l38_table_scan_matches_the_written_out_conditions():
    absorbed = _absorbed_sets(7)
    assert len(absorbed) == 897
    kinds = Counter(_oracle_scan(s, 7).kind for s in absorbed)
    assert kinds == {"L38-i": 127, "L38-ii": 315, "L38-iii": 350, "L38-iv": 105}
    rng = random.Random(38)
    cases = [(s, 7) for s in absorbed]
    cases += [([e for e in s if rng.random() < 0.5], 7) for s in absorbed]
    monos = monomials(7, 3)
    cases += [(rng.sample(monos, rng.randrange(1, 21)), 7) for _ in range(40)]
    cases += [([], m) for m in range(4, 9)]
    for support, m in cases:
        assert _support_non_smooth(support, m) == _oracle_scan(support, m), (support, m)
    assert _support_non_smooth([], 5) == NonSmoothWitness("L38-i", (0,))
    # at seven variables the table is the L38 scan: the same entries in the same order
    assert list(_support_table(7)[1]) == _l38_witnesses(7)


def test_support_table_holds_every_maximal_ideal_condition():
    counts = {}
    one = CycNum.one(1)
    for m in range(3, 10):
        bit, table = _support_table(m)
        counts[m] = len(table)
        # the L38-ii..iv shapes are maximal at m = 7 only; elsewhere they are L310
        kinds = Counter(w.kind for w in table)
        assert kinds["L38-i"] == m and (m == 7 or kinds["L310"] == len(table) - m), kinds
        for w, mask in table.items():
            a, b = _ideal(w, m)
            assert 2 * len(a) + len(b) == m - 1 and not set(a) & set(b), w
            # the monomials outside (x_A) + (x_B)^2, and those the cover (rest, A, B)
            # does not absorb
            labels = [1 if v in a else 2 if v in b else 0 for v in range(m)]
            assert mask == sum(x for e, x in bit.items()
                               if not any(e[v] for v in a) and sum(e[v] for v in b) < 2), w
            assert mask == sum(x for e, x in bit.items() if not _cover_ok(e, labels)), w
            assert replay(w, Form(m, 3, 1, {e: one for e, x in bit.items() if not x & mask}))
    assert counts == {3: 6, 4: 16, 5: 45, 6: 126, 7: 357, 8: 1016, 9: 2907}


def test_replay_reads_the_table_entry_of_each_l38_witness():
    rng = random.Random(83)
    one = CycNum.one(1)
    for m in (4, 6, 7, 8):
        monos = monomials(m, 3)
        entries = _l38_witnesses(m)
        # every kind at every m, though the scan holds (ii)-(iv) only at m = 7
        assert Counter(w.kind for w in entries) == Counter({
            "L38-i": m, "L38-ii": comb(m, 3), "L38-iii": comb(m, 2) * comb(m - 2, 2),
            "L38-iv": m * comb(m - 1, 4)})
        for w in entries:
            inside = [e for e in monos if _oracle_meets(w, [e])]
            outside = [e for e in monos if e not in inside]
            supports = [inside, rng.sample(monos, rng.randrange(1, 2 * m))]
            if outside:
                supports.append(inside + [rng.choice(outside)])
            for supp in supports:
                f = Form(m, 3, 1, {e: one for e in supp})
                assert replay(w, f) == _oracle_meets(w, supp), (w, supp)
    for kind, data in (("L38-ii", (2, 1, 0)), ("L38-i", (7,)), ("L38-i", (0, 1)),
                       ("L38-ii", (0, 1, 7)), ("L38-iii", (0, 1, 1, 2)),
                       ("L38-iii", (0, 1, 2)), ("L38-iv", (0, 4, 3, 2, 1)), ("L38-v", ())):
        with pytest.raises(ValueError):
            replay(NonSmoothWitness(kind, data), fermat(7))


def test_no_partition_cover_escapes_the_support_scan():
    # every set that an L310 cover absorbs lies in a maximal ideal of the table;
    # at 7 variables the L38 conditions alone catch them all, at 8 they let
    # 1,008 of 2,727 through
    assert all(_support_non_smooth(s, 7) is not None for s in _absorbed_sets(7))
    assert len(_absorbed_sets(8)) == 2727
    assert all(_support_non_smooth(s, 8) is not None for s in _absorbed_sets(8))
    assert sum(_oracle_scan(s, 8) is None for s in _absorbed_sets(8)) == 1008


def test_ideal_membership_conditions():
    # F = x1 x6 x7 + (quadric in x2..x5) * linear: lands in (x1) + (x2..x5)^2
    f = form7((1, {0: 1, 5: 1, 6: 1}), (1, {1: 2, 5: 1}), (1, {2: 2, 6: 1}),
              (1, {3: 1, 4: 1, 5: 1}))
    w = combinatorial_non_smooth(f)
    assert w is not None and w.kind in ("L38-i", "L38-ii", "L38-iii", "L38-iv")
    assert replay(w, f)
    assert is_smooth(f).status == "singular"


def test_partition_filter_examples():
    f = form7((1, {0: 1, 1: 1, 2: 1}))
    assert partition_non_smooth(f, [0, 1, 3, 4, 5, 6], [2], []) is True
    with pytest.raises(ValueError):
        partition_non_smooth(f, [0, 1], [2], [])  # cover incomplete
    with pytest.raises(ValueError):
        partition_non_smooth(f, [0, 1, 2, 3], [3, 4, 5, 6], [])  # overlap
    with pytest.raises(ValueError):
        partition_non_smooth(f, [0, 1, 2], [3, 4, 5], [6])  # |V1| = |V2|
    for cover in ([[0, 1, 3, 4], [2, 5], [6]],):
        assert partition_non_smooth(fermat(7), *cover) is False
    # the cover absorbs a support iff it lies in (x_V2) + (x_V3)^2
    rng = random.Random(310)
    one = CycNum.one(1)
    for m in range(3, 9):
        monos = monomials(m, 3)
        for _ in range(30):
            labels = [rng.randrange(3) for _ in range(m)]
            if labels.count(0) <= labels.count(1):
                continue
            cover = [[v for v in range(m) if labels[v] == k] for k in range(3)]
            absorbed = [e for e in monos if _cover_ok(e, labels)]
            for supp in (absorbed, rng.sample(monos, rng.randrange(1, 2 * m))):
                f = Form(m, 3, 1, {e: one for e in supp})
                assert partition_non_smooth(f, *cover) == all(
                    _cover_ok(e, labels) for e in supp), (cover, supp)


def test_singular_binary_cube_in_three_variables():
    f = Form.from_terms(3, 3, [(1, (3, 0, 0)), (1, (0, 3, 0))])
    r = is_smooth(f)
    assert r.status == "singular"
    # the common zero (0:0:1) is real: all partials vanish there
    point = [CycNum.zero(1), CycNum.zero(1), CycNum.one(1)]
    for g in jacobian_generators(f):
        val = evaluate(Form(3, 2, 1, g), point)
        assert val.is_zero()


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        is_smooth(Form(3, 3, 1, {}))
    with pytest.raises(ValueError):
        is_smooth(Form.from_terms(2, 1, [(1, (1, 0))]))
    with pytest.raises(ValueError):
        combinatorial_non_smooth(Form.from_terms(4, 2, [(1, (2, 0, 0, 0))]))


def _planted_witness_form(rng):
    """Random cubic support satisfying one of the four conditions."""
    kind = rng.choice(("i", "ii", "iii", "iv"))
    all_monos = list(monomials(7, 3))
    if kind == "i":
        i = rng.randrange(7)
        pool = [e for e in all_monos if e[i] < 2]
    elif kind == "ii":
        trio = rng.sample(range(7), 3)
        pool = [e for e in all_monos if any(e[v] for v in trio)]
    elif kind == "iii":
        vs = rng.sample(range(7), 4)
        pool = [e for e in all_monos
                if e[vs[0]] + e[vs[1]] >= 1 or e[vs[2]] + e[vs[3]] >= 2]
    else:
        vs = rng.sample(range(7), 5)
        pool = [e for e in all_monos if e[vs[0]] >= 1
                or sum(e[v] for v in vs[1:]) >= 2]
    support = rng.sample(pool, min(len(pool), rng.randint(6, 14)))
    terms = {e: CycNum.rational(rng.randint(1, 5)) for e in support}
    return Form(7, 3, 1, terms)


def test_combinatorial_witness_implies_not_smooth_200_forms():
    rng = random.Random(424242)
    checked_by_groebner = 0
    for trial in range(200):
        f = _planted_witness_form(rng)
        w = combinatorial_non_smooth(f)
        assert w is not None
        r = is_smooth(f)
        assert r.status == "singular"
        if trial % 40 == 0:
            # cross-check the filter against the Jacobian ideal itself
            gens = [g for g in jacobian_generators(f) if g]
            if len(gens) < 7:
                checked_by_groebner += 1
                continue
            try:
                gb = buchberger(gens, budget_limit=150_000)
            except Exception:
                continue  # exhausted: still not certified smooth
            assert not all(pure_power_coverage(gb, 7))
            checked_by_groebner += 1
    assert checked_by_groebner >= 3


def test_smoothness_is_a_projective_invariant():
    rng = random.Random(77)
    for _ in range(12):
        m = rng.choice((3, 4))
        f = fermat(m, conductor=3) if rng.random() < 0.5 else Form.from_terms(
            m, 3, [(1, tuple(2 if j == i else (1 if j == (i + 1) % m else 0)
                             for j in range(m))) for i in range(m)], conductor=3)
        a = rand_matrix(rng, m)
        assert is_smooth(apply(a, f)).status == is_smooth(f).status


def test_brute_force_zero_agreement():
    # whenever a small candidate search finds a projective common zero of the
    # Jacobian, the decision procedure must say singular
    rng = random.Random(3)
    values = [CycNum.zero(3), CycNum.one(3), zeta(3)]
    from itertools import product as iproduct
    for _ in range(40):
        m = 3
        f = Form(m, 3, 3, {e: CycNum.one(3) for e in monomials(m, 3)
                           if rng.random() < 0.4} or
                 {(3, 0, 0): CycNum.one(3)})
        if f.is_zero():
            continue
        partials = [Form(m, 2, 3, g) for g in jacobian_generators(f)]
        found = None
        for pt in iproduct(values, repeat=m):
            if all(v.is_zero() for v in pt):
                continue
            if all(evaluate(p, list(pt)).is_zero() for p in partials):
                found = pt
                break
        if found is not None:
            assert is_smooth(f).status == "singular"


def test_ideal_membership_conditions_are_gated_below_seven_variables():
    # a smooth cubic fourfold can sit inside an ideal of three variables;
    # the dimension-counting behind conditions (ii)-(iv) needs m >= 7
    f = corpus.record("X13'").form
    trio = (0, 2, 3)
    assert all(any(e[v] for v in trio) for e in f.terms)  # F in (x1, x3, x4)
    assert combinatorial_non_smooth(f) is None
    assert is_smooth(f).status == "smooth"


def test_budget_exhaustion_is_reported():
    klein = form7(*[(1, {i: 2, (i + 1) % 7: 1}) for i in range(7)])
    assert is_smooth(klein, budget=1).status == "exhausted"


def test_modular_and_exact_paths_agree_on_corpus():
    for rid in corpus.all_ids():
        f = corpus.record(rid).form
        partials = jacobian_generators(f)
        gb = buchberger(partials, budget_limit=2_000_000)
        exact = "smooth" if all(pure_power_coverage(gb, f.nvars)) else "singular"
        certified = _smooth_mod_p(partials, f.conductor, 2_000_000)
        assert certified == (exact == "smooth"), rid
        assert is_smooth(f, budget=2_000_000).status == exact, rid


def test_degenerate_mod_p_falls_back_to_the_exact_path():
    # p * x0^3 + x1^3 + ... is smooth over Q, but its first partial vanishes mod p
    for n in (1, 12):
        p = modular_embedding(n).p
        f = Form.from_terms(4, 3, [(p if i == 0 else 1, mono(4, {i: 3}))
                                   for i in range(4)], conductor=n)
        assert not _smooth_mod_p(jacobian_generators(f), n, 10_000)
        assert is_smooth(f).status == "smooth"
        # a denominator divisible by p also leaves the decision to the exact path
        g = f.scale(CycNum.rational(Fraction(1, p), n))
        assert not _smooth_mod_p(jacobian_generators(g), n, 10_000)
        assert is_smooth(g).status == "smooth"


def test_cone_keeps_its_exact_witness():
    # a variable F omits: caught before any Groebner basis
    cone3 = Form.from_terms(3, 3, [(1, (3, 0, 0)), (1, (0, 3, 0))])
    assert is_smooth(cone3) == SmoothResult(
        "singular", NonSmoothWitness("JacobianZero", (2,)))
    # the Fermat cubic in x0 + x3, x1, x2: singular at (1:0:0:-1), which only
    # the Jacobian ideal sees; the modular run certifies nothing and the exact
    # basis gives the witness
    f = Form.from_terms(4, 3, [(1, (3, 0, 0, 0)), (3, (2, 0, 0, 1)), (3, (1, 0, 0, 2)),
                               (1, (0, 0, 0, 3)), (1, (0, 3, 0, 0)), (1, (0, 0, 3, 0))])
    assert combinatorial_non_smooth(f) is None
    assert not _smooth_mod_p(jacobian_generators(f), 1, 10_000)
    assert is_smooth(f) == SmoothResult(
        "singular", NonSmoothWitness("JacobianZero", (3,)))
