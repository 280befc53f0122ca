"""The packed-monomial Buchberger against a reference copy of the tuple-keyed
loop it replaced: equal reduced bases, equal budget step counts, and the
early-stopping pure-power certificate against the coverage of the full basis."""

import heapq
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicsym import corpus
from cubicsym.cyclo import CycNum, modular_embedding
from cubicsym.forms import Form, grevlex_key, monomials
from cubicsym.groebner import (BudgetExhausted, buchberger, pure_power_certificate,
                               pure_power_coverage)
from cubicsym.smooth import combinatorial_non_smooth, jacobian_generators

# ---- reference: the tuple-keyed loop, with its step count exposed ----------


class _RefPoly:
    def __init__(self, terms, modulus, sugar=None):
        lm = max(terms, key=grevlex_key)
        lc = terms[lm]
        if modulus is not None:
            if lc != 1:
                inv = pow(lc, -1, modulus)
                terms = {e: c * inv % modulus for e, c in terms.items()}
        elif not lc.is_one():
            inv = lc.inv()
            terms = {e: c * inv for e, c in terms.items()}
        self.terms, self.lm = terms, lm
        self.sugar = sugar if sugar is not None else sum(lm)


class _RefBudget:
    def __init__(self, limit):
        self.limit, self.spent = limit, 0

    def spend(self):
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExhausted(self.spent)


def _neg_key(e):
    return (-sum(e), tuple(reversed(e)))


def _divides(a, b):
    return all(map(le, a, b))


def _ref_normal_form(terms, basis, budget, modulus):
    work = dict(terms)
    heap = [_neg_key(e) + (e,) for e in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        e = heapq.heappop(heap)[-1]
        c = work.get(e)
        if c is not None and modulus is not None:
            c %= modulus
        if not c:
            work.pop(e, None)
            continue
        red = next((g for g in basis if _divides(g.lm, e)), None)
        if red is None:
            out[e] = c
            del work[e]
            continue
        budget.spend()
        shift = tuple(map(sub, e, red.lm))
        del work[e]
        for ge, gc in red.terms.items():
            if ge == red.lm:
                continue
            te = tuple(map(add, ge, shift))
            v = c * gc
            if te in work:
                work[te] = work[te] - v
            else:
                work[te] = -v
                heapq.heappush(heap, _neg_key(te) + (te,))
    return out


def _ref_s_poly(f, g, lcm):
    sf, sg = tuple(map(sub, lcm, f.lm)), tuple(map(sub, lcm, g.lm))
    terms = {tuple(map(add, e, sf)): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        te = tuple(map(add, e, sg))
        if te in terms:
            v = terms[te] - c
            if not v:
                del terms[te]
            else:
                terms[te] = v
        else:
            terms[te] = -c
    return terms


def ref_buchberger(gens, budget_limit=1_000_000, modulus=None):
    """(reduced basis as [(lm, terms)], reduction steps spent)."""
    budget = _RefBudget(budget_limit)
    basis = []
    for terms in gens:
        nf = _ref_normal_form(terms, basis, budget, modulus) if basis else dict(terms)
        if nf:
            basis.append(_RefPoly(nf, modulus))
    pairs, pending = [], set()

    def push_pairs(t):
        g = basis[t]
        for i in range(t):
            f = basis[i]
            lcm = tuple(map(max, f.lm, g.lm))
            if lcm == tuple(map(add, f.lm, g.lm)):
                continue
            deg = sum(lcm)
            sugar = max(f.sugar + deg - sum(f.lm), g.sugar + deg - sum(g.lm))
            heapq.heappush(pairs, (sugar, _neg_key(lcm), i, t, lcm))
            pending.add((i, t))

    for t in range(len(basis)):
        push_pairs(t)
    while pairs:
        sugar, _, i, j, lcm = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        if any(k not in (i, j) and _divides(basis[k].lm, lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k in range(len(basis))):
            continue
        nf = _ref_normal_form(_ref_s_poly(basis[i], basis[j], lcm), basis, budget, modulus)
        if nf:
            basis.append(_RefPoly(nf, modulus, sugar))
            push_pairs(len(basis) - 1)
    kept = []
    for g in sorted(basis, key=lambda g: grevlex_key(g.lm)):
        if not any(_divides(h.lm, g.lm) for h in kept):
            kept.append(g)
    reduced = []
    for idx, g in enumerate(kept):
        nf = _ref_normal_form(g.terms, kept[:idx] + kept[idx + 1:], budget, modulus)
        if nf:
            reduced.append(_RefPoly(nf, modulus))
    reduced.sort(key=lambda g: grevlex_key(g.lm), reverse=True)
    return [(g.lm, g.terms) for g in reduced], budget.spent


# ---- helpers ----------------------------------------------------------------


def _pairs(basis):
    return [(g.lm, g.terms) for g in basis]


def _assert_same_run(gens, modulus=None, budget_limit=1_000_000):
    """The new basis, after checking that it equals the reference's, or None
    after checking the same exhaustion.  The step count is pinned by rerunning
    at exactly that budget and one below, and at budgets 1, 10 and 100."""
    try:
        ref, steps = ref_buchberger(gens, budget_limit, modulus)
    except BudgetExhausted as exc:
        with pytest.raises(BudgetExhausted) as new:
            buchberger(gens, budget_limit, modulus)
        assert new.value.steps == exc.steps
        return None
    basis = buchberger(gens, steps, modulus)
    assert _pairs(basis) == ref
    for limit in {steps - 1, 1, 10, 100}:
        if 0 <= limit < steps:
            with pytest.raises(BudgetExhausted) as new:
                buchberger(gens, limit, modulus)
            assert new.value.steps == limit + 1
        elif limit > steps:
            assert _pairs(buchberger(gens, limit, modulus)) == ref
    return basis


def _certificate(gens, basis, nvars, modulus=None):
    """The early-stop answer, after checking it against the full basis."""
    covered = all(pure_power_coverage(basis, nvars))
    assert pure_power_certificate(gens, modulus=modulus) == covered
    return covered


def _mod_p_partials(f: Form):
    emb = modular_embedding(f.conductor)
    gens = []
    for terms in jacobian_generators(f):
        image = {e: emb(c) for e, c in terms.items()}
        assert None not in image.values()
        gens.append({e: v for e, v in image.items() if v})
    return gens, emb.p


# ---- exact bases on a few records ------------------------------------------


@pytest.mark.parametrize("rid", ["X3", "X20", "X5'", "X8'"])
def test_reduced_bases_and_steps_match_the_reference_exactly(rid):
    assert _assert_same_run(jacobian_generators(corpus.record(rid).form))


# ---- packed width ------------------------------------------------------------


def test_exponents_past_sixteen_bits_widen_instead_of_wrapping():
    # the lcm of x^40000 and y^40001 has degree 80001, past the fields chosen
    # for degree 40000, so the call reruns at double width
    for modulus, one in ((7, 1), (None, CycNum.one())):
        gens = [{(40000, 0): one, (0, 40000): one}, {(1, 1): one}]
        basis = _assert_same_run(gens, modulus)
        assert [g.lm for g in basis] == [(0, 40001), (40000, 0), (1, 1)]


# ---- the certificate on singular inputs -------------------------------------


def test_certificate_is_false_when_a_variable_stays_uncovered():
    p = modular_embedding(1).p
    # a cone: x3 appears in no partial
    cone = Form.from_terms(4, 3, [(1, (3, 0, 0, 0)), (1, (0, 3, 0, 0)), (1, (0, 0, 3, 0))])
    gens = [g for g in jacobian_generators(cone) if g]
    assert not _certificate(gens, _assert_same_run(gens), 4)
    # the Fermat cubic with coefficient p: its last partial vanishes mod p
    fermat_p = Form.from_terms(7, 3, [(p if i == 6 else 1, tuple(3 * (j == i) for j in range(7)))
                                      for i in range(7)])
    gens, _ = _mod_p_partials(fermat_p)
    assert not gens[6]
    assert not _certificate(gens, _assert_same_run(gens, p), 7, p)
    # the Fermat cubic in x0 + x3, x1, x2, singular at (1:0:0:-1)
    shifted = Form.from_terms(4, 3, [(1, (3, 0, 0, 0)), (3, (2, 0, 0, 1)), (3, (1, 0, 0, 2)),
                                     (1, (0, 0, 0, 3)), (1, (0, 3, 0, 0)), (1, (0, 0, 3, 0))])
    gens, _ = _mod_p_partials(shifted)
    assert not _certificate(gens, _assert_same_run(gens, p), 4, p)


def test_certificate_on_a_sparse_singular_witness_candidate():
    # a C12-graded candidate of the witness search that passes every
    # combinatorial filter; its Jacobian ideal leaves x6 uncovered
    a, b = CycNum.from_vector(12, [-3, 6, 0, -3]), CycNum.from_vector(12, [-1, 0, 1, 0])
    one, neg = CycNum.one(12), CycNum.rational(-1, 12)
    f = Form(7, 3, 12, {
        (3, 0, 0, 0, 0, 0, 0): one, (2, 1, 0, 0, 0, 0, 0): a, (1, 2, 0, 0, 0, 0, 0): a,
        (0, 3, 0, 0, 0, 0, 0): one, (0, 0, 0, 2, 1, 0, 0): b, (1, 0, 0, 0, 2, 0, 0): one,
        (0, 1, 0, 0, 2, 0, 0): neg, (0, 0, 2, 0, 0, 1, 0): b, (0, 0, 0, 0, 0, 3, 0): neg,
        (1, 0, 0, 1, 0, 0, 1): neg, (0, 1, 0, 1, 0, 0, 1): neg, (0, 0, 0, 0, 1, 0, 2): one})
    assert combinatorial_non_smooth(f) is None
    gens, p = _mod_p_partials(f)
    assert not _certificate(gens, _assert_same_run(gens, p), 7, p)
    exact = jacobian_generators(f)
    assert not _certificate(exact, _assert_same_run(exact), 7)


def test_unit_ideal_is_a_cover():
    # x + 1 and x generate the unit ideal
    gens = [{(1, 0): 1, (0, 0): 1}, {(1, 0): 1}]
    assert pure_power_certificate(gens, modulus=7)
    assert [g.lm for g in _assert_same_run(gens, 7)] == [(0, 0)]


# ---- every corpus record mod p --------------------------------------------


def test_reduced_bases_and_steps_match_the_reference_on_the_corpus_mod_p():
    for rid in corpus.all_ids():
        f = corpus.record(rid).form
        gens, p = _mod_p_partials(f)
        basis = _assert_same_run(gens, p)
        assert _certificate(gens, basis, f.nvars, p), rid


# ---- random homogeneous systems ---------------------------------------------


@st.composite
def _systems(draw, coeffs):
    m = draw(st.integers(2, 6))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.sampled_from(monomials(m, draw(st.integers(1, 3)))),
                                min_size=1, max_size=5, unique=True))
        gens.append({e: draw(coeffs) for e in support})
    return gens


_RATIONALS = st.integers(-3, 3).filter(bool).map(CycNum.rational)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((7, 101)).flatmap(
    lambda p: st.tuples(st.just(p), _systems(st.integers(1, p - 1)))))
def test_random_systems_mod_p_match_the_reference(case):
    p, gens = case
    basis = _assert_same_run(gens, p, budget_limit=2_000)
    if basis is not None:
        _certificate(gens, basis, len(next(iter(gens[0]))), p)


@settings(max_examples=50, deadline=None)
@given(_systems(_RATIONALS))
def test_random_systems_over_q_match_the_reference(gens):
    basis = _assert_same_run(gens, budget_limit=2_000)
    if basis is not None:
        _certificate(gens, basis, len(next(iter(gens[0]))))
