"""The column kernels of the enumerator against reference copies of the row
kernels they replaced: sort each gathered (N, m) block with np.sort, pack
every row into uint64 keys, and evaluate the masks with int64 weights.  The
per-(parent, table) rule of the generation is checked against the per-child
pass it replaced, and the symmetry tables against the scan over all
generator images that the closure of elementary automorphisms replaced."""

import tracemalloc
from itertools import product
from math import gcd, prod

import numpy as np
import pytest

from cubicsym import reps
from cubicsym.reps import (AbelianGroupSpec, _bulk_square_mask, _canonical_rows,
                           _combined_tables, _rows_to_classes, _sort_columns,
                           _twist_shifts, _valid_mask, classify)

GROUPS = [[2], [3], [4], [6], [7], [8], [12], [2, 2], [2, 4], [3, 3], [2, 2, 2]]


def _pack_rows(arr, wide):
    n, m = arr.shape
    if not wide:
        a = np.zeros(n, dtype=np.uint64)
        for j in range(m):
            a = (a << np.uint64(8)) | arr[:, j].astype(np.uint64)
        return a.reshape(n, 1)
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    for j in range(min(m, 4)):
        a = (a << np.uint64(16)) | arr[:, j].astype(np.uint64)
    for _ in range(4 - min(m, 4)):
        a = a << np.uint64(16)
    for j in range(4, m):
        b = (b << np.uint64(16)) | arr[:, j].astype(np.uint64)
    for _ in range(4 - max(m - 4, 0)):
        b = b << np.uint64(16)
    return np.stack([a, b], axis=1)


def _reference_rows(spec, m, d):
    order = spec.order
    tables, complete = _combined_tables(spec, d)
    wide = order > 255
    dtype = np.uint16 if wide else np.uint8
    tables = tables.astype(dtype)
    rows = np.zeros((1, 0), dtype=dtype)
    for level in range(m):
        if rows.shape[0] == 0:
            break
        lasts = rows[:, -1].astype(np.int64) if level else np.zeros(len(rows), dtype=np.int64)
        reps = order - lasts
        total = int(reps.sum())
        idx = np.repeat(np.arange(len(rows)), reps)
        cum = np.concatenate([[0], np.cumsum(reps)])
        pos = np.arange(total) - np.repeat(cum[:-1], reps)
        newcol = (lasts[idx] + pos).astype(dtype)
        cand = np.concatenate([rows[idx], newcol[:, None]], axis=1)
        base = _pack_rows(cand, wide)
        for t in tables:
            q = t[cand]
            q.sort(axis=1)
            key = _pack_rows(q, wide)
            if wide:
                keep = (key[:, 0] > base[:, 0]) | (
                    (key[:, 0] == base[:, 0]) & (key[:, 1] >= base[:, 1]))
            else:
                keep = key[:, 0] >= base[:, 0]
            if not keep.all():
                cand = cand[keep]
                base = base[keep]
            if cand.shape[0] == 0:
                break
        rows = cand
    return rows, complete


def _per_child_block(cols, tables):
    """The candidates (sorted rows held column-wise) whose sorted image under
    no table is lexicographically smaller."""
    index = [c.astype(np.intp) for c in cols]
    alive = np.ones(cols[0].size, dtype=bool)
    for t in tables:
        img = [t[c] for c in index]
        _sort_columns(img)
        lt = img[0] < cols[0]
        eq = img[0] == cols[0]
        for q, b in zip(img[1:], cols[1:]):
            lt |= eq & (q < b)
            eq &= q == b
        alive &= ~lt
        if np.count_nonzero(alive) < 0.75 * alive.size:
            keep = np.flatnonzero(alive)
            cols = [c[keep] for c in cols]
            index = [c[keep] for c in index]
            alive = np.ones(keep.size, dtype=bool)
    keep = np.flatnonzero(alive)
    return [c[keep] for c in cols]


def _per_child_rows(spec, m, d):
    """Orderly generation that gathers every child P + [c], c >= last(P), of
    a level and compares it against every table."""
    order = spec.order
    tables, complete = _combined_tables(spec, d)
    dtype = np.uint16 if order > 255 else np.uint8
    tables = tables.astype(dtype)
    rows = np.zeros((1, 0), dtype=dtype)
    for _ in range(m):
        if rows.shape[0] == 0:
            break
        lasts = rows[:, -1].astype(np.int64) if rows.shape[1] else np.zeros(1, dtype=np.int64)
        idx = np.repeat(np.arange(rows.shape[0]), order - lasts)
        firsts = np.cumsum(order - lasts) - (order - lasts)
        newcol = (lasts[idx] + np.arange(idx.size) - firsts[idx]).astype(dtype)
        rows = np.stack(_per_child_block([c[idx] for c in rows.T] + [newcol], tables), axis=1)
    return rows, complete


def _reference_valid_mask(rows, spec):
    elems = spec.elements()
    L = spec.exponent
    steps = [L // nj for nj in spec.factors]
    idx = rows.astype(np.int64)
    keep = np.ones(rows.shape[0], dtype=bool)
    for g in elems:
        if not any(g):
            continue
        vals = np.array([sum(c[j] * g[j] * steps[j] for j in range(len(g))) % L
                         for c in elems], dtype=np.int64)
        v = vals[idx]
        keep &= (v != v[:, :1]).any(axis=1)
    return keep


def _reference_bulk_square_mask(rows, spec):
    n, m = rows.shape
    elems = spec.elements()
    weights = [np.array([e[j] for e in elems], dtype=np.int64)
               for j in range(len(spec.factors))]
    idx = rows.astype(np.int64)
    keep = np.ones(n, dtype=bool)
    for i in range(m):
        has = np.zeros(n, dtype=bool)
        for j in range(m):
            ok = np.ones(n, dtype=bool)
            for w, f in zip(weights, spec.factors):
                ok &= (2 * w[idx[:, i]] + w[idx[:, j]]) % f == 0
            has |= ok
        keep &= has
    return keep


def _reference_automorphism_tables(spec):
    """Up to AUT_ENUM_CAP: every choice of generator images, in product
    order, that respects the generator orders and gives a bijection. Past it:
    the closure of the unit scalings and the swaps of equal factors."""
    factors = spec.factors
    k = len(factors)
    elems = np.array(spec.elements(), dtype=np.int64)
    lookup = np.empty(factors, dtype=np.int64)
    lookup[tuple(elems.T)] = np.arange(spec.order)

    def tables_of(images):  # images: (count, k, k), row j = image of e_j
        y = np.einsum("xj,cjt->cxt", elems, images) % factors
        return lookup[tuple(np.moveaxis(y, -1, 0))]

    if spec.order ** k <= reps.AUT_ENUM_CAP:
        # the image of a generator of order n_j must be killed by n_j
        allowed = [[y for y in spec.elements()
                    if not any(nj * a % f for a, f in zip(y, factors))] for nj in factors]
        tabs = tables_of(np.array(list(product(*allowed)), dtype=np.int64).reshape(-1, k, k))
        bijective = (np.sort(tabs, axis=1) == np.arange(spec.order)).all(axis=1)
        return list(tabs[bijective]), True
    seeds = []
    for j, nj in enumerate(factors):
        for u in range(2, nj):
            if gcd(u, nj) == 1:
                seeds.append(np.diag([u if t == j else 1 for t in range(k)]))
    for j in range(k - 1):
        if factors[j] == factors[j + 1]:
            swap = np.eye(k, dtype=np.int64)
            swap[[j, j + 1]] = swap[[j + 1, j]]
            seeds.append(swap)
    base = list(tables_of(np.array(seeds, dtype=np.int64).reshape(-1, k, k)))
    ident = np.arange(spec.order, dtype=np.int64)
    seen, tables, frontier = {ident.tobytes()}, [ident], [ident]
    while frontier and len(tables) < 20_000:
        nxt = []
        for t in frontier:
            for b in base:
                c = b[t]
                if c.tobytes() not in seen:
                    seen.add(c.tobytes())
                    tables.append(c)
                    nxt.append(c)
        frontier = nxt
    return tables, False


def _reference_combined_tables(spec, d, auts):
    """Each automorphism followed by each twist, the first of equal tables kept."""
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    shift_tabs = [np.array([index[tuple((a + b) % n for a, b, n in zip(e, s, spec.factors))]
                            for e in elems], dtype=np.int64)
                  for s in _twist_shifts(spec, d)]
    combined, seen = [], set()
    for a in auts:
        for s in shift_tabs:
            if s[a].tobytes() not in seen:
                seen.add(s[a].tobytes())
                combined.append(s[a])
    return np.array(combined, dtype=np.min_scalar_type(spec.order - 1))


def _chains(max_order, chain=()):
    """Every invariant-factor chain n_1 | n_2 | ... with product <= max_order."""
    c = chain[-1] if chain else 2
    while prod(chain) * c <= max_order:
        if not chain or c % chain[-1] == 0:
            yield chain + (c,)
            yield from _chains(max_order, chain + (c,))
        c += 1


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("factors", GROUPS, ids=lambda f: "x".join(f"C{x}" for x in f))
def test_column_kernels_match_the_row_kernels(factors):
    spec = AbelianGroupSpec.from_factors(factors)
    for m in range(2, 8):
        rows, complete = _canonical_rows(spec, m, 3)
        want, want_complete = _reference_rows(spec, m, 3)
        assert complete == want_complete
        _assert_same_array(rows, want)
        valid = _valid_mask(rows, spec)
        _assert_same_array(valid, _reference_valid_mask(rows, spec))
        rows = rows[valid]
        _assert_same_array(_bulk_square_mask(rows, spec),
                           _reference_bulk_square_mask(rows, spec))


def _assert_same_generation(spec, levels, d=3):
    for m in levels:
        rows, complete = _canonical_rows(spec, m, d)
        want, want_complete = _per_child_rows(spec, m, d)
        assert complete == want_complete
        _assert_same_array(rows, want)


@pytest.mark.parametrize("factors", GROUPS, ids=lambda f: "x".join(f"C{x}" for x in f))
def test_parent_rule_matches_the_per_child_pass(factors):
    _assert_same_generation(AbelianGroupSpec.from_factors(factors), range(1, 8))


@pytest.mark.parametrize("d", [2, 6])
@pytest.mark.parametrize("factors", [[4], [6], [12], [2, 4], [3, 3]],
                         ids=lambda f: "x".join(f"C{x}" for x in f))
def test_parent_rule_matches_the_per_child_pass_at_other_degrees(factors, d):
    _assert_same_generation(AbelianGroupSpec.from_factors(factors), range(1, 7), d)


def test_parent_rule_on_two_byte_elements():
    # 257 elements take five mask words and two bytes each
    _assert_same_generation(AbelianGroupSpec.from_factors([257]), range(1, 4))


@pytest.mark.parametrize("factors", [[2, 2, 2, 2, 2], [3, 3, 3, 3]],
                         ids=["C2^5", "C3^4"])
def test_parent_rule_on_capped_table_sets(factors):
    # the capped tables are no group; the rule needs only that every level
    # uses the same tables
    spec = AbelianGroupSpec.from_factors(factors)
    assert not _combined_tables(spec, 3)[1]
    _assert_same_generation(spec, range(1, 5))


def test_parent_rule_on_many_tables():
    # C6xC6 has 2,592 tables at d = 3
    _assert_same_generation(AbelianGroupSpec.from_factors([6, 6]), [7])


def test_mask_passes_stay_small_for_many_tables(monkeypatch):
    # capped C3^4 has 31,104 tables; their masks at once would take
    # 31,104 x 83 words (20.7 MB), a pass holds about _BLOCK words of them
    spec = AbelianGroupSpec.from_factors([3, 3, 3, 3])
    tables = _combined_tables(spec, 3)
    monkeypatch.setattr(reps, "_combined_tables", lambda *args: tables)
    tracemalloc.start()
    try:
        rows, _ = _canonical_rows(spec, 4, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (190, 4)
    assert peak < 8e6, peak


@pytest.mark.parametrize("factors", [[6], [2, 4]])
def test_block_boundaries_do_not_change_the_rows(factors, monkeypatch):
    spec = AbelianGroupSpec.from_factors(factors)
    want, _ = _reference_rows(spec, 7, 3)
    valid = _reference_valid_mask(want, spec)
    square = _reference_bulk_square_mask(want[valid], spec)
    monkeypatch.setattr(reps, "_BLOCK", 5)
    rows, _ = _canonical_rows(spec, 7, 3)
    _assert_same_array(rows, want)
    _assert_same_array(_valid_mask(rows, spec), valid)
    _assert_same_array(_bulk_square_mask(rows[valid], spec), square)


@pytest.mark.parametrize("factors", [[6], [2, 4]])
def test_block_boundaries_do_not_change_the_classification(factors, monkeypatch):
    # classify masks the canonical rows in place; the reference copies the
    # valid rows first, then takes the square mask on them
    spec = AbelianGroupSpec.from_factors(factors)
    rows, _ = _reference_rows(spec, 7, 3)
    valid = rows[_valid_mask(rows, spec)]
    survivors = valid[_bulk_square_mask(valid, spec)]
    monkeypatch.setattr(reps, "_BLOCK", 5)
    report = classify(spec, 7, 3)
    assert report.total_exact
    assert report.total_classes == valid.shape[0]
    assert report.bulk_rejected == valid.shape[0] - survivors.shape[0]
    assert [v.rep for v in report.verdicts] == _rows_to_classes(survivors, spec, 7, 3)


@pytest.mark.parametrize("factors, levels", [([6], (0, 1)), ([2, 2], (0, 1)),
                                             ([257], (0, 1, 3))],
                         ids=["C6", "C2xC2", "C257"])
def test_five_row_blocks_keep_values_dtype_and_shape(factors, levels, monkeypatch):
    # C257 takes two bytes per element, and one parent has up to 257 children
    spec = AbelianGroupSpec.from_factors(factors)
    monkeypatch.setattr(reps, "_BLOCK", 5)
    for m in levels:
        _assert_same_array(_canonical_rows(spec, m, 3)[0], _reference_rows(spec, m, 3)[0])


def test_column_kernels_on_two_byte_elements():
    spec = AbelianGroupSpec.from_factors([257])
    rows, _ = _canonical_rows(spec, 3, 3)
    want, _ = _reference_rows(spec, 3, 3)
    assert rows.dtype == np.uint16
    _assert_same_array(rows, want)
    _assert_same_array(_valid_mask(rows, spec), _reference_valid_mask(rows, spec))
    _assert_same_array(_bulk_square_mask(rows, spec),
                       _reference_bulk_square_mask(rows, spec))


def test_enumeration_never_holds_a_whole_level(monkeypatch):
    # C9xC5 in 7 variables: 2,350,279 candidates at the last level and
    # 1,622,540 canonical rows (11.4 MB as uint8). The bound leaves room for
    # the rows, their parents and one block, not for a whole level of
    # candidates as index arrays or a copy of the valid rows.
    spec = AbelianGroupSpec.from_factors([9, 5])
    peaks = {}
    enumerate_rows = reps._canonical_rows

    def traced(*args):
        out = enumerate_rows(*args)
        peaks["_canonical_rows"] = tracemalloc.get_traced_memory()[1]
        return out
    monkeypatch.setattr(reps, "_canonical_rows", traced)
    tracemalloc.start()
    try:
        report = classify(spec, 7, 3)
        peaks["classify"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.total_classes, report.bulk_rejected) == (1_606_956, 1_606_955)
    assert max(peaks.values()) < 40e6, peaks


@pytest.mark.parametrize("m", range(1, 9))
def test_sorting_network_sorts_every_zero_one_input(m):
    # 0-1 principle: a comparator network that sorts all 2^m inputs of zeros
    # and ones sorts every input
    cols = [np.array(col, dtype=np.uint8) for col in zip(*product((0, 1), repeat=m))]
    ones = sum(c.astype(int) for c in cols)
    _sort_columns(cols)
    for lo, hi in zip(cols, cols[1:]):
        assert (lo <= hi).all()
    assert np.array_equal(sum(c.astype(int) for c in cols), ones)


def test_closure_gives_the_scanned_automorphism_tables():
    # C2^4 is the costliest group here: 16^4 image choices, 20,160 automorphisms
    groups = [AbelianGroupSpec(c) for c in _chains(32)
              if prod(c) ** len(c) <= reps.AUT_ENUM_CAP]
    assert len(groups) == 52 and AbelianGroupSpec((2, 2, 2, 2)) in groups
    for spec in groups:
        auts, complete = _reference_automorphism_tables(spec)
        assert complete
        for d in (2, 3):
            tables, flag = _combined_tables(spec, d)
            assert flag
            _assert_same_array(tables, _reference_combined_tables(spec, d, auts))


def test_automorphism_tables_are_built_narrow():
    # the closure keeps its tables in the narrowest dtype that holds an index,
    # and _combined_tables keeps that dtype (checked above)
    for factors, dtype in (([6, 6], np.uint8), ([257], np.uint16)):
        tables, _ = reps._dual_automorphism_tables(AbelianGroupSpec.from_factors(factors))
        assert tables.dtype == dtype


def test_capped_closure_keeps_the_scalings_and_swaps(monkeypatch):
    monkeypatch.setattr(reps, "AUT_ENUM_CAP", 10)
    for factors in ([2, 2], [3, 3], [2, 4, 4]):
        spec = AbelianGroupSpec.from_factors(factors)
        auts, complete = _reference_automorphism_tables(spec)
        assert not complete
        for d in (2, 3):
            tables, flag = _combined_tables(spec, d)
            assert not flag
            _assert_same_array(tables, _reference_combined_tables(spec, d, auts))
