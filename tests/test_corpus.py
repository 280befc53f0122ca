import pytest

from cubicsym import corpus
from cubicsym.cli import VERIFY_CAP, runs_closure
from cubicsym.forms import Form, fixes, hat
from cubicsym.groups import MatGroup, closure, projective_order
from cubicsym.invariants import symplectic_order
from cubicsym.smooth import is_smooth
from tests import corpus_oracle

ENUMERABLE_ORDERS = {
    "X3": 1296, "X5": 288, "X6": 990, "X8": 864, "X10": 96, "X11": 378,
    "X14": 24, "X15": 1008, "X17": 144, "X18": 648, "X19": 64, "X20": 301,
    "X3'": 144, "X4'": 2160, "X5'": 48, "X6'": 165, "X8'": 32, "X9'": 378,
    "X11'": 5040, "X12'": 24, "X13'": 336, "X14'": 144, "X15'": 648,
}


def test_record_ids_complete():
    ids = corpus.all_ids()
    assert len(ids) == 35
    assert [f"X{i}" for i in range(1, 21)] == ids[:20]
    assert [f"X{i}'" for i in range(1, 16)] == ids[20:]
    with pytest.raises(KeyError):
        corpus.record("X99")


def test_every_generator_fixes_its_form():
    for rid in corpus.all_ids():
        rec = corpus.record(rid)
        for k, g in enumerate(rec.generators):
            assert fixes(g, rec.form), (rid, k)


def test_every_record_form_is_smooth():
    for rid in corpus.all_ids():
        rec = corpus.record(rid)
        assert is_smooth(rec.form, budget=2_000_000).status == "smooth", rid


def test_enumerable_closure_orders():
    # verify computes exactly these groups: the recorded closure order is at most its cap
    for rid in corpus.all_ids():
        assert runs_closure(corpus.record(rid), VERIFY_CAP) == (rid in ENUMERABLE_ORDERS), rid
    for rid, expect in ENUMERABLE_ORDERS.items():
        rec = corpus.record(rid)
        g = closure(rec.generators)
        assert g.order == expect == rec.closure_order, rid
        if not rec.partial:
            assert projective_order(g) == rec.projective_order, rid


def test_fourfold_hat_relations():
    # each fourfold form plus a cube is the matching fivefold form up to the
    # variable bookkeeping used in the corpus
    pairs = [("X5'", "X5"), ("X8'", "X10"), ("X9'", "X11"), ("X3'", "X3"),
             ("X1'", None), ("X10'", "X12"), ("X12'", "X14")]
    for four_id, five_id in pairs:
        four = corpus.record(four_id)
        lifted = hat(four.form)
        assert is_smooth(lifted, budget=500_000).status == "smooth"
        if five_id is None:
            continue
        five = corpus.record(five_id).form
        assert lifted.nvars == five.nvars
        got = {e: c for e, c in lifted.lift(five.conductor).terms.items()}
        assert got == five.terms, (four_id, five_id)


def test_block_restrictions_match_fivefold_generators():
    # the fourteenth/fifteenth fourfolds are the lower blocks of X17/X18
    for four_id, five_id in (("X14'", "X17"), ("X15'", "X18"), ("X13'", "X15")):
        four = corpus.record(four_id)
        five = corpus.record(five_id)
        # F_five = x0^3 + shifted F_four
        lifted = Form(five.form.nvars, 3, four.form.conductor,
                      {(0,) + e: c for e, c in four.form.terms.items()})
        cube = Form.from_terms(five.form.nvars, 3,
                               [(1, tuple([3] + [0] * (five.form.nvars - 1)))],
                               conductor=four.form.conductor)
        total = (lifted + cube).lift(five.form.conductor)
        assert total.terms == five.form.terms, four_id


def test_symplectic_orders_for_complete_fourfolds():
    for rid in ("X3'", "X4'", "X5'", "X8'", "X9'", "X11'", "X13'", "X14'", "X15'"):
        rec = corpus.record(rid)
        g = closure(rec.generators)
        assert symplectic_order(g, rec.form) == rec.symplectic_order, rid


def test_unpartitionable_example_orders_respect_the_bound():
    # groups of fivefolds whose forms have no (2,5)/(3,4) split stay below 90720
    for rid in ("X14", "X15", "X16", "X17", "X18", "X19", "X20"):
        assert corpus.record(rid).projective_order <= 90720


def test_closure_is_a_group():
    from cubicsym.forms import CycMatrix

    rec = corpus.record("X19")
    g = closure(rec.generators)
    elems = set(g.elements)
    assert CycMatrix.identity(7, g.conductor) in elems
    lst = list(g.elements)
    for a in lst[:16]:
        assert a.inv() in elems
        for b in lst[:16]:
            assert a * b in elems


def test_partial_records_are_marked():
    partials = {rid for rid in corpus.all_ids() if corpus.record(rid).partial}
    assert partials == {"X6", "X12", "X14", "X6'", "X10'", "X12'"}
    assert corpus.record("X12").generators == ()
    assert corpus.record("X10'").generators == ()


def test_klein_elements_all_fix_the_form():
    rec = corpus.record("X20")
    g = closure(rec.generators)
    assert all(fixes(a, rec.form) for a in g.elements)


def test_shipped_data_files_round_trip():
    # every file under data/examples is what the builders print, and every file
    # the builders print is shipped: none is missing and none is left over
    import importlib.resources as res

    data = res.files("cubicsym") / "data" / "examples"
    shipped = {p.name: p.read_text() for p in data.iterdir()}
    built = corpus_oracle.shipped_files()
    assert sorted(shipped) == sorted(built)
    for name, text in built.items():
        assert shipped[name] == text, name


def test_records_equal_the_builders():
    # the table's orders, flags and notes, and the parsed form and generators
    built = corpus_oracle.records()
    assert list(built) == corpus.all_ids()
    for rid, rec in built.items():
        gens = MatGroup(rec.generators).generators if rec.generators else ()
        assert corpus.record(rid) == rec._replace(generators=gens), rid


def test_every_record_file_is_packaged(monkeypatch):
    # the program reads its corpus from these files, so an install must ship them
    tomllib = pytest.importorskip("tomllib")
    from fnmatch import fnmatch
    from pathlib import Path

    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["cubicsym"]
    package = Path(corpus.__file__).parent
    opened = []
    read_text = Path.read_text

    def spy(path, *args, **kwargs):
        opened.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", spy)
    corpus.record.cache_clear()
    records = [corpus.record(rid) for rid in corpus.all_ids()]
    assert len(opened) == len(records) + sum(1 for rec in records if rec.generators)
    for path in opened:
        name = path.relative_to(package).as_posix()
        assert any(fnmatch(name, glob) for glob in globs), name
