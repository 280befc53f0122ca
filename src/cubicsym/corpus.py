"""The shipped example corpus: cubic fivefolds X1..X20, cubic fourfolds
X1'..X15', their generator matrices, and expected group orders.

Each record is read, on first use, from the files shipped under
`data/examples`: `<stem>.form` holds the form and `<stem>.group`, when it
exists, the generators, lifted to one conductor.  The table below holds what
the files do not: the published orders, whether the generators cover only a
subgroup, and notes.  The files are the only source of the corpus; the test
suite builds every file again from the paper's printed data and compares.

Generators are the ones printed in the source material plus the
diagonal/permutation generators reconstructible from the stated group
structure; records whose full generator sets exist only in external ancillary
files are marked partial and carry whatever subgroup is reconstructible.
For records marked complete, the shipped generators generate a lifting of the
full projective group and fix the form exactly.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .forms import CycMatrix, Form
from .groups import MatGroup

DATA = Path(__file__).parent / "data" / "examples"

# id -> (projective order, closure order, symplectic order, partial, notes)
_TABLE: dict[str, tuple[int, int | None, int | None, bool, str]] = {
    "X1": (3674160, 3674160, None, False, "Fermat"),
    "X2": (69984, 69984, None, False, ""),
    "X3": (1296, 1296, None, False, ""),
    "X4": (19440, 19440, None, False, "hyperplane section of Fermat in 8 variables"),
    "X5": (288, 288, None, False, ""),
    "X6": (11880, 990, None, True, "PSL(2,11) part available only in ancillary files"),
    "X7": (23328, 23328, None, False, ""),
    "X8": (864, 864, None, False, ""),
    "X9": (12960, 12960, None, False, "hyperplane section plus Hesse block"),
    "X10": (96, 96, None, False, ""),
    "X11": (378, 378, None, False, ""),
    "X12": (2160, None, None, True, "C3.M10 generators live in ancillary files"),
    "X13": (15120, 15120, None, False, "hyperplane section of Fermat in 8 variables"),
    "X14": (96, 24, None, True, "non-semi-permutation part available only in ancillary files"),
    "X15": (1008, 1008, None, False, ""),
    "X16": (7560, None, None, False, ""),
    "X17": (144, 144, None, False, ""),
    "X18": (648, 648, None, False, ""),
    "X19": (64, 64, None, False, ""),
    "X20": (301, 301, None, False, "Klein"),
    "X1'": (174960, 524880, 29160, False, "Fermat fourfold"),
    "X2'": (5832, 17496, 486, False, ""),
    "X3'": (144, 144, 6, False, ""),
    "X4'": (2160, 2160, 360, False, ""),
    "X5'": (48, 48, 1, False, ""),
    "X6'": (1980, 165, None, True, "PSL(2,11) part available only in ancillary files"),
    "X7'": (7776, 23328, 1944, False, ""),
    "X8'": (32, 32, 1, False, ""),
    "X9'": (126, 378, 21, False, ""),
    "X10'": (720, None, 720, True, "M10 generators live in ancillary files"),
    "X11'": (5040, 5040, 2520, False, "hyperplane section of Fermat in 7 variables"),
    "X12'": (32, 24, None, True, "non-semi-permutation part available only in ancillary files"),
    "X13'": (336, 336, 168, False, ""),
    # the lower blocks of X17's and X18's generators: they generate the scalar
    # extensions C3 x GL(2,3) and C3 x (projective group)
    "X14'": (48, 144, 48, False, ""),
    "X15'": (216, 648, 72, False, ""),
}


class ExampleRecord(NamedTuple):
    id: str
    form: Form
    generators: tuple[CycMatrix, ...]
    projective_order: int               # the published group order
    closure_order: int | None           # linear order of the shipped generators
    symplectic_order: int | None        # fourfolds with full generators only
    partial: bool                       # shipped generators cover only a subgroup
    notes: str = ""


def stem(rid: str) -> str:
    """File stem of a record: X15' -> x15p."""
    return rid.replace("'", "p").lower()


def all_ids() -> list[str]:
    return list(_TABLE)


@lru_cache(maxsize=None)
def record(rid: str) -> ExampleRecord:
    if rid not in _TABLE:
        raise KeyError(f"unknown example id {rid!r}")
    form = Form.parse((DATA / f"{stem(rid)}.form").read_text())
    group = DATA / f"{stem(rid)}.group"
    gens = MatGroup.parse(group.read_text()).generators if group.exists() else ()
    return ExampleRecord(rid, form, gens, *_TABLE[rid])
