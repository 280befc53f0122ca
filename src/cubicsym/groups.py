"""Finitely generated finite matrix groups over Q(zeta_N).

Closure is a breadth-first product closure on exact elements, run as a
permutation action: row i of a*g is (row i of a)*g, so the group acts on the
orbit of the rows e_i*a, and each generator is a table from row id to the
id of row*g (Seress 2003, orbit algorithms).  An element is the tuple of its
m row ids, and a*g is read off the tables, so whether a product is new is
decided exactly.  Each new element also gets its image in GL(m, F_p), under
the map zeta_N -> r of `cyclo.modular_embedding`.  A new element whose image
was seen is not stored, and makes the closure a ValueError once the search
ends; so the stored images are distinct, and the search ends.  When no image
repeats, the stored set holds I and is closed under right multiplication by
the generators, each of which permutes it: it is the generated group, which
is therefore finite.  A generator with p in a denominator has no image, and
closure moves to the next prime below.  A finite group never repeats an
image: p = 1 (mod N) is unramified and p >= 3, so by Minkowski's lemma the
kernel of GL(m, O_P) -> GL(m, F_p) is torsion-free (O_P the integers of
Q(zeta_N) localized at the prime P above p), and a finite G meets it
trivially.  The element order is the deterministic BFS insertion order for
the given generator list.
"""

from __future__ import annotations

from typing import Sequence

from .cyclo import CycNum, ModularEmbedding, common_conductor, modular_embedding
from .forms import CycMatrix, _row_times

DEFAULT_CAP = 300_000


class CapExceeded(Exception):
    def __init__(self, count: int):
        super().__init__(f"group closure exceeded cap with {count} elements found")
        self.count = count


class MatGroup:
    """Subgroup of GL(m, Q(zeta_N)) given by generators, optionally materialized."""

    __slots__ = ("dimension", "conductor", "generators", "elements")

    def __init__(self, generators: Sequence[CycMatrix],
                 elements: tuple[CycMatrix, ...] | None = None):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = common_conductor(*(g.conductor for g in gens))
        gens = [g.lift(n) for g in gens]
        m = gens[0].dim
        if any(g.dim != m for g in gens):
            raise ValueError("generators must share one dimension")
        self.dimension = m
        self.conductor = n
        self.generators = tuple(gens)
        self.elements = elements

    @property
    def order(self) -> int:
        if self.elements is None:
            raise ValueError("group not materialized; run closure first")
        return len(self.elements)

    def materialized(self) -> bool:
        return self.elements is not None

    def encode(self) -> str:
        parts = [f"group {self.dimension} {self.conductor} {len(self.generators)}"]
        parts.extend(g.encode().rstrip("\n") for g in self.generators)
        return "\n".join(parts) + "\n"

    @staticmethod
    def parse(text: str) -> "MatGroup":
        lines = text.splitlines()
        header = None
        for ln in lines:
            if ln.strip():
                header = ln.strip()
                break
        if header is None or not header.startswith("group"):
            raise ValueError("missing group header")
        _, m, n, k = header.split()
        m, n, k = int(m), int(n), int(k)
        blocks: list[list[str]] = []
        for ln in lines:
            s = ln.strip()
            if not s or s.startswith("group"):
                continue
            if s.startswith("matrix"):
                blocks.append([s])
            else:
                if not blocks:
                    raise ValueError("matrix row before matrix header")
                blocks[-1].append(s)
        if len(blocks) != k:
            raise ValueError(f"expected {k} matrices, found {len(blocks)}")
        gens = [CycMatrix.parse("\n".join(b)).lift(n) for b in blocks]
        if any(g.dim != m for g in gens):
            raise ValueError("matrix dimension disagrees with group header")
        return MatGroup(gens)


def _embedding(gens: Sequence[CycMatrix], n: int) -> ModularEmbedding:
    """The embedding mod the largest prime p = 1 (mod n) below 2^31 that
    divides none of the generators' denominators."""
    emb = modular_embedding(n)
    while any(emb(c) is None for g in gens for row in g.rows for c in row):
        emb = modular_embedding(n, emb.p)
    return emb


def closure(gens: Sequence[CycMatrix], cap: int = DEFAULT_CAP) -> MatGroup:
    """Materialize the generated group; raises CapExceeded past the cap and
    ValueError when the group is infinite (see the module docstring).

    Each distinct exact row gets an id when first seen, and its image mod p
    then; equal entries and rows are shared.  A generator's table is filled
    at the start of each BFS level for the rows known then, so each distinct
    row is multiplied by each generator once, and an infinite group never
    forces the whole row orbit.  Only a new element has its image key built,
    from its rows' image ids.  [[1, p], [0, 1]] has the image of I; a
    repeated image raises once the search ends, so a cap reached first wins.
    """
    if cap < 1:
        raise ValueError(f"the cap must be at least 1, got {cap}")
    group = MatGroup(gens)
    for g in group.generators:
        if g.det().is_zero():
            raise ValueError("generators must be invertible")
    n = group.conductor
    emb = _embedding(group.generators, n)
    zero = CycNum.zero(n)
    values, ids, images = {}, {}, {}  # shared entries; row -> id; image row -> id
    rows, row_images = [], []  # by row id: the shared row, its image's id

    def intern(row) -> int:
        row = tuple(values.setdefault(c, c) for c in row)
        i = ids.get(row)
        if i is None:
            i = ids[row] = len(rows)
            rows.append(row)
            row_images.append(images.setdefault(tuple(map(emb, row)), len(images)))
        return i

    def element(key: tuple) -> CycMatrix:
        return CycMatrix._of(tuple(map(rows.__getitem__, key)), n)

    ident = tuple(map(intern, CycMatrix.identity(group.dimension, n).rows))
    tables = [[] for _ in group.generators]  # per generator g: row id -> id of row*g
    seen, seen_images = {ident}, {tuple(map(row_images.__getitem__, ident))}
    ordered, frontier, closed = [element(ident)], [ident], True
    while frontier:
        known = len(rows)
        for g, table in zip(group.generators, tables):
            table.extend(intern(_row_times(rows[i], g.rows, zero))
                         for i in range(len(table), known))
        nxt = []
        for a in frontier:
            for table in tables:
                b = tuple(map(table.__getitem__, a))
                if b in seen:
                    continue
                image = tuple(map(row_images.__getitem__, b))
                if image in seen_images:  # two elements with one image
                    closed = False
                    continue
                seen.add(b)
                seen_images.add(image)
                ordered.append(element(b))
                nxt.append(b)
                if len(ordered) > cap:
                    raise CapExceeded(len(ordered))
        frontier = nxt
    if not closed:
        raise ValueError("the generated group is infinite: its closure mod p "
                         "is not closed under the generators")
    return MatGroup(group.generators, elements=tuple(ordered))


def scalar_elements(group: MatGroup) -> list[CycMatrix]:
    if not group.materialized():
        raise ValueError("group not materialized")
    return [a for a in group.elements if a.is_scalar()]


def scalar_subgroup(group: MatGroup) -> int:
    """Order of the subgroup of scalar matrices lambda*I inside the group."""
    return len(scalar_elements(group))


def projective_order(group: MatGroup) -> int:
    """|pi(G)| = |G| / |G intersect scalars|."""
    return group.order // scalar_subgroup(group)


def is_semi_permutation(group: MatGroup) -> bool:
    """Products of semi-permutation matrices stay semi-permutation, so the
    generators decide."""
    return all(g.is_semi_permutation() for g in group.generators)


def projective_classes(group: MatGroup) -> list[list[CycMatrix]]:
    """Partition of the elements into classes modulo the scalar subgroup."""
    scalars = scalar_elements(group)
    seen: set[CycMatrix] = set()
    classes = []
    for a in group.elements:
        if a in seen:
            continue
        cls = [s * a for s in scalars]
        seen.update(cls)
        classes.append(cls)
    return classes
