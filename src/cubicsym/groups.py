"""Finitely generated finite matrix groups over Q(zeta_N).

Closure is a breadth-first product closure that tells elements apart by
their images in GL(m, F_p), under the map zeta_N -> r of
`cyclo.modular_embedding`, and checks every product exactly.  Each stored
element is an exact product, and for every stored a and generator g the
exact a*g is compared with the stored element of its image; a mismatch is a
ValueError.  So the stored set holds I and is closed under right
multiplication by the generators, each of which permutes it: it is the
generated group, which is therefore finite, and its elements have distinct
images.  A generator with p in a denominator has no image, and closure moves
to the next prime below.  A finite group never trips the check: p = 1
(mod N) is unramified and p >= 3, so by Minkowski's lemma the kernel of
GL(m, O_P) -> GL(m, F_p) is torsion-free (O_P the integers of Q(zeta_N)
localized at the prime P above p); a finite G meets it trivially, so
elements of G with the same image are equal.  The element order is the
deterministic BFS insertion order for the given generator list.
"""

from __future__ import annotations

from typing import Sequence

from .cyclo import CycNum, common_conductor, modular_embedding
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


def _modular_images(gens: Sequence[CycMatrix], n: int) -> tuple[np.ndarray, int]:
    """Images of the generators mod the largest prime p = 1 (mod n) below
    2^31 that divides none of their denominators, as an int64 (k, m, m) array."""
    import numpy as np
    emb = modular_embedding(n)
    while True:
        images = [[emb(c) for row in g.rows for c in row] for g in gens]
        if all(v is not None for img in images for v in img):
            m = gens[0].dim
            return np.array(images, dtype=np.int64).reshape(len(gens), m, m), emb.p
        emb = modular_embedding(n, emb.p)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for a stack a of shape (k, m, m); entries stay below p < 2^31,
    so each partial sum stays below p + p^2 < 2^63."""
    import numpy as np
    out = np.zeros_like(a)
    for j in range(b.shape[0]):
        out += a[:, :, j, None] * b[j]
        out %= p
    return out


def closure(gens: Sequence[CycMatrix], cap: int = DEFAULT_CAP) -> MatGroup:
    """Materialize the generated group; raises CapExceeded past the cap and
    ValueError when the group is infinite (see the module docstring).

    The breadth-first search runs on images mod p and keys each element by
    its image's bytes.  The exact side shares values: each distinct entry is
    one CycNum and each distinct row one tuple.  Row i of a*g is (row i of
    a)*g, so each distinct row is multiplied by each generator once, and
    every product a*g, new or seen, is formed from those rows; a seen one is
    compared with the stored element row by row, which is an identity check.
    [[1, p], [0, 1]] reduces to I mod p and fails that check; a failed check
    raises once the search ends, so a cap reached first still wins.
    """
    import numpy as np
    if cap < 1:
        raise ValueError(f"the cap must be at least 1, got {cap}")
    group = MatGroup(gens)
    for g in group.generators:
        if g.det().is_zero():
            raise ValueError("generators must be invertible")
    images, p = _modular_images(group.generators, group.conductor)
    n = group.conductor
    zero = CycNum.zero(n)
    values, rows = {}, {}  # the shared object of each distinct entry and row
    caches = [{} for _ in group.generators]  # per generator g: id(row) -> row * g

    def share(row) -> tuple:
        row = tuple(values.setdefault(c, c) for c in row)
        return rows.setdefault(row, row)

    def times(row: tuple, g: CycMatrix, cache: dict) -> tuple:
        out = cache.get(id(row))
        if out is None:
            out = cache[id(row)] = share(_row_times(row, g.rows, zero))
        return out

    ident = CycMatrix._of(tuple(map(share, CycMatrix.identity(group.dimension, n).rows)), n)
    one = np.eye(group.dimension, dtype=np.int64)
    seen = {one.tobytes(): ident.rows}
    ordered, frontier, frontier_images, closed = [ident], [ident], one[None], True
    while frontier:
        nxt, nxt_images = [], []
        products = [_matmul_mod(frontier_images, h, p) for h in images]
        for i, a in enumerate(frontier):
            for g, cache, prod in zip(group.generators, caches, products):
                exact = tuple(times(r, g, cache) for r in a.rows)
                b = prod[i]
                key = b.tobytes()
                known = seen.get(key)
                if known is None:
                    seen[key] = exact
                    x = CycMatrix._of(exact, n)
                    ordered.append(x)
                    nxt.append(x)
                    nxt_images.append(b)
                    if len(ordered) > cap:
                        raise CapExceeded(len(ordered))
                elif exact != known:  # shared rows: equal rows are identical
                    closed = False
        frontier = nxt
        frontier_images = np.array(nxt_images)
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
