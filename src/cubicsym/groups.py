"""Finitely generated finite matrix groups over Q(zeta_N).

Closure is a breadth-first product closure that tells elements apart by
their images in GL(m, F_p), under the map zeta_N -> r of
`cyclo.modular_embedding`, and forms one exact product per new element.
That is exact, not a heuristic.  p = 1 (mod N) is unramified and p >= 3, so
by Minkowski's lemma the kernel of GL(m, O_P) -> GL(m, F_p) is torsion-free
(O_P the integers of Q(zeta_N) localized at the prime P above p).  A finite
G whose generator entries have denominators prime to p lies in GL(m, O_P)
and meets that kernel trivially, so reduction is injective on G: two
products with the same image are the same element.  A generator with p in a
denominator has no image, and closure moves to the next prime below.  The
element order is the deterministic BFS insertion order for the given
generator list.
"""

from __future__ import annotations

from typing import Sequence

from .cyclo import common_conductor, modular_embedding
from .forms import CycMatrix

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
    """Materialize the generated finite group; raises CapExceeded past the cap.

    The breadth-first search runs on images mod p (see the module docstring)
    and keys each element by its image's bytes; only a new element gets its
    exact matrix, as its parent times the generator.  The group must be
    finite: an infinite one is cut down to its image mod p, as
    [[1, p], [0, 1]], which closes to the identity alone.
    """
    import numpy as np
    if cap < 1:
        raise ValueError(f"the cap must be at least 1, got {cap}")
    group = MatGroup(gens)
    for g in group.generators:
        if g.det().is_zero():
            raise ValueError("generators must be invertible")
    images, p = _modular_images(group.generators, group.conductor)
    ident = CycMatrix.identity(group.dimension, group.conductor)
    one = np.eye(group.dimension, dtype=np.int64)
    seen = {one.tobytes()}
    ordered = [ident]
    frontier = [ident]
    frontier_images = one[None]
    while frontier:
        nxt, nxt_images = [], []
        products = [_matmul_mod(frontier_images, h, p) for h in images]
        for i, a in enumerate(frontier):
            for g, prod in zip(group.generators, products):
                b = prod[i]
                key = b.tobytes()
                if key not in seen:
                    seen.add(key)
                    x = a * g
                    ordered.append(x)
                    nxt.append(x)
                    nxt_images.append(b)
                    if len(ordered) > cap:
                        raise CapExceeded(len(ordered))
        frontier = nxt
        frontier_images = np.array(nxt_images)
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
