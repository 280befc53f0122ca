"""Invariant forms under matrix groups, the symplectic character of a cubic fourfold,
and the block-matrix covering construction."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

from .cyclo import CycNum, common_conductor, multiplicative_order, zeta
from .forms import CycMatrix, Form, apply, hat, monomials, semi_invariance_factor
from .groups import MatGroup, projective_order
from .linalg import nullspace


@dataclass(frozen=True)
class InvariantSpace:
    nvars: int
    degree: int
    conductor: int
    basis: tuple[Form, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def invariant_forms(gens: Sequence[CycMatrix], degree: int) -> InvariantSpace:
    """Basis (reduced echelon over the monomial coordinates, leading coefficient 1)
    of {F : A(F) = F for every generator A}."""
    if not gens:
        raise ValueError("need at least one matrix")
    n = common_conductor(*(g.conductor for g in gens))
    m = gens[0].dim
    if any(g.dim != m for g in gens):
        raise ValueError("matrices must share one dimension")
    basis_monos = monomials(m, degree)
    index = {e: i for i, e in enumerate(basis_monos)}
    rows: list[dict[int, CycNum]] = []
    one = CycNum.one(n)
    for g in gens:
        gl = g.lift(n)
        action_rows: dict[int, dict[int, CycNum]] = {}
        for j, e in enumerate(basis_monos):
            image = apply(gl, Form(m, degree, n, {e: one}))
            for ee, c in image.terms.items():
                action_rows.setdefault(index[ee], {})[j] = c
        # invertible generators give action matrices without zero rows
        for i, row in action_rows.items():
            r = dict(row)
            r[i] = r[i] - one if i in r else -one
            r = {k: v for k, v in r.items() if not v.is_zero()}
            if r:
                rows.append(r)
    vectors = nullspace(rows, len(basis_monos), n)
    forms = []
    for vec in vectors:
        terms = {basis_monos[i]: c for i, c in vec.items()}
        forms.append(Form(m, degree, n, terms))
    forms.sort(key=lambda f: min(index[e] for e in f.terms))
    return InvariantSpace(m, degree, n, tuple(forms))


def reynolds_average(group: MatGroup, f: Form) -> Form:
    """Group average (1/|G|) sum_A A(F); projects onto the invariant space."""
    if not group.materialized():
        raise ValueError("group not materialized")
    from fractions import Fraction

    n = common_conductor(group.conductor, f.conductor)
    total = Form(f.nvars, f.degree, n, {})
    for a in group.elements:
        total = total + apply(a, f)
    return total.scale(Fraction(1, group.order))


def _factor_and_character(a: CycMatrix, f: Form) -> tuple[CycNum, CycNum]:
    """(lambda, chi(A)) for A(F) = lambda*F; raises unless F is a cubic
    fourfold and lambda a root of unity."""
    if f.nvars != 6 or f.degree != 3:
        raise ValueError("symplectic criterion applies to cubic fourfolds")
    lam = semi_invariance_factor(a, f)
    if lam is None:
        raise ValueError("matrix does not preserve the form up to scalar")
    # the roots of unity in Q(zeta_N) have orders dividing lcm(2, N)
    if not (lam ** lcm(2, lam.conductor)).is_one():
        raise ValueError("matrix has infinite order: lambda is not a root of unity")
    n = common_conductor(a.conductor, lam.conductor)
    return lam, a.lift(n).det() / (lam ** 2).embed(n)


def symplectic_character(a: CycMatrix, f: Form) -> CycNum:
    """chi(A) = det(A) / lambda^2, where A(F) = lambda*F, for a cubic fourfold F.

    chi is a homomorphism to the roots of unity. Scaling A by c multiplies
    det(A) by c^6 and lambda by c^3, so chi(cA) = chi(A) and chi factors
    through the projective image: [A] acts symplectically iff chi(A) = 1.
    """
    return _factor_and_character(a, f)[1]


def is_symplectic(a: CycMatrix, f: Form) -> bool:
    """Whether [A] acts symplectically: chi(A) = 1."""
    return symplectic_character(a, f).is_one()


def symplectic_order(group: MatGroup, f: Form) -> int:
    """Order of the symplectic part of the induced projective action on a cubic
    fourfold (6 variables, degree 3): the kernel of chi on pi(G). The image of
    chi is cyclic and generated by the chi(g_i), so its order is the lcm of
    their orders."""
    if not group.materialized():
        raise ValueError("group not materialized")
    image = 1
    for g in group.generators:
        k = multiplicative_order(symplectic_character(g, f))
        if k is None:
            raise ValueError("symplectic character has unreasonably large order")
        image = lcm(image, k)
    return projective_order(group) // image


def f_lifting_exists(m: int, d: int) -> bool:
    """Whether every smooth degree-d form in m variables admits a lifting of its
    full automorphism group fixing the form."""
    if m < 3 or d < 3 or (m, d) in ((3, 3), (4, 4)):
        raise ValueError("pair (m, d) outside the covered range")
    return gcd(d, m) == 1


def _block_lift(a: CycMatrix, corner: CycNum) -> CycMatrix:
    n = common_conductor(a.conductor, corner.conductor)
    al = a.lift(n)
    m = a.dim
    zero = CycNum.zero(n)
    rows = [list(al.rows[i]) + [zero] for i in range(m)]
    rows.append([zero] * m + [corner.embed(n)])
    return CycMatrix(rows, n)


def covering_lift(gens: Sequence[CycMatrix], d: int,
                  form: Form | None = None) -> list[CycMatrix]:
    """Generators on m+1 variables fixing hat(F) exactly: block lifts diag(A, 1)
    plus the distinguished scalar-block element diag(zeta_d I_m, 1).

    When the form is supplied, generators fixing it only up to a scalar of order
    dividing d are rescaled (inside the d^2-th roots of unity) to fix it exactly.
    """
    if not gens:
        raise ValueError("need at least one generator")
    m = gens[0].dim
    out = []
    for a in gens:
        if form is not None:
            lam = semi_invariance_factor(a, form)
            if lam is None:
                raise ValueError("generator does not preserve the form up to scalar")
            if not (lam ** d).is_one():
                raise ValueError("semi-invariance factor order does not divide d")
            if not lam.is_one():
                big = common_conductor(lam.conductor, d * d)
                k = next(k for k in range(d)
                         if lam.embed(big) == zeta(big, (big // d) * k))
                mu = zeta(d * d, (-k) % (d * d))
                a = CycMatrix.scalar(m, mu.embed(common_conductor(a.conductor, d * d))) \
                    * a.lift(common_conductor(a.conductor, d * d))
        out.append(_block_lift(a, CycNum.one(a.conductor)))
    n = common_conductor(d, *(g.conductor for g in gens))
    scalar_block = _block_lift(CycMatrix.scalar(m, zeta(d).embed(common_conductor(n, d))),
                               CycNum.one(1))
    out.append(scalar_block)
    return out
