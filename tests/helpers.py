"""Cross-checks that only the tests call: Hom modulo homotopy as a
linear-algebra computation (against the combinatorial table), the
intertwiner test of an oracle morphism, equality of oracle morphisms,
and equality of row spans."""

from extline import linalg
from extline.homs import ID_SLOT, LineAlgebra
from extline.linalg import LinearSystem
from extline.reps import RepMorphism, arrow_endpoints
from extline.resolutions import build_resolution
from extline.yoneda import _solve_family


def span_equal(field, rows_a, rows_b) -> bool:
    """Whether two lists of row vectors span the same space."""
    ra = linalg.rank(field, rows_a) if rows_a else 0
    rb = linalg.rank(field, rows_b) if rows_b else 0
    if ra != rb:
        return False
    if ra == 0:
        return True
    return linalg.rank(field, list(rows_a) + list(rows_b)) == ra


def morphisms_equal(phi: RepMorphism, psi: RepMorphism) -> bool:
    """Whether two oracle morphisms agree blockwise (an absent block is zero)."""
    F = phi.source.field
    return all(
        linalg.mat_eq(F, phi.block(v), psi.block(v))
        for v in phi.blocks.keys() | psi.blocks.keys()
    )


def is_intertwiner(phi: RepMorphism) -> bool:
    """Whether phi commutes with every arrow of its source and target."""
    F = phi.source.field
    for key in phi.source.arrows.keys() | phi.target.arrows.keys():
        s, t = arrow_endpoints(phi.source.n, key)
        cols = phi.source.dim(s)
        lhs = linalg.mat_mul(F, phi.block(t), phi.source.arrow(key), out_cols=cols)
        rhs = linalg.mat_mul(F, phi.target.arrow(key), phi.block(s), out_cols=cols)
        if not linalg.mat_eq(F, lhs, rhs):
            return False
    return True


def ext_class_dimension(alg: LineAlgebra, i: int, j: int, k: int) -> int:
    """dim Hom modulo homotopy of shift-k maps R_i -> R_j, computed as the
    rank of the induced-cocycle readout on the space of eventually
    periodic chain maps.

    The readout identifies homotopic maps and nothing more (minimality),
    so this is the Ext dimension provided every cocycle lifts to a
    periodic chain map; agreement with the combinatorial table is exactly
    what the test suite certifies.
    """
    source = build_resolution(alg, i)
    target = build_resolution(alg, j)
    # ansatz: components repeat from k+1 on
    _, system, index = _solve_family(source, target, k, k + 1, source.period, -1)
    head_vars = [
        index[(k, 0, c, ID_SLOT)]
        for c, s in enumerate(source.term(k))
        if s == j
    ]
    readout = LinearSystem(alg.field, len(head_vars))
    for vec in system.nullspace_basis():
        readout.add_equation({pos: vec[v] for pos, v in enumerate(head_vars)}, alg.field.zero)
    return readout.rank
