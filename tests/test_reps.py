"""The representation oracle: radicals, socles, covers, syzygies, hom
spaces and isomorphism testing."""

import random

import pytest

from helpers import is_intertwiner, morphisms_equal
from extline.fields import field_for_characteristic
from extline import linalg, reps, strings

F2 = field_for_characteristic(2)
F0 = field_for_characteristic(0)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (3, 2)])
def test_span_that_is_not_arrow_stable_is_rejected(n, i, char):
    F = field_for_characteristic(char)
    P = reps.projective_rep(n, F, i)
    # the head vector alone: the arrows carry it out of its span
    with pytest.raises(ValueError, match="not arrow-stable"):
        reps._submodule(P, {i: [[F.one, F.zero]]})


def test_radical_of_simple_is_zero():
    assert reps.radical(reps.simple_rep(3, F2, 2)).total_dim == 0


def test_radical_of_projective_n2():
    rad = reps.radical(reps.projective_rep(2, F2, 1))
    assert rad.dims == (1, 1)
    # uniserial: its own radical is the socle
    assert reps.radical(rad).dims == (1, 0)


@pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_loewy_length_at_most_three(n, i):
    P = reps.projective_rep(n, F2, i)
    assert reps.radical(reps.radical(reps.radical(P))).total_dim == 0


def test_head_and_socle_of_projectives():
    for n in (1, 2, 3, 5):
        for i in range(1, n + 1):
            P = reps.projective_rep(n, F0, i)
            assert reps.head(P) == {i: 1}
            assert reps.socle(P) == {i: 1}


def test_head_of_string_module():
    lab = strings.normalize_x(3, (1, 3))
    M = strings.realize_x(3, F2, lab)
    assert reps.head(M) == {1: 1, 3: 1}
    assert reps.socle(M) == {2: 1}


def test_head_of_zero_module_is_empty():
    assert reps.head(reps.zero_rep(3, F2)) == {}
    assert reps.socle(reps.zero_rep(3, F2)) == {}


def test_hom_space_between_simples():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            d = len(reps.hom_space(reps.simple_rep(3, F2, i), reps.simple_rep(3, F2, j)))
            assert d == (1 if i == j else 0)


def test_head_criterion_via_hom_to_simples():
    lab = strings.normalize_x(4, (1, 3))
    M = strings.realize_x(4, F2, lab)
    head, _, _ = strings.structure_of(4, lab)
    for l in range(1, 5):
        d = len(reps.hom_space(M, reps.simple_rep(4, F2, l)))
        assert d == (1 if l in head else 0)


def test_projective_cover_of_simple():
    cov = reps.projective_cover(reps.simple_rep(3, F2, 2))
    assert cov.cover_vertices == [2]
    rad = reps.radical(reps.projective_rep(3, F2, 2))
    assert reps.is_isomorphic(cov.kernel, rad)


def test_projective_cover_is_minimal():
    # kernel sits inside the radical of the cover
    lab = strings.normalize_x(3, (1, 3))
    M = strings.realize_x(3, F2, lab)
    cov = reps.projective_cover(M)
    assert sorted(cov.cover_vertices) == [1, 3]
    rad = reps.radical_span(cov.cover)
    for v in range(1, 4):
        ker_cols = [
            [cov.inclusion.block(v)[r][c] for r in range(cov.cover.dim(v))]
            for c in range(cov.kernel.dim(v))
        ]
        for vec in ker_cols:
            assert linalg.rank(F2, rad[v] + [vec]) == linalg.rank(F2, rad[v])


def test_cover_kernel_of_first_syzygy_n2():
    # head of rad P_1 is S_2, so the cover is P_2; the kernel is the socle
    # of P_2, i.e. S_2 again (consistent with the second syzygy of S_1)
    S1 = reps.simple_rep(2, F2, 1)
    omega = reps.syzygy(S1)
    cov = reps.projective_cover(omega)
    assert cov.cover_vertices == [2]
    assert cov.kernel.dims == (0, 1)
    assert reps.is_isomorphic(cov.kernel, reps.simple_rep(2, F2, 2))


def test_cover_example_matches_string_label():
    # the kernel of the cover of the (1,3)-string is the lower (1,3)-string
    lab = strings.normalize_x(3, (1, 3))
    M = strings.realize_x(3, F2, lab)
    cov = reps.projective_cover(M)
    lower = strings.realize_x(3, F2, (0, -2))
    assert cov.kernel.dims == lower.dims
    assert reps.is_isomorphic(cov.kernel, lower)


def _syzygy_power(M, k):
    for _ in range(k):
        M = reps.syzygy(M)
    return M


def test_syzygy_squared_n2():
    S1 = reps.simple_rep(2, F2, 1)
    assert reps.is_isomorphic(_syzygy_power(S1, 2), reps.simple_rep(2, F2, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_syzygy_periodicity(n):
    for i in range(1, n + 1):
        S = reps.simple_rep(n, F2, i)
        half = _syzygy_power(S, n)
        assert reps.is_isomorphic(half, reps.simple_rep(n, F2, n + 1 - i))
        full = _syzygy_power(half, n)
        assert reps.is_isomorphic(full, S)


def test_cover_dimension_bookkeeping():
    lab = strings.normalize_x(4, (2, 4))
    M = strings.realize_x(4, F2, lab)
    cov = reps.projective_cover(M)
    for v in range(1, 5):
        assert cov.kernel.dim(v) + M.dim(v) == cov.cover.dim(v)
    assert reps.head(cov.cover) == reps.head(M)


def test_operations_return_valid_modules():
    lab = strings.normalize_x(4, (0, 4))
    M = strings.realize_x(4, F0, lab)
    for rep in (reps.radical(M), reps.syzygy(M), reps.projective_cover(M).cover):
        assert reps.check_relations(rep) == []


def test_is_isomorphic_basics():
    M = reps.projective_rep(3, F2, 2)
    assert reps.is_isomorphic(M, M)
    assert not reps.is_isomorphic(reps.simple_rep(3, F2, 1), reps.simple_rep(3, F2, 2))


def test_iso_witness_is_invertible_intertwiner():
    lab = strings.normalize_x(3, (1, 3))
    M = strings.realize_x(3, F0, lab)
    om = reps.syzygy(M)
    expected = strings.realize_x(3, F0, strings.syzygy_label(3, lab))
    w = reps.iso_witness(om, expected)
    assert w is not None and w.is_invertible() and is_intertwiner(w)


def _random_invertible(rng, F, d):
    while True:
        g = [[F.from_int(rng.randrange(-3, 4)) for _ in range(d)] for _ in range(d)]
        if linalg.rank(F, g) == d:
            return g


def _transport(rng, M):
    """M under a random invertible change of basis at every vertex."""
    F = M.field
    arrows = {}
    g = {v: _random_invertible(rng, F, M.dim(v)) for v in range(1, M.n + 1)}
    g_inv = {}
    for v, gv in g.items():
        # rref of [g | 1] is [1 | g^-1]
        d = len(gv)
        R, _ = linalg.rref(F, [row + unit for row, unit in zip(gv, linalg.identity_matrix(F, d))])
        g_inv[v] = [row[d:] for row in R]
    for key in reps.arrow_keys(M.n):
        s, t = reps.arrow_endpoints(M.n, key)
        moved = linalg.mat_mul(F, g[t], M.arrow(key), out_cols=M.dim(s))
        arrows[key] = linalg.mat_mul(F, moved, g_inv[s], out_cols=M.dim(s))
    return reps.make_rep(M.n, F, M.dims, arrows)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_iso_decision_after_change_of_basis(char):
    # every indecomposable (canonical strings and projectives, whose head
    # vertex carries a 2-dimensional space) is moved off its coordinate
    # basis, so the Hom bases the decision scans are not diagonal
    F = field_for_characteristic(char)
    rng = random.Random(1000 + char)
    for n in range(1, 5):
        mods = [(lab, strings.realize_x(n, F, lab)) for lab in strings.canonical_labels(n)]
        mods += [(("P", i), reps.projective_rep(n, F, i)) for i in range(1, n + 1)]
        for la, A in mods:
            moved = _transport(rng, A)
            assert reps.check_relations(moved) == []
            for lb, B in mods:
                w = reps.iso_witness(moved, B)
                assert (w is not None) == (la == lb), (n, la, lb)
                if w is not None:
                    assert w.is_invertible() and is_intertwiner(w)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_cover_surjection_is_onto_with_kernel_inside(char):
    # every canonical string and projective, on its coordinate basis and
    # moved off it, so M's arrows are not aligned with its layers
    F = field_for_characteristic(char)
    rng = random.Random(2000 + char)
    for n in range(1, 6):
        mods = [strings.realize_x(n, F, lab) for lab in strings.canonical_labels(n)]
        mods += [reps.projective_rep(n, F, i) for i in range(1, n + 1)]
        for M in mods + [_transport(rng, M) for M in mods]:
            cov = reps.projective_cover(M)
            pi = cov.surjection
            assert is_intertwiner(pi)
            for v in range(1, n + 1):
                assert linalg.rank(F, pi.block(v)) == M.dim(v)
                assert cov.kernel.dim(v) + M.dim(v) == cov.cover.dim(v)
            assert pi.compose(cov.inclusion).is_zero()


def test_invalid_module_rejected():
    # a length-2 like-oriented composite that does not vanish
    bad = reps.make_rep(
        3,
        F2,
        [1, 1, 1],
        {("a", 1): [[1]], ("a", 2): [[1]]},
    )
    assert reps.check_relations(bad)
    with pytest.raises(ValueError):
        reps.radical(bad)


# ------------------------------------------------ support-local storage

CHARS = [0, 2, 3, 5]


def _cut_p3(F, keep_left):
    """P_3 at N = 5 with one side of its loop cut off: zero at vertices 1
    and 5, and its loop relation at vertex 3 fails."""
    if keep_left:  # b_3 dropped: a_2 b_2 reaches the socle, b_3 a_3 does not
        return reps.make_rep(5, F, (0, 1, 2, 1, 0), {
            ("b", 2): [[F.one, F.zero]], ("a", 2): [[F.zero], [F.one]],
            ("a", 3): [[F.one, F.zero]]})
    # vertex 2 zero: only b_3 a_3 is stored, and it reaches the socle
    return reps.make_rep(5, F, (0, 0, 2, 1, 0), {
        ("a", 3): [[F.one, F.zero]], ("b", 3): [[F.zero], [F.one]]})


@pytest.mark.parametrize("char", CHARS)
def test_arrows_and_blocks_outside_the_support_read_as_zero(char):
    F = field_for_characteristic(char)
    n = 5
    mods = [reps.projective_rep(n, F, i) for i in range(1, n + 1)]
    mods += [strings.realize_x(n, F, lab) for lab in strings.canonical_labels(n)]
    for M in mods:
        for key in reps.arrow_keys(n):
            s, t = reps.arrow_endpoints(n, key)
            A = M.arrow(key)
            assert len(A) == M.dim(t) and all(len(row) == M.dim(s) for row in A)
            if key in M.arrows:
                assert M.dim(s) and M.dim(t)
            else:  # outside the support, or a zero map the module never set
                assert linalg.is_zero_mat(A)
    P2, P4 = reps.projective_rep(n, F, 2), reps.projective_rep(n, F, 4)
    phi = reps.zero_morphism(P2, P4)
    assert list(phi.blocks) == [3]  # the only vertex where both are nonzero
    for v in range(1, n + 1):
        B = phi.block(v)
        assert len(B) == P4.dim(v) and all(len(row) == P2.dim(v) for row in B)
        assert linalg.is_zero_mat(B)
    empty = reps.RepMorphism(P2, P2, {})
    assert empty.block(2) == linalg.zeros(F, 2, 2)


@pytest.mark.parametrize("char", CHARS)
def test_make_rep_still_rejects_wrong_shapes(char):
    F = field_for_characteristic(char)
    with pytest.raises(ValueError, match="wrong shape"):
        reps.make_rep(3, F, (1, 1, 1), {("a", 1): [[F.one, F.zero]]})
    # a nonzero 1x1 matrix on an arrow into, or out of, a zero space
    with pytest.raises(ValueError, match="wrong shape"):
        reps.make_rep(3, F, (1, 0, 1), {("a", 1): [[F.one]]})
    with pytest.raises(ValueError, match="wrong shape"):
        reps.make_rep(3, F, (0, 1, 1), {("a", 1): [[F.one]]})
    with pytest.raises(ValueError, match="no arrow"):
        reps.make_rep(3, F, (1, 1, 1), {("a", 3): [[F.one]]})
    # the right empty shapes are accepted, and not stored
    M = reps.make_rep(3, F, (0, 1, 1), {("a", 1): [[]], ("b", 1): []})
    assert M.arrows == {}


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("keep_left", [True, False])
def test_loop_relation_checked_on_a_module_zero_at_the_ends(char, keep_left):
    F = field_for_characteristic(char)
    assert reps.check_relations(reps.projective_rep(5, F, 3)) == []
    assert reps.check_relations(_cut_p3(F, keep_left)) == ["loops at vertex 3 disagree"]


@pytest.mark.parametrize("char", CHARS)
def test_hom_space_at_n1_where_both_terms_meet_in_one_unknown(char):
    # at N = 1 both sides of T x = x T read the one block of unknowns; a
    # loop with a nonzero diagonal puts both terms of an equation in one
    # unknown, so they must accumulate
    F = field_for_characteristic(char)
    one, minus = F.one, F.from_int(-1)
    P, S = reps.projective_rep(1, F, 1), reps.simple_rep(1, F, 1)
    Q = reps.make_rep(1, F, [2], {("x", 1): [[one, one], [minus, minus]]})  # P_1, another basis
    assert not reps.check_relations(Q)
    for M, N, dim in [(P, P, 2), (S, P, 1), (P, S, 1), (Q, Q, 2), (P, Q, 2), (Q, P, 2)]:
        basis = reps.hom_space(M, N)
        assert len(basis) == dim, (M, N)
        assert all(is_intertwiner(phi) for phi in basis)
    assert reps.is_isomorphic(Q, P) and reps.is_isomorphic(P, Q)


@pytest.mark.parametrize("char", CHARS)
def test_disjoint_supports_and_absent_blocks(char):
    F = field_for_characteristic(char)
    n = 5
    P1, P4 = reps.projective_rep(n, F, 1), reps.projective_rep(n, F, 4)
    S5 = reps.simple_rep(n, F, 5)
    for M, N in [(P1, P4), (P4, P1), (P1, S5), (S5, P1)]:
        assert reps.hom_space(M, N) == []
    P3 = reps.projective_rep(n, F, 3)
    # S_3 has no arrows, so only P_3's arrows cut Hom down to the socle and the head
    S3 = reps.simple_rep(n, F, 3)
    assert len(reps.hom_space(S3, P3)) == len(reps.hom_space(P3, S3)) == 1
    none = reps.RepMorphism(P3, P3, {})
    assert none.is_zero() and is_intertwiner(none)
    assert morphisms_equal(none, reps.zero_morphism(P3, P3))
    assert morphisms_equal(reps.zero_morphism(P3, P3), none)
    ident = reps.identity_morphism(P3)
    assert not morphisms_equal(none, ident) and not morphisms_equal(ident, none)
    assert not none.is_invertible()
    # identity at vertex 3 only: equal to the same map with explicit zero blocks
    part = reps.RepMorphism(P3, P3, {3: ident.block(3)})
    padded = reps.zero_morphism(P3, P3)
    padded.blocks[3] = ident.block(3)
    assert morphisms_equal(part, padded) and morphisms_equal(padded, part)
    assert not part.is_zero() and not morphisms_equal(part, ident)
