"""Morphism calculus between the projectives: composition table, counts,
and agreement with the concrete representation oracle."""

import pytest

from helpers import is_intertwiner, morphisms_equal, span_equal
from extline.fields import field_for_characteristic
from extline.homs import CompositionError, LineAlgebra, format_hom
from extline import linalg, reps

CHARS = [0, 2, 3, 5]


def algebra(n, char=0):
    return LineAlgebra(n, field_for_characteristic(char))


def all_generators(alg):
    """Every basis morphism of every Hom(P_i, P_j)."""
    return [b for i in range(1, alg.n + 1) for j in range(1, alg.n + 1) for b in alg.basis(i, j)]


def test_costep_after_step_is_loop():
    alg = algebra(3)
    out = alg.compose(alg.fstar_hom(1), alg.f_hom(1))
    assert out == alg.loop_hom(1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_step_after_costep_anticommutes(n):
    # f_i o f_i^* = -loop at i+1 away from the right end, +loop at the end
    alg = algebra(n)
    F = alg.field
    for i in range(1, n - 1):
        out = alg.compose(alg.f_hom(i), alg.fstar_hom(i))
        expected = alg.scale(F.from_int(-1 if i + 1 <= n - 1 else 1), alg.loop_hom(i + 1))
        assert out == expected
    out = alg.compose(alg.f_hom(n - 1), alg.fstar_hom(n - 1))
    assert out == alg.loop_hom(n)


def test_like_oriented_steps_vanish():
    alg = algebra(4)
    # cross-check in the oracle: the composite P_1 -> P_2 -> P_3 must be the
    # zero intertwiner because S_3 is not a composition factor of P_1
    assert alg.projective(1).dim(3) == 0
    sym = alg.compose(alg.f_hom(2), alg.f_hom(1))
    assert not sym
    conc = alg.realize(alg.f_hom(2)).compose(alg.realize(alg.f_hom(1)))
    assert conc.is_zero()


def test_composition_endpoint_mismatch_raises():
    alg = algebra(3)
    with pytest.raises(CompositionError):
        alg.compose(alg.f_hom(1), alg.f_hom(1))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hom_dimension_pattern_matches_oracle(n):
    alg = algebra(n, char=2)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected = 2 if i == j else (1 if abs(i - j) == 1 else 0)
            assert alg.hom_dimension(i, j) == expected
            oracle = len(reps.hom_space(alg.projective(i), alg.projective(j)))
            assert oracle == expected


def test_hom_dimension_range_check():
    alg = algebra(2)
    with pytest.raises(ValueError):
        alg.hom_dimension(0, 1)


def test_basis_count_is_4n_minus_2():
    for n in (1, 2, 3, 6, 8):
        alg = algebra(n)
        total = sum(
            alg.hom_dimension(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
        assert total == 4 * n - 2 == len(all_generators(alg))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_basis_names_follow_the_slot_order(n):
    alg = algebra(n, char=3)
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            names = [format_hom(alg, b) for b in alg.basis(s, t)]
            if s == t:
                assert names == [f"Id({s})", f"Loop({s})"]
            elif t == s + 1:
                assert names == [f"F({s})"]
            elif t == s - 1:
                assert names == [f"FStar({t})"]
            else:
                assert names == []


def test_projective_dimension_vectors():
    assert algebra(2).projective(1).dims == (2, 1)
    assert algebra(1).projective(1).dims == (2,)
    assert algebra(4).projective(2).dims == (1, 2, 1, 0)


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_realization_is_functorial(n, char):
    alg = algebra(n, char)
    gens = all_generators(alg)
    for g in gens:
        assert is_intertwiner(alg.realize(g))
        for h in gens:
            if h.target != g.source:
                continue
            lhs = alg.realize(alg.compose(g, h))
            rhs = alg.realize(g).compose(alg.realize(h))
            assert morphisms_equal(lhs, rhs), (g, h)


def flat(phi):
    """A morphism's blocks as one vector, vertex by vertex."""
    return [x for v in sorted(phi.blocks) for row in phi.blocks[v] for x in row]


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_realized_basis_is_an_oracle_hom_basis(n, char):
    # every (s, t): the realized basis of Hom(P_s, P_t) consists of
    # intertwiners, is independent and spans the oracle's Hom space, and
    # realizing respects composition with every basis morphism out of P_t
    alg = algebra(n, char)
    F = alg.field
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            realized = [alg.realize(h) for h in alg.basis(s, t)]
            assert all(is_intertwiner(phi) for phi in realized), (s, t)
            rows = [flat(phi) for phi in realized]
            assert linalg.rank(F, rows) == len(rows), (s, t)
            oracle = [flat(phi) for phi in reps.hom_space(alg.projective(s), alg.projective(t))]
            assert span_equal(F, rows, oracle), (s, t)
            for u in range(1, n + 1):
                for g in alg.basis(t, u):
                    for h, phi in zip(alg.basis(s, t), realized):
                        lhs = alg.realize(alg.compose(g, h))
                        assert morphisms_equal(lhs, alg.realize(g).compose(phi)), (s, t, u)


def test_realize_identity_and_loop():
    alg = algebra(3)
    ident = alg.realize(alg.identity_hom(2))
    assert morphisms_equal(ident, reps.identity_morphism(alg.projective(2)))
    loop = alg.realize(alg.loop_hom(2))
    image, _ = reps.image_subrep(loop)
    assert image.dims == reps.simple_rep(3, alg.field, 2).dims
    assert reps.socle(alg.projective(2)) == {2: 1}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sign_relation_at_interior_vertices(n):
    alg = algebra(n)
    for i in range(2, n):
        lhs = alg.compose(alg.fstar_hom(i), alg.f_hom(i))
        rhs = alg.compose(alg.f_hom(i - 1), alg.fstar_hom(i - 1))
        assert not alg.add(lhs, rhs)


@pytest.mark.parametrize("char", CHARS)
def test_associativity_on_all_generator_triples(char):
    alg = algebra(4, char)
    gens = all_generators(alg)
    for g in gens:
        for h in gens:
            if h.target != g.source:
                continue
            gh = alg.compose(g, h)
            for e in gens:
                if e.target != h.source:
                    continue
                he = alg.compose(h, e)
                left = alg.compose(gh, e)
                right = alg.compose(g, he)
                assert left == right


def test_n_equal_one_has_no_step_generators():
    alg = algebra(1)
    assert [format_hom(alg, b) for b in alg.basis(1, 1)] == ["Id(1)", "Loop(1)"]
    with pytest.raises(ValueError):
        alg.f_hom(1)
