"""Property tests of the sparse morphism calculus, and laziness of chain maps.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extline import strings
from extline.fields import field_for_characteristic
from extline.homs import HomElement, LineAlgebra
from extline.resolutions import (
    HomMatrix,
    build_resolution,
    hom_matrix_add,
    hom_matrix_compose,
    hom_matrix_equal,
    hom_matrix_scale,
    realize_hom_matrix,
)
from extline.yoneda import cached_generator, chain_head_class, compose

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("deterministic")

CHARS = (0, 2, 3, 5)


def algebra(n, char):
    return LineAlgebra(n, field_for_characteristic(char))


@st.composite
def canonical_sum(draw, n):
    a = draw(st.integers(-n, 3 * n))
    return strings.normalize_p(n, a, a + 2 * draw(st.integers(0, n)))


@st.composite
def scalar(draw, alg):
    v = draw(st.integers(-3, 3))
    if alg.field.characteristic == 0:
        return Fraction(v, draw(st.integers(1, 3)))
    return alg.field.from_int(v)


@st.composite
def hom_matrix(draw, alg, source, target):
    """A random matrix with about half its cells left empty.  Drawn cells
    are not normalized and may come out zero, which the constructor must
    drop."""
    cells = {}
    for r, t in enumerate(target.indices):
        for c, s in enumerate(source.indices):
            gens = alg.generators(s, t)
            if gens and draw(st.booleans()):
                cells[(r, c)] = HomElement(s, t, tuple(draw(scalar(alg)) for g in gens))
    return HomMatrix(source, target, cells)


@st.composite
def composable_triple(draw):
    """An algebra and matrices A, B, C with A o B o C defined."""
    alg = algebra(draw(st.integers(1, 5)), draw(st.sampled_from(CHARS)))
    sums = [draw(canonical_sum(alg.n)) for _ in range(4)]
    C = draw(hom_matrix(alg, sums[0], sums[1]))
    B = draw(hom_matrix(alg, sums[1], sums[2]))
    A = draw(hom_matrix(alg, sums[2], sums[3]))
    return alg, A, B, C


def no_zero_cells(alg, M):
    return all(not e.is_zero(alg.field) for e in M.cells.values())


@given(composable_triple())
def test_realized_composite_matches_oracle(data):
    alg, A, B, _ = data
    AB = hom_matrix_compose(alg, A, B)
    oracle = realize_hom_matrix(alg, A).compose(realize_hom_matrix(alg, B))
    assert realize_hom_matrix(alg, AB).equals(oracle)


@given(composable_triple())
def test_composition_is_associative(data):
    alg, A, B, C = data
    left = hom_matrix_compose(alg, hom_matrix_compose(alg, A, B), C)
    right = hom_matrix_compose(alg, A, hom_matrix_compose(alg, B, C))
    assert hom_matrix_equal(alg, left, right)


@given(composable_triple(), st.integers(-2, 2))
def test_no_stored_cell_is_zero(data, c):
    alg, A, B, _ = data
    F = alg.field
    for M in (A, B, hom_matrix_compose(alg, A, B), hom_matrix_scale(alg, F.from_int(c), A),
              hom_matrix_add(alg, A, hom_matrix_scale(alg, F.from_int(-1), A))):
        assert no_zero_cells(alg, M)
    assert not hom_matrix_add(alg, A, hom_matrix_scale(alg, F.from_int(-1), A)).cells
    assert not hom_matrix_scale(alg, F.zero, A).cells


@given(st.integers(1, 5), st.sampled_from(CHARS), st.data())
def test_square_of_differential_has_no_cells(n, char, data):
    alg = algebra(n, char)
    i = data.draw(st.integers(1, n))
    k = data.draw(st.integers(2, 6 * n))
    cx = build_resolution(alg, i)
    assert no_zero_cells(alg, cx.diff(k))
    assert hom_matrix_compose(alg, cx.diff(k - 1), cx.diff(k)).cells == {}


@given(composable_triple())
def test_entries_is_a_read_only_dense_view(data):
    alg, A, _, _ = data
    rows = A.entries
    assert len(rows) == len(A.target.indices)
    for r, row in enumerate(rows):
        assert len(row) == len(A.source.indices)
        for c, e in enumerate(row):
            assert (e.source, e.target) == (A.source.indices[c], A.target.indices[r])
            assert e is A.cells[(r, c)] if (r, c) in A.cells else e.is_zero(alg.field)
    if rows and rows[0]:
        with pytest.raises(TypeError):
            rows[0][0] = alg.zero_hom(A.source.indices[0], A.target.indices[0])
    with pytest.raises(AttributeError):
        A.entries = rows


# ------------------------------------------------------------------ laziness


@pytest.mark.parametrize("char", CHARS)
def test_product_builds_no_component_until_read(char):
    alg = algebra(4, char)
    p = compose(cached_generator(alg, "x", 2), cached_generator(alg, "x", 1))
    assert p.components == {}


@pytest.mark.parametrize("char", CHARS)
def test_head_class_builds_only_the_bottom_component(char):
    alg = algebra(4, char)
    p = compose(cached_generator(alg, "x", 2), cached_generator(alg, "x", 1))
    chain_head_class(p)
    assert list(p.components) == [p.shift]


@pytest.mark.parametrize("char", CHARS)
def test_components_past_the_window_fold_to_memoized_ones(char):
    alg = algebra(3, char)
    p = compose(cached_generator(alg, "xstar", 1), cached_generator(alg, "x", 1))
    top = p.periodic_start + p.period
    for k in range(p.periodic_start + 1, top + 1):
        M = p.component(k)
        built = dict(p.components)
        for turns in (1, 2, 5):
            assert p.component(k + turns * p.period) is M
        assert p.components == built
    assert max(p.components) == top
