"""Property tests of the sparse morphism calculus, and laziness of chain maps.

Hypothesis runs derandomized (``conftest.py``), so every run draws the
same examples.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from helpers import morphisms_equal, realize
from extline import strings
from extline.certify import realize_hom_matrix
from extline.fields import field_for_characteristic
from extline.homs import HomElement, LineAlgebra
from extline.resolutions import (
    HomMatrix,
    build_resolution,
    common_factor_matrix,
    corrupted_resolution,
    hom_matrix_add,
    hom_matrix_compose,
    hom_matrix_scale,
    is_identity,
)
from extline.yoneda import (
    ChainMap,
    ChainMapError,
    cached_generator,
    chain_head_class,
    compose,
    generator_x,
    generator_xstar,
    generator_y,
    identity_chain_map,
    null_homotopy,
)
from extline import yoneda
from extline.path_algebra import evaluate_relator, standard_relators

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


def without_zeros(cells):
    """The drawn cells that are not zero: the constructor keeps what it is
    given, and a matrix stores only nonzero cells."""
    return {rc: e for rc, e in cells.items() if any(e.slots)}


@st.composite
def hom_matrix(draw, alg, source, target):
    """A random matrix with about half its cells left empty.  Drawn cells
    are not normalized; those that come out zero are dropped here."""
    cells = {}
    for r, t in enumerate(target):
        for c, s in enumerate(source):
            dim = alg.hom_dimension(s, t)
            if dim and draw(st.booleans()):
                cells[(r, c)] = HomElement(s, t, tuple(draw(scalar(alg)) for _ in range(dim)))
    return HomMatrix(source, target, without_zeros(cells))


@st.composite
def hom_element(draw, alg, s, t):
    """A morphism P_s -> P_t made by the calculus: a combination of the
    basis by scale and add, or the composite of two through a drawn vertex."""
    def combination(s, t):
        g = alg.zero_hom(s, t)
        for b in alg.basis(s, t):
            g = alg.add(g, alg.scale(draw(scalar(alg)), b))
        return g

    if draw(st.booleans()):
        m = draw(st.integers(1, alg.n))
        return alg.compose(combination(m, t), combination(s, m))
    return combination(s, t)


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
    return all(any(not alg.field.is_zero(c) for c in e.slots) for e in M.cells.values())


@given(composable_triple())
def test_realized_composite_matches_oracle(data):
    alg, A, B, _ = data
    AB = hom_matrix_compose(alg, A, B)
    sums = {}  # one memo of realized sums, shared as in a command
    oracle = realize_hom_matrix(alg, A, sums).compose(realize_hom_matrix(alg, B, sums))
    assert morphisms_equal(realize_hom_matrix(alg, AB, sums), oracle)


@given(composable_triple())
def test_composition_is_associative(data):
    alg, A, B, C = data
    left = hom_matrix_compose(alg, hom_matrix_compose(alg, A, B), C)
    right = hom_matrix_compose(alg, A, hom_matrix_compose(alg, B, C))
    assert left == right


def slotwise_equal(alg, A, B):
    """Equality decided slot by slot in the field, independently of ==."""
    F = alg.field
    if (A.source, A.target) != (B.source, B.target):
        return False
    if A.cells.keys() != B.cells.keys():
        return False
    for rc, g in A.cells.items():
        h = B.cells[rc]
        if (g.source, g.target) != (h.source, h.target):
            return False
        if not (g.slots and h.slots):
            if not all(map(F.is_zero, g.slots + h.slots)):
                return False
        elif not all(F.is_zero(F.sub(x, y)) for x, y in zip(g.slots, h.slots)):
            return False
    return True


def retyped(c):
    """The same rational as the other Python type: Fraction(c) for an int c,
    and an int for a Fraction with denominator 1."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    return Fraction(c)


@st.composite
def matrix_pair(draw):
    """A matrix and a second one: a copy, a copy with one cell bumped, an
    independent draw of the same shape, or a draw of another shape."""
    alg = algebra(draw(st.integers(1, 5)), draw(st.sampled_from(CHARS)))
    F = alg.field
    source, target = draw(canonical_sum(alg.n)), draw(canonical_sum(alg.n))
    A = draw(hom_matrix(alg, source, target))
    how = draw(st.sampled_from(("copied", "bumped", "redrawn", "reshaped")))
    if how == "copied":
        cells = dict(A.cells)
    elif how == "bumped" and A.cells:
        rc = draw(st.sampled_from(sorted(A.cells)))
        e = A.cells[rc]
        cells = {**A.cells, rc: HomElement(e.source, e.target,
                                           (F.add(e.slots[0], F.one), *e.slots[1:]))}
    else:
        if how == "reshaped":
            source = draw(canonical_sum(alg.n))
        return alg, A, draw(hom_matrix(alg, source, target))
    return alg, A, HomMatrix(source, target, without_zeros(cells))


@given(matrix_pair())
def test_exact_equality_agrees_with_slotwise(data):
    alg, A, B = data
    assert (A == B) == slotwise_equal(alg, A, B)
    assert (B == A) == slotwise_equal(alg, B, A)


@given(st.integers(1, 5), st.sampled_from(CHARS), st.data())
def test_element_equality_is_equality_of_morphisms(n, char, data):
    # every zero the calculus returns is (), so == decides equality
    alg = algebra(n, char)
    s = data.draw(st.integers(1, n))
    t = data.draw(st.integers(max(1, s - 2), min(n, s + 2)))
    g = data.draw(hom_element(alg, s, t))
    F = alg.field
    candidates = [g, data.draw(hom_element(alg, s, t)), alg.add(g, alg.scale(F.from_int(-1), g)),
                  alg.scale(F.zero, g), alg.zero_hom(s, t)]
    for a in candidates:
        for b in candidates:
            assert (a == b) == morphisms_equal(realize(alg, a), realize(alg, b)), (a, b)


@given(st.integers(1, 5), st.data())
def test_int_and_fraction_scalars_compare_equal(n, data):
    # over Q a scalar is an int until a fraction is forced, so Fraction(c)
    # and c must be one scalar to both equalities
    alg = algebra(n, 0)
    source, target = data.draw(canonical_sum(n)), data.draw(canonical_sum(n))
    A = data.draw(hom_matrix(alg, source, target))
    B = HomMatrix(source, target, {rc: HomElement(e.source, e.target, tuple(map(retyped, e.slots)))
                                   for rc, e in A.cells.items()})
    assert A == B and slotwise_equal(alg, A, B)


@given(composable_triple(), st.integers(-2, 2))
def test_no_stored_cell_is_zero(data, c):
    # the constructor keeps its cells as given, so every producer that can
    # make a zero must drop it: the generic product, add and scale; the
    # paired branches only re-key nonzero cells.  d_1 o d_2 of R_2 sums two
    # cancelling paths through the two summands of its degree-1 term (N >= 3)
    alg, A, B, C = data
    F = alg.field
    minus_A = hom_matrix_scale(alg, F.from_int(-1), A)
    P, Q = common_factor_matrix(alg, A.source, A.target), common_factor_matrix(alg, B.source, B.target)
    d = build_resolution(alg, min(2, alg.n)).diff
    products = [hom_matrix_compose(alg, A, B), hom_matrix_compose(alg, P, B),
                hom_matrix_compose(alg, A, Q), hom_matrix_compose(alg, d(1), d(2))]
    for M in (A, B, C, *products, hom_matrix_scale(alg, F.from_int(c), A),
              hom_matrix_scale(alg, F.zero, A), hom_matrix_add(alg, A, minus_A),
              hom_matrix_add(alg, A, hom_matrix_scale(alg, F.from_int(c), A))):
        assert no_zero_cells(alg, M)
    assert not hom_matrix_add(alg, A, minus_A).cells
    assert not hom_matrix_scale(alg, F.zero, A).cells
    assert not products[3].cells
    assert products[1:3] == [hom_matrix_compose(alg, unpaired(P), B),
                             hom_matrix_compose(alg, A, unpaired(Q))]
    if not F.is_zero(F.from_int(c)):  # a nonzero scalar keeps every cell
        assert hom_matrix_scale(alg, F.from_int(c), A).cells.keys() == A.cells.keys()


@pytest.mark.parametrize("char", CHARS)
def test_no_stored_cell_is_zero_in_a_solved_family(char):
    # a solved family reads each cell as a sum of solution values times basis
    # morphisms, and most of those values are zero
    alg = algebra(4, char)
    for rel in standard_relators(4):
        f = evaluate_relator(alg, rel)
        h = null_homotopy(f)
        if h is None:
            continue
        for k in range(max(h.shift, 0), h.periodic_start + h.period + 1):
            assert no_zero_cells(alg, h.component(k)), (rel.name, k)


@pytest.mark.parametrize("n,i", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_corrupted_entry_is_dropped_over_f2(n, i):
    # over F_2 the corrupted entry is zeroed, so its cell must be gone
    alg = algebra(n, 2)
    clean, bad = build_resolution(alg, i), corrupted_resolution(alg, i)
    changed = [k for k in range(1, bad.depth + 1) if bad.diff(k) is not clean.diff(k)]
    assert len(changed) == 1
    (k,) = changed
    assert no_zero_cells(alg, bad.diff(k))
    assert len(bad.diff(k).cells) == len(clean.diff(k).cells) - 1


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
    assert len(rows) == len(A.target)
    for r, row in enumerate(rows):
        assert len(row) == len(A.source)
        for c, e in enumerate(row):
            assert (e.source, e.target) == (A.source[c], A.target[r])
            assert e is A.cells[(r, c)] if (r, c) in A.cells else not e
    if rows and rows[0]:
        with pytest.raises(TypeError):
            rows[0][0] = alg.zero_hom(A.source[0], A.target[0])
    with pytest.raises(AttributeError):
        A.entries = rows


# ------------------------------------------------------------------ laziness


@pytest.mark.parametrize("char", CHARS)
def test_components_fold_back_one_period_at_the_boundaries(char):
    # one arithmetic step folds a degree past top = periodic_start + period:
    # from top + 1 to three periods on it is the very object a period
    # earlier (top - period = periodic_start itself may lie below the
    # shift); a family of period 4N folds by 4N
    for n in range(1, 6):
        alg = algebra(n, char)
        families = generators(alg)
        if n >= 2:
            families.append(compose(cached_generator(alg, "xstar", 1), cached_generator(alg, "x", 1)))
        for rel in standard_relators(n):
            f = evaluate_relator(alg, rel)
            families += [f, yoneda._periodic_homotopy(f, 2)]
        for u in families:
            top, p = u.periodic_start + u.period, u.period
            for k in range(top + 1, top + 3 * p + 1):
                assert u.component(k) is u.component(k - p), (n, k)
            assert max(u.components) == top
    assert any(u.period == 4 * alg.n for u in families)


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


# --------------------------------------------------------- partial identities


@st.composite
def around_a_term(draw, full):
    """An algebra, a common-factor matrix P : s -> t (a full identity when
    ``full``, else s != t), and matrices A : t -> u and B : v -> s."""
    alg = algebra(draw(st.integers(1, 5)), draw(st.sampled_from(CHARS)))
    s, t, u, v = (draw(canonical_sum(alg.n)) for _ in range(4))
    if full:
        t = s
    else:
        assume(s != t)
    P = common_factor_matrix(alg, s, t)
    return alg, P, draw(hom_matrix(alg, t, u)), draw(hom_matrix(alg, v, s))


@given(around_a_term(full=True))
def test_a_full_identity_is_a_unit_of_composition(data):
    alg, I, A, B = data
    assert is_identity(I) and not is_identity(unpaired(I))
    assert hom_matrix_compose(alg, A, I) is A
    assert hom_matrix_compose(alg, I, B) is B
    assert hom_matrix_compose(alg, I, I) is I
    assert A == hom_matrix_compose(alg, A, unpaired(I))
    assert B == hom_matrix_compose(alg, unpaired(I), B)


@given(around_a_term(full=False))
def test_a_partial_identity_re_keys_as_the_generic_product(data):
    alg, P, A, B = data
    assert not is_identity(P)
    assert P.inverse_pairing == {r: c for c, r in P.pairing.items()}
    assert hom_matrix_compose(alg, A, P) == hom_matrix_compose(alg, A, unpaired(P))
    assert hom_matrix_compose(alg, P, B) == hom_matrix_compose(alg, unpaired(P), B)


def unpaired(M):
    """The same cells without the pairing, so products take the per-cell path."""
    return HomMatrix(M.source, M.target, dict(M.cells))


def generators(alg):
    n = alg.n
    return ([generator_x(alg, i) for i in range(1, n)]
            + [generator_xstar(alg, i) for i in range(1, n)]
            + [generator_y(alg, i) for i in range(1, n + 1)]
            + [identity_chain_map(alg, i) for i in range(1, n + 1)])


def stored(u):
    """(degree, component) for the degrees u builds; later ones fold back."""
    return [(k, u.component(k)) for k in range(max(u.shift, 0), u.periodic_start + u.period + 1)]


@pytest.mark.parametrize("char", CHARS)
def test_pairing_branches_equal_the_generic_product(char):
    # every product a generator component meets: with the differentials on
    # either side (the chain-map squares) and with the components of the
    # generators it composes with (Yoneda products)
    met = {"paired o d": 0, "d o paired": 0, "paired o paired": 0}

    def check(alg, A, B, kind):
        product = hom_matrix_compose(alg, A, B)
        assert product == hom_matrix_compose(alg, unpaired(A), unpaired(B))
        met[kind] += 1

    for n in range(1, 9):
        alg = algebra(n, char)
        gens = generators(alg)
        for u in gens:
            for k, M in stored(u):
                if M.pairing is None:
                    continue
                check(alg, M, u.source.diff(k + 1), "paired o d")
                if k - u.shift >= 1:
                    check(alg, u.target.diff(k - u.shift), M, "d o paired")
        for g in gens:
            for f in gens:
                if f.source.base_vertex != g.target.base_vertex:
                    continue
                for k, B in stored(g):
                    A = f.component(k - g.shift)
                    if A is not None and A.pairing is not None and B.pairing is not None:
                        check(alg, A, B, "paired o paired")
    assert all(met.values()), met


@pytest.mark.parametrize("char", CHARS)
def test_common_factor_matrix_is_shared_and_paired(char):
    for n in range(1, 9):
        alg = algebra(n, char)
        terms = {strings.normalize_p(n, i - k, i + k)
                 for i in range(1, n + 1) for k in range(2 * n + 1)}
        for s in terms:
            assert len(set(s)) == len(s)  # canonical terms have distinct indices
            for t in terms:
                M = common_factor_matrix(alg, s, t)
                assert common_factor_matrix(alg, s, t) is M
                assert M == unpaired(M)  # == ignores the pairing
                assert M.cells == {(r, c): alg.identity_hom(a) for r, b in enumerate(t)
                                   for c, a in enumerate(s) if a == b}
                assert sorted(M.cells) == sorted((r, c) for c, r in M.pairing.items())
                assert len(set(M.pairing.values())) == len(M.pairing)
                assert M.inverse_pairing == {r: c for c, r in M.pairing.items()}
                assert is_identity(M) == (s == t)


@pytest.mark.parametrize("char", CHARS)
def test_unpaired_component_with_a_dropped_cell_fails_verify(char):
    # the damaged copy takes the per-cell path between paired neighbours
    alg = algebra(4, char)
    for u in generators(alg):
        for d, M in stored(u):
            if M.pairing is None:
                continue
            for rc in M.cells:
                bad = HomMatrix(M.source, M.target, {k: e for k, e in M.cells.items() if k != rc})
                damaged = ChainMap(u.source, u.target, u.shift, u.periodic_start,
                                   lambda k, d=d, bad=bad: bad if k == d else u.component(k))
                with pytest.raises(ChainMapError):
                    damaged.verify()
