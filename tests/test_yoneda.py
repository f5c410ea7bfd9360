"""Chain-level Ext: generators, products, homotopy certificates, lifts."""

import pytest
from hypothesis import given, strategies as st

from helpers import ext_class_dimension, head_ratio, lift_cocycle, reference_first_failure
from extline.ext_table import ext_dim_via_x
from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra, format_hom
from extline.path_algebra import verify_chain_relations
from extline.resolutions import HomMatrix, hom_matrix_add, hom_matrix_compose, hom_matrix_scale
from extline import yoneda
from extline.yoneda import (
    ChainMap,
    ChainMapError,
    cached_generator,
    chain_add,
    chain_equal_strict,
    chain_head_class,
    class_is_zero,
    compose,
    generator_x,
    generator_y,
    identity_chain_map,
    null_homotopy,
    verify_homotopy,
)


def algebra(n, char=2):
    return LineAlgebra(n, field_for_characteristic(char))


@st.composite
def generator_triple(draw):
    """Three composable generator chain maps g1, g2, g3 (g1 acts first)."""
    n = draw(st.integers(1, 5))
    alg, v, maps = algebra(n, draw(st.sampled_from([0, 2, 3, 5]))), draw(st.integers(1, n)), []
    for _ in range(3):
        steps = [("y", v, n + 1 - v)]  # (kind, index, target vertex)
        if v < n:
            steps.append(("x", v, v + 1))
        if v > 1:
            steps.append(("xstar", v - 1, v - 1))
        kind, idx, v = draw(st.sampled_from(steps))
        maps.append(cached_generator(alg, kind, idx))
    return maps


@given(generator_triple())
def test_composition_of_generators_is_associative(maps):
    g1, g2, g3 = maps
    assert chain_equal_strict(compose(g3, compose(g2, g1)), compose(compose(g3, g2), g1))


@given(st.integers(1, 6), st.sampled_from([0, 2, 3, 5]), st.data())
def test_lift_cocycle_certifies_a_nonzero_class(n, char, data):
    i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    k = data.draw(st.sampled_from([k for k in range(4 * n + 1) if ext_dim_via_x(n, i, j, k)]))
    cls = lift_cocycle(algebra(n, char), i, j, k)
    f = cls.chain_map.verify()
    assert cls.nonzero and f.shift == k
    assert (f.source.base_vertex, f.target.base_vertex) == (i, j)
    assert not class_is_zero(f) and null_homotopy(f) is None


def test_generator_components_generic_and_special():
    n, i = 4, 2
    alg = algebra(n, char=0)
    x = cached_generator(alg, "x", i)
    # generic degrees: 0/1 identity on shared summands
    for k in (1, 2, 3, 5, 6, 7):
        M = x.component(k)
        for row in M.entries:
            for e in row:
                assert format_hom(alg, e) in ("0", f"Id({e.source})")
    # half-period degree: a signed co-step, (-1)^(N-i) = (+1)^2
    assert format_hom(alg, x.component(n).entries[0][0]) == f"FStar({n - i})"
    # full-period degree: a signed step, (-1)^i at i = 2
    assert format_hom(alg, x.component(2 * n).entries[0][0]) == f"F({i})"


def test_generator_classes_are_nonzero():
    alg = algebra(4)
    for i in range(1, 4):
        assert not class_is_zero(cached_generator(alg, "x", i))
        assert not class_is_zero(cached_generator(alg, "xstar", i))
    for i in range(1, 5):
        assert not class_is_zero(cached_generator(alg, "y", i))


def test_y_components_are_identities():
    alg = algebra(3)
    y = generator_y(alg, 2)
    for k in range(3, 12):
        M = y.component(k)
        assert M.source == M.target
        for r, row in enumerate(M.entries):
            for c, e in enumerate(row):
                if r == c:
                    assert format_hom(alg, e) == f"Id({e.source})"
                else:
                    assert not e


def test_n1_turnaround_generates_first_ext():
    alg = algebra(1, char=0)
    y1 = generator_y(alg, 1)
    lifted = lift_cocycle(alg, 1, 1, 1)
    c = head_ratio(lifted.chain_map, y1)
    assert c is not None and not alg.field.is_zero(c)


def test_compose_with_identity():
    alg = algebra(3)
    x1 = cached_generator(alg, "x", 1)
    left = compose(identity_chain_map(alg, 2), x1)
    right = compose(x1, identity_chain_map(alg, 1))
    assert chain_equal_strict(left, x1)
    assert chain_equal_strict(right, x1)


def test_compose_associativity():
    alg = algebra(4, char=0)
    a = cached_generator(alg, "x", 3)
    b = cached_generator(alg, "x", 2)
    c = cached_generator(alg, "x", 1)
    assert chain_equal_strict(compose(compose(a, b), c), compose(a, compose(b, c)))


@pytest.mark.parametrize("char", [0, 2])
def test_boundary_relation_composites_vanish(char):
    alg = algebra(3, char)
    f = compose(cached_generator(alg, "xstar", 1), cached_generator(alg, "x", 1))
    h = null_homotopy(f)
    assert h is not None and verify_homotopy(f, h)
    g = compose(cached_generator(alg, "x", 2), cached_generator(alg, "xstar", 2))
    h = null_homotopy(g)
    assert h is not None and verify_homotopy(g, h)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("i", [1, 2])
def test_zeroed_generator_component_fails_verify(i, char):
    alg = algebra(3, char)
    x = generator_x(alg, i)
    for d in range(x.shift + 1, x.periodic_start + x.period + 1):
        def maker(k, d=d):
            M = x.maker(k)
            return HomMatrix(M.source, M.target, {}) if k == d else M

        bad = ChainMap(x.source, x.target, x.shift, x.periodic_start, maker)
        with pytest.raises(ChainMapError, match=rf"square fails at degree {d} "):
            bad.verify()


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("n", [3, 4])
def test_widened_certificates_carry_their_period(n, char):
    # null_homotopy stops at multiple 1 for every relator; the wider
    # periods are reached only by asking for them
    from extline.path_algebra import evaluate_relator, standard_relators

    alg = algebra(n, char)
    for rel in standard_relators(n):
        f = evaluate_relator(alg, rel)
        for m in (2, 3):
            h = yoneda._periodic_homotopy(f, m)
            assert h is not None and h.period == h.period_len == 2 * n * m, (rel.name, m)
            assert verify_homotopy(f, h), (rel.name, m)


def test_right_hand_side_must_fold_with_the_certificate():
    # the one-period window is sound only when f repeats with the
    # certificate's period
    alg = algebra(3)
    f = compose(cached_generator(alg, "xstar", 1), cached_generator(alg, "x", 1))
    htpy = null_homotopy(f)
    wide = ChainMap(f.source, f.target, f.shift, f.periodic_start, f.component, 2 * f.period)
    with pytest.raises(ChainMapError, match="period"):
        verify_homotopy(wide, htpy)
    # strict equality reads the same window, so f against wide is refused too
    assert chain_equal_strict(wide, f)
    with pytest.raises(ChainMapError, match="period"):
        chain_equal_strict(f, wide)


def _drift_map(alg, kind, i, start):
    """d o s + s o d for s_m = w(m) * (-1)^m * g_m, g a generator and w(m)
    the full turns since degree start: a null-homotopic map whose
    null-homotopies all drift by the nonzero class of (-1)^m * g_m."""
    g = cached_generator(alg, kind, i)
    F = alg.field

    def s(m):
        turns = max(m - start, 0) // g.period
        return hom_matrix_scale(alg, F.from_int((-1) ** m * turns), g.component(m))

    def maker(m):
        f = hom_matrix_compose(alg, g.target.diff(m - g.shift), s(m))
        if m - 1 >= g.shift:
            f = hom_matrix_add(alg, f, hom_matrix_compose(alg, s(m - 1), g.source.diff(m)))
        return f

    f = ChainMap(g.source, g.target, g.shift + 1, start, maker)
    for m in range(start + g.period + 1, start + 3 * g.period):  # f folds as stated
        assert maker(m) == maker(m - g.period), m
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n,kind,i,start", [(3, "x", 1, 3), (4, "y", 1, 5)])
def test_drifting_certificate_has_period_2pN(n, kind, i, start, p):
    # a certificate of period k * 2N forces k * drift = 0, so over F_p the
    # first period that works is 2pN, and null_homotopy goes straight to it
    f = _drift_map(algebra(n, p), kind, i, start)
    assert class_is_zero(f)
    assert yoneda._periodic_homotopy(f, 1) is None
    h = null_homotopy(f)
    assert h.period == 2 * p * n and verify_homotopy(f, h)


@pytest.mark.parametrize("n,kind,i,start", [(3, "x", 1, 3), (4, "y", 1, 5)])
def test_drifting_map_has_no_periodic_certificate_over_q(n, kind, i, start):
    # over Q the drift class is not killed by any multiple of the period
    f = _drift_map(algebra(n, 0), kind, i, start)
    assert class_is_zero(f)
    with pytest.raises(ChainMapError, match="drift"):
        null_homotopy(f)


def _zero_words(alg, count):
    """The chain maps of the first ``count`` two-arrow words whose class is zero."""
    from extline.path_algebra import _word_chain_map, all_arrows, arrow_source, arrow_target

    arrows = all_arrows(alg.n)
    maps = [_word_chain_map(alg, (a, b)) for a in arrows for b in arrows
            if arrow_target(alg.n, a) == arrow_source(alg.n, b)]
    return [f for f in maps if class_is_zero(f)][:count]


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_equations_past_the_window_repeat_one_period_earlier(n, char):
    # the premise of the one-period window, which the solver and the
    # re-check share, on the families the program builds, solved
    # certificates and lifts included: every operand of an equation past
    # it is the very object of the equation one period earlier
    from extline.path_algebra import evaluate_relator, standard_relators

    alg = algebra(n, char)
    pairs = [(cached_generator(alg, kind, i), None)
             for kind, top in (("x", n - 1), ("xstar", n - 1), ("y", n))
             for i in range(1, top + 1)]
    for f in [evaluate_relator(alg, rel) for rel in standard_relators(n)] + _zero_words(alg, 3):
        pairs += [(f, None), (null_homotopy(f), f)]
    pairs += [(lift_cocycle(alg, 1, j, k).chain_map, None)
              for j, k in ((1, 2 * n), (min(2, n), 1), (n, n))]
    for u, f in pairs:
        last, p = yoneda._window(u, f), u.period
        for m in range(last + 1, last + p + 1):
            assert u.component(m) is u.component(m - p)
            assert u.component(m - 1) is u.component(m - 1 - p)
            assert u.target.diff(m - u.shift) is u.target.diff(m - u.shift - p)
            assert u.source.diff(m) is u.source.diff(m - p)
            assert f is None or f.component(m) is f.component(m - p)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_declared_starts_hold(n, char):
    # each producer declares where its family repeats: the maker itself,
    # past the fold, repeats the degree a period earlier.  A solved family
    # has no maker past its stored degrees, which run exactly one period
    # past the declared start
    from extline.path_algebra import evaluate_relator, relator_homotopy, standard_relators

    alg = algebra(n, char)
    families = [cached_generator(alg, kind, i)
                for kind, top in (("x", n - 1), ("xstar", n - 1), ("y", n))
                for i in range(1, top + 1)]
    families += [identity_chain_map(alg, i) for i in range(1, n + 1)]
    relators = [evaluate_relator(alg, rel) for rel in standard_relators(n)]
    families += [relator_homotopy(alg, rel) for rel, f in zip(standard_relators(n), relators)
                 if f.shift == 2 and f.source.base_vertex == f.target.base_vertex]
    families.append(compose(cached_generator(alg, "y", n), cached_generator(alg, "y", 1)))
    if n >= 2:
        x, xs = cached_generator(alg, "x", 1), cached_generator(alg, "xstar", 1)
        families += [compose(xs, x), chain_add(compose(xs, x), compose(xs, x), alg.field.one)]
    for u in families:
        top, p = u.periodic_start + u.period, u.period
        for k in range(top + 1, top + p + 1):
            assert u.maker(k) == u.maker(k - p), (u.shift, u.source.base_vertex, k)
    multiples = (1, char) if char else (1,)
    solved = 0
    for f in relators:
        for multiple in multiples:
            h, _, index = yoneda._solve_family(f.source, f.target, f.shift - 1, f.periodic_start,
                                               f.period * multiple, 1, f=f)
            assert h is not None and verify_homotopy(f, h)
            stored = {m for m, _, _, _ in index}
            top = h.periodic_start + h.period
            assert min(stored) == max(h.shift, 0) and max(stored) == top, (f.shift, multiple)
            solved += 1
    assert solved == len(relators) * len(multiples)


@pytest.mark.parametrize("char", [0, 3])
def test_changed_homotopy_component_fails_verification(char):
    alg = algebra(3, char)
    f = compose(cached_generator(alg, "xstar", 1), cached_generator(alg, "x", 1))
    h = null_homotopy(f)
    assert h is not None and verify_homotopy(f, h)
    ps, p = h.periodic_start, h.period
    changed = 0
    for k in range(max(h.shift, 0), ps + p + 1):  # the stored degrees
        M = h.component(k)
        if not M.cells:
            continue
        bad = ChainMap(h.source, h.target, h.shift, ps, h.component, p)
        bad.components[k] = HomMatrix(M.source, M.target, {})
        assert not verify_homotopy(f, bad), k
        changed += 1
    assert changed


def test_identity_is_not_null_homotopic():
    alg = algebra(3)
    assert null_homotopy(identity_chain_map(alg, 1)) is None


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("n,i", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_explicit_homotopy_formula(n, i, char):
    # the stated degreewise witness for the middle commutation: identity
    # components at the two plateau families, with alternating signs
    alg = algebra(n, char)
    F = alg.field
    xi = cached_generator(alg, "x", i)
    xsi = cached_generator(alg, "xstar", i)
    xi1 = cached_generator(alg, "x", i + 1)
    xsi1 = cached_generator(alg, "xstar", i + 1)
    diff = chain_add(compose(xi, xsi), compose(xsi1, xi1), F.from_int(-1))
    cx = diff.source  # R_{i+1}

    def maker(k):
        cells = {}
        if k % (2 * n) == n % (2 * n):
            sign = F.from_int(-1 if (n - i) % 2 else 1)
            cells[(0, 0)] = alg.scale(sign, alg.identity_hom(n - i))
        elif k % (2 * n) == 0:
            sign = F.from_int(-1 if i % 2 else 1)
            cells[(0, 0)] = alg.scale(sign, alg.identity_hom(i + 1))
        return HomMatrix(cx.term(k), cx.term(k - 1), cells)

    witness = ChainMap(cx, cx, 1, 1, maker)
    assert witness.period == 2 * n
    assert verify_homotopy(diff, witness)


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relations_report(n, char):
    report = verify_chain_relations(algebra(n, char))
    assert not [c.name for c in report if not c.ok]
    if n == 1:
        assert report[0].detail == "vacuous"


def test_lift_identity_class():
    alg = algebra(3)
    cls = lift_cocycle(alg, 2, 2, 0)
    assert cls.nonzero
    assert chain_equal_strict(cls.chain_map, identity_chain_map(alg, 2))


@pytest.mark.parametrize("char", [0, 2, 3])
def test_lift_matches_generators(char):
    alg = algebra(3, char)
    for i in (1, 2):
        lifted = lift_cocycle(alg, i, i + 1, 1)
        c = head_ratio(lifted.chain_map, cached_generator(alg, "x", i))
        assert c is not None and not alg.field.is_zero(c)
    for i in (1, 2, 3):
        lifted = lift_cocycle(alg, i, 4 - i, 3)
        c = head_ratio(lifted.chain_map, cached_generator(alg, "y", i))
        assert c is not None and not alg.field.is_zero(c)


def test_lift_of_zero_class_rejected():
    alg = algebra(3)
    with pytest.raises(ValueError):
        lift_cocycle(alg, 1, 1, 1)


def test_lifts_verify_and_normalize():
    alg = algebra(4, char=0)
    cls = lift_cocycle(alg, 1, 3, 2)
    head = chain_head_class(cls.chain_map)
    assert any(not alg.field.is_zero(c) for c in head)
    # the head pin: the one P_3 summand of term_2(R_1) maps by the identity onto P_3
    assert head == [alg.field.one]


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hom_modulo_homotopy_dimensions(n, char):
    from extline.ext_table import ext_table

    alg = algebra(n, char)
    table = ext_table(n, 2 * n + 2)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(2 * n + 3):
                assert ext_class_dimension(alg, i, j, k) == table.entry(i, j, k)


def test_hom_modulo_homotopy_dimensions_n4():
    from extline.ext_table import ext_table

    alg = algebra(4)
    table = ext_table(4, 10)
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(11):
                assert ext_class_dimension(alg, i, j, k) == table.entry(i, j, k)


def test_two_lifts_differ_by_scalar_plus_boundary():
    alg = algebra(3, char=0)
    a = lift_cocycle(alg, 1, 2, 1).chain_map
    x1 = cached_generator(alg, "x", 1)
    c = head_ratio(a, x1)
    assert c is not None
    diff = chain_add(a, yoneda.chain_scale(c, x1), alg.field.from_int(-1))
    h = null_homotopy(diff)
    assert h is not None and verify_homotopy(diff, h)


def test_head_class_reads_bottom_identity_coefficients():
    alg = algebra(2)
    idc = identity_chain_map(alg, 1)
    (c,) = chain_head_class(idc)
    assert c == alg.field.one


def _damaged(alg, u, d):
    """u with its degree-d component zeroed, or given a first basis
    morphism where it is zero."""
    M = u.component(d)
    cells = {} if M.cells else next(
        {(r, c): b[0]} for r, t in enumerate(M.target)
        for c, s in enumerate(M.source) if (b := alg.basis(s, t)))
    bad = HomMatrix(M.source, M.target, cells)
    return ChainMap(u.source, u.target, u.shift, u.periodic_start,
                    lambda k: bad if k == d else u.component(k), u.period)


def _words(alg, length):
    """The chain maps of every composable word of the given length."""
    from extline.path_algebra import _word_chain_map, all_arrows, arrow_source, arrow_target

    n, words = alg.n, [()]
    for _ in range(length):
        words = [w + (a,) for w in words for a in all_arrows(n)
                 if not w or arrow_target(n, w[-1]) == arrow_source(n, a)]
    return [_word_chain_map(alg, w) for w in words]


def _damaged_copies(alg, u):
    """``_damaged`` at each stored degree of u whose component can change,
    and u with a nonzero stored component negated, which keeps its cells'
    positions (the same map over F_2)."""
    degrees = range(max(u.shift, 0), u.periodic_start + u.period + 1)
    minus = alg.field.from_int(-1)

    def negated(d):
        bad = hom_matrix_scale(alg, minus, u.component(d))
        return ChainMap(u.source, u.target, u.shift, u.periodic_start,
                        lambda k: bad if k == d else u.component(k), u.period)

    return ([_damaged(alg, u, d) for d in degrees
             if u.component(d).cells or any(alg.basis(s, t) for t in u.component(d).target
                                            for s in u.component(d).source)]
            + [negated(d) for d in degrees if u.component(d).cells])


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_cell_comparison_finds_the_reference_first_failure(char):
    # the square check compares cell dicts; the reference builds whole
    # matrices and compares them with ==.  Generators, word maps, solved
    # and closed-form homotopies pass both; every damaged generator and
    # every damaged right-hand side fails both at the same degree
    from extline.path_algebra import evaluate_relator, relator_homotopy, standard_relators

    cases = []  # (family, sign, right-hand side)
    for n in range(1, 7):
        alg = algebra(n, char)
        gens = [cached_generator(alg, kind, i)
                for kind, top in (("x", n - 1), ("xstar", n - 1), ("y", n))
                for i in range(1, top + 1)] + [identity_chain_map(alg, i) for i in range(1, n + 1)]
        cases += [(g, -1, None) for g in gens]
        if n <= 4:
            cases += [(bad, -1, None) for g in gens for bad in _damaged_copies(alg, g)]
    for n in (3, 4):
        alg = algebra(n, char)
        cases += [(w, -1, None) for w in _words(alg, 2) + (_words(alg, 3) if n == 3 else [])]
        for rel in standard_relators(n):
            f = evaluate_relator(alg, rel)
            h = null_homotopy(f)
            cases += [(h, 1, f)] + [(h, 1, bad) for bad in _damaged_copies(alg, f)]
            if f.shift == 2 and f.source.base_vertex == f.target.base_vertex:
                cases.append((relator_homotopy(alg, rel), 1, f))
    failing = 0
    for u, sign, f in cases:
        k = yoneda._first_failure(u, sign, f)
        assert k == reference_first_failure(u, sign, f)
        failing += k is not None
    assert failing > len(cases) // 4


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_one_period_decides_every_equation(char):
    # damage at one stored degree is found by the first equation reading
    # that degree, and the solver's system becomes inconsistent; fresh but
    # equal copies of f pass, so nothing rests on object identity, and a
    # copy folding two degrees later is checked up to its own fold
    from extline.path_algebra import evaluate_relator, standard_relators

    alg = algebra(3, char)
    f = evaluate_relator(alg, standard_relators(3)[2])  # x1*.x1 - x2.x2*
    htpy = null_homotopy(f)
    args = (f.source, f.target, f.shift - 1, htpy.periodic_start, htpy.period, 1)

    def fresh(k):
        M = f.component(k)
        return HomMatrix(M.source, M.target, dict(M.cells))

    late = ChainMap(f.source, f.target, f.shift, f.periodic_start + 2, fresh)
    assert yoneda._first_failure(htpy, 1, late) is None
    assert yoneda._solve_family(*args, f=late)[0] is not None
    for g in (f, late):
        for d in range(g.shift, g.periodic_start + g.period + 1):  # g's stored degrees
            bad = _damaged(alg, g, d)
            assert yoneda._first_failure(htpy, 1, bad) == d
            assert yoneda._solve_family(*args, f=bad)[0] is None, d
    ps, p = htpy.periodic_start, htpy.period
    zeroed = 0
    for k in range(max(htpy.shift, 0), ps + p + 1):  # the certificate's stored degrees
        M = htpy.component(k)
        if not M.cells:
            continue
        bad = ChainMap(htpy.source, htpy.target, htpy.shift, ps, htpy.component, p)
        bad.components[k] = HomMatrix(M.source, M.target, {})
        assert yoneda._first_failure(bad, 1, f) == max(k, htpy.shift + 1)
        zeroed += 1
    assert zeroed


def test_generator_check_covers_one_period(monkeypatch):
    # a generator repeats from its shift, so its squares repeat from one
    # period past it, and the re-check composes two cell dicts (with
    # compose_cells) for each degree up to its window and none beyond
    calls = []
    original = yoneda.compose_cells

    def counting(alg, A, B):
        calls.append(1)
        return original(alg, A, B)

    monkeypatch.setattr(yoneda, "compose_cells", counting)
    for i in range(1, 8):
        calls.clear()
        x = generator_x(algebra(8, 3), i)
        assert len(calls) == 2 * (yoneda._window(x, None) - x.shift) == 32, i


def test_generator_check_composes_only_special_components(monkeypatch):
    # away from the special degrees a generator component is a paired
    # partial identity, and a product with it moves cells without composing
    # morphisms: only the one-cell special components reach LineAlgebra.compose
    # (8 calls at most where the per-cell path made up to 112 for x, 132 for y)
    calls = []
    original = LineAlgebra.compose

    def counting(self, g, h):
        calls.append(1)
        return original(self, g, h)

    monkeypatch.setattr(LineAlgebra, "compose", counting)
    for i in range(1, 8):
        for build in (generator_x, yoneda.generator_xstar):
            calls.clear()
            build(algebra(8, 3), i)
            assert 0 < len(calls) <= 8, (build.__name__, i)
    for i in range(1, 9):
        calls.clear()
        generator_y(algebra(8, 3), i)
        assert not calls, i
