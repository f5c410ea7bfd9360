"""Chain-level Ext: generators, products, homotopy certificates, lifts."""

import pytest

from extline.fields import field_for_characteristic
from extline.homs import HomGenerator, LineAlgebra
from extline.path_algebra import verify_chain_relations
from extline.resolutions import HomMatrix
from extline import yoneda
from extline.yoneda import (
    ChainMap,
    ChainMapError,
    cached_generator,
    chain_equal_strict,
    chain_head_class,
    chain_sub,
    class_difference_scalar,
    class_is_zero,
    compose,
    ext_class_dimension,
    generator_x,
    generator_y,
    identity_chain_map,
    lift_cocycle,
    null_homotopy,
    verify_homotopy,
)


def algebra(n, char=2):
    return LineAlgebra(n, field_for_characteristic(char))


def test_generator_components_generic_and_special():
    n, i = 4, 2
    alg = algebra(n, char=0)
    x = cached_generator(alg, "x", i)
    # generic degrees: 0/1 identity on shared summands
    for k in (1, 2, 3, 5, 6, 7):
        M = x.component(k)
        for row in M.entries:
            for e in row:
                for gen, c in e.coeffs.items():
                    assert gen.kind == "id" and c == alg.field.one
    # half-period degree: a signed co-step
    M = x.component(n)
    (gen, coeff), = M.entries[0][0].coeffs.items()
    assert gen.kind == "fstar" and gen.i == n - i
    assert coeff == alg.field.one  # (-1)^(N-i) = (+1)^2
    # full-period degree: a signed step
    M = x.component(2 * n)
    (gen, coeff), = M.entries[0][0].coeffs.items()
    assert gen.kind == "f" and gen.i == i
    assert coeff == alg.field.one  # (-1)^i at i = 2


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
        assert M.source.indices == M.target.indices
        for r, row in enumerate(M.entries):
            for c, e in enumerate(row):
                if r == c:
                    (gen, coeff), = e.coeffs.items()
                    assert gen.kind == "id" and coeff == alg.field.one
                else:
                    assert not e


def test_n1_turnaround_generates_first_ext():
    alg = algebra(1, char=0)
    y1 = generator_y(alg, 1)
    lifted = lift_cocycle(alg, 1, 1, 1)
    c = class_difference_scalar(lifted.chain_map, y1)
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


@pytest.mark.parametrize("char", [0, 3])
def test_changed_homotopy_component_fails_verification(char):
    alg = algebra(3, char)
    f = compose(cached_generator(alg, "xstar", 1), cached_generator(alg, "x", 1))
    h = null_homotopy(f)
    assert h is not None and verify_homotopy(f, h)
    ps, p = h.periodic_start, h.period
    changed = 0
    for k in range(max(h.shift, 0), ps + p):  # the stored degrees
        M = h.component(k)
        if not M.cells:
            continue
        zero = HomMatrix(M.source, M.target, {})
        bad = ChainMap(h.source, h.target, h.shift, ps, h.component, p)
        bad.components[k] = zero
        if k == ps:  # degree ps + p is read back from the stored degree ps
            bad.components[ps + p] = zero
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
    diff = chain_sub(compose(xi, xsi), compose(xsi1, xi1))
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
    assert report.ok, [c.name for c in report.checks if not c.ok]
    if n == 1:
        assert report.checks[0].detail == "vacuous"


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
        c = class_difference_scalar(lifted.chain_map, cached_generator(alg, "x", i))
        assert c is not None and not alg.field.is_zero(c)
    for i in (1, 2, 3):
        lifted = lift_cocycle(alg, i, 4 - i, 3)
        c = class_difference_scalar(lifted.chain_map, cached_generator(alg, "y", i))
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
    lead = yoneda._first_nonzero_coefficient(alg, cls.chain_map)
    assert lead == alg.field.one


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
    c = class_difference_scalar(a, x1)
    assert c is not None
    diff = chain_sub(a, yoneda.chain_scale(c, x1))
    h = null_homotopy(diff)
    assert h is not None and verify_homotopy(diff, h)


def test_head_class_reads_bottom_identity_coefficients():
    alg = algebra(2)
    idc = identity_chain_map(alg, 1)
    (c,) = chain_head_class(idc)
    assert c == alg.field.one
    gen = HomGenerator("id", 1)
    assert gen.source == gen.target == 1


def _copies(f, zeroed=None):
    """f.component as a new matrix on every call, zero at degree ``zeroed``."""
    def rhs(m):
        M = f.component(m)
        return HomMatrix(M.source, M.target, {} if m == zeroed else dict(M.cells))

    return rhs


@pytest.mark.parametrize("char", [0, 3, 5])
def test_repeated_equations_skip_only_what_was_checked(char):
    # the right-hand side is wrong at one degree whose equation, but for
    # it, repeats one of the first period; fresh but equal right-hand sides
    # pass, and the wrong degree is found by the re-check and makes the
    # solver's system inconsistent
    alg = algebra(3, char)
    f = compose(cached_generator(alg, "xstar", 1), cached_generator(alg, "x", 1))
    htpy = null_homotopy(f)
    start = htpy.periodic_start + htpy.period + 2
    bad = next(m for m in range(start, htpy.window + 1) if f.component(m).cells)
    assert yoneda._first_failure(htpy, 1, _copies(f)) is None
    assert yoneda._first_failure(htpy, 1, _copies(f, bad)) == bad
    args = (f.source, f.target, f.shift - 1, htpy.periodic_start, htpy.period, 1)
    assert yoneda._solve_family(*args, rhs=_copies(f))[0] is not None
    assert yoneda._solve_family(*args, rhs=_copies(f, bad))[0] is None


def test_generator_check_covers_one_period(monkeypatch):
    # a generator's squares repeat from one period past the periodic start,
    # so the re-check composes only up to there, not over its whole window
    calls = []
    original = yoneda.hom_matrix_compose

    def counting(alg, A, B):
        calls.append(1)
        return original(alg, A, B)

    monkeypatch.setattr(yoneda, "hom_matrix_compose", counting)
    for i in range(1, 8):
        calls.clear()
        x = generator_x(algebra(8, 3), i)
        assert calls and len(calls) <= 2 * (x.periodic_start + x.period + 2 - x.shift), i
