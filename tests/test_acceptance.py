"""Acceptance suite: the eight exit criteria, all exact (no tolerances).

Each test prints one PASS line on success; any failure is a hard assert.
"""

from helpers import is_intertwiner
from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra
from extline.ext_table import ext_table, poincare_series
from extline.resolutions import build_resolution, corrupted_resolution, verify_resolution
from extline import path_algebra as pa
from extline import reps, strings

F2 = field_for_characteristic(2)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_poincare_series_against_brute_force():
    # series coefficients equal the projective multiplicities of the
    # honest linear-algebra resolution, obtained by iterated covers
    for n in range(1, 9):
        series = {
            (i, j): poincare_series(n, i, j, 4 * n)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        for i in range(1, n + 1):
            module = reps.simple_rep(n, F2, i)
            for k in range(4 * n + 1):
                cov = reps.projective_cover(module)
                for j in range(1, n + 1):
                    mult = cov.cover_vertices.count(j)
                    assert mult == series[(i, j)][k], (n, i, j, k)
                module = cov.kernel
    _report(1, "series vs brute-force resolutions, N = 1..8, k <= 4N, exact")


def test_criterion_2_syzygy_formula_with_witnesses():
    for n in range(1, 7):
        for lab in strings.canonical_labels(n):
            realized = strings.realize_x(n, F2, lab)
            omega = reps.syzygy(realized)
            expected = strings.realize_x(n, F2, strings.syzygy_label(n, lab))
            witness = reps.iso_witness(omega, expected)
            assert witness is not None, (n, lab)
            assert witness.is_invertible() and is_intertwiner(witness)
    _report(2, "syzygies of every canonical string match their labels, N <= 6")


def test_criterion_3_periodicity_brute_force():
    # iterated oracle covers, independent of the label orbit that the
    # syzygy suite derives periodicity from
    for n in range(1, 7):
        for i in range(1, n + 1):
            S = reps.simple_rep(n, F2, i)
            powers = [S]
            for _ in range(2 * n):
                powers.append(reps.syzygy(powers[-1]))
            assert reps.is_isomorphic(powers[n], reps.simple_rep(n, F2, n + 1 - i)), (n, i)
            assert reps.is_isomorphic(powers[2 * n], S), (n, i)
    _report(3, "syzygy half- and full-period identities, N <= 6")


def test_criterion_4_closed_form_resolutions():
    for n in range(1, 6):
        alg = LineAlgebra(n, F2)
        for i in range(1, n + 1):
            report = verify_resolution(build_resolution(alg, i, 4 * n), i)
            assert not [(c.name, c.detail) for c in report if not c.ok], (n, i)
    _report(4, "resolutions certified (square-zero, minimal, exact, string images), N <= 5, depth 4N")


def test_criterion_5_chain_level_relations():
    for n in range(2, 6):
        for char in (2, 0):
            alg = LineAlgebra(n, field_for_characteristic(char))
            report = pa.verify_chain_relations(alg)
            assert not [c.name for c in report if not c.ok], (n, char)
            strict = [c for c in report if "strict" in c.name]
            assert len(strict) == 2 * (n - 1)
    _report(5, "generator relations, strict mixed ones and certified homotopies, N = 2..5, char 2 and 0")


def test_criterion_6_presented_algebra_is_the_ext_algebra():
    for n in range(1, 5):
        alg = LineAlgebra(n, F2)
        report = pa.verify_presentation(alg, 2 * n + 2)
        assert not [c.name + " " + c.detail for c in report if not c.ok], n
    alg = LineAlgebra(5, F2)
    report = pa.verify_presentation(alg, 10)
    assert not [c.name + " " + c.detail for c in report if not c.ok]
    alg = LineAlgebra(2, field_for_characteristic(0))
    report = pa.verify_presentation(alg, 6)
    assert all(c.ok for c in report)
    _report(6, "graded dimensions, relators and normal forms, N <= 4 at 2N+2 and N = 5 at 2N")


def test_criterion_7_structural_constants():
    for n in range(1, 9):
        alg = LineAlgebra(n, F2)
        assert sum(alg.hom_dimension(i, j) for i in range(1, n + 1)
                   for j in range(1, n + 1)) == 4 * n - 2
        total = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                d = len(reps.hom_space(alg.projective(i), alg.projective(j)))
                expected = 2 if i == j else (1 if abs(i - j) == 1 else 0)
                assert d == expected, (n, i, j)
                total += d
        assert total == 4 * n - 2
        table = ext_table(n, 4 * n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                row = table.row(i, j)
                assert set(row) <= {0, 1}
                assert row == table.row(j, i)
                for k in range(2 * n + 1):
                    assert row[k] == row[k + 2 * n]
    _report(7, "dim A = 4N-2, hom pattern 2/1/0, Ext entries 0/1 symmetric periodic, N <= 8")


def test_criterion_8_negative_controls():
    # a corrupted band sign must break square-zero
    alg = LineAlgebra(3, field_for_characteristic(0))
    bad = corrupted_resolution(alg, 2, 12)
    report = verify_resolution(bad, 2)
    assert any(c.name == "d o d = 0" and not c.ok for c in report)
    # dropping the first boundary relator must strictly inflate dimensions
    full = pa.graded_dimension(2, 4, F2)
    partial = pa.graded_dimension(
        2, 4, F2, relators=[r for r in pa.standard_relators(2) if r.name != "x1.x1*"]
    )
    inflated = [
        (i, j, k)
        for i in (1, 2)
        for j in (1, 2)
        for k in range(5)
        if partial.entry(i, j, k) > full.entry(i, j, k)
    ]
    assert inflated
    _report(8, "sign corruption and dropped relator both detected")
