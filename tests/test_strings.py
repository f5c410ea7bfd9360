"""Label calculus of the string modules and projective sums: dihedral
normalization, structure readout, syzygy shift, oracle agreement."""

import pytest

from extline.fields import field_for_characteristic
from extline import reps, strings
from extline.strings import normalize_p, normalize_x

F2 = field_for_characteristic(2)


def end(up: bool, i: int) -> int:
    """The up coordinate of the end (orientation, index): (down, i) ~ (up, 1 - i)."""
    return i if up else 1 - i


def test_half_period_of_simple_labels():
    # the N-fold widened label of S_i collapses to S_{N+1-i}
    for n in (1, 2, 3, 5):
        for i in range(1, n + 1):
            assert normalize_x(n, (i - n, i + n)) == (n + 1 - i, n + 1 - i)


def test_equal_ends_denote_simples():
    for n in (2, 4):
        for i in range(1, n + 1):
            assert normalize_x(n, (i, i)) == (i, i)
            down = (end(False, i), end(False, i))
            assert normalize_x(n, down) == (i, i)


def test_left_wall_identification():
    # a label reaching past the left wall flips its end down at index 1
    for n in (2, 3, 4, 5):
        for l in range(1, n - 1, 2):
            lhs = normalize_x(n, (0, l + 1))
            rhs = normalize_x(n, (end(False, 1), end(True, l + 1)))
            assert lhs == rhs


def test_structure_of_examples():
    head, soc, dim = strings.structure_of(3, (1, 3))
    assert head == {1: 1, 3: 1} and soc == {2: 1} and dim == 3
    lower = (end(False, 1), end(False, 3))
    head, soc, dim = strings.structure_of(3, lower)
    assert head == {2: 1} and soc == {1: 1, 3: 1} and dim == 3
    head, soc, dim = strings.structure_of(3, (2, 2))
    assert head == soc == {2: 1} and dim == 1


def test_syzygy_label_of_simple():
    lab = strings.syzygy_label(4, (2, 2))
    assert lab == normalize_x(4, (1, 3))


def test_syzygy_label_twice_n2():
    lab = strings.syzygy_label(2, strings.syzygy_label(2, (1, 1)))
    assert lab == (2, 2)


def test_syzygy_label_example_n3():
    lab = strings.syzygy_label(3, (1, 3))
    assert lab == (end(False, 1), end(False, 3))


def test_format_label_prints_the_end_notation():
    assert strings.format_label((0, 2)) == "X[(down,1)|(up,2)]"
    assert strings.format_label((3, -3)) == "X[(up,3)|(down,4)]"
    assert strings.format_label((2, 2)) == "X[(up,2)|(up,2)]"


def test_normalization_idempotent_and_orbit_constant():
    n = 4
    raw_cases = []
    for i in range(-9, 10):
        for j in range(-9, 10):
            for up_l in (True, False):
                for up_r in (True, False):
                    gap_even = (i - j) % 2 == 0
                    if (up_l == up_r) != gap_even:
                        continue
                    raw_cases.append((up_l, i, up_r, j))
    for up_l, i, up_r, j in raw_cases:
        raw = (end(up_l, i), end(up_r, j))
        canon = normalize_x(n, raw)
        assert normalize_x(n, canon) == canon
        # each defining identification fixes the normal form
        moves = [
            (end(not up_l, 1 - i), end(up_r, j)),
            (end(up_l, i), end(not up_r, 1 - j)),
            (end(up_l, i + 2 * n), end(up_r, j)),
            (end(up_l, i), end(up_r, j - 2 * n)),
            (end(not up_r, j), end(not up_l, i)),
        ]
        for moved in moves:
            assert normalize_x(n, moved) == canon, (raw, moved)


def _orbits(n: int, box: range) -> dict:
    """Label -> orbit id for the labels with both ends in box, by a search
    over the moves that translate one end by 2N and swap the ends."""
    orbit = {}
    for start in ((a, b) for a in box for b in box if (a - b) % 2 == 0):
        if start in orbit:
            continue
        orbit[start], todo = start, [start]
        while todo:
            a, b = todo.pop()
            for moved in ((a + 2 * n, b), (a - 2 * n, b), (a, b + 2 * n), (a, b - 2 * n),
                          (1 - b, 1 - a)):
                if moved[0] in box and moved[1] in box and moved not in orbit:
                    orbit[moved] = start
                    todo.append(moved)
    return orbit


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_normal_form_is_the_canonical_label_of_the_orbit(n):
    canonical = strings.canonical_labels(n)
    assert len(set(canonical)) == len(canonical) == n * n
    orbit = _orbits(n, range(-5 * n, 5 * n + 2))
    members = {}
    for label in canonical:
        members.setdefault(orbit[label], []).append(label)
    window = range(-3 * n, 3 * n + 1)
    for raw in ((a, b) for a in window for b in window if (a - b) % 2 == 0):
        assert normalize_x(n, raw) in canonical
        assert members[orbit[raw]] == [normalize_x(n, raw)], raw


def test_parity_violation_rejected():
    with pytest.raises(ValueError):
        normalize_x(3, (end(True, 1), end(True, 2)))
    with pytest.raises(ValueError):
        normalize_p(3, 1, 2)


def test_label_periodicity():
    n = 3
    for i in range(1, n + 1):
        for k in range(0, 4 * n):
            a = normalize_x(n, (i - k, i + k))
            b = normalize_x(n, (i - k - 2 * n, i + k + 2 * n))
            assert a == b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_realized_syzygy_matches_label(n):
    for lab in strings.canonical_labels(n):
        M = strings.realize_x(n, F2, lab)
        assert reps.check_relations(M) == []
        om = reps.syzygy(M)
        expected = strings.realize_x(n, F2, strings.syzygy_label(n, lab))
        assert reps.is_isomorphic(om, expected), lab


def test_realize_x_structure_agrees_with_oracle():
    for n in (2, 3, 4):
        for lab in strings.canonical_labels(n):
            head, soc, dim = strings.structure_of(n, lab)
            M = strings.realize_x(n, F2, lab)
            assert reps.head(M) == head
            assert reps.socle(M) == soc
            assert M.total_dim == dim


def test_normalize_p_examples():
    assert normalize_p(3, -1, 5) == (2,)
    assert normalize_p(2, -2, 4) == (1,)
    assert normalize_p(3, 1, 3) == (1, 3)


def test_normalize_p_orbit_constant():
    n = 3
    for i in range(-8, 9):
        for j in range(-8, 9):
            if (j - i) % 2:
                continue
            canon = normalize_p(n, i, j)
            assert normalize_p(n, j + 1, i - 1) == canon
            assert normalize_p(n, i, -j) == canon
            assert normalize_p(n, i, j + 2 * n) == canon
            assert normalize_p(n, i - 2 * n, j) == canon


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cover_consistency(n):
    # projective sum of the widened pair = head of the widened string
    for i in range(1, n + 1):
        for k in range(0, 4 * n + 1):
            psum = normalize_p(n, i - k, i + k)
            head, _, _ = strings.structure_of(n, (i - k, i + k))
            assert sorted(psum) == sorted(head)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ext_criterion_consistency(n):
    # membership of S_j in the head of the k-th widened string agrees with
    # the brute-force hom space of the k-th syzygy
    for i in range(1, n + 1):
        M = reps.simple_rep(n, F2, i)
        for k in range(0, 4 * n + 1):
            head, _, _ = strings.structure_of(n, (i - k, i + k))
            for j in range(1, n + 1):
                d = len(reps.hom_space(M, reps.simple_rep(n, F2, j)))
                assert d == (1 if j in head else 0), (n, i, j, k)
            M = reps.syzygy(M)
