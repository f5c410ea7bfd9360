"""Label calculus of the string modules and projective sums: dihedral
normalization, structure readout, syzygy shift, oracle agreement."""

import pytest

from extline.fields import field_for_characteristic
from extline import reps, strings
from extline.strings import EndLabel, XLabel, normalize_p, normalize_x, simple_label, upper_label

F2 = field_for_characteristic(2)


def test_half_period_of_simple_labels():
    # the N-fold widened label of S_i collapses to S_{N+1-i}
    for n in (1, 2, 3, 5):
        for i in range(1, n + 1):
            lab = normalize_x(n, upper_label(i - n, i + n))
            assert lab.is_simple and lab.left.index == n + 1 - i


def test_equal_ends_denote_simples():
    for n in (2, 4):
        for i in range(1, n + 1):
            assert normalize_x(n, upper_label(i, i)) == simple_label(i)
            down = XLabel(EndLabel(False, i), EndLabel(False, i))
            assert normalize_x(n, down) == simple_label(i)


def test_left_wall_identification():
    # a label reaching past the left wall flips its end down at index 1
    for n in (2, 3, 4, 5):
        for l in range(1, n - 1, 2):
            lhs = normalize_x(n, upper_label(0, l + 1))
            rhs = normalize_x(n, XLabel(EndLabel(False, 1), EndLabel(True, l + 1)))
            assert lhs == rhs


def test_structure_of_examples():
    head, soc, dim = strings.structure_of(3, upper_label(1, 3))
    assert head == {1: 1, 3: 1} and soc == {2: 1} and dim == 3
    lower = XLabel(EndLabel(False, 1), EndLabel(False, 3))
    head, soc, dim = strings.structure_of(3, lower)
    assert head == {2: 1} and soc == {1: 1, 3: 1} and dim == 3
    head, soc, dim = strings.structure_of(3, simple_label(2))
    assert head == soc == {2: 1} and dim == 1


def test_syzygy_label_of_simple():
    lab = strings.syzygy_label(4, simple_label(2))
    assert lab == normalize_x(4, upper_label(1, 3))


def test_syzygy_label_twice_n2():
    lab = strings.syzygy_label(2, strings.syzygy_label(2, simple_label(1)))
    assert lab == simple_label(2)


def test_syzygy_label_example_n3():
    lab = strings.syzygy_label(3, upper_label(1, 3))
    assert lab == XLabel(EndLabel(False, 1), EndLabel(False, 3))


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
                    raw_cases.append(XLabel(EndLabel(up_l, i), EndLabel(up_r, j)))
    for raw in raw_cases:
        canon = normalize_x(n, raw)
        assert normalize_x(n, canon) == canon
        # each defining identification fixes the normal form
        moves = [
            XLabel(EndLabel(not raw.left.up, 1 - raw.left.index), raw.right),
            XLabel(raw.left, EndLabel(not raw.right.up, 1 - raw.right.index)),
            XLabel(EndLabel(raw.left.up, raw.left.index + 2 * n), raw.right),
            XLabel(raw.left, EndLabel(raw.right.up, raw.right.index - 2 * n)),
            XLabel(EndLabel(not raw.right.up, raw.right.index), EndLabel(not raw.left.up, raw.left.index)),
        ]
        for moved in moves:
            assert normalize_x(n, moved) == canon, (raw, moved)


def test_parity_violation_rejected():
    with pytest.raises(ValueError):
        normalize_x(3, XLabel(EndLabel(True, 1), EndLabel(True, 2)))
    with pytest.raises(ValueError):
        normalize_p(3, 1, 2)


def test_label_periodicity():
    n = 3
    for i in range(1, n + 1):
        for k in range(0, 4 * n):
            a = normalize_x(n, upper_label(i - k, i + k))
            b = normalize_x(n, upper_label(i - k - 2 * n, i + k + 2 * n))
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
    assert normalize_p(3, -1, 5).indices == (2,)
    assert normalize_p(2, -2, 4).indices == (1,)
    assert normalize_p(3, 1, 3).indices == (1, 3)


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
            head, _, _ = strings.structure_of(n, upper_label(i - k, i + k))
            assert sorted(psum.indices) == sorted(head)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ext_criterion_consistency(n):
    # membership of S_j in the head of the k-th widened string agrees with
    # the brute-force hom space of the k-th syzygy
    for i in range(1, n + 1):
        M = reps.simple_rep(n, F2, i)
        for k in range(0, 4 * n + 1):
            head, _, _ = strings.structure_of(n, upper_label(i - k, i + k))
            for j in range(1, n + 1):
                d = len(reps.hom_space(M, reps.simple_rep(n, F2, j)))
                assert d == (1 if j in head else 0), (n, i, j, k)
            M = reps.syzygy(M)
