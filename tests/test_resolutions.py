"""The closed-form periodic resolutions and their certification."""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from extline.cli import main
from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra, format_hom
from extline import linalg, reps, resolutions, strings
from extline.ext_table import ext_table
from extline.resolutions import (
    HomMatrix,
    PeriodicComplex,
    build_resolution,
    closed_form_differential,
    corrupted_resolution,
    hom_matrix_compose,
    realize_hom_matrix,
    verify_resolution,
)


def algebra(n, char=2):
    return LineAlgebra(n, field_for_characteristic(char))


def test_band_differential_smallest_case():
    alg = algebra(3)
    d = closed_form_differential(alg, 1, 3)
    assert d.source == (1, 3)
    assert d.target == (2,)
    assert [format_hom(alg, e) for e in d.entries[0]] == ["F(1)", "FStar(2)"]


def test_plateau_differential_sign():
    alg = algebra(4, char=0)
    d = closed_form_differential(alg, 2, 2)
    assert format_hom(alg, d.entries[0][0]) == "Loop(2)"  # (+1)^2
    d = closed_form_differential(alg, 3, 3)
    assert format_hom(alg, d.entries[0][0]) == "-Loop(3)"


def test_degree_three_differential_kernel_n2():
    alg = algebra(2, char=0)
    cx = build_resolution(alg, 1, 8)
    phi = realize_hom_matrix(alg, cx.diff(3))
    F = alg.field
    ker_dims = [len(linalg.kernel_basis(F, phi.block(v) if phi.target.dim(v) else [],
                                        ncols=phi.source.dim(v))[0]) for v in (1, 2)]
    assert ker_dims == [1, 0]


def test_term_list_n2():
    alg = algebra(2)
    cx = build_resolution(alg, 1, 8)
    terms = [cx.term(k) for k in range(5)]
    assert terms == [(1,), (2,), (2,), (1,), (1,)]


def test_n1_resolution_is_loop_chain():
    alg = algebra(1, char=0)
    cx = build_resolution(alg, 1, 6)
    for k in range(7):
        assert cx.term(k) == (1,)
    for k in range(1, 7):
        assert format_hom(alg, cx.diff(k).entries[0][0]) in ("Loop(1)", "-Loop(1)")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_half_period_term_is_reflected_projective(n):
    alg = algebra(n)
    for i in range(1, n + 1):
        cx = build_resolution(alg, i)
        assert cx.term(n) == (n + 1 - i,)
        assert cx.term(2 * n) == (i,)


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_resolution_passes(n, char):
    alg = algebra(n, char)
    for i in range(1, n + 1):
        report = verify_resolution(build_resolution(alg, i, 4 * n), i)
        assert not [(c.name, c.detail) for c in report if not c.ok]


@given(st.integers(1, 8), st.sampled_from([0, 2, 3, 5]), st.data())
def test_verify_resolution_passes_on_drawn_cases(n, char, data):
    i, depth = data.draw(st.integers(1, n)), data.draw(st.integers(2 * n + 2, 6 * n + 1))
    report = verify_resolution(build_resolution(algebra(n, char), i, depth), i)
    assert [c.name for c in report if not c.ok] == []


def test_term_multiset_equals_string_head():
    for n in (2, 3, 4):
        alg = algebra(n)
        for i in range(1, n + 1):
            cx = build_resolution(alg, i, 4 * n)
            for k in range(4 * n + 1):
                head, _, _ = strings.structure_of(n, (i - k, i + k))
                assert sorted(cx.term(k)) == sorted(head)


def test_corrupted_sign_breaks_square_zero():
    alg = algebra(3, char=0)
    bad = corrupted_resolution(alg, 2, 12)
    report = verify_resolution(bad, 2)
    names = {c.name for c in report if not c.ok}
    assert "d o d = 0" in names
    detail = [c.detail for c in report if not c.ok and c.name == "d o d = 0"][0]
    assert "degrees" in detail


def test_corrupted_entry_detected_in_char_two():
    alg = algebra(3, char=2)
    bad = corrupted_resolution(alg, 2, 12)
    report = verify_resolution(bad, 2)
    assert not all(c.ok for c in report)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("n", range(3, 9))
def test_end_vertex_control_fails_exactness_not_square_zero(n, char, capsys):
    # R_1 and R_N have only 1x1 differentials, so no single entry breaks
    # d o d; the control zeroes the plateau loop d_N on P_{N+1-i} instead,
    # and exactness fails at both ends of that loop, at vertex N+1-i
    for i in (1, n):
        report = verify_resolution(corrupted_resolution(algebra(n, char), i), i)
        failed = {c.name: c.detail for c in report if not c.ok}
        assert "d o d = 0" not in failed
        v = n + 1 - i
        assert failed["exactness in positive degrees"] == f"(degree, vertex) pairs {[(n - 1, v), (n, v)]}"
        argv = ["resolve", "--n", str(n), "--i", str(i), "--char", str(char), "--debug-corrupt-sign"]
        assert main(argv) == 1
    capsys.readouterr()


def test_square_zero_symbolically_two_periods():
    for n in (2, 3, 5):
        alg = algebra(n)
        for i in range(1, n + 1):
            cx = build_resolution(alg, i, 4 * n)
            for k in range(2, 4 * n + 1):
                assert not hom_matrix_compose(alg, cx.diff(k - 1), cx.diff(k)).cells


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_reads_past_the_depth_fold_back_one_period(char):
    # one arithmetic step folds a degree past the depth: at depth, depth + 1,
    # depth + 2N and every degree up to three periods on, d_k is the object
    # d_{k-2N}, and term k is the canonical sum of its interval
    for n in range(1, 7):
        alg, p = algebra(n, char), 2 * n
        for i in range(1, n + 1):
            for depth in (2 * n + 2, 2 * n + 3, 4 * n, 5 * n + 1):
                cx = build_resolution(alg, i, depth)
                for k in (depth, depth + 1, depth + p, *range(depth + 2, depth + 3 * p + 1)):
                    assert cx.diff(k) is cx.diff(k - p), (n, i, depth, k)
                    assert cx.term(k) == cx.term(k - p) == strings.normalize_p(n, i - k, i + k)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_lazy_differentials_equal_closed_form(char):
    # complexes of one vertex share their memo whatever their depth, reads
    # past the depth fold back by the period, and across vertices and
    # degrees two differentials are one object exactly when their pairs of
    # terms are equal
    for n in range(1, 7):
        alg = algebra(n, char)
        by_terms = {}  # (term_k, term_{k-1}) indices -> the differential met
        for i in range(1, n + 1):
            shallow = build_resolution(alg, i, 2 * n + 2)
            deep = build_resolution(alg, i, 4 * n)
            assert shallow.memo is deep.memo
            for cx in (shallow, deep):
                for k in range(1, cx.depth + 4 * n + 1):
                    d = cx.diff(k)
                    assert d == closed_form_differential(alg, i - k, i + k), (
                        n, i, k, cx.depth)
                    terms = (cx.term(k), cx.term(k - 1))
                    assert by_terms.setdefault(terms, d) is d, (n, i, k, cx.depth)
        assert len({id(d) for d in by_terms.values()}) == len(by_terms), n

        # a corrupted complex's private memo never reaches the shared
        # table: the clean complexes built after it still read closed forms
        alg = algebra(n, char)
        for i in range(1, n + 1):
            corrupted_resolution(alg, i)
            for j in range(1, n + 1):
                cx = build_resolution(alg, j)
                for k in range(1, cx.depth + 1):
                    assert cx.diff(k) == closed_form_differential(alg, j - k, j + k), (
                        n, i, j, k)


def test_ext_table_builds_no_differentials(monkeypatch):
    built = []
    original = resolutions.closed_form_differential

    def counting(alg, i, j):
        built.append((i, j))
        return original(alg, i, j)

    monkeypatch.setattr(resolutions, "closed_form_differential", counting)
    ext_table(10)
    assert built == []
    # the guard is live: reading a differential does reach the counter
    build_resolution(algebra(3), 1).diff(1)
    assert built == [(0, 2)]


def outcome(report):
    return [(c.name, c.ok, c.detail) for c in report]


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_corruption_does_not_poison_the_shared_memo(char):
    # the oracle verdicts are memoized on the algebra: a corrupted complex
    # and a clean one verified on it, in either order, report as they do alone
    for makers in ([corrupted_resolution, build_resolution],
                   [build_resolution, corrupted_resolution]):
        alg = algebra(3, char)
        for i, make in itertools.product(range(1, 4), makers):
            shared = outcome(verify_resolution(make(alg, i, 12), i))
            assert shared == outcome(verify_resolution(make(algebra(3, char), i, 12), i))
            assert all(ok for _, ok, _ in shared) == (make is build_resolution)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_shared_algebra_reports_as_fresh_ones(char):
    # the suite verifies every R_i on one algebra; each report must be the
    # one a fresh algebra gives, at the default depth and at others
    for n in range(1, 9):
        alg = algebra(n, char)
        for depth in (None, 2 * n + 2, 4 * n + 3):
            for i in range(1, n + 1):
                shared = verify_resolution(build_resolution(alg, i, depth), i)
                fresh = verify_resolution(build_resolution(algebra(n, char), i, depth), i)
                assert outcome(shared) == outcome(fresh), (n, depth, i)
                assert all(c.ok for c in shared)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_corruption_one_period_on_is_checked_again(char):
    # N = 3, i = 2: d_8 = d_{2+2N} loses a cell while d_2 stays clean, so a
    # verdict memoized for d_2 must not stand in for d_8
    alg = algebra(3, char)
    cx = build_resolution(alg, 2, 12)
    assert all(c.ok for c in verify_resolution(cx, 2))  # memoizes the clean verdicts first
    d = cx.diff(8)
    assert sorted(d.cells) == [(0, 0), (1, 0)]
    memo = dict(cx.memo)  # a private memo: the shared one stays intact
    memo[8] = HomMatrix(d.source, d.target, {(1, 0): d.entry(1, 0)})
    bad = PeriodicComplex(alg, 2, cx.depth, cx.terms, memo)
    report = outcome(verify_resolution(bad, 2))
    alone = PeriodicComplex(algebra(3, char), 2, cx.depth, cx.terms, memo)
    assert report == outcome(verify_resolution(alone, 2))
    failed = {name: detail for name, ok, detail in report if not ok}
    assert failed == {
        "d o d = 0": "failing at degrees [8]",
        "2N-periodicity": "degrees [2]",
        "exactness in positive degrees": "(degree, vertex) pairs [(7, 1), (7, 2), (8, 1)]",
        "images are the expected string modules": "degrees [8]",
    }


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_image_verdicts_are_keyed_by_the_expected_label(char, monkeypatch):
    # R_1's verdicts are memoized first; then Omega(S_1) is expected to be
    # S_2, and the same differentials must fail against the new labels
    alg = algebra(3, char)
    assert all(c.ok for c in verify_resolution(build_resolution(alg, 1), 1))
    real = strings.syzygy_label
    monkeypatch.setattr(strings, "syzygy_label", lambda n, label: (
        (2, 2) if label == (1, 1) else real(n, label)))
    shared = outcome(verify_resolution(build_resolution(alg, 1), 1))
    assert shared == outcome(verify_resolution(build_resolution(algebra(3, char), 1), 1))
    (_, ok, detail), = [c for c in shared if c[0] == "images are the expected string modules"]
    assert not ok and detail.startswith("degrees [1, ")


def record_calls(monkeypatch, module, name, log):
    """Replace module.name by a wrapper that appends each call's arguments to log."""
    fn = getattr(module, name)

    def wrapper(*args):
        log.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_resolution_suite_checks_each_differential_once(monkeypatch, capsys):
    # over R_1..R_N at depth 4N there are N^2 distinct differentials among
    # the 4N^2 (vertex, degree) pairs; the oracle sees each once.  d_1 is
    # realized once more for the degree-0 check of each R_i whose d_1 was
    # met before (as d_{N+1} of R_{N+1-i}) and so has no oracle miss: N/2.
    # d o d is computed once per distinct pair (d_{k-1}, d_k) of objects.
    n, realized, images, products = 8, [], [], []
    record_calls(monkeypatch, resolutions, "realize_hom_matrix", realized)
    record_calls(monkeypatch, reps, "image_subrep", images)
    record_calls(monkeypatch, resolutions, "hom_matrix_compose", products)
    assert main(["verify", "--suite", "resolution", "--n", str(n), "--char", "3"]) == 0
    capsys.readouterr()
    assert len(images) <= n * n
    assert len(realized) <= n * n + n // 2
    alg = algebra(n, 3)  # one object per pair of terms, so distinct pairs of terms count
    pairs = {(cx.term(k), cx.term(k - 1), cx.term(k - 2))
             for cx in (build_resolution(alg, i) for i in range(1, n + 1))
             for k in range(2, cx.depth + 1)}
    assert len({(id(a), id(b)) for _, a, b in products}) == len(products) == len(pairs)


def test_resolution_suite_ranks_each_realized_block_once(monkeypatch, capsys):
    # d_{k+1} is img in degree k and ker_of in degree k + 1, and its block
    # ranks are remembered within the call: 286 ranks at N = 6 over F_3,
    # where ranking each block at each use took 410
    ranks = []
    record_calls(monkeypatch, linalg, "rank", ranks)
    assert main(["verify", "--suite", "resolution", "--n", "6", "--char", "3"]) == 0
    capsys.readouterr()
    assert len(ranks) < 410


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_equal_copy_of_a_shared_differential_is_decided_again(char, monkeypatch):
    # verdicts are keyed on differential objects: a new, equal-content copy
    # of a shared d_k in a private memo gets verdicts of its own, and they
    # read as the shared one's do
    alg = algebra(3, char)
    cx = build_resolution(alg, 2, 12)
    clean = outcome(verify_resolution(cx, 2))
    d = cx.diff(5)
    memo = dict(cx.memo)  # a private memo: the shared one stays intact
    memo[5] = copy = HomMatrix(d.source, d.target, dict(d.cells))
    assert copy == d and copy is not d
    realized, products = [], []
    record_calls(monkeypatch, resolutions, "realize_hom_matrix", realized)
    record_calls(monkeypatch, resolutions, "hom_matrix_compose", products)
    report = outcome(verify_resolution(PeriodicComplex(alg, 2, cx.depth, cx.terms, memo), 2))
    assert report == clean and all(ok for _, ok, _ in report)
    assert [(a is copy, b is copy) for _, a, b in products] == [(False, True), (True, False)]
    assert [A is copy for _, A in realized] == [True, False, False]  # then d_4 and d_6 beside it


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_identity_in_a_differential_fails_minimality(char):
    # N = 3, i = 1: d_3 is the first plateau, a loop P_3 -> P_3
    alg = algebra(3, char)
    cx = build_resolution(alg, 1, 12)
    d = cx.diff(3)
    assert d.source == d.target == (3,)
    memo = dict(cx.memo)  # a private memo: the shared one stays intact
    memo[3] = HomMatrix(d.source, d.target, {(0, 0): alg.add(d.entry(0, 0), alg.identity_hom(3))})
    report = verify_resolution(PeriodicComplex(alg, 1, cx.depth, cx.terms, memo), 1)
    (check,) = [c for c in report if c.name == "minimality"]
    assert not check.ok
    assert check.detail == "identity component at degrees [3]"
    assert all(c.ok for c in verify_resolution(build_resolution(alg, 1, 12), 1))


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_dropped_cell_of_d1_fails_the_degree_zero_check(char):
    # N = 3, i = 2: d_1 = (P_1 + P_3 -> P_2) has two cells; without the one
    # from P_3 its image misses rad P_2 at vertex 3
    alg = algebra(3, char)
    cx = build_resolution(alg, 2, 12)
    d = cx.diff(1)
    assert sorted(d.cells) == [(0, 0), (0, 1)]
    memo = dict(cx.memo)  # a private memo: the shared one stays intact
    memo[1] = HomMatrix(d.source, d.target, {(0, 0): d.entry(0, 0)})
    report = verify_resolution(PeriodicComplex(alg, 2, cx.depth, cx.terms, memo), 2)
    (check,) = [c for c in report if c.name == "cokernel in degree 0 is the simple"]
    assert not check.ok
    assert all(c.ok for c in verify_resolution(build_resolution(alg, 2, 12), 2))


# ------------------------------------------------------------ syzygy suite

SYZYGY_CHECKS = ["syzygies of all canonical strings match their labels", "syzygy periodicity"]


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_syzygy_suite_passes(char):
    for n in range(1, 9):
        report = resolutions.verify_syzygies(algebra(n, char))
        assert [c.name for c in report] == SYZYGY_CHECKS
        assert not [(c.name, c.detail) for c in report if not c.ok], n


@pytest.mark.parametrize("char", [0, 3])
def test_syzygy_suite_realizes_each_label_once(char, monkeypatch):
    # the module of syzygy_label(l) is the input module of that label, so
    # one realization per canonical label serves both reads
    realized = []
    record_calls(monkeypatch, strings, "realize_x", realized)
    for n in range(1, 7):
        realized.clear()
        resolutions.verify_syzygies(algebra(n, char))
        assert sorted(label for _, _, label in realized) == sorted(strings.canonical_labels(n))


@pytest.mark.parametrize("char", [0, 3])
def test_syzygy_suite_builds_each_projective_once(char, monkeypatch):
    # every cover of one suite call reads one table of head shapes
    built = []
    record_calls(monkeypatch, reps, "projective_rep", built)
    for n in range(1, 7):
        built.clear()
        resolutions.verify_syzygies(algebra(n, char))
        heads = [v for _, _, v in built]
        assert len(heads) <= n and len(set(heads)) == len(heads), (n, heads)


def test_syzygy_suite_eliminates_each_kernel_basis_once(monkeypatch):
    # a cover's kernel basis is its submodule basis, read at the free
    # columns: 348 eliminations at N = 6 over F_3 when the submodule
    # reduced that basis again, 242 without
    eliminated = []
    record_calls(monkeypatch, linalg, "rref", eliminated)
    resolutions.verify_syzygies(algebra(6, 3))
    assert len(eliminated) <= 242


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_wrong_syzygy_label_fails_both_checks(char, monkeypatch, capsys):
    # Omega(S_1)'s label is sent to S_1: the oracle refutes it, so the
    # periodicity proofs through it fail at S_1 (steps 1..) and at S_4,
    # whose orbit meets S_1 at step N = 4 and the bad label one step later
    n = 4
    real = strings.syzygy_label
    victim = real(n, (1, 1))

    def wrong(n_, label):
        return (1, 1) if label == victim else real(n_, label)

    monkeypatch.setattr(strings, "syzygy_label", wrong)
    assert main(["verify", "--suite", "syzygy", "--n", str(n), "--char", str(char),
                 "--format", "json"]) == 1
    first, periodicity = json.loads(capsys.readouterr().out)["checks"]
    assert [first["name"], periodicity["name"]] == SYZYGY_CHECKS
    assert first["status"] == periodicity["status"] == "fail"
    assert first["detail"] == "X[(down,1)|(up,2)]"
    assert periodicity["detail"] == "half-period at S_1, full period at S_1, full period at S_4"


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_refuted_second_half_label_fails_the_full_period(char, monkeypatch):
    # the oracle is made to refute Omega(S_4)'s label, which S_1's orbit
    # meets at step N + 1: S_1 keeps its half period but loses its full one
    n, F = 4, field_for_characteristic(char)
    victim = strings.syzygy_label(n, (n, n))
    V = strings.realize_x(n, F, victim)
    real = reps.syzygy

    def refuting(M, *rest):  # rest: the suite's table of head shapes, forwarded
        return reps.zero_rep(n, F) if (M.dims, M.arrows) == (V.dims, V.arrows) else real(M, *rest)

    monkeypatch.setattr(reps, "syzygy", refuting)
    first, periodicity = resolutions.verify_syzygies(algebra(n, char))
    assert (first.ok, first.detail) == (False, "X[(up,3)|(down,4)]")
    assert (periodicity.ok, periodicity.detail) == (
        False, "full period at S_1, half-period at S_4, full period at S_4")
