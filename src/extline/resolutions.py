"""Closed-form minimal projective resolutions of the simple modules.

The resolution R_i of S_i has k-th term the canonical projective sum of
the interval (i-k, i+k) and differentials following a single uniform
pattern between canonical terms:

  * between distinct terms, the matrix has a step map F(s) wherever the
    target contains s+1 and a co-step FStar(t) wherever it contains s-1,
    all with coefficient +1 (the bidiagonal band);
  * at the plateau degrees, where two consecutive terms are the same
    single projective P_j, the differential is the signed loop

        (-1)^j Loop(j)        for j <= N-1,
        (-1)^(N-1) Loop(N)    for j = N,

    i.e. the composite of a step and a co-step through a neighbour.

Everything is 2N-periodic: terms from degree 0 on, differentials from
degree 1 on.  The verifier here certifies d o d = 0, minimality (entries
in the radical), canonical terms and periodicity; exactness and the
images of the d_k, like the syzygy formula, are certified against the
representation oracle in ``certify``.

Differentials, and the partial identities that are the generic
components of the generator chain maps (``common_factor_matrix``), are
shared objects, one per pair of terms on the algebra.  A full identity
is a unit of ``hom_matrix_compose``, which then returns the other
operand object itself, so any compose result may be shared too: never
edit cells.  A ``HomMatrix`` stores nonzero cells only; the producers
that can make a zero cell drop it, and the constructor does not look
(see ``HomMatrix``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import strings
from .homs import HomElement, LineAlgebra


@dataclass
class HomMatrix:
    """Matrix of morphisms between sums of projectives, stored sparsely.

    ``source`` and ``target`` are index tuples of canonical sums (see
    ``strings.normalize_p``).  cells[(r, c)] : P_{source[c]} -> P_{target[r]}
    holds only nonzero entries; an absent cell is zero, so a matrix is zero
    exactly when ``not cells``.  The constructor takes cells as given: the
    producers that can make a zero drop it (the generic product, ``add``,
    ``scale`` by zero, a solved family's ``read`` and a corrupted entry),
    and the others (paired re-keys, partial identities, differentials,
    generator components) only place nonzero cells.  The calculus returns
    every zero as (), so ``e.slots`` decides.  Since cells are nonzero,
    scalars canonical and slot counts fixed by shape, ``==`` is equality
    of morphism matrices.

    ``pairing`` (column -> row), when set, says the cells are exactly the
    identities at (pairing[c], c): at most one per row and per column.
    ``common_factor_matrix`` sets it (canonical terms have distinct
    indices) with its inverse, ``inverse_pairing`` (row -> column), and
    ``identity``, which says the matrix is a full identity: paired,
    square, and every column paired.  ``hom_matrix_compose`` then re-keys
    the other operand's cells, or returns that operand itself if this one
    is a full identity.  All three are facts about the cells, so ``==``
    ignores them.  A compose result may thus be an operand: never edit
    cells.
    """

    source: tuple
    target: tuple
    cells: dict  # (row, col) -> nonzero HomElement
    pairing: dict | None = field(default=None, compare=False)  # column -> row
    inverse_pairing: dict | None = field(default=None, compare=False)  # row -> column
    identity: bool = field(default=False, compare=False)  # a full identity

    def entry(self, r: int, c: int) -> HomElement:
        e = self.cells.get((r, c))
        return e if e is not None else HomElement(self.source[c], self.target[r])

    @property
    def entries(self):
        """Read-only dense view: a tuple of rows of HomElements."""
        return tuple(tuple(self.entry(r, c) for c in range(len(self.source)))
                     for r in range(len(self.target)))


def _accumulate(alg: LineAlgebra, cells: dict, key, elem: HomElement) -> None:
    """cells[key] += elem, reading an absent cell as zero."""
    cells[key] = alg.add(cells[key], elem) if key in cells else elem


def nonzero_cells(cells: dict) -> dict:
    """The cells that are not zero (the calculus returns every zero as ())."""
    return {rc: e for rc, e in cells.items() if e.slots}


def compose_cells(alg: LineAlgebra, A: HomMatrix, B: HomMatrix) -> dict:
    """The cells of A o B (B acts first).  Id o a = a o Id = a, so a full
    identity returns the other operand's own cells (never edit them), and
    a paired operand (see ``HomMatrix``) only moves the other one's cells."""
    if B.target != A.source:
        raise ValueError("shape mismatch composing morphism matrices")
    if B.identity:
        return A.cells
    if A.identity:
        return B.cells
    if B.pairing is not None:  # column m of A becomes column col[m]
        col = B.inverse_pairing
        return {(r, col[m]): a for (r, m), a in A.cells.items() if m in col}
    if A.pairing is not None:  # row m of B becomes row pairing[m]
        row = A.pairing
        return {(row[m], c): b for (m, c), b in B.cells.items() if m in row}
    b_rows = {}  # row of B -> [(col, cell)]
    for (m, c), b in B.cells.items():
        b_rows.setdefault(m, []).append((c, b))
    cells = {}
    for (r, m), a in A.cells.items():
        for c, b in b_rows.get(m, ()):
            _accumulate(alg, cells, (r, c), alg.compose(a, b))
    return nonzero_cells(cells)


def hom_matrix_compose(alg: LineAlgebra, A: HomMatrix, B: HomMatrix) -> HomMatrix:
    """A o B (B acts first): the other operand object itself where one is
    a full identity, else a new matrix of ``compose_cells``.  A result may
    thus be an operand, shared as it is: never edit its cells."""
    cells = compose_cells(alg, A, B)
    if cells is A.cells:  # B is a full identity
        return A
    if cells is B.cells:  # A is a full identity
        return B
    return HomMatrix(B.source, A.target, cells)


def add_cells(alg: LineAlgebra, a: dict, b: dict) -> dict:
    """The cells of the sum of two matrices of one shape given by their
    cells; one summand's own dict where the other has none."""
    if not a:
        return b
    cells = dict(a)
    for rc, e in b.items():
        _accumulate(alg, cells, rc, e)
    return nonzero_cells(cells)


def hom_matrix_add(alg: LineAlgebra, A: HomMatrix, B: HomMatrix) -> HomMatrix:
    if not A.cells:
        return B
    return HomMatrix(A.source, A.target, add_cells(alg, A.cells, B.cells))


def hom_matrix_scale(alg: LineAlgebra, c, A: HomMatrix) -> HomMatrix:
    """c * A; a nonzero scalar keeps every cell nonzero (a field has no zero divisors)."""
    cells = {rc: alg.scale(c, e) for rc, e in A.cells.items()} if c else {}
    return HomMatrix(A.source, A.target, cells)


def common_factor_matrix(alg: LineAlgebra, source: tuple, target: tuple) -> HomMatrix:
    """Identity on the summands the two canonical sums share, zero elsewhere;
    one paired object per pair of index tuples, kept in ``alg._common_factors``,
    that records whether it is a full identity."""
    key = (source, target)
    M = alg._common_factors.get(key)
    if M is None:
        rows = {t: r for r, t in enumerate(target)}  # canonical: distinct
        pairing = {c: rows[s] for c, s in enumerate(source) if s in rows}
        M = alg._common_factors[key] = HomMatrix(
            source, target,
            {(r, c): alg.identity_hom(source[c]) for c, r in pairing.items()},
            pairing, {r: c for c, r in pairing.items()},
            source == target and len(pairing) == len(source))
    return M


def closed_form_differential(alg: LineAlgebra, src: tuple, tgt: tuple) -> HomMatrix:
    """The differential between two consecutive canonical terms, given by
    their index tuples (the canonical sums of (i, j) and (i+1, j-1), see
    ``strings.normalize_p``), in the uniform band/plateau pattern."""
    if src == tgt and len(src) == 1:
        v, = src
        sign = alg.field.from_int(alg.loop_sign(v))  # (-1)^v, with the boundary convention at v = N
        return HomMatrix(src, tgt, {(0, 0): alg.scale(sign, alg.loop_hom(v))})
    cols = {s: c for c, s in enumerate(src)}  # canonical: distinct and increasing
    cells = {}  # row by row, columns increasing
    for r, t in enumerate(tgt):
        c = cols.get(t - 1)
        if c is not None:
            cells[(r, c)] = alg.f_hom(t - 1)
        c = cols.get(t + 1)
        if c is not None:
            cells[(r, c)] = alg.fstar_hom(t)
    return HomMatrix(src, tgt, cells)


def fold_degree(k: int, top: int, period: int) -> int:
    """The degree that k reads when degrees past top repeat with period: k up to top, else
    the one of (top - period, top]; hot readers test k > top first to save the call."""
    return k if k <= top else top - (top - k) % period


@dataclass
class PeriodicComplex:
    """A non-negatively graded complex of projective sums, eventually
    2N-periodic; terms repeat from degree 0, differentials from degree 1.

    Terms are listed eagerly; the complexes of one vertex share them and
    one ``memo`` (degree -> HomMatrix) of differentials built on request.
    A memo miss looks d_k up in ``alg._differentials`` under the pair
    (term(k), term(k-1)) of index tuples and builds it, as
    closed_form_differential(alg, term(k), term(k-1)), only for a new
    pair: d_k and d_{k+2N}, and R_i and R_{N+1-i} on shared terms, share
    one object.  The key is the whole input, so no periodicity is
    assumed; and the 2N-periodicity of the terms proves that of the
    differentials."""

    alg: LineAlgebra
    base_vertex: int
    depth: int
    terms: list  # index tuples of canonical sums, degrees 0..depth
    memo: dict

    @property
    def period(self) -> int:
        return 2 * self.alg.n

    def term(self, k: int) -> tuple:
        if k < 0:
            raise IndexError("negative degree")
        if k > self.depth:
            k = fold_degree(k, self.depth, self.period)
        return self.terms[k]

    def diff(self, k: int) -> HomMatrix:
        """d_k : term k -> term k-1."""
        if k < 1:
            raise IndexError("differentials start in degree 1")
        if k > self.depth:
            k = fold_degree(k, self.depth, self.period)
        d = self.memo.get(k)
        if d is None:
            table = self.alg._differentials
            key = (self.term(k), self.term(k - 1))
            if key not in table:
                table[key] = closed_form_differential(self.alg, *key)
            d = self.memo[k] = table[key]
        return d


def build_resolution(alg: LineAlgebra, i: int, depth: int | None = None) -> PeriodicComplex:
    """Minimal projective resolution of S_i to the given depth (>= 2N+2)."""
    alg._check_vertex(i)
    n = alg.n
    if depth is None:
        depth = 4 * n
    depth = max(depth, 2 * n + 2)
    terms, memo = alg._resolutions.setdefault(i, ([], {}))
    for k in range(len(terms), depth + 1):
        terms.append(strings.normalize_p(n, i - k, i + k))
    return PeriodicComplex(alg, i, depth, terms[:depth + 1], memo)


# ----------------------------------------------------------- verification


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def verify_resolution(cx: PeriodicComplex, i: int) -> list[CheckResult]:
    """The structural checks of the resolution: d o d = 0, minimality,
    canonical terms and 2N-periodicity (``certify`` makes the oracle's).

    d o d = 0 is memoized on the algebra by ``_verdict``, as the oracle's
    verdicts are, keyed on the differential objects it reads: one per pair
    of terms and never edited, so no periodicity is assumed, and a damaged
    copy in a private memo is decided on its own.  Only N^2 of the 4N^2
    (vertex, degree) pairs of R_1..R_N at depth 4N hold distinct
    differentials.  The "2N-periodicity" check compares content, so it
    still fails a private memo damaged one period from a partner within
    the depth."""
    alg = cx.alg
    F = alg.field
    n = alg.n
    checks = []
    depth = cx.depth

    bad = _square_zero_failures(cx)
    checks.append(
        CheckResult("d o d = 0", not bad, f"failing at degrees {bad}" if bad else "")
    )

    bad = []
    for k in range(1, depth + 1):
        for e in cx.diff(k).cells.values():
            if not F.is_zero(e.identity_coefficient(F)):
                bad.append(k)
    checks.append(
        CheckResult("minimality", not bad, f"identity component at degrees {sorted(set(bad))}" if bad else "")
    )

    bad = []
    for k in range(0, depth + 1):
        if cx.term(k) != strings.normalize_p(n, i - k, i + k):
            bad.append(k)
    checks.append(CheckResult("terms are canonical interval sums", not bad,
                              f"degrees {bad}" if bad else ""))

    per = []
    for k in range(0, depth + 1 - 2 * n):
        if cx.term(k) != cx.term(k + 2 * n):
            per.append(k)
    for k in range(1, depth + 1 - 2 * n):
        if cx.diff(k) != cx.diff(k + 2 * n):
            per.append(k)
    checks.append(CheckResult("2N-periodicity", not per, f"degrees {per}" if per else ""))
    return checks


def _verdict(alg: LineAlgebra, name: str, operands: tuple, decide, *extra):
    """decide(*operands, *extra), memoized in ``alg._verdicts`` on the check
    name, the id of each differential operand and the hashable extras.  The
    entry holds the operands, so no id is reused while it is a key."""
    key = (name, *map(id, operands), *extra)
    if key not in alg._verdicts:
        alg._verdicts[key] = operands, decide(*operands, *extra)
    return alg._verdicts[key][1]


def _square_zero_failures(cx: PeriodicComplex):
    """The degrees 2 <= k <= depth where d_{k-1} o d_k is not zero, decided
    once per pair of differential objects (memoized on the algebra)."""
    def nonzero(a, b):
        return bool(hom_matrix_compose(cx.alg, a, b).cells)
    return [k for k in range(2, cx.depth + 1)
            if _verdict(cx.alg, "d o d", (cx.diff(k - 1), cx.diff(k)), nonzero)]


def corrupted_resolution(alg: LineAlgebra, i: int, depth: int | None = None) -> PeriodicComplex:
    """Negative control: damage one co-step entry of one differential.

    Rescaling a whole differential never disturbs d o d = 0, so the
    corruption must hit a single entry taking part in a two-term
    cancellation.  In characteristic != 2 the entry's sign is flipped; in
    characteristic 2 signs are invisible, so the entry is zeroed instead
    (which leaves one of the two cancelling composites alive).  Candidates
    are tried until d o d = 0 actually breaks; if none breaks it (R_1 and
    R_N have only 1x1 differentials for every N), a plateau loop is zeroed
    instead, which d o d misses and the exactness check catches.
    """
    cx = build_resolution(alg, i, depth)
    F = alg.field

    def with_entry(k, rc, new_entry):
        # a private memo: the shared one of build_resolution stays intact
        A = cx.diff(k)
        memo = dict(cx.memo)
        memo[k] = HomMatrix(A.source, A.target, nonzero_cells({**A.cells, rc: new_entry}))
        return PeriodicComplex(alg, i, cx.depth, cx.terms, memo)

    for k in range(1, cx.depth + 1):
        A = cx.diff(k)
        if len(A.cells) < 2:
            continue
        for rc in sorted(A.cells):
            e = A.cells[rc]
            if e.target != e.source - 1:  # co-step entries only
                continue
            if F.characteristic == 2:
                cand = with_entry(k, rc, alg.zero_hom(e.source, e.target))
            else:
                cand = with_entry(k, rc, alg.scale(F.from_int(-1), e))
            if _square_zero_failures(cand):
                return cand

    # fallback for the tiny cases: kill a plateau loop (exactness failure)
    for k in range(1, cx.depth + 1):
        A = cx.diff(k)
        for rc in sorted(A.cells):
            e = A.cells[rc]
            if e.source == e.target:  # minimality: an endomorphism entry is a loop
                return with_entry(k, rc, alg.zero_hom(e.source, e.target))
    raise RuntimeError("no entry found to corrupt")
