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
degree 1 on.  The verifier certifies d o d = 0, minimality (entries in
the radical), exactness against the representation oracle, and that the
image of d_k is the expected string module at every degree.  The syzygy
suite certifies the label formula for Omega on the oracle and derives
Omega-periodicity of the simples from it.

Differentials, and the partial identities that are the generic
components of the generator chain maps (``common_factor_matrix``), are
shared objects, one per pair of terms on the algebra: never edit cells.
A ``HomMatrix`` stores nonzero cells only; the producers that can make a
zero cell drop it, and the constructor does not look (see ``HomMatrix``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg, reps, strings
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
    indices), and ``hom_matrix_compose`` then re-keys the other operand's
    cells.  It is a fact about the cells, so ``==`` ignores it.
    """

    source: tuple
    target: tuple
    cells: dict  # (row, col) -> nonzero HomElement
    pairing: dict | None = field(default=None, compare=False)  # column -> row

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


def hom_matrix_compose(alg: LineAlgebra, A: HomMatrix, B: HomMatrix) -> HomMatrix:
    """A o B (B acts first).  Id o a = a o Id = a, so a paired operand
    (see ``HomMatrix``) only moves the other one's cells."""
    if B.target != A.source:
        raise ValueError("shape mismatch composing morphism matrices")
    if B.pairing is not None:  # column m of A becomes column col[m]
        col = {m: c for c, m in B.pairing.items()}
        return HomMatrix(B.source, A.target,
                         {(r, col[m]): a for (r, m), a in A.cells.items() if m in col})
    if A.pairing is not None:  # row m of B becomes row pairing[m]
        row = A.pairing
        return HomMatrix(B.source, A.target,
                         {(row[m], c): b for (m, c), b in B.cells.items() if m in row})
    b_rows = {}  # row of B -> [(col, cell)]
    for (m, c), b in B.cells.items():
        b_rows.setdefault(m, []).append((c, b))
    cells = {}
    for (r, m), a in A.cells.items():
        for c, b in b_rows.get(m, ()):
            _accumulate(alg, cells, (r, c), alg.compose(a, b))
    return HomMatrix(B.source, A.target, nonzero_cells(cells))


def hom_matrix_add(alg: LineAlgebra, A: HomMatrix, B: HomMatrix) -> HomMatrix:
    if not A.cells:
        return B
    cells = dict(A.cells)
    for rc, b in B.cells.items():
        _accumulate(alg, cells, rc, b)
    return HomMatrix(A.source, A.target, nonzero_cells(cells))


def hom_matrix_scale(alg: LineAlgebra, c, A: HomMatrix) -> HomMatrix:
    """c * A; a nonzero scalar keeps every cell nonzero (a field has no zero divisors)."""
    cells = {rc: alg.scale(c, e) for rc, e in A.cells.items()} if c else {}
    return HomMatrix(A.source, A.target, cells)


def common_factor_matrix(alg: LineAlgebra, source: tuple, target: tuple) -> HomMatrix:
    """Identity on the summands the two canonical sums share, zero elsewhere;
    one paired object per pair of index tuples, kept in ``alg._common_factors``."""
    key = (source, target)
    M = alg._common_factors.get(key)
    if M is None:
        rows = {t: r for r, t in enumerate(target)}  # canonical: distinct
        pairing = {c: rows[s] for c, s in enumerate(source) if s in rows}
        M = alg._common_factors[key] = HomMatrix(
            source, target,
            {(r, c): alg.identity_hom(source[c]) for c, r in pairing.items()},
            pairing)
    return M


def closed_form_differential(alg: LineAlgebra, i: int, j: int) -> HomMatrix:
    """The differential with source the canonical sum of (i, j) and target
    that of (i+1, j-1), given by the uniform band/plateau pattern."""
    n = alg.n
    src = strings.normalize_p(n, i, j)
    tgt = strings.normalize_p(n, i + 1, j - 1)
    if src == tgt and len(src) == 1:
        v, = src
        sign = alg.field.from_int(alg.loop_sign(v))  # (-1)^v, with the boundary convention at v = N
        return HomMatrix(src, tgt, {(0, 0): alg.scale(sign, alg.loop_hom(v))})
    cells = {}
    for r, t in enumerate(tgt):
        for c, s in enumerate(src):
            if t == s + 1:
                cells[(r, c)] = alg.f_hom(s)
            elif t == s - 1:
                cells[(r, c)] = alg.fstar_hom(t)
    return HomMatrix(src, tgt, cells)


@dataclass
class PeriodicComplex:
    """A non-negatively graded complex of projective sums, eventually
    2N-periodic; terms repeat from degree 0, differentials from degree 1.

    Terms are listed eagerly; the complexes of one vertex share them and
    one ``memo`` (degree -> HomMatrix) of differentials built on request.
    closed_form_differential(alg, i-k, i+k) reads only term(k) and
    term(k-1), so a memo miss looks it up in ``alg._differentials`` under
    the pair of index tuples and builds it only for a new pair: d_k and
    d_{k+2N}, and R_i and R_{N+1-i} on shared terms, share one object.
    The key is the whole input, so no periodicity is assumed; and the
    2N-periodicity of the terms proves that of the differentials."""

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
        while k > self.depth:
            k -= self.period
        return self.terms[k]

    def diff(self, k: int) -> HomMatrix:
        """d_k : term k -> term k-1."""
        if k < 1:
            raise IndexError("differentials start in degree 1")
        while k > self.depth:
            k -= self.period
        d = self.memo.get(k)
        if d is None:
            table, i = self.alg._differentials, self.base_vertex
            key = (self.term(k), self.term(k - 1))
            if key not in table:
                table[key] = closed_form_differential(self.alg, i - k, i + k)
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


# ----------------------------------------------------------- realization


def psum_rep(alg: LineAlgebra, psum: tuple):
    """Realize a sum of projectives; returns (rep, offsets per summand)."""
    cached = alg._psum_reps.get(psum)
    if cached is not None:
        return cached
    result = reps.direct_sum([alg.projective(j) for j in psum])  # canonical sums are nonempty
    alg._psum_reps[psum] = result
    return result


def realize_hom_matrix(alg: LineAlgebra, A: HomMatrix) -> reps.RepMorphism:
    src_rep, src_off = psum_rep(alg, A.source)
    tgt_rep, tgt_off = psum_rep(alg, A.target)
    phi = reps.zero_morphism(src_rep, tgt_rep)
    for (r, c), entry in A.cells.items():
        alg.add_realization(phi.blocks, entry, tgt_off[r], src_off[c])
    return phi


# ----------------------------------------------------------- verification


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def verify_resolution(cx: PeriodicComplex, i: int) -> list[CheckResult]:
    """Certify the resolution: d o d = 0, minimality, oracle exactness and
    the identification of each image with the expected string module.

    d o d = 0, exactness (its failing vertices) and the image check (under
    the expected label) are memoized on the algebra by ``_verdict``, keyed
    on the differential objects they read: one per pair of terms and never
    edited, so no periodicity is assumed, and a damaged copy in a private
    memo is decided on its own.  Only N^2 of the 4N^2 (vertex, degree)
    pairs of R_1..R_N at depth 4N hold distinct differentials.  The
    "2N-periodicity" check compares content, so it still fails a private
    memo damaged one period from a partner within the depth.

    Exactness has one rule in every degree.  For realized maps
    img : A -> M and ker_of : M -> B, a vertex v of M's support fails
    unless ker_of_v img_v = 0 and rank img_v + rank ker_of_v = dim M_v.
    The product gives im img_v in ker ker_of_v, of dimension
    dim M_v - rank ker_of_v by rank-nullity, so equal ranks give equality.
    In degree k >= 1, img = d_{k+1} and ker_of = d_k.  In degree 0, ker_of
    spans Hom(P_i, S_i), one-dimensional as P_i has simple head S_i; its
    kernel is rad P_i, the unique maximal submodule, so the rule holds
    exactly when P_1 -> P_i -> S_i -> 0 is exact, i.e. coker d_1 ~ S_i.

    Within one call each differential is realized once and each realized
    block ranked once, as d_{k+1} is img in degree k and ker_of in degree
    k + 1.  The memos key on ids of objects that live through the call,
    and nothing edits a realization, so a remembered rank is exact."""
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

    realized = {}  # id -> realization, once per call and only where a verdict is missing
    ranks = {}  # (id of a realization or of head, vertex) -> rank of its block there

    def real(d):
        if id(d) not in realized:
            realized[id(d)] = realize_hom_matrix(alg, d)
        return realized[id(d)]

    def rank(phi, v):
        if (id(phi), v) not in ranks:
            ranks[id(phi), v] = linalg.rank(F, phi.block(v))
        return ranks[id(phi), v]

    def inexact(img, ker_of):  # the vertices of M where image(img) != kernel(ker_of)
        M = img.target
        return [v for v in M.support
                if not linalg.is_zero_mat(linalg.mat_mul(F, ker_of.block(v), img.block(v)))
                or rank(img, v) + rank(ker_of, v) != M.dim(v)]

    bad = []
    for k in range(1, depth):
        bad += [(k, v) for v in _verdict(alg, "exactness", (cx.diff(k + 1), cx.diff(k)),
                                          lambda a, b: inexact(real(a), real(b)))]
    checks.append(CheckResult("exactness in positive degrees", not bad,
                              f"(degree, vertex) pairs {bad}" if bad else ""))

    head = reps.hom_space(alg.projective(i), reps.simple_rep(n, F, i))[0]  # spans Hom(P_i, S_i)
    checks.append(CheckResult("cokernel in degree 0 is the simple", not inexact(real(cx.diff(1)), head)))

    def is_image(d, label):
        return reps.is_isomorphic(reps.image_subrep(real(d))[0], strings.realize_x(n, F, label))

    bad = []
    label = (i, i)
    for k in range(1, depth + 1):
        label = strings.syzygy_label(n, label)
        if not _verdict(alg, "image", (cx.diff(k),), is_image, label):
            bad.append(k)
    checks.append(CheckResult("images are the expected string modules", not bad,
                              f"degrees {bad}" if bad else ""))

    return checks


def verify_syzygies(alg: LineAlgebra) -> list[CheckResult]:
    """Certify the syzygy formula on the oracle and derive periodicity.

    The first check computes, on the oracle, Omega(realize_x(l)) for every
    canonical label l and certifies Omega(realize_x(l)) ~ realize_x(l')
    with l' = syzygy_label(l).  The module expected at l is the input at
    l', and syzygy_label permutes the labels, so each module is realized
    at its first read and dropped after its second.  That is exact, as
    ``realize_x`` is a function of the label and nothing edits a module.
    Every cover of the call reads one table of head shapes, so each P_v is
    built once per call (see ``reps.projective_cover``).

    The second check proves Omega^N(S_i) ~ S_{N+1-i} and Omega^2N(S_i) ~ S_i
    from those certificates without another projective cover.  Let
    l_0 = (i, i) and l_{k+1} = syzygy_label(l_k).  realize_x(l_0)
    is simple_rep(i), and Omega is well defined on isomorphism classes
    (isomorphic modules have isomorphic minimal covers and kernels).  So if
    l_0, ..., l_{k-1} are all certified, induction on k gives
    Omega^k(S_i) ~ realize_x(l_k).  The half period at S_i holds if
    l_0, ..., l_{N-1} are certified and l_N = (N+1-i, N+1-i); the full
    period if l_0, ..., l_{2N-1} are certified and l_2N = (i, i).
    Only the labels and the oracle's certificates are read, never the
    closed-form resolution.
    """
    n, F = alg.n, alg.field
    modules = {}  # label -> realize_x(label), from its first read to its second
    shapes = {}  # head vertex -> P_v and its walk list, for this call's covers

    def take(label):
        if label in modules:
            return modules.pop(label)
        modules[label] = strings.realize_x(n, F, label)
        return modules[label]

    certified = set()
    bad = []
    for label in strings.canonical_labels(n):
        omega = reps.syzygy(take(label), shapes)
        if reps.is_isomorphic(omega, take(strings.syzygy_label(n, label))):
            certified.add(label)
        else:
            bad.append(strings.format_label(label))
    checks = [CheckResult("syzygies of all canonical strings match their labels",
                          not bad, ", ".join(bad))]

    bad = []
    for i in range(1, n + 1):
        label, proven = (i, i), True
        for k in range(1, 2 * n + 1):
            proven = proven and label in certified
            label = strings.syzygy_label(n, label)
            if k == n and not (proven and label == (n + 1 - i, n + 1 - i)):
                bad.append(f"half-period at S_{i}")
        if not (proven and label == (i, i)):
            bad.append(f"full period at S_{i}")
    checks.append(CheckResult("syzygy periodicity", not bad, ", ".join(bad)))
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
