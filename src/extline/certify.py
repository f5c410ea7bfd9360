"""The one bridge from the closed form to the representation oracle.

Everything that realizes a closed-form object on ``reps`` lives here:
basis morphisms and morphism matrices on the standard projectives, the
string modules, and the oracle's checks of a resolution and of the
syzygy formula.  No other module imports ``reps``, and only ``cli``
imports this one, so the two routes stay independent code paths.
``reps`` and ``linalg`` are reached as modules (``reps.hom_space(...)``),
so that a wrapper put on one of their functions sees every call here.

The normalization of ``homs`` is realized on the standard projectives
(all structure constants +1) by

    F(i) = (-1)^i * (basis map),   FStar(i) = (basis map),
    Loop(i) = (-1)^i * (basis loop) for i <= N-1,  (-1)^(N-1) for i = N.

Realized projective sums are kept in ``sums``, a memo that a caller
makes for one command and hands to each call, P_i being the sum (i,).
Nothing edits a realization, so sharing one is exact.
"""

from __future__ import annotations

from . import linalg, reps, strings
from .homs import ID_SLOT, LineAlgebra
from .resolutions import CheckResult, HomMatrix, PeriodicComplex, _verdict


def _realization(source: int, target: int, slot: int, n: int) -> tuple:
    """The nonzero entries (vertex, row, col, sign) of a basis morphism on
    the standard projectives: row and col index the target's and the
    source's basis at the vertex, head before socle."""
    i = min(source, target)
    if source == target and slot == ID_SLOT:
        middles = tuple((v, 0, 0, 1) for v in (i - 1, i + 1) if 1 <= v <= n)
        return ((i, 0, 0, 1), (i, 1, 1, 1)) + middles
    if source == target:  # Loop(i): head -> socle
        return ((i, 1, 0, -1 if min(i, n - 1) % 2 else 1),)
    if target > source:  # F(i): head of P_i -> middle of P_{i+1} at i; middle at i+1 -> socle
        sign = -1 if i % 2 else 1
        return ((i, 0, 0, sign), (i + 1, 1, 0, sign))
    # FStar(i): head of P_{i+1} -> middle of P_i at i+1; middle at i -> socle
    return ((i + 1, 0, 0, 1), (i, 1, 0, 1))


def psum_rep(alg: LineAlgebra, psum: tuple, sums: dict):
    """The oracle's sum of projectives, (rep, offsets per summand), kept in ``sums``."""
    cached = sums.get(psum)
    if cached is None:
        parts = ([reps.projective_rep(alg.n, alg.field, psum[0])] if len(psum) == 1
                 else [psum_rep(alg, (j,), sums)[0] for j in psum])  # canonical sums are nonempty
        cached = sums[psum] = reps.direct_sum(parts)
    return cached


def realize_hom_matrix(alg: LineAlgebra, A: HomMatrix, sums: dict) -> reps.RepMorphism:
    """The oracle morphism of A: each nonzero slot's entries are added
    straight into one dense morphism, at the summand offsets.  A morphism
    h of projectives is realized as the 1 x 1 matrix of h."""
    F = alg.field
    src_rep, src_off = psum_rep(alg, A.source, sums)
    tgt_rep, tgt_off = psum_rep(alg, A.target, sums)
    phi = reps.zero_morphism(src_rep, tgt_rep)
    for (r, c), h in A.cells.items():
        for k, x in h.terms():
            for v, row, col, sign in _realization(h.source, h.target, k, alg.n):
                line = phi.blocks[v][tgt_off[r][v - 1] + row]
                j = src_off[c][v - 1] + col
                line[j] = F.add(line[j], x if sign > 0 else F.neg(x))
    return phi


def realize_x(n: int, field, label: tuple) -> reps.QuiverRep:
    """The string module of a label, as a representation."""
    i, j, up = strings._span(n, label)
    if i == j:
        return reps.simple_rep(n, field, i)
    dims = [0] * n
    for p in range(i, j + 1):
        dims[p - 1] = 1
    arrows = {}
    for p in range(i, j):  # the strand between positions p and p+1
        arrows[("a", p) if up else ("b", p)] = [[field.one]]
        up = not up
    return reps.make_rep(n, field, dims, arrows)


def verify_exactness(cx: PeriodicComplex, i: int, sums: dict | None = None) -> list[CheckResult]:
    """The oracle's checks of the resolution cx of S_i, after the
    structural ones of ``resolutions.verify_resolution``: exactness in
    positive degrees, the cokernel in degree 0, and each image as the
    expected string module.  Exactness (its failing vertices) and the
    image check (under the expected label) are memoized on the algebra by
    ``resolutions._verdict``, keyed on the differential objects they read.

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
    sums = {} if sums is None else sums
    alg = cx.alg
    F, n = alg.field, alg.n
    realized = {}  # id -> realization, once per call and only where a verdict is missing
    ranks = {}  # (id of a realization or of head, vertex) -> rank of its block there

    def real(d):
        if id(d) not in realized:
            realized[id(d)] = realize_hom_matrix(alg, d, sums)
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
    for k in range(1, cx.depth):
        bad += [(k, v) for v in _verdict(alg, "exactness", (cx.diff(k + 1), cx.diff(k)),
                                          lambda a, b: inexact(real(a), real(b)))]
    checks = [CheckResult("exactness in positive degrees", not bad,
                          f"(degree, vertex) pairs {bad}" if bad else "")]

    P = psum_rep(alg, (i,), sums)[0]
    head = reps.hom_space(P, reps.simple_rep(n, F, i))[0]  # spans Hom(P_i, S_i)
    checks.append(CheckResult("cokernel in degree 0 is the simple", not inexact(real(cx.diff(1)), head)))

    def is_image(d, label):
        return reps.is_isomorphic(reps.image_subrep(real(d))[0], realize_x(n, F, label))

    bad = []
    label = (i, i)
    for k in range(1, cx.depth + 1):
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
        modules[label] = realize_x(n, F, label)
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
