"""The graded path algebra presented by the step/co-step/turnaround quiver.

Vertices 1..N; arrows x_i : i -> i+1 and x_i^* : i+1 -> i of degree 1
(1 <= i <= N-1) and y_i : i -> N+1-i of degree N (1 <= i <= N), subject
to the homogeneous relations (written in concatenation order, left
factor traversed first)

    (a)  x_1 x_1^* = 0,   x_{N-1}^* x_{N-1} = 0
    (b)  x_i^* x_i = x_{i+1} x_{i+1}^*            (1 <= i <= N-2)
    (c)  x_i y_{i+1} = y_i x_{N-i}^*              (1 <= i <= N-1)
    (d)  x_i^* y_i = y_{i+1} x_{N-i}              (1 <= i <= N-1)

``standard_relators`` states these relations once: the graded quotient
and the gamma and chain-level relations suites all read it.
``relator_holds`` is the one relator decision, and both suites read it:
(c) and (d) hold strictly, as equalities of chain maps, and the others
up to a closed-form null-homotopy (``relator_homotopy``), re-verified.

Graded dimensions are computed degree by degree by an incremental
quotient: the degree-k space is (lower bases) x (arrows) modulo the
right-multiples of the relators, so only bases of the last ``reach``
graded pieces are ever kept (never the exponentially many raw paths),
``reach`` being the largest arrow or relator degree.  A word is a tuple
of arrows in concatenation order, checked once where it enters by
``word_ends``.  Words evaluate to chain-level Ext classes by sending each
arrow to its generator chain map and reversing concatenation order into
composition order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .ext_table import GradedTable, ext_table
from .homs import LineAlgebra
from .resolutions import (
    CheckResult,
    HomMatrix,
    build_resolution,
    common_factor_matrix,
    hom_matrix_compose,
    hom_matrix_scale,
)
from .yoneda import (
    ChainMap,
    cached_generator,
    chain_add,
    chain_equal_strict,
    chain_scale,
    compose,
    head_class,
    null_homotopy,
    turn_sign,
    verify_homotopy,
)

# arrows are ("x", i), ("xstar", i), ("y", i)


def arrow_source(n: int, arrow) -> int:
    kind, i = arrow
    return i + 1 if kind == "xstar" else i


def arrow_target(n: int, arrow) -> int:
    kind, i = arrow
    return i + 1 if kind == "x" else i if kind == "xstar" else n + 1 - i


def arrow_degree(n: int, arrow) -> int:
    return n if arrow[0] == "y" else 1


def all_arrows(n: int):
    return ([a for i in range(1, n) for a in (("x", i), ("xstar", i))]
            + [("y", i) for i in range(1, n + 1)])


def word_ends(n: int, arrows) -> tuple:
    """(source, target, degree) of a nonempty composable arrow tuple in
    concatenation order; ValueError otherwise."""
    if not arrows:
        raise ValueError("empty word")
    for a, b in zip(arrows, arrows[1:]):
        if arrow_target(n, a) != arrow_source(n, b):
            raise ValueError(f"word is not composable at {format_word([a])} -> {format_word([b])}")
    return (arrow_source(n, arrows[0]), arrow_target(n, arrows[-1]),
            sum(arrow_degree(n, a) for a in arrows))


def format_word(arrows) -> str:
    """The name of an arrow tuple, like x1.x2*.y3."""
    names = {"x": "x{}", "xstar": "x{}*", "y": "y{}"}
    return ".".join(names[kind].format(i) for kind, i in arrows)


@dataclass(frozen=True)
class Relator:
    name: str
    terms: tuple  # ((int coefficient, tuple of arrows), ...)


def standard_relators(n: int):
    if n == 1:
        return []
    rel = [Relator("x1.x1*", ((1, (("x", 1), ("xstar", 1))),)),
           Relator(f"x{n-1}*.x{n-1}", ((1, (("xstar", n - 1), ("x", n - 1))),))]
    for i in range(1, n - 1):
        rel.append(
            Relator(
                f"x{i}*.x{i} - x{i+1}.x{i+1}*",
                (
                    (1, (("xstar", i), ("x", i))),
                    (-1, (("x", i + 1), ("xstar", i + 1))),
                ),
            )
        )
    for i in range(1, n):
        rel.append(
            Relator(
                f"x{i}.y{i+1} - y{i}.x{n-i}*",
                ((1, (("x", i), ("y", i + 1))), (-1, (("y", i), ("xstar", n - i)))),
            )
        )
        rel.append(
            Relator(
                f"x{i}*.y{i} - y{i+1}.x{n-i}",
                ((1, (("xstar", i), ("y", i))), (-1, (("y", i + 1), ("x", n - i)))),
            )
        )
    return rel


def graded_dimension(n: int, max_degree: int, field, relators=None) -> GradedTable:
    """Exact graded dimensions of the quotient algebra, degree by degree.

    Degree k is spanned by (basis of degree k - deg(arrow)) x (arrow),
    modulo the vectors (basis of degree k - deg(relator)) . relator; the
    relator words are pushed through the already-reduced lower degrees,
    which is legitimate because the discrepancy lies in lower ideal pieces
    already dead in the candidate space.

    Every relator must be homogeneous (all its terms share source, target
    and degree; ValueError otherwise).  Then each relator row lies in one
    (source, target) block of candidates, and the blocks are eliminated
    separately.

    The product of a degree-j basis element b with an arrow a is, by
    definition, the stored row rmul[(j, a)][b].  So a word's first arrow is
    a lookup of that row, only the arrows strictly inside it go through
    ``push``, and its last arrow names candidates; a one-arrow word sends b
    straight to its candidate (b, a).  This is exact: pushing the unit
    vector {b: 1} through a would give 0 + 1 * v = v for each stored entry
    v, which is a nonzero canonical scalar (see ``fields``), so the same
    rows reach the same eliminations.

    Only a window of degrees is kept: after degree k, the basis data of
    degree k - reach and its products with every arrow are dropped, where
    reach is the largest arrow or relator degree (N + 1 for the standard
    relators).  This is exact for any relator list.  Degree k reads only
    degrees k - reach .. k - 1: its candidates start at k - deg(arrow), its
    relator rows at k - deg(relator), and the inner pushes of a row step
    from there through degrees below k, as its last arrow has degree >= 1.
    """
    if relators is None:
        relators = standard_relators(n)
    shapes = []
    for rel in relators:
        ends = {word_ends(n, word) for _, word in rel.terms}
        if len(ends) != 1:
            raise ValueError(f"relator {rel.name} is not homogeneous: {sorted(ends)}")
        # (coefficient, first arrow or None for a one-arrow word, inner arrows, last arrow)
        terms = [(field.from_int(c), word[0] if word[1:] else None, word[1:-1], word[-1])
                 for c, word in rel.terms]
        shapes.append((terms, *ends.pop()))
    degree = {a: arrow_degree(n, a) for a in all_arrows(n)}
    arrows = [(a, d, arrow_source(n, a), arrow_target(n, a)) for a, d in degree.items()]
    reach = max([*degree.values(), *(d for *_, d in shapes)])
    zero, one, add, mul = field.zero, field.one, field.add, field.mul
    # sources[k]: the source vertex of each degree-k basis element
    sources = {0: list(range(1, n + 1))}
    # ending[k]: vertex -> indices of the degree-k basis elements ending there, increasing
    ending = {0: {v: [v - 1] for v in range(1, n + 1)}}
    # rmul[(k, arrow)]: basis index at degree k ending at the arrow's source
    # -> its product with the arrow, expanded at degree k + deg(arrow)
    rmul = {}
    dims = {(i, j): [int(i == j)] + [0] * max_degree
            for i in range(1, n + 1) for j in range(1, n + 1)}

    def push(deg, cur, inner):
        """Right-multiply a coefficient dict at degree deg along the arrows
        of inner, through the reduced bases."""
        for arrow in inner:
            nxt = {}
            table = rmul[(deg, arrow)]
            for idx, cv in cur.items():
                for jdx, rv in table[idx].items():
                    nxt[jdx] = add(nxt.get(jdx, zero), mul(cv, rv))
            cur = {i: v for i, v in nxt.items() if v}
            deg += degree[arrow]
        return cur

    for k in range(1, max_degree + 1):
        cands = []
        cand_index = {}  # arrow -> {degree k - deg(arrow) basis index: candidate id}
        blocks = {}  # (src, tgt) -> its candidate ids, increasing
        for arrow, d, asrc, tgt in arrows:
            if d > k:
                continue
            src_of = sources[k - d]
            ids = cand_index[arrow] = {}
            for bidx in ending[k - d].get(asrc, ()):
                src = src_of[bidx]
                cid = ids[bidx] = len(cands)
                cands.append((src, tgt))
                blocks.setdefault((src, tgt), []).append(cid)

        wrows = {}  # (src, tgt) -> relator rows {candidate id: coefficient}
        for terms, rsrc, rtgt, d in shapes:
            if d > k:
                continue
            for bidx in ending[k - d].get(rsrc, ()):
                vec = {}
                for coeff, first, inner, last in terms:
                    cur = {bidx: one} if first is None else rmul[(k - d, first)][bidx]
                    if inner:
                        cur = push(k - d + degree[first], cur, inner)
                    ids = cand_index[last]
                    for idx, cv in cur.items():
                        cid = ids[idx]
                        vec[cid] = add(vec.get(cid, zero), mul(coeff, cv))
                vec = {cid: x for cid, x in vec.items() if x}
                if vec:
                    wrows.setdefault((sources[k - d][bidx], rtgt), []).append(vec)

        pivot_rows = {}  # pivot candidate -> (its reduced row, the block's candidates)
        for key, rows in wrows.items():
            block = blocks[key]
            W, pivots = linalg.rref(field, [[row.get(c, zero) for c in block] for row in rows])
            for r, p in enumerate(pivots):
                pivot_rows[block[p]] = (W[r], block)
        keep = [c for c in range(len(cands)) if c not in pivot_rows]
        pos = {c: q for q, c in enumerate(keep)}

        def project(cid):
            if cid in pos:
                return {pos[cid]: one}
            row, block = pivot_rows[cid]
            return {pos[c2]: field.neg(v) for c2, v in zip(block, row) if v and c2 in pos}

        for arrow, ids in cand_index.items():
            rmul[(k - degree[arrow], arrow)] = {bidx: project(cid) for bidx, cid in ids.items()}
        sources[k], ending[k] = [], {}
        for q, c in enumerate(keep):
            src, tgt = cands[c]
            sources[k].append(src)
            ending[k].setdefault(tgt, []).append(q)
            dims[(src, tgt)][k] += 1
        if k >= reach:
            del sources[k - reach], ending[k - reach]
            for arrow in degree:
                del rmul[(k - reach, arrow)]
    return GradedTable(n, max_degree, {ij: tuple(row) for ij, row in dims.items()})


def dimension_mismatches(gd: GradedTable, table: GradedTable) -> list:
    """The (i, j, k), k <= gd.max_degree, where gd and the Ext table differ."""
    degrees = range(gd.max_degree + 1)
    bad = []
    for (i, j), row in sorted(gd.data.items()):
        ext = table.row(i, j)[:len(degrees)]
        if row != ext:
            bad += [(i, j, k) for k in degrees if row[k] != ext[k]]
    return bad


def hook_word(n: int, u: int, v: int, m: int):
    """The canonical degree-m path u -> v climbing to r = (m+u+v)/2 with
    step arrows, then descending with co-steps."""
    if m < abs(u - v) or m > n - 1 - abs(n + 1 - u - v) or (m - abs(u - v)) % 2:
        raise ValueError(f"no hook of degree {m} from {u} to {v}")
    r = (m + u + v) // 2
    arrows = [("x", t) for t in range(u, r)]
    arrows += [("xstar", t) for t in range(r - 1, v - 1, -1)]
    return arrows


def normal_form_monomial(n: int, i: int, j: int, k: int):
    """The arrow tuple of the canonical basis word of the (i, j, k)
    component (``()``, the identity, at k = 0), or None if no hook exists
    (the component is zero): an optional turnaround, a hook, then
    full-period loops at the target."""
    if not (1 <= i <= n and 1 <= j <= n) or k < 0:
        raise ValueError(f"no component ({i},{j}) in degree {k} for N={n}")
    k0 = k % (2 * n)
    b = k // (2 * n)
    a = 1 if k0 >= n else 0
    m = k0 - a * n
    u = (n + 1 - i) if a else i
    try:
        arrows = [("y", i)] * a + hook_word(n, u, j, m)
    except ValueError:
        return None
    return tuple(arrows + [("y", j), ("y", n + 1 - j)] * b)


def _word_chain_map(alg: LineAlgebra, arrows):
    """The generators of a nonempty arrow sequence, composed in function
    order (the reverse of concatenation) as a balanced tree, so that reading
    a component recurses only log2(len(arrows)) deep."""
    if len(arrows) == 1:
        return cached_generator(alg, *arrows[0])
    half = len(arrows) // 2
    return compose(_word_chain_map(alg, arrows[half:]), _word_chain_map(alg, arrows[:half]))


def word_head(alg: LineAlgebra, bottoms: dict, arrows):
    """The head class of a nonempty arrow sequence's word map, read through
    ``bottoms`` (arrow suffix -> (its degree, the bottom component of its
    word map)), which this fills from the longest suffix there, one product
    per new suffix."""
    n, t = alg.n, 0
    while t < len(arrows) and arrows[t:] not in bottoms:
        t += 1
    degree, M = bottoms.get(arrows[t:], (0, None))
    for t in range(t - 1, -1, -1):
        degree += arrow_degree(n, arrows[t])
        G = cached_generator(alg, *arrows[t]).component(degree)
        M = G if M is None else hom_matrix_compose(alg, M, G)
        bottoms[arrows[t:]] = degree, M
    return head_class(alg.field, M, arrow_target(n, arrows[-1]))


@dataclass
class ExtClass:
    i: int
    j: int
    k: int
    chain_map: ChainMap
    nonzero: bool


def evaluate_word(alg: LineAlgebra, arrows) -> ExtClass:
    """Map each arrow of a nonempty word to its chain-map generator,
    compose in function order (reverse of concatenation), and decide
    zero/nonzero."""
    chain = _word_chain_map(alg, arrows)
    return ExtClass(*word_ends(alg.n, arrows), chain, null_homotopy(chain) is None)


def evaluate_relator(alg: LineAlgebra, rel: Relator):
    """The chain map of a relator (sum of its word evaluations)."""
    (coeff, arrows), *rest = rel.terms
    total = _word_chain_map(alg, arrows)
    if coeff != 1:
        total = chain_scale(alg.field.from_int(coeff), total)
    for coeff, arrows in rest:
        total = chain_add(total, _word_chain_map(alg, arrows), c=alg.field.from_int(coeff))
    return total


def _strict(rel: Relator) -> bool:
    """A relator w1 - w2 through a turnaround: its words agree degreewise."""
    return ([c for c, _ in rel.terms] == [1, -1]
            and any(kind == "y" for _, arrows in rel.terms for kind, _ in arrows))


def relator_homotopy(alg: LineAlgebra, rel: Relator) -> ChainMap:
    """The closed-form null-homotopy h of a degree-2 relator around v.

    The relators (a) and (b) at v evaluate to shift-2 maps f : R_v -> R_v.
    R_v has plateau degrees p >= 1, where term_p = term_{p-1} is one P_u:
    p = N mod 2N (u = N+1-v) and p = 0 mod 2N (u = v).  h has shift 1 and
    period 2N; it is c_p Id(u) at each plateau and zero elsewhere.  As
    plateaus lie N >= 2 apart, (d h + h d)_m = d_{m-1} h_m + h_{m-1} d_m is
    c_p d_{p-1} at m = p, c_p d_{p+1} at m = p+1 and zero at every other
    degree; the plateau loop d_p = +-Loop(u) meets only h_{p+-1} = 0.

    f agrees.  A word of the relator, with coefficient a, has two arrows of
    one index i and maps to a g_2 o g_1 (g_t the generator of arrow t).  At
    m = p, g_1 is special: turn_sign(N, i, p) times the step or co-step from
    P_u to a neighbour, where g_2 at p-1 is the identity and d_{p-1} has the
    band's coefficient 1.  So the word is a turn_sign(N, i, p) times that
    entry of d_{p-1}; at m = p+1, g_1 and g_2 swap roles against d_{p+1}.
    The two words of a relator (b) reach the two neighbours of u with equal
    a turn_sign, so c_p = a turn_sign(N, i, p) of the first word.  At other
    degrees a word is the identity on the summands that term_m(R_v),
    term_{m-1} of the middle resolution and term_{m-2}(R_v) share: none for
    R_1 and R_N, and the same for both words of a relator (b), which cancel.
    So f = d h + h d, and f is zero in Ext^2(S_v, S_v) (comparison theorem,
    Weibel, An Introduction to Homological Algebra, Thm 2.2.6).  For
    resolutions over symmetric algebras with radical cube zero, as this one
    is, see D. J. Benson, J. Algebra 320 (2008), and K. Erdmann and
    O. Solberg, J. Pure Appl. Algebra 215 (2011).  The claims about terms
    are facts of their intervals; ``relator_holds`` accepts h only when
    ``verify_homotopy`` re-checks every degree.
    """
    n, F = alg.n, alg.field
    a, (first, *_) = rel.terms[0]
    i = first[1]
    R = build_resolution(alg, arrow_source(n, first))

    def maker(m):
        sign = turn_sign(n, i, m)
        if sign is None:
            return HomMatrix(R.term(m), R.term(m - 1), {})
        return hom_matrix_scale(alg, F.from_int(a * sign),
                                common_factor_matrix(alg, R.term(m), R.term(m - 1)))

    return ChainMap(R, R, 1, 0, maker)


def relator_holds(alg: LineAlgebra, rel: Relator) -> bool:
    """Whether the relator vanishes at chain level; the one relator decision.

    A strict relator is decided by comparing its two word maps.  Any other
    relator whose map is a shift-2 endomorphism of one R_v, as (a) and (b)
    are, is first offered the closed form of ``relator_homotopy``, which
    holds when ``verify_homotopy`` re-checks it in every degree.  Otherwise
    ``null_homotopy`` decides: a nonzero head readout proves that no
    homotopy exists, and a zero one gets a solved certificate, re-verified
    degreewise.  So a negative verdict never rests on the closed form."""
    if _strict(rel):
        lhs, rhs = (_word_chain_map(alg, arrows) for _, arrows in rel.terms)
        return chain_equal_strict(lhs, rhs)
    f = evaluate_relator(alg, rel)
    if (f.shift == 2 and f.source.base_vertex == f.target.base_vertex
            and verify_homotopy(f, relator_homotopy(alg, rel))):
        return True
    return null_homotopy(f) is not None


def verify_chain_relations(alg: LineAlgebra) -> list[CheckResult]:
    """Machine check of the relators at chain level, one check each.

    Words are named in composition order and a relator c1 w1 + c2 w2 as
    c1 w1 = -c2 w2: w1 + w2 is "w1 = -w2".  Strict relators are marked.
    """
    if alg.n == 1:
        return [CheckResult("no degree-1 generators", True, "vacuous")]

    def term(c, arrows):
        word = " o ".join(f"{kind}_{i}" for kind, i in reversed(arrows))
        return word if c == 1 else f"-{word}" if c == -1 else f"{c}*{word}"

    checks = []
    for rel in standard_relators(alg.n):
        (c1, w1), *rest = rel.terms
        name = f"{term(c1, w1)} = " + (" + ".join(term(-c, w) for c, w in rest) or "0")
        checks.append(CheckResult(name + (" (strict)" if _strict(rel) else ""),
                                  relator_holds(alg, rel)))
    return checks


def verify_presentation(alg: LineAlgebra, max_degree: int) -> list[CheckResult]:
    """Certify that the presented algebra matches the Ext computation:
    graded dimensions agree entrywise, relators die at chain level
    (``relator_holds``: a closed-form homotopy re-verified in every degree,
    the periodic solver only as fallback), and every normal-form word
    evaluates to a nonzero class.

    A word a_1 ... a_L maps to g_L o ... o g_1 (g_t the generator of a_t,
    of shift s_t).  Its class is zero iff the head of its bottom component
    vanishes (``null_homotopy``; comparison theorem, Weibel 2.2.6).  Since
    (f o g)_k = f_{k - shift(g)} o g_k, that component, at degree
    s_1 + ... + s_L, reads g_t at degree s_t + ... + s_L, fixed by the
    arrows from a_t on.  So the bottom component of a_t ... a_L is that of
    a_{t+1} ... a_L after g_t's component there; ``word_head`` memoizes it,
    with its degree, per arrow suffix, and each word costs one product on
    top of a shorter one (normal-form words are suffix-closed).  A suffix
    ends where its word ends, so it serves only the words into one target
    j: the words are checked one j at a time, each j with a fresh memo,
    and the zero classes are reported in (i, j, k) order.
    """
    n = alg.n
    checks = []
    table = ext_table(n, max_degree)
    bad = dimension_mismatches(graded_dimension(n, max_degree, alg.field), table)
    checks.append(
        CheckResult(
            "graded dimensions match the Ext table",
            not bad,
            f"mismatches at {bad}" if bad else "",
        )
    )

    checks += [CheckResult(f"relator {rel.name} vanishes", relator_holds(alg, rel))
               for rel in standard_relators(n)]

    bad = []
    for j in range(1, n + 1):
        bottoms = {}
        for i in range(1, n + 1):
            for k in range(max_degree + 1):
                if table.entry(i, j, k) == 0:
                    continue
                arrows = normal_form_monomial(n, i, j, k)  # () is an identity
                if arrows and not any(word_head(alg, bottoms, arrows)):
                    bad.append((i, j, k))
    bad.sort()
    checks.append(
        CheckResult(
            "normal-form words are nonzero classes",
            not bad,
            f"zero classes at {bad}" if bad else "",
        )
    )
    return checks
