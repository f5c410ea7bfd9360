"""Cross-checks that only the tests call: Hom modulo homotopy as a
linear-algebra computation (against the combinatorial table), the lift of
a cocycle by the periodic solver (the reference that the closed-form
generators are compared against), the scalar ratio of two head readouts,
the oracle's arrow keys and arrow matrices (zero where a module stores
none), the realization of one morphism of projectives, a resolution's
full report, the intertwiner test of an oracle morphism, equality of
oracle morphisms, equality of row spans, Gauss-Jordan elimination that
rewrites whole rows, the graded quotient as it was computed before a
relator word's first arrow was read off the stored products, and the
chain-map square check as it was decided before it compared cells.

The solver is reached as ``yoneda._solve_family``, through the module,
so that a test which records the solver's calls also sees these."""

from extline import certify, linalg, resolutions, yoneda
from extline.ext_table import GradedTable, ext_dim_via_x
from extline.homs import ID_SLOT, LineAlgebra
from extline.linalg import LinearSystem
from extline.path_algebra import (
    ExtClass,
    all_arrows,
    arrow_degree,
    arrow_source,
    arrow_target,
    standard_relators,
    word_ends,
)
from extline.reps import QuiverRep, RepMorphism, arrow_endpoints
from extline.resolutions import HomMatrix, build_resolution, hom_matrix_add, hom_matrix_compose
from extline.yoneda import ChainMapError, chain_head_class, identity_chain_map, null_homotopy


def span_equal(field, rows_a, rows_b) -> bool:
    """Whether two lists of row vectors span the same space."""
    ra = linalg.rank(field, rows_a) if rows_a else 0
    rb = linalg.rank(field, rows_b) if rows_b else 0
    if ra != rb:
        return False
    if ra == 0:
        return True
    return linalg.rank(field, list(rows_a) + list(rows_b)) == ra


def reference_rref(F, M):
    """Gauss-Jordan that rewrites every entry of every row it touches."""
    R = [row[:] for row in M]
    m, n = len(R), len(R[0]) if R else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, m) if not F.is_zero(R[i][c])), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        iv = F.inv(R[r][c])
        R[r] = [F.mul(iv, x) for x in R[r]]
        for i in range(m):
            if i != r:
                f = R[i][c]
                R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def morphisms_equal(phi: RepMorphism, psi: RepMorphism) -> bool:
    """Whether two oracle morphisms agree blockwise (an absent block is zero)."""
    return all(
        phi.block(v) == psi.block(v)
        for v in phi.blocks.keys() | psi.blocks.keys()
    )


def realize(alg: LineAlgebra, h) -> RepMorphism:
    """The oracle morphism of h : P_source -> P_target, which ``certify``
    realizes as the 1 x 1 matrix of h."""
    cells = {(0, 0): h} if h else {}
    return certify.realize_hom_matrix(alg, HomMatrix((h.source,), (h.target,), cells), {})


def resolution_report(cx, i: int, sums=None):
    """Every check of the resolution cx of S_i in the CLI's order: the
    structural checks of ``resolutions``, then the oracle's of ``certify``."""
    return resolutions.verify_resolution(cx, i) + certify.verify_exactness(cx, i, sums)


def arrow_keys(n: int):
    """Every arrow key of the oracle's quiver for N = n."""
    if n == 1:
        return [("x", 1)]
    return [("a", i) for i in range(1, n)] + [("b", i) for i in range(1, n)]


def arrow_matrix(rep: QuiverRep, key):
    """rep's matrix of the arrow key, zero where rep stores none."""
    s, t = arrow_endpoints(rep.n, key)
    return rep.arrows.get(key, linalg.zeros(rep.field, rep.dim(t), rep.dim(s)))


def is_intertwiner(phi: RepMorphism) -> bool:
    """Whether phi commutes with every arrow of its source and target."""
    F = phi.source.field
    for key in phi.source.arrows.keys() | phi.target.arrows.keys():
        s, t = arrow_endpoints(phi.source.n, key)
        cols = phi.source.dim(s)
        lhs = linalg.mat_mul(F, phi.block(t), arrow_matrix(phi.source, key), out_cols=cols)
        rhs = linalg.mat_mul(F, arrow_matrix(phi.target, key), phi.block(s), out_cols=cols)
        if lhs != rhs:
            return False
    return True


def reference_first_failure(u, sign: int, f=None):
    """The first degree m in shift+1 .. window where
    d o u_m + sign * u_{m-1} o d != f_m (f None means zero), or None,
    decided on whole matrices: hom_matrix_compose, then hom_matrix_add,
    then == against an empty matrix or f_m."""
    alg = u.source.alg
    for m in range(u.shift + 1, yoneda._window(u, f) + 1):
        have = hom_matrix_compose(alg, u.target.diff(m - u.shift), u.component(m))
        want = f.component(m) if f else HomMatrix(have.source, have.target, {})
        prev = u.component(m - 1)
        if prev is not None:
            term = hom_matrix_compose(alg, prev, u.source.diff(m))
            if sign > 0:
                have = hom_matrix_add(alg, have, term)
            else:
                want = hom_matrix_add(alg, want, term)
        if not have == want:
            return m
    return None


def ext_class_dimension(alg: LineAlgebra, i: int, j: int, k: int) -> int:
    """dim Hom modulo homotopy of shift-k maps R_i -> R_j, computed as the
    rank of the induced-cocycle readout on the space of eventually
    periodic chain maps.

    The readout identifies homotopic maps and nothing more (minimality),
    so this is the Ext dimension provided every cocycle lifts to a
    periodic chain map; agreement with the combinatorial table is exactly
    what the test suite certifies.
    """
    source = build_resolution(alg, i)
    target = build_resolution(alg, j)
    # ansatz: components repeat from k+1 on
    _, system, index = yoneda._solve_family(source, target, k, k + 1, source.period, -1)
    head_vars = [
        index[(k, 0, c, ID_SLOT)]
        for c, s in enumerate(source.term(k))
        if s == j
    ]
    readout = LinearSystem(alg.field, len(head_vars))
    for vec in system.nullspace_basis():
        readout.add_equation({pos: vec[v] for pos, v in enumerate(head_vars)}, alg.field.zero)
    return readout.rank


def lift_cocycle(alg: LineAlgebra, i: int, j: int, k: int) -> ExtClass:
    """A chain map R_i -> R_j[k] whose degree-k component maps the P_j
    summand by the identity onto P_j (its head readout is 1); certified
    non-null-homotopic."""
    if ext_dim_via_x(alg.n, i, j, k) == 0:
        raise ValueError(f"Ext^{k}(S_{i}, S_{j}) = 0: requested class is zero")
    source = build_resolution(alg, i)
    target = build_resolution(alg, j)
    if k == 0 and i == j:
        return ExtClass(i, j, 0, identity_chain_map(alg, i), True)

    # chain-map squares d o phi_m = phi_{m-1} o d, and the head pin: the
    # unique P_j summand of term_k maps by the identity onto term_0(R_j) = P_j
    pin = ((k, 0, source.term(k).index(j), ID_SLOT), alg.field.one)
    chain, _, _ = yoneda._solve_family(source, target, k, k + 1, source.period, -1, pins=[pin])
    if chain is None:
        raise ChainMapError(f"no eventually periodic lift found for Ext^{k}(S_{i}, S_{j})")
    chain.verify()
    if null_homotopy(chain) is not None:
        raise ChainMapError("lifted representative is null-homotopic")
    return ExtClass(i, j, k, chain, True)


def head_ratio(f, g):
    """The scalar c with f - c*g null-homotopic, or None: a ratio of head
    readouts, each of which has at most one entry (a canonical sum has
    distinct indices, so the target's base projective occurs at most once)."""
    F = f.source.alg.field
    hf, hg = chain_head_class(f), chain_head_class(g)
    assert len(hf) <= 1 and len(hg) <= 1, (hf, hg)
    a, b = (hf or [F.zero])[0], (hg or [F.zero])[0]
    if F.is_zero(b):
        return F.zero if F.is_zero(a) else None
    return F.mul(a, F.inv(b))


def reference_graded_dimension(n: int, max_degree: int, field, relators=None) -> GradedTable:
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
    """
    if relators is None:
        relators = standard_relators(n)
    shapes = []
    for rel in relators:
        ends = {word_ends(n, word) for _, word in rel.terms}
        if len(ends) != 1:
            raise ValueError(f"relator {rel.name} is not homogeneous: {sorted(ends)}")
        shapes.append((rel, *ends.pop()))
    arrows = all_arrows(n)
    # basis elements at each degree are (src, tgt) tags
    tags = {0: [(v, v) for v in range(1, n + 1)]}
    # ending[k]: vertex -> indices of the degree-k basis elements ending there, increasing
    ending = {0: {v: [v - 1] for v in range(1, n + 1)}}
    # rmul[(k, arrow)]: basis index at degree k ending at the arrow's source
    # -> its product with the arrow, expanded at degree k + deg(arrow)
    rmul = {}
    dims = {(i, j): [int(i == j)] + [0] * max_degree
            for i in range(1, n + 1) for j in range(1, n + 1)}

    def multiply_through(k_start, vec, word):
        """Right-multiply a coefficient dict along all of word but its last
        arrow, through the reduced bases."""
        deg = k_start
        cur = vec
        for arrow in word[:-1]:
            nxt = {}
            table = rmul[(deg, arrow)]
            for idx, cv in cur.items():
                for jdx, rv in table[idx].items():
                    nxt[jdx] = field.add(nxt.get(jdx, field.zero), field.mul(cv, rv))
            cur = {i: v for i, v in nxt.items() if not field.is_zero(v)}
            deg += arrow_degree(n, arrow)
        return cur

    for k in range(1, max_degree + 1):
        cands = []
        cand_index = {}
        blocks = {}  # (src, tgt) -> its candidate ids, increasing
        for arrow in arrows:
            d = arrow_degree(n, arrow)
            if k - d < 0:
                continue
            tgt = arrow_target(n, arrow)
            for bidx in ending[k - d].get(arrow_source(n, arrow), ()):
                src = tags[k - d][bidx][0]
                cid = cand_index[(bidx, arrow)] = len(cands)
                cands.append((src, tgt))
                blocks.setdefault((src, tgt), []).append(cid)

        wrows = {}  # (src, tgt) -> relator rows {candidate id: coefficient}
        for rel, rsrc, rtgt, d in shapes:
            if d > k:
                continue
            for bidx in ending[k - d].get(rsrc, ()):
                src = tags[k - d][bidx][0]
                vec = {}
                for coeff, word in rel.terms:
                    cur = multiply_through(k - d, {bidx: field.one}, word)
                    last = word[-1]
                    for idx, cv in cur.items():
                        cid = cand_index[(idx, last)]
                        vec[cid] = field.add(
                            vec.get(cid, field.zero), field.mul(field.from_int(coeff), cv)
                        )
                vec = {cid: x for cid, x in vec.items() if not field.is_zero(x)}
                if vec:
                    wrows.setdefault((src, rtgt), []).append(vec)

        pivot_rows = {}  # pivot candidate -> (its reduced row, the block's candidates)
        for key, rows in wrows.items():
            block = blocks[key]
            W, pivots = linalg.rref(field, [[row.get(c, field.zero) for c in block] for row in rows])
            for r, p in enumerate(pivots):
                pivot_rows[block[p]] = (W[r], block)
        keep = [c for c in range(len(cands)) if c not in pivot_rows]
        pos = {c: q for q, c in enumerate(keep)}

        def project(cid):
            if cid in pos:
                return {pos[cid]: field.one}
            row, block = pivot_rows[cid]
            return {pos[c2]: field.neg(v) for c2, v in zip(block, row)
                    if c2 in pos and not field.is_zero(v)}

        tags[k] = [cands[c] for c in keep]
        for arrow in arrows:
            d = arrow_degree(n, arrow)
            if k - d < 0:
                continue
            rmul[(k - d, arrow)] = {bidx: project(cand_index[(bidx, arrow)])
                                    for bidx in ending[k - d].get(arrow_source(n, arrow), ())}
        ending[k] = {}
        for q, (src, tgt) in enumerate(tags[k]):
            ending[k].setdefault(tgt, []).append(q)
            dims[(src, tgt)][k] += 1
    return GradedTable(n, max_degree, {ij: tuple(row) for ij, row in dims.items()})
