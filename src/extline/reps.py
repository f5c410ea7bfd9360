"""Finite-dimensional modules over the Brauer line algebra as quiver
representations, with radicals, socles, projective covers, syzygies,
homomorphism spaces and isomorphism testing by exact linear algebra.

This module is the brute-force oracle of the package: everything the
symbolic layers compute in closed form is cross-checked here by solving
honest linear systems.

Conventions.  Vertices are 1..N.  For N >= 2 the algebra is generated by
arrows a_i : i -> i+1 and b_i : i+1 -> i (1 <= i <= N-1) subject to

    a_{i+1} a_i = 0,   b_i b_{i+1} = 0,
    a_{i-1} b_{i-1} = b_i a_i   at interior vertices,
    paths of length three act as zero.

For N = 1 the algebra is F[x]/(x^2) and the representation carries the
single nilpotent loop x.  This presentation is reconstructed from the
layer structure of the projectives (head S_i, heart S_{i-1} + S_{i+1},
socle S_i); it is the unique one compatible with that structure.

Left modules throughout: P_i is the span of paths out of vertex i.

Matrices stay dense lists of rows, but only inside the support: a module
stores no matrix for an arrow that touches a zero-dimensional vertex (nor
for a zero map it was never given), and a morphism keeps no block at a
vertex where either side is zero.  An absent arrow or block reads as a
zero matrix of the right shape.  Every operation walks the stored arrows
and blocks, not all N vertices and 2(N-1) arrows.

One function, ``radical_span``, is the oracle's radical: the radical
submodule, heads and projective covers all read it.  ``projective_rep``
alone writes the shape of P_v; a cover's surjection walks that shape from
the head, arrow by arrow.

Reuse lasts one call, or one suite call: ``projective_cover`` reads P_v
and its nonzero entries from a table of head shapes that lives for one
cover, or for every cover of a suite that hands it the same table.  A
submodule basis is eliminated once: ``_submodule`` reads coordinates at
the columns where its basis is the identity, the pivots of an echelon
basis or the free columns of a kernel basis, and transposes each basis
once.  Nothing here edits a matrix it reads, so that is exact.
"""

from __future__ import annotations

from . import linalg


class QuiverRep:
    """A representation: one vector space per vertex, one matrix per arrow.

    ``dims[v-1]`` is the dimension at vertex v and ``support`` lists the
    vertices where it is nonzero.  ``arrows`` maps arrow keys ("a", i),
    ("b", i) (or ("x", 1) when N = 1), sorted, to matrices of shape
    (dim target) x (dim source); it holds only arrows between two vertices
    of the support, and any arrow it does not hold is zero.
    """

    def __init__(self, n, field, dims, arrows):
        self.n = n
        self.field = field
        self.dims = tuple(dims)
        self.support = tuple(v for v, d in enumerate(self.dims, 1) if d)
        self.arrows = arrows

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self):
        return f"QuiverRep(n={self.n}, dims={self.dims})"


def arrow_endpoints(n: int, key):
    kind, i = key
    if kind == "a":
        return i, i + 1
    if kind == "b":
        return i + 1, i
    return 1, 1  # the loop at the unique vertex when N = 1


def make_rep(n, field, dims, arrows=None):
    """Build a representation; unspecified arrows are zero maps.

    Only arrows between two nonzero spaces are stored, but every given
    matrix must have its arrow's shape.
    """
    dims = tuple(dims)
    stored = {}
    arrows = arrows or {}
    for key in sorted(arrows):
        if not (key == ("x", 1) if n == 1 else key[0] in ("a", "b") and 0 < key[1] < n):
            raise ValueError(f"no arrow {key} for N={n}")
        s, t = arrow_endpoints(n, key)
        M = arrows[key]
        if len(M) != dims[t - 1] or (M and len(M[0]) != dims[s - 1]):
            raise ValueError(f"arrow {key} has wrong shape")
        if dims[s - 1] and dims[t - 1]:
            stored[key] = M
    return QuiverRep(n, field, dims, stored)


def zero_rep(n, field):
    return make_rep(n, field, [0] * n)


def simple_rep(n, field, i):
    dims = [0] * n
    dims[i - 1] = 1
    return make_rep(n, field, dims)


def projective_rep(n, field, i):
    """The indecomposable projective P_i.

    Basis per vertex: [head, socle] at vertex i, one middle vector at each
    of i-1 and i+1 (when present).  All structure constants are +1; sign
    conventions live entirely in the morphism layer.
    """
    if not 1 <= i <= n:
        raise ValueError(f"vertex {i} out of range 1..{n}")
    field_one = field.one
    if n == 1:
        loop = [[field.zero, field.zero], [field_one, field.zero]]
        return make_rep(1, field, [2], {("x", 1): loop})
    dims = [0] * n
    dims[i - 1] = 2
    if i >= 2:
        dims[i - 2] = 1
    if i <= n - 1:
        dims[i] = 1
    arrows = {}
    if i >= 2:
        # b_{i-1}: head -> middle at i-1; a_{i-1}: middle -> socle
        arrows[("b", i - 1)] = [[field_one, field.zero]]
        arrows[("a", i - 1)] = [[field.zero], [field_one]]
    if i <= n - 1:
        # a_i: head -> middle at i+1; b_i: middle -> socle
        arrows[("a", i)] = [[field_one, field.zero]]
        arrows[("b", i)] = [[field.zero], [field_one]]
    return make_rep(n, field, dims, arrows)


def check_relations(rep: QuiverRep):
    """List of violated relations (empty for a genuine module).

    A composite through a zero-dimensional vertex, or through an arrow the
    module does not store, is zero and is not computed.
    """
    F = rep.field
    bad = []
    if rep.n == 1:
        x = rep.arrows.get(("x", 1))
        if x and not linalg.is_zero_mat(linalg.mat_mul(F, x, x)):
            bad.append("x^2 != 0")
        return bad
    a = {i: M for (kind, i), M in rep.arrows.items() if kind == "a"}
    b = {i: M for (kind, i), M in rep.arrows.items() if kind == "b"}

    def product(X, Y):  # X Y, or None when a factor is not stored
        return None if X is None or Y is None else linalg.mat_mul(F, X, Y)

    def nonzero(M):
        return M is not None and not linalg.is_zero_mat(M)

    for i in rep.support:
        if nonzero(product(a.get(i + 1), a.get(i))):
            bad.append(f"a_{i+1} a_{i} != 0")
        if nonzero(product(b.get(i), b.get(i + 1))):
            bad.append(f"b_{i} b_{i+1} != 0")
    for v in rep.support:
        if 1 < v < rep.n:
            zero = linalg.zeros(F, rep.dim(v), rep.dim(v))
            left = product(a.get(v - 1), b.get(v - 1)) or zero
            if left != (product(b.get(v), a.get(v)) or zero):
                bad.append(f"loops at vertex {v} disagree")
    for i in rep.support:
        if i in a and i in b:
            if nonzero(linalg.mat_mul(F, a[i], linalg.mat_mul(F, b[i], a[i]))):
                bad.append(f"a_{i} b_{i} a_{i} != 0")
            if nonzero(linalg.mat_mul(F, b[i], linalg.mat_mul(F, a[i], b[i]))):
                bad.append(f"b_{i} a_{i} b_{i} != 0")
    return bad


def _require_valid(rep):
    bad = check_relations(rep)
    if bad:
        raise ValueError("input is not a module: " + "; ".join(bad))


class RepMorphism:
    """A homomorphism of representations: one block per vertex.

    Blocks are kept only where source and target are both nonzero;
    ``block`` reads an absent block as zero.
    """

    def __init__(self, source: QuiverRep, target: QuiverRep, blocks):
        self.source = source
        self.target = target
        self.blocks = {v: B for v, B in blocks.items() if source.dim(v) and target.dim(v)}

    def block(self, v: int):
        B = self.blocks.get(v)
        if B is None:
            return linalg.zeros(self.source.field, self.target.dim(v), self.source.dim(v))
        return B

    def is_zero(self) -> bool:
        return all(linalg.is_zero_mat(B) for B in self.blocks.values())

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self after other."""
        F = self.source.field
        blocks = {
            v: linalg.mat_mul(F, self.blocks[v], B)
            for v, B in other.blocks.items() if v in self.blocks
        }
        return RepMorphism(other.source, self.target, blocks)

    def is_invertible(self) -> bool:
        if self.source.dims != self.target.dims:
            return False
        F = self.source.field
        return all(
            v in self.blocks and linalg.rank(F, self.blocks[v]) == self.source.dim(v)
            for v in self.source.support
        )


def identity_morphism(rep: QuiverRep) -> RepMorphism:
    blocks = {v: linalg.identity_matrix(rep.field, rep.dim(v)) for v in rep.support}
    return RepMorphism(rep, rep, blocks)


def zero_morphism(source: QuiverRep, target: QuiverRep) -> RepMorphism:
    """The zero map, with every block where both sides are nonzero
    allocated, so that callers can add into ``blocks`` in place."""
    blocks = {
        v: linalg.zeros(source.field, target.dim(v), source.dim(v))
        for v in source.support if target.dim(v)
    }
    return RepMorphism(source, target, blocks)


def direct_sum(reps):
    """Direct sum, summands stacked in order; returns (total, offsets).

    ``offsets[s][v-1]`` is where summand s starts in the space at vertex v.
    """
    if not reps:
        raise ValueError("empty direct sum; use zero_rep")
    n, F = reps[0].n, reps[0].field
    offsets = []
    run = [0] * n
    for r in reps:
        offsets.append(tuple(run))
        for v in r.support:
            run[v - 1] += r.dim(v)
    if len(reps) == 1:
        return reps[0], offsets
    arrows = {}
    for r, off in zip(reps, offsets):
        for key, block in r.arrows.items():
            s, t = arrow_endpoints(n, key)
            if key not in arrows:
                arrows[key] = linalg.zeros(F, run[t - 1], run[s - 1])
            M, c0 = arrows[key], off[s - 1]
            for ri, row in enumerate(block):
                M[off[t - 1] + ri][c0:c0 + len(row)] = row
    return make_rep(n, F, run, arrows), offsets


def _echelon(field, spanning):
    """Per vertex, the reduced echelon basis of the given rows and its
    pivots: the basis is the identity at the pivot columns."""
    bases, pivots = {}, {}
    for v, rows in spanning.items():
        if rows:
            R, pivots[v] = linalg.rref(field, rows)
            bases[v] = R[:len(pivots[v])]
    return bases, pivots


def _submodule(rep: QuiverRep, bases, coords):
    """Submodule with basis ``bases[v]`` (row vectors) at each vertex v.

    ``coords[v]`` lists the columns where ``bases[v]`` is the identity, so
    a vector of the span has its coordinates there.  The span must be
    arrow-stable.  Returns (sub, inclusion).
    """
    F = rep.field
    dims = [0] * rep.n
    for v, basis in bases.items():
        dims[v - 1] = len(basis)
    columns = {v: list(zip(*basis)) for v, basis in bases.items()}  # each basis transposed once
    arrows = {}
    for key, big in rep.arrows.items():
        s, t = arrow_endpoints(rep.n, key)
        if not dims[s - 1]:
            continue
        # the image lands in a nonzero space, so it must lie in the span
        # there, even when that span is empty: then it must be zero
        tgt_cols, tgt_coords = columns.get(t), coords.get(t, [])
        coord_cols = []
        for vec in bases[s]:
            img = [F.dot(big_row, vec) for big_row in big]
            x = [img[p] for p in tgt_coords]
            if ([F.dot(col, x) for col in tgt_cols] != img) if tgt_cols else any(img):
                raise ValueError("span is not arrow-stable")
            coord_cols.append(x)
        arrows[key] = [list(row) for row in zip(*coord_cols)]
    sub = make_rep(rep.n, F, dims, arrows)
    blocks = {v: [list(col) for col in cols] for v, cols in columns.items()}
    return sub, RepMorphism(sub, rep, blocks)


def radical_span(rep: QuiverRep) -> dict:
    """rad M, per vertex of the support: the nonzero columns of the arrows
    into it."""
    spanning = {v: [] for v in rep.support}
    for key, M in rep.arrows.items():
        spanning[arrow_endpoints(rep.n, key)[1]] += linalg.nonzero_columns(M)
    return spanning


def radical(rep: QuiverRep) -> QuiverRep:
    """rad M = sum of the images of all arrows (the arrow ideal acting)."""
    _require_valid(rep)
    return _submodule(rep, *_echelon(rep.field, radical_span(rep)))[0]


def head(rep: QuiverRep) -> dict:
    """Multiplicities of the simples in M / rad M, as {vertex: count}."""
    _require_valid(rep)
    out = {}
    for v, span in radical_span(rep).items():
        m = rep.dim(v) - linalg.rank(rep.field, span)
        if m:
            out[v] = m
    return out


def socle(rep: QuiverRep) -> dict:
    """Multiplicities of the simples in the joint kernel of all arrows."""
    stacked = {v: [] for v in rep.support}
    for key, M in rep.arrows.items():
        stacked[arrow_endpoints(rep.n, key)[0]] += M
    out = {}
    for v, rows in stacked.items():
        m = rep.dim(v) - linalg.rank(rep.field, rows)
        if m:
            out[v] = m
    return out


def hom_space(M: QuiverRep, N: QuiverRep):
    """A basis of Hom(M, N) as a list of RepMorphisms.

    Solves the intertwiner equations T_t M_alpha = N_alpha T_s exactly,
    with unknowns only at vertices where M and N are both nonzero.
    """
    F = M.field
    offsets = {}
    total = 0
    for v in M.support:
        if N.dim(v):
            offsets[v] = total
            total += N.dim(v) * M.dim(v)
    if total == 0:
        return []

    # (T_v)[r][c] is unknown offsets[v] + r * dim M_v + c.  An equation's
    # dense row is made at its first nonzero coefficient (canonical scalars:
    # a zero is false); at N = 1 both terms can meet in one unknown
    rows = []
    for key in sorted(M.arrows.keys() | N.arrows.keys()):  # the same rows in every process
        s, t = arrow_endpoints(M.n, key)
        Ma = M.arrows.get(key)
        Na = N.arrows.get(key)
        ms, mt, ns = M.dim(s), M.dim(t), N.dim(s)
        for r in range(N.dim(t)):
            for c in range(ms):
                row = None
                for m in range(mt if Ma else 0):
                    val = Ma[m][c]
                    if val:
                        row = row or [F.zero] * total
                        row[offsets[t] + r * mt + m] = val  # the first term's unknowns are distinct
                for m in range(ns if Na else 0):
                    val = Na[r][m]
                    if val:
                        row = row or [F.zero] * total
                        idx = offsets[s] + m * ms + c
                        row[idx] = F.sub(row[idx], val)
                if row:
                    rows.append(row)
    basis_vecs, _ = linalg.kernel_basis(F, rows, ncols=total)
    result = []
    for vec in basis_vecs:
        blocks = {}
        for v, off in offsets.items():
            w = M.dim(v)
            blocks[v] = [vec[off + r * w:off + (r + 1) * w] for r in range(N.dim(v))]
        result.append(RepMorphism(M, N, blocks))
    return result


class CoverData:
    """A projective cover: the cover, the surjection, and its kernel."""

    def __init__(self, cover, surjection, kernel, inclusion, cover_vertices):
        self.cover = cover
        self.surjection = surjection
        self.kernel = kernel
        self.inclusion = inclusion
        self.cover_vertices = cover_vertices  # projective indices, with multiplicity


def projective_cover(rep: QuiverRep, shapes=None) -> CoverData:
    """Cover M by one P_v per head constituent; kernel is the syzygy.

    The head section is deterministic: complements of rad M are spanned by
    the standard coordinates that are not pivots of ``radical_span(M)``'s
    echelon form, taken in vertex order.

    ``shapes`` maps a head vertex v to P_v and its walk list, and is filled
    as heads are met.  A caller that covers many modules of one algebra
    hands every cover the same dict, so that each P_v is built once; a
    cover reads its entries and edits none of them.
    """
    shapes = {} if shapes is None else shapes
    _require_valid(rep)
    F = rep.field
    n = rep.n
    generators = []  # (vertex, head representative vector in M_v)
    for v, span in radical_span(rep).items():
        pivots = set(linalg.rref(F, span)[1])
        for c in range(rep.dim(v)):
            if c not in pivots:
                generators.append((v, [F.one if i == c else F.zero for i in range(rep.dim(v))]))

    if not generators:
        z = zero_rep(n, F)
        return CoverData(z, zero_morphism(z, rep), z, zero_morphism(z, z), [])

    # e_head -> gvec.  Each basis vector of P_v is an arrow's image of an
    # earlier one with coefficient 1, at most two arrows below the head, so
    # two passes over its walk list (its nonzero entries: arrow, source
    # vertex and column, target vertex and row) send every one to M's
    # arrow applied to the image of the vector it comes from, or to zero
    # where M has no such arrow.
    for v, _ in generators:
        if v not in shapes:
            P = projective_rep(n, F, v)
            shapes[v] = P, [(key, s, c, t, r)
                            for key, A in P.arrows.items()
                            for s, t in [arrow_endpoints(n, key)]
                            for r, row in enumerate(A) for c, x in enumerate(row) if x]
    cover, _ = direct_sum([shapes[v][0] for v, _ in generators])

    blocks = {w: [[] for _ in range(rep.dim(w))] for w in rep.support}
    for v, gvec in generators:
        (P, walk), img = shapes[v], {(v, 0): gvec}
        for key, s, c, t, r in walk * 2:
            if (s, c) in img and (t, r) not in img:
                A = rep.arrows.get(key)
                img[t, r] = ([F.dot(m_row, img[s, c]) for m_row in A] if A is not None
                             else [F.zero] * rep.dim(t))
        for w in P.support:
            for ri, block_row in enumerate(blocks.get(w, [])):
                block_row.extend(img[w, c][ri] for c in range(P.dim(w)))
    surj = RepMorphism(cover, rep, blocks)

    # kernel, per vertex, with induced arrows: its basis is the identity
    # at the free columns
    bases, free = {}, {}
    for v in cover.support:
        bases[v], free[v] = linalg.kernel_basis(F, blocks.get(v, []), cover.dim(v))
    kernel, inclusion = _submodule(cover, bases, free)
    return CoverData(cover, surj, kernel, inclusion, [v for v, _ in generators])


def syzygy(rep: QuiverRep, shapes=None) -> QuiverRep:
    """Kernel of a projective cover; ``shapes`` as in ``projective_cover``."""
    return projective_cover(rep, shapes).kernel


def image_subrep(phi: RepMorphism):
    spanning = {v: linalg.nonzero_columns(B) for v, B in phi.blocks.items()}
    return _submodule(phi.target, *_echelon(phi.target.field, spanning))


def iso_witness(M: QuiverRep, N: QuiverRep):
    """An isomorphism M -> N, or None.  N must be indecomposable.

    The first invertible element of the ``hom_space(M, N)`` basis is the
    witness.  This is exact: if N is indecomposable, End(N) is local, so its
    non-units form a proper subspace.  An isomorphism h: M -> N carries
    Hom(M, N) linearly onto End(N) by phi -> phi h^-1, so the
    non-isomorphisms M -> N form a proper subspace as well, and no basis
    lies inside a proper subspace.  Hence M ~ N iff some basis element is
    invertible.  A returned witness is always a checked isomorphism; a
    decomposable N can only make the answer a false None.
    """
    if M.dims != N.dims:
        return None
    if M.total_dim == 0:
        return identity_morphism(M)
    return next((phi for phi in hom_space(M, N) if phi.is_invertible()), None)


def is_isomorphic(M: QuiverRep, N: QuiverRep) -> bool:
    """M ~ N, decided by ``iso_witness`` (N indecomposable)."""
    return iso_witness(M, N) is not None
