"""Chain-level Ext: maps between the periodic resolutions, null-homotopy
certificates, and the degree-1 and degree-N generator families.

One family type carries all of it.  A ``ChainMap`` of shift r assigns to
each degree k >= max(r, 0) a morphism matrix
u_k : term_k(source) -> term_{k-r}(target), given by a maker of its
components: each is built on first read, memoized, and read off
periodically, with its ``period``, past one full period beyond the
periodic start.  A chain map (squares commute on the nose, no auxiliary
signs) has period 2N; a null-homotopy certificate of a shift-r map is a
family of shift r-1 whose period is a multiple of 2N.

Both are instances of one equation,

    d o u_m + sign * u_{m-1} o d = f_m,

with sign -1 and f = 0 for a chain map and sign +1 for a homotopy s of a
chain map f = d o s + s o d.  ``_solve_family`` turns one period of
unknowns and these equations into a finite linear system over the ground
field; ``_first_failure`` re-checks a family degreewise with morphism
arithmetic only, independently of that system.  The re-check stops at
the last distinct equation, ``ChainMap.window`` = periodic_start +
period + 1 (with f given, from the larger of the two periodic starts).
Past it each equation is the one a period earlier, operand for operand:
the family's components fold at periodic_start + period; the algebra
keeps one differential object per pair of terms and the terms are
2N-periodic, so d_k is d_{k+2N} (k >= 1); and f, whose period divides
the family's, folds at its own periodic start.  A solved family also
reads its degree periodic_start + period from the stored degree
periodic_start, so the solver stops one degree earlier; the re-check
cannot, since an arbitrary family makes that degree on its own.

Null-homotopy is decided exactly, in two stages.  Because the
resolutions are minimal (all differentials land in radicals), the
homotopy class of a shift-r map f is faithfully recorded by the induced
cocycle of its bottom component: the head coefficients of f_r into the
base projective of the target.  A nonzero readout certifies that no
homotopy whatsoever exists; a zero readout guarantees one exists (build
it degreewise through the exact tail).  The explicit certificate's
period is decided, not searched.  Let T shift a family by 2N.  For a
null-homotopy s the homogeneous family Ts - s, its drift, has a class
delta in Ext^{r-1}, on which T acts as the identity.  A certificate of
period k*2N forces k*delta = 0; for k invertible, averaging it as
(1/k) sum_j T^j s gives one of period 2N.  So over Q the period is 2N or
no periodic certificate exists; over F_p a drift t represented
periodically gives T^p s = s + p*t = s, so the period is 2N or 2pN.
Found certificates are re-verified degreewise.

The generator x_i (shift 1, R_i -> R_{i+1}) is the identity on common
summands away from the special degrees, with

    component (-1)^(N-i) FStar(N-i)  at degrees k = N mod 2N,
    component (-1)^i     F(i)        at degrees k = 0 mod 2N (k >= 1);

x_i^* swaps the roles of the step and co-step maps, and y_i (shift N,
R_i -> R_{N+1-i}) is the identity in every degree >= N, the terms of the
two resolutions being literally equal there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .homs import ID_SLOT, LineAlgebra
from .linalg import LinearSystem
from .resolutions import (
    HomMatrix,
    PeriodicComplex,
    _accumulate,
    add_cells,
    build_resolution,
    common_factor_matrix,
    compose_cells,
    hom_matrix_add,
    hom_matrix_compose,
    hom_matrix_scale,
    nonzero_cells,
)
from .ext_table import ext_dim_via_x as _ext_dim_via_x


class ChainMapError(AssertionError):
    pass


@dataclass
class ChainMap:
    source: PeriodicComplex
    target: PeriodicComplex
    shift: int
    periodic_start: int
    maker: Callable  # degree -> HomMatrix, called once per degree read
    period: int | None = None  # eventual period, a multiple of 2N (default 2N)
    components: dict = field(default_factory=dict)  # degree -> HomMatrix built so far

    def __post_init__(self):
        self.period = self.period or self.source.period

    @property
    def period_len(self) -> int:
        # perfbench/tracer.py reads a certificate's period under this name
        return self.period

    @property
    def window(self) -> int:
        """The last degree whose equation is not the one a period earlier."""
        return self.periodic_start + self.period + 1

    def component(self, k: int):
        """The degree-k component (None below degree max(shift, 0));
        degrees past top = periodic_start + period fold back by whole
        periods, in one step, into top - period < k <= top."""
        if k < 0 or k < self.shift:
            return None
        top = self.periodic_start + self.period
        if k > top:
            k = top - (top - k) % self.period
        M = self.components.get(k)
        if M is None:
            M = self.components[k] = self.maker(k)
        return M

    def verify(self):
        """Check the chain-map squares degreewise; raises on failure."""
        k = _first_failure(self, -1)
        if k is not None:
            raise ChainMapError(
                f"chain-map square fails at degree {k} "
                f"(shift {self.shift}, source S_{self.source.base_vertex})"
            )
        return self


def _window(u: ChainMap, f: ChainMap | None) -> int:
    """The last distinct equation of u against f (None means zero)."""
    if f is None:
        return u.window
    if u.period % f.period:
        raise ChainMapError("the right-hand side's period does not divide the family's")
    return max(u.periodic_start, f.periodic_start) + u.period + 1


def _first_failure(u: ChainMap, sign: int, f: ChainMap | None = None):
    """The first degree m in shift+1 .. window where
    d o u_m + sign * u_{m-1} o d != f_m (f None means zero), or None.

    Morphism-matrix arithmetic only: an independent re-check of families
    that ``_solve_family`` found.  It compares the cells of the two sides
    (the complexes fix both shapes), so a side that is an operand's own
    cells, as with a full identity, is read where it lies.  Each later
    degree states the equation of the degree a period earlier with the
    same operands (module docstring), so this decides every degree."""
    alg = u.source.alg
    for m in range(u.shift + 1, _window(u, f) + 1):
        have = compose_cells(alg, u.target.diff(m - u.shift), u.component(m))
        want = f.component(m).cells if f else {}
        prev = u.component(m - 1)
        if prev is not None:  # sign * u_{m-1} o d, moved to the side where it adds
            term = compose_cells(alg, prev, u.source.diff(m))
            if sign > 0:
                have = add_cells(alg, have, term)
            else:
                want = add_cells(alg, want, term)
        if have is not want and have != want:
            return m
    return None


def turn_sign(n: int, i: int, k: int):
    """The sign of the special component of x_i and x_i^* at degree k:
    (-1)^(N-i) at k = N and (-1)^i at k = 0 mod 2N; None at other degrees."""
    m = k % (2 * n)
    if m not in (0, n):
        return None
    return -1 if (n - i if m else i) % 2 else 1


def _step_generator(alg, i, name, src, tgt, half_turn_hom, full_turn_hom) -> ChainMap:
    """Identity on common summands, with the signed special components
    half_turn_hom(N-i) at degrees N mod 2N and full_turn_hom(i) at 0 mod 2N."""
    if not 1 <= i <= alg.n - 1:
        raise ValueError(f"no {name} generator at {i}")
    n = alg.n
    source = build_resolution(alg, src)
    target = build_resolution(alg, tgt)

    def maker(k):
        sign = turn_sign(n, i, k)
        if sign is None:
            return common_factor_matrix(alg, source.term(k), target.term(k - 1))
        hom = half_turn_hom(n - i) if k % (2 * n) else full_turn_hom(i)
        return HomMatrix(source.term(k), target.term(k - 1),
                         {(0, 0): alg.scale(alg.field.from_int(sign), hom)})

    return ChainMap(source, target, 1, 1, maker).verify()


def generator_x(alg: LineAlgebra, i: int) -> ChainMap:
    """The shift-1 map R_i -> R_{i+1} representing the step class."""
    return _step_generator(alg, i, "step", i, i + 1, alg.fstar_hom, alg.f_hom)


def generator_xstar(alg: LineAlgebra, i: int) -> ChainMap:
    """The shift-1 map R_{i+1} -> R_i: the step map with f and f* swapped."""
    return _step_generator(alg, i, "co-step", i + 1, i, alg.f_hom, alg.fstar_hom)


def generator_y(alg: LineAlgebra, i: int) -> ChainMap:
    """The shift-N projection R_i -> R_{N+1-i}: identity in degrees >= N."""
    alg._check_vertex(i)
    n = alg.n
    source = build_resolution(alg, i)
    target = build_resolution(alg, n + 1 - i)

    def maker(k):
        src = source.term(k)
        tgt = target.term(k - n)
        if src != tgt:
            raise ChainMapError(
                f"terms of R_{i} and the shifted R_{n + 1 - i} differ at degree {k}"
            )
        return common_factor_matrix(alg, src, tgt)

    return ChainMap(source, target, n, n, maker).verify()


def cached_generator(alg: LineAlgebra, kind: str, i: int) -> ChainMap:
    key = (kind, i)
    if key not in alg._generator_cache:
        builder = {"x": generator_x, "xstar": generator_xstar, "y": generator_y}[kind]
        alg._generator_cache[key] = builder(alg, i)
    return alg._generator_cache[key]


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f after g (Yoneda product at chain level); shifts add."""
    if g.target is not f.source and g.target.base_vertex != f.source.base_vertex:
        raise ChainMapError("endpoint mismatch in composition")
    alg = f.source.alg
    shift = f.shift + g.shift
    ps = max(g.periodic_start, f.periodic_start + g.shift, shift)

    def maker(k):
        return hom_matrix_compose(alg, f.component(k - g.shift), g.component(k))

    return ChainMap(g.source, f.target, shift, ps, maker)


def chain_add(f: ChainMap, g: ChainMap, c) -> ChainMap:
    """f + c*g."""
    alg = f.source.alg
    if (f.shift != g.shift or f.source.base_vertex != g.source.base_vertex
            or f.target.base_vertex != g.target.base_vertex):
        raise ChainMapError("adding chain maps of different type")
    ps = max(f.periodic_start, g.periodic_start)

    def maker(k):
        return hom_matrix_add(
            alg, f.component(k), hom_matrix_scale(alg, c, g.component(k))
        )

    return ChainMap(f.source, f.target, f.shift, ps, maker)


def chain_sub(f: ChainMap, g: ChainMap) -> ChainMap:
    return chain_add(f, g, c=f.source.alg.field.from_int(-1))


def chain_scale(c, f: ChainMap) -> ChainMap:
    alg = f.source.alg

    def maker(k):
        return hom_matrix_scale(alg, c, f.component(k))

    return ChainMap(f.source, f.target, f.shift, f.periodic_start, maker)


def identity_chain_map(alg: LineAlgebra, i: int) -> ChainMap:
    source = build_resolution(alg, i)

    def maker(k):
        return common_factor_matrix(alg, source.term(k), source.term(k))

    return ChainMap(source, source, 0, 1, maker).verify()


def chain_equal_strict(f: ChainMap, g: ChainMap) -> bool:
    """Degreewise equality over a window covering both periodic tails."""
    return f.shift == g.shift and all(
        f.component(k) == g.component(k) for k in range(f.shift, max(f.window, g.window) + 1))


# ------------------------------------------------------------- homotopies


def _solve_family(source, target, shift, periodic_start, period, sign,
                  f=None, pins=()):
    """The eventually periodic family of morphism matrices
    u_m : term_m(source) -> term_{m-shift}(target) (shift >= -1), stored
    for max(shift, 0) <= m < periodic_start + period and read back as
    u_m = u_{m-period} beyond, with

        d o u_m + sign * u_{m-1} o d = f_m     (shift < m <= window)

    (a term is absent where its u or its differential is; f None means
    zero, and a given f must fold with the period) and pins, pairs
    ((m, row, col, slot), value) fixing single coefficients.

    There is one scalar unknown per basis morphism of each stored entry,
    numbered by m, row, column, then slot (``alg.basis`` order).  An
    unknown's column is its basis morphism pushed through the nonzero
    entries of one differential column (d o u) and one differential row
    (u o d).  Equations are keyed and ordered by (row, col, slot) within a
    degree, and stop one degree before the family's window W against f.
    The rows of degree W repeat those of W - period exactly: u_W and
    u_{W-1} read the unknowns of the stored degrees of W - period and
    W - 1 - period, since every degree past periodic_start + period - 1
    is read back by whole periods; d_k is d_{k+period} (module
    docstring), and f folds at its own periodic start, which is at most
    W - 1 - period.  The same holds for every later degree, so no further
    row changes the solution.  Returns (family,
    system, index): family is the ChainMap of the particular solution,
    None when the system is inconsistent; index maps (m, row, col, slot)
    to the unknown.
    """
    alg = source.alg
    F = alg.field
    sgn = F.from_int(sign)
    lo, hi = max(shift, 0), periodic_start + period - 1

    def stored(m):
        while m > hi:
            m -= period
        return m

    def read(m):  # reads sol, the solution assigned below
        m = stored(m)
        cells = {}
        for r, c, elem, v in unknowns[m]:
            _accumulate(alg, cells, (r, c), alg.scale(sol[v], elem))
        return HomMatrix(source.term(m), target.term(m - shift), nonzero_cells(cells))

    family = ChainMap(source, target, shift, periodic_start, read, period)
    index = {}
    unknowns = {}  # stored degree -> [(row, col, basis morphism, unknown)]
    for m in range(lo, hi + 1):
        cells = unknowns[m] = []
        for r, t in enumerate(target.term(m - shift)):
            for c, s in enumerate(source.term(m)):
                for k, elem in enumerate(alg.basis(s, t)):
                    index[(m, r, c, k)] = len(index)
                    cells.append((r, c, elem, len(index) - 1))

    system = LinearSystem(F, len(index))
    for m in range(shift + 1, _window(family, f)):
        rows = {}  # (row, col, slot) -> {unknown: coefficient}

        def put(r, c, elem, v, scale):
            for k, cv in elem.terms():
                row = rows.setdefault((r, c, k), {})
                row[v] = F.add(row.get(v, F.zero), F.mul(scale, cv))

        columns = {}  # column of d -> [(row, cell)], rows increasing
        for (r2, a), entry in sorted(target.diff(m - shift).cells.items()):
            columns.setdefault(a, []).append((r2, entry))
        for r, c, elem, v in unknowns[stored(m)]:
            for r2, entry in columns.get(r, ()):
                put(r2, c, alg.compose(entry, elem), v, F.one)
        if m - 1 >= lo:  # u_{m-1} o d takes part
            nonzero_rows = {}  # row of d -> [(column, cell)], columns increasing
            for (c, c2), entry in sorted(source.diff(m).cells.items()):
                nonzero_rows.setdefault(c, []).append((c2, entry))
            for r, c, elem, v in unknowns[stored(m - 1)]:
                for c2, entry in nonzero_rows.get(c, ()):
                    put(r, c2, alg.compose(elem, entry), v, sgn)
        values = {}  # (row, col, slot) -> nonzero scalar of f_m
        if f is not None:
            for (r, c), entry in f.component(m).cells.items():
                for k, cv in entry.terms():
                    values[(r, c, k)] = cv
                    rows.setdefault((r, c, k), {})
        for key in sorted(rows):
            system.add_equation(rows[key], values.get(key, F.zero))
    for key, value in pins:
        system.add_equation({index[key]: F.one}, value)

    sol = system.solution()
    return (None if sol is None else family), system, index


def chain_head_class(f: ChainMap):
    """The induced cocycle of f: head coefficients of the bottom component
    into the base projective of the target resolution.

    Two chain maps are homotopic iff these readouts agree (minimality of
    the resolutions: differentials land in radicals, so precomposition
    and postcomposition with them die in the head).
    """
    return head_class(f.source.alg.field, f.component(f.shift), f.target.base_vertex)


def head_class(F, bottom: HomMatrix, j: int):
    """The head coefficients of a bottom component into P_j, one per P_j summand."""
    return [bottom.entry(0, c).identity_coefficient(F)
            for c, s in enumerate(bottom.source) if s == j]


def class_is_zero(f: ChainMap) -> bool:
    F = f.source.alg.field
    return all(F.is_zero(c) for c in chain_head_class(f))


def _periodic_homotopy(f: ChainMap, period_multiple: int):
    """Solve for a homotopy with eventual period 2N * period_multiple."""
    start = max(f.periodic_start, f.shift - 1, 1)
    htpy, _, _ = _solve_family(f.source, f.target, f.shift - 1, start,
                               f.period * period_multiple, 1, f=f)
    if htpy is not None and not verify_homotopy(f, htpy):
        raise ChainMapError("homotopy certificate failed re-verification")
    return htpy


def null_homotopy(f: ChainMap):
    """An eventually periodic homotopy certifying f = d s + s d, or None.

    The certificate is a ChainMap of shift r-1 for f of shift r.  None
    certifies non-nullity: the induced cocycle (head readout on the
    minimal resolution) is nonzero, so no homotopy of any shape exists.
    When the readout vanishes the certificate has period 2N, or 2pN over
    F_p (the drift argument of the module docstring), re-verified
    degreewise; over Q, none of period 2N means none is periodic.
    """
    if not class_is_zero(f):
        return None
    p = f.source.alg.field.characteristic
    for multiple in (1, p) if p else (1,):
        htpy = _periodic_homotopy(f, multiple)
        if htpy is not None:
            return htpy
    raise ChainMapError("the induced cocycle vanishes but no homotopy of period "
                        f"{f.period * multiple} exists" + ("" if p else ": its drift is nonzero"))


def verify_homotopy(f: ChainMap, htpy: ChainMap) -> bool:
    """Independent degreewise check that f = d o s + s o d."""
    return htpy.shift == f.shift - 1 and _first_failure(htpy, 1, f) is None


def class_difference_scalar(f: ChainMap, g: ChainMap):
    """A scalar c with f - c*g null-homotopic, or None.

    Classes are compared through their induced cocycles, which determine
    them faithfully on the minimal resolutions.
    """
    alg = f.source.alg
    F = alg.field
    if (f.shift != g.shift or f.source.base_vertex != g.source.base_vertex
            or f.target.base_vertex != g.target.base_vertex):
        return None
    hf = chain_head_class(f)
    hg = chain_head_class(g)
    c = None
    for a, b in zip(hf, hg):
        if F.is_zero(b):
            if not F.is_zero(a):
                return None
            continue
        ratio = F.mul(a, F.inv(b))
        if c is None:
            c = ratio
        elif not F.is_zero(F.sub(c, ratio)):
            return None
    return F.zero if c is None else c


# --------------------------------------------------------------- lifting


@dataclass
class ExtClass:
    i: int
    j: int
    k: int
    chain_map: ChainMap
    nonzero: bool


def lift_cocycle(alg: LineAlgebra, i: int, j: int, k: int) -> ExtClass:
    """A chain map R_i -> R_j[k] whose degree-k component maps the P_j
    summand by the identity onto P_j (its head readout is 1); certified
    non-null-homotopic."""
    if _ext_dim_via_x(alg.n, i, j, k) == 0:
        raise ValueError(f"Ext^{k}(S_{i}, S_{j}) = 0: requested class is zero")
    source = build_resolution(alg, i)
    target = build_resolution(alg, j)
    if k == 0 and i == j:
        cls = identity_chain_map(alg, i)
        return ExtClass(i, j, 0, cls, True)

    # chain-map squares d o phi_m = phi_{m-1} o d, and the head pin: the
    # unique P_j summand of term_k maps by the identity onto term_0(R_j) = P_j
    pin = ((k, 0, source.term(k).index(j), ID_SLOT), alg.field.one)
    chain, _, _ = _solve_family(source, target, k, k + 1, source.period, -1, pins=[pin])
    if chain is None:
        raise ChainMapError(
            f"no eventually periodic lift found for Ext^{k}(S_{i}, S_{j})"
        )
    chain.verify()
    if null_homotopy(chain) is not None:
        raise ChainMapError("lifted representative is null-homotopic")
    return ExtClass(i, j, k, chain, True)

