"""Chain-level Ext: maps between the periodic resolutions, null-homotopy
certificates, and the degree-1 and degree-N generator families.

A shift-r chain map f assigns to each degree k >= r a morphism matrix
term_k(source) -> term_{k-r}(target) commuting with the differentials
(no auxiliary signs: squares commute on the nose).  All our complexes and
maps are eventually 2N-periodic, so a map is given by a maker of its
components: each is built on first read, memoized, and read off
periodically past one full period beyond the periodic start.

Null-homotopy is decided exactly, in two stages.  Because the
resolutions are minimal (all differentials land in radicals), the
homotopy class of a shift-r map f is faithfully recorded by the induced
cocycle of its bottom component: the head coefficients of f_r into the
base projective of the target.  A nonzero readout certifies that no
homotopy whatsoever exists; a zero readout guarantees one exists (build
it degreewise through the exact tail).  For the explicit certificate a
homotopy is then sought among eventually periodic families
s_k : term_k(source) -> term_{k-r+1}(target) with f = d o s + s o d; one
period of unknowns plus a matching window is a finite linear system over
the ground field, and the period is widened in multiples of 2N when
needed (a forced drift can make the minimal certificate period a proper
multiple of 2N).  Found certificates are re-verified degreewise.

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
    CheckReport,
    CheckResult,
    HomMatrix,
    PeriodicComplex,
    _accumulate,
    build_resolution,
    common_factor_matrix,
    hom_matrix_add,
    hom_matrix_compose,
    hom_matrix_equal,
    hom_matrix_scale,
    zero_hom_matrix,
)
from .ext_table import ext_dim_via_x as _ext_dim_via_x


# null_homotopy widens the certificate period up to this many full turns
MAX_PERIOD_MULTIPLE = 4


class ChainMapError(AssertionError):
    pass


@dataclass
class ChainMap:
    source: PeriodicComplex
    target: PeriodicComplex
    shift: int
    periodic_start: int
    maker: Callable  # degree -> HomMatrix, called once per degree read
    components: dict = field(default_factory=dict)  # degree -> HomMatrix built so far

    @property
    def period(self) -> int:
        return 2 * self.source.alg.n

    def component(self, k: int):
        """The degree-k component (None when the target degree is < 0);
        degrees past periodic_start + 2N fold back by whole periods."""
        if k < self.shift:
            return None
        while k > self.periodic_start + self.period:
            k -= self.period
        M = self.components.get(k)
        if M is None:
            M = self.components[k] = self.maker(k)
        return M

    def verify(self, window: int | None = None):
        """Check the chain-map squares degreewise; raises on failure."""
        alg = self.source.alg
        hi = window or (self.periodic_start + 2 * self.period + 2)
        for k in range(self.shift + 1, hi + 1):
            lhs_prev = self.component(k - 1)
            lhs = hom_matrix_compose(alg, lhs_prev, self.source.diff(k))
            rhs = hom_matrix_compose(alg, self.target.diff(k - self.shift), self.component(k))
            if not hom_matrix_equal(alg, lhs, rhs):
                raise ChainMapError(
                    f"chain-map square fails at degree {k} "
                    f"(shift {self.shift}, source S_{self.source.base_vertex})"
                )
        return self


def _step_generator(alg, i, name, src, tgt, half_turn_hom, full_turn_hom) -> ChainMap:
    """Identity on common summands, with the signed special components
    half_turn_hom(N-i) at degrees N mod 2N and full_turn_hom(i) at 0 mod 2N."""
    if not 1 <= i <= alg.n - 1:
        raise ValueError(f"no {name} generator at {i}")
    n = alg.n
    source = build_resolution(alg, src)
    target = build_resolution(alg, tgt)
    F = alg.field

    def maker(k):
        m = k % (2 * n)
        if m == n % (2 * n):
            e, hom = n - i, half_turn_hom
        elif m == 0:
            e, hom = i, full_turn_hom
        else:
            return common_factor_matrix(alg, source.term(k), target.term(k - 1))
        sign = F.from_int(-1 if e % 2 else 1)
        return HomMatrix(source.term(k), target.term(k - 1), {(0, 0): alg.scale(sign, hom(e))})

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
        if src.indices != tgt.indices:
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


def chain_add(f: ChainMap, g: ChainMap, c=None) -> ChainMap:
    """f + c*g (default c = 1)."""
    alg = f.source.alg
    if (f.shift != g.shift or f.source.base_vertex != g.source.base_vertex
            or f.target.base_vertex != g.target.base_vertex):
        raise ChainMapError("adding chain maps of different type")
    if c is None:
        c = alg.field.one
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
    alg = f.source.alg
    if f.shift != g.shift:
        return False
    hi = max(f.periodic_start, g.periodic_start) + 2 * f.period + 2
    for k in range(f.shift, hi + 1):
        if not hom_matrix_equal(alg, f.component(k), g.component(k)):
            return False
    return True


# ------------------------------------------------------------- homotopies


@dataclass
class Homotopy:
    source: PeriodicComplex
    target: PeriodicComplex
    shift: int  # shift of the map it null-homotopes
    lo: int
    maps: list  # s_k for k in lo..hi, term_k(source) -> term_{k-shift+1}(target)
    periodic_start: int
    period_len: int  # eventual period (a multiple of 2N)

    @property
    def hi(self) -> int:
        return self.lo + len(self.maps) - 1

    def component(self, k: int):
        if k < self.lo:
            return None
        while k > self.hi:
            k -= self.period_len
        if k < self.lo:
            raise ChainMapError("homotopy window too shallow")
        return self.maps[k - self.lo]


def _solve_family(source, target, shift, lo, hi, period, eq_lo, eq_hi, sign,
                  rhs=None, pins=()):
    """The linear system for an eventually periodic family of morphism
    matrices u_m : term_m(source) -> term_{m-shift}(target), stored for
    lo <= m <= hi and read back as u_m = u_{m-period} beyond hi, with

        d o u_m + sign * u_{m-1} o d = rhs(m)        (eq_lo <= m <= eq_hi)

    (a term is absent where its u or its differential is; rhs None means
    zero) and pins, pairs ((m, row, col, slot), value) fixing single
    coefficients.

    There is one scalar unknown per basis morphism of each stored entry,
    numbered by m, row, column, then slot (``alg.basis`` order).  An
    unknown's column is its basis morphism pushed through the nonzero
    entries of one differential column (d o u) and one differential row
    (u o d).  Equations are keyed and ordered by (row, col, slot) within a
    degree.  Returns (system, index, read): index maps (m, row, col, slot)
    to the unknown, read(solution, m) assembles u_m.
    """
    alg = source.alg
    F = alg.field
    sgn = F.from_int(sign)

    def stored(m):
        while m > hi:
            m -= period
        return m

    index = {}
    unknowns = {}  # stored degree -> [(row, col, basis morphism, unknown)]
    for m in range(lo, hi + 1):
        cells = unknowns[m] = []
        for r, t in enumerate(target.term(m - shift).indices):
            for c, s in enumerate(source.term(m).indices):
                for k, elem in enumerate(alg.basis(s, t)):
                    index[(m, r, c, k)] = len(index)
                    cells.append((r, c, elem, len(index) - 1))

    system = LinearSystem(F, len(index))
    for m in range(eq_lo, eq_hi + 1):
        rows = {}  # (row, col, slot) -> {unknown: coefficient}

        def put(r, c, elem, v, scale):
            for k, cv in elem.terms():
                row = rows.setdefault((r, c, k), {})
                row[v] = F.add(row.get(v, F.zero), F.mul(scale, cv))

        if m >= lo and m - shift >= 1:
            columns = {}  # column of d -> [(row, cell)], rows increasing
            for (r2, a), entry in sorted(target.diff(m - shift).cells.items()):
                columns.setdefault(a, []).append((r2, entry))
            for r, c, elem, v in unknowns[stored(m)]:
                for r2, entry in columns.get(r, ()):
                    put(r2, c, alg.compose(entry, elem), v, F.one)
        if m - 1 >= lo and m >= 1:
            nonzero_rows = {}  # row of d -> [(column, cell)], columns increasing
            for (c, c2), entry in sorted(source.diff(m).cells.items()):
                nonzero_rows.setdefault(c, []).append((c2, entry))
            for r, c, elem, v in unknowns[stored(m - 1)]:
                for c2, entry in nonzero_rows.get(c, ()):
                    put(r, c2, alg.compose(elem, entry), v, sgn)
        values = {}  # (row, col, slot) -> nonzero scalar of rhs(m)
        if rhs is not None:
            for (r, c), entry in rhs(m).cells.items():
                for k, cv in entry.terms():
                    values[(r, c, k)] = cv
                    rows.setdefault((r, c, k), {})
        for key in sorted(rows):
            system.add_equation(rows[key], values.get(key, F.zero))
    for key, value in pins:
        system.add_equation({index[key]: F.one}, value)

    def read(sol, m):
        m = stored(m)
        cells = {}
        for r, c, elem, v in unknowns[m]:
            _accumulate(alg, cells, (r, c), alg.scale(sol[v], elem))
        return HomMatrix(source.term(m), target.term(m - shift), cells)

    return system, index, read


def chain_head_class(f: ChainMap):
    """The induced cocycle of f: head coefficients of the bottom component
    into the base projective of the target resolution.

    Two chain maps are homotopic iff these readouts agree (minimality of
    the resolutions: differentials land in radicals, so precomposition
    and postcomposition with them die in the head).
    """
    F = f.source.alg.field
    j = f.target.base_vertex
    bottom = f.component(f.shift)
    return [
        bottom.entry(0, c).identity_coefficient(F)
        for c, s in enumerate(bottom.source.indices)
        if s == j
    ]


def class_is_zero(f: ChainMap) -> bool:
    F = f.source.alg.field
    return all(F.is_zero(c) for c in chain_head_class(f))


def _periodic_homotopy(f: ChainMap, period_multiple: int):
    """Solve for a homotopy with eventual period 2N * period_multiple."""
    plen = 2 * f.source.alg.n * period_multiple
    r = f.shift
    s_lo = max(r - 1, 0)
    s0 = max(f.periodic_start, s_lo, 1)
    s_hi = s0 + plen - 1
    eq_hi = s0 + 2 * plen + 2
    system, _, read = _solve_family(
        f.source, f.target, r - 1, s_lo, s_hi, plen, r, eq_hi, 1, rhs=f.component
    )
    sol = system.solution()
    if sol is None:
        return None
    maps = [read(sol, k) for k in range(s_lo, s_hi + 1)]
    htpy = Homotopy(f.source, f.target, r, s_lo, maps, s0, plen)
    if not verify_homotopy(f, htpy, window=eq_hi):
        raise ChainMapError("homotopy certificate failed re-verification")
    return htpy


def null_homotopy(f: ChainMap):
    """An eventually periodic homotopy certifying f = d s + s d, or None.

    None certifies non-nullity: the induced cocycle (head readout on the
    minimal resolution) is nonzero, so no homotopy of any shape exists.
    When the readout vanishes a certificate exists and is searched for
    with eventual periods 2N, 4N, ..., re-verified degreewise.
    """
    if not class_is_zero(f):
        return None
    for m in range(1, MAX_PERIOD_MULTIPLE + 1):
        htpy = _periodic_homotopy(f, m)
        if htpy is not None:
            return htpy
    raise ChainMapError(
        "the induced cocycle vanishes but no periodic homotopy was found "
        f"(eventual period up to {MAX_PERIOD_MULTIPLE} full turns)"
    )


def verify_homotopy(f: ChainMap, htpy: Homotopy, window: int | None = None) -> bool:
    """Independent degreewise check that f = d o s + s o d."""
    alg = f.source.alg
    r = f.shift
    hi = window or (htpy.periodic_start + 2 * htpy.period_len + 2)
    for k in range(r, hi + 1):
        acc = zero_hom_matrix(alg, f.source.term(k), f.target.term(k - r))
        sk = htpy.component(k)
        if sk is not None and k - r + 1 >= 1:
            acc = hom_matrix_add(alg, acc, hom_matrix_compose(alg, f.target.diff(k - r + 1), sk))
        sk1 = htpy.component(k - 1)
        if sk1 is not None and k >= 1:
            acc = hom_matrix_add(alg, acc, hom_matrix_compose(alg, sk1, f.source.diff(k)))
        if not hom_matrix_equal(alg, acc, f.component(k)):
            return False
    return True


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


def _first_nonzero_coefficient(alg, f: ChainMap):
    hi = f.periodic_start + 2 * alg.n
    for k in range(f.shift, hi + 1):
        cells = f.component(k).cells  # no stored cell is zero
        if cells:
            return cells[min(cells)].terms()[0][1]
    return None


def normalize_class(f: ChainMap) -> ChainMap:
    """Rescale so the first nonzero coefficient (lowest degree, row-major,
    then basis order) is 1."""
    alg = f.source.alg
    lead = _first_nonzero_coefficient(alg, f)
    if lead is None:
        return f
    return chain_scale(alg.field.inv(lead), f)


def lift_cocycle(alg: LineAlgebra, i: int, j: int, k: int) -> ExtClass:
    """A chain map R_i -> R_j[k] whose degree-k component hits the head of
    the P_j summand; certified non-null-homotopic."""
    if _ext_dim_via_x(alg.n, i, j, k) == 0:
        raise ValueError(f"Ext^{k}(S_{i}, S_{j}) = 0: requested class is zero")
    n = alg.n
    source = build_resolution(alg, i)
    target = build_resolution(alg, j)
    if k == 0 and i == j:
        cls = identity_chain_map(alg, i)
        return ExtClass(i, j, 0, cls, True)

    # chain-map squares d o phi_m = phi_{m-1} o d, and the head pin: the
    # unique P_j summand of term_k maps by the identity onto term_0(R_j) = P_j
    p0 = k + 1
    pin = ((k, 0, source.term(k).indices.index(j), ID_SLOT), alg.field.one)
    system, _, read = _solve_family(
        source, target, k, k, p0 + 2 * n - 1, 2 * n, k + 1, p0 + 4 * n + 2, -1, pins=[pin]
    )
    sol = system.solution()
    if sol is None:
        raise ChainMapError(
            f"no eventually periodic lift found for Ext^{k}(S_{i}, S_{j})"
        )
    chain = ChainMap(source, target, k, p0, lambda m: read(sol, m)).verify()
    chain = normalize_class(chain)
    if null_homotopy(chain) is not None:
        raise ChainMapError("lifted representative is null-homotopic")
    return ExtClass(i, j, k, chain, True)


def ext_class_dimension(alg: LineAlgebra, i: int, j: int, k: int) -> int:
    """dim Hom modulo homotopy of shift-k maps R_i -> R_j, computed as the
    rank of the induced-cocycle readout on the space of eventually
    periodic chain maps.

    The readout identifies homotopic maps and nothing more (minimality),
    so this is the Ext dimension provided every cocycle lifts to a
    periodic chain map; agreement with the combinatorial table is exactly
    what the test suite certifies.
    """
    n = alg.n
    source = build_resolution(alg, i)
    target = build_resolution(alg, j)
    # ansatz: components repeat from k+1 on
    system, index, _ = _solve_family(source, target, k, k, k + 2 * n, 2 * n,
                                     k + 1, k + 6 * n + 3, -1)
    head_vars = [
        index[(k, 0, c, ID_SLOT)]
        for c, s in enumerate(source.term(k).indices)
        if s == j
    ]
    readout = LinearSystem(alg.field, len(head_vars))
    for vec in system.nullspace_basis():
        readout.add_equation({pos: vec[v] for pos, v in enumerate(head_vars)}, alg.field.zero)
    return readout.rank


# -------------------------------------------------------------- relations


def verify_chain_relations(alg: LineAlgebra) -> CheckReport:
    """Machine check of the generator relations.

    The mixed degree-(N+1) relations hold strictly at chain level; the
    degree-2 relations hold up to an explicit homotopy certificate.
    """
    n = alg.n
    checks = []
    if n == 1:
        checks.append(CheckResult("no degree-1 generators", True, "vacuous"))
        return CheckReport(checks)

    x = {i: cached_generator(alg, "x", i) for i in range(1, n)}
    xs = {i: cached_generator(alg, "xstar", i) for i in range(1, n)}
    y = {i: cached_generator(alg, "y", i) for i in range(1, n + 1)}

    def homotopic_zero(f):
        # null_homotopy re-verifies every certificate it returns
        return null_homotopy(f) is not None

    checks.append(
        CheckResult("xstar_1 o x_1 = 0", homotopic_zero(compose(xs[1], x[1])))
    )
    checks.append(
        CheckResult(
            f"x_{n-1} o xstar_{n-1} = 0",
            homotopic_zero(compose(x[n - 1], xs[n - 1])),
        )
    )
    for i in range(1, n - 1):
        diff = chain_sub(compose(x[i], xs[i]), compose(xs[i + 1], x[i + 1]))
        checks.append(
            CheckResult(
                f"x_{i} o xstar_{i} = xstar_{i+1} o x_{i+1}", homotopic_zero(diff)
            )
        )
    for i in range(1, n):
        lhs = compose(y[i + 1], x[i])
        rhs = compose(xs[n - i], y[i])
        checks.append(
            CheckResult(
                f"y_{i+1} o x_{i} = xstar_{n-i} o y_{i} (strict)",
                chain_equal_strict(lhs, rhs),
            )
        )
        lhs = compose(y[i], xs[i])
        rhs = compose(x[n - i], y[i + 1])
        checks.append(
            CheckResult(
                f"y_{i} o xstar_{i} = x_{n-i} o y_{i+1} (strict)",
                chain_equal_strict(lhs, rhs),
            )
        )
    return CheckReport(checks)
