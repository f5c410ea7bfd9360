"""The Brauer line algebra A_N and its morphism calculus.

Hom(P_i, P_j) has dimension 2 when i = j (identity and a socle-hitting
loop), 1 when |i - j| = 1, and 0 otherwise: 4N - 2 basis morphisms in
total.  We fix generators

    F(i)     : P_i     -> P_{i+1}
    FStar(i) : P_{i+1} -> P_i
    Loop(i)  : P_i     -> P_i      (image = socle)
    Id(i)    : P_i     -> P_i

normalized so that (function composition, right factor first)

    FStar(i) o F(i) = Loop(i)                       for i <= N-1,
    F(i) o FStar(i) = -Loop(i+1)                    for i+1 <= N-1,
    F(N-1) o FStar(N-1) = Loop(N),

which packages the anticommutation FStar(i) o F(i) = - F(i-1) o FStar(i-1)
into a single concrete table.  Concretely this is realized on the standard
projectives (all structure constants +1) by

    F(i) = (-1)^i * (basis map),   FStar(i) = (basis map),
    Loop(i) = (-1)^i * (basis loop) for i <= N-1,  (-1)^(N-1) for i = N.

One table, ``_realization``, lists the at most four nonzero entries of
each basis morphism there; ``realize`` and ``resolutions.realize_hom_matrix``
both write through it with ``add_realization``.

All other products of non-identity generators vanish.

Since (i, j) alone fixes the basis of Hom(P_i, P_j), a morphism is stored
as its endpoints and a tuple of scalars in basis order, its slots:

    (Id(i), Loop(i))   when j = i,
    (F(i),)            when j = i+1,
    (FStar(j),)        when j = i-1,

and the empty tuple is zero for any endpoints.  A basis morphism is no
object of its own: (source, target, slot) names it, and ``_realization``
and ``format_hom`` read it off that triple.  Composition is slot
arithmetic over the shapes of the three endpoints.  Other modules name
slots only through the accessors of ``HomElement`` and ``ID_SLOT``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import reps

ID_SLOT = 0  # the identity's slot in Hom(P_i, P_i); the loop's is 1


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _realization(source: int, target: int, slot: int, n: int) -> tuple:
    """The nonzero entries (vertex, row, col, sign) of a basis morphism on
    the standard projectives of ``reps``: row and col index the target's
    and the source's basis at the vertex, head before socle."""
    i = min(source, target)
    if source == target and slot == ID_SLOT:
        middles = tuple((v, 0, 0, 1) for v in (i - 1, i + 1) if 1 <= v <= n)
        return ((i, 0, 0, 1), (i, 1, 1, 1)) + middles
    if source == target:  # Loop(i): head -> socle
        return ((i, 1, 0, _sign(min(i, n - 1))),)
    if target > source:  # F(i): head of P_i -> middle of P_{i+1} at i; middle at i+1 -> socle
        return ((i, 0, 0, _sign(i)), (i + 1, 1, 0, _sign(i)))
    # FStar(i): head of P_{i+1} -> middle of P_i at i+1; middle at i -> socle
    return ((i + 1, 0, 0, 1), (i, 1, 0, 1))


def _name(source: int, target: int, slot: int) -> str:
    """The basis morphism's name, e.g. "FStar(2)" for P_3 -> P_2."""
    if source == target:
        return f"{'Loop' if slot else 'Id'}({source})"
    return f"F({source})" if target > source else f"FStar({target})"


@dataclass(slots=True)
class HomElement:
    """A scalar combination of basis morphisms P_source -> P_target.

    Scalars are canonical (see ``fields``), so a zero scalar is falsy and
    a HomElement is falsy exactly when it is zero.  ``compose``, ``add``
    and ``scale`` return every zero as (), so ``==`` on their results is
    equality of morphisms.
    """

    source: int
    target: int
    slots: tuple = ()  # scalars in basis order; () is zero

    def __bool__(self) -> bool:
        return any(self.slots)

    def terms(self):
        """(slot, scalar) for the nonzero slots, in basis order."""
        return [(k, c) for k, c in enumerate(self.slots) if c]

    def identity_coefficient(self, field):
        """The coefficient of Id in an endomorphism, zero otherwise."""
        if self.source == self.target and self.slots:
            return self.slots[ID_SLOT]
        return field.zero


def format_hom(alg, h: HomElement) -> str:
    """A morphism as a signed sum of named basis morphisms, e.g. "-FStar(2)"."""
    F = alg.field
    parts = []
    for k, c in h.terms():
        base = _name(h.source, h.target, k)
        if F.is_zero(F.sub(c, F.one)):
            parts.append(base)
        elif F.is_zero(F.add(c, F.one)):
            parts.append(f"-{base}")
        else:
            parts.append(f"{c}*{base}")
    return " + ".join(parts) or "0"


class CompositionError(ValueError):
    pass


class LineAlgebra:
    """The algebra of the line with N simples over an exact field.

    N and the field are fixed at construction.  The seven memos below fill
    on first use (``projective``, ``resolutions`` and ``yoneda`` write
    them); each value is a pure function of its key, N and the field (a
    ``_verdicts`` key names differentials, which are never edited), so
    sharing an algebra changes what is computed again, never a result.
    The quiver presentation used by the representation oracle is
    reconstructed from the layer structure of the projectives (see
    ``reps``); it is the unique presentation compatible with
    head/heart/socle = S_i, S_{i-1}+S_{i+1}, S_i, a fact the test suite
    re-derives rather than assumes.
    """

    def __init__(self, n: int, field):
        if n < 1:
            raise ValueError("need at least one simple module")
        self.n = n
        self.field = field
        self._projectives = {}  # vertex i -> the oracle's P_i
        self._psum_reps = {}  # index tuple of a projective sum -> (oracle direct sum, offsets)
        self._resolutions = {}  # vertex i -> (terms of R_i so far, {degree: differential})
        self._differentials = {}  # (term_k indices, term_{k-1} indices) -> the one differential
        self._common_factors = {}  # (source indices, target indices) -> the one partial identity
        self._verdicts = {}  # (check, ids of differentials, extras) -> (differentials, verdict)
        self._generator_cache = {}  # (kind, i) -> the verified generator chain map

    # ---------------------------------------------------------- structure
    def hom_dimension(self, i: int, j: int) -> int:
        self._check_vertex(i)
        self._check_vertex(j)
        return max(0, 2 - abs(i - j))

    def basis(self, i: int, j: int):
        """The basis of Hom(P_i, P_j) as morphisms, in slot order."""
        one, zero = self.field.one, self.field.zero
        d = self.hom_dimension(i, j)
        return [HomElement(i, j, tuple(one if k == s else zero for k in range(d)))
                for s in range(d)]

    def _check_vertex(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i} out of range 1..{self.n}")

    # -------------------------------------------------------- arithmetic
    def zero_hom(self, source: int, target: int) -> HomElement:
        return HomElement(source, target)

    def identity_hom(self, i: int) -> HomElement:
        self._check_vertex(i)
        return HomElement(i, i, (self.field.one, self.field.zero))

    def loop_hom(self, i: int) -> HomElement:
        self._check_vertex(i)
        return HomElement(i, i, (self.field.zero, self.field.one))

    def f_hom(self, i: int) -> HomElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"no step map at {i}")
        return HomElement(i, i + 1, (self.field.one,))

    def fstar_hom(self, i: int) -> HomElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"no co-step map at {i}")
        return HomElement(i + 1, i, (self.field.one,))

    def compose(self, g: HomElement, h: HomElement) -> HomElement:
        """Function composition g o h (h acts first)."""
        a, b, c = h.source, h.target, g.target
        if b != g.source:
            raise CompositionError(f"cannot compose: {a}->{b} then {g.source}->{c}")
        x, y = g.slots, h.slots
        if not (x and y):
            return HomElement(a, c)
        F = self.field
        if a == c:
            if a == b:  # (Id, Loop) o (Id, Loop); Loop o Loop = 0
                p, q = F.mul(x[0], y[0]), F.add(F.mul(x[0], y[1]), F.mul(x[1], y[0]))
                return HomElement(a, a, (p, q) if p or q else ())
            # out to a neighbour b and back: FStar(a) o F(a) = Loop(a) when b > a,
            # F(b) o FStar(b) = -Loop(a) when b < a, but +Loop(N) at the end
            s = F.mul(x[0], y[0])  # nonzero, as both one-slot factors are
            if b < a and a != self.n:
                s = F.neg(s)
            return HomElement(a, a, (F.zero, s))
        if a == b or b == c:  # a step or co-step beside an endomorphism: only Id acts
            s = F.mul(x[0], y[0])
            return HomElement(a, c, (s,) if s else ())
        return HomElement(a, c)  # two like-oriented steps

    def add(self, g: HomElement, h: HomElement) -> HomElement:
        if (g.source, g.target) != (h.source, h.target):
            raise CompositionError("adding morphisms with different endpoints")
        if not g.slots:
            return h
        if not h.slots:
            return g
        s = tuple(map(self.field.add, g.slots, h.slots))
        return HomElement(g.source, g.target, s if any(s) else ())

    def scale(self, c, g: HomElement) -> HomElement:
        if not c:
            return HomElement(g.source, g.target)
        mul = self.field.mul
        return HomElement(g.source, g.target, tuple([mul(c, v) for v in g.slots]))

    # -------------------------------------------------------- realization
    def projective(self, i: int) -> reps.QuiverRep:
        if i not in self._projectives:
            self._projectives[i] = reps.projective_rep(self.n, self.field, i)
        return self._projectives[i]

    def loop_sign(self, i: int) -> int:
        return _sign(min(i, self.n - 1))

    def add_realization(self, blocks, h: HomElement, row_off, col_off) -> None:
        """Add the realization of ``h`` into per-vertex ``blocks``, with its
        block at vertex v starting at row ``row_off[v-1]``, column ``col_off[v-1]``."""
        F = self.field
        for k, c in h.terms():
            for v, r, col, sign in _realization(h.source, h.target, k, self.n):
                row = blocks[v][row_off[v - 1] + r]
                j = col_off[v - 1] + col
                row[j] = F.add(row[j], c if sign > 0 else F.neg(c))

    def realize(self, h: HomElement) -> reps.RepMorphism:
        """Concrete intertwiner; realize(g o h) = realize(g) o realize(h)."""
        phi = reps.zero_morphism(self.projective(h.source), self.projective(h.target))
        origin = (0,) * self.n
        self.add_realization(phi.blocks, h, origin, origin)
        return phi
