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
into a single concrete table, which ``certify`` realizes on the oracle's
standard projectives.  All other products of non-identity generators
vanish.

Since (i, j) alone fixes the basis of Hom(P_i, P_j), a morphism is stored
as its endpoints and a tuple of scalars in basis order, its slots:

    (Id(i), Loop(i))   when j = i,
    (F(i),)            when j = i+1,
    (FStar(j),)        when j = i-1,

and the empty tuple is zero for any endpoints.  (source, target, slot)
names a basis morphism, and ``format_hom`` and the realization in
``certify`` read it off that triple.  The algebra hands out one shared
``HomElement`` per basis morphism (``basis``, ``identity_hom``,
``loop_hom``, ``f_hom``, ``fstar_hom``), made on first request and never
edited, so a cell comparison between two of them is one identity test.
Composition is slot arithmetic over the shapes of the three endpoints.
Other modules name slots only through the accessors of ``HomElement``
and ``ID_SLOT``.
"""

from __future__ import annotations

from dataclasses import dataclass

ID_SLOT = 0  # the identity's slot in Hom(P_i, P_i); the loop's is 1


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

    N and the field are fixed at construction.  The six memos below fill
    on first use (``resolutions``, ``certify`` and ``yoneda`` write all
    but ``_bases``); each value is a pure function of its key, N and the
    field (a ``_verdicts`` key names differentials, which are never
    edited), so sharing an algebra changes what is computed again, never
    a result.  The algebra holds no object of the representation oracle.
    """

    def __init__(self, n: int, field):
        if n < 1:
            raise ValueError("need at least one simple module")
        self.n = n
        self.field = field
        self._resolutions = {}  # vertex i -> (terms of R_i so far, {degree: differential})
        self._differentials = {}  # (term_k indices, term_{k-1} indices) -> the one differential
        self._common_factors = {}  # (source indices, target indices) -> the one partial identity
        self._verdicts = {}  # (check, ids of differentials, extras) -> (differentials, verdict)
        self._generator_cache = {}  # (kind, i) -> the verified generator chain map
        self._bases = {}  # (i, j) -> the shared basis morphisms of Hom(P_i, P_j), in slot order

    # ---------------------------------------------------------- structure
    def hom_dimension(self, i: int, j: int) -> int:
        return len(self.basis(i, j))

    def basis(self, i: int, j: int) -> tuple:
        """The basis of Hom(P_i, P_j) as morphisms, in slot order: the
        algebra's one object per basis morphism, made on first request
        and never edited."""
        b = self._bases.get((i, j))
        return b if b is not None else self._new_basis(i, j)

    def _new_basis(self, i: int, j: int) -> tuple:
        self._check_vertex(i)
        self._check_vertex(j)
        one, zero = self.field.one, self.field.zero
        d = max(0, 2 - abs(i - j))
        b = self._bases[(i, j)] = tuple(
            HomElement(i, j, tuple(one if k == s else zero for k in range(d)))
            for s in range(d))
        return b

    def _check_vertex(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i} out of range 1..{self.n}")

    # -------------------------------------------------------- arithmetic
    def zero_hom(self, source: int, target: int) -> HomElement:
        return HomElement(source, target)

    # the named basis morphisms, read as ``basis`` reads them (their Homs are never zero)
    def identity_hom(self, i: int) -> HomElement:
        return (self._bases.get((i, i)) or self._new_basis(i, i))[ID_SLOT]

    def loop_hom(self, i: int) -> HomElement:
        return (self._bases.get((i, i)) or self._new_basis(i, i))[1 - ID_SLOT]

    def f_hom(self, i: int) -> HomElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"no step map at {i}")
        return (self._bases.get((i, i + 1)) or self._new_basis(i, i + 1))[0]

    def fstar_hom(self, i: int) -> HomElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"no co-step map at {i}")
        return (self._bases.get((i + 1, i)) or self._new_basis(i + 1, i))[0]

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

    def loop_sign(self, i: int) -> int:
        """(-1)^i, with the boundary convention (-1)^(N-1) at i = N."""
        return -1 if min(i, self.n - 1) % 2 else 1
