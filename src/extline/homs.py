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

All other products of non-identity generators vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import reps

# generator kind ordering used for scalar normalization of lifted classes
KIND_ORDER = {"id": 0, "loop": 1, "f": 2, "fstar": 3}


@dataclass(frozen=True)
class HomGenerator:
    kind: str  # "id" | "loop" | "f" | "fstar"
    i: int

    @property
    def source(self) -> int:
        return self.i + 1 if self.kind == "fstar" else self.i

    @property
    def target(self) -> int:
        return self.i + 1 if self.kind == "f" else self.i

    def sort_key(self):
        return (KIND_ORDER[self.kind], self.i)

    def __repr__(self):
        names = {"id": "Id", "loop": "Loop", "f": "F", "fstar": "FStar"}
        return f"{names[self.kind]}({self.i})"


@dataclass
class HomElement:
    """A scalar combination of basis morphisms P_source -> P_target."""

    source: int
    target: int
    coeffs: dict = dc_field(default_factory=dict)  # HomGenerator -> scalar

    def is_zero(self, field) -> bool:
        return all(field.is_zero(c) for c in self.coeffs.values())

    def normalized(self, field) -> "HomElement":
        return HomElement(
            self.source,
            self.target,
            {g: c for g, c in self.coeffs.items() if not field.is_zero(c)},
        )

    def __repr__(self):
        if not self.coeffs:
            return f"0:{self.source}->{self.target}"
        parts = [f"{c}*{g}" for g, c in sorted(self.coeffs.items(), key=lambda t: t[0].sort_key())]
        return " + ".join(parts)


class CompositionError(ValueError):
    pass


class LineAlgebra:
    """The algebra of the line with N simples over an exact field.

    Immutable after construction; safe to share.  The quiver presentation
    used by the representation oracle is reconstructed from the layer
    structure of the projectives (see ``reps``); it is the unique
    presentation compatible with head/heart/socle = S_i, S_{i-1}+S_{i+1},
    S_i, a fact the test suite re-derives rather than assumes.
    """

    def __init__(self, n: int, field):
        if n < 1:
            raise ValueError("need at least one simple module")
        self.n = n
        self.field = field
        self._projectives = {}
        self._psum_reps = {}
        self._resolutions = {}  # vertex -> (terms, {degree: differential}), see resolutions
        self._generator_cache = {}

    # ---------------------------------------------------------- structure
    def hom_dimension(self, i: int, j: int) -> int:
        self._check_vertex(i)
        self._check_vertex(j)
        if i == j:
            return 2
        if abs(i - j) == 1:
            return 1
        return 0

    def generators(self, i: int, j: int):
        """Basis morphisms of Hom(P_i, P_j)."""
        if self.hom_dimension(i, j) == 0:
            return []
        if i == j:
            return [HomGenerator("id", i), HomGenerator("loop", i)]
        if j == i + 1:
            return [HomGenerator("f", i)]
        return [HomGenerator("fstar", j)]

    @property
    def dimension(self) -> int:
        return 4 * self.n - 2

    def _check_vertex(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i} out of range 1..{self.n}")

    # -------------------------------------------------------- arithmetic
    def zero_hom(self, source: int, target: int) -> HomElement:
        return HomElement(source, target, {})

    def identity_hom(self, i: int) -> HomElement:
        self._check_vertex(i)
        return HomElement(i, i, {HomGenerator("id", i): self.field.one})

    def loop_hom(self, i: int) -> HomElement:
        self._check_vertex(i)
        return HomElement(i, i, {HomGenerator("loop", i): self.field.one})

    def f_hom(self, i: int) -> HomElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"no step map at {i}")
        return HomElement(i, i + 1, {HomGenerator("f", i): self.field.one})

    def fstar_hom(self, i: int) -> HomElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"no co-step map at {i}")
        return HomElement(i + 1, i, {HomGenerator("fstar", i): self.field.one})

    def _compose_generators(self, g: HomGenerator, h: HomGenerator):
        """g after h on basis morphisms; returns (int coefficient, gen) or None."""
        if g.kind == "id":
            return (1, h)
        if h.kind == "id":
            return (1, g)
        if g.kind == "fstar" and h.kind == "f" and g.i == h.i:
            return (1, HomGenerator("loop", g.i))
        if g.kind == "f" and h.kind == "fstar" and g.i == h.i:
            j = g.i + 1
            return (1 if j == self.n else -1, HomGenerator("loop", j))
        # everything else (loop compositions, like-oriented steps) vanishes
        return None

    def compose(self, g: HomElement, h: HomElement) -> HomElement:
        """Function composition g o h (h acts first)."""
        if h.target != g.source:
            raise CompositionError(
                f"cannot compose: {h.source}->{h.target} then {g.source}->{g.target}"
            )
        F = self.field
        out = {}
        for gg, cg in g.coeffs.items():
            for gh, ch in h.coeffs.items():
                hit = self._compose_generators(gg, gh)
                if hit is None:
                    continue
                sign, gen = hit
                c = F.mul(F.mul(cg, ch), F.from_int(sign))
                out[gen] = F.add(out.get(gen, F.zero), c)
        return HomElement(h.source, g.target, out).normalized(F)

    def add(self, g: HomElement, h: HomElement) -> HomElement:
        if (g.source, g.target) != (h.source, h.target):
            raise CompositionError("adding morphisms with different endpoints")
        F = self.field
        out = dict(g.coeffs)
        for gen, c in h.coeffs.items():
            out[gen] = F.add(out.get(gen, F.zero), c)
        return HomElement(g.source, g.target, out).normalized(F)

    def scale(self, c, g: HomElement) -> HomElement:
        F = self.field
        return HomElement(
            g.source, g.target, {gen: F.mul(c, v) for gen, v in g.coeffs.items()}
        ).normalized(F)

    def hom_equal(self, g: HomElement, h: HomElement) -> bool:
        if (g.source, g.target) != (h.source, h.target):
            return False
        F = self.field
        gens = set(g.coeffs) | set(h.coeffs)
        return all(
            F.is_zero(F.sub(g.coeffs.get(x, F.zero), h.coeffs.get(x, F.zero)))
            for x in gens
        )

    # -------------------------------------------------------- realization
    def projective(self, i: int) -> reps.QuiverRep:
        if i not in self._projectives:
            self._projectives[i] = reps.projective_rep(self.n, self.field, i)
        return self._projectives[i]

    def simple(self, i: int) -> reps.QuiverRep:
        return reps.simple_rep(self.n, self.field, i)

    def loop_sign(self, i: int) -> int:
        if i <= self.n - 1:
            return -1 if i % 2 else 1
        return -1 if (self.n - 1) % 2 else 1

    def realize_generator(self, gen: HomGenerator) -> reps.RepMorphism:
        F = self.field
        src = self.projective(gen.source)
        tgt = self.projective(gen.target)
        phi = reps.zero_morphism(src, tgt)
        one = F.one

        def setb(v, r, c, val):
            phi.blocks[v][r][c] = val

        if gen.kind == "id":
            return reps.identity_morphism(src)
        if gen.kind == "loop":
            sgn = F.from_int(self.loop_sign(gen.i))
            setb(gen.i, 1, 0, sgn)  # head -> socle
            return phi
        if gen.kind == "f":
            i = gen.i
            sgn = F.from_int(-1 if i % 2 else 1)
            # head of P_i -> middle of P_{i+1} at vertex i; middle u -> socle
            setb(i, 0, 0, sgn)
            setb(i + 1, 1, 0, sgn)
            return phi
        if gen.kind == "fstar":
            i = gen.i
            # head of P_{i+1} -> middle of P_i at vertex i+1; middle w -> socle
            setb(i + 1, 0, 0, one)
            setb(i, 1, 0, one)
            return phi
        raise ValueError(f"unknown generator {gen}")

    def realize(self, h: HomElement) -> reps.RepMorphism:
        """Concrete intertwiner; realize(g o h) = realize(g) o realize(h)."""
        src = self.projective(h.source)
        tgt = self.projective(h.target)
        phi = reps.zero_morphism(src, tgt)
        for gen, c in h.coeffs.items():
            phi = phi.add(self.realize_generator(gen).scale(c))
        return phi
