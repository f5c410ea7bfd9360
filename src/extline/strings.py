"""Symbolic calculus of the zigzag string modules of the line algebra.

An indecomposable string module is a walk over an interval [i, j] of
vertices in which each position is either a head strand ("up") or a socle
strand ("down"), strictly alternating.  Labels carry two ends, each an
(orientation, integer) pair, extended to all integers via the dihedral
identifications

    (up, j) ~ (down, 1 - j),        (pos, j) ~ (pos, j +- 2N),

together with the end swap that simultaneously exchanges and flips both
ends.  Each orbit contains exactly one label whose indices lie in 1..N
with left index <= right index; that is the canonical form.  Equal-index
canonical labels denote the simple module S_i.

The syzygy acts on labels by widening the "both ends up" presentation by
one step on each side; iterating from the simple S_i gives the familiar
2N-periodic pattern, with the N-th syzygy landing on S_{N+1-i}.

Sums of projectives indexed by an arithmetic interval of step 2 get the
analogous treatment: the pair (i, j) denotes P_i + P_{i+2} + ... + P_j,
identified under

    (i, j) ~ (j+1, i-1),   (i, -j) ~ (i, j),   (i, j +- 2N) ~ (i, j).

In the coordinates (alpha, beta) = (i + j - 1, j - i + 1) these generate
the signed permutations of (alpha, beta) together with even translations
by 2N, whose fundamental alcove 1 <= beta <= alpha, alpha + beta <= 2N is
exactly the set of canonical intervals inside 1..N.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import reps


@dataclass(frozen=True)
class EndLabel:
    up: bool
    index: int

    def flipped(self) -> "EndLabel":
        return EndLabel(not self.up, self.index)

    def __repr__(self):
        return f"({'up' if self.up else 'down'},{self.index})"


@dataclass(frozen=True)
class XLabel:
    left: EndLabel
    right: EndLabel

    @property
    def is_simple(self) -> bool:
        return self.left.index == self.right.index

    def __repr__(self):
        return f"X[{self.left}|{self.right}]"


def simple_label(i: int) -> XLabel:
    return XLabel(EndLabel(True, i), EndLabel(True, i))


def upper_label(i: int, j: int) -> XLabel:
    """Both ends up: heads at i, i+2, ..., j (after normalization)."""
    return XLabel(EndLabel(True, i), EndLabel(True, j))


def _normalize_end(n: int, end: EndLabel) -> EndLabel:
    a = (end.index - 1) % (2 * n) + 1  # representative in 1..2N
    if a <= n:
        return EndLabel(end.up, a)
    return EndLabel(not end.up, 2 * n + 1 - a)


def normalize_x(n: int, label: XLabel) -> XLabel:
    """Canonical representative of the orbit; idempotent.

    Raises on parity violations: ends of equal orientation must differ by
    an even index gap, ends of opposite orientation by an odd one.
    """
    left = _normalize_end(n, label.left)
    right = _normalize_end(n, label.right)
    gap = left.index - right.index
    if (left.up == right.up) != (gap % 2 == 0):
        raise ValueError(f"parity violation in label {label}")
    if left.index > right.index:
        left, right = right.flipped(), left.flipped()
    if left.index == right.index:
        # both orientations of an equal-ended label denote the simple module
        return simple_label(left.index)
    return XLabel(left, right)


def canonical_labels(n: int):
    """All canonical labels: the simples plus every proper string."""
    out = []
    for i in range(1, n + 1):
        out.append(simple_label(i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (j - i) % 2 == 0:
                out.append(XLabel(EndLabel(True, i), EndLabel(True, j)))
                out.append(XLabel(EndLabel(False, i), EndLabel(False, j)))
            else:
                out.append(XLabel(EndLabel(True, i), EndLabel(False, j)))
                out.append(XLabel(EndLabel(False, i), EndLabel(True, j)))
    return out


def structure_of(n: int, label: XLabel):
    """(head multiset, socle multiset, dimension) of a canonical label."""
    lab = normalize_x(n, label)
    i, j = lab.left.index, lab.right.index
    if lab.is_simple:
        return {i: 1}, {i: 1}, 1
    head = {}
    soc = {}
    up = lab.left.up
    for p in range(i, j + 1):
        (head if up else soc)[p] = 1
        up = not up
    return head, soc, j - i + 1


def syzygy_label(n: int, label: XLabel) -> XLabel:
    """Label of the kernel of a projective cover: widen one step each side
    in the both-ends-up presentation."""
    lab = normalize_x(n, label)
    a = lab.left.index if lab.left.up else 1 - lab.left.index
    b = lab.right.index if lab.right.up else 1 - lab.right.index
    return normalize_x(n, upper_label(a - 1, b + 1))


def realize_x(n: int, field, label: XLabel) -> reps.QuiverRep:
    """The string module itself, as a representation."""
    lab = normalize_x(n, label)
    i, j = lab.left.index, lab.right.index
    if lab.is_simple:
        return reps.simple_rep(n, field, i)
    dims = [0] * n
    for p in range(i, j + 1):
        dims[p - 1] = 1
    arrows = {}
    up = lab.left.up
    for p in range(i, j + 1 - 1):
        # strand between positions p and p+1 points from head to socle
        key = ("a", p) if up else ("b", p)
        arrows[key] = [[field.one]]
        up = not up
    return reps.make_rep(n, field, dims, arrows)


# ---------------------------------------------------------------- projective sums


@dataclass(frozen=True)
class PSum:
    """P_a + P_{a+2} + ... + P_b in canonical form (possibly empty)."""

    indices: tuple

    def __repr__(self):
        if not self.indices:
            return "P[]"
        return "P[" + ",".join(map(str, self.indices)) + "]"


def normalize_p(n: int, i: int, j: int) -> PSum:
    """Canonical form of the interval label (i, j); requires j - i even."""
    if (j - i) % 2:
        raise ValueError(f"parity violation in projective sum ({i},{j})")
    alpha = i + j - 1
    beta = j - i + 1

    def fold(x):
        # reflections at 0 and 2N, landing in [0, 2N]; odd input stays odd
        x = x % (4 * n)
        return 4 * n - x if x > 2 * n else x

    alpha = fold(alpha)
    beta = fold(beta)
    if beta > alpha:
        alpha, beta = beta, alpha
    if alpha + beta > 2 * n:
        alpha, beta = 2 * n - beta, 2 * n - alpha
    # alpha, beta are odd, so 1 <= beta <= alpha and alpha + beta <= 2N
    lo = (alpha - beta) // 2 + 1
    hi = (alpha + beta) // 2
    return PSum(tuple(range(lo, hi + 1, 2)))
