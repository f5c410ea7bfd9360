"""Symbolic calculus of the zigzag string modules of the line algebra.

An indecomposable string module is a walk over an interval [i, j] of
vertices in which each position is either a head strand ("up") or a socle
strand ("down"), strictly alternating.  A label carries two ends, each an
(orientation, integer) pair, extended to all integers via the dihedral
identifications

    (up, j) ~ (down, 1 - j),        (pos, j) ~ (pos, j +- 2N),

together with the end swap that simultaneously exchanges and flips both
ends.  The first identification lets every end be written up, so a label
is the plain tuple (a, b) of its ends' up coordinates, with a = b (mod 2):
e >= 1 is the end (up, e) at vertex e, and e <= 0 the end (down, 1 - e)
at vertex 1 - e.  The end swap sends (a, b) to (1 - b, 1 - a).  Each
orbit contains exactly one label whose ends lie in 1-N..N with left vertex
< right vertex, or that is (i, i); that is the canonical form, and (i, i)
denotes the simple module S_i.  ``format_label`` prints the end notation.

The syzygy widens a label by one step on each side, (a, b) -> (a-1, b+1);
iterating from the simple S_i gives the familiar 2N-periodic pattern,
Omega^k(S_i) = (i-k, i+k), with the N-th syzygy landing on S_{N+1-i}.

Sums of projectives indexed by an arithmetic interval of step 2 get the
analogous treatment: the pair (i, j) denotes P_i + P_{i+2} + ... + P_j,
identified under

    (i, j) ~ (j+1, i-1),   (i, -j) ~ (i, j),   (i, j +- 2N) ~ (i, j).

In the coordinates (alpha, beta) = (i + j - 1, j - i + 1) these generate
the signed permutations of (alpha, beta) together with even translations
by 2N, whose fundamental alcove 1 <= beta <= alpha, alpha + beta <= 2N is
exactly the set of canonical intervals inside 1..N.  A canonical sum is
the plain tuple of its indices, (i, i+2, ..., j).
"""

from __future__ import annotations

from . import reps


def normalize_x(n: int, label: tuple) -> tuple:
    """Canonical representative of the orbit; idempotent.

    Raises on a parity violation: the two up coordinates must be congruent
    mod 2.
    """
    a, b = label
    if (a - b) % 2:
        raise ValueError(f"parity violation in label {label}")
    a = (a + n - 1) % (2 * n) + 1 - n  # representatives in 1-N..N
    b = (b + n - 1) % (2 * n) + 1 - n
    u, v = max(a, 1 - a), max(b, 1 - b)  # the vertices of the ends
    if u > v or u == v and a < 1:
        # the end swap; equal vertices (both ends down) land on the simple (u, u)
        a, b = 1 - b, 1 - a
    return a, b


def format_label(label: tuple) -> str:
    """The end notation of a label, e.g. X[(down,1)|(up,2)] for (0, 2)."""
    return "X[" + "|".join(f"(up,{e})" if e >= 1 else f"(down,{1 - e})" for e in label) + "]"


def canonical_labels(n: int):
    """All canonical labels: the simples plus every proper string."""
    out = [(i, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            b = j if (j - i) % 2 == 0 else 1 - j  # the right end when the left is (up, i)
            out += [(i, b), (1 - i, 1 - b)]
    return out


def _span(n: int, label: tuple):
    """(left vertex, right vertex, whether the left end is up) of the
    canonical label."""
    a, b = normalize_x(n, label)
    return max(a, 1 - a), max(b, 1 - b), a >= 1


def structure_of(n: int, label: tuple):
    """(head multiset, socle multiset, dimension) of a canonical label."""
    i, j, up = _span(n, label)
    if i == j:
        return {i: 1}, {i: 1}, 1
    head = {}
    soc = {}
    for p in range(i, j + 1):
        (head if up else soc)[p] = 1
        up = not up
    return head, soc, j - i + 1


def syzygy_label(n: int, label: tuple) -> tuple:
    """Label of the kernel of a projective cover: widen one step each side."""
    a, b = label
    return normalize_x(n, (a - 1, b + 1))


def realize_x(n: int, field, label: tuple) -> reps.QuiverRep:
    """The string module itself, as a representation."""
    i, j, up = _span(n, label)
    if i == j:
        return reps.simple_rep(n, field, i)
    dims = [0] * n
    for p in range(i, j + 1):
        dims[p - 1] = 1
    arrows = {}
    for p in range(i, j + 1 - 1):
        # strand between positions p and p+1 points from head to socle
        key = ("a", p) if up else ("b", p)
        arrows[key] = [[field.one]]
        up = not up
    return reps.make_rep(n, field, dims, arrows)


# ---------------------------------------------------------------- projective sums


def normalize_p(n: int, i: int, j: int) -> tuple:
    """The canonical sum of the interval label (i, j) as its increasing
    indices, never empty; requires j - i even."""
    if (j - i) % 2:
        raise ValueError(f"parity violation in projective sum ({i},{j})")
    # reflections at 0 and 2N, landing in [0, 2N]; odd input stays odd
    alpha = (i + j - 1) % (4 * n)
    if alpha > 2 * n:
        alpha = 4 * n - alpha
    beta = (j - i + 1) % (4 * n)
    if beta > 2 * n:
        beta = 4 * n - beta
    if beta > alpha:
        alpha, beta = beta, alpha
    if alpha + beta > 2 * n:
        alpha, beta = 2 * n - beta, 2 * n - alpha
    # alpha, beta are odd, so 1 <= beta <= alpha and alpha + beta <= 2N
    lo = (alpha - beta) // 2 + 1
    hi = (alpha + beta) // 2
    return tuple(range(lo, hi + 1, 2))
