"""Exact dense and sparse linear algebra over a field object.

Matrices are lists of rows of field scalars.  Dimensions in this package
stay small (a few dozen), so plain Gaussian elimination is the right tool;
the sparse ``LinearSystem`` handles the larger, very sparse systems coming
from chain-map and homotopy solving.
"""

from __future__ import annotations


def zeros(field, m: int, n: int):
    z = field.zero
    return [[z] * n for _ in range(m)]


def identity_matrix(field, n: int):
    M = zeros(field, n, n)
    for i in range(n):
        M[i][i] = field.one
    return M


def nonzero_columns(M):
    """The nonzero columns of M, left to right, as lists."""
    return [list(col) for col in zip(*M) if any(col)]


def mat_mul(field, A, B, out_cols: int | None = None):
    """A @ B.  When B has no rows its column count is unrecoverable from
    the nested-list encoding, so pass out_cols explicitly in that case."""
    k = len(B)
    if A and len(A[0]) != k:
        raise ValueError("shape mismatch in mat_mul")
    if not k:
        return zeros(field, len(A), out_cols or 0)
    cols = list(zip(*B))
    dot = field.dot
    return [[dot(row, col) for col in cols] for row in A]


def is_zero_mat(A) -> bool:
    return not any(map(any, A))


def rref(field, M):
    """Reduced row echelon form; returns (R, pivot_columns).

    Each step updates rows only at the nonzero columns of the scaled pivot
    row, since x - f*0 = x.  Those columns start at the pivot column c: the
    rows not yet used as pivots are zero before c, where every column was
    either cleared as a pivot column or skipped as zero in all of them.
    Entries must be canonical scalars (see ``fields``), as every caller
    passes them, so that a zero test is a truth test and the entries left
    alone need no reduction.
    """
    R = [row[:] for row in M]
    m = len(R)
    n = len(R[0]) if m else 0
    mul, sub = field.mul, field.sub
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        sel = None
        for i in range(r, m):
            if R[i][c]:
                sel = i
                break
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        prow = R[r]
        iv = field.inv(prow[c])
        support = [j for j in range(c, n) if prow[j]]
        for j in support:
            prow[j] = mul(iv, prow[j])
        for i, row in enumerate(R):
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] = sub(row[j], mul(f, prow[j]))
        pivots.append(c)
        r += 1
    return R, pivots


def rank(field, M) -> int:
    """The rank of M.  A block of at most one row needs no elimination:
    its entries are canonical (see ``rref``), so its rank is whether any
    entry is true."""
    if len(M) <= 1:
        return int(any(M[0])) if M else 0
    return len(rref(field, M)[1])


def kernel_basis(field, M, ncols: int | None = None):
    """Basis of {x : Mx = 0} as column vectors (lists), with its free
    columns; returns (basis, free).  Basis vector j is 1 at free[j] and 0
    at every other free column, so a vector of the kernel has its
    coordinates in this basis at the free columns."""
    m = len(M)
    n = len(M[0]) if m else (ncols or 0)
    if not m or not n:
        return identity_matrix(field, n), list(range(n))
    R, pivots = rref(field, M)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(R[r][fc])
        basis.append(v)
    return basis, free


class LinearSystem:
    """Sparse exact linear system  A u = b  built row by row.

    Rows are dicts {column: coefficient}.  Forward elimination keeps every
    stored pivot row normalized (pivot coefficient 1) and the pivot column
    is the minimal column of its row, so back-substitution in decreasing
    pivot order only ever meets already-known values.
    """

    def __init__(self, field, nvars: int):
        self.field = field
        self.nvars = nvars
        self.pivot_rows = {}  # pivot column -> (row dict, rhs)
        self.inconsistent = False

    def add_equation(self, coeffs: dict, rhs):
        F = self.field
        row = {c: v for c, v in coeffs.items() if not F.is_zero(v)}
        b = rhs
        while True:
            hit = None
            for c in row:
                if c in self.pivot_rows:
                    hit = c
                    break
            if hit is None:
                break
            prow, prhs = self.pivot_rows[hit]
            f = row[hit]
            for c, v in prow.items():
                nv = F.sub(row.get(c, F.zero), F.mul(f, v))
                if F.is_zero(nv):
                    row.pop(c, None)
                else:
                    row[c] = nv
            b = F.sub(b, F.mul(f, prhs))
        if not row:
            if not F.is_zero(b):
                self.inconsistent = True
            return
        pc = min(row)
        iv = F.inv(row[pc])
        row = {c: F.mul(iv, v) for c, v in row.items()}
        b = F.mul(iv, b)
        self.pivot_rows[pc] = (row, b)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def solution(self):
        """A particular solution (free variables set to zero), or None."""
        if self.inconsistent:
            return None
        F = self.field
        x = [F.zero] * self.nvars
        for pc in sorted(self.pivot_rows, reverse=True):
            row, b = self.pivot_rows[pc]
            acc = b
            for c, v in row.items():
                if c != pc:
                    acc = F.sub(acc, F.mul(v, x[c]))
            x[pc] = acc
        return x

    def nullspace_basis(self):
        F = self.field
        free = [c for c in range(self.nvars) if c not in self.pivot_rows]
        basis = []
        for fc in free:
            x = [F.zero] * self.nvars
            x[fc] = F.one
            for pc in sorted(self.pivot_rows, reverse=True):
                row, _ = self.pivot_rows[pc]
                acc = F.zero
                for c, v in row.items():
                    if c != pc:
                        acc = F.sub(acc, F.mul(v, x[c]))
                x[pc] = acc
            basis.append(x)
        return basis
