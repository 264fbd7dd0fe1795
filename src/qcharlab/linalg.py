"""Exact linear algebra over the rationals and small prime fields.

Matrices are lists of row lists; shapes are tracked by the callers.  All
reductions are fraction-free only in the sense that Fraction/modular
arithmetic is exact; no floating point appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldNotFinite, UnsupportedType


class RationalField:
    name = "Q"
    is_finite = False

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def elements(self):
        raise FieldNotFinite("cannot enumerate the rationals")

    def to_json(self, a):
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def from_json(self, value):
        """An int, or a "p/q" string; anything else is a ValueError naming it."""
        if isinstance(value, str) and re.fullmatch("-?[0-9]+/[0-9]+", value):
            num, den = value.split("/")
            return Fraction(int(num), int(den))
        if type(value) is not int:
            raise ValueError(f"{value!r} is not an exact element of Q")
        return Fraction(value)

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p for p in {2, 3, 5, 7}; elements are ints in [0, p)."""

    is_finite = True

    def __init__(self, p):
        if p not in (2, 3, 5, 7):
            raise UnsupportedType(f"prime field F_{p} not supported (p <= 7)")
        self.p = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def to_json(self, a):
        return a

    def from_json(self, value):
        """An int; anything else (a float, a bool) is a ValueError naming it."""
        if type(value) is not int:
            raise ValueError(f"{value!r} is not an exact element of {self.name}")
        return value % self.p

    def __repr__(self):
        return self.name


QQ = RationalField()
F2 = PrimeField(2)

_FIELDS = {"Q": QQ, "F2": F2, "F3": PrimeField(3), "F5": PrimeField(5), "F7": PrimeField(7)}


def field_by_name(name):
    try:
        return _FIELDS[name]
    except KeyError:
        raise UnsupportedType(f"unknown field {name!r}") from None


# ---------------------------------------------------------------------------
# matrices


def zeros(fld, rows, cols):
    z = fld.zero()
    return [[z] * cols for _ in range(rows)]


def identity(fld, n):
    mat = zeros(fld, n, n)
    for k in range(n):
        mat[k][k] = fld.one()
    return mat


def mat_mul_shaped(fld, a, b, rows, mid, cols):
    """Product of a rows x mid and a mid x cols matrix.

    The shapes are explicit because a 0xN matrix is stored as [] and loses N,
    so the column count of a composite through a zero space cannot be inferred.
    """
    if rows == 0 or cols == 0 or mid == 0:
        return zeros(fld, rows, cols)
    if len(a) != rows or len(a[0]) != mid or len(b) != mid or len(b[0]) != cols:
        raise ValueError("declared shapes disagree with operands")
    out = zeros(fld, rows, cols)
    for r in range(rows):
        ar = a[r]
        for k in range(mid):
            coeff = ar[k]
            if coeff == fld.zero():
                continue
            bk = b[k]
            outr = out[r]
            for c in range(cols):
                outr[c] = fld.add(outr[c], fld.mul(coeff, bk[c]))
    return out


def is_zero_matrix(fld, a):
    z = fld.zero()
    return all(x == z for row in a for x in row)


def mat_copy(a):
    return [list(row) for row in a]


def rref(fld, mat):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = mat_copy(mat)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    z = fld.zero()
    for c in range(cols):
        pivot_row = None
        for rr in range(r, rows):
            if m[rr][c] != z:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        scale = fld.inv(m[r][c])
        m[r] = [fld.mul(scale, x) for x in m[r]]
        for rr in range(rows):
            if rr != r and m[rr][c] != z:
                coeff = m[rr][c]
                m[rr] = [fld.sub(x, fld.mul(coeff, y)) for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(fld, mat, cols=None):
    """(basis, free): columns spanning the kernel, in canonical reduced
    column echelon form, and the free column indices, ascending.

    Each basis column carries a 1 at its own free index and 0 at every other
    free index, so the basis restricted to the rows at ``free`` is the
    identity; this is the unique such basis, so serialized kernels are
    reproducible, and a matrix whose columns lie in the kernel's span is the
    basis times its own rows at ``free``.
    """
    if cols is None:
        cols = len(mat[0]) if mat else 0
    if not mat:
        return identity(fld, cols), list(range(cols))
    reduced, pivots = rref(fld, mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = zeros(fld, cols, len(free))
    for idx, f in enumerate(free):
        basis[f][idx] = fld.one()
        for r, p in enumerate(pivots):
            basis[p][idx] = fld.neg(reduced[r][f])
    return basis, free


def hstack(blocks, rows):
    """Concatenate matrices side by side; empty blocks contribute no columns."""
    out = [[] for _ in range(rows)]
    for block in blocks:
        if not block:
            continue
        for r in range(rows):
            out[r].extend(block[r])
    return out


def vstack(blocks):
    out = []
    for block in blocks:
        out.extend(mat_copy(block))
    return out

