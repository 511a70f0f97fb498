"""Exact integer matrices for the chain-complex layer.

A Matrix is a list of rows of Python ints plus an explicit column count,
so an m x 0 matrix keeps its m rows and a 0 x n one its n columns.
Entries never overflow or round.  Indexing follows the 2-d conventions
the chain layer relies on: m[i, j] is an entry, and m[r0:r1, c0:c1] reads
or overwrites a block.
"""

from itertools import chain
from operator import add, mul, sub

from .errors import LaxcatError


class Matrix:
    """rows: list of int lists, each of length ncols."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[list[int]], ncols: int):
        self.rows = rows
        self.ncols = ncols

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.ncols

    @property
    def flat(self):
        """The entries in row-major order."""
        return chain.from_iterable(self.rows)

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def copy(self) -> "Matrix":
        return Matrix(self.tolist(), self.ncols)

    def __iter__(self):
        return iter(self.tolist())

    def __repr__(self):
        return f"Matrix({self.rows!r}, ncols={self.ncols})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    # -- entries and blocks ----------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        if isinstance(i, slice):
            return Matrix([r[j] for r in self.rows[i]],
                          len(range(*j.indices(self.ncols))))
        return self.rows[i][j]

    def __setitem__(self, key, value):
        i, j = key
        if not isinstance(i, slice):
            self.rows[i][j] = value
            return
        rows = range(*i.indices(len(self.rows)))
        want = (len(rows), len(range(*j.indices(self.ncols))))
        if value.shape != want:
            raise LaxcatError(
                f"block of shape {value.shape} placed into {want}")
        for r, src in zip(rows, value.rows):
            self.rows[r][j] = src

    # -- elementary operations, in place ------------------------------------------

    def add_row(self, i: int, k: int, c: int) -> None:
        """row i += c * row k."""
        self.rows[i] = [a + c * b for a, b in zip(self.rows[i], self.rows[k])]

    def add_col(self, j: int, k: int, c: int) -> None:
        """column j += c * column k."""
        for r in self.rows:
            r[j] += c * r[k]

    # -- arithmetic ------------------------------------------------------------------

    def _entrywise(self, op, other):
        if self.shape != other.shape:
            raise LaxcatError(
                f"cannot add {self.shape} and {other.shape}")
        return Matrix([list(map(op, r, s))
                       for r, s in zip(self.rows, other.rows)], self.ncols)

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __neg__(self):
        return -1 * self

    def __mul__(self, c: int):
        """Scalar multiple by an int."""
        return Matrix([[c * v for v in r] for r in self.rows], self.ncols)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.ncols != len(other.rows):
            raise LaxcatError(
                f"cannot multiply {self.shape} by {other.shape}")
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        return Matrix([[sum(map(mul, r, c)) for c in cols] for r in self.rows],
                      other.ncols)


def as_matrix(data, rows=None, cols=None) -> Matrix:
    """A new Matrix from nested int lists or a Matrix, checking that it is
    rows x cols where those are given (else as many rows as data has, and
    as many columns as its first row)."""
    if cols is None and isinstance(data, Matrix):
        cols = data.ncols
    data = [list(r) for r in data]
    if rows is None:
        rows = len(data)
    if cols is None:
        cols = len(data[0]) if data else 0
    if len(data) != rows:
        raise LaxcatError(f"expected {rows} rows, got {len(data)}")
    for i, r in enumerate(data):
        if len(r) != cols:
            raise LaxcatError(
                f"row {i} has {len(r)} entries, expected {cols}")
        for j, v in enumerate(r):
            if not isinstance(v, int) or isinstance(v, bool):
                raise LaxcatError(f"entry ({i},{j}) is not an int: {v!r}")
    return Matrix(data, cols)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)], cols)


def eye(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m.rows[i][i] = 1
    return m


def hstack(mats: list[Matrix]) -> Matrix:
    """Side by side; all must have the same number of rows."""
    height = mats[0].shape[0]
    if any(m.shape[0] != height for m in mats):
        raise LaxcatError("hstack needs equal row counts")
    return Matrix([list(chain.from_iterable(m.rows[i] for m in mats))
                   for i in range(height)], sum(m.ncols for m in mats))


def vstack(mats: list[Matrix]) -> Matrix:
    """One above the other; all must have the same number of columns."""
    width = mats[0].ncols
    if any(m.ncols != width for m in mats):
        raise LaxcatError("vstack needs equal column counts")
    return Matrix([list(r) for m in mats for r in m.rows], width)


def is_zero_matrix(a: Matrix) -> bool:
    return not any(a.flat)
