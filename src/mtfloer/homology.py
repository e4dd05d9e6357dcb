"""Exact homology of finite free integer chain complexes.

Everything here runs over Python's arbitrary-precision integers.  A
:class:`FreeComplex` stores each boundary only as its nonzero entries,
grouped by column: the d^2 = 0 check composes boundaries entry by entry,
and homology splits each boundary into the connected blocks of its nonzero
pattern: union-find joins the rows that share a column, and each column
goes to the block of its rows.  Each block is a direct summand of the
boundary, so its invariant factors are that block's share of the
boundary's.  A block with one row or one column has
one factor, the gcd of its entries, and needs no matrix at all; any other
block gets its Smith normal form, computed as a small dense
:class:`IntMatrix` by the classical pivoting algorithm with unimodular row
and column transforms.  Homology groups come out as free ranks plus
invariant-factor torsion.  No whole boundary is ever held densely; a dense
view is built only when a caller asks for one.

Set :data:`VERIFY_SNF` (or the environment variable ``MTFLOER_SNF_VERIFY``)
to make every Smith decomposition re-check its own postconditions by direct
multiplication, every gcd of a one-row or one-column block agree with that
block's Smith form, and every block split check that its blocks cover each
nonzero entry exactly once; the test suite runs with this on.
"""

from __future__ import annotations

import os
from itertools import compress
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import NotAComplex
from .graded import GradedGroup, torsion_chain

# When true, every smith_normal_form call verifies U m V == D, unimodularity
# of U and V, and the divisibility chain before returning, and every
# one-row or one-column block's gcd is checked against its Smith form.
VERIFY_SNF = bool(os.environ.get("MTFLOER_SNF_VERIFY"))


class IntMatrix:
    """A dense integer matrix of explicit shape (zero rows/columns allowed)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[int]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix shape must be nonnegative")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data does not match declared shape")
            self.data = [list(r) for r in data]

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = len(data)
        if cols is None:
            if rows == 0:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(data[0])
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, self.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = IntMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            orow = out.data[i]
            for t in range(self.cols):
                a = row[t]
                if a:
                    brow = other.data[t]
                    for j in range(other.cols):
                        orow[j] += a * brow[j]
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, [list(col) for col in zip(*self.data)] if self.rows else [[ ] for _ in range(self.cols)])

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [row[:] for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                # pivot by a row swap; a fully zero column kills the determinant
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


class SmithForm(NamedTuple):
    """Decomposition U @ m @ V == D with U, V unimodular and D diagonal."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def smith_normal_form(m: IntMatrix, verify: bool | None = None) -> SmithForm:
    """Smith normal form over the integers, with transforms.

    Returns (U, D, V) with U m V = D, U and V unimodular, and D diagonal
    with nonnegative entries forming a divisibility chain d1 | d2 | ...

    The pivot is always a smallest-magnitude nonzero entry of the trailing
    block, which keeps intermediate entries from exploding on the small
    matrices this package produces.
    """
    R, C = m.rows, m.cols
    a = [row[:] for row in m.data]
    u = IntMatrix.identity(R).data
    v = IntMatrix.identity(C).data

    def row_add(dst: int, src: int, q: int) -> None:
        arow, srow = a[dst], a[src]
        for j in range(C):
            arow[j] += q * srow[j]
        urow, usrc = u[dst], u[src]
        for j in range(R):
            urow[j] += q * usrc[j]

    def col_add(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(t, R):
            row = a[i]
            for j in range(t, C):
                x = row[j]
                if x:
                    if best_abs is None or abs(x) < best_abs:
                        best, best_abs = (i, j), abs(x)
                        if best_abs == 1:
                            return best
        return best

    for t in range(min(R, C)):
        while True:
            pivot = find_pivot(t)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if a[t][t] < 0:
                row_negate(t)
            p = a[t][t]
            # one reduction pass down the pivot column and along the pivot row;
            # any nonzero remainder is strictly smaller than the pivot, so the
            # outer loop terminates
            clean = True
            for i in range(t + 1, R):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // p))
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, C):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // p))
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            # the divisibility chain needs the pivot to divide the whole
            # trailing block; folding an offending row into row t strictly
            # shrinks the eventual pivot
            offender = None
            for i in range(t + 1, R):
                row = a[i]
                for j in range(t + 1, C):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if find_pivot(t) is None:
            break

    result = SmithForm(
        IntMatrix(R, R, u), IntMatrix(R, C, a), IntMatrix(C, C, v)
    )
    if verify if verify is not None else VERIFY_SNF:
        check_smith_form(m, result)
    return result


def check_smith_form(m: IntMatrix, f: SmithForm) -> None:
    """Verify every Smith postcondition by direct computation; raise on failure."""
    u, d, v = f
    if (u @ m) @ v != d:
        raise AssertionError("U m V != D")
    if abs(u.determinant()) != 1:
        raise AssertionError("U is not unimodular")
    if abs(v.determinant()) != 1:
        raise AssertionError("V is not unimodular")
    diag = d.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and d.data[i][j]:
                raise AssertionError("D is not diagonal")
    if any(x < 0 for x in diag):
        raise AssertionError("D has a negative entry")
    for s, t in zip(diag, diag[1:]):
        if s == 0 and t != 0:
            raise AssertionError("zero diagonal entry precedes a nonzero one")
        if s and t % s:
            raise AssertionError("diagonal violates the divisibility chain")


# (row, value) pairs of one column's nonzero entries
Column = list[tuple[int, int]]


def _nonzero_columns(mat: IntMatrix) -> dict[int, Column]:
    """The nonzero entries of a matrix, grouped by column; zero columns omitted."""
    columns: dict[int, Column] = {}
    positions = range(mat.cols)
    for i, row in enumerate(mat.data):
        # boundaries are very sparse: count and compress pass over the
        # zeros at C speed, and most rows are zero throughout
        if row.count(0) != mat.cols:
            for j in compress(positions, row):
                columns.setdefault(j, []).append((i, row[j]))
    return columns


def _block_members(columns: Mapping[int, Column]) -> list[tuple[list[int], list[int]]]:
    """The connected blocks of a matrix's nonzero pattern, as (rows, columns).

    Rows sharing a column are joined by union-find, and each column goes to
    the block of its first row, so the matrix is the direct sum of its
    blocks up to permuting rows and columns.  Blocks come in the order of
    the first column of each; rows and columns with no nonzero entry belong
    to no block.  Every column must hold a nonzero entry.
    """
    parent: dict[int, int] = {}

    def find(row: int) -> int:
        parent.setdefault(row, row)
        while parent[row] != row:
            parent[row] = parent[parent[row]]
            row = parent[row]
        return row

    for column in columns.values():
        if len(column) > 1:
            root = find(column[0][0])
            for i, _ in column[1:]:
                other = find(i)
                if other != root:
                    parent[other] = root
    members: dict[int, tuple[set[int], list[int]]] = {}
    for j, column in columns.items():
        root = find(column[0][0])
        if root not in members:
            members[root] = (set(), [])
        rows, cols = members[root]
        cols.append(j)
        rows.update(i for i, _ in column)
    return [(sorted(rows), sorted(cols)) for rows, cols in members.values()]


def _block_matrix(columns: Mapping[int, Column], rows: list[int], cols: list[int]) -> IntMatrix:
    """The submatrix on one block's rows and columns."""
    where = {i: r for r, i in enumerate(rows)}
    sub = IntMatrix(len(rows), len(cols))
    for c, j in enumerate(cols):
        for i, x in columns[j]:
            sub.data[where[i]][c] = x
    return sub


def _blocks(columns: Mapping[int, Column]) -> list[tuple[list[int], list[int], IntMatrix]]:
    """Each block of :func:`_block_members` with its submatrix: (rows, columns, submatrix)."""
    return [(rows, cols, _block_matrix(columns, rows, cols)) for rows, cols in _block_members(columns)]


def _check_blocks(columns: Mapping[int, Column], blocks) -> None:
    """Verify that ``blocks`` split the matrix ``columns``; raise on failure.

    No row or column may lie in two blocks, and every nonzero entry must
    appear, with its value, in the one block owning its row and column, so
    the blocks hold each nonzero entry exactly once and nothing else.
    """
    row_at: dict[int, tuple[int, int]] = {}  # row -> (block, position in block)
    col_at: dict[int, tuple[int, int]] = {}
    held = 0
    for b, (rows, cols, sub) in enumerate(blocks):
        for at, keys in ((row_at, rows), (col_at, cols)):
            for position, key in enumerate(keys):
                if at.setdefault(key, (b, position)) != (b, position):
                    raise AssertionError("a row or column lies in two blocks")
        held += sum(len(row) - row.count(0) for row in sub.data)
    entries = 0
    for j, column in columns.items():
        for i, x in column:
            if i not in row_at or j not in col_at or row_at[i][0] != col_at[j][0]:
                raise AssertionError("a nonzero entry lies outside its block")
            (b, r), (_, c) = row_at[i], col_at[j]
            if blocks[b][2].data[r][c] != x:
                raise AssertionError("a block holds the wrong value")
            entries += 1
    if held != entries:
        raise AssertionError("the blocks hold entries the matrix does not")


def _thin_factor(entries: list[int]) -> int:
    """The one invariant factor of a block with one row or one column.

    Such a block presents the cokernel of a single vector (or of a map out
    of a single generator), whose one invariant factor is the gcd of its
    entries.
    """
    return gcd(*entries)


def _invariant_factors(columns: Mapping[int, Column]) -> list[int]:
    """Nonzero invariant factors of a matrix, block by block.

    A block with one row or one column has one factor, the gcd of its
    entries; any other block gets a Smith form.  The factors of the blocks
    together present the same cokernel as the whole matrix, but they need
    not form one divisibility chain.
    """
    if VERIFY_SNF:
        blocks = _blocks(columns)
        _check_blocks(columns, blocks)
    else:
        blocks = [(rows, cols, None) for rows, cols in _block_members(columns)]
    factors = []
    for rows, cols, sub in blocks:
        if len(rows) == 1 or len(cols) == 1:
            factor = _thin_factor([x for j in cols for _, x in columns[j]])
            if sub is not None and (found := [x for x in smith_normal_form(sub).d.diagonal() if x]) != [factor]:
                raise AssertionError(f"thin block factor {factor}, but its Smith form gives {found}")
            factors.append(factor)
            continue
        if sub is None:
            sub = _block_matrix(columns, rows, cols)
        factors.extend(x for x in smith_normal_form(sub).d.diagonal() if x)
    return factors


def _summed(column: Iterable[tuple[int, int]]) -> Column:
    """A column's entries with each row's values added up, rows in first-seen order."""
    entries: dict[int, int] = {}
    for i, x in column:
        entries[i] = entries.get(i, 0) + x
    return list(entries.items())


class FreeComplex:
    """A finite chain complex of free abelian groups with labeled bases.

    ``basis`` maps a degree to the tuple of generator labels in that degree.
    ``columns`` maps degree d to the boundary from degree d to degree d-1,
    given by its nonzero columns: ``{col: [(row, value), ...]}``, where
    ``col`` indexes ``basis[d]`` and ``row`` indexes ``basis[d-1]``.  Entries
    listed twice are added up and zero entries are dropped; missing columns
    and degrees are zero.  A column list with distinct rows and no zero is
    kept as given, not copied, so the caller hands it over.  The constructor
    refuses an index outside the bases and checks that consecutive
    boundaries compose to zero: a silently invalid complex is the worst
    failure mode this package could have.
    """

    def __init__(
        self,
        basis: Mapping[int, Sequence],
        columns: Mapping[int, Mapping[int, Iterable[tuple[int, int]]]] | None = None,
    ):
        self.basis = {d: tuple(labels) for d, labels in basis.items() if len(labels)}
        # the nonzero entries of each boundary, by column
        self._columns: dict[int, dict[int, Column]] = {}
        for d, given in (columns or {}).items():
            targets, sources = self.size(d - 1), self.size(d)
            kept: dict[int, Column] = {}
            for j, column in given.items():
                if not 0 <= j < sources:
                    raise NotAComplex(
                        f"differential at degree {d} has column {j}, but degree {d} has {sources} generators"
                    )
                if not isinstance(column, list):
                    column = list(column)
                if not column:
                    continue
                if len(column) == 1:
                    low = high = column[0][0]
                else:
                    rows = {i for i, _ in column}
                    low, high = min(rows), max(rows)
                    if len(rows) < len(column):
                        column = _summed(column)
                if low < 0 or high >= targets:
                    raise NotAComplex(
                        f"differential at degree {d} has row {low if low < 0 else high}, "
                        f"but degree {d - 1} has {targets} generators"
                    )
                if not all(x for _, x in column):
                    column = [(i, x) for i, x in column if x]
                if column:
                    kept[j] = column
            if kept:
                self._columns[d] = kept
        for d, boundary in self._columns.items():
            below = self._columns.get(d - 1)
            if below is None:
                continue
            for column in boundary.values():
                image: dict[int, int] = {}
                for t, a in column:
                    for i, b in below.get(t, ()):
                        image[i] = image.get(i, 0) + a * b
                if any(image.values()):
                    raise NotAComplex(f"boundary squared is nonzero from degree {d}")

    @classmethod
    def from_matrices(cls, basis: Mapping[int, Sequence], mats: Mapping[int, IntMatrix]) -> "FreeComplex":
        """The complex whose boundary at degree d is the dense matrix ``mats[d]``.

        Each matrix must have shape (len(basis[d-1]), len(basis[d])); its
        nonzero entries are handed to the constructor, which does the rest
        of the checking.
        """
        for d, mat in mats.items():
            expected = (len(basis.get(d - 1, ())), len(basis.get(d, ())))
            if mat.shape != expected:
                raise NotAComplex(
                    f"differential at degree {d} has shape {mat.shape}, expected {expected}"
                )
        return cls(basis, {d: _nonzero_columns(mat) for d, mat in mats.items()})

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def size(self, degree: int) -> int:
        return len(self.basis.get(degree, ()))

    def total_size(self) -> int:
        return sum(len(labels) for labels in self.basis.values())

    def differential(self, degree: int) -> IntMatrix:
        """A dense copy of the boundary out of ``degree``, built on each call."""
        mat = IntMatrix.zeros(self.size(degree - 1), self.size(degree))
        for j, column in self._columns.get(degree, {}).items():
            for i, x in column:
                mat.data[i][j] = x
        return mat

    @property
    def differentials(self) -> dict[int, IntMatrix]:
        """Dense copies of the nonzero boundaries, by degree, built on each read."""
        return {d: self.differential(d) for d in self._columns}

    def euler_characteristic(self) -> int:
        return sum(
            len(labels) if d % 2 == 0 else -len(labels) for d, labels in self.basis.items()
        )

    def homology(self) -> GradedGroup:
        """Integer homology from the invariant factors of each differential.

        Each differential is split into the connected blocks of its nonzero
        pattern, and each block gives its invariant factors: the gcd of its
        entries for a block with one row or one column, its Smith form
        otherwise.  In each degree,
        the free rank is dim ker(boundary out) minus rank(boundary in), and
        the torsion is the incoming boundary's factors above 1 over all its
        blocks, merged back into one divisibility chain (a Z/2 block and a
        Z/3 block give Z/6).
        """
        factors = {d: _invariant_factors(columns) for d, columns in self._columns.items()}
        result: dict[int, tuple[int, tuple[int, ...]]] = {}
        for d in self.degrees():
            incoming = factors.get(d + 1, ())
            rank = self.size(d) - len(factors.get(d, ())) - len(incoming)
            result[d] = (rank, torsion_chain(x for x in incoming if x > 1))
        return GradedGroup.of(result)

