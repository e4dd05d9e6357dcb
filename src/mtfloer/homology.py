"""Exact homology of finite free integer chain complexes.

Everything here runs over Python's arbitrary-precision integers.  A
:class:`FreeComplex` is the number of generators in each degree plus each
boundary as a list of strips: a strip maps a run of consecutive columns
onto runs of consecutive rows by signed, shifted identities, and a sparse
column is a strip of length 1.  Homology needs no generator labels, so it
keeps none, and it never expands a strip.  Each boundary's index ranges
are cut at every strip end, and the cuts are carried through the strips
until every strip maps whole intervals onto whole intervals (partition
refinement, Paige and Tarjan 1987).  Union-find over the intervals gives
components, each a small integer matrix tensored with an identity, so each
of its invariant factors counts once per element of its intervals
(reduction of a chain complex, Kaczynski, Mrozek and Slusarek 1998).  A
matrix with one row or one column has one factor, the gcd of its entries;
any other gets its Smith normal form, computed as a small dense
:class:`IntMatrix` by the classical pivoting algorithm with unimodular row
and column transforms.  The d^2 = 0 check cuts two boundaries at the
strip ends of the degree they share and sums each diagonal of the
composite.  A dense view is built only when a caller asks for one.

Set :data:`VERIFY_SNF` (or the environment variable ``MTFLOER_SNF_VERIFY``
to anything but empty or ``0``) to make every Smith decomposition re-check
its own postconditions by direct multiplication, every gcd of a one-row or
one-column component agree with its Smith form, and every split check that
its pieces tile the strips, no cut falls inside a piece and the components
hold each piece once; the test suite runs with this on.
"""

from __future__ import annotations

import functools
import os
from bisect import bisect_left, bisect_right
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import NotAComplex
from .graded import GradedGroup, torsion_chain

# When true, every smith_normal_form call verifies U m V == D, unimodularity
# of U and V, and the divisibility chain before returning, and every split
# of a boundary is checked.  Read once, at import; "" and "0" mean off.
VERIFY_SNF = os.environ.get("MTFLOER_SNF_VERIFY", "") not in ("", "0")


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


# (source start, length, [(target start, coeff), ...]): column source + i of a
# boundary has the entries (target + i, coeff) for every i < length
Strip = tuple[int, int, list[tuple[int, int]]]


def _pieces(start: int, length: int, cuts: list[int]) -> Iterator[tuple[int, int]]:
    """``[start, start + length)`` cut at each point of the sorted ``cuts`` inside it, as (start, length)."""
    for end in cuts[bisect_right(cuts, start) : bisect_left(cuts, start + length)] + [start + length]:
        yield start, end - start
        start = end


def _refine(strips: list[Strip]) -> tuple[list[int], list[int]]:
    """Sorted cuts of a boundary's source and target ranges at which every strip maps whole intervals.

    The cuts start at every strip end and are carried from each strip's
    source range to its target ranges and back until none is added.
    """
    source = {x for s, length, _ in strips for x in (s, s + length)}
    target = {x for _, length, targets in strips for t, _ in targets for x in (t, t + length)}
    while True:
        src, tgt = sorted(source), sorted(target)
        for s, length, targets in strips:
            inside = src[bisect_right(src, s) : bisect_left(src, s + length)]
            for t, _ in targets:
                target.update(x - s + t for x in inside)
                source.update(y - t + s for y in tgt[bisect_right(tgt, t) : bisect_left(tgt, t + length)])
        if len(source) == len(src) and len(target) == len(tgt):
            return src, tgt


# (interval length, target starts, source starts, {(target start, source start): summed coeff})
Component = tuple[int, list[int], list[int], dict[tuple[int, int], int]]


def _components(pieces: list[list[Strip]], tgt: list[int]) -> list[Component]:
    """The connected components of a boundary cut into pieces.

    Union-find joins each piece's source interval with its target
    intervals, and a component's entries add up the pieces it holds.  All
    intervals of a component must share one length L: then the boundary on
    it is its small matrix tensored with the L x L identity.
    """
    parent: dict[int, int] = {}

    def find(node: int) -> int:  # source interval a is node a, target interval t is ~t
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    flat = [piece for strip in pieces for piece in strip]
    for a, _, targets in flat:
        for t, _ in targets:
            if (other := find(~t)) != (root := find(a)):
                parent[other] = root
    members: dict[int, Component] = {}
    for a, length, targets in flat:
        root = find(a)
        held, rows, cols, entries = members.get(root) or members.setdefault(root, (length, set(), set(), {}))
        cols.add(a)
        for t, coeff in targets:
            # the target interval is the one holding t, between the cuts around it
            at = bisect_right(tgt, t)
            if length != held or tgt[at] - tgt[at - 1] != held:
                raise AssertionError(f"a component's intervals differ in length: {length} at column {a}, {held}")
            rows.add(t)
            entries[t, a] = entries.get((t, a), 0) + coeff
    return [(length, sorted(rows), sorted(cols), entries) for length, rows, cols, entries in members.values()]


def _check_components(
    strips: list[Strip], cuts: tuple[list[int], list[int]], pieces: list[list[Strip]], components: list[Component]
) -> None:
    """Verify that ``components`` split the boundary ``strips``; raise on failure.

    The pieces of each strip must tile it exactly, with its targets shifted
    along, and no cut may fall inside a piece.  No interval may lie in two
    components, no component may hold an entry outside its intervals, and
    the components together must hold the summed entries of the pieces and
    nothing else.
    """
    src, tgt = cuts
    expected: dict[tuple[int, int], int] = {}
    for (s, length, targets), strip in zip(strips, pieces, strict=True):
        ends = [s] + [a + n for a, n, _ in strip]
        if [a for a, _, _ in strip] != ends[:-1] or ends[-1] != s + length or any(
            n < 1 or shifted != [(t + a - s, c) for t, c in targets] for a, n, shifted in strip
        ):
            raise AssertionError("the pieces do not tile their strip")
        for a, n, shifted in strip:
            if any(bisect_right(cut, x) != bisect_left(cut, x + n) for x, cut in [(a, src), *((t, tgt) for t, _ in shifted)]):
                raise AssertionError("a cut falls inside a piece")
            for t, c in shifted:
                expected[t, a] = expected.get((t, a), 0) + c
    owner: dict[int, int] = {}
    held: dict[tuple[int, int], int] = {}
    for b, (_, rows, cols, entries) in enumerate(components):
        if any(owner.setdefault(node, b) != b for node in cols + [~t for t in rows]):
            raise AssertionError("an interval lies in two components")
        if any(owner.get(a) != b or owner.get(~t) != b for t, a in entries):
            raise AssertionError("a component holds an entry outside its intervals")
        held.update((key, x) for key, x in entries.items() if x)
    if held != {key: x for key, x in expected.items() if x}:
        raise AssertionError("the components do not hold each piece once")


def _thin_factor(entries: list[int]) -> int:
    """The one invariant factor of a matrix with one row or one column: the gcd of its entries."""
    return gcd(*entries)


def _invariant_factors(strips: list[Strip]) -> list[tuple[int, int]]:
    """Nonzero invariant factors of a boundary, as (factor, multiplicity) pairs.

    Each component of length L is a small matrix tensored with the L x L
    identity, so each of that matrix's factors counts L times.  A matrix
    with one row or one column has one factor, the gcd of its entries; any
    other gets a Smith form.  The factors of the components together
    present the same cokernel as the whole boundary, but they need not
    form one divisibility chain.
    """
    cuts = _refine(strips)
    pieces = [[(a, piece, [(t + a - s, c) for t, c in targets]) for a, piece in _pieces(s, length, cuts[0])]
              for s, length, targets in strips]
    components = _components(pieces, cuts[1])
    if VERIFY_SNF:
        _check_components(strips, cuts, pieces, components)
    factors = []
    for component in components:
        length, rows, cols, entries = component
        if len(rows) > 1 and len(cols) > 1:
            factors += [(x, length) for x in _smith_factors(component)]
        elif values := [x for x in entries.values() if x]:
            factor = _thin_factor(values)
            if VERIFY_SNF and (found := _smith_factors(component)) != [factor]:
                raise AssertionError(f"thin block factor {factor}, but its Smith form gives {found}")
            factors.append((factor, length))
    return factors


def _smith_factors(component: Component) -> list[int]:
    """The nonzero Smith factors of a component's small matrix, rows and columns in interval order."""
    _, rows, cols, entries = component
    sub = IntMatrix(len(rows), len(cols), [[entries.get((t, a), 0) for a in cols] for t in rows])
    return [x for x in smith_normal_form(sub).d.diagonal() if x]


def _composes_to_zero(upper: list[Strip], lower: list[Strip]) -> bool:
    """Whether the boundary ``lower`` after the boundary ``upper`` is zero.

    Both are cut at every strip end in the degree they share, so a piece
    of an ``upper`` target and a piece of a ``lower`` source with the same
    start cover the same interval there.  Each matched pair adds its
    product along one diagonal (row minus column) of the composite, and a
    sweep over each diagonal's interval ends finds any sum left nonzero.
    """
    ends = {x for s, length, _ in lower for x in (s, s + length)}
    ends.update(x for _, length, targets in upper for t, _ in targets for x in (t, t + length))
    cuts = sorted(ends)
    below: dict[int, list[tuple[int, int]]] = {}
    for s, length, targets in lower:
        for y, _ in _pieces(s, length, cuts):
            below.setdefault(y, []).extend((r + y - s, c) for r, c in targets)
    diagonals: dict[int, dict[int, int]] = {}
    for s, length, targets in upper:
        for t, a in targets:
            for y, piece in _pieces(t, length, cuts):
                x = s + y - t
                for r, b in below.get(y, ()):
                    sweep = diagonals.setdefault(r - x, {})
                    sweep[x] = sweep.get(x, 0) + a * b
                    sweep[x + piece] = sweep.get(x + piece, 0) - a * b
    for sweep in diagonals.values():
        running = 0
        for x in sorted(sweep):
            running += sweep[x]
            if running:
                return False
    return True


class FreeComplex:
    """A finite chain complex of free abelian groups, given by sizes and boundary strips.

    ``sizes`` maps a degree to the number of generators in that degree;
    generators are known only by their index ``0 .. size - 1``.  ``strips``
    maps degree d to the boundary from degree d to degree d-1, as a list of
    strips ``(source, length, [(target, coeff), ...])``: column
    ``source + i`` of degree d has the entry ``coeff`` at row ``target + i``
    of degree d-1, for each i < length.  A sparse column is a strip of
    length 1.  Strips may overlap, and entries that meet are added up;
    zero coefficients are dropped, and missing degrees are zero.  The
    constructor refuses a strip outside the sizes and checks that
    consecutive boundaries compose to zero: a silently invalid complex is
    the worst failure mode this package could have.  ``with_cycles`` and
    ``copies`` widen a checked complex without checking it again, and every
    complex made from one shares one computation of its invariant factors.
    """

    def __init__(self, sizes: Mapping[int, int], strips: Mapping[int, Iterable[Strip]] | None = None):
        self.sizes = {d: count for d, count in sizes.items() if count}
        self._strips: dict[int, list[Strip]] = {}
        for d, given in (strips or {}).items():
            targets, sources = self.size(d - 1), self.size(d)
            kept = []
            for source, length, entries in given:
                if length < 1:
                    raise NotAComplex(f"differential at degree {d} has a strip of length {length}")
                entries = [(t, c) for t, c in entries if c]
                for what, at, degree, count in [("column", source, d, sources), *(("row", t, d - 1, targets) for t, _ in entries)]:
                    if at < 0 or at + length > count:
                        raise NotAComplex(f"differential at degree {d} has {what} {at if at < 0 else at + length - 1}, "
                                          f"but degree {degree} has {count} generators")
                if entries:
                    kept.append((source, length, entries))
            if kept:
                self._strips[d] = kept
        for d, upper in self._strips.items():
            if d - 1 in self._strips and not _composes_to_zero(upper, self._strips[d - 1]):
                raise NotAComplex(f"boundary squared is nonzero from degree {d}")

    @classmethod
    def from_matrices(cls, sizes: Mapping[int, int], mats: Mapping[int, IntMatrix]) -> "FreeComplex":
        """The complex whose boundary at degree d is the dense matrix ``mats[d]``.

        Each matrix must have shape (sizes[d-1], sizes[d]); each of its
        columns is handed to the constructor as a strip of length 1, and
        the constructor does the rest of the checking.
        """
        for d, mat in mats.items():
            expected = (sizes.get(d - 1, 0), sizes.get(d, 0))
            if mat.shape != expected:
                raise NotAComplex(
                    f"differential at degree {d} has shape {mat.shape}, expected {expected}"
                )
        columns = {d: enumerate(zip(*mat.data)) for d, mat in mats.items()}
        return cls(sizes, {d: [(j, 1, list(enumerate(column))) for j, column in cols] for d, cols in columns.items()})

    def with_cycles(self, counts: Mapping[int, int]) -> "FreeComplex":
        """This complex with ``counts[d]`` more generators in each degree d, after its own.

        No boundary leaves or hits the new generators, so the strips stay
        as they are.
        """
        sizes = dict(self.sizes)
        for d, count in counts.items():
            if count:
                sizes[d] = self.size(d) + count
        return self._sharing(sizes, 1)

    def copies(self, m: int) -> "FreeComplex":
        """``m`` copies of this complex side by side, C (x) Z^m: generator i becomes m i .. m i + m - 1.

        Copy j of a strip's columns maps onto copy j of its rows, so each
        strip's start, length and targets are multiplied by m, and so is
        each invariant factor's multiplicity: H(C (x) Z^m) = H(C)^m.
        """
        if not m:
            return FreeComplex({})
        return self._sharing({d: m * count for d, count in self.sizes.items()}, m)

    def _sharing(self, sizes: dict[int, int], m: int) -> "FreeComplex":
        """A complex on ``sizes`` with m copies of these boundaries and their factors, which are worked out once."""
        made = FreeComplex.__new__(FreeComplex)
        made.sizes, made._strips, made._factors = sizes, self._strips, self._factors
        if m != 1:
            made._strips = {d: [(m * s, m * length, [(m * t, c) for t, c in targets]) for s, length, targets in given]
                            for d, given in self._strips.items()}
            made._factors = {d: [(x, m * count) for x, count in given] for d, given in self._factors.items()}
        return made

    def degrees(self) -> list[int]:
        return sorted(self.sizes)

    def size(self, degree: int) -> int:
        return self.sizes.get(degree, 0)

    def total_size(self) -> int:
        return sum(self.sizes.values())

    def differential(self, degree: int) -> IntMatrix:
        """A dense copy of the boundary out of ``degree``, built on each call; overlapping strips add up."""
        mat = IntMatrix.zeros(self.size(degree - 1), self.size(degree))
        for source, length, entries in self._strips.get(degree, ()):
            for t, c in entries:
                for i in range(length):
                    mat.data[t + i][source + i] += c
        return mat

    @property
    def differentials(self) -> dict[int, IntMatrix]:
        """Dense copies of the boundaries with strips, by degree, built on each read."""
        return {d: self.differential(d) for d in self._strips}

    def euler_characteristic(self) -> int:
        return sum(count if d % 2 == 0 else -count for d, count in self.sizes.items())

    @functools.cached_property
    def _factors(self) -> dict[int, list[tuple[int, int]]]:
        """Each boundary's nonzero invariant factors, by degree, as (factor, multiplicity) pairs, worked out once."""
        return {d: _invariant_factors(strips) for d, strips in self._strips.items()}

    def homology(self) -> GradedGroup:
        """Integer homology from the invariant factors of each differential.

        Each differential is cut into intervals that its strips map onto
        each other whole, and split into the connected components of those
        intervals; each component gives its invariant factors, each counted
        once per element of its intervals.  In each degree, the free rank
        is dim ker(boundary out) minus rank(boundary in), and the torsion
        is the incoming boundary's factors above 1 over all its components,
        merged back into one divisibility chain (a Z/2 block and a Z/3
        block give Z/6).
        """
        factors = self._factors
        result: dict[int, tuple[int, tuple[int, ...]]] = {}
        for d in self.degrees():
            incoming = factors.get(d + 1, ())
            rank = self.size(d) - sum(n for _, n in factors.get(d, ())) - sum(n for _, n in incoming)
            result[d] = (rank, torsion_chain(x for x, n in incoming if x > 1 for _ in range(n)))
        return GradedGroup.of(result)
