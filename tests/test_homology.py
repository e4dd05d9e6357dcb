import importlib.util
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mtfloer.homology
from mtfloer.errors import NotAComplex
from mtfloer.graded import GradedGroup, torsion_chain
from mtfloer.homology import (
    FreeComplex,
    IntMatrix,
    _check_components,
    _components,
    _composes_to_zero,
    _invariant_factors,
    _pieces,
    _refine,
    check_smith_form,
    smith_normal_form,
)


def int_matrices(max_dim=6, max_entry=9, square=False):
    def build(draw_dims):
        rows, cols = draw_dims
        return st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ).map(lambda data: IntMatrix(rows, cols, data))

    dims = st.integers(0, max_dim)
    shapes = st.tuples(dims, dims) if not square else dims.map(lambda n: (n, n))
    return shapes.flatmap(build)


# -- IntMatrix ----------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix(-1, 2)
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([], cols=None)


def test_constructors():
    assert IntMatrix.identity(2).data == [[1, 0], [0, 1]]
    assert IntMatrix.zeros(2, 3).is_zero()
    m = IntMatrix.from_rows([], cols=3)
    assert m.shape == (0, 3)
    assert IntMatrix.from_rows([[1, 2]]).shape == (1, 2)


def test_copy_is_deep():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    c = m.copy()
    c.data[0][0] = 99
    assert m.data[0][0] == 1


def test_matmul():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).data == [[2, 1], [4, 3]]
    with pytest.raises(ValueError):
        a @ IntMatrix.zeros(3, 3)


def test_determinant():
    assert IntMatrix.identity(3).determinant() == 1
    assert IntMatrix.from_rows([[2, 4], [6, 8]]).determinant() == -8
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).determinant() == 0
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).determinant() == -1
    assert IntMatrix(0, 0).determinant() == 1
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3).determinant()


def transpose(m: IntMatrix) -> IntMatrix:
    """The transpose of a square matrix, for the determinant test below."""
    return IntMatrix(m.cols, m.rows, [list(col) for col in zip(*m.data)])


@given(int_matrices(max_dim=4, max_entry=4, square=True))
def test_determinant_of_transpose(m):
    assert m.determinant() == transpose(m).determinant()


# -- Smith normal form -----------------------------------------------------------


def diag_of(m):
    return [x for x in smith_normal_form(m).d.diagonal() if x]


def test_smith_examples():
    assert diag_of(IntMatrix.from_rows([[2, 4], [6, 8]])) == [2, 4]
    assert diag_of(IntMatrix.identity(3)) == [1, 1, 1]
    assert diag_of(IntMatrix.zeros(2, 2)) == []
    assert diag_of(IntMatrix.from_rows([[6]])) == [6]
    assert diag_of(IntMatrix.from_rows([[-5]])) == [5]
    assert diag_of(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]


def test_smith_degenerate_shapes():
    for m in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0)):
        form = smith_normal_form(m)
        check_smith_form(m, form)
        assert form.d.shape == m.shape


@given(int_matrices())
def test_smith_postconditions_random(m):
    form = smith_normal_form(m, verify=False)
    check_smith_form(m, form)


@given(int_matrices(max_dim=5, max_entry=4, square=True))
def test_smith_diagonal_product_is_determinant(m):
    product = 1
    for x in smith_normal_form(m).d.diagonal():
        product *= x
    assert product == abs(m.determinant())


def test_check_smith_form_rejects_forgeries():
    m = IntMatrix.from_rows([[2]])
    good = smith_normal_form(m)
    bad_d = IntMatrix.from_rows([[3]])
    with pytest.raises(AssertionError):
        check_smith_form(m, good._replace(d=bad_d))
    doubled = IntMatrix.from_rows([[2]])
    with pytest.raises(AssertionError):
        # U m V == D holds but U is not unimodular
        check_smith_form(
            m, good._replace(u=doubled, d=IntMatrix.from_rows([[4]]))
        )


def matrix_rank(m: IntMatrix) -> int:
    return sum(1 for x in smith_normal_form(m).d.diagonal() if x)


def test_matrix_rank():
    assert matrix_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert matrix_rank(IntMatrix.identity(3)) == 3
    assert matrix_rank(IntMatrix.zeros(2, 5)) == 0


# -- FreeComplex ----------------------------------------------------------------------


def test_circle_homology():
    circle = FreeComplex.from_matrices({0: 1, 1: 1}, {1: IntMatrix.zeros(1, 1)})
    assert circle.homology() == GradedGroup.free({0: 1, 1: 1})


def test_interval_homology():
    interval = FreeComplex.from_matrices(
        {0: 2, 1: 1}, {1: IntMatrix.from_rows([[-1], [1]])}
    )
    assert interval.homology() == GradedGroup.free({0: 1})


def test_multiplication_by_two():
    cx = FreeComplex.from_matrices({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    assert cx.homology() == GradedGroup.of({0: (0, [2])})


def test_projective_plane():
    cells = {0: 1, 1: 1, 2: 1}
    maps = {1: IntMatrix.zeros(1, 1), 2: IntMatrix.from_rows([[2]])}
    assert FreeComplex.from_matrices(cells, maps).homology() == GradedGroup.of(
        {0: (1, []), 1: (0, [2])}
    )


def test_klein_bottle():
    cells = {0: 1, 1: 2, 2: 1}
    maps = {1: IntMatrix.zeros(1, 2), 2: IntMatrix.from_rows([[2], [0]])}
    assert FreeComplex.from_matrices(cells, maps).homology() == GradedGroup.of(
        {0: (1, []), 1: (1, [2])}
    )


def test_three_dimensional_projective_space():
    cells = {0: 1, 1: 1, 2: 1, 3: 1}
    maps = {2: IntMatrix.from_rows([[2]])}
    h = FreeComplex.from_matrices(cells, maps).homology()
    assert h == GradedGroup.of({0: (1, []), 1: (0, [2]), 3: (1, [])})


def test_with_cycles_adds_free_cycles_and_works_the_factors_out_once(monkeypatch):
    # RP^2 on two copies of its cells: the boundary out of degree 2 is twice a 2 x 2 identity
    strips = {2: [(0, 2, [(0, 2)])]}
    base = FreeComplex({0: 2, 1: 2, 2: 2}, strips)
    calls = []
    real = mtfloer.homology._invariant_factors
    monkeypatch.setattr(mtfloer.homology, "_invariant_factors", lambda given: calls.append(given) or real(given))
    wide = base.with_cycles({0: 1, 2: 3, 5: 0})
    narrow = base.with_cycles({1: 1})
    assert (wide.sizes, narrow.sizes, base.sizes) == ({0: 3, 1: 2, 2: 5}, {0: 2, 1: 3, 2: 2}, {0: 2, 1: 2, 2: 2})
    assert wide.homology() == GradedGroup.of({0: (3, []), 1: (0, [2, 2]), 2: (3, [])})
    assert narrow.homology() == GradedGroup.of({0: (2, []), 1: (1, [2, 2])})
    assert base.homology() == GradedGroup.of({0: (2, []), 1: (0, [2, 2])})
    assert calls == [strips[2]]
    # the same groups as the complexes built whole
    assert wide.homology() == FreeComplex(wide.sizes, strips).homology()
    assert narrow.homology() == FreeComplex(narrow.sizes, strips).homology()


def test_factors_are_worked_out_once_per_boundary_across_homology_and_the_widened_complexes(monkeypatch):
    # RP^2's cells, then a Z/3 pair two degrees up: two boundaries to factor
    strips = {2: [(0, 1, [(0, 2)])], 4: [(0, 1, [(0, 3)])]}
    sizes = {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    one = GradedGroup.of({0: (1, []), 1: (0, [2]), 3: (0, [3])})
    calls = []
    real = mtfloer.homology._invariant_factors
    monkeypatch.setattr(mtfloer.homology, "_invariant_factors", lambda given: calls.append(given) or real(given))
    # homology first, then the widened complexes
    cx = FreeComplex(sizes, strips)
    assert cx.homology() == one
    assert cx.with_cycles({1: 2}).homology() == GradedGroup.of({0: (1, []), 1: (2, [2]), 3: (0, [3])})
    assert cx.copies(3).homology() == cx.copies(3).copies(1).homology() == one + one + one
    assert cx.homology() == one
    assert sorted(calls) == sorted(strips.values())
    # widened first: the factors are worked out on the way, and the complex's own homology reads them
    calls.clear()
    cx = FreeComplex(sizes, strips)
    assert cx.copies(2).homology() == one + one
    assert cx.with_cycles({0: 1}).homology().rank(0) == 2
    assert cx.homology() == one
    assert sorted(calls) == sorted(strips.values())


@st.composite
def complexes_with_torsion(draw) -> FreeComplex:
    """A complex 2 -> 1 -> 0 over a shuffled block diagonal with torsion blocks and blocks of
    two or more rows and columns, or one boundary of misaligned strips."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d1 = permuted_block_diagonal(rng, [random_block(rng) for _ in range(rng.randint(1, 5))])
    if draw(st.booleans()) or not d1.rows or not d1.cols:
        targets, sources, strips = draw(strip_boundaries())
        return FreeComplex({0: targets, 1: sources}, {1: strips})
    return complex_over(rng, d1, rng.randint(1, 5))


@given(complexes_with_torsion(), st.sampled_from([0, 1, 3]))
def test_copies_are_the_complex_tensored_with_a_free_module(cx, m):
    one = cx.homology()
    calls = []
    real = mtfloer.homology._invariant_factors
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(mtfloer.homology, "_invariant_factors", lambda given: calls.append(given) or real(given))
        many, again = cx.copies(m), cx.copies(m)
        assert many.homology() == again.homology() == sum([one] * m, GradedGroup.zero())
    # the one copy's homology has worked its factors out, and the copies are handed them scaled
    assert calls == []
    assert many.homology() == dense_homology(many)
    assert many.sizes == {d: m * count for d, count in cx.sizes.items() if m}
    assert many.euler_characteristic() == m * cx.euler_characteristic() == many.homology().euler_characteristic()
    # read generator m i + j as copy j of generator i: the boundary is m copies of the one, block by block
    for d in cx.degrees():
        one, dense = cx.differential(d), many.differential(d)
        assert dense.shape == (m * one.rows, m * one.cols)
        for row, col in product(range(dense.rows), range(dense.cols)):
            (r, i), (c, j) = divmod(row, m), divmod(col, m)
            assert dense.data[row][col] == (one.data[r][c] if i == j else 0)


def test_empty_complex():
    cx = FreeComplex({})
    assert cx.homology().is_zero()
    assert cx.euler_characteristic() == 0
    assert cx.degrees() == []


def test_empty_degrees_are_dropped():
    cx = FreeComplex({0: 1, 5: 0})
    assert cx.degrees() == [0]
    assert cx.size(5) == 0


def test_zero_differentials_are_dropped_but_shaped():
    cx = FreeComplex.from_matrices({0: 1, 1: 1}, {1: IntMatrix.zeros(1, 1)})
    assert 1 not in cx.differentials
    assert cx.differential(1).shape == (1, 1)
    assert cx.differential(7).shape == (0, 0)


def test_shape_mismatch_is_rejected():
    with pytest.raises(NotAComplex):
        FreeComplex.from_matrices({0: 1, 1: 1}, {1: IntMatrix.zeros(2, 1)})


@pytest.mark.parametrize(
    "strips",
    [
        {1: [(0, 1, [(1, 1)])]},  # row past the end of degree 0
        {1: [(0, 1, [(-1, 1)])]},  # negative row
        {1: [(1, 1, [(0, 1)])]},  # column past the end of degree 1
        {1: [(-1, 1, [(0, 1)])]},  # negative column
        {2: [(0, 1, [(0, 1)])]},  # a boundary out of an empty degree
        {0: [(0, 1, [(0, 1)])]},  # a boundary into an empty degree
        {1: [(0, 0, [(0, 1)])]},  # an empty strip
        {1: [(0, 2, [(0, 1)])]},  # a strip one column too long
    ],
)
def test_out_of_range_strips_are_rejected(strips):
    with pytest.raises(NotAComplex):
        FreeComplex({0: 1, 1: 1}, strips)


def test_strip_ranges_name_the_first_offending_index():
    with pytest.raises(NotAComplex, match="has row 2, but degree 0 has 2 generators"):
        FreeComplex({0: 2, 1: 2}, {1: [(0, 2, [(0, 1), (1, 1)])]})
    with pytest.raises(NotAComplex, match="has row -1, but degree 0 has 2 generators"):
        FreeComplex({0: 2, 1: 1}, {1: [(0, 1, [(1, 1), (-1, 1)])]})
    with pytest.raises(NotAComplex, match="has column 3, but degree 1 has 3 generators"):
        FreeComplex({0: 4, 1: 3}, {1: [(1, 3, [(0, 1)])]})
    with pytest.raises(NotAComplex, match="has a strip of length 0"):
        FreeComplex({0: 4, 1: 3}, {1: [(1, 0, [(0, 1)])]})


def test_strips_drop_zeros_and_overlapping_strips_add_up():
    cx = FreeComplex(
        {0: 2, 1: 3},
        {1: [(0, 1, [(0, 1), (0, -1)]), (1, 1, [(1, 0)]), (2, 1, [(1, 2), (0, 3), (1, 1)])]},
    )
    assert cx._strips == {1: [(0, 1, [(0, 1), (0, -1)]), (2, 1, [(1, 2), (0, 3), (1, 1)])]}
    assert cx.differentials == {1: IntMatrix.from_rows([[0, 0, 3], [0, 0, 3]])}
    assert cx.homology() == GradedGroup.of({0: (1, [3]), 1: (2, [])})
    cancelled = FreeComplex({0: 1, 1: 1}, {1: [(0, 1, [(0, 2), (0, -2)])]})
    assert cancelled.differential(1).is_zero()
    assert cancelled.homology() == GradedGroup.free({0: 1, 1: 1})
    # two misaligned strips that cancel where they overlap
    overlap = FreeComplex({0: 3, 1: 3}, {1: [(0, 3, [(0, 1)]), (1, 2, [(1, -1)])]})
    assert overlap.differential(1) == IntMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert overlap.homology() == dense_homology(overlap) == GradedGroup.free({0: 2, 1: 2})


def test_from_matrices_hands_over_length_one_strips():
    d1 = IntMatrix.from_rows([[1, 0, -2], [0, 0, 4]])
    cells = {0: 2, 1: 3}
    dense = FreeComplex.from_matrices(cells, {1: d1})
    strips = FreeComplex(cells, {1: [(0, 1, [(0, 1)]), (2, 1, [(0, -2), (1, 4)])]})
    assert dense._strips == strips._strips
    assert dense.differential(1) == strips.differential(1) == d1
    assert dense.homology() == strips.homology() == GradedGroup.of({0: (0, [4]), 1: (1, [])})
    # one strip of length 3 is the same boundary as three of length 1
    long = FreeComplex({0: 4, 1: 3}, {1: [(0, 3, [(1, 2)])]})
    short = FreeComplex({0: 4, 1: 3}, {1: [(j, 1, [(j + 1, 2)]) for j in range(3)]})
    assert long.differential(1) == short.differential(1)
    assert long.homology() == short.homology() == GradedGroup.of({0: (1, [2, 2, 2])})


def test_boundary_squared_is_enforced():
    cells = {0: 1, 1: 1, 2: 1}
    maps = {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])}
    with pytest.raises(NotAComplex):
        FreeComplex.from_matrices(cells, maps)


def test_euler_characteristic_helper():
    cx = FreeComplex({0: 2, 1: 1})
    assert cx.euler_characteristic() == 1
    assert GradedGroup.free({0: 2, 1: 1}).euler_characteristic() == 1


# -- randomized complexes -----------------------------------------------------------


def random_matrix(rng: random.Random, rows: int, cols: int, spread=2) -> IntMatrix:
    return IntMatrix(
        rows, cols, [[rng.randint(-spread, spread) for _ in range(cols)] for _ in range(rows)]
    )


def random_two_step_complex(rng: random.Random) -> FreeComplex:
    """A complex 2 -> 1 -> 0 with the top map factored through ker of the bottom."""
    n0, n1, n2 = (rng.randint(1, 5) for _ in range(3))
    return complex_over(rng, random_matrix(rng, n0, n1), n2)


def complex_over(rng: random.Random, d1: IntMatrix, n2: int) -> FreeComplex:
    """A complex 2 -> 1 -> 0 with bottom map d1 and a random top map into ker d1."""
    n0, n1 = d1.rows, d1.cols
    form = smith_normal_form(d1)
    rank = sum(1 for x in form.d.diagonal() if x)
    kernel_dim = n1 - rank
    w = random_matrix(rng, kernel_dim, n2)
    d2 = IntMatrix(n1, n2)
    for i in range(n1):
        for j in range(n2):
            d2.data[i][j] = sum(
                form.v.data[i][rank + t] * w.data[t][j] for t in range(kernel_dim)
            )
    return FreeComplex.from_matrices({0: n0, 1: n1, 2: n2}, {1: d1, 2: d2})


def test_random_complexes_preserve_euler_characteristic():
    rng = random.Random(20260817)
    for _ in range(60):
        cx = random_two_step_complex(rng)
        assert cx.homology().euler_characteristic() == cx.euler_characteristic()


def test_homology_invariant_under_basis_sign_flip():
    rng = random.Random(97)
    for _ in range(30):
        cx = random_two_step_complex(rng)
        d1 = cx.differential(1).copy()
        d2 = cx.differential(2).copy()
        i = rng.randrange(cx.size(1))
        # negate basis vector i of degree 1: column i of d1, row i of d2
        for r in range(d1.rows):
            d1.data[r][i] = -d1.data[r][i]
        for c in range(d2.cols):
            d2.data[i][c] = -d2.data[i][c]
        flipped = FreeComplex.from_matrices(cx.sizes, {1: d1, 2: d2})
        assert flipped.homology() == cx.homology()


def test_top_homology_of_random_complex_is_kernel():
    rng = random.Random(4)
    for _ in range(20):
        cx = random_two_step_complex(rng)
        h2 = cx.homology()
        expected = cx.size(2) - matrix_rank(cx.differential(2))
        assert h2.rank(2) == expected
        assert h2.torsion(2) == ()


# -- the references: dense Smith forms and the element columns ------------------


def dense_homology(cx: FreeComplex) -> GradedGroup:
    """Homology from one Smith decomposition of each whole differential."""
    forms = {d: smith_normal_form(mat, verify=False) for d, mat in cx.differentials.items()}
    result = {}
    for d in cx.degrees():
        out_rank = sum(1 for x in forms[d].d.diagonal() if x) if d in forms else 0
        incoming = [x for x in forms[d + 1].d.diagonal() if x] if d + 1 in forms else []
        torsion = tuple(x for x in incoming if x > 1)
        result[d] = (cx.size(d) - out_rank - len(incoming), torsion)
    return GradedGroup.of(result)


def element_columns(cx: FreeComplex) -> dict:
    """The strips of a complex expanded element by element: ``{degree: {column: [(row, value), ...]}}``,
    entries that meet added up and zeros dropped."""
    out = {}
    for d, strips in cx._strips.items():
        summed = {}
        for source, length, targets in strips:
            for t, c in targets:
                for i in range(length):
                    column = summed.setdefault(source + i, {})
                    column[t + i] = column.get(t + i, 0) + c
        kept = {j: entries for j, column in summed.items() if (entries := sorted((i, x) for i, x in column.items() if x))}
        if kept:
            out[d] = kept
    return out


def from_columns(sizes, columns) -> FreeComplex:
    """The complex whose boundary columns are ``{degree: {column: [(row, value), ...]}}``, one strip each."""
    return FreeComplex(sizes, {d: [(j, 1, list(column)) for j, column in cols.items()] for d, cols in columns.items()})


def union_find_blocks(columns):
    """The connected blocks of a boundary given by its columns, as (rows, columns):
    rows and columns are both union-find nodes, joined at every nonzero entry."""
    parent = {}

    def find(node):
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for j, column in columns.items():
        col_root = find(~j)  # column j is the node ~j, row i is i
        for i, _ in column:
            row_root = find(i)
            if row_root != col_root:
                parent[row_root] = col_root
    members = {}
    for j in columns:
        rows, cols = members.setdefault(find(~j), (set(), []))
        cols.append(j)
        rows.update(i for i, _ in columns[j])
    return [(sorted(rows), sorted(cols)) for rows, cols in members.values()]


def column_homology(cx: FreeComplex) -> GradedGroup:
    """Homology element by element, as the package computed it before strips: each boundary's
    element columns split into connected blocks, and each block's invariant factors from its
    Smith form."""
    factors = {}
    for d, columns in element_columns(cx).items():
        found = []
        for rows, cols in union_find_blocks(columns):
            where = {i: r for r, i in enumerate(rows)}
            sub = IntMatrix(len(rows), len(cols))
            for c, j in enumerate(cols):
                for i, x in columns[j]:
                    sub.data[where[i]][c] = x
            found += [x for x in smith_normal_form(sub, verify=False).d.diagonal() if x]
        factors[d] = found
    result = {}
    for d in cx.degrees():
        incoming = factors.get(d + 1, [])
        rank = cx.size(d) - len(factors.get(d, [])) - len(incoming)
        result[d] = (rank, torsion_chain(x for x in incoming if x > 1))
    return GradedGroup.of(result)


def assert_matches_the_references(cx: FreeComplex, dense: bool = True) -> None:
    """Strip homology equals the element-column homology and, when asked, the dense one."""
    assert cx.homology() == column_homology(cx)
    if dense:
        assert cx.homology() == dense_homology(cx)


def permuted_block_diagonal(rng: random.Random, blocks) -> IntMatrix:
    """The direct sum of ``blocks``, with its rows and columns shuffled."""
    rows = list(range(sum(b.rows for b in blocks)))
    cols = list(range(sum(b.cols for b in blocks)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = IntMatrix(len(rows), len(cols))
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out.data[rows[r0 + i]][cols[c0 + j]] = b.data[i][j]
        r0 += b.rows
        c0 += b.cols
    return out


def random_block(rng: random.Random) -> IntMatrix:
    if rng.random() < 0.4:
        # a torsion block: one invariant factor from 2..6
        return IntMatrix.from_rows([[rng.choice([2, 3, 4, 5, 6])]])
    return random_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))


def test_split_torsion_merges_into_one_chain():
    blocks = [IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])]
    d1 = permuted_block_diagonal(random.Random(1), blocks)
    cx = FreeComplex.from_matrices({0: 2, 1: 2}, {1: d1})
    assert cx.homology().torsion(0) == (6,)
    assert cx.homology() == dense_homology(cx) == GradedGroup.of({0: (0, [6])})


# -- the thin-block path, unchecked --------------------------------------------------


def expanded_factors(strips) -> list[int]:
    """A boundary's invariant factors, each repeated as often as it counts."""
    return sorted(x for x, count in _invariant_factors(strips) for _ in range(count))


def thin_block_mismatch(mat: IntMatrix) -> bool:
    """Whether the block factors or the homology of the one-boundary complex
    on ``mat`` (one row or one column) differ from the dense Smith form."""
    cx = FreeComplex.from_matrices({0: mat.rows, 1: mat.cols}, {1: mat})
    dense = sorted(x for x in smith_normal_form(mat, verify=False).d.diagonal() if x)
    return expanded_factors(cx._strips.get(1, [])) != dense or cx.homology() != dense_homology(cx)


def thin_matrices():
    """Random 1 x m and m x 1 matrices with zeros, negative entries and a common factor."""
    entries = st.lists(st.integers(-12, 12), min_size=1, max_size=6)
    thin = st.tuples(entries, st.integers(1, 6), st.booleans())

    def build(drawn):
        values, scale, column = drawn
        values = [scale * x for x in values]
        return IntMatrix.from_rows([[x] for x in values] if column else [values])

    return thin.map(build)


@given(thin_matrices())
def test_thin_blocks_match_dense_without_the_smith_check(mat):
    # the suite runs with VERIFY_SNF on; this is the path a normal run takes
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(mtfloer.homology, "VERIFY_SNF", False)
        assert not thin_block_mismatch(mat)


def test_thin_block_torsion_merges_into_one_chain(monkeypatch):
    monkeypatch.setattr(mtfloer.homology, "VERIFY_SNF", False)
    # a Z/2 block (1 x 1) and a Z/3 block (2 x 1)
    d1 = IntMatrix.from_rows([[2, 0], [0, 3], [0, -6]])
    cx = FreeComplex.from_matrices({0: 3, 1: 2}, {1: d1})
    assert sorted(_invariant_factors(cx._strips[1])) == [(2, 1), (3, 1)]
    assert cx.homology() == GradedGroup.of({0: (1, [6])})
    assert cx.homology() == dense_homology(cx)


@given(st.integers(0, 2**32 - 1))
def test_block_split_matches_dense_on_random_complexes(seed):
    rng = random.Random(seed)
    assert_matches_the_references(random_two_step_complex(rng))


@given(st.integers(0, 2**32 - 1))
def test_block_split_matches_dense_on_permuted_block_diagonals(seed):
    rng = random.Random(seed)
    blocks = [random_block(rng) for _ in range(rng.randint(1, 5))]
    d1 = permuted_block_diagonal(rng, blocks)
    if not d1.rows or not d1.cols:
        return
    assert_matches_the_references(complex_over(rng, d1, rng.randint(1, 5)))
    assert_matches_the_references(FreeComplex.from_matrices({0: d1.rows, 1: d1.cols}, {1: d1}))


def test_boundary_squared_may_cancel_across_paths():
    # d1 d2 sums the paths f -> a -> v, f -> b -> v and f -> c -> v
    cells = {0: 1, 1: 3, 2: 1}
    d1 = IntMatrix.from_rows([[1, 1, -2]])
    d2 = IntMatrix.from_rows([[1], [1], [1]])
    cx = FreeComplex.from_matrices(cells, {1: d1, 2: d2})
    assert cx.homology() == dense_homology(cx) == GradedGroup.free({1: 1})
    with pytest.raises(NotAComplex):
        # two of the three paths cancel, the third does not
        FreeComplex.from_matrices(cells, {1: d1, 2: IntMatrix.from_rows([[1], [-1], [1]])})


# -- strips: intervals, components and the d^2 = 0 check ----------------------------


@st.composite
def random_strips(draw, sources: int, targets: int, max_strips: int = 5) -> list:
    """Up to ``max_strips`` strips from ``sources`` columns to ``targets`` rows, at any offsets."""
    strips = []
    for _ in range(draw(st.integers(0, max_strips))):
        length = draw(st.integers(1, min(sources, targets)))
        source = draw(st.integers(0, sources - length))
        count = draw(st.integers(1, 3))
        offsets = draw(st.lists(st.integers(0, targets - length), min_size=count, max_size=count))
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
        strips.append((source, length, list(zip(offsets, coeffs))))
    return strips


@st.composite
def strip_boundaries(draw) -> tuple[int, int, list]:
    targets, sources = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return targets, sources, draw(random_strips(sources, targets))


@given(strip_boundaries())
def test_misaligned_strips_match_the_dense_smith_form(drawn):
    targets, sources, strips = drawn
    cx = FreeComplex({0: targets, 1: sources}, {1: strips})
    dense = [x for x in smith_normal_form(cx.differential(1), verify=False).d.diagonal() if x]
    factors = expanded_factors(cx._strips.get(1, []))
    # the same rank and the same torsion chain as the whole boundary's Smith form
    assert len(factors) == len(dense)
    assert torsion_chain(x for x in factors if x > 1) == tuple(x for x in dense if x > 1)
    assert_matches_the_references(cx)


def cancelling_split(strip, cut):
    """Two strips, misaligned with ``strip``, that add up to its negative."""
    source, length, targets = strip
    negated = [(t, -c) for t, c in targets]
    return [(source, cut, negated), (source + cut, length - cut, [(t + cut, c) for t, c in negated])]


@st.composite
def strip_pairs(draw) -> tuple[list[int], list, list]:
    """Two boundaries 2 -> 1 -> 0 of random strips; with probability one half, the upper
    one cancels itself through misaligned splits, but for at most one extra strip."""
    n0, n1, n2 = (draw(st.integers(1, 8)) for _ in range(3))
    lower = draw(random_strips(n1, n0))
    upper = draw(random_strips(n2, n1))
    if draw(st.booleans()):
        # each strip that can be split is cancelled by a misaligned split of its negative
        kept = [strip for strip in upper if strip[1] > 1]
        upper = kept + [piece for strip in kept for piece in cancelling_split(strip, draw(st.integers(1, strip[1] - 1)))]
        upper += draw(random_strips(n2, n1, 1))
    return [n0, n1, n2], upper, lower


@given(strip_pairs())
def test_the_square_check_matches_the_dense_product(drawn):
    (n0, n1, n2), upper, lower = drawn
    lower_cx = FreeComplex({0: n0, 1: n1}, {1: lower})
    upper_cx = FreeComplex({1: n1, 2: n2}, {2: upper})
    product = lower_cx.differential(1) @ upper_cx.differential(2)
    assert _composes_to_zero(upper_cx._strips.get(2, []), lower_cx._strips.get(1, [])) is product.is_zero()
    if product.is_zero():
        cx = FreeComplex({0: n0, 1: n1, 2: n2}, {1: lower, 2: upper})
        assert_matches_the_references(cx)
    else:
        with pytest.raises(NotAComplex, match="boundary squared is nonzero from degree 2"):
            FreeComplex({0: n0, 1: n1, 2: n2}, {1: lower, 2: upper})


def test_the_square_check_sums_each_diagonal():
    # two arrows meet on one diagonal, over overlapping ranges, and cancel only where both run
    lower = [(0, 4, [(0, 1)])]
    cancelling = [(0, 2, [(0, 1)]), (0, 2, [(0, -1)])]
    assert _composes_to_zero(cancelling, lower)
    assert not _composes_to_zero([(0, 2, [(0, 1)]), (0, 1, [(0, -1)])], lower)
    assert _composes_to_zero([(0, 2, [(0, 1)]), (0, 1, [(0, -1)]), (1, 1, [(1, -1)])], lower)


def test_refinement_carries_cuts_until_every_strip_maps_whole_intervals():
    # the other strips' ends cut the first strip's source at 1 and 2, which it carries to
    # its target, at 3 and 4; the second strip carries 1 back, and the third carries 4 back to 2
    strips = [(0, 4, [(2, 1)]), (0, 2, [(0, 1)]), (1, 3, [(3, 1)])]
    src, tgt = _refine(strips)
    assert (src, tgt) == ([0, 1, 2, 4], [0, 1, 2, 3, 4, 6])
    for source, length, targets in strips:
        inside = [x - source for x in src if source < x < source + length]
        for t, _ in targets:
            assert inside == [y - t for y in tgt if t < y < t + length]
    assert list(_pieces(0, 4, src)) == [(0, 1), (1, 1), (2, 2)]
    cx = FreeComplex({0: 6, 1: 4}, {1: strips})
    assert_matches_the_references(cx)


def split_complex():
    """A boundary of two components: [[1, 2], [0, 3]] and [[4]], each tensored with I_2, given by
    overlapping and misaligned strips."""
    return FreeComplex({0: 6, 1: 6}, {1: [(0, 4, [(0, 1)]), (2, 2, [(0, 2), (2, 2)]), (4, 2, [(4, 4)])]})


def split_of(cx):
    """The pieces and components ``_invariant_factors`` computes, biggest component first."""
    strips = cx._strips[1]
    cuts = _refine(strips)
    pieces = [[(a, n, [(t + a - s, c) for t, c in targets]) for a, n in _pieces(s, length, cuts[0])]
              for s, length, targets in strips]
    return strips, cuts, pieces, sorted(_components(pieces, cuts[1]), key=lambda c: -len(c[1]))


def test_components_are_small_matrices_times_an_identity():
    cx = split_complex()
    strips, cuts, pieces, components = split_of(cx)
    assert cuts == ([0, 2, 4, 6], [0, 2, 4, 6])
    assert [(length, rows, cols) for length, rows, cols, _ in components] == [(2, [0, 2], [0, 2]), (2, [4], [4])]
    assert components[0][3] == {(0, 0): 1, (0, 2): 2, (2, 2): 3}
    assert sorted(_invariant_factors(strips)) == [(1, 2), (3, 2), (4, 2)]
    # factors 1, 1, 3, 3, 4, 4: full rank, and Z/3 + Z/3 + Z/4 + Z/4 = Z/12 + Z/12
    assert cx.homology() == GradedGroup.of({0: (0, [12, 12])})
    assert_matches_the_references(cx)


def test_check_components_rejects_bad_splits():
    strips, cuts, pieces, components = split_of(split_complex())
    _check_components(strips, cuts, pieces, components)
    length, rows, cols, entries = components[0]
    altered = dict(entries)
    altered[0, 0] += 1
    padded = {**entries, (2, 0): 1}
    forgeries = [
        components[:1],  # an entry left out
        components + components[:1],  # an entry held twice
        [(length, rows, cols, altered)] + components[1:],  # a wrong value
        [(length, rows, cols, padded)] + components[1:],  # an entry the boundary lacks
    ]
    for forged in forgeries:
        with pytest.raises(AssertionError, match="component"):
            _check_components(strips, cuts, pieces, forged)
    # the first strip, [0, 4), is cut at 2: leave out a piece, or keep it whole
    (first, second), *rest = pieces
    for forged, text in (([[first]] + rest, "tile"), ([[(0, 4, first[2])]] + rest, "a cut falls inside")):
        with pytest.raises(AssertionError, match=text):
            _check_components(strips, cuts, forged, components)


# -- the self-check switch ---------------------------------------------------------------


@pytest.mark.parametrize("value, on", [(None, False), ("", False), ("0", False), ("1", True), ("yes", True)])
def test_the_smith_check_switch_reads_its_variable_once(monkeypatch, value, on):
    if value is None:
        monkeypatch.delenv("MTFLOER_SNF_VERIFY", raising=False)
    else:
        monkeypatch.setenv("MTFLOER_SNF_VERIFY", value)
    # a fresh copy of the module, so the one the suite runs keeps its flag
    spec = importlib.util.spec_from_file_location("mtfloer._switch_probe", mtfloer.homology.__file__)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.VERIFY_SNF is on
