import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mtfloer.homology
from mtfloer.errors import NotAComplex
from mtfloer.graded import GradedGroup
from mtfloer.homology import (
    FreeComplex,
    IntMatrix,
    _block_members,
    _blocks,
    _check_blocks,
    _invariant_factors,
    _nonzero_columns,
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
    "columns",
    [
        {1: {0: [(1, 1)]}},  # row past the end of degree 0
        {1: {0: [(-1, 1)]}},  # negative row
        {1: {1: [(0, 1)]}},  # column past the end of degree 1
        {1: {-1: [(0, 1)]}},  # negative column
        {2: {0: [(0, 1)]}},  # a boundary out of an empty degree
        {0: {0: [(0, 1)]}},  # a boundary into an empty degree
    ],
)
def test_out_of_range_entries_are_rejected(columns):
    with pytest.raises(NotAComplex):
        FreeComplex({0: 1, 1: 1}, columns)


def test_columns_drop_zeros_and_add_repeated_rows():
    cx = FreeComplex(
        {0: 2, 1: 3},
        {1: {0: [(0, 1), (0, -1)], 1: [(1, 0)], 2: [(1, 2), (0, 3), (1, 1)]}},
    )
    assert cx._columns == {1: {2: [(1, 3), (0, 3)]}}
    assert cx.differentials == {1: IntMatrix.from_rows([[0, 0, 3], [0, 0, 3]])}
    cancelled = FreeComplex({0: 1, 1: 1}, {1: {0: [(0, 2), (0, -2)]}})
    assert cancelled._columns == {} and cancelled.differentials == {}
    assert cancelled.homology() == GradedGroup.free({0: 1, 1: 1})


def test_columns_with_distinct_rows_are_kept_as_given():
    one, two = [(1, 5)], [(0, 1), (1, -1)]
    cx = FreeComplex({0: 2, 1: 3}, {1: {0: one, 2: two}})
    # no copy: the lists handed over are the complex's columns
    assert cx._columns[1][0] is one and cx._columns[1][2] is two
    # zeros are still dropped, and any iterable of entries is taken
    cx = FreeComplex({0: 2, 1: 1}, {1: {0: iter([(0, 0), (1, 4)])}})
    assert cx._columns == {1: {0: [(1, 4)]}}
    with pytest.raises(NotAComplex, match="has row 2, but degree 0 has 2 generators"):
        FreeComplex({0: 2, 1: 1}, {1: {0: [(0, 1), (2, 1)]}})
    with pytest.raises(NotAComplex, match="has row -1, but degree 0 has 2 generators"):
        FreeComplex({0: 2, 1: 1}, {1: {0: [(-1, 1), (1, 1), (1, 1)]}})


def test_from_matrices_equals_the_columns():
    d1 = IntMatrix.from_rows([[1, 0, -2], [0, 0, 4]])
    cells = {0: 2, 1: 3}
    dense = FreeComplex.from_matrices(cells, {1: d1})
    sparse = FreeComplex(cells, {1: {0: [(0, 1)], 2: [(0, -2), (1, 4)]}})
    assert dense._columns == sparse._columns
    assert dense.differential(1) == sparse.differential(1) == d1
    assert dense.homology() == sparse.homology() == GradedGroup.of({0: (0, [4]), 1: (1, [])})


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


# -- block-split homology against the dense reference -----------------------------


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


def union_find_blocks(columns):
    """The block split as it was first written, kept as the reference for
    ``_block_members``: rows and columns are both union-find nodes, joined
    at every nonzero entry, and blocks come in the order of their first
    column."""
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


def assert_blocks_match_the_reference(cx: FreeComplex) -> None:
    for columns in cx._columns.values():
        assert _block_members(columns) == union_find_blocks(columns)


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


def thin_block_mismatch(mat: IntMatrix) -> bool:
    """Whether the block factors or the homology of the one-boundary complex
    on ``mat`` (one row or one column) differ from the dense Smith form."""
    cx = FreeComplex.from_matrices({0: mat.rows, 1: mat.cols}, {1: mat})
    dense = sorted(x for x in smith_normal_form(mat, verify=False).d.diagonal() if x)
    return sorted(_invariant_factors(cx._columns.get(1, {}))) != dense or cx.homology() != dense_homology(cx)


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
    assert sorted(_invariant_factors(cx._columns[1])) == [2, 3]
    assert cx.homology() == GradedGroup.of({0: (1, [6])})
    assert cx.homology() == dense_homology(cx)


@given(st.integers(0, 2**32 - 1))
def test_block_split_matches_dense_on_random_complexes(seed):
    rng = random.Random(seed)
    cx = random_two_step_complex(rng)
    assert cx.homology() == dense_homology(cx)
    assert_blocks_match_the_reference(cx)


@given(st.integers(0, 2**32 - 1))
def test_block_split_matches_dense_on_permuted_block_diagonals(seed):
    rng = random.Random(seed)
    blocks = [random_block(rng) for _ in range(rng.randint(1, 5))]
    d1 = permuted_block_diagonal(rng, blocks)
    if not d1.rows or not d1.cols:
        return
    cx = complex_over(rng, d1, rng.randint(1, 5))
    assert cx.homology() == dense_homology(cx)
    lone = FreeComplex.from_matrices({0: d1.rows, 1: d1.cols}, {1: d1})
    assert lone.homology() == dense_homology(lone)
    assert_blocks_match_the_reference(cx)
    assert_blocks_match_the_reference(lone)


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


def test_check_blocks_rejects_bad_splits():
    d1 = permuted_block_diagonal(
        random.Random(3), [IntMatrix.from_rows([[1, 2], [0, 3]]), IntMatrix.from_rows([[4]])]
    )
    columns = _nonzero_columns(d1)
    blocks = sorted(_blocks(columns), key=lambda block: -len(block[0]))
    assert [sub.shape for _, _, sub in blocks] == [(2, 2), (1, 1)]
    _check_blocks(columns, blocks)
    rows, cols, sub = blocks[0]
    altered = sub.copy()
    altered.data[0][0] += 1
    padded = sub.copy()
    r, c = next((r, c) for r, row in enumerate(sub.data) for c, x in enumerate(row) if not x)
    padded.data[r][c] = 1
    forgeries = [
        blocks[:1],  # an entry left out
        blocks + blocks[:1],  # an entry held twice
        [(rows, cols, altered)] + blocks[1:],  # a wrong value
        [(rows, cols, padded)] + blocks[1:],  # an entry the matrix lacks
    ]
    for forged in forgeries:
        with pytest.raises(AssertionError):
            _check_blocks(columns, forged)
