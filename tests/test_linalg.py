"""Exact linear and lattice algebra.  The column reduction that gave the
kernel lattice and the Smith form that decided effectiveness are kept here
as references for the one HNF routine that replaced them, the ``Fraction``
Gauss-Jordan and determinant loops as references for the one fraction-free
elimination under ``rref`` and ``det``, and the two-pass kernel basis as the
reference for ``nullspace``, which eliminates once."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momstrat import (
    AffineSubspace,
    HPolytope,
    ToricAction,
    direction_intersect,
    hnf_lattice_basis,
    kernel_lattice,
    mat,
    rref,
    vec,
)
from momstrat.errors import NonIntegralInput, RankDeficient
from momstrat.linalg import (
    det,
    dot,
    integer_row_basis,
    nullspace,
    rank,
    row_space_basis,
)
from support import in_row_space

F = Fraction


def test_rref_scaled_identity():
    red, pivots = rref(mat([[2, 0], [0, 3]]))
    assert red == mat([[1, 0], [0, 1]])
    assert pivots == [0, 1]


def test_rref_rank_one():
    red, pivots = rref(mat([[1, 2], [2, 4]]))
    assert red == mat([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_projection_matrix_fixed_point():
    m = mat([[1, 1, 0], [0, 0, 1]])
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 2]


def test_exact_arithmetic_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        a = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        b = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert (a + b) - b == a
        assert a.denominator >= 1
        import math

        assert math.gcd(abs(a.numerator), a.denominator) == 1


@pytest.mark.parametrize("text", ["0.5", "1e5", " 3/4 ", "1_000", "٣", "1e999999999", "1/0", "3/-4"])
def test_vec_refuses_strings_other_than_p_over_q(text):
    # refused before any number is built: "1e999999999" is 10**999999999
    with pytest.raises(ValueError, match="not an exact rational"):
        vec([text])


def test_vec_reads_p_over_q_strings():
    assert vec(["3/4", "-3/4", "+6/8", "007", "-0", 12, F(1, 3)]) == (F(3, 4), F(-3, 4), F(3, 4), 7, 0, 12, F(1, 3))


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = mat([[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)])
        red, _ = rref(m)
        red2, _ = rref(red)
        assert red2 == red


def plane(base, dirs, n=3):
    return AffineSubspace.from_point_and_directions(vec(base), mat(dirs))


def test_direction_intersect_single():
    s = plane([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    assert direction_intersect([s]) == mat([[1, 0, 0], [0, 1, 0]])


def test_direction_intersect_axes():
    a = AffineSubspace.from_point_and_directions(vec([0, 0]), mat([[1, 0]]))
    b = AffineSubspace.from_point_and_directions(vec([0, 0]), mat([[0, 1]]))
    assert direction_intersect([a, b]) == ()


def test_direction_intersect_skew_lines_and_plane():
    a = AffineSubspace.from_point_and_directions(vec([0, 0]), mat([[1, 0]]))
    c = AffineSubspace.from_point_and_directions(vec([0, 0]), mat([[1, -1]]))
    assert direction_intersect([a, c]) == ()
    full = AffineSubspace.from_point_and_directions(vec([0, 0]), mat([[1, 0], [0, 1]]))
    got = direction_intersect([full, c])
    assert got == row_space_basis(mat([[1, -1]]))


def test_hnf_already_normal():
    assert hnf_lattice_basis(mat([[2, 0], [0, 2]])) == mat([[2, 0], [0, 2]])


def test_hnf_hand_reduction():
    assert hnf_lattice_basis(mat([[1, 1], [1, -1]])) == mat([[1, 1], [0, 2]])


def test_hnf_zero_lattice():
    assert hnf_lattice_basis(mat([[0, 0]])) == ()


def test_hnf_rejects_non_integers():
    with pytest.raises(NonIntegralInput):
        hnf_lattice_basis(mat([["1/2", 0]]))


def _in_lattice(v, basis):
    """Exact membership of an integer vector in the lattice spanned by HNF rows."""
    if not basis:
        return all(x == 0 for x in v)
    work = list(v)
    rows = [list(r) for r in basis]
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in rows]
    for row, p in zip(rows, pivots):
        if work[p] % row[p] != 0:
            return False
        q = work[p] // row[p]
        work = [w - q * x for w, x in zip(work, row)]
    return all(x == 0 for x in work)


def test_hnf_same_lattice_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = rng.randint(1, 4)
        gens = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(rows)])
        basis = hnf_lattice_basis(gens)
        for g in gens:
            assert _in_lattice(g, basis)
        # and every basis row is an integer combination of the generators
        back = hnf_lattice_basis(gens)
        assert hnf_lattice_basis(back) == back
        for row in basis:
            assert _in_lattice(row, hnf_lattice_basis(gens))


def test_kernel_lattice_identity():
    assert kernel_lattice(mat([[1, 0], [0, 1]]), 2) == ()


def test_kernel_lattice_sum():
    assert kernel_lattice(mat([[1, 1]]), 2) == mat([[1, -1]])


def test_kernel_lattice_paper_projection():
    assert kernel_lattice(mat([[1, 1, 0], [0, 0, 1]]), 3) == mat([[1, -1, 0]])


def test_kernel_lattice_rank_deficient():
    with pytest.raises(RankDeficient):
        kernel_lattice(mat([[1, 1], [2, 2]]), 2)


def test_kernel_lattice_saturated_random():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        b = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
        if rank(b) != k:
            continue
        basis = kernel_lattice(b, n)
        assert len(basis) == n - k
        for row in basis:
            assert all(dot(br, row) == 0 for br in b)
        # saturation: any integer kernel vector must lie in the lattice
        null = nullspace(b, n)
        for nr in null:
            lcm = 1
            for x in nr:
                lcm = lcm * x.denominator // __import__("math").gcd(lcm, x.denominator)
            iv = vec([x * lcm for x in nr])
            assert _in_lattice(iv, basis)


def test_canonical_encoding_construction_order():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 5)
        d = rng.randint(0, n)
        pts = [vec([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]) for _ in range(d + 1)]
        s1 = AffineSubspace.from_points(pts)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        s2 = AffineSubspace.from_points(shuffled)
        assert s1 == s2
        # rebuilding from any member point and a rescaled spanning set agrees
        if s1.dim:
            other = AffineSubspace.from_point_and_directions(
                pts[-1], mat([[3 * x for x in row] for row in s1.directions])
            )
            assert other == s1


def test_direction_intersect_membership_property():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 5)
        spaces = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(0, n)
            pts = [vec([F(rng.randint(-3, 3)) for _ in range(n)]) for _ in range(d + 1)]
            spaces.append(AffineSubspace.from_points(pts))
        inter = direction_intersect(spaces)
        for row in inter:
            for s in spaces:
                assert in_row_space(row, s.directions)
        # and any direction common to all inputs lies in the intersection
        for s in spaces:
            for row in s.directions:
                if all(in_row_space(row, t.directions) for t in spaces):
                    assert in_row_space(row, inter)


def _action(n: int, b) -> ToricAction:
    """The subtorus B (n x k) over the cube [-1, 1]^n; ``is_effective`` reads B alone."""
    rows = [[s if j == i else 0 for j in range(n)] for i in range(n) for s in (1, -1)]
    return ToricAction(HPolytope.from_rows(rows, [1] * len(rows)), mat(b))


@pytest.mark.parametrize(
    "b, effective",
    [
        ([[2, 0], [0, 3]], False),  # elementary divisors 1, 6
        ([[1, 0], [0, 1]], True),
        ([[2]], False),
        ([[2, 4], [2, 4]], False),  # rank 1 < k = 2
    ],
)
def test_is_effective_hand_cases(b, effective):
    assert _action(len(b), b).is_effective() is effective


def test_integer_row_basis_saturates():
    basis = integer_row_basis(mat([["1/2", "1/2"]]))
    assert basis == mat([[1, 1]])
    basis = integer_row_basis(mat([[2, 0], [0, 2]]))
    assert basis == mat([[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# the HNF routine against the eliminations it replaced


def reference_kernel_lattice(b_t, n):
    """HNF basis of Z^n ∩ ker(b_t) by integer column reduction of b_t, with
    the unimodular transform V kept: the columns of V under zero columns of
    b_t.V span the kernel lattice."""
    work = [[int(x) for x in row] for row in b_t]
    k = len(work)
    if rank(mat(work)) != k:
        raise RankDeficient("b_t must have full row rank")
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(j_dst, j_src, q):
        for m in (work, v):
            for r in m:
                r[j_dst] -= q * r[j_src]

    def col_swap(j1, j2):
        for m in (work, v):
            for r in m:
                r[j1], r[j2] = r[j2], r[j1]

    row = 0
    for col in range(n):
        if row >= k:
            break
        live = [j for j in range(col, n) if work[row][j] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(work[row][j]))
            for j in live[1:]:
                col_op(j, live[0], work[row][j] // work[row][live[0]])
            live = [j for j in live if work[row][j] != 0]
        if live[0] != col:
            col_swap(live[0], col)
        row += 1
    kernel_cols = [j for j in range(n) if all(work[i][j] == 0 for i in range(k))]
    return hnf_lattice_basis(mat([[v[i][j] for i in range(n)] for j in kernel_cols]))


def reference_smith_invariants(m):
    """Elementary divisors of an integer matrix (nonnegative, divisibility chain)."""
    a = [[int(x) for x in row] for row in m]
    if not a or not a[0]:
        return []
    nr, nc = len(a), len(a[0])
    divisors = []
    top = 0
    while top < min(nr, nc):
        nonzero = [(i, j) for i in range(top, nr) for j in range(top, nc) if a[i][j] != 0]
        if not nonzero:
            break
        i0, j0 = min(nonzero, key=lambda ij: abs(a[ij[0]][ij[1]]))
        a[top], a[i0] = a[i0], a[top]
        for r in a:
            r[top], r[j0] = r[j0], r[top]
        dirty = False
        for i in range(top + 1, nr):
            q = a[i][top] // a[top][top]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
            dirty = dirty or a[i][top] != 0
        for j in range(top + 1, nc):
            q = a[top][j] // a[top][top]
            if q:
                for r in a:
                    r[j] -= q * r[top]
            dirty = dirty or a[top][j] != 0
        if dirty:
            continue
        piv = abs(a[top][top])
        bad = next((i for i in range(top + 1, nr) for j in range(top + 1, nc) if a[i][j] % piv), None)
        if bad is not None:
            a[top] = [x + y for x, y in zip(a[top], a[bad])]
            continue
        divisors.append(piv)
        top += 1
    return divisors


def reference_integer_row_basis(rows):
    """The saturation of the row space: the kernel lattice of its cleared
    normals, or Z^n itself when the rows span R^n."""
    if not rows:
        return ()
    n = len(rows[0])
    basis = row_space_basis(rows)
    if not basis:
        return ()
    normals = nullspace(basis, n)
    if not normals:
        return hnf_lattice_basis(mat([[int(i == j) for j in range(n)] for i in range(n)]))
    cleared = []
    for row in normals:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        cleared.append([int(x * lcm) for x in row])
    return reference_kernel_lattice(mat(cleared), n)


LATTICE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def integer_matrices(draw):
    """(n, b_t): an integer k x n matrix, n <= 7, k <= n, entries in [-9, 9]."""
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=0, max_value=n))
    entry = st.integers(min_value=-9, max_value=9)
    return n, mat(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)))


@st.composite
def rational_matrices(draw):
    """(n, rows): ``integer_matrices`` with each entry divided by 1 to 4."""
    n, m = draw(integer_matrices())
    return n, tuple(tuple(x / draw(st.integers(min_value=1, max_value=4)) for x in row) for row in m)


def _outcome(f, *args):
    try:
        return f(*args)
    except RankDeficient:
        return RankDeficient


@LATTICE_SETTINGS
@given(integer_matrices())
@example((3, ()))
@example((3, mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
@example((3, mat([[1, 2, 3], [2, 4, 6]])))
@example((4, mat([[2, 4, 6, 8]])))
def test_kernel_lattice_matches_column_reduction(case):
    n, b_t = case
    assert _outcome(kernel_lattice, b_t, n) == _outcome(reference_kernel_lattice, b_t, n)


@LATTICE_SETTINGS
@given(integer_matrices())
@example((2, ()))
@example((2, mat([[2, 0], [0, 3]])))
@example((2, mat([[1, 2], [2, 4]])))
def test_is_effective_matches_smith(case):
    n, b_t = case
    b = tuple(zip(*b_t)) if b_t else ((),) * n
    divisors = reference_smith_invariants(b)
    assert _action(n, b).is_effective() == (len(divisors) == len(b_t) and set(divisors) <= {1})


@LATTICE_SETTINGS
@given(rational_matrices())
@example((3, ()))
@example((2, mat([["1/2", "1/3"], ["1/4", "1/6"]])))
@example((2, mat([[2, 0], [0, 2]])))
def test_integer_row_basis_matches_reference(case):
    _, rows = case
    assert integer_row_basis(rows) == reference_integer_row_basis(rows)


# ---------------------------------------------------------------------------
# the fraction-free elimination against the Fraction loops it replaced


def reference_rref(m):
    """Gauss-Jordan elimination in ``Fraction`` arithmetic: normalize each
    pivot row, then clear the pivot column above and below."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), pivots


def reference_det(rows):
    """Gaussian elimination in ``Fraction`` arithmetic: the product of the
    pivots, negated once per row swap."""
    a = [list(r) for r in rows]
    n = len(a)
    result = F(1)
    for i in range(n):
        piv = next((j for j in range(i, n) if a[j][i] != 0), None)
        if piv is None:
            return F(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            result = -result
        result *= a[i][i]
        inv = 1 / a[i][i]
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] * inv
                a[j] = [u - f * v for u, v in zip(a[j], a[i])]
    return result


@st.composite
def elimination_matrices(draw, square=False):
    """A rational matrix with up to 5 rows and 6 columns (square when asked),
    entries p / q with |p| <= 6 and q <= 5; a row may repeat another, and a
    row and a column may be set to zero."""
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = nrows if square else draw(st.integers(min_value=0, max_value=6))
    entry = st.builds(F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    index = st.integers(min_value=0, max_value=max(nrows - 1, 0))
    if rows and draw(st.booleans()):
        rows[draw(index)] = rows[draw(index)]
    if rows and draw(st.booleans()):
        rows[draw(index)] = [F(0)] * ncols
    if ncols and draw(st.booleans()):
        c = draw(st.integers(min_value=0, max_value=ncols - 1))
        rows = [row[:c] + [F(0)] + row[c + 1 :] for row in rows]
    return tuple(tuple(row) for row in rows)


@LATTICE_SETTINGS
@given(elimination_matrices())
@example(())
@example(((), ()))
@example(mat([[0, 0], [0, 0]]))
@example(mat([[0, 2, 4], [0, 1, 2], [0, 0, 0]]))
@example(mat([["1/2", "1/3", 1], ["1/4", "1/6", "1/2"], ["2/3", 0, "-5/4"]]))
def test_rref_matches_fraction_gauss_jordan(m):
    red, pivots = rref(m)
    assert (red, pivots) == reference_rref(m)
    assert all(type(x) is F for row in red for x in row)
    assert rank(m) == len(pivots)


def reference_nullspace(m, ncols=None):
    """Kernel vectors read off the RREF of m, then put in RREF by a second
    elimination."""
    if not m:
        return mat([[int(i == j) for j in range(ncols)] for i in range(ncols)])
    n = len(m[0])
    red, pivots = rref(m)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return row_space_basis(tuple(basis)) if basis else ()


@LATTICE_SETTINGS
@given(elimination_matrices())
@example(())
@example(((), ()))
@example(mat([[0, 0, 0]]))
@example(mat([[1, 2, 3], [1, 2, 3]]))
@example(mat([[0, 2, 4], [0, 1, 2], [0, 0, 0]]))
@example(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
@example(mat([["1/2", "1/3", 1, 0], ["1/4", "1/6", "1/2", 0]]))
def test_nullspace_matches_two_pass_reference(m):
    ncols = None if m else 3
    basis = nullspace(m, ncols)
    assert basis == reference_nullspace(m, ncols)
    assert all(type(x) is F for row in basis for x in row)
    assert all(dot(row, v) == 0 for row in m for v in basis)


@LATTICE_SETTINGS
@given(elimination_matrices(square=True))
@example(())
@example(mat([[0]]))
@example(mat([[1, 2], [2, 4]]))
@example(mat([[0, 1], [1, 0]]))
@example(mat([["1/2", "1/3"], ["1/4", "1/6"]]))
@example(mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
def test_det_matches_fraction_elimination(m):
    assert det(m) == reference_det(m)
