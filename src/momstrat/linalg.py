"""Exact rational linear, affine and lattice algebra.

Every quantity in the geometric core is a :class:`fractions.Fraction`
(arbitrary precision, always in lowest terms with positive denominator),
a tuple of them (``Vec``) or a tuple of row tuples (``Mat``).  Tuples make
all values hashable and immutable, so equal objects compare and hash equal
bit-for-bit, which the rest of the package relies on for deduplication.

Affine subspaces are stored in a canonical form: the direction basis is the
reduced row echelon form of any spanning set, and the base point is reduced
to have zero coordinates in the pivot columns.  Two equal subspaces therefore
have identical encodings regardless of how they were constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NonIntegralInput, RankDeficient

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix")
    return m


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit(n, i) for i in range(n))


def dot(a: Vec, b: Vec) -> Fraction:
    total = ZERO
    for x, y in zip(a, b):
        if x and y:
            total = total + x * y
    return total


def add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def scale(a: Vec, c: Fraction) -> Vec:
    return tuple(x * c for x in a)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with its pivot column list.

    Pivots are normalized to 1 and pivot columns cleared above and below;
    zero rows sink to the bottom.  The result is the unique RREF of the
    row space, so it doubles as a canonical encoding.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
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


def row_space_basis(m: Mat) -> Mat:
    """Canonical (RREF) basis of the row space, zero rows dropped."""
    red, pivots = rref(m)
    return red[: len(pivots)]


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def nullspace(m: Mat, ncols: int | None = None) -> Mat:
    """Canonical basis of {x : m @ x = 0}, returned as rows in RREF."""
    if not m:
        if ncols is None:
            raise DimensionMismatch("nullspace of empty matrix needs ncols")
        return identity(ncols)
    n = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return row_space_basis(tuple(basis)) if basis else ()


def solve(a: Mat, b: Vec) -> Vec | None:
    """One exact solution of a @ x = b, or None when inconsistent."""
    if not a:
        return zeros(0) if is_zero_vec(b) else None
    n = len(a[0])
    aug = tuple(row + (bi,) for row, bi in zip(a, b))
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for i, pc in enumerate(pivots):
        x[pc] = red[i][n]
    return tuple(x)


def det(rows: Sequence[Vec]) -> Fraction:
    """Exact determinant of a square matrix by Gaussian elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    result = ONE
    for i in range(n):
        piv = next((j for j in range(i, n) if a[j][i] != 0), None)
        if piv is None:
            return ZERO
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            result = -result
        result *= a[i][i]
        inv = ONE / a[i][i]
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] * inv
                a[j] = [u - f * v for u, v in zip(a[j], a[i])]
    return result


def in_row_space(v: Vec, basis: Mat) -> bool:
    """Exact membership of v in the span of the basis rows."""
    if is_zero_vec(v):
        return True
    if not basis:
        return False
    return rank(basis + (v,)) == rank(basis)


@dataclass(frozen=True)
class AffineSubspace:
    """A nonempty affine subspace in canonical encoding.

    ``directions`` is the RREF basis of the direction space and ``base`` is
    the unique point of the subspace with zero coordinates in the pivot
    columns of ``directions``.
    """

    base: Vec
    directions: Mat
    ambient_dim: int

    @staticmethod
    def from_point_and_directions(point: Vec, dirs: Mat) -> "AffineSubspace":
        n = len(point)
        basis = row_space_basis(dirs) if dirs else ()
        _, pivots = rref(basis) if basis else ((), [])
        base = list(point)
        for i, pc in enumerate(pivots):
            if base[pc] != 0:
                f = base[pc]
                base = [x - f * y for x, y in zip(base, basis[i])]
        return AffineSubspace(tuple(base), basis, n)

    @staticmethod
    def from_points(points: Sequence[Vec]) -> "AffineSubspace":
        p0 = points[0]
        dirs = tuple(sub(p, p0) for p in points[1:])
        return AffineSubspace.from_point_and_directions(p0, dirs)

    @property
    def dim(self) -> int:
        return len(self.directions)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        # directions are stored in RREF, so pivots are the leading entries
        return tuple(
            next(j for j, x in enumerate(row) if x != 0) for row in self.directions
        )

    def contains(self, x: Vec) -> bool:
        if len(x) != self.ambient_dim:
            raise DimensionMismatch("point/subspace ambient mismatch")
        return self.from_local(self.to_local(x)) == tuple(x)

    def to_local(self, x: Vec) -> Vec:
        """Pivot-column coordinates; a bijection on the subspace itself."""
        base = self.base
        return tuple(x[p] - base[p] for p in self.pivots)

    def from_local(self, t: Vec) -> Vec:
        x = list(self.base)
        for ti, row in zip(t, self.directions):
            for j, rj in enumerate(row):
                if rj != 0:
                    x[j] += ti * rj
        return tuple(x)

    def equations(self) -> tuple[tuple[Vec, Fraction], ...]:
        """Canonical affine functionals (a, beta) with the subspace = {a.x = beta}."""
        return self._equations

    @cached_property
    def _equations(self) -> tuple[tuple[Vec, Fraction], ...]:
        if self.dim == self.ambient_dim:
            return ()
        normals = nullspace(self.directions, self.ambient_dim) if self.directions else identity(self.ambient_dim)
        return tuple((row, dot(row, self.base)) for row in normals)


class Empty:
    """Marker for an empty intersection of affine subspaces."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Empty"


EMPTY = Empty()


def subspace_intersect(a: AffineSubspace, b: AffineSubspace):
    """Intersection of two affine subspaces: a canonical subspace or EMPTY."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    # Solve base_a + x.Ua = base_b + y.Ub for (x, y).
    cols = [list(r) for r in a.directions] + [[-e for e in r] for r in b.directions]
    system = transpose(mat(cols)) if cols else ()
    rhs = sub(b.base, a.base)
    if not system:
        if not is_zero_vec(rhs):
            return EMPTY
        point = a.base
    else:
        sol = solve(system, rhs)
        if sol is None:
            return EMPTY
        point = a.base
        for xi, row in zip(sol[: a.dim], a.directions):
            point = add(point, scale(row, xi))
    dirs = direction_intersect([a, b])
    return AffineSubspace.from_point_and_directions(point, dirs)


def direction_intersect(spaces: Sequence[AffineSubspace]) -> Mat:
    """Canonical RREF basis of the intersection of the direction spaces."""
    if not spaces:
        raise DimensionMismatch("need at least one subspace")
    n = spaces[0].ambient_dim
    if any(s.ambient_dim != n for s in spaces):
        raise DimensionMismatch("ambient dimensions differ")
    constraints: list[Vec] = []
    for s in spaces:
        if s.dim == n:
            continue
        normals = nullspace(s.directions, n) if s.directions else identity(n)
        constraints.extend(normals)
    if not constraints:
        return identity(n)
    return nullspace(tuple(constraints), n)


# ---------------------------------------------------------------------------
# integer lattice algebra


def _require_integral(m: Mat) -> list[list[int]]:
    out = []
    for row in m:
        r = []
        for x in row:
            if x.denominator != 1:
                raise NonIntegralInput(f"entry {x} is not an integer")
            r.append(x.numerator)
        out.append(r)
    return out


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form; zero rows dropped.

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    """
    rows = [r[:] for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    done: list[list[int]] = []
    r = 0
    for c in range(ncols):
        idx = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not idx:
            continue
        # Euclidean elimination below the pivot position.
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(rows[i][c]))
            i0 = idx[0]
            for i in idx[1:]:
                q = rows[i][c] // rows[i0][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
            idx = [i for i in idx if rows[i][c] != 0]
        i0 = idx[0]
        rows[r], rows[i0] = rows[i0], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        pv = rows[r][c]
        for prev in done:
            q = prev[c] // pv
            if q:
                for j in range(ncols):
                    prev[j] -= q * rows[r][j]
        done.append(rows[r])
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r]]


def hnf_lattice_basis(generators: Mat) -> Mat:
    """HNF basis of the sublattice of Z^n spanned by integer generator rows."""
    rows = _require_integral(generators)
    return mat(_hnf_rows(rows))


def kernel_lattice(b_t: Mat, n: int) -> Mat:
    """HNF basis of Z^n ∩ ker(b_t) for an integral k x n matrix of rank k.

    Computed by integer column reduction with a unimodular transform, so the
    result is a basis of the full saturated kernel lattice.
    """
    rows = _require_integral(b_t)
    k = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("b_t shape does not match n")
    if rank(mat(rows)) != k:
        raise RankDeficient("b_t must have full row rank")
    work = [r[:] for r in rows]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(j_dst: int, j_src: int, q: int) -> None:
        for i in range(k):
            work[i][j_dst] -= q * work[i][j_src]
        for i in range(n):
            v[i][j_dst] -= q * v[i][j_src]

    def col_swap(j1: int, j2: int) -> None:
        for i in range(k):
            work[i][j1], work[i][j2] = work[i][j2], work[i][j1]
        for i in range(n):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]

    row = 0
    for col in range(n):
        if row >= k:
            break
        live = [j for j in range(col, n) if work[row][j] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(work[row][j]))
            j0 = live[0]
            for j in live[1:]:
                col_op(j, j0, work[row][j] // work[row][j0])
            live = [j for j in live if work[row][j] != 0]
        if live[0] != col:
            col_swap(live[0], col)
        row += 1
    kernel_cols = [j for j in range(n) if all(work[i][j] == 0 for i in range(k))]
    gens = [[v[i][j] for i in range(n)] for j in kernel_cols]
    return mat(_hnf_rows(gens))


def smith_invariants(m: Mat) -> list[int]:
    """Elementary divisors of an integer matrix (nonnegative, divisibility chain)."""
    a = _require_integral(m)
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
            if a[i][top] != 0:
                dirty = True
        for j in range(top + 1, nc):
            q = a[top][j] // a[top][top]
            if q:
                for i in range(nr):
                    a[i][j] -= q * a[i][top]
            if a[top][j] != 0:
                dirty = True
        if dirty:
            continue
        piv = abs(a[top][top])
        bad = next(
            ((i, j) for i in range(top + 1, nr) for j in range(top + 1, nc) if a[i][j] % piv != 0),
            None,
        )
        if bad is not None:
            i, _ = bad
            a[top] = [x + y for x, y in zip(a[top], a[i])]
            continue
        divisors.append(piv)
        top += 1
    return divisors


def integer_row_basis(rows: Mat) -> Mat:
    """Integer primitive basis of the rational row space (its saturation in Z^n).

    The span is a rational subspace, so Z^n ∩ span is a full-rank lattice in
    it; the HNF basis of that lattice is returned.
    """
    if not rows:
        return ()
    n = len(rows[0])
    basis = row_space_basis(rows)
    if not basis:
        return ()
    normals = nullspace(basis, n)
    if not normals:
        return mat(_hnf_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)]))
    cleared = []
    for row in normals:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        cleared.append([int(x * lcm) for x in row])
    return kernel_lattice(mat(cleared), n)


def primitive_functional(coeffs: Vec, offset: Fraction) -> tuple[Vec, Fraction]:
    """Scale (a, beta) by a positive rational so a is integral primitive."""
    lcm = 1
    for x in coeffs:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in coeffs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return zeros(len(coeffs)), offset * lcm
    s = Fraction(lcm, g)
    return tuple(Fraction(i // g) for i in ints), offset * s
