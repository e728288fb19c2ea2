"""Exact rational linear, affine and lattice algebra.

Every quantity in the geometric core is a :class:`fractions.Fraction`
(arbitrary precision, always in lowest terms with positive denominator),
a tuple of them (``Vec``) or a tuple of row tuples (``Mat``).  Tuples make
all values hashable and immutable, so equal objects compare and hash equal
bit-for-bit, which the rest of the package relies on for deduplication.

There is one rational elimination, the fraction-free ``_eliminate``, run on
rows scaled to integers; ``Fraction`` arithmetic appears only at its output.
``rref`` divides the rows by the last pivot, so the RREF stays canonical,
and ``det`` is the last pivot over the product of the row scales.

Affine subspaces are stored in a canonical form: the direction basis is the
reduced row echelon form of any spanning set, and the base point is reduced
to have zero coordinates in the pivot columns.  Two equal subspaces therefore
have identical encodings regardless of how they were constructed.

Lattices have one integer elimination, the unique row Hermite normal form
``_hnf_rows``.  The kernel lattice is read off the HNF of augmented rows
(``kernel_lattice``), and integer rows span Z^k, i.e. all elementary divisors
are 1, exactly when their HNF is the identity (Schrijver 1986, ch. 4): the
effectiveness test of a subtorus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
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


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def _integer_rows(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, with the product of those
    lcms: the rows become integral and keep their row space."""
    rows, scale = [], 1
    for row in m:
        s = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return rows, scale


def _eliminate(m: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Each step sets every other row x to (p.x - f.y) // prev, with y the pivot
    row, p its pivot, f the entry of x in the pivot column and prev the last
    pivot: exact, as every entry stays a minor of the input.  Returns the
    rows, which are the last pivot d times the RREF, the pivot columns and d.
    A swap negates the row it moves down, so d is the determinant of a
    square matrix of full rank.
    """
    rows = list(m)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], [-x for x in rows[r]]
        y = rows[r]
        p = y[c]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * x - f * z) // prev for x, z in zip(rows[i], y)]
        pivots.append(c)
        prev = p
        if r + 1 == nrows:
            break
    return rows, pivots, prev


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with its pivot column list.

    Pivots are normalized to 1 and pivot columns cleared above and below;
    zero rows sink to the bottom.  The result is the unique RREF of the
    row space, so it doubles as a canonical encoding.
    """
    red, pivots, d = _eliminate(_integer_rows(m)[0])
    return tuple(tuple(Fraction(x, d) if x else ZERO for x in row) for row in red), pivots


def row_space_basis(m: Mat) -> Mat:
    """Canonical (RREF) basis of the row space, zero rows dropped."""
    red, pivots = rref(m)
    return red[: len(pivots)]


def rank(m: Mat) -> int:
    return len(_eliminate(_integer_rows(m)[0])[1])


def nullspace(m: Mat, ncols: int | None = None) -> Mat:
    """Canonical basis of {x : m @ x = 0}, returned as rows in RREF.

    One elimination of m with its columns reversed: there the kernel vector
    of a free column ends at it and vanishes at the other free columns, so
    reversed back, by increasing leading column, the vectors are in RREF."""
    if not m:
        if ncols is None:
            raise DimensionMismatch("nullspace of empty matrix needs ncols")
        return identity(ncols)
    n = len(m[0])
    red, pivots, d = _eliminate(_integer_rows([row[::-1] for row in m])[0])
    basis = []
    for fc in reversed([c for c in range(n) if c not in pivots]):
        v = [0] * n
        v[fc] = d
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(Fraction(x, d) if x else ZERO for x in reversed(v)))
    return tuple(basis)


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
    """Exact determinant of a square matrix: the last pivot of the integer
    elimination over the product of the row scales."""
    ints, scale = _integer_rows(rows)
    _, pivots, d = _eliminate(ints)
    return Fraction(d, scale) if len(pivots) == len(rows) else ZERO


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
        red, pivots = rref(dirs)
        basis = red[: len(pivots)]
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


def direction_intersect(spaces: Sequence[AffineSubspace]) -> Mat:
    """Canonical RREF basis of the intersection of the direction spaces."""
    if not spaces:
        raise DimensionMismatch("need at least one subspace")
    n = spaces[0].ambient_dim
    if any(s.ambient_dim != n for s in spaces):
        raise DimensionMismatch("ambient dimensions differ")
    return nullspace(tuple(row for s in spaces for row, _ in s.equations()), n)


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
    return rows[:r]


def hnf_lattice_basis(generators: Mat) -> Mat:
    """HNF basis of the sublattice of Z^n spanned by integer generator rows."""
    return mat(_hnf_rows(_require_integral(generators)))


def kernel_lattice(b_t: Mat, n: int) -> Mat:
    """HNF basis of Z^n ∩ ker(b_t) for an integral k x n matrix of rank k.

    Read off the HNF of the n rows (column i of b_t | e_i): row operations
    over Z keep every row of the form (b_t.u | u) with u integral, so the HNF
    rows whose first k entries vanish end in the HNF basis of the kernel
    lattice (Cohen 1993, A Course in Computational Algebraic Number Theory,
    §2.4), and the other rows number rank(b_t).
    """
    rows = _require_integral(b_t)
    k = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("b_t shape does not match n")
    hnf = _hnf_rows([[r[i] for r in rows] + [int(i == j) for j in range(n)] for i in range(n)])
    kernel = [r[k:] for r in hnf if not any(r[:k])]
    if len(kernel) != n - k:
        raise RankDeficient("b_t must have full row rank")
    return mat(kernel)


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
    # the kernel of the normals is the span, whatever positive scaling makes them integral
    normals = tuple(primitive_functional(row, ZERO)[0] for row in nullspace(basis, n))
    return kernel_lattice(normals, n)


def primitive_functional(coeffs: Vec, offset: Fraction) -> tuple[Vec, Fraction]:
    """Scale (a, beta) by a positive rational so a is integral primitive."""
    m = lcm(*(x.denominator for x in coeffs))
    ints = [x.numerator * (m // x.denominator) for x in coeffs]
    g = gcd(*ints)
    if g == 0:
        return zeros(len(coeffs)), offset * m
    s = Fraction(m, g)
    return tuple(Fraction(i // g) for i in ints), offset * s
