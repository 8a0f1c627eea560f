"""Exact algebra of matrix minors.

Entries only meet +, -, * (with each other and with integers) and ** 0: no
division and no truth test, so everything works over any commutative ring.
Pass ints, `fractions.Fraction` or any other exact scalar for identity
checking (verify draws ints), floats for the solver path, or numpy arrays as
entries to evaluate a formula over a whole grid at once, at every matrix
size.  No function mutates its arguments.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul


class ConfigError(ValueError):
    """An input is missing, malformed, or outside an operation's domain; the CLI exits 2."""


# ---------------------------------------------------------------------------
# index subsets and their ranks


def _rank(elems: tuple[int, ...], x: int) -> int:
    """1-based rank of x within elems ∪ {x}; elems must be sorted.

    This is the quantity whose parity drives every sign in the minor
    expansions; it satisfies _rank(A, a) == _rank(A ∪ {a}, a).
    """
    return 1 + bisect_left(elems, x)


def _sign(k: int):
    return -1 if k % 2 else 1


def _index_set(s, bound: int, what: str) -> tuple[int, ...]:
    """s as a tuple; ConfigError naming it unless it is strictly increasing within 1..bound."""
    t = tuple(s)
    if not all(lo < hi for lo, hi in zip((0,) + t, t + (bound + 1,))):
        raise ConfigError(f"{what} {t} must be strictly increasing within 1..{bound}")
    return t


# ---------------------------------------------------------------------------
# layout of all (A, I) pairs


class MinorLayout:
    """Canonical enumeration of the minor labels of an m x n matrix.

    Pairs are ordered by size k ascending, then row set lexicographic, then
    column set lexicographic.  The same object also fixes the layout of the
    evolution state vector (tau, d_1..d_m, v_1..v_n, minors...), with the
    convention that the empty pair maps onto the tau slot.
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ConfigError(f"matrix dimensions must be >= 1, got ({m}, {n})")
        self.m = m
        self.n = n
        self.r = min(m, n)
        raw = []
        for k in range(1, self.r + 1):
            for A in combinations(range(1, m + 1), k):
                for I in combinations(range(1, n + 1), k):
                    raw.append((A, I))
        self._raw = tuple(raw)
        self.index_of = {p: i for i, p in enumerate(self._raw)}
        self.minor_count = len(raw)
        assert self.minor_count == comb(m + n, n) - 1
        self.state_dim = 1 + m + n + self.minor_count

    # --- slots in the minor block -----------------------------------------
    def slot(self, A, I) -> int:
        key = (tuple(A), tuple(I))
        try:
            return self.index_of[key]
        except KeyError:
            raise ConfigError(f"no minor slot for pair {key} in a {self.m}x{self.n} layout") from None

    # --- slots in the full state vector ------------------------------------
    def d_slot(self, alpha: int) -> int:
        return alpha

    def v_slot(self, i: int) -> int:
        return self.m + i

    def state_slot(self, A, I) -> int:
        """State-vector slot of m_{A,I}; the empty pair routes to tau."""
        a, i = tuple(A), tuple(I)
        if not a and not i:
            return 0
        return 1 + self.m + self.n + self.index_of[(a, i)]

    def __eq__(self, other):
        return isinstance(other, MinorLayout) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return f"MinorLayout(m={self.m}, n={self.n}, pairs={self.minor_count})"


@lru_cache(maxsize=None)
def enumerate_layout(m: int, n: int) -> MinorLayout:
    return MinorLayout(m, n)


# ---------------------------------------------------------------------------
# matrices as nested sequences


def _rows(F) -> list[list]:
    """Matrix argument as a list of row lists; entries are left untouched.

    Accepts a nested sequence or a numpy array; in the latter case any
    trailing axes are kept inside the entries, so a whole grid of matrices
    can be processed in one call.
    """
    if hasattr(F, "ndim") and hasattr(F, "shape"):
        if F.ndim < 2:
            raise ConfigError("matrix argument must be at least 2-dimensional")
        return [[F[a, i] for i in range(F.shape[1])] for a in range(F.shape[0])]
    return [list(r) for r in F]


def _dims(rows) -> tuple[int, int]:
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ConfigError("ragged rows")
    return m, n


def _det(rows) -> object:
    """Determinant of a small square matrix over any commutative ring.

    Cofactor expansion along the first row down to the 3x3 and 2x2 closed
    forms, which are that expansion written out.  It only adds, subtracts and
    multiplies entries: no division and no branch on a value, so exact
    integers stay integers, array-valued entries work at every size, and so
    does any scalar with ring arithmetic.
    """
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # unpacking, not r[:j] + r[j + 1:], which adds the rows of an ndarray elementwise
    terms = (rows[0][j] * _det([[*r[:j], *r[j + 1:]] for r in rows[1:]]) for j in range(k))
    total = next(terms)
    for j, term in enumerate(terms, 1):
        total = total - term if j % 2 else total + term
    return total


def _adjugate(rows) -> list[list]:
    """adj(R) of a square R built by the caller, so that adj(R) · R = det(R) · I.

    adj(R)[j][i] = (-1)^(i+j) det(R without row i and column j).  The 2x2 and 3x3
    forms are that cofactor loop written out, entry for entry with the same float
    operations: an entry with odd i + j is -(the same 2x2 determinant), not the
    swapped difference, so float grids, signed zeros included, keep their bits.
    """
    k = len(rows)
    if k == 1:
        return [[rows[0][0] ** 0]]
    if k == 2:
        (a, b), (c, d) = rows
        return [[d, -b], [-c, a]]
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return [
            [e * i - f * h, -(b * i - c * h), b * f - c * e],
            [-(d * i - f * g), a * i - c * g, -(a * f - c * d)],
            [d * h - e * g, -(a * h - b * g), a * e - b * d],
        ]
    adj = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            sub = [[rows[p][q] for q in range(k) if q != j] for p in range(k) if p != i]
            d = _det(sub)
            adj[j][i] = -d if (i + j) % 2 else d
    return adj


def _gram_plus_identity(rows) -> list[list]:
    """I_n + F^T F; each entry of the symmetric matrix is formed once, and shared with its mirror."""
    m, n = _dims(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = rows[0][i] * rows[0][j]
            for a in range(1, m):
                acc = acc + rows[a][i] * rows[a][j]
            out[i][j] = out[j][i] = acc + 1 if i == j else acc
    return out


# ---------------------------------------------------------------------------
# per-layout term tables of the minor sums
#
# Each entry names an output cell (row r, column c as r n + c), the slots of the
# minors whose product is the term, and whether it enters with a minus sign.  Only
# the minor-sum side reads these; the determinant side never does.


@lru_cache(maxsize=None)
def _xi_prime_table(layout: MinorLayout) -> tuple:
    """(cell, slot, rest, minus) per term m_{A,I} m_{A\\a, I\\i} of xi'_{ai}; rest is None when A\\a is empty."""
    n = layout.n
    out = []
    for slot, (A, I) in enumerate(layout._raw):
        for alpha in A:
            arest = tuple(x for x in A if x != alpha)
            for i in I:
                irest = tuple(x for x in I if x != i)
                rest = layout.index_of[(arest, irest)] if arest else None
                minus = (_rank(A, alpha) + _rank(I, i)) % 2 == 1
                out.append(((alpha - 1) * n + i - 1, slot, rest, minus))
    return tuple(out)


@lru_cache(maxsize=None)
def _z_table(layout: MinorLayout) -> tuple:
    """(cell, slot, swap, minus) per swap product m_{A,(I\\j) u i} m_{A,I} taken off Z_ij; minus for sign +1."""
    n = layout.n
    out = []
    for slot, (A, I) in enumerate(layout._raw):
        for j in I:
            irest = tuple(x for x in I if x != j)
            for i in range(1, n + 1):
                if i in irest:
                    continue
                swap = layout.index_of[(A, tuple(sorted(irest + (i,))))]
                minus = (_rank(I, j) + _rank(irest, i)) % 2 == 0
                out.append(((i - 1) * n + j - 1, slot, swap, minus))
    return tuple(out)


# ---------------------------------------------------------------------------
# public operations


def _submatrix(rows, A, I) -> list[list]:
    return [[rows[p - 1][q - 1] for q in I] for p in A]


def minor(F, A, I):
    """Determinant of the submatrix with rows A and columns I; 1 if both empty.

    A and I are strictly increasing index sets within 1..m and 1..n.
    """
    rows = _rows(F)
    m, n = _dims(rows)
    a, i = _index_set(A, m, "row set"), _index_set(I, n, "column set")
    if len(a) != len(i):
        raise ConfigError(f"row and column sets must have equal size, got {a} vs {i}")
    return _det(_submatrix(rows, a, i))


def _layout_rows(F, layout: MinorLayout) -> list[list]:
    rows = _rows(F)
    m, n = _dims(rows)
    if (m, n) != (layout.m, layout.n):
        raise ConfigError(f"matrix is {m}x{n} but layout is {layout.m}x{layout.n}")
    return rows


def all_minors(F, layout: MinorLayout) -> list:
    """All minors of F in layout order."""
    rows = _layout_rows(F, layout)
    return [_det(_submatrix(rows, A, I)) for A, I in layout._raw]


def cauchy_binet_check(M, N, pairs) -> list[tuple]:
    """(lhs, rhs) of the Cauchy-Binet identity [MN]_{I,J} = sum_K [M]_{I,K}[N]_{K,J} per pair; MN is formed once."""
    mr = _rows(M)
    nr = _rows(N)
    m, l = _dims(mr)
    l2, n = _dims(nr)
    if l != l2:
        raise ConfigError(f"inner dimensions differ: {l} vs {l2}")
    prod = [[sum(mr[a][t] * nr[t][b] for t in range(l)) for b in range(n)] for a in range(m)]
    out = []
    for I, J in pairs:
        iset, jset = _index_set(I, m, "row set"), _index_set(J, n, "column set")
        k = len(iset)
        if len(jset) != k:
            raise ConfigError("row and column subsets must have equal size")
        if k > l:
            raise ConfigError(f"subset size {k} exceeds inner dimension {l}")
        rhs = 0
        for K in combinations(range(1, l + 1), k):
            rhs = rhs + _det(_submatrix(mr, iset, K)) * _det(_submatrix(nr, K, jset))
        out.append((minor(prod, iset, jset), rhs))
    return out


def xi(F):
    """det(I_n + F^T F), the area-element factor of the graph: the first of xi_prime(F)."""
    return _det(_gram_plus_identity(_rows(F)))


def _squares(minors_vec):
    """1 + sum of squared minors; z_minor_sum reads it, not xi_minor_sum, so a fault in one fails one identity."""
    out = 1
    for v in minors_vec:
        out = out + v * v
    return out


def xi_minor_sum(minors_vec, layout: MinorLayout):
    """1 + sum of squared minors; equals xi(F) when the vector holds all minors of F."""
    if len(minors_vec) != layout.minor_count:
        raise ConfigError("minor vector length does not match layout")
    return _squares(minors_vec)


def xi_prime(F):
    """(xi, Z, xi') from one I_n + F^T F: its determinant, its adjugate Z and F Z.

    xi'(F)_{ai} = xi (I_n + F^T F)^{-1}_{ij} F_{aj} is the half-gradient of xi.
    Evaluated through the adjugate, so it is exact on integer or rational input
    and never divides (I_n + F^T F is positive definite, but no inverse is formed).
    """
    rows = _rows(F)
    m, n = _dims(rows)
    gram = _gram_plus_identity(rows)
    adj = _adjugate(gram)
    return _det(gram), adj, [[sum(rows[a][j] * adj[j][i] for j in range(n)) for i in range(n)] for a in range(m)]


def xi_prime_minor_sum(minors_vec, layout: MinorLayout):
    """xi' assembled from minors alone: sum of (-1)^{O_A(a)+O_I(i)} m_{A,I} m_{A\\a,I\\i} over A, I."""
    if len(minors_vec) != layout.minor_count:
        raise ConfigError("minor vector length does not match layout")
    out = [0] * (layout.m * layout.n)
    for cell, slot, rest, minus in _xi_prime_table(layout):
        term = minors_vec[slot] if rest is None else minors_vec[slot] * minors_vec[rest]
        out[cell] = out[cell] - term if minus else out[cell] + term
    n = layout.n
    return [out[r * n : r * n + n] for r in range(layout.m)]


def z_matrix(F):
    """Z = xi (I_n + F^T F)^{-1}, via the adjugate; symmetric positive definite: the second of xi_prime(F)."""
    return xi_prime(F)[1]


def z_minor_sum(minors_vec, layout: MinorLayout):
    """Z assembled from minors: (1 + sum m^2) delta_ij minus the signed swap products."""
    if len(minors_vec) != layout.minor_count:
        raise ConfigError("minor vector length does not match layout")
    n = layout.n
    s2 = _squares(minors_vec)
    out = [0 if c % (n + 1) else s2 for c in range(n * n)]
    for cell, slot, swap, minus in _z_table(layout):
        term = minors_vec[swap] * minors_vec[slot]
        out[cell] = out[cell] - term if minus else out[cell] + term
    return [out[r * n : r * n + n] for r in range(n)]


def laplace_mixed(F, layout: MinorLayout) -> list:
    """Mixed Laplace sums of every pair (A, I) of the layout, in layout order: the k x n
    matrix L with L[q-1][j-1] = sum_p (-1)^{p+q} [F]_{A\\{a_p}, I\\{i_q}} F_{a_p j}.

    Entry (q, j) equals 0 when j lies in I\\{i_q}, and otherwise a signed minor
    with column i_q replaced by j; the contract is exercised by the tests.  The
    signed sub-minors are the cofactors of F[A, I], so L = adj(F[A, I]) F[A, :].
    """
    rows = _layout_rows(F, layout)
    cols = {}  # the columns of F[A, :], gathered once per row set A
    out = []
    for A, I in layout._raw:
        adj = _adjugate(_submatrix(rows, A, I))
        if A not in cols:
            cols[A] = list(zip(*(rows[p - 1] for p in A)))
        out.append([[sum(map(mul, adj_row, col)) for col in cols[A]] for adj_row in adj])
    return out
