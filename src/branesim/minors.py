"""Exact algebra of matrix minors.

Everything in here is written generically over the scalar type: pass
`fractions.Fraction` entries for zero-tolerance identity checking, floats for
the solver path, or numpy arrays as entries to evaluate a formula over a whole
grid at once.  No function mutates its arguments.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import comb


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
    """Determinant of a small square matrix of generic scalars.

    Laplace-style closed forms up to 3x3, fraction-free elimination above;
    the closed forms are branch-free so array-valued entries work too.
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
    return _det_bareiss(rows)


def _det_bareiss(rows):
    a = [list(r) for r in rows]
    k = len(a)
    sign = 1
    prev = 1
    for p in range(k - 1):
        if a[p][p] == 0:
            for q in range(p + 1, k):
                if a[q][p] != 0:
                    a[p], a[q] = a[q], a[p]
                    sign = -sign
                    break
            else:
                return 0 * a[0][0]
        for i in range(p + 1, k):
            for j in range(p + 1, k):
                num = a[i][j] * a[p][p] - a[i][p] * a[p][j]
                # Bareiss division is exact; keep integers in the integers
                a[i][j] = num // prev if isinstance(num, int) else num / prev
        prev = a[p][p]
    return sign * a[-1][-1]


def _adjugate(rows) -> list[list]:
    k, k2 = _dims(rows)
    if k != k2:
        raise ConfigError("adjugate needs a square matrix")
    if k == 1:
        return [[rows[0][0] ** 0]]
    adj = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            sub = [[rows[p][q] for q in range(k) if q != j] for p in range(k) if p != i]
            adj[j][i] = _sign(i + j) * _det(sub)
    return adj


def _gram_plus_identity(rows) -> list[list]:
    # I_n + F^T F
    m, n = _dims(rows)
    out = [[sum(rows[a][i] * rows[a][j] for a in range(m)) for j in range(n)] for i in range(n)]
    for i in range(n):
        out[i][i] = out[i][i] + 1
    return out


# ---------------------------------------------------------------------------
# public operations


def minor(F, A, I):
    """Determinant of the submatrix with rows A and columns I; 1 if both empty."""
    rows = _rows(F)
    m, n = _dims(rows)
    a, i = tuple(A), tuple(I)
    if len(a) != len(i):
        raise ConfigError(f"row and column sets must have equal size, got {a} vs {i}")
    if a and (a[0] < 1 or a[-1] > m):
        raise ConfigError(f"row set {a} out of range for {m} rows")
    if i and (i[0] < 1 or i[-1] > n):
        raise ConfigError(f"column set {i} out of range for {n} columns")
    if not a:
        return 1
    return _det([[rows[p - 1][q - 1] for q in i] for p in a])


def all_minors(F, layout: MinorLayout) -> list:
    """All minors of F in layout order."""
    rows = _rows(F)
    m, n = _dims(rows)
    if (m, n) != (layout.m, layout.n):
        raise ConfigError(f"matrix is {m}x{n} but layout is {layout.m}x{layout.n}")
    out = []
    for A, I in layout._raw:
        out.append(_det([[rows[p - 1][q - 1] for q in I] for p in A]))
    return out


def cauchy_binet_check(M, N, I, J):
    """(lhs, rhs) of the Cauchy-Binet identity [MN]_{I,J} = sum_K [M]_{I,K}[N]_{K,J}."""
    mr = _rows(M)
    nr = _rows(N)
    m, l = _dims(mr)
    l2, n = _dims(nr)
    if l != l2:
        raise ConfigError(f"inner dimensions differ: {l} vs {l2}")
    iset, jset = tuple(I), tuple(J)
    k = len(iset)
    if len(jset) != k:
        raise ConfigError("row and column subsets must have equal size")
    if k > l:
        raise ConfigError(f"subset size {k} exceeds inner dimension {l}")
    prod = [[sum(mr[a][t] * nr[t][b] for t in range(l)) for b in range(n)] for a in range(m)]
    lhs = minor(prod, iset, jset)
    rhs = 0
    for K in combinations(range(1, l + 1), k):
        rhs = rhs + minor(mr, iset, K) * minor(nr, K, jset)
    if k == 0:
        rhs = 1
    return lhs, rhs


def xi(F):
    """det(I_n + F^T F), the area-element factor of the graph."""
    return _det(_gram_plus_identity(_rows(F)))


def xi_minor_sum(minors_vec, layout: MinorLayout | None = None):
    """1 + sum of squared minors; equals xi(F) when the vector holds all minors of F."""
    if layout is not None and len(minors_vec) != layout.minor_count:
        raise ConfigError("minor vector length does not match layout")
    out = 1
    for v in minors_vec:
        out = out + v * v
    return out


def xi_prime(F):
    """Half-gradient of xi: xi'(F)_{ai} = xi (I_n + F^T F)^{-1}_{ij} F_{aj}.

    Evaluated through the adjugate, so it is exact on rational input and never
    divides (I_n + F^T F is positive definite, but no inverse is formed).
    """
    rows = _rows(F)
    m, n = _dims(rows)
    adj = _adjugate(_gram_plus_identity(rows))
    return [[sum(rows[a][j] * adj[j][i] for j in range(n)) for i in range(n)] for a in range(m)]


def xi_prime_minor_sum(minors_vec, layout: MinorLayout):
    """xi' assembled from minors alone, with signs (-1)^{O_A(a)+O_I(i)}."""
    if len(minors_vec) != layout.minor_count:
        raise ConfigError("minor vector length does not match layout")

    def val(a, i):
        return 1 if not a else minors_vec[layout.index_of[(a, i)]]

    out = [[0] * layout.n for _ in range(layout.m)]
    for idx, (A, I) in enumerate(layout._raw):
        v = minors_vec[idx]
        for alpha in A:
            sa = _rank(A, alpha)
            arest = tuple(x for x in A if x != alpha)
            for i in I:
                s = _sign(sa + _rank(I, i))
                irest = tuple(x for x in I if x != i)
                out[alpha - 1][i - 1] = out[alpha - 1][i - 1] + s * v * val(arest, irest)
    return out


def z_matrix(F):
    """Z = xi (I_n + F^T F)^{-1}, via the adjugate; symmetric positive definite."""
    return _adjugate(_gram_plus_identity(_rows(F)))


def z_minor_sum(minors_vec, layout: MinorLayout):
    """Z assembled from minors: (1 + sum m^2) delta_ij minus the signed swap products."""
    if len(minors_vec) != layout.minor_count:
        raise ConfigError("minor vector length does not match layout")
    n = layout.n
    s2 = xi_minor_sum(minors_vec)
    out = [[s2 if i == j else 0 for j in range(n)] for i in range(n)]
    for idx, (A, I) in enumerate(layout._raw):
        v = minors_vec[idx]
        for j in I:
            irest = tuple(x for x in I if x != j)
            sj = _rank(I, j)
            for i in range(1, n + 1):
                if i in irest:
                    continue
                swapped = tuple(sorted(irest + (i,)))
                s = _sign(sj + _rank(irest, i))
                term = s * minors_vec[layout.index_of[(A, swapped)]] * v
                out[i - 1][j - 1] = out[i - 1][j - 1] - term
    return out


def laplace_mixed(F, A, I, q: int, j: int):
    """Mixed Laplace sum sum_p (-1)^{p+q} [F]_{A\\{a_p}, I\\{i_q}} F_{a_p j}.

    Equals 0 when j lies in I\\{i_q}, and otherwise a signed minor with column
    i_q replaced by j; the contract is exercised by the tests.
    """
    rows = _rows(F)
    m, n = _dims(rows)
    a, iset = tuple(A), tuple(I)
    k = len(a)
    if k != len(iset) or k < 1:
        raise ConfigError("need |A| = |I| >= 1")
    if not 1 <= q <= k:
        raise ConfigError(f"position q={q} out of range 1..{k}")
    if not 1 <= j <= n:
        raise ConfigError(f"column j={j} out of range 1..{n}")
    if a[-1] > m or iset[-1] > n:
        raise ConfigError("index set out of matrix range")
    icut = tuple(x for x in iset if x != iset[q - 1])
    out = 0
    for p in range(1, k + 1):
        acut = tuple(x for x in a if x != a[p - 1])
        out = out + _sign(p + q) * minor(rows, acut, icut) * rows[a[p - 1] - 1][j - 1]
    return out
