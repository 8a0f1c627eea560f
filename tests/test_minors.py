import random
import re
from fractions import Fraction as Fr
from itertools import permutations
from math import comb

import numpy as np
import pytest

from branesim import minors
from branesim.minors import (
    ConfigError,
    all_minors,
    cauchy_binet_check,
    enumerate_layout,
    laplace_mixed,
    minor,
    xi,
    xi_minor_sum,
    xi_prime,
    xi_prime_minor_sum,
    z_matrix,
    z_minor_sum,
)

SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]


def rand_matrix(rng, m, n):
    return [[Fr(rng.randint(-10, 10), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]


# ---------------------------------------------------------------------------
# ordinals (minors._rank): the parity behind every sign


def test_ordinal_examples():
    assert minors._rank((2, 5), 3) == 2
    assert minors._rank((2, 5), 2) == 1
    assert minors._rank((), 7) == 1


def test_ordinal_is_stable_under_insertion():
    rng = random.Random(0)
    for _ in range(200):
        bound = rng.randint(1, 8)
        A = tuple(sorted(rng.sample(range(1, bound + 1), rng.randint(0, bound))))
        alpha = rng.randint(1, bound)
        merged = tuple(sorted(set(A) | {alpha}))
        assert minors._rank(A, alpha) == minors._rank(merged, alpha)


def test_ordinal_swap_parity_exhaustive():
    # O_I(i) + O_{I u {i}}(j) == O_I(j) + O_{I \\ {j}}(i) + 1  (mod 2), i not in I, j in I
    from itertools import combinations

    for bound in range(2, 7):
        for k in range(1, bound + 1):
            for I in combinations(range(1, bound + 1), k):
                for j in I:
                    for i in range(1, bound + 1):
                        if i in I:
                            continue
                        lhs = minors._rank(I, i) + minors._rank(tuple(sorted(I + (i,))), j)
                        rhs = minors._rank(I, j) + minors._rank(tuple(x for x in I if x != j), i) + 1
                        assert (lhs - rhs) % 2 == 0


# ---------------------------------------------------------------------------
# layout


def test_layout_small_examples():
    lay = enumerate_layout(1, 1)
    assert lay._raw == (((1,), (1,)),)
    lay = enumerate_layout(2, 2)
    assert lay.minor_count == 5
    assert lay._raw[-1] == ((1, 2), (1, 2))
    assert enumerate_layout(2, 3).minor_count == 9


def test_layout_counts_match_binomials():
    # brute-force subset count oracle
    from itertools import combinations

    for m in range(1, 5):
        for n in range(1, 5):
            lay = enumerate_layout(m, n)
            brute = 0
            for k in range(1, min(m, n) + 1):
                brute += len(list(combinations(range(m), k))) * len(list(combinations(range(n), k)))
            assert lay.minor_count == brute == comb(m + n, n) - 1
            assert lay.state_dim == n + m + comb(m + n, n)
            # each pair appears exactly once, ordering is k- then lex-sorted
            assert len(set(lay._raw)) == lay.minor_count
            assert list(lay._raw) == sorted(lay._raw, key=lambda p: (len(p[0]), p[0], p[1]))


def test_layout_rejects_bad_dims():
    with pytest.raises(ConfigError):
        enumerate_layout.__wrapped__(0, 2)
    with pytest.raises(ConfigError):
        enumerate_layout.__wrapped__(2, -1)


# ---------------------------------------------------------------------------
# minors


def test_minor_examples():
    F = [[1, 2], [3, 4]]
    assert minor(F, (1, 2), (1, 2)) == -2
    assert minor(F, (), ()) == 1
    assert minor(F, (2,), (1,)) == 3
    with pytest.raises(ConfigError):
        minor(F, (1, 2), (1,))
    with pytest.raises(ConfigError):
        minor(F, (3,), (1,))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: minor([[1, 2], [3, 4], [5, 6]], (3, 1), (1, 2)), "row set (3, 1)"),
        (lambda: minor([[1, 2], [3, 4], [5, 6]], (1, 1), (1, 2)), "row set (1, 1)"),
        (lambda: cauchy_binet_check([[1, 2], [3, 4]], [[1, 0], [0, 1]], [((2, 1), (1, 2))]), "row set (2, 1)"),
        (lambda: cauchy_binet_check([[1, 2]], [[3], [4]], [((), ()), ((1,), (2,))]), "column set (2,)"),
    ],
    ids=[
        "minor_unsorted_rows",
        "minor_repeated_row",
        "cb_unsorted_rows",
        "cb_column_past_n",
    ],
)
def test_index_sets_must_increase_strictly_within_range(call, named):
    # all but the last used to return a number: a repeat or a set out of order, and only a set's ends were checked
    with pytest.raises(ConfigError, match=re.escape(f"{named} must be strictly increasing within 1..")):
        call()


def test_all_minors_examples():
    lay = enumerate_layout(2, 2)
    assert all_minors([[0, 0], [0, 0]], lay) == [0, 0, 0, 0, 0]
    assert all_minors([[1, 0], [0, 1]], lay) == [1, 0, 0, 1, 1]
    assert all_minors([[1, 2], [3, 4]], lay) == [1, 2, 3, 4, -2]
    with pytest.raises(ConfigError):
        all_minors([[1, 2, 3]], lay)


def _leibniz(F):
    """Sum over permutations of signed products: an oracle independent of the cofactor expansion."""
    total = 0
    for perm in permutations(range(len(F))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = minors._sign(inversions)
        for row, col in enumerate(perm):
            term = term * F[row][col]
        total = total + term
    return total


class RingOnly:
    """An integer that offers only ring arithmetic: no division and no truth value."""

    def __init__(self, v):
        self.v = v

    @staticmethod
    def _val(x):
        return x.v if isinstance(x, RingOnly) else x

    def __add__(self, o):
        return RingOnly(self.v + self._val(o))

    __radd__ = __add__

    def __sub__(self, o):
        return RingOnly(self.v - self._val(o))

    def __rsub__(self, o):
        return RingOnly(self._val(o) - self.v)

    def __neg__(self):
        return RingOnly(-self.v)

    def __mul__(self, o):
        return RingOnly(self.v * self._val(o))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e != 0:
            raise TypeError("only ** 0")
        return RingOnly(1)

    def __eq__(self, o):
        return self.v == self._val(o)

    def _no(self, *_):
        raise TypeError("not a ring operation")

    __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = __bool__ = _no


def test_large_determinants_match_the_leibniz_sum_over_any_ring():
    rng = random.Random(5)
    for k in (4, 5, 6):
        for _ in range(3):
            F = rand_matrix(rng, k, k)
            assert minor(F, range(1, k + 1), range(1, k + 1)) == _leibniz(F)
            G = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            got = minors._det([[RingOnly(x) for x in row] for row in G])
            assert type(got) is RingOnly and got == _leibniz(G)
    # integer entries give an integer determinant at every size
    G = np.random.default_rng(5).integers(-5, 6, (4, 4))
    got = minor(G, (1, 2, 3, 4), (1, 2, 3, 4))
    assert isinstance(got, np.integer) and got == _leibniz(G.tolist())
    # the determinant side of the identities needs only ring arithmetic at 4x4 too
    G = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    R = [[RingOnly(x) for x in row] for row in G]
    assert xi(R) == xi(G)
    got, want = xi_prime(R), xi_prime(G)
    for name, i in (("z_matrix", 1), ("xi_prime", 2)):
        assert all(type(x) is RingOnly for row in got[i] for x in row), name
        assert got[i] == want[i], name
    assert type(got[0]) is RingOnly and got[0] == want[0] == xi(G)
    assert z_matrix(R) == got[1]


# ---------------------------------------------------------------------------
# Cauchy-Binet


def test_cauchy_binet_examples():
    [(lhs, rhs)] = cauchy_binet_check([[1, 2]], [[3], [4]], [((1,), (1,))])
    assert (lhs, rhs) == (11, 11)
    [(lhs, rhs)] = cauchy_binet_check([[1, 2]], [[3], [4]], [((), ())])
    assert (lhs, rhs) == (1, 1)
    # one call answers its pairs in order
    assert cauchy_binet_check([[1, 2]], [[3], [4]], [((1,), (1,)), ((), ())]) == [(11, 11), (1, 1)]
    assert cauchy_binet_check([[1, 2]], [[3], [4]], []) == []
    with pytest.raises(ConfigError):
        cauchy_binet_check([[1, 2]], [[3, 4]], [((1,), (1,))])
    with pytest.raises(ConfigError, match="equal size"):
        cauchy_binet_check([[1, 2]], [[3], [4]], [((1,), ())])
    with pytest.raises(ConfigError, match="exceeds inner dimension 1"):
        cauchy_binet_check([[1], [2]], [[3, 4]], [((1, 2), (1, 2))])


def test_cauchy_binet_random_exact():
    rng = random.Random(17)
    from itertools import combinations

    for _ in range(60):
        m, l, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        M = rand_matrix(rng, m, l)
        N = rand_matrix(rng, l, n)
        pairs = [
            (I, J)
            for k in range(0, min(m, n, l) + 1)
            for I in combinations(range(1, m + 1), k)
            for J in combinations(range(1, n + 1), k)
        ]
        got = cauchy_binet_check(M, N, pairs)
        assert len(got) == len(pairs)
        for lhs, rhs in got:
            assert lhs == rhs


def test_cauchy_binet_product_determinant_oracle():
    # direct determinant of the product for full-size square minors
    rng = random.Random(23)
    for _ in range(40):
        M = rand_matrix(rng, 3, 2)
        N = rand_matrix(rng, 2, 3)
        [(lhs, rhs)] = cauchy_binet_check(M, N, [((1, 2), (2, 3))])
        prod = [[sum(M[a][t] * N[t][b] for t in range(2)) for b in range(3)] for a in range(3)]
        assert lhs == rhs == minor(prod, (1, 2), (2, 3))


# ---------------------------------------------------------------------------
# xi and the minor-sum identities


def test_xi_examples():
    assert xi([[Fr(3, 2)]]) == 1 + Fr(9, 4)
    assert xi([[0, 0], [0, 0]]) == 1
    lay = enumerate_layout(2, 2)
    F = [[1, 2], [3, 4]]
    assert xi(F) == 35
    assert xi_minor_sum(all_minors(F, lay), lay) == 35


def test_xi_prime_examples():
    # (xi, Z, xi') of one I + FᵀF
    assert xi_prime([[Fr(5, 3)]]) == (1 + Fr(25, 9), [[1]], [[Fr(5, 3)]])
    assert xi_prime([[0, 0], [0, 0]]) == (1, [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    assert xi_prime([[1, 2], [3, 4]]) == (35, [[21, -14], [-14, 11]], [[-7, 8], [7, 2]])


def test_z_examples():
    assert z_matrix([[Fr(7, 2)]]) == [[1]]
    assert z_matrix([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]


def test_laplace_mixed_examples():
    F = [[Fr(2), Fr(5)], [Fr(-1), Fr(3)]]
    lay = enumerate_layout(2, 2)
    L = laplace_mixed(F, lay)
    # one k x n matrix per pair, in layout order
    assert [(len(x), len(x[0])) for x in L] == [(len(A), 2) for A, _ in lay._raw]
    # k = 1: the sum collapses to (-1)^{1+1} [F]_{(),()} F_{alpha j} = F_{alpha j},
    # matching the replaced-column side of the identity
    assert L[lay.slot((1,), (2,))] == [F[0]]
    assert L[lay.slot((1,), (2,))][0][0] == minor(F, (1,), (1,))
    # k = 2 on a square F: adj(F) F = det(F) I
    assert L[lay.slot((1, 2), (1, 2))] == [[11, 0], [0, 11]]
    # j in I \\ {i_q} gives 0
    rng = random.Random(2)
    lay3 = enumerate_layout(3, 3)
    for _ in range(40):
        L = laplace_mixed(rand_matrix(rng, 3, 3), lay3)
        assert L[lay3.slot((1, 2), (1, 3))][1][0] == 0
        assert L[lay3.slot((1, 3), (2, 3))][0][2] == 0
    # the pairs come from the layout, so F is checked against it once
    with pytest.raises(ConfigError, match="matrix is 2x2 but layout is 2x3"):
        laplace_mixed(F, enumerate_layout(2, 3))
    with pytest.raises(ConfigError, match="ragged"):
        laplace_mixed([[1, 2], [3]], lay)


@pytest.mark.parametrize("shape", SHAPES)
def test_identities_exact_random(shape):
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = random.Random(100 * m + n)
    for _ in range(30):
        F = rand_matrix(rng, m, n)
        mv = all_minors(F, lay)
        x, Z, xp = xi_prime(F)
        assert x == xi(F) == xi_minor_sum(mv, lay)
        assert xp == xi_prime_minor_sum(mv, lay)
        assert Z == z_matrix(F) == z_minor_sum(mv, lay)
        Ls = laplace_mixed(F, lay)
        assert len(Ls) == lay.minor_count
        for (A, I), L in zip(lay._raw, Ls):
            assert len(L) == len(A) and all(len(row) == n for row in L)
            for q in range(1, len(A) + 1):
                for j in range(1, n + 1):
                    got = L[q - 1][j - 1]
                    iq = I[q - 1]
                    icut = tuple(x for x in I if x != iq)
                    if j in icut:
                        assert got == 0
                    else:
                        swapped = tuple(sorted(icut + (j,)))
                        sign = minors._sign(minors._rank(swapped, j) + q)
                        assert got == sign * minor(F, A, swapped)


def _laplace_by_definition(F, A, I, q, j):
    # sum_p (-1)^{p+q} [F]_{A \\ a_p, I \\ i_q} F_{a_p j}, term by term through minor()
    icut = I[: q - 1] + I[q:]
    return sum(
        minors._sign(p + q) * minor(F, A[: p - 1] + A[p:], icut) * F[A[p - 1] - 1][j - 1]
        for p in range(1, len(A) + 1)
    )


def test_laplace_mixed_is_its_defining_sum_and_checks_the_adjugate_signs(monkeypatch):
    from branesim.cli import cmd_verify

    rng = random.Random(41)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            lay = enumerate_layout(m, n)
            for _ in range(5):
                F = [[rng.randint(-15, 15) for _ in range(n)] for _ in range(m)]
                for (A, I), got in zip(lay._raw, laplace_mixed(F, lay), strict=True):
                    want = [
                        [_laplace_by_definition(F, A, I, q, j) for j in range(1, n + 1)]
                        for q in range(1, len(A) + 1)
                    ]
                    assert got == want, (F, A, I)
    # the Laplace suite reads its cofactors from the adjugate the solver uses, and Z and xi'
    # are that adjugate of I + FᵀF, so one flipped off-diagonal sign there fails all three
    # wherever a pair has k >= 2 and n >= 2; xi is the determinant of the same I + FᵀF, and
    # neither it nor Cauchy-Binet reads the adjugate
    real = minors._adjugate

    def flipped(rows):
        adj = real(rows)
        if len(adj) >= 2:
            adj[0][1] = -adj[0][1]
        return adj

    monkeypatch.setattr(minors, "_adjugate", flipped)
    assert cmd_verify(shapes=[(3, 1)], samples=4, seed=5).all_passed()  # k = 1 only
    for shape in ((2, 2), (3, 3)):
        report = cmd_verify(shapes=[shape], samples=4, seed=5)
        fails = {name: v["fail"] for name, v in report.passes.items()}
        assert fails == {"xi": 0, "cauchy_binet": 0, "z_matrix": 4, "xi_prime": 4, "laplace_mixed": 4}, shape


def test_z_is_symmetric_positive_definite():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m, n = rng.integers(1, 4), rng.integers(1, 4)
        F = rng.uniform(-2, 2, (m, n))
        Z = np.array(z_matrix(F), dtype=float)
        assert np.allclose(Z, Z.T, atol=0)
        np.linalg.cholesky(Z)  # raises if not positive definite


# ---------------------------------------------------------------------------
# the determinant side on array entries, as the oracle and the MCF metric run it


def _leibniz_adjugate(G):
    """adj(G)[i][j] = (-1)^{i+j} det(G without row j and column i), each det a Leibniz sum."""
    k = len(G)
    return [
        [
            minors._sign(i + j) * _leibniz([[G[p][q] for q in range(k) if q != i] for p in range(k) if p != j])
            for j in range(k)
        ]
        for i in range(k)
    ]


@pytest.mark.parametrize("shape", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)] + [(m, n) for m in (1, 2) for n in (4, 5)])
def test_determinant_side_on_grid_arrays_matches_each_point_exactly(shape):
    # small integer values keep every float product and sum exact, so the whole-grid
    # evaluation must equal, bit for bit, an integer oracle per point that shares no
    # code with minors: I + FᵀF summed directly, and Leibniz sums for its det and adjugate
    m, n = shape
    F = np.random.default_rng(10 * m + n).integers(-3, 4, (m, n, 4, 3)).astype(float)
    got_xi, got_z, got_xp = xi_prime(F)
    assert np.array_equal(xi(F), got_xi) and np.array_equal(z_matrix(F), got_z)
    for p in np.ndindex(*F.shape[2:]):
        Fp = [[int(F[(a, i) + p]) for i in range(n)] for a in range(m)]
        gram = [[int(i == j) + sum(Fp[a][i] * Fp[a][j] for a in range(m)) for j in range(n)] for i in range(n)]
        Z = _leibniz_adjugate(gram)
        want = {
            "xi": _leibniz(gram),
            "z_matrix": Z,
            "xi_prime": [[sum(Fp[a][j] * Z[j][i] for j in range(n)) for i in range(n)] for a in range(m)],
        }
        assert got_xi[p] == want["xi"], p
        for name, got in (("xi_prime", got_xp), ("z_matrix", got_z)):
            for a, row in enumerate(want[name]):
                for i, w in enumerate(row):
                    assert got[a][i][p] == w, (name, a, i, p)
    # on the solver path the bytes of xi, xi_prime and z_matrix must be those of
    # I_n + FᵀF formed with a literal 1, summed in the same order
    F = np.random.default_rng(10 * m + n).uniform(-3, 3, (m, n, 4, 3))
    rows = minors._rows(F)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = rows[0][i] * rows[0][j]
            for a in range(1, m):
                acc = acc + rows[a][i] * rows[a][j]
            gram[i][j] = acc + 1 if i == j else acc
    adj = minors._adjugate(gram)
    want = {
        "xi": minors._det(gram),
        "xi_prime": [[sum(rows[a][j] * adj[j][i] for j in range(n)) for i in range(n)] for a in range(m)],
        "z_matrix": adj,
    }
    got = dict(zip(("xi", "z_matrix", "xi_prime"), xi_prime(F)))
    for name in ("xi", "xi_prime", "z_matrix"):
        assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name
