"""Exact linear algebra: ranks, kernels, charpoly against brute-force oracles."""

import random
from fractions import Fraction

import pytest

from oconf.linalg import (
    EchelonBasis,
    SparseMat,
    canon,
    charpoly,
    exact_scalar,
    nullspace_of_rows,
    rank_of_rows,
)
from reference import integral_fraction_ops, is_canonical, poly_eval, rational_roots, solve_row_combination, transpose


def dense_random(rng, n, m, density=0.6, span=6):
    data = {}
    for i in range(n):
        for j in range(m):
            if rng.random() < density:
                num = rng.randint(-span, span)
                den = rng.choice([1, 1, 1, 2, 3])
                if num:
                    data[(i, j)] = Fraction(num, den)
    return SparseMat(n, m, data)


# -- brute-force charpoly oracles -------------------------------------------


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def charpoly_oracle_cofactor(M):
    """det(t I - M) by cofactor expansion over polynomial entries."""
    n = M.rows
    entries = [[[Fraction(0)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = -M.get(i, j)
            entries[i][j] = [c, Fraction(1)] if i == j else [c]

    def det(rows, cols):
        if not rows:
            return [Fraction(1)]
        i = rows[0]
        acc = [Fraction(0)]
        for t, j in enumerate(cols):
            minor = det(rows[1:], cols[:t] + cols[t + 1 :])
            term = poly_mul(entries[i][j], minor)
            sign = 1 if t % 2 == 0 else -1
            acc = [a + sign * b for a, b in zip(acc + [Fraction(0)] * (len(term) - len(acc)), term + [Fraction(0)] * (len(acc) - len(term)))]
        return acc

    out = det(list(range(n)), list(range(n)))
    return out + [Fraction(0)] * (n + 1 - len(out))


def test_charpoly_identity_2x2():
    # spec example: t^2 - 2t + 1
    assert charpoly(SparseMat.identity(2)) == [Fraction(1), Fraction(-2), Fraction(1)]


def test_charpoly_zero_3x3():
    assert charpoly(SparseMat(3, 3)) == [Fraction(0)] * 3 + [Fraction(1)]


def test_charpoly_diagonal_16():
    # (t-1)^9 (t+1)^6 (t+3), frozen by direct product expansion
    diag = [1] * 9 + [-1] * 6 + [-3]
    M = SparseMat(16, 16, {(i, i): Fraction(d) for i, d in enumerate(diag)})
    expected = [Fraction(1)]
    for d in diag:
        expected = poly_mul(expected, [Fraction(-d), Fraction(1)])
    assert charpoly(M) == expected
    # and it vanishes at each eigenvalue
    cp = charpoly(M)
    for lam in {1, -1, -3}:
        assert poly_eval(cp, Fraction(lam)) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_charpoly_matches_cofactor_oracle(n):
    rng = random.Random(1000 + n)
    for _ in range(4):
        M = dense_random(rng, n, n)
        assert charpoly(M) == charpoly_oracle_cofactor(M)


def test_charpoly_of_a_permuted_block_diagonal_matrix():
    # size 40 with denominators 2, 3, 5 and 7 in one matrix: the integer
    # recurrence must reproduce the product of the blocks' cofactor oracles
    rng = random.Random(4040)
    sizes = [1, 2, 3, 4, 5, 5, 5, 5, 5, 5]
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    data = {}
    expected = [Fraction(1)]
    start = 0
    for t, size in enumerate(sizes):
        block = dense_random(rng, size, size).scale([Fraction(1), Fraction(1, 5), Fraction(2, 7)][t % 3])
        expected = poly_mul(expected, charpoly_oracle_cofactor(block))
        for (i, j), v in block.data.items():
            data[(perm[start + i], perm[start + j])] = v
        start += size
    M = SparseMat(n, n, data)
    assert {v.denominator for v in data.values()} >= {2, 3, 5, 7}
    assert charpoly(M) == expected


def test_charpoly_companion_matrix():
    # companion of t^3 - 2t + 5 has exactly that charpoly
    M = SparseMat(3, 3, {(0, 2): Fraction(-5), (1, 0): Fraction(1), (1, 2): Fraction(2), (2, 1): Fraction(1)})
    assert charpoly(M) == [Fraction(5), Fraction(-2), Fraction(0), Fraction(1)]


def test_rank_against_rref():
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = dense_random(rng, n, m, density=0.5)
        rows = M.row_vectors()
        r1 = rank_of_rows(rows)
        # oracle: dimension minus nullity via the rational kernel
        kern = nullspace_of_rows(rows, m)
        assert r1 == m - len(kern)


def test_rank_with_zero_valued_entries():
    rows = [{0: Fraction(0)}, {1: Fraction(0), 2: Fraction(3)}]
    assert rank_of_rows(rows) == 1


def test_nullspace_vectors_annihilate():
    rng = random.Random(21)
    for _ in range(10):
        M = dense_random(rng, 4, 6, density=0.5)
        for vec in nullspace_of_rows(M.row_vectors(), 6):
            out = {}
            for (i, j), v in M.data.items():
                if j in vec:
                    out[i] = out.get(i, Fraction(0)) + v * vec[j]
            assert all(x == 0 for x in out.values())


def reference_apply(M, vec):
    """The per-entry product: walk every stored entry of M."""
    out = {}
    for (i, j), v in M.data.items():
        c = vec.get(j)
        if c is not None:
            out[i] = out.get(i, Fraction(0)) + v * c
    return {k: v for k, v in out.items() if v != 0}


def test_apply_all_matches_per_entry_apply():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        M = dense_random(rng, n, m, density=rng.choice([0.2, 0.5]))
        vecs = [{}]  # the empty vector
        for _ in range(6):
            cols = rng.sample(range(m), rng.randint(1, m))
            vecs.append({j: Fraction(rng.randint(1, 5), rng.choice([1, 2, 3])) for j in cols})
            vecs.append({j: rng.choice([-3, -1, 2, 7]) for j in cols})  # int, like EchelonBasis rows
        # kernel vectors: every image entry cancels to zero and is dropped
        vecs.extend(nullspace_of_rows(M.row_vectors(), m))
        got = M.apply_all(vecs)
        assert got == [reference_apply(M, v) for v in vecs]
        assert [M.apply(v) for v in vecs] == got
        assert all(is_canonical(x) for img in got for x in img.values())
    assert SparseMat(2, 2, {(0, 0): Fraction(1), (1, 1): Fraction(1)}).apply_all([]) == []


def test_apply_drops_cancelled_entries():
    M = SparseMat(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(-1), (1, 0): Fraction(2)})
    assert M.apply({0: 3, 1: 3}) == {1: Fraction(6)}
    assert M.apply({}) == {}


def test_from_entries_sums_repeats_and_drops_zeros():
    M = SparseMat.from_entries(2, 3, [((0, 1), Fraction(1)), ((1, 2), Fraction(2)), ((0, 1), Fraction(-1))])
    assert M == SparseMat(2, 3, {(1, 2): Fraction(2)})
    with pytest.raises(ValueError):
        SparseMat.from_entries(2, 3, [((2, 0), Fraction(1))])
    M = SparseMat.from_entries(1, 2, [((0, 0), Fraction(1, 2)), ((0, 1), Fraction(3)), ((0, 1), Fraction(1, 3))])
    assert M.data == {(0, 0): Fraction(1, 2), (0, 1): Fraction(10, 3)}
    assert all(is_canonical(v) for v in M.data.values())


def test_add_scaled_matches_add_and_scale():
    # against dense sums; + and - are add_scaled with c = 1 and c = -1
    rng = random.Random(8)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        A = dense_random(rng, n, m, density=0.5)
        C = dense_random(rng, n, m, density=rng.choice([0.0, 0.3]))
        a, x = A.to_dense(), C.to_dense()
        for c in [Fraction(0), Fraction(1), Fraction(-3, 7), 2, -1]:
            want = [[u + c * v for u, v in zip(ru, rv)] for ru, rv in zip(a, x)]
            for got in [A.add_scaled(C, c)] + [A + C] * (c == 1) + [A - C] * (c == -1):
                assert got.to_dense() == want and 0 not in got.data.values()
                assert all(is_canonical(v) for v in got.data.values())


def test_kron_matches_the_entrywise_definition():
    # (A (x) B)[i*p + r, j*q + s] = A[i, j] B[r, s], stored factor entry by
    # factor entry; span 1 makes most entries +-1, and 1 is the factor that
    # needs no product
    rng = random.Random(12)
    for _ in range(30):
        n, m, p, q = (rng.randint(1, 4) for _ in range(4))
        A = dense_random(rng, n, m, span=rng.choice([1, 6]))
        B = dense_random(rng, p, q, span=rng.choice([1, 6]))
        for L, R in ((A, B), (A, SparseMat.identity(p)), (SparseMat.identity(n), B)):
            K = L.kron(R)
            want = [((i * R.rows + r, j * R.cols + s), a * b) for (i, j), a in L.data.items() for (r, s), b in R.data.items()]
            assert (K.rows, K.cols) == (L.rows * R.rows, L.cols * R.cols)
            assert list(K.data.items()) == want and all(is_canonical(v) for v in K.data.values())


def test_add_scaled_drops_cancelled_entries():
    A = SparseMat(2, 2, {(0, 0): Fraction(3), (1, 1): Fraction(1, 2)})
    C = SparseMat.identity(2)
    got = A.add_scaled(C, Fraction(-3))
    assert got.data == {(1, 1): Fraction(-5, 2)}
    assert A.add_scaled(C, Fraction(-3)).add_scaled(SparseMat(2, 2, {(1, 1): Fraction(1)}), Fraction(5, 2)).data == {}
    assert A.data == {(0, 0): Fraction(3), (1, 1): Fraction(1, 2)}  # the operands are not touched
    with pytest.raises(ValueError):
        A.add_scaled(SparseMat(2, 3), 1)


# -- canonical scalars: an int when integral, else a Fraction -----------------


def assert_canonical(M):
    assert all(is_canonical(v) for v in M.data.values()), M.data


def test_sparse_operations_keep_entries_canonical():
    rng = random.Random(15)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A, B = dense_random(rng, n, m), dense_random(rng, n, m)
        S, T = dense_random(rng, n, n), dense_random(rng, n, n)
        R = dense_random(rng, m, rng.randint(1, 5))
        c = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 6]))
        vecs = [{j: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for j in range(m)} for _ in range(3)]
        for M in (A, A + B, A - B, A - A, A.scale(c), A.scale(6), A.add_scaled(B, c), A.add_scaled(B, 6),
                  A * R, S.bracket(T), A.kron(B),
                  SparseMat.from_entries(n, m, list(A.data.items()) + list(B.data.items()))):
            assert_canonical(M)
        assert all(is_canonical(x) for img in A.apply_all(vecs) for x in img.values())
        assert is_canonical(S.trace()) and all(is_canonical(x) for row in S.to_dense() for x in row)


def test_integral_results_are_ints():
    half = SparseMat(1, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
    two = SparseMat(2, 1, {(0, 0): Fraction(2), (1, 0): Fraction(4, 2)})
    cases = {
        "init": SparseMat(1, 1, {(0, 0): Fraction(4, 2)}),
        "from_entries": SparseMat.from_entries(1, 1, [((0, 0), Fraction(1, 3)), ((0, 0), Fraction(2, 3))]),
        "add": half + SparseMat(1, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)}),
        "sub": half - SparseMat(1, 2, {(0, 0): Fraction(-1, 2), (0, 1): Fraction(1, 2)}),
        "scale": half.scale(2),
        "add_scaled": half.add_scaled(half, Fraction(1)),
        "mul": half * two,
        "bracket": SparseMat(2, 2, {(0, 1): Fraction(1, 2)}).bracket(SparseMat(2, 2, {(1, 0): Fraction(2)})),
        "kron": half.kron(two),
        "identity": SparseMat.identity(2),
    }
    for name, M in cases.items():
        assert M.data and all(type(v) is int for v in M.data.values()), (name, M.data)
    assert half.apply_all([{0: 2, 1: Fraction(2, 3)}]) == [{0: 2}] and type(half.apply({0: 4})[0]) is int
    assert type(half.get(0, 0)) is Fraction and type(half.get(1, 1)) is int
    assert type(SparseMat(2, 2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}).trace()) is int and type(SparseMat(1, 1).to_dense()[0][0]) is int


def test_integral_fraction_scalars_cost_no_fraction_arithmetic():
    A = SparseMat(2, 2, {(0, 0): 3, (0, 1): -1, (1, 1): 2})
    with integral_fraction_ops() as count:
        got = [A.scale(Fraction(2)), A.add_scaled(A, Fraction(-2)), A.add_scaled(SparseMat.identity(2), Fraction(4, 2))]
    assert count() == 0
    assert [M.data for M in got] == [{(0, 0): 6, (0, 1): -2, (1, 1): 4}, {(0, 0): -3, (0, 1): 1, (1, 1): -2},
                                     {(0, 0): 5, (0, 1): -1, (1, 1): 4}]


def test_accumulators_add_no_integral_fraction():
    # 2/3 * 3/2 is integral although neither operand is; every product and
    # partial sum is canonical, so adding it to an int is int arithmetic
    h, t = Fraction(2, 3), Fraction(3, 2)
    A = SparseMat(2, 2, {(0, 0): h, (0, 1): 1})
    B = SparseMat(2, 2, {(0, 0): t, (1, 0): 1, (1, 1): h})
    with integral_fraction_ops() as count:
        applied = A.apply_all([{0: t, 1: 1}, {1: 1, 0: t}])
        summed = SparseMat.from_entries(1, 1, [((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2)), ((0, 0), 1)])
        product = A * B
        commutator = A.bracket(B)
    assert count() == 0
    assert applied == [{0: 2}, {0: 2}] and summed.data == {(0, 0): 2}
    assert product.data == {(0, 0): 2, (0, 1): h}
    assert commutator.data == {(0, 0): 1, (0, 1): Fraction(-5, 6), (1, 0): Fraction(-2, 3), (1, 1): -1}
    for vals in [applied[0].values(), applied[1].values(), summed.data.values(), product.data.values(),
                 commutator.data.values()]:
        assert all(is_canonical(v) for v in vals)


def test_float_entries_are_rejected():
    with pytest.raises(AttributeError):
        SparseMat(1, 1, {(0, 0): 0.5})
    with pytest.raises(AttributeError):
        SparseMat.identity(2).scale(0.5)
    with pytest.raises(AttributeError):
        canon(1.0)
    assert type(canon(Fraction(6, 3))) is int and canon(Fraction(1, 3)) == Fraction(1, 3) and canon(True) == 1


def test_exact_scalar_keeps_ints_fractions_and_strings_and_refuses_floats():
    # 0.1 would become 3602879701896397/36028797018963968, not 1/10
    for x in (0.1, 0.5, 2.0, float("inf")):
        with pytest.raises(TypeError, match="float"):
            exact_scalar(x)
    got = [exact_scalar(x) for x in (3, -2, Fraction(6, 3), Fraction(1, 3), "1/3", "-4", "2/2")]
    assert got == [3, -2, 2, Fraction(1, 3), Fraction(1, 3), -4, 1]
    assert all(is_canonical(x) for x in got)


def test_echelon_outputs_are_canonical():
    rng = random.Random(16)
    for M in oracle_matrices(107):
        kern = nullspace_of_rows(M.row_vectors(), M.cols)
        assert all(is_canonical(x) for vec in kern for x in vec.values())
        eb = EchelonBasis(M.row_vectors())
        free = [f for f in range(M.cols) if f not in eb.rows]
        vec = eb.kernel_vector({f: Fraction(rng.randint(1, 4), rng.choice([1, 2])) for f in free})
        assert all(is_canonical(x) for x in vec.values()) and M.apply(vec) == {}
    # coordinates in v_0 = (1/2, 1), v_1 = (0, 1/3): integral ones are ints
    eb = EchelonBasis()
    for k, row in enumerate([{0: Fraction(1, 2), 1: Fraction(1)}, {1: Fraction(1, 3)}]):
        eb.add({**row, 2 + k: 1})
    got = eb.coordinates({0: Fraction(1), 1: Fraction(3)}, 2)  # 2 v_0 + 3 v_1
    assert got == {0: 2, 1: 3} and all(type(x) is int for x in got.values())
    got = eb.coordinates({0: Fraction(1, 4), 1: Fraction(1, 2)}, 2)  # v_0 / 2
    assert got == {0: Fraction(1, 2)} and is_canonical(got[0])
    assert nullspace_of_rows([{0: Fraction(1, 2), 1: Fraction(-1, 2)}], 2) == [{0: 1, 1: 1}]
    assert all(type(x) is int for x in nullspace_of_rows([{0: Fraction(1, 2), 1: Fraction(-1, 2)}], 2)[0].values())


def test_solve_row_combination():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)}]
    target = {0: Fraction(3), 1: Fraction(7)}
    c = solve_row_combination(rows, target)
    assert c == [Fraction(3), Fraction(1)]
    assert solve_row_combination([{0: Fraction(1)}], {1: Fraction(1)}) is None


# -- sympy as an independent oracle for the echelon engine ---------------------


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def random_rank_deficient(rng, n, m):
    """Sparse random n x m matrix, often of rank below min(n, m)."""
    if rng.random() < 0.5:
        return dense_random(rng, n, m, density=rng.choice([0.3, 0.6]))
    r = rng.randint(1, min(n, m))
    return dense_random(rng, n, r) * dense_random(rng, r, m)


def to_sympy(sympy, M):
    return sympy.Matrix(M.rows, M.cols, lambda i, j: sympy.Rational(M.get(i, j).numerator, M.get(i, j).denominator))


def oracle_matrices(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_rank_deficient(rng, rng.randint(1, 6), rng.randint(1, 6))


def test_rank_matches_sympy(sympy):
    for M in oracle_matrices(101):
        assert rank_of_rows(M.row_vectors()) == to_sympy(sympy, M).rank()


def test_nullspace_matches_sympy(sympy):
    for M in oracle_matrices(102):
        kern = nullspace_of_rows(M.row_vectors(), M.cols)
        assert len(kern) == len(to_sympy(sympy, M).nullspace())
        for vec in kern:
            assert vec and M.apply(vec) == {}


def test_solve_row_combination_matches_sympy(sympy):
    rng = random.Random(103)
    for M in oracle_matrices(104):
        rows = M.row_vectors()
        if rng.random() < 0.5:  # a target inside the row span
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in rows]
            target = SparseMat(1, M.rows, {(0, i): c for i, c in enumerate(coeffs) if c}) * M
        else:
            target = dense_random(rng, 1, M.cols, density=0.5)
        tvec = target.row_vectors()[0]
        sol = solve_row_combination(rows, tvec)
        S = to_sympy(sympy, M)
        grows = S.col_join(to_sympy(sympy, target)).rank() > S.rank()
        assert (sol is None) == grows
        if sol is not None:
            combo = SparseMat(1, M.rows, {(0, i): c for i, c in enumerate(sol) if c}) * M
            assert combo == target


def test_echelon_add_matches_sympy_rank_growth(sympy):
    for M in oracle_matrices(105):
        eb = EchelonBasis()
        for i, row in enumerate(M.row_vectors()):
            prefix = to_sympy(sympy, M)[: i + 1, :]
            before = prefix[:i, :].rank() if i else 0
            assert eb.add(row) == (prefix.rank() > before)
            assert eb.rank == prefix.rank()
            assert eb.contains(row) and eb.reduce(row) == {}


def test_coordinates_match_sympy(sympy):
    # independent integer or rational rows v_k, each added as v_k plus a 1 in
    # column width + k; targets inside the span get their unique
    # coefficients, targets outside get None
    rng = random.Random(106)
    for trial in range(60):
        dens = [1] if trial % 2 else [1, 2, 3]
        r, width = rng.randint(1, 5), rng.randint(5, 7)
        while True:
            M = SparseMat(r, width, {(i, j): Fraction(rng.randint(-6, 6), rng.choice(dens))
                                     for i in range(r) for j in range(width) if rng.random() < 0.6})
            if to_sympy(sympy, M).rank() == r:
                break
        eb = EchelonBasis()
        for k, row in enumerate(M.row_vectors()):
            assert eb.add({**row, width + k: Fraction(1)})
        if rng.random() < 0.5:  # inside the span
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(r)]
            target = SparseMat(1, r, {(0, k): c for k, c in enumerate(coeffs) if c}) * M
        else:
            target = dense_random(rng, 1, width, density=0.5)
        S, t = to_sympy(sympy, M), to_sympy(sympy, target)
        got = eb.coordinates(target.row_vectors()[0], width)
        if S.col_join(t).rank() > r:
            assert got is None
        else:
            sol, free = S.T.gauss_jordan_solve(t.T)
            assert free.shape[0] == 0  # the coefficients are unique
            expected = {k: Fraction(int(c.p), int(c.q)) for k, c in enumerate(sol) if c}
            assert got == expected
        assert eb.rank == r  # a query never extends the basis


# -- rank_of_rows on inputs that once defeated a mod-p rank certificate -------


def test_rank_certificate_falls_back_when_the_prime_divides_an_entry():
    rows = [{0: Fraction(2**61 - 1)}, {1: Fraction(1)}]  # rank 2 over Q, 1 mod 2**61 - 1
    assert rank_of_rows(rows) == 2


def test_rank_certificate_falls_back_on_a_denominator_divisible_by_the_prime():
    rows = [{0: Fraction(1, 2**61 - 1), 1: Fraction(1)}, {1: Fraction(1)}]
    assert rank_of_rows(rows) == 2


def test_rank_certificate_returns_the_exact_rank_when_deficient():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(-1, 3), 1: Fraction(-2, 3)}, {2: Fraction(5, 7)}]
    assert rank_of_rows(rows) == 2
    assert rank_of_rows(iter(rows)) == 2  # one-shot iterables are fine


def square_oracle_matrices(seed, count=30):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        yield random_rank_deficient(rng, n, n)


def test_charpoly_matches_sympy(sympy):
    t = sympy.Symbol("t")
    for M in square_oracle_matrices(107):
        expected = to_sympy(sympy, M).charpoly(t).all_coeffs()[::-1]
        assert charpoly(M) == [Fraction(int(c.p), int(c.q)) for c in expected]


def test_rational_roots_match_sympy(sympy):
    t = sympy.Symbol("t")
    rng = random.Random(108)
    polys = [charpoly(M) for M in square_oracle_matrices(109)]
    for _ in range(30):  # rational roots with multiplicity times a random cofactor
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
        for _ in range(rng.randint(0, 4)):
            coeffs = poly_mul(coeffs, [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])), Fraction(1)])
        polys.append(coeffs)
    for coeffs in polys:
        roots, rem = rational_roots(coeffs)
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t, domain="QQ")
        assert {Fraction(int(r.p), int(r.q)): m for r, m in sp.ground_roots().items()} == dict(roots)
        rebuilt = rem
        for r, m in roots:
            for _ in range(m):
                rebuilt = poly_mul(rebuilt, [-r, Fraction(1)])
        assert rebuilt == list(coeffs)


def test_matrix_algebra_roundtrips():
    rng = random.Random(3)
    A = dense_random(rng, 3, 4)
    B = dense_random(rng, 4, 2)
    C = dense_random(rng, 3, 4)
    assert (A + C) - C == A
    assert transpose(A * B) == transpose(B) * transpose(A)
    eye = SparseMat.identity(3)
    assert eye * A == A
    assert A.kron(eye).rows == 9


def test_rational_roots_with_multiplicity():
    # (t - 1/2)^2 (t + 3), built by explicit expansion
    coeffs = poly_mul(poly_mul([Fraction(-1, 2), Fraction(1)], [Fraction(-1, 2), Fraction(1)]), [Fraction(3), Fraction(1)])
    roots, rem = rational_roots(coeffs)
    assert dict(roots) == {Fraction(1, 2): 2, Fraction(-3): 1}
    assert rem == [Fraction(1)]


def test_rational_roots_irreducible_remainder():
    # t^2 + 1 has no rational roots
    roots, rem = rational_roots([Fraction(1), Fraction(0), Fraction(1)])
    assert roots == []
    assert len(rem) == 3
