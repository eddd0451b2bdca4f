"""Polynomials, normal-ordered operators, and the operator-calculus laws."""

import random
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod

import pytest

from oconf.poly import _BITS, _EXP_LIMIT, DiffOp, Poly, _leibniz, _scaled_terms, bracket, monomial_basis
from reference import integral_fraction_ops, is_canonical


def x(nv, i):
    return Poly.var(nv, i)


def d(nv, i):
    return DiffOp.partial(nv, i)


def mult(p):
    return DiffOp.mult(p)


def random_poly(rng, nv, deg=2, terms=3):
    p = Poly.zero(nv)
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nv))
        p = p + Poly.monomial(nv, e, Fraction(rng.randint(-4, 4), rng.choice([1, 2])))
    return p


def random_op(rng, nv, deg=2, terms=3):
    op = DiffOp.zero(nv)
    for _ in range(terms):
        beta = tuple(rng.randint(0, 1) for _ in range(nv))
        op = op + DiffOp(nv, {beta: random_poly(rng, nv, deg, 2)})
    return op


def test_monomial_basis_grlex():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(4, 0) == [(0, 0, 0, 0)]
    assert len(monomial_basis(4, 3)) == comb(6, 3)  # 20, by direct count
    for k in range(5):
        assert len(monomial_basis(3, k)) == comb(k + 2, 2)


@pytest.mark.parametrize("num_vars,k", [(4, 3), (5, 4)])
def test_monomial_basis_is_every_exponent_in_descending_lex_order(num_vars, k):
    every = [e for e in product(range(k + 1), repeat=num_vars) if sum(e) == k]
    assert monomial_basis(num_vars, k) == sorted(every, reverse=True)


def test_apply_product_rule():
    # x1 d2 applied to x2^2 -> 2 x1 x2
    nv = 2
    op = mult(x(nv, 0)) @ d(nv, 1)
    f = Poly.monomial(nv, (0, 2))
    assert op.apply(f) == Poly(nv, {(1, 1): Fraction(2)})


def test_apply_euler_operator():
    nv = 4
    euler = DiffOp.zero(nv)
    for i in range(nv):
        euler = euler + mult(x(nv, i)) @ d(nv, i)
    rng = random.Random(5)
    for _ in range(5):
        e = tuple(rng.randint(0, 3) for _ in range(nv))
        f = Poly.monomial(nv, e)
        assert euler.apply(f) == f.scale(sum(e))


def test_apply_laplacian_to_eta():
    # n=2: Delta = d1 d3 + d2 d4 applied to eta = x1 x3 + x2 x4 gives 2 (= n)
    nv = 4
    lap = DiffOp(nv, {(1, 0, 1, 0): Poly.const(nv, 1), (0, 1, 0, 1): Poly.const(nv, 1)})
    eta = Poly(nv, {(1, 0, 1, 0): Fraction(1), (0, 1, 0, 1): Fraction(1)})
    assert lap.apply(eta) == Poly.const(nv, 2)


def test_weyl_relation():
    # [d1, x1 d1] = d1
    nv = 1
    lhs = bracket(d(nv, 0), mult(x(nv, 0)) @ d(nv, 0))
    assert lhs == d(nv, 0)


def test_bracket_of_partial_with_special_conformal():
    # n=2: [d_k, J_i] = delta D + A_{i,k} at k=i=1
    from oconf.ortho import build_conformal

    conf = build_conformal(2, "D")
    lhs = bracket(conf.op("d_1"), conf.op("J_1"))
    rhs = conf.euler() + conf.rotation("A", 1, 1)
    assert lhs == rhs


def test_bracket_laplacian_eta_is_n_plus_euler():
    # [Delta, eta] = n + D as operators over A, n=2 D series
    from oconf.ortho import build_conformal

    conf = build_conformal(2, "D")
    lhs = bracket(conf.laplacian(), DiffOp.mult(conf.eta()))
    rhs = DiffOp.identity(4).scale(2) + conf.euler()
    assert lhs == rhs


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(42)
    for _ in range(6):
        nv = rng.randint(1, 3)
        a, b, c = (random_op(rng, nv) for _ in range(3))
        assert bracket(a, b) == -bracket(b, a)
        jac = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
        assert jac.is_zero()


def test_bracket_realizes_commutator_of_applications():
    rng = random.Random(43)
    for _ in range(6):
        nv = rng.randint(1, 3)
        a, b = random_op(rng, nv), random_op(rng, nv)
        f = random_poly(rng, nv, deg=3)
        lhs = bracket(a, b).apply(f)
        rhs = a.apply(b.apply(f)) - b.apply(a.apply(f))
        assert lhs == rhs


def random_op_of_order(rng, nv, order):
    """Random operator of order <= `order` with rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        beta = rng.choice(monomial_basis(nv, rng.randint(0, order)))
        terms[beta] = random_poly(rng, nv, deg=3, terms=rng.randint(1, 3))
    return DiffOp(nv, terms)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bracket_is_the_difference_of_the_compositions(order):
    # the commutator kernel leaves out the gamma = 0 Leibniz terms of both
    # products: they cancel for operators of any order, not only fields
    rng = random.Random(700 + order)
    for _ in range(40):
        nv = rng.randint(1, 3)
        a, b = random_op_of_order(rng, nv, order), random_op_of_order(rng, nv, rng.randint(0, order))
        assert bracket(a, b) == a @ b - b @ a


def packed(e):
    """The exponent tuple e as one int: entry i in field i of _BITS bits."""
    return sum(a << (i * _BITS) for i, a in enumerate(e))


def unpacked(v, nv):
    """The exponent tuple packed in v, inverse to `packed`."""
    return tuple((v >> (i * _BITS)) & ((1 << _BITS) - 1) for i in range(nv))


def test_scaled_terms_memo_equals_a_fresh_computation():
    rng = random.Random(31)
    for _ in range(60):
        nv = rng.randint(1, 3)
        op = random_fraction_op(rng, nv)
        den, terms = memo = _scaled_terms(op)
        assert _scaled_terms(op) is memo  # kept in the operator's slot
        fresh = DiffOp(nv, op.terms)  # an equal operator with no memo
        assert fresh._scaled is None and _scaled_terms(fresh) == memo
        # den is the lcm of the denominators, and terms / den, its packed
        # exponents unpacked, is the operator
        assert den == lcm(*(c.denominator for c in coefficients(op)))
        assert all(type(beta) is int and all(type(e) is int for e, _ in p) for beta, p in terms)
        assert {unpacked(beta, nv): {unpacked(e, nv): Fraction(c, den) for e, c in p} for beta, p in terms} == {
            beta: dict(p.terms) for beta, p in op.terms.items()}
        # derived operators start without a memo, and use of the memo
        # changes no product
        assert op.scale(2)._scaled is None and (op @ op)._scaled is None
        assert op @ fresh == leibniz_compose(op, op)


def test_leibniz_memo_is_bounded_and_equals_the_tuple_formula():
    assert _leibniz.cache_info().maxsize == 4096
    rng = random.Random(12)
    for _ in range(200):
        nv = rng.randint(1, 4)
        b1 = tuple(rng.randint(0, 3) for _ in range(nv))
        e2 = tuple(rng.randint(0, 3) for _ in range(nv))
        got = _leibniz(packed(b1), packed(e2))
        want = []
        for gamma in product(*[range(min(b, e) + 1) for b, e in zip(b1, e2)]):
            k = prod(comb(b, g) * prod(range(e - g + 1, e + 1)) for b, e, g in zip(b1, e2, gamma))
            want.append((gamma, tuple(e - g for e, g in zip(e2, gamma)), k))
        assert [(unpacked(g, nv), unpacked(de, nv), k) for g, de, k in got] == want


def test_composition_is_associative_and_normal_ordered():
    rng = random.Random(44)
    for _ in range(5):
        nv = 2
        a, b, c = (random_op(rng, nv, deg=2, terms=2) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_normal_order_canonical_form():
    # x1 d1 built two different ways has identical stored form
    nv = 1
    op1 = mult(x(nv, 0)) @ d(nv, 0)
    op2 = bracket(d(nv, 0), mult(Poly.monomial(nv, (2,), Fraction(1, 2))))
    # [d, x^2/2] = x, as multiplication operators... compose with d to compare
    assert op2 == mult(x(nv, 0))
    op3 = op2 @ d(nv, 0)
    assert op1 == op3
    # equal operators, equal dicts
    assert op1.terms == op3.terms


def test_apply_variable_count_mismatch():
    with pytest.raises(ValueError):
        d(2, 0).apply(Poly.const(3, 1))
    with pytest.raises(ValueError):
        bracket(d(2, 0), d(3, 0))


def leibniz_compose(a, b):
    """Reference composition: one Poly-level Leibniz term per gamma <= b1,
    capped by the variable degrees present in the right coefficient."""
    nv = a.num_vars
    terms = {}
    for b1, p1 in a.terms.items():
        for b2, p2 in b.terms.items():
            caps = [max(e[i] for e in p2.terms) for i in range(nv)]
            for gamma in product(*[range(min(bi, ci) + 1) for bi, ci in zip(b1, caps)]):
                dp2 = p2.diff_multi(gamma)
                if dp2.is_zero():
                    continue
                coeff = prod(comb(bi, gi) for bi, gi in zip(b1, gamma))
                beta = tuple(x - g + y for x, g, y in zip(b1, gamma, b2))
                terms[beta] = terms.get(beta, Poly.zero(nv)) + (p1 * dp2).scale(coeff)
    return DiffOp(nv, terms)


def random_fraction_op(rng, nv):
    """Random operator of order <= 2 with coefficients of mixed denominators;
    sometimes zero, sometimes built from terms that cancel."""
    if rng.random() < 0.05:
        return DiffOp.zero(nv)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        beta = tuple(rng.randint(0, 2) for _ in range(nv))
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(nv))
            coeffs[e] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6, 9]))
        terms[beta] = Poly(nv, coeffs)
    op = DiffOp(nv, terms)
    if rng.random() < 0.1:
        op = op + op.scale(Fraction(-1, 2)) - op.scale(Fraction(1, 2))  # cancels to zero
    return op


def test_composition_matches_leibniz_reference():
    from oconf.ortho import build_conformal

    cases = []
    for n, series in [(2, "D"), (3, "D"), (1, "B"), (2, "B")]:
        conf = build_conformal(n, series)
        ops = [conf.op(lbl) for lbl in conf.labels()] + [conf.laplacian(), DiffOp.mult(conf.eta())]
        cases += [(a, b) for a in ops for b in ops]
    rng = random.Random(2024)
    for _ in range(2000):
        nv = rng.randint(1, 3)
        a = random_fraction_op(rng, nv)
        choice = rng.random()
        if choice < 0.1:
            b = a.scale(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])))  # [a, b] = 0
        elif choice < 0.2:
            b = DiffOp.mult(random_poly(rng, nv, deg=3))
        else:
            b = random_fraction_op(rng, nv)
        cases.append((a, b))
    for a, b in cases:
        ab, ba = leibniz_compose(a, b), leibniz_compose(b, a)
        assert (a @ b).terms == ab.terms
        assert bracket(a, b).terms == (ab - ba).terms
    for a, b in cases[-200:]:
        f = random_poly(rng, a.num_vars, deg=4, terms=4)
        assert (a @ b).apply(f) == a.apply(b.apply(f))


# exponents at and next to the packing limit; two limit entries side by side
# sum to 2 * _EXP_LIMIT in each field, which a carry would spill over
LIMIT_EXPONENTS = (0, 1, 2, _EXP_LIMIT - 1, _EXP_LIMIT)


def limit_op(rng, nv, high_derivatives):
    """Random operator with entries from LIMIT_EXPONENTS: in its monomials,
    derivative orders <= 2, or, with high_derivatives, in its derivative
    orders, monomial exponents <= 2.  Two operators of one kind compose
    with at most a few gammas per Leibniz term, so the reference stays
    cheap."""
    def small():
        return tuple(rng.randint(0, 2) for _ in range(nv))

    def high():
        return tuple(rng.choice(LIMIT_EXPONENTS) for _ in range(nv))

    terms = {}
    for _ in range(rng.randint(1, 3)):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            coeffs[small() if high_derivatives else high()] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        terms[high() if high_derivatives else small()] = Poly(nv, coeffs)
    return DiffOp(nv, terms)


@pytest.mark.parametrize("high_derivatives", [False, True])
def test_composition_at_the_packing_limit_matches_leibniz_reference(high_derivatives):
    rng = random.Random(61 + high_derivatives)
    for _ in range(150):
        nv = rng.randint(1, 4)
        a, b = limit_op(rng, nv, high_derivatives), limit_op(rng, nv, high_derivatives)
        ab, ba = leibniz_compose(a, b), leibniz_compose(b, a)
        assert (a @ b).terms == ab.terms
        assert bracket(a, b).terms == (ab - ba).terms
    # every field at the limit on both sides: each sum is 2 * _EXP_LIMIT
    for nv in (1, 2, 5):
        top = (_EXP_LIMIT,) * nv
        x_top, d_top = DiffOp.mult(Poly.monomial(nv, top)), DiffOp(nv, {top: Poly.const(nv, 1)})
        assert x_top @ x_top == DiffOp.mult(Poly.monomial(nv, (2 * _EXP_LIMIT,) * nv))
        assert d_top @ d_top == DiffOp(nv, {(2 * _EXP_LIMIT,) * nv: Poly.const(nv, 1)})
        assert x_top @ d_top == DiffOp(nv, {top: Poly.monomial(nv, top)})


def composes_exactly_or_raises(compute, reference):
    try:
        got = compute()
    except ValueError:
        return
    assert got == reference()


@pytest.mark.parametrize("e", [_EXP_LIMIT + 1, _EXP_LIMIT + 2, (1 << _BITS) - 1, 1 << _BITS, (1 << _BITS) + 3])
def test_an_exponent_past_the_packing_limit_composes_exactly_or_raises(e):
    # a carry out of one field would move degree into the next variable and
    # give a plausible wrong operator; the kernel must not return one
    for nv in (1, 2, 3):
        for pos in range(nv):
            big = tuple(e if i == pos else 1 for i in range(nv))
            x_big = DiffOp.mult(Poly.monomial(nv, big, Fraction(1, 3)))
            d_big = DiffOp(nv, {big: Poly.monomial(nv, (0,) * nv, 2)})
            small = DiffOp(nv, {tuple(int(i == pos) for i in range(nv)): Poly.monomial(nv, (1,) * nv)})
            for a, b in [(x_big, x_big), (d_big, d_big), (x_big, d_big), (d_big, small), (small, x_big)]:
                composes_exactly_or_raises(lambda: a @ b, lambda: leibniz_compose(a, b))
            for a, b in [(x_big, x_big), (d_big, d_big), (d_big, small)]:
                composes_exactly_or_raises(
                    lambda: bracket(a, b), lambda: leibniz_compose(a, b) - leibniz_compose(b, a))


def coefficients(op):
    return [c for p in op.terms.values() for c in p.terms.values()]


def test_composition_and_bracket_keep_coefficients_canonical():
    rng = random.Random(15)
    for _ in range(300):
        nv = rng.randint(1, 3)
        a, b = random_fraction_op(rng, nv), random_fraction_op(rng, nv)
        for op in (a, a @ b, bracket(a, b), a.scale(Fraction(2, 3)), a.scale(6), a + b, a - b):
            assert all(is_canonical(c) for c in coefficients(op))
    # (1/2 x d) . (2 x) = x + x^2 d: the common denominator divides every sum
    x0, d0 = x(1, 0), d(1, 0)
    got = (mult(x0.scale(Fraction(1, 2))) @ d0) @ mult(x0.scale(2))
    assert got == mult(x0) + mult(x0 * x0) @ d0
    assert all(type(c) is int for c in coefficients(got))
    assert all(type(c) is int for c in coefficients(bracket(mult(x0.scale(Fraction(1, 2))) @ d0, mult(x0.scale(4)))))
    p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
    assert type(p.terms[(1, 0)]) is int and type(p.scale(2).terms[(0, 1)]) is int
    assert type(Poly.const(1, Fraction(3)).terms[(0,)]) is int
    q = Poly(2, {(1, 0): 3, (0, 1): -5})
    with integral_fraction_ops() as count:
        assert q.scale(Fraction(2)) == Poly(2, {(1, 0): 6, (0, 1): -10})
    assert count() == 0
    with pytest.raises(AttributeError):
        Poly(1, {(1,): 0.5})
