"""Mixed-product embedding and the graded conformal module machinery."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from oconf.linalg import SparseMat, rank_of_rows
from oconf.mixed import (
    ConformalModule,
    ExtendedOp,
    _by_column,
    _shifted_columns,
    shen_closed_forms,
    shen_embed,
    verify_shen_monomorphism,
)
from oconf.ortho import build_conformal, theta_images
from oconf.poly import DiffOp, Poly, bracket
from oconf.reducibility import _dominant_dims, _dominant_orbit_size
from oconf.weights import parse_weight, zero_weight
from reference import (
    chained_extended_bracket,
    chained_shen_embed,
    embed_of,
    integral_fraction_ops,
    is_canonical,
    slice_weights,
)

F = Fraction


def test_embed_fixes_translations_and_shifts_euler():
    conf = build_conformal(2, "D")
    for r in range(1, 5):
        e = shen_embed(conf.op(f"d_{r}"))
        assert e.field == conf.op(f"d_{r}") and not e.gl
    eD = shen_embed(conf.op("D"))
    assert eD.gl == {(0, 0, 0, 0): SparseMat.identity(4)}


def same_extended_op(got, want):
    # equal, with the gl exponents in the same order and canonical entries
    assert got == want and list(got.gl) == list(want.gl)
    assert all(is_canonical(v) for M in got.gl.values() for v in M.data.values())


@pytest.mark.parametrize("n,series", [(2, "D"), (3, "D"), (1, "B"), (2, "B")])
def test_embedding_and_bracket_equal_the_chained_reference(n, series):
    # one accumulator per matrix against one whole-matrix addition per entry
    conf = build_conformal(n, series)
    labels = conf.labels()
    embeds = {lbl: shen_embed(conf.op(lbl)) for lbl in labels}
    for lbl in labels:
        want = chained_shen_embed(conf.op(lbl))
        same_extended_op(embeds[lbl], want)
        assert all(list(M.data) == list(want.gl[e].data) for e, M in embeds[lbl].gl.items())
    for a in labels:
        for b in labels:
            same_extended_op(embeds[a].bracket(embeds[b]), chained_extended_bracket(embeds[a], embeds[b]))


def random_vector_field(rng, nv):
    """sum_i f_i d_i with random rational f_i of degree <= 3, some f_i zero."""
    terms = {}
    for i in range(nv):
        if rng.random() < 0.3:
            continue
        coeffs = {tuple(rng.randint(0, 3) for _ in range(nv)): F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4]))
                  for _ in range(rng.randint(1, 4))}
        terms[tuple(int(j == i) for j in range(nv))] = Poly(nv, coeffs)
    return DiffOp(nv, terms)


def test_embedding_of_random_vector_fields_equals_the_chained_reference():
    rng = random.Random(808)
    for _ in range(150):
        nv = rng.randint(1, 4)
        xi, zeta = random_vector_field(rng, nv), random_vector_field(rng, nv)
        a, b = shen_embed(xi), shen_embed(zeta)
        same_extended_op(a, chained_shen_embed(xi))
        same_extended_op(a.bracket(b), chained_extended_bracket(a, b))


def test_embed_rejects_non_vector_fields():
    with pytest.raises(ValueError):
        shen_embed(DiffOp.identity(2))


@pytest.mark.parametrize("n,series", [(2, "D"), (2, "B"), (1, "B")])
def test_closed_forms_match_general_formula(n, series):
    conf = build_conformal(n, series)
    closed = shen_closed_forms(n, series)
    for lbl in conf.labels():
        assert shen_embed(conf.op(lbl)) == closed[lbl], lbl


@pytest.mark.parametrize("n,series", [(2, "D"), (2, "B")])
def test_monomorphism_report(n, series):
    r = verify_shen_monomorphism(n, series)
    assert r["ok"], r
    # rotations carry no central part; the Euler operator carries exactly one
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert r["central_parts"][f"A_{{{i},{j}}}"] == []
    zero = (0,) * (2 * n if series == "D" else 2 * n + 1)
    assert r["central_parts"]["D"] == [(zero, F(1))]


def test_extended_bracket_matches_embedding_of_bracket():
    rng = random.Random(11)
    conf = build_conformal(2, "D")
    labels = conf.labels()
    for _ in range(10):
        la, lb = rng.sample(labels, 2)
        lhs = shen_embed(bracket(conf.op(la), conf.op(lb)))
        rhs = shen_embed(conf.op(la)).bracket(shen_embed(conf.op(lb)))
        assert lhs == rhs


def test_slice_degree_shifts():
    mod = ConformalModule(parse_weight("1,0", "D"), F(1, 3))
    assert mod.slice_dim(1) == 16
    for lbl in mod.conf.labels():
        M = mod.action_matrix(lbl, 1)
        assert (M.rows, M.cols) == (mod.slice_dim(1 + mod.degree_shift(lbl)), 16), lbl
        if mod.degree_shift(lbl) == -1:
            # translations kill degree zero
            assert mod.action_matrix(lbl, 0).is_zero()


def test_central_element_acts_by_b():
    # the hidden central element acts by b, so D at b1 and at b2 differ by
    # (b1 - b2) Id on every slice
    mu = parse_weight("1,0", "D")
    for b1, b2 in [(F(7, 2), F(0)), (F(1), F(-11, 7)), (F(2, 5), F(7, 2))]:
        mod1, mod2 = ConformalModule(mu, b1), ConformalModule(mu, b2)
        for k in range(3):
            diff = mod1.action_matrix("D", k) - mod2.action_matrix("D", k)
            assert diff == SparseMat.identity(mod1.slice_dim(k)).scale(b1 - b2), (b1, b2, k)


def test_special_conformal_on_bottom_of_trivial_module():
    # J_i (1 (x) v0) = b x_i (x) v0
    for series, n in [("D", 2), ("B", 2)]:
        mod = ConformalModule(zero_weight(series, n), F(5, 3))
        for i, lbl in enumerate(mod.j_labels):
            M = mod.action_matrix(lbl, 0)
            assert M == SparseMat(mod.slice_dim(1), 1, {(i, 0): F(5, 3)})


@pytest.mark.parametrize(
    "series,mus,b,degrees",
    [("D", "1,0", F(1, 3), (0, 1)), ("B", "1/2,1/2", F(-2), (0, 1)), ("D", "0,0", F(1), (0, 1, 2))],
)
def test_module_axiom_for_big_algebra(series, mus, b, degrees):
    # action([X,Y]) = [action(X), action(Y)] for all o(2n+2)/o(2n+3) pairs
    mu = parse_weight(mus, series)
    mod = ConformalModule(mu, b)
    ob_big, conf, images = theta_images(mod.n, series)
    by_label = {}  # big label -> (conformal label, sign): theta sends each to +-(a generator)
    for el in ob_big.elements:
        by_label[el.label] = next((lbl, s) for lbl in conf.labels() for s in (F(1), F(-1))
                                  if images[el.label] == conf.op(lbl).scale(s))

    def act(big_label, k):
        conf_lbl, sign = by_label[big_label]
        return mod.action_matrix(conf_lbl, k).scale(sign), mod.degree_shift(conf_lbl)

    labels = ob_big.labels()
    for k in degrees:
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                Mi_k, si = act(labels[i], k)
                Mj_k, sj = act(labels[j], k)
                if k + sj >= 0:
                    Mi_shift, _ = act(labels[i], k + sj)
                else:
                    Mi_shift = SparseMat(0, 0)
                if k + si >= 0:
                    Mj_shift, _ = act(labels[j], k + si)
                else:
                    Mj_shift = SparseMat(0, 0)
                tdim = mod.slice_dim(k + si + sj) if k + si + sj >= 0 else 0
                comm = SparseMat(tdim, mod.slice_dim(k))
                if k + sj >= 0 and k + sj + si >= 0:
                    comm = comm + Mi_shift * Mj_k
                if k + si >= 0 and k + si + sj >= 0:
                    comm = comm - Mj_shift * Mi_k
                expected = SparseMat(tdim, mod.slice_dim(k))
                for t, c in ob_big.bracket_coeffs(i, j):
                    conf_lbl, sign = by_label[labels[t]]
                    if mod.degree_shift(conf_lbl) == si + sj:
                        expected = expected + mod.action_matrix(conf_lbl, k).scale(sign * c)
                assert comm == expected, (labels[i], labels[j], k)


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "0,0,0")])
def test_slice_dim_counts_the_monomials(series, mus):
    mod = ConformalModule(parse_weight(mus, series), F(1, 3))
    for k in range(-2, 9):
        assert mod.slice_dim(k) == len(mod.monomials_of(k)) * mod.dim_v, k


def test_central_charge_is_canonical():
    mu = parse_weight("1,0", "D")
    mod = ConformalModule(mu, 3)
    assert type(mod.b) is int and mod.b == 3
    assert type(ConformalModule(mu, F(6, 2)).b) is int
    assert type(ConformalModule(mu, F(1, 3)).b) is F
    assert mod.j_labels == [f"J_{r}" for r in mod.conf.var_labels]


def test_phi_degree_zero_is_identity():
    mod = ConformalModule(parse_weight("1,1", "D"), F(2))
    assert mod.phi_matrix(0) == SparseMat.identity(3)


def test_phi_degree_one_is_b_plus_split_casimir():
    from oconf.spectral import omega_tilde_matrix

    for series, mus in [("D", "1,0"), ("B", "1/2,1/2")]:
        mu = parse_weight(mus, series)
        otm = omega_tilde_matrix(mu)
        for b in [F(0), F(1, 3), F(-2)]:
            mod = ConformalModule(mu, b)
            assert mod.phi_matrix(1) == SparseMat.identity(otm.rows).scale(b) + otm


def test_phi_invertibility_signals_critical_b():
    mu = parse_weight("1,0", "D")
    # b = 1/3: all eigenvalues 1/3 + {1,-1,-3} nonzero -> invertible
    mod = ConformalModule(mu, F(1, 3))
    phi = mod.phi_matrix(1)
    assert rank_of_rows(phi.row_vectors()) == phi.rows
    # b = 3: eigenvalue 3 - 3 = 0 -> singular
    mod = ConformalModule(mu, F(3))
    phi = mod.phi_matrix(1)
    assert rank_of_rows(phi.row_vectors()) < phi.rows


def test_j_alpha_order_independent():
    # the special conformal operators commute, so any application order of
    # J^alpha gives the same vector
    rng = random.Random(17)
    mod = ConformalModule(parse_weight("1,0", "D"), F(1, 3))
    for _ in range(5):
        alpha = [0] * mod.num_vars
        for _ in range(3):
            alpha[rng.randrange(mod.num_vars)] += 1
        order1 = [i for i, a in enumerate(alpha) for _ in range(a)]
        order2 = order1[:]
        rng.shuffle(order2)
        r = rng.randrange(mod.dim_v)
        for order in [order1, order2]:
            vec = {r: F(1)}
            deg = 0
            for i in order:
                vec = mod.action_matrix(mod.j_labels[i], deg).apply(vec)
                deg += 1
            if order is order1:
                first = vec
        assert vec == first


def test_phi_commutes_with_rotation_action():
    # phi is a homomorphism for the degree-preserving orthogonal action
    for series, mus in [("D", "1,0"), ("B", "1/2,1/2")]:
        mu = parse_weight(mus, series)
        mod = ConformalModule(mu, F(1, 3))
        n = mod.n
        flat_labels = [f"A_{{{i},{j}}}" for i in range(1, n + 1) for j in range(1, n + 1)]
        flat_labels += [f"B_{{{i},{j}}}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        flat_labels += [f"C_{{{i},{j}}}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        if series == "B":
            flat_labels += [f"K_{s}" for s in range(1, 2 * n + 1)]
        for k in [1, 2]:
            phi = mod.phi_matrix(k)
            for lbl in flat_labels:
                M = mod.action_matrix(lbl, k)
                assert phi * M == M * phi, (lbl, k)


def reference_action_matrix(mod, label, k):
    """The per-monomial construction: apply the vector field to each monomial
    as a Poly, then add every entry of every V(mu) matrix times every
    orthogonal coefficient of the gl part."""
    dv = mod.dim_v
    kt = k + mod.degree_shift(label)
    monos = mod.monomials_of(k)
    tindex = mod.mono_index(kt) if kt >= 0 else {}
    data = {}

    def add(key, v):
        data[key] = data.get(key, F(0)) + v

    small_labels = mod.small.labels()
    for mi, e in enumerate(monos):
        col = mi * dv
        for de, c in embed_of(mod, label).field.apply(Poly.monomial(mod.num_vars, e)).terms.items():
            for r in range(dv):
                add((tindex[de] * dv + r, col + r), c)
        for ge, central, coeffs in embed_of(mod, label).central_orthogonal_split(mod.small):
            row = tindex[tuple(a + g for a, g in zip(e, ge))] * dv
            for r in range(dv):
                add((row + r, col + r), central * mod.b)
            for sidx, sc in coeffs.items():
                for (rr, r), v in mod.irrep.rep[small_labels[sidx]].data.items():
                    add((row + rr, col + r), sc * v)
    return SparseMat(mod.slice_dim(kt) if kt >= 0 else 0, len(monos) * dv, data)


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "0,0"), ("D", "1,0,0")])
def test_action_matrix_matches_per_monomial_reference(series, mus):
    mod = ConformalModule(parse_weight(mus, series), F(-11, 7))
    for k in range(4):
        for label in mod.conf.labels():
            M = mod.action_matrix(label, k)
            assert M == reference_action_matrix(mod, label, k), (label, k)
            assert all(is_canonical(v) for v in M.data.values())


def test_b_independent_structure_is_shared_across_b():
    mu = parse_weight("1,0", "D")
    first = ConformalModule(mu, F(3))
    for k in range(3):
        for label in first.conf.labels():
            first.action_matrix(label, k)
    second = ConformalModule(mu, F(-11, 7))
    assert second.conf is first.conf and second.small is first.small
    assert build_conformal(2, "D") is build_conformal(2, "D")
    for label in second.conf.labels():
        assert embed_of(second, label) is embed_of(first, label)
    for k in range(4):
        for label in second.conf.labels():
            assert second.action_matrix(label, k) == reference_action_matrix(second, label, k), (label, k)


# Siblings: modules of one mu at different b.  They share the b-free caches
# (_embed, _split, _field_shifts), and each keeps its own b-dependent pieces.
SIBLING_WEIGHTS = [("D", "1,0"), ("B", "1/2,1/2"), ("D", "0,0"), ("D", "1,0,0")]
SIBLING_BS = [F(0), F(1), F(-11, 7)]


def clear_shared_caches():
    from oconf import mixed

    for cached in (mixed._embed, mixed._split, mixed._field_shifts):
        cached.cache_clear()


@pytest.mark.parametrize("series,mus", SIBLING_WEIGHTS)
def test_sibling_action_matches_fresh_module_and_reference(series, mus):
    # a module built after siblings at other b filled the shared caches acts
    # as one built from empty caches, and as the per-monomial reference
    mu = parse_weight(mus, series)
    for b0 in (F(0), F(3, 7)):
        base = ConformalModule(mu, b0)
        for k in range(4):
            for label in base.conf.labels():
                base.action_matrix(label, k)
    for b in SIBLING_BS:
        sib = ConformalModule(mu, b)
        for k in range(4):
            for label in sib.conf.labels():
                sib.action_matrix(label, k)
        clear_shared_caches()
        fresh = ConformalModule(mu, b)
        for k in range(4):
            for label in fresh.conf.labels():
                want = fresh.action_matrix(label, k)
                assert want.data == reference_action_matrix(fresh, label, k).data, (b, label, k)
                M = sib.action_matrix(label, k)
                assert M.data == want.data and (M.rows, M.cols) == (want.rows, want.cols), (b, label, k)
                assert all(is_canonical(v) for v in M.data.values())


@pytest.mark.parametrize("series,mus", SIBLING_WEIGHTS)
def test_sibling_drops_cancelled_entries(series, mus):
    # D acts on slice k by k + b, so it vanishes at b = -k
    mu = parse_weight(mus, series)
    base = ConformalModule(mu, F(3, 7))
    for k in range(4):
        base.action_matrix("D", k)
    for k in range(4):
        M = ConformalModule(mu, -k).action_matrix("D", k)
        assert M.data == {} and M == SparseMat(base.slice_dim(k), base.slice_dim(k)), k


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "0,0")])
def test_sibling_columns_after_the_base_filled_its_memo(series, mus):
    # each piece keeps its entries of block + s I, and the block holds b:
    # the base fills that memo at its own b first, then its matrices read
    # it, and a sibling must neither reuse it nor leave a stale one
    mu = parse_weight(mus, series)
    base = ConformalModule(mu, F(3, 7))
    cols = {k: range(base.slice_dim(k)) for k in range(4)}
    for mod in (base, ConformalModule(mu, F(0)), ConformalModule(mu, F(-11, 7))):
        fresh = ConformalModule(mu, mod.b)
        for label in base.conf.labels():
            for k in cols:
                want = fresh.action_matrix(label, k)
                assert mod.action_columns(label, k, cols[k]) == want.col_vectors(), (mod.b, label, k)
                assert mod.action_matrix(label, k) == want, (mod.b, label, k)


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "1,0,0")])
def test_shifted_columns_match_the_summed_block(series, mus):
    # the stencil's columns of block + s I, built from the block's columns,
    # are those of the summed matrix: at s = 0, at a fraction, and at every
    # s that cancels a diagonal entry (all of them, for a scalar block)
    cancelled = 0
    for b in (F(0), F(1, 3), F(-1)):
        mod = ConformalModule(parse_weight(mus, series), b)
        dv = mod.dim_v
        for label in mod.conf.labels():
            for _, _, _, cols, _ in mod._pieces(label):
                block = SparseMat(dv, dv, {(r, q): v for q, col in enumerate(cols) for r, v in col})
                assert _by_column(block) == cols
                diagonal = sorted({-block.get(q, q) for q in range(dv)} - {0})
                for s in [F(0), F(2, 7)] + [F(c) for c in diagonal]:
                    got = _shifted_columns(cols, dv, s)
                    assert got == _by_column(block + SparseMat.identity(dv).scale(s)), (b, label, s)
                    assert all(is_canonical(v) for col in got for _, v in col)
                    cancelled += s != 0 and sum(map(len, got)) < sum(map(len, cols)) + dv
    assert cancelled


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("B", "1"), ("D", "1,0,0"), ("D", "1/2,1/2,1/2")])
def test_slice_weights_are_the_cartan_diagonal(series, mus):
    # A_{i,i} is diagonal on the basis, with coordinate i of the weight
    mod = ConformalModule(parse_weight(mus, series), F(-11, 7))
    for k in range(4):
        wts = slice_weights(mod, k)
        assert len(wts) == mod.slice_dim(k)
        for i in range(1, mod.n + 1):
            M = mod.action_matrix(f"A_{{{i},{i}}}", k)
            assert all(r == c for r, c in M.data)
            assert [2 * M.get(t, t) for t in range(len(wts))] == [w[i - 1] for w in wts], (i, k)


@pytest.mark.parametrize("series,mus,degree", [
    ("D", "1,0", 5), ("D", "1/2,-1/2", 4), ("D", "1,0,0", 4), ("D", "1/2,1/2,1/2", 4), ("D", "1/2,1/2,1/2,1/2", 3),
    ("B", "1", 5), ("B", "1/2", 5), ("B", "1/2,1/2", 4), ("B", "1,0", 4), ("B", "1/2,1/2,1/2", 3),
])
def test_weight_classes_match_the_per_index_weights(series, mus, degree):
    # the classes, expanded by V(mu)'s weights, group the per-index oracle,
    # and their convolution counts it at every dominant weight
    base = ConformalModule(parse_weight(mus, series), F(1, 3))
    dv = base.dim_v
    for k in range(degree + 1):
        classes = base.weight_classes(k)
        assert base.weight_classes(k) is classes
        assert all(mis == sorted(mis) for mis in classes.values())
        want: dict = {}
        for u, w in enumerate(slice_weights(base, k)):
            want.setdefault(w, []).append(u)
        got: dict = {}
        for m, mis in classes.items():
            for r, w in enumerate(base.irrep.weights):
                nu = tuple(a + c for a, c in zip(m, w.twice))
                got.setdefault(nu, []).extend(mi * dv + r for mi in mis)
        assert {w: sorted(us) for w, us in got.items()} == want, k
        counts = Counter(slice_weights(base, k))
        dominant = {nu: c for nu, c in counts.items() if _dominant_orbit_size(series, nu)}
        assert _dominant_dims(base, k) == dominant and dominant, k


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "0,0")])
def test_action_columns_match_action_matrix(series, mus):
    mu = parse_weight(mus, series)
    rng = random.Random(5)
    mod, full = ConformalModule(mu, F(-11, 7)), ConformalModule(mu, F(-11, 7))
    for k in range(3):
        for label in mod.conf.labels():
            want = full.action_matrix(label, k).col_vectors()
            cols = sorted(rng.sample(range(len(want)), len(want) // 3))
            shuffled = list(range(len(want))) + [rng.randrange(len(want))]
            rng.shuffle(shuffled)
            assert mod.action_columns(label, k, cols) == [want[c] for c in cols], (label, k)
            assert mod.action_columns(label, k, shuffled) == [want[c] for c in shuffled], (label, k)
            assert mod.action_columns(label, k, range(len(want))) == want, (label, k)
            assert (label, k) not in mod._act


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "0,0")])
def test_module_matrices_are_canonical(series, mus):
    mu = parse_weight(mus, series)
    for b in [F(3, 7), F(0), F(1), F(-11, 7)]:
        mod = ConformalModule(mu, b)
        for k in range(4):
            mats = [mod.phi_matrix(k)]
            for label in mod.conf.labels():
                mats.append(mod.action_matrix(label, k))
                p = mod.central_poly(label)
                if p.terms:
                    mats.append(mod.mult_matrix(p, k))
            for M in mats:
                assert all(is_canonical(v) for v in M.data.values()), (mod.b, k)


def test_module_and_embedding_do_no_integral_fraction_arithmetic():
    # integral scalars are ints, so building the module's matrices and
    # checking the embedding never calls Fraction arithmetic on two
    # integral operands; the weight tuples of the irrep builder still do
    # (they are public Fractions), so V(mu) is built before counting
    from oconf import mixed

    mu = parse_weight("1,0", "D")
    ConformalModule(mu, 0)
    for cached in (build_conformal, mixed._embed, mixed._split, mixed._field_shifts):
        cached.cache_clear()
    with integral_fraction_ops() as count:
        for b in (F(0), F(-11, 7)):
            mod = ConformalModule(mu, b)
            for k in range(4):
                for label in mod.conf.labels():
                    mod.action_matrix(label, k)
        assert verify_shen_monomorphism(2, "D")["ok"]
    assert count() == 0
    with integral_fraction_ops() as count:
        F(1, 2) + F(1, 2)
        F(2) * 3
    assert count() == 1 and F(2) * 3 == 6  # the count sees one and the operators are restored


@pytest.mark.parametrize("n,series", [(2, "D"), (2, "B")])
def test_shen_check_applies_each_field_to_each_exponent_once(n, series, monkeypatch):
    # the brackets of all generator pairs reuse each embedding's images of
    # the gl exponents; every one is still the field applied to x^e
    seen = []
    right = DiffOp.apply

    def counted(self, f):
        seen.append((repr(self), tuple(f.terms)))
        return right(self, f)

    from oconf import mixed

    mixed._embed.cache_clear()
    monkeypatch.setattr(DiffOp, "apply", counted)
    assert verify_shen_monomorphism(n, series)["ok"]
    assert seen and len(seen) == len(set(seen))
    for lbl in build_conformal(n, series).labels():
        emb = mixed._embed(n, series, lbl)
        for e, image in emb._images.items():
            assert image == right(emb.field, Poly.monomial(emb.num_vars, e))


def test_shen_check_sees_a_wrong_gl_part_of_the_bracket(monkeypatch):
    # the left side embeds the field part of the right side, so only the gl
    # parts are compared; a bracket that gets its gl part wrong must fail
    right = ExtendedOp.bracket

    def wrong(self, other):
        out = right(self, other)
        nv = out.num_vars
        gl = dict(out.gl)
        zero = (0,) * nv
        gl[zero] = gl.get(zero, SparseMat(nv, nv)) + SparseMat(nv, nv, {(0, 1): 1})
        return ExtendedOp(nv, out.field, gl)

    assert verify_shen_monomorphism(2, "D")["ok"]
    monkeypatch.setattr(ExtendedOp, "bracket", wrong)
    r = verify_shen_monomorphism(2, "D")
    assert not r["ok"]
    assert len(r["bracket_failures"]) == r["pairs_checked"] == 105
    assert not r["closed_form_failures"] and not r["containment_failures"]
