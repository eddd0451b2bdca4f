"""Matrix realizations, root-space structure, conformal algebras, theta."""

from fractions import Fraction

import pytest

from oconf.linalg import SparseMat, rank_of_rows
from oconf.ortho import (
    ConformalBasis,
    _report_entry,
    _root_height,
    build_conformal,
    build_ortho,
    diffop_coeff_vector,
    theta,
    theta_images,
    verify_bracket_tables,
    verify_theta_homomorphism,
)
from oconf.poly import DiffOp, bracket

F = Fraction


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_basis_count_and_form_invariance(m):
    ob = build_ortho(m)
    assert len(ob) == m * (m - 1) // 2
    G = ob.split_form_matrix()
    for i in range(len(ob)):
        X = ob.matrix(i)
        assert (X.transpose() * G + G * X).is_zero()


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_root_space_decomposition(m):
    ob = build_ortho(m)
    cartan = [ob.matrix(i) for i in ob.cartan_indices()]
    for i, el in enumerate(ob.elements):
        X = ob.matrix(i)
        if el.kind == "cartan":
            for h in cartan:
                assert h.bracket(X).is_zero()
            continue
        for t, h in enumerate(cartan):
            assert h.bracket(X) == X.scale(el.root[t])


def _simple_root_coefficients(series, n, root):
    """root in the simple roots e_i - e_(i+1) (i < n) and e_(n-1) + e_n (D)
    or e_n (B), solved exactly."""
    import sympy

    simple = [[int(j == i) - int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    simple.append([int(j >= n - 2) for j in range(n)] if series == "D" else [int(j == n - 1) for j in range(n)])
    return list(sympy.Matrix(simple).T.solve(sympy.Matrix(root)))


@pytest.mark.parametrize("m", range(3, 15))
def test_root_height_is_the_simple_root_coefficient_sum(m):
    # the pairing with rho-check against the definition of the height; the
    # positive root vectors come in order of height
    ob = build_ortho(m)
    pos = [el for el in ob.elements if el.kind == "pos"]
    assert len(pos) == (len(ob) - ob.n) // 2
    heights = []
    for el in pos:
        coeffs = _simple_root_coefficients(ob.series, ob.n, el.root)
        assert all(c.is_integer and c >= 0 for c in coeffs), el.label
        assert _root_height(ob.series, ob.n, el.root) == sum(coeffs), el.label
        heights.append(sum(coeffs))
    assert heights == sorted(heights) and heights[0] == 1


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_unit_is_the_matrix_unit_in_label_indices(m):
    ob = build_ortho(m)
    labels = range(1, m + 1) if m % 2 == 0 else range(0, m)
    for a in labels:
        for b in labels:
            pos = (a - 1, b - 1) if m % 2 == 0 else (a, b)
            assert ob.unit(a, b) == SparseMat(m, m, {pos: 1}), (a, b)


@pytest.mark.parametrize("n,series,want", [(2, "D", range(1, 5)), (3, "D", range(1, 7)),
                                           (1, "B", range(0, 3)), (2, "B", range(0, 5))])
def test_var_labels_number_the_variables_in_position_order(n, series, want):
    conf = build_conformal(n, series)
    assert conf.var_labels == want
    assert [conf.var_pos(r) for r in conf.var_labels] == list(range(conf.num_vars))
    assert [lbl for lbl in conf.labels() if lbl.startswith("J_")] == [f"J_{r}" for r in want]
    with pytest.raises(AttributeError):
        conf.var_labels = range(3)  # derived from series and n


def test_build_ortho_bracket_example():
    # o(6): [E_{1,2}-E_{5,4}, E_{2,1}-E_{4,5}] = (E_{1,1}-E_{4,4}) - (E_{2,2}-E_{5,5})
    ob = build_ortho(6)
    A = ob.matrix("E_{1,2}-E_{5,4}")
    B = ob.matrix("E_{2,1}-E_{4,5}")
    coeffs = ob.expand(A.bracket(B))
    labels = {ob.elements[i].label: c for i, c in coeffs.items()}
    assert labels == {"E_{1,1}-E_{4,4}": F(1), "E_{2,2}-E_{5,5}": F(-1)}


def test_expand_rejects_outside_span():
    ob = build_ortho(4)
    M = SparseMat(4, 4, {(0, 0): F(1)})  # not antisymmetric for the split form
    with pytest.raises(ValueError):
        ob.expand(M)


def test_build_ortho_requires_m_at_least_3():
    with pytest.raises(ValueError):
        build_ortho(2)


def test_conformal_generator_counts():
    assert len(build_conformal(2, "D")) == 15  # dim o(6)
    assert len(build_conformal(2, "B")) == 21  # dim o(7)
    assert len(build_conformal(3, "D")) == 28  # dim o(8)
    with pytest.raises(ValueError):
        build_conformal(1, "D")


def test_special_conformal_closed_form():
    # J_1 = x_1 (sum x_r d_r) - (x_1 x_3 + x_2 x_4) d_3 for n=2 D
    conf = build_conformal(2, "D")
    J1 = conf.op("J_1")
    from oconf.poly import Poly

    direct = (DiffOp.mult(Poly.var(4, 0)) @ conf.euler()) - (DiffOp.mult(conf.eta()) @ DiffOp.partial(4, 2))
    assert J1 == direct


@pytest.mark.parametrize("n,series", [(2, "D"), (3, "D"), (1, "B"), (2, "B")])
def test_every_special_conformal_matches_a_fresh_euler_operator(n, series):
    # the basis builds D once and every J_r reads it: each J_r is
    # x_r D - eta d_(r') with D built afresh, r' paired with r by the metric
    conf = build_conformal(n, series)
    euler = conf.euler()
    assert conf.op("D") == euler
    for r in conf.var_labels:
        partner = r if r == 0 else n + r if r <= n else r - n
        direct = (DiffOp.mult(conf.x(r)) @ euler) - (DiffOp.mult(conf.eta()) @ conf.partial(partner))
        assert conf.op(f"J_{r}") == direct, r


def test_conformal_generators_independent():
    for n, series in [(2, "D"), (2, "B")]:
        conf = build_conformal(n, series)
        keys = {}
        rows = []
        for lbl in conf.labels():
            row = {}
            for key, c in diffop_coeff_vector(conf.op(lbl)).items():
                row[keys.setdefault(key, len(keys))] = c
            rows.append(row)
        assert rank_of_rows(rows) == len(conf)


@pytest.mark.parametrize("n,series", [(2, "D"), (3, "D"), (1, "B"), (2, "B")])
def test_bracket_tables_all_pass(n, series):
    rep = verify_bracket_tables(n, series)
    fails = [r for r in rep if r["status"] != "pass"]
    assert not fails, fails[:3]


def test_report_entry_builds_the_difference_only_on_failure():
    conf = build_conformal(2, "D")
    a, b = conf.op("J_1"), conf.op("d_1")
    same = a.scale(1)  # equal to a, another object
    assert _report_entry("a=a", a, same) == {
        "identity": "a=a", "status": "pass", "lhs": repr(a), "rhs": repr(same), "diff": "0"}
    assert _report_entry("a=b", a, b) == {
        "identity": "a=b", "status": "fail", "lhs": repr(a), "rhs": repr(b), "diff": repr(a - b)}


def test_bracket_tables_build_each_rotation_once(monkeypatch):
    calls = []
    right = ConformalBasis.rotation

    def counted(self, family, i, j):
        calls.append((family, i, j))
        return right(self, family, i, j)

    for n, series in [(2, "D"), (2, "B")]:
        build_conformal(n, series)  # the shared basis is built outside the count
        monkeypatch.setattr(ConformalBasis, "rotation", counted)
        calls.clear()
        rep = verify_bracket_tables(n, series)
        monkeypatch.setattr(ConformalBasis, "rotation", right)
        assert calls and len(calls) == len(set(calls))
        assert all(r["status"] == "pass" for r in rep)


def test_theta_images_match_stated_table():
    ob, conf, images = theta_images(2, "D")
    n, N = 2, 3
    assert images[f"E_{{{N},{N}}}-E_{{{2 * N},{2 * N}}}"] == -conf.euler()
    assert images["E_{1,3}-E_{6,4}"] == -conf.special_conformal(1)
    assert images["E_{3,1}-E_{4,6}"] == conf.partial(1)
    ob, conf, images = theta_images(2, "B")
    assert images["E_{0,3}-E_{6,0}"] == -conf.special_conformal(0)
    assert images["E_{0,6}-E_{3,0}"] == -conf.partial(0)
    assert images["E_{0,1}-E_{4,0}"] == conf.rotation("K", 1, 0)


@pytest.mark.parametrize("n,series", [(2, "D"), (2, "B")])
def test_theta_images_read_the_generators_from_the_table(monkeypatch, n, series):
    # every image is a generator of the shared conformal basis or its
    # negative, so no rotation or J_r is built again
    conf = build_conformal(n, series)  # the shared basis is built outside the count
    calls = []
    for name in ("rotation", "special_conformal"):
        def counted(self, *args, name=name, right=getattr(ConformalBasis, name)):
            calls.append((name, args))
            return right(self, *args)
        monkeypatch.setattr(ConformalBasis, name, counted)
    ob, images_conf, images = theta_images(n, series)
    assert calls == []
    assert images_conf is conf and len(images) == len(ob)


@pytest.mark.parametrize("n,series", [(2, "D"), (2, "B"), (3, "D")])
def test_theta_homomorphism_and_injectivity(n, series):
    r = verify_theta_homomorphism(n, series)
    assert r["ok"], r["failures"][:3]
    assert r["independent_images"]


def test_theta_linear_extension():
    ob, conf, images = theta_images(2, "D")
    A = ob.matrix("E_{1,2}-E_{5,4}")
    B = ob.matrix("E_{3,3}-E_{6,6}")
    combo = A.scale(F(2)) + B.scale(F(-1, 3))
    img = theta(ob, images, combo)
    expected = images["E_{1,2}-E_{5,4}"].scale(F(2)) + images["E_{3,3}-E_{6,6}"].scale(F(-1, 3))
    assert img == expected


def test_c_prime_subalgebra_closes():
    # the even-variable conformal operators form a subalgebra of the odd one
    conf = build_conformal(2, "B")
    n = 2
    sub_labels = (
        ["D"]
        + [f"d_{r}" for r in range(1, 2 * n + 1)]
        + [f"J_{r}" for r in range(1, 2 * n + 1)]
        + [f"A_{{{i},{j}}}" for i in range(1, n + 1) for j in range(1, n + 1)]
        + [f"B_{{{i},{j}}}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        + [f"C_{{{i},{j}}}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )
    keys = {}
    rows = []
    for lbl in sub_labels:
        row = {}
        for key, c in diffop_coeff_vector(conf.op(lbl)).items():
            row[keys.setdefault(key, len(keys))] = c
        rows.append(row)
    base_rank = rank_of_rows(rows)
    assert base_rank == len(sub_labels)
    for a in range(len(sub_labels)):
        for b in range(a + 1, len(sub_labels)):
            br = bracket(conf.op(sub_labels[a]), conf.op(sub_labels[b]))
            row = {}
            for key, c in diffop_coeff_vector(br).items():
                if key not in keys:
                    row["outside"] = F(1)
                    break
                row[keys[key]] = c
            assert "outside" not in row
            assert rank_of_rows(rows + [row]) == base_rank
