from fractions import Fraction

import pytest

from hankelab.poly import Poly
from hankelab.rat import Rat
from hankelab.hankel import quartet
from hankelab.identities import (
    IdentityId,
    RelationId,
    POINT_RELATIONS,
    SYMBOLIC_RELATIONS,
    check_identity,
    check_matrix_convolution_identities,
    check_relation,
    ciden_check,
    e_matrix,
    explicit_weights,
    explicit_weights_match,
    f_matrix,
    identity_residual,
    jet_quartet,
    pnqnrn_21,
    pnqnrn_31,
    rational_nullspace,
    relation_residuals,
    relation_residuals_at,
    transform_rules,
    weight_nullspace,
)
from hankelab.sequences import F21, F30, F31, a_poly


def test_identity_boundary_uses_c_minus1():
    # at k = 0 the c_{k-1} term vanishes by the c_{-1} = 0 convention
    assert identity_residual(IdentityId.L1_31, 0).is_zero()
    assert identity_residual(IdentityId.L1_21, 0).is_zero()


def test_identities_hold():
    for iid in IdentityId:
        assert check_identity(iid, 12) == [], iid


def test_relation_det01_hand_expansion():
    # n = 1: both sides equal -16x^3 + 84x^2 - 126x + 54
    q = quartet(F31, 1)
    assert q.K == Poly([36, -9, -2])
    lhs = Poly([-3, 1]) * Poly([-3, 2]) * Poly([-3, 4]) * q.H.derivative()
    assert lhs == Poly([54, -126, 84, -16])
    rhs = Poly([-90, -36, 8]) * q.H + 14 * q.K
    assert lhs == rhs
    (residual,) = relation_residuals(RelationId.R_DET01, 1)
    assert residual.is_zero()


def test_relations_symbolic():
    for rid in SYMBOLIC_RELATIONS:
        for n in range(2, 7):
            assert check_relation(rid, n), (rid, n)


def test_relations_at_points():
    for rid in POINT_RELATIONS:
        for n in range(2, 7):
            assert check_relation(rid, n), (rid, n)


def test_relation_x3_hand_values():
    # K_1(3) = 3*42/14 * H_1(3) = -9, directly 36 - 27 - 18
    q = quartet(F31, 1)
    assert q.K(3) == -9
    assert q.K(3) == Rat(3 * 42, 14) * q.H(3)


def test_relation_screen_jets():
    for rid in SYMBOLIC_RELATIONS:
        for x0 in (Rat(7, 5), Rat(-2, 3)):
            vals = relation_residuals_at(rid, 11, x0)
            assert all(v == 0 for v in vals), (rid, x0)


def test_relation_entry_points_reject_the_same_input():
    # a point relation, and n = 0 where M_0 and N_0 are undefined
    for args in ((RelationId.R_X3, 3), (RelationId.R_LINEAR, 0), (RelationId.R_DET01, -1)):
        with pytest.raises(ValueError, match="point relation|needs n >= 1"):
            relation_residuals(*args)
        with pytest.raises(ValueError, match="point relation|needs n >= 1"):
            relation_residuals_at(*args, Rat(7, 5))
    with pytest.raises(ValueError, match="needs n >= 1"):
        jet_quartet(F31, 0, Rat(7, 5))


def test_e_f_matrix_shapes():
    e = e_matrix(F31, 2)
    assert e[0][0] == a_poly(F31, 0) * Fraction(1, 2)
    assert e[2][1] == a_poly(F31, 1)
    assert e[0][1].is_zero()
    f = f_matrix(F31, 2)
    assert f[0][0].is_zero()
    assert f[1][0] == a_poly(F31, 0)
    assert f[2][0] == a_poly(F31, 1)


def test_convolution_identity_n0():
    # 1x1 case: c_0 = a_0^2 = a_0/2*a_0 + a_0*a_0/2
    assert check_matrix_convolution_identities(F31, 0)


def test_convolution_identities():
    for fam in (F21, F31):
        for n in range(0, 5):
            assert check_matrix_convolution_identities(fam, n), (fam, n)


def test_transform_rules():
    for fam in (F21, F31):
        for n in range(1, 4):
            results = transform_rules(fam, n)
            assert len(results) == 11
            assert all(ok for _, ok in results), (fam, n, results)


def test_rational_nullspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = rational_nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(c * v for c, v in zip(rows[0], vec)) == 0


def test_weight_nullspace_21():
    sol = weight_nullspace(F21, 1)
    assert sol.scale == 1
    p, q, r = pnqnrn_21(1)
    assert sol.weights[3] == p
    assert sol.weights[2] == q
    assert sol.weights[1] == r
    # annihilation rows were asserted inside; spot-check i = 0 independently
    acc = Poly.zero()
    for j, w in enumerate(sol.weights):
        acc = acc + w * a_poly(F21, j)
    assert acc.is_zero()


def test_weight_nullspace_31_top_three():
    n = 2
    sol = weight_nullspace(F31, n)
    p, q, r = pnqnrn_31(n)
    assert p == -8 * (4 * n + 3) * (4 * n + 5) * Poly([-1, 1])
    assert sol.weights[n + 2] == p * sol.scale
    assert sol.weights[n + 1] == q * sol.scale
    assert sol.weights[n] == r * sol.scale
    # under lowest-coefficient-1 normalization the scale is -1/(2(4n+3)(4n+5))
    assert sol.scale == Rat(-1, 2 * (4 * n + 3) * (4 * n + 5))


def test_weight_nullspace_dimensions():
    for fam in (F21, F31):
        for n in range(1, 7):
            sol = weight_nullspace(fam, n)
            assert len(sol.q0) == n + 2


def test_ciden():
    for fam in (F21, F31):
        for n in range(1, 9):
            assert ciden_check(fam, n), (fam, n)


def test_third_identity_full_range():
    # the (2,1) determinantal third identity holds from n = 1 up
    for n in range(1, 13):
        assert check_relation(RelationId.R_21_THIRD, n), n


def test_explicit_weights_21_formula_values():
    # j = n+2, n+1, n top out at the anchor triple exactly
    n = 3
    w = explicit_weights(F21, n)
    p, q, r = pnqnrn_21(n)
    assert w[n + 2] == p and w[n + 1] == q and w[n] == r


def test_explicit_weights_match_nullspace():
    for n in range(1, 7):
        ok, msg = explicit_weights_match(F21, n)
        assert ok, (n, msg)
    for n in range(2, 6):
        ok, msg = explicit_weights_match(F31, n)
        assert ok, (n, msg)


def test_explicit_weights_31_reproduce_anchor_triple():
    # the closed-form (3,1) weights reproduce (p_n, q_n, r_n) verbatim
    n = 3
    w = explicit_weights(F31, n)
    p, q, r = pnqnrn_31(n)
    assert w[n + 2] == p and w[n + 1] == q and w[n] == r


def test_weight_errors():
    with pytest.raises(ValueError):
        weight_nullspace(F21, 0)
    with pytest.raises(ValueError):
        weight_nullspace(F30, 2)
