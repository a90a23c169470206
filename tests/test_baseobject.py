import dataclasses

import pytest

from weakhopf import baseobject as bo
from weakhopf.exactmat import Mat, mul, same_column_span
from weakhopf.tensorexpr import compose, hmap, tensor


EXPECTED_BASE_DIM = {"g2": 2, "k2": 2, "z2": 1, "sl": 1, "nz": 1}


def test_base_dims(any_pipeline):
    assert any_pipeline.base.r == EXPECTED_BASE_DIM[any_pipeline.bim.name.lower()]


def test_splitting_recomposes_xibar(any_pipeline):
    base, ent = any_pipeline.base, any_pipeline.entwining
    assert compose([base.q, base.iota]) == ent.xibar
    assert compose([base.iota, base.q]).mat == Mat.identity(base.r)


def test_frobenius_separable(any_pipeline):
    report = bo.check_frobenius_separable(any_pipeline.base)
    assert report.passed, report.failed_ids()


def test_pi_splitting(any_pipeline):
    report = bo.check_pi_splitting(any_pipeline.bim, any_pipeline.base,
                                   any_pipeline.actions)
    assert report.passed, report.failed_ids()


def test_g2_base_is_diagonal_product_of_fields(g2):
    base = g2.base
    # m_base(b_x (x) b_y) = delta_xy b_x, delta_base(b_x) = b_x (x) b_x
    assert base.m_base == hmap(2, 2, 1, Mat(2, 4, [[1, 0, 0, 0], [0, 0, 0, 1]]))
    assert base.delta_base == hmap(2, 1, 2,
                                   Mat(4, 2, [[1, 0], [0, 0], [0, 0], [0, 1]]))
    assert base.upsilon.mat == Mat(4, 1, [[1], [0], [0], [1]])


def test_k2_base_equals_whole_instance(k2):
    base, bim = k2.base, k2.bim
    assert base.r == bim.n
    assert base.q.mat == Mat.identity(2) and base.iota.mat == Mat.identity(2)
    assert base.m_base == bim.m
    assert base.delta_base == bim.delta


def test_z2_base_is_ground_field(z2):
    base = z2.base
    assert base.r == 1
    assert base.m_base.mat == Mat(1, 1, [[1]])
    assert base.eps_base.mat == Mat(1, 1, [[1]])


def test_equaliser_locus_is_iota_image(any_pipeline):
    bim, ent, base = any_pipeline.bim, any_pipeline.entwining, any_pipeline.base
    from weakhopf.exactmat import kernel_basis
    one = bim.id1()
    diff = compose([bim.delta, tensor(ent.chi, one)]).mat - bim.delta.mat
    assert same_column_span(kernel_basis(diff), base.iota.mat)


def test_coequaliser_factors_through_q(any_pipeline):
    bim, ent, base = any_pipeline.bim, any_pipeline.entwining, any_pipeline.base
    from weakhopf.exactmat import rank
    one = bim.id1()
    diff = compose([tensor(ent.chibar, one), bim.m]).mat - bim.m.mat
    assert mul(base.q.mat, diff) == Mat(base.r, bim.n ** 2,
                                        [[0] * bim.n ** 2] * base.r)
    assert rank(diff) == bim.n - base.r


def test_action_laws(any_pipeline):
    assert any_pipeline.actions.report.passed


def test_g2_right_action_is_free_of_rank_two(g2):
    # g_ij . b_x = [x == j] g_ij, so H is free with basis {g_i0, g_i1} rows
    acts = g2.actions
    arrows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for k, (i, j) in enumerate(arrows):
        for x in range(2):
            col = k * 2 + x
            expect = [1 if (r == k and x == j) else 0 for r in range(4)]
            assert [acts.rho_r.mat.data[r][col] for r in range(4)] == expect


def test_z2_right_action_is_scalar(z2):
    acts, bim = z2.actions, z2.bim
    assert acts.rho_r == dataclasses.replace(
        bim.id1(), dom=(2, 1), mat=bim.id1().mat)


def test_k2_left_action_is_multiplication(k2):
    assert k2.actions.rho_l.mat == k2.bim.m.mat


def test_broken_separability_fails_pi_section(g2):
    base = g2.base
    scaled = dataclasses.replace(
        base, delta_base=dataclasses.replace(base.delta_base,
                                             mat=base.delta_base.mat
                                             + base.delta_base.mat))
    report = bo.check_pi_splitting(g2.bim, scaled, g2.actions)
    assert not {e.axiom_id: e for e in report.entries}["pi.section"].holds


def test_build_base_requires_entwining_on_matching_instance(g2, z2):
    with pytest.raises(Exception):
        bo.build_base(g2.bim, z2.entwining)
