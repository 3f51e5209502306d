"""Construction and verification of weight-adapted dyadic depth sequences."""

import math

import pytest

from gst import fixtures, grids, weights
from gst.grids import (DyadicGrid, GridConstructionError, build_grid,
                       feasible_grid, geometric_sum_margin, grid_from_json,
                       grid_to_json, verify_grid)

W_T = weights.power(1.0)


class TestBuild:
    def test_linear_weight_recursion_trace(self):
        g = build_grid(W_T, 4, 3.0, 3)
        assert g.depths == (4, 12, 36, 108)

    def test_small_C_rejected(self):
        with pytest.raises(ValueError):
            build_grid(W_T, 4, 2.0, 3)

    def test_shallow_start_rejected(self):
        # w^lambda(2^-n0) must start below 1/2
        with pytest.raises(ValueError):
            build_grid(W_T, 1, 3.0, 2)

    def test_ratio_window(self):
        g = build_grid(W_T, 4, 3.0, 4)
        etas = [n * math.log(2.0) for n in g.depths]
        for a, b in zip(etas, etas[1:]):
            assert 3.0 * (1 - 1e-9) <= b / a < 30.0

    def test_depth_cap(self):
        with pytest.raises(GridConstructionError):
            build_grid(weights.log_power(1.0), 8, 5.0, 3)


class TestFeasible:
    def test_one_walk_to_the_depth_cap(self, monkeypatch):
        # loglog^-1 reaches the depth cap in its second level: the grid is
        # the first level, and each level is searched once, as in the one
        # build_grid walk that fails there
        w = weights.log_power(1.0, depth=2)
        calls = []
        neg_log = weights.Weight.neg_log_at_depth
        monkeypatch.setattr(weights.Weight, "neg_log_at_depth", lambda self,
                            n: calls.append(n) or neg_log(self, n))
        with pytest.raises(GridConstructionError, match="depth cap"):
            build_grid(w, 4, 3.0, 5)
        walk, calls[:] = list(calls), []
        g = feasible_grid(w, 4, 3.0, 5)
        assert g.depths == (4, 159440) and g.C_param == 3.0
        assert calls == walk

    def test_no_level_below_the_cap(self):
        with pytest.raises(GridConstructionError, match="no grid level"):
            feasible_grid(weights.log_power(1.0, depth=2), 8, 3.0, 5)


class TestVerify:
    def test_constructed_grid_passes(self):
        g = build_grid(W_T, 4, 3.0, 3)
        v = verify_grid(g, W_T)
        assert v.is_w_grid and v.superlacunary
        assert v.beta == pytest.approx(3.0, rel=1e-2)

    def test_arithmetic_sequence_not_superlacunary(self):
        v = verify_grid(DyadicGrid((4, 5, 6, 7)), W_T)
        assert v.is_w_grid
        assert not v.superlacunary  # 4 + 5 + 6 > 7

    def test_singleton_vacuous(self):
        v = verify_grid(DyadicGrid((4,)), W_T)
        assert v.is_w_grid and v.superlacunary

    def test_superlacunary_inequality_direct(self):
        # 2^-36 <= 2^-4 * 2^-12 for the {4, 12, 36} prefix
        assert 2.0 ** -36 <= 2.0 ** -4 * 2.0 ** -12


class TestSuiteCoverage:
    @pytest.mark.parametrize("n0", [4, 8, 16])
    @pytest.mark.parametrize("C", [3.0, 5.0])
    def test_grid_suite(self, n0, C):
        for name, w in fixtures.grid_suite().items():
            g = feasible_grid(w, n0, C, 5)
            v = verify_grid(g, w)
            assert v.is_w_grid and v.superlacunary, (name, n0, C)
            assert geometric_sum_margin(g, w) <= 1e-12, (name, n0, C)


class TestJson:
    def test_roundtrip(self):
        g = build_grid(W_T, 4, 3.0, 3)
        again = grid_from_json(grid_to_json(g))
        assert again.depths == g.depths
        assert again.C_param == g.C_param

    def test_depths_capped(self):
        assert DyadicGrid((4, grids.DEPTH_CAP)).depths[-1] == grids.DEPTH_CAP
        for depths in ([4, grids.DEPTH_CAP + 1], [4, 10 ** 400]):
            with pytest.raises(ValueError, match="at most"):
                grid_from_json(depths)

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="unknown field 'lamda'"):
            grid_from_json({"depths": [4, 8], "lamda": 2.0})
