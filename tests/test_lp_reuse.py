"""LP-derived data of a frozen polyhedral object is solved once per object.

LP calls are counted at the solver binding in `setcover_kit._lp`, so the
counts cover every program the kit solves.
"""

import gc
import weakref

import numpy as np
import pytest

import setcover_kit as sk
import setcover_kit._lp as lp
from setcover_kit import geometry
from setcover_kit.geometry import outer_radius

EU3 = sk.NormedSpace(3)


@pytest.fixture()
def lp_calls(monkeypatch):
    calls = []
    real = lp.linprog

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", counting)
    return calls


# the forms of a sublinear system whose images are tilted, clipped boxes
GROUPS = (np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
          np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.5, 0.5, 0.5]]),
          np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))


def sublinear_image():
    """A bounded 3-d image of a sublinear system: a tilted, clipped box."""
    return sk.eval_map(sk.SublinearSystem(groups=GROUPS), np.array([1.0, -0.5, 2.0]))


def orthant_graph_process():
    return sk.PolyhedralProcess(cx=[[1.0], [1.0]], cy=[[-1.0, 0.0], [0.0, -1.0]])


def region_queries(region):
    target = sk.Ball(np.zeros(3), 0.5)
    assert sk.boundedness(EU3, region).bounded
    outer_radius(EU3, region, np.ones(3))
    sk.sample(EU3, region, 32, seed=1)
    sk.excess(EU3, region, target, n_samples=32, seed=2)
    sk.hausdorff(EU3, region, target, n_samples=32, seed=3)


def test_region_queries_share_one_coordinate_pass(lp_calls):
    region = sublinear_image()
    assert isinstance(region, sk.SublevelRegion)
    region_queries(region)
    assert len(lp_calls) == 2 * 3


def test_equal_region_solves_again(lp_calls):
    region_queries(sublinear_image())
    region_queries(sublinear_image())
    assert len(lp_calls) == 2 * 2 * 3  # the extent is kept per object, not by value


def test_process_queries_share_one_analysis(lp_calls):
    sk.interior_radius(orthant_graph_process())
    single = len(lp_calls)
    assert single > 0
    proc = orthant_graph_process()
    sk.alpha_of(proc)
    sk.cover_witness(proc, np.zeros(1), 0.5)
    sk.cover_witness(proc, np.ones(1), 0.25)
    report = sk.interior_radius(proc)
    assert len(lp_calls) == 2 * single  # the fresh, equal process analysed once more
    assert sk.interior_radius(proc) is report


def test_kept_arrays_are_read_only():
    lo, hi, argpoints = sublinear_image().extent()
    assert argpoints.shape == (2 * 3, 3)
    report = sk.interior_radius(orthant_graph_process())
    for arr in (lo, hi, argpoints, report.u0, report.y_interior):
        with pytest.raises(ValueError):
            arr[0] = 7.0


def test_epigraphical_constant_does_not_keep_its_map_alive(lp_calls):
    m = sk.Epigraphical(np.array([[1.0, 0.5], [0.0, 1.0]]))
    alpha = sk.alpha_of(m).alpha
    solved = len(lp_calls)
    sk.cover_witness(m, np.zeros(2), 0.5)
    assert sk.alpha_of(m).alpha == alpha
    assert len(lp_calls) == solved + 1  # only the witness LP; the constant is kept
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


@pytest.fixture()
def max_norm_fits(monkeypatch):
    fits = []
    real = geometry.max_norm_fit

    def counting(*args, **kwargs):
        fits.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "max_norm_fit", counting)
    return fits


def test_a_max_norm_excess_solves_only_the_rows_that_can_be_largest(max_norm_fits):
    max3 = sk.NormedSpace(3, "max")
    sub = sk.SublinearSystem(groups=GROUPS, space_y=max3)
    source, target = (sk.eval_map(sub, x) for x in ([2.0, -1.5, 2.5], [1.0, -0.5, 2.0]))
    pts = sk.sample(max3, source, 48, seed=4)
    outside = int((sk.dists(max3, pts, target).value > 0.0).sum())
    max_norm_fits.clear()
    e = sk.excess(max3, source, target, n_samples=48, seed=4)
    assert float(e) > 0.0
    assert 0 < len(max_norm_fits) < outside


def test_an_empty_target_costs_one_program(lp_calls, max_norm_fits):
    empty = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0]]), -1.0),
                               sk.FormGroup(np.array([[-1.0, 0.0]]), -1.0)))
    e = sk.excess(sk.NormedSpace(2, "max"), sk.Box(-np.ones(2), np.ones(2)), empty)
    assert float(e) == np.inf and not e.approximate
    assert len(max_norm_fits) == len(lp_calls) == 1
