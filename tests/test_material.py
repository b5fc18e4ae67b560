import math
import sys

import pytest
from hypothesis import given, strategies as st

from accordion_gripper import HyperelasticMaterial, strain_energy_density, stress_difference

stretches = st.floats(min_value=0.5, max_value=2.0, allow_nan=False)


def test_default_constant():
    assert HyperelasticMaterial().c1 == 119.0


@pytest.mark.parametrize("bad", [0.0, -1.0, -119.0])
def test_constant_must_be_positive(bad):
    with pytest.raises(ValueError, match="positive"):
        HyperelasticMaterial(c1=bad)


def test_constant_whose_double_overflows_rejected():
    # The stress law scales by 2*c1: half the float top is the stiffest constant.
    half = sys.float_info.max / 2
    assert HyperelasticMaterial(half).c1 == half
    for bad in (math.nextafter(half, math.inf), 1.7e308, math.inf):
        with pytest.raises(ValueError, match=r"2\*c1 finite"):
            HyperelasticMaterial(bad)


def test_material_is_frozen():
    mat = HyperelasticMaterial()
    with pytest.raises(AttributeError):
        mat.c1 = 200.0


def test_energy_at_known_stretch_pair():
    # Hand evaluation at (1.2, 1/1.2): 119*(1.44 + 0.694444... - 2)
    mat = HyperelasticMaterial()
    w = strain_energy_density(mat, 1.2, 1.0 / 1.2)
    assert w == pytest.approx(15.998888888888887, rel=1e-12)


def test_stress_difference_at_known_stretch_pair():
    # Hand evaluation at (1.2, 1/1.2): 238*(1.44 - 0.694444...)
    mat = HyperelasticMaterial()
    s = stress_difference(mat, 1.2, 1.0 / 1.2)
    assert s == pytest.approx(177.44222222222223, rel=1e-12)


def test_energy_zero_only_at_identity():
    mat = HyperelasticMaterial()
    assert strain_energy_density(mat, 1.0, 1.0) == 0.0
    assert strain_energy_density(mat, 1.1, 1.0 / 1.1) > 0.0
    assert strain_energy_density(mat, 0.9, 1.0 / 0.9) > 0.0


@pytest.mark.parametrize("lt,lr", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5)])
def test_nonpositive_stretch_rejected(lt, lr):
    mat = HyperelasticMaterial()
    with pytest.raises(ValueError, match="positive"):
        strain_energy_density(mat, lt, lr)
    with pytest.raises(ValueError, match="positive"):
        stress_difference(mat, lt, lr)


@given(lt=stretches, lr=stretches)
def test_stress_antisymmetric_under_swap(lt, lr):
    mat = HyperelasticMaterial()
    assert stress_difference(mat, lt, lr) == -stress_difference(mat, lr, lt)


@given(lt=stretches, lr=stretches, c1=st.floats(min_value=1.0, max_value=1e4))
def test_linear_in_material_constant(lt, lr, c1):
    base = HyperelasticMaterial(1.0)
    scaled = HyperelasticMaterial(c1)
    assert stress_difference(scaled, lt, lr) == pytest.approx(
        c1 * stress_difference(base, lt, lr), rel=1e-12, abs=1e-12
    )
    assert strain_energy_density(scaled, lt, lr) == pytest.approx(
        c1 * strain_energy_density(base, lt, lr), rel=1e-12, abs=1e-12
    )


@given(lt=stretches)
def test_energy_nonnegative_on_isochoric_pairs(lt):
    mat = HyperelasticMaterial()
    assert strain_energy_density(mat, lt, 1.0 / lt) >= 0.0


def test_stress_matches_energy_gradient():
    # sigma_tt - sigma_rr = lam_t*dW/dlam_t - lam_r*dW/dlam_r, central FD.
    import numpy as np

    mat = HyperelasticMaterial()
    rng = np.random.default_rng(42)
    h = 1e-6
    for lt, lr in rng.uniform(0.5, 2.0, size=(50, 2)):
        dw_t = (
            strain_energy_density(mat, lt + h, lr)
            - strain_energy_density(mat, lt - h, lr)
        ) / (2 * h)
        dw_r = (
            strain_energy_density(mat, lt, lr + h)
            - strain_energy_density(mat, lt, lr - h)
        ) / (2 * h)
        expected = lt * dw_t - lr * dw_r
        got = stress_difference(mat, lt, lr)
        assert got == pytest.approx(expected, rel=1e-6)
