"""Incompressible neo-Hookean constitutive law for the chamber wall.

Stretches are dimensionless; energies and stresses are in kPa. The
out-of-plane principal stretch is fixed at 1 (plane strain), so the first
invariant reduces to ``lam_theta**2 + lam_r**2 + 1``. The wall material is
characterised by the single constant ``c1`` (119 kPa for the cast silicone
used in the prototype).
"""

from __future__ import annotations

import math

from .records import Record


class HyperelasticMaterial(Record, fields="c1"):
    """Single-constant incompressible neo-Hookean material."""

    __slots__ = ()

    def __new__(cls, c1: float = 119.0):  # kPa
        if not (c1 > 0 and math.isfinite(2.0 * c1)):  # the stress law scales by 2*c1
            raise ValueError(f"material constant c1 must be positive with 2*c1 finite, got {c1}")
        return tuple.__new__(cls, (c1,))


def _check_stretches(lambda_theta: float, lambda_r: float) -> None:
    if lambda_theta <= 0 or lambda_r <= 0:
        raise ValueError(
            "principal stretches must be positive, got "
            f"lambda_theta={lambda_theta}, lambda_r={lambda_r}"
        )


def strain_energy_density(
    mat: HyperelasticMaterial, lambda_theta: float, lambda_r: float
) -> float:
    """Strain energy density W = c1*(I1 - 3), kPa.  Zero iff undeformed."""
    _check_stretches(lambda_theta, lambda_r)
    i1 = lambda_theta**2 + lambda_r**2 + 1.0
    return mat.c1 * (i1 - 3.0)


def stress_difference(
    mat: HyperelasticMaterial, lambda_theta: float, lambda_r: float
) -> float:
    """Cauchy hoop-minus-radial stress difference, kPa.

    Equals ``lam_t*dW/dlam_t - lam_r*dW/dlam_r = 2*c1*(lam_t^2 - lam_r^2)``;
    antisymmetric under swapping the two stretches.
    """
    _check_stretches(lambda_theta, lambda_r)
    return 2.0 * mat.c1 * (lambda_theta**2 - lambda_r**2)
