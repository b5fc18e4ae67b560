import pytest

from accordion_gripper import (
    ChamberGeometry,
    GripperAssembly,
    HyperelasticMaterial,
    SolverBox,
)
from accordion_gripper.config import ModelContext, load_config


@pytest.fixture(scope="session")
def geom():
    return ChamberGeometry()


@pytest.fixture(scope="session")
def mat():
    return HyperelasticMaterial()


@pytest.fixture(scope="session")
def box():
    return SolverBox()


@pytest.fixture(scope="session")
def assembly(geom, mat):
    return GripperAssembly(geometry=geom, material=mat)


@pytest.fixture(scope="session")
def ctx():
    return ModelContext.from_config(load_config())


@pytest.fixture
def series_draws(monkeypatch):
    """Spy on ``gripper.angles_at_pressures``: one list per call, of the pressures that call
    has drawn so far; each is drawn as the series reads it, so the spy keeps a series lazy."""
    import accordion_gripper.gripper as gripper

    calls, real = [], gripper.angles_at_pressures

    def spy(geom, mat, pressures, *args, **kwargs):
        drawn = []
        calls.append(drawn)

        def draw():
            for p in pressures:
                drawn.append(p)
                yield p

        return real(geom, mat, draw(), *args, **kwargs)

    monkeypatch.setattr(gripper, "angles_at_pressures", spy)
    return calls
