import numpy as np
import pytest

from roadcorr import NetworkGeometry, TrafficModel

SEED = 20260816


@pytest.fixture(scope="session")
def geom() -> NetworkGeometry:
    return NetworkGeometry(guard_radius=150.0, pathloss_exponent=3.0, speed=10.0)


@pytest.fixture(scope="session")
def traffic() -> TrafficModel:
    """Dense stream: occupancy 0.2, where hardcore effects are clearly visible."""
    return TrafficModel.from_intensity(0.05, 4.0)


@pytest.fixture(scope="session")
def traffic_light() -> TrafficModel:
    """Sparser stream at occupancy 0.08."""
    return TrafficModel.from_intensity(0.02, 4.0)


@pytest.fixture(scope="session")
def traffic_ppp() -> TrafficModel:
    """No minimum gap: the stream degenerates to a Poisson process."""
    return TrafficModel.from_intensity(0.05, 0.0)


@pytest.fixture
def power_bases(monkeypatch) -> list:
    """Copies of every base array handed to np.power while the test runs."""
    bases = []
    power = np.power

    def recording(base, *args, **kwargs):
        bases.append(np.array(base, dtype=float))
        return power(base, *args, **kwargs)

    monkeypatch.setattr(np, "power", recording)
    return bases
