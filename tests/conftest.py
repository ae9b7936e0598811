import pytest

from thetanav import harness
from thetanav.config import RunConfig


@pytest.fixture(scope="session")
def rig():
    """The default-config rig (population seed 0), built once.  Runs on it
    start every scan from a phase reset, so sharing it is safe."""
    return harness.build_rig(RunConfig())
