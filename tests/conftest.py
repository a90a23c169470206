import pytest

from weakhopf import instances as inst
from weakhopf.pipeline import Pipeline

NAMES = ("g2", "k2", "z2", "sl", "nz")


@pytest.fixture(scope="session", params=NAMES)
def any_pipeline(request):
    return Pipeline(inst.BUILTINS[request.param]())


def _builtin(name):
    """A session fixture, named after the built-in, holding its Pipeline."""
    return pytest.fixture(scope="session", name=name)(
        lambda: Pipeline(inst.BUILTINS[name]()))


g2, k2, z2, sl, nz = map(_builtin, NAMES)
