import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def children_import_gops_from_src():
    """The ``python -m gops`` children that CLI tests start import this
    checkout's ``src``, as the tests do through ``pyproject.toml``'s
    pytest ``pythonpath``; so a bare ``pytest`` needs neither an installed
    package nor ``PYTHONPATH``."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), old]))
    try:
        yield
    finally:
        if old is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = old
