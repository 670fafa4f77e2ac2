import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples (seeded from each test's own source), so a
# result does not change from one run to the next
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

from envsos.lie import builtin

BUILTIN_NAMES = ["abelian(3)", "su2", "heisenberg3", "affine_line", "sl2r"]


@pytest.fixture(scope="session")
def builtins():
    return {name: builtin(name) for name in BUILTIN_NAMES}


@pytest.fixture(scope="session")
def su2():
    return builtin("su2")
