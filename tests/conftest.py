import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def clear_caches():
    """Returns a function that empties every memo table of the package."""

    def clear():
        for name, module in list(sys.modules.items()):
            if name == "schubfire" or name.startswith("schubfire."):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()

    clear()
    return clear
