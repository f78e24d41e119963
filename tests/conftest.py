import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from fairkit import Instance, mask_from_names

# Property tests draw from a fixed seed and keep no example database, so every
# run of the suite checks the same examples.
settings.register_profile("fairkit", derandomize=True, deadline=None, database=None)
settings.load_profile("fairkit")


@pytest.fixture
def alloc_of():
    """Build an allocation tuple from per-agent name lists."""
    def build(inst: Instance, *bundles):
        return tuple(mask_from_names(inst.item_names, b) for b in bundles)
    return build
