"""Every test starts and ends with an empty tower table, as a new process
does: no test reads a tower, or a cache on it, that another test built, and
no tower a test built under a mutation outlives it.  suites.geometry_scope
keeps per text only its level list and names; its towers come from the
same table."""

import pytest

from grrcheck import geometry


@pytest.fixture(autouse=True)
def fresh_tower_table():
    geometry._towers.clear()
    yield
    geometry._towers.clear()
