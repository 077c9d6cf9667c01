"""The E6/E7/E8 tables are the Bala-Carter derivation's output, row for row."""

import pytest
from bala_carter import derive_table

from orbitspan.exceptional_data import TABLES
from orbitspan.rootcore import SimpleType


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_bala_carter_derivation_regenerates_e_table(rank):
    """Names, weights and order of every row equal the embedded table's."""
    assert tuple(derive_table(SimpleType("E", rank))) == TABLES[f"E{rank}"]
