"""Tests for the cell-library data model."""

import pytest

from repro.errors import LibraryError
from repro.library.cells import ALUCell, CellLibrary, MuxCostTable


def small_library():
    return CellLibrary(
        name="small",
        alus=[
            ALUCell(name="adder", kinds=frozenset({"add"}), area=100.0),
            ALUCell(name="addsub", kinds=frozenset({"add", "sub"}), area=150.0),
            ALUCell(name="mult", kinds=frozenset({"mul"}), area=900.0),
        ],
        register_area=50.0,
        mux_costs=MuxCostTable({2: 10.0, 3: 25.0, 4: 45.0}),
    )


class TestALUCell:
    def test_can_execute(self):
        cell = ALUCell(name="x", kinds=frozenset({"add", "sub"}), area=1.0)
        assert cell.can_execute("add")
        assert not cell.can_execute("mul")

    def test_label_uses_symbols(self):
        cell = ALUCell(name="x", kinds=frozenset({"add", "sub"}), area=1.0)
        assert cell.label() == "(+-)"

    def test_rejects_empty_kinds(self):
        with pytest.raises(LibraryError):
            ALUCell(name="x", kinds=frozenset(), area=1.0)

    def test_rejects_nonpositive_area(self):
        with pytest.raises(LibraryError):
            ALUCell(name="x", kinds=frozenset({"add"}), area=0.0)


class TestMuxCostTable:
    def test_single_input_is_free(self):
        table = MuxCostTable({2: 10.0})
        assert table.cost(0) == 0.0
        assert table.cost(1) == 0.0

    def test_table_lookup(self):
        table = MuxCostTable({2: 10.0, 3: 25.0})
        assert table.cost(2) == 10.0
        assert table.cost(3) == 25.0

    def test_extension_beyond_table(self):
        table = MuxCostTable({2: 10.0}, unit_cost=7.0)
        assert table.cost(5) == 7.0 * 4

    def test_max_increment_positive(self):
        table = MuxCostTable({2: 10.0, 3: 25.0, 4: 45.0})
        assert table.max_increment() >= 20.0

    def test_rejects_invalid_entries(self):
        with pytest.raises(LibraryError):
            MuxCostTable({1: 5.0})
        with pytest.raises(LibraryError):
            MuxCostTable({2: -1.0})
        with pytest.raises(LibraryError):
            MuxCostTable({2: 10.0}, unit_cost=-7.0)


class TestCellLibrary:
    def test_cells_for_kind(self):
        lib = small_library()
        names = {cell.name for cell in lib.cells_for("add")}
        assert names == {"adder", "addsub"}

    def test_cells_for_missing_kind_raises(self):
        with pytest.raises(LibraryError):
            small_library().cells_for("div")

    def test_check_covers(self):
        lib = small_library()
        lib.check_covers(["add", "sub", "mul"])
        with pytest.raises(LibraryError):
            lib.check_covers(["add", "xor"])

    def test_duplicate_cell_name_rejected(self):
        cell = ALUCell(name="dup", kinds=frozenset({"add"}), area=1.0)
        with pytest.raises(LibraryError):
            CellLibrary(name="bad", alus=[cell, cell], register_area=1.0)

    def test_rejects_nonpositive_register_area(self):
        with pytest.raises(LibraryError):
            CellLibrary(name="bad", alus=[], register_area=0.0)

    def test_restricted_sublibrary(self):
        lib = small_library().restricted(["adder", "mult"])
        assert len(lib.cells()) == 2
        with pytest.raises(LibraryError):
            lib.cells_for("sub")

    def test_f_bounds(self):
        lib = small_library()
        assert lib.f_alu_max() == 900.0
        assert lib.f_reg_max() == 100.0
        assert lib.f_mux_max() == 2 * lib.mux_costs.max_increment()

    def test_cell_lookup(self):
        lib = small_library()
        assert lib.cell("adder").area == 100.0
        with pytest.raises(LibraryError):
            lib.cell("ghost")
