"""Tests for the ASCII curve renderer."""

import pytest

from repro.obs.ascii import render_curves


def test_empty_rejected():
    with pytest.raises(ValueError):
        render_curves({})
    with pytest.raises(ValueError):
        render_curves({"a": []})


def test_markers_and_legend():
    out = render_curves({"alpha": [(0, 0), (10, 5)],
                         "beta": [(5, 10)]})
    assert "o alpha" in out
    assert "x beta" in out
    grid_lines = out.splitlines()[:-3]
    assert any("o" in line for line in grid_lines)
    assert any("x" in line for line in grid_lines)


def test_extreme_points_hit_corners():
    out = render_curves({"s": [(0, 0), (100, 50)]}, width=20, height=8)
    lines = out.splitlines()
    # max-y point in the top row, min-y in the bottom grid row.
    assert "o" in lines[0]
    assert "o" in lines[7]


def test_single_point_no_divide_by_zero():
    out = render_curves({"s": [(5, 5)]})
    assert "o" in out


def test_axis_labels():
    out = render_curves({"s": [(0, 1), (1, 2)]},
                        x_label="req/s", y_label="us")
    assert "req/s" in out and "y=us" in out


def test_hockey_stick_shape_visible():
    """A latency blow-up puts late points near the top-right."""
    curve = [(100, 10), (200, 12), (300, 15), (400, 400)]
    out = render_curves({"load": curve}, width=40, height=10)
    top_row = out.splitlines()[0]
    assert top_row.rstrip().endswith("o")  # the knee point, top right
