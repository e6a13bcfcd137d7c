"""The engines keep their values as int rows ``(nums, dens)``, and a joint
table as a list of such columns.  Tests that call an engine method or
``bell_transform`` directly compare through these conversions."""

from dotcumulants.rational import int_row, rationals

__all__ = ["int_row", "row_values", "table_entries"]


def row_values(row):
    """The rationals of an int row."""
    return rationals(*row)


def table_entries(columns):
    """{(l, k): rational} over every entry a joint table's columns hold."""
    return {(l, k): v for k, column in enumerate(columns) for l, v in enumerate(row_values(column))}
