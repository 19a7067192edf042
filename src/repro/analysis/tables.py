"""Plain-text table formatting for experiment output.

:func:`format_table` is the low-level fixed-width renderer.  The two
``render_*`` helpers above it are the *only* way experiment tables are
turned into text: they render the nested ``{row_key: {column: value}}``
mappings that :meth:`repro.analysis.frame.Pivot.to_dict` produces and
:meth:`~repro.analysis.report.Report.table` returns.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple

_MISSING_NAN = float("nan")


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render a fixed-width text table (used by experiments and examples)."""
    rendered_rows = [[_format_value(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def resolve_series(
    table: Mapping[Any, Mapping[Any, Any]],
    series_order: Optional[Sequence[Any]] = None,
    drop_series: Sequence[Any] = (),
    filter_present: bool = True,
    series_sort: bool = True,
) -> List[Any]:
    """The series labels (column keys) a pivot mapping should display.

    With ``series_order`` the labels keep that presentation order (filtered
    to the ones actually present unless ``filter_present`` is off);
    otherwise labels are collected from the rows, sorted or first-seen.
    """
    if series_order is not None:
        labels = [label for label in series_order if label not in drop_series]
        if filter_present:
            labels = [label for label in labels if any(label in row for row in table.values())]
        return labels
    labels = []
    for row in table.values():
        for label in row:
            if label not in labels and label not in drop_series:
                labels.append(label)
    return sorted(labels) if series_sort else labels


def render_mapping(
    table: Mapping[Any, Mapping[Any, Any]],
    index_headers: Sequence[str],
    title: str = "",
    series_order: Optional[Sequence[Any]] = None,
    series_headers: Optional[Mapping[Any, str]] = None,
    drop_series: Sequence[Any] = (),
    filter_present: bool = True,
    series_sort: bool = True,
    sort_rows: bool = False,
    missing: Any = _MISSING_NAN,
) -> str:
    """Render a pivot mapping (``{index: {series_label: value}}``) as text.

    Index keys may be scalars or tuples (one cell per ``index_headers``
    entry); rows keep mapping order unless ``sort_rows``.
    """
    labels = resolve_series(table, series_order, drop_series, filter_present, series_sort)
    headers = list(index_headers) + [
        (series_headers or {}).get(label, label) for label in labels
    ]
    keys = sorted(table) if sort_rows else list(table)
    rows: List[List[Any]] = []
    for key in keys:
        cells = list(key) if isinstance(key, tuple) else [key]
        cells.extend(table[key].get(label, missing) for label in labels)
        rows.append(cells)
    return format_table(headers, rows, title=title)


def render_columns(
    table: Mapping[Any, Mapping[str, Any]],
    columns: Sequence[Tuple[str, str]],
    key_header: str,
    title: str = "",
    missing: Any = "-",
) -> str:
    """Render row-name -> column-dict data with a fixed column list.

    ``columns`` pairs each source key with its display header; rows keep
    mapping order and missing cells render as ``missing`` (Table 4 uses
    ``"-"`` for the not-applicable RF-percentage cells).
    """
    headers = [key_header] + [header for _, header in columns]
    rows: List[List[Any]] = []
    for name, cols in table.items():
        row: List[Any] = [name]
        for key, _ in columns:
            value = cols.get(key)
            row.append(missing if value is None else value)
        rows.append(row)
    return format_table(headers, rows, title=title)
