"""Declarative report definitions over :class:`~repro.analysis.frame.MetricFrame`.

A :class:`Report` is the *presentation* of one experiment as data: which
derived columns to compute (``transforms``), which frame columns form the
row axes (``index``) and the column axis (``series``), which metric fills
the cells (``values``), how to order/filter the series labels, and which
aggregate rows (mean / geomean) to append.  Each experiment module's
:class:`~repro.experiments.common.Experiment` record holds one, and both
``python -m repro run`` and ``python -m repro report`` print it:
:meth:`Report.table` builds the nested mapping ``run --json`` writes, and
:meth:`Report.render_table` renders it through
:func:`~repro.analysis.tables.render_mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.frame import MetricFrame, Pivot, aggregate
from repro.analysis.tables import render_columns, render_mapping, resolve_series
from repro.errors import AnalysisError

#: A frame-to-frame step applied before pivoting (derive, group_by, ...).
Transform = Callable[[MetricFrame], MetricFrame]


@dataclass(frozen=True)
class AggregateRow:
    """An extra row appended below a pivot (e.g. fig10's mean / geoMean).

    Aggregates each displayed series column over the pivot's rows, in row
    order.  ``series`` restricts the aggregate to a label subset (fig10
    excludes the Baseline column whose speedup is 1.0 by construction);
    ``clamp_min`` floors each input first (Table 5 guards its geomean
    against zero-utilization applications).
    """

    label: str
    agg: str
    series: Optional[Tuple[str, ...]] = None
    clamp_min: Optional[float] = None

    def compute(self, table: Mapping[Any, Dict[Any, Any]]) -> Dict[Any, float]:
        labels = self.series
        if labels is None:
            labels = tuple(resolve_series(table, series_sort=False))
        out: Dict[Any, float] = {}
        for label in labels:
            values = [row[label] for row in table.values() if label in row]
            if not values:
                continue  # no input rows for this series: no aggregate cell
            if self.clamp_min is not None:
                values = [max(self.clamp_min, value) for value in values]
            out[label] = aggregate(self.agg, values)
        return out


@dataclass(frozen=True)
class Report:
    """How one experiment's frame becomes a table (and a rendered string)."""

    name: str
    title: str
    index: Tuple[str, ...]
    values: str
    series: Optional[str] = None
    transforms: Tuple[Transform, ...] = ()
    filters: Tuple[Tuple[str, Any], ...] = ()
    aggregates: Tuple[AggregateRow, ...] = ()
    # Presentation knobs (mirrored into render_mapping):
    index_headers: Optional[Tuple[str, ...]] = None
    series_order: Optional[Tuple[str, ...]] = None
    series_headers: Tuple[Tuple[str, str], ...] = ()
    drop_series: Tuple[str, ...] = ()
    filter_present: bool = True
    series_sort: bool = True
    sort_rows: bool = False
    missing: Any = field(default_factory=lambda: float("nan"))
    # series=None reports render a plain column table instead of a pivot:
    value_columns: Tuple[Tuple[str, str], ...] = ()

    # ------------------------------------------------------------- pipeline
    def prepare(self, frame: MetricFrame) -> MetricFrame:
        """Apply the report's filters and derived-column transforms."""
        if self.filters:
            frame = frame.where(**dict(self.filters))
        for transform in self.transforms:
            frame = transform(frame)
        return frame

    def pivot(self, frame: MetricFrame, prepared: bool = False) -> Pivot:
        if self.series is None:
            raise AnalysisError(f"report {self.name!r} has no series axis to pivot on")
        if not prepared:
            frame = self.prepare(frame)
        return frame.pivot(self.index, self.series, self.values)

    def table(self, frame: MetricFrame, prepared: bool = False) -> Dict[Any, Dict[Any, Any]]:
        """The nested mapping ``{index: {series_label: value}}``."""
        if not prepared:
            frame = self.prepare(frame)
        if self.series is None:
            table: Dict[Any, Dict[Any, Any]] = {}
            for row in frame.rows():
                key = tuple(row[name] for name in self.index)
                table[key[0] if len(self.index) == 1 else key] = {
                    source: row[source] for source, _ in self.value_columns
                    if row[source] is not None
                }
            return table
        table = self.pivot(frame, prepared=True).to_dict()
        base = dict(table)  # aggregates summarize the pivot rows, not each other
        for extra in self.aggregates:
            cells = extra.compute(base)
            if cells:
                table[extra.label] = cells
        return table

    def render_table(self, table: Mapping[Any, Dict[Any, Any]]) -> str:
        """Render an already-built :meth:`table` mapping."""
        if self.series is None:
            return render_columns(
                table,
                columns=self.value_columns,
                key_header=(self.index_headers or self.index)[0],
                title=self.title,
            )
        return render_mapping(
            table,
            index_headers=self.index_headers or self.index,
            title=self.title,
            series_order=self.series_order,
            series_headers=dict(self.series_headers),
            drop_series=self.drop_series,
            filter_present=self.filter_present,
            series_sort=self.series_sort,
            sort_rows=self.sort_rows,
            missing=self.missing,
        )

    def render(self, frame: MetricFrame, prepared: bool = False) -> str:
        return self.render_table(self.table(frame, prepared=prepared))


# ---------------------------------------------------------------------------
# Transform combinators (the vocabulary Report definitions are written in)
# ---------------------------------------------------------------------------
def derive(name: str, fn: Callable[[Dict[str, Any]], Any], type: str = "float") -> Transform:
    """Transform: append a row-computed column."""
    return lambda frame: frame.derive(name, fn, type=type)


def ratio_of(name: str, numerator: str, denominator: str) -> Transform:
    """Transform: ``numerator / denominator`` per row (e.g. cycles/iteration)."""
    return lambda frame: frame.derive(name, lambda row: row[numerator] / row[denominator])


def speedup_over(
    baseline: str, series: str = "config", values: str = "cycles",
    out: str = "speedup", ignore: Sequence[str] = (),
) -> Transform:
    """Transform: per-row speedup against the matching baseline-series row."""
    return lambda frame: frame.speedup_over(
        baseline, series=series, values=values, out=out, ignore=ignore
    )


def where(**equals: Any) -> Transform:
    """Transform: keep rows matching the per-column constraints."""
    return lambda frame: frame.where(**equals)


def group_by(keys: Sequence[str], **aggregations: Tuple[str, str]) -> Transform:
    """Transform: aggregate rows; kwargs map output column to (source, agg)."""
    return lambda frame: frame.group_by(tuple(keys), aggregations)
