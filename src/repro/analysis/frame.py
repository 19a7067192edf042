"""MetricFrame: a typed, queryable, columnar view of sweep results.

Every consumer of a sweep — the figure/table experiment modules, the CLI's
``report`` and ``compare`` commands, the profile gate, the benchmarks — needs
the same shape: one row per grid point carrying the spec's axes (workload,
params, config, backoff, cores, seed) and the run's metrics (cycles, engine
events, wireless counters, completed/cached flags, workload-reported extras).
:class:`MetricFrame` is that shape, with a declared :class:`Schema` (every
column is typed and marked as a *dimension* or a *metric*), chainable
``where`` / ``select`` / ``group_by`` / ``pivot`` / ``derive`` operations,
built-in derived metrics (``speedup_over``, cycles/op, ops-per-kcycle,
events/sec), and lossless JSON and CSV round-trips.

The canonical constructor is
:meth:`~repro.runner.runner.SweepResult.frame`::

    frame = runner.run(fig7_sweep(core_counts=[16, 32])).frame()
    frame.where(config="WiSync").pivot(("cores",), "workload", "cycles")

Dimensions versus metrics matter for the relational operations: a row's
*identity* is the tuple of its dimension values, which is what
:meth:`MetricFrame.speedup_over` joins on and what
:func:`~repro.analysis.compare.compare_frames` aligns two frames by.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.metrics import (
    RAISE,
    cycles_per_operation,
    speedup,
    throughput_per_kcycle,
)
from repro.errors import AnalysisError
from repro.sim.stats import arithmetic_mean, geometric_mean

#: Serialization format tag (bump on incompatible layout changes).
FRAME_FORMAT = "metricframe/v1"

#: CSV encoding of a missing (None) cell; literal backslashes in string
#: cells are doubled so the token can never collide with real data.
_CSV_NONE = "\\N"

COLUMN_TYPES = ("int", "float", "str", "bool", "json")
COLUMN_KINDS = ("dim", "metric")

#: A row, as handed to ``derive``/``where`` callables: column name -> value.
Row = Dict[str, Any]


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Column:
    """One typed column: a sweep axis (``dim``) or a measurement (``metric``)."""

    name: str
    type: str = "float"
    kind: str = "metric"

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise AnalysisError(f"unknown column type {self.type!r}; choices: {COLUMN_TYPES}")
        if self.kind not in COLUMN_KINDS:
            raise AnalysisError(f"unknown column kind {self.kind!r}; choices: {COLUMN_KINDS}")

    def to_dict(self) -> Dict[str, str]:
        return {"name": self.name, "type": self.type, "kind": self.kind}

    @classmethod
    def from_dict(cls, payload: Mapping[str, str]) -> "Column":
        if not isinstance(payload, Mapping) or not isinstance(payload.get("name"), str):
            raise AnalysisError(f"column entry {payload!r} needs a string 'name'")
        missing = [key for key in ("type", "kind") if key not in payload]
        if missing:
            raise AnalysisError(f"column {payload['name']!r} is missing {missing}")
        return cls(name=payload["name"], type=payload["type"], kind=payload["kind"])


def _coerce(value: Any, column: Column) -> Any:
    """Validate ``value`` against ``column``; ints are widened for float columns."""
    if value is None:
        return None
    kind = column.type
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise AnalysisError(f"column {column.name!r} is int, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AnalysisError(f"column {column.name!r} is float, got {value!r}")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise AnalysisError(f"column {column.name!r} is str, got {value!r}")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise AnalysisError(f"column {column.name!r} is bool, got {value!r}")
        return value
    return value  # "json": any JSON-serializable payload, stored as-is


# ---------------------------------------------------------------------------
# Pivot
# ---------------------------------------------------------------------------
@dataclass
class Pivot:
    """A pivoted frame: index tuples down, series labels across.

    ``to_dict`` yields the nested mapping the legacy experiment API returns
    (``{index: {label: value}}``, scalar index keys when the index is a
    single column) and :func:`repro.analysis.tables.render_mapping` renders.
    """

    index_names: Tuple[str, ...]
    index_keys: Tuple[Tuple[Any, ...], ...]   # first-seen order
    labels: Tuple[Any, ...]                   # first-seen order
    cells: Dict[Tuple[Tuple[Any, ...], Any], Any]

    def value(self, key: Tuple[Any, ...], label: Any, default: Any = None) -> Any:
        return self.cells.get((key, label), default)

    def to_dict(self) -> Dict[Any, Dict[Any, Any]]:
        scalar = len(self.index_names) == 1
        table: Dict[Any, Dict[Any, Any]] = {}
        for key in self.index_keys:
            row: Dict[Any, Any] = {}
            for label in self.labels:
                if (key, label) in self.cells:
                    row[label] = self.cells[(key, label)]
            table[key[0] if scalar else key] = row
        return table


# ---------------------------------------------------------------------------
# Aggregations
# ---------------------------------------------------------------------------
def _agg_geomean(values: List[float]) -> float:
    try:
        return geometric_mean(values)
    except ValueError as error:
        raise AnalysisError(f"geomean aggregation failed: {error}")


AGGREGATIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "mean": arithmetic_mean,
    "geomean": _agg_geomean,
    "sum": sum,
    "min": min,
    "max": max,
    "count": len,
    "first": lambda values: values[0],
}


def aggregate(agg: str, values: Iterable[Any]) -> Any:
    """Apply a named aggregation to the non-None ``values``."""
    if agg not in AGGREGATIONS:
        raise AnalysisError(f"unknown aggregation {agg!r}; choices: {sorted(AGGREGATIONS)}")
    kept = [value for value in values if value is not None]
    if not kept and agg not in ("count", "sum"):
        raise AnalysisError(f"aggregation {agg!r} over an empty column")
    return AGGREGATIONS[agg](kept)


# ---------------------------------------------------------------------------
# MetricFrame
# ---------------------------------------------------------------------------
class MetricFrame:
    """An immutable columnar table of sweep metrics; every op returns a new frame."""

    def __init__(
        self,
        schema: Sequence[Column],
        columns: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> None:
        self.schema: Tuple[Column, ...] = tuple(schema)
        names = [column.name for column in self.schema]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate column names in schema: {names}")
        self._by_name: Dict[str, Column] = {column.name: column for column in self.schema}
        data: Dict[str, List[Any]] = {name: [] for name in names}
        if columns:
            lengths = {len(values) for values in columns.values()}
            if len(lengths) > 1:
                raise AnalysisError(f"ragged columns: lengths {sorted(lengths)}")
            for name in names:
                if name not in columns:
                    raise AnalysisError(f"schema column {name!r} missing from data")
            for name in columns:
                if name not in self._by_name:
                    raise AnalysisError(f"data column {name!r} missing from schema")
            for name in names:
                column = self._by_name[name]
                data[name] = [_coerce(value, column) for value in columns[name]]
        self._columns = data
        self._length = len(next(iter(data.values()))) if data else 0

    # ---------------------------------------------------------- construction
    @classmethod
    def from_rows(cls, schema: Sequence[Column], rows: Iterable[Mapping[str, Any]]) -> "MetricFrame":
        """Build a frame from row dicts; keys absent from a row become None."""
        schema = tuple(schema)
        names = [column.name for column in schema]
        known = set(names)
        columns: Dict[str, List[Any]] = {name: [] for name in names}
        for index, row in enumerate(rows):
            unknown = set(row) - known
            if unknown:
                raise AnalysisError(f"row {index} has columns not in the schema: {sorted(unknown)}")
            for name in names:
                columns[name].append(row.get(name))
        return cls(schema, columns)

    # -------------------------------------------------------------- basics
    def __len__(self) -> int:
        return self._length

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.schema)

    def column_def(self, name: str) -> Column:
        if name not in self._by_name:
            raise AnalysisError(f"no column {name!r}; columns: {list(self.column_names)}")
        return self._by_name[name]

    def column(self, name: str) -> Tuple[Any, ...]:
        self.column_def(name)
        return tuple(self._columns[name])

    def dimensions(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.schema if column.kind == "dim")

    def metrics(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.schema if column.kind == "metric")

    def row(self, index: int) -> Row:
        return {name: self._columns[name][index] for name in self.column_names}

    def rows(self) -> Iterator[Row]:
        for index in range(self._length):
            yield self.row(index)

    def unique(self, name: str) -> Tuple[Any, ...]:
        """Distinct values of one column, in first-seen order."""
        seen: List[Any] = []
        for value in self.column(name):
            if value not in seen:
                seen.append(value)
        return tuple(seen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricFrame):
            return NotImplemented
        return self.schema == other.schema and self._columns == other._columns

    def __repr__(self) -> str:
        dims = len(self.dimensions())
        return (
            f"MetricFrame({self._length} rows, {len(self.schema)} columns: "
            f"{dims} dims, {len(self.schema) - dims} metrics)"
        )

    # ------------------------------------------------------------ relational
    def _subset(self, indices: Sequence[int]) -> "MetricFrame":
        columns = {
            name: [self._columns[name][i] for i in indices] for name in self.column_names
        }
        return MetricFrame(self.schema, columns)

    def where(self, predicate: Optional[Callable[[Row], bool]] = None, **equals: Any) -> "MetricFrame":
        """Rows matching a predicate and/or per-column constraints.

        Keyword constraints test equality, or membership when the constraint
        is a list/tuple/set/frozenset: ``frame.where(config=("WiSync",
        "Baseline"), cores=16)``.
        """
        for name in equals:
            self.column_def(name)
        indices: List[int] = []
        for index in range(self._length):
            row = self.row(index)
            keep = True
            for name, constraint in equals.items():
                if isinstance(constraint, (list, tuple, set, frozenset)):
                    keep = row[name] in constraint
                else:
                    keep = row[name] == constraint
                if not keep:
                    break
            if keep and predicate is not None:
                keep = bool(predicate(row))
            if keep:
                indices.append(index)
        return self._subset(indices)

    def select(self, *names: str) -> "MetricFrame":
        """Keep only the named columns, in the given order."""
        schema = tuple(self.column_def(name) for name in names)
        return MetricFrame(schema, {name: self._columns[name] for name in names})

    def sort_by(self, *names: str, reverse: bool = False) -> "MetricFrame":
        """Stable sort by the named columns (None sorts first)."""
        for name in names:
            self.column_def(name)

        def key(index: int) -> Tuple[Any, ...]:
            parts: List[Any] = []
            for name in names:
                value = self._columns[name][index]
                parts.append((value is not None, value))
            return tuple(parts)

        return self._subset(sorted(range(self._length), key=key, reverse=reverse))

    def derive(
        self,
        name: str,
        fn: Callable[[Row], Any],
        type: str = "float",
        kind: str = "metric",
    ) -> "MetricFrame":
        """Append a computed column; ``fn`` receives each row as a dict."""
        if name in self._by_name:
            raise AnalysisError(f"column {name!r} already exists")
        column = Column(name, type=type, kind=kind)
        values = [_coerce(fn(self.row(index)), column) for index in range(self._length)]
        columns = dict(self._columns)
        columns[name] = values
        return MetricFrame(self.schema + (column,), columns)

    def explode(
        self,
        name: str,
        values: Sequence[Any],
        where: Callable[[Row], bool],
    ) -> "MetricFrame":
        """Replicate matching rows once per value of ``values``, rebinding ``name``.

        The contention-scenario grid needs this: a MAC-free Baseline point is
        simulated once but participates in every backoff row of the
        comparison table.
        """
        self.column_def(name)
        if not values:
            raise AnalysisError("explode needs at least one replacement value")
        rows: List[Row] = []
        for row in self.rows():
            if where(row):
                for value in values:
                    clone = dict(row)
                    clone[name] = value
                    rows.append(clone)
            else:
                rows.append(row)
        return MetricFrame.from_rows(self.schema, rows)

    def concat(self, other: "MetricFrame") -> "MetricFrame":
        """Append another frame with an identical schema (trend tracking)."""
        if other.schema != self.schema:
            raise AnalysisError("cannot concat frames with different schemas")
        columns = {
            name: list(self._columns[name]) + list(other._columns[name])
            for name in self.column_names
        }
        return MetricFrame(self.schema, columns)

    def group_by(
        self,
        keys: Sequence[str],
        aggregations: Mapping[str, Tuple[str, str]],
    ) -> "MetricFrame":
        """Aggregate rows sharing the ``keys`` dimension tuple.

        ``aggregations`` maps each output column to ``(source_column, agg)``
        with agg one of mean / geomean / sum / min / max / count / first.
        Groups keep first-seen order; values aggregate in row order (so a
        geomean is bit-reproducible run to run).
        """
        keys = tuple(keys)
        for key in keys:
            self.column_def(key)
        grouped: Dict[Tuple[Any, ...], Dict[str, List[Any]]] = {}
        order: List[Tuple[Any, ...]] = []
        sources = {source for source, _ in aggregations.values()}
        for source in sources:
            self.column_def(source)
        for row in self.rows():
            group = tuple(row[key] for key in keys)
            if group not in grouped:
                grouped[group] = {source: [] for source in sources}
                order.append(group)
            for source in sources:
                grouped[group][source].append(row[source])
        schema = [self.column_def(key) for key in keys]
        for out, (source, agg) in aggregations.items():
            if agg == "count":
                out_type = "int"
            elif agg in ("mean", "geomean"):
                out_type = "float"
            else:  # sum/min/max/first preserve the source column's type
                out_type = self.column_def(source).type
            schema.append(Column(out, type=out_type, kind="metric"))
        rows: List[Row] = []
        for group in order:
            row = dict(zip(keys, group))
            for out, (source, agg) in aggregations.items():
                row[out] = aggregate(agg, grouped[group][source])
            rows.append(row)
        return MetricFrame.from_rows(schema, rows)

    def pivot(self, index: Sequence[str], series: str, values: str) -> Pivot:
        """Spread ``values`` into a table: ``index`` tuples down, ``series`` across."""
        index = tuple(index)
        for name in (*index, series, values):
            self.column_def(name)
        cells: Dict[Tuple[Tuple[Any, ...], Any], Any] = {}
        index_keys: List[Tuple[Any, ...]] = []
        labels: List[Any] = []
        for row in self.rows():
            key = tuple(row[name] for name in index)
            label = row[series]
            if (key, label) in cells:
                raise AnalysisError(
                    f"pivot cell ({key}, {label!r}) is covered by more than one row; "
                    "aggregate with group_by first"
                )
            cells[(key, label)] = row[values]
            if key not in index_keys:
                index_keys.append(key)
            if label not in labels:
                labels.append(label)
        return Pivot(index, tuple(index_keys), tuple(labels), cells)

    # ------------------------------------------------------- derived metrics
    def speedup_over(
        self,
        baseline: Any,
        series: str = "config",
        values: str = "cycles",
        out: str = "speedup",
        ignore: Sequence[str] = (),
    ) -> "MetricFrame":
        """Per-row speedup relative to the ``series == baseline`` sibling row.

        Sibling rows are matched on every *dimension* column except
        ``series`` itself and any in ``ignore`` (e.g. ``ignore=("backoff",)``
        when the baseline configuration has no MAC to sweep).  Missing or
        ambiguous baselines raise :class:`AnalysisError`.
        """
        excluded = {series, *ignore}
        match_dims = tuple(name for name in self.dimensions() if name not in excluded)
        baselines: Dict[Tuple[Any, ...], Any] = {}
        for row in self.rows():
            if row[series] != baseline:
                continue
            key = tuple(row[name] for name in match_dims)
            if key in baselines:
                raise AnalysisError(
                    f"ambiguous baseline {series}={baseline!r} for {dict(zip(match_dims, key))}"
                )
            baselines[key] = row[values]

        def compute(row: Row) -> float:
            key = tuple(row[name] for name in match_dims)
            if key not in baselines:
                raise AnalysisError(
                    f"no baseline {series}={baseline!r} row matching {dict(zip(match_dims, key))}"
                )
            return speedup(baselines[key], row[values])

        return self.derive(out, compute)

    def cycles_per_op(
        self,
        out: str = "cycles_per_op",
        cycles: str = "cycles",
        operations: str = "operations",
        default: object = RAISE,
    ) -> "MetricFrame":
        """Cycles per completed operation (normalizes across contention levels)."""
        return self.derive(
            out, lambda row: cycles_per_operation(row[cycles], row[operations], default=default)
        )

    def ops_per_kcycle(
        self,
        out: str = "ops_per_kcycle",
        cycles: str = "cycles",
        operations: str = "operations",
        default: object = RAISE,
    ) -> "MetricFrame":
        """Completed operations per 1000 cycles (the Figure 9 axis, generalized)."""
        return self.derive(
            out,
            lambda row: throughput_per_kcycle(row[operations], row[cycles], default=default),
        )

    def events_per_sec(
        self,
        out: str = "events_per_sec",
        events: str = "events",
        wall: str = "wall_seconds",
    ) -> "MetricFrame":
        """Simulator throughput per row (None for cached rows with no timing)."""

        def compute(row: Row) -> Optional[float]:
            seconds = row.get(wall)
            if seconds is None or seconds <= 0:
                return None
            return row[events] / seconds

        return self.derive(out, compute)

    def geomean(self, values: str) -> float:
        """Geometric mean of one metric column over all rows."""
        return aggregate("geomean", self.column(values))

    # -------------------------------------------------------- serialization
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": FRAME_FORMAT,
            "schema": [column.to_dict() for column in self.schema],
            "columns": {name: list(self._columns[name]) for name in self.column_names},
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "MetricFrame":
        if not isinstance(payload, Mapping):
            raise AnalysisError(f"a MetricFrame payload is an object, got {type(payload).__name__}")
        if payload.get("format") != FRAME_FORMAT:
            raise AnalysisError(
                f"not a MetricFrame payload (format={payload.get('format')!r}, "
                f"expected {FRAME_FORMAT!r})"
            )
        schema, columns = payload.get("schema"), payload.get("columns")
        if not isinstance(schema, list):
            raise AnalysisError(f"MetricFrame 'schema' must be a list, got {type(schema).__name__}")
        if not isinstance(columns, Mapping) or not all(
            isinstance(values, list) for values in columns.values()
        ):
            raise AnalysisError("MetricFrame 'columns' must map each column name to a list")
        return cls(tuple(Column.from_dict(entry) for entry in schema), columns)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MetricFrame":
        return cls.from_json_dict(json.loads(text))

    def to_csv(self) -> str:
        """CSV with a typed header (``name:type:kind``); None cells are ``\\N``.

        Rows terminate with CRLF (RFC 4180): with a bare-LF terminator the
        csv writer would leave a lone ``\\r`` inside a string cell unquoted,
        which the reader rejects — CRLF makes every embedded CR/LF quoted.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(f"{c.name}:{c.type}:{c.kind}" for c in self.schema)
        for row in self.rows():
            writer.writerow(
                _csv_encode(row[column.name], column) for column in self.schema
            )
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "MetricFrame":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise AnalysisError("empty CSV: no header row")
        schema: List[Column] = []
        for cell in header:
            parts = cell.split(":")
            if len(parts) != 3:
                raise AnalysisError(f"CSV header cell {cell!r} is not name:type:kind")
            schema.append(Column(*parts))
        rows: List[Row] = []
        for line in reader:
            if len(line) != len(schema):
                raise AnalysisError(f"CSV row has {len(line)} cells, schema has {len(schema)}")
            rows.append(
                {column.name: _csv_decode(cell, column) for column, cell in zip(schema, line)}
            )
        return cls.from_rows(tuple(schema), rows)


def _csv_encode(value: Any, column: Column) -> str:
    if value is None:
        return _CSV_NONE
    if column.type == "str":
        return value.replace("\\", "\\\\")
    if column.type == "bool":
        return "true" if value else "false"
    if column.type == "float":
        return repr(value)
    if column.type == "json":
        return json.dumps(value, sort_keys=True)
    return str(value)


def _csv_decode(cell: str, column: Column) -> Any:
    if cell == _CSV_NONE:
        return None
    if column.type == "str":
        return cell.replace("\\\\", "\\")
    if column.type == "bool":
        if cell not in ("true", "false"):
            raise AnalysisError(f"bad bool cell {cell!r} in column {column.name!r}")
        return cell == "true"
    if column.type == "int":
        return int(cell)
    if column.type == "float":
        return float(cell)
    return json.loads(cell)


# ---------------------------------------------------------------------------
# Frames from sweep results
# ---------------------------------------------------------------------------
#: Fixed columns of a sweep frame, in presentation order.
_SWEEP_DIMS: Tuple[Column, ...] = (
    Column("sweep", "str", "dim"),
    Column("workload", "str", "dim"),
    Column("config", "str", "dim"),
    Column("variant", "str", "dim"),
    Column("backoff", "str", "dim"),
    Column("cores", "int", "dim"),
    Column("seed", "int", "dim"),
    Column("max_cycles", "int", "dim"),
)
_SWEEP_METRICS: Tuple[Column, ...] = (
    Column("cycles", "int", "metric"),
    Column("events", "int", "metric"),
    Column("wireless_messages", "int", "metric"),
    Column("wireless_collisions", "int", "metric"),
    Column("data_busy_cycles", "int", "metric"),
    Column("data_channel_utilization", "float", "metric"),
    Column("finished_threads", "int", "metric"),
    Column("total_threads", "int", "metric"),
    Column("completed", "bool", "metric"),
    Column("cached", "bool", "metric"),
)
_RESERVED = {column.name for column in _SWEEP_DIMS + _SWEEP_METRICS}


def _infer_type(values: Iterable[Any]) -> str:
    kinds = set()
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            kinds.add("bool")
        elif isinstance(value, int):
            kinds.add("int")
        elif isinstance(value, float):
            kinds.add("float")
        elif isinstance(value, str):
            kinds.add("str")
        else:
            kinds.add("json")
    if not kinds:
        return "json"
    if kinds == {"int"}:
        return "int"
    if kinds <= {"int", "float"}:
        return "float"
    if len(kinds) == 1:
        return kinds.pop()
    return "json"


def _split_variant(variant: Optional[str]) -> Tuple[Optional[str], str]:
    """(sensitivity variant, backoff kind) encoded in a spec's ``variant``."""
    from repro.config import BackoffConfig
    from repro.runner.executor import BACKOFF_VARIANT_PREFIX

    default_kind = BackoffConfig().kind
    if variant is not None and variant.startswith(BACKOFF_VARIANT_PREFIX):
        return None, variant[len(BACKOFF_VARIANT_PREFIX):]
    return variant, default_kind


def frame_from_sweep(outcome: Any) -> MetricFrame:
    """One row per grid point of a :class:`~repro.runner.runner.SweepResult`.

    Workload parameters and ``SimResult.extra`` entries are flattened into
    their own (nullable) columns.  Extras keep their bare name (they are the
    metrics the built-in derivations reference, e.g. ``operations`` for
    cycles/op); a parameter whose name collides with a fixed column or an
    extra is prefixed ``param_`` (an extra colliding with a fixed column is
    prefixed ``extra_``).
    """
    param_names: List[str] = []
    extra_names: List[str] = []
    raw_rows: List[Tuple[Any, Any]] = []
    for spec, result in outcome:
        raw_rows.append((spec, result))
        for name in spec.params_dict():
            if name not in param_names:
                param_names.append(name)
        for name in result.extra:
            if name not in extra_names:
                extra_names.append(name)

    extra_columns = {
        name: (f"extra_{name}" if name in _RESERVED else name) for name in extra_names
    }
    param_taken = _RESERVED | set(extra_columns.values())
    param_columns = {
        name: (f"param_{name}" if name in param_taken else name) for name in param_names
    }

    def extra_column(name: str) -> str:
        return extra_columns[name]

    def param_column(name: str) -> str:
        return param_columns[name]

    rows: List[Row] = []
    for spec, result in raw_rows:
        params = spec.params_dict()
        variant, backoff = _split_variant(spec.variant)
        row: Row = {
            "sweep": outcome.sweep.name,
            "workload": spec.workload,
            "config": spec.config,
            "variant": variant,
            "backoff": backoff,
            "cores": spec.num_cores,
            "seed": spec.seed,
            "max_cycles": spec.max_cycles,
            "cycles": result.total_cycles,
            "events": result.events_processed,
            "wireless_messages": result.wireless_messages,
            "wireless_collisions": result.wireless_collisions,
            "data_busy_cycles": result.data_channel_busy_cycles,
            "data_channel_utilization": result.data_channel_utilization(),
            "finished_threads": result.finished_threads,
            "total_threads": result.total_threads,
            "completed": result.completed,
            "cached": bool(getattr(outcome, "cached", {}).get(spec, False)),
        }
        for name in param_names:
            row[param_column(name)] = params.get(name)
        for name in extra_names:
            row[extra_column(name)] = result.extra.get(name)
        rows.append(row)

    schema: List[Column] = list(_SWEEP_DIMS)
    for name in param_names:
        values = [row[param_column(name)] for row in rows]
        schema.append(Column(param_column(name), _infer_type(values), "dim"))
    schema.extend(_SWEEP_METRICS)
    for name in extra_names:
        values = [row[extra_column(name)] for row in rows]
        schema.append(Column(extra_column(name), _infer_type(values), "metric"))
    return MetricFrame.from_rows(tuple(schema), rows)
