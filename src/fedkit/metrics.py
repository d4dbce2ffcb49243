"""Metric record export/import: CSV and JSONL with a stable column order.

``write_table`` writes the other CSV tables fedkit produces, with floats in
``repr`` form so they read back exactly.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError
from .params import MetricRecord

COLUMNS = ("timestamp", "entity", "kind", "value")


def export_metrics(records: Sequence[MetricRecord], fmt: str, path) -> Path:
    """Write records to ``path``; appends if the file already has content."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        fresh = not path.exists() or path.stat().st_size == 0
        with path.open("a", newline="") as fh:
            writer = csv.writer(fh)
            if fresh:
                writer.writerow(COLUMNS)
            for r in records:
                writer.writerow([repr(r.timestamp), r.entity, r.kind, repr(r.value)])
    elif fmt == "jsonl":
        with path.open("a") as fh:
            for r in records:
                fh.write(
                    json.dumps(
                        {
                            "timestamp": r.timestamp,
                            "entity": r.entity,
                            "kind": r.kind,
                            "value": r.value,
                        },
                        sort_keys=True,
                    )
                )
                fh.write("\n")
    else:
        raise ParseError(f"unknown metrics format {fmt!r}; use csv or jsonl")
    return path


def write_table(path, columns, rows) -> Path:
    """Write a CSV table, replacing any file at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return path


def read_metrics(path) -> list[MetricRecord]:
    """Inverse of export_metrics; format inferred from the file suffix."""
    path = Path(path)
    out: list[MetricRecord] = []
    try:
        if path.suffix == ".jsonl":
            with path.open() as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    d = json.loads(line)
                    out.append(
                        MetricRecord(float(d["timestamp"]), d["entity"], d["kind"], float(d["value"]))
                    )
        else:
            with path.open(newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or tuple(reader.fieldnames) != COLUMNS:
                    raise ParseError(f"{path}: expected header {','.join(COLUMNS)}")
                for row in reader:
                    out.append(
                        MetricRecord(
                            float(row["timestamp"]), row["entity"], row["kind"], float(row["value"])
                        )
                    )
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e
    return out


def filter_metrics(records: Iterable[MetricRecord], kind: str) -> list[MetricRecord]:
    return [r for r in records if r.kind == kind]
