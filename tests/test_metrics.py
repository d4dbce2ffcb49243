"""Metric export/import roundtrips."""
import dataclasses
import pickle

import pytest

from fedkit.errors import ParseError
from fedkit.metrics import COLUMNS, export_metrics, filter_metrics, read_metrics
from fedkit.params import MetricRecord

RECORDS = [
    MetricRecord(0.0, "server", "epoch", 1.0),
    MetricRecord(0.1 + 0.2, "server", "val_loss", 1.0 / 3.0),
    MetricRecord(200.0, "c0", "train_loss", 2.5e-17),
]


@pytest.mark.parametrize("fmt,suffix", [("csv", ".csv"), ("jsonl", ".jsonl")])
def test_roundtrip_preserves_floats_exactly(tmp_path, fmt, suffix):
    path = export_metrics(RECORDS, fmt, tmp_path / f"m{suffix}")
    assert read_metrics(path) == RECORDS


def test_csv_header_written_once_across_appends(tmp_path):
    path = tmp_path / "m.csv"
    export_metrics(RECORDS[:1], "csv", path)
    export_metrics(RECORDS[1:], "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 1 + len(RECORDS)
    assert read_metrics(path) == RECORDS


def test_jsonl_appends(tmp_path):
    path = tmp_path / "m.jsonl"
    export_metrics(RECORDS[:2], "jsonl", path)
    export_metrics(RECORDS[2:], "jsonl", path)
    assert read_metrics(path) == RECORDS


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ParseError, match="unknown metrics format"):
        export_metrics(RECORDS, "parquet", tmp_path / "m.parquet")


def test_wrong_csv_header_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("time,who,what,val\n1.0,a,b,2.0\n")
    with pytest.raises(ParseError, match="expected header"):
        read_metrics(path)


def test_corrupt_jsonl_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"timestamp": 1.0, "entity": "x"\n')
    with pytest.raises(ParseError):
        read_metrics(path)


def test_blank_jsonl_lines_skipped(tmp_path):
    path = tmp_path / "m.jsonl"
    export_metrics(RECORDS, "jsonl", path)
    with path.open("a") as fh:
        fh.write("\n\n")
    assert read_metrics(path) == RECORDS


def test_a_record_is_small_frozen_and_pickles_equal():
    # a server appends one record per aggregation for as long as it runs
    r = RECORDS[1]
    assert not hasattr(r, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.value = 0.0
    assert pickle.loads(pickle.dumps(r)) == r
    assert hash(r) == hash(MetricRecord(0.1 + 0.2, "server", "val_loss", 1.0 / 3.0))


def test_filter_by_kind():
    assert filter_metrics(RECORDS, "val_loss") == [RECORDS[1]]
    assert filter_metrics(RECORDS, "nope") == []


def test_run_metrics_survive_disk_roundtrip(tmp_path):
    from fedkit.client import TrainConfig
    from fedkit.models import ModelSpec, make_blobs
    from fedkit.sim import SimClient, SimScenario, run_simulation

    spec = ModelSpec(layer_dims=(5, 8, 3), activation="relu", loss="softmax_cross_entropy")
    cfg = TrainConfig(lr=0.05, batch_size=16, local_steps=10)
    res = run_simulation(
        SimScenario(
            model_spec=spec,
            clients=[
                SimClient("c0", make_blobs(classes=3, dim=5, per_class=20, seed=1), cfg, 1.0),
                SimClient("c1", make_blobs(classes=3, dim=5, per_class=20, seed=2), cfg, 2.0),
            ],
            num_global_epochs=2,
            eval_dataset=make_blobs(classes=3, dim=5, per_class=20, seed=3),
        )
    )
    path = export_metrics(res.metrics, "csv", tmp_path / "run.csv")
    assert read_metrics(path) == res.metrics
