"""Exporter tests: JSONL round-trip, Chrome trace shape, summaries, CLI."""

from __future__ import annotations

import json

from repro.obs import Tracer
from repro.obs.cli import main as trace_cli
from repro.obs.export import (
    chrome_trace,
    diff_traces,
    export_run,
    load_trace,
    phase_table,
    summarize_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import NULL_TRACER


def traced_run(rounds: int = 3) -> Tracer:
    """A tracer carrying a small synthetic run: phases, a commit, a
    worker span, and some metrics."""
    tracer = Tracer()
    for round_idx in range(rounds):
        for phase in ("select", "train", "aggregate", "validate"):
            with tracer.span(phase, round_idx=round_idx):
                pass
        with tracer.span("commit", cat="round", round_idx=round_idx):
            pass
        tracer.metrics.counter("rounds_total").inc()
        tracer.metrics.counter("rounds_accepted").inc()
    with tracer.span("train.client", cat="worker", round_idx=0, client=2):
        pass
    tracer.metrics.gauge("rounds_per_s").set(12.5)
    return tracer


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = traced_run()
        path = write_jsonl(tracer, tmp_path / "run.jsonl")
        spans, snapshot, meta = load_trace(path)
        assert spans == tracer.finalized_spans()
        assert snapshot == tracer.metrics.snapshot()
        assert meta["server_pid"] == tracer.pid
        assert meta["format_version"] == 1

    def test_every_line_is_json(self, tmp_path):
        path = write_jsonl(traced_run(), tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[0]["type"] == "meta"
        assert rows[-1]["type"] == "metrics"
        assert all(r["type"] == "span" for r in rows[1:-1])

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "meta", "format_version": 99}) + "\n")
        try:
            load_trace(path)
        except ValueError as err:
            assert "version" in str(err)
        else:
            raise AssertionError("expected ValueError")


class TestChromeTrace:
    def test_loadable_json_with_required_keys(self, tmp_path):
        path = write_chrome_trace(traced_run(), tmp_path / "run.chrome.json")
        payload = json.load(open(path))
        events = payload["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert "ts" in event and "dur" in event
            elif event["ph"] == "i":
                assert event["s"] == "t"

    def test_process_metadata_labels_the_server(self):
        tracer = traced_run()
        events = chrome_trace(tracer)["traceEvents"]
        names = {
            event["pid"]: event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert names == {tracer.pid: "server"}

    def test_round_index_folded_into_args(self):
        events = chrome_trace(traced_run())["traceEvents"]
        commits = [e for e in events if e["name"] == "commit"]
        assert [e["args"]["round"] for e in commits] == [0, 1, 2]


class TestSummaries:
    def test_phase_table_aggregates_phase_spans_only(self):
        spans = traced_run().finalized_spans()
        table = phase_table(spans)
        assert set(table) == {"select", "train", "aggregate", "validate"}
        assert all(row["count"] == 3 for row in table.values())

    def test_summary_mentions_rounds_and_phases(self):
        tracer = traced_run()
        text = summarize_trace(tracer.finalized_spans(), tracer.metrics.snapshot())
        assert "rounds: 3 (3 accepted" in text
        assert "throughput: 12.50 rounds/s" in text
        assert "train" in text and "validate" in text

    def test_diff_identical_traces_is_structurally_clean(self):
        spans = traced_run().finalized_spans()
        structural, lines = diff_traces(spans, spans)
        assert structural is None
        assert any("train" in line for line in lines)

    def test_diff_reports_first_divergence(self):
        a = traced_run(rounds=3).finalized_spans()
        b = traced_run(rounds=2).finalized_spans()
        structural, _ = diff_traces(a, b)
        assert structural is not None
        assert "diverge" in structural


class TestExportRun:
    def test_disabled_tracer_is_a_noop(self, tmp_path):
        assert export_run(NULL_TRACER, str(tmp_path), "run") is None
        assert export_run(traced_run(), None, "run") is None
        assert list(tmp_path.iterdir()) == []

    def test_writes_jsonl_and_chrome_with_distinct_names(self, tmp_path):
        first = export_run(traced_run(), str(tmp_path), "stable-s1")
        second = export_run(traced_run(), str(tmp_path), "stable-s1")
        assert first["jsonl"].exists() and first["chrome"].exists()
        # Same label twice must never overwrite (seed fan-out, sweeps).
        assert first["jsonl"] != second["jsonl"]
        spans, _, _ = load_trace(second["jsonl"])
        assert spans


class TestCli:
    def test_single_file_summarizes(self, tmp_path, capsys):
        path = write_jsonl(traced_run(), tmp_path / "a.jsonl")
        assert trace_cli([str(path)]) == 0
        out = capsys.readouterr().out
        assert "rounds: 3" in out

    def test_identical_pair_exits_zero(self, tmp_path, capsys):
        a = write_jsonl(traced_run(), tmp_path / "a.jsonl")
        b = write_jsonl(traced_run(), tmp_path / "b.jsonl")
        assert trace_cli([str(a), str(b)]) == 0
        assert "identical phase sequences" in capsys.readouterr().out

    def test_divergent_pair_exits_nonzero(self, tmp_path, capsys):
        a = write_jsonl(traced_run(rounds=3), tmp_path / "a.jsonl")
        b = write_jsonl(traced_run(rounds=1), tmp_path / "b.jsonl")
        assert trace_cli([str(a), str(b)]) == 1
        assert "diverge" in capsys.readouterr().out

    def test_usage_on_wrong_arity(self, capsys):
        assert trace_cli([]) == 2
        assert "usage" in capsys.readouterr().out
