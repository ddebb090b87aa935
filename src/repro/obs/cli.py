"""``python -m repro trace`` — summarize one trace or diff two.

One file prints the terminal run summary (per-phase wall-clock table,
round counts).  Two files run a structural
first-divergence check over the phase-span sequences plus a per-phase
timing delta table, mirroring how ``repro.analysis.divergence`` diffs
hash traces.
"""

from __future__ import annotations

from repro.obs.export import diff_traces, load_trace, summarize_trace


def main(files: list[str]) -> int:
    if len(files) == 1:
        spans, snapshot, _meta = load_trace(files[0])
        print(summarize_trace(spans, snapshot, title=f"trace: {files[0]}"))
        return 0
    if len(files) == 2:
        spans_a, _, _ = load_trace(files[0])
        spans_b, _, _ = load_trace(files[1])
        structural, lines = diff_traces(spans_a, spans_b)
        print(f"A: {files[0]} ({len(spans_a)} spans)")
        print(f"B: {files[1]} ({len(spans_b)} spans)")
        if structural is None:
            print("structure: identical phase sequences")
        else:
            print(f"structure: {structural}")
        for line in lines:
            print(line)
        return 0 if structural is None else 1
    print("usage: repro trace <trace.jsonl> [other.jsonl]")
    return 2
