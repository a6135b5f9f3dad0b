#!/usr/bin/env python3
"""Render a trace dump (obs::TraceRecorder::dump_json()) as an indented
per-request timeline.

The dump groups spans by trace id and nests children by time
containment; this tool prints each trace as a tree with durations,
relative offsets, and outcome tags, e.g.:

    trace 7 (total 41.2 ms)
      request                                   41.2 ms
        queue                 +0.0 ms            2.1 ms
        triage                +2.1 ms            0.0 ms
        pack                  +2.2 ms            0.4 ms
        forward               +2.6 ms           37.0 ms  [retried] B=4
        verify                +39.7 ms           1.4 ms
        resolve               +41.2 ms           0.0 ms

Typical use:

    ./build/forecast_server --trace /tmp/trace.json
    python3 tools/trace_view.py /tmp/trace.json

Options: --stage NAME keeps only traces containing that stage;
--errors-only keeps traces with at least one error-flagged span.
Exit status: 0 on success, 2 on usage/IO errors.
"""

import argparse
import json
import signal
import sys

# Die quietly when the consumer (head, less) closes the pipe.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def die(message):
    print(f"trace_view: {message}", file=sys.stderr)
    sys.exit(2)


def span_tags(span):
    tags = []
    for flag in span.get("flags", []):
        tags.append(f"[{flag}]")
    if "code" in span:
        tags.append(f"code={span['code']}")
    if span.get("extra"):
        tags.append(f"B={span['extra']}")
    return " ".join(tags)


def has_stage(spans, stage):
    return any(
        s.get("stage") == stage or has_stage(s.get("children", []), stage)
        for s in spans
    )


def has_flags(spans, wanted):
    return any(
        (set(s.get("flags", [])) & wanted)
        or has_flags(s.get("children", []), wanted)
        for s in spans
    )


def print_span(span, t0, depth):
    offset_ms = (span["start_us"] - t0) * 1e-3
    dur_ms = span["dur_us"] * 1e-3
    name = "  " * depth + span.get("stage", "?")
    tags = span_tags(span)
    print(f"  {name:<28} {offset_ms:>+9.1f} ms {dur_ms:>9.2f} ms  {tags}")
    for child in span.get("children", []):
        print_span(child, t0, depth + 1)


def main():
    parser = argparse.ArgumentParser(
        description="render dump_json() trace span trees as timelines")
    parser.add_argument("dump", help="trace JSON file, or - for stdin")
    parser.add_argument("--stage",
                        help="only traces containing this stage name")
    parser.add_argument("--errors-only", action="store_true",
                        help="only traces with an error/worker-lost span")
    args = parser.parse_args()

    try:
        if args.dump == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.dump) as f:
                doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(str(e))

    traces = doc.get("traces", [])
    shown = 0
    for trace in traces:
        spans = trace.get("spans", [])
        if not spans:
            continue
        if args.stage and not has_stage(spans, args.stage):
            continue
        if args.errors_only and not has_flags(
                spans, {"error", "worker_lost"}):
            continue
        t0 = min(s["start_us"] for s in spans)
        total_ms = max(s["start_us"] + s["dur_us"] for s in spans) * 1e-3 \
            - t0 * 1e-3
        print(f"trace {trace.get('trace')} (total {total_ms:.1f} ms)")
        for span in spans:
            print_span(span, t0, 1)
        shown += 1
    print(f"{shown} trace(s) of {len(traces)} shown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
