"""Order statistics shared by the benchmark's processes.

A run is measured in segments (one input block, or one enumerate pass) and
each end-to-end figure is the median over segments, so a second or two of
contention from outside the process moves a run's figures little.
"""

from __future__ import annotations

# latency_tail_ms is the highest percentile that leaves this many samples
# of its segment beyond it: the (TAIL_BEYOND + 1)-th largest latency.
TAIL_BEYOND = 10


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def segment(latencies_ns) -> dict:
    """Throughput, median and tail latency of one segment of operations."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    return {
        "ops_per_s": n / (sum(ordered) / 1e9),
        "latency_p50_ms": ordered[(n + 1) // 2 - 1] / 1e6,
        "latency_tail_ms": ordered[max(n - TAIL_BEYOND - 1, 0)] / 1e6,
        "samples": n,
    }


def summarize(segments: list[dict]) -> dict:
    """Medians over segments, with the sample counts behind the percentiles."""
    out = {key: median([s[key] for s in segments])
           for key in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")}
    samples = min(s["samples"] for s in segments)
    out.update(
        segments=len(segments),
        segment_samples=samples,
        tail_percentile=100 * (samples - TAIL_BEYOND) / samples,
        tail_samples_beyond=TAIL_BEYOND,
    )
    return out
