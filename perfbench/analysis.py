"""Pure arithmetic behind the benchmark's report: percentiles, span self
times, failure shares and the metric-name rules.  Kept free of I/O so
test_analysis.py can pin each rule on its own."""

import math
import re
from fractions import Fraction

# Candidate tail percentiles, lowest first.
PERCENTILES = ("50", "90", "95", "99", "99.9")
MIN_BEYOND = 10

# Seconds the driver's two host-speed kernels (hash lookups, pointer chase)
# take on the reference host: a 4-vCPU Intel Xeon VM, g++ 12.2, Release.
# Times are reported at this speed; the constants only set the scale.
REFERENCE_SPEED = (0.0028, 0.0150)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _rank(n, p):
    """Nearest-rank position (1-based) of percentile p among n samples."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n):
    """The highest candidate percentile that leaves at least ten samples
    beyond it, or None when even the median does not."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def speed_factor(before, after, reference=REFERENCE_SPEED):
    """Factor that rescales a time measured between two host-speed probes
    (each a (hash_s, chase_s) pair) to the reference speed: the geometric
    mean of the two kernels' reference-to-measured ratios."""
    ratio = 1.0
    for ref, b, a in zip(reference, before, after):
        ratio *= ref / ((b + a) / 2)
    return math.sqrt(ratio)


def _covered(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span name, the summed self time: each span's duration minus the
    part of it its child spans cover.

    `spans` is a list of (name, start, end, parent) with `parent` the index
    of the parent span in the same list, or -1 for a root."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(i, []) if min(e, end) > max(s, start)]
        out[name] = out.get(name, 0) + (end - start) - _covered(clipped)
    return out


def failure_share(attempted, failed):
    """Failed operations as a share of those attempted."""
    if not isinstance(attempted, int) or not isinstance(failed, int):
        raise TypeError("operation counts are whole numbers")
    if attempted < 1 or failed < 0 or failed > attempted:
        raise ValueError(f"bad operation counts: {failed} of {attempted}")
    return failed / attempted


def check_metrics(metrics):
    """Raise ValueError unless every metric has a legal name, a legal unit
    and a finite numeric value."""
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError(f"illegal metric name {name!r}")
        if set(entry) != {"value", "unit"}:
            raise ValueError(f"metric {name} needs exactly a value and a unit")
        if not isinstance(entry["unit"], str) or not UNIT_RE.match(entry["unit"]):
            raise ValueError(f"metric {name} has illegal unit {entry['unit']!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {name} has non-numeric value {value!r}")
