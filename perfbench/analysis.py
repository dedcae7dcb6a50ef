"""Pure helpers of the end-to-end benchmark: Prometheus text parsing,
Chrome-trace self time, and the percentile rule. No I/O beyond what the
callers hand in, so test_analysis.py covers them directly."""

import math
import re
from collections import defaultdict

_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)\s*$')


def parse_prometheus(text):
    """Prometheus text exposition -> {series: value}, where series is the
    metric name followed by its label set exactly as exposed
    (e.g. 'rpe_shard_sessions_open{shard="0"}'). Comments are skipped."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith('#'):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError('malformed exposition line: %r' % line)
        name, labels, value = m.group(1), m.group(2) or '', m.group(3)
        out[name + labels] = float(value)
    return out


def family_sum(samples, name):
    """Sum of every series of metric `name` (any labels); 0 if absent."""
    total = 0.0
    for series, value in samples.items():
        if series == name or series.startswith(name + '{'):
            total += value
    return total


def delta(before, after, name):
    return family_sum(after, name) - family_sum(before, name)


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(events, roots=None):
    """Chrome trace events (dicts with name, ts, dur, args.span,
    args.parent) -> per name: count, mean duration and mean self time
    (microseconds). A span's self time is its duration minus the part of
    its own interval that its child spans cover. With `roots` (a set of
    root span names), only those roots and their direct children count."""
    if roots is not None:
        kept = {e['args'].get('span') for e in events
                if e['name'] in roots and not e['args'].get('parent')}
        events = [e for e in events if e['args'].get('span') in kept or
                  e['args'].get('parent') in kept]
    children = defaultdict(list)
    for e in events:
        parent = e['args'].get('parent', 0)
        if parent:
            children[parent].append((e['ts'], e['ts'] + e['dur']))
    acc = defaultdict(lambda: [0, 0.0, 0.0])
    for e in events:
        lo, hi = e['ts'], e['ts'] + e['dur']
        own = e['dur'] - _covered(children.get(e['args'].get('span', 0), []),
                                  lo, hi)
        a = acc[e['name']]
        a[0] += 1
        a[1] += e['dur']
        a[2] += own
    return {name: {'count': n, 'mean_us': d / n, 'self_us': s / n}
            for name, (n, d, s) in acc.items()}


def percentile(samples, q, min_beyond=10):
    """Percentile q (0..100) of `samples` by linear interpolation between
    closest ranks. Returns (value, samples_beyond) or None when fewer than
    `min_beyond` samples lie beyond it — a tail percentile is reported
    only when it rests on at least that many samples."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return None
    rank = q / 100.0 * (n - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    beyond = n - 1 - lo
    if q < 100 and beyond < min_beyond:
        return None
    return s[lo] + (s[hi] - s[lo]) * (rank - lo), beyond


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return None
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0
