#!/usr/bin/env python3
"""End-to-end benchmark of `rpe_cli serve-tcp` (see perfbench/README.md).

    python3 perfbench/run.py --workload poll-pipelined --seed 1 \
        --seconds 10 --trace 0

Builds the server and the benchmark client from source into .bench_build/
of the checkout (Release only), starts a fresh server per run, drives it
with bench_client, checks every served value and reconciles the client's
counts against the server's /metrics deltas, and prints one JSON object
as the last line of stdout: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Exits 1 when a correctness check
fails, 2 when the checkout cannot be built or run.
"""

import argparse
import ctypes
import json
import os
import signal
import select
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / '.bench_build'

# Every server of every workload: 200 runs, 2 shards (so 2 IO threads), a
# 50-tree stack trained on the workload's records at start-up. Ingest
# retrains every 64 records into a corpus capped at 384 rows, which the
# 321 seed records plus the first trigger already fill.
WORKLOAD_FLAGS = ['--queries', '200', '--scale', '10', '--trees', '50',
                  '--retrain-every', '64']
SERVER_FLAGS = ['--kind', 'tpch', '--shards', '2', '--metrics-port', '0',
                '--corpus-cap', '384'] + WORKLOAD_FLAGS
# Fresh servers per run: each is started (setup_s is the median start-up)
# and then driven for a third of the window; every end-to-end metric is
# the median over the three, so one server landing in a slow phase of a
# shared machine does not move the result.
SERVERS = 3

WORKLOADS = {
    # Closed loop, 2 connections x 64 sessions in two groups of 32, each
    # group's round one write, both groups' rounds in flight.
    'poll-pipelined': ['--mode', 'poll', '--warmup', '1.5', '--probes', '4'],
    # Open loop, seeded Poisson arrivals at about half of capacity.
    'replay-open': ['--mode', 'open', '--rate', '2500', '--warmup', '1.5',
                    '--probes', '4'],
    # The open loop at a lower rate plus a paced ingest stream; one
    # retrain trigger (64 records) every 1.33 s.
    'ingest-retrain': ['--mode', 'ingest', '--rate', '1200',
                       '--ingest-rate', '48', '--warmup', '2.5'],
}
PRIMARY = {'poll-pipelined': ('poll_per_s', 'higher'),
           'replay-open': ('session_p50_ms', 'lower'),
           'ingest-retrain': ('session_p50_ms', 'lower')}

SESSION_ROOTS = ('request.open', 'request.advance', 'request.progress',
                 'request.close')

_children = []


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def _die_with_parent():
    """Child pre-exec: SIGKILL the child if this script dies first, so no
    server outlives its run even when the script itself is killed."""
    try:
        ctypes.CDLL('libc.so.6', use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def spawn(argv, **kw):
    proc = subprocess.Popen(argv, preexec_fn=_die_with_parent, **kw)
    _children.append(proc)
    return proc


def reap_all():
    for proc in _children:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    _children.clear()


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


# --------------------------------------------------------------------------
# Build

def build():
    if not (ROOT / 'CMakeLists.txt').is_file() or not (ROOT / 'src').is_dir():
        log('run.py: no repository sources next to perfbench/; nothing to '
            'build or measure')
        return None
    cache = BUILD / 'CMakeCache.txt'
    if not cache.exists():
        subprocess.run(['cmake', '-S', str(BENCH_DIR), '-B', str(BUILD),
                        '-DCMAKE_BUILD_TYPE=Release'], check=True,
                       stdout=sys.stderr)
    build_type = ''
    for line in cache.read_text().splitlines():
        if line.startswith('CMAKE_BUILD_TYPE:'):
            build_type = line.split('=', 1)[1]
    if build_type != 'Release':
        log('run.py: refusing to time a %r build (Release required)'
            % build_type)
        return None
    subprocess.run(['cmake', '--build', str(BUILD), '-j4', '--target',
                    'rpe_cli', 'bench_client', 'bench_selftest'],
                   check=True, stdout=sys.stderr)
    subprocess.run([str(BUILD / 'bench_selftest')], check=True,
                   stdout=sys.stderr)
    return {'build_type': build_type,
            'rpe_cli': str(BUILD / 'rpe' / 'rpe_cli'),
            'client': str(BUILD / 'bench_client')}


# --------------------------------------------------------------------------
# Server lifecycle

class Server:
    def __init__(self, rpe_cli, workdir, trace):
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.trace_path = workdir / 'server_trace.json' if trace else None
        flags = SERVER_FLAGS + ['--snapshot-out', str(workdir / 'stack.rpsn')]
        if trace:
            flags += ['--trace-out', str(self.trace_path)]
        self.flags = flags
        self.err = open(workdir / 'server.err', 'ab')
        self._pending = b''
        t0 = time.monotonic()
        self.proc = spawn([rpe_cli, 'serve-tcp'] + flags,
                          stdout=subprocess.PIPE, stderr=self.err,
                          cwd=workdir)
        self.port = self._await_line('listening on ', t0)
        self.setup_s = time.monotonic() - t0
        self.metrics_port = self._await_line('metrics on ', t0)

    def _await_line(self, prefix, t0):
        fd = self.proc.stdout.fileno()
        while True:
            while b'\n' in self._pending:
                line, self._pending = self._pending.split(b'\n', 1)
                if line.decode().startswith(prefix):
                    return int(line.decode().split(':')[1].split()[0])
            left = 90 - (time.monotonic() - t0)
            ready, _, _ = select.select([fd], [], [], max(left, 0))
            if not ready:
                raise RuntimeError('server did not print %r' % prefix)
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError('server exited before %r' % prefix)
            self._pending += chunk

    def peak_rss_mb(self):
        for line in Path('/proc/%d/status' % self.proc.pid).read_text() \
                .splitlines():
            if line.startswith('VmHWM:'):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.err.close()
        _children.remove(self.proc)
        return self.proc.returncode


# --------------------------------------------------------------------------
# One measured pass: server + client

def read_samples(path):
    data = array('d')
    raw = Path(path).read_bytes()
    data.frombytes(raw)
    return list(data)


def drive(tools, workload, seed, seconds, workdir, trace, servers):
    """One bench_client process drives `servers` one after another, each
    for `seconds`; returns one result per server."""
    targets = ','.join('%d:%d:%d' % (srv.port, srv.metrics_port, srv.proc.pid)
                       for srv in servers)
    client_flags = WORKLOADS[workload] + [
        '--servers', targets, '--seed', str(seed), '--seconds', str(seconds),
        '--trace', '1' if trace else '0', '--out', str(workdir)
    ] + WORKLOAD_FLAGS
    with open(workdir / 'client.err', 'wb') as err:
        client = spawn([tools['client']] + client_flags, stdout=err,
                       stderr=err)
        client.wait(timeout=150)
        _children.remove(client)
    if client.returncode != 0:
        raise RuntimeError('bench_client exited %d (see %s)'
                           % (client.returncode, workdir / 'client.err'))
    results = []
    for srv in servers:
        sub = srv.workdir
        result = json.loads((sub / 'result.json').read_text())
        result['rss_mb'] = srv.peak_rss_mb()
        result['prom'] = {k: analysis.parse_prometheus(
            (sub / ('%s.prom' % k)).read_text())
            for k in ('before', 'w0', 'w1', 'after')}
        result['samples'] = {k: read_samples(sub / ('%s.f64' % k))
                             for k in ('round_ms', 'session_ms', 'late_ms',
                                       'lag_s')}
        results.append(result)
    return results


def reconcile(r):
    """Exact checks of the client's counts against /metrics deltas over
    the whole run (both scrapes were taken with no traffic in flight)."""
    t, b, a = r['tally'], r['prom']['before'], r['prom']['after']

    def d(name):
        return analysis.delta(b, a, name)

    checks = [
        ('wire sessions opened', t['opens'],
         d('rpe_server_wire_sessions_opened_total')),
        ('service sessions opened', t['opens'],
         d('rpe_sessions_opened_total')),
        ('wire sessions closed', t['closes'],
         d('rpe_server_wire_sessions_closed_total')),
        ('sessions completed', t['completed'],
         d('rpe_sessions_completed_total')),
        ('advance steps', t['steps'], d('rpe_server_advance_steps_total')),
        ('observations scored', t['steps'],
         d('rpe_observations_scored_total')),
        ('frames received by server', t['frames_sent'],
         d('rpe_server_frames_received_total')),
        ('frames sent by server', t['frames_received'],
         d('rpe_server_frames_sent_total')),
        ('requests shed', t['busy'], d('rpe_server_requests_shed_total')),
        ('records ingested', t['ingest_accepted'],
         d('rpe_server_records_ingested_total')),
        ('records pushed to the queue', t['ingest_accepted'],
         d('rpe_ingest_pushed_total')),
        ('records dropped', t['ingest_dropped'],
         d('rpe_server_records_ingest_dropped_total')),
        ('records shed', t['ingest_shed'],
         d('rpe_server_records_ingest_shed_total')),
        ('protocol + io errors', 0,
         d('rpe_server_protocol_errors_total') +
         d('rpe_server_io_errors_total')),
        ('generation == retrains', analysis.family_sum(a, 'rpe_retrains_total'),
         analysis.family_sum(a, 'rpe_model_generation')),
    ]
    checks.append(('generation seen over the wire',
                   r['scalars'].get('final_generation', -1),
                   analysis.family_sum(a, 'rpe_model_generation')))
    return ['%s: client %s, server %s' % (name, int(c), int(s))
            for name, c, s in checks if int(c) != int(s)]


def tail(samples, q):
    """Percentile q, or 0 when fewer than 10 samples lie beyond it."""
    got = analysis.percentile(samples, q)
    return got[0] if got else 0.0


def end_to_end(workload, results, setups, seconds):
    """Each metric per sub-run, then the median over sub-runs; publish lag
    pools every sub-run's lags first (a handful per sub-run)."""
    per_run = []
    for r in results:
        s, t = r['samples'], r['tally']
        if workload == 'poll-pipelined':
            poll_per_s = r['scalars']['window_polls'] / \
                r['scalars']['window_poll_s']
        else:
            poll_per_s = len(s['session_ms']) / seconds
        per_run.append({
            'server_rss_mb': r['rss_mb'],
            'served_frac': 1.0 - failures(t) / attempted(t),
            'poll_per_s': poll_per_s,
            'round_p50_ms': tail(s['round_ms'], 50),
            'progress_l1': r['scalars']['progress_l1'],
            'session_p50_ms': tail(s['session_ms'], 50),
        })
    out = {'setup_s': (statistics.median(setups), 's')}
    for name, unit in E2E_UNITS.items():
        if name in per_run[0]:
            out[name] = (statistics.median(m[name] for m in per_run), unit)
    lags = [x for r in results for x in r['samples']['lag_s']]
    out['publish_lag_s'] = (analysis.median(lags) or 0.0, 's')
    return out


E2E_UNITS = {'setup_s': 's', 'server_rss_mb': 'MB', 'served_frac': 'fraction',
             'poll_per_s': '1/s', 'round_p50_ms': 'ms',
             'progress_l1': 'fraction', 'session_p50_ms': 'ms',
             'publish_lag_s': 's'}


def attempted(t):
    return max(1, t['frames_sent'] + t['ingest_offered'])


def failures(t):
    return (t['busy'] + t['error_frames'] + t['conn_errors'] +
            t['ingest_dropped'] + t['ingest_shed'] + t['mismatches'])


def load_trace(path, roots=None):
    if path is None or not Path(path).exists():
        return {}
    return analysis.self_times(json.loads(Path(path).read_text())
                               ['traceEvents'], roots)


def per_layer(workload, r, server_spans, overhead_pct, snapshot_bytes):
    sc, t, s = r['scalars'], r['tally'], r['samples']
    w0, w1 = r['prom']['w0'], r['prom']['w1']
    b, a = r['prom']['before'], r['prom']['after']
    window_frames = analysis.delta(w0, w1, 'rpe_server_frames_sent_total')
    window_in = analysis.delta(w0, w1, 'rpe_server_frames_received_total')
    window_steps = analysis.delta(w0, w1, 'rpe_server_advance_steps_total')
    roots = [v for k, v in server_spans.items() if k.startswith('request.')]
    root_n = sum(v['count'] for v in roots)

    def span(name, key='mean_us'):
        return server_spans.get(name, {}).get(key, 0.0)

    def root_mean(key):
        return (sum(v[key] * v['count'] for v in roots) / root_n
                if root_n else 0.0)

    retrain_ms = span('trainer.retrain', 'mean_us') / 1e3 or \
        analysis.family_sum(a, 'rpe_last_retrain_ms')
    publish_ms = span('trainer.publish', 'mean_us') / 1e3
    lag_ms = (analysis.median(s['lag_s']) or 0.0) * 1e3
    primary = 'round_ms' if workload == 'poll-pipelined' else 'session_ms'
    return {
        'server.cpu_us_per_op': sc['server.cpu_s'] * 1e6 / max(window_frames, 1),
        'server.cpu_cores': sc['server.cpu_s'] / sc['window_s'],
        'server.io_busy_frac': sc['server.io_busy_frac'],
        'server.request_us': root_mean('mean_us'),
        'server.decode_us': span('frame.decode'),
        'server.route_us': span('shard.route'),
        'server.step_us': span('advance.step'),
        'server.unspanned_us': root_mean('self_us'),
        'server.steps_per_frame': window_steps / max(window_in, 1),
        'server.shed': analysis.delta(b, a, 'rpe_server_requests_shed_total') +
        analysis.delta(b, a, 'rpe_server_records_ingest_shed_total'),
        'server.errors': analysis.delta(b, a, 'rpe_server_protocol_errors_total') +
        analysis.delta(b, a, 'rpe_server_io_errors_total'),
        'wire.advance_codec_ns': sc['wire.advance_codec_ns'],
        'wire.ingest_decode_ns_per_record': sc['wire.ingest_decode_ns_per_record'],
        'shard.open_us': sc['shard.open_us'],
        'shard.advance_ns': sc['shard.advance_ns'],
        'shard.close_us': sc['shard.close_us'],
        'shard.bookkeeping_ns': sc['shard.bookkeeping_ns'],
        'monitor.decide_us_per_run': sc['monitor.decide_us_per_run'],
        'monitor.progress_ns': sc['monitor.progress_ns'],
        'monitor.observations': sc['monitor.observations'],
        'mart.score_ns_per_row': sc['mart.score_ns_per_row'],
        'mart.train_s': sc['mart.train_s'],
        'mart.train_rows': sc['mart.train_rows'],
        'trainer.retrains': analysis.delta(b, a, 'rpe_retrains_total'),
        'trainer.retrain_ms': retrain_ms,
        'trainer.publish_ms': publish_ms,
        'trainer.wait_ms': lag_ms - retrain_ms - publish_ms if lag_ms else 0.0,
        'trainer.failures': analysis.delta(b, a, 'rpe_retrain_failures_total') +
        analysis.delta(b, a, 'rpe_publish_failures_total'),
        'snapshot.bytes': snapshot_bytes or sc['snapshot.bytes'],
        'snapshot.encode_ms': sc['snapshot.encode_ms'],
        'ingest.push_ns': sc['ingest.push_ns'],
        'ingest.drain_ns_per_record': sc['ingest.drain_ns_per_record'],
        'ingest.accept_ratio': (t['ingest_accepted'] / t['ingest_offered']
                                if t['ingest_offered'] else 1.0),
        'ingest.queue_depth_max': t['queue_depth_max'],
        'exec.build_s': sc['exec.build_s'],
        'exec.run_s': sc['exec.run_s'],
        'exec.queries': sc['exec.queries'],
        'exec.failed': sc['exec.failed'],
        'exec.records': sc['exec.records'],
        'client.round_p90_ms': tail(s['round_ms'], 90),
        'client.round_p99_ms': tail(s['round_ms'], 99),
        'client.session_p90_ms': tail(s['session_ms'], 90),
        'client.session_p99_ms': tail(s['session_ms'], 99),
        'client.session_p999_ms': tail(s['session_ms'], 99.9),
        'client.samples': len(s[primary]),
        'client.late_p99_ms': tail(s['late_ms'], 99),
        'client.cpu_s': sc['client.cpu_s'],
        'client.cpu_cores': sc['client.cpu_s'] / sc['window_s'],
        'client.fail_frac': failures(t) / attempted(t),
        'obs.trace_overhead_pct': overhead_pct,
    }


LAYER_UNITS = {
    'server.cpu_us_per_op': 'us', 'server.cpu_cores': 'cores',
    'server.io_busy_frac': 'fraction', 'server.request_us': 'us',
    'server.decode_us': 'us', 'server.route_us': 'us', 'server.step_us': 'us',
    'server.unspanned_us': 'us', 'server.steps_per_frame': 'count',
    'server.shed': 'count', 'server.errors': 'count',
    'wire.advance_codec_ns': 'ns', 'wire.ingest_decode_ns_per_record': 'ns',
    'shard.open_us': 'us', 'shard.advance_ns': 'ns', 'shard.close_us': 'us',
    'shard.bookkeeping_ns': 'ns', 'monitor.decide_us_per_run': 'us',
    'monitor.progress_ns': 'ns', 'monitor.observations': 'count',
    'mart.score_ns_per_row': 'ns', 'mart.train_s': 's',
    'mart.train_rows': 'count', 'trainer.retrains': 'count',
    'trainer.retrain_ms': 'ms', 'trainer.publish_ms': 'ms',
    'trainer.wait_ms': 'ms', 'trainer.failures': 'count',
    'snapshot.bytes': 'bytes', 'snapshot.encode_ms': 'ms',
    'ingest.push_ns': 'ns', 'ingest.drain_ns_per_record': 'ns',
    'ingest.accept_ratio': 'fraction', 'ingest.queue_depth_max': 'count',
    'exec.build_s': 's', 'exec.run_s': 's', 'exec.queries': 'count',
    'exec.failed': 'count', 'exec.records': 'count',
    'client.round_p90_ms': 'ms', 'client.round_p99_ms': 'ms',
    'client.session_p90_ms': 'ms', 'client.session_p99_ms': 'ms',
    'client.session_p999_ms': 'ms', 'client.samples': 'count',
    'client.late_p99_ms': 'ms', 'client.cpu_s': 's',
    'client.cpu_cores': 'cores', 'client.fail_frac': 'fraction',
    'obs.trace_overhead_pct': '%',
}


def print_layer_table(workload, server_spans, client_spans, out):
    """'Where a request's time goes': per span name, count, mean
    duration and mean self time, server spans then the client's."""
    lines = ['where time goes (%s): span, count, mean_us, self_us' % workload]
    for side, spans in (('server', server_spans), ('client', client_spans)):
        for name in sorted(spans):
            v = spans[name]
            lines.append('  %-6s %-22s %9d %12.3f %12.3f'
                         % (side, name, v['count'], v['mean_us'], v['self_us']))
    text = '\n'.join(lines) + '\n'
    out.write_text(text)
    log(text)


# --------------------------------------------------------------------------

def run_pass(tools, workload, seed, seconds, workdir, trace, count):
    """Start `count` servers one after another (each start-up timed), drive
    each for `seconds`, stop them all."""
    servers = []
    try:
        for i in range(count):
            servers.append(Server(tools['rpe_cli'], workdir / str(i), trace))
        results = drive(tools, workload, seed, seconds, workdir, trace,
                        servers)
    finally:
        for srv in servers:
            if srv.proc.poll() is None:
                srv.stop()
    for r in results:
        r['server_flags'] = servers[0].flags
    return results, [srv.setup_s for srv in servers]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        return run(args)
    finally:
        reap_all()


def run(args):
    try:
        tools = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log('run.py: build failed: %s' % e)
        return 2
    if tools is None:
        return 2
    workdir = BUILD / 'runs' / ('%s-s%d-t%d' % (args.workload, args.seed,
                                                args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    version = subprocess.run([tools['rpe_cli'], 'version'], check=True,
                             capture_output=True, text=True).stdout
    simd = [ln for ln in version.splitlines() if ln.startswith('simd:')]

    overhead, plain = 0.0, []
    if args.trace:
        # Untraced then traced pass, one fresh server each; the primary
        # metric's difference is the tracing overhead.
        half = args.seconds / 2
        plain, plain_setups = run_pass(tools, args.workload, args.seed, half,
                                       workdir / 'untraced', False, 1)
        results, setups = run_pass(tools, args.workload, args.seed, half,
                                   workdir, True, 1)
        name, better = PRIMARY[args.workload]
        base = end_to_end(args.workload, plain, plain_setups, half)[name][0]
        traced = end_to_end(args.workload, results, setups, half)[name][0]
        if base:
            sign = 1.0 if better == 'higher' else -1.0
            overhead = sign * (base - traced) / base * 100.0
    else:
        # SERVERS fresh servers per run, each driven for an equal share of
        # the window; metrics are medians over them.
        results, setups = run_pass(tools, args.workload, args.seed,
                                   args.seconds / SERVERS, workdir, False,
                                   SERVERS)

    problems = []
    checked = results + plain if args.trace else results
    for i, r in enumerate(checked):
        problems += ['server %d: %s' % (i, p) for p in r['problems']]
        problems += ['server %d: %s' % (i, p)
                     for p in reconcile(r)]
    correct = not problems and all(r['tally']['mismatches'] == 0
                                   for r in checked)
    info = {'workload': args.workload, 'seed': args.seed,
            'seconds': args.seconds, 'build_type': tools['build_type'],
            'nproc': os.cpu_count(), 'simd': simd[0] if simd else '',
            'server_flags': ' '.join(results[0]['server_flags'])}
    log('run info: %s' % json.dumps(info))
    (workdir / 'run_info.json').write_text(json.dumps(info) + '\n')
    for p in problems:
        log('CHECK FAILED: %s' % p)

    if args.trace:
        # Session requests only: kStats polls and ingest frames have their
        # own roots and would blur the request path.
        trace = workdir / '0' / 'server_trace.json'
        server_spans = load_trace(trace, SESSION_ROOTS)
        server_spans.update({k: v for k, v in load_trace(trace).items()
                             if k.startswith('trainer.')})
        client_spans = load_trace(workdir / 'client_trace.json')
        print_layer_table(args.workload, server_spans, client_spans,
                          workdir / 'layers.txt')
        snap = workdir / '0' / 'stack.rpsn'
        values = per_layer(args.workload, results[0], server_spans, overhead,
                           snap.stat().st_size if snap.exists() else 0)
        metrics = {k: {'value': float(v), 'unit': LAYER_UNITS[k]}
                   for k, v in values.items()}
    else:
        values = end_to_end(args.workload, results, setups,
                            args.seconds / SERVERS)
        metrics = {k: {'value': float(v), 'unit': u}
                   for k, (v, u) in values.items()}
        for i, r in enumerate(results):
            s = r['samples']
            for key, q in (('round_ms', 99), ('session_ms', 99),
                           ('session_ms', 99.9)):
                got = analysis.percentile(s[key], q)
                log('diagnostic server %d %s p%s: %s' % (
                    i, key, q, 'n/a (fewer than 10 samples beyond it)'
                    if got is None else '%.4f ms (%d samples beyond)' % got))
            log('diagnostic server %d samples: rounds=%d sessions=%d'
                % (i, len(s['round_ms']), len(s['session_ms'])))
        log('diagnostic setups: %s' % ['%.3f' % x for x in setups])
    out = {'correct': correct,
           'attempted': sum(attempted(r['tally']) for r in results),
           'failed': sum(failures(r['tally']) for r in results),
           'metrics': metrics}
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
