#!/usr/bin/env python3
"""Repository benchmark for behaviot (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_paper|watch_replay|watch_live \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep [--seed N] [--seconds S]

Run from the repository root. Builds an optimised copy of the library, the
`behaviot` CLI and the in-process harness (perfbench/harness.cpp) under
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from --seed under .bench_work, measures for --seconds and checks every
output against a reference. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run. The
lines before it name the workload's own figures and the run's metadata.
"""

import argparse
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
RUN_DIR = os.path.join(WORK, f"run-{os.getpid()}")  # removed after the run
CLI = os.path.join(BUILD, "behaviot_tools", "behaviot")
HARNESS = os.path.join(BUILD, "perfbench_harness")

WORKLOADS = ("batch_paper", "watch_replay", "watch_live")
SETUPS = 3             # set-ups per run; setup_s is their median
WINDOW_S = 600         # must match harness.cpp
RETRAIN_EVERY = 24     # watch_replay: retrain every 4 h
POLL_MS = 10           # watch_live: daemon's EOF poll interval
LIVE_K = 2400          # watch_live: capture seconds per wall second
LIVE_TAIL_S = 1800     # watch_live: fed capture after the last sample window
LIVE_LEAD_S = 0.5      # watch_live: daemon start-up before the first packet
LIVE_GRACE_S = 10.0    # watch_live: deadline after the last packet is due
LIVE_MIN_SAMPLES = 100
LATENCY_LIMIT_MS = 1000.0  # sweep: p90 limit of a sustainable rate
WINDOW_RE = re.compile(rb"^window\s+(\d+) \[.*\)\s+(\d+) flows\s+(\d+) alert")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- statistics

def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def supported_percentile(n, ladder=(50, 90, 95, 99, 99.9)):
    """Highest percentile of the ladder with at least 10 samples beyond it."""
    best = None
    for p in ladder:
        if n * (1 - p / 100.0) >= 10 - 1e-9:
            best = p
    return best


def self_check_statistics():
    assert supported_percentile(100) == 90
    assert supported_percentile(99) == 50
    assert supported_percentile(200) == 95
    assert supported_percentile(1000) == 99
    assert supported_percentile(19) is None
    assert quantile([3, 1, 2], 0.5) == 2
    assert abs(quantile(list(range(11)), 0.9) - 9.0) < 1e-12


# -------------------------------------------------------------------- build

def run_quiet(cmd, what, timeout=None, **kw):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=timeout, **kw)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"{what} failed (exit {r.returncode})")
    return r.stdout.decode(errors="replace")


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                 "tools/behaviot_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"repository sources missing ({need}); "
                             "run from the root of a behaviot checkout")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure", env=env)
    run_quiet(["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
               "behaviot", "perfbench_harness"], "build", env=env)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["BEHAVIOT_THREADS"] = str(nproc())
    return env


def harness(*args, timeout=170):
    run_quiet([HARNESS, *map(str, args)], f"harness {args[0]}",
              timeout=timeout, env=child_env())


def read_json(path):
    with open(path) as f:
        return json.load(f)


def metadata(seed, outputs):
    path = os.path.join(RUN_DIR, "meta.json")
    harness("meta", "--out", path, *outputs)
    meta = read_json(path)
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Z_]+):\w+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    flags = meta["cxx_flags"]
    if (meta["build_type"] not in ("Release", "RelWithDebInfo")
            or "-fsanitize" in flags or "-O0" in flags
            or not re.search(r"-O[23s]", flags)
            or cache.get("BEHAVIOT_ASAN", "OFF") != "OFF"
            or cache.get("BEHAVIOT_TSAN", "OFF") != "OFF"):
        raise BenchError(f"refusing to measure a {meta['build_type']} build "
                         f"with flags '{flags}'")
    meta.update(nproc=nproc(), BEHAVIOT_THREADS=child_env()["BEHAVIOT_THREADS"],
                seed=seed, python=sys.version.split()[0])
    return meta


# ------------------------------------------------------------ daemon runs

def setup_watch(workload, seed, trace):
    """Builds the inputs and reference SETUPS times (once when tracing)."""
    times = []
    for _ in range(1 if trace else SETUPS):
        d = os.path.join(RUN_DIR, workload)
        shutil.rmtree(d, ignore_errors=True)
        t = time.monotonic()
        harness("setup-watch", "--workload", workload.split("_")[1],
                "--seed", seed, "--dir", d)
        times.append(time.monotonic() - t)
    # Write the set-up's files back now: left dirty, the capture would be
    # written back mid-run and slow the daemon's snapshot renames.
    os.sync()
    ref = read_json(os.path.join(d, "reference.json"))
    with open(os.path.join(d, "reference_alerts.json")) as f:
        ref["alerts"] = json.load(f)["alerts"]
    return d, ref, times


def watch_cmd(d, out, capture, extra):
    return [CLI, "watch", "--models", os.path.join(d, "models.bbm"),
            "--capture", capture, "--window-s", str(WINDOW_S),
            "--alerts", os.path.join(out, "alerts.json"),
            "--metrics", os.path.join(out, "metrics.prom"),
            "--checkpoint", os.path.join(out, "ck.bbc"), *extra]


class Daemon:
    """`behaviot watch` as a child process; its stdout lines are stamped
    with their arrival time by whoever polls it (one thread)."""

    def __init__(self, cmd, out):
        self.err = open(os.path.join(out, "stderr.txt"), "wb")
        self.start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.err, env=child_env())
        self.fd = self.proc.stdout.fileno()
        self.buf = b""
        self.lines = []           # (arrival, bytes)
        self.windows = {}         # index -> (arrival, flows, alerts)
        self.window_cpu_ms = []   # main-thread CPU per window, in order
        self.cpu_mark_ns = 0
        self.eof = False
        self.peak_rss_kib = 0
        self.rss_read_at = 0.0
        self.rusage = None
        self.status = None
        self.end = None

    def sample_rss(self):
        """Peak RSS from /proc: a child's ru_maxrss also counts its parent's
        peak at exec time."""
        now = time.monotonic()
        if self.eof or now - self.rss_read_at < 0.005:
            return
        self.rss_read_at = now
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_kib = max(self.peak_rss_kib,
                                                int(line.split()[1]))
        except OSError:
            pass

    def poll(self, timeout):
        self.sample_rss()
        if self.eof:
            time.sleep(timeout)
            return
        r, _, _ = select.select([self.fd], [], [], timeout)
        if not r:
            return
        data = os.read(self.fd, 1 << 16)
        now = time.monotonic()
        if not data:
            self.eof = True
            return
        self.buf += data
        *complete, self.buf = self.buf.split(b"\n")
        closed = 0
        for line in complete:
            self.lines.append((now, line))
            m = WINDOW_RE.match(line)
            if m:
                closed += 1
                self.windows[int(m.group(1))] = (now, int(m.group(2)),
                                                 int(m.group(3)))
        if closed:
            self.sample_cpu(closed)

    def sample_cpu(self, closed):
        """Main-thread CPU time since the previous window line, shared by
        the `closed` windows that arrived together."""
        try:
            with open(f"/proc/{self.proc.pid}/task/{self.proc.pid}/"
                      "schedstat") as f:
                cpu_ns = int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            return
        share = (cpu_ns - self.cpu_mark_ns) / closed / 1e6
        self.cpu_mark_ns = cpu_ns
        self.window_cpu_ms.extend([share] * closed)

    def wait(self, timeout):
        deadline = time.monotonic() + timeout
        while not self.eof and time.monotonic() < deadline:
            self.poll(0.005)
        if not self.eof:
            self.proc.send_signal(signal.SIGTERM)
            kill_at = time.monotonic() + 20
            while not self.eof and time.monotonic() < kill_at:
                self.poll(0.05)
            if not self.eof:
                self.proc.kill()
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.end = time.monotonic()
        self.status = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()

    def kill(self):
        """Stops a daemon left running by an error, and reaps it."""
        if self.status is None:
            self.proc.kill()
            self.eof = True
            self.wait(0)

    def window_text(self):
        return [l for _, l in self.lines if not l.startswith(b"watched ")]


def ref_alerts(ref, windows):
    """The reference alerts of the first `windows` windows."""
    return ref["alerts"][:int(sum(ref["window_alerts"][:windows]))]


def check_daemon(daemon, ref, out, errors, upto):
    """Failed windows of a daemon run over windows [0, upto): a missing or
    miscounted `window k` line, or every window when the --alerts array
    differs from the reference."""
    if daemon.status != 0:
        errors.append(f"daemon exited {daemon.status}")
    missing = [k for k in range(upto) if k not in daemon.windows]
    if missing:
        errors.append(f"{len(missing)} window(s) not emitted, "
                      f"first {missing[0]}")
    bad = set(missing)
    for k, (_, flows, alerts) in daemon.windows.items():
        if k >= upto:
            continue
        want = (ref["window_flows"][k], ref["window_alerts"][k])
        if (flows, alerts) != want:
            errors.append(f"window {k}: {flows} flows / {alerts} alerts, "
                          f"reference {want[0]} / {want[1]}")
            bad.add(k)
    try:
        alerts = read_json(os.path.join(out, "alerts.json"))["alerts"]
    except (OSError, ValueError, KeyError) as e:
        alerts = None
        errors.append(f"alerts file unreadable: {e}")
    if alerts != ref_alerts(ref, upto):
        errors.append("alerts array differs from the reference")
        bad.update(range(upto))
    return len(bad)


def rusage_cpu(ru):
    return ru.ru_utime + ru.ru_stime


def replay_pass(d, ref):
    out = os.path.join(d, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = watch_cmd(d, out, os.path.join(d, "capture.pcap"),
                    ["--retrain-every", str(RETRAIN_EVERY)])
    daemon = Daemon(cmd, out)
    daemon.wait(120)
    return daemon, out


def pcap_index(path):
    """Record end offsets and timestamps (µs) of a classic pcap file."""
    with open(path, "rb") as f:
        data = f.read()
    magic = struct.unpack_from("<I", data, 0)[0]
    if magic in (0xA1B2C3D4, 0xA1B23C4D):
        endian = "<"
    else:
        endian = ">"
        magic = struct.unpack_from(">I", data, 0)[0]
    scale = 1 if magic == 0xA1B2C3D4 else 1000
    hdr = struct.Struct(endian + "IIII")
    ends, ts = [], []
    pos = 24
    while pos + 16 <= len(data):
        sec, frac, incl, _ = hdr.unpack_from(data, pos)
        pos += 16 + incl
        ends.append(pos)
        ts.append(sec * 1_000_000 + frac // scale)
    return data, ends, ts


def live_cut(ref, ts, seconds, k):
    """Packets fed (the capture's first `seconds` * k seconds) and sample
    windows (closed by a fed packet at least LIVE_TAIL_S before the last
    one, so a full ingest chunk always follows their closing packet)."""
    limit = ts[0] + seconds * k * 1e6
    n = next((i for i, t in enumerate(ts) if t > limit), len(ts))
    samples = 0
    for c in ref["closing_packet"]:
        if c < 0 or c >= n or ts[int(c)] > ts[n - 1] - LIVE_TAIL_S * 1e6:
            break
        samples += 1
    return n, samples


def live_pass(d, ref, seconds, k=LIVE_K):
    """Open loop: appends the capture to a growing pcap on the schedule
    due(i) = t0 + (ts_i - ts_0) / k while the daemon tails it. One thread
    writes on schedule and stamps the daemon's window lines between
    writes."""
    out = os.path.join(d, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    data, ends, ts = pcap_index(os.path.join(d, "capture.pcap"))
    if len(ends) != ref["packets"]:
        raise BenchError("capture index disagrees with the reference")
    n, m_windows = live_cut(ref, ts, seconds, k)
    closing = [int(c) for c in ref["closing_packet"][:m_windows]]
    growing = os.path.join(out, "live.pcap")
    with open(growing, "wb") as f:
        f.write(data[:24])
    cmd = watch_cmd(d, out, growing,
                    ["--follow", "1", "--poll-ms", str(POLL_MS),
                     "--max-windows", str(m_windows)])
    daemon = Daemon(cmd, out)
    try:
        t0 = daemon.start + LIVE_LEAD_S
        due = [t0 + (t - ts[0]) / 1e6 / k for t in ts[:n]]
        with open(growing, "ab", buffering=0) as f:
            info = feed(daemon, f, data, ends, due, closing)
        daemon.wait(0 if daemon.eof else 30)
    except BaseException:
        daemon.kill()
        raise
    lat = [(daemon.windows[i][0] - due[closing[i]]) * 1e3
           for i in range(m_windows) if i in daemon.windows]
    # Share of each latency spent waiting for the rest of the CLI's
    # 1024-packet ingest chunk to be written (diagnostic only).
    chunk_wait = [(due[min((c // 1024 + 1) * 1024, n) - 1] - due[c]) * 1e3
                  for c in closing]
    info.update(k=k, offered_pkts_per_s=n / max(due[n - 1] - t0, 1e-9),
                samples=len(lat), fed_packets=n, sample_windows=m_windows,
                chunk_wait_p50_ms=quantile(chunk_wait, 0.5))
    if lat:
        last = max(daemon.windows[i][0] for i in range(m_windows)
                   if i in daemon.windows)
        info["pkts_per_s"] = (closing[m_windows - 1] + 1) / (last - t0)
    return daemon, out, lat, info


def feed(daemon, f, data, ends, due, closing):
    """Writes every packet once it is due, in whole records, until every
    sample window is emitted or the deadline passes."""
    n, m = len(due), len(closing)
    t0 = due[0]
    deadline = due[-1] + LIVE_GRACE_S
    written = emitted = closed = 0  # closed: closing packet written
    late_max = 0.0
    backlog = []  # (time, windows closed but not yet emitted)
    while True:
        now = time.monotonic()
        if written < n and due[written] <= now:
            j = written
            while j < n and due[j] <= now:
                j += 1
            f.write(data[ends[written - 1] if written else 24:ends[j - 1]])
            late_max = max(late_max, time.monotonic() - due[written])
            written = j
        while emitted < m and emitted in daemon.windows:
            emitted += 1
        while closed < m and closing[closed] < written:
            closed += 1
        backlog.append((now, closed - emitted))
        if daemon.eof or emitted >= m or now > deadline:
            break
        wait = (due[written] - time.monotonic()) if written < n else 0.05
        daemon.poll(min(max(wait, 0.001), 0.005))
    # Growing: the last quarter of the feed holds a larger backlog than
    # anything seen in its first half.
    half = [b for t, b in backlog if t <= t0 + (due[-1] - t0) / 2]
    tail = [b for t, b in backlog if t >= t0 + 3 * (due[-1] - t0) / 4]
    return dict(late_ms_max=late_max * 1e3,
                backlog_windows_max=max(b for _, b in backlog),
                backlog_growing=bool(tail and half
                                     and max(tail) > max(half) + 1))


# ----------------------------------------------------------- workloads

def run_batch(seed, seconds, trace):
    out = os.path.join(RUN_DIR, "batch.json")
    spans = os.path.join(WORK, f"spans-batch_paper-{seed}.json")
    start = time.monotonic()
    proc = subprocess.Popen(
        [HARNESS, "batch", "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0", "--out", out, "--spans", spans],
        stdout=sys.stderr, env=child_env())
    deadline = time.monotonic() + 170
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise BenchError("batch harness timed out")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("batch harness failed")
    r = read_json(out)
    res = dict(attempted=r["attempted"], failed=r["failed"],
               errors=r["errors"], setup_s=r["setup_s"],
               info=dict(train_packets=r["train_packets"],
                         analysis_packets=r["analysis_packets"],
                         threads=r["threads"],
                         wall_s=time.monotonic() - start))
    if trace:
        res["layers"] = r["metrics"]
        res["spans"] = spans
        return res
    work_s = [t + a for t, a in zip(r["train_s"], r["analyze_s"])]
    pkts = r["train_packets"] + r["analysis_packets"]
    res["metrics"] = dict(
        pkts_per_s=pkts / statistics.median(work_s),
        latency_p50_ms=quantile(r["day_ms"], 0.5),
        latency_p90_ms=quantile(r["day_ms"], 0.9),
        peak_rss_mb=ru.ru_maxrss / 1024.0)
    res["info"].update(
        passes=len(work_s),
        train_s=statistics.median(r["train_s"]),
        cpu_us_per_pkt=statistics.median(r["cpu_s"]) / pkts * 1e6,
        analyze_pkts_per_s=r["analysis_packets"]
        / statistics.median(r["analyze_s"]),
        day_samples=len(r["day_ms"]))
    return res


def run_replay(seed, seconds, trace):
    """Closed loop: the daemon reads the whole capture as fast as it can.
    Passes repeat while they fit in --seconds (at least one). Its snapshots
    make the wall clock follow the disk, so the metrics are CPU-based:
    packets per daemon CPU-second and main-thread CPU per window."""
    d, ref, setup_s = setup_watch("watch_replay", seed, trace)
    errors = []
    attempted = failed = 0
    walls, rss, cpu, window_cpu, service = [], [], [], [], []
    windows = len(ref["window_flows"])
    start = time.monotonic()
    while not walls or (not trace and time.monotonic() - start
                        + statistics.median(walls) <= seconds):
        daemon, out = replay_pass(d, ref)
        attempted += windows
        failed += check_daemon(daemon, ref, out, errors, windows)
        walls.append(daemon.end - daemon.start)
        rss.append(daemon.peak_rss_kib / 1024.0)
        cpu.append(rusage_cpu(daemon.rusage))
        window_cpu += daemon.window_cpu_ms
        prev = daemon.start
        for i in range(windows):
            if i in daemon.windows:
                service.append((daemon.windows[i][0] - prev) * 1e3)
                prev = daemon.windows[i][0]
    res = dict(attempted=attempted, failed=failed, errors=errors,
               setup_s=setup_s, dir=d, ref=ref, daemon=daemon, max_windows=0,
               info=dict(packets=ref["packets"], bytes=ref["bytes"],
                         windows=windows, passes=len(walls),
                         replay_pkts_per_s=ref["packets"]
                         / statistics.median(walls),
                         replay_peak_rss_mb=statistics.median(rss),
                         window_service_p50_ms=quantile(service, 0.5),
                         cpu_s=statistics.median(cpu)))
    res["metrics"] = dict(
        pkts_per_s=ref["packets"] / statistics.median(cpu),
        latency_p50_ms=quantile(window_cpu, 0.5),
        latency_p90_ms=quantile(window_cpu, 0.9),
        peak_rss_mb=statistics.median(rss))
    return res


def run_live(seed, seconds, trace, k=LIVE_K):
    d, ref, setup_s = setup_watch("watch_live", seed, trace)
    errors = []
    daemon, out, lat, info = live_pass(d, ref, seconds, k)
    upto = info["sample_windows"]
    failed = check_daemon(daemon, ref, out, errors, upto)
    if len(lat) < LIVE_MIN_SAMPLES:
        errors.append(f"only {len(lat)} latency samples "
                      f"(need {LIVE_MIN_SAMPLES})")
    res = dict(attempted=upto, failed=failed, errors=errors, setup_s=setup_s,
               dir=d, ref=ref, daemon=daemon, max_windows=upto)
    info.update(packets=ref["packets"], bytes=ref["bytes"],
                windows=ref["windows"],
                tail_percentile=supported_percentile(len(lat)),
                cpu_s=rusage_cpu(daemon.rusage))
    if lat:
        info.update(live_latency_p50_ms=quantile(lat, 0.5),
                    live_latency_p90_ms=quantile(lat, 0.9))
    res["info"] = info
    res["metrics"] = dict(
        pkts_per_s=info.get("pkts_per_s", 0.0),
        latency_p50_ms=info.get("live_latency_p50_ms", 0.0),
        latency_p90_ms=info.get("live_latency_p90_ms", 0.0),
        peak_rss_mb=daemon.peak_rss_kib / 1024.0)
    return res


def trace_watch(res, workload, seed):
    """Traced in-process run of a watch workload, after the untraced daemon
    run in `res`; the traced sink's output must equal the daemon's."""
    d = res["dir"]
    out = os.path.join(d, "trace.json")
    spans = os.path.join(WORK, f"spans-{workload}-{seed}.json")
    harness("trace-watch", "--workload", workload.split("_")[1], "--dir", d,
            "--max-windows", res["max_windows"], "--out", out,
            "--spans", spans)
    res["attempted"] += 1
    bad = False
    windows = res["max_windows"] or len(res["ref"]["window_flows"])
    component = read_json(os.path.join(d, "component_alerts.json"))
    if component["alerts"] != ref_alerts(res["ref"], windows):
        res["errors"].append("component pass alerts differ from the "
                             "reference")
        bad = True
    traced_alerts = read_json(os.path.join(d, "traced", "alerts.json"))
    cli_alerts = read_json(os.path.join(d, "out", "alerts.json"))
    if traced_alerts["alerts"] != cli_alerts["alerts"]:
        res["errors"].append("traced sink alerts differ from the daemon's")
        bad = True
    with open(os.path.join(d, "traced", "stdout.txt"), "rb") as f:
        traced_lines = f.read().splitlines()
    if traced_lines != res["daemon"].window_text():
        res["errors"].append("traced sink stdout differs from the daemon's")
        bad = True
    res["failed"] += int(bad)
    res["layers"] = read_json(out)
    res["spans"] = spans


# ----------------------------------------------------------- reporting

def per_layer(res, workload, spec):
    """Every per-layer metric of BENCHMARK.json from a traced run; a layer
    the workload does not exercise reads 0."""
    m = dict(res["layers"])
    info = res["info"]

    def span(name, field="busy_ms"):
        return m.get(f"span.{name}.{field}", 0.0)

    v = {
        "ingest.pcap.busy_ms": span("ingest.pcap"),
        "flow.assemble.busy_ms": span("flow.assemble"),
        "flow.drain.busy_ms": span("flow.drain"),
        "pipeline.to_flows.busy_ms": span("pipeline.to_flows"),
        "periodic.infer.busy_ms": span("periodic.infer"),
        "watch.retrain.busy_ms": span("watch.retrain"),
        "pipeline.classify.busy_ms": span("pipeline.classify"),
        "ml.user_actions_train.busy_ms": span("ml.user_actions_train"),
        "pfsm.infer.busy_ms": span("pfsm.infer"),
        "pipeline.traces_of.busy_ms": span("pipeline.traces_of"),
        "deviation.window.busy_ms": span("deviation.window"),
        "watch.ingest.self_ms": span("watch.ingest", "self_ms"),
        "sink.render.busy_ms": span("sink.render"),
        "sink.write.busy_ms": span("sink.write"),
        "checkpoint.export.busy_ms": span("checkpoint.export"),
        "checkpoint.serialize.busy_ms": span("checkpoint.serialize"),
        "checkpoint.write.busy_ms": span("checkpoint.write"),
        "classify.flows": m.get("counter.classify.flows", 0.0),
        "replay.cpu_s": info.get("cpu_s", 0.0)
        if workload == "watch_replay" else 0.0,
        "live.cpu_s": info.get("cpu_s", 0.0)
        if workload == "watch_live" else 0.0,
        "loadgen.offered_pkts_per_s": info.get("offered_pkts_per_s", 0.0),
        "loadgen.late_ms_max": info.get("late_ms_max", 0.0),
        "live.backlog_windows_max": info.get("backlog_windows_max", 0.0),
        "live.samples": info.get("samples", 0.0),
    }
    if "deviation.window.calls" not in m:
        m["deviation.window.calls"] = span("deviation.window", "calls")
    if "trace.engine_pass_cpu_s" in m:
        m["trace.overhead_ratio"] = (m["trace.engine_pass_cpu_s"]
                                     / info["cpu_s"])
    else:
        m["trace.overhead_ratio"] = (m["trace.wall_ms"]
                                     / m["trace.untraced_wall_ms"])
    for key in ("spectrum_us", "validate_us", "dbscan_us",
                "candidates_examined", "candidates_pruned"):
        v[f"periodic.{key}"] = m.get(f"counter.periodic.{key}", 0.0)
    metrics = {}
    for item in spec:
        name = item["name"]
        value = v[name] if name in v else m.get(name, 0.0)
        metrics[name] = {"value": float(value), "unit": item["unit"]}
    layers = [k for k in m if k.startswith("layer.")]
    total = sum(m[k] for k in layers)
    if abs(total - m["trace.wall_ms"]) > 1e-3 * max(1.0, m["trace.wall_ms"]):
        res["errors"].append(f"layer self times add to {total:.3f} ms, "
                             f"traced wall {m['trace.wall_ms']:.3f} ms")
        res["failed"] += 1
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="watch_live at a rising ladder of compression "
                         "factors (not part of the gated runs)")
    args = ap.parse_args()
    if not args.sweep and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        self_check_statistics()
        build()
        os.makedirs(RUN_DIR, exist_ok=True)
        meta = metadata(args.seed, [WORK])
        if args.sweep:
            return sweep(args, meta)
        return run(args, meta)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)


def run(args, meta):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wl = args.workload
    runner = {"batch_paper": run_batch, "watch_replay": run_replay,
              "watch_live": run_live}[wl]
    res = runner(args.seed, args.seconds, bool(args.trace))
    if args.trace and wl != "batch_paper":
        trace_watch(res, wl, args.seed)
    if args.trace:
        metrics = per_layer(res, wl, spec["per_layer"])
    else:
        values = dict(res["metrics"], setup_s=statistics.median(
            res["setup_s"]))
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    info = dict(res["info"], setup_s=res["setup_s"])
    print(f"workload {wl} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    for key, value in sorted(info.items()):
        print(f"  {key}: {value}")
    if args.trace:
        print(f"  span file: {os.path.relpath(res['spans'], ROOT)}")
    for e in res["errors"][:20]:
        print(f"  error: {e}")
    print("meta " + json.dumps(dict(meta, workload=wl), sort_keys=True))
    correct = res["failed"] == 0 and not res["errors"]
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0


def sweep(args, meta):
    """watch_live at rising offered load. A rate is sustainable when every
    window is emitted, the backlog does not grow over the run and p90
    latency stays under LATENCY_LIMIT_MS."""
    rows = []
    for factor in (1, 1.5, 2, 3, 4, 6, 8):
        res = run_live(args.seed, args.seconds, True, k=LIVE_K * factor)
        i = res["info"]
        ok = (res["failed"] == 0 and not i["backlog_growing"]
              and i.get("live_latency_p90_ms", math.inf) <= LATENCY_LIMIT_MS)
        rows.append(dict(k=i["k"], offered_pkts_per_s=i["offered_pkts_per_s"],
                         p50_ms=i.get("live_latency_p50_ms"),
                         p90_ms=i.get("live_latency_p90_ms"),
                         backlog_windows_max=i["backlog_windows_max"],
                         backlog_growing=i["backlog_growing"],
                         late_ms_max=i["late_ms_max"], failed=res["failed"],
                         sustainable=ok))
        print(json.dumps(rows[-1]))
        if not ok:
            break
    best = max((r["offered_pkts_per_s"] for r in rows if r["sustainable"]),
               default=0.0)
    print("meta " + json.dumps(dict(meta, workload="watch_live sweep"),
                               sort_keys=True))
    print(json.dumps({"sweep": rows, "max_sustainable_pkts_per_s": best,
                      "latency_limit_p90_ms": LATENCY_LIMIT_MS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
