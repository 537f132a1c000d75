#!/usr/bin/env python3
"""SAAD benchmark: offline detect, live serve, and the instrumented server.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect-cassandra --seed 1 \
        --seconds 20 --trace 0

It builds `saad_offline` and `perfbench_tool` from source (Release) under
.bench_build/, generates the workload's inputs from the seed (cached under
.bench_build/cache/), measures for --seconds, checks the verdicts, and
prints one JSON result object as its last stdout line: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --smoke

runs every workload once on tiny inputs, in both modes, and checks that
every metric named in BENCHMARK.json is printed with its unit and that the
correctness gate ran. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1

BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "cmake")
CACHE = os.path.join(BUILD, "cache")
OUT = os.path.join(BUILD, "out")
SAAD = os.path.join(CMAKE_DIR, "saad_tools", "saad_offline")
TOOL = os.path.join(CMAKE_DIR, "perfbench_tool")

WORKLOADS = ["detect-cassandra", "detect-wide", "serve-wide",
             "tracker-microtask"]

# Input sizes. Part of every cache key, so changing one regenerates.
SIZES = {
    "full": {"cas_clean_min": 3, "cas_faulty_min": 8,
             "wide_synopses": 600_000, "wide_train": 400_000,
             "wide_windows": 60, "train_reps": 5},
    "smoke": {"cas_clean_min": 1, "cas_faulty_min": 2,
              "wide_synopses": 40_000, "wide_train": 40_000,
              "wide_windows": 20, "train_reps": 1},
}

# serve-wide open loop: fixed ladder rates (synopses/s), tried from the top
# until one is sustained, and the reference rate where lag and loss count.
LADDER = [2_000_000, 700_000, 350_000, 175_000]
REFERENCE_RATE = 500_000
SMOKE_LADDER = [100_000]
SMOKE_REFERENCE_RATE = 50_000
LATE_LIMIT_MS = 10.0     # sender p99 lateness allowed on a sustained rung
LAG_LIMIT_MS = 50.0      # verdict lag p99 allowed on a sustained rung
WINDOW_SEC_WIDE = 1
WINDOW_SEC_CASSANDRA = 60

N_A = 1.0  # value of an end-to-end metric a workload has no path for
KEEP_RUNS = 8  # run output directories kept under .bench_build/out


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


# ---- Build -----------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    with open(logf, "w") as out:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=out, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail("cmake configure failed; see " + logf)
        r = subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", str(NPROC),
                            "--target", "saad_offline", "perfbench_tool"],
                           stdout=out, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            fail("build failed; see " + logf)


def fingerprint():
    cpu, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                if line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1]
    except OSError:
        pass
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_BUILD_TYPE|SAAD_METRICS|CMAKE_CXX_COMPILER|"
                         r"CMAKE_CXX_FLAGS_RELEASE):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    tool = json.loads(subprocess.run([TOOL, "fingerprint"], check=True,
                                     capture_output=True, text=True)
                      .stdout.strip().splitlines()[-1])
    commit = "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode == 0:
        commit = r.stdout.strip()
    # A checkout without git history still identifies its sources.
    source = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        for path in sorted(walk_files(os.path.join(ROOT, top))):
            source.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                source.update(f.read())
    return {
        "nproc": NPROC, "cpu": cpu,
        "sse4_2": " sse4_2 " in flags + " ", "avx2": " avx2 " in flags + " ",
        "compiler": cache.get("CMAKE_CXX_COMPILER", "") + " " +
        tool["compiler"],
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "optimized": bool(tool["optimized"]),
        "saad_metrics": cache.get("SAAD_METRICS", "ON"),
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def walk_files(top):
    if os.path.isfile(top):
        yield top
    for d, _, files in os.walk(top):
        for name in files:
            yield os.path.join(d, name)


# ---- Processes -------------------------------------------------------------

# One finished child: wall and CPU seconds, peak RSS, exit code, stdout file.
Run = collections.namedtuple("Run", "wall cpu rss_kb code out")


def spawn_cmd(cmd, report):
    """cmd under `perfbench_tool spawn`, which writes wall, CPU and the
    exec'd image's own peak RSS to `report` (wait4's ru_maxrss would include
    this Python process's footprint)."""
    return [TOOL, "spawn", "--report=" + report, "--"] + cmd


def read_report(report):
    with open(report) as f:
        return json.load(f)


def run_timed(cmd, stdout_path, timeout=150):
    """Runs cmd with stdout to a file and returns its measured usage."""
    report = stdout_path + ".usage"
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        proc = subprocess.Popen(spawn_cmd(cmd, report), stdout=out, stderr=err)
        try:
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    u = read_report(report)
    return Run(u["wall_s"], u["cpu_s"], u["peak_rss_kb"], u["exit_code"],
               stdout_path)


def read_verdicts(path):
    """(ingested synopses, verdict lines) of a detect/serve stdout."""
    ingested, lines = None, []
    with open(path, errors="replace") as f:
        for line in f:
            m = re.match(r"^(\d+) anomalies in (\d+) synopses:$", line)
            if m:
                ingested = int(m.group(2))
            elif line.startswith("  "):
                lines.append(line.rstrip("\n"))
    return ingested, lines


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def tool_json(args, timeout=170):
    r = subprocess.run([TOOL] + args, capture_output=True, text=True,
                       timeout=timeout)
    if r.returncode != 0:
        fail("perfbench_tool %s failed: %s" % (args[0], r.stderr.strip()))
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def high_percentile(values, q=0.99):
    """The q-th percentile if >= 10 samples lie beyond it, else the highest
    percentile that has 10 beyond it (never below the median)."""
    n = len(values)
    q = max(0.5, min(q, 1.0 - 10.0 / n)) if n else q
    return pct(values, q), q


def pct(values, q):
    s = sorted(values)
    if not s:
        return float("nan")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---- Inputs (seeded, cached) -----------------------------------------------

def cached(key, make):
    """Directory CACHE/key, created once by make(tmpdir); returns (dir, meta)."""
    final = os.path.join(CACHE, key)
    meta_path = os.path.join(final, "meta.json")
    if not os.path.exists(meta_path):
        tmp = final + ".tmp%d" % os.getpid()
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        t0 = time.monotonic()
        meta = make(tmp)
        meta["generation_s"] = time.monotonic() - t0
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        log("generated %s in %.2f s" % (key, meta["generation_s"]))
    with open(meta_path) as f:
        return final, json.load(f)


def cassandra_inputs(seed, size):
    key = "cassandra-s%d-c%d-f%d" % (seed, size["cas_clean_min"],
                                     size["cas_faulty_min"])

    def make(d):
        def record(minutes, trace, extra):
            r = subprocess.run(
                [SAAD, "record", "--system=cassandra",
                 "--minutes=%d" % minutes, "--trace=" + trace,
                 "--seed=%d" % seed] + extra,
                capture_output=True, text=True, timeout=170)
            m = re.search(r"wrote (\d+) synopses", r.stdout)
            if r.returncode != 0 or not m:
                fail("record failed: " + r.stderr)
            return int(m.group(1))
        train = record(size["cas_clean_min"], os.path.join(d, "clean.trc"),
                       ["--registry=" + os.path.join(d, "reg.bin")])
        n = record(size["cas_faulty_min"], os.path.join(d, "faulty.trc"),
                   ["--fault=error-wal"])
        return {"synopses": n, "train_synopses": train}
    return cached(key, make)


def wide_inputs(seed, size):
    key = "wide-s%d-n%d-t%d-w%d" % (seed, size["wide_synopses"],
                                    size["wide_train"], size["wide_windows"])

    def make(d):
        meta, _ = tool_json(["gen-wide", "--out-dir=" + d, "--seed=%d" % seed,
                             "--synopses=%d" % size["wide_synopses"],
                             "--train-synopses=%d" % size["wide_train"],
                             "--windows=%d" % size["wide_windows"]])
        return meta
    return cached(key, make)


class Ctx:
    def __init__(self, workload, seed, seconds, size):
        self.workload, self.seed, self.seconds, self.size = (
            workload, seed, seconds, size)
        self.dir = os.path.join(OUT, "%s-s%d-%d" % (workload, seed,
                                                    os.getpid()))
        # Keep the outputs of the last few runs only.
        os.makedirs(OUT, exist_ok=True)
        old = sorted((os.path.join(OUT, d) for d in os.listdir(OUT)),
                     key=os.path.getmtime)
        for d in old[:-KEEP_RUNS]:
            shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.info = {}

    def path(self, name):
        return os.path.join(self.dir, name)


def train(ctx, clean, reps):
    """setup: `saad_offline train` reps times; median wall, model path."""
    model = ctx.path("model.bin")
    walls = []
    for _ in range(reps):
        r = run_timed([SAAD, "train", "--trace=" + clean, "--model=" + model],
                      ctx.path("train.out"))
        if r.code != 0:
            fail("train failed")
        walls.append(r.wall)
    return statistics.median(walls), model


def detect_cmd(inputs, model, window_sec, threads):
    cmd = [SAAD, "detect", "--trace=" + os.path.join(inputs, "faulty.trc"),
           "--model=" + model, "--window-sec=%d" % window_sec,
           "--threads=%d" % threads]
    reg = os.path.join(inputs, "reg.bin")
    if os.path.exists(reg):
        cmd.append("--registry=" + reg)
    return cmd


class Gate:
    """Correctness gate: every verdict list must equal the first one, and
    every run must ingest exactly the input's synopses."""

    def __init__(self, expected_synopses):
        self.expected = expected_synopses
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.mismatches = []

    def check(self, label, ingested, lines, lost=0):
        """One run's verdict lines and ingested count; `lost` synopses
        (shed, not drained) count as failed even when the verdicts match."""
        if self.reference is None:
            self.reference = lines
        self.require(label, lines == self.reference and
                     ingested == self.expected, lost)

    def require(self, label, ok, lost=0):
        self.attempted += self.expected
        self.checks += 1
        if not ok:
            self.mismatches.append(label)
        self.failed += self.expected if not ok else lost


# ---- detect-cassandra / detect-wide ----------------------------------------

def detect_inputs(ctx):
    if ctx.workload == "detect-cassandra":
        d, meta = cassandra_inputs(ctx.seed, ctx.size)
        return d, meta, WINDOW_SEC_CASSANDRA
    d, meta = wide_inputs(ctx.seed, ctx.size)
    return d, meta, WINDOW_SEC_WIDE


def run_detect(ctx, traced):
    inputs, meta, window = detect_inputs(ctx)
    n = meta["synopses"]
    ctx.info["generation_s"] = meta["generation_s"]
    setup_s, model = train(ctx, os.path.join(inputs, "clean.trc"),
                           ctx.size["train_reps"])
    gate = Gate(n)
    if traced:
        r = run_timed(detect_cmd(inputs, model, window, 1), ctx.path("d.out"))
        ingested, lines = read_verdicts(r.out)
        gate.check("detect serial", ingested, lines)
        layers = run_layers(ctx, inputs, model, window, "detect")
        gate.require("in-process replay", layers["verdicts_match"] == 1 and
                     layers["synopses"] == n)
        return layers, gate
    serial, pool = [], []
    t0 = time.monotonic()
    deadline = t0 + ctx.seconds
    i = 0
    while time.monotonic() < deadline or len(serial) < 3 or len(pool) < 3:
        threads = 1 if i % 2 == 0 else NPROC
        r = run_timed(detect_cmd(inputs, model, window, threads),
                      ctx.path("d%d.out" % i))
        ingested, lines = read_verdicts(r.out)
        gate.check("detect --threads=%d run %d" % (threads, i), ingested, lines)
        (serial if threads == 1 else pool).append(r)
        i += 1
    elapsed = time.monotonic() - t0
    walls = [r.wall for r in serial]
    p99, q = high_percentile(walls)
    ctx.info.update({"detect_runs": len(serial) + len(pool),
                     "verdict_lag_samples": len(walls),
                     "verdict_lag_p99_quantile": q,
                     "verdict_digest": digest(gate.reference or [])})
    metrics = {
        "synopses_per_s": n / statistics.median(walls),
        "pool_synopses_per_s": n / statistics.median(r.wall for r in pool),
        "cpu_us_per_synopsis":
            statistics.median(r.cpu for r in serial) * 1e6 / n,
        "peak_rss_mb": statistics.median(r.rss_kb for r in serial) / 1024.0,
        "setup_s": setup_s,
        "sustained_synopses_per_s": n * (len(serial) + len(pool)) / elapsed,
        "verdict_lag_p50_ms": statistics.median(walls) * 1e3,
        "verdict_lag_p99_ms": p99 * 1e3,
        "tracked_tasks_per_s": N_A,
        "normalized_throughput": N_A,
    }
    return metrics, gate


def run_layers(ctx, inputs, model, window, mode, expect=None):
    args = ["layers", "--mode=" + mode, "--workload=" + ctx.workload,
            "--seconds=%g" % ctx.seconds,
            "--trace=" + os.path.join(inputs, "faulty.trc"),
            "--clean=" + os.path.join(inputs, "clean.trc"),
            "--model=" + model, "--window-sec=%d" % window,
            "--expect=" + (expect or ctx.path("d.out")),
            "--checkpoint-dir=" + ctx.path("ckpt-layers"),
            "--spans-out=" + ctx.path("spans.json")]
    reg = os.path.join(inputs, "reg.bin")
    if os.path.exists(reg):
        args.append("--registry=" + reg)
    layers, table = tool_json(args)
    for line in table:
        log(line)
    log("spans written to " + ctx.path("spans.json"))
    return layers


# ---- serve-wide --------------------------------------------------------------

def serve_once(ctx, inputs, model, rate, n, tag):
    """One `serve --once` session fed by the open-loop sender at `rate`."""
    ck = ctx.path("ck-" + tag)
    port = ctx.path("port-" + tag)
    prom = ctx.path("serve-%s.prom" % tag)
    wins = ctx.path("windows-" + tag)
    shutil.rmtree(ck, ignore_errors=True)
    cmd = [SAAD, "serve", "--listen=0", "--once", "--stats",
           "--checkpoint-dir=" + ck, "--checkpoint-every=1",
           "--window-sec=%d" % WINDOW_SEC_WIDE, "--model=" + model,
           "--port-file=" + port, "--metrics-out=" + prom]
    err = open(ctx.path("serve-%s.err" % tag), "wb")
    report = ctx.path("serve-%s.usage" % tag)
    t_start = time.monotonic_ns()
    proc = subprocess.Popen(spawn_cmd(cmd, report), stdout=subprocess.PIPE,
                            stderr=err)
    lines = []

    def read():
        for raw in proc.stdout:
            lines.append((time.monotonic_ns(), raw.decode(errors="replace")))
    reader = threading.Thread(target=read)
    reader.start()
    port_s = None
    sender = None
    try:
        while time.monotonic_ns() - t_start < 30e9:
            if os.path.exists(port) and os.path.getsize(port) > 0:
                port_s = (time.monotonic_ns() - t_start) / 1e9
                break
            if proc.poll() is not None:
                fail("serve exited before listening")
            time.sleep(0.0005)
        if port_s is None:
            fail("serve did not write its port file")
        sender, _ = tool_json(["send", "--trace=" +
                               os.path.join(inputs, "faulty.trc"),
                               "--rate=%d" % rate, "--port-file=" + port,
                               "--window-us=%d" % (WINDOW_SEC_WIDE * 10**6),
                               "--windows-out=" + wins], timeout=150)
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        err.close()
    usage = read_report(report)
    t_exit = lines[-1][0] if lines else time.monotonic_ns()

    stdout_path = ctx.path("serve-%s.out" % tag)
    with open(stdout_path, "w") as f:
        f.writelines(text for _, text in lines)
    ingested, verdicts = read_verdicts(stdout_path)
    shown = {}
    for t, text in lines:
        m = re.match(r"^\[stats\] window\s+(\d+) ", text)
        if m:
            shown[int(m.group(1))] = t
    lags = []
    with open(wins) as f:
        for line in f:
            w, due = (int(x) for x in line.split())
            if w in shown:
                lags.append((shown[w] - due) / 1e6)
    with open(ctx.path("serve-%s.err" % tag), errors="replace") as f:
        err_text = f.read()
    m = re.search(r"; (\d+) shed", err_text)
    shed = int(m.group(1)) if m else n
    counters = {}
    if os.path.exists(prom):
        with open(prom) as f:
            for line in f:
                m = re.match(r"^(saad_net_published_total|"
                             r"saad_net_shed_synopses_total)\s+(\S+)", line)
                if m:
                    counters[m.group(1)] = float(m.group(2))
    shutil.rmtree(ck, ignore_errors=True)
    return {
        "rate": rate, "port_s": port_s, "ingested": ingested,
        "verdicts": verdicts, "lags": lags, "shed": shed,
        "sender": sender, "cpu_s": usage["cpu_s"],
        "rss_kb": usage["peak_rss_kb"],
        "drain_rate": n / max(1e-9, (t_exit - sender["t0_ns"]) / 1e9),
        "published": counters.get("saad_net_published_total", 0.0),
        "shed_counter": counters.get("saad_net_shed_synopses_total", 0.0),
    }


def sustained(s, reference, n):
    lag99 = high_percentile(s["lags"])[0] if s["lags"] else float("inf")
    return (s["shed"] == 0 and s["ingested"] == n and
            s["sender"]["late_ms_p99"] <= LATE_LIMIT_MS and
            s["verdicts"] == reference and lag99 <= LAG_LIMIT_MS)


def run_serve(ctx, traced, smoke):
    inputs, meta = wide_inputs(ctx.seed, ctx.size)
    n = meta["synopses"]
    ctx.info["generation_s"] = meta["generation_s"]
    train_s, model = train(ctx, os.path.join(inputs, "clean.trc"),
                           ctx.size["train_reps"])
    gate = Gate(n)
    # Reference verdicts: detect serial and at nproc threads.
    for threads in (1, NPROC):
        r = run_timed(detect_cmd(inputs, model, WINDOW_SEC_WIDE, threads),
                      ctx.path("d.out" if threads == 1 else "dp.out"))
        ingested, lines = read_verdicts(r.out)
        gate.check("detect --threads=%d" % threads, ingested, lines)
    reference = gate.reference
    ref_rate = SMOKE_REFERENCE_RATE if smoke else REFERENCE_RATE
    ladder = SMOKE_LADDER if smoke else LADDER

    if traced:
        s = serve_once(ctx, inputs, model, ref_rate, n, "ref")
        gate.check("serve at the reference rate", s["ingested"],
                   s["verdicts"], lost=s["shed"])
        layers = run_layers(ctx, inputs, model, WINDOW_SEC_WIDE, "serve")
        gate.require("in-process serve replay",
                     layers["verdicts_match"] == 1 and layers["synopses"] == n)
        layers.update({
            "client.flush_ns": s["sender"]["flush_ns_per_synopsis"],
            "client.frames": s["sender"]["frames"],
            "server.published": s["published"],
            "server.shed_synopses": s["shed_counter"],
            "sender.late_ms_p99": s["sender"]["late_ms_p99"],
        })
        return layers, gate

    port_times = []
    top = None
    for rate in ladder:
        s = serve_once(ctx, inputs, model, rate, n, "r%d" % rate)
        port_times.append(s["port_s"])
        ok = sustained(s, reference, n)
        log("ladder %d/s: %s (shed %d, late p99 %.2f ms, lag p99 %.1f ms)" % (
            rate, "sustained" if ok else "not sustained", s["shed"],
            s["sender"]["late_ms_p99"],
            high_percentile(s["lags"])[0] if s["lags"] else float("nan")))
        if ok:
            top = s
            break
    # Reference rate, repeated until --seconds is used up.
    refs = []
    deadline = time.monotonic() + ctx.seconds
    while not refs or time.monotonic() < deadline:
        s = serve_once(ctx, inputs, model, ref_rate, n, "ref%d" % len(refs))
        port_times.append(s["port_s"])
        gate.check("serve at the reference rate, run %d" % len(refs),
                   s["ingested"], s["verdicts"], lost=s["shed"])
        refs.append(s)
    # Per session: median and the highest percentile with >= 10 windows
    # beyond it; the run reports the median over sessions, so one stalled
    # session moves one sample, not the run's figure.
    lags = [lag for s in refs for lag in s["lags"]]
    p50 = statistics.median(pct(s["lags"], 0.5) for s in refs)
    p99 = statistics.median(high_percentile(s["lags"])[0] for s in refs)
    q = high_percentile(refs[0]["lags"])[1]
    ctx.info.update({
        "ladder_top": top["rate"] if top else None,
        "reference_rate": ref_rate,
        "reference_runs": len(refs),
        "verdict_lag_samples": len(lags),
        "verdict_lag_p99_quantile": q,
        "sender_late_ms_p99": max(s["sender"]["late_ms_p99"] for s in refs),
        "verdict_digest": digest(reference or []),
    })
    metrics = {
        # Delivered rate at the reference rate: synopses / (first due time
        # to serve's last output line).
        "synopses_per_s": statistics.median(s["drain_rate"] for s in refs),
        "pool_synopses_per_s": N_A,
        "cpu_us_per_synopsis": statistics.median(
            s["cpu_s"] for s in refs) * 1e6 / n,
        "peak_rss_mb": statistics.median(s["rss_kb"] for s in refs) / 1024.0,
        "setup_s": train_s + statistics.median(port_times),
        "sustained_synopses_per_s": (
            top["sender"]["sent"] / top["sender"]["send_s"] if top else N_A),
        "verdict_lag_p50_ms": p50,
        "verdict_lag_p99_ms": p99,
        "tracked_tasks_per_s": N_A,
        "normalized_throughput": N_A,
    }
    return metrics, gate


# ---- tracker-microtask -----------------------------------------------------

def run_tracker(ctx, traced):
    if traced:
        layers, table = tool_json(["staged-server", "--traced=1",
                                   "--seconds=%g" % ctx.seconds,
                                   "--spans-out=" + ctx.path("spans.json")])
        for line in table:
            log(line)
        gate = Gate(1)
        gate.require("no unattributed log calls",
                     layers["tracker.unattributed_logs"] == 0)
        return layers, gate
    res, _ = tool_json(["staged-server", "--seconds=%g" % ctx.seconds])
    gate = Gate(int(res["tasks_tracked"]))
    gate.require("every tracked task drained", True,
                 lost=int(res["tasks_tracked"] - res["drained"]))
    ctx.info.update({"pairs": res["pairs"], "workers": res["workers"],
                     "verdict_lag_samples": res["lag_samples"],
                     "untracked_tasks_per_s": res["untracked_tasks_per_s"]})
    metrics = {
        "synopses_per_s": res["tracked_tasks_per_s"],
        "pool_synopses_per_s": N_A,
        "cpu_us_per_synopsis": res["cpu_us_per_synopsis"],
        "peak_rss_mb": N_A,
        "setup_s": res["setup_s"],
        "sustained_synopses_per_s": res["tracked_tasks_per_s"],
        "verdict_lag_p50_ms": res["lag_p50_ms"],
        "verdict_lag_p99_ms": res["lag_p99_ms"],
        "tracked_tasks_per_s": res["tracked_tasks_per_s"],
        "normalized_throughput": res["normalized_throughput"],
    }
    return metrics, gate


# ---- Main ------------------------------------------------------------------

def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(workload, seed, seconds, traced, size, smoke=False):
    ctx = Ctx(workload, seed, seconds, size)
    if workload.startswith("detect-"):
        metrics, gate = run_detect(ctx, traced)
    elif workload == "serve-wide":
        metrics, gate = run_serve(ctx, traced, smoke)
    elif workload == "tracker-microtask":
        metrics, gate = run_tracker(ctx, traced)
    else:
        fail("unknown workload " + workload)
    return ctx, metrics, gate


def result_line(ctx, metrics, gate, traced, bench):
    metrics = dict(metrics)
    metrics["failed_share"] = gate.failed / max(1, gate.attempted)
    out = {}
    for m in bench["per_layer" if traced else "end_to_end"]:
        v = metrics.get(m["name"], 0.0)
        out[m["name"]] = {"value": float(v) if v == v else 0.0,
                          "unit": m["unit"]}
    correct = not gate.mismatches and gate.failed == 0
    return {"correct": correct, "attempted": max(1, gate.attempted),
            "failed": gate.failed, "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    bench = spec()
    build()
    fp = fingerprint()
    if args.smoke:
        return smoke(bench, fp)
    if not args.workload:
        fail("--workload required")
    ctx, metrics, gate = measure(args.workload, args.seed, args.seconds,
                                 args.trace == 1, SIZES["full"])
    result = result_line(ctx, metrics, gate, args.trace == 1, bench)
    log("fingerprint " + json.dumps(fp, sort_keys=True))
    log("info " + json.dumps(ctx.info, sort_keys=True))
    log("gate: %d checks, %s" % (gate.checks, "mismatches: " +
                                 ", ".join(gate.mismatches)
                                 if gate.mismatches else "all verdicts equal"))
    with open(ctx.path("result.json"), "w") as f:
        json.dump({"fingerprint": fp, "info": ctx.info, "result": result}, f)
    print(json.dumps(result), flush=True)
    return 0


def smoke(bench, fp):
    log("fingerprint " + json.dumps(fp, sort_keys=True))
    problems = []
    for workload in WORKLOADS:
        for traced in (False, True):
            ctx, metrics, gate = measure(workload, 1, 1, traced,
                                         SIZES["smoke"], smoke=True)
            result = result_line(ctx, metrics, gate, traced, bench)
            names = bench["per_layer" if traced else "end_to_end"]
            for m in (x["name"] for x in names):
                got = result["metrics"].get(m)
                if got is None or not got["unit"]:
                    problems.append("%s: %s missing or without unit" % (
                        workload, m))
            if gate.checks == 0:
                problems.append("%s: correctness gate did not run" % workload)
            if not result["correct"]:
                problems.append("%s: gate failed: %s" % (
                    workload, ", ".join(gate.mismatches)))
            log("smoke %-18s trace=%d: %d metrics, %d gate checks, correct=%s"
                % (workload, traced, len(result["metrics"]), gate.checks,
                   result["correct"]))
    for p in problems:
        log("smoke problem: " + p)
    log("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
