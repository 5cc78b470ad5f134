#!/usr/bin/env python3
"""Benchmark of the dbp workspace through its shipped entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn|hetero|live|paper \
        --seed N --seconds S --trace 0|1 [--tiny]

It builds `dbp`, `run_all` and the helper in `perfbench/` (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the workload's inputs
from the seed, drives the shipped binaries as a user does, checks their
outputs, and prints one JSON result as the last stdout line. `--trace 1`
adds the per-layer traced run (see perfbench/README.md). `--tiny` shrinks
every input for the benchmark's own test.
"""

import argparse
import glob
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CONFIG = json.load(open(os.path.join(HERE, "config.json")))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Proc:
    """One finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, rc, out, err, wall_s, maxrss_kb):
        self.rc, self.out, self.err = rc, out, err
        self.wall_s, self.maxrss_kb = wall_s, maxrss_kb

    def last_json(self):
        lines = [l for l in self.out.splitlines() if l.startswith("{")]
        if self.rc != 0 or not lines:
            raise RuntimeError(f"command failed (exit {self.rc}): {self.err.strip()[-400:]}")
        return json.loads(lines[-1])


def pinned(index):
    """preexec_fn pinning a child to the `index`-th CPU this process may
    use (None on a one-CPU host)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return lambda: os.sched_setaffinity(0, {cpus[index]})


def run(cmd, cwd=None, timeout=TIMEOUT_S, cpu=None):
    """Run `cmd` to completion; wall time and peak RSS come from wait4."""
    with open(os.devnull, "rb") as devnull:
        out_f = _tmpfile("out")
        err_f = _tmpfile("err")
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdin=devnull, stdout=out_f, stderr=err_f,
                             preexec_fn=None if cpu is None else pinned(cpu))
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    out_f.seek(0)
    err_f.seek(0)
    proc = Proc(p.returncode, out_f.read(), err_f.read(), wall, usage.ru_maxrss)
    out_f.close()
    err_f.close()
    return proc


_tmp_ids = itertools.count()


def _tmpfile(tag):
    return open(os.path.join(WORK, f".{tag}{next(_tmp_ids)}"), "w+")


class Ctx:
    """Per-run state: binaries, seed, sizes, and the correctness ledger."""

    def __init__(self, args, bins):
        self.args, self.bins = args, bins
        self.seed, self.seconds, self.tiny = args.seed, args.seconds, args.tiny
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok, msg):
        if not ok:
            self.failures.append(msg)
            log(f"check failed: {msg}")
        return ok

    def path(self, name):
        return os.path.join(WORK, name)

    def probe(self, argv):
        return run([self.bins["probe"]] + argv)

    def json_of(self, cmd, cpu=None):
        return run(cmd, cpu=cpu).last_json()

    def probe_json(self, argv, cpu=None):
        return self.json_of([self.bins["probe"]] + argv, cpu)


# ---------------------------------------------------------------- checks
# Pure functions over program outputs, so the benchmark's own test can
# feed them tampered outputs.


def parse_report(text):
    """`key : value` lines of a `dbp cluster` report, plus per-shard sessions."""
    fields, shard_sessions = {}, []
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key.startswith("shard "):
            shard_sessions.append(int(value.split()[0]))
        else:
            fields.setdefault(key, value)
    return fields, shard_sessions


def batch_checks(text, rc, expect, hetero):
    """Failures of one `dbp cluster` run against the oracle's expectation."""
    if rc != 0:
        return [f"dbp cluster exited {rc}"]
    fields, shard_sessions = parse_report(text)
    fails = []
    try:
        bill = int(fields["busy ticks"])
        sessions = int(fields["sessions"])
    except (KeyError, ValueError):
        return ["report lacks busy ticks / sessions"]
    if bill != expect["bill_ticks"]:
        fails.append(f"bill {bill} != oracle recomputation {expect['bill_ticks']}")
    if sessions != expect["items"]:
        fails.append(f"{sessions} sessions served of {expect['items']}")
    if sum(shard_sessions) != expect["items"] or len(shard_sessions) != CONFIG["shards"]:
        fails.append(f"shard sessions {shard_sessions} do not sum to {expect['items']}")
    if hetero and fields.get("ledger") != "conserved":
        fails.append(f"ledger: {fields.get('ledger')}")
    return fails


def live_checks(summary, passes, expect, recovered):
    """Failures of the daemon's drain summary and journal audit."""
    fails = []
    if summary["served"] + summary["dropped"] + summary["lost"] != summary["total"]:
        fails.append("drain ledger does not conserve: served+dropped+lost != total")
    want = passes * expect["items"]
    if summary["total"] != want or summary["departed"] != want:
        fails.append(f"daemon saw {summary['total']} arrivals / {summary['departed']} "
                     f"departures, sent {want} of each")
    if recovered["torn_shards"] != 0:
        fails.append(f"{recovered['torn_shards']} journals torn after a clean drain")
    if recovered["closed_cost_ticks"] != passes * expect["bill_ticks"]:
        fails.append(f"journaled bill {recovered['closed_cost_ticks']} != "
                     f"{passes} x oracle bill {expect['bill_ticks']}")
    return fails


def pass_checks(r):
    """Every request of a pass got exactly one reply, in order, ok."""
    fails = []
    if r["replies"] != r["sent"]:
        fails.append(f"{r['sent']} requests sent, {r['replies']} replies")
    if r["ok"] != r["sent"] or r["wrong_id"] != 0:
        fails.append(f"{r['sent'] - r['ok']} requests refused or answered out of order")
    return fails


def read_csv(path):
    with open(path) as f:
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    return rows[0], rows[1:]


def paper_checks(results_dir, digests):
    """Failures of one `run_all` sweep: manifest, `holds` columns, CSV bytes."""
    fails = []
    with open(os.path.join(results_dir, "manifest.json")) as f:
        manifest = json.load(f)
    statuses = {e["name"]: e["status"] for e in manifest["experiments"]}
    for name in digests:
        if statuses.get(name) != "Ok":
            fails.append(f"{name}: status {statuses.get(name)}")
            continue
        path = os.path.join(results_dir, f"{name}.csv")
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        if digest != digests[name]:
            fails.append(f"{name}.csv differs from the seed commit's bytes")
        header, rows = read_csv(path)
        for col, title in enumerate(header):
            if title == "holds" and any(r[col] != "true" for r in rows):
                fails.append(f"{name}: a 'holds' cell is not true")
    return fails


def mirror_checks(results_dir, traced):
    """Failures of the traced run's mirror of the sweep: every ratio column
    it rebuilt from its own solves (`traced`: experiment -> column ->
    cells) must equal that column of the CSV the untraced sweep wrote, or
    its per-layer figures describe other instances than `run_all` solves."""
    fails = []
    for name, columns in traced.items():
        header, rows = read_csv(os.path.join(results_dir, f"{name}.csv"))
        for title, cells in columns.items():
            got = [r[header.index(title)] for r in rows] if title in header else None
            if got != cells:
                fails.append(f"traced run's {name} '{title}' column {cells} != sweep's {got}")
    return fails


# ------------------------------------------------------------ workloads


def timed_setup(step, reps):
    """Run the set-up `step` `reps` times; its median wall is setup_s. Dirty
    pages are flushed, untimed, before every step (so no step pays for the
    write-back of an earlier one) and after the last (so the measured runs
    do not either)."""
    times = []
    for i in range(reps):
        os.sync()
        times.append(step(i))
    os.sync()
    return median(times)


def batch_workload(ctx, cmd, expect, hetero):
    """Repeat `cmd` for the run's seconds; check and time every run."""
    walls, rss, start = [], [], time.perf_counter()
    while not walls or time.perf_counter() - start < ctx.seconds:
        p = run(cmd)
        fails = batch_checks(p.out, p.rc, expect, hetero)
        for msg in fails:
            ctx.check(False, msg)
        _, shard_sessions = parse_report(p.out)
        served = sum(shard_sessions) if p.rc == 0 else 0
        ctx.attempted += expect["items"]
        ctx.failed += expect["items"] - min(served, expect["items"])
        walls.append(p.wall_s)
        rss.append(p.maxrss_kb / 1024)
    wall = median(walls)
    log(f"{len(walls)} runs of {' '.join(cmd[1:3])}: walls {['%.3f' % w for w in walls]}")
    return {
        "wall_s": wall,
        "cost_over_lb": expect["bill_ticks"] / expect["lb_ticks"],
        "p50_us": wall * 1e6,
        "sustained_rps": expect["items"] / wall,
        "peak_rss_mb": median(rss),
    }


def batch_layers(ctx, e2e, flags):
    """Per-layer metrics of a batch workload from the helper's traced run."""
    t = ctx.probe_json(["trace-batch"] + flags)
    wall = e2e["wall_s"]
    leaf = (t["io.parse_s"] + t["workloads.widen_s"] + t["cluster.route_s"]
            + t["cluster.partition_s"] + t["cluster.critical_s"])
    t["cli.other_s"] = wall - t["io.parse_s"] - t["workloads.widen_s"] - t["cluster.run_s"]
    t["trace.coverage"] = leaf / wall
    return t


def churn(ctx):
    trace_file = ctx.path("churn.json")
    items = CONFIG["churn"]["tiny_items" if ctx.tiny else "items"]

    def step(_):
        return ctx.probe(["gen-churn", "--seed", str(ctx.seed), "--items", str(items),
                          "--out", trace_file]).wall_s

    setup = timed_setup(step, CONFIG["setup_reps"])
    shards = str(CONFIG["shards"])
    expect = ctx.probe_json(["expect", trace_file, "--shards", shards])
    cmd = [ctx.bins["dbp"], "cluster", trace_file, "--algo", "ff", "--shards", shards,
           "--router", "hash"]
    e2e = batch_workload(ctx, cmd, expect, hetero=False)
    e2e["setup_s"] = setup
    layers = None
    if ctx.args.trace:
        layers = batch_layers(ctx, e2e, [trace_file, "--shards", shards, "--seed", str(ctx.seed)])
    return e2e, layers


def hetero(ctx):
    trace_file = ctx.path("hetero.json")
    cfg = CONFIG["hetero"]
    rate = str(cfg["tiny_rate" if ctx.tiny else "rate"])
    horizon = str(cfg["horizon"])
    gen = [ctx.bins["dbp"], "generate", "gaming", "--seed", str(ctx.seed), "--rate", rate,
           "--horizon", horizon, "--out", trace_file]

    def step(_):
        p = run(gen)
        ctx.check(p.rc == 0, f"dbp generate gaming exited {p.rc}")
        return p.wall_s

    setup = timed_setup(step, CONFIG["setup_reps"])
    shards = str(CONFIG["shards"])
    expect = ctx.probe_json(["expect", trace_file, "--shards", shards, "--hetero"])
    cmd = [ctx.bins["dbp"], "cluster", trace_file, "--hetero", "--algo", "ff",
           "--shards", shards]
    e2e = batch_workload(ctx, cmd, expect, hetero=True)
    e2e["setup_s"] = setup
    layers = None
    if ctx.args.trace:
        layers = batch_layers(ctx, e2e, [trace_file, "--shards", shards, "--hetero",
                                         "--seed", str(ctx.seed), "--rate", rate,
                                         "--horizon", horizon])
    return e2e, layers


class Daemon:
    """`dbp serve` on an ephemeral loopback port, pinned to the first CPU.

    With one connection the daemon serves one request at a time, so a
    second core buys it nothing; pinning it (and the load generator to the
    second CPU) turns every connection-thread/shard-thread hand-off into a
    same-core switch instead of a cross-core wake-up through the
    hypervisor, whose latency varies several-fold with host load.
    """

    def __init__(self, ctx, wal):
        cfg = CONFIG["live"]
        for old in glob.glob(wal + ".shard*"):
            os.remove(old)
        self.out = _tmpfile("serve")
        self.proc = subprocess.Popen(
            [ctx.bins["dbp"], "serve", "--shards", str(CONFIG["shards"]), "--algo", "ff",
             "--capacity", "1000", "--addr", "127.0.0.1:0", "--journal", wal,
             "--fsync", str(cfg["fsync_every"])],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.out, text=True,
            preexec_fn=pinned(0))
        DAEMONS.append(self.proc)
        self.addr = None
        deadline = time.time() + 30
        for line in self.proc.stdout:
            if line.startswith("listening"):
                self.addr = line.split(":", 1)[1].split()[0]
                break
            if time.time() > deadline:
                break
        if self.addr is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("dbp serve did not start")

    def stop(self):
        """SIGTERM (graceful drain); the last stdout line is the summary."""
        self.proc.send_signal(signal.SIGTERM)
        rest, _ = self.proc.communicate(timeout=60)
        lines = [l for l in rest.splitlines() if l.startswith("{")]
        return self.proc.returncode, (json.loads(lines[-1]) if lines else None)


def percentile(sorted_xs, q):
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(sorted_xs), max(1, math.ceil(q * len(sorted_xs))))
    return sorted_xs[rank - 1]


def keep_awake():
    """One idle-priority busy loop pinned to each of the two CPUs the live
    workload uses. A virtual CPU with nothing to run halts, and waking it
    goes through the hypervisor, whose latency follows the host's load and
    dominates a reply that hops between threads and processes. A
    SCHED_IDLE loop keeps both CPUs running and yields at once to any
    thread of the daemon or the generator, so the hand-offs are the
    guest's own context switches."""
    procs = []
    for cpu in (0, 1):
        pin = pinned(cpu)

        def pre(pin=pin):
            if pin:
                pin()
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))

        proc = subprocess.Popen([sys.executable, "-c", "while True: pass"],
                                stdin=subprocess.DEVNULL, preexec_fn=pre)
        DAEMONS.append(proc)
        procs.append(proc)
    return procs


def live(ctx):
    cfg = CONFIG["live"]
    trace_file, wal = ctx.path("live.json"), ctx.path("serve.wal")
    horizon = str(cfg["tiny_horizon" if ctx.tiny else "horizon"])
    gen = [ctx.bins["dbp"], "generate", "gaming", "--seed", str(ctx.seed),
           "--rate", str(cfg["rate"]), "--horizon", horizon, "--out", trace_file]
    daemons = []

    def step(i):
        if daemons:
            daemons.pop().stop()
        t0 = time.perf_counter()
        p = run(gen)
        ctx.check(p.rc == 0, f"dbp generate gaming exited {p.rc}")
        daemons.append(Daemon(ctx, wal))
        return time.perf_counter() - t0

    setup = timed_setup(step, cfg["setup_reps"])
    daemon = daemons.pop()
    expect = ctx.probe_json(["expect", trace_file, "--shards", str(CONFIG["shards"])])
    passes = [0]

    def replay(rate, lat_out=None, repeat=1):
        cmd = ["live-pass", "--addr", daemon.addr, "--trace", trace_file, "--rate", str(rate),
               "--pass", str(passes[0]), "--repeat", str(repeat)]
        if lat_out:
            cmd += ["--lat-out", lat_out]
        passes[0] += repeat
        r = ctx.probe_json(cmd, cpu=1)
        for msg in pass_checks(r):
            ctx.check(False, msg)
        ctx.attempted += r["sent"]
        ctx.failed += r["sent"] - r["ok"]
        return r

    spinners = keep_awake()
    try:
        replay("max")  # warm-up: first-touch allocations, connection set-up
        start, base_lat, lags, bursts, rates = time.perf_counter(), [], [], [], []
        while len(bursts) < 3 or time.perf_counter() - start < ctx.seconds:
            lat_file = ctx.path("lat.txt")
            r = replay(cfg["base_rps"], lat_file)
            with open(lat_file) as f:
                base_lat.extend(int(x) for x in f.read().split())
            lags.append(r["lag_max_ms"])
            ctx.check(r["send_stretch"] <= 1.05,
                      f"load generator fell behind the base rate (x{r['send_stretch']:.3f})")
            b = replay("max", repeat=cfg["burst_repeat"])
            bursts.append(b["wall_s"])
            rates.append(b["ok"] / b["wall_s"])
    finally:
        rc, summary = daemon.stop()
        for proc in spinners:
            proc.kill()
            proc.wait()
    ctx.check(rc == 0 and summary is not None, f"dbp serve exited {rc} without a summary")
    recovered = ctx.json_of([ctx.bins["dbp"], "recover", wal, "--serve-shards",
                             str(CONFIG["shards"])])
    for msg in live_checks(summary, passes[0], expect, recovered):
        ctx.check(False, msg)
    base_lat.sort()
    log(f"live: {passes[0]} passes, {len(base_lat)} base samples, "
        f"bursts {['%.3f' % b for b in bursts]}")
    e2e = {
        "wall_s": median(bursts),
        "cost_over_lb": recovered["closed_cost_ticks"] / (passes[0] * expect["lb_ticks"]),
        "p50_us": percentile(base_lat, 0.50) / 1e3,
        "sustained_rps": median(rates),
        "peak_rss_mb": summary["peak_rss_bytes"] / 2**20,
        "setup_s": setup,
    }
    layers = None
    if ctx.args.trace:
        t = ctx.probe_json(["trace-live", trace_file, "--shards", str(CONFIG["shards"]),
                            "--fsync", str(cfg["fsync_every"]), "--dir", WORK,
                            "--seed", str(ctx.seed), "--rate", str(cfg["rate"]),
                            "--horizon", horizon])
        in_process_us = (t["protocol.parse_ns"] + t["shard.handle_ns.p50"]
                         + t["protocol.reply_ns"]) / 1e3
        t["server.hop_us.p50"] = e2e["p50_us"] - in_process_us
        t["loadgen.lag_ms"] = max(lags)
        t["server.reply_us.p99"] = percentile(base_lat, 0.99) / 1e3
        t["trace.coverage"] = in_process_us / e2e["p50_us"]
        layers = t
    return e2e, layers


def paper(ctx):
    cfg = CONFIG["paper"]
    quick = ["--quick"] if ctx.tiny else []
    digests = cfg["quick_csv_sha256" if ctx.tiny else "csv_sha256"]

    # `run_all` builds its instances in-process; the set-up is the same
    # build, timed inside the helper (median of its repetitions) because a
    # process start would be most of a few-millisecond figure.
    setup = ctx.probe_json(["gen-paper", "--reps", str(cfg["setup_reps"])] + quick)["gen_s"]
    experiments = cfg["experiments"]
    walls, rss, rows, worst, exp_walls = [], [], [], [], []
    last_ok = None
    start = time.perf_counter()
    for attempt in itertools.count():
        if attempt and time.perf_counter() - start >= ctx.seconds:
            break
        cwd = ctx.path(f"sweep{attempt}")
        os.makedirs(cwd)
        p = run([ctx.bins["run_all"], "--only", ",".join(experiments), "--jobs",
                 str(CONFIG["shards"])] + quick, cwd=cwd)
        ctx.attempted += len(experiments)
        walls.append(p.wall_s)
        results = os.path.join(cwd, "results")
        manifest_path = os.path.join(results, "manifest.json")
        if not ctx.check(p.rc == 0 and os.path.exists(manifest_path),
                         f"run_all exited {p.rc} (manifest written: "
                         f"{os.path.exists(manifest_path)})"):
            ctx.failed += len(experiments)
            rss.append(p.maxrss_kb / 1024)
            continue
        for msg in paper_checks(results, digests):
            ctx.check(False, msg)
        with open(manifest_path) as f:
            manifest = json.load(f)
        statuses = {e["name"]: e["status"] for e in manifest["experiments"]}
        ok = [name for name in experiments if statuses.get(name) == "Ok"]
        ctx.failed += len(experiments) - len(ok)
        exp_walls.append(sum(e["wall_time_ms"] for e in manifest["experiments"]) / 1e3)
        rss.append(manifest["peak_rss_bytes"] / 2**20)
        n_rows = 0
        for name in ok:
            header, body = read_csv(os.path.join(results, f"{name}.csv"))
            n_rows += len(body)
            if name == "thm5_general_ff":
                col = header.index("random worst")
                worst.append(mean(float(r[col]) for r in body))
        rows.append(n_rows)
        if len(ok) == len(experiments):
            last_ok = results
    wall = median(walls)
    log(f"{len(walls)} sweeps: walls {['%.3f' % w for w in walls]}")
    # A sweep that failed leaves no rows or ratios; its figures read 0 and
    # the run is reported incorrect.
    e2e = {
        "wall_s": wall,
        "cost_over_lb": median(worst) if worst else 0,
        "p50_us": wall * 1e6,
        "sustained_rps": median(rows) / wall if rows else 0,
        "peak_rss_mb": median(rss),
        "setup_s": setup,
    }
    layers = None
    if ctx.args.trace and ctx.check(last_ok is not None,
                                    "no sweep completed to check the traced run against"):
        rows_file = ctx.path("traced_rows.json")
        t = ctx.probe_json(["trace-paper", "--rows-out", rows_file] + quick)
        with open(rows_file) as f:
            for msg in mirror_checks(last_ok, json.load(f)):
                ctx.check(False, msg)
        cpu = median(exp_walls)
        t["trace.coverage"] = (t["workloads.gen_s"] + t["core.simulate_s"]
                               + t["opt.total_s"]) / cpu
        t["trace.overhead"] = (t["thm5_general_ff.wall_s"] + t["mff_k_ablation.wall_s"]) / cpu - 1
        layers = t
    return e2e, layers


WORKLOADS = {"churn": churn, "hetero": hetero, "live": live, "paper": paper}

# Which workloads exercise which per-layer metric prefix; a metric a
# workload does not exercise is reported as 0 and named on stderr.
EXERCISED = {
    "churn": ("io.", "workloads.gen_s", "core.", "cluster.", "cli.", "trace."),
    "hetero": ("io.", "workloads.", "core.", "cluster.", "cli.", "trace."),
    "live": ("workloads.gen_s", "core.select_calls", "core.scan_len_mean",
             "core.decide_ns_mean", "streaming.", "shard.", "journal.", "protocol.", "server.",
             "loadgen.", "trace."),
    "paper": ("workloads.gen_s", "core.simulate_s", "opt.", "trace."),
}

# The unattributed remainder of each workload's end-to-end figure.
REMAINDER = {
    "churn": "cli.other_s + cluster.tax_s",
    "hetero": "cli.other_s + cluster.tax_s",
    "live": "server.hop_us.p50",
    "paper": "run_all's own scheduling and table output",
}


# --------------------------------------------------------------- harness


def fingerprint(args):
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except OSError:
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = cmd_out(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) \
        else "none (not a git checkout)"
    h = hashlib.sha256()
    for pattern in ("Cargo.toml", "Cargo.lock", "src/**/*.rs", "crates/**/*.rs",
                    "crates/**/Cargo.toml", "shims/**/*.rs", "shims/**/Cargo.toml"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": cmd_out(["rustc", "--version"]),
        "git_rev": rev,
        "source_sha256": h.hexdigest()[:16],
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "live_fsync": f"every {CONFIG['live']['fsync_every']} records",
    }


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "dbp-cli",
                 "-p", "dbp-experiments"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 os.path.join(HERE, "Cargo.toml")]):
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if p.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target, "release")
    return {"dbp": os.path.join(rel, "dbp"), "run_all": os.path.join(rel, "run_all"),
            "probe": os.path.join(rel, "dbp-perfbench")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (the benchmark's test)")
    args = ap.parse_args()
    for need in ("Cargo.toml", "crates/cli/src/main.rs", "crates/experiments"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"not a dbp checkout (missing {need}); run from the repository root")

    bins = build()
    global WORK
    WORK = os.path.join(ROOT, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(WORK)
    ctx = Ctx(args, bins)
    try:
        e2e, layers = WORKLOADS[args.workload](ctx)
        fp = fingerprint(args)
    finally:
        for proc in DAEMONS:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass

    e2e["ok_frac"] = 1 - ctx.failed / max(ctx.attempted, 1)
    if args.trace:
        layers = layers or {}
        metrics = {}
        absent = []
        for m in SPEC["per_layer"]:
            name = m["name"]
            if name in layers and name.startswith(EXERCISED[args.workload]):
                value = layers[name]
            else:
                value = 0
                absent.append(name)
            metrics[name] = {"value": value, "unit": m["unit"]}
        log(f"absent on {args.workload} (layer not exercised, reported as 0): "
            f"{', '.join(absent)}")
        cov = metrics["trace.coverage"]["value"]
        # Layer times that add up to more than the untraced end-to-end
        # figure double-count or inflate; flag such a breakdown so it is
        # not read at face value.
        flag = "  FLAGGED: layer times exceed the untraced end-to-end" if cov > 1.1 else ""
        print(f"coverage {args.workload}: attributed layer time / untraced end-to-end = "
              f"{cov:.3f} ({REMAINDER[args.workload]} holds the rest); tracing overhead "
              f"{metrics['trace.overhead']['value']:+.3f}{flag}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(json.dumps({"fingerprint": fp}))
    print(json.dumps({
        "correct": not ctx.failures,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))


WORK = None
# Every daemon started, so an error path still stops them all.
DAEMONS = []

if __name__ == "__main__":
    main()
