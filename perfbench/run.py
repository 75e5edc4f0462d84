#!/usr/bin/env python3
"""The repo benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload paper|overload|cluster|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the rtq library, rtq_serve and the
in-process driver from source into .bench_build/, runs one workload for
about S host seconds, checks its outputs, and prints as the last stdout
line one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A host fingerprint line ("# host {...}") precedes the result.
"""

import argparse
import hashlib
import json
import math
import os
import re
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("paper", "overload", "cluster", "serve")

# The serve session: the Table 8 two-class system under a Small-class
# flash crowd from t=600 s that lasts past the event cap, steered by
# pmm-predict and stepped at max speed. Most of the session runs at the
# crowd's peak (150-200 live queries), so the `stats` tail samples one
# regime. Medium arrives at 0.02 q/s, so its few long responses (0.5% of
# queries) stay clear of the 99th percentile; at about 1% they make it
# flip between the Small tail and the Medium bulk from seed to seed.
SERVE_WORKLOAD = "scenario:flash:mult=30,at=600,dur=3000,medium=0.02"
SERVE_POLICY = "pmm-predict"
SERVE_EVENTS = 2_500_000
SERVE_METRICS_EVERY = 100_000
# The first passes of a run also restore their snapshot (setup_s, the
# median of these); the rest run sessions only, so that more of the run
# times sessions.
SERVE_RESTORES = 3
FLASH_AT = 600.0
# Share of host time spent on the host-speed probe, after each pass
# (perfbench_sim.cc, HostProbe).
PROBE_SHARE = 0.02
# Open-loop `stats` schedule and the ack timeout every command must meet.
CTL_PERIOD_S = 0.005
ACK_TIMEOUT_S = 20.0

SERVE_LAYER_UNITS = {"serve.cmds": "count", "serve.snapshot_bytes": "bytes",
                     "serve.restore_events": "events"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build and host fingerprint.
# ---------------------------------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no rtq sources (CMakeLists.txt, src/); "
             "run from the root of a checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    sim = BUILD / "perfbench_sim"
    serve = BUILD / "rtq" / "rtq_serve"
    if not sim.is_file() or not serve.is_file():
        fail("build produced no perfbench_sim / rtq_serve")
    return sim, serve


def source_revision():
    """The git revision when the checkout is a git tree, else a hash of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(BENCH_DIR.rglob("*"))
    for f in files:
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(args, load_before):
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "loadavg_before": load_before, "revision": source_revision(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# The in-process driver (paper, overload, cluster; serve's replica).
# ---------------------------------------------------------------------------


def probe_speeds(sim, seconds):
    """Samples perfbench_sim's host-speed probe for `seconds`; returns the
    speed of each sample (nominal over measured time)."""
    out = subprocess.run([str(sim), "--workload", "probe", "--seconds",
                          f"{seconds:.3f}"], stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail(f"perfbench_sim --workload probe exited with {out.returncode}", 3)
    return json.loads(out.stdout.strip().splitlines()[-1])["speeds"]


def run_sim(sim, workload, seed, seconds, trace):
    cmd = [str(sim), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--trace", "1" if trace else "0"]
    if workload == "serve":
        cmd += ["--serve-workload", SERVE_WORKLOAD, "--serve-policy",
                SERVE_POLICY, "--serve-events", str(SERVE_EVENTS),
                "--flash-at", str(FLASH_AT)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail(f"perfbench_sim exited with {out.returncode}", 3)
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("perfbench_sim printed no result", 3)
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# The serve workload: one rtq_serve child, commands on its stdin.
# ---------------------------------------------------------------------------


class Child:
    """An rtq_serve process whose stdout and stderr are read line by line
    without blocking, so commands keep their open-loop schedule."""

    def __init__(self, argv, cwd):
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.sel = selectors.DefaultSelector()
        self.buf = {}
        for name, f in (("out", self.proc.stdout), ("err", self.proc.stderr)):
            os.set_blocking(f.fileno(), False)
            self.sel.register(f, selectors.EVENT_READ, name)
            self.buf[name] = b""
        self.open = 2

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def close_stdin(self):
        if not self.proc.stdin.closed:
            self.proc.stdin.close()

    def lines(self, timeout):
        """Waits up to `timeout` seconds; returns (stream, line, time) for
        every complete line that arrived."""
        got = []
        if self.open == 0:
            return got
        for key, _ in self.sel.select(max(timeout, 0.0)):
            data = os.read(key.fileobj.fileno(), 1 << 16)
            now = time.perf_counter()
            if not data:
                self.sel.unregister(key.fileobj)
                self.open -= 1
                continue
            name = key.data
            self.buf[name] += data
            *complete, self.buf[name] = self.buf[name].split(b"\n")
            got += [(name, c.decode(errors="replace"), now) for c in complete]
        return got

    def finish(self):
        """Closes stdin, drains output until EOF and reaps the child;
        returns (exit code, peak RSS in MiB, trailing lines)."""
        self.close_stdin()
        tail = []
        deadline = time.perf_counter() + ACK_TIMEOUT_S
        while self.open and time.perf_counter() < deadline:
            tail += self.lines(0.1)
        if self.open:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for f in (self.proc.stdout, self.proc.stderr):
            f.close()
        self.sel.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0, tail


STATS_RE = re.compile(r"^stats: t=(\S+) events=(\d+) live=(\d+) ")


class ServePass:
    def __init__(self):
        self.ok = True
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.cmds = 0
        self.ctl_ms = []
        self.run_s = None
        self.setup_s = None
        self.rss_mb = None
        self.stats_line = None
        self.snapshot_bytes = 0
        self.restore_events = 0
        self.live_before_flash = 0
        self.live_max = 0

    def error(self, msg):
        self.failed += 1
        self.errors.append(msg)


def serve_pass(serve, seed, workdir, index, restore):
    """Runs the session to the event cap under open-loop `stats` traffic,
    snapshots it, and, if `restore`, restores the snapshot in a fresh
    process."""
    p = ServePass()
    snap = workdir / f"pass{index}.rtqs"
    argv = [str(serve), f"--workload={SERVE_WORKLOAD}",
            f"--policy={SERVE_POLICY}", f"--seed={seed}",
            f"--max-events={SERVE_EVENTS}",
            f"--metrics-every={SERVE_METRICS_EVERY}"]
    child = Child(argv, workdir)
    start = time.perf_counter()
    due = []             # due times of unanswered `stats` commands
    next_due = start
    at_cap = False
    snapshot_acked = False
    p.attempted += 1     # the session itself
    while True:
        now = time.perf_counter()
        if not at_cap:
            while next_due <= now:
                child.send("stats")
                due.append(next_due)
                p.cmds += 1
                next_due += CTL_PERIOD_S
        if due and now - due[0] > ACK_TIMEOUT_S:
            p.error("stats command not acked within the timeout")
            break
        if at_cap and not due and p.stats_line is None:
            # Quiescent at the cap: take the pre-snapshot stats line,
            # then the snapshot.
            child.send("stats")
            due.append(time.perf_counter())
            child.send(f"snapshot {snap.name}")
            p.cmds += 2
            snap_sent = time.perf_counter()
            p.stats_line = ""
        if p.stats_line is not None and not snapshot_acked and \
                time.perf_counter() - snap_sent > ACK_TIMEOUT_S:
            p.error("snapshot command not acked within the timeout")
            break
        if snapshot_acked:
            break
        wait = next_due - time.perf_counter() if not at_cap else 0.05
        for stream, line, t in child.lines(wait):
            if stream == "out":
                try:
                    m = json.loads(line)
                except ValueError:
                    p.error("malformed metrics line")
                    continue
                if m.get("events") == SERVE_EVENTS and not at_cap:
                    at_cap = True
                    p.run_s = m["wall_seconds"]
            elif line.startswith("stats: "):
                if not due:
                    p.error("unsolicited stats reply")
                    continue
                sent = due.pop(0)
                match = STATS_RE.match(line)
                if not match:
                    p.error("malformed stats reply: " + line)
                    continue
                sim_t, events, live = float(match[1]), int(match[2]), int(match[3])
                p.live_max = max(p.live_max, live)
                if sim_t < FLASH_AT:
                    p.live_before_flash = max(p.live_before_flash, live)
                if p.stats_line == "" and events == SERVE_EVENTS:
                    p.stats_line = line
                else:
                    p.ctl_ms.append((t - sent) * 1e3)
            elif line.startswith("snapshot: wrote"):
                snapshot_acked = True
            elif line.startswith("rtq_serve:"):
                p.error(line)
    code, p.rss_mb, tail = child.finish()
    p.attempted += p.cmds
    if code != 0:
        p.error(f"rtq_serve exited with {code}: {tail[-1:] }")
    if not snapshot_acked or not p.stats_line or p.run_s is None:
        p.error("session did not reach the snapshot")
        return p
    p.snapshot_bytes = snap.stat().st_size
    if not restore:
        snap.unlink(missing_ok=True)
        return p

    # Restore: replay from genesis, verified against the snapshot digest
    # by rtq_serve itself; then the stats line must match.
    p.attempted += 1
    t0 = time.perf_counter()
    child = Child([str(serve), f"--restore={snap.name}",
                   f"--max-events={SERVE_EVENTS}", "--metrics-every=0"],
                  workdir)
    restored = None
    reply = None
    while time.perf_counter() - t0 < ACK_TIMEOUT_S and reply is None:
        for stream, line, t in child.lines(0.05):
            m = re.match(r"^rtq_serve: restored \S+ at event (\d+)$", line)
            if m and restored is None:
                restored = int(m[1])
                p.setup_s = t - t0
                child.send("stats")
            elif line.startswith("stats: "):
                reply = line
        if child.open == 0:
            break
    code, _, tail = child.finish()
    snap.unlink(missing_ok=True)
    if restored is None or code != 0:
        p.error(f"restore failed (exit {code}): {tail[-1:]}")
    elif reply != p.stats_line:
        p.error(f"restored stats differ: {reply!r} != {p.stats_line!r}")
    else:
        p.restore_events = restored
    return p


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def percentile(sorted_values, q):
    """Nearest-rank percentile, as perfbench_sim computes it."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_serve(sim, serve, args):
    workdir = BUILD / f"serve-run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return serve_workload(sim, serve, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def serve_workload(sim, serve, args, workdir):
    start = time.perf_counter()
    # The in-process replica of the session gives the per-query response
    # times the child does not stream, and with --trace 1 the per-layer
    # numbers. Its final stats line must equal the child's.
    if args.trace:
        replica = run_sim(sim, "serve", args.seed, args.seconds * 0.6, True)
    else:
        replica = run_sim(sim, "serve", args.seed, 0, False)
    attempted, failed = replica["attempted"], replica["failed"]
    errors = list(replica["failures"])

    passes = []
    speeds = []
    while True:
        elapsed = time.perf_counter() - start
        last = passes[-1].wall if passes else 0.0
        if passes and elapsed + last > args.seconds:
            break
        t0 = time.perf_counter()
        p = serve_pass(serve, args.seed, workdir, len(passes),
                       len(passes) < SERVE_RESTORES)
        p.wall = time.perf_counter() - t0
        passes.append(p)
        speeds += probe_speeds(sim, PROBE_SHARE * p.wall)
        attempted += p.attempted
        failed += p.failed
        errors += p.errors
        if p.failed or args.trace:
            break
    good = [p for p in passes if not p.failed]
    for p in good:
        if p.stats_line != replica["info"]["final_stats"]:
            failed += 1
            errors.append(f"rtq_serve stats {p.stats_line!r} differ from the "
                          f"library's {replica['info']['final_stats']!r}")

    first = good[0] if good else None
    if first and first.live_max < 5 * max(first.live_before_flash, 1):
        fail(f"serve: the flash crowd moved the live set only from "
             f"{first.live_before_flash} to {first.live_max}", 3)

    metrics = replica["metrics"]
    if args.trace:
        values = {"serve.cmds": first.cmds, "serve.snapshot_bytes":
                  first.snapshot_bytes, "serve.restore_events":
                  first.restore_events} if first else {}
        for name, unit in SERVE_LAYER_UNITS.items():
            metrics[name] = {"value": values.get(name, 0), "unit": unit}
        # The replica answers no commands; the tail comes from the child.
        metrics["ctl.p99_ms"] = {
            "value": percentile(sorted(first.ctl_ms), 0.99) if first else 0,
            "unit": "ms"}
    elif good:
        # As in perfbench_sim: the mean session time over passes, the
        # median restore, the `stats` latencies of every pass pooled, all
        # scaled by the median probe speed (README.md, "Noise").
        speed = median(speeds)
        ctl = sorted(ms for p in good for ms in p.ctl_ms)
        run_s = speed * sum(p.run_s for p in good) / len(good)
        metrics["events_per_s"] = {"value": SERVE_EVENTS / run_s,
                                   "unit": "events/s"}
        metrics["run_s"] = {"value": run_s, "unit": "s"}
        metrics["setup_s"] = {
            "value": speed * median([p.setup_s for p in good
                                     if p.setup_s is not None]),
            "unit": "s"}
        metrics["peak_rss_mb"] = {"value": median([p.rss_mb for p in good]),
                                  "unit": "MiB"}
        metrics["ctl_p50_ms"] = {"value": speed * percentile(ctl, 0.50),
                                 "unit": "ms"}
        log(f"serve: {len(good)} passes, {len(ctl)} stats commands, "
            f"host speed {speed:.3f}")
    return attempted, failed, errors, metrics


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    sim, serve = build()
    load_before = list(os.getloadavg())
    print("# host " + json.dumps(fingerprint(args, load_before)), flush=True)

    if args.workload == "serve":
        attempted, failed, errors, metrics = run_serve(sim, serve, args)
    else:
        out = run_sim(sim, args.workload, args.seed, args.seconds, args.trace)
        attempted, failed = out["attempted"], out["failed"]
        errors, metrics = out["failures"], out["metrics"]
        log(f"{out['info']['passes']} passes, host speed "
            f"{out['info']['host_speed']:.3f}")
        if args.trace:
            for name, unit in SERVE_LAYER_UNITS.items():
                metrics[name] = {"value": 0, "unit": unit}

    for e in errors[:10]:
        log("FAILED: " + e)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
