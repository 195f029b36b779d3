#!/usr/bin/env python3
"""End-to-end benchmark of the commcsl CLI, LSP and daemon paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-gen --seed 1 --seconds 15 --trace 0

It builds the release `commcsl` binary and the `commcsl-perfbench` helper
(both into $CARGO_TARGET_DIR, default `target`), generates the workload's
inputs from the seed, checks verdicts, and measures for `--seconds`.
Every line it prints before the last is one JSON object stamped with the
run's provenance; the last line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured from
outside the processes. With `--trace 1` they are the per-layer ones from
the in-process traced pass (see perfbench/README.md). The command exits
non-zero when any operation failed or gave a verdict other than the
generator's.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("cold-gen", "edit-lsp", "daemon-mix")
# Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = {"cold-gen": 51, "edit-lsp": 5, "daemon-mix": 9}
# The tail percentile each workload prints (the highest with at least ten
# samples beyond it in a run on a 2-core host).
TAIL = {"cold-gen": 90, "edit-lsp": 90, "daemon-mix": 95}
# Peak RSS, and the long-lived servers' CPU time per operation, are read
# over a fixed number of operations (or all, if fewer), so they do not
# depend on how many fit in the run: the servers grow with the cache they
# fill, and `cold-gen` takes the median RSS over a fixed prefix of its
# programs.
FIXED_OPS = {"cold-gen": 64, "edit-lsp": 120, "daemon-mix": 1500}
# Requests the traced run replays against a real daemon, per client: a
# prefix of the `cold-gen` programs, of the `edit-lsp` script steps, and of
# each `daemon-mix` client's requests.
REPLAY = {"cold-gen": 8, "edit-lsp": 80, "daemon-mix": 1000}
# Programs of each workload checked byte-for-byte across the three routes.
CROSS_ROUTE_SAMPLE = 2
TIMEOUT = 120
WORK = ".perfbench-work"


class Failure(Exception):
    """The run cannot produce a result."""


def fail(msg):
    raise Failure(msg)


# ---------------------------------------------------------------- build


def cargo_build(args, target, binary):
    """Builds `binary` with `cargo build --release ARGS` into `target`;
    returns the executable's path and the profile cargo built it with,
    both as cargo reports them."""
    cmd = ["cargo", "build", "--release", "--offline", "--target-dir", target,
           "--message-format", "json-render-diagnostics", *args]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=840)
    if done.returncode != 0:
        fail("build failed: " + " ".join(cmd))
    for line in done.stdout.splitlines():
        msg = json.loads(line)
        target_info = msg.get("target", {})
        if (msg.get("reason") == "compiler-artifact" and target_info.get("name") == binary
                and "bin" in target_info.get("kind", []) and msg.get("executable")):
            return msg["executable"], msg["profile"]
    fail(f"cargo reported no executable for {binary}")


def build():
    """Builds both binaries into one target directory; returns their paths
    and the timed binary's profile. Refuses an unoptimized `commcsl`."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "core"))):
        fail("run from the root of a commcsl checkout (no Cargo.toml / crates/core here)")
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    commcsl, profile = cargo_build(["-p", "commcsl-front", "--bin", "commcsl"], target,
                                   "commcsl")
    if str(profile.get("opt_level")) == "0" or profile.get("debug_assertions"):
        fail(f"refusing to time an unoptimized build of commcsl: {profile}")
    helper, _ = cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
                            target, "commcsl-perfbench")
    return commcsl, helper, f"release (opt-level {profile.get('opt_level')})"


def commit():
    """The git commit, or a hash of the sources when not in a git tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if "target" not in d.split(os.sep))
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


# ---------------------------------------------------------------- helpers


def quantile(xs, p):
    """Nearest-rank p-th percentile, and how many samples lie beyond it."""
    xs = sorted(xs)
    k = max(1, math.ceil(p / 100 * len(xs)))
    return xs[k - 1], len(xs) - k


DECODER = json.JSONDecoder()


def reports_in(text):
    """Every `"report":` value in `text`, in order, as (raw JSON text,
    decoded object): the raw text is compared byte for byte across
    routes, the object read for its verdict."""
    out, needle, start = [], '"report":', 0
    while (i := text.find(needle, start)) >= 0:
        begin = i + len(needle)
        value, start = DECODER.raw_decode(text, begin)
        out.append((text[begin:start], value))
    return out


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    fail("no VmHWM in /proc")


def user_cpu_s(pid):
    """User CPU time (all threads) a live process has used. System time
    is left out: the servers' system time follows the host's disk and
    memory state, which moved it by 1.5x between runs."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / os.sysconf("SC_CLK_TCK")


# Every child process started, so that all are stopped at exit.
SPAWNED = []


def spawn(args, **kwargs):
    proc = subprocess.Popen(args, **kwargs)
    SPAWNED.append(proc)
    return proc


def stop(proc):
    """Stops a child process and waits for it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=TIMEOUT)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.lock = threading.Lock()

    def check(self, ok, reason):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok


# ---------------------------------------------------------------- routes


class Daemon:
    """`commcsl serve` on a Unix socket under `dir`, with a fresh cache."""

    def __init__(self, commcsl, dir):
        os.makedirs(dir, exist_ok=True)
        self.sock_path = os.path.join(dir, "s.sock")
        self.started = time.perf_counter()
        self.proc = spawn(
            [commcsl, "serve", "--socket", self.sock_path, "--cache-dir",
             os.path.join(dir, "cache")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def connect(self):
        deadline = time.monotonic() + 30
        while True:
            try:
                s = socket.socket(socket.AF_UNIX)
                s.connect(self.sock_path)
                return Conn(s)
            except OSError:
                s.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    fail("daemon did not come up")
                time.sleep(0.0005)

    def shutdown(self, conn):
        try:
            conn.request('{"op":"shutdown"}')
            conn.close()
            self.proc.wait(timeout=TIMEOUT)
        finally:
            stop(self.proc)


class Conn:
    """One NDJSON client connection."""

    def __init__(self, sock):
        self.sock = sock
        self.file = sock.makefile("rb")

    def request(self, line):
        """Sends one request line; returns the response line (event lines
        without an "ok" key are skipped)."""
        self.sock.sendall(line.encode() + b"\n")
        while True:
            resp = self.file.readline()
            if not resp:
                fail("daemon closed the connection")
            if b'"ok":' in resp[:200]:
                return resp.decode()

    def close(self):
        self.file.close()
        self.sock.close()


class Lsp:
    """`commcsl lsp --stdio` with Content-Length framing."""

    def __init__(self, commcsl):
        self.proc = spawn([commcsl, "lsp", "--stdio"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.next_id = 0
        self.buf = bytearray()
        self.pos = 0

    def send(self, msg):
        body = json.dumps(msg, separators=(",", ":")).encode()
        self.proc.stdin.write(b"Content-Length: %d\r\n\r\n" % len(body) + body)
        self.proc.stdin.flush()

    def read(self):
        """The next message, decoded only when it may be one the caller
        waits for (progress notifications are skipped undecoded)."""
        body = self.read_raw()
        if b'"id"' in body or b"publishDiagnostics" in body:
            return json.loads(body)
        return {}

    def read_raw(self):
        """The next message body. Reads the pipe in large chunks: the
        server sends a progress message per obligation, and the client's
        own reading should not dominate the measured edit."""
        while True:
            head_end = self.buf.find(b"\r\n\r\n", self.pos)
            if head_end >= 0:
                length = None
                for line in bytes(self.buf[self.pos:head_end]).split(b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                if length is None:
                    fail("language server sent a frame without Content-Length")
                body_end = head_end + 4 + length
                if len(self.buf) >= body_end:
                    body = bytes(self.buf[head_end + 4:body_end])
                    self.pos = body_end
                    if self.pos > 1 << 20:
                        del self.buf[:self.pos]
                        self.pos = 0
                    return body
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                fail("language server closed its output")
            self.buf += chunk

    def request(self, method, params):
        self.next_id += 1
        self.send({"jsonrpc": "2.0", "id": self.next_id, "method": method, "params": params})
        while True:
            msg = self.read()
            if msg.get("id") == self.next_id:
                return msg

    def notify_until_diagnostics(self, method, params):
        """Sends a document notification; returns its published
        diagnostics (the server handles messages in order, so the next
        publish is this version's)."""
        self.send({"jsonrpc": "2.0", "method": method, "params": params})
        while True:
            msg = self.read()
            if msg.get("method") == "textDocument/publishDiagnostics":
                return msg["params"]["diagnostics"]

    def close(self):
        try:
            self.request("shutdown", None)
            self.send({"jsonrpc": "2.0", "method": "exit", "params": None})
            self.proc.stdin.close()
            return self.proc.wait(timeout=TIMEOUT)
        finally:
            stop(self.proc)


def lsp_verified(diagnostics):
    return not any(d.get("severity") == 1 for d in diagnostics)


# ---------------------------------------------------------------- checks


def preflight(commcsl, wdir, script, tally):
    """The Table 1 fixtures and the rejected variants keep their verdicts."""
    fixtures = script.get("fixtures") or []
    if not fixtures:
        return
    files = [os.path.join(wdir, f["file"]) for f in fixtures]
    done = subprocess.run([commcsl, "verify", "--threads", "1", "--json", *files],
                          capture_output=True, text=True, timeout=TIMEOUT)
    reports = reports_in(done.stdout)
    tally.check(len(reports) == len(files), "preflight: missing reports")
    for f, (_, report) in zip(fixtures, reports):
        tally.check(report["verified"] == (f["expect"] == "verified"),
                    f"preflight: {f['file']} changed verdict")


def cross_route(commcsl, helper, wdir, files, tally):
    """Report JSON is byte-identical from `commcsl verify --json`, the
    daemon (a miss, then a program-tier hit), and in-process
    `Verifier::verify`."""
    paths = [os.path.join(wdir, f) for f in files]
    # One process per file: the CLI orders its results by path.
    cli_reports = [
        "".join(raw for raw, _ in reports_in(subprocess.run(
            [commcsl, "verify", "--threads", "1", "--json", path],
            capture_output=True, text=True, timeout=TIMEOUT).stdout))
        for path in paths]
    inproc = subprocess.run([helper, "reports", *paths], capture_output=True, text=True,
                            timeout=TIMEOUT)
    inproc_reports = inproc.stdout.splitlines()
    daemon = Daemon(commcsl, os.path.join(wdir, "cross"))
    conn = daemon.connect()
    try:
        for i, (name, path) in enumerate(zip(files, paths)):
            with open(path) as fh:
                line = json.dumps({"op": "verify", "name": name, "source": fh.read()})
            for _ in range(2):
                got = [raw for raw, _ in reports_in(conn.request(line))]
                same = (len(got) == 1 and i < len(cli_reports) and i < len(inproc_reports)
                        and got[0] == cli_reports[i] == inproc_reports[i])
                tally.check(same, f"cross-route: {name} reports differ")
    finally:
        daemon.shutdown(conn)


def hit_fracs(status):
    """Program-tier and obligation-tier hit shares from a `status` reply."""
    hits = status.get("memory_hits", 0) + status.get("disk_hits", 0)
    programs = hits + status.get("misses", 0)
    ob_hits = status.get("obligation_hits", 0)
    obligations = ob_hits + status.get("obligation_misses", 0)
    return (hits / programs if programs else 0.0,
            ob_hits / obligations if obligations else 0.0)


# ---------------------------------------------------------------- workloads


def run_cold_gen(commcsl, wdir, script, seconds, tally):
    figure1 = os.path.join(wdir, script["figure1"])
    setup = []
    for _ in range(SETUP_REPEATS["cold-gen"]):
        # Spawn to exit, as the process's CPU time: its wall time is a few
        # milliseconds that the host's scheduling moves by more than half.
        proc = spawn([commcsl, "verify", "--threads", "1", "--json", figure1],
                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup.append(usage.ru_utime + usage.ru_stime)
        tally.check(proc.returncode == 0, "setup: figure 1 did not verify")
    times, cpu, rss, obligations = [], [], [], 0
    programs = script["programs"]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        entry = programs[i % len(programs)]
        i += 1
        t0 = time.perf_counter()
        proc = spawn(
            [commcsl, "verify", "--threads", "1", "--json",
             os.path.join(wdir, entry["file"])],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        reports = reports_in(out.decode())
        expect_ok = entry["expect"] == "verified"
        ok = (len(reports) == 1 and proc.returncode == (0 if expect_ok else 1)
              and reports[0][1]["verified"] == expect_ok)
        if tally.check(ok, f"cold-gen: {entry['file']} verdict or exit code"):
            times.append(elapsed * 1e3)
            # User plus system: the kernel splits a process's CPU time
            # between the two by sampled ticks, a few per program.
            cpu.append((usage.ru_utime + usage.ru_stime) * 1e3)
            rss.append(usage.ru_maxrss / 1024)
            obligations += len(reports[0][1]["obligations"])
    if not times:
        fail("cold-gen: no program verified")
    p50 = statistics.median(times)
    tail, beyond = quantile(times, TAIL["cold-gen"])
    peak_rss = statistics.median(rss[:FIXED_OPS["cold-gen"]])
    return setup, {
        "verify_p50_ms": (p50, "ms", len(times)),
        f"verify_p{TAIL['cold-gen']}_ms": (tail, "ms", len(times), beyond),
        "obligations_per_s": (obligations / (sum(times) / 1e3), "1/s", len(times)),
        "cpu_ms_per_program": (statistics.median(cpu), "ms", len(cpu)),
        "peak_rss_mb": (peak_rss, "MB", len(rss[:FIXED_OPS["cold-gen"]])),
    }, {"cpu_ms_per_op": statistics.median(cpu), "peak_rss_mb": peak_rss}


def lsp_open(commcsl, text, tally, expect):
    """A server with the document open: `initialize`, then `didOpen`
    until its diagnostics. Returns it and the time that took from spawn."""
    t0 = time.perf_counter()
    lsp = Lsp(commcsl)
    lsp.request("initialize", {"capabilities": {}})
    lsp.send({"jsonrpc": "2.0", "method": "initialized", "params": {}})
    diagnostics = lsp.notify_until_diagnostics("textDocument/didOpen", {"textDocument": {
        "uri": "file:///doc.csl", "languageId": "commcsl", "version": 1, "text": text}})
    tally.check(lsp_verified(diagnostics) == (expect == "verified"),
                "edit-lsp: initial document verdict")
    return lsp, time.perf_counter() - t0


def run_edit_lsp(commcsl, wdir, script, seconds, tally):
    with open(os.path.join(wdir, script["doc"])) as fh:
        lines = fh.read().splitlines()
    text = "\n".join(lines) + "\n"
    setup = []
    for k in range(SETUP_REPEATS["edit-lsp"]):
        lsp, elapsed = lsp_open(commcsl, text, tally, script["expect"])
        setup.append(elapsed)
        if k + 1 < SETUP_REPEATS["edit-lsp"]:
            tally.check(lsp.close() == 0, "edit-lsp: unclean exit")
    edits, hovers = [], []
    version, rss, cpu = 1, None, None
    try:
        cpu_start = user_cpu_s(lsp.proc.pid)
        t_start = time.perf_counter()
        deadline = t_start + seconds
        for step in script["steps"]:
            if time.perf_counter() >= deadline:
                break
            if step["op"] == "hover":
                t0 = time.perf_counter()
                resp = lsp.request("textDocument/hover", {
                    "textDocument": {"uri": "file:///doc.csl"},
                    "position": {"line": step["line"], "character": 0}})
                elapsed = time.perf_counter() - t0
                if tally.check(resp.get("result") is not None and "error" not in resp,
                               f"edit-lsp: hover at line {step['line']}"):
                    hovers.append(elapsed * 1e3)
                continue
            lines[step["line"]] = step["text"]
            version += 1
            body = "\n".join(lines) + "\n"
            t0 = time.perf_counter()
            diagnostics = lsp.notify_until_diagnostics("textDocument/didChange", {
                "textDocument": {"uri": "file:///doc.csl", "version": version},
                "contentChanges": [{"text": body}]})
            elapsed = time.perf_counter() - t0
            if tally.check(lsp_verified(diagnostics) == (step["expect"] == "verified"),
                           f"edit-lsp: version {version} verdict"):
                edits.append(elapsed * 1e3)
            if len(edits) == FIXED_OPS["edit-lsp"]:
                rss = peak_rss_mb(lsp.proc.pid)
                cpu = (user_cpu_s(lsp.proc.pid) - cpu_start) * 1e3 / len(edits)
        wall = time.perf_counter() - t_start
        if cpu is None:
            rss = peak_rss_mb(lsp.proc.pid)
            cpu = (user_cpu_s(lsp.proc.pid) - cpu_start) * 1e3 / max(len(edits), 1)
    finally:
        tally.check(lsp.close() == 0, "edit-lsp: unclean exit")
    if not edits or not hovers:
        fail("edit-lsp: no edit or hover answered")
    p50 = statistics.median(edits)
    tail, beyond = quantile(edits, TAIL["edit-lsp"])
    rate = (len(edits) + len(hovers)) / wall
    return setup, {
        "edit_p50_ms": (p50, "ms", len(edits)),
        f"edit_p{TAIL['edit-lsp']}_ms": (tail, "ms", len(edits), beyond),
        "hover_p50_ms": (statistics.median(hovers), "ms", len(hovers)),
        "lsp_requests_per_s": (rate, "1/s", len(edits) + len(hovers)),
        "cpu_ms_per_edit": (cpu, "ms", min(len(edits), FIXED_OPS["edit-lsp"])),
        "peak_rss_mb": (rss, "MB", 1),
    }, {"cpu_ms_per_op": cpu, "peak_rss_mb": rss}


def client_lines(wdir, ops):
    """Pre-encodes one client's requests: (line, op, expected verdict)."""
    out, docs = [], {}
    for op in ops:
        kind = op["op"]
        if kind == "hello":
            out.append(('{"op":"hello","protocol":2}', kind, None))
        elif kind == "status":
            out.append(('{"op":"status"}', kind, None))
        elif kind in ("verify", "open"):
            with open(os.path.join(wdir, op["file"])) as fh:
                source = fh.read()
            if kind == "verify":
                msg = {"op": "verify", "name": op["file"], "source": source}
                kind = "hit" if op.get("hit") else "miss"
            else:
                docs[op["doc"]] = source.splitlines()
                msg = {"op": "open", "doc": op["doc"], "source": source}
            out.append((json.dumps(msg), kind, op["expect"] == "verified"))
        elif kind == "update":
            lines = docs[op["doc"]]
            lines[op["line"]] = op["text"]
            msg = {"op": "update", "doc": op["doc"], "source": "\n".join(lines) + "\n"}
            out.append((json.dumps(msg), kind, op["expect"] == "verified"))
    return out


def drive(daemon, clients, deadline, tally, mark_after=None):
    """Runs each client's pre-encoded requests on its own connection and
    thread, closed loop, until done or `deadline`. Returns per request
    (kind, round-trip ms), and the daemon's peak RSS and CPU time after
    `mark_after` answered requests (None if fewer were)."""
    latencies, errors = [], []
    lock, mark = threading.Lock(), [None]

    def client(lines):
        try:
            c = daemon.connect()
            try:
                for line, kind, expect in lines:
                    if time.perf_counter() >= deadline:
                        break
                    t0 = time.perf_counter()
                    resp = c.request(line)
                    elapsed = time.perf_counter() - t0
                    ok = '"ok":true' in resp[:20]
                    if ok and expect is not None:
                        reports = reports_in(resp)
                        ok = len(reports) == 1 and reports[0][1]["verified"] == expect
                    ok = tally.check(ok, f"daemon: {kind} failed or changed verdict")
                    with lock:
                        if ok:
                            latencies.append((kind, elapsed * 1e3))
                        if len(latencies) == mark_after:
                            pid = daemon.proc.pid
                            mark[0] = (peak_rss_mb(pid), user_cpu_s(pid))
            finally:
                c.close()
        except Exception as e:  # reported after the join
            errors.append(repr(e))

    threads = [threading.Thread(target=client, args=(lines,)) for lines in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        fail("daemon client: " + errors[0])
    return latencies, mark[0]


def run_daemon_mix(commcsl, wdir, script, seconds, tally):
    clients = [client_lines(wdir, ops) for ops in script["clients"]]
    setup = []
    for k in range(SETUP_REPEATS["daemon-mix"]):
        daemon = Daemon(commcsl, os.path.join(wdir, f"daemon{k}"))
        conn = daemon.connect()
        status = json.loads(conn.request('{"op":"status"}'))
        setup.append(time.perf_counter() - daemon.started)
        tally.check(status.get("ok") is True, "daemon-mix: status refused")
        if k + 1 < SETUP_REPEATS["daemon-mix"]:
            daemon.shutdown(conn)
    try:
        cpu_start = user_cpu_s(daemon.proc.pid)
        t_start = time.perf_counter()
        latencies, mark = drive(daemon, clients, t_start + seconds, tally,
                                FIXED_OPS["daemon-mix"])
        wall = time.perf_counter() - t_start
        if mark is None:
            mark = (peak_rss_mb(daemon.proc.pid), user_cpu_s(daemon.proc.pid))
        rss = mark[0]
        marked = min(len(latencies), FIXED_OPS["daemon-mix"])
        cpu = (mark[1] - cpu_start) * 1e3 / max(marked, 1)
        # The hit shares the mix produced, as the daemon counts them.
        program_hits, obligation_hits = hit_fracs(json.loads(conn.request('{"op":"status"}')))
    finally:
        daemon.shutdown(conn)
    if not latencies:
        fail("daemon-mix: no request answered")
    times = [x for _, x in latencies]
    p50 = statistics.median(times)
    tail, beyond = quantile(times, TAIL["daemon-mix"])
    rate = len(times) / wall
    named = {
        "request_p50_ms": (p50, "ms", len(times)),
        f"request_p{TAIL['daemon-mix']}_ms": (tail, "ms", len(times), beyond),
        "requests_per_s": (rate, "1/s", len(times)),
        "cpu_ms_per_request": (cpu, "ms", marked),
        "peak_rss_mb": (rss, "MB", 1),
        "program_hit_frac": (program_hits, "fraction", len(times)),
        "obligation_hit_frac": (obligation_hits, "fraction", len(times)),
    }
    for kind in ("hit", "miss", "open", "update", "status"):
        of_kind = [x for k, x in latencies if k == kind]
        if of_kind:
            named[f"{kind}_p50_ms"] = (statistics.median(of_kind), "ms", len(of_kind))
    return setup, named, {"cpu_ms_per_op": cpu, "peak_rss_mb": rss}


def daemon_replay(commcsl, wdir, script, tally):
    """The `server.*` per-layer metrics: a fixed prefix of the workload's
    traffic replayed against a real `commcsl serve` (the first programs of
    `cold-gen` as `verify` requests, the document and its first edits of
    `edit-lsp` as `open`/`update`, the first requests of each `daemon-mix`
    client), then the daemon's own `status` and `histograms`."""
    workload = script["workload"]
    if workload == "cold-gen":
        ops = [{**p, "op": "verify"} for p in script["programs"][:REPLAY["cold-gen"]]]
        clients, op = [[{"op": "hello"}, *ops]], "verify"
    elif workload == "edit-lsp":
        ops = [{"op": "open", "doc": "doc", "file": script["doc"], "expect": script["expect"]}]
        ops += [{**step, "op": "update", "doc": "doc"}
                for step in script["steps"][:REPLAY["edit-lsp"]] if step["op"] == "edit"]
        clients, op = [[{"op": "hello"}, *ops]], "update"
    else:
        clients = [ops[:REPLAY["daemon-mix"]] for ops in script["clients"]]
        op = "verify"
    daemon = Daemon(commcsl, os.path.join(wdir, "replay"))
    conn = daemon.connect()
    try:
        latencies, _ = drive(daemon, [client_lines(wdir, ops) for ops in clients],
                             math.inf, tally)
        status = json.loads(conn.request('{"op":"status"}'))
        conn.request('{"op":"hello","protocol":2}')
        hists = json.loads(conn.request('{"op":"histograms"}'))
    finally:
        daemon.shutdown(conn)
    kinds = ("hit", "miss") if op == "verify" else (op,)
    rtt = [x for k, x in latencies if k in kinds]
    handler = hists.get("histograms", {}).get(op, {}).get("p50")
    if not rtt or handler is None:
        fail(f"daemon replay: no `{op}` request answered")
    program_hits, obligation_hits = hit_fracs(status)
    return {
        "server.handler_p50_ms": handler / 1e6,
        "server.wire_p50_ms": statistics.median(rtt) - handler / 1e6,
        "server.program_hit_frac": program_hits,
        "server.obligation_hit_frac": obligation_hits,
    }


RUNNERS = {"cold-gen": run_cold_gen, "edit-lsp": run_edit_lsp,
           "daemon-mix": run_daemon_mix}


def sample_files(script):
    """The smallest inputs of the workload (the cross-route sample)."""
    if script["workload"] == "edit-lsp":
        return [script["doc"]]
    if script["workload"] == "cold-gen":
        entries = script["programs"]
    else:
        entries = [op for ops in script["clients"] for op in ops if op["op"] == "verify"]
    verified = sorted((e for e in entries if e["expect"] == "verified"), key=lambda e: e["bytes"])
    rejected = sorted((e for e in entries if e["expect"] != "verified"), key=lambda e: e["bytes"])
    picks = verified[:1] + rejected[:1]
    return [e["file"] for e in picks][:CROSS_ROUTE_SAMPLE]


# ---------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    commcsl, helper, profile = build()
    wdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(wdir, ignore_errors=True)
    gen = subprocess.run([helper, "gen", "--workload", args.workload, "--seed",
                          str(args.seed), "--out", wdir],
                         capture_output=True, text=True, timeout=TIMEOUT)
    if gen.returncode != 0:
        fail("generator failed: " + gen.stderr.strip())
    try:
        with open(os.path.join(wdir, "workload.json")) as fh:
            script = json.load(fh)
        stamp = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
                 "commit": commit(), "profile": profile, "sizes": script["sizes"],
                 "trace": args.trace}

        def emit(name, value, unit, samples=None, beyond=None):
            line = {"metric": name, "value": value, "unit": unit, "provenance": stamp}
            if samples is not None:
                line["samples"] = samples
            if beyond is not None:
                line["beyond"] = beyond
            print(json.dumps(line), flush=True)

        tally = Tally()
        preflight(commcsl, wdir, script, tally)
        cross_route(commcsl, helper, wdir, sample_files(script), tally)

        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            chrome = os.path.join(WORK, "traces", f"{args.workload}-{args.seed}.json")
            done = subprocess.run([helper, "trace", "--dir", wdir, "--chrome", chrome],
                                  capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                fail("traced pass failed: " + done.stderr.strip())
            traced = json.loads(done.stdout)
            for reason in traced["mismatches"]:
                tally.check(False, "traced pass: " + reason)
            tally.check(True, "traced pass")
            metrics = {k: v["value"] for k, v in traced["metrics"].items()}
            metrics.update(daemon_replay(commcsl, wdir, script, tally))
            units = {k: v["unit"] for k, v in traced["metrics"].items()}
            result_metrics = {}
            for name, value in metrics.items():
                unit = units.get(name, "ms" if name.endswith("_ms") else "fraction")
                emit(name, value, unit)
                result_metrics[name] = {"value": value, "unit": unit}
        else:
            setup, named, generic = RUNNERS[args.workload](commcsl, wdir, script,
                                                           args.seconds, tally)
            setup_s = statistics.median(setup)
            emit("setup_s", setup_s, "s", len(setup))
            for name, (value, unit, samples, *beyond) in named.items():
                emit(name, value, unit, samples, beyond[0] if beyond else None)
            emit("failed_frac", tally.failed / max(tally.attempted, 1), "fraction",
                 tally.attempted)
            units = {"cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}
            result_metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
            result_metrics.update({k: {"value": v, "unit": units[k]} for k, v in generic.items()})
        for reason in tally.reasons:
            print(json.dumps({"failure": reason, "provenance": stamp}), flush=True)
    finally:
        for proc in SPAWNED:
            stop(proc)
        shutil.rmtree(wdir, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (Failure, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
