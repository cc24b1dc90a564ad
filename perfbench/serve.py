"""Drives a real ``skatsim serve --socket`` daemon for the serve_mixed
workload: starts and stops the daemon, and runs one open-loop phase per
connection.

Open loop: request ``i`` is due at ``start + i / rate`` and is sent then,
whether or not earlier replies have arrived, as independent users would.
Latency is measured from the due time, not the send time, so a stalled
reply also charges the requests queued behind it; how late the sender ran
is reported separately.
"""

import json
import os
import select
import socket
import subprocess
import threading
import time

import stats

CONNECT_TIMEOUT_S = 20.0
PHASE_TIMEOUT_S = 60.0


class Daemon:
    """One ``skatsim serve --socket`` process serving ``conns`` connections
    in order, then exiting. Use as a context manager; leaving the block
    kills the daemon if it is still running and always reaps it."""

    def __init__(self, binary, sock_path, conns, threads, metrics_path=None):
        self.sock_path = sock_path
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        cmd = [binary, "serve", "--socket", sock_path, "--threads",
               str(threads), "--max-conns", str(conns)]
        if metrics_path:
            cmd += ["--metrics", metrics_path]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self.reaped = False
        self.listening = False
        self.stderr = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self.reaped and self.proc.poll() is None:
            self.proc.kill()
        self.wait()
        return False

    def connect(self):
        """Connects to the daemon, first waiting for the line it prints to
        stderr once it listens."""
        if not self.listening:
            ready, _, _ = select.select([self.proc.stderr], [], [],
                                        CONNECT_TIMEOUT_S)
            line = self.proc.stderr.readline() if ready else b""
            if b"listening" not in line:
                raise RuntimeError("serve daemon did not start listening: "
                                   + line.decode(errors="replace").strip())
            self.listening = True
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(self.sock_path)
        except OSError:
            sock.close()
            raise
        return sock

    def peak_rss_mb(self):
        """The daemon's peak resident set so far (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the serve daemon")

    def close_last(self):
        """Uses up the daemon's last connection with an empty session, so
        it exits on its own."""
        sock = self.connect()
        sock.shutdown(socket.SHUT_WR)
        with sock, sock.makefile("rb") as stream:
            stream.read()

    def wait(self, timeout=PHASE_TIMEOUT_S):
        """Reaps the daemon and returns its exit code; kills it first if it
        has not exited within ``timeout``."""
        if not self.reaped:
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.reaped = True
            self.stderr = self.proc.stderr.read()
            self.proc.stderr.close()
        return self.proc.returncode


def run_phase(daemon, lines, rate):
    """Sends ``lines`` over one new connection, line ``i`` due at
    ``i / rate`` seconds after the phase starts (``rate=None`` sends them
    all at once). Returns per-request records in request order plus the
    session's closing summary."""
    sock = daemon.connect()
    n = len(lines)
    due = [0.0] * n
    sent = [0.0] * n
    received = []  # (monotonic time, decoded line)
    errors = []

    def reader():
        try:
            with sock.makefile("rb") as stream:
                for raw in stream:
                    received.append((time.perf_counter(), raw))
        except OSError as err:  # pragma: no cover - reported below
            errors.append(err)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        start = time.perf_counter()
        for i, line in enumerate(lines):
            due[i] = start + (i / rate if rate else 0.0)
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sock.sendall(line.encode() + b"\n")
            sent[i] = time.perf_counter()
        sock.shutdown(socket.SHUT_WR)
    finally:
        thread.join(PHASE_TIMEOUT_S)
        sock.close()
    if thread.is_alive() or errors:
        raise RuntimeError(f"serve phase did not finish: {errors}")

    header, responses, summary = None, [], None
    for t, raw in received:
        msg = json.loads(raw)
        kind = msg.get("kind")
        if kind == "service_header":
            header = msg
        elif kind == "service_response":
            responses.append((t, msg, raw.decode().rstrip("\n")))
        elif kind == "service_summary":
            summary = msg
    answered = min(n, len(responses))
    client = stats.latencies_from_due(due[:answered],
                                      [t for t, _, _ in responses[:answered]])
    records = []
    for i, (t, msg, text) in enumerate(responses[:answered]):
        records.append({
            "id": msg.get("id"),
            "ok": bool(msg.get("ok")),
            "cache": msg.get("cache"),
            "server_s": float(msg.get("latency_s", 0.0)),
            "client_s": client[i],
            "late_s": sent[i] - due[i],
            "line": text,
        })
    return {"header": header, "records": records, "summary": summary,
            "wall_s": (received[-1][0] if received else start) - start}


def check_phase(phase, lines, result):
    """Exactly one response per request, in request order, between the
    session's header and summary lines. Responses that are not ok count as
    failed requests, not here."""
    problems = []
    ids = [json.loads(line)["id"] for line in lines]
    got = [r["id"] for r in result["records"]]
    if result["header"] is None:
        problems.append(f"{phase}: no header line")
    if got != ids:
        problems.append(f"{phase}: {len(got)} responses for {len(ids)} "
                        "requests, or out of order")
    if result["summary"] is None:
        problems.append(f"{phase}: no summary line")
    return problems
