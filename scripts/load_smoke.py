#!/usr/bin/env python3
"""Concurrency smoke test for the serving front-end.

Spawns ``example_serve_client --serve 0`` (server-only mode, ephemeral
port), waits for its ``LISTENING <port>`` banner, then drives it with
N concurrent raw-socket clients speaking the newline-delimited JSON
line protocol — no shared code with the C++ client, so a framing bug
that the in-process tests can't see (partial writes, interleaved
frames across sessions, a missing newline) fails here.

Each client runs several asks, rotating retriever per request, and
asserts for every response stream:

  * every line parses as a flat JSON object with a ``frame`` key,
  * frames carry the request id they answer,
  * the concatenated ``delta`` text equals the ``done`` answer,
  * the stream terminates with exactly one ``done`` frame.

Every third ask additionally carries a ``deadline_ms`` budget
(``--deadline-ms``, generous by default). Deadline-capped asks must
still end in a typed terminal frame — ``done`` (degraded or not) or
``deadline_exceeded`` — within deadline + slack + a scheduling
allowance, exercising the deadline path under real concurrency.

The clients count every frame they read. Once they are done, one more
connection asks for ``stats``: the server buffers an answer's frames
and writes them at a few flush points, so its ``writes`` counter must
be below the frames read. A server that wrote each frame on its own
would make exactly as many writes as there are frames.

Exit status: 0 when every client saw well-formed, byte-consistent
streams and the server wrote fewer times than it sent frames; 1
otherwise.

Usage:
    load_smoke.py /path/to/example_serve_client [--clients N]
                  [--asks M] [--deadline-ms D]
"""

import argparse
import json
import socket
import subprocess
import sys
import threading
import time

# Server-side hard-cut slack past the deadline (ServeOptions default)
# plus scheduling allowance for a loaded CI machine.
SLACK_MS = 250
ALLOWANCE_MS = 5000

RETRIEVERS = ["sieve", "ranger", "llamaindex"]
QUESTION = "Which policy has the lowest miss rate in the astar workload?"
QUESTIONS = [
    QUESTION,
    "Why does Belady outperform LRU in the astar workload?",
]


def recv_lines(sock):
    """Yield newline-terminated lines from a blocking socket."""
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode("utf-8")
        chunk = sock.recv(4096)
        if not chunk:
            return
        buf += chunk


def run_client(port, client_id, asks, deadline_ms, errors, frames):
    read = 0
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        sock.settimeout(120)
        lines = recv_lines(sock)
        hello = json.loads(next(lines))
        read += 1
        if hello.get("frame") != "hello":
            raise AssertionError(f"expected hello, got {hello}")
        for ask in range(asks):
            rid = f"{client_id}-{ask}"
            # Every third ask carries a deadline budget; it may finish
            # done (degraded or not) or deadline_exceeded, but always
            # with a typed terminal frame inside the latency bound.
            capped = deadline_ms > 0 and (client_id + ask) % 3 == 0
            request = {
                "op": "ask",
                "id": rid,
                "question": QUESTIONS[(client_id + ask) % len(QUESTIONS)],
                "retriever": RETRIEVERS[(client_id + ask) % len(RETRIEVERS)],
            }
            if capped:
                request["deadline_ms"] = deadline_ms
            started = time.monotonic()
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            deltas, terminal, done = "", None, None
            for raw in lines:
                frame = json.loads(raw)  # malformed frame raises here
                read += 1
                kind = frame["frame"]
                if frame.get("id") != rid:
                    raise AssertionError(
                        f"frame for {frame.get('id')!r} inside {rid}")
                if kind == "delta":
                    deltas += frame["text"]
                elif kind == "done":
                    terminal, done = kind, frame["answer"]
                    break
                elif kind == "deadline_exceeded" and capped:
                    terminal = kind
                    break
                elif kind in ("error", "overloaded",
                              "deadline_exceeded"):
                    raise AssertionError(f"server refused {rid}: {raw}")
            if terminal is None:
                raise AssertionError(f"stream {rid} ended without a "
                                     "terminal frame")
            if terminal == "done" and deltas != done:
                raise AssertionError(f"delta bytes diverge on {rid}")
            if capped:
                elapsed_ms = (time.monotonic() - started) * 1000.0
                bound = deadline_ms + SLACK_MS + ALLOWANCE_MS
                if elapsed_ms > bound:
                    raise AssertionError(
                        f"deadline ask {rid} took {elapsed_ms:.0f}ms "
                        f"(> {bound}ms)")
                # A hard cut ends the connection's usefulness for this
                # simple client only if the server closed it; ours
                # keeps the session, so continue asking.
        sock.close()
    except Exception as exc:  # noqa: BLE001 - collected and reported
        errors.append(f"client {client_id}: {exc!r}")
    frames.append(read)


def server_writes(port):
    """Read STATS ``writes`` over a fresh connection.

    Returns (writes, frames read on this connection before the stats
    reply); the snapshot counts this connection's hello write.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=120)
    sock.settimeout(120)
    try:
        lines = recv_lines(sock)
        hello = json.loads(next(lines))
        if hello.get("frame") != "hello":
            raise AssertionError(f"expected hello, got {hello}")
        sock.sendall(b'{"op":"stats","id":"writes"}\n')
        stats = json.loads(next(lines))
        return int(stats["writes"]), 1
    finally:
        sock.close()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("server_binary")
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--asks", type=int, default=3)
    parser.add_argument("--deadline-ms", type=int, default=10000,
                        help="deadline for every third ask "
                             "(0 disables the mixed-deadline phase)")
    args = parser.parse_args()

    server = subprocess.Popen(
        [args.server_binary, "--serve", "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline().strip()
        if not banner.startswith("LISTENING "):
            print(f"FAIL: unexpected banner {banner!r}", file=sys.stderr)
            return 1
        port = int(banner.split()[1])
        print(f"server up on port {port}; "
              f"{args.clients} clients x {args.asks} asks")

        errors = []
        frames = []
        threads = [
            threading.Thread(target=run_client,
                             args=(port, i, args.asks,
                                   args.deadline_ms, errors, frames))
            for i in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if errors:
            for err in errors:
                print(f"FAIL: {err}", file=sys.stderr)
            return 1
        print(f"OK: {args.clients * args.asks} streams, "
              "zero malformed frames")

        writes, stats_frames = server_writes(port)
        read = sum(frames) + stats_frames
        if writes >= read:
            print(f"FAIL: the server made {writes} socket writes for "
                  f"{read} frames read; it does not coalesce frames",
                  file=sys.stderr)
            return 1
        print(f"OK: {writes} socket writes for {read} frames read")
        return 0
    finally:
        try:
            server.stdin.close()  # server-only mode exits on stdin EOF
            server.wait(timeout=30)
        except Exception:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
