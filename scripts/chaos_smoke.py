#!/usr/bin/env python3
"""Chaos smoke test for the serving front-end.

Spawns ``example_serve_client --serve 0 --chaos`` (server-only mode,
ephemeral port, failpoints verb enabled), then drives it through three
phases with raw-socket clients speaking the newline-delimited JSON
line protocol:

1. **Reference** — a clean pass collects the canonical answer for every
   (question, retriever) pair, blocking and streaming alike (the done
   frame carries the full answer; deltas must concatenate to it).

2. **Chaos** — seeded randomized failpoint schedules are armed over the
   wire (delays and drops on session I/O, retrieval, and engine
   leasing) while concurrent clients issue asks with mixed deadlines.
   Every surviving request must end in a typed terminal frame — done,
   error, overloaded, or deadline_exceeded; a dropped connection may
   also surface as EOF (that is what the drop failpoint simulates).
   Deadline-capped requests must terminate within deadline + slack +
   scheduling allowance. Nothing may hang, crash, or emit a torn
   frame.

3. **Post-chaos** — everything disarmed, the reference pairs are
   re-asked and must match the phase-1 answers byte for byte, proving
   fault-free completions are unaffected by the chaos machinery. STATS
   must report the injected-fault counters.

Exit status: 0 when every phase held; 1 otherwise.

Usage:
    chaos_smoke.py /path/to/example_serve_client [--clients N]
                   [--asks M] [--rounds R] [--seed S]
"""

import argparse
import json
import random
import socket
import subprocess
import sys
import threading
import time

RETRIEVERS = ["sieve", "ranger", "llamaindex"]
QUESTIONS = [
    "Which policy has the lowest miss rate in the astar workload?",
    "Why does Belady outperform LRU in the astar workload?",
]
TERMINAL = ("done", "error", "overloaded", "deadline_exceeded")
# Typed-terminal latency bound for deadline-capped chaos asks: the
# request deadline, the server's hard-cut slack (ServeOptions default
# 250 ms), the lease-wait bound, plus scheduling allowance.
DEADLINE_MS = 400
SLACK_MS = 250
LEASE_WAIT_MS = 5000
ALLOWANCE_MS = 3000

SCHEDULES = [
    "serve.write=drop@{p_write},retrieve.section=delay:15@0.4",
    "serve.read=drop@{p_read},serve.lease=delay:25,"
    "retrieve.section=delay:10@0.5",
    "retrieve.section=delay:30@0.6,serve.write=drop@{p_write}",
    # Pipeline-interior faults: the event hand-off throws
    # InjectedFault, which the session must surface as a typed "error"
    # frame (never a hang or a torn stream).
    "core.stream.push=error@0.15,retrieve.section=delay:10@0.3",
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


def open_session(port, timeout=120):
    """Connect, consume the hello frame, return (socket, line iter)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.settimeout(timeout)
    lines = recv_lines(sock)
    hello = json.loads(next(lines))
    if hello.get("frame") != "hello":
        raise AssertionError(f"expected hello, got {hello}")
    return sock, lines


def ask(lines, sock, rid, question, retriever, deadline_ms=0):
    """One ask; returns (terminal_kind_or_None, answer, frames_seen).

    ``None`` terminal means the connection died (EOF) — only legal
    while drop failpoints are armed.
    """
    request = {"op": "ask", "id": rid, "question": question,
               "retriever": retriever}
    if deadline_ms:
        request["deadline_ms"] = deadline_ms
    sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
    deltas, frames = "", 0
    for raw in lines:
        frame = json.loads(raw)  # malformed/torn frame raises here
        frames += 1
        if frame.get("id") != rid:
            raise AssertionError(f"frame for {frame.get('id')!r} "
                                 f"inside {rid}")
        kind = frame["frame"]
        if kind == "delta":
            deltas += frame["text"]
        if kind == "done":
            if deltas != frame["answer"]:
                raise AssertionError(f"delta bytes diverge on {rid}")
            return kind, frame["answer"], frames
        if kind in TERMINAL:
            return kind, "", frames
    return None, "", frames


def arm(port, spec, attempts=10):
    """Arm a failpoint spec over the wire ('' or 'off' disarms).

    Retries: while drop failpoints are armed, the arming session's own
    reads and writes are fair game, so a disarm request can itself be
    dropped a few times before it lands.
    """
    last = None
    for _ in range(attempts):
        try:
            sock, lines = open_session(port)
            try:
                request = {"op": "failpoints", "id": "arm",
                           "spec": spec or "off"}
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
                frame = json.loads(next(lines))
                if frame.get("frame") != "failpoints":
                    raise AssertionError(f"arming failed: {frame}")
                return int(frame["armed"])
            finally:
                sock.close()
        except (StopIteration, AssertionError, OSError,
                json.JSONDecodeError) as exc:
            last = exc
            time.sleep(0.05)
    raise AssertionError(f"could not arm {spec!r} after "
                         f"{attempts} attempts: {last!r}")


def fetch_stats(port):
    sock, lines = open_session(port)
    try:
        sock.sendall(b'{"op":"stats","id":"st"}\n')
        frame = json.loads(next(lines))
        if frame.get("frame") != "stats":
            raise AssertionError(f"stats failed: {frame}")
        return frame
    finally:
        sock.close()


def reference_pass(port, errors):
    """Collect clean answers for every (question, retriever) pair."""
    reference = {}
    sock, lines = open_session(port)
    try:
        for qi, question in enumerate(QUESTIONS):
            for retriever in RETRIEVERS:
                rid = f"ref-{qi}-{retriever}"
                kind, answer, _ = ask(lines, sock, rid, question,
                                      retriever)
                if kind != "done" or not answer:
                    errors.append(f"reference ask {rid} -> {kind!r}")
                    return None
                reference[(question, retriever)] = answer
    finally:
        sock.close()
    return reference


def chaos_client(port, client_id, asks, rng_seed, counters, errors):
    rng = random.Random(rng_seed)
    for i in range(asks):
        try:
            sock, lines = open_session(port)
        except Exception:
            counters["dropped"] += 1  # hello dropped by serve.write
            continue
        try:
            deadline = rng.choice([0, 0, DEADLINE_MS])
            question = rng.choice(QUESTIONS)
            retriever = rng.choice(RETRIEVERS)
            started = time.monotonic()
            kind, _, _ = ask(lines, sock, f"c{client_id}-{i}",
                             question, retriever, deadline)
            elapsed_ms = (time.monotonic() - started) * 1000.0
            if kind is None:
                counters["dropped"] += 1
            else:
                counters[kind] += 1
                if deadline and elapsed_ms > (deadline + SLACK_MS +
                                              LEASE_WAIT_MS +
                                              ALLOWANCE_MS):
                    errors.append(
                        f"deadline ask c{client_id}-{i} took "
                        f"{elapsed_ms:.0f}ms")
        except ConnectionError:
            # RST instead of FIN: the server dropped the connection
            # while our request bytes were still unread. Same injected
            # fault as a clean EOF, just a racier goodbye.
            counters["dropped"] += 1
        except Exception as exc:  # noqa: BLE001 - collected
            errors.append(f"chaos client {client_id}: {exc!r}")
        finally:
            sock.close()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("server_binary")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--asks", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    server = subprocess.Popen(
        [args.server_binary, "--serve", "0", "--chaos"],
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
        total = args.clients * args.asks * args.rounds
        print(f"server up on port {port}; {args.rounds} rounds x "
              f"{args.clients} clients x {args.asks} asks = {total} "
              "chaos requests")

        errors = []
        reference = reference_pass(port, errors)
        if reference is None:
            for err in errors:
                print(f"FAIL: {err}", file=sys.stderr)
            return 1

        rng = random.Random(args.seed)
        counters = {k: 0 for k in TERMINAL}
        counters["dropped"] = 0
        for round_no in range(args.rounds):
            schedule = SCHEDULES[round_no % len(SCHEDULES)].format(
                p_write=round(rng.uniform(0.05, 0.2), 2),
                p_read=round(rng.uniform(0.05, 0.2), 2))
            armed = arm(port, schedule)
            if armed < 1:
                errors.append(f"schedule {schedule!r} armed nothing")
            threads = [
                threading.Thread(
                    target=chaos_client,
                    args=(port, round_no * args.clients + i, args.asks,
                          rng.getrandbits(32), counters, errors))
                for i in range(args.clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            arm(port, "off")
            print(f"round {round_no}: schedule {schedule}")

        # Post-chaos: byte-identical to the clean reference.
        sock, lines = open_session(port)
        try:
            for (question, retriever), expected in reference.items():
                kind, answer, _ = ask(lines, sock,
                                      f"post-{retriever}", question,
                                      retriever)
                if kind != "done":
                    errors.append(f"post-chaos ask -> {kind!r}")
                elif answer != expected:
                    errors.append(
                        f"post-chaos answer diverges for "
                        f"({retriever}, {question!r})")
        finally:
            sock.close()

        stats = fetch_stats(port)
        if int(stats.get("faults_injected", 0)) < 1:
            errors.append(f"no faults recorded in stats: {stats}")

        if errors:
            for err in errors:
                print(f"FAIL: {err}", file=sys.stderr)
            return 1
        print(f"OK: {total} chaos requests -> "
              + ", ".join(f"{k}={v}" for k, v in counters.items())
              + f"; faults_injected={stats['faults_injected']}; "
              "post-chaos answers byte-identical")
        return 0
    finally:
        try:
            server.stdin.close()  # server-only mode exits on stdin EOF
            server.wait(timeout=30)
        except Exception:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
