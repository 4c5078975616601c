#!/usr/bin/env python3
"""Multi-process router smoke: replay one script through the router tier
and a single-node reference server, require answer-identical replies.

CI starts two parhc_netserver workers, a parhc_router fronting them, and
one extra parhc_netserver as the single-node reference (all with
--no-timing on ephemeral ports), then runs this script. It drives the
same verb sequence over both TCP endpoints — a replicated dataset (gen +
read fan-out), then a sharded one (dyn/geninsert/insert/delete, the EMST
and HDBSCAN* on the router's mirror, including a minPts sweep that
widens and narrows the kNN width) — and asserts every reply matches the
reference byte-for-byte after dropping the built=/reused= introspection
tokens (the router's mirror artifact keys legitimately differ from a
single-node engine's; see README "Multi-node serving"). Invalid
requests, malformed tokens included, must answer the reference's exact
`err` line; so must a `geninsert` into the sharded set at another
dimension, which the router rejects itself before any worker sees it.

Usage: check_router_smoke.py --router PORT --reference PORT
"""

import argparse
import socket
import struct
import sys

FRAME_MAGIC = 0x01
OP_KNN_QUERY = 0x14
OP_KNN_REPLY = 0x94


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), 10)
        self.file = self.sock.makefile("rwb")

    def ask(self, line):
        self.file.write((line + "\n").encode())
        self.file.flush()
        reply = self.file.readline()
        if not reply.endswith(b"\n"):
            raise RuntimeError(f"connection closed mid-reply to {line!r}")
        return reply.decode().rstrip("\n")

    def ask_frame(self, opcode, payload):
        """Send one binary frame; return (opcode, payload) or a text err."""
        self.file.write(struct.pack("<BBI", FRAME_MAGIC, opcode,
                                    len(payload)) + payload)
        self.file.flush()
        first = self.file.read(1)
        if first != bytes([FRAME_MAGIC]):  # text error line instead
            return None, (first + self.file.readline()).decode().rstrip("\n")
        op, length = struct.unpack("<BI", self.file.read(5))
        body = self.file.read(length)
        if len(body) != length:
            raise RuntimeError("connection closed mid-frame")
        return op, body


def strip_artifacts(line):
    """Drop built=/reused= tokens; everything else must match exactly."""
    return " ".join(tok for tok in line.split(" ")
                    if not tok.startswith(("built=", "reused=")))


# One flow exercising both dataset modes end to end. Every line is sent
# to the router and the reference; `ok` entries must start with "ok ".
SCRIPT = [
    "gen rep 2 varden 4000 42",     # replicated: broadcast to all workers
    "hdbscan rep 10",               # cold on one worker
    "hdbscan rep 10",               # round-robin: cold on the other
    "hdbscan rep 10",               # warm everywhere from here on
    "emst rep",
    "slink rep 3",
    "dbscan rep 10 0.1",
    "clusters rep 10 25",
    "dyn s 2",                      # sharded: split across the workers
    "geninsert s 2 varden 3000 7",
    "hdbscan s 10",                 # mirror export + the mirror's DAG
    "emst s",                       # EMST on the mirror's DAG
    "insert s 0.1 0.2 0.9 0.8",
    "emst s",
    "delete s 0 5 17",
    "hdbscan s 10",
    "dbscan s 10 0.1",
    "reach s 10",
    "slink s 4",
    "hdbscan s 16",                 # minPts sweep on the mirror: wider
    "reach s 5",                    # than any kNN width built, narrower
    "clusters s 8 10",
    "dbscan s 12 0.1",
]

# Invalid requests. The router parses with the single node's parser
# (net::ParseLine) and validates through the same AnswerQuery
# (src/engine/artifact_util.h), so every reply must be an `err` line
# identical to the reference, byte for byte. Runs after SCRIPT, so both
# sets are warm: malformed tokens must not reach a cached answer.
ERR_SCRIPT = [
    "slink s 0",
    "hdbscan s 0",
    "hdbscan s 100000",
    "clusters s 10 1",
    "emst s eps 0.5",
    "dbscan s 10 1e400",
    "dbscan rep 10 1e400",
    "hdbscan s 10abc",
    "clusters s 10 -5",
    "insert s 1 oops",
    "delete s 3 x",
    "geninsert s 3 varden 50 7",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--router", type=int, required=True)
    ap.add_argument("--reference", type=int, required=True)
    args = ap.parse_args()

    router = LineClient(args.router)
    ref = LineClient(args.reference)

    hello = router.ask("hello")
    print(f"router hello: {hello!r}")
    if not hello.startswith("ok hello proto=") or "role=router" not in hello:
        print("FAIL: router handshake did not identify the router tier",
              file=sys.stderr)
        return 1

    failures = 0
    for line in SCRIPT:
        got = router.ask(line)
        want = ref.ask(line)
        match = strip_artifacts(got) == strip_artifacts(want)
        print(f"{line!r}\n  router: {got!r}\n  single: {want!r}")
        if not match or not got.startswith("ok "):
            print("  ^^^ MISMATCH", file=sys.stderr)
            failures += 1

    for line in ERR_SCRIPT:
        got = router.ask(line)
        want = ref.ask(line)
        print(f"{line!r}\n  router: {got!r}\n  single: {want!r}")
        if got != want or not got.startswith("err "):
            print("  ^^^ MISMATCH", file=sys.stderr)
            failures += 1

    # Client-facing kNN rides the binary frame path: the router fans the
    # frame to both shard owners and k-way merges the rows; the reply must
    # byte-match the reference (same count, k, and every squared distance).
    name = b"s"
    queries = [0.1, 0.2, 0.55, 0.4, 0.9, 0.95]
    payload = (struct.pack("<H", len(name)) + name +
               struct.pack("<IHI", 10, 2, len(queries) // 2) +
               struct.pack(f"<{len(queries)}d", *queries))
    got_op, got_body = router.ask_frame(OP_KNN_QUERY, payload)
    want_op, want_body = ref.ask_frame(OP_KNN_QUERY, payload)
    print(f"knn frame: router op={got_op} len="
          f"{len(got_body) if got_op else got_body!r}, "
          f"reference op={want_op}")
    if got_op != OP_KNN_REPLY or (got_op, got_body) != (want_op, want_body):
        print("FAIL: merged kNN frame reply differs from the reference",
              file=sys.stderr)
        failures += 1

    cl = router.ask("cluster")
    # Multi-line reply: drain the per-upstream lines until the summary.
    lines = [cl]
    while not lines[-1].startswith(("ok cluster", "err ")):
        lines.append(router.file.readline().decode().rstrip("\n"))
    print("cluster:", lines)
    if not lines[-1].startswith("ok cluster workers=2 healthy=2"):
        print("FAIL: cluster stats did not report 2 healthy workers",
              file=sys.stderr)
        failures += 1

    if failures:
        print(f"\nrouter smoke FAILED ({failures} mismatch(es))",
              file=sys.stderr)
        return 1
    print(f"\nrouter smoke passed "
          f"({len(SCRIPT) + len(ERR_SCRIPT)} replies identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
