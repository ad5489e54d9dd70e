"""Chat-completions stub for the remote_resolve workload; runs as its own process.

Protocol with the benchmark, over the stub's stdin and stdout:

1. The benchmark writes one JSON line: ``{prompt key: completion text}``.
2. The stub binds 127.0.0.1 on a free port and prints the port.
3. It answers ``POST /v1/chat/completions`` from the table; a prompt not in
   the table gets HTTP 404, which the client does not retry.
4. For each further line on stdin it prints its counters as one JSON line;
   when stdin closes it prints them once more and exits.

Counters: requests, connections, unknown prompts, repeats (a request whose
prompt equals the one just before it, which is what a client retry looks
like, since no two consecutive stage prompts of a resolution are equal)
and the seconds spent handling requests.

Usage (normally started by run.py):  python3 perfbench/stub.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer


def prompt_key(messages) -> str:
    return hashlib.sha256(json.dumps(messages, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.unknown = 0
        self.repeats = 0
        self.serve_s = 0.0
        self.last_key = None

    def as_dict(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "unknown": self.unknown,
                "repeats": self.repeats,
                "serve_s": self.serve_s,
            }


def make_handler(table: dict[str, str], stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # lets a pooling client keep its connection
        timeout = 2.0  # an idle kept-alive connection is dropped after this

        def setup(self):
            super().setup()
            with stats.lock:
                stats.connections += 1

        def do_POST(self):
            t0 = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            try:
                key = prompt_key(json.loads(body)["messages"])
            except (ValueError, KeyError, TypeError):
                key = None
            answer = table.get(key)
            if answer is None:
                status, payload = 404, b'{"error": "unknown prompt"}'
            else:
                status, payload = 200, json.dumps({"choices": [{"message": {"content": answer}}]}).encode()
            with stats.lock:
                stats.requests += 1
                stats.unknown += answer is None
                stats.repeats += key is not None and key == stats.last_key
                stats.last_key = key
                stats.serve_s += time.perf_counter() - t0
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    table = json.loads(sys.stdin.readline())
    stats = Stats()
    server = HTTPServer(("127.0.0.1", 0), make_handler(table, stats))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    for _ in sys.stdin:  # ends when the benchmark closes our stdin
        print(json.dumps(stats.as_dict()), flush=True)
    print(json.dumps(stats.as_dict()), flush=True)
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
