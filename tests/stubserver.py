"""In-process chat-completions stub used by the remote-path tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubEndpoint:
    """Serves scripted responses and records every request body.

    ``script`` is a list of entries, consumed in order:
      - ``("status", 500)`` -> error status with empty body
      - ``("text", "...")`` -> HTTP 200 completion with the given content
      - ``("raw", b"...")``  -> HTTP 200 with an arbitrary body
      - ``("drop", None)``   -> close the connection without replying
    When the script runs dry, ``fallback`` (a callable of the parsed request
    body) supplies the completion text.
    """

    def __init__(self, script=None, fallback=None):
        self.script = list(script or [])
        self.fallback = fallback
        self.requests: list[dict] = []
        self._lock = threading.Lock()

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.requests.append(body)
                    entry = stub.script.pop(0) if stub.script else None
                if entry is None:
                    if stub.fallback is None:
                        self._reply(500, b"")
                        return
                    self._reply_completion(stub.fallback(body))
                    return
                kind, value = entry
                if kind == "drop":
                    self.close_connection = True
                elif kind == "status":
                    self._reply(value, b"")
                elif kind == "raw":
                    self._reply(200, value)
                else:
                    self._reply_completion(value)

            def _reply_completion(self, text):
                payload = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
                self._reply(200, payload)

            def _reply(self, status, body):
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False
