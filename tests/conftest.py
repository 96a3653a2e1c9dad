import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from dprand.entropy import EntropySource, SourceKind


@dataclass
class ServerBehavior:
    """Mutable knobs for the entropy-service test double."""

    status: int = 200
    delay_s: float = 0.0
    short_by: int = 0  # respond with n - short_by bytes
    pattern: bytes = b"\xA7"
    requests: list = field(default_factory=list)


class _EntropyHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        behavior: ServerBehavior = self.server.behavior  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        n = int(parse_qs(parsed.query).get("n", ["0"])[0])
        behavior.requests.append(n)
        if behavior.delay_s:
            time.sleep(behavior.delay_s)
        if parsed.path != "/entropy" or behavior.status != 200:
            self.send_response(behavior.status if behavior.status != 200 else 404)
            self.end_headers()
            return
        body = (behavior.pattern * n)[:max(n - behavior.short_by, 0)]
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def entropy_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EntropyHandler)
    behavior = ServerBehavior()
    server.behavior = behavior  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", behavior
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


def scripted_source(script, kind=SourceKind.OS_DEVICE, name="scripted", block_size=1024):
    """Source whose fetch pops outcomes from `script`: None means not-ready,
    bytes are returned as-is, and a callable is invoked for the data.
    The kind fixes the retry budget, as for every source."""
    remaining = list(script)

    def fetch(n):
        step = remaining.pop(0)
        if step is None:
            return None
        if callable(step):
            return step(n)
        return (step * n)[:n]

    return EntropySource(name, kind, block_size, fetch)
