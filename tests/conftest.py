import json
import os
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

sys.path.insert(0, os.path.dirname(__file__))  # makes `import oracles` work

from nsplan import kg
from nsplan.admissible import load_admissible_set
from nsplan.embeddings import HashEmbedding

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# the host of every IPv4 or IPv6 socket.connect made in this process, in
# order; test_criterion_10_offline_by_default checks they are all loopback
CONNECTED_HOSTS = []


def _record_connect(event, args):
    if event == "socket.connect" and args[0].family in (socket.AF_INET, socket.AF_INET6):
        CONNECTED_HOSTS.append(args[1][0])


sys.addaudithook(_record_connect)


def pytest_collection_modifyitems(items):
    """Run criterion 10 last, so the connections it checks are the whole
    session's."""
    last = [item for item in items if item.name == "test_criterion_10_offline_by_default"]
    items[:] = [item for item in items if item not in last] + last


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(name="fixture_path", scope="session")
def fixture_path_fixture():
    return fixture_path


@pytest.fixture
def sleeps(monkeypatch):
    """Stubs ``time.sleep`` and records each requested delay, in order."""
    delays = []
    monkeypatch.setattr("time.sleep", delays.append)
    return delays


@pytest.fixture(scope="session")
def hash_embedder():
    return HashEmbedding()


@pytest.fixture(scope="session")
def shower_graph():
    return kg.load_graph(fixture_path("shower_graph.tsv"))


@pytest.fixture(scope="session")
def tv_graph():
    return kg.load_graph(fixture_path("tv_graph.jsonl"), fmt="jsonl")


@pytest.fixture(scope="session")
def household_admissible():
    return load_admissible_set(fixture_path("admissible_household.json"))


class _Reply(BaseHTTPRequestHandler):
    """Answers a POST with the installed handler's ``(status, body)``: a body
    of bytes is sent as it is, anything else as JSON."""

    def do_POST(self):
        service = self.server.service
        service.headers.append(self.headers)
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        status, body = service.handler(json.loads(raw))
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:
            pass  # the client gave up waiting

    def log_message(self, format, *args):
        pass


class LoopbackService:
    """An HTTP service on 127.0.0.1 that a test programs with a handler.

    ``serve(handler, path)`` installs ``handler(payload) -> (status, body)``
    and returns the endpoint URL. ``headers`` holds each request's header
    message, in arrival order. ``release`` is set when the test ends, so a
    handler may block on it to outlast a client's timeout.
    """

    def __init__(self, server):
        self.server = server
        server.service = self
        self.reset()

    def reset(self):
        self.handler = None
        self.headers = []
        self.release = threading.Event()

    def serve(self, handler, path="/v1"):
        self.handler = handler
        return f"http://127.0.0.1:{self.server.server_port}{path}"


@pytest.fixture(scope="session")
def _loopback_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Reply)
    service = LoopbackService(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture
def loopback(_loopback_server):
    """The session's loopback HTTP service, with no handler and no recorded
    requests; a handler blocked on ``release`` is let go at teardown."""
    _loopback_server.reset()
    yield _loopback_server
    _loopback_server.release.set()
