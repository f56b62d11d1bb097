"""The one HTTP send, driven for real: bodies that are not JSON, request
headers, a refused connection, a reply slower than the timeout, endpoints
that are not http URLs and requests that cannot be built. The status
handling and retries are tested through the providers."""

import errno
import os
import socket

import pytest

from nsplan import _http, generation
from nsplan.errors import TransportError
from nsplan.generation import GenerationRequest, RemoteGenerator


def _post(endpoint, api_key=None):
    return _http.post_json(endpoint, {"input": ["x"]}, api_key=api_key, timeout=5.0)


@pytest.mark.parametrize("raw", [b"", b"not json", b"\xff\xfe"], ids=["empty", "text", "not-utf8"])
def test_a_body_that_is_not_json_is_empty(loopback, raw):
    assert _post(loopback.serve(lambda payload: (200, raw))) == {}


def test_headers_carry_json_and_the_key_only_when_set(loopback):
    endpoint = loopback.serve(lambda payload: (200, {}))
    _post(endpoint)
    _post(endpoint, api_key="sekrit")
    without, with_key = loopback.headers
    assert without["Content-Type"] == with_key["Content-Type"] == "application/json"
    assert "Authorization" not in without
    assert with_key["Authorization"] == "Bearer sekrit"


def test_a_refused_connection_is_retried_then_named_once(sleeps):
    with socket.socket() as sock:  # a loopback port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        endpoint = f"http://127.0.0.1:{sock.getsockname()[1]}/v1"
    with pytest.raises(TransportError) as err:
        RemoteGenerator(endpoint, model="m").next_step(GenerationRequest("X"))
    refused = f"[Errno {errno.ECONNREFUSED}] {os.strerror(errno.ECONNREFUSED)}"
    assert str(err.value) == f"gave up after 4 attempts: request failed: <urlopen error {refused}> endpoint={endpoint}"
    assert (err.value.endpoint, err.value.status) == (endpoint, None)
    assert len(sleeps) == _http.RETRIES


def test_a_reply_slower_than_the_timeout_is_a_transport_error(loopback, sleeps, monkeypatch):
    monkeypatch.setattr(generation, "TIMEOUT_S", 0.2)

    def handler(payload):
        loopback.release.wait()  # not time.sleep, which ``sleeps`` stubs
        return 200, {}

    endpoint = loopback.serve(handler)
    with pytest.raises(TransportError) as err:
        RemoteGenerator(endpoint, model="m").next_step(GenerationRequest("X"))
    assert str(err.value) == f"gave up after 4 attempts: request failed: timed out endpoint={endpoint}"
    assert len(loopback.headers) == _http.RETRIES + 1


@pytest.mark.parametrize("endpoint", ["svc/v1", "file:///dev/null", "ftp://127.0.0.1/v1"])
def test_an_endpoint_that_is_not_http_is_refused_at_once(sleeps, endpoint):
    with pytest.raises(TransportError) as err:
        _post(endpoint)
    assert str(err.value) == f"endpoint must be an http:// or https:// URL endpoint={endpoint}"
    assert sleeps == []


@pytest.mark.parametrize(
    "endpoint, reason",
    # urllib raises ValueError for the first, http.client InvalidURL for the second
    [("http://[127.0.0.1/v1", "Invalid IPv6 URL"), ("http://127.0.0.1:x/v1", "nonnumeric port: 'x'")],
    ids=["ipv6", "port"],
)
def test_a_malformed_url_is_a_transport_error(sleeps, endpoint, reason):
    with pytest.raises(TransportError) as err:
        _post(endpoint)
    assert str(err.value) == f"request cannot be sent: {reason} endpoint={endpoint}"
    assert sleeps == []


@pytest.mark.parametrize("api_key", ["sk-sec\nret", "sk-sec\rret", "sk-sec\x00ret", "sk-\u2603"],
                         ids=["newline", "return", "nul", "not-latin-1"])
def test_an_api_key_no_header_can_carry_is_refused_at_once_unechoed(loopback, sleeps, api_key):
    endpoint = loopback.serve(lambda payload: (200, {}))
    with pytest.raises(TransportError) as err:
        RemoteGenerator(endpoint, model="m", api_key=api_key).next_step(GenerationRequest("X"))
    message = str(err.value)
    assert message == (
        f"request cannot be sent: the API key holds a character that is not printable ASCII endpoint={endpoint}"
    )
    assert "sk-" not in message and "Bearer" not in message
    assert (sleeps, loopback.headers) == ([], [])
