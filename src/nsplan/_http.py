"""The one JSON POST of the remote providers, on the standard library.

``post_json`` retries transient failures and returns the decoded body;
``_send`` makes one attempt with ``urllib.request``. That module is
imported only when a remote call actually happens, so a run that never
calls a remote service never loads it.
"""

from __future__ import annotations

import json
import random
import time

from .errors import TransportError

RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
BACKOFF_S = 0.5
RETRIES = 3


def post_json(endpoint, payload, api_key, timeout):
    """POST ``payload`` as JSON and return the decoded JSON body, waiting at
    most ``timeout`` seconds for each attempt.

    Retries transient failures (connection errors and 5xx/429 statuses) up
    to RETRIES times, sleeping ``BACKOFF_S * 2**(k-1) * (1 + jitter)``
    seconds before retry k, then raises TransportError carrying the endpoint
    and last status. An endpoint that is not an http(s) URL, or a request
    that cannot be built, is a TransportError at once.
    """
    if not endpoint.lower().startswith(("http://", "https://")):
        raise TransportError("endpoint must be an http:// or https:// URL", endpoint=endpoint)
    rng = random.Random()
    last_error = None
    for attempt in range(RETRIES + 1):
        if attempt:
            time.sleep(BACKOFF_S * (2 ** (attempt - 1)) * (1.0 + rng.random()))
        try:
            status, body = _send(endpoint, payload, api_key, timeout)
        except TransportError as err:
            last_error = err
            continue
        except ValueError as err:  # no retry can mend the request
            raise TransportError(f"request cannot be sent: {err}", endpoint=endpoint) from None
        if status == 200:
            return body
        err = TransportError(f"service returned {status}", endpoint=endpoint, status=status)
        if status in RETRYABLE_STATUSES:
            last_error = err
            continue
        raise err
    raise TransportError(
        f"gave up after {RETRIES + 1} attempts: {last_error.args[0]}",
        endpoint=endpoint,
        status=last_error.status,
    )


def _send(endpoint, payload, api_key, timeout):
    """One POST: the status and the JSON body, ``{}`` when the body is empty
    or not JSON. A 4xx or 5xx reply is a status like any other; a failure to
    connect or to read the reply is a TransportError, and a malformed URL or
    API key a ValueError whose message holds no header value."""
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if api_key:
        if not all(" " <= c <= "~" for c in api_key):  # http.client would echo the whole header
            raise ValueError("the API key holds a character that is not printable ASCII")
        headers["Authorization"] = f"Bearer {api_key}"
    data = json.dumps(payload).encode("utf-8")
    try:
        request = urllib.request.Request(endpoint, data=data, headers=headers)
        try:
            reply = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as err:
            reply = err  # an error status still carries its code and body
        with reply:
            status, raw = reply.status, reply.read()
    except http.client.InvalidURL as err:  # a malformed URL, as urllib's own ValueErrors are
        raise ValueError(str(err)) from None
    except (OSError, http.client.HTTPException) as err:
        raise TransportError(f"request failed: {err}", endpoint=endpoint) from None
    try:
        body = json.loads(raw) if raw else {}
    except ValueError:
        body = {}
    return status, body
