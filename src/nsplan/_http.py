"""Small shared HTTP helper for the remote providers.

Keeps ``requests`` out of every import path: it is only pulled in when a
remote call actually happens, so the offline test suite never touches it.
A ``transport`` callable (payload-dict -> (status, body-dict)) can replace
the real network for tests.
"""

from __future__ import annotations

import random
import time

from .errors import TransportError

RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
BACKOFF_S = 0.5
RETRIES = 3


def post_json(endpoint, payload, api_key, timeout, transport):
    """POST ``payload`` as JSON and return the decoded JSON body, waiting at
    most ``timeout`` seconds for each attempt.

    Retries transient failures (connection errors and 5xx/429 statuses) up
    to RETRIES times, sleeping ``BACKOFF_S * 2**(k-1) * (1 + jitter)``
    seconds before retry k, then raises TransportError carrying the endpoint
    and last status.
    """
    rng = random.Random()
    last_error = None
    for attempt in range(RETRIES + 1):
        if attempt:
            time.sleep(BACKOFF_S * (2 ** (attempt - 1)) * (1.0 + rng.random()))
        try:
            status, body = _send(endpoint, payload, api_key, timeout, transport)
        except TransportError as err:
            last_error = err
            continue
        if status == 200:
            return body
        err = TransportError(f"service returned {status}", endpoint=endpoint, status=status)
        if status in RETRYABLE_STATUSES:
            last_error = err
            continue
        raise err
    raise TransportError(
        f"gave up after {RETRIES + 1} attempts: {last_error}",
        endpoint=endpoint,
        status=getattr(last_error, "status", None),
    )


def _send(endpoint, payload, api_key, timeout, transport):
    if transport is not None:
        return transport(payload)
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as err:
        raise TransportError(f"request failed: {err}", endpoint=endpoint)
    try:
        body = resp.json() if resp.content else {}
    except ValueError:
        body = {}
    return resp.status_code, body
