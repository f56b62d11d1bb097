"""Text embedding providers and cosine similarity.

Three providers share one small interface (``.dim``, ``.kind``,
``.embed(text) -> raw vector``):

* hash: seeded feature hashing of lowercase word unigrams and bigrams.
  Buckets and signs come from a blake2b digest of "<seed>|<feature>", so
  vectors are stable across processes (the builtin ``hash`` is salted and
  would not be).
* table: exact rows loaded from a JSONL file; a row whose vector is not a
  list of numbers (a numeric string or a bool is not one), is empty, holds
  NaN or an infinity, or differs in length from the rows above it is a bad
  line of the file. A missing text falls back to an internal hash
  provider and the miss is counted under a lock.
* remote: POST {"input": [text]} to an embedding service; results are
  memoized per exact input text.

Callers embed through ``embed`` alone, which holds the vector contract: it
refuses a vector of the wrong shape or of non-finite norm and hands out a
fresh float64 array, L2-normalized, or zero for a zero vector (the empty
string embeds to zero). Any cosine against a zero vector is 0. ``best_row``
finds the row of a matrix of such vectors nearest a query with one
matrix-vector product, as a row scan would.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading

import numpy as np

from . import _http
from ._files import read_lines
from .entities import tokenize
from .errors import InputError, TransportError

DEFAULT_DIM = 256
TIMEOUT_S = 30.0


def _features(text):
    toks = tokenize(text)
    return toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]


def _vector(raw):
    """``raw``, a JSON list of numbers, as a float64 array. A numeric string or
    a bool is not a number: any other ``raw`` is a ValueError."""
    if not (isinstance(raw, list) and all(type(v) in (int, float) for v in raw)):
        raise ValueError("vector must be a list of numbers")
    return np.array(raw, dtype=np.float64)  # OverflowError for an int past the float range


class HashEmbedding:
    kind = "hash"

    def __init__(self, dim=DEFAULT_DIM, seed=0):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed

    def _bucket(self, feature):
        digest = hashlib.blake2b(
            f"{self.seed}|{feature}".encode("utf-8"), digest_size=9
        ).digest()
        index = int.from_bytes(digest[:8], "big") % self.dim
        sign = 1.0 if digest[8] & 1 else -1.0
        return index, sign

    def embed(self, text):
        vec = np.zeros(self.dim, dtype=np.float64)
        for feature in _features(text):
            index, sign = self._bucket(feature)
            vec[index] += sign
        return vec


class TableEmbedding:
    """Lookup provider over a JSONL file of {"text": ..., "vector": [...]}.

    Every row is checked once, at load. Texts absent from the table embed
    through a hash fallback of the same dimension; ``miss_count`` counts
    every fallback.
    """

    kind = "table"

    def __init__(self, path):
        self.dim = 0
        self._table = dict(read_lines(path, self._row, InputError))
        if not self._table:
            raise InputError(f"{path}: embedding table is empty")
        self._fallback = HashEmbedding(dim=self.dim)
        self.miss_count = 0
        self._lock = threading.Lock()  # threads of a --jobs run share one provider

    def _row(self, line):
        obj = json.loads(line)
        text, vector = obj["text"], _vector(obj["vector"])
        if not isinstance(text, str):
            raise ValueError('expected {"text": str, "vector": [number, ...]}')
        if not vector.size:
            raise ValueError(f"vector of {text!r} is empty")
        if not np.isfinite(vector).all():
            raise ValueError(f"vector of {text!r} holds NaN or an infinity")
        if self.dim and vector.size != self.dim:
            raise ValueError(f"vector of {text!r} has {vector.size} entries where the rows above have {self.dim}")
        self.dim = vector.size
        return text, vector

    def embed(self, text):
        row = self._table.get(text)
        if row is not None:
            return row
        with self._lock:
            self.miss_count += 1
        return self._fallback.embed(text)


class RemoteEmbedding:
    """HTTP provider speaking {"input": [texts]} -> {"data": [{"embedding"}]}.

    Responses are cached by exact input text behind a lock, so repeated
    embeds of one string cost one request. An embedding that is not a list
    of ``dim`` numbers is a TransportError naming the endpoint.
    """

    kind = "remote"

    def __init__(self, endpoint, dim, api_key=None, transport=None):
        self.endpoint = endpoint
        self.dim = dim
        self.api_key = api_key
        self._transport = transport
        self._cache = {}
        self._lock = threading.Lock()

    def embed(self, text):
        with self._lock:
            cached = self._cache.get(text)
        if cached is not None:
            return cached
        body = _http.post_json(
            self.endpoint, {"input": [text]}, api_key=self.api_key, timeout=TIMEOUT_S, transport=self._transport
        )
        try:
            vec = _vector(body["data"][0]["embedding"])
        except (KeyError, IndexError, TypeError, ValueError, OverflowError):
            raise TransportError(
                "embedding response must hold data[0].embedding, a list of numbers", endpoint=self.endpoint
            ) from None
        if vec.shape != (self.dim,):
            raise TransportError(
                f"embedding has dimension {vec.shape}, expected ({self.dim},)",
                endpoint=self.endpoint,
            )
        with self._lock:
            self._cache[text] = vec
        return vec


def embed(provider, text):
    """Embed through any provider, enforcing the vector contract: a fresh
    float64 array of the provider's dimension, L2-normalized, or zero when
    the provider's vector is zero. A vector of non-finite norm is refused."""
    vec = np.asarray(provider.embed(text), dtype=np.float64)
    if vec.shape != (provider.dim,):
        raise ValueError(f"provider returned shape {vec.shape}, expected ({provider.dim},)")
    norm = np.linalg.norm(vec)
    if not math.isfinite(norm):
        raise ValueError(f"provider returned a vector of norm {norm} for {text!r}")
    return vec / norm if norm > 0 else np.zeros(provider.dim)


SHORTLIST_MARGIN = 1e-9


def best_row(query, matrix, keys):
    """Return (index, cosine) of the row of ``matrix`` closest to ``query``,
    ties broken by the smallest ``keys[index]``, bit-equal to a scan of every
    row in order that takes float(np.dot(query, row)) clamped to [-1, 1],
    or 0 when the query or the row is zero.

    One ``matrix @ query`` scores every row; only the rows whose clamped
    score lies within SHORTLIST_MARGIN of the best are re-scored row by row.
    Query and rows must be finite with norm at most 1 + 1e-9; ``embed`` hands
    out norm 1 to within rounding, or 0. So either sum of a row lies within
    about d * 2**-53 (3e-14 for d = 256) of the exact dot product, far inside
    the margin: the scan's winner, and every row tied with it, is always on
    the shortlist. A zero row scores exactly 0 both ways, and a zero query
    shortlists every row.
    """
    clamped = np.clip(matrix @ query, -1.0, 1.0)
    rows = np.flatnonzero(clamped >= clamped.max() - SHORTLIST_MARGIN)
    nonzero_query = query.any()
    best, best_cos = None, None
    for i in rows:
        vec = matrix[i]
        cos = max(-1.0, min(1.0, float(np.dot(query, vec)))) if nonzero_query and vec.any() else 0.0
        if best is None or cos > best_cos or (cos == best_cos and keys[i] < keys[best]):
            best, best_cos = i, cos
    return int(best), best_cos


def cosine(a, b):
    """Cosine similarity in [-1, 1]; 0 when either vector is zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(np.dot(a, b) / (na * nb))
    return max(-1.0, min(1.0, value))
