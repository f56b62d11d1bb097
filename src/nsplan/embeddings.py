"""Text embedding providers and cosine similarity.

Three providers share one small interface (``.dim``, ``.kind``,
``.embed(text) -> np.ndarray``):

* hash: seeded feature hashing of lowercase word unigrams and bigrams.
  Buckets and signs come from a blake2b digest of "<seed>|<feature>", so
  vectors are stable across processes (the builtin ``hash`` is salted and
  would not be).
* table: exact rows loaded from a JSONL file, L2-normalized at load; a row
  holding NaN or an infinity is a bad line of the file. A missing text falls
  back to an internal hash provider and the miss is counted under a lock.
* remote: POST {"input": [text]} to an embedding service; results are
  memoized per exact input text.

``embed`` refuses a vector of non-finite norm and hands out every non-zero
vector L2-normalized; the empty string embeds to the zero vector, and any
cosine against it is 0. ``best_row`` finds the row of a matrix of such
vectors nearest a query with one matrix-vector product, as a row scan would.
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


def _features(text):
    toks = tokenize(text)
    return toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]


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
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


class TableEmbedding:
    """Lookup provider over a JSONL file of {"text": ..., "vector": [...]}.

    Rows are L2-normalized once at load. Texts absent from the table embed
    through a hash fallback of the same dimension; ``miss_count`` counts
    every fallback.
    """

    kind = "table"

    def __init__(self, path=None, rows=None):
        table = {}
        if path is not None:
            table.update(read_lines(path, _table_row, InputError))
        if rows:
            for text, vector in rows.items():
                table[text] = np.asarray(vector, dtype=np.float64)
        if not table:
            raise ValueError("embedding table is empty")
        dims = {v.shape[0] for v in table.values()}
        if len(dims) != 1:
            raise ValueError(f"table rows disagree on dimension: {sorted(dims)}")
        (self.dim,) = dims
        for text, vec in table.items():
            norm = np.linalg.norm(vec)
            if norm > 0:
                table[text] = vec / norm
        self._table = table
        self._fallback = HashEmbedding(dim=self.dim)
        self.miss_count = 0
        self._lock = threading.Lock()  # threads of a --jobs run share one provider

    def embed(self, text):
        row = self._table.get(text)
        if row is not None:
            return row.copy()
        with self._lock:
            self.miss_count += 1
        return self._fallback.embed(text)


def _table_row(line):
    obj = json.loads(line)
    text, vector = obj["text"], np.asarray(obj["vector"], dtype=np.float64)
    if not isinstance(text, str) or vector.ndim != 1:
        raise ValueError('expected {"text": str, "vector": [number, ...]}')
    if not np.isfinite(vector).all():
        raise ValueError(f"vector of {text!r} holds NaN or an infinity")
    return text, vector


class RemoteEmbedding:
    """HTTP provider speaking {"input": [texts]} -> {"data": [{"embedding"}]}.

    Responses are cached by exact input text behind a lock, so repeated
    embeds of one string cost one request.
    """

    kind = "remote"

    def __init__(self, endpoint, dim, api_key=None, timeout=30.0, transport=None):
        self.endpoint = endpoint
        self.dim = dim
        self.api_key = api_key
        self.timeout = timeout
        self._transport = transport
        self._cache = {}
        self._lock = threading.Lock()

    def embed(self, text):
        with self._lock:
            cached = self._cache.get(text)
        if cached is not None:
            return cached.copy()
        body = _http.post_json(
            self.endpoint, {"input": [text]}, api_key=self.api_key, timeout=self.timeout, transport=self._transport
        )
        try:
            raw = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError):
            raise TransportError(
                "embedding response missing data[0].embedding", endpoint=self.endpoint
            )
        vec = np.asarray(raw, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise TransportError(
                f"embedding has dimension {vec.shape}, expected ({self.dim},)",
                endpoint=self.endpoint,
            )
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        with self._lock:
            self._cache[text] = vec
        return vec.copy()


def embed(provider, text):
    """Embed through any provider, enforcing the vector contract: float64,
    correct dimension, finite norm, and unit L2 norm (or exactly zero)."""
    vec = np.asarray(provider.embed(text), dtype=np.float64)
    if vec.shape != (provider.dim,):
        raise ValueError(f"provider returned shape {vec.shape}, expected ({provider.dim},)")
    norm = np.linalg.norm(vec)
    if not math.isfinite(norm):
        raise ValueError(f"provider returned a vector of norm {norm} for {text!r}")
    if norm > 0 and abs(norm - 1.0) > 1e-9:
        vec = vec / norm
    return vec


SHORTLIST_MARGIN = 1e-9


def best_row(query, matrix, keys):
    """Return (index, cosine) of the row of ``matrix`` closest to ``query``,
    ties broken by the smallest ``keys[index]``, bit-equal to a scan of every
    row in order that takes float(np.dot(query, row)) clamped to [-1, 1],
    or 0 when the query or the row is zero.

    One ``matrix @ query`` scores every row; only the rows whose clamped
    score lies within SHORTLIST_MARGIN of the best are re-scored row by row.
    Query and rows must be finite with norm at most 1 + 1e-9, as ``embed``
    hands them out, so either sum of a row lies within about d * 2**-53
    (3e-14 for d = 256) of the exact dot product, far inside the margin: the
    scan's winner, and every row tied with it, is always on the shortlist. A
    zero row scores exactly 0 both ways, and a zero query shortlists every
    row.
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
