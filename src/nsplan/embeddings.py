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
* remote: POST {"input": [text]} to an embedding service, one request per
  call; the provider keeps no cache of its own.

Callers embed through ``embed``, which holds the vector contract: it
refuses a vector of the wrong shape or with a NaN or infinite entry and
hands out a fresh float64 array, L2-normalized (tiny or huge entries are
scaled first), or zero for a zero vector (the empty string embeds to zero).
``embed_many(provider, texts)`` is its batch form: a (len(texts), dim)
matrix whose row i is bit-equal to ``embed`` of texts[i]; it unpacks the
memo hits together and hands each miss to ``embed``. Any cosine against a
zero vector is 0. Two callers score many such vectors against one with
sums of products in some order and rest on one premise: the vectors have
norm 1 to within rounding, so such a sum lies within about d * 2**-53 of
the exact score, far inside ``SHORTLIST_MARGIN`` (1e-9). ``best_rows``
finds the row nearest each of a batch of queries with matrix-vector
products, as a row scan would, re-scoring only the entries within the
margin of each best. ``adaption.adapt_weights`` scores the tails with one
gather over their stored nonzero entries, from a per-graph node store
that ``embed_many`` fills once per node and ``MEMO_BUDGET_BYTES`` bounds,
and takes the exact cosine only for the tails whose score plus the
margin clears its gates.

``cosine``'s arithmetic lives in one place. ``cosine(a, b)`` checks its
arguments and takes the two norms, ``np.linalg.norm`` of each; then
``cosine_of_dot(np.dot(a, b), na, nb)`` gives 0 when either norm is 0,
else the dot over the product of the norms, clamped to [-1, 1]. Callers
that score one vector many times keep its norm: ``row_norms`` takes
``np.linalg.norm`` of each row of a matrix, one call per row (a norm over
an axis sums the squares in another order), so a stored norm is the one
``cosine`` would take. Adaption's exact pass keeps each node's norm in its
node store and the token table keeps each token's, and both score a pair
with ``cosine_of_dot``, bit-equal to ``cosine``.

``embed`` memoizes per provider (held weakly, so a provider must be hashable
and weak-referenceable). Each text maps to one ``bytes`` object: the float64
values of the normalized vector's entries whose bits are not all zero, then
their int64 indexes. A hit rebuilds the first result bit for bit,
``-0.0`` included, as a fresh array, so plans that share a provider embed
a repeated tail concept without asking the provider again. The memo is
bounded by the bytes its keys and entries hold (``MEMO_BUDGET_BYTES``): an
insert that would go over the budget clears it first (``Memo``, which
``admissible`` reuses for its translations and ``kg`` for its sampled
balls). ``memo_counts``
reports the hits and misses: each text asked for, through ``embed`` or
a batch, is one of them, exactly, under threads too. A miss is a text the
memo did not hold, which the provider was asked to embed. ``memo_clears``
reports how many times the memo cleared at its budget.

``token_table`` keeps a second per-provider store, also held weakly, for
the metrics, which score single tokens against each other. It holds each
token's vector, taken from ``embed_many``, with its ``row_norms`` norm,
and two tables over token pairs: ``cosine`` of the two vectors, scored by
``cosine_of_dot`` over the stored norms, and their Euclidean distance,
``np.sqrt`` of ``(d * d).sum()`` over ``d = a - b``. Both are symmetric
bit for bit, so a pair is scored with that arithmetic once, the first
time a caller asks for it in either order, and read back from either
cell after: a gathered block is bit-equal to scoring the pair of texts
directly, and a new token costs only the pairs asked for. The rows, their
norms and the tables grow by doubling their capacity and are bounded by
the same ``MEMO_BUDGET_BYTES``: an insert whose rows would not fit starts
a table of the caller's tokens alone. A grown table is
published whole, by one store, so a thread reads either the table before
an insert or the one after it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
import threading
import weakref

import numpy as np

from . import _http
from ._files import read_jsonl
from .entities import tokenize
from .errors import InputError, TransportError

DEFAULT_DIM = 256
TIMEOUT_S = 30.0
MEMO_BUDGET_BYTES = 32 * 2**20


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
    every fallback. Through ``embed``, whose memo answers a repeated text,
    it counts only the misses that reach the fallback.
    """

    kind = "table"

    def __init__(self, path):
        self.dim = 0
        self._table = dict(read_jsonl(path, self._row))
        if not self._table:
            raise InputError(f"{path}: embedding table is empty")
        self._fallback = HashEmbedding(dim=self.dim)
        self.miss_count = 0
        self._lock = threading.Lock()  # threads of a --jobs run share one provider

    def _row(self, obj):
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

    Each call is one request; ``embed``'s memo spares the repeats. An
    embedding that is not a list of ``dim`` numbers is a TransportError
    naming the endpoint.
    """

    kind = "remote"

    def __init__(self, endpoint, dim, api_key=None):
        self.endpoint = endpoint
        self.dim = dim
        self.api_key = api_key

    def embed(self, text):
        body = _http.post_json(self.endpoint, {"input": [text]}, api_key=self.api_key, timeout=TIMEOUT_S)
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
        return vec


class Memo:
    """Texts -> entries, with their byte total, the hit and miss counts and
    the count of clears, all guarded by ``lock`` (threads of a --jobs run
    share one memo)."""

    def __init__(self, lock):
        self.entries = {}
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self.clears = 0
        self.lock = lock

    def insert(self, text, entry, cost):
        """Store ``entry`` for ``text`` unless it is held already, at ``cost``
        bytes; clear the memo first, and count the clear, when it would go
        over ``MEMO_BUDGET_BYTES``. The caller holds ``lock``."""
        if self.entries and self.nbytes + cost > MEMO_BUDGET_BYTES:
            self.entries.clear()
            self.nbytes = 0
            self.clears += 1
        if self.entries.setdefault(text, entry) is entry:
            self.nbytes += cost

    def counts(self):
        with self.lock:
            return {"hits": self.hits, "misses": self.misses}


_MEMOS = weakref.WeakKeyDictionary()
_MEMOS_LOCK = threading.Lock()


def _memo(provider):
    memo = _MEMOS.get(provider)
    if memo is None:
        with _MEMOS_LOCK:
            memo = _MEMOS.setdefault(provider, Memo(threading.Lock()))
    return memo


def memo_counts(provider):
    """{"hits": ..., "misses": ...} of ``embed``'s memo for ``provider``."""
    return _memo(provider).counts()


def memo_clears(provider):
    """How many times ``embed``'s memo for ``provider`` cleared at its budget."""
    return _memo(provider).clears


# Norms whose sum of squares is good to rounding: underflow lost under an ulp of it, nothing overflowed
_TRUSTED_NORMS = (math.sqrt(np.finfo(float).tiny / np.finfo(float).eps), math.sqrt(np.finfo(float).max))


def embed(provider, text):
    """Embed through any provider, enforcing the vector contract: a fresh
    float64 array of the provider's dimension, L2-normalized (divided by its
    largest magnitude first if its norm is outside ``_TRUSTED_NORMS``), or
    zero when the provider's vector is zero. A NaN or infinite entry is
    refused. A repeated text is answered from the memo, bit-equal to its
    first result."""
    memo = _memo(provider)
    with memo.lock:
        entry = memo.entries.get(text)
        if entry is None:
            memo.misses += 1
        else:
            memo.hits += 1
    if entry is not None:
        packed = np.frombuffer(entry, np.float64)
        n = len(packed) // 2
        vec = np.zeros(provider.dim)
        vec[packed[n:].view(np.int64)] = packed[:n]
        return vec
    vec = np.asarray(provider.embed(text), dtype=np.float64)
    if vec.shape != (provider.dim,):
        raise ValueError(f"provider returned shape {vec.shape}, expected ({provider.dim},)")
    with np.errstate(over="ignore"):  # a sum of squares past the float range is scaled below
        norm = np.linalg.norm(vec)
    if not _TRUSTED_NORMS[0] <= norm <= _TRUSTED_NORMS[1]:  # zero and NaN too
        if not np.isfinite(vec).all():
            raise ValueError(f"provider returned a vector of norm {norm} for {text!r}")
        if vec.any():
            vec = vec / np.abs(vec).max()
            norm = np.linalg.norm(vec)
    unit = vec / norm if norm > 0 else np.zeros(provider.dim)
    index = np.flatnonzero(unit.view(np.int64))  # -0.0 has a set bit
    entry = unit[index].tobytes() + index.astype(np.int64, copy=False).tobytes()
    cost = sys.getsizeof(text) + sys.getsizeof(entry)
    with memo.lock:
        memo.insert(text, entry, cost)
    return unit


def embed_many(provider, texts):
    """The (len(texts), dim) matrix whose row i is bit-equal to
    ``embed(provider, texts[i])``.

    The memo hits are unpacked together: their packed bytes are joined and
    scattered into a zero matrix at once. Each miss goes through ``embed``,
    which counts it. Every text counts once, as a hit or a miss: the hits
    found here are counted after every miss is embedded, so a batch that
    raises counts only the ``embed`` calls it made.
    """
    memo = _memo(provider)
    with memo.lock:
        entries = [memo.entries.get(text) for text in texts]
    out = np.zeros((len(entries), provider.dim))
    hits = []
    for i, entry in enumerate(entries):
        if entry is None:
            out[i] = embed(provider, texts[i])
        else:
            hits.append(i)
    if hits:
        found = [entries[i] for i in hits]
        words = np.fromiter(map(len, found), np.int64, len(found)) // 8  # n values, then n indexes
        packed = np.frombuffer(b"".join(found), np.float64)
        offset = np.arange(len(packed)) - np.repeat(np.cumsum(words) - words, words)  # within its entry
        is_value = offset < np.repeat(words // 2, words)
        out[np.repeat(hits, words)[is_value], packed.view(np.int64)[~is_value]] = packed[is_value]
    with memo.lock:
        memo.hits += len(hits)
    return out


SHORTLIST_MARGIN = 1e-9


def best_rows(queries, matrix, keys):
    """For each row of ``queries``, (index, cosine) of the row of ``matrix``
    closest to it, ties broken by the smallest ``keys[index]``, bit-equal to
    a scan of every row in order that takes float(np.dot(query, row))
    clamped to [-1, 1], or 0 when the query or the row is zero.

    One ``matrix @ query`` per query scores every row; only the rows whose
    clamped score lies within SHORTLIST_MARGIN of the best are re-scored row
    by row. (One ``queries @ matrix.T`` for the whole batch is a matrix
    product that OpenBLAS spreads over its worker threads: over a 480-step,
    256-dimension set on two cores it doubled the CPU time of a first pass
    over 400 plans and saved no wall time, where the matrix-vector products
    kept CPU time equal to wall time.) Queries and rows must be finite with
    norm at most
    1 + 1e-9; ``embed`` hands out norm 1 to within rounding, or 0. So any sum
    of products lies within about d * 2**-53 (3e-14 for d = 256) of the exact
    dot product, far inside the margin: the scan's winner, and every row
    tied with it, is always on the shortlist. A zero row scores exactly 0
    both ways, and a zero query shortlists every row.
    """
    out = []
    for query in queries:
        clamped = np.clip(matrix @ query, -1.0, 1.0)
        nonzero_query = query.any()
        best, best_cos = None, None
        for i in np.flatnonzero(clamped >= clamped.max() - SHORTLIST_MARGIN):
            vec = matrix[i]
            cos = max(-1.0, min(1.0, float(np.dot(query, vec)))) if nonzero_query and vec.any() else 0.0
            if best is None or cos > best_cos or (cos == best_cos and keys[i] < keys[best]):
                best, best_cos = i, cos
        out.append((int(best), best_cos))
    return out


def cosine(a, b):
    """Cosine similarity in [-1, 1]; 0 when either vector is zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return cosine_of_dot(np.dot(a, b), np.linalg.norm(a), np.linalg.norm(b))


def cosine_of_dot(dot, na, nb):
    """``cosine``'s arithmetic given ``dot``, ``np.dot(a, b)`` (a float64
    scalar, so a zero product of norms divides as numpy does), and the two
    norms: 0 when either norm is 0, else their quotient clamped to [-1, 1]."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(dot / (na * nb))
    return max(-1.0, min(1.0, value))


def row_norms(rows):
    """``np.linalg.norm`` of each row of ``rows``, one call per row, as a
    float64 array: bit-equal to the norm ``cosine`` takes of that row.
    (``np.linalg.norm(rows, axis=1)`` sums the squares in another order
    and can give other bits.)"""
    return np.fromiter((np.linalg.norm(row) for row in rows), np.float64, len(rows))


class TokenTable:
    """One provider's tokens and the scores of the token pairs asked for so
    far. ``index`` maps a token to its row of ``vectors``, and ``norms[i]``
    is ``row_norms`` of row ``i``, the norm ``cosine`` would take of it;
    ``cos[i, j]`` is ``cosine`` of row ``i``'s vector and row ``j``'s, and
    ``dist[i, j]`` their Euclidean distance, both symmetric, or NaN while no
    caller has asked for the pair. Rows from ``len(index)`` on are spare
    capacity. Threads that score one pair at once write the same bits, so
    filling a pair, ``[i, j]`` and ``[j, i]``, needs no lock."""

    def __init__(self, index, vectors, norms, cos, dist):
        self.index = index
        self.vectors = vectors
        self.norms = norms
        self.cos = cos
        self.dist = dist
        # next() is atomic, so one insert alone may fill the spare rows in place
        self.spare_claims = itertools.count()

    def cosines(self, a, b):
        """``cosine`` of each row in ``a`` with each row in ``b``, as a fresh
        array; each unordered pair is computed once, by ``cosine_of_dot``
        over the stored norms, then read from ``cos``."""
        block = self.cos[np.ix_(a, b)]
        vectors, norms = self.vectors, self.norms
        for i, j in zip(*np.nonzero(np.isnan(block))):
            p, q = a[i], b[j]
            if math.isnan(self.cos[p, q]):  # not filled above as the mirror of another cell
                self.cos[p, q] = self.cos[q, p] = cosine_of_dot(np.dot(vectors[p], vectors[q]), norms[p], norms[q])
            block[i, j] = self.cos[p, q]
        return block

    def distances(self, a, b):
        """The Euclidean distance of each row in ``a`` to each row in ``b``,
        as a fresh array. A row of the block with a pair not asked for
        before is computed whole, over ``d = a - b``, into its row and column."""
        block = self.dist[np.ix_(a, b)]
        for i in np.flatnonzero(np.isnan(block).any(axis=1)):
            d = self.vectors[a[i]] - self.vectors[b]
            block[i] = self.dist[a[i], b] = self.dist[b, a[i]] = np.sqrt((d * d).sum(axis=1))
        return block


_TABLES = weakref.WeakKeyDictionary()


def _empty_table(dim):
    return TokenTable({}, np.zeros((0, dim)), np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))


def token_table(provider, tokens):
    """A ``TokenTable`` of ``provider`` that holds every one of ``tokens``.

    Missing tokens are embedded before anything is written, so a provider
    that fails leaves the table as it was. Their vectors then go to spare
    rows: in place when the capacity suffices and no other insert has
    claimed those rows, else into a copy twice as large, or as large as
    ``MEMO_BUDGET_BYTES`` allows. When even that is too small the new table
    holds ``tokens`` alone. The result is stored with one assignment, and
    its first ``len(index)`` rows never change but for NaN scores filled in.
    """
    dim = provider.dim
    table = _TABLES.get(provider) or _empty_table(dim)
    tokens = list(dict.fromkeys(tokens))
    new = [t for t in tokens if t not in table.index]
    if not new:
        return table
    # the most rows whose arrays, 8 * fit * (2 * fit + dim + 1) bytes, stay within the budget
    fit = (math.isqrt((dim + 1) ** 2 + MEMO_BUDGET_BYTES) - dim - 1) // 4
    if len(table.index) + len(new) > fit:
        table, new = _empty_table(dim), tokens
    vectors = embed_many(provider, new)
    size, need = len(table.index), len(table.index) + len(new)
    if need <= len(table.vectors) and next(table.spare_claims) == 0:
        rows, norms, cos, dist = table.vectors, table.norms, table.cos, table.dist
    else:
        cap = max(need, min(2 * len(table.vectors), fit))
        rows, norms = np.zeros((cap, dim)), np.zeros(cap)
        cos, dist = np.full((cap, cap), np.nan), np.full((cap, cap), np.nan)
        rows[:size] = table.vectors[:size]
        norms[:size] = table.norms[:size]
        cos[:size, :size] = table.cos[:size, :size]
        dist[:size, :size] = table.dist[:size, :size]
    rows[size:need] = vectors
    norms[size:need] = row_norms(vectors)
    table = TokenTable({**table.index, **dict(zip(new, range(size, need)))}, rows, norms, cos, dist)
    _TABLES[provider] = table
    return table
