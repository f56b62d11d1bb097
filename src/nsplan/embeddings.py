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

Callers embed through ``embed_rows`` (rows of the vector store),
``embed_many`` (a matrix) or ``embed`` (one vector), which hold the
vector contract: see ``embed_rows``. The empty string embeds to zero,
and any cosine against a zero vector is 0. Two callers score many such
vectors against one with sums of products in some order and rest on one
premise: the vectors have norm 1 to within rounding, so such a sum lies
within about d * 2**-53 of the exact score, far inside
``SHORTLIST_MARGIN`` (1e-9). ``best_rows`` finds the row nearest each of
a batch of queries with matrix-vector products, as a row scan would,
re-scoring only the entries within the margin of each best.
``adaption.adapt_weights`` scores its tails with one gather over their
rows in the vector store and takes the exact cosine only for the tails
whose score plus the margin clears its gates.

``cosine``'s arithmetic lives in one place. ``cosine(a, b)`` checks its
arguments and takes the two norms, ``np.linalg.norm`` of each; then
``cosine_of_dot(np.dot(a, b), na, nb)`` gives 0 when either norm is 0,
else the dot over the product of the norms, clamped to [-1, 1]. Callers
that score one vector many times keep its norm: ``row_norms`` takes
``np.linalg.norm`` of each row of a matrix, one call per row (a norm over
an axis sums the squares in another order), so a stored norm is the one
``cosine`` would take. The vector store keeps each row's norm and the
token table each token's, and adaption and the metrics score a pair with
``cosine_of_dot`` over them, bit-equal to ``cosine``.

Each provider has one ``VectorStore`` (held weakly, so a provider must be
hashable and weak-referenceable), the only copy of its unit vectors, in
compressed rows as in Saad, *Iterative Methods for Sparse Linear Systems*
(2003), section 3.4: a dict from text to row, and flat arrays of row
offsets, norms, and the float64 values and int32 dimensions of the
entries whose bits are not all zero (``-0.0`` included), so a row rebuilt
into zeros is the first result bit for bit. Plans that share a provider
embed a repeated text without asking the provider again, and adaption
reads a graph's tails from the same rows by node id. The store is bounded
by the bytes its texts and arrays hold (``MEMO_BUDGET_BYTES``): an insert
that would go over the budget clears it first, the rule of ``Memo``,
which ``admissible`` keeps for its translations and ``kg`` for its
sampled balls. ``memo_counts`` reports the hits and misses: each text
asked for, alone or in a batch, is one of them, exactly, under threads
too; a miss is a text the store did not hold, which the provider was
asked to embed. ``memo_clears`` reports how many times the store cleared.

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
    every fallback. Through ``embed``, whose store answers a repeated text,
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

    Each call is one request; the vector store spares the repeats. An
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


def positions(start, length):
    """The positions start[i] .. start[i] + length[i] - 1 of every slice i,
    in one array: the entries of compressed rows, or a graph's edge slices."""
    end = np.cumsum(length)
    return np.arange(end[-1] if len(end) else 0) + np.repeat(start - (end - length), length)


class VectorStore:
    """One provider's unit vectors in compressed rows, with their norms.

    ``index`` maps each text held to its row. ``state`` is ``(clears,
    indptr, norms, values, dims)``, published by one store: row r's entries
    whose bits are not all zero are ``values[indptr[r]:indptr[r + 1]]`` at
    the dimensions ``dims[indptr[r]:indptr[r + 1]]``, every other entry is
    +0.0, ``norms[r]`` is ``row_norms`` of the row, and ``clears`` counts
    the clears before this state. Past the rows held the arrays are spare;
    a held row never changes. ``lock`` guards ``index``, the counts and
    every write.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.hits = self.misses = 0
        self._clear(0)

    def _clear(self, clears):
        self.index, self.text_bytes = {}, 0
        self.state = (clears, np.zeros(1, np.int64), np.empty(0), np.empty(0), np.empty(0, np.int32))

    def insert(self, texts, units):
        """The rows of ``texts``, distinct, once each is held. The rows of
        ``units`` (unit vectors) of the texts not held are appended in one
        pass; when they would take the store past ``MEMO_BUDGET_BYTES`` it is
        cleared first and every one of ``texts`` is appended. The caller
        holds ``lock``."""
        new = [i for i, text in enumerate(texts) if text not in self.index]
        if new and not self._append([texts[i] for i in new], units[new]):
            self._clear(self.state[0] + 1)
            self._append(texts, units)
        return np.fromiter(map(self.index.__getitem__, texts), np.int64, len(texts))

    def _append(self, texts, units):
        """Append ``units`` as the rows of ``texts``, none held, and return
        True; or, when the store holds rows and would pass the budget, write
        nothing and return False. An array too small is copied into one
        twice as long, or as long as the budget allows, or as long as it
        must be. Entries and norms are written, and the state published,
        before ``index`` names a new row."""
        clears, *arrays = self.state
        held = units.view(np.int64) != 0  # -0.0 has a set bit
        at, dims = np.nonzero(held)
        size, used = len(self.index), int(arrays[0][len(self.index)])
        start = (size + 1, size, used, used)  # of indptr, norms, values and dims
        stop = [n + k for n, k in zip(start, (len(texts), len(texts), len(at), len(at)))]
        text_bytes = self.text_bytes + sum(map(sys.getsizeof, texts))
        spare = MEMO_BUDGET_BYTES - text_bytes - sum(max(len(a), n) * a.itemsize for a, n in zip(arrays, stop))
        if size and spare < 0:
            return False
        for k, (a, n) in enumerate(zip(arrays, stop)):
            if n > len(a):
                cap = max(n, min(2 * len(a), n + spare // a.itemsize))
                spare -= (cap - n) * a.itemsize
                arrays[k] = np.empty(cap, a.dtype)
                arrays[k][:start[k]] = a[:start[k]]
        indptr, norms, values, dims_of = arrays
        values[used:stop[2]] = units[held]
        dims_of[used:stop[3]] = dims
        norms[size:stop[1]] = row_norms(units)
        indptr[size + 1:stop[0]] = used + np.bincount(at, minlength=len(texts)).cumsum()
        self.state = (clears, *arrays)
        self.text_bytes = text_bytes
        self.index.update(zip(texts, range(size, stop[1])))
        return True


_STORES = weakref.WeakKeyDictionary()  # provider -> its VectorStore
_STORES_LOCK = threading.Lock()


def vector_store(provider):
    """``provider``'s ``VectorStore``, made empty on first use."""
    store = _STORES.get(provider)
    if store is None:
        with _STORES_LOCK:
            store = _STORES.setdefault(provider, VectorStore())
    return store


def memo_counts(provider):
    """{"hits": ..., "misses": ...} of the texts asked of ``provider``'s store."""
    store = vector_store(provider)
    with store.lock:
        return {"hits": store.hits, "misses": store.misses}


def memo_clears(provider):
    """How many times ``provider``'s store cleared at its budget."""
    return vector_store(provider).state[0]


# Norms whose sum of squares is good to rounding: underflow lost under an ulp of it, nothing overflowed
_TRUSTED_NORMS = (math.sqrt(np.finfo(float).tiny / np.finfo(float).eps), math.sqrt(np.finfo(float).max))


def embed_rows(provider, texts):
    """(state, rows, matrix): a ``state`` of ``provider``'s store that holds
    every one of ``texts``, ``rows[i]`` the row of ``texts[i]`` in it, and,
    when the call asked the provider, the fresh (len(texts), dim) matrix of
    the texts' vectors it built on the way, else None.

    Each distinct text the store lacks is a miss: the provider is asked for
    it once, in order of first appearance, and its vector must have the
    provider's dimension. Once the calls are made, each vector, which must
    have no NaN or infinite entry, is L2-normalized (divided by its largest
    magnitude first if its norm is outside ``_TRUSTED_NORMS``), or left
    zero. The misses are stored with one insert, which holds the batch's
    hits too, so a clear keeps every row returned; the calls are counted
    under the same lock. Every other text counts as a hit once every miss
    is made: a batch that raises counts only the provider calls made, and
    keeps the vectors normalized before the first that failed.
    """
    store = vector_store(provider)
    with store.lock:
        rows = list(map(store.index.get, texts, itertools.repeat(-1)))
        state = store.state
        if -1 not in rows:
            store.hits += len(texts)
            return state, np.array(rows, np.int64), None
    found = dict(zip(texts, rows))  # each distinct text, in order of first appearance -> its row or -1
    batch, found = list(found), list(found.values())
    units = np.zeros((len(batch), provider.dim))
    hits = [i for i, row in enumerate(found) if row >= 0]
    if hits:
        units[hits] = _rebuilt(state, np.array(found)[hits], provider.dim)
    misses = [i for i, row in enumerate(found) if row < 0]
    vectors, calls, made = [], 0, 0
    try:
        try:
            for i in misses:
                calls += 1
                vec = np.asarray(provider.embed(batch[i]), dtype=np.float64)
                if vec.shape != (provider.dim,):
                    raise ValueError(f"provider returned shape {vec.shape}, expected ({provider.dim},)")
                vectors.append(vec)
        finally:  # the vectors made are normalized even when a call raised
            with np.errstate(over="ignore"):  # a sum of squares past the float range is scaled below
                for i, vec in zip(misses, vectors):
                    norm = np.linalg.norm(vec)
                    if not _TRUSTED_NORMS[0] <= norm <= _TRUSTED_NORMS[1]:  # zero and NaN too
                        if not np.isfinite(vec).all():
                            raise ValueError(f"provider returned a vector of norm {norm} for {batch[i]!r}")
                        if vec.any():
                            vec = vec / np.abs(vec).max()
                            norm = np.linalg.norm(vec)
                    if norm > 0:
                        units[i] = vec / norm
                    made += 1
    except BaseException:
        with store.lock:
            store.misses += calls
            store.insert([batch[i] for i in misses[:made]], units[misses[:made]])
        raise
    with store.lock:
        held = store.insert(batch, units)
        store.misses += calls
        store.hits += len(texts) - len(misses)
        state = store.state
    if len(batch) < len(texts):  # a text repeats
        slot = list(map(dict(zip(batch, itertools.count())).__getitem__, texts))
        held, units = held[slot], units[slot]
    return state, held, units


def _rebuilt(state, rows, dim):
    """The (len(rows), dim) matrix of ``rows`` of ``state``, bit for bit."""
    _, indptr, _, values, dims = state
    start = indptr[rows]
    length = indptr[rows + 1] - start
    at = positions(start, length)
    out = np.zeros((len(rows), dim))
    out[np.repeat(np.arange(len(rows)), length), dims[at]] = values[at]
    return out


def embed_many(provider, texts):
    """The (len(texts), dim) matrix whose row i is ``embed`` of ``texts[i]``:
    the one ``embed_rows`` built, or else rebuilt from the store with one
    scatter."""
    state, rows, matrix = embed_rows(provider, texts)
    return _rebuilt(state, rows, provider.dim) if matrix is None else matrix


def embed(provider, text):
    """``embed_many`` of one text: ``provider``'s unit vector of ``text``,
    held to the vector contract (see ``embed_rows``), as a fresh float64
    array, rebuilt from its row's slice of the store."""
    (_, indptr, _, values, dims), rows, _ = embed_rows(provider, [text])
    start, stop = indptr[rows[0]:rows[0] + 2].tolist()
    vec = np.zeros(provider.dim)
    vec[dims[start:stop]] = values[start:stop]
    return vec


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
