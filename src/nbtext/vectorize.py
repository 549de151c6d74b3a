"""Bag-of-words vectorization: vocabulary building and sparse weighting.

Weighting modes: binary presence, raw term counts, length-normalized term
frequency, and tf-idf (normalized tf times inverse document frequency).
Out-of-vocabulary tokens never enter a vector's entries but still count
toward its doc_length, so normalized tf uses the true document length.
``index_streams`` and ``weigh`` are the counting and weighting steps
that ``build_vocabulary`` and ``vectorize`` share with ``archive.train``.
"""

import math
from collections import Counter, _count_elements, defaultdict
from collections.abc import Iterable
from functools import cached_property
from itertools import chain, count

from .record import Record

__all__ = [
    "BINARY",
    "RAW_COUNT",
    "NORMALIZED_TF",
    "TFIDF",
    "WEIGHTING_MODES",
    "Vocabulary",
    "SparseVector",
    "index_streams",
    "build_vocabulary",
    "weigh",
    "vectorize",
    "dump_vocabulary",
]

BINARY = "binary"
RAW_COUNT = "raw_count"
NORMALIZED_TF = "normalized_tf"
TFIDF = "tfidf"
WEIGHTING_MODES = (BINARY, RAW_COUNT, NORMALIZED_TF, TFIDF)


class Vocabulary(Record):
    """Tokens in id order with per-token document frequencies.

    A token's id is its position in ``tokens``: dense, 0-based, assigned in
    order of first appearance while scanning the training corpus document by
    document. ``token_to_id``, the token -> id map, is built with the record.
    """

    _fields = ("tokens", "document_frequency", "total_documents")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds token_to_id and the cached idf_table

    def _check(self):
        tokens, df, total = self._values()
        if type(tokens) is not list:  # zip would take a str's characters
            raise ValueError("vocabulary tokens must be a list")
        self.__dict__["token_to_id"] = ids = dict(zip(tokens, range(len(tokens))))
        if len(df) != len(ids):
            raise ValueError("document_frequency length must equal vocabulary size")
        if len(ids) != len(tokens):
            raise ValueError("vocabulary tokens must be distinct")
        if not set(map(type, tokens)) <= {str}:
            raise ValueError("vocabulary tokens must be strings")
        if type(total) is not int or not set(map(type, df)) <= {int}:
            raise ValueError("document frequencies and total_documents must be ints")
        counts = set(df)  # after the type check, which tells 1 from 1.0 and True
        if counts and not 1 <= min(counts) <= max(counts) <= total:
            raise ValueError(f"document frequencies must lie between 1 and {total}")

    def __len__(self):
        return len(self.tokens)

    @cached_property
    def idf_table(self) -> list[float]:
        """ln(total_documents / df) per id, the log of each distinct df taken once."""
        total, df = self.total_documents, self.document_frequency
        logs = {n: math.log(total / n) for n in set(df)}
        return list(map(logs.__getitem__, df))


class SparseVector(Record):
    """One vectorized document: id -> weight, zeros absent.

    doc_length is the total token count of the source stream, including
    out-of-vocabulary tokens that were dropped from entries.
    """

    __slots__ = _fields = ("entries", "doc_length")

    def _check(self):
        if not all(0 < v < math.inf for v in self.entries.values()):
            raise ValueError("sparse vector entries must be finite and strictly positive")
        if self.doc_length < 0:
            raise ValueError("doc_length must be nonnegative")


def index_streams(streams: Iterable[list]) -> tuple[list[list[int]], Vocabulary]:
    """Each token stream as a list of vocabulary ids, and the vocabulary: ids go
    to tokens in order of first appearance, and each list's distinct ids count
    toward their document frequencies."""
    ids = defaultdict(count().__next__)
    id_lists = [list(map(ids.__getitem__, stream)) for stream in streams]
    if not id_lists:
        raise ValueError("corpus must be non-empty")
    df = Counter(chain.from_iterable(map(set, id_lists)))
    df = list(map(df.__getitem__, range(len(ids))))
    vocab = Vocabulary(list(ids), df, len(id_lists))
    # the map's ids as the int objects that the id lists, and so the model's
    # keys, hold: the vocabulary keeps no second int per token
    vocab.token_to_id.update(ids)
    return id_lists, vocab


def build_vocabulary(corpus: Iterable[list]) -> Vocabulary:
    """Scan token streams, assigning ids by first appearance and counting
    per-token document frequency (documents, not occurrences)."""
    return index_streams(corpus)[1]


def weigh(
    ids: Iterable[int | None], n_d: int, vocab: Vocabulary, mode: str
) -> dict[int, float]:
    """One document's entries under ``mode``: its vocabulary ids (None for an
    out-of-vocabulary token) in order of first appearance, each with its
    weight. ``n_d`` is the document's token count, out-of-vocabulary tokens
    included. tf-idf weights that come out exactly zero (a term present in
    every training document) are dropped to keep entries strictly positive."""
    if mode not in WEIGHTING_MODES:
        raise ValueError(f"unknown weighting mode: {mode!r}")
    if mode == BINARY:
        counts = dict.fromkeys(ids, 1)
    else:  # Counter's own C counting loop, into a plain dict
        counts = {}
        _count_elements(counts, ids)
    counts.pop(None, None)
    if mode in (BINARY, RAW_COUNT):
        return counts
    if mode == NORMALIZED_TF:
        return {i: tf / n_d for i, tf in counts.items()}
    idf_of = vocab.idf_table
    return {i: w for i, tf in counts.items() if (w := (tf / n_d) * idf_of[i]) > 0}


def vectorize(stream: list, vocab: Vocabulary, mode: str) -> SparseVector:
    """Convert a token stream to a sparse vector under the given weighting
    (see ``weigh``); tokens absent from the vocabulary are skipped, and
    doc_length still counts them. tf-idf reads the vocabulary's idf table."""
    entries = weigh(map(vocab.token_to_id.get, stream), len(stream), vocab, mode)
    return SparseVector(entries, len(stream))


def dump_vocabulary(vocab: Vocabulary) -> str:
    """Render "id<TAB>token<TAB>document_frequency" lines, ids ascending."""
    rows = enumerate(zip(vocab.tokens, vocab.document_frequency))
    return "\n".join(f"{i}\t{token}\t{df}" for i, (token, df) in rows)
