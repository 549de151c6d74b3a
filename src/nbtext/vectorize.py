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

    A token's id is its position in ``tokens``: dense, 0-based, assigned in order
    of first appearance over the training corpus. ``token_to_id``, the token -> id
    map, is the one training assigned the ids with, or else built from ``tokens``.
    """

    _shapes = {"tokens": list[str], "document_frequency": list[int], "total_documents": int}

    def _check(self):
        tokens, df, total = self._values()
        ids = self.__dict__.get("token_to_id")  # set first only by index_streams
        if ids is None:
            self.__dict__["token_to_id"] = ids = dict(zip(tokens, range(len(tokens))))
        if len(df) != len(ids):
            raise ValueError("document_frequency length must equal vocabulary size")
        if len(ids) != len(tokens):
            raise ValueError("vocabulary tokens must be distinct")
        counts = set(df)
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

    _shapes = {"entries": dict[int, int | float], "doc_length": int}

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
    # each list's distinct ids in first-appearance order: the counter meets them in id order
    df = Counter(chain.from_iterable(map(dict.fromkeys, id_lists)))
    # the vocabulary keeps this map, which holds the id lists' own ints; with no
    # factory, looking up an absent token raises KeyError and inserts nothing
    ids.default_factory = None
    vocab = Vocabulary.__new__(Vocabulary)
    vocab.__dict__["token_to_id"] = ids
    vocab.__init__(list(ids), list(df.values()), len(id_lists))
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
