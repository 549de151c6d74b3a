"""Bag-of-words vectorization: vocabulary building and sparse weighting.

Weighting modes: binary presence, raw term counts, length-normalized term
frequency, and tf-idf (normalized tf times inverse document frequency).
Out-of-vocabulary tokens never enter a vector's entries but still count
toward its doc_length, so normalized tf uses the true document length.
"""

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List

__all__ = [
    "BINARY",
    "RAW_COUNT",
    "NORMALIZED_TF",
    "TFIDF",
    "WEIGHTING_MODES",
    "Vocabulary",
    "SparseVector",
    "build_vocabulary",
    "vectorize",
    "idf",
    "dump_vocabulary",
]

BINARY = "binary"
RAW_COUNT = "raw_count"
NORMALIZED_TF = "normalized_tf"
TFIDF = "tfidf"
WEIGHTING_MODES = (BINARY, RAW_COUNT, NORMALIZED_TF, TFIDF)


@dataclass(frozen=True)
class Vocabulary:
    """Token/id bijection with per-token document frequencies.

    Ids are dense, 0-based, assigned in order of first appearance while
    scanning the training corpus document by document.
    """

    token_to_id: Dict[str, int]
    document_frequency: List[int]
    total_documents: int

    def __post_init__(self):
        n, df, total = len(self.token_to_id), self.document_frequency, self.total_documents
        if len(df) != n:
            raise ValueError("document_frequency length must equal vocabulary size")
        if not all(map(operator.eq, sorted(self.token_to_id.values()), range(n))):
            raise ValueError(f"token ids must be 0..{n - 1}, each once")
        if not set(map(type, self.token_to_id)) <= {str}:
            raise ValueError("vocabulary tokens must be strings")
        if type(total) is not int or not set(map(type, df)) <= {int}:
            raise ValueError("document frequencies and total_documents must be ints")
        if df and not 1 <= min(df) <= max(df) <= total:
            raise ValueError(f"document frequencies must lie between 1 and {total}")

    def __len__(self):
        return len(self.token_to_id)

    def __contains__(self, token):
        return token in self.token_to_id

    def id_to_token(self) -> List[str]:
        out = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            out[i] = tok
        return out


@dataclass(frozen=True)
class SparseVector:
    """One vectorized document: id -> weight, zeros absent.

    doc_length is the total token count of the source stream, including
    out-of-vocabulary tokens that were dropped from entries.
    """

    entries: Dict[int, float]
    doc_length: int

    def __post_init__(self):
        if not all(0 < v < math.inf for v in self.entries.values()):
            raise ValueError("sparse vector entries must be finite and strictly positive")
        if self.doc_length < 0:
            raise ValueError("doc_length must be nonnegative")


def build_vocabulary(corpus: Iterable[list]) -> Vocabulary:
    """Scan token streams, assigning ids by first appearance and counting
    per-token document frequency (documents, not occurrences)."""
    token_to_id: Dict[str, int] = {}
    df: List[int] = []
    n_docs = 0
    for n_docs, stream in enumerate(corpus, start=1):
        for tok in dict.fromkeys(stream):
            i = token_to_id.setdefault(tok, len(df))
            if i == len(df):
                df.append(0)
            df[i] += 1
    if n_docs == 0:
        raise ValueError("corpus must be non-empty")
    return Vocabulary(token_to_id, df, n_docs)


def idf(vocab: Vocabulary, token_id: int) -> float:
    """Natural-log inverse document frequency, ln(n_docs / df)."""
    if not 0 <= token_id < len(vocab.document_frequency):
        raise ValueError(f"unknown token id: {token_id}")
    return math.log(vocab.total_documents / vocab.document_frequency[token_id])


def vectorize(stream: list, vocab: Vocabulary, mode: str) -> SparseVector:
    """Convert a token stream to a sparse vector under the given weighting.

    Tokens absent from the vocabulary are skipped; doc_length still counts
    them. tf-idf entries that come out exactly zero (a term present in every
    training document) are dropped to keep entries strictly positive.
    """
    if mode not in WEIGHTING_MODES:
        raise ValueError(f"unknown weighting mode: {mode!r}")
    n_d = len(stream)
    counts = Counter(map(vocab.token_to_id.get, stream))
    counts.pop(None, None)  # out-of-vocabulary tokens
    if mode == BINARY:
        entries = dict.fromkeys(counts, 1)
    elif mode == RAW_COUNT:
        entries = dict(counts)
    elif mode == NORMALIZED_TF:
        entries = {i: tf / n_d for i, tf in counts.items()}
    else:
        entries = {i: w for i, tf in counts.items() if (w := (tf / n_d) * idf(vocab, i)) > 0}
    return SparseVector(entries, n_d)


def dump_vocabulary(vocab: Vocabulary) -> str:
    """Render "id<TAB>token<TAB>document_frequency" lines, ids ascending."""
    tokens = vocab.id_to_token()
    lines = [
        f"{i}\t{tokens[i]}\t{vocab.document_frequency[i]}" for i in range(len(tokens))
    ]
    return "\n".join(lines)
