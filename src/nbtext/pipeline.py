"""Text preprocessing: tokenization, stop words, stemming, n-grams; and the
line and corpus readers every input goes through.

Stages compose in a fixed order: tokenize -> stop-word removal -> Porter
stemming -> n-gram expansion. Every function is pure; configs and stop
lists are immutable once built.
"""

import io
import os
import unicodedata
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .porter import porter_stem
from .record import Record

__all__ = [
    "PipelineConfig",
    "StopList",
    "tokenize",
    "build_stop_list",
    "load_stop_list",
    "read_lines",
    "read_file_lines",
    "read_stdin_lines",
    "CorpusFormatError",
    "LabeledCorpus",
    "load_corpus",
    "load_row_corpus",
    "ngrams",
    "run_pipeline",
    "token_streams",
]

STOP_WORD_MODES = ("none", "dictionary", "frequency")


class PipelineConfig(Record):
    __slots__ = _fields = ("lowercase", "strip_punctuation", "stop_word_mode",
                           "frequency_top_n", "stemming", "ngram_size")
    _defaults = {"lowercase": True, "strip_punctuation": True, "stop_word_mode": "none",
                 "frequency_top_n": None, "stemming": False, "ngram_size": 1}

    def _check(self):
        for name in ("lowercase", "strip_punctuation", "stemming"):
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"{name} must be true or false")
        if type(self.ngram_size) is not int:
            raise ValueError("ngram_size must be an int")
        if self.frequency_top_n is not None and type(self.frequency_top_n) is not int:
            raise ValueError("frequency_top_n must be an int or null")
        if self.stop_word_mode not in STOP_WORD_MODES:
            raise ValueError(f"unknown stop_word_mode: {self.stop_word_mode!r}")
        if self.stop_word_mode == "frequency":
            if self.frequency_top_n is None or self.frequency_top_n < 1:
                raise ValueError("frequency stop-word mode needs frequency_top_n >= 1")
        if self.ngram_size < 1:
            raise ValueError("ngram_size must be >= 1")


class StopList(Record):
    __slots__ = _fields = ("words", "origin")
    _defaults = {"words": frozenset(), "origin": "dictionary"}

    def _check(self):
        if not all(type(w) is str and w for w in self.words):
            raise ValueError("stop words must be non-empty strings")
        if type(self.origin) is not str:
            raise ValueError("stop list origin must be a string")


def _strip_boundary_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def _clean(pieces: list, config: PipelineConfig) -> list:
    """Each whitespace piece as its token, in order: boundary punctuation
    trimmed and lowercased as ``config`` asks; "" if trimming empties it."""
    if config.strip_punctuation:
        # no code point is both alphanumeric and punctuation, so a piece with an
        # alphanumeric first and last character has nothing to strip; pieces
        # come from str.split() and are never empty
        strip = _strip_boundary_punctuation
        pieces = [p if p[0].isalnum() and p[-1].isalnum() else strip(p) for p in pieces]
    if config.lowercase:
        # a string whose cased letters are all lowercase is kept, not copied
        pieces = [p if p.islower() else p.lower() for p in pieces]
    return pieces


def tokenize(text: str, config: PipelineConfig) -> list:
    """Split ``text`` on whitespace, optionally trimming boundary punctuation
    and lowercasing. Tokens emptied by punctuation stripping are dropped."""
    return _stream(_clean(text.split(), config), 1)


def _frequency_stop_list(counts: dict, n: int) -> StopList:
    """The ``n`` tokens of ``counts`` (token -> occurrences) that occur most,
    ties at the cutoff broken lexicographically. Only tokens that occur at
    least as often as the n-th largest count are ranked."""
    import heapq  # here, so that predict, which builds no stop list, never loads it
    least = min(heapq.nlargest(n, counts.values()), default=0)
    top = heapq.nsmallest(n, [(-c, tok) for tok, c in counts.items() if c >= least])
    return StopList(frozenset(tok for _, tok in top), origin=f"frequency({n})")


def build_stop_list(corpus: Iterable[list], n: int) -> StopList:
    """Return the ``n`` most frequent tokens across ``corpus`` as a stop list.

    Frequency counts occurrences, not documents. Ties at the cutoff are
    broken lexicographically so the result is deterministic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = Counter()
    n_docs = 0
    for n_docs, stream in enumerate(corpus, start=1):
        counts.update(stream)
    if n_docs == 0:
        raise ValueError("corpus must be non-empty")
    return _frequency_stop_list(counts, n)


def read_lines(lines: Iterable[str], name: str = "input") -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each line holding more than whitespace,
    less its newline and, on line 1, a byte-order mark; skipped lines are counted.
    A line that is not UTF-8 fails at ``name``. Every line nbtext reads comes here."""
    for number, line in enumerate(lines, start=1):
        if number == 1:
            line = line.removeprefix("\ufeff")
        if line.strip():
            # undecodable bytes come as lone surrogates, so each line is checked
            # as it comes rather than each buffered chunk as it is read
            try:
                line.encode(errors="surrogateescape").decode()
            except UnicodeError as exc:
                raise ValueError(f"{name}: not UTF-8 text (line {number}: {exc})") from exc
            yield number, line.rstrip("\n")


def read_file_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """``read_lines`` over the UTF-8 file at ``path``, split at LF only, less one
    trailing CR. Any other CR fails at ``path:line``. Input files open here."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for number, line in read_lines(fh, str(path)):
            if "\r" in line[:-1]:
                raise ValueError(f"{path}:{number}: carriage return inside a line")
            yield number, line.removesuffix("\r")


def read_stdin_lines(stdin) -> Iterator[tuple[int, str]]:
    """``read_lines`` over ``stdin``, decoded as UTF-8 in any locale, universal newlines."""
    if isinstance(stdin, io.TextIOWrapper):
        stdin.reconfigure(encoding="utf-8", errors="surrogateescape", newline=None)
    return read_lines(stdin, "stdin")


class CorpusFormatError(ValueError):
    """A corpus line failed to parse; carries the 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


class LabeledCorpus(Record):
    """(label, input) pairs; an input is a text or a row of cells."""

    __slots__ = _fields = ("documents",)

    def _check(self):
        if not self.documents:
            raise ValueError("corpus must contain at least one document")

    def __len__(self):
        return len(self.documents)


def _labeled_lines(path, sep: str, expected: str) -> Iterator[tuple[int, str, str]]:
    """Yield ``(line number, label, rest)`` per line, split at the first ``sep``."""
    lineno = 0
    for lineno, line in read_file_lines(path):
        label, found, rest = line.partition(sep)
        if not found or not label.strip():
            raise CorpusFormatError(path, lineno, f"expected {expected!r}")
        yield lineno, label.strip(), rest
    if lineno == 0:
        raise CorpusFormatError(path, 0, "empty corpus")


def load_corpus(path: str | os.PathLike) -> LabeledCorpus:
    """Parse a "label<TAB>text" file, one document per line of ``read_file_lines``."""
    lines = _labeled_lines(path, "\t", "label<TAB>text")
    return LabeledCorpus(tuple((label, text) for _, label, text in lines))


def load_row_corpus(path: str | os.PathLike, cell=str) -> tuple[list[list], list[str]]:
    """Parse "label,v1,v2,..." lines into rows of cells and labels. Each cell
    goes through ``cell``; its ValueError is reported at the line number."""
    rows, labels = [], []
    for lineno, label, rest in _labeled_lines(path, ",", "label,v1,..."):
        values = [v.strip() for v in rest.split(",")]
        if rows and len(values) != len(rows[0]):
            message = f"expected {len(rows[0])} feature values, got {len(values)}"
            raise CorpusFormatError(path, lineno, message)
        try:
            rows.append([cell(v) for v in values])
        except ValueError as exc:
            raise CorpusFormatError(path, lineno, str(exc)) from exc
        labels.append(label)
    return rows, labels


def load_stop_list(path: str | os.PathLike) -> StopList:
    """Load a dictionary stop list: one word per line, ``#`` comments ignored,
    trailing whitespace trimmed."""
    words = {line.rstrip() for _, line in read_file_lines(path) if line[0] != "#"}
    return StopList(frozenset(words), origin="dictionary")


def ngrams(stream: list, n: int) -> list:
    """Space-joined n-grams of ``stream``; output length max(0, len - n + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return list(stream)
    if n > len(stream):  # before zip, which would take n slices
        return []
    return list(map(" ".join, zip(*(stream[i:] for i in range(n)))))


def _stage(tokens: list, config: PipelineConfig, stops: StopList | None) -> list:
    """Each token after stop-word removal and stemming, in order; "" for a stop
    word or an empty stem (bare "s"), and "" stays "". ``stops`` is required
    when the config enables stop-word removal."""
    if config.stop_word_mode != "none":
        if stops is None:
            raise ValueError(
                f"stop_word_mode={config.stop_word_mode!r} requires a stop list"
            )
        words = stops.words
        tokens = ["" if tok in words else tok for tok in tokens]
    if config.stemming:
        tokens = [porter_stem(tok) if tok else tok for tok in tokens]
    return tokens


def _stream(tokens: Iterable[str], n: int) -> list:
    """The non-empty ``tokens`` in order, as n-grams when ``n`` > 1: every
    stream is finished here."""
    stream = list(filter(None, tokens))
    return ngrams(stream, n) if n > 1 else stream


def run_pipeline(
    text: str, config: PipelineConfig, stops: StopList | None = None
) -> list:
    """Apply tokenize, stop-word removal, stemming and n-gram expansion.
    ``stops`` is required when the config enables stop-word removal. Stems
    that come back empty (bare "s") are dropped to keep streams well-formed."""
    tokens = _stage(_clean(text.split(), config), config, stops)
    return _stream(tokens, config.ngram_size)


def token_streams(
    texts: Sequence[str], config: PipelineConfig, stops: StopList | None = None
) -> tuple[Iterator[list], StopList | None]:
    """Each text's stream as ``run_pipeline`` gives it, lazily, and the stop
    list: ``stops``, or for a frequency config given none, the one
    ``build_stop_list`` gives over the texts' tokens. The rules run once per
    distinct whitespace piece: a table maps each to its token before n-grams
    ("" if dropped), and is freed with the last stream."""
    table = Counter(chain.from_iterable(map(str.split, texts)))
    pieces = list(table)
    tokens = _clean(pieces, config)
    if stops is None and config.stop_word_mode == "frequency":
        counts = defaultdict(int)
        for token, n in zip(tokens, table.values()):
            counts[token] += n
        counts.pop("", None)
        stops = _frequency_stop_list(counts, config.frequency_top_n)
    # each piece's token takes the place of its count
    dict.update(table, zip(pieces, _stage(tokens, config, stops)))
    n = config.ngram_size
    streams = (_stream(map(table.__getitem__, text.split()), n) for text in texts)
    return streams, stops
