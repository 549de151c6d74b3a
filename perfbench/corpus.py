"""Seeded synthetic corpora standing in for the SMS Spam Collection.

Each corpus draws word roots from a Zipf distribution. Every class boosts
its own share of the roots (rank modulo the number of classes), so the
classes differ in their token distributions by the same amount for every
seed, and a naive Bayes model beats the majority class by a steady margin.
Roots are pronounceable letter strings; a word is a root plus a suffix that
Porter stemming folds back (``-s``, ``-ing``, ``-ed``, ...), and a few tokens
are capitalised or carry trailing punctuation, as in real messages.

The same ``(shape, seed)`` always gives the same documents.
"""

import bisect
import itertools
import random
from dataclasses import asdict, dataclass
from typing import List, Tuple

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SUFFIXES = ("", "s", "ing", "ed", "er", "ly", "ness", "ation", "ful", "ies")
_SUFFIX_WEIGHTS = (50, 14, 8, 8, 5, 4, 3, 3, 2, 3)
_PUNCTUATION = ("!", ".", ",", "?", "...")


@dataclass(frozen=True)
class CorpusShape:
    """Parameters of one generated corpus; recorded in every result."""

    labels: Tuple[str, ...]
    label_weights: Tuple[float, ...]
    n_roots: int
    zipf_s: float
    boost: float
    mean_tokens: float
    sd_tokens: float
    suffix_share: float
    capital_share: float
    punct_share: float

    def describe(self) -> dict:
        return asdict(self)


SMS = CorpusShape(
    labels=("ham", "spam"),
    label_weights=(0.865, 0.135),
    n_roots=12000,
    zipf_s=1.05,
    boost=4.0,
    mean_tokens=16.0,
    sd_tokens=7.0,
    suffix_share=0.5,
    capital_share=0.06,
    punct_share=0.08,
)

TOPICS = CorpusShape(
    labels=tuple(f"topic{i:02d}" for i in range(20)),
    label_weights=tuple(1.0 for _ in range(20)),
    n_roots=20000,
    zipf_s=1.0,
    boost=20.0,
    mean_tokens=150.0,
    sd_tokens=40.0,
    suffix_share=0.0,
    capital_share=0.02,
    punct_share=0.04,
)


def _roots(rng: random.Random, n: int) -> List[str]:
    seen = set()
    out = []
    while len(out) < n:
        syllables = rng.randint(2, 3)
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)
        )
        if rng.random() < 0.5:
            word += rng.choice(_CONSONANTS)
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


class CorpusGenerator:
    """Draws labelled documents of one shape; one instance per seed."""

    def __init__(self, shape: CorpusShape, seed: int):
        self.shape = shape
        self.rng = random.Random(f"{seed}:{shape.labels}:{shape.n_roots}")
        rng = self.rng
        self.roots = _roots(rng, shape.n_roots)
        base = [1.0 / (rank + 1) ** shape.zipf_s for rank in range(shape.n_roots)]
        self.cum_by_label = []
        n_labels = len(shape.labels)
        for k in range(n_labels):
            tilted = [
                w * shape.boost if rank % n_labels == k else w
                for rank, w in enumerate(base)
            ]
            self.cum_by_label.append(list(itertools.accumulate(tilted)))
        self.cum_labels = list(itertools.accumulate(shape.label_weights))
        self.cum_suffix = list(itertools.accumulate(_SUFFIX_WEIGHTS))

    def _word(self, root: str) -> str:
        rng, shape = self.rng, self.shape
        word = root
        if rng.random() < shape.suffix_share:
            suffix = _SUFFIXES[
                bisect.bisect(self.cum_suffix, rng.random() * self.cum_suffix[-1])
            ]
            if suffix == "ies" and word.endswith(tuple(_VOWELS)):
                suffix = "s"
            word += suffix
        if rng.random() < shape.capital_share:
            word = word.capitalize()
        if rng.random() < shape.punct_share:
            word += rng.choice(_PUNCTUATION)
        return word

    def document(self) -> Tuple[str, str]:
        rng, shape = self.rng, self.shape
        k = bisect.bisect(self.cum_labels, rng.random() * self.cum_labels[-1])
        n = max(1, round(rng.gauss(shape.mean_tokens, shape.sd_tokens)))
        cum = self.cum_by_label[k]
        roots = rng.choices(self.roots, cum_weights=cum, k=n)
        return shape.labels[k], " ".join(self._word(r) for r in roots)

    def documents(self, n: int) -> List[Tuple[str, str]]:
        return [self.document() for _ in range(n)]


def write_labelled(path, docs) -> None:
    """Write a ``label<TAB>text`` corpus file."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, text in docs:
            fh.write(f"{label}\t{text}\n")


def write_texts(path, docs) -> None:
    """Write one document text per line, as ``predict`` reads from stdin."""
    with open(path, "w", encoding="utf-8") as fh:
        for _, text in docs:
            fh.write(f"{text}\n")
