"""Independent reference implementations used to validate model outputs.

Everything here is computed from first principles with plain arithmetic
and no shared code with the package, so that agreement with the production
path is meaningful. The Bernoulli and multinomial likelihood oracles work
in log space, because a product over a whole vocabulary or a long document
would underflow; they sum every term exactly with math.fsum.
"""

import math
import unicodedata
from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple


def categorical_posteriors_oracle(
    samples: Sequence[Sequence[str]],
    labels: Sequence[str],
    alpha: float,
    query: Sequence[str],
) -> Dict[str, float]:
    """Posterior P(class | query) by direct evaluation: product of smoothed
    per-position frequencies times the prior, normalized by the sum over
    classes. Smoothing denominator counts distinct values at the position,
    plus one if the queried value was never seen there."""
    n = len(labels)
    class_counts = Counter(labels)
    unnormalized = {}
    for cls, n_cls in class_counts.items():
        prob = n_cls / n
        for pos, value in enumerate(query):
            seen_here = {s[pos] for s in samples}
            count = sum(
                1 for s, lab in zip(samples, labels) if lab == cls and s[pos] == value
            )
            k = len(seen_here) + (0 if value in seen_here else 1)
            prob *= (count + alpha) / (n_cls + alpha * k)
        unnormalized[cls] = prob
    z = sum(unnormalized.values())
    if z == 0.0:
        return {cls: 1.0 / len(unnormalized) for cls in unnormalized}
    return {cls: p / z for cls, p in unnormalized.items()}


def multinomial_conditionals_oracle(
    token_rows: Sequence[Sequence[int]], labels: Sequence[str], alpha: float
) -> Dict[str, List[float]]:
    """Smoothed token conditionals per class from dense count rows."""
    v = len(token_rows[0])
    out = {}
    for cls in set(labels):
        sums = [0.0] * v
        for row, lab in zip(token_rows, labels):
            if lab == cls:
                for i, c in enumerate(row):
                    sums[i] += c
        total = sum(sums)
        out[cls] = [(s + alpha) / (total + alpha * v) for s in sums]
    return out


def gaussian_density_oracle(x: float, mu: float, sigma: float) -> float:
    return math.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (
        sigma * math.sqrt(2 * math.pi)
    )


def metrics_oracle(
    pairs: Sequence[Tuple[str, str]],
) -> Tuple[float, Dict[str, Dict[str, float]]]:
    """Accuracy and per-label precision/recall computed by direct counting."""
    n = len(pairs)
    acc = sum(1 for t, p in pairs if t == p) / n
    labels = sorted({t for t, _ in pairs} | {p for _, p in pairs})
    per = {}
    for lab in labels:
        tp = sum(1 for t, p in pairs if t == lab and p == lab)
        pred = sum(1 for _, p in pairs if p == lab)
        true = sum(1 for t, _ in pairs if t == lab)
        per[lab] = {
            "precision": tp / pred if pred else 0.0,
            "recall": tp / true if true else 0.0,
        }
    return acc, per


def bernoulli_log_likelihood_oracle(
    doc_counts: Sequence[int], class_docs: int, present: Set[int]
) -> float:
    """Log P(document | class) under the multi-variate Bernoulli model,
    summed term by term over the whole vocabulary: log p for each id present,
    log(1 - p) for each id absent, with p = (df + 1) / (class_docs + 2)."""
    terms = []
    for i, df in enumerate(doc_counts):
        p = (df + 1) / (class_docs + 2)
        terms.append(math.log(p) if i in present else math.log(1 - p))
    return math.fsum(terms)


def multinomial_log_likelihood_oracle(
    weight_rows: Sequence[Sequence[float]],
    labels: Sequence[str],
    alpha: float,
    query: Sequence[float],
    label: str,
) -> float:
    """Log P(document | class) under the multinomial model, summed term by
    term over a dense query row: w * log p for each id of weight w > 0, with
    p = (class weight + alpha) / (class total + alpha * V). A zero p, or a
    class with neither weight nor smoothing mass, makes the document -inf."""
    v = len(query)
    sums = [0.0] * v
    for row, lab in zip(weight_rows, labels):
        if lab == label:
            for i, w in enumerate(row):
                sums[i] += w
    den = math.fsum(sums) + alpha * v
    terms = []
    for i, w in enumerate(query):
        if w > 0:
            p = (sums[i] + alpha) / den if den > 0 else 0.0
            if p == 0.0:
                return -math.inf
            terms.append(w * math.log(p))
    return math.fsum(terms)


def strip_boundary_punctuation_oracle(token: str) -> str:
    """``token`` without its leading and trailing Unicode punctuation (any
    ``P*`` category), looked up character by character with no shortcut."""
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def vocabulary_oracle(
    corpus: Sequence[Sequence[str]],
) -> Tuple[Dict[str, int], List[int], int]:
    """Token ids by first appearance, per-token document frequencies and the
    document count. Frequencies are kept by token, one count per distinct
    token of a document, and laid out by id after the scan."""
    token_to_id: Dict[str, int] = {}
    doc_freq: Dict[str, int] = {}
    n_docs = 0
    for stream in corpus:
        n_docs += 1
        for tok in stream:
            if tok not in token_to_id:
                token_to_id[tok] = len(token_to_id)
        for tok in set(stream):
            doc_freq[tok] = doc_freq.get(tok, 0) + 1
    df = [0] * len(token_to_id)
    for tok, i in token_to_id.items():
        df[i] = doc_freq[tok]
    return token_to_id, df, n_docs


def vectorize_oracle(
    stream: Sequence[str],
    token_to_id: Dict[str, int],
    df: Sequence[int],
    n_docs: int,
    mode: str,
) -> Dict[int, float]:
    """Sparse weights of ``stream``, entry by entry in order of first
    appearance, skipping unknown tokens: 1 ("binary"), the count tf
    ("raw_count"), tf / len(stream) ("normalized_tf"), or that times
    ln(n_docs / df) ("tfidf"), kept only when above zero."""
    n_d = len(stream)
    counts = Counter(tok for tok in stream if tok in token_to_id)
    entries: Dict[int, float] = {}
    for tok, tf in counts.items():
        i = token_to_id[tok]
        if mode == "binary":
            entries[i] = 1
        elif mode == "raw_count":
            entries[i] = tf
        elif mode == "normalized_tf":
            entries[i] = tf / n_d
        else:
            weight = (tf / n_d) * math.log(n_docs / df[i])
            if weight > 0:
                entries[i] = weight
    return entries
