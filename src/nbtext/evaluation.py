"""Deterministic splits and classifier scoring; the corpus readers of
``pipeline`` are re-exported here.

The split is reproducible across runs and platforms: documents are ordered
by a keyed 64-bit blake2b hash of their index (key derived from the seed)
and the head of that ordering becomes the test partition.
"""

from _blake2 import blake2b  # hashlib's own blake2b; hashlib would also load OpenSSL
from collections.abc import Iterable, Sequence

from .archive import ModelArchive
from .models import classify
from .pipeline import CorpusFormatError, load_corpus, load_row_corpus
from .record import Record

__all__ = [
    "CorpusFormatError",
    "LabelMetrics",
    "EvaluationReport",
    "load_corpus",
    "load_row_corpus",
    "split",
    "split_indices",
    "tally",
    "evaluate",
    "format_report",
]


def _index_digest(key: bytes, index: int) -> bytes:
    return blake2b(str(index).encode("ascii"), digest_size=8, key=key).digest()


def split_indices(
    n: int, test_fraction: float, seed: int
) -> tuple[list[int], list[int]]:
    """Partition indices 0..n-1 into (train, test); test gets
    round(n * fraction) items. Items are ordered by a keyed hash of their
    index, so identical inputs always give identical partitions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be strictly between 0 and 1")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if n < 2:
        raise ValueError("need at least 2 documents to split")
    n_test = int(n * test_fraction + 0.5)
    if n_test == 0 or n_test == n:
        raise ValueError("split would leave an empty partition")
    key = str(seed).encode("ascii")
    if len(key) > 64:  # blake2b's limit on a key
        raise ValueError(f"seed {seed!r} is too long: the split key holds 64 bytes at most")
    order = sorted(range(n), key=lambda i: (_index_digest(key, i), i))
    return sorted(order[n_test:]), sorted(order[:n_test])


def split(
    documents: Sequence[tuple[str, object]], test_fraction: float, seed: int
) -> tuple[list, list]:
    """Deterministic (train, test) partition of (label, input) pairs, each
    part in corpus order."""
    train_idx, test_idx = split_indices(len(documents), test_fraction, seed)
    return [documents[i] for i in train_idx], [documents[i] for i in test_idx]


class LabelMetrics(Record):
    _shapes = dict.fromkeys(("precision", "recall", "f1", "support"), object)  # tally fills it


class EvaluationReport(Record):
    _shapes = dict.fromkeys(("accuracy", "per_label", "confusion", "n_test",
                             "zero_division_labels"), object)  # tally fills it
    _defaults = {"zero_division_labels": frozenset()}

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_test": self.n_test,
            "per_label": {
                lab: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                for lab, m in self.per_label.items()
            },
            "confusion": {t: dict(row) for t, row in self.confusion.items()},
            "zero_division_labels": sorted(self.zero_division_labels),
        }


def tally(
    pairs: Sequence[tuple[str, str]], model_labels: Sequence[str]
) -> EvaluationReport:
    """Score (true, predicted) pairs, reading the whole report off the confusion
    matrix. True labels outside the model's classes keep their own rows; a
    zero-denominator precision, recall or F1 is reported as 0 and flagged."""
    if not pairs:
        raise ValueError("nothing to tally")
    labels = sorted({*model_labels, *(true for true, _ in pairs)})
    confusion = {t: dict.fromkeys(labels, 0) for t in labels}
    for true, pred in pairs:
        confusion[true][pred] += 1
    flagged = set()

    def ratio(label: str, num: float, den: float) -> float:
        if den:
            return num / den
        flagged.add(label)
        return 0.0

    per_label = {}
    for lab in labels:
        tp, support = confusion[lab][lab], sum(confusion[lab].values())
        precision = ratio(lab, tp, sum(confusion[t][lab] for t in labels))
        recall = ratio(lab, tp, support)
        f1 = ratio(lab, 2 * precision * recall, precision + recall)
        per_label[lab] = LabelMetrics(precision, recall, f1, support)
    correct = sum(confusion[lab][lab] for lab in labels)
    return EvaluationReport(correct / len(pairs), per_label, confusion, len(pairs),
                            frozenset(flagged))


def evaluate(
    archive: ModelArchive, test: Iterable[tuple[str, object]]
) -> EvaluationReport:
    """Classify each (true label, raw input) pair's input through
    ``archive.encode`` and tally the predictions against the true labels."""
    pairs = [(y, classify(archive.model, archive.encode(x))) for y, x in test]
    return tally(pairs, archive.model.priors.labels)


def format_report(report: EvaluationReport) -> str:
    """Human-readable metrics table plus confusion matrix."""
    lines = [f"accuracy: {report.accuracy:.4f}  (n_test={report.n_test})", ""]
    lines.append(f"{'label':<16}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>9}")
    for lab, m in sorted(report.per_label.items()):
        flag = " *" if lab in report.zero_division_labels else ""
        lines.append(
            f"{lab:<16}{m.precision:>10.4f}{m.recall:>10.4f}{m.f1:>10.4f}"
            f"{m.support:>9}{flag}"
        )
    if report.zero_division_labels:
        lines.append("  * zero denominator reported as 0")
    lines.append("")
    labels = sorted(report.confusion)
    header = "true\\pred".ljust(16) + "".join(f"{p:>12}" for p in labels)
    lines.append(header)
    for t in labels:
        row = t.ljust(16) + "".join(f"{report.confusion[t][p]:>12}" for p in labels)
        lines.append(row)
    return "\n".join(lines)
