#!/usr/bin/env python3
"""Spam-filter benchmark on the SMS Spam Collection.

Trains a multinomial model with Laplace smoothing on unigrams, using an
80/20 split at seed 42, and reports wall time plus held-out metrics. The
defaults match the regression gate in tests/test_acceptance.py; use the
flags to explore other settings.
"""

import argparse
import sys
import time
from pathlib import Path

from nbtext.archive import VARIANTS, train
from nbtext.evaluation import evaluate, format_report, load_corpus, split
from nbtext.pipeline import PipelineConfig
from nbtext.vectorize import WEIGHTING_MODES

DEFAULT_CORPUS = Path(__file__).resolve().parents[1] / "data" / "SMSSpamCollection"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", type=Path, default=DEFAULT_CORPUS)
    parser.add_argument("--variant", default="multinomial",
                        choices=[name for name, v in VARIANTS.items() if v.text])
    parser.add_argument("--weighting", choices=WEIGHTING_MODES,
                        help="default: the variant's default weighting")
    parser.add_argument("--alpha", type=float,
                        help="additive smoothing, for variants that use it "
                        "(default 1.0)")
    parser.add_argument("--test-fraction", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--stem", action="store_true")
    parser.add_argument("--stop-top", type=int, default=0,
                        help="remove the N most frequent training tokens")
    parser.add_argument("--ngram", type=int, default=1)
    args = parser.parse_args()
    spec = VARIANTS[args.variant]
    if args.alpha is not None and not spec.smoothed:
        parser.error(f"--alpha does not apply to the {args.variant} variant")
    alpha = 1.0 if args.alpha is None else args.alpha
    try:
        spec.check(args.weighting, alpha)
    except ValueError as exc:
        parser.error(str(exc))

    if not args.corpus.exists():
        print(f"corpus not found at {args.corpus}", file=sys.stderr)
        print("run scripts/fetch_sms_corpus.py first", file=sys.stderr)
        return 1

    started = time.perf_counter()
    corpus = load_corpus(args.corpus)
    train_part, test_part = split(corpus, args.test_fraction, args.seed)

    config = PipelineConfig(
        stemming=args.stem,
        stop_word_mode="frequency" if args.stop_top else "none",
        frequency_top_n=args.stop_top or None,
        ngram_size=args.ngram,
    )
    archive = train(
        args.variant,
        [label for label, _ in train_part.documents],
        [text for _, text in train_part.documents],
        alpha,
        config,
        args.weighting,
    )
    report = evaluate(archive, test_part.documents)
    elapsed = time.perf_counter() - started

    print(f"corpus: {args.corpus} ({len(corpus)} messages)")
    print(f"variant: {args.variant}  weighting: {archive.weighting}  "
          f"alpha: {alpha}  stem: {args.stem}  "
          f"stop_top: {args.stop_top}  ngram: {args.ngram}")
    print(f"train/test: {len(train_part)}/{len(test_part)}  "
          f"vocabulary: {len(archive.vocab)}")
    print(f"wall time: {elapsed:.2f}s")
    print()
    print(format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
