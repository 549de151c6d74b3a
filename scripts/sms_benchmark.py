#!/usr/bin/env python3
"""Spam-filter benchmark on the SMS Spam Collection.

``nbtext evaluate`` with the paper's settings: a multinomial model with
alpha 1 on unigrams, an 80/20 split at seed 42 and data/SMSSpamCollection
(fetch it with scripts/fetch_sms_corpus.py). Any ``nbtext evaluate`` flag
may follow and overrides the preset; ``--input
tests/data/sample_messages.tsv`` runs it offline. On success the report is
followed by the wall time.
"""

import sys
import time
from pathlib import Path

from nbtext.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "data" / "SMSSpamCollection"
PRESET = ["evaluate", "--input", str(CORPUS), "--variant", "multinomial", "--seed", "42"]

if __name__ == "__main__":
    started = time.perf_counter()
    code = main([*PRESET, *sys.argv[1:]])
    if code == 0:
        print(f"wall time: {time.perf_counter() - started:.2f}s")
    sys.exit(code)
