#!/usr/bin/env python3
"""Byte parity of the nbtext command line between a base revision and the working tree.

Run from anywhere inside the repository:

    python scripts/parity.py --base HEAD
    python scripts/parity.py --base c1316ac --expect malformed/total-documents

The base revision's ``src/`` is exported with ``git archive`` into a temporary
directory; the repository and its ``.git`` are left untouched. The working
tree's ``src/`` is copied beside it. A fixed matrix of invocations then runs
against each tree as ``python -m nbtext.cli`` subprocesses, the base's with
``PYTHONHASHSEED=0`` and the working tree's with ``PYTHONHASHSEED=1``, so an
answer that hangs on the order of a set or on string hashes differs (with
``--base HEAD`` the tool checks exactly that), each from its own run directory
that holds the same inputs under the same relative paths: ``tests/data/sample_messages.tsv``,
600 SMS and 150 topics documents from ``perfbench/corpus.py``, the 20
``TEXT_EDGES`` documents, and small CSVs. The matrix trains, predicts
(``--probs`` on an argument, and over stdin), inspects (``--top-k 3
--dump-vocab``) and evaluates (``--report-out``) with nine text configurations
and both row variants, then runs usage and input errors, and predicts from
and inspects malformed archives.

For every case the stdout, stderr, exit code and each file the case wrote are
compared. Each case that differs is printed. The exit code is 1 when a case
differs that is not named with ``--expect``, else 0.
"""

import argparse
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

# run-directory inputs, by relative path
SAMPLE, SMS, TOPICS = "data/sample.tsv", "data/sms.tsv", "data/topics.tsv"
SHAPES, NUMERIC, STOP_LIST = "data/shapes.csv", "data/numeric.csv", "data/stop.txt"
EDGES = "data/text-edges.tsv"

# the edge cases of train's piece table: pieces that strip to nothing, one word
# written three ways, the bare word "s" (its stem is empty), a stop word that
# only appears capitalized, texts shorter than a trigram, and non-ASCII and
# non-alphabetic pieces
TEXT_EDGES = (
    ("spam", "Free prize... call now"),
    ("spam", "free! free! (free) -- The prize"),
    ("ham", "The s and s"),
    ("spam", "(Free)"),
    ("ham", "The lunch is at noon"),
    ("ham", "s"),
    ("ham", "The café naïve"),
    ("spam", "WIN £500 now!!! 4u"),
    ("ham", "... --"),
    ("ham", "The meeting moved -- see you"),
    ("spam", "Call 0800 free now"),
    ("ham", "日本語 «quoted» The"),
    ("spam", "free prize 100%"),
    ("ham", "The cats' toys"),
    ("ham", "ok"),
    ("spam", "Claim your (free) prize: call"),
    ("ham", "The running runner runs"),
    ("spam", "Free, free, FREE"),
    ("ham", "See The notes"),
    ("spam", "prize s call"),
)
TEXT_EDGE_QUERIES = ("Free s\n", "... --\n", "The prize (free)!\n", "call now 4u café\n",
                     "The\n", "naïve running s s s\n")


@dataclass
class Case:
    """One step of the matrix: a CLI invocation, or an ``edit`` that writes a
    file from the bytes of another in the run directory."""

    name: str
    args: List[str]
    stdin: Optional[str] = None  # run-directory path fed to stdin
    edit: Optional[Tuple[str, str, Callable[[bytes], bytes]]] = None  # source, target, f


def _corpus_module():
    """perfbench/corpus.py, loaded without writing bytecode under perfbench/."""
    path = ROOT / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus", path)
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def write_inputs(run_dir: Path) -> None:
    corpus = _corpus_module()
    data = run_dir / "data"
    data.mkdir(parents=True)
    shutil.copy(ROOT / "tests" / "data" / "sample_messages.tsv", run_dir / SAMPLE)
    sample_texts = [
        line.split("\t", 1)[1]
        for line in (run_dir / SAMPLE).read_text(encoding="utf-8").splitlines()
        if "\t" in line
    ]
    (data / "sample.txt").write_text("".join(t + "\n" for t in sample_texts), "utf-8")
    for name, shape, n_train, n_stdin in (("sms", corpus.SMS, 600, 200),
                                          ("topics", corpus.TOPICS, 150, 50)):
        corpus.write_labelled(data / f"{name}.tsv",
                              corpus.CorpusGenerator(shape, 1).documents(n_train))
        corpus.write_texts(data / f"{name}.txt",
                           corpus.CorpusGenerator(shape, 2).documents(n_stdin))
    rng = random.Random(19)
    colors, shapes = ("blue", "green", "red"), ("square", "circle")
    rows = [(rng.choice("+-"), rng.choice(colors), rng.choice(shapes)) for _ in range(40)]
    (data / "shapes.csv").write_text("".join(",".join(r) + "\n" for r in rows), "utf-8")
    (data / "shapes.txt").write_text("blue,square\nred,circle\ngreen,triangle\n", "utf-8")
    numeric = [
        (label, round(rng.gauss(mu, 1.5), 3), round(rng.gauss(-mu, 2.0), 3))
        for label, mu in (("a", 0.0), ("b", 3.0)) for _ in range(20)
    ]
    rng.shuffle(numeric)
    (data / "numeric.csv").write_text(
        "".join(f"{a},{x},{y}\n" for a, x, y in numeric), "utf-8"
    )
    (data / "numeric.txt").write_text("0 0\n3,-3\n1.5 -1.5\n", "utf-8")
    (run_dir / STOP_LIST).write_text("the\nto\nyou\na\nand\n", "utf-8")
    (run_dir / EDGES).write_text("".join(f"{a}\t{t}\n" for a, t in TEXT_EDGES), "utf-8")
    (data / "text-edges.txt").write_text("".join(TEXT_EDGE_QUERIES), "utf-8")


TEXT_CONFIGS = (
    ("sample-multinomial", SAMPLE, ["--variant", "multinomial"]),
    ("sample-multinomial-stem-top5-tfidf-bigrams", SAMPLE,
     ["--variant", "multinomial", "--stem", "on", "--stop-words", "top:5",
      "--weighting", "tfidf", "--ngram", "2"]),
    ("sample-multinomial-normalized-dict", SAMPLE,
     ["--variant", "multinomial", "--weighting", "normalized_tf", "--alpha", "0.5",
      "--stop-words", f"dict:{STOP_LIST}", "--lowercase", "off"]),
    ("sample-bernoulli", SAMPLE, ["--variant", "bernoulli", "--stem", "on"]),
    ("sms-bernoulli", SMS, ["--variant", "bernoulli"]),
    ("sms-multinomial-stem-top20", SMS,
     ["--variant", "multinomial", "--stem", "on", "--stop-words", "top:20"]),
    ("topics-tfidf-bigrams", TOPICS,
     ["--variant", "multinomial", "--weighting", "tfidf", "--ngram", "2"]),
    ("text-edges-multinomial-stem-top3", EDGES,
     ["--variant", "multinomial", "--stem", "on", "--stop-words", "top:3"]),
    ("text-edges-bernoulli-trigrams-cased", EDGES,
     ["--variant", "bernoulli", "--ngram", "3", "--lowercase", "off"]),
)
ROW_CONFIGS = (
    ("shapes-categorical", SHAPES, ["--variant", "categorical", "--alpha", "0.5"],
     "blue,square"),
    ("numeric-gaussian", NUMERIC, ["--variant", "gaussian"], "1.0 -1.0"),
)


def _edit_json(change: Callable[[dict], None]) -> Callable[[bytes], bytes]:
    def edit(data: bytes) -> bytes:
        doc = json.loads(data)
        change(doc)
        return json.dumps(doc, ensure_ascii=False).encode("utf-8")
    return edit


def _scale(table: dict, factor: int) -> None:
    for key in table:
        table[key] *= factor


def _respell(label: str, key: str, spelling: str) -> Callable[[bytes], bytes]:
    """Write tf_sums[label]'s id ``key`` as ``spelling``, in its place."""
    def change(doc: dict) -> None:
        tf_sums = doc["parameters"]["tf_sums"]
        tf_sums[label] = {spelling if k == key else k: w for k, w in tf_sums[label].items()}
    return _edit_json(change)


def _repeat_first_token(doc: dict) -> None:
    tokens = doc["vocabulary"]["tokens"]
    tokens[1] = tokens[0]


def _repeat_first_token_df_short(doc: dict) -> None:
    _repeat_first_token(doc)
    doc["vocabulary"]["document_frequency"].pop()


def _carry_text_sections(doc: dict) -> None:
    doc["pipeline"] = {"lowercase": True, "strip_punctuation": True, "stop_word_mode": "none",
                       "frequency_top_n": None, "stemming": False, "ngram_size": 1}
    doc["vocabulary"] = {"tokens": ["x"], "document_frequency": [1], "total_documents": 4}


# name -> (source archive, edit); each edited archive is then given to predict
# and to inspect
MALFORMED = {
    "total-documents": ("sample-multinomial-stem-top5-tfidf-bigrams", _edit_json(
        lambda doc: doc["vocabulary"].update(total_documents=600))),
    "weighting-not-taken": ("sample-bernoulli", _edit_json(
        lambda doc: doc.update(weighting="tfidf"))),
    "priors-total": ("sample-multinomial", _edit_json(
        lambda doc: doc["priors"].update(total=doc["priors"]["total"] + 1))),
    "class-doc-counts": ("sample-bernoulli", _edit_json(
        lambda doc: _scale(doc["parameters"]["class_doc_counts"], 10))),
    "class-counts": ("shapes-categorical", _edit_json(
        lambda doc: _scale(doc["parameters"]["class_counts"], 2))),
    "truncated": ("sms-bernoulli", lambda data: data[: len(data) // 2]),
    "not-utf-8": ("numeric-gaussian", lambda data: data.replace(b'"a"', b'"\xff"', 1)),
    "class-totals-401-digits": ("sample-multinomial", _edit_json(
        lambda doc: doc["parameters"]["class_totals"].update(spam=10**400))),
    "mean-401-digits": ("numeric-gaussian", _edit_json(
        lambda doc: doc["parameters"]["means"]["a"].__setitem__(0, 10**400))),
    "tf-sums-key-signed": ("sample-multinomial", _respell("ham", "12", " +12")),
    "tf-sums-key-underscore": ("sample-multinomial", _respell("ham", "12", "1_2")),
    "tf-sums-key-zero-padded": ("sample-multinomial", _respell("ham", "12", "012")),
    "tf-sums-key-suffix": ("sample-multinomial", _respell("spam", "209", "209a")),
    "tf-sums-key-float": ("sample-multinomial", _respell("ham", "1", "1.0")),
    "stop-words-string": ("sample-multinomial-stem-top5-tfidf-bigrams", _edit_json(
        lambda doc: doc["stop_words"].update(words="ia"))),
    "vocab-size-plus-one": ("sample-multinomial", _edit_json(
        lambda doc: doc["parameters"].update(vocab_size=doc["parameters"]["vocab_size"] + 1))),
    "tokens-string": ("sample-multinomial", _edit_json(
        lambda doc: doc["vocabulary"].update(tokens="".join(
            chr(0x4E00 + i) for i in range(len(doc["vocabulary"]["tokens"])))))),
    "origin-list": ("sample-multinomial-stem-top5-tfidf-bigrams", _edit_json(
        lambda doc: doc["stop_words"].update(origin=["x"]))),
    "origin-int": ("sample-multinomial-stem-top5-tfidf-bigrams", _edit_json(
        lambda doc: doc["stop_words"].update(origin=7))),
    "tokens-repeated": ("sample-multinomial", _edit_json(_repeat_first_token)),
    "pipeline-key-missing": ("sample-multinomial-stem-top5-tfidf-bigrams", _edit_json(
        lambda doc: [doc["pipeline"].pop(key) for key in ("stemming", "stop_word_mode")])),
    "pipeline-key-unknown": ("sample-multinomial", _edit_json(
        lambda doc: doc["pipeline"].update(colour="red"))),
    "archive-key-unknown": ("sample-multinomial", _edit_json(
        lambda doc: doc.update(zz=1, colour="red"))),
    "priors-key-unknown": ("sample-multinomial", _edit_json(
        lambda doc: doc["priors"].update(colour="red"))),
    "parameters-key-misspelt": ("sample-multinomial", _edit_json(
        lambda doc: doc["parameters"].update(alhpa=5.0))),
    "stop-words-key-unknown": ("sample-multinomial-stem-top5-tfidf-bigrams", _edit_json(
        lambda doc: doc["stop_words"].update(colour="red"))),
    "vocabulary-key-unknown": ("sample-multinomial", _edit_json(
        lambda doc: doc["vocabulary"].update(colour="red"))),
    "vocabulary-list": ("sample-multinomial", _edit_json(
        lambda doc: doc.update(vocabulary=[]))),
    "future-version-key-unknown": ("sample-multinomial", _edit_json(
        lambda doc: doc.update(format_version=2, colour="red"))),
    "stop-words-null": ("sample-multinomial-stem-top5-tfidf-bigrams", _edit_json(
        lambda doc: doc.update(stop_words=None))),
    "tokens-repeated-df-short": ("sample-multinomial", _edit_json(_repeat_first_token_df_short)),
    "row-pipeline-vocabulary": ("numeric-gaussian", _edit_json(_carry_text_sections)),
    "tf-sums-label-missing": ("sample-multinomial", _edit_json(
        lambda doc: doc["parameters"]["tf_sums"].pop("spam"))),
    "means-label-missing": ("numeric-gaussian", _edit_json(
        lambda doc: doc["parameters"]["means"].pop("b"))),
}

ERRORS = {
    "help": ["--help"],
    "no-command": [],
    "alpha-for-bernoulli": ["train", "--input", SAMPLE, "--variant", "bernoulli",
                            "--alpha", "0.5", "--model", "models/unused.json"],
    "alpha-nan": ["train", "--input", SAMPLE, "--variant", "multinomial",
                  "--alpha", "nan", "--model", "models/unused.json"],
    "weighting-for-bernoulli": ["train", "--input", SAMPLE, "--variant", "bernoulli",
                                "--weighting", "tfidf", "--model", "models/unused.json"],
    "ngram-for-gaussian": ["train", "--input", NUMERIC, "--variant", "gaussian",
                           "--ngram", "2", "--model", "models/unused.json"],
    "test-fraction": ["evaluate", "--input", SAMPLE, "--variant", "multinomial",
                      "--test-fraction", "1.5"],
    "seed-not-int": ["evaluate", "--input", SAMPLE, "--variant", "multinomial",
                     "--seed", "x"],
    "negative-top-k": ["inspect", "--model", "models/sample-multinomial.json",
                       "--top-k", "-1"],
    "missing-corpus": ["train", "--input", "data/missing.tsv", "--variant", "multinomial",
                       "--model", "models/unused.json"],
    "missing-archive": ["predict", "--model", "models/missing.json", "free prize"],
    "row-corpus-for-text": ["train", "--input", SHAPES, "--variant", "multinomial",
                            "--model", "models/shapes-as-text.json"],
}


def matrix() -> List[Case]:
    cases = []
    for name, corpus, flags in TEXT_CONFIGS:
        model = f"models/{name}.json"
        stdin = corpus.replace(".tsv", ".txt")
        cases += [
            Case(f"{name}/train", ["train", "--input", corpus, "--model", model, *flags]),
            Case(f"{name}/predict-probs-argument",
                 ["predict", "--model", model, "--probs", "free prize call now lunch"]),
            Case(f"{name}/predict-stdin", ["predict", "--model", model], stdin),
            Case(f"{name}/predict-probs-stdin", ["predict", "--model", model, "--probs"],
                 stdin),
            Case(f"{name}/inspect",
                 ["inspect", "--model", model, "--top-k", "3", "--dump-vocab"]),
            Case(f"{name}/evaluate", ["evaluate", "--input", corpus, *flags, "--seed", "42",
                                      "--report-out", f"reports/{name}.json"]),
        ]
    for name, corpus, flags, query in ROW_CONFIGS:
        model = f"models/{name}.json"
        cases += [
            Case(f"{name}/train", ["train", "--input", corpus, "--model", model, *flags]),
            Case(f"{name}/predict-probs-argument",
                 ["predict", "--model", model, "--probs", query]),
            Case(f"{name}/predict-stdin", ["predict", "--model", model],
                 corpus.replace(".csv", ".txt")),
            Case(f"{name}/inspect", ["inspect", "--model", model, "--top-k", "3"]),
            Case(f"{name}/evaluate", ["evaluate", "--input", corpus, *flags, "--seed", "7",
                                      "--report-out", f"reports/{name}.json"]),
        ]
    for name, args in ERRORS.items():
        cases.append(Case(f"errors/{name}", args))
    for name, (source, edit) in MALFORMED.items():
        target = f"models/malformed-{name}.json"
        cases += [
            Case(f"edit/{name}", [], edit=(f"models/{source}.json", target, edit)),
            Case(f"malformed/{name}", ["predict", "--model", target, "free prize"]),
            Case(f"malformed/{name}/inspect", ["inspect", "--model", target]),
        ]
    return cases


def _snapshot(run_dir: Path) -> Dict[str, bytes]:
    return {
        path.relative_to(run_dir).as_posix(): path.read_bytes()
        for path in run_dir.rglob("*") if path.is_file()
    }


def run_case(case: Case, src: Path, run_dir: Path, hash_seed: str) -> dict:
    """The case's stdout, stderr, exit code and the files it wrote or changed."""
    before = _snapshot(run_dir)
    if case.edit is not None:
        source, target, edit = case.edit
        try:
            (run_dir / target).write_bytes(edit((run_dir / source).read_bytes()))
            out, err, code = b"", b"", 0
        except (OSError, ValueError, LookupError, TypeError) as exc:
            # the source archive is missing, is not JSON or lacks the edited field
            out, err, code = b"", f"edit failed: {exc}\n".encode(), 1
    else:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed,
                   PYTHONDONTWRITEBYTECODE="1")
        stdin = (run_dir / case.stdin).read_bytes() if case.stdin else b""
        done = subprocess.run([sys.executable, "-m", "nbtext.cli", *case.args],
                              cwd=run_dir, env=env, input=stdin, capture_output=True)
        out, err, code = done.stdout, done.stderr, done.returncode
    after = _snapshot(run_dir)
    files = {path: data for path, data in after.items() if before.get(path) != data}
    return {"stdout": out, "stderr": err, "exit": code, "files": files}


def _first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return f"line {i + 1}: base {x[:120]!r} / working tree {y[:120]!r}"
    return f"base has {len(lines_a)} lines, working tree {len(lines_b)}"


def differences(base: dict, change: dict) -> List[str]:
    out = []
    if base["exit"] != change["exit"]:
        out.append(f"exit code: base {base['exit']}, working tree {change['exit']}")
    for stream in ("stdout", "stderr"):
        if base[stream] != change[stream]:
            out.append(f"{stream}: {_first_difference(base[stream], change[stream])}")
    for path in sorted(set(base["files"]) | set(change["files"])):
        a, b = base["files"].get(path), change["files"].get(path)
        if a is None or b is None:
            side = "base" if b is None else "working tree"
            out.append(f"{path}: written only by the {side}")
        elif a != b:
            out.append(f"{path}: {_first_difference(a, b)}")
    return out


def export_base(rev: str, dest: Path) -> None:
    """Extract ``src/`` of ``rev`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True)
    if tar.returncode:
        raise SystemExit(f"error: git archive {rev}: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--expect", action="append", default=[], metavar="CASE",
                        help="a case expected to differ (repeatable)")
    args = parser.parse_args(argv)
    cases = matrix()
    unknown = sorted(set(args.expect) - {case.name for case in cases})
    if unknown:
        parser.error(f"--expect names no case: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory(prefix="nbtext-parity-") as tmp:
        tmp = Path(tmp)
        export_base(args.base, tmp / "base")
        shutil.copytree(ROOT / "src", tmp / "change" / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        # each side's source, run directory and hash seed
        trees = {side: (tmp / side / "src", tmp / side / "run", seed)
                 for side, seed in (("base", "0"), ("change", "1"))}
        for _, run_dir, _ in trees.values():
            write_inputs(run_dir)
            for sub in ("models", "reports"):
                (run_dir / sub).mkdir()
        differ, unexpected = [], []
        for case in cases:
            base, change = (run_case(case, *tree) for tree in trees.values())
            found = differences(base, change)
            if not found:
                continue
            expected = case.name in args.expect
            differ.append(case.name)
            if not expected:
                unexpected.append(case.name)
            print(f"DIFFERS {case.name}{' (expected)' if expected else ''}")
            for line in found:
                print(f"  {line}")
    for name in args.expect:
        if name not in differ:
            print(f"note: {name} was expected to differ but is identical")
    print(f"parity with {args.base}: {len(cases)} cases, {len(cases) - len(differ)} "
          f"identical, {len(differ)} differ ({len(differ) - len(unexpected)} expected)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
