"""Command-line frontend: train, predict, evaluate, inspect.

Exit codes: 0 success, 1 runtime or i/o failure, 2 usage error.
"""

import argparse
import json
import os
import sys

from .archive import (
    VARIANTS,
    ArchiveError,
    ModelArchive,
    load_archive,
    save_archive,
    train,
)
from .models import check_alpha, posterior_scores
from .pipeline import (
    PipelineConfig,
    load_corpus,
    load_row_corpus,
    load_stop_list,
    read_lines,
    read_stdin_lines,
)
from .vectorize import WEIGHTING_MODES, dump_vocabulary


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbtext",
        description="Naive Bayes text classification: train, predict, "
        "evaluate and inspect models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ", ".join(
        f"{v.weightings[0]} for {n}" for n, v in VARIANTS.items() if v.text
    )
    smoothed = " and ".join(n for n, v in VARIANTS.items() if v.smoothed)

    def add_training_flags(p):
        p.add_argument("--input", required=True, help="corpus file")
        p.add_argument(
            "--variant", required=True, choices=VARIANTS, help="model family"
        )
        p.add_argument(
            "--weighting",
            choices=WEIGHTING_MODES,
            help=f"term weighting (text variants; default {defaults})",
        )
        p.add_argument(
            "--alpha",
            type=float,
            help=f"additive smoothing ({smoothed}; default 1.0)",
        )
        p.add_argument("--ngram", type=int, help="n-gram size (default 1)")
        p.add_argument(
            "--stop-words",
            help="none | dict:PATH | top:N (default none)",
        )
        p.add_argument("--stem", choices=("on", "off"), help="Porter stemming")
        p.add_argument("--lowercase", choices=("on", "off"), help="default on")

    p_train = sub.add_parser("train", help="fit a model and write an archive")
    add_training_flags(p_train)
    p_train.add_argument("--model", required=True, help="archive output path")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="classify text with a saved model")
    p_pred.add_argument("--model", required=True, help="archive path")
    p_pred.add_argument(
        "--probs", action="store_true", help="print normalized posteriors"
    )
    p_pred.add_argument(
        "text",
        nargs="?",
        help="document to classify (default: stdin, one per line; a leading "
        "byte-order mark is ignored and whitespace-only lines get no answer)",
    )
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser(
        "evaluate", help="train on a split and score the held-out part"
    )
    add_training_flags(p_eval)
    p_eval.add_argument("--test-fraction", type=float, default=0.2)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--report-out", help="write a JSON report here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_ins = sub.add_parser("inspect", help="describe a saved model")
    p_ins.add_argument("--model", required=True, help="archive path")
    p_ins.add_argument(
        "--top-k", type=int, help="list the k highest-conditional tokens per class"
    )
    p_ins.add_argument(
        "--dump-vocab",
        action="store_true",
        help="print the vocabulary as id<TAB>token<TAB>document_frequency",
    )
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def _parse_stop_spec(spec: str) -> tuple[str, str | None, int | None]:
    if spec == "none":
        return "none", None, None
    if spec.startswith("dict:"):
        path = spec[len("dict:") :]
        if not path:
            raise _UsageError("--stop-words dict: needs a file path")
        return "dictionary", path, None
    if spec.startswith("top:"):
        try:
            n = int(spec[len("top:") :])
        except ValueError:
            raise _UsageError("--stop-words top: needs an integer") from None
        if n < 1:
            raise _UsageError("--stop-words top:N needs N >= 1")
        return "frequency", None, n
    raise _UsageError(f"bad --stop-words value {spec!r}; use none, dict:PATH or top:N")


class _TrainSettings:
    """Validated flag bundle shared by train and evaluate."""

    def __init__(self, args):
        self.spec = VARIANTS[args.variant]
        pipeline_flags = (args.ngram, args.stop_words, args.stem, args.lowercase)
        if not self.spec.text and any(flag is not None for flag in pipeline_flags):
            raise _UsageError(
                "pipeline flags (--ngram/--stop-words/--stem/--lowercase) "
                f"do not apply to the {self.spec.name} variant"
            )
        if not self.spec.smoothed and args.alpha is not None:
            raise _UsageError(f"--alpha does not apply to the {self.spec.name} variant")
        self.alpha = 1.0 if args.alpha is None else args.alpha
        try:
            if self.spec.smoothed:
                check_alpha(self.alpha)
            self.weighting = self.spec.check(args.weighting)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        stop_mode, self.stop_path, stop_top_n = _parse_stop_spec(
            args.stop_words if args.stop_words is not None else "none"
        )
        ngram = args.ngram if args.ngram is not None else 1
        if ngram < 1:
            raise _UsageError("--ngram must be >= 1")
        self.pipeline = PipelineConfig(
            lowercase=(args.lowercase or "on") == "on",
            strip_punctuation=True,
            stop_word_mode=stop_mode,
            frequency_top_n=stop_top_n,
            stemming=(args.stem or "off") == "on",
            ngram_size=ngram,
        )

    def load_data(self, path: str) -> list[tuple[str, object]]:
        """The (label, input) pairs: raw texts for the text variants, parsed rows otherwise."""
        return load_corpus(path) if self.spec.text else load_row_corpus(path, self.spec.cell)

    def fit(self, documents: list[tuple[str, object]]) -> ModelArchive:
        stops = load_stop_list(self.stop_path) if self.stop_path else None
        return train(self.spec.name, documents, self.alpha, self.pipeline, self.weighting, stops)


def cmd_train(args) -> int:
    settings = _TrainSettings(args)
    archive = settings.fit(settings.load_data(args.input))
    save_archive(archive, args.model)
    counts = archive.model.priors.counts
    print(f"classes: {' '.join(f'{label}={n}' for label, n in counts.items())}")
    if archive.vocab is not None:
        print(f"vocabulary: {len(archive.vocab)} tokens")
    print(f"model written to {args.model}")
    return 0


def cmd_predict(args) -> int:
    archive = load_archive(args.model)
    # stdin is read lazily and each answer flushed, so a line is answered
    # as soon as it arrives
    lines = (read_stdin_lines(sys.stdin) if args.text is None
             else read_lines([args.text], "text argument"))
    for _, line in lines:
        report = posterior_scores(archive.model, archive.encode(line))
        if report.degenerate_evidence:
            print(
                "warning: no usable evidence; falling back to class priors",
                file=sys.stderr,
            )
        if args.probs:
            probs = " ".join(
                f"{label}={p:.6f}" for label, p in sorted(report.posteriors.items())
            )
            print(f"{report.predicted}\t{probs}", flush=True)
        else:
            print(report.predicted, flush=True)
    return 0


def cmd_evaluate(args) -> int:
    # imported here, so that train and predict never load it or its blake2b
    from . import evaluation

    settings = _TrainSettings(args)
    if not 0.0 < args.test_fraction < 1.0:
        raise _UsageError("--test-fraction must be strictly between 0 and 1")
    if len(str(args.seed)) > 64:  # the split's blake2b key holds at most 64 bytes
        raise _UsageError("--seed must fit in 64 characters, sign included")
    documents = settings.load_data(args.input)
    train_part, test_part = evaluation.split(documents, args.test_fraction, args.seed)
    report = evaluation.evaluate(settings.fit(train_part), test_part)
    print(f"trained on {len(train_part)} documents, evaluated on {report.n_test}")
    print(evaluation.format_report(report))
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report_out}")
    return 0


def _top_tokens(archive: ModelArchive, k: int) -> list[str]:
    model = archive.model
    tokens = archive.vocab.tokens
    lines = []
    for label in model.priors.labels:
        scored = [(model.conditional(label, i), tok) for i, tok in enumerate(tokens)]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        for p, tok in scored[:k]:
            lines.append(f"  {label}\t{tok}\t{p:.6g}")
    return lines


def cmd_inspect(args) -> int:
    if args.top_k is not None and args.top_k < 0:
        raise _UsageError("--top-k must be >= 0")
    archive = load_archive(args.model)
    model = archive.model
    print(f"variant: {archive.variant}")
    priors = model.priors
    for label, n in priors.counts.items():
        print(f"prior {label}: {priors.probabilities[label]:.4f} (n={n})")
    if archive.vocab is not None:
        print(
            f"vocabulary: {len(archive.vocab)} tokens over "
            f"{archive.vocab.total_documents} documents"
        )
        print(f"weighting: {archive.weighting}")
    alpha = getattr(model, "alpha", None)
    if alpha is not None:
        print(f"alpha: {alpha}")
    if archive.pipeline_config is not None:
        cfg = archive.pipeline_config
        print(
            f"pipeline: lowercase={'on' if cfg.lowercase else 'off'} "
            f"stem={'on' if cfg.stemming else 'off'} "
            f"stop_words={cfg.stop_word_mode} ngram={cfg.ngram_size}"
        )
    if args.top_k is not None:
        if archive.vocab is None:
            print("note: --top-k applies to text variants only", file=sys.stderr)
        else:
            print(f"top {args.top_k} tokens per class:")
            for line in _top_tokens(archive, args.top_k):
                print(line)
    if args.dump_vocab:
        if archive.vocab is None:
            print("note: this model has no vocabulary", file=sys.stderr)
        else:
            print(dump_vocabulary(archive.vocab))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArchiveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The program's entry: ``main`` on the command line, then both output
    streams flushed and the process ended with ``os._exit``. Every file the
    commands open is closed by then, so interpreter teardown (and with it any
    ``atexit`` hook) is skipped. Output that cannot be written, such as a
    full disk or a closed pipe, is one error line and exit code 1. Ctrl-C ends
    it with exit code 130, the shell's code for SIGINT, and no traceback."""
    try:
        code = main()
    except KeyboardInterrupt:
        code = 130
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # else main has already said what went wrong
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    try:
        sys.stderr.flush()
    except OSError:
        code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
