"""End-to-end command-line behavior: flags, exit codes, determinism."""

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from nbtext.archive import VARIANTS, finite_float, load_archive, save_archive, train
from nbtext.cli import main
from nbtext.evaluation import (
    LabeledCorpus,
    evaluate,
    load_corpus,
    load_row_corpus,
    split,
)
from nbtext.pipeline import PipelineConfig
from nbtext.vectorize import BINARY, RAW_COUNT, WEIGHTING_MODES

TOY_CSV = (
    "+,blue,square\n+,blue,square\n+,blue,circle\n+,green,square\n"
    "+,green,square\n+,red,square\n+,red,circle\n"
    "-,blue,square\n-,blue,square\n-,blue,circle\n-,green,square\n-,red,circle\n"
)
GAUSSIAN_CSV = "a,0,0\na,1,1\na,2,1\nb,5,5\nb,6,6\nb,7,5\n"


@pytest.fixture
def corpus_path(tmp_path, data_dir):
    dest = tmp_path / "messages.tsv"
    shutil.copy(data_dir / "sample_messages.tsv", dest)
    return dest


@pytest.fixture
def toy_csv_path(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return path


def _train(tmp_path, corpus_path, *extra):
    model_path = tmp_path / "model.json"
    code = main(
        ["train", "--input", str(corpus_path), "--model", str(model_path),
         "--variant", "multinomial", *extra]
    )
    assert code == 0
    return model_path


def _set_first(table, value):
    table[next(iter(table))] = value


def _true_weight(doc):
    """Replace spam's first tf_sums weight with JSON true, keeping its total
    the sum of the weights."""
    params = doc["parameters"]
    sums = params["tf_sums"]["spam"]
    first = next(iter(sums))
    params["class_totals"]["spam"] += 1 - sums[first]
    sums[first] = True


def _respell(label, key, spelling):
    """A corruption that writes tf_sums[label]'s id ``key`` as ``spelling``,
    keeping its weight and its place."""
    def corrupt(doc):
        tf_sums = doc["parameters"]["tf_sums"]
        tf_sums[label] = {spelling if k == key else k: w for k, w in tf_sums[label].items()}
    return corrupt


def _scale_class(doc, label, factor):
    """Multiply one class's categorical counts by ``factor``, keeping every
    value_counts table summing to its class_counts."""
    params = doc["parameters"]
    params["class_counts"][label] *= factor
    for table in params["value_counts"]:
        table[label] = {value: n * factor for value, n in table[label].items()}


def _leaf_paths(node, path=()):
    """Paths to the leaves of a JSON document: every field of an object, and
    the first and last element of a list or of a table keyed by token id."""
    if isinstance(node, (list, dict)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if isinstance(node, list) or all(k.isdigit() for k in keys):
            keys = list(dict.fromkeys(keys[:1] + keys[-1:]))
        for key in keys:
            yield from _leaf_paths(node[key], path + (key,))
    else:
        yield path


def _number(value):
    return type(value) in (int, float)


_DROP = object()

# one-field corruptions; negating a value that is not a number gives `not value`
_CORRUPTIONS = {
    "drop": lambda value: _DROP,
    "null": lambda value: None,
    "string": str,
    "true": lambda value: True,
    "fractional": lambda value: value + 0.5 if _number(value) else 0.5,
    "negated": lambda value: -value if _number(value) else not value,
}

_QUERIES = {"multinomial": "free prize call now", "bernoulli": "free prize call now",
            "categorical": "blue square", "gaussian": "1 1"}


# what the byte fuzz writes in place of one JSON value; a 401-digit int passes
# the JSON parser but not float(), and a 5,000-digit one fails in the parser
_SUBSTITUTES = (b"NaN", b"Infinity", b"-Infinity", b"1e308", b"-0.0", b"9" * 5000,
                b"[" * 5000, b"1" + b"0" * 400)


def _fuzz(data, rng):
    """One mutation of archive bytes: a truncation, one to four bit flips, or (in
    half the cases) one leaf value replaced by a float extreme, a 401- or
    5,000-digit int or deep nesting."""
    kind = rng.randrange(4)
    if kind == 0:
        return data[: rng.randrange(len(data))]
    if kind == 1:
        out = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    doc = json.loads(data)
    *parents, key = rng.choice(list(_leaf_paths(doc)))
    table = doc
    for part in parents:
        table = table[part]
    table[key] = "\x00"
    text = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    return text.replace(b'"\\u0000"', rng.choice(_SUBSTITUTES), 1)


def _train_variant(tmp_path, corpus_path, toy_csv_path, variant):
    if variant == "multinomial":
        return _train(tmp_path, corpus_path)
    numeric_path = tmp_path / "numeric.csv"
    numeric_path.write_text("a,0,0\na,1,1\nb,5,5\nb,6,6\n", encoding="utf-8")
    inputs = {
        "bernoulli": corpus_path, "categorical": toy_csv_path, "gaussian": numeric_path
    }
    model_path = tmp_path / f"{variant}.json"
    assert main(
        ["train", "--input", str(inputs[variant]), "--model", str(model_path),
         "--variant", variant]
    ) == 0
    return model_path


class TestTrain:
    def test_writes_archive_and_summary(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path, "--alpha", "1.0")
        out = capsys.readouterr().out
        assert model_path.exists()
        assert "ham=40" in out and "spam=20" in out
        assert "vocabulary:" in out

    def test_pipeline_flags(self, tmp_path, corpus_path):
        _train(
            tmp_path, corpus_path,
            "--stem", "on", "--ngram", "2", "--stop-words", "top:5",
            "--weighting", "tfidf",
        )

    def test_dictionary_stop_words(self, tmp_path, corpus_path):
        stops = tmp_path / "stops.txt"
        stops.write_text("# noise\nthe\na\nto\n", encoding="utf-8")
        _train(tmp_path, corpus_path, "--stop-words", f"dict:{stops}")

    def test_undecodable_stop_list_named(self, tmp_path, corpus_path, capsys):
        stops = tmp_path / "stops.txt"
        stops.write_bytes(b"the\n\xff\n")
        code = main(
            ["train", "--input", str(corpus_path), "--model", str(tmp_path / "m"),
             "--variant", "multinomial", "--stop-words", f"dict:{stops}"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{stops}: not UTF-8 text" in err

    def test_bernoulli_defaults_to_binary(self, tmp_path, corpus_path, capsys):
        model_path = tmp_path / "m.json"
        code = main(
            ["train", "--input", str(corpus_path), "--model", str(model_path),
             "--variant", "bernoulli"]
        )
        assert code == 0

    def test_incompatible_weighting_bernoulli(self, tmp_path, corpus_path, capsys):
        code = main(
            ["train", "--input", str(corpus_path), "--model", str(tmp_path / "m"),
             "--variant", "bernoulli", "--weighting", "raw_count"]
        )
        assert code == 2
        assert "binary" in capsys.readouterr().err

    def test_incompatible_weighting_multinomial(self, tmp_path, corpus_path):
        code = main(
            ["train", "--input", str(corpus_path), "--model", str(tmp_path / "m"),
             "--variant", "multinomial", "--weighting", "binary"]
        )
        assert code == 2

    def test_alpha_rejected_for_bernoulli(self, tmp_path, corpus_path):
        code = main(
            ["train", "--input", str(corpus_path), "--model", str(tmp_path / "m"),
             "--variant", "bernoulli", "--alpha", "2.0"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_rejected(self, tmp_path, corpus_path, capsys,
                                       command, alpha):
        model = ["--model", str(tmp_path / "m")] if command == "train" else []
        code = main(
            [command, "--input", str(corpus_path), *model,
             "--variant", "multinomial", "--alpha", alpha]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "alpha" in captured.err
        assert not (tmp_path / "m").exists()

    def test_alpha_that_overflows_the_smoothing_is_refused(self, corpus_path, capsys):
        # 1e308 * V is inf: the model would score every class -inf and answer
        # by the prior alone
        argv = ["evaluate", "--input", str(corpus_path), "--variant", "multinomial",
                "--alpha", "1e308"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha 1e+308 is too large: a smoothed denominator overflows\n"

    def test_pipeline_flags_rejected_for_categorical(self, tmp_path, toy_csv_path):
        code = main(
            ["train", "--input", str(toy_csv_path), "--model", str(tmp_path / "m"),
             "--variant", "categorical", "--stem", "on"]
        )
        assert code == 2

    def test_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code = main(
            ["train", "--input", str(empty), "--model", str(tmp_path / "m"),
             "--variant", "multinomial"]
        )
        assert code == 1
        assert "empty corpus" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        code = main(
            ["train", "--input", str(tmp_path / "absent.tsv"),
             "--model", str(tmp_path / "m"), "--variant", "multinomial"]
        )
        assert code == 1

    def test_bad_stop_spec(self, tmp_path, corpus_path):
        code = main(
            ["train", "--input", str(corpus_path), "--model", str(tmp_path / "m"),
             "--variant", "multinomial", "--stop-words", "most"]
        )
        assert code == 2

    @pytest.mark.parametrize("flags,message", [
        (["--stop-words", "dict:"], "--stop-words dict: needs a file path"),
        (["--stop-words", "top:x"], "--stop-words top: needs an integer"),
        (["--stop-words", "top:0"], "--stop-words top:N needs N >= 1"),
        (["--ngram", "0"], "--ngram must be >= 1"),
    ], ids=["dict-without-path", "top-not-int", "top-zero", "ngram-zero"])
    def test_bad_pipeline_value_is_one_usage_line(
        self, tmp_path, corpus_path, capsys, flags, message
    ):
        code = main(
            ["train", "--input", str(corpus_path), "--model", str(tmp_path / "m"),
             "--variant", "multinomial", *flags]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "m").exists()

    def test_unknown_flag(self, corpus_path):
        assert main(["train", "--input", str(corpus_path), "--bogus"]) == 2

    def test_no_command(self):
        assert main([]) == 2


def _last_cell(value):
    return lambda line, sep: line.rpartition(sep)[0] + sep + value


# one-line corpus mutations: name -> (mutate the line, expected outcome).
# "error": exit 1 with one error line naming the corpus at the mutated line;
# "deleted": the archive of the corpus with that line deleted; "clean": the
# archive of the unmutated corpus; "exit 0": trains; "undecodable": exit 1
# with one error line naming the corpus. A BOM before line 1 and CRLF on every
# line give "clean".
_EVERY_CORPUS = {
    "no separator": (lambda line, sep: line.replace(sep, " "), "error"),
    "empty label": (lambda line, sep: sep + line.partition(sep)[2], "error"),
    "whitespace-only label": (lambda line, sep: " " + sep + line.partition(sep)[2],
                              "error"),
    "whitespace-only line": (lambda line, sep: " \t\x0b ", "deleted"),
    "CRLF ending": (lambda line, sep: line + "\r", "clean"),
    "padded label": (lambda line, sep: " " + line.replace(sep, "  " + sep, 1), "clean"),
    "CR inside a line": (lambda line, sep: line.replace(sep, sep + "\r", 1), "error"),
    # written with surrogateescape, U+DCFF is the byte 0xff
    "invalid UTF-8": (lambda line, sep: line + "\udcff", "undecodable"),
}
_ROW_CORPUS = {
    "extra cell": (lambda line, sep: line + sep + "1", "error"),
    "missing cell": (lambda line, sep: line.rpartition(sep)[0], "error"),
}
_TEXT_CELLS = {"NUL inside text": (lambda line, sep: line + "\x00", "exit 0")}
_NUMBER_CELLS = {
    "nan cell": (_last_cell("nan"), "error"),
    "inf cell": (_last_cell("inf"), "error"),
    "1e309 cell": (_last_cell("1e309"), "error"),
    "NUL in a cell": (lambda line, sep: line + "\x00", "error"),
}


class TestCorpusMutations:
    def test_one_line_mutations(self, tmp_path, data_dir, capsys):
        """Each mutation of the first, a middle and the last line of a corpus
        of each variant either fails with one error line naming that line, or
        trains the archive its table entry names."""
        sms = (data_dir / "sample_messages.tsv").read_text(encoding="utf-8")
        corpora = {
            "multinomial": (sms, "\t", {**_EVERY_CORPUS, **_TEXT_CELLS}),
            "bernoulli": (sms, "\t", {**_EVERY_CORPUS, **_TEXT_CELLS}),
            "categorical": (TOY_CSV, ",", {**_EVERY_CORPUS, **_ROW_CORPUS, **_TEXT_CELLS}),
            "gaussian": (GAUSSIAN_CSV, ",", {**_EVERY_CORPUS, **_ROW_CORPUS,
                                              **_NUMBER_CELLS}),
        }
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"

        def train_on(variant, lines):
            text = "".join(line + "\n" for line in lines)
            corpus.write_bytes(text.encode("utf-8", "surrogateescape"))
            model.unlink(missing_ok=True)
            capsys.readouterr()
            code = main(["train", "--input", str(corpus), "--model", str(model),
                         "--variant", variant])
            err = capsys.readouterr().err
            return code, err, model.read_bytes() if code == 0 else None

        for variant, (text, sep, mutations) in corpora.items():
            lines = text.splitlines()
            clean = train_on(variant, lines)
            assert clean[0] == 0, variant
            assert train_on(variant, ["\ufeff" + lines[0], *lines[1:]]) == clean, variant
            assert train_on(variant, [line + "\r" for line in lines]) == clean, variant
            for i in sorted({0, len(lines) // 2, len(lines) - 1}):
                deleted = train_on(variant, lines[:i] + lines[i + 1 :])
                for name, (mutate, outcome) in mutations.items():
                    where = f"{variant} {name} line {i + 1}"
                    code, err, archive = train_on(
                        variant, [*lines[:i], mutate(lines[i], sep), *lines[i + 1 :]]
                    )
                    if outcome == "deleted":
                        assert (code, err, archive) == deleted, where
                    elif outcome == "clean":
                        assert (code, err, archive) == clean, where
                    elif outcome == "exit 0":
                        assert code == 0, where
                    else:
                        assert code == 1, where
                        assert err.startswith("error: ") and err.count("\n") == 1, where
                    if outcome == "error":
                        # the first row sets the cell count, so line 2 disagrees
                        row = 2 if i == 0 and name in _ROW_CORPUS else i + 1
                        assert f"{corpus}:{row}: " in err, where
                    if outcome == "undecodable":
                        assert f"{corpus}: " in err, where


class TestPredict:
    def test_stdin_line_answered_before_eof(self, tmp_path, corpus_path):
        model_path = _train(tmp_path, corpus_path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "nbtext.cli", "predict", "--model", str(model_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        ) as proc:
            try:
                proc.stdin.write("WINNER! Claim your free cash prize now\n")
                proc.stdin.flush()
                # the answer must come while stdin is still open; the timeout
                # turns a wait for EOF into a failure instead of a hang
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                assert ready, "no answer before stdin was closed"
                assert proc.stdout.readline() == "spam\n"
                proc.stdin.close()
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()

    @pytest.mark.skipif(os.name != "posix", reason="sends SIGINT")
    def test_interrupt_after_an_answer_exits_130_without_traceback(
        self, tmp_path, corpus_path
    ):
        model_path = _train(tmp_path, corpus_path)
        with subprocess.Popen(
            [sys.executable, "-m", "nbtext.cli", "predict", "--model", str(model_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_buffered_env(),
        ) as proc:
            try:
                proc.stdin.write("WINNER! Claim your free cash prize now\n")
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                assert ready, "no answer before stdin was closed"
                assert proc.stdout.readline() == "spam\n"
                # predict now waits on stdin for its next line, as at a terminal
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=60) == 130
                assert proc.stdout.read() == ""
                assert proc.stderr.read() == ""
            finally:
                proc.kill()

    def test_undecodable_stdin_line_fails_after_earlier_answers(
        self, tmp_path, corpus_path
    ):
        model_path = _train(tmp_path, corpus_path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, LC_ALL="C")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-m", "nbtext.cli", "predict", "--model", str(model_path)],
            input=b"free prize\r\nsee you at dinner tonight\r\xff caf\nfree prize\n",
            capture_output=True, env=env, timeout=60,
        )
        assert res.returncode == 1
        # a lone CR ends a line, as in universal newlines
        assert res.stdout == b"spam\nham\n"
        assert res.stderr.startswith(b"error: stdin: not UTF-8 text (")
        assert b"0xff" in res.stderr and res.stderr.count(b"\n") == 1

    def test_single_argument(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path),
             "WINNER! Claim your free cash prize now, call the hotline!"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "spam"

    def test_ham_message(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path),
             "are we still meeting for lunch today?"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "ham"

    def test_stdin_batch(self, tmp_path, corpus_path, capsys, monkeypatch):
        import io

        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("free prize claim now\n\nsee you at dinner tonight\n"),
        )
        code = main(["predict", "--model", str(model_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["spam", "ham"]

    def test_stdin_byte_order_mark_ignored(
        self, tmp_path, corpus_path, capsys, monkeypatch
    ):
        import io

        model_path = _train(tmp_path, corpus_path)
        answers = []
        for stdin in ("free prize claim now\n", "\ufefffree prize claim now\n"):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            capsys.readouterr()
            assert main(["predict", "--model", str(model_path), "--probs"]) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1]

    def test_probs_sum_to_one(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), "--probs", "free cash now"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        label, probs = out.split("\t")
        values = [float(kv.split("=")[1]) for kv in probs.split()]
        assert label in {"ham", "spam"}
        assert sum(values) == pytest.approx(1.0, abs=1e-6)

    def test_out_of_vocabulary_warns(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path, "--alpha", "0.0")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "zzzz qqqq"])
        assert code == 0
        # all tokens unknown: prediction falls back to the larger prior
        captured = capsys.readouterr()
        assert captured.out.strip() == "ham"

    def test_no_usable_evidence_warns_and_answers_by_the_prior(
        self, tmp_path, corpus_path, capsys
    ):
        # at alpha 0 "prize" is seen only in spam and "lunch" only in ham, so
        # every class scores -inf: the posteriors are uniform and the larger
        # prior decides
        model_path = _train(tmp_path, corpus_path, "--alpha", "0")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--probs", "prize lunch"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: no usable evidence; falling back to class priors\n"
        assert captured.out == "ham\tham=0.500000 spam=0.500000\n"

    def test_class_emptied_by_the_pipeline_at_alpha_zero(self, tmp_path):
        # spam's documents are empty after the pipeline, so its estimates are 0/0
        corpus = tmp_path / "emptied.tsv"
        corpus.write_text(
            "ham\thello there friend\nham\tsee you soon\nspam\t!!! ???\n",
            encoding="utf-8",
        )
        model_path = _train(tmp_path, corpus, "--alpha", "0")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for args in (["predict", "hello friend"], ["inspect", "--top-k", "2"]):
            res = subprocess.run(
                [sys.executable, "-m", "nbtext.cli", args[0], "--model", str(model_path),
                 *args[1:]],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert res.returncode == 0 and "Traceback" not in res.stderr, res.stderr
            outputs.append(res.stdout)
        assert outputs[0] == "ham\n"
        assert "  spam\tfriend\t0\n" in outputs[1]

    def test_corrupt_archive(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]", encoding="utf-8")
        code = main(["predict", "--model", str(bad), "hello"])
        assert code == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("nested", [
        "[" * 100_000,
        '{"format_version": 1, "weighting": ' + "[" * 50_000 + "]" * 50_000 + "}",
    ], ids=["arrays", "weighting"])
    def test_deeply_nested_archive(self, tmp_path, capsys, nested):
        bad = tmp_path / "deep.json"
        bad.write_text(nested, encoding="utf-8")
        assert main(["predict", "--model", str(bad), "hello"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a model archive (invalid JSON): ")
        assert captured.err.count("\n") == 1

    def test_int_past_the_digit_limit(self, tmp_path, corpus_path, capsys):
        # json.dumps cannot write such an int either, so the text is edited
        model_path = _train(tmp_path, corpus_path)
        text = model_path.read_text(encoding="utf-8")
        field = '"format_version": 1'
        assert text.count(field) == 1
        model_path.write_text(text.replace(field, field + "0" * 4999), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "hello"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a model archive (invalid JSON): ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("variant,corrupt,message", [
        ("multinomial", lambda doc: doc["priors"].update(counts=["7", "5"]),
         "malformed archive"),
        ("multinomial", lambda doc: doc.update(priors="ham"), "malformed archive"),
        ("multinomial", lambda doc: doc["parameters"].update(tf_sums=[1, 2]),
         "malformed archive"),
        ("multinomial", lambda doc: doc["parameters"].pop("tf_sums"),
         "missing field 'tf_sums'"),
        ("multinomial", lambda doc: doc["parameters"].update(vocab_size=3),
         "vocab_size"),
        ("multinomial", lambda doc: doc["parameters"].update(alpha="1"), "alpha"),
        ("multinomial", lambda doc: doc["parameters"].update(alpha=-1.0), "alpha"),
        ("multinomial", lambda doc: doc["priors"].update(total=0), "total"),
        ("multinomial", lambda doc: doc["priors"].update(
            total=doc["priors"]["total"] + 1), "total"),
        ("multinomial", lambda doc: doc["parameters"].update(
            vocab_size=float(doc["parameters"]["vocab_size"])), "vocab_size"),
        ("multinomial", lambda doc: doc["parameters"].update(alpha=float("inf")),
         "alpha"),
        # parameter tables whose labels are not the priors' labels
        ("multinomial", lambda doc: doc["parameters"]["tf_sums"].pop("spam"),
         "error: tf_sums has labels ['ham'], not ['ham', 'spam']\n"),
        ("multinomial", lambda doc: doc["parameters"]["class_totals"].pop("ham"),
         "class_totals"),
        ("bernoulli", lambda doc: doc["parameters"]["doc_counts"].pop("spam"),
         "doc_counts"),
        ("bernoulli", lambda doc: doc["parameters"]["class_doc_counts"].pop("ham"),
         "class_doc_counts"),
        ("bernoulli", lambda doc: doc["parameters"]["doc_counts"].update(
            zzz=doc["parameters"]["doc_counts"]["ham"]), "doc_counts"),
        ("categorical", lambda doc: doc["parameters"]["value_counts"][1].pop("-"),
         "value_counts"),
        ("categorical", lambda doc: doc["parameters"]["class_counts"].pop("+"),
         "class_counts"),
        ("gaussian", lambda doc: doc["parameters"]["means"].pop("b"),
         "error: means has labels ['a'], not ['a', 'b']\n"),
        ("gaussian", lambda doc: doc["parameters"]["stds"].update(c=[1.0, 1.0]),
         "error: stds has labels ['a', 'b', 'c'], not ['a', 'b']\n"),
        ("categorical", lambda doc: doc["parameters"]["class_counts"].update(zz=0),
         "error: class_counts has labels ['+', '-', 'zz'], not ['+', '-']\n"),
        # Bernoulli counts outside 0..class_doc_counts
        ("bernoulli", lambda doc: doc["parameters"]["doc_counts"]["spam"].__setitem__(
            0, -5), "doc_counts"),
        ("bernoulli", lambda doc: doc["parameters"]["doc_counts"]["spam"].__setitem__(
            0, 500), "doc_counts"),
        # Gaussian rows shorter than n_features, stds that are not > 0
        ("gaussian", lambda doc: doc["parameters"]["means"]["a"].pop(), "n_features"),
        ("gaussian", lambda doc: doc["parameters"]["stds"]["b"].pop(), "n_features"),
        ("gaussian", lambda doc: doc["parameters"]["stds"]["a"].__setitem__(0, 0.0),
         "stds"),
        ("gaussian", lambda doc: doc["parameters"]["stds"]["a"].__setitem__(0, -1.0),
         "stds"),
        # multinomial weights that are negative, not finite or out of range,
        # and totals that are not the sum of the weights
        ("multinomial", lambda doc: doc["parameters"]["class_totals"].update(spam=-5),
         "class_totals"),
        ("multinomial", lambda doc: doc["parameters"]["class_totals"].update(
            spam=doc["parameters"]["class_totals"]["spam"] * 10), "class_totals"),
        ("multinomial", lambda doc: doc["parameters"]["class_totals"].update(spam="5"),
         "class_totals"),
        ("multinomial", lambda doc: _set_first(doc["parameters"]["tf_sums"]["spam"], -1.0),
         "tf_sums"),
        ("multinomial", lambda doc: _set_first(
            doc["parameters"]["tf_sums"]["spam"], float("nan")), "tf_sums"),
        ("multinomial", lambda doc: doc["parameters"]["tf_sums"]["spam"].update(
            {str(doc["parameters"]["vocab_size"]): 0.0}), "range(vocab_size)"),
        ("multinomial", lambda doc: doc["parameters"]["tf_sums"]["spam"].update(
            {"0": 1e308, "1": 1e308}), "tf_sums"),
        # categorical counts that are negative or do not sum to class_counts
        ("categorical", lambda doc: doc["parameters"]["value_counts"][0]["+"].update(
            blue=-5), "value_counts"),
        ("categorical", lambda doc: doc["parameters"]["class_counts"].update(
            {lab: n * 10 for lab, n in doc["parameters"]["class_counts"].items()}),
         "class_counts"),
        # a weighting the variant does not take, mistyped pipeline settings
        # and stop words
        ("multinomial", lambda doc: doc.update(weighting="binary"), "weighting"),
        ("multinomial", lambda doc: doc["pipeline"].update(stemming="no"), "stemming"),
        ("multinomial", lambda doc: doc["pipeline"].update(ngram_size=2.0),
         "ngram_size"),
        ("multinomial", lambda doc: doc["pipeline"].update(lowercase=1), "lowercase"),
        ("multinomial", lambda doc: doc.update(
            stop_words={"origin": "dictionary", "words": ["the", 7]}), "stop words"),
        # vocabulary tokens that are not strings, counts that are not ints
        ("multinomial", lambda doc: doc["vocabulary"]["tokens"].__setitem__(0, None),
         "tokens must be strings"),
        ("multinomial", lambda doc: doc["vocabulary"]["document_frequency"].__setitem__(
            0, 1.25), "must be ints"),
        ("multinomial", lambda doc: doc["vocabulary"].update(total_documents=48.5),
         "must be ints"),
        # prior counts that are not ints, or not one per distinct label, and
        # a total that is not an int
        ("multinomial", lambda doc: doc["priors"].update(
            counts=[doc["priors"]["counts"][0] + 0.5, *doc["priors"]["counts"][1:]],
            total=doc["priors"]["total"] + 0.5), "counts must be ints"),
        ("multinomial", lambda doc: doc["priors"].update(
            counts=[float(n) for n in doc["priors"]["counts"]]), "counts must be ints"),
        ("multinomial", lambda doc: doc["priors"].update(
            counts=[True, *doc["priors"]["counts"][1:]],
            total=1 + sum(doc["priors"]["counts"][1:])), "counts must be ints"),
        ("multinomial", lambda doc: doc["priors"].update(labels=["ham", "ham"]),
         "one count per distinct label"),
        ("multinomial", lambda doc: doc["priors"].update(
            counts=doc["priors"]["counts"] + [5], total=doc["priors"]["total"] + 5),
         "one count per distinct label"),
        ("multinomial", lambda doc: doc["priors"].update(
            counts=doc["priors"]["counts"][:1], total=doc["priors"]["counts"][0]),
         "one count per distinct label"),
        ("multinomial", lambda doc: doc["priors"].update(
            total=float(doc["priors"]["total"])), "total"),
        # JSON true and floats where the archive needs ints or weights
        ("multinomial", lambda doc: doc.update(format_version=True), "format_version"),
        ("multinomial", _true_weight, "tf_sums"),
        ("gaussian", lambda doc: doc["parameters"].update(n_features=2.0), "n_features"),
        ("gaussian", lambda doc: doc["parameters"].update(n_features=True),
         "n_features"),
        # written with surrogateescape, U+DCFF is the byte 0xff
        ("multinomial", lambda doc: doc.update(variant="\udcff"), "not a model archive"),
        # class sizes that differ from the prior counts
        ("bernoulli", lambda doc: doc["parameters"]["class_doc_counts"].update(
            {lab: n * 10 for lab, n in doc["parameters"]["class_doc_counts"].items()}),
         "class_doc_counts must be the class sizes the priors count"),
        ("categorical", lambda doc: _scale_class(doc, "+", 3),
         "class_counts must be the class sizes the priors count"),
        # a document count that differs from the prior total
        ("multinomial", lambda doc: doc["vocabulary"].update(total_documents=600),
         "total_documents must be the priors total, 60"),
        # a total past the float range, and id keys that int() reads but that
        # are not the decimal form of their id
        ("multinomial", lambda doc: doc["parameters"]["class_totals"].update(
            spam=10**400), "class_totals['spam'] must be the sum of tf_sums['spam']"),
        ("multinomial", _respell("ham", "12", " +12"), "tf_sums['ham'] keys"),
        ("multinomial", _respell("ham", "12", "1_2"), "tf_sums['ham'] keys"),
        ("multinomial", _respell("ham", "12", "012"), "tf_sums['ham'] keys"),
        ("multinomial", _respell("spam", "209", "209a"), "tf_sums['spam'] keys"),
        ("multinomial", _respell("ham", "1", "1.0"), "tf_sums['ham'] keys"),
        ("gaussian", lambda doc: doc["parameters"]["means"]["a"].__setitem__(0, 10**400),
         "means and stds must be finite numbers"),
        # a vocab_size that passes the tf_sums range check, and stop words that
        # frozenset would read as characters or keys
        ("multinomial", lambda doc: doc["parameters"].update(
            vocab_size=doc["parameters"]["vocab_size"] + 1),
         "vocab_size must be the token count, 296"),
        ("multinomial", lambda doc: doc.update(
            stop_words={"origin": "frequency(5)", "words": "ia"}),
         "stop_words words must be a list"),
        ("multinomial", lambda doc: doc.update(
            stop_words={"origin": "dictionary", "words": {"the": 1}}),
         "stop_words words must be a list"),
        # a tokens string that enumerate would read as one-character tokens, and
        # stop list origins that are not strings
        ("multinomial", lambda doc: doc["vocabulary"].update(tokens="".join(
            chr(0x4E00 + i) for i in range(len(doc["vocabulary"]["tokens"])))),
         "vocabulary tokens must be a list"),
        ("multinomial", lambda doc: doc.update(
            stop_words={"origin": ["x"], "words": ["the"]}), "origin must be a string"),
        ("multinomial", lambda doc: doc.update(
            stop_words={"origin": 7, "words": ["the"]}), "origin must be a string"),
        # a second token that repeats the first leaves one id fewer than counts
        ("multinomial", lambda doc: doc["vocabulary"]["tokens"].__setitem__(
            1, doc["vocabulary"]["tokens"][0]),
         "error: document_frequency length must equal vocabulary size\n"),
        # a repeated token with one count per distinct token
        ("multinomial", lambda doc: [doc["vocabulary"]["tokens"].__setitem__(
            1, doc["vocabulary"]["tokens"][0]), doc["vocabulary"]["document_frequency"].pop()],
         "error: vocabulary tokens must be distinct\n"),
        # a row variant's archive holds null where a text archive holds its
        # pipeline, vocabulary and stop list
        ("gaussian", lambda doc: doc.update(
            pipeline=dict(zip(PipelineConfig._fields, PipelineConfig()._values())),
            vocabulary={"tokens": ["x"], "document_frequency": [1], "total_documents": 4}),
         "error: gaussian archives carry no pipeline config, vocabulary or stop list\n"),
        ("categorical", lambda doc: doc.update(
            stop_words={"origin": "dictionary", "words": ["the"]}),
         "error: categorical archives carry no pipeline config, vocabulary or stop list\n"),
        # pipeline keys: save_archive writes all six, so none falls to a default
        ("multinomial", lambda doc: [doc["pipeline"].pop(key)
                                     for key in ("stemming", "stop_word_mode")],
         "error: archive is missing field 'stemming'\n"),
        ("multinomial", lambda doc: doc["pipeline"].update(colour="red"),
         "error: malformed archive: pipeline has unknown field 'colour'\n"),
        # every other section is read whole too (of two unknown keys, the first
        # in sorted order is named, whatever the hash seed); null is a section
        # left out, and any other value that is no JSON object is malformed
        ("multinomial", lambda doc: doc.update(zz=1, colour="red"),
         "error: malformed archive: archive has unknown field 'colour'\n"),
        ("multinomial", lambda doc: doc["priors"].update(colour="red"),
         "error: malformed archive: priors has unknown field 'colour'\n"),
        ("multinomial", lambda doc: doc["parameters"].update(alhpa=5.0),
         "error: malformed archive: parameters has unknown field 'alhpa'\n"),
        ("multinomial", lambda doc: doc.update(
            stop_words={"origin": "dictionary", "words": ["the"], "colour": "red"}),
         "error: malformed archive: stop_words has unknown field 'colour'\n"),
        ("multinomial", lambda doc: doc["vocabulary"].update(colour="red"),
         "error: malformed archive: vocabulary has unknown field 'colour'\n"),
        ("multinomial", lambda doc: doc.update(vocabulary=[]),
         "error: malformed archive: vocabulary must be a JSON object\n"),
        # the version is read first, so a later format is named as such
        ("multinomial", lambda doc: doc.update(format_version=2, colour="red"),
         "error: unsupported format_version 2; this build reads version 1\n"),
    ], ids=["counts-strings", "priors-string", "tf_sums-list", "tf_sums-missing",
            "vocab_size-mismatch", "alpha-string", "alpha-negative",
            "total-zero", "total-not-sum", "vocab_size-float", "alpha-inf",
            "tf_sums-class-missing", "class_totals-class-missing",
            "doc_counts-class-missing", "class_doc_counts-class-missing",
            "doc_counts-extra-class", "value_counts-class-missing",
            "class_counts-class-missing", "means-class-missing", "stds-class-extra",
            "class_counts-class-extra",
            "doc_counts-negative", "doc_counts-above-class-docs",
            "means-row-short", "stds-row-short", "std-zero", "std-negative",
            "class_totals-negative", "class_totals-scaled", "class_totals-string",
            "tf_sums-negative", "tf_sums-nan", "tf_sums-id-out-of-range",
            "tf_sums-sum-overflows", "value_counts-negative", "class_counts-scaled",
            "weighting-not-taken", "stemming-string", "ngram_size-float",
            "lowercase-int", "stop-word-not-string", "token-null", "df-fractional",
            "total_documents-fractional", "counts-fractional", "counts-float",
            "counts-true", "labels-duplicate", "counts-longer", "counts-shorter",
            "total-float", "format_version-true", "tf_sums-true", "n_features-float",
            "n_features-true", "not-utf-8", "class_doc_counts-scaled",
            "class-sizes-scaled", "total_documents-scaled", "class_totals-401-digits",
            "tf_sums-key-signed", "tf_sums-key-underscore", "tf_sums-key-zero-padded",
            "tf_sums-key-suffix", "tf_sums-key-float", "mean-401-digits",
            "vocab_size-plus-one", "stop-words-string", "stop-words-object",
            "tokens-string", "origin-list", "origin-int", "tokens-repeated",
            "tokens-repeated-df-short", "row-pipeline-vocabulary", "row-stop-words",
            "pipeline-key-missing", "pipeline-key-unknown", "archive-key-unknown",
            "priors-key-unknown", "parameters-key-misspelt", "stop-words-key-unknown",
            "vocabulary-key-unknown", "vocabulary-list", "future-version-key-unknown"])
    def test_malformed_archive(
        self, tmp_path, corpus_path, toy_csv_path, capsys, variant, corrupt, message
    ):
        # the archive is refused at load, before the query is parsed
        model_path = _train_variant(tmp_path, corpus_path, toy_csv_path, variant)
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        corrupt(doc)
        text = json.dumps(doc, ensure_ascii=False)
        model_path.write_bytes(text.encode("utf-8", "surrogateescape"))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "free prize"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_stop_word_removal_without_a_stop_list(self, tmp_path, corpus_path, capsys):
        # every document would fail in the text step, so the archive fails at load
        model_path = _train(tmp_path, corpus_path, "--stem", "on", "--stop-words", "top:5")
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["stop_words"] = None
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["predict", "--model", str(model_path), "free prize"],
                     ["inspect", "--model", str(model_path)]):
            capsys.readouterr()
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: stop_word_mode='frequency' requires a stop list\n"
            )

    def test_one_field_corruptions_fail_cleanly_or_round_trip(
        self, tmp_path, corpus_path, toy_csv_path, capsys
    ):
        """Each leaf field of an archive of each variant, dropped or replaced:
        predict either refuses the archive with one error line, or answers
        and the archive it loaded saves, loads and saves again byte-exact."""
        broken, resaved = tmp_path / "broken.json", tmp_path / "resaved.json"
        for variant in VARIANTS:
            source = _train_variant(tmp_path, corpus_path, toy_csv_path, variant)
            doc = json.loads(source.read_text(encoding="utf-8"))
            for path in _leaf_paths(doc):
                for name, corrupt in _CORRUPTIONS.items():
                    case = json.loads(json.dumps(doc))
                    *parents, key = path
                    table = case
                    for part in parents:
                        table = table[part]
                    table[key] = corrupt(table[key])
                    if table[key] is _DROP:
                        del table[key]
                    broken.write_text(json.dumps(case), encoding="utf-8")
                    capsys.readouterr()
                    where = f"{variant} {name} {path}"
                    code = main(["predict", "--model", str(broken), _QUERIES[variant]])
                    err = capsys.readouterr().err
                    if code == 1:
                        assert err.startswith("error: ") and err.count("\n") == 1, where
                        continue
                    assert code == 0, where
                    save_archive(load_archive(broken), resaved)
                    first = resaved.read_bytes()
                    save_archive(load_archive(resaved), resaved)
                    assert resaved.read_bytes() == first, where

    def test_fuzzed_archive_bytes_answer_or_fail_cleanly(
        self, tmp_path, corpus_path, toy_csv_path, capsys
    ):
        """Seeded byte-level mutations of an archive of each variant: predict
        answers, or exits 1 or 2 with one error line; no exception escapes."""
        rng = random.Random(19)
        broken = tmp_path / "fuzzed.json"
        for variant in VARIANTS:
            data = _train_variant(tmp_path, corpus_path, toy_csv_path, variant).read_bytes()
            for case in range(250):
                broken.write_bytes(_fuzz(data, rng))
                capsys.readouterr()
                code = main(["predict", "--model", str(broken), _QUERIES[variant]])
                err = capsys.readouterr().err
                where = f"{variant} case {case}"
                assert code in (0, 1, 2), where
                if code:
                    assert err.startswith("error: ") and err.count("\n") == 1, where

    def test_short_bernoulli_row(self, tmp_path, corpus_path, capsys):
        model_path = tmp_path / "bernoulli.json"
        assert main(
            ["train", "--input", str(corpus_path), "--model", str(model_path),
             "--variant", "bernoulli"]
        ) == 0
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["parameters"]["doc_counts"]["spam"].pop()
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "free prize"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "doc_counts" in captured.err

    def test_categorical_query(self, tmp_path, toy_csv_path, capsys):
        model_path = tmp_path / "toy.json"
        code = main(
            ["train", "--input", str(toy_csv_path), "--model", str(model_path),
             "--variant", "categorical", "--alpha", "0.0"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "blue square"]) == 0
        assert capsys.readouterr().out.strip() == "+"
        assert main(["predict", "--model", str(model_path), "blue,square"]) == 0
        assert capsys.readouterr().out.strip() == "+"

    @pytest.mark.parametrize("row", ["nan,1", "1 inf", "0,-inf"])
    def test_gaussian_non_finite_feature(self, tmp_path, capsys, row):
        path = tmp_path / "numeric.csv"
        path.write_text("a,0,0\na,1,1\nb,5,5\nb,6,6\n", encoding="utf-8")
        model_path = tmp_path / "gauss.json"
        assert main(
            ["train", "--input", str(path), "--model", str(model_path),
             "--variant", "gaussian"]
        ) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--probs", row]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "finite" in captured.err


class TestEvaluate:
    def test_report_and_determinism(self, tmp_path, corpus_path, capsys):
        args = [
            "evaluate", "--input", str(corpus_path), "--variant", "multinomial",
            "--alpha", "1.0", "--test-fraction", "0.2", "--seed", "7",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "accuracy:" in first

    def test_report_out_json(self, tmp_path, corpus_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["evaluate", "--input", str(corpus_path), "--variant", "multinomial",
             "--test-fraction", "0.25", "--seed", "1",
             "--report-out", str(report_path)]
        )
        assert code == 0
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(doc) >= {"accuracy", "per_label", "confusion"}
        assert 0.0 <= doc["accuracy"] <= 1.0

    @pytest.mark.parametrize("variant,flags,config,weighting", [
        (
            "multinomial",
            ["--stem", "on", "--stop-words", "top:5"],
            PipelineConfig(stemming=True, stop_word_mode="frequency", frequency_top_n=5),
            RAW_COUNT,
        ),
        ("bernoulli", [], PipelineConfig(), BINARY),
    ])
    def test_report_matches_library_evaluate(
        self, tmp_path, corpus_path, capsys, variant, flags, config, weighting
    ):
        report_path = tmp_path / "report.json"
        code = main(
            ["evaluate", "--input", str(corpus_path), "--variant", variant, *flags,
             "--test-fraction", "0.25", "--seed", "5", "--report-out", str(report_path)]
        )
        assert code == 0
        train_part, test_part = split(load_corpus(corpus_path), 0.25, 5)
        archive = train(
            variant,
            [label for label, _ in train_part.documents],
            [text for _, text in train_part.documents],
            1.0,
            config,
            weighting,
        )
        expected = evaluate(archive, test_part.documents)
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc == expected.to_json_dict()
        assert f"trained on {len(train_part)} documents" in capsys.readouterr().out

    @pytest.mark.parametrize("seed,code", [
        ("9" * 64, 0), ("-" + "9" * 63, 0), ("-" + "9" * 64, 2), ("1" + "0" * 72, 2),
    ])
    def test_seed_fits_the_split_key(self, tmp_path, corpus_path, capsys, seed, code):
        report_path = tmp_path / "report.json"
        argv = ["evaluate", "--input", str(corpus_path), "--variant", "multinomial",
                "--seed", seed, "--report-out", str(report_path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: --seed must fit in 64 characters, sign included\n"
            return
        # a seed that fits splits as split() does with it
        train_part, test_part = split(load_corpus(corpus_path), 0.2, int(seed))
        archive = train(
            "multinomial",
            [label for label, _ in train_part.documents],
            [text for _, text in train_part.documents],
        )
        expected = evaluate(archive, test_part.documents).to_json_dict()
        assert json.loads(report_path.read_text(encoding="utf-8")) == expected

    @pytest.mark.parametrize("variant,cell", [("categorical", str),
                                              ("gaussian", finite_float)])
    def test_row_report_matches_library_evaluate(self, tmp_path, capsys, variant, cell):
        import random

        rng = random.Random(6)
        path = tmp_path / f"{variant}.csv"
        if variant == "categorical":
            lines = [f"{rng.choice('+-')},{rng.choice('abc')},{rng.choice('xyz')}"
                     for _ in range(40)]
        else:
            lines = [f"{lab},{rng.gauss(mu, 1):.4f},{rng.gauss(mu, 2):.4f}"
                     for lab, mu in [("low", 0), ("high", 3)] * 20]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(
            ["evaluate", "--input", str(path), "--variant", variant,
             "--test-fraction", "0.25", "--seed", "8", "--report-out", str(report_path)]
        ) == 0
        rows, labels = load_row_corpus(path, cell)
        train_part, test_part = split(LabeledCorpus(tuple(zip(labels, rows))), 0.25, 8)
        archive = train(
            variant,
            [label for label, _ in train_part.documents],
            [row for _, row in train_part.documents],
        )
        expected = evaluate(archive, test_part.documents)
        assert json.loads(report_path.read_text(encoding="utf-8")) == expected.to_json_dict()
        out = capsys.readouterr().out
        assert out.startswith(f"trained on {len(train_part)} documents, evaluated on 10\n")

    def test_fraction_validation(self, corpus_path):
        code = main(
            ["evaluate", "--input", str(corpus_path), "--variant", "multinomial",
             "--test-fraction", "1.5"]
        )
        assert code == 2

    def test_categorical_evaluate(self, toy_csv_path, capsys):
        code = main(
            ["evaluate", "--input", str(toy_csv_path), "--variant", "categorical",
             "--alpha", "1.0", "--test-fraction", "0.25", "--seed", "2"]
        )
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out

    def test_gaussian_evaluate(self, tmp_path, capsys):
        import random

        rng = random.Random(4)
        lines = []
        for _ in range(30):
            lines.append(f"low,{rng.gauss(0, 1):.4f},{rng.gauss(0, 1):.4f}")
            lines.append(f"high,{rng.gauss(6, 1):.4f},{rng.gauss(6, 1):.4f}")
        path = tmp_path / "numeric.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            ["evaluate", "--input", str(path), "--variant", "gaussian",
             "--test-fraction", "0.2", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out


@pytest.mark.parametrize("source", ["file", "stdin", "argument"])
def test_undecodable_line_names_its_source_and_line(tmp_path, corpus_path, source):
    """Files, stdin and the text argument share one UTF-8 rule, whatever the
    locale: the first line that is not UTF-8 fails at its source and number."""
    model_path = _train(tmp_path, corpus_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "nbtext.cli", "predict", "--model", str(model_path)]
    stdin, stdout = b"", b""
    if source == "file":
        bad = tmp_path / "bad.tsv"
        lines = corpus_path.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join([*lines[:2], b"spam\t\xff caf free\n", *lines[2:]]))
        argv[3:] = ["train", "--input", str(bad), "--model", str(tmp_path / "m"),
                    "--variant", "multinomial"]
        name, number = str(bad), 3
    elif source == "stdin":
        stdin, stdout = b"free prize\n\n\xff caf free\nfree prize\n", b"spam\n"
        name, number = "stdin", 3
    else:
        argv.append(b"\xff caf free")
        name, number = "text argument", 1
    res = subprocess.run(argv, input=stdin, capture_output=True, env=env, timeout=60)
    assert res.returncode == 1
    assert res.stdout == stdout
    prefix = f"error: {name}: not UTF-8 text (line {number}: ".encode()
    assert res.stderr.startswith(prefix) and res.stderr.endswith(b")\n")
    assert res.stderr.count(b"\n") == 1 and b"0xff" in res.stderr


class TestInspect:
    def test_describes_model(self, tmp_path, toy_csv_path, capsys):
        model_path = tmp_path / "toy.json"
        main(
            ["train", "--input", str(toy_csv_path), "--model", str(model_path),
             "--variant", "categorical", "--alpha", "0.0"]
        )
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "variant: categorical" in out
        assert "0.5833" in out and "0.4167" in out

    def test_top_k_zero_prints_header_only(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path), "--top-k", "0"]) == 0
        out = capsys.readouterr().out
        assert "top 0 tokens per class:" in out
        assert "\tham\t" not in out

    def test_top_k_descending(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path), "--top-k", "3"]) == 0
        lines = [
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  ")
        ]
        assert len(lines) == 6
        by_class = {}
        for ln in lines:
            label, token, p = ln.split("\t")
            by_class.setdefault(label.strip(), []).append(float(p))
        for values in by_class.values():
            assert values == sorted(values, reverse=True)

    def test_negative_top_k_is_usage_error(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path), "--top-k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--top-k" in captured.err

    @pytest.mark.parametrize("flag,note", [
        (["--top-k", "3"], "note: --top-k applies to text variants only"),
        (["--dump-vocab"], "note: this model has no vocabulary"),
    ], ids=["top-k", "dump-vocab"])
    def test_row_variant_notes_what_it_lacks(self, tmp_path, toy_csv_path, capsys,
                                             flag, note):
        model_path = tmp_path / "toy.json"
        assert main(["train", "--input", str(toy_csv_path), "--model", str(model_path),
                     "--variant", "categorical"]) == 0
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path), *flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == note + "\n"
        assert captured.out.startswith("variant: categorical\n")

    def test_dump_vocab(self, tmp_path, corpus_path, capsys):
        model_path = _train(tmp_path, corpus_path)
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path), "--dump-vocab"]) == 0
        out = capsys.readouterr().out
        dump_lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
        assert dump_lines[0].startswith("0\t")
        parts = dump_lines[0].split("\t")
        assert len(parts) == 3 and int(parts[2]) >= 1


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_cli_and_train_enforce_one_rule_set(
    tmp_path, corpus_path, toy_csv_path, capsys, variant
):
    """Every --weighting/--alpha combination the CLI rejects, train rejects
    too, and the other way round. The one CLI-only rule is that --alpha is a
    usage error for a variant that does not smooth; train ignores alpha there."""
    if variant == "categorical":
        path = toy_csv_path
        inputs, labels = load_row_corpus(path, str)
    elif variant == "gaussian":
        path = tmp_path / "numeric.csv"
        path.write_text("a,0,0\na,1,1\nb,5,5\nb,6,6\n", encoding="utf-8")
        inputs, labels = load_row_corpus(path, finite_float)
    else:
        path = corpus_path
        documents = load_corpus(path).documents
        labels, inputs = [y for y, _ in documents], [x for _, x in documents]
    smoothed = VARIANTS[variant].smoothed
    for weighting in (None, *WEIGHTING_MODES):
        for alpha in (None, "0", "0.5", "-1", "inf", "nan"):
            argv = ["train", "--input", str(path), "--model", str(tmp_path / "m"),
                    "--variant", variant]
            argv += ["--weighting", weighting] if weighting else []
            argv += ["--alpha", alpha] if alpha else []
            code = main(argv)
            capsys.readouterr()
            if alpha is not None and not smoothed:
                assert code == 2, argv
                continue
            try:
                train(variant, labels, inputs, float(alpha or 1.0), weighting=weighting)
                expected = 0
            except ValueError:
                expected = 2
            assert code == expected, argv


def _buffered_env():
    """The environment of a fresh ``python -m nbtext.cli`` with stdout block
    buffered, as it is on a file or a pipe when PYTHONUNBUFFERED is unset."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestOutputFailure:
    """Output that cannot be written is one error line and exit code 1, whether
    the write fails inside a command or when the program's exit flushes it."""

    @pytest.mark.parametrize("command", ["train", "predict", "inspect", "evaluate"])
    def test_stdout_on_a_full_device(self, tmp_path, corpus_path, command):
        model_path = _train(tmp_path, corpus_path)
        argv = {
            "train": ["--input", str(corpus_path), "--model", str(tmp_path / "m.json"),
                      "--variant", "bernoulli"],
            "predict": ["--model", str(model_path), "free prize"],
            "inspect": ["--model", str(model_path), "--top-k", "3"],
            "evaluate": ["--input", str(corpus_path), "--variant", "multinomial"],
        }[command]
        with open("/dev/full", "wb") as full:
            res = subprocess.run(
                [sys.executable, "-m", "nbtext.cli", command, *argv],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=_buffered_env(), timeout=60,
            )
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr

    def test_predict_into_a_pipe_closed_after_its_first_line(self, tmp_path, corpus_path):
        model_path = _train(tmp_path, corpus_path)
        line = b"free prize call now\n"
        # unbuffered, so that no line waits in this process once predict is gone
        with subprocess.Popen(
            [sys.executable, "-m", "nbtext.cli", "predict", "--model", str(model_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            bufsize=0, env=_buffered_env(),
        ) as proc:
            try:
                # the reader goes away after one answer, as `| head -1` does,
                # and only then do the other 1,999 lines arrive
                proc.stdin.write(line)
                assert proc.stdout.readline() == b"spam\n"
                proc.stdout.close()
                try:
                    proc.stdin.write(line * 1999)
                except BrokenPipeError:  # predict has already stopped reading
                    pass
                proc.stdin.close()
                assert proc.wait(timeout=60) == 1
                err = proc.stderr.read().decode()
            finally:
                proc.kill()
        assert err.startswith("error: ") and err.count("\n") == 1, err
