"""Corpus parsing, deterministic splits, and metric computation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtext.archive import ModelArchive, finite_float
from nbtext.evaluation import (
    CorpusFormatError,
    evaluate,
    load_corpus,
    load_row_corpus,
    split,
    split_indices,
    tally,
)
from nbtext.models import fit_multinomial
from nbtext.pipeline import PipelineConfig, run_pipeline
from nbtext.vectorize import RAW_COUNT, build_vocabulary, vectorize
from oracles import metrics_oracle


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_single_line(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "ham\tOk lar...\n")
        assert load_corpus(path) == [("ham", "Ok lar...")]
        # a byte-order mark before line 1 is not part of the label
        path = _write(tmp_path, "c.tsv", "\ufeffham\tOk lar...\n")
        assert load_corpus(path) == [("ham", "Ok lar...")]

    def test_missing_tab_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "ham\tfine\nspamFree entry\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "line", ["\tFree entry", " \tFree entry"], ids=["empty", "whitespace"]
    )
    def test_empty_label_reports_line_number(self, tmp_path, line):
        path = _write(tmp_path, "c.tsv", f"ham\tfine\n{line}\n")
        with pytest.raises(CorpusFormatError, match="c.tsv:2: expected") as err:
            load_corpus(path)
        assert err.value.line_number == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "ham\tone\n\nspam\ttwo\n\n")
        assert len(load_corpus(path)) == 2
        # lines holding only whitespace are blank too
        path = _write(tmp_path, "c.tsv", "ham\tone\n   \nspam\ttwo\n \t \n")
        assert len(load_corpus(path)) == 2

    def test_text_may_contain_tabs(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "ham\ta\tb\n")
        assert load_corpus(path) == [("ham", "a\tb")]

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "c.tsv", "")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "absent.tsv")

    def test_sample_corpus_parses(self, data_dir):
        corpus = load_corpus(data_dir / "sample_messages.tsv")
        assert {label for label, _ in corpus} == {"ham", "spam"}
        assert len(corpus) == 60


class TestCsvCorpora:
    def test_categorical(self, tmp_path):
        path = _write(tmp_path, "c.csv", "+,blue,square\n-,red,circle\n")
        documents = [("+", ["blue", "square"]), ("-", ["red", "circle"])]
        assert load_row_corpus(path, str) == documents
        path = _write(tmp_path, "c.csv", "\ufeff+,blue,square\n-,red,circle\n")
        assert load_row_corpus(path, str) == documents

    def test_ragged_rows_rejected(self, tmp_path):
        path = _write(tmp_path, "c.csv", "+,blue,square\n-,red\n")
        with pytest.raises(CorpusFormatError) as err:
            load_row_corpus(path, str)
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "line", [",red,circle", " ,red,circle"], ids=["empty", "whitespace"]
    )
    def test_empty_label_reports_line_number(self, tmp_path, line):
        path = _write(tmp_path, "c.csv", f"+,blue,square\n{line}\n")
        with pytest.raises(CorpusFormatError, match="c.csv:2: expected") as err:
            load_row_corpus(path, str)
        assert err.value.line_number == 2

    def test_numeric(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,1.5,2\nb,-3,0.25\n")
        documents = [("a", [1.5, 2.0]), ("b", [-3.0, 0.25])]
        assert load_row_corpus(path, finite_float) == documents
        path = _write(tmp_path, "c.csv", "\ufeffa,1.5,2\nb,-3,0.25\n")
        assert load_row_corpus(path, finite_float) == documents

    def test_non_numeric_rejected(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,1.5,x\n")
        with pytest.raises(CorpusFormatError):
            load_row_corpus(path, finite_float)

    def test_non_numeric_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,1,2\nb,3,4\np,x,5\n")
        with pytest.raises(CorpusFormatError) as err:
            load_row_corpus(path, finite_float)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_reports_line_number(self, tmp_path, cell):
        path = _write(tmp_path, "c.csv", f"a,1,2\nb,3,4\np,{cell},5\n")
        with pytest.raises(CorpusFormatError, match="finite") as err:
            load_row_corpus(path, finite_float)
        assert err.value.line_number == 3


def _corpus(n):
    return [(f"l{i % 2}", f"text {i}") for i in range(n)]


class TestSplit:
    def test_sizes_disjoint_union(self):
        corpus = _corpus(10)
        train, test = split(corpus, 0.2, seed=42)
        assert len(train) == 8 and len(test) == 2
        assert sorted(train + test) == sorted(corpus)
        assert not set(train) & set(test)

    def test_deterministic(self):
        corpus = _corpus(30)
        assert split(corpus, 0.3, seed=7) == split(corpus, 0.3, seed=7)

    def test_seed_changes_partition(self):
        corpus = _corpus(30)
        tests = {tuple(split(corpus, 0.3, seed=s)[1]) for s in range(5)}
        assert len(tests) > 1

    def test_five_docs_rounds_to_one(self):
        _, test = split(_corpus(5), 0.2, seed=0)
        assert len(test) == 1

    def test_half_rounds_up(self):
        # 3 docs at 0.5 -> round(1.5) = 2
        _, test = split(_corpus(3), 0.5, seed=0)
        assert len(test) == 2

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError):
            split(_corpus(10), fraction, seed=0)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            split(_corpus(2), 0.05, seed=0)

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError):
            split(_corpus(1), 0.5, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 200), st.floats(0.01, 0.99), st.integers(0, 2**32))
    def test_partition_properties(self, n, fraction, seed):
        n_test = int(n * fraction + 0.5)
        if n_test in (0, n):
            return
        train_idx, test_idx = split_indices(n, fraction, seed)
        assert len(test_idx) == n_test
        assert sorted(train_idx + test_idx) == list(range(n))

    def test_seed_longer_than_the_split_key_is_refused(self):
        # blake2b keys hold 64 bytes; the seed is keyed by its decimal digits
        assert len(split_indices(10, 0.2, -(10**62))[1]) == 2
        with pytest.raises(ValueError, match=f"seed {10**72} is too long"):
            split_indices(10, 0.2, 10**72)
        with pytest.raises(ValueError, match="64 bytes"):
            split(_corpus(10), 0.2, seed=-(10**64))

    @pytest.mark.parametrize("seed", [0, 42, -7, 10**63], ids=["0", "42", "negative", "64-chars"])
    def test_split_is_the_keyed_blake2b_order(self, seed):
        # the reproducible split, spelt out with hashlib: indices in the order of
        # a 64-bit blake2b digest of their decimal form, keyed by the seed's
        key = str(seed).encode("ascii")
        order = sorted(range(50), key=lambda i: (hashlib.blake2b(
            str(i).encode("ascii"), digest_size=8, key=key).digest(), i))
        assert split_indices(50, 0.3, seed) == (sorted(order[15:]), sorted(order[:15]))

    @pytest.mark.parametrize("seed", ["x", "7", 1.5, 7.0, True, None])
    def test_seed_that_is_not_an_int_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            split_indices(10, 0.2, seed)
        with pytest.raises(ValueError, match="seed must be an int"):
            split(_corpus(10), 0.2, seed=seed)


def _report_from_counts(tp, fp, fn, tn):
    pairs = (
        [("pos", "pos")] * tp
        + [("neg", "pos")] * fp
        + [("pos", "neg")] * fn
        + [("neg", "neg")] * tn
    )
    return tally(pairs, ["pos", "neg"]), pairs


class TestTally:
    def test_perfect_classifier(self):
        report = tally([("a", "a"), ("b", "b"), ("a", "a")], ["a", "b"])
        assert report.accuracy == 1.0
        assert report.confusion["a"]["b"] == 0
        assert report.confusion["b"]["a"] == 0

    def test_textbook_counts(self):
        report, _ = _report_from_counts(tp=3, fp=1, fn=1, tn=5)
        assert report.per_label["pos"].precision == pytest.approx(0.75)
        assert report.per_label["pos"].recall == pytest.approx(0.75)
        assert report.accuracy == pytest.approx(0.8)

    def test_confusion_sums_to_n(self):
        report, pairs = _report_from_counts(tp=3, fp=2, fn=4, tn=1)
        total = sum(sum(row.values()) for row in report.confusion.values())
        assert total == report.n_test == len(pairs)

    def test_accuracy_is_trace_over_n(self):
        report, _ = _report_from_counts(tp=3, fp=2, fn=4, tn=1)
        trace = sum(report.confusion[lab][lab] for lab in report.confusion)
        assert report.accuracy == pytest.approx(trace / report.n_test, abs=1e-12)

    def test_zero_division_flagged(self):
        # model never predicts "b": precision denominator 0
        report = tally([("a", "a"), ("b", "a")], ["a", "b"])
        assert report.per_label["b"].precision == 0.0
        assert "b" in report.zero_division_labels

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError, match="nothing to tally"):
            tally([], ["a"])

    def test_unknown_true_label_gets_a_row(self):
        report = tally([("a", "a"), ("mystery", "a")], ["a", "b"])
        assert report.confusion["mystery"]["a"] == 1
        assert report.accuracy == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), min_size=1
        )
    )
    def test_matches_direct_counting(self, pairs):
        report = tally(pairs, ["a", "b", "c"])
        acc, per = metrics_oracle(pairs)
        assert report.accuracy == pytest.approx(acc, abs=1e-12)
        for lab, m in per.items():
            assert report.per_label[lab].precision == pytest.approx(m["precision"])
            assert report.per_label[lab].recall == pytest.approx(m["recall"])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), min_size=1
        )
    )
    def test_precision_recall_consistent_with_confusion(self, pairs):
        report = tally(pairs, ["a", "b", "c"])
        for lab, m in report.per_label.items():
            row = sum(report.confusion[lab].values())
            col = sum(report.confusion[t][lab] for t in report.confusion)
            diag = report.confusion[lab][lab]
            if row:
                assert m.recall == pytest.approx(diag / row, abs=1e-12)
            if col:
                assert m.precision == pytest.approx(diag / col, abs=1e-12)


class TestEvaluate:
    @pytest.fixture
    def trained(self, data_dir):
        corpus = load_corpus(data_dir / "sample_messages.tsv")
        train, test = split(corpus, 0.25, seed=3)
        config = PipelineConfig()
        streams = [run_pipeline(text, config) for _, text in train]
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, RAW_COUNT) for s in streams]
        labels = [label for label, _ in train]
        model = fit_multinomial(vecs, labels, vocab, alpha=1.0)
        return model, config, vocab, test

    def test_end_to_end_report(self, trained):
        model, config, vocab, test = trained
        report = evaluate(
            ModelArchive("multinomial", model, config, vocab, RAW_COUNT), test
        )
        assert report.n_test == len(test)
        assert 0.0 <= report.accuracy <= 1.0
        total = sum(sum(row.values()) for row in report.confusion.values())
        assert total == report.n_test

    def test_deterministic(self, trained):
        model, config, vocab, test = trained
        a = evaluate(
            ModelArchive("multinomial", model, config, vocab, RAW_COUNT), test
        )
        b = evaluate(
            ModelArchive("multinomial", model, config, vocab, RAW_COUNT), test
        )
        assert a == b

    def test_out_of_vocabulary_document_falls_back_to_prior(self, trained):
        model, config, vocab, _ = trained
        archive = ModelArchive("multinomial", model, config, vocab, RAW_COUNT)
        report = evaluate(archive, [("ham", "zzzz qqqq xxxx")])
        prior_argmax = max(
            model.priors.probabilities, key=lambda c: (model.priors.probabilities[c], c)
        )
        predicted = [
            p for p, n in report.confusion["ham"].items() if n
        ]
        assert predicted == [prior_argmax]

    def test_json_dict_shape(self, trained):
        model, config, vocab, test = trained
        report = evaluate(
            ModelArchive("multinomial", model, config, vocab, RAW_COUNT), test
        )
        doc = report.to_json_dict()
        assert set(doc) >= {"accuracy", "per_label", "confusion", "n_test"}
        for metrics in doc["per_label"].values():
            assert set(metrics) == {"precision", "recall", "f1"}
        assert all(
            isinstance(n, int) for row in doc["confusion"].values() for n in row.values()
        )
