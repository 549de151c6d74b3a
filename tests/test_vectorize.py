"""Vocabulary construction, sparse weighting modes, and idf."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtext.vectorize import (
    BINARY,
    NORMALIZED_TF,
    RAW_COUNT,
    TFIDF,
    SparseVector,
    Vocabulary,
    WEIGHTING_MODES,
    build_vocabulary,
    dump_vocabulary,
    index_streams,
    vectorize,
    weigh,
)
from oracles import vectorize_oracle, vocabulary_oracle

D1 = ["each", "state", "has", "its", "own", "laws"]
D2 = ["every", "country", "has", "its", "own", "culture"]

token_streams = st.lists(
    st.lists(st.sampled_from("abcdefgh"), max_size=12), min_size=1, max_size=10
)


@pytest.fixture
def two_doc_vocab():
    return build_vocabulary([D1, D2])


class TestBuildVocabulary:
    def test_two_document_aggregate(self, two_doc_vocab):
        vocab = two_doc_vocab
        assert len(vocab) == 9
        expected_df = {
            "each": 1, "state": 1, "has": 2, "its": 2, "own": 2,
            "laws": 1, "every": 1, "country": 1, "culture": 1,
        }
        for tok, df in expected_df.items():
            assert vocab.document_frequency[vocab.token_to_id[tok]] == df
        assert vocab.total_documents == 2

    def test_first_appearance_ids(self, two_doc_vocab):
        ordered = D1 + ["every", "country", "culture"]
        assert two_doc_vocab.tokens == ordered

    def test_repeats_in_one_document_count_once(self):
        vocab = build_vocabulary([["x", "x", "x"]])
        assert len(vocab) == 1
        assert vocab.document_frequency == [1]

    def test_document_frequency_counts_documents(self):
        vocab = build_vocabulary([["a"], ["a"], ["b"]])
        assert vocab.document_frequency[vocab.token_to_id["a"]] == 2
        assert vocab.document_frequency[vocab.token_to_id["b"]] == 1
        assert vocab.total_documents == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_df_bounds_validated(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"], [5], 2)
        with pytest.raises(ValueError):
            Vocabulary(["a"], [0], 2)
        with pytest.raises(ValueError, match="distinct"):
            Vocabulary(["a", "a"], [1], 1)

    @settings(max_examples=200, deadline=None)
    @given(token_streams)
    def test_ids_are_dense(self, corpus):
        vocab = build_vocabulary(corpus)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))
        assert all(
            1 <= df <= vocab.total_documents for df in vocab.document_frequency
        )


class TestVocabularyIds:
    """A token's id is its position in ``tokens``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(["", "a", "b", "c"]), st.integers(0, 2),
                              st.none()), max_size=6))
    def test_tokens_are_accepted_exactly_when_distinct_strings(self, tokens):
        n, distinct = len(tokens), len(set(tokens)) == len(tokens)
        if distinct and all(type(tok) is str for tok in tokens):
            vocab = Vocabulary(tokens, [1] * n, 1)
            assert [vocab.token_to_id[tok] for tok in tokens] == list(range(n))
            assert list(vocab.token_to_id) == tokens and len(vocab) == n
        else:  # a repeat leaves fewer ids than counts (see the next test)
            strings = all(type(tok) is str for tok in tokens)
            with pytest.raises(ValueError, match="^document_freq" if strings
                               else r"^Vocabulary\.tokens must be list\[str\]$"):
                Vocabulary(tokens, [1] * n, 1)

    # A gap, shift or out-of-range id cannot be given: ids are positions. A
    # repeat is a repeated token; the id map holds one id per distinct token,
    # and document frequencies as many as the tokens are checked against it first.
    @pytest.mark.parametrize("df, message", [
        ([1, 1, 1], "document_frequency length must equal vocabulary size"),
        ([1, 1], "vocabulary tokens must be distinct"),
    ], ids=["repeat", "repeat-zero"])
    def test_a_gap_or_a_repeat_is_refused(self, df, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Vocabulary(["a", "b", "a"], df, 1)

    @pytest.mark.parametrize("tokens", ["ab", ("a", "b"), {"a": 0, "b": 1}])
    def test_tokens_must_be_a_list(self, tokens):
        with pytest.raises(ValueError, match=r"^Vocabulary\.tokens must be list\[str\]$"):
            Vocabulary(tokens, [1, 1], 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=20),
       st.lists(st.integers(1, 3), min_size=6, max_size=6))
def test_weigh_matches_a_counter_reference(ids, df):
    """Every mode's entries, their order, weights and weight types are what
    counting with a Counter gives; None stands for an out-of-vocabulary token."""
    vocab = Vocabulary(list("abcdef"), df, 3)
    n_d = len(ids)
    counts = Counter(ids)
    counts.pop(None, None)
    expected = {
        BINARY: dict.fromkeys(counts, 1),
        RAW_COUNT: dict(counts),
        NORMALIZED_TF: {i: tf / n_d for i, tf in counts.items()},
        TFIDF: {i: w for i, tf in counts.items()
                if (w := tf / n_d * math.log(3 / df[i])) > 0},
    }
    for mode in WEIGHTING_MODES:
        entries = weigh(iter(ids), n_d, vocab, mode)
        assert type(entries) is dict, mode
        assert [(i, w, type(w)) for i, w in entries.items()] == [
            (i, w, type(w)) for i, w in expected[mode].items()
        ], mode


class TestVectorize:
    def test_raw_count_row(self, two_doc_vocab):
        vec = vectorize(D1, two_doc_vocab, RAW_COUNT)
        t = two_doc_vocab.token_to_id
        assert vec.entries == {t[w]: 1 for w in D1}
        assert vec.doc_length == 6

    def test_binary_row(self, two_doc_vocab):
        vec = vectorize(D2, two_doc_vocab, BINARY)
        t = two_doc_vocab.token_to_id
        assert vec.entries == {t[w]: 1 for w in D2}

    def test_normalized_tf_with_oov(self):
        vocab = build_vocabulary([["a", "b"]])
        vec = vectorize(["a", "a", "b", "c"], vocab, NORMALIZED_TF)
        assert vec.entries == {vocab.token_to_id["a"]: 2 / 4, vocab.token_to_id["b"]: 1 / 4}
        assert vec.doc_length == 4

    def test_empty_stream(self, two_doc_vocab):
        vec = vectorize([], two_doc_vocab, RAW_COUNT)
        assert vec.entries == {}
        assert vec.doc_length == 0

    def test_negative_doc_length_rejected(self):
        with pytest.raises(ValueError, match="doc_length must be nonnegative"):
            SparseVector({}, -1)

    def test_unknown_mode_rejected(self, two_doc_vocab):
        with pytest.raises(ValueError):
            vectorize(D1, two_doc_vocab, "hashed")

    def test_ubiquitous_term_dropped_from_tfidf(self, two_doc_vocab):
        # "has" is in both documents: idf 0, so its weight vanishes
        vec = vectorize(["has", "laws"], two_doc_vocab, TFIDF)
        t = two_doc_vocab.token_to_id
        assert t["has"] not in vec.entries
        assert vec.entries[t["laws"]] == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_entries_strictly_positive(self):
        with pytest.raises(ValueError):
            SparseVector({0: 0.0}, 1)
        with pytest.raises(ValueError):
            SparseVector({0: -1.0}, 1)
        with pytest.raises(ValueError):
            SparseVector({0: math.nan}, 1)
        with pytest.raises(ValueError):
            SparseVector({0: math.inf}, 1)

    @settings(max_examples=200, deadline=None)
    @given(token_streams, st.lists(st.sampled_from("abcdefghij"), max_size=20))
    def test_binary_is_raw_count_clamped(self, corpus, stream):
        vocab = build_vocabulary(corpus)
        raw = vectorize(stream, vocab, RAW_COUNT)
        binary = vectorize(stream, vocab, BINARY)
        assert binary.entries == {i: 1 for i in raw.entries}

    @settings(max_examples=200, deadline=None)
    @given(
        token_streams,
        st.lists(st.sampled_from("abcdefghij"), max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_order_invariance(self, corpus, stream, rng):
        vocab = build_vocabulary(corpus)
        shuffled = list(stream)
        rng.shuffle(shuffled)
        for mode in (BINARY, RAW_COUNT, NORMALIZED_TF, TFIDF):
            assert vectorize(stream, vocab, mode).entries == pytest.approx(
                vectorize(shuffled, vocab, mode).entries
            )

    @settings(max_examples=200, deadline=None)
    @given(token_streams, st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=20))
    def test_normalized_tf_sums_to_at_most_one(self, corpus, stream):
        vocab = build_vocabulary(corpus)
        vec = vectorize(stream, vocab, NORMALIZED_TF)
        total = sum(vec.entries.values())
        assert total <= 1 + 1e-12
        all_known = all(tok in vocab.token_to_id for tok in stream)
        if all_known:
            assert total == pytest.approx(1.0, abs=1e-9)
        else:
            assert total < 1

    @settings(max_examples=200, deadline=None)
    @given(token_streams, st.lists(st.sampled_from("abcdefghij"), max_size=20))
    def test_raw_count_sum_bounded_by_doc_length(self, corpus, stream):
        vocab = build_vocabulary(corpus)
        vec = vectorize(stream, vocab, RAW_COUNT)
        assert sum(vec.entries.values()) <= vec.doc_length


class TestAgainstOracle:
    """Exact agreement, ids, weights, value types and entry order, with the
    per-entry reference in ``oracles``."""

    @settings(max_examples=200, deadline=None)
    @given(token_streams)
    def test_vocabulary(self, corpus):
        vocab = build_vocabulary(corpus)
        token_to_id, df, n_docs = vocabulary_oracle(corpus)
        assert list(vocab.token_to_id.items()) == list(token_to_id.items())
        assert vocab.document_frequency == df
        assert vocab.total_documents == n_docs

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.lists(st.lists(st.integers(0, 399).map("t{}".format),
                                            max_size=40), min_size=1, max_size=8))
    def test_index_streams_keeps_the_map_it_assigned_the_ids_with(self, padded, corpus):
        # a first document of 300 tokens puts most ids past the small ints that
        # CPython caches, so an id the map holds is the id lists' int only if
        # the map is the one the lists were built with
        corpus = [[f"t{i}" for i in range(300)], *corpus] if padded else corpus
        id_lists, vocab = index_streams(corpus)
        rebuilt = Vocabulary(vocab.tokens, vocab.document_frequency, vocab.total_documents)
        assert vocab == rebuilt
        assert list(vocab.token_to_id.items()) == list(rebuilt.token_to_id.items())
        for stream, ids in zip(corpus, id_lists):
            assert all(vocab.token_to_id[tok] is i for tok, i in zip(stream, ids))
        token_to_id, df, n_docs = vocabulary_oracle(corpus)
        assert id_lists == [[token_to_id[tok] for tok in stream] for stream in corpus]
        assert vocab.document_frequency == df and vocab.total_documents == n_docs
        with pytest.raises(KeyError):
            vocab.token_to_id["absent"]
        assert "absent" not in vocab.token_to_id and len(vocab.token_to_id) == len(vocab)

    @settings(max_examples=200, deadline=None)
    @given(token_streams, st.lists(st.sampled_from("abcdefghij"), max_size=20))
    def test_vectorize_every_weighting(self, corpus, stream):
        # "i" and "j" never enter the vocabulary
        vocab = build_vocabulary(corpus)
        for mode in (BINARY, RAW_COUNT, NORMALIZED_TF, TFIDF):
            vec = vectorize(stream, vocab, mode)
            expected = vectorize_oracle(stream, *vocabulary_oracle(corpus), mode)
            assert [(i, w, type(w)) for i, w in vec.entries.items()] == [
                (i, w, type(w)) for i, w in expected.items()
            ], mode
            assert vec.doc_length == len(stream)


class TestIdf:
    def test_term_in_every_document(self):
        vocab = build_vocabulary([["a"], ["a"]])
        assert vocab.idf_table[0] == 0.0

    def test_half_the_documents(self):
        vocab = build_vocabulary([["a"], ["b"]])
        assert vocab.idf_table[0] == pytest.approx(math.log(2), abs=1e-15)

    def test_large_ratio(self):
        vocab = Vocabulary(["t"], [10], 1000)
        assert vocab.idf_table[0] == pytest.approx(math.log(100), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 1000))
    def test_antitone_and_nonnegative(self, df1, df2, extra):
        total = max(df1, df2) + extra
        vocab = Vocabulary(["a", "b"], [min(df1, df2), max(df1, df2)], total)
        assert vocab.idf_table[0] >= vocab.idf_table[1] >= 0.0
        if df1 != df2:
            assert vocab.idf_table[0] > vocab.idf_table[1]

    @settings(max_examples=200, deadline=None)
    @given(token_streams, st.lists(st.sampled_from("abcdefghij"), max_size=20))
    def test_vectorize_reads_the_idf_of_each_entry(self, corpus, stream):
        """tf-idf reads the vocabulary's idf table, which holds
        ln(total_documents / df) per id."""
        vocab = build_vocabulary(corpus)
        assert vocab.idf_table == [
            math.log(vocab.total_documents / df) for df in vocab.document_frequency
        ]
        counts = Counter(vocab.token_to_id[tok] for tok in stream if tok in vocab.token_to_id)
        expected = [
            (i, w)
            for i, tf in counts.items()
            if (w := (tf / len(stream)) * vocab.idf_table[i]) > 0
        ]
        assert list(vectorize(stream, vocab, TFIDF).entries.items()) == expected


def test_dump_format(two_doc_vocab):
    lines = dump_vocabulary(two_doc_vocab).splitlines()
    assert lines[0] == "0\teach\t1"
    assert lines[2] == "2\thas\t2"
    assert len(lines) == 9
