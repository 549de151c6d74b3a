"""Tokenization, stop words, n-grams, and the composed pipeline."""

import string
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtext.pipeline import (
    PipelineConfig,
    StopList,
    build_stop_list,
    load_stop_list,
    ngrams,
    read_lines,
    run_pipeline,
    tokenize,
)
from oracles import strip_boundary_punctuation_oracle

DEFAULTS = PipelineConfig()
DICTIONARY = PipelineConfig(stop_word_mode="dictionary")


class TestTokenize:
    def test_sentence_with_punctuation(self):
        text = "A swimmer likes swimming, thus he swims."
        assert tokenize(text, DEFAULTS) == [
            "a", "swimmer", "likes", "swimming", "thus", "he", "swims",
        ]

    def test_empty_text(self):
        assert tokenize("", DEFAULTS) == []

    def test_case_folding_merges_variants(self):
        assert tokenize("Hello, HELLO hello!", DEFAULTS) == ["hello"] * 3

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("wait... -- ?! what", DEFAULTS) == ["wait", "what"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop", DEFAULTS) == ["don't", "stop"]

    def test_unicode_boundary_punctuation(self):
        assert tokenize("«quoted» —dash", DEFAULTS) == ["quoted", "dash"]

    def test_no_lowercase(self):
        config = PipelineConfig(lowercase=False)
        assert tokenize("Big Deal", config) == ["Big", "Deal"]

    def test_no_punctuation_strip(self):
        config = PipelineConfig(strip_punctuation=False)
        assert tokenize("stop.", config) == ["stop."]

    def test_order_preserved(self):
        assert tokenize("c b a", DEFAULTS) == ["c", "b", "a"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)))
    def test_idempotent_on_clean_tokens(self, tokens):
        assert tokenize(" ".join(tokens), DEFAULTS) == tokens

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
            min_size=1,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_whitespace_runs_are_equivalent(self, tokens, width):
        wide = (" " * width).join(tokens)
        assert tokenize(wide, DEFAULTS) == tokenize(" ".join(tokens), DEFAULTS)

    def test_no_code_point_without_upper_or_title_case_changes_in_lowercase(self):
        # tokenize keeps a string that islower() as it is, without lower()
        changed = [
            hex(c) for c in range(sys.maxunicode + 1)
            if not chr(c).isupper() and not chr(c).istitle() and chr(c).lower() != chr(c)
        ]
        assert changed == []

    def test_no_code_point_is_alphanumeric_punctuation(self):
        # tokenize returns a token whose first and last characters are
        # alphanumeric without looking for boundary punctuation
        both = [
            hex(c) for c in range(sys.maxunicode + 1)
            if chr(c).isalnum() and unicodedata.category(chr(c)).startswith("P")
        ]
        assert both == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from(string.ascii_letters + string.digits + string.punctuation),
                st.sampled_from(" \t\n«»¿¡—–…“”‘’·•§¶†‡€£©®°±×÷"),
                st.characters(
                    whitelist_categories=("L", "N", "P", "S", "Zs"),
                    max_codepoint=0x1FFFF,
                ),
            ),
            max_size=60,
        ),
        st.booleans(),
    )
    def test_matches_character_by_character_oracle(self, text, lowercase):
        config = PipelineConfig(lowercase=lowercase)
        expected = []
        for raw in text.split():
            tok = strip_boundary_punctuation_oracle(raw)
            if tok:
                expected.append(tok.lower() if lowercase else tok)
        assert tokenize(text, config) == expected


class TestStopWords:
    def test_most_frequent_token_wins(self):
        stops = build_stop_list([["a", "b", "a"], ["a", "c"]], 1)
        assert stops.words == {"a"}

    def test_fewer_distinct_than_n(self):
        assert build_stop_list([["x"]], 5).words == {"x"}

    def test_tie_takes_both(self):
        assert build_stop_list([["a", "b"], ["b", "a"]], 2).words == {"a", "b"}

    def test_tie_at_cutoff_is_lexicographic(self):
        # b and c tie with 2; a leads with 3; cutoff picks b over c
        stops = build_stop_list([["a", "b", "c"], ["a", "b", "c"], ["a"]], 2)
        assert stops.words == {"a", "b"}

    def test_tie_at_cutoff_compares_whole_tokens(self):
        # ab and ba tie with 1 behind z; the cutoff takes ab, which comes first
        # read left to right, though ba comes first read from the last letter
        stops = build_stop_list([["z", "ba", "ab"], ["z"]], 2)
        assert stops.words == {"z", "ab"}

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            build_stop_list([["x"]], 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_stop_list([], 3)

    def test_removal_keeps_content_words(self):
        text = "A swimmer likes swimming, thus he swims."
        stops = StopList(frozenset({"a", "thus", "he"}))
        assert run_pipeline(text, DICTIONARY, stops) == [
            "swimmer", "likes", "swimming", "swims",
        ]

    def test_empty_stop_list_is_identity(self):
        assert run_pipeline("x y", DICTIONARY, StopList(frozenset())) == ["x", "y"]

    def test_all_stop_words(self):
        stops = StopList(frozenset({"the"}))
        assert run_pipeline("the The THE", DICTIONARY, stops) == []

    def test_empty_stop_word_rejected(self):
        with pytest.raises(ValueError):
            StopList(frozenset({""}))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from("abcde")),
        st.frozensets(st.sampled_from("abcde")),
    )
    def test_removal_yields_subsequence(self, stream, words):
        out = run_pipeline(" ".join(stream), DICTIONARY, StopList(words))
        it = iter(stream)
        assert all(tok in it for tok in out)
        assert not set(out) & words

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abcdef")), min_size=1),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_a_full_sort(self, corpus, n):
        counts = Counter(tok for stream in corpus for tok in stream)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        expected = frozenset(tok for tok, _ in ranked[:n])
        assert build_stop_list(corpus, n).words == expected

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# common words\nthe  \na\n\nis\n", encoding="utf-8")
        stops = load_stop_list(path)
        assert stops.words == {"the", "a", "is"}
        assert stops.origin == "dictionary"
        # a byte-order mark before line 1 is not part of the first word
        path.write_text("\ufeffthe\na\n \t \nis\n", encoding="utf-8")
        assert load_stop_list(path).words == stops.words


class TestReadLines:
    def test_numbers_count_skipped_lines(self):
        lines = ["a\n", "\n", " \t\x1c\x85\n", "b c\n", "d"]
        assert list(read_lines(lines)) == [(1, "a"), (4, "b c"), (5, "d")]

    def test_byte_order_mark_dropped_before_line_1_only(self):
        lines = ["\ufeffa\n", "\ufeffb\n"]
        assert list(read_lines(lines)) == [(1, "a"), (2, "\ufeffb")]
        assert list(read_lines(["\ufeff\n", "a"])) == [(2, "a")]

    def test_keeps_inner_and_leading_whitespace(self):
        # only the newline goes; a label or word keeps what surrounds it
        assert list(read_lines([" a\tb \r\n"])) == [(1, " a\tb \r")]


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "swimmer", "likes", "swimming"], 2) == [
            "a swimmer", "swimmer likes", "likes swimming",
        ]

    def test_unigram_identity(self):
        assert ngrams(["x"], 1) == ["x"]

    def test_n_exceeds_length(self):
        assert ngrams(["x", "y"], 3) == []

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ngrams(["x"], 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(alphabet="xyz", min_size=1, max_size=3)),
        st.integers(min_value=1, max_value=6),
    )
    def test_output_length(self, stream, n):
        assert len(ngrams(stream, n)) == max(0, len(stream) - n + 1)

    def test_n_past_any_length_returns_at_once(self):
        # zipping n slices of the stream would take n steps before the first
        assert ngrams(["a", "b"], 10**400) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet="xy z", min_size=1, max_size=3), max_size=7),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_slice_and_join(self, stream, n):
        expected = [" ".join(stream[i : i + n]) for i in range(len(stream) - n + 1)]
        assert ngrams(stream, n) == expected


class TestRunPipeline:
    def test_stemmed_sentence(self):
        config = PipelineConfig(stemming=True)
        out = run_pipeline("A swimmer likes swimming, thus he swims.", config)
        assert out == ["a", "swimmer", "like", "swim", "thu", "he", "swim"]

    def test_all_stages_disabled_matches_tokenize(self):
        text = "Plain words only here"
        assert run_pipeline(text, DEFAULTS) == tokenize(text, DEFAULTS)

    def test_stem_then_bigram(self):
        config = PipelineConfig(stemming=True, ngram_size=2)
        assert run_pipeline("swimmers swim", config) == ["swimmer swim"]

    def test_missing_stop_list_rejected(self):
        config = PipelineConfig(stop_word_mode="dictionary")
        with pytest.raises(ValueError):
            run_pipeline("some text", config)

    def test_stop_removal_before_stemming(self):
        # "swimming" must be removed as a surface form, before it stems
        config = PipelineConfig(stop_word_mode="dictionary", stemming=True)
        stops = StopList(frozenset({"swimming"}))
        assert run_pipeline("swimming swimmers", config, stops) == ["swimmer"]

    def test_empty_stems_dropped(self):
        # the token "s" stems to the empty string and must not survive
        config = PipelineConfig(stemming=True)
        assert run_pipeline("s cats", config) == ["cat"]

    def test_no_empty_tokens_ever(self):
        config = PipelineConfig(stemming=True, ngram_size=2)
        out = run_pipeline("s s! ... cats dogs", config)
        assert all(out)

    def test_frequency_mode_requires_top_n(self):
        with pytest.raises(ValueError):
            PipelineConfig(stop_word_mode="frequency")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(stop_word_mode="sometimes")

    def test_bad_ngram_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(ngram_size=0)
