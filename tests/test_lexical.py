import math
from collections import Counter

import numpy as np
import pytest

from setvec import Vocabulary, dot, encode_bm25, encode_tf, lexical, tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Birds of Colombia") == ["birds", "of", "colombia"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("non-European!") == ["non", "european"]

    def test_unicode_whitespace_and_marks(self):
        assert tokenize("café au,lait") == ["café", "au", "lait"]


def tf(tokens, vocab):
    """The TF vector of one token list, as a one-row batch's only row."""
    [(_, vec)] = encode_tf([("q", tokens)], vocab)
    return vec


def reference_tf(docs):
    """Per-document ``{term: count}`` dicts, counted without the library."""
    return [{term: float(count) for term, count in Counter(tokens).items()} for _, tokens in docs]


class TestEncodeTf:
    def test_counts_multiplicity(self, vocab):
        assert tf(["a", "b", "a"], vocab).to_dict() == {"a": 2.0, "b": 1.0}

    def test_empty(self, vocab):
        assert tf([], vocab).nnz == 0
        assert len(encode_tf([], vocab)) == 0

    def test_single(self, vocab):
        assert tf(["x"], vocab).to_dict() == {"x": 1.0}

    def test_weights_are_positive_integers(self, vocab):
        rng = np.random.default_rng(3)
        alphabet = [f"w{i}" for i in range(20)]
        for _ in range(50):
            tokens = list(rng.choice(alphabet, size=rng.integers(0, 60)))
            vec = tf(tokens, vocab)
            for tid, w in vec.entries():
                assert w == int(w) and w >= 1.0
                assert tokens.count(vocab.term(tid)) == int(w)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_counter_reference(self, seed, monkeypatch):
        """Random corpora, some spanning several counting blocks, with empty
        documents and a vocabulary that already holds some of their terms."""
        monkeypatch.setattr(lexical, "ENCODE_BLOCK_DOCS", 7)
        rng = np.random.default_rng(seed)
        alphabet = [f"w{i}" for i in range(int(rng.integers(1, 40)))] + ["café", "日本"]
        docs = [
            (f"d{i}", [str(t) for t in rng.choice(alphabet, size=rng.integers(0, 25))])
            for i in range(int(rng.integers(0, 30)))
        ]
        vocab = Vocabulary(alphabet[: int(rng.integers(0, 5))])
        known = vocab.terms
        batch = encode_tf(iter(docs), vocab)
        assert batch.names == [name for name, _ in docs]
        assert [vec.to_dict() for _, vec in batch] == reference_tf(docs)
        # Unseen terms follow the known ones in first-occurrence order.
        seen = dict.fromkeys(known)
        seen.update(dict.fromkeys(t for _, tokens in docs for t in tokens))
        assert vocab.terms == tuple(seen)


def reference_bm25(query_tokens, doc_tokens, all_docs, k1, b):
    """Straightforward BM25 scorer kept independent of the library code."""
    n = len(all_docs)
    avgdl = sum(len(d) for d in all_docs) / n
    dl = len(doc_tokens)
    score = 0.0
    for term in set(query_tokens):
        tf = doc_tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for d in all_docs if term in d)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += (
            query_tokens.count(term)
            * idf
            * tf
            * (k1 + 1)
            / (tf + k1 * (1 - b + b * dl / avgdl))
        )
    return score


def bm25(docs, vocab, **params):
    """BM25 vectors of a list of token lists, in corpus order."""
    return [vec for _, vec in encode_bm25(((str(i), d) for i, d in enumerate(docs)), vocab, **params)]


class TestBm25:
    def test_term_in_every_doc(self, vocab):
        # N=2, df=2, tf=1, dl=avgdl: the tf factor is (k1+1)/(1+k1) = 1, so
        # the weight is just idf = ln(1 + 0.5/2.5) = ln(1.2).
        vec = bm25([["x", "a"], ["x", "b"]], vocab)[0]
        assert vec.get(vocab.get("x")) == pytest.approx(math.log(1.2), rel=1e-12)

    def test_absent_term_absent(self, vocab):
        vec = bm25([["x"], ["y"]], vocab)[0]
        assert vec.get(vocab.get("y")) == 0.0

    def test_single_doc_corpus_idf(self, vocab):
        # N=df=1 gives idf = ln(1 + 0.5/1.5) = ln(4/3) for every term.
        vec = bm25([["only", "doc"]], vocab)[0]
        expected = math.log(4.0 / 3.0)
        for _, w in vec.entries():
            assert w == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_tf_and_df(self, vocab):
        # More occurrences never lower the weight; a rarer term never scores lower.
        docs = [["t"] * (i + 1) + ["pad"] for i in range(6)]
        probes = [["t"] * tf + ["pad"] * 3 for tf in range(1, 6)]
        vecs = bm25(docs + probes, vocab)[len(docs):]
        weights = [vec.get(vocab.get("t")) for vec in vecs]
        assert all(b >= a for a, b in zip(weights, weights[1:]))

        vocab2 = Vocabulary()
        vec = bm25([["rare", "x"], ["x"], ["x"], ["x"]], vocab2)[0]
        assert vec.get(vocab2.get("rare")) > vec.get(vocab2.get("x"))

    def test_scoring_equivalence_with_reference(self, vocab):
        rng = np.random.default_rng(31)
        alphabet = [f"w{i}" for i in range(15)]
        docs = [
            list(rng.choice(alphabet, size=rng.integers(1, 30))) for _ in range(12)
        ]
        k1, b = 0.9, 0.4
        vecs = bm25(docs, vocab, k1=k1, b=b)
        for _ in range(40):
            query = list(rng.choice(alphabet, size=rng.integers(1, 6)))
            i = int(rng.integers(0, len(docs)))
            ours = dot(tf(query, vocab), vecs[i])
            ref = reference_bm25(query, docs[i], docs, k1, b)
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_term_ids_in_first_occurrence_order(self, vocab):
        bm25([["b", "a", "b"], [], ["c", "a"]], vocab)
        assert vocab.terms == ("b", "a", "c")

    def test_empty_docs(self, vocab):
        assert [vec.nnz for vec in bm25([[], ["a"], []], vocab)] == [0, 1, 0]
        assert [vec.nnz for vec in bm25([[], []], vocab)] == [0, 0]
        assert bm25([], vocab) == []

    def test_parameter_validation(self, vocab):
        # Checked before any document is read.
        def docs():
            raise AssertionError("docs read before the parameters were checked")
            yield

        for params in ({"k1": -0.1}, {"k1": math.nan}, {"k1": math.inf},
                       {"b": 1.5}, {"b": -0.1}, {"b": math.nan}):
            with pytest.raises(ValueError):
                encode_bm25(docs(), vocab, **params)
