"""A complete lexical retrieval pipeline: tokenize, weight, index, evaluate.

BM25 impact weights live on the document side, so a plain term-frequency
query vector dotted against them reproduces the classic BM25 score.  The
same inverted index machinery used for the compositional methods serves as
the lexical fallback engine here.
"""

from setvec import (
    Qrels,
    Vocabulary,
    build,
    encode_bm25,
    encode_tf,
    ndcg_at_k,
    recall_at_k,
    search,
    tokenize,
)

DOCS = {
    "hummingbirds": "Birds of Colombia: hummingbirds of the high Andes fly at altitude.",
    "condor": "The condor, largest of the birds of Colombia, soars over the Andes.",
    "venezuela-guide": "A field guide to birds of Venezuela and coastal wetlands.",
    "coffee": "Coffee growing regions of Colombia and their harvest seasons.",
    "orchids": "Orchids and flowering plants: a photographic atlas.",
}

QUERY = "birds of colombia"
RELEVANT = {"hummingbirds", "condor"}


def main():
    vocab = Vocabulary()
    token_docs = {name: tokenize(text) for name, text in DOCS.items()}
    avg_len = sum(map(len, token_docs.values())) / len(token_docs)
    print(f"corpus: {len(token_docs)} docs, avg length {avg_len:.1f} tokens\n")

    idx = build(encode_bm25(token_docs.items(), vocab), vocab)

    [(_, q)] = encode_tf([("q1", tokenize(QUERY))], vocab)
    hits = search(idx, q, 5)
    print(f"query: {QUERY!r}")
    for rank, (doc, score) in enumerate(hits, 1):
        marker = "*" if doc in RELEVANT else " "
        print(f"  {rank}. [{marker}] {doc:<18} {score:.4f}")

    qrels = Qrels()
    for doc in RELEVANT:
        qrels.set("q1", doc, 1)
    ranking = [doc for doc, _ in hits]
    print(f"\nndcg@3   = {ndcg_at_k(ranking, qrels, 'q1', 3):.4f}")
    print(f"recall@2 = {recall_at_k(ranking, qrels, 'q1', 2):.4f}")


if __name__ == "__main__":
    main()
