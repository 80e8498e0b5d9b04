"""Why intersections need pseudo-terms, demonstrated end to end.

A flat term vector cannot express "must match BOTH sides": adding or
max-pooling the two atomic queries rewards documents that are merely very
strong on one side.  Expanding into term *pairs* fixes that structurally:
the pair score factorizes into (overlap with A) x (overlap with B), which is
exactly zero for one-sided documents.
"""

from setvec import (
    SparseVector,
    Vocabulary,
    add,
    build,
    expand_query,
    search,
    search_cpt,
)


def main():
    vocab = Vocabulary()
    mk = lambda terms: SparseVector.from_pairs([(t, 1.0) for t in terms], vocab)
    docs = [
        ("education-and-disability", mk(["documentary", "education", "disability"])),
        ("education-trilogy", mk(["documentary", "education", "school", "teacher"])),
        ("disability-rights", mk(["documentary", "disability", "rights", "law"])),
        ("cooking-show", mk(["documentary", "cooking"])),
    ]
    idx = build(docs, vocab)

    a = mk(["documentary", "education"])
    b = mk(["documentary", "disability"])

    print("intersection query: documentaries about education AND disability\n")

    print("addition baseline (one strong side is enough to rank high):")
    for rank, (doc, score) in enumerate(search(idx, add(a, b), 4), 1):
        print(f"  {rank}. {doc:<26} {score:.2f}")

    q = expand_query(a, b, m=5)
    print("\npseudo-term expansion of the query:")
    for key, weight in q.to_dict().items():
        print(f"  {key:<28} {weight:.2f}")

    print("\npseudo-term retrieval (two-stage, factorized rescoring):")
    for rank, (doc, score) in enumerate(search_cpt(idx, q, a, b, k=4, candidate_pool=4), 1):
        print(f"  {rank}. {doc:<26} {score:.2f}")
    print(
        "\nonly the document covering both sides scores above zero;"
        "\nthe one-sided ones are exactly 0 no matter how strong they are."
    )


if __name__ == "__main__":
    main()
