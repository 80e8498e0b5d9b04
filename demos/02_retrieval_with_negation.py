"""Show how negative query weights change rankings on a small corpus.

The index is exact: every touched document is scored fully, including
documents whose accumulated score is zero or negative.  That is what makes
penalty terms work: a document mentioning the negated aspect is actively
pushed *below* neutral documents instead of merely not being boosted.
"""

from setvec import (
    SparseVector,
    Vocabulary,
    build,
    difference_disentangled,
    search,
)

CORPUS = {
    "andes-guide": ["birds", "fly", "colombia", "andes"],
    "both-countries": ["birds", "colombia", "venezuela"],
    "caracas-birding": ["birds", "fly", "venezuela"],
    "coffee-farming": ["coffee", "colombia"],
    "generic-birding": ["birds", "fly"],
    "caracas-wetlands": ["venezuela", "wetlands", "coast"],
}


def print_run(label, hits):
    print(f"  {label}:")
    for rank, (doc, score) in enumerate(hits, start=1):
        print(f"    {rank}. {doc:<16} {score:+.2f}")


def main():
    vocab = Vocabulary()
    docs = [
        (name, SparseVector.from_pairs([(t, 1.0) for t in terms], vocab))
        for name, terms in CORPUS.items()
    ]
    idx = build(docs, vocab)

    a = SparseVector.from_pairs(
        [("birds", 1.0), ("fly", 1.0), ("colombia", 1.0), ("andes", 1.0)], vocab
    )
    b = SparseVector.from_pairs(
        [("birds", 1.0), ("fly", 1.0), ("venezuela", 1.0), ("andes", 1.0)], vocab
    )

    print("query: birds of colombia, but not venezuela\n")
    print_run("ignore negation (just A)", search(idx, a, 6))
    print()
    print_run("disentangled negation", search(idx, difference_disentangled(a, b), 6))
    print(
        "\nwith the penalty applied, documents mentioning venezuela drop below"
        "\nthe purely colombian ones.  note 'caracas-wetlands': invisible to the"
        "\npositive query, but now returned with a negative score, actively"
        "\npushed to the bottom instead of merely not boosted."
    )


if __name__ == "__main__":
    main()
