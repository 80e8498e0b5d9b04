"""Walk through the compositional query algebra on a tiny worked example.

Two atomic queries share most of their terms:

    A = "birds of colombia"  -> (birds, fly, colombia, andes), all 1.0
    B = "birds of venezuela" -> (birds, fly, venezuela, andes), all 1.0

The interesting question is what "A but not B" should look like as a vector.
Run this file to compare every difference method side by side, then the two
union variants.
"""

from setvec import (
    SparseVector,
    Vocabulary,
    add,
    cosine,
    difference_disentangled,
    difference_nrf,
    difference_orthogonal,
    maxpool,
    sub,
)


def show(label, vec):
    entries = ", ".join(f"{t}: {w:+.2f}" for t, w in vec.to_dict().items())
    print(f"  {label:<22} ({entries})")


def main():
    vocab = Vocabulary()
    a = SparseVector.from_pairs(
        [("birds", 1.0), ("fly", 1.0), ("colombia", 1.0), ("andes", 1.0)], vocab
    )
    b = SparseVector.from_pairs(
        [("birds", 1.0), ("fly", 1.0), ("venezuela", 1.0), ("andes", 1.0)], vocab
    )

    print("atomic queries:")
    show("A", a)
    show("B", b)
    print(f"  interference cosine(A, B) = {cosine(a, b):.2f}  (high: 3 of 4 terms shared)\n")

    print("difference (A \\ B):")
    show("subtract", sub(a, b))
    print("    ^ penalizes venezuela but also erased birds/fly/andes")
    show("ignore", a)
    print("    ^ keeps A intact but cannot penalize venezuela at all")
    show("orthogonal", difference_orthogonal(a, b))
    print("    ^ removes A's component along B; shrinks the shared terms")
    show("nrf (lambda=0.5)", difference_nrf(a, b, 0.5))
    print("    ^ constant pushback against everything B mentions")
    show("disentangled", difference_disentangled(a, b))
    print("    ^ keeps every A weight and penalizes only B-exclusive terms\n")

    print("union (A u B):")
    show("add", add(a, b))
    print("    ^ shared terms counted twice")
    show("maxpool", maxpool(a, b))
    print("    ^ shared terms kept at their single-query strength")


if __name__ == "__main__":
    main()
