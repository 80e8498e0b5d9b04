"""Score fusion as a baseline, and the interference analysis.

Fusion never builds a compositional vector: it retrieves for each atomic
query separately and combines the two score maps per document.  For + and -
this is provably rank-equivalent to retrieving with the added/subtracted
vector under full-corpus scoring; for intersections the product acts as a
probabilistic AND.

The second half bins difference queries by the cosine between their positive
and negative sides: the analysis used to show where negation handling gets
hard (high-interference queries).
"""

import numpy as np

from setvec import (
    CompositionalQuery,
    SparseVector,
    Vocabulary,
    build,
    fuse,
    interference_bins,
    search,
    sub,
)


def main():
    rng = np.random.default_rng(7)
    vocab = Vocabulary(f"t{i:02d}" for i in range(30))

    def rand_vec(nnz, lo=1, hi=5):
        ids = rng.choice(len(vocab), size=nnz, replace=False)
        return SparseVector(ids, rng.integers(lo, hi, size=nnz).astype(float), vocab)

    docs = [(f"d{i:02d}", rand_vec(6)) for i in range(30)]
    idx = build(docs, vocab)
    a, b = rand_vec(8), rand_vec(8)

    fused = fuse(dict(search(idx, a, 30)), dict(search(idx, b, 30)), "minus")
    composed = search(idx, sub(a, b), 30)
    print("fusion(-) vs composed subtraction, top 5 of each:")
    for (fd, fs), (cd, cs) in zip(fused[:5], composed[:5]):
        print(f"  fused {fd} {fs:+.1f}    composed {cd} {cs:+.1f}")
    print(f"  identical rankings: {fused == composed}\n")

    # interference bins: difference queries with varying a/b overlap
    queries = []
    metric = {}
    for i in range(12):
        shared = rng.choice(len(vocab), size=i % 6 + 1, replace=False)
        qa = SparseVector(shared, np.ones(len(shared)), vocab)
        extra = rng.choice(len(vocab), size=3, replace=False)
        qb_ids = np.unique(np.concatenate([shared[: (i % 3)], extra]))
        qb = SparseVector(qb_ids, np.ones(len(qb_ids)), vocab)
        queries.append(
            CompositionalQuery(qid=f"q{i}", operator="difference", method="subtract", a=qa, b=qb)
        )
        metric[f"q{i}"] = float(rng.uniform(0.2, 0.9))

    print("difference queries binned by cosine(a, b):")
    print(f"  {'range':<22} {'mean metric':>11} {'count':>6}")
    for bin_ in interference_bins(queries, lambda qid: metric[qid], n_bins=4):
        rng_label = f"[{bin_.low:.3f}, {bin_.high:.3f}]"
        print(f"  {rng_label:<22} {bin_.mean_metric:>11.3f} {bin_.count:>6}")


if __name__ == "__main__":
    main()
