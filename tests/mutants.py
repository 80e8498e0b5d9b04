"""Bugs the tests must catch, kept as mutants of the source.

Each entry changes the one occurrence of ``find`` in ``file`` to ``replace``.
The mutant is caught when each test in ``tests`` fails (a parametrized test's
id without its brackets names all its cases, one of which must fail), or when
the run of those tests outlasts ``timeout`` seconds.  ``run_mutants.py``
applies the mutants one at a time to a copy of ``src/`` and ``tests/``;
``test_mutants.py`` checks that every ``find`` still occurs exactly once and
every named test still exists, so code that moves takes its mutants along.
Only mutants that change behaviour belong here: one that no test could tell
from the original is no test of the tests.
"""

MUTANTS = [
    # The loader: the checksum, zlib's expansion bound and the front-to-back, unbuffered reader.
    {
        "name": "no CRC check after the parse",
        "file": "src/setvec/index.py",
        "find": "                if body.crc() != crc:\n",
        "replace": "                if False:\n",
        "tests": [
            "tests/test_index.py::TestLoaderStructure::test_flipped_or_cut_file_is_a_checksum_mismatch",
            "tests/test_index.py::TestLoaderStructure::test_malformed_index_is_a_data_error[flipped]",
            "tests/test_index.py::TestLoaderStructure::test_malformed_index_is_a_data_error[cut]",
        ],
        "timeout": 300,
    },
    {
        "name": "a version-3 index is parsed as version 4",
        "file": "src/setvec/index.py",
        "find": "    if version != FORMAT_VERSION:\n",
        "replace": "    if version not in (3, FORMAT_VERSION):\n",
        "tests": [
            "tests/test_index.py::TestLoaderStructure::test_malformed_index_is_a_data_error[version-3]",
            "tests/test_index.py::TestPersistence::test_version_mismatch_rejected[3]",
        ],
        "timeout": 300,
    },
    {
        "name": "load seeks a pipe instead of reading it whole",
        "file": "src/setvec/index.py",
        "find": "        source = fh if fh.seekable() else io.BytesIO(fh.read())\n",
        "replace": "        source = fh\n",
        "tests": [
            "tests/test_cli.py::TestSearch::test_queries_read_once_from_a_fifo_or_a_pipe[index]",
            "tests/test_index.py::TestLoaderStructure::test_index_read_from_a_pipe_loads_the_same_columns",
        ],
        "timeout": 300,
    },
    {
        "name": "no 1032:1 check",
        "file": "src/setvec/index.py",
        "find": "    if expected > _MAX_EXPANSION * body.left():\n",
        "replace": "    if False:\n",
        "tests": ["tests/test_index.py::TestLoaderStructure::test_hostile_count_refused_before_allocating"],
        "timeout": 300,
    },
    {
        "name": "no + 1 on the inflate limit",
        "file": "src/setvec/index.py",
        "find": "min(PIECE, expected - done + 1)",
        "replace": "min(PIECE, expected - done)",
        "tests": ["tests/test_index.py::TestLoaderStructure::test_overlong_stream_inflates_one_byte_past_its_size"],
        "timeout": 300,
    },
    {
        "name": "no ran-out-of-input check",
        "file": "src/setvec/index.py",
        "find": "        if done + len(piece) > expected or not (piece or chunk):\n",
        "replace": "        if done + len(piece) > expected:\n",
        "tests": ["tests/test_index.py::TestLoaderStructure::test_stream_cut_short_rejected_at_every_piece_size"],
        "timeout": 30,
    },
    {
        "name": "unused_data not given back",
        "file": "src/setvec/index.py",
        "find": "    body.give_back(stream.unused_data)\n",
        "replace": "    body.give_back(b\"\")\n",
        "tests": ["tests/test_index.py::TestPersistence::test_round_trip_search_identical"],
        "timeout": 300,
    },
    {
        "name": "unconsumed_tail dropped",
        "file": "src/setvec/index.py",
        "find": "        chunk = stream.unconsumed_tail or body.take(min(PIECE, body.left()))\n",
        "replace": "        chunk = body.take(min(PIECE, body.left()))\n",
        "tests": ["tests/test_index.py::TestPersistence::test_round_trip_per_code_width[65536]"],
        "timeout": 300,
    },
    {
        "name": "load opens the file buffered",
        "file": "src/setvec/index.py",
        "find": "    with open(path, \"rb\", buffering=0) as fh:\n",
        "replace": "    with open(path, \"rb\") as fh:\n",
        "tests": ["tests/test_index.py::TestLoaderStructure::test_file_rewritten_after_its_checksum_is_refused"],
        "timeout": 300,
    },
    {
        "name": "take without its length check",
        "file": "src/setvec/index.py",
        "find": "        if count > self.left():\n",
        "replace": "        if False:\n",
        "tests": [
            "tests/test_index.py::TestLoaderStructure::test_malformed_structure_rejected"
            "[change26-truncated doc name blob size]"
        ],
        "timeout": 300,
    },
    # The string and order checks: exact without a str or a mask byte for each,
    # and one doc-name rule for build and load.
    {
        "name": "the duplicate check never compares colliding names",
        "file": "src/setvec/index.py",
        "find": "        if string in seen:\n",
        "replace": "        if False:\n",
        "tests": [
            "tests/test_index.py::TestDocNames::test_duplicate_refused_at_every_position",
            "tests/test_index.py::TestBuild::test_duplicate_name_rejected",
        ],
        "timeout": 300,
    },
    {
        "name": "the duplicate check takes a hash collision for a duplicate",
        "file": "src/setvec/index.py",
        "find": "        if string in seen:\n",
        "replace": "        if True:\n",
        "tests": ["tests/test_index.py::TestDocNames::test_names_whose_hashes_collide_are_compared"],
        "timeout": 300,
    },
    {
        "name": "a string starting on a continuation byte is accepted",
        "file": "src/setvec/index.py",
        "find": "    if (np.frombuffer(blob, np.int8)[bounds[bounds < size]] < -64).any():\n",
        "replace": "    if False:\n",
        "tests": [
            "tests/test_index.py::TestLoaderStructure::test_malformed_structure_rejected"
            "[change28-invalid UTF-8 in a string block]"
        ],
        "timeout": 300,
    },
    {
        "name": "a doc name that starts with a non-ASCII character is refused",
        "file": "src/setvec/index.py",
        "find": "    if (np.frombuffer(blob, np.int8)[bounds[bounds < size]] < -64).any():\n",
        "replace": "    if (np.frombuffer(blob, np.int8)[bounds[bounds < size]] < 0).any():\n",
        "tests": ["tests/test_cli.py::test_non_ascii_names_without_whitespace_round_trip"],
        "timeout": 300,
    },
    {
        "name": "a string table's lengths need not sum to its blob size",
        "file": "src/setvec/index.py",
        "find": "    if bounds[-1] != size:\n",
        "replace": "    if False:\n",
        "tests": [
            "tests/test_index.py::TestLoaderStructure::test_malformed_structure_rejected"
            "[change24-doc name lengths do not sum to the string blob size]"
        ],
        "timeout": 300,
    },
    {
        "name": "the loader's duplicate-term check dropped",
        "file": "src/setvec/index.py",
        "find": "    if len(vocab) != len(terms):\n",
        "replace": "    if False:\n",
        "tests": [
            "tests/test_index.py::TestLoaderStructure::test_malformed_structure_rejected"
            "[change3-empty or duplicate vocabulary term]"
        ],
        "timeout": 300,
    },
    {
        "name": "build accepts an empty doc name",
        "file": "src/setvec/index.py",
        "find": "    if (np.diff(names.bounds) == 0).any():\n",
        "replace": "    if False:\n",
        "tests": [
            "tests/test_index.py::TestBuild::test_empty_name_rejected",
            "tests/test_index.py::TestDocNames::test_build_refuses_what_load_would",
        ],
        "timeout": 300,
    },
    {
        "name": "the order check's blocks without their one-posting overlap",
        "file": "src/setvec/index.py",
        "find": "        ids = doc_ids[lo:lo + PIECE + 1]\n",
        "replace": "        ids = doc_ids[lo:lo + PIECE]\n",
        "tests": ["tests/test_index.py::TestLoaderStructure::test_decreasing_pair_across_a_block_boundary_refused"],
        "timeout": 300,
    },
    # CPT's posting check: the factors' postings, in factor order, only when a weight is negative.
    {
        "name": "CPT checks the y factor's postings before x's",
        "file": "src/setvec/index.py",
        "find": "            for tid in q_cpt.x.ids.tolist() + q_cpt.y.ids.tolist():\n",
        "replace": "            for tid in q_cpt.y.ids.tolist() + q_cpt.x.ids.tolist():\n",
        "tests": ["tests/test_index.py::TestSearchCpt::test_negative_posting_named_in_factor_order"],
        "timeout": 300,
    },
    {
        "name": "no CPT posting check",
        "file": "src/setvec/index.py",
        "find": "        if idx.table.size and idx.table[0] < 0:\n",
        "replace": "        if False:\n",
        "tests": [
            "tests/test_index.py::TestSearchCpt::test_negative_corpus_weights_rejected",
            "tests/test_index.py::TestSearchCpt::test_negative_posting_named_in_factor_order",
        ],
        "timeout": 300,
    },
    {
        "name": "CPT checks the whole weight table",
        "file": "src/setvec/index.py",
        "find": "                    _require_nonnegative(posting[1], ",
        "replace": "                    _require_nonnegative(idx.table, ",
        "tests": ["tests/test_index.py::TestSearchCpt::test_negative_weight_outside_the_factors_allowed"],
        "timeout": 300,
    },
    # The touched set: the doc ids of the query terms' own posting lists.
    {
        "name": "_touched marks every doc",
        "file": "src/setvec/index.py",
        "find": "    mask = np.zeros(idx.doc_count, dtype=bool)\n",
        "replace": "    mask = np.ones(idx.doc_count, dtype=bool)\n",
        "tests": [
            "tests/test_index.py::TestSearch::test_untouched_docs_excluded",
            "tests/test_index.py::TestSearch::test_head_row_contributions_cancel_to_positive_zero",
            "tests/test_index.py::TestTouched::test_touched_is_the_docs_of_the_query_terms_postings",
        ],
        "timeout": 300,
    },
    {
        "name": "_touched marks each term's neighbouring list",
        "file": "src/setvec/index.py",
        "find": "        mask[idx.doc_ids[offsets[t]:offsets[t + 1]]] = True\n",
        "replace": "        mask[idx.doc_ids[offsets[t + 1]:offsets[t + 2]]] = True\n",
        "tests": [
            "tests/test_index.py::TestSearch::test_untouched_docs_excluded",
            "tests/test_index.py::TestTouched::test_touched_is_the_docs_of_the_query_terms_postings",
        ],
        "timeout": 300,
    },
    # Row order: one stable sort of (row, term id) keys.
    {
        "name": "the doc's row left out of the row-sort keys",
        "file": "src/setvec/sparse.py",
        "find": "np.arange(first, last + 1, dtype=np.int64) << 32",
        "replace": "np.zeros(last + 1 - first, dtype=np.int64)",
        "tests": [
            "tests/test_vector_batch.py::TestVectorBatch::test_rows_are_sorted_and_pruned",
            "tests/test_formats.py::TestVectors::test_round_trip_exact",
        ],
        "timeout": 300,
    },
    # The vector reader: orjson's rows go through json.loads beyond its exact range.
    {
        "name": "_plain_vector without its _PLAIN_LIMIT bound",
        "file": "src/setvec/formats.py",
        "find": "    if {float}.issuperset(map(type, values)) and -_PLAIN_LIMIT < min(values) and max(values) < _PLAIN_LIMIT:\n",
        "replace": "    if {float}.issuperset(map(type, values)):\n",
        "tests": [
            "tests/test_vector_reader.py::test_written_weights_read_back_bit_for_bit",
            "tests/test_vector_reader.py::test_line_reads_as_json_reads_it",
        ],
        "timeout": 300,
    },
    # The query reader: the first record decides the file's kind, and params hold only lambda and m.
    {
        "name": "read_queries decides each record's kind by itself",
        "file": "src/setvec/formats.py",
        "find": "        if vector_file is None:\n",
        "replace": "        if True:\n",
        "tests": ["tests/test_cli.py::test_first_record_decides_the_kind_of_every_record"],
        "timeout": 300,
    },
    {
        "name": "an unknown params key is accepted",
        "file": "src/setvec/formats.py",
        "find": "            if key not in (\"lambda\", \"m\"):\n",
        "replace": "            if False:\n",
        "tests": ["tests/test_cli.py::test_malformed_value_is_located_data_error"],
        "timeout": 300,
    },
    {
        "name": "refs are read into a vocabulary of their own",
        "file": "src/setvec/cli.py",
        "find": "    vectors = dict(formats.read_vectors(args.vectors, vocab)) if args.vectors else {}\n",
        "replace": "    vectors = dict(formats.read_vectors(args.vectors, Vocabulary())) if args.vectors else {}\n",
        "tests": ["tests/test_cli.py::TestCompose::test_search_resolves_refs_to_encoded_doc_vectors"],
        "timeout": 300,
    },
    {
        "name": "compose creates --out before it reads its queries",
        "file": "src/setvec/cli.py",
        "find": "    queries = _load_queries(args, Vocabulary(), args.method, _query_params(args))\n",
        "replace": (
            "    open(args.out, \"w\").close()\n"
            "    queries = _load_queries(args, Vocabulary(), args.method, _query_params(args))\n"
        ),
        "tests": ["tests/test_cli.py::test_malformed_value_is_located_data_error"],
        "timeout": 300,
    },
    # The plain-number rule, one for the files and the flags, and the pairs file.
    {
        "name": "a plain number may hold an underscore",
        "file": "src/setvec/formats.py",
        "find": "    if \"_\" in s or not s.isascii():\n",
        "replace": "    if not s.isascii():\n",
        "tests": [
            "tests/test_cli.py::test_malformed_value_is_located_data_error[run-rank-underscore]",
            "tests/test_formats.py::test_number_with_underscore_or_non_ascii_digit_refused",
        ],
        "timeout": 300,
    },
    {
        "name": "a count flag reads 1_0 as 10",
        "file": "src/setvec/cli.py",
        "find": "        return _positive_int(formats.plain_number(int, value), \"value\")\n",
        "replace": "        return _positive_int(int(value), \"value\")\n",
        "tests": ["tests/test_cli.py::TestExitCodes::test_count_flags_share_the_count_rule"],
        "timeout": 300,
    },
    {
        "name": "a pairs file without pairs is read",
        "file": "src/setvec/formats.py",
        "find": "    if not pairs:\n",
        "replace": "    if False:\n",
        "tests": ["tests/test_cli.py::TestFuseEvalPairwise::test_pairwise_without_pairs_is_data_error"],
        "timeout": 300,
    },
    # Query composition and the metrics.
    {
        "name": "subtract difference masks a's terms out of b",
        "file": "src/setvec/compose.py",
        "find": "    (OP_DIFFERENCE, \"subtract\"): lambda q: sub(q.a, q.b),\n",
        "replace": "    (OP_DIFFERENCE, \"subtract\"): lambda q: sub(q.a, mask_remove(q.b, q.a)),\n",
        "tests": [
            "tests/test_compose.py::TestDifference::test_subtract_birds",
            "tests/test_compose.py::TestDifference::test_subtract_trivia",
        ],
        "timeout": 300,
    },
    {
        "name": "nrf ignores its lambda",
        "file": "src/setvec/compose.py",
        "find": "    return sub(a, scale(b, _checked_lambda(lambda_)))\n",
        "replace": "    return sub(a, scale(b, _checked_lambda(DEFAULT_LAMBDA)))\n",
        "tests": [
            "tests/test_compose.py::TestDifference::test_nrf_endpoints_exact",
            "tests/test_compose.py::TestDifference::test_nrf_rejects_negative_lambda",
        ],
        "timeout": 300,
    },
    {
        "name": "disentangled difference leaves a's terms in b unmasked",
        "file": "src/setvec/compose.py",
        "find": "    return sub(a, mask_remove(b, a))\n",
        "replace": "    return sub(a, b)\n",
        "tests": [
            "tests/test_compose.py::TestDifference::test_disentangled_birds",
            "tests/test_compose.py::TestDifference::test_disentangled_support_preservation_entrywise",
        ],
        "timeout": 300,
    },
    {
        "name": "orthogonal difference subtracts b whole",
        "file": "src/setvec/compose.py",
        "find": "    return sub(a, project(a, b))\n",
        "replace": "    return sub(a, b)\n",
        "tests": [
            "tests/test_compose.py::TestDifference::test_orthogonal_birds",
            "tests/test_compose.py::TestDifference::test_orthogonality_property",
        ],
        "timeout": 300,
    },
    {
        "name": "union maxpool adds the sides",
        "file": "src/setvec/compose.py",
        "find": "    (OP_UNION, \"maxpool\"): lambda q: maxpool(q.a, q.b),\n",
        "replace": "    (OP_UNION, \"maxpool\"): lambda q: add(q.a, q.b),\n",
        "tests": [
            "tests/test_compose.py::TestUnionIntersection::test_union_maxpool_birds",
            "tests/test_compose.py::TestUnionIntersection::test_intersection_vector_methods_match_union_math",
        ],
        "timeout": 300,
    },
    {
        "name": "pairwise accuracy counts a tie on the first query",
        "file": "src/setvec/evaluation.py",
        "find": "        first = _score(run, p.qid_a, p.doc_a) > _score(run, p.qid_a, p.doc_b)\n",
        "replace": "        first = _score(run, p.qid_a, p.doc_a) >= _score(run, p.qid_a, p.doc_b)\n",
        "tests": ["tests/test_evaluation.py::TestPairwiseAccuracy::test_tie_on_one_side_fails_the_pair"],
        "timeout": 300,
    },
    {
        "name": "pairwise_accuracy takes a missing score as 0.0",
        "file": "src/setvec/evaluation.py",
        "find": "        raise UndefinedMetricError(f\"no score for ({qid!r}, {doc!r})\")\n",
        "replace": "        return 0.0\n",
        "tests": [
            "tests/test_evaluation.py::TestPairwiseAccuracy::test_missing_score_is_undefined",
            "tests/test_cli.py::TestFuseEvalPairwise::test_pairwise_missing_score_names_it_and_the_scores_file",
        ],
        "timeout": 300,
    },
    {
        "name": "interference bins never merge equal similarity ranges",
        "file": "src/setvec/evaluation.py",
        "find": "        if bins and bins[-1].low == low and bins[-1].high == high:\n",
        "replace": "        if False:\n",
        "tests": ["tests/test_evaluation.py::TestInterferenceBins::test_identical_similarities_collapse_to_one_bin"],
        "timeout": 300,
    },
    {
        "name": "interference bins ordered by query id, not similarity",
        "file": "src/setvec/evaluation.py",
        "find": "        key=lambda row: (row[0], row[1]),\n",
        "replace": "        key=lambda row: row[1],\n",
        "tests": ["tests/test_evaluation.py::TestInterferenceBins::test_four_queries_two_bins_split_by_similarity"],
        "timeout": 300,
    },
    {
        "name": "interference_bins takes a missing metric as 0.0",
        "file": "src/setvec/evaluation.py",
        "find": "        raise UndefinedMetricError(f\"no per-query metric for {qid!r}\")\n",
        "replace": "        return 0.0\n",
        "tests": [
            "tests/test_evaluation.py::TestInterferenceBins::test_missing_metric_is_undefined",
            "tests/test_cli.py::TestFuseEvalPairwise::test_interference_missing_metric_names_the_query",
        ],
        "timeout": 300,
    },
    {
        "name": "nDCG's discount off by one rank",
        "file": "src/setvec/evaluation.py",
        "find": "            dcg += grade / math.log2(rank + 1)\n",
        "replace": "            dcg += grade / math.log2(rank + 2)\n",
        "tests": ["tests/test_evaluation.py::TestNdcg::test_worked_fixture"],
        "timeout": 300,
    },
    {
        "name": "recall counts one rank past k",
        "file": "src/setvec/evaluation.py",
        "find": "    hits = sum(1 for doc in ranking[:k] if doc in relevant)\n",
        "replace": "    hits = sum(1 for doc in ranking[:k + 1] if doc in relevant)\n",
        "tests": ["tests/test_evaluation.py::TestRecall::test_counts_exactly_the_top_k"],
        "timeout": 300,
    },
    # Exactness: scores equal dot() bit for bit, and ties rank by ascending doc id.
    {
        "name": "_accumulate walks the terms in descending id order",
        "file": "src/setvec/index.py",
        "find": "        for tid, qw in zip(q.ids.tolist(), q.weights.tolist()):\n",
        "replace": "        for tid, qw in zip(q.ids.tolist()[::-1], q.weights.tolist()[::-1]):\n",
        "tests": [
            "tests/test_acceptance.py::test_criterion_4_retrieval_oracle",
            "tests/test_index.py::TestSearchCpt::test_pool_covering_corpus_is_exhaustive",
        ],
        "timeout": 300,
    },
    {
        "name": "_rank breaks ties by descending id",
        "file": "src/setvec/sparse.py",
        "find": "    order = np.lexsort((ids, -scores))[:k]\n",
        "replace": "    order = np.lexsort((-ids.astype(np.int64), -scores))[:k]\n",
        "tests": [
            "tests/test_sparse.py::TestTopM::test_tie_breaks_by_ascending_id",
            "tests/test_cli.py::TestFuseEvalPairwise::test_eval_scores_the_written_tie_order",
        ],
        "timeout": 300,
    },
    {
        "name": "the accumulator starts at -0.0",
        "file": "src/setvec/index.py",
        "find": "    scores.fill(0.0)\n",
        "replace": "    scores.fill(-0.0)\n",
        "tests": [
            "tests/test_cli.py::test_search_with_query_terms_missing_from_the_index",
            "tests/test_index.py::TestSearch::test_oracle_equivalence_small",
        ],
        "timeout": 300,
    },
    # The per-thread scores buffers: cleared for each query, read before they are reused,
    # and one pair per searching thread.
    {
        "name": "the scores buffer is not cleared between queries",
        "file": "src/setvec/index.py",
        "find": "    scores.fill(0.0)\n",
        "replace": "",
        "tests": ["tests/test_index.py::TestSearch::test_deterministic_across_runs"],
        "timeout": 300,
    },
    {
        "name": "CPT gathers its factors after both accumulations",
        "file": "src/setvec/index.py",
        "find": (
            "        x = _accumulate(idx, q_cpt.x, _sqrt_product)[cand_ids]\n"
            "        y = _accumulate(idx, q_cpt.y, _sqrt_product)[cand_ids]\n"
            "        with np.errstate(over=\"ignore\", invalid=\"ignore\"):\n"
            "            scores = x * y\n"
        ),
        "replace": (
            "        x = _accumulate(idx, q_cpt.x, _sqrt_product)\n"
            "        y = _accumulate(idx, q_cpt.y, _sqrt_product)\n"
            "        with np.errstate(over=\"ignore\", invalid=\"ignore\"):\n"
            "            scores = x[cand_ids] * y[cand_ids]\n"
        ),
        "tests": ["tests/test_index.py::TestSearch::test_oracle_equivalence_small"],
        "timeout": 300,
    },
    {
        "name": "every thread shares one scores buffer",
        "file": "src/setvec/index.py",
        "find": "self._buffers = threading.local()",
        "replace": "self._buffers = type(\"Shared\", (), {})()",
        "tests": ["tests/test_index.py::TestSearch::test_threads_share_the_first_build_of_head_rows"],
        "timeout": 300,
    },
]
