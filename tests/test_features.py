import gc
import hashlib
import io
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import load_kg, working_graph
from kgrag.retriever import EntityScorer, HashedBowEncoder, TripleFeatureBuilder, anchor_slots, compute_dde
from kgrag.retriever.entity_scorer import prepare_graph_tensors
from kgrag.retriever.features import Segments, ViewTables, dde_width, question_features

from conftest import graph_from_lines, make_question
from oracles import directed_distance, hashed_bow, triple_matrix


def decode(code: np.ndarray, depth: int):
    """Inverse of the one-hot encoding: (forward bucket, backward bucket)."""
    width = depth + 2
    fwd = int(np.argmax(code[:width]))
    bwd = int(np.argmax(code[width:]))
    return fwd, bwd


def encode_text(text: str) -> np.ndarray:
    return HashedBowEncoder(256)(text)


def test_encode_text_deterministic():
    assert np.array_equal(encode_text("born in city"), encode_text("born in city"))


def test_encode_text_empty_is_zero_vector():
    assert np.allclose(encode_text(""), 0.0)


def test_encode_text_unit_cosine_with_itself():
    v = encode_text("born in city")
    assert np.isclose(float(v @ v), 1.0)


def test_encoder_tag_and_dim():
    enc = HashedBowEncoder(64)
    assert enc.tag == "hashed-bow-64"
    assert enc.dim == 64
    assert enc("hello world").shape == (64,)


# texts whose tokens change under .lower() ("İ" becomes two characters), with no \w token, or empty
_TEXTS = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="aZ İßΣσ_9 -!", max_size=12),
    st.sampled_from(["", " ", "!?", "İstanbul", "STRASSE Straße", "ΟΔΟΣ", "a a A"]),
    st.lists(st.sampled_from(["a", "B", "b_c", "ß", "İ"]), max_size=30).map(" ".join),  # counts above 1
)


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(_TEXTS, max_size=8), dim=st.integers(1, 64))
def test_encode_many_is_bitwise_the_per_text_oracle(texts, dim):
    batch = texts + texts[:1]  # the same text twice in one batch
    enc = HashedBowEncoder(dim)
    want = np.array([hashed_bow(t, dim) for t in batch]).reshape(len(batch), dim)
    assert enc.encode_many(batch).tobytes() == want.tobytes()
    for t in batch:
        assert enc(t).tobytes() == enc.encode_many([t])[0].tobytes() == hashed_bow(t, dim).tobytes()
    assert enc.encode_many([]).shape == (0, dim)


# sha256 of HashedBowEncoder(64)'s float64 rows for these labels: a model.json tagged
# hashed-bow-64 was trained on these embeddings, so a change of the hashing law must fail here
_GOLDEN_LABELS = [
    "", "Paris", "capital of France", "born_in city", "İstanbul", "Straße", "ΑΘΗΝΑ αθήνα",
    "東京 tokyo", "r | s | r", "q0001 what is the capital", "!!! ???", "the the THE The",
    "the cat the dog the end",  # 3 / sqrt(12) is not 3 * (1 / sqrt(12)) in float64
]
_GOLDEN_SHA256 = "8bf81ff228850a07f15c04615c9209bc00fc405c8918882c763af38612dd9d78"


def test_hashed_bow_64_embeddings_are_pinned():
    rows = HashedBowEncoder(64).encode_many(_GOLDEN_LABELS)
    assert hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest() == _GOLDEN_SHA256


def test_shared_encoder_gives_serial_rows_from_threads():
    """Threads that share one encoder, and so its token cache, get the rows of a serial run."""
    texts = [f"label{i % 13} Straße{i % 7} İ{i} r{i % 5}" for i in range(80)]
    batches = [texts[i : i + 20] for i in range(0, 61, 4)]  # overlapping, so tokens race
    want = [HashedBowEncoder(16).encode_many(batch).tobytes() for batch in batches]
    shared = HashedBowEncoder(16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda batch: shared.encode_many(batch).tobytes(), batches, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_dde_keys_are_the_view_entities_in_order():
    """question_features stacks compute_dde's codes in key order as the view's entity rows."""
    g = graph_from_lines("D r1 B", "B r2 C", "C r1 A", "E r3 D", "A r2 E")
    q = make_question(g, ["B"], ["A"], scope=[1, 2])
    for view, names in ((working_graph(g, q), "BCA"), (g, "DBCAE")):
        keys = list(compute_dde(view, {g.entity_ids["B"]}, depth=2))
        assert keys == sorted(g.entity_ids[name] for name in names)
        assert keys == ViewTables(view, HashedBowEncoder(4)).entity_ids


def test_view_tables_of_a_view_are_built_once_per_width_and_go_with_the_view():
    g = graph_from_lines("A r1 B", "B r2 C", "C r1 A")
    view = g.restrict([0, 1])
    tables = ViewTables.of(view, HashedBowEncoder(4))
    assert ViewTables.of(view, HashedBowEncoder(4)) is tables
    assert ViewTables.of(view, HashedBowEncoder(8)) is not tables
    assert ViewTables.of(g, HashedBowEncoder(4)) is not tables
    assert tables.tids == [0, 1]
    assert view in ViewTables._by_view
    entries = len(ViewTables._by_view)
    del view
    gc.collect()
    assert len(ViewTables._by_view) == entries - 1
    assert g in ViewTables._by_view


def test_dde_chain_forward_distances():
    g = graph_from_lines("A r1 B", "B r2 C")
    codes = compute_dde(g, {g.entity_ids["A"]}, depth=2)
    assert decode(codes[g.entity_ids["A"]], 2)[0] == 0
    assert decode(codes[g.entity_ids["B"]], 2)[0] == 1
    assert decode(codes[g.entity_ids["C"]], 2)[0] == 2


def test_dde_chain_backward_unreachable():
    g = graph_from_lines("A r1 B", "B r2 C")
    codes = compute_dde(g, {g.entity_ids["A"]}, depth=2)
    # backward = against edge direction; nothing points at A
    assert decode(codes[g.entity_ids["B"]], 2)[1] == 3  # unreachable bucket
    assert decode(codes[g.entity_ids["C"]], 2)[1] == 3


def test_dde_anchor_is_zero_both_directions():
    g = graph_from_lines("A r1 B")
    codes = compute_dde(g, {g.entity_ids["A"]}, depth=3)
    assert decode(codes[g.entity_ids["A"]], 3) == (0, 0)


def test_dde_caps_long_distances_at_depth():
    g = graph_from_lines("A r B", "B r C", "C r D", "D r E")
    codes = compute_dde(g, {g.entity_ids["A"]}, depth=2)
    assert decode(codes[g.entity_ids["E"]], 2)[0] == 2  # distance 4 capped


def test_dde_one_hot_blocks_sum_to_one():
    g = graph_from_lines("A r1 B", "C r2 A")
    codes = compute_dde(g, {g.entity_ids["A"]}, depth=3)
    for code in codes.values():
        width = 3 + 2
        assert code[:width].sum() == 1.0
        assert code[width:].sum() == 1.0


def test_dde_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n_entities = int(rng.integers(4, 60))
        n_triples = int(rng.integers(3, 500))
        rows = [
            f"e{rng.integers(0, n_entities)}\trel{rng.integers(0, 6)}\te{rng.integers(0, n_entities)}"
            for _ in range(n_triples)
        ]
        g = load_kg(io.StringIO("\n".join(rows)), "tsv")
        edges = [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()]
        anchors = {int(rng.integers(0, len(g.entities)))}
        depth = 3
        codes = compute_dde(g, anchors, depth)
        fwd = directed_distance(edges, anchors, reverse=False)
        bwd = directed_distance(edges, anchors, reverse=True)
        for e, code in codes.items():
            got_f, got_b = decode(code, depth)
            want_f = min(fwd[e], depth) if e in fwd else depth + 1
            want_b = min(bwd[e], depth) if e in bwd else depth + 1
            assert (got_f, got_b) == (want_f, want_b)


def test_anchor_slots_padding_and_overflow():
    assert anchor_slots({5}, 3) == [{5}, set(), set()]
    assert anchor_slots({1, 2, 3}, 3) == [{1}, {2}, {3}]
    assert anchor_slots({1, 2, 3, 4, 5}, 3) == [{1}, {2}, {3, 4, 5}]


def test_triple_feature_dimension_contract():
    g = graph_from_lines("A r1 B", "B r2 C")
    q = make_question(g, ["A"], ["C"], text="a to c")
    enc = HashedBowEncoder(32)
    builder = TripleFeatureBuilder(g, q, enc, depth=3, slots=3)
    tids, bundle = builder.matrix()
    X = triple_matrix(bundle)
    assert X.shape == (2, 4 * 32 + 3 * 4 * (3 + 2))
    assert builder.dim == X.shape[1]
    # every DDE one-hot block sums to 1
    dde = X[:, 4 * 32 :]
    blocks = dde.reshape(2, 3 * 4, 5)
    assert np.allclose(blocks.sum(axis=2), 1.0)


def test_triple_features_deterministic():
    g = graph_from_lines("A r1 B", "B r2 C")
    q = make_question(g, ["A"], ["C"], text="a to c")
    b1 = TripleFeatureBuilder(g, q, HashedBowEncoder(32))
    b2 = TripleFeatureBuilder(g, q, HashedBowEncoder(32))
    assert np.array_equal(triple_matrix(b1.matrix()[1]), triple_matrix(b2.matrix()[1]))


def test_entity_feature_matrix_shape():
    g = graph_from_lines("A r1 B", "B r2 C")
    q = make_question(g, ["A"], ["C"], text="a to c")
    enc = HashedBowEncoder(16)
    gt = prepare_graph_tensors(g, q, enc, depth=2, slots=2)
    node_width = gt.view.entity_text.shape[1] + gt.dde_dim  # layer 0's node rows; the query is shared
    assert (len(gt.view.entity_ids), node_width) == (3, 16 + 2 * 2 * (2 + 2))
    assert len(gt.query) + node_width == EntityScorer(8, 1, enc.tag, 2, 2).input_dim


def test_dde_is_kept_as_int8_bucket_ids():
    g = graph_from_lines("A r1 B", "B r2 C", "D r3 C")
    q = make_question(g, ["A", "D"], ["C"], text="a to c")
    f = question_features(g, q, HashedBowEncoder(8), depth=3, slots=3)
    assert f.dde.dtype == np.int8 and f.dde.shape == (4, 3, 2)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=20),
    anchors=st.sets(st.integers(0, 7), min_size=1, max_size=5),
    depth=st.integers(1, 4),
    slots=st.integers(1, 4),
)
def test_dde_codes_are_the_stacked_compute_dde_codes(rows, anchors, depth, slots):
    """Each slot's expanded codes are bitwise compute_dde's for its anchors, and an empty
    slot's are both unreachable buckets."""
    g = graph_from_lines(*(f"e{h} r e{t}" for h, t in rows))
    names = sorted(f"e{a}" for a in anchors if f"e{a}" in g.entity_ids) or [g.entity_label(0)]
    q = make_question(g, names, [], text="q")
    f = question_features(g, q, HashedBowEncoder(8), depth=depth, slots=slots)
    width = dde_width(depth)
    codes = f.codes()
    assert codes.dtype == np.float64 and codes.shape == (len(f.view.entity_ids), slots * width)
    unreachable = np.zeros(width)
    unreachable[[depth + 1, width - 1]] = 1.0
    for s, slot in enumerate(anchor_slots(set(q.query_entities), slots)):
        got = codes[:, s * width : (s + 1) * width]
        if slot:
            want = np.array(list(compute_dde(g, slot, depth).values()))
        else:
            want = np.tile(unreachable, (len(got), 1))
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.integers(0, 6), min_size=2, max_size=40),
    width=st.integers(1, 70),
    seed=st.integers(0, 2**16),
)
def test_segment_sum_adds_each_group_left_to_right(keys, width, seed):
    """Each group's sum is bitwise the left-to-right loop over its rows, from any thread."""
    rng = np.random.default_rng(seed)
    rows = rng.choice([-1.0, 1.0], (len(keys), width)) * 10.0 ** rng.uniform(-5, 4, (len(keys), width))
    want = np.zeros((7, width))
    for key, row in zip(keys, rows):
        want[key] = want[key] + row
    assert Segments(np.array(keys), 7).sum(rows).tobytes() == want.tobytes()
    shared = Segments(np.array(keys), 7)  # its flat index is built by whichever thread sums first
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            sums = list(pool.map(lambda _: shared.sum(rows).tobytes(), range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert sums == [want.tobytes()] * 8
