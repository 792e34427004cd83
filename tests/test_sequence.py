"""Cycle accounting against a literal scan of the offer stream."""

import itertools
import json
import pickle
import random

import pytest

from oligocycle import (
    CorruptDataError,
    CostParams,
    DomainError,
    EncodedBatch,
    Oligo,
    RateRow,
    SupersequenceSpec,
    alternating_prefix,
    decode_payload,
    encode_payload,
    min_cycles_under,
)
from oligocycle import sequence
from oligocycle.sequence import parse_oligos, render_oligos
from oracles import materialize, offer_gap, synthesis_cycles


def scan_embed(stream, symbols):
    """Oracle: leftmost embedding by walking the stream one offer at a time."""
    pos = 0
    for want in symbols:
        while pos < len(stream) and stream[pos] != want:
            pos += 1
        if pos == len(stream):
            return None
        pos += 1
    return pos


def test_alternating_prefix():
    assert alternating_prefix(3, 8) == (1, 2, 3, 1, 2, 3, 1, 2)
    assert alternating_prefix(1, 4) == (1, 1, 1, 1)
    assert alternating_prefix(5, 0) == ()
    with pytest.raises(DomainError):
        alternating_prefix(0, 3)
    with pytest.raises(DomainError):
        alternating_prefix(2, -1)


def test_materialize_concatenates_segments():
    spec = SupersequenceSpec(((2, 3), (4, 5)))
    assert materialize(spec) == (1, 2, 1, 1, 2, 3, 4, 1)
    assert spec.total_cycles == 8
    assert spec.max_alphabet == 4


def test_offer_gap_values():
    assert offer_gap(1, 2, 4) == 1
    assert offer_gap(4, 1, 4) == 1
    assert offer_gap(2, 2, 4) == 4  # full revolution for a repeat
    assert offer_gap(3, 1, 4) == 2
    with pytest.raises(DomainError):
        offer_gap(0, 1, 4)


def test_synthesis_cycles_known_values():
    assert synthesis_cycles(Oligo((4, 3, 2, 1), 4)) == 13
    assert synthesis_cycles(Oligo((1, 1), 2)) == 3
    assert synthesis_cycles(Oligo((1, 2, 3), 3)) == 3
    assert synthesis_cycles(Oligo((3, 2, 1), 3)) == 7
    assert synthesis_cycles(Oligo((2,), 5)) == 2
    assert synthesis_cycles(Oligo((), 3)) == 0


def test_synthesis_cycles_equals_scan_exhaustive():
    for q in (1, 2, 3, 4):
        stream = alternating_prefix(q, (q + 1) * 7)
        for length in range(7):
            for symbols in itertools.product(range(1, q + 1), repeat=length):
                got = synthesis_cycles(Oligo(symbols, q))
                assert got == scan_embed(stream, symbols)


def test_min_cycles_single_segment_matches_synthesis_cycles():
    for q in (2, 3, 5):
        for symbols in itertools.product(range(1, q + 1), repeat=4):
            oligo = Oligo(symbols, q)
            need = synthesis_cycles(oligo)
            spec = SupersequenceSpec(((q, need),))
            assert min_cycles_under(spec, oligo) == need
            tight = SupersequenceSpec(((q, need - 1),))
            assert min_cycles_under(tight, oligo) is None


def test_min_cycles_under_matches_scan_randomized():
    rng = random.Random(20260819)
    for _ in range(400):
        segments = tuple(
            (rng.randint(1, 5), rng.randint(0, 9)) for _ in range(rng.randint(1, 4))
        )
        spec = SupersequenceSpec(segments)
        top = max(q for q, _ in segments)
        symbols = tuple(rng.randint(1, top) for _ in range(rng.randint(0, 6)))
        oligo = Oligo(symbols, top)
        stream = materialize(spec)
        assert min_cycles_under(spec, oligo) == scan_embed(stream, symbols)


def test_min_cycles_empty_oligo_is_free():
    spec = SupersequenceSpec(((3, 0),))
    assert min_cycles_under(spec, Oligo((), 3)) == 0


def test_oligo_validation():
    with pytest.raises(DomainError):
        Oligo((0,), 4)
    with pytest.raises(DomainError):
        Oligo((5,), 4)
    with pytest.raises(DomainError):
        Oligo((1,), 0)
    with pytest.raises(DomainError):
        SupersequenceSpec(((2, -1),))
    with pytest.raises(DomainError, match="^segment alphabet size must be at least 1$"):
        SupersequenceSpec(((0, 4),))


def test_oligo_refuses_symbols_that_are_not_ints():
    for symbols, bad in (
        ((1.5, 2), "1.5"), ((2, 1.0), "1.0"), ((True, 2), "True"), (("1",), "'1'")
    ):
        with pytest.raises(DomainError, match=f"^symbol {bad} is not an int$"):
            Oligo(symbols, 4)
    with pytest.raises(DomainError, match="^symbol 5 outside alphabet 1..4$"):
        Oligo((5, 1.5), 4)
    # any iterable of ints is stored as a tuple, so the oligo hashes
    for symbols in ([1, 2], iter((1, 2)), range(1, 3)):
        oligo = Oligo(symbols, 4)
        assert oligo.symbols == (1, 2)
        assert oligo == Oligo((1, 2), 4) and hash(oligo) == hash(Oligo((1, 2), 4))


def test_alphabet_sizes_and_cycle_counts_must_be_ints():
    for bad, text in ((2.5, "2.5"), (4.0, "4.0"), (True, "True"), ("4", "'4'")):
        with pytest.raises(DomainError, match=f"^alphabet size {text} is not an int$"):
            Oligo((1, 2), bad)
        with pytest.raises(DomainError, match=f"^alphabet size {text} is not an int$"):
            alternating_prefix(bad, 3)  # 2.5 gave (1.0, 2.0, 3.0)
        with pytest.raises(DomainError, match=f"^segment alphabet size {text} is not an int$"):
            SupersequenceSpec(((4, 9), (bad, 3)))
        with pytest.raises(DomainError, match=f"^segment cycle count {text} is not an int$"):
            SupersequenceSpec(((4, 9), (2, bad)))
    # a batch read from JSON keeps its own messages for the same values
    batch = json.loads(encode_payload("base", "1011", q=4).to_json())
    for spec in ([[2.5, 3]], [[2, 3.0]], [[True, 3]], [["4", 3]]):
        with pytest.raises(CorruptDataError, match="^field 'spec' must be a list of"):
            EncodedBatch.from_json(json.dumps({**batch, "spec": spec}))
    for q in (2.5, True, "4"):
        with pytest.raises(CorruptDataError, match="^field 'q' must be a positive integer$"):
            EncodedBatch.from_json(json.dumps({**batch, "q": q}))


def test_oligo_text_round_trip():
    oligo = Oligo((4, 1, 3), 4)
    assert render_oligos((oligo,)) == ["4,1,3"]
    assert parse_oligos(("4,1,3",), 4) == [oligo]
    assert parse_oligos(("",), 2) == [Oligo((), 2)]
    with pytest.raises(DomainError):
        parse_oligos(("1,x",), 4)


def parse_one_by_one(texts, q):
    """Oracle: the per-oligo parser, one int() per symbol."""
    out = []
    for text in texts:
        text = text.strip()
        symbols = ()
        if text:
            try:
                symbols = tuple(map(int, text.split(",")))
            except ValueError:
                raise DomainError(f"malformed oligo text {text!r}") from None
        out.append(Oligo(symbols, q))
    return out


def outcome(parse, texts, q):
    try:
        return parse(texts, q)
    except DomainError as exc:
        return type(exc), str(exc)


TEXTS = [
    "", "  ", " 1, 2", "+1", "01", "1,,2", "1,x", "0", "-1", "5", "9" * 5000, "4,3,2,1", "2,2",
]


@pytest.mark.parametrize("text", TEXTS)
def test_batch_parser_matches_per_oligo_oracle(text):
    expected = outcome(parse_one_by_one, [text], 4)
    assert outcome(parse_oligos, [text], 4) == expected
    assert outcome(lambda texts, q: [parse_oligos((texts[0],), q)[0]], [text], 4) == expected


def test_batch_parser_raises_for_the_first_bad_oligo_in_batch_order():
    malformed, outside = "1,x", "1,5"
    for texts in (
        ["1,2", malformed, "3", outside],
        ["1,2", outside, "3", malformed],
        [outside, "1", malformed, outside],
        [" 4", "4", "04", malformed, "+4", malformed],
        # a text's own outside token comes before its malformed one
        ["5,x"],
        ["1", "2,5,x", "3"],
        # the only outside symbol follows a malformed text
        ["1,2", malformed, "5"],
        ["1,x,5", "3"],
    ):
        expected = outcome(parse_one_by_one, texts, 4)
        assert isinstance(expected, tuple)
        assert outcome(parse_oligos, texts, 4) == expected
        doc = {"scheme": "base", "q": 4, "rho": 0.4, "payload_bits": 0,
               "spec": [[4, 9]], "oligos": texts}
        with pytest.raises(CorruptDataError) as caught:
            EncodedBatch.from_json(json.dumps(doc))
        assert str(caught.value) == expected[1]

    rng = random.Random(9)
    for _ in range(300):
        texts = [rng.choice(TEXTS[:-1]) for _ in range(rng.randrange(6))]
        assert outcome(parse_oligos, texts, 4) == outcome(parse_one_by_one, texts, 4)


def test_batch_renderer_matches_per_oligo_join():
    rng = random.Random(10)
    for q in (2, 4, 9, 10, 16, 99, 100, 255, 256, 300):
        rows = [tuple(rng.randint(1, q) for _ in range(rng.randrange(6))) for _ in range(8)]
        rows += [(), (q,) * 5, (1,) * 5, (q, 1, q), (min(q, 9), min(q, 10), min(q, 100))]
        pool = [Oligo(row, q) for row in rows]
        for oligos in (pool, [rng.choice(pool) for _ in range(40)], pool[-2:-1] * 3, [pool[8]] * 2):
            texts = render_oligos(oligos)
            assert texts == [",".join(map(str, o.symbols)) for o in oligos]
            assert [render_oligos((o,))[0] for o in oligos] == texts
            assert parse_oligos(texts, q) == oligos
    assert render_oligos([]) == []
    assert render_oligos([Oligo((), 4)] * 3) == ["", "", ""]


def canonical_batch(rng, q, size, count):
    """*count* texts of *size* random symbols in 1..q, some of them repeated."""
    pool = [",".join(str(rng.randint(1, q)) for _ in range(size)) for _ in range(count)]
    return [rng.choice(pool) for _ in range(2 * count)]


def near_canonical(text, q, rng):
    """Single edits of one canonical text, most of which leave the batch
    non-canonical, so the parser must fall back to its per-text path."""
    at = 2 * rng.randrange((len(text) + 1) // 2)  # a digit's position
    return [
        text[:at] + " " + text[at:],
        text[:at] + "\n" + text[at + 1 :],
        text.replace(",", "\n", 1),
        text.replace(",", "1", 1),
        text[:at] + "0" + text[at + 1 :],
        text[:at] + str(q + 1) + text[at + 1 :],
        text + ",",
        text[:-1],
        text[:at] + "\uff11" + text[at + 1 :],  # full-width 1, which int() reads
        text[:at] + "\u0661" + text[at + 1 :],  # Arabic-Indic 1, which int() reads
        text[:at] + "," + text[at + 1 :],
    ]


@pytest.mark.parametrize("q", [1, 4, 9, 10])
def test_batch_parser_matches_per_oligo_oracle_on_canonical_batches(q):
    rng = random.Random(q)
    for size in (1, 2, 7, 33):
        texts = canonical_batch(rng, q, size, 12)
        assert outcome(parse_oligos, texts, q) == outcome(parse_one_by_one, texts, q)
        assert parse_oligos(texts, q) == parse_one_by_one(texts, q)
        for i in (0, 5, len(texts) - 1):
            for mutant in near_canonical(texts[i], q, rng):
                batch = texts[:i] + [mutant] + texts[i + 1 :]
                assert outcome(parse_oligos, batch, q) == outcome(parse_one_by_one, batch, q)
                # a bad oligo after this one changes nothing: the first names the error
                later = batch + ["1,x", str(q + 1)]
                assert outcome(parse_oligos, later, q) == outcome(parse_one_by_one, later, q)
    # a canonical batch parsed against a smaller alphabet
    texts = canonical_batch(rng, 9, 5, 6)
    for smaller in (1, 8):
        assert outcome(parse_oligos, texts, smaller) == outcome(parse_one_by_one, texts, smaller)
    assert parse_oligos([], q) == []


def test_batch_parser_keeps_texts_apart_that_join_like_a_canonical_batch():
    for texts in (["1,2\n3,4"], ["1", "2\n3"], ["1,2", "3,4\n", "1,2"], ["1,2\n", "3"], ["\n1"]):
        assert outcome(parse_oligos, texts, 4) == outcome(parse_one_by_one, texts, 4)


def per_token(texts, q):
    """parse_oligos' outcome with its canonical reader switched off, so that
    every batch takes the per-text path: the oligos, or the error's class
    and message."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequence, "_canonical_rows", lambda texts, q: None)
        return parse_outcome(texts, q)


def parse_outcome(texts, q):
    try:
        return parse_oligos(texts, q)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)


ALPHABETS = (1, 9, 10, 16, 99, 100, 127, 255, 256)
# what a canonical batch has, and what none may have: ASCII digits, commas
# and newlines, and a sign, whitespace and digits that int() reads but are not ASCII
TEXT_CHARACTERS = "0123456789,\n+ \t\u0663\uff11"


def hostile_tokens(q, rng):
    """Tokens the canonical reader refuses, each beside a symbol of 1..q."""
    symbol = str(rng.randint(1, q))
    return [
        "", "0", "00", str(q + 1), str(q + 100), "0" + symbol, "00" + symbol, "+" + symbol,
        " " + symbol, symbol + " ", "\t" + symbol, "-" + symbol, "1\t1", "2\x0b3", "1234", "9999",
        symbol + "\n" + symbol, "\u0663", "\uff11" + symbol,
    ]


def grid_batch(q, rng):
    """A seeded batch over 1..q: texts of mixed digit counts and lengths,
    the symbols 1, q and the edges of each digit count among them, and now
    and then a hostile token, a hostile text or a trailing comma."""
    edges = [s for s in (1, 9, 10, 99, 100, q) if s <= q]
    one_digit = rng.random() < 0.3  # a batch the fixed-width reader may take
    length = rng.randrange(1, 6)
    texts = []
    for _ in range(rng.randrange(1, 7)):
        if not one_digit:
            length = rng.randrange(1, 7)
        top = min(q, 9) if one_digit else q
        tokens = [
            str(rng.choice(edges) if rng.random() < 0.3 and not one_digit else rng.randint(1, top))
            for _ in range(length)
        ]
        if rng.random() < 0.2:
            tokens[rng.randrange(length)] = rng.choice(hostile_tokens(q, rng))
        text = ",".join(tokens)
        if rng.random() < 0.05:
            text = rng.choice(
                ["", " ", text + ",", "," + text, text + "\n", "\n" + text, text + ",,1"]
            )
        texts.append(text)
    return texts + [rng.choice(texts) for _ in range(rng.randrange(3))]


@pytest.mark.parametrize("q", ALPHABETS)
def test_parse_matches_the_per_token_path_on_a_hostile_grid(q):
    rng = random.Random(f"parse-grid-{q}")
    parsed = refused = canonical = 0
    for _ in range(300):
        texts = grid_batch(q, rng)
        expected = per_token(texts, q)
        assert parse_outcome(texts, q) == expected, texts
        parsed += isinstance(expected, list)
        refused += isinstance(expected, tuple)
        canonical += sequence._canonical_rows(list(dict.fromkeys(texts)), q) is not None
    # each outcome, and at q <= 255 the canonical reader, ran often
    assert parsed > 50 and refused > 50
    assert canonical > 50 if q <= 255 else not canonical


def test_records_are_immutable_and_compare_by_fields():
    def records():
        spec = SupersequenceSpec(((4, 9),))
        oligos = (Oligo((1, 2, 3), 4),)
        return [
            (Oligo((4, 1, 3), 4), "symbols"),
            (spec, "segments"),
            (CostParams(alpha=1.0, beta=0.01, payload_bits=1e6, cycles=200), "cycles"),
            (EncodedBatch("base", 4, 0.4, 6, spec, oligos), "oligos"),
            (RateRow("window", 0.5, 0.75, 0.92), "rate"),
        ]

    for (record, name), (twin, _) in zip(records(), records()):
        assert record is not twin
        assert record == twin and hash(record) == hash(twin)
        assert repr(record) == repr(twin)
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == twin
    assert Oligo((1, 2), 4) != Oligo((1, 2), 3)
    assert Oligo((1, 2), 4) != SupersequenceSpec(((1, 2),))
    assert repr(Oligo((1, 2), 4)) == "Oligo(symbols=(1, 2), q=4)"


def test_batch_built_oligos_are_oligos_in_all_but_construction():
    rows = [(1, 2, 3), (4,), (), (2, 2), (1, 2, 3)]
    built = sequence._oligos(rows, 4, {1, 2, 3, 4})
    assert len(built) == len(rows)
    for oligo, row in zip(built, rows):
        reference = Oligo(row, 4)
        assert type(oligo) is Oligo and oligo.symbols is row and oligo.q == 4
        assert oligo == reference and hash(oligo) == hash(reference)
        assert repr(oligo) == repr(reference) and len(oligo) == len(row)
        assert pickle.dumps(oligo) == pickle.dumps(reference)
        assert pickle.loads(pickle.dumps(oligo)) == reference
        with pytest.raises(AttributeError):
            oligo.q = 5
    assert built[0] is not built[4]
    assert sequence._oligos([], 4, ()) == []
    assert sequence._oligos({(1,): 0}.keys(), 1, (1,)) == [Oligo((1,), 1)]


@pytest.mark.parametrize(
    "rows, used, message",
    [
        ([(1, 2), (5, 1), (0,)], {5, 0}, "symbol 5 outside alphabet 1..4"),
        ([(1, 2), (0,), (5, 1)], {5, 0}, "symbol 0 outside alphabet 1..4"),
        ([(1,), (2, True)], (True,), "symbol True is not an int"),
    ],
)
def test_batch_built_oligos_name_the_first_bad_row(rows, used, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        sequence._oligos(rows, 4, used)
    with pytest.raises(DomainError, match=f"^{message}$"):
        [Oligo(row, 4) for row in rows]


@pytest.mark.parametrize("bad, text", ((6.0, "6.0"), (True, "True"), ("6", "'6'"), (None, "None")))
def test_alternating_prefix_refuses_a_cycle_count_that_is_not_an_int(bad, text):
    # 6.0 raised TypeError, and True gave (1,)
    with pytest.raises(DomainError, match=f"^cycle count {text} is not an int$"):
        alternating_prefix(4, bad)


def test_supersequence_spec_stores_the_pairs_it_checked():
    expected = SupersequenceSpec(((4, 8), (5, 3)))
    pairs = [(4, 8), (5, 3)]
    for segments in (pairs, [[4, 8], [5, 3]], iter(pairs), (pair for pair in pairs)):
        spec = SupersequenceSpec(segments)
        assert spec.segments == ((4, 8), (5, 3))
        assert spec.total_cycles == 11  # an iterator's was 0
        assert spec == expected and hash(spec) == hash(expected)  # a list's did not hash
    # an in-process batch whose program was built from a list decodes
    batch = encode_payload("base", "1011", q=4)
    listed = batch._replace(spec=SupersequenceSpec(list(batch.spec.segments)))
    assert decode_payload(listed) == "1011"


@pytest.mark.parametrize("bad", (None, 4, ((4, 8, 1),), ((4,),), [(4, 8), 5]))
def test_supersequence_spec_refuses_what_is_not_pairs(bad):
    # None, 4 and an int segment raised TypeError, a wrong-length pair ValueError
    with pytest.raises(
        DomainError, match=r"^segments must be an iterable of \(alphabet size, cycle count\) pairs$"
    ):
        SupersequenceSpec(bad)
