import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth.corpus import (
    LABELS,
    TOKENIZER_ID,
    ClassLabel,
    Corpus,
    NewsRecord,
    count_tokens,
    load_agnews,
    normalize_label,
    sample_split,
    save_jsonl,
    tokenize,
)
from dpsynth.dp import build_histogram

from helpers import balanced_corpus, corp, rec


# ---------------------------------------------------------------- labels

@pytest.mark.parametrize("raw,expected", [
    ("World", ClassLabel.WORLD),
    ("  sports  ", ClassLabel.SPORTS),
    ("BUSINESS", ClassLabel.BUSINESS),
    ("Bussiness", ClassLabel.BUSINESS),
    ("Sci/Tech", ClassLabel.SCITECH),
    ("scitech", ClassLabel.SCITECH),
    ("Science/Technology", ClassLabel.SCITECH),
])
def test_normalize_label_aliases(raw, expected):
    assert normalize_label(raw) is expected


@pytest.mark.parametrize("raw", ["", "politics", "Sci Tech", "busines", None, 3])
def test_normalize_label_rejects(raw):
    with pytest.raises(ValueError, match=f"^unknown class label: {re.escape(repr(str(raw)))}$"):
        normalize_label(raw)


def test_label_enum_order_is_agnews_index_order():
    assert [l.value for l in LABELS] == ["World", "Sports", "Business", "Sci/Tech"]


# ---------------------------------------------------------------- records

def test_record_requires_nonempty_fields():
    with pytest.raises(ValueError):
        NewsRecord("", "desc", ClassLabel.WORLD)
    with pytest.raises(ValueError):
        NewsRecord("title", "   ", ClassLabel.WORLD)


@pytest.mark.parametrize("title, description, message", [
    ("", "desc", "empty title"),
    ("title", " \t", "empty description"),
    (None, "desc", "title must be a string"),
    ("title", 7, "description must be a string"),
    ("t \ud800", "desc", "title has no UTF-8 form: surrogates not allowed"),
    ("title", "d \udfff", "description has no UTF-8 form: surrogates not allowed"),
])
def test_record_check_names_the_field(title, description, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NewsRecord(title, description, ClassLabel.WORLD)


def test_record_text_joins_title_and_description():
    r = rec("Hello", "world news", ClassLabel.WORLD)
    assert r.title + " " + r.description == "Hello world news"


def test_corpus_label_ids_and_counts():
    c = corp(
        rec("a1", "b", ClassLabel.WORLD),
        rec("a2", "b", ClassLabel.SPORTS),
        rec("a3", "b", ClassLabel.WORLD),
    )
    assert len(c) == 3
    counts = Counter(r.label for r in c)
    assert counts[ClassLabel.WORLD] == 2
    assert counts[ClassLabel.SCITECH] == 0
    assert c.label_ids.tolist() == [0, 1, 0]


@given(st.lists(st.sampled_from(LABELS), max_size=30))
@settings(max_examples=50, deadline=None)
def test_label_ids_are_positions_in_labels(labels):
    c = corp(*(rec(f"t{i}", "d", label) for i, label in enumerate(labels)))
    assert c.label_ids.dtype == np.intp
    assert c.label_ids.tolist() == [LABELS.index(r.label) for r in c.records]
    assert c.label_ids is c.label_ids  # built once per corpus


# ---------------------------------------------------------------- csv loading

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_maps_class_indices(tmp_path):
    p = _write(tmp_path, "a.csv",
               '"3","Fed raises rates","Markets react, stocks fall."\n'
               '"1","Summit opens","Leaders meet in Geneva."\n'
               '"2","Cup final","The match went to penalties."\n'
               '"4","New chip ships","A faster processor arrives."\n')
    c = load_agnews(p)
    assert [r.label for r in c.records] == [
        ClassLabel.BUSINESS, ClassLabel.WORLD, ClassLabel.SPORTS, ClassLabel.SCITECH,
    ]
    assert c.records[0].title == "Fed raises rates"


def test_load_csv_handles_quoted_commas_and_quotes(tmp_path):
    p = _write(tmp_path, "a.csv",
               '"1","Title, with comma","He said ""quoted"" words."\n')
    c = load_agnews(p)
    assert c.records[0].title == "Title, with comma"
    assert c.records[0].description == 'He said "quoted" words.'


def test_load_csv_wrong_column_count(tmp_path):
    p = _write(tmp_path, "a.csv", '"1","only two fields"\n')
    with pytest.raises(ValueError, match="^row 1: expected 3 columns, found 2$"):
        load_agnews(p)


def test_load_csv_bad_class_index(tmp_path):
    for cell in ("5", "0", "x"):
        p = _write(tmp_path, "a.csv", f'"{cell}","t","d"\n')
        with pytest.raises(ValueError, match=f"^row 1: unknown class label: '{cell}'$"):
            load_agnews(p)


def test_load_csv_empty_field_is_malformed(tmp_path):
    p = _write(tmp_path, "a.csv", '"1","","desc"\n')
    with pytest.raises(ValueError, match="^row 1: empty title$"):
        load_agnews(p)


def test_load_csv_class_index_is_read_as_an_int(tmp_path):
    p = _write(tmp_path, "a.csv", '" 1","t","d"\n"04","t2","d2"\n')
    assert [r.label for r in load_agnews(p)] == [ClassLabel.WORLD, ClassLabel.SCITECH]


def test_load_csv_skips_blank_lines(tmp_path):
    p = _write(tmp_path, "a.csv", '"1","t","d"\n\n"2","t2","d2"\n')
    assert len(load_agnews(p)) == 2


@pytest.mark.parametrize("name, text", [
    ("a.csv", '"1","t","d"\n"5","t2","d2"\n'),
    ("a.csv", '"1","t","d"\n"0","t2","d2"\n'),
    ("a.csv", '"1","t","d"\n"x","t2","d2"\n'),
    ("c.jsonl", '{"Title": "t", "Description": "d", "Class_Label": "World"}\n'
                '{"Title": "t2", "Description": "d2", "Class_Label": "Politics"}\n'),
], ids=["csv-5", "csv-0", "csv-x", "jsonl-Politics"])
def test_unknown_label_names_its_row(tmp_path, name, text):
    p = _write(tmp_path, name, text)
    with pytest.raises(ValueError, match="^row 2: unknown class label: "):
        load_agnews(p)


@pytest.mark.parametrize("name", ["a.txt", "a", "a.csv.gz", "a.json"])
def test_load_needs_a_csv_or_jsonl_suffix(tmp_path, name):
    p = _write(tmp_path, name, '"1","t","d"\n')
    with pytest.raises(ValueError, match=f"^cannot tell the format of '{re.escape(name)}'; "
                                         r"name the file \*\.csv or \*\.jsonl$"):
        load_agnews(p)


def test_load_suffix_is_case_blind(tmp_path):
    assert len(load_agnews(_write(tmp_path, "a.CSV", '"1","t","d"\n'))) == 1
    line = '{"Title": "t", "Description": "d", "Class_Label": "World"}\n'
    assert len(load_agnews(_write(tmp_path, "a.JsonL", line))) == 1


def test_load_empty_file(tmp_path):
    p = _write(tmp_path, "a.csv", "")
    with pytest.raises(ValueError, match="^no records in "):
        load_agnews(p)


# ---------------------------------------------------------------- jsonl

def test_load_jsonl_roundtrip(tmp_path):
    c = corp(
        rec("Accents café", "Mañana news", ClassLabel.WORLD),
        rec("T2", "D2", ClassLabel.SCITECH),
    )
    p = tmp_path / "c.jsonl"
    save_jsonl(c, p)
    loaded = load_agnews(p)
    assert [(r.title, r.description, r.label) for r in loaded.records] == [
        (r.title, r.description, r.label) for r in c.records
    ]


def test_save_jsonl_key_order_and_unicode(tmp_path):
    c = corp(rec("café", "d", ClassLabel.SPORTS))
    p = tmp_path / "c.jsonl"
    save_jsonl(c, p)
    line = p.read_text(encoding="utf-8").splitlines()[0]
    assert line.startswith('{"Title": "café"')
    obj = json.loads(line)
    assert list(obj) == ["Title", "Description", "Class_Label"]
    assert obj["Class_Label"] == "Sports"


def test_load_jsonl_requires_exact_keys(tmp_path):
    p = _write(tmp_path, "c.jsonl", '{"Title": "t", "Description": "d"}\n')
    with pytest.raises(ValueError, match="^row 1: missing key Class_Label$"):
        load_agnews(p)


def test_load_jsonl_ignores_extra_keys(tmp_path):
    p = _write(
        tmp_path, "c.jsonl",
        '{"Title": "t", "Description": "d", "Class_Label": "World", "x": 1}\n',
    )
    assert load_agnews(p).records[0].label is ClassLabel.WORLD


@pytest.mark.parametrize("row, message", [
    ({"Title": " ", "Description": "d", "Class_Label": "World"}, "empty title"),
    ({"Title": "t", "Description": 3, "Class_Label": "World"}, "description must be a string"),
    ({"Title": "t", "Description": "d \ud800", "Class_Label": "World"},
     "description has no UTF-8 form: surrogates not allowed"),
])
def test_load_jsonl_record_errors_name_their_row(tmp_path, row, message):
    good = {"Title": "t", "Description": "d", "Class_Label": "World"}
    p = _write(tmp_path, "c.jsonl", json.dumps(good) + "\n\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=f"^row 3: {re.escape(message)}$"):
        load_agnews(p)


def test_load_jsonl_rejects_non_object(tmp_path):
    p = _write(tmp_path, "c.jsonl", '["t", "d", "World"]\n')
    with pytest.raises(ValueError, match="^row 1: line is not a JSON object$"):
        load_agnews(p)


# ---------------------------------------------------------------- split

def _pool(per_class=30, seed=0):
    return balanced_corpus(per_class, ["alpha", "beta", "gamma", "delta"],
                           np.random.default_rng(seed))


def test_sample_split_is_stratified_and_disjoint():
    pool = _pool()
    train, test = sample_split(pool, 40, 16, seed=3)
    assert len(train) == 40 and len(test) == 16
    for label in LABELS:
        assert Counter(r.label for r in train)[label] == 10
        assert Counter(r.label for r in test)[label] == 4
    train_ids = {id(r) for r in train.records}
    assert all(id(r) not in train_ids for r in test.records)


def test_sample_split_deterministic():
    pool = _pool()
    a = sample_split(pool, 40, 16, seed=3)
    b = sample_split(pool, 40, 16, seed=3)
    assert a[0].records == b[0].records and a[1].records == b[1].records
    c = sample_split(pool, 40, 16, seed=4)
    assert c[0].records != a[0].records


def test_sample_split_size_validation():
    pool = _pool()
    with pytest.raises(ValueError, match="^n_train=41 is not divisible by 4$"):
        sample_split(pool, 41, 16, seed=0)
    with pytest.raises(ValueError, match="^class World: need 54 records, have 30$"):
        sample_split(pool, 200, 16, seed=0)


# ---------------------------------------------------------------- tokenizer

def test_tokenize_examples():
    assert tokenize("AI & ML in 2024!") == ["ai", "ml", "in", "2024"]
    assert tokenize("a bc") == ["bc"]
    assert tokenize("foo_bar") == ["foo", "bar"]
    assert tokenize("U.S. trade\\gap") == ["trade", "gap"]
    assert tokenize("") == []


@given(st.text(max_size=200))
@settings(max_examples=200)
def test_tokenize_properties(s):
    toks = tokenize(s)
    for t in toks:
        assert len(t) >= 2
        assert t == t.lower()
        assert "_" not in t
    # idempotent on its own space-joined output
    assert tokenize(" ".join(toks)) == toks


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_tokenize_keeps_alphanumeric_runs_of_two_or_more(s):
    runs = re.findall(r"[^\W_]+", s.lower())
    assert tokenize(s) == [t for t in runs if len(t) >= 2]


# ---------------------------------------------------------------- histogram

def test_build_histogram_counts_and_fingerprint():
    c = corp(
        rec("apple apple banana", "cherry apple", ClassLabel.WORLD),
        rec("banana", "banana cherry", ClassLabel.SPORTS),
    )
    h = build_histogram(c, vocab_limit=10)
    assert h.per_class[ClassLabel.WORLD] == {"apple": 3, "banana": 1, "cherry": 1}
    assert h.per_class[ClassLabel.SPORTS] == {"banana": 2, "cherry": 1}
    assert h.per_class[ClassLabel.BUSINESS] == {}
    assert h.per_class[ClassLabel.SCITECH] == {}
    assert h.fingerprint == f"{TOKENIZER_ID}:k10"


def test_build_histogram_topk_ties_lexicographic():
    # four tokens tie at count 1; only the two lexicographically smallest stay
    c = corp(rec("delta charlie", "bravo alpha", ClassLabel.WORLD))
    h = build_histogram(c, vocab_limit=2)
    assert set(h.per_class[ClassLabel.WORLD]) == {"alpha", "bravo"}


def test_build_histogram_count_beats_lexicographic():
    c = corp(rec("zulu zulu", "alpha", ClassLabel.WORLD))
    h = build_histogram(c, vocab_limit=1)
    assert h.per_class[ClassLabel.WORLD] == {"zulu": 2}


def test_build_histogram_empty_corpus():
    with pytest.raises(ValueError, match="^cannot build a histogram from an empty corpus$"):
        build_histogram(Corpus(records=()), vocab_limit=5)


def test_token_counts_arrays_match_scipy_csr():
    # The counts are kept as bare CSR arrays; scipy, given the same records
    # counted densely, must store exactly those arrays.
    from scipy import sparse

    records = balanced_corpus(6, ["alpha", "beta", "gamma", "delta", "x"],
                              np.random.default_rng(5)).records
    records += (rec("Zeta zeta ALPHA", "omega-beta 42 42", ClassLabel.WORLD),)
    counts = count_tokens(records)
    assert list(counts.tokens) == sorted(
        {t for r in records for t in tokenize(r.title + " " + r.description)})
    column = {t: j for j, t in enumerate(counts.tokens)}
    dense = np.zeros((len(records), len(counts.tokens)), dtype=np.int32)
    for i, r in enumerate(records):
        for token, n in Counter(tokenize(r.title) + tokenize(r.description)).items():
            dense[i, column[token]] = n
    expected = sparse.csr_matrix(dense)
    np.testing.assert_array_equal(counts.indptr, expected.indptr)
    np.testing.assert_array_equal(counts.indices, expected.indices)
    np.testing.assert_array_equal(counts.data, expected.data)


def test_histogram_json_roundtrip():
    c = corp(rec("apple banana", "cherry", ClassLabel.SCITECH))
    h = build_histogram(c, vocab_limit=7)
    # A true histogram carries no release parameters.
    assert json.loads(json.dumps(h.to_json_dict())) == {
        "fingerprint": f"{TOKENIZER_ID}:k7",
        "vocab_limit": 7,
        "per_class": {
            "World": {}, "Sports": {}, "Business": {},
            "Sci/Tech": {"apple": 1, "banana": 1, "cherry": 1},
        },
    }


def test_histogram_total():
    c = corp(rec("apple banana apple", "cherry", ClassLabel.WORLD))
    h = build_histogram(c, vocab_limit=5)
    assert h.total(ClassLabel.WORLD) == 4
    assert h.total(ClassLabel.SPORTS) == 0
