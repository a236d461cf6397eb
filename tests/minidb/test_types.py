"""Unit tests for minidb column types, schemas, and row handling."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.minidb import BLOB, FLOAT, INTEGER, TEXT, Column, Database, Schema, SchemaError, make_schema
from repro.minidb.types import ColumnType


class TestColumnType:
    def test_integer_accepts_int(self):
        assert INTEGER.validate(42) == 42

    def test_integer_accepts_integral_float(self):
        assert INTEGER.validate(3.0) == 3

    def test_integer_rejects_fractional_float(self):
        with pytest.raises(SchemaError):
            INTEGER.validate(3.5)

    def test_integer_rejects_string(self):
        with pytest.raises(SchemaError):
            INTEGER.validate("7")

    def test_integer_coerces_bool(self):
        assert INTEGER.validate(True) == 1

    def test_float_accepts_int_and_float(self):
        assert FLOAT.validate(2) == 2.0
        assert FLOAT.validate(2.5) == 2.5

    def test_float_rejects_bool(self):
        with pytest.raises(SchemaError):
            FLOAT.validate(True)

    def test_text_accepts_str_only(self):
        assert TEXT.validate("abc") == "abc"
        with pytest.raises(SchemaError):
            TEXT.validate(123)

    def test_blob_accepts_bytes(self):
        assert BLOB.validate(b"\x00\x01") == b"\x00\x01"
        assert BLOB.validate(bytearray(b"xy")) == b"xy"
        with pytest.raises(SchemaError):
            BLOB.validate("not bytes")

    def test_none_passes_through(self):
        for column_type in ColumnType:
            assert column_type.validate(None) is None

    def test_storage_size_scales_with_text_length(self):
        assert TEXT.storage_size("abcd") > TEXT.storage_size("a")
        assert INTEGER.storage_size(1) == 8


class TestColumn:
    def test_not_null_enforced(self):
        column = Column("oid", INTEGER, nullable=False)
        with pytest.raises(SchemaError):
            column.validate(None)

    def test_nullable_allows_none(self):
        assert Column("score", FLOAT).validate(None) is None


class TestSchema:
    def setup_method(self):
        self.schema = make_schema(
            ("oid", INTEGER, False),
            ("url", TEXT),
            ("relevance", FLOAT),
            primary_key=["oid"],
        )

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", INTEGER), Column("a", TEXT)])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema(("a", INTEGER), primary_key=["missing"])

    def test_positions_and_membership(self):
        assert self.schema.position("url") == 1
        assert "relevance" in self.schema
        assert "nope" not in self.schema
        with pytest.raises(SchemaError):
            self.schema.position("nope")

    def test_insert_checks_arity(self):
        table = Database().create_table("T", self.schema)
        for row in ((1, "x"), (1, "x", 0.5, 2)):
            with pytest.raises(SchemaError, match="schema has 3 columns"):
                table.insert(row)
        with pytest.raises(SchemaError, match="schema has 3 columns"):
            table.insert_many([(2, "y", 0.5), (1, "x")])
        assert len(table) == 0

    def test_positional_fills_missing_with_null(self):
        assert self.schema.positional({"oid": 5, "url": "http://a"}) == [5, "http://a", None]

    def test_positional_rejects_unknown_columns(self):
        with pytest.raises(SchemaError):
            self.schema.positional({"oid": 5, "bogus": 1})

    def test_row_round_trip(self):
        row = tuple(self.schema.positional({"oid": 9, "url": "u", "relevance": 0.5}))
        assert self.schema.row_to_mapping(row) == {"oid": 9, "url": "u", "relevance": 0.5}

    def test_primary_key_index_extracts_the_key(self):
        table = Database().create_table("T", self.schema)
        rid = table.insert({"oid": 7, "url": "u", "relevance": 0.1})
        assert table._pk_index.key_of(table.read(rid)) == (7,)
        assert list(table._pk_index.keys_of([[7, 8], ["u", "v"], [0.1, 0.2]])) == [(7,), (8,)]
        assert table.lookup_rids("T_pk", (7,)) == [rid]

    def test_validate_column_coerces_like_column_validate(self):
        position = self.schema.position("relevance")
        exact = [0.5, None]
        assert self.schema.validate_column(position, exact) is exact
        assert self.schema.validate_column(position, [1, None, 2.5]) == [1.0, None, 2.5]
        with pytest.raises(SchemaError):
            self.schema.validate_column(self.schema.position("oid"), [1, None])

    def test_row_size_positive_and_monotone(self):
        short = (1, "a", 0.1)
        long = (1, "a" * 100, 0.1)
        assert 0 < self.schema.row_size(short) < self.schema.row_size(long)
        assert self.schema.row_sizes([[1, 1], ["a", "a" * 100], [0.1, 0.1]]) == [
            self.schema.row_size(short),
            self.schema.row_size(long),
        ]

    def test_bad_column_spec_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(("just_one_element",))


#: TEXT values: ASCII only, or with characters that take 2-4 bytes in UTF-8.
_ascii_text = st.text(st.characters(max_codepoint=127), max_size=12)
_any_text = st.text(max_size=12)


@st.composite
def column_batches(draw):
    """A nullable TEXT, BLOB and INTEGER schema with a batch of rows for it.

    Each TEXT column is drawn all-ASCII or not, and each column with or
    without NULLs, so every branch of the column-at-a-time sizing runs.
    """
    kinds = draw(st.lists(st.sampled_from([TEXT, BLOB, INTEGER]), min_size=1, max_size=4))
    rows = draw(st.integers(1, 8))
    columns = []
    for kind in kinds:
        if kind is TEXT:
            values = draw(st.sampled_from([_ascii_text, _any_text]))
        elif kind is BLOB:
            values = st.binary(max_size=12)
        else:
            values = st.integers(-(2**63), 2**63)
        if draw(st.booleans()):
            values = st.none() | values
        columns.append(draw(st.lists(values, min_size=rows, max_size=rows)))
    schema = make_schema(*((f"c{i}", kind) for i, kind in enumerate(kinds)))
    return schema, columns


class TestColumnSizing:
    @given(batch=column_batches())
    @settings(max_examples=200, deadline=None)
    def test_batch_sizes_equal_the_row_by_row_sizes(self, batch):
        schema, columns = batch
        rows = list(zip(*columns))
        assert schema.row_sizes(columns) == [schema.row_size(row) for row in rows]
        for position, values in enumerate(columns):
            kind = schema.columns[position].type
            assert schema.column_bytes(position, values) == sum(map(kind.storage_size, values))

    def test_non_ascii_text_is_sized_in_utf8_bytes(self):
        schema = make_schema(("t", TEXT))
        assert schema.row_sizes([["ab", "é", "€"]]) == [6, 6, 7]
        assert schema.row_sizes([["ab", "cd"]]) == [6, 6]
        assert schema.column_bytes(0, ["ab", None]) == 7
