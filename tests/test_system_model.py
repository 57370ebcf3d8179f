import contextlib
import io
import json
import os
import tempfile
from dataclasses import FrozenInstanceError

import pytest
from decimal import Decimal
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import demo_system, from_pairs, make_system, systems
from ioselect import cli, system_model
from ioselect.system_model import (
    COMPLETE,
    COST_SCALE,
    CompleteK,
    CostError,
    FormatError,
    ModelError,
    Selection,
    SparsityPattern,
    StructuredSystem,
    format_cost,
    format_ratio,
    parse_cost,
    restrict,
    selection_cost,
    system_from_json,
    system_to_json,
    validate,
)


class TestCosts:
    @pytest.mark.parametrize(
        "text,scaled",
        [
            ("1.5", 1_500_000),
            ("0", 0),
            ("0.000001", 1),
            ("42", 42_000_000),
            ("1e3", 1_000_000_000),
            ("-2.25", -2_250_000),
            ("9223372036854.775807", 2**63 - 1),
            ("0e1000000", 0),
        ],
    )
    def test_parse(self, text, scaled):
        assert parse_cost(text) == scaled

    def test_parse_int_means_whole_units(self):
        assert parse_cost(2) == 2 * COST_SCALE

    @pytest.mark.parametrize("bad", ["abc", "NaN", "Infinity", "", "1.2.3"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(CostError):
            parse_cost(bad)

    def test_parse_rejects_excess_precision(self):
        with pytest.raises(CostError, match="decimal places"):
            parse_cost("0.0000001")

    def test_parse_rejects_bool(self):
        with pytest.raises(CostError):
            parse_cost(True)

    @pytest.mark.parametrize(
        "text",
        [
            "0", "007", "99", "123456789012", "1234567890123", "9999999999999",
            "1.5", "+1", " 1", "1e3", "-0", "\u0663", "12a",
        ],
    )
    def test_decoded_costs_match_parse_cost(self, demo, text):
        # up to 12 ASCII digits skip Decimal on decode; the value or the
        # message is parse_cost's either way
        doc = system_to_json(demo)
        doc["cost_u"][0] = text
        try:
            expected = parse_cost(text)
        except CostError as exc:
            with pytest.raises(FormatError, match=f"field 'cost_u'\\[0\\]: {exc}"):
                system_from_json(doc)
        else:
            assert system_from_json(doc).cost_u[0] == expected

    def test_parse_rejects_overflow(self):
        with pytest.raises(CostError, match="overflow"):
            parse_cost(str(2**63))

    @pytest.mark.parametrize("text", ["9223372036854.775808", "1e13", "-1e13", "1e1000000", "1e999999999999999999"])
    def test_parse_refuses_a_large_exponent_as_overflow(self, text):
        # refused by its exponent, before the value is spelt out, also past
        # the default decimal context's exponent limit
        with pytest.raises(CostError, match="overflow"):
            parse_cost(text)

    @pytest.mark.parametrize("text", ["1.00000000000000000000000000001", "1e-999999999999999999"])
    def test_parse_never_rounds(self, text):
        # a digit past the 28 the default decimal context keeps, or an
        # exponent below its range, is still a digit too many, not rounded off
        with pytest.raises(CostError, match="decimal places"):
            parse_cost(text)

    @pytest.mark.parametrize(
        "scaled,text",
        [(1_500_000, "1.5"), (2_000_000, "2"), (100, "0.0001"), (0, "0"), (-1_500_000, "-1.5")],
    )
    def test_format(self, scaled, text):
        assert format_cost(scaled) == text

    @given(st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1))
    def test_format_parse_round_trip(self, scaled):
        assert parse_cost(format_cost(scaled)) == scaled

    def test_format_ratio(self):
        assert format_ratio(Fraction(3, 2)) == "1.5"
        assert format_ratio(Fraction(2)) == "2"
        assert format_ratio(Fraction(1, 3)) == "1/3"
        assert format_ratio(Fraction(103, 101)) == "103/101"
        assert format_ratio(Fraction(0)) == "0"
        # more than 28 significant digits, which the default decimal context rounds
        for ratio, text in [
            (Fraction(10**28 + 1, 10**28), "1.0000000000000000000000000001"),
            (Fraction(2**41 + 1, 2**41), "1.00000000000045474735088646411895751953125"),
            # a greedy step's ratio: weight 9223372036854.775807 over 16,384 elements
            (Fraction(9223372036854775807, 10**6 * 16384), "562949953.42131199993896484375"),
        ]:
            assert format_ratio(ratio) == text
            assert Fraction(Decimal(text)) == ratio


class TestSparsityPattern:
    def test_pairs_round_trip(self):
        pat = from_pairs(3, 2, [[1, 1], [3, 2]])
        assert pat.stars == frozenset({(0, 0), (2, 1)})
        assert pat.to_pairs() == [[1, 1], [3, 2]]

    def test_transpose_involution(self):
        pat = from_pairs(3, 2, [[1, 2], [2, 1]])
        assert oracles.transpose(oracles.transpose(pat)) == pat
        assert oracles.transpose(pat).stars == frozenset({(1, 0), (0, 1)})

    def test_column_and_row(self):
        pat = from_pairs(3, 3, [[1, 2], [3, 2], [1, 1]])
        assert (0, 1) in pat.stars and (2, 2) not in pat.stars

    def test_rows_of_a_pattern_built_in_code(self):
        assert SparsityPattern(3, 2, {(2, 1), (0, 1), (0, 0)}).by_row == [[0, 1], [], [1]]
        # a star out of range is kept apart from the rows, and validate reports it
        assert SparsityPattern(2, 2, {(0, 0), (0, 2)}).outside == {(0, 2)}
        assert SparsityPattern(2, 2, {(-1, 0)}).outside == {(-1, 0)}

    @given(
        st.integers(0, 10),
        st.integers(0, 10),
        st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=30),
    )
    def test_rows_and_outside_split_the_stars_by_range(self, rows, cols, given_stars):
        # a list, so repeats are given too; the pattern is that of its set
        stars = set(given_stars)
        pat = SparsityPattern(rows, cols, given_stars)
        in_range = {(i, j) for i, j in stars if 0 <= i < rows and 0 <= j < cols}
        assert len(pat.by_row) == rows and all(row == sorted(set(row)) for row in pat.by_row)
        assert {(i, j) for i, row in enumerate(pat.by_row) for j in row} == in_range
        assert pat.outside == stars - in_range
        assert pat.stars == stars
        assert pat.to_pairs() == sorted([i + 1, j + 1] for i, j in stars)

    def test_pattern_over_the_size_limit_allocates_no_rows(self, monkeypatch):
        monkeypatch.setattr(system_model, "SIZE_LIMIT", 8)
        pat = SparsityPattern(9, 9, {(0, 0)})
        assert pat.by_row == [] and pat.outside == {(0, 0)}
        assert pat.stars == {(0, 0)} and pat.to_pairs() == [[1, 1]]
        # with no row list to restrict, restrict refuses the system, stars or none
        for b_stars in ([(1, 1)], []):
            system = make_system(9, 1, 1, [], b_stars, [])
            with pytest.raises(ModelError, match="cannot restrict an invalid system"):
                restrict(system, Selection.full(system))

    def test_zero_sized_patterns_are_legal(self):
        assert SparsityPattern(0, 4).stars == frozenset()
        assert SparsityPattern(4, 0).to_pairs() == []


class TestValidate:
    def test_demo_is_clean(self):
        assert validate(demo_system()).ok

    def test_collects_all_violations(self):
        bad = StructuredSystem(
            A=SparsityPattern(2, 3),
            B=SparsityPattern(2, 1, {(5, 0)}),
            C=SparsityPattern(1, 2),
            cost_u=(-parse_cost(1),),
            cost_y=(parse_cost(1),),
            mode="sampled",
        )
        report = validate(bad)
        assert not report.ok
        text = "; ".join(report.violations)
        assert "must be square" in text
        assert "row out of range" in text
        assert "negative cost at input 1" in text
        assert "mode" in text
        shapeless = StructuredSystem(
            A=SparsityPattern(0, 0),
            B=SparsityPattern(1, 1),
            C=SparsityPattern(-1, 2),
            cost_u=(parse_cost(1),),
            cost_y=(-parse_cost(1),),
        )
        assert validate(shapeless).violations == (
            "A: at least one state required",
            "B: expected 0 rows, got 1",
            "C: expected 0 cols, got 2",
            "C: negative dimensions -1x2",
            "cost_y: expected -1 entries, got 1",
            "negative cost at output 1",
        )

    def test_bad_stars_reported_in_star_order(self):
        # each pattern's out-of-range stars by (row, col), patterns A, B, C
        bad = StructuredSystem(
            A=SparsityPattern(2, 2, {(5, 0), (0, 9), (1, 1), (2, 2), (-1, 1), (0, 3)}),
            B=SparsityPattern(2, 1, {(1, 4), (0, 0), (3, 0)}),
            C=SparsityPattern(1, 2, {(0, 2)}),
            cost_u=(parse_cost(1),),
            cost_y=(parse_cost(1),),
        )
        assert validate(bad).violations == (
            "A: star (0, 2) row out of range",
            "A: star (1, 4) col out of range",
            "A: star (1, 10) col out of range",
            "A: star (3, 3) row out of range",
            "A: star (6, 1) row out of range",
            "B: star (2, 5) col out of range",
            "B: star (4, 1) row out of range",
            "C: star (1, 3) col out of range",
        )

    def test_cost_length_mismatch(self):
        sys_ = make_system(2, 2, 1, [[1, 1], [2, 2]], [[1, 1]], [[1, 2]])
        broken = StructuredSystem(
            A=sys_.A, B=sys_.B, C=sys_.C, cost_u=(parse_cost(1),), cost_y=sys_.cost_y
        )
        assert any("cost_u" in v for v in validate(broken).violations)

    def test_explicit_k_pattern_checked(self):
        sys_ = demo_system()
        wrong = StructuredSystem(
            A=sys_.A, B=sys_.B, C=sys_.C,
            K=SparsityPattern(2, 2, {(0, 0)}),
            cost_u=sys_.cost_u, cost_y=sys_.cost_y,
        )
        assert any(v.startswith("K:") for v in validate(wrong).violations)


class TestSelectionAndRestrict:
    def test_full_selection(self, demo):
        full = Selection.full(demo)
        assert full.sorted_inputs() == (0, 1, 2)
        assert full.sorted_outputs() == (0, 1)

    def test_constructor_freezes_any_iterable(self):
        sel = Selection(iter([2, 0]), (1, 1))
        assert (sel.inputs, sel.outputs) == (frozenset({0, 2}), frozenset({1}))
        assert type(sel.inputs) is type(sel.outputs) is frozenset
        assert hash(sel) == hash(Selection(frozenset({0, 2}), frozenset({1})))

    def test_union(self):
        a = Selection([0], [1])
        b = Selection([2], [1])
        assert a.union(b) == Selection([0, 2], [1])

    def test_restrict_remaps_columns(self, demo):
        sub = restrict(demo, Selection([2], [0]))
        assert sub.m == 1 and sub.p == 1
        # retained input is the old u3: stars into x1, x2, x4
        assert sub.B.stars == frozenset({(0, 0), (1, 0), (3, 0)})
        assert sub.C.stars == frozenset({(0, 2)})
        assert sub.cost_u == (demo.cost_u[2],)
        assert isinstance(sub.K, CompleteK)

    def test_restrict_keeps_relative_order(self, demo):
        sub = restrict(demo, Selection([0, 2], [0, 1]))
        # column 1 of the restricted B is column 2 (u3) of the original
        assert {i for i, j in sub.B.stars if j == 1} == {i for i, j in demo.B.stars if j == 2}
        assert sub.cost_u == (demo.cost_u[0], demo.cost_u[2])

    def test_restrict_empty_selection(self, demo):
        sub = restrict(demo, Selection())
        assert sub.m == 0 and sub.p == 0
        assert sub.B.cols == 0 and sub.C.rows == 0
        assert validate(sub).ok

    def test_restrict_rejects_out_of_range(self, demo):
        with pytest.raises(IndexError, match="input index 9"):
            restrict(demo, Selection([8], []))
        with pytest.raises(IndexError, match="output index 3 out of range 1..2"):
            restrict(demo, Selection([], [2]))

    def test_restrict_refuses_invalid_system(self, demo):
        # a star out of range has no row to restrict, and a K that is not
        # m x p no block to select
        for bad in (
            StructuredSystem(demo.A, SparsityPattern(4, 3, {(0, 5)}), demo.C, COMPLETE, demo.cost_u, demo.cost_y),
            StructuredSystem(demo.A, demo.B, SparsityPattern(2, 4, {(2, 0)}), COMPLETE, demo.cost_u, demo.cost_y),
            StructuredSystem(demo.A, demo.B, demo.C, SparsityPattern(3, 2, {(0, 3)}), demo.cost_u, demo.cost_y),
            StructuredSystem(demo.A, demo.B, demo.C, SparsityPattern(2, 2, set()), demo.cost_u, demo.cost_y),
            StructuredSystem(demo.A, demo.B, demo.C, SparsityPattern(3, 3, {(0, 2)}), demo.cost_u, demo.cost_y),
        ):
            with pytest.raises(ModelError, match="cannot restrict an invalid system"):
                restrict(bad, Selection.full(demo))

    def test_restrict_explicit_k_block(self):
        sys_ = demo_system()
        explicit = StructuredSystem(
            A=sys_.A, B=sys_.B, C=sys_.C,
            K=SparsityPattern(3, 2, {(0, 0), (2, 1), (1, 0)}),
            cost_u=sys_.cost_u, cost_y=sys_.cost_y,
        )
        sub = restrict(explicit, Selection([0, 2], [1]))
        assert sub.K.stars == frozenset({(1, 0)})  # old (u3, y2) block survives

    def test_selection_cost(self, demo):
        assert selection_cost(demo, Selection([0, 2], [0])) == 3 * COST_SCALE


class TestDual:
    def test_shapes(self, demo):
        dual = oracles.transpose_dual(demo)
        assert dual.n == demo.n
        assert dual.m == demo.p and dual.p == 0
        assert dual.A.stars == oracles.transpose(demo.A).stars
        assert dual.B.stars == oracles.transpose(demo.C).stars
        assert dual.cost_u == demo.cost_y

    def test_k_stars_complete(self, demo):
        assert oracles.k_stars(demo) == frozenset((i, j) for i in range(3) for j in range(2))
        assert demo.k_is_complete()

    def test_explicit_full_pattern_counts_as_complete(self, demo):
        explicit = StructuredSystem(
            A=demo.A, B=demo.B, C=demo.C,
            K=SparsityPattern(3, 2, {(i, j) for i in range(3) for j in range(2)}),
            cost_u=demo.cost_u, cost_y=demo.cost_y,
        )
        assert explicit.k_is_complete()
        # m*p stars, one out of range: K keeps it in outside, so K is not complete
        stars = {(i, j) for i in range(3) for j in range(2)} - {(2, 1)} | {(5, 0)}
        invalid = StructuredSystem(demo.A, demo.B, demo.C, SparsityPattern(3, 2, stars), demo.cost_u, demo.cost_y)
        assert invalid.K.outside == {(5, 0)} and not invalid.k_is_complete()
        with pytest.raises(ModelError, match="cannot restrict an invalid system"):
            restrict(invalid, Selection.full(invalid))


# JSON values that are not [row, col] integer pairs
BAD_ENTRIES = {
    "bool": [True, 1],
    "float": [1, 2.0],
    "triple": [1, 2, 3],
    "string": "12",
    "dict": {"row": 1, "col": 2},
}


def _append_entry(field, entry):
    def mutate(doc):
        doc[field] = (doc[field] if field != "K" else [[1, 1]]) + [entry]

    return mutate


class TestJson:
    def test_demo_file_round_trip(self, demo, demo_json):
        with open(demo_json) as fh:
            parsed = system_from_json(json.load(fh))
        assert parsed == demo
        assert system_from_json(system_to_json(parsed)) == parsed

    def test_costs_echoed_as_parsed(self):
        sys_ = demo_system(cost_u=["0.25", "1", "3.5"], cost_y=["2", "0.000001"])
        doc = system_to_json(sys_)
        assert doc["cost_u"] == ["0.25", "1", "3.5"]
        assert doc["cost_y"] == ["2", "0.000001"]

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("n"), "missing field 'n'"),
            (lambda d: d.update(n="4"), "field 'n'"),
            (lambda d: d.update(A=[[1]]), 'field \'A\''),
            (lambda d: d.update(A="1 1"), "field 'A': expected a list"),
            (lambda d: [d], "instance document must be a JSON object"),
            (lambda d: d.update(K="partial"), 'field "K"'),
            (lambda d: d.update(cost_u=[1, 1, 1]), "decimal strings"),
            (lambda d: d.update(mode="sampled"), 'field "mode"'),
            *(
                pytest.param(
                    _append_entry(field, entry),
                    rf"field '{field}': entries must be \[row, col\] integer pairs",
                    id=f"{field}-{kind}",
                )
                for field in "ABCK"
                for kind, entry in BAD_ENTRIES.items()
            ),
        ],
    )
    def test_format_errors_name_the_field(self, demo, mutate, message):
        doc = system_to_json(demo)
        replaced = mutate(doc)  # edits doc, or wraps it in a new document
        if isinstance(replaced, list):
            doc = replaced
        with pytest.raises(FormatError, match=message):
            system_from_json(doc)

    def test_explicit_k_round_trip(self, demo):
        doc = system_to_json(demo)
        doc["K"] = [[1, 1], [3, 2]]
        parsed = system_from_json(doc)
        assert parsed.K.stars == frozenset({(0, 0), (2, 1)})
        assert system_to_json(parsed)["K"] == [[1, 1], [3, 2]]

    def test_duplicate_pairs_collapse(self, demo):
        doc = system_to_json(demo)
        doc["A"] += doc["A"][:2]
        doc["K"] = [[1, 1], [3, 2], [1, 1]]
        parsed = system_from_json(doc)
        assert parsed.A == demo.A and len(parsed.A.stars) == len(demo.A.stars)
        assert parsed.K.stars == frozenset({(0, 0), (2, 1)})

    @given(systems())
    def test_random_round_trip(self, system):
        assert system_from_json(json.loads(json.dumps(system_to_json(system)))) == system

    def test_decoded_pattern_is_its_rows_until_stars_are_read(self, demo):
        doc = system_to_json(demo)
        doc["B"] = doc["B"][::-1] + doc["B"][:3]  # out of order, three pairs repeated
        parsed = system_from_json(doc)
        assert "stars" not in vars(parsed.B)
        assert parsed.B.by_row == demo.B.by_row == [[0, 2], [1, 2], [0, 1], [2]]
        assert parsed.B == demo.B and hash(parsed.B) == hash(demo.B) and repr(parsed.B) == repr(demo.B)
        assert vars(parsed.B)["stars"] == demo.B.stars
        with pytest.raises(FrozenInstanceError):
            parsed.B.stars = frozenset()
        assert validate(parsed).ok

    @pytest.mark.parametrize(
        "pairs",
        [
            [[1, 1], [1, 3], [1, 3], [2, 2]],  # ascending, one pair repeated back to back
            [[2, 1], [1, 5]],  # rows out of order, each row still ascending
            [[1, 3], [1, 2], [2, 1]],  # one adjacent swap within a row
        ],
        ids=["repeat", "row-order", "swap"],
    )
    def test_pair_order_is_checked_while_decoding(self, pairs):
        # the decoder compares each pair with the one before it; whatever
        # it decides, the rows are those of the star set
        doc = {"n": 5, "m": 1, "p": 1, "A": pairs, "B": [], "C": [], "cost_u": ["1"], "cost_y": ["1"]}
        parsed = system_from_json(doc).A
        assert "stars" not in vars(parsed)
        assert parsed.by_row == from_pairs(5, 5, pairs).by_row

    def test_out_of_range_pair_keeps_the_stars_for_validate(self, demo):
        doc = system_to_json(demo)
        doc["A"].append([5, 1])
        parsed = system_from_json(doc)
        assert (4, 0) in parsed.A.stars
        assert validate(parsed).violations == ("A: star (5, 1) row out of range",)

    @pytest.mark.parametrize("field", ["n", "m", "p"])
    def test_size_limit_names_the_field(self, demo, monkeypatch, field):
        monkeypatch.setattr(system_model, "SIZE_LIMIT", 4)
        doc = system_to_json(demo)
        assert system_from_json(doc) == demo  # n = 4 is at the limit
        doc[field] = 5
        with pytest.raises(FormatError, match=f"field '{field}': 5 exceeds the size limit 4"):
            system_from_json(doc)

    @pytest.mark.parametrize("field", ["n", "m", "p"])
    def test_negative_size_names_the_field(self, demo, field):
        # refused where it is read, before any pattern is decoded against it
        doc = system_to_json(demo)
        doc[field] = -1
        with pytest.raises(FormatError, match=f"^field '{field}': -1 is negative$"):
            system_from_json(doc)

    def test_validate_refuses_oversized_patterns_before_building_rows(self, monkeypatch):
        # built in code from stars, n = 9 over a limit of 8: validate refuses
        # each pattern with a dimension over it before building its rows
        from ioselect.selector import ValidationFailed, compile_system

        monkeypatch.setattr(system_model, "SIZE_LIMIT", 8)
        n = 9
        system = make_system(n, 1, 1, [(i, i) for i in range(1, n + 1)], [(1, 1)], [(1, n)])
        with pytest.raises(ValidationFailed) as exc:
            compile_system(system)
        assert exc.value.violations == tuple(
            f"{name}: dimensions {dims} exceed the size limit 8"
            for name, dims in (("A", "9x9"), ("B", "9x1"), ("C", "1x9"))
        )
        assert [getattr(system, name).by_row for name in "ABC"] == [[], [], []]

    @given(st.data())
    def test_decoder_agrees_with_the_star_constructor(self, data):
        # an ascending in-range run with entries dropped in anywhere: pairs
        # repeated, out of order, with a 0 or out of range, bools, floats
        # and entries that are not pairs.  The one-pass decoder gives the
        # rows, ``outside`` and the error text of type-checking every entry
        # and building the pattern from its stars
        rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        cells = [[i, j] for i in range(1, rows + 1) for j in range(1, cols + 1)]
        raw = sorted(data.draw(st.lists(st.sampled_from(cells), unique_by=tuple))) if cells else []
        if raw and data.draw(st.booleans()):  # a 1 as true, or a float, inside the run
            k = data.draw(st.integers(0, len(raw) - 1))
            i, j = raw[k]
            raw[k] = data.draw(st.sampled_from(
                [[float(i), j], [i, float(j)], *([[True, j]] if i == 1 else []), *([[i, True]] if j == 1 else [])]
            ))
        entries =st.lists(st.integers(-1, 5), min_size=2, max_size=2) | st.sampled_from(
            [*BAD_ENTRIES.values(), [1, True], [1.0, 1], [1], 7, None]
        )
        for entry in data.draw(st.lists(entries, max_size=4)):
            raw.insert(data.draw(st.integers(0, len(raw))), entry)
        try:
            for entry in raw:
                i, j = entry
                if type(i) is not int or type(j) is not int:
                    raise TypeError
            expected = SparsityPattern(rows, cols, frozenset((i - 1, j - 1) for i, j in raw))
        except (TypeError, ValueError):
            with pytest.raises(FormatError, match=r"^field 'A': entries must be \[row, col\] integer pairs$"):
                system_model._pairs({"A": raw}, "A", rows, cols)
            return
        got = system_model._pairs({"A": raw}, "A", rows, cols)
        assert (got.by_row, got.outside) == (expected.by_row, expected.outside)

    @given(systems(), st.randoms(use_true_random=False))
    def test_shuffled_repeated_pairs_decode_alike(self, system, rng):
        doc = system_to_json(system)
        shuffled = dict(doc)
        for field in "ABC":
            pairs = doc[field] + rng.sample(doc[field], len(doc[field]) // 2)
            rng.shuffle(pairs)
            shuffled[field] = pairs
        parsed = system_from_json(shuffled)
        assert [pat.by_row for pat in (parsed.A, parsed.B, parsed.C)] == [
            pat.by_row for pat in (system.A, system.B, system.C)
        ]
        assert parsed == system
        assert [parsed.A.stars, parsed.B.stars, parsed.C.stars] == [system.A.stars, system.B.stars, system.C.stars]
        assert _select_output(shuffled) == _select_output(doc)


def _select_output(doc: dict) -> tuple[int, str]:
    """Exit code and standard output of ``ioselect select`` on ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["select", path])
    return code, out.getvalue()
