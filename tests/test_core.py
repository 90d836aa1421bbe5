import collections
import copy
import inspect
import itertools
import math
import pickle
import random
import sys
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType, MemberDescriptorType

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dnumbers as dn
from dnumbers import dst, oracle
from dnumbers.core import MASS_TOL, cardinality_error, label_error, mass_error
from dnumbers.oracle import iter_indices, literal_nonexclusivity

from conftest import BAD_MASS_IDS, BAD_MASSES, completed_dnumbers, raw_dnumbers


def exclusive(labels):
    return dn.build_frame(labels, 2, [])


class TestBuildFrame:
    @pytest.mark.parametrize("degrees", [
        {(5, 9): 0.5}, {(0, 3): 0.5}, {(1, 0): 0.5}, {(0, 0): 0.5},
        {(-1, 1): 0.5}, {(0, 1, 2): 0.5}, {"ab": 0.5}, {(0.0, 1): 0.5},
        {(0, 1): -5e-324}, {(0, 1): -0.5}, {(0, 1): 1.5}, {(0, 1): math.nan},
        {(0, 1): "0.5"}, {(False, True): 0.5}, {(0, True): 0.5}, {(0, 1): True},
        {(0, 1): math.nextafter(1.0, 2.0)}])
    def test_malformed_degree_table(self, degrees):
        with pytest.raises(ValueError, match="degree"):
            dn.Frame(("a", "b"), 2, degrees)

    @pytest.mark.parametrize("degrees", [[((0, 1), 0.5)], None, ((0, 1), 0.5)])
    def test_degree_table_not_a_mapping(self, degrees):
        with pytest.raises(ValueError, match="degree table .* is not a mapping"):
            dn.Frame(("a", "b"), 2, degrees)

    @pytest.mark.parametrize("elements", [5, None], ids=["int", "None"])
    def test_elements_not_iterable(self, elements):
        with pytest.raises(ValueError, match=r"^elements \w+ are not iterable$"):
            dn.Frame(elements, None, {})
        assert dn.Frame("ab", None, {}).elements == ("a", "b")
        # a degree or mass table that is not iterable, named the same way
        kind = type(elements).__name__
        with pytest.raises(ValueError, match=rf"^degrees {kind} are not iterable$"):
            dn.build_frame("ab", 2, elements)
        with pytest.raises(ValueError, match=rf"^entries {kind} are not iterable$"):
            dn.build_dnumber(dn.build_frame("ab", 2), elements)

    @pytest.mark.parametrize("elements", [{"a", "b", "c"}, frozenset("abc")],
                             ids=["set", "frozenset"])
    def test_elements_without_an_order(self, elements):
        # a set's order follows the hash seed, so its labels' indices would too
        with pytest.raises(ValueError, match=r"^elements \w+ have no fixed order$"):
            dn.Frame(elements, None, {})
        with pytest.raises(ValueError, match="no fixed order"):
            dn.build_frame(elements, 2, [(("a", "b"), 0.5)])

    @pytest.mark.parametrize("elements", [["a", "b"], ("a", "b"),
                                          (label for label in "ab")],
                             ids=["list", "tuple", "generator"])
    def test_ordered_elements_accepted(self, elements):
        assert dn.Frame(elements, None, {}).elements == ("a", "b")

    @pytest.mark.parametrize("frame, masses, needle", [
        (None, [(1, 0.5)], "mass table list is not a mapping"),
        (None, None, "mass table NoneType is not a mapping"),
        ("ab", {1: 1.0}, "frame str is not a Frame"),
    ], ids=["list", "None", "str-frame"])
    def test_dnumber_inputs_of_the_wrong_kind(self, frame, masses, needle):
        with pytest.raises(ValueError, match=f"^{needle}$"):
            dn.DNumber(exclusive("ab") if frame is None else frame, masses)

    def test_degree_table_bounds_accepted(self):
        f = dn.Frame(("a", "b"), 2, {(0, 2): 1.0, (1, 2): 1e-300})
        assert f.nonexclusivity(f.subset("ab"), f.x_mask) == f.degrees[(0, 2)] == 1.0

    def test_zero_degree_dropped(self):
        # a 0 is exclusive, as an absent pair is: the table keeps neither
        f = dn.Frame(("a", "b"), 2, {(0, 1): 0.0, (0, 2): 0.5, (1, 2): -0.0})
        assert f == dn.Frame(("a", "b"), 2, {(0, 2): 0.5})
        assert dict(f.degrees) == {(0, 2): 0.5}
        assert all(0.0 not in row.values() for row in f.adjacency)

    def test_default_degrees_are_zero(self):
        f = exclusive("ab")
        assert f.nonexclusivity(f.subset("a"), f.subset("b")) == 0.0

    def test_degrees_symmetric(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        assert literal_nonexclusivity(f, 1, 2) == literal_nonexclusivity(f, 2, 1) == 0.3

    def test_duplicate_label(self):
        with pytest.raises(ValueError, match="duplicate"):
            dn.build_frame(["a", "a"], 2, [])

    def test_reserved_label(self):
        with pytest.raises(ValueError, match="reserved"):
            dn.build_frame(["a", "X"], 2, [])

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            dn.build_frame("ab", 2, [(("a", "b"), 1.2)])

    def test_unknown_label_in_pair(self):
        with pytest.raises(ValueError, match="unknown label"):
            dn.build_frame("ab", 2, [(("a", "z"), 0.5)])

    def test_small_unknown_cardinality(self):
        with pytest.raises(ValueError, match="an integer from 2 to"):
            dn.build_frame("ab", 1, [])

    def test_self_degree_is_one(self):
        f = exclusive("ab")
        assert literal_nonexclusivity(f, 1, 1) == 1.0
        assert literal_nonexclusivity(f, f.x_mask, f.x_mask) == 1.0

    def test_x_pair_allowed(self):
        f = dn.build_frame("ab", None, [(("a", "X"), 0.7)])
        assert f.degrees[(0, f.size)] == 0.7
        assert f.unknown_cardinality is None

    @pytest.mark.parametrize("first,second", [(0.0, 0.5), (0.5, 0.0)])
    def test_conflicting_degrees_in_either_order(self, first, second):
        with pytest.raises(ValueError, match="conflicting degrees"):
            dn.build_frame("ab", 2, [(("a", "b"), first), (("b", "a"), second)])

    def test_repeated_zero_degree_is_not_stored(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.0), (("a", "b"), 0.0)])
        assert dict(f.degrees) == {}

    def test_identical_label_pair_is_not_stored(self):
        with pytest.raises(ValueError, match=r"^pair names 'a' twice$"):
            dn.build_frame("ab", 2, [(("a", "a"), 0.3)])

    @pytest.mark.parametrize("entry", [
        ("ab", 0.5),  # a str is not a pair of labels
        ((["a"], "b"), 0.5),  # an unhashable label
        (("a", "b"),),  # no degree
        ("a", "b", 0.5),  # not a (pair, degree) entry
    ])
    def test_pair_must_be_two_labels(self, entry):
        with pytest.raises(ValueError, match=r'^"pair" must be two labels$'):
            dn.build_frame(["a", "b"], 2, [entry])

    def test_label_not_a_str_checked_before_pairs(self):
        with pytest.raises(ValueError, match=r"^label \['a'\] is not a str$"):
            dn.build_frame([["a"]], 2)
        with pytest.raises(ValueError, match=r"^label \['a'\] is not a str$"):
            dn.build_frame(["b", ["a"]], 2, [(("b", "X"), 0.5)])

    def test_subset_of_unknown_label(self):
        with pytest.raises(ValueError, match="unknown label 'z'"):
            exclusive("ab").subset(["z"])


class TestFrameInvariants:
    """Built directly, a ``Frame`` holds to the same rules as ``build_frame``."""

    @pytest.mark.parametrize("elements,cardinality,needle", [
        (("a", "a"), 2, "duplicate label 'a'"),
        (("a", "X"), 2, "reserved"),
        (("a", ""), 2, "nonempty"),
        ((), 2, "at least one element"),
        (("a", "b"), 1, "an integer from 2 to"),
        (("a", "b"), True, "an integer from 2 to"),
        (("a", "b"), 2.0, "an integer from 2 to"),
        ((1, 2), 2, "label 1 is not a str"),
        (("a", None), 2, "label None is not a str"),
    ])
    def test_rejected(self, elements, cardinality, needle):
        with pytest.raises(ValueError, match=needle):
            dn.Frame(elements, cardinality, {})

    @pytest.mark.parametrize("cardinality", [2.9, "3", True, 0, "unknown"])
    def test_build_frame_does_not_coerce_cardinality(self, cardinality):
        with pytest.raises(ValueError, match="an integer from 2 to"):
            dn.build_frame("ab", cardinality, [])

    @pytest.mark.parametrize("args", [(None, []), ()], ids=["None", "default"])
    def test_unknown_size(self, args):
        assert dn.build_frame("ab", *args).unknown_cardinality is None

    def test_cardinality_beyond_float_range(self):
        with pytest.raises(ValueError, match="an integer from 2 to"):
            dn.build_frame("a", 10 ** 400)

    def test_largest_cardinality_accepted(self):
        card = int(sys.float_info.max)
        assert dn.build_frame("a", card).unknown_cardinality == card

    def test_float_subclass_degree_kept(self):
        class Degree(float):
            pass

        f = dn.Frame(("a", "b"), None, {(0, 1): Degree(0.5)})
        assert type(f.degrees[(0, 1)]) is float
        assert f.adjacency[0][1] == 0.5 and f.nonexclusivity(1, 2) == 0.5
        # bool is an int subclass, and no number
        with pytest.raises(ValueError, match=r"degree True for pair \(0, 1\) outside"):
            dn.Frame(("a", "b"), None, {(0, 1): True})

    def test_tuple_subclass_key_kept(self):
        Pair = collections.namedtuple("Pair", "i j")
        f = dn.Frame(("a", "b"), None, {Pair(0, 1): 0.5})
        assert f == dn.Frame(("a", "b"), None, {(0, 1): 0.5})
        assert type(next(iter(f.degrees))) is Pair
        assert f.adjacency == ({1: 0.5}, {0: 0.5}, {})
        with pytest.raises(ValueError, match=r"key Pair\(i=1, j=0\) is not a pair"):
            dn.Frame(("a", "b"), None, {Pair(1, 0): 0.5})

    def test_elements_kept_as_tuple(self):
        f = dn.Frame(["a", "b"], None, {(0, 1): 0.5})
        assert f == dn.Frame(("a", "b"), None, {(0, 1): 0.5})
        assert f.elements == ("a", "b")
        with pytest.raises(AttributeError):
            f.elements.append("c")

    def test_degrees_kept_as_float(self):
        class Degree(float):
            pass

        f = dn.Frame(("a", "b", "c"), None, {(0, 1): 1, (1, 3): Degree(0.5), (0, 2): 0})
        assert f == dn.Frame(("a", "b", "c"), None, {(0, 1): 1.0, (1, 3): 0.5})
        values = [*f.degrees.values(), *(p for row in f.adjacency for p in row.values()),
                  *(literal_nonexclusivity(f, 1 << i, 1 << j)
                    for i in range(4) for j in range(4))]
        assert {type(p) for p in values} == {float}

    def test_derived_values_kept(self):
        f = dn.Frame(["a", "b"], None, {(0, 1): 0.5})
        derived = ["index", "size", "x_mask", "theta_mask", "full_mask"]
        assert list(f.__match_args__) == [
            "elements", "unknown_cardinality", "degrees"]
        assert [name for name, v in vars(dn.Frame).items()
                if isinstance(v, property)] == ["adjacency"]
        assert all(type(vars(dn.Frame)[name]) is MemberDescriptorType for name in derived)
        assert list(f.index.items()) == [("a", 0), ("b", 1), ("X", 2)]
        assert [f.size, f.x_mask, f.theta_mask, f.full_mask] == [2, 0b100, 0b011, 0b111]
        with pytest.raises(TypeError):
            f.index["c"] = 3
        for name in derived:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(f, name, getattr(f, name))
            assert name not in repr(f)
        wider = f.replace(elements=("b", "a", "c"))
        assert dict(wider.index) == {"b": 0, "a": 1, "c": 2, "X": 3}
        assert [wider.size, wider.x_mask, wider.theta_mask, wider.full_mask] == [
            3, 0b1000, 0b0111, 0b1111]
        copied = pickle.loads(pickle.dumps(f))
        assert [getattr(copied, name) for name in derived] == [
            getattr(f, name) for name in derived]

    @pytest.mark.parametrize("label", ["z", "", "x", ["a"], {"a": 1}])
    def test_index_of_label_not_in_frame(self, label):
        f = exclusive("ab")
        assert [f.index_of(name) for name in "abX"] == [0, 1, 2]
        with pytest.raises(ValueError, match=r"^unknown label "):
            f.index_of(label)
        with pytest.raises(ValueError, match=r"^unknown label "):
            f.subset(["a", label])

    @pytest.mark.parametrize("card", [1, True, 2.0, "3", 10 ** 400],
                             ids=["1", "True", "float", "str", "huge-int"])
    def test_cardinality_rule_worded_as_in_a_document(self, card):
        assert cardinality_error(2) is None
        assert cardinality_error(int(sys.float_info.max)) is None
        reason = cardinality_error(card)
        assert reason == f"must be an integer from 2 to {sys.float_info.max!r}, got {card!r}"
        with pytest.raises(ValueError) as err:
            dn.Frame(("a",), card, {})
        assert str(err.value) == f"unknown_cardinality {reason}"


def assert_rows_strongest_first(f):
    """Every adjacency row lists its neighbours by non-increasing degree,
    ties in the order of ``f.degrees``, and holds exactly the stored pairs."""
    order = list(f.degrees)
    assert len(f.adjacency) == f.size + 1
    for i, row in enumerate(f.adjacency):
        entries = [((i, j) if i < j else (j, i), p) for j, p in row.items()]
        for (a, p), (b, q) in itertools.pairwise(entries):
            assert p > q or (p == q and order.index(a) < order.index(b))
        assert dict(row) == {j: p for j in range(f.size + 1) if j != i
                             and (p := literal_nonexclusivity(f, 1 << i, 1 << j))}


class TestAdjacencyOrder:
    def test_rows_strongest_first(self):
        f = dn.Frame(("a", "b", "c", "d"), None, {
            (0, 1): 0.2, (0, 2): 0.9, (0, 3): 0.5, (1, 2): 0.7, (2, 3): 0.1})
        assert_rows_strongest_first(f)
        assert [list(row) for row in f.adjacency] == [
            [2, 3, 1], [2, 0], [0, 1, 3], [0, 2], []]

    def test_ties_keep_table_order(self):
        f = dn.Frame(("a", "b", "c", "d"), None, {
            (2, 3): 0.5, (0, 3): 0.5, (1, 3): 0.5, (0, 1): 1.0, (0, 2): 1.0})
        assert_rows_strongest_first(f)
        assert list(f.adjacency[3]) == [2, 0, 1]
        assert list(f.adjacency[0]) == [1, 2, 3]

    def test_degree_one_and_x_pairs(self):
        f = dn.Frame(("a", "b", "c"), None, {
            (0, 1): 0.3, (0, 3): 1.0, (1, 3): 0.6, (2, 3): 1, (1, 2): 1.0})
        assert_rows_strongest_first(f)
        assert list(f.adjacency[f.size]) == [0, 2, 1]
        assert list(f.adjacency[1]) == [2, 3, 0]

    def test_float_subclass_degrees(self):
        class Degree(float):
            pass

        f = dn.Frame(("a", "b", "c"), None, {
            (0, 1): Degree(0.25), (0, 2): 0.75, (1, 2): Degree(0.5)})
        assert_rows_strongest_first(f)
        assert list(f.adjacency[0]) == [2, 1]
        assert type(f.adjacency[0][1]) is float

    def test_replace_reorders(self):
        f = dn.Frame(("a", "b", "c"), None, {(0, 1): 0.25, (0, 2): 0.75})
        g = f.replace(degrees={(0, 1): 0.75, (0, 2): 0.25})
        assert_rows_strongest_first(g)
        assert list(f.adjacency[0]) == [2, 1] and list(g.adjacency[0]) == [1, 2]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32))
    def test_random_tables(self, n, seed):
        rng = random.Random(seed)
        levels = [0.25, 0.5, 1.0, 1, rng.random() or 1.0]  # ties on purpose
        pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        rng.shuffle(pairs)
        f = dn.Frame(tuple(f"e{i}" for i in range(n)), None,
                     {key: rng.choice(levels) for key in pairs if rng.random() < 0.6})
        assert_rows_strongest_first(f)


def reference_label_error(label, before):
    """The seven label rules read from Unicode categories, in their order."""
    categories = {unicodedata.category(c) for c in label}
    if "Cs" in categories:
        return f"label {label!r} is not valid Unicode text"
    if not label:
        return "label must be nonempty"
    if label == "X":
        return "label 'X' is reserved for the unknown element"
    if label in before:
        return f"duplicate label {label!r}"
    if "Cc" in categories:
        return f"label {label!r} contains a control character"
    if categories & {"Zl", "Zp"}:
        return f"label {label!r} contains a line or paragraph separator"
    if "|" in label:
        return f"label {label!r} contains '|'"
    return None


def test_label_rules_against_unicode_categories_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    forbidden = [c for c in every if c == "|"
                 or unicodedata.category(c) in ("Cs", "Cc", "Zl", "Zp")]
    assert len(forbidden) == 2048 + 65 + 2 + 1
    # one label holding every other code point
    assert label_error(every.translate(dict.fromkeys(map(ord, forbidden))),
                       ()) is None
    for c in forbidden:
        for label in (c, f"a{c}b", f"{c}|", f"|{c}", f"\u2028{c}",
                      f"{c}\x7f", f"X{c}"):
            for before in ((), {label}):
                assert (label_error(label, before)
                        == reference_label_error(label, before))


class TestNonexclusivity:
    def test_intersecting_sets_give_one(self):
        f = exclusive("abc")
        assert f.nonexclusivity(f.subset("ab"), f.subset("bc")) == 1.0

    def test_singleton_lookup(self):
        f = dn.build_frame("abc", 2, [(("a", "c"), 0.4)])
        assert f.nonexclusivity(f.subset("a"), f.subset("c")) == 0.4

    def test_max_extension_over_disjoint_sets(self):
        f = dn.build_frame("abc", 2, [(("a", "c"), 0.2), (("b", "c"), 0.5)])
        assert f.nonexclusivity(f.subset("ab"), f.subset("c")) == 0.5
        # must match enumeration over singleton pairs
        brute = literal_nonexclusivity(f, f.subset("ab"), f.subset("c"))
        assert f.nonexclusivity(f.subset("ab"), f.subset("c")) == brute

    def test_empty_subset_rejected(self):
        f = exclusive("ab")
        with pytest.raises(ValueError):
            f.nonexclusivity(0, f.subset("a"))

    @pytest.mark.parametrize("a, b, outside", [
        (1, 1 << 10, 1 << 10), (-1, 4, -1), (1 << 10, 1, 1 << 10),
        (4, -1, -1), (0b11000, 1, 0b11000), (0, 1 << 4, 1 << 4),
    ])
    def test_mask_outside_frame_rejected(self, a, b, outside):
        f = exclusive("abc")
        with pytest.raises(ValueError) as err:
            f.nonexclusivity(a, b)
        assert str(err.value) == f"subset mask {outside!r} is not inside the frame"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.sampled_from([0.05, 0.5, 1.0]),
           st.integers(0, 2 ** 32), st.data())
    def test_equals_max_over_stored_pairs(self, n, density, seed, data):
        # the literal definition, which reads ``degrees``, not the
        # adjacency; on intersecting sets it gives 1
        rng = random.Random(seed)
        f = dn.Frame(tuple(f"e{i}" for i in range(n)), None, {
            (i, j): min(rng.random() * 1.1, 1.0) or 1.0  # 1 in 11 exactly 1
            for i in range(n + 1) for j in range(i + 1, n + 1)
            if rng.random() < density})
        # wide masks, or at most three members, where X often attains the max
        masks = st.integers(1, f.full_mask) | st.sets(
            st.integers(0, n), min_size=1, max_size=3).map(
                lambda s: sum(1 << i for i in s))
        a = data.draw(masks, label="a")
        b = data.draw(masks, label="b")
        if data.draw(st.booleans(), label="disjoint") and b & ~a:
            b &= ~a
        literal = literal_nonexclusivity(f, a, b)
        assert f.nonexclusivity(a, b) == f.nonexclusivity(b, a) == literal

    @pytest.mark.parametrize("merge", [
        None,  # return at the first member with a neighbour in the other set
        lambda best, p: p,  # each member's first hit replaces the best so far
    ])
    def test_broken_row_walks_fail(self, merge, monkeypatch):
        def walk(self, a, b):
            if a & b:
                return 1.0
            if a.bit_count() > b.bit_count():
                a, b = b, a
            best = 0.0
            for i in iter_indices(a):
                hit = next((p for j, p in self.adjacency[i].items() if b >> j & 1), None)
                if hit is not None:
                    if merge is None:
                        return hit
                    best = merge(best, hit)
            return best

        monkeypatch.setattr(dn.Frame, "nonexclusivity", walk)
        # a fresh thread: Hypothesis remembers, per thread, which instance
        # ran a test method, and fails a second one as a differing executor
        with ThreadPoolExecutor(1) as pool:
            with pytest.raises(AssertionError):
                pool.submit(self.test_equals_max_over_stored_pairs).result()


class TestBuildDNumber:
    def test_vacuous_is_completed(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert d.completed
        assert d.masses == {f.theta_mask: 1.0}

    def test_raw_total(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.6)])
        assert not d.completed
        assert d.total_mass == pytest.approx(0.6)

    def test_total_above_one(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="exceeds 1"):
            dn.build_dnumber(f, [(f.subset("a"), 0.7), (f.subset("b"), 0.7)])

    def test_negative_mass(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="negative"):
            dn.build_dnumber(f, [(f.subset("a"), -0.1)])

    def test_empty_set_mass(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="empty set"):
            dn.build_dnumber(f, [(0, 0.5)])

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass(self, mass):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="no greater than 1"):
            dn.build_dnumber(f, [(f.subset("a"), mass)])

    def test_duplicates_merged_zeros_dropped(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(1, 0.2), (1, 0.3), (2, 0.0)])
        assert d.masses == {1: 0.5}

    def test_negative_entry_not_hidden_by_merge(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="negative"):
            dn.build_dnumber(f, [(1, -0.1), (1, 0.3)])

    @pytest.mark.parametrize("mask", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("order", [1, -1], ids=["int-first", "int-last"])
    def test_mask_not_an_int_not_hidden_by_merge(self, mask, order):
        # 1 == 1.0 == True, so a dict would merge them into one key
        entries = [(1, 0.2), (mask, 0.3)][::order]
        with pytest.raises(ValueError) as err:
            dn.build_dnumber(exclusive("ab"), entries)
        assert str(err.value) == f"subset mask {mask!r} is not an int inside the frame"

    @pytest.mark.parametrize("entry, reason", [
        (([1], 0.5), "subset mask [1] is not an int inside the frame"),
        (5, "entry 5 is not a (mask, mass) pair"),
        ((1, 0.5, 3), "entry (1, 0.5, 3) is not a (mask, mass) pair"),
        ((1,), "entry (1,) is not a (mask, mass) pair"),
        ("ab", "subset mask 'a' is not an int inside the frame"),
        ({1: 0.5}, "entry {1: 0.5} is not a (mask, mass) pair"),
    ])
    def test_entry_not_a_pair(self, entry, reason):
        with pytest.raises(ValueError) as err:
            dn.build_dnumber(exclusive("ab"), [(1, 0.25), entry])
        assert str(err.value) == reason

    def test_list_entries_accepted(self):
        d = dn.build_dnumber(exclusive("ab"), [[1, 0.25], [1, 0.5]])
        assert d.masses == {1: 0.75}


class TestMassRule:
    """One copy of the rule on a mass, ``mass_error``, and one message
    wherever a D number is made: no conversion and no ``OverflowError``."""

    @pytest.mark.parametrize("mass", BAD_MASSES, ids=BAD_MASS_IDS)
    def test_dnumber_raises_the_reason(self, mass):
        assert mass_error(1, mass) is not None
        with pytest.raises(ValueError) as err:
            dn.DNumber(exclusive("ab"), {1: mass})
        assert str(err.value) == mass_error(1, mass)

    @pytest.mark.parametrize("mass", BAD_MASSES, ids=BAD_MASS_IDS)
    def test_build_dnumber_raises_the_reason(self, mass):
        with pytest.raises(ValueError) as err:
            dn.build_dnumber(exclusive("ab"), [(1, mass)])
        assert str(err.value) == mass_error(1, mass)

    @pytest.mark.parametrize("mass", [0, 0.0, 5e-324, 0.5, 1, 1.0, 1.0 + MASS_TOL])
    def test_bounds_accepted(self, mass):
        # the least positive mass is kept, not dropped as a zero
        assert mass_error(1, mass) is None
        assert dn.build_dnumber(exclusive("ab"), [(1, mass)]).total_mass == mass
        assert dn.DNumber(exclusive("ab"), {1: mass}).total_mass == mass

    def test_empty_set_first(self):
        assert mass_error(0, "0.5") == "mass on empty set: D(∅) must be 0"
        for make in (lambda: dn.DNumber(exclusive("ab"), {0: 0.5}),
                     lambda: dn.build_dnumber(exclusive("ab"), [(0, 0.5)])):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == mass_error(0, 0.5)

    def test_valid_duplicates_merged_bad_entry_not_hidden(self):
        f = exclusive("ab")
        assert dn.build_dnumber(f, [(1, 0.25), (1, 0.5)]).masses == {1: 0.75}
        with pytest.raises(ValueError) as err:
            dn.build_dnumber(f, [(1, -0.1), (1, 0.3)])
        assert str(err.value) == mass_error(1, -0.1)


class TestDNumberInvariants:
    """Built directly, a ``DNumber`` holds to the same rules as ``build_dnumber``
    and works out ``completed`` and ``total_mass`` from its masses."""

    @pytest.mark.parametrize("masses,needle", [
        ({1: -3.0, 2: 0.5}, "negative"),
        ({1: math.nan}, "no greater than 1"),
        ({1: math.inf}, "no greater than 1"),
        ({1: True}, "no greater than 1"),
        ({1: "0.5"}, "no greater than 1"),
        ({8: 0.5}, "inside the frame"),
        ({-1: 0.5}, "inside the frame"),
        ({True: 0.5}, "inside the frame"),
        ({1.0: 0.5}, "inside the frame"),
        ({0: 0.5}, "empty set"),
        ({1: 0.7, 2: 0.7}, "exceeds 1"),
    ])
    def test_rejected(self, masses, needle):
        with pytest.raises(ValueError, match=needle):
            dn.DNumber(exclusive("ab"), masses)

    @pytest.mark.parametrize("field", ["completed", "total_mass"])
    def test_derived_fields_not_arguments(self, field):
        f = exclusive("ab")
        with pytest.raises(TypeError):
            dn.DNumber(f, {f.theta_mask: 1.0}, **{field: True})

    def test_replace_recomputes_derived_fields(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert d.completed and d.total_mass == 1.0
        raw = d.replace(masses={1: 0.25})
        assert raw.completed is False
        assert raw.total_mass == 0.25
        with pytest.raises(ValueError, match="completed"):
            dn.bel(raw, 1)

    def test_derived_values_kept(self):
        # replace: test_replace_recomputes_derived_fields
        d = dn.DNumber(exclusive("ab"), {1: 0.25, 2: 0.5})
        assert list(d.__match_args__) == ["frame", "masses"]
        for name in ["completed", "total_mass"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(d, name, getattr(d, name))
            assert name not in repr(d)
        copied = pickle.loads(pickle.dumps(d))
        assert (copied.completed, copied.total_mass) == (d.completed, d.total_mass) == (
            False, 0.75)

    def test_masses_stored_as_floats(self):
        class Mass(float):
            pass

        f = exclusive("ab")
        d = dn.DNumber(f, {f.subset("a"): 1, f.subset("b"): Mass(0.0), f.x_mask: 0})
        assert [type(v) for v in d.masses.values()] == [float]
        d = dn.DNumber(f, {f.subset("a"): Mass(0.25), f.subset("b"): 0.75})
        assert [type(v) for v in d.masses.values()] == [float, float]
        assert '"mass": 1.0\n' in dn.serialize_document(dn.DNumber(f, {f.subset("a"): 1}))

    def test_direct_table_is_canonical(self):
        f = exclusive("ab")
        d = dn.DNumber(f, {f.x_mask: 0.5, f.subset("b"): 0.0, f.subset("a"): 0.5})
        assert list(d.masses.items()) == [(f.subset("a"), 0.5), (f.x_mask, 0.5)]
        assert d.completed
        assert d == dn.build_dnumber(f, [(f.subset("a"), 0.5), (f.x_mask, 0.5)])


class TestReadOnlyTables:
    def test_degrees_read_only(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        with pytest.raises(TypeError):
            f.degrees[(0, 1)] = 1.0
        assert f.degrees[(0, 1)] == 0.3

    def test_adjacency_read_only(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        with pytest.raises(TypeError):
            f.adjacency[0][1] = 1.0
        with pytest.raises(TypeError):
            f.adjacency[0][f.size] = 1.0
        with pytest.raises(TypeError):
            f.adjacency[0] = {f.size: 1.0}
        assert f.nonexclusivity(f.subset("a"), f.subset("b")) == 0.3
        assert f.nonexclusivity(f.subset("a"), f.x_mask) == 0.0

    def test_adjacency_outside_equality_and_repr(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        assert f == dn.Frame(("a", "b"), 2, {(0, 1): 0.3})
        assert "adjacency" not in repr(f)

    def test_adjacency_built_on_first_read(self):
        # validate, gen and serialization never read the rows
        d = oracle.generate_raw(oracle.GeneratorConfig(frame_size=5, seed=3))
        frame, text = d.frame, dn.serialize_document(d)
        parsed, _ = dn.parse_document(text)
        assert not hasattr(frame, "_adjacency") and not hasattr(parsed, "_adjacency")
        shown = repr(parsed)
        rows = parsed.adjacency
        assert parsed.adjacency is rows and parsed._adjacency is rows
        assert rows == dn.Frame(parsed.elements, parsed.unknown_cardinality,
                                parsed.degrees).adjacency
        assert parsed == frame and repr(parsed) == shown
        assert "adjacency" not in parsed.__match_args__
        other = parsed.replace(degrees={(0, 1): 0.5})
        assert not hasattr(other, "_adjacency")
        assert other.adjacency == ({1: 0.5}, {0: 0.5}, {}, {}, {}, {})
        with pytest.raises(AttributeError, match="cannot assign to field 'adjacency'"):
            parsed.adjacency = ()
        with pytest.raises(AttributeError, match="cannot delete field 'adjacency'"):
            del parsed.adjacency
        with pytest.raises(AttributeError, match="cannot delete field 'adjacency'"):
            del frame.adjacency
        assert parsed.adjacency is rows

    def test_masses_read_only(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.5)]))
        with pytest.raises(TypeError):
            d.masses[f.subset("b")] = 0.5
        assert dn.pl(d, f.subset("b")) == 0.0

    def test_frame_copies_its_table(self):
        table = {(0, 1): 0.3}
        f = dn.Frame(("a", "b"), 2, table)
        table[(0, 1)] = 1.0
        assert f.degrees[(0, 1)] == 0.3


def one_value_of_each_type():
    f = dn.Frame(("a", "b"), 2, {(0, 1): 0.5})
    return [f, dn.DNumber(f, {1: 0.25, 3: 0.75}), dn.BeliefInterval(0.25, 0.5),
            dn.TotalUncertainty(1.5, 0.25, 0.5),
            oracle.GeneratorConfig(2, 2, "complete", "exclusive", 5)]


class TestValueTypes:
    def test_equal_values_hash_equal_in_any_table_order(self):
        f = dn.Frame(("a", "b", "c"), None, {(0, 1): 0.3, (1, 3): 0.5})
        g = dn.Frame(("a", "b", "c"), None, {(1, 3): 0.5, (0, 2): 0.0, (0, 1): 0.3})
        assert list(f.degrees) != list(g.degrees)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        d, e = dn.DNumber(f, {1: 0.25, 6: 0.75}), dn.DNumber(g, {6: 0.75, 1: 0.25})
        assert d == e and hash(d) == hash(e) and len({d, e}) == 1
        assert {d: 1}[e] == 1

    @pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)),
                                            copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_round_trips_give_equal_values(self, round_trip):
        d = oracle.generate(oracle.GeneratorConfig(frame_size=4, focal_count=6, seed=3))
        pl = d.singleton_pl  # built first: the copy builds its own
        copied = round_trip(d)
        assert copied == d and hash(copied) == hash(d)
        assert ([(m, v.hex()) for m, v in copied.masses.items()]
                == [(m, v.hex()) for m, v in d.masses.items()])
        assert ([(key, p.hex()) for key, p in copied.frame.degrees.items()]
                == [(key, p.hex()) for key, p in d.frame.degrees.items()])
        assert not hasattr(copied, "_singleton_pl") and not hasattr(copied.frame, "_adjacency")
        assert copied.singleton_pl == pl
        for value in one_value_of_each_type():
            copied = round_trip(value)
            assert copied == value and hash(copied) == hash(value) and copied is not value

    def test_replace_still_validates(self):
        f = dn.Frame(("a", "b"), 2, {(0, 1): 0.3})
        with pytest.raises(ValueError, match="degree 2.0"):
            f.replace(degrees={(0, 1): 2.0})

    def test_fields_are_match_args(self):
        f, d, interval, tu, config = one_value_of_each_type()
        assert f.__match_args__ == ("elements", "unknown_cardinality", "degrees")
        assert d.__match_args__ == ("frame", "masses")
        assert interval.__match_args__ == ("lower", "upper")
        assert tu.__match_args__ == ("ku", "uu_coefficient", "uu_evaluated")
        assert config.__match_args__ == ("frame_size", "focal_count", "completeness",
                                         "exclusivity", "seed")
        match interval, tu:
            case dn.BeliefInterval(lo, hi), dn.TotalUncertainty(known, coeff, value):
                assert (lo, hi, known, coeff, value) == (0.25, 0.5, 1.5, 0.25, 0.5)
            case _:
                pytest.fail("positional patterns did not match")

    def test_match_args_are_the_constructor_parameters(self):
        # the generic __reduce__ passes the fields by position, replace by keyword
        types = {type(value) for value in one_value_of_each_type()}
        assert types == set(dn.core._Value.__subclasses__())
        for cls in types:
            names = tuple(inspect.signature(cls).parameters)
            assert cls.__match_args__ == names, cls

    def test_replace_rebuilds_through_the_constructor(self):
        values = one_value_of_each_type()
        f, d, interval, tu, config = values
        for value in values:
            assert value.replace() == value and value.replace() is not value
        assert interval.replace(upper=0.75) == dn.BeliefInterval(0.25, 0.75)
        assert tu.replace(uu_evaluated=None) == dn.TotalUncertainty(1.5, 0.25)
        with pytest.raises(ValueError, match=r"malformed belief interval \[0.75, 0.5\]"):
            interval.replace(lower=0.75)
        with pytest.raises(ValueError, match="total mass 1.5 exceeds 1"):
            d.replace(masses={1: 0.75, 2: 0.75})
        with pytest.raises(TypeError):
            f.replace(size=3)
        with pytest.raises(ValueError, match="seed must be an int, got None"):
            config.replace(seed=None)

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
    def test_copy_replace(self):
        f, d, interval, tu, config = one_value_of_each_type()
        assert copy.replace(interval, upper=0.75) == dn.BeliefInterval(0.25, 0.75)
        assert copy.replace(d, masses={1: 1.0}) == dn.DNumber(f, {1: 1.0})
        with pytest.raises(ValueError, match="degree 2.0"):
            copy.replace(f, degrees={(0, 1): 2.0})

    def test_fields_and_derived_values_cannot_be_set_or_deleted(self):
        f, d, interval, tu, config = one_value_of_each_type()
        derived = {f: ["size", "index", "full_mask", "adjacency"],
                   d: ["total_mass", "completed", "singleton_pl"],
                   interval: [], tu: [], config: []}
        for value, names in derived.items():
            for name in [*value.__match_args__, *names, "unset"]:
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(value, name, None)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                    delattr(value, name)
        assert (interval.lower, tu.ku, f.size) == (0.25, 1.5, 2)

    def test_no_instance_dict_to_write_through(self):
        # a write into the instance dict used to get past __setattr__
        values = {type(value): value for value in one_value_of_each_type()}
        f, d = values[dn.Frame], values[dn.DNumber]
        rows, pl = f.adjacency, d.singleton_pl  # the private slots are filled
        for cls in dn.core._Value.__subclasses__():
            value = values[cls]
            with pytest.raises(TypeError):
                vars(value)
            with pytest.raises(AttributeError):
                value.__dict__  # noqa: B018
            for name in ("_adjacency", "_singleton_pl"):
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(value, name, None)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                    delattr(value, name)
        assert f.adjacency is rows and d.singleton_pl is pl
        held = {f}
        with pytest.raises(AttributeError):
            f.__dict__["unknown_cardinality"] = 7
        with pytest.raises(AttributeError):
            d.__dict__["masses"] = MappingProxyType({1: 1.0})
        assert f in held and f.unknown_cardinality == 2
        assert d.masses == {1: 0.25, 3: 0.75}

    def test_not_equal_to_its_field_tuple(self):
        assert (dn.BeliefInterval(0.0, 1.0) == (0.0, 1.0)) is False
        assert dn.BeliefInterval(0.0, 1.0) != (0.0, 1.0)
        assert dn.TotalUncertainty(0.0, 1.0) != dn.BeliefInterval(0.0, 1.0)

    def test_repr_names_each_field(self):
        assert [repr(value) for value in one_value_of_each_type()] == [
            "Frame(elements=('a', 'b'), unknown_cardinality=2, "
            "degrees=mappingproxy({(0, 1): 0.5}))",
            "DNumber(frame=Frame(elements=('a', 'b'), unknown_cardinality=2, "
            "degrees=mappingproxy({(0, 1): 0.5})), masses=mappingproxy({1: 0.25, 3: 0.75}))",
            "BeliefInterval(lower=0.25, upper=0.5)",
            "TotalUncertainty(ku=1.5, uu_coefficient=0.25, uu_evaluated=0.5)",
            "GeneratorConfig(frame_size=2, focal_count=2, completeness='complete', "
            "exclusivity='exclusive', seed=5)",
        ]
        assert repr(dn.TotalUncertainty(1.5, 0.25)) == (
            "TotalUncertainty(ku=1.5, uu_coefficient=0.25, uu_evaluated=None)")


class TestComplete:
    @pytest.mark.parametrize("total", [1.0, 1.0000000005, 1.000000001])
    def test_total_up_to_tolerance_above_one_is_complete(self, total):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.subset("a"), total)])
        assert d.completed
        assert dn.complete(d) is d
        assert dn.belief_interval(d, f.subset("a")).upper == total

    def test_residual_goes_to_x(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))
        assert d.masses == {f.subset("a"): 0.6, f.x_mask: pytest.approx(0.4)}

    def test_builds_its_dnumber_directly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("complete went through build_dnumber")

        f = exclusive("ab")
        masses = {f.subset("a"): 0.1, f.subset("b"): 0.2, f.x_mask: 0.3}
        d = dn.DNumber(f, masses)
        monkeypatch.setattr(dn.core, "build_dnumber", refuse)
        done = dn.complete(d)
        assert done.completed and len(done.masses) == 3
        assert done.masses[f.subset("a")] == 0.1 and done.masses[f.subset("b")] == 0.2
        assert done.masses[f.x_mask].hex() == (0.3 + (1.0 - d.total_mass)).hex()

    def test_complete_input_unchanged(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert dn.complete(d) is d

    def test_residual_with_composite_focal_sets(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(
            f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5)]))
        assert d.masses[f.x_mask] == pytest.approx(0.2)
        assert d.total_mass == pytest.approx(1.0)

    @given(raw_dnumbers())
    def test_idempotent(self, d):
        once = dn.complete(d)
        assert dn.complete(once) == once


class TestBelPl:
    def test_bel_vacuous(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert dn.bel(d, f.subset("a")) == 0.0

    def test_bel_sums_contained_masses(self):
        f = exclusive("abc")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5),
                                 (f.theta_mask, 0.2)])
        assert dn.bel(d, f.subset("ab")) == pytest.approx(0.8)

    def test_bel_requires_completed(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.6)])
        with pytest.raises(ValueError, match="completed"):
            dn.bel(d, f.subset("a"))
        with pytest.raises(ValueError, match="completed"):
            dn.pl(d, f.subset("a"))

    def test_pl_exclusive(self):
        f = exclusive("abc")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5),
                                 (f.theta_mask, 0.2)])
        assert dn.pl(d, f.subset("c")) == pytest.approx(0.2)

    def test_pl_with_nonexclusive_degree(self):
        f = dn.build_frame("abc", 2, [(("b", "c"), 0.4)])
        d = dn.build_dnumber(f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5),
                                 (f.theta_mask, 0.2)])
        assert dn.pl(d, f.subset("c")) == pytest.approx(0.3 * 0 + 0.5 * 0.4 + 0.2)

    def test_pl_of_x_is_residual_mass(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))
        assert dn.pl(d, f.x_mask) == pytest.approx(0.4)

    def test_empty_set_conventions(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert dn.bel(d, 0) == 0.0
        assert dn.pl(d, 0) == 0.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(raw_dnumbers(), st.booleans())
    def test_bel_of_one_bit_is_the_contained_sum(self, d, completed):
        # the one-bit branch against the sum that every other subset takes
        if completed:
            d = dn.complete(d)
        for i in range(d.frame.size + 1):  # X too
            a = 1 << i
            if not d.completed:
                with pytest.raises(ValueError, match="completed"):
                    dn.bel(d, a)
                continue
            expected = math.fsum(v for m, v in d.masses.items() if m & ~a == 0)
            assert type(dn.bel(d, a)) is float and dn.bel(d, a) == expected

    def test_bel_of_one_bit_is_a_float(self):
        f = exclusive("ab")
        d = dn.DNumber(f, {f.subset("a"): 1})
        assert repr(dn.bel(d, f.subset("a"))) == repr(math.fsum([1])) == "1.0"

    @pytest.mark.parametrize("mask", [1 << 4, (1 << 70) | 1, -1])
    @pytest.mark.parametrize("measure", [dn.bel, dn.pl])
    def test_mask_outside_frame_rejected(self, measure, mask):
        f = exclusive("abc")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.5)]))
        with pytest.raises(ValueError, match="not inside the frame"):
            measure(d, mask)


def _reference_bel(d, a):
    """``core.bel`` with its sum fed by a generator."""
    if a & (a - 1) == 0:
        return float(d.masses.get(a, 0.0))
    return math.fsum(v for m, v in d.masses.items() if m & ~a == 0)


def _reference_pl(d, a):
    """``core.pl`` with every focal set through ``Frame.nonexclusivity``,
    its sum fed by a generator."""
    if a & (a - 1) == 0:
        return d.singleton_pl[a.bit_length() - 1] if a else 0.0
    frame = d.frame
    return math.fsum(frame.nonexclusivity(m, a) * v for m, v in d.masses.items())


def _reference_oracle(d, a):
    """``oracle.oracle_bel_pl``'s two sums, fed by generators."""
    masses, subsets, b = d.masses, [], a
    while b:
        subsets.append(masses.get(b, 0.0))
        b = (b - 1) & a
    frame = d.frame
    upper = math.fsum(mass if b & a else literal_nonexclusivity(frame, b, a) * mass
                      for b, mass in masses.items())
    return math.fsum(subsets), upper


class TestGeneralSubsets:
    """Bel and Pl of every subset, on the routes ``check`` runs, equal the
    generator-fed, all-``nonexclusivity`` expressions bit for bit."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.sampled_from(["complete", "incomplete"]),
           st.sampled_from(["exclusive", "random-degrees"]), st.integers(0, 2 ** 32),
           st.data())
    def test_bit_identical_to_generator_fed_sums(self, n, completeness,
                                                 exclusivity, seed, data):
        focal = data.draw(st.integers(1, min(8, 2 ** n - 1)))
        d = oracle.generate(oracle.GeneratorConfig(
            frame_size=n, focal_count=focal, completeness=completeness,
            exclusivity=exclusivity, seed=seed))
        for a in range(d.frame.full_mask + 1):
            slow = oracle.oracle_bel_pl(d, a)
            lower, upper = _reference_oracle(d, a) if a else (0.0, 0.0)
            assert dn.bel(d, a).hex() == _reference_bel(d, a).hex()
            assert dn.pl(d, a).hex() == _reference_pl(d, a).hex()
            assert (slow.lower.hex(), slow.upper.hex()) == (lower.hex(), upper.hex())


class TestSingletonPl:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.sampled_from([0.05, 0.5, 1.0]),
           st.integers(0, 2 ** 32), st.booleans())
    def test_equals_nonexclusivity_sum(self, n, density, seed, completed):
        # the route pl takes for every other subset; fsum makes both exact
        rng = random.Random(seed)
        f = dn.Frame(tuple(f"e{i}" for i in range(n)), None, {
            (i, j): min(rng.random() * 1.1, 1.0) or 1.0  # 1 in 11 exactly 1
            for i in range(n + 1) for j in range(i + 1, n + 1)  # X pairs too
            if rng.random() < density})
        # focal sets of any width, X among their members too
        focal = {sum(1 << i for i in rng.sample(range(n + 1), rng.randint(1, n + 1)))
                 for _ in range(rng.randint(1, 2 * n))}
        weights = [rng.random() + 1e-3 for _ in focal]
        total = rng.uniform(0.05, 1.0) / sum(weights)
        d = dn.build_dnumber(f, [(m, w * total) for m, w in zip(focal, weights)])
        if completed:
            d = dn.complete(d)
        assert len(d.singleton_pl) == n + 1
        for i in range(n + 1):
            assert d.singleton_pl[i] == math.fsum(
                f.nonexclusivity(m, 1 << i) * v for m, v in d.masses.items())

    def test_pl_of_one_bit_reads_the_table(self, monkeypatch):
        f = dn.build_frame("ab", 2, [(("a", "X"), 0.25)])
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.5)]))
        assert d.singleton_pl == (0.625, 0.0, 0.625)
        monkeypatch.setattr(dn.Frame, "nonexclusivity", None)
        assert [dn.pl(d, 1 << i) for i in range(3)] == list(d.singleton_pl)
        with pytest.raises(TypeError):
            dn.pl(d, f.subset("ab"))

    def test_derived_once_and_outside_equality_repr_and_replace(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.5)])
        d = dn.build_dnumber(f, [(f.subset("a"), 1.0)])
        fresh = dn.build_dnumber(f, [(f.subset("a"), 1.0)])
        assert d.singleton_pl is d.singleton_pl
        assert "singleton_pl" not in d.__match_args__
        assert d == fresh and repr(d) == repr(fresh)
        assert "singleton_pl" not in repr(d)
        with pytest.raises(AttributeError, match="cannot assign to field 'singleton_pl'"):
            d.singleton_pl = (0.0, 0.0, 0.0)
        assert d.replace(masses={f.subset("b"): 1.0}).singleton_pl == (
            0.5, 1.0, 0.0)


class TestLabelsOf:
    def test_frame_order_x_last(self):
        f = exclusive("abc")
        assert f.labels_of(0) == ()
        assert f.labels_of(0b1101) == ("a", "c", "X")
        assert f.labels_of(f.full_mask) == ("a", "b", "c", "X")

    def test_wide_frame_in_one_pass(self):
        f = exclusive([f"e{i}" for i in range(20_000)])
        labels = (*f.elements, "X")
        rng = random.Random(1)
        for mask in (f.full_mask, f.x_mask | 1, rng.getrandbits(20_001),
                     sum(1 << i for i in rng.sample(range(20_001), 50))):
            assert f.labels_of(mask) == tuple(
                [label for i, label in enumerate(labels) if mask >> i & 1])

    @pytest.mark.parametrize("mask", [-1, 0b110000, 1 << 10, (1 << 70) | 1])
    def test_mask_outside_frame_rejected(self, mask):
        with pytest.raises(ValueError) as err:
            exclusive("abc").labels_of(mask)
        assert str(err.value) == f"subset mask {mask!r} is not inside the frame"


class TestBeliefInterval:
    def test_total_ignorance(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        iv = dn.belief_interval(d, f.subset("a"))
        assert (iv.lower, iv.upper) == (0.0, 1.0)

    def test_certainty(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.subset("a"), 1.0)])
        iv = dn.belief_interval(d, f.subset("a"))
        assert (iv.lower, iv.upper) == (1.0, 1.0)

    def test_nonexclusive_upper(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        d = dn.build_dnumber(f, [(f.subset("a"), 1.0)])
        iv = dn.belief_interval(d, f.subset("b"))
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(0.3)

    def test_malformed_interval_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            dn.BeliefInterval(0.8, 0.2)

    # each tolerance edge is accepted, and one float step past it is not
    @pytest.mark.parametrize("edge, past", [
        ((-MASS_TOL, 0.0), (math.nextafter(-MASS_TOL, -math.inf), 0.0)),
        ((0.5 + MASS_TOL, 0.5), (math.nextafter(0.5 + MASS_TOL, math.inf), 0.5)),
        ((0.0, 1.0 + MASS_TOL), (0.0, math.nextafter(1.0 + MASS_TOL, math.inf)))],
        ids=["lower-below-zero", "lower-above-upper", "upper-above-one"])
    def test_tolerance_edges(self, edge, past):
        dn.BeliefInterval(*edge)
        with pytest.raises(ValueError, match="malformed"):
            dn.BeliefInterval(*past)


class TestIsBpa:
    """``dst.mass_function`` takes a classical BPA and rejects anything else."""

    def test_vacuous_exclusive(self):
        f = exclusive("ab")
        masses = dst.mass_function(dn.build_dnumber(f, [(f.theta_mask, 1.0)]))
        assert masses == {frozenset("ab"): 1.0}

    def test_mass_on_x(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))
        with pytest.raises(ValueError, match="not a classical BPA"):
            dst.mass_function(d)

    def test_nonexclusive_frame(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        with pytest.raises(ValueError, match="not a classical BPA"):
            dst.mass_function(dn.build_dnumber(f, [(f.subset("a"), 1.0)]))

    def test_incomplete(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="not a classical BPA"):
            dst.mass_function(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))


class TestProperties:
    @given(completed_dnumbers())
    def test_nonexclusivity_symmetric(self, d):
        f = d.frame
        for a in range(1, f.full_mask + 1):
            for b in range(1, f.full_mask + 1):
                assert f.nonexclusivity(a, b) == f.nonexclusivity(b, a)

    @given(completed_dnumbers())
    def test_containment_forces_unity(self, d):
        f = d.frame
        for a in range(1, f.full_mask + 1):
            for b in range(1, f.full_mask + 1):
                if b & ~a == 0:
                    assert f.nonexclusivity(b, a) == 1.0

    @given(completed_dnumbers())
    def test_bel_le_pl(self, d):
        for a in range(1, d.frame.full_mask + 1):
            assert dn.bel(d, a) <= dn.pl(d, a) + dn.MASS_TOL

    @given(completed_dnumbers(max_size=3))
    def test_monotone_in_subset(self, d):
        full = d.frame.full_mask
        for a in range(1, full + 1):
            for c in range(1, full + 1):
                if a & ~c == 0:
                    assert dn.bel(d, a) <= dn.bel(d, c) + dn.MASS_TOL
                    assert dn.pl(d, a) <= dn.pl(d, c) + dn.MASS_TOL

    @given(completed_dnumbers())
    def test_normalization(self, d):
        full = d.frame.full_mask
        assert dn.bel(d, full) == pytest.approx(1.0, abs=dn.MASS_TOL)
        assert dn.pl(d, full) == pytest.approx(1.0, abs=dn.MASS_TOL)

    @given(completed_dnumbers())
    def test_masses_canonically_ordered(self, d):
        masks = list(d.masses)
        assert masks == sorted(masks)
        assert all(v > 0 for v in d.masses.values())
        assert math.isclose(d.total_mass, 1.0, abs_tol=dn.MASS_TOL)
