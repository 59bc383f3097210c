import codecs
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.epinions import (
    RATINGS_SCHEMA,
    IngestError,
    ingest_epinions,
)

TOY = "u1,i1,5\nu2,i1,4\nu1,i2,1\n"


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text(TOY)
    return path


def test_toy_file_ground_truths(toy_file):
    data = ingest_epinions(toy_file)
    assert data.item_truth["i1"] == 1.0
    assert data.item_truth["i2"] == 0.0


def test_toy_file_stats_line(toy_file):
    data = ingest_epinions(toy_file)
    assert data.stats.report() == "2 users, 2 items, 3 reviews, 0 skipped"


def test_labels_follow_own_rating(toy_file):
    data = ingest_epinions(toy_file)
    assert data.datasets["u1"].labels.tolist() == [1, 0]
    assert data.datasets["u2"].labels.tolist() == [1]


def test_features_come_from_other_raters(toy_file):
    data = ingest_epinions(toy_file)
    assert data.datasets["u1"].schema == RATINGS_SCHEMA
    # u1 on i1: the only other rater is u2 with a 4
    mean_others, count, variance = data.datasets["u1"].values[0].tolist()
    assert (mean_others, count, variance) == (4.0, 1.0, 0.0)
    # u1 on i2: no other raters, mean imputed with the global mean
    mean_others, count, variance = data.datasets["u1"].values[1].tolist()
    assert mean_others == pytest.approx((5 + 4 + 1) / 3)
    assert (count, variance) == (0.0, 0.0)


def test_item_features_use_all_raters(toy_file):
    data = ingest_epinions(toy_file)
    mean_all, count, variance = data.item_features["i1"]
    assert mean_all == 4.5
    assert count == 2.0
    assert variance == 0.25


def test_whitespace_separated_lines(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("u1 i1 5\nu2 i1 4\n")
    data = ingest_epinions(path)
    assert data.stats.reviews == 2


def test_out_of_range_rating_is_skipped(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text(TOY * 4 + "u1,i1,7\n")
    data = ingest_epinions(path)
    assert data.stats.skipped == 1
    assert data.stats.reviews == 12


def test_malformed_line_is_skipped(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text(TOY * 4 + "not a rating\n")
    data = ingest_epinions(path)
    assert data.stats.skipped == 1


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("")
    with pytest.raises(IngestError):
        ingest_epinions(path)


def test_unreadable_file_rejected(tmp_path):
    with pytest.raises(IngestError):
        ingest_epinions(tmp_path / "missing.txt")


#: Five lines as ``str.splitlines`` reads them, none a rating: a signed
#: rating, one with an underscore, fields split by U+3000 and two ratings
#: joined by U+0085 (NEL).
PROBE = "u1 i1 +4\nu2 i1 0_5\nu3\u3000i1\u30005\nu4 i1 3\u0085u5 i1 2\n"


def test_probe_file_has_no_rating(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text(PROBE, encoding="utf-8")
    with pytest.raises(IngestError, match="no usable ratings"):
        ingest_epinions(path)
    # among 36 valid lines its four lines are skipped, and they name nobody
    path.write_text(TOY * 12 + PROBE, encoding="utf-8")
    assert ingest_epinions(path).stats.report() == "2 users, 2 items, 36 reviews, 4 skipped"


def test_excessive_skip_ratio_aborts(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("u1,i1,5\nbroken\nbroken\nbroken\n")
    with pytest.raises(IngestError):
        ingest_epinions(path)


# ---------------------------------------------------------------------------
# leave-user-out features against a brute-force oracle in exact arithmetic
# ---------------------------------------------------------------------------


@st.composite
def ratings_with_a_double(draw):
    """(user, item, rating) rows over a few users and items, one (user, item)
    pair rated twice, in any order."""
    rating = st.integers(min_value=1, max_value=5)
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.sampled_from("wxyz"), rating),
            min_size=1,
            max_size=25,
        )
    )
    user, item, _ = draw(st.sampled_from(rows))
    position = draw(st.integers(min_value=0, max_value=len(rows)))
    rows.insert(position, (user, item, draw(rating)))
    return rows


def exact_moments(values):
    """Mean and population variance as exact fractions."""
    mean = Fraction(sum(values), len(values))
    return mean, sum((Fraction(v) - mean) ** 2 for v in values) / len(values)


def oracle_features(rows):
    """Per user, in file order: the features and label of each rating, with
    every rating of the same user on that item left out of the features."""
    global_mean = Fraction(sum(r for _, _, r in rows), len(rows))
    per_user = {}
    for user, item, rating in rows:
        others = [r for u, i, r in rows if i == item and u != user]
        if others:
            mean, variance = exact_moments(others)
            features = (mean, len(others), variance)
        else:
            features = (global_mean, 0, 0)
        label = int(rating >= 4)  # 1: trustworthy
        per_user.setdefault(user, []).append((features, label))
    return per_user


def assert_features_match(got, want):
    mean, count, variance = got
    # integer ratings: the mean is one correctly rounded division
    assert mean == float(want[0])
    assert count == float(want[1])
    assert variance == pytest.approx(float(want[2]), rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(ratings_with_a_double())
def test_features_leave_every_rating_of_the_user_out(rows):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "ratings.txt"
        path.write_text("".join(f"{u},{i},{r}\n" for u, i, r in rows))
        data = ingest_epinions(path)
    want = oracle_features(rows)
    assert set(data.datasets) == set(want)
    for user, records in want.items():
        got = data.datasets[user]
        assert len(got) == len(records)
        assert got.labels.tolist() == [label for _, label in records]
        for row, (features, _) in zip(got.values.tolist(), records):
            assert_features_match(row, features)
    for item in {i for _, i, _ in rows}:
        ratings = [r for _, i, r in rows if i == item]
        mean, variance = exact_moments(ratings)
        # item features count every rating, both of a double included
        assert_features_match(data.item_features[item], (mean, len(ratings), variance))
        assert data.item_truth[item] == sum(r >= 4 for r in ratings) / len(ratings)


def test_a_double_rating_is_left_out_whole(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("a,x,5\nb,x,2\na,x,1\n")
    data = ingest_epinions(path)
    # both of a's ratings of x see only b's 2
    assert data.datasets["a"].values.tolist() == [[2.0, 1.0, 0.0], [2.0, 1.0, 0.0]]
    assert data.datasets["a"].labels.tolist() == [1, 0]
    # b sees both of a's ratings
    assert data.datasets["b"].values.tolist() == [[3.0, 2.0, 4.0]]
    assert data.item_features["x"] == (8 / 3, 3.0, pytest.approx(26 / 9))


# ---------------------------------------------------------------------------
# the ratings-file contract against a small oracle parser
# ---------------------------------------------------------------------------

USERS = ("u0", "u1", "u2", "\u00fc3")  # few ids, so pairs repeat; one not ASCII
ITEMS = ("i0", "i1", "i2")
PADDING = st.text(alphabet=" \t", max_size=2)
GAP = st.text(alphabet=" \t", min_size=1, max_size=2)
RATINGS = st.sampled_from("12345")
NOT_RATINGS = st.sampled_from(["0", "6", "+4", "0_5", "05", "\uff15", "4.0", "\u0663"])
UNICODE_SPACES = st.sampled_from(["\u3000", "\u00a0", "\u2003"])
LINE_BREAKS_ELSEWHERE = st.sampled_from(
    ["\u0085", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e", "\x0b", "\x0c"]
)


@st.composite
def fields(draw, rating):
    """``user item rating`` separated by commas or by blanks, padded with blanks."""
    user, item = draw(st.sampled_from(USERS)), draw(st.sampled_from(ITEMS))
    if draw(st.booleans()):
        comma = draw(PADDING) + "," + draw(PADDING)
        body = user + comma + item + comma + draw(rating)
    else:
        body = user + draw(GAP) + item + draw(GAP) + draw(rating)
    return draw(PADDING) + body + draw(PADDING)


@st.composite
def kept_line(draw):
    """A rating, a comment or a blank line."""
    kind = draw(st.integers(0, 9))
    if kind < 8:
        return draw(fields(RATINGS))
    if kind == 8:
        return draw(PADDING) + "#" + draw(st.text(alphabet="ab ,5\t", max_size=6))
    return draw(PADDING)


@st.composite
def malformed_line(draw):
    """A line that is not a rating, though it may look like one."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(fields(NOT_RATINGS))
    if kind == 1:  # fields split by the ideographic space
        return "\u3000".join(draw(st.sampled_from(group)) for group in (USERS, ITEMS, "12345"))
    if kind == 2:  # two ratings on one line, split by a separator other than a line end
        return draw(fields(RATINGS)) + draw(LINE_BREAKS_ELSEWHERE) + draw(fields(RATINGS))
    if kind == 3:  # a Unicode space after or before the rating digit
        line, space = draw(fields(RATINGS)).rstrip(" \t"), draw(UNICODE_SPACES)
        return line + space if draw(st.booleans()) else line[:-1] + space + line[-1]
    return draw(st.sampled_from(USERS)) + "," + draw(st.sampled_from(ITEMS))


@st.composite
def ratings_file(draw):
    """(file bytes, the 1-based line holding a byte outside UTF-8, or None)."""
    text_lines = draw(st.lists(kept_line(), max_size=30))
    text_lines += draw(st.lists(malformed_line(), max_size=3))
    text_lines = draw(st.permutations(text_lines)) or [""]
    lines = [line.encode("utf-8") for line in text_lines]
    bad_line = None
    if draw(st.integers(0, 4)) == 0:
        bad_line = draw(st.integers(1, len(lines)))
        lines[bad_line - 1] += draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"]))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    data = end.join(lines) + draw(st.sampled_from([b"", end]))
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    return data, bad_line


COMMA_FIELDS = re.compile(r"[ \t]*([^,]*?)[ \t]*,[ \t]*([^,]*?)[ \t]*,[ \t]*([1-5])[ \t]*")
BLANK_FIELDS = re.compile(r"[ \t]*([^ \t,]+)[ \t]+([^ \t,]+)[ \t]+([1-5])[ \t]*")
SKIPPED_LINE = re.compile(r"[ \t]*(#.*)?", re.DOTALL)


def oracle_parse(text):
    """(user, item) of each rating and the count of malformed lines."""
    rows, skipped = [], 0
    for line in re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff")):
        if SKIPPED_LINE.fullmatch(line):
            continue
        match = (COMMA_FIELDS if "," in line else BLANK_FIELDS).fullmatch(line)
        if match and match[1] and match[2]:
            rows.append((match[1], match[2]))
        else:
            skipped += 1
    return rows, skipped


@settings(max_examples=200, deadline=None)
@given(ratings_file())
def test_ingest_keeps_the_ratings_file_contract(case):
    data, bad_line = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "ratings.txt"
        path.write_bytes(data)
        if bad_line is not None:
            with pytest.raises(IngestError) as failure:
                ingest_epinions(path)
            assert str(failure.value).startswith(f"{path}, line {bad_line}: byte 0x")
            return
        rows, skipped = oracle_parse(data.decode("utf-8"))
        usable = rows and skipped / (len(rows) + skipped) <= 0.1
        if not usable:
            with pytest.raises(IngestError) as failure:
                ingest_epinions(path)
            assert str(failure.value).startswith(f"{path}: ")
            return
        stats = ingest_epinions(path).stats
    users, items = {user for user, _ in rows}, {item for _, item in rows}
    assert (stats.users, stats.items, stats.reviews, stats.skipped) == (
        len(users), len(items), len(rows), skipped
    )
