"""Game-log parsing, serialization, and season indexing."""

import csv
import dataclasses
import datetime
import io
import tracemalloc
import unicodedata
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise.errors import DataWarning, ParseError, ValidationError
from powerwise.ingest import (
    DEFAULT_SEASON_WINDOW,
    GameRecord,
    _csv_rows,
    apply_aliases,
    build_season,
    find_game,
    load_alias_map,
    parse_games,
    serialize_games,
)
from powerwise.synthetic import synthetic_league
import reference

HEADER = "season,date,home,away,home_score,away_score,neutral\n"


def test_parse_single_row():
    games = parse_games(HEADER + "2024,2024-02-10,Yale,Brown,12,8,0\n")
    assert games == [
        GameRecord(
            season=2024,
            date=datetime.date(2024, 2, 10),
            home_team="Yale",
            away_team="Brown",
            home_score=12,
            away_score=8,
            neutral_site=False,
        )
    ]


def test_parse_header_only_is_empty():
    assert parse_games(HEADER) == []


def test_parse_requires_header():
    with pytest.raises(ParseError, match="header"):
        parse_games("2024,2024-02-10,Yale,Brown,12,8,0\n")
    with pytest.raises(ParseError, match="header"):
        parse_games("")


def test_parse_skips_comments_and_blank_lines():
    text = "# a comment\n\n" + HEADER + "# mid-file note\n2024,2024-03-01,A,B,5,3,1\n\n"
    games = parse_games(text)
    assert len(games) == 1
    assert games[0].neutral_site is True


def test_parse_rejects_negative_score():
    with pytest.raises(ParseError) as exc:
        parse_games(HEADER + "2024,2024-02-10,Yale,Brown,-1,8,0\n")
    assert exc.value.line == 2
    assert exc.value.field == "home_score"


def test_parse_rejects_bad_date_neutral_and_width():
    with pytest.raises(ParseError, match="date"):
        parse_games(HEADER + "2024,02/10/2024,Yale,Brown,12,8,0\n")
    with pytest.raises(ParseError, match="neutral"):
        parse_games(HEADER + "2024,2024-02-10,Yale,Brown,12,8,2\n")
    with pytest.raises(ParseError, match="columns"):
        parse_games(HEADER + "2024,2024-02-10,Yale,Brown,12\n")
    with pytest.raises(ParseError, match="both"):
        parse_games(HEADER + "2024,2024-02-10,Yale,Yale,12,8,0\n")
    with pytest.raises(ParseError, match="line 2: new-line character seen in unquoted field"):
        parse_games(HEADER + "2024,2024-02-10,Yale,Br\rown,12,8,0\n")
    # A row is parsed before it is held to the game rules, so of two faults in
    # one row, one in the syntax is the one reported.
    for row, field in (("2024,2024-02-10,,Brown,x,8,0", "home_score"), ("2024,2024-02-10,Yale,Brown,-3,8,2", "neutral")):
        with pytest.raises(ParseError) as exc:
            parse_games(HEADER + row + "\n")
        assert (exc.value.line, exc.value.field) == (2, field)


def test_season_window_enforced_and_disableable():
    row = "2024,2024-08-01,Yale,Brown,12,8,0\n"
    with pytest.raises(ParseError, match="window"):
        parse_games(HEADER + row)
    games = parse_games(HEADER + row, season_window=None)
    assert games[0].date.month == 8


def test_integer_fields_ignore_what_str_strip_strips():
    """int() keeps \\x1c-\\x1f around a number, which str.strip() removes: such a score parses as it always has."""
    (game,) = parse_games(HEADER + "2024,2024-02-10,Yale,Brown,\x1f12\x1c, 8 ,0\t\n")
    assert (game.home_score, game.away_score) == (12, 8)


def _rows_or_error(rows):
    """The (line number, fields) pairs an iterator yields before its first ParseError, and that error's text."""
    got = []
    try:
        for row in rows:
            got.append(row)
    except ParseError as e:
        return got, str(e)
    return got, None


def _reader_rows(source):
    """``_csv_rows`` as one ``csv.reader`` per line: the oracle of its split fast path."""
    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            yield lineno, next(csv.reader([line]))
        except csv.Error as e:
            raise ParseError(str(e), line=lineno) from None


@given(st.lists(st.text(alphabet='ab,"\r\n\x00 \t#\xe9\x85\u2028', max_size=12), max_size=6))
@example(["season,date", 'a,"b,c"', "Br\rown,1"])  # a bare CR in an unquoted field raises at its line
@example(["a,\x00b", ' "a" ,b', "# c", "\t,", "a\nb,c"])
@settings(max_examples=300)
def test_csv_rows_split_like_csv_reader(lines):
    """Each line gives the fields one csv.reader gives it, or the same ParseError at the same line.

    The lines are read as one text and as a list, whose items may hold an LF
    (an error to csv.reader), not only at the end.
    """
    for source in ("\n".join(lines), lines):
        assert _rows_or_error(_csv_rows(source)) == _rows_or_error(_reader_rows(source))


def test_csv_rows_keep_the_field_size_limit():
    limit = csv.field_size_limit(8)
    try:
        with pytest.raises(ParseError, match=r"line 2: field larger than field limit \(8\)"):
            list(_csv_rows("a,b\nabcdefghi,j\n"))
    finally:
        csv.field_size_limit(limit)


def test_tied_score_warns_but_parses():
    with pytest.warns(DataWarning, match="tied"):
        games = parse_games(HEADER + "2024,2024-02-10,Yale,Brown,8,8,0\n")
    assert games[0].home_score == games[0].away_score == 8


@pytest.mark.parametrize("char", ["\r", "\t", "\x00", "\x1f", "\x7f", "\x85"])
@pytest.mark.parametrize("column", ["home", "away"])
def test_parse_rejects_control_characters_in_team_names(column, char):
    teams = {"home": "Yale", "away": "Brown", column: f"A{char}B"}
    with pytest.raises(ParseError, match="control character") as exc:
        parse_games(HEADER + f'2024,2024-02-10,"{teams["home"]}","{teams["away"]}",12,8,0\n')
    assert (exc.value.line, exc.value.field) == (2, column)


def test_alias_map_rejects_control_characters():
    for column, row in (("alias", '"Yale\rU",Yale'), ("canonical", 'Yale U,"Ya\x01le"')):
        with pytest.raises(ParseError, match="control character") as exc:
            load_alias_map(f"alias,canonical\n{row}\n")
        assert (exc.value.line, exc.value.field) == (2, column)


def test_build_season_rejects_exactly_the_control_characters():
    """Every character of Unicode category Cc is refused in a name built in code; other odd characters pass."""
    controls = [chr(c) for c in range(0x110000) if unicodedata.category(chr(c)) == "Cc"]
    assert len(controls) == 65
    for char in controls:
        g = GameRecord(2024, datetime.date(2024, 2, 10), f"A{char}B", "Brown", 3, 1, False)
        with pytest.raises(ValidationError, match="control character"):
            build_season([g], 2024)
    for odd in ("\xa0", "\xad", "\u2028", "\u2029", "\ufeff", "é"):
        g = GameRecord(2024, datetime.date(2024, 2, 10), f"A{odd}B", "Brown", 3, 1, False)
        assert build_season([g], 2024).teams == (f"A{odd}B", "Brown")


# Names that survive a CSV round trip unchanged: already stripped, no LF.
# Rows quote every field, since csv.writer leaves a bare CR unquoted.
raw_names = st.one_of(
    st.sampled_from(["Yale", "Brown"]),
    st.text(st.characters(blacklist_characters="\n"), max_size=4).filter(lambda s: s == s.strip()),
)


@given(
    home=raw_names,
    away=raw_names,
    home_score=st.integers(-3, 12),
    away_score=st.integers(-3, 12),
    neutral=st.booleans(),
)
@settings(max_examples=300)
def test_parser_and_build_season_apply_the_same_rules(home, away, home_score, away_score, neutral):
    """A row fails to parse exactly when its game fails to build, with the same message."""
    game = GameRecord(2024, datetime.date(2024, 2, 10), home, away, home_score, away_score, neutral)
    parse_error = build_error = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        try:
            row = io.StringIO()
            csv.writer(row, lineterminator="\n", quoting=csv.QUOTE_ALL).writerow(
                [2024, "2024-02-10", home, away, home_score, away_score, int(neutral)]
            )
            assert parse_games(HEADER + row.getvalue()) == [game]
        except ParseError as e:
            parse_error = e
        try:
            build_season([game], 2024)
        except ValidationError as e:
            build_error = e
    assert (parse_error is None) == (build_error is None)
    if parse_error is not None:
        assert str(parse_error) == f"line 2, field {parse_error.field!r}: {build_error}"


def test_quoted_team_names_round_trip():
    g = GameRecord(2024, datetime.date(2024, 2, 10), 'St. "Mary, A&M"', "Brown", 3, 1, False)
    assert parse_games(serialize_games([g])) == [g]


@pytest.mark.parametrize(
    "home, home_score, message",
    [("Ya\rle", 3, "control character in team name 'Ya\\rle'"), ("Yale", -3, "must be >= 0, got -3")],
)
def test_serialize_games_rejects_what_parse_games_would(home, home_score, message):
    """A CR in a name would be written unquoted and split the row; a negative score would be written as is."""
    g = GameRecord(2024, datetime.date(2024, 2, 10), home, "Brown", home_score, 1, False)
    with pytest.raises(ValidationError) as written:
        serialize_games([g])
    with pytest.raises(ValidationError) as built:
        build_season([g], 2024)
    assert str(written.value) == str(built.value) == message


team_names = st.sampled_from(["Yale", "Brown", "Penn", "Cornell", "Harvard", "Navy", "Duke"])


@st.composite
def game_records(draw):
    home = draw(team_names)
    away = draw(team_names.filter(lambda t: t != home))
    hs = draw(st.integers(min_value=0, max_value=30))
    return GameRecord(
        season=2024,
        date=datetime.date(2024, 1, 1) + datetime.timedelta(days=draw(st.integers(0, 140))),
        home_team=home,
        away_team=away,
        home_score=hs,
        away_score=draw(st.integers(min_value=0, max_value=30).filter(lambda a: a != hs)),
        neutral_site=draw(st.booleans()),
        game_index=draw(st.integers(min_value=0, max_value=3)),
    )


@given(st.lists(game_records(), max_size=30))
@settings(max_examples=60)
def test_serialize_parse_round_trip(games):
    assert parse_games(serialize_games(games)) == games


@given(st.lists(game_records(), min_size=1, max_size=30, unique=True), st.randoms())
@settings(max_examples=60)
def test_build_season_order_independent(games, rng):
    shuffled = list(games)
    rng.shuffle(shuffled)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        a = build_season(games, 2024)
        b = build_season(shuffled, 2024)
    assert a == b
    assert a.teams == tuple(sorted(a.teams))


def test_build_season_dedups_with_warning():
    g = GameRecord(2024, datetime.date(2024, 2, 10), "Yale", "Brown", 12, 8, False)
    with pytest.warns(DataWarning, match="duplicate"):
        ds = build_season([g, g], 2024)
    assert ds.games == (g,)


def test_build_season_keeps_distinct_game_index_rows():
    g0 = GameRecord(2024, datetime.date(2024, 2, 10), "Yale", "Brown", 12, 8, False, 0)
    g1 = GameRecord(2024, datetime.date(2024, 2, 10), "Yale", "Brown", 12, 8, False, 1)
    ds = build_season([g1, g0], 2024)
    assert ds.games == (g0, g1)


def test_build_season_rejects_empty_and_wrong_season():
    with pytest.raises(ValidationError, match="empty season"):
        build_season([], 2024)
    g = GameRecord(2023, datetime.date(2023, 2, 10), "Yale", "Brown", 12, 8, False)
    with pytest.raises(ValidationError, match="season"):
        build_season([g], 2024)


def test_build_season_rejects_a_self_game_and_an_empty_team_name():
    """Games built in code are held to the parser's rules.

    W keeps a zero diagonal, every winner has a name, a name is one team
    however it is padded, and a margin is a whole number of goals.
    """
    other = GameRecord(2024, datetime.date(2024, 2, 10), "Yale", "Brown", 3, 1, False)
    game = GameRecord(2024, datetime.date(2024, 2, 11), "Yale", "Brown", 3, 1, False)
    for change, message in (
        ({"away_team": "Yale"}, "home and away are both 'Yale'"),
        ({"home_team": ""}, "empty team name"),
        ({"away_team": ""}, "empty team name"),
        ({"home_score": -3}, "must be >= 0, got -3"),
        ({"away_score": 2.5}, "must be an int, got 2.5"),
        ({"home_score": True}, "must be an int, got True"),
        ({"neutral_site": "no"}, "neutral must be a bool, got 'no'"),
        ({"home_team": " Yale"}, "team name ' Yale' has leading or trailing whitespace"),
        ({"away_team": "Yale "}, "team name 'Yale ' has leading or trailing whitespace"),
        ({"home_score": 2**63}, "a season, score or game_index does not fit in 64 bits"),
        ({"game_index": -(2**63) - 1}, "a season, score or game_index does not fit in 64 bits"),
    ):
        with pytest.raises(ValidationError) as exc:
            build_season([other, dataclasses.replace(game, **change)], 2024)
        assert str(exc.value) == message


@pytest.mark.parametrize("game_index", [1.5, "1", True, None])
def test_build_season_rejects_a_game_index_that_is_not_an_int(game_index):
    """Built in code, a game_index of 1.5, "1" or True is not stored as 1, so it cannot make this pair duplicates."""
    first = GameRecord(2024, datetime.date(2024, 2, 10), "Yale", "Brown", 3, 1, False, 1)
    with pytest.raises(ValidationError) as exc:
        build_season([first, dataclasses.replace(first, game_index=game_index)], 2024)
    assert str(exc.value) == f"game_index must be an int, got {game_index!r}"


def test_components_and_opponents():
    text = HEADER + (
        "2024,2024-02-10,A,B,5,3,0\n"
        "2024,2024-02-11,B,C,4,2,0\n"
        "2024,2024-02-12,X,Y,1,0,0\n"
    )
    ds = build_season(parse_games(text), 2024)
    assert ds.components() == (("A", "B", "C"), ("X", "Y"))


def test_schedule_view_is_float32_and_small():
    """W, G and A are float32, equal in value to the game-by-game oracle's W and its sums; the view and its
    three step II products peak below 26 bytes per pair (float64 W, G and A read 44)."""
    ds = synthetic_league(400, seed=1).dataset
    n = len(ds.teams)
    tracemalloc.start()
    try:
        view = ds.schedule
        view.pool, view.pool_games, view.pool_wins
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * n * n
    assert view.wins.base is view.games.base is view.adjacency.base  # one allocation, kept out of malloc's heap
    wins = reference.schedule_arrays(ds.teams, tuple(ds.games))["wins"]
    for got, want in ((view.wins, wins), (view.games, wins + wins.T), (view.adjacency, wins + wins.T > 0)):
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


def test_find_game():
    ds = build_season(parse_games(HEADER + "2024,2024-02-10,Yale,Brown,12,8,0\n"), 2024)
    g = find_game(ds, datetime.date(2024, 2, 10), "Brown", "Yale")
    assert g.home_team == "Yale"
    with pytest.raises(ValidationError, match="no game"):
        find_game(ds, datetime.date(2024, 2, 11), "Brown", "Yale")


def test_find_game_ambiguous():
    text = HEADER + (
        "2024,2024-02-10,Yale,Brown,12,8,0,0\n"
        "2024,2024-02-10,Brown,Yale,6,9,0,1\n"
    )
    ds = build_season(parse_games(text), 2024)
    with pytest.raises(ValidationError, match="game_index"):
        find_game(ds, datetime.date(2024, 2, 10), "Yale", "Brown")


def test_alias_map_and_apply():
    aliases = load_alias_map("alias,canonical\nYale Univ.,Yale\nUPenn,Penn\n")
    assert aliases == {"Yale Univ.": "Yale", "UPenn": "Penn"}
    g = GameRecord(2024, datetime.date(2024, 2, 10), "Yale Univ.", "Brown", 12, 8, False)
    (mapped,) = apply_aliases([g], aliases)
    assert mapped.home_team == "Yale"
    assert mapped.away_team == "Brown"


def test_alias_map_conflicts():
    with pytest.raises(ParseError, match="maps to both"):
        load_alias_map("alias,canonical\nX,A\nX,B\n")
    aliases = {"Brown": "Yale"}
    g = GameRecord(2024, datetime.date(2024, 2, 10), "Yale", "Brown", 12, 8, False)
    with pytest.raises(ValidationError, match="collapses"):
        apply_aliases([g], aliases)


@pytest.mark.parametrize("text", ["20240210", "2024-W06-6", "2024-041", " 20240210 ", "２０２４-02-10", "2024-02-10T00"])
def test_only_yyyy_mm_dd_dates_parse(text):
    """The compact and week forms that date.fromisoformat takes from Python 3.11 are refused on every Python."""
    with pytest.raises(ParseError) as exc:
        parse_games(HEADER + "2024,2024-02-09,Yale,Brown,3,1,0\n" + f"2024,{text},Yale,Brown,3,1,0\n")
    assert (exc.value.line, exc.value.field) == (3, "date")
    assert str(exc.value) == f"line 3, field 'date': not an ISO-8601 date: {text!r}"
    (game,) = parse_games(HEADER + "2024, 2024-02-10 ,Yale,Brown,3,1,0\n")
    assert game.date == datetime.date(2024, 2, 10)


@pytest.mark.parametrize(
    "field, value, fits",
    [("season", "10000000000000000000", "9999"), ("home_score", "9223372036854775808", "9223372036854775807"),
     ("game_index", "-9223372036854775809", "-9223372036854775808")],
)
def test_integers_past_64_bits_fail_at_their_line(field, value, fits):
    """A GameLog column holds int64, so a larger number is refused at its line, where it once crashed the solve."""
    header = "season,date,home,away,home_score,away_score,neutral,game_index\n"
    row = {"season": "2024", "date": "2024-02-10", "home": "Yale", "away": "Brown", "home_score": "3"}
    row |= {"away_score": "1", "neutral": "0", "game_index": "0"}
    for number, error in ((value, f"line 2, field {field!r}: not a 64-bit integer: {value!r}"), (fits, None)):
        text = header + ",".join({**row, field: number}.values()) + "\n"
        if error:
            with pytest.raises(ParseError, match=error.replace("'", ".")):
                parse_games(text, season_window=None)
        else:
            assert len(parse_games(text, season_window=None)) == 1


def _outcome(call):
    """(result, error, warnings) of ``call()``: the error as (type, text, line, field), each warning as its text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = call(), None
        except (ParseError, ValidationError) as e:
            result, error = None, (type(e), str(e), getattr(e, "line", None), getattr(e, "field", None))
    return result, error, [(w.category, str(w.message)) for w in caught]


def _season_parts(dataset):
    view = dataset.schedule
    arrays = {name: getattr(view, name) for name in ("home", "away", "margin", "neutral", "wins")}
    return dataset.teams, dataset.games, arrays


def _same_season(got, want):
    (teams, games, arrays), (want_teams, want_games, want_arrays) = got, want
    assert teams == want_teams and games == want_games and tuple(games) == want_games
    for name, array in arrays.items():
        want = want_arrays[name]
        assert array.dtype.kind == want.dtype.kind and array.tobytes() == want.astype(array.dtype).tobytes()


log_names = st.sampled_from(["Yale", "Brown", "Penn", 'St. "Mary, A&M"', "Navy,West", "é"])
# a bad value for a column: the date, home, home_score and neutral
BAD_FIELDS = {1: ["20240210", "2024-W06-6", "2024-13-01"], 2: [""], 4: ["-1", "x", "9" * 20], 6: ["2", ""]}


@st.composite
def game_logs(draw):
    """A log as text: two seasons, repeated and tied games, padded and quoted fields, perhaps one bad field."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        home = draw(log_names)
        away = draw(log_names.filter(lambda t: t != home))
        season = draw(st.sampled_from([2023, 2024]))
        date = datetime.date(season, 1, 1) + datetime.timedelta(days=draw(st.integers(0, 150)))
        score = draw(st.integers(0, 4))
        row = [season, date.isoformat(), home, away, score, draw(st.integers(0, 4)), int(draw(st.booleans()))]
        rows.append([str(x) for x in row] + [str(draw(st.integers(0, 2)))] * draw(st.booleans()))
    if rows:  # exact duplicates, and rows that differ from one only in the scores or the neutral flag
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        for row in draw(st.lists(st.sampled_from(rows), max_size=3)):
            rows.append(row[:4] + [str(draw(st.integers(0, 4))), row[5], str(draw(st.integers(0, 1)))] + row[7:])
    rows = draw(st.permutations(rows))
    if rows and draw(st.booleans()):
        k, column = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(sorted(BAD_FIELDS)))
        rows[k] = list(rows[k])
        rows[k][column] = draw(st.sampled_from(BAD_FIELDS[column]))
    lines = []
    for row in rows:
        out = io.StringIO()
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        csv.writer(out, lineterminator="\n", quoting=quoting).writerow(row)
        line = out.getvalue()
        lines.append(line.replace(",", " , ") if draw(st.booleans()) and '"' not in line else line)
    return HEADER + "".join(lines)


@given(game_logs(), st.sampled_from([DEFAULT_SEASON_WINDOW, None]))
@example(HEADER + "2024,2024-02-10,Yale,Brown,1,1,0\n2024,2024-02-10,Yale,Brown,1,1,0\n", None)
@settings(max_examples=200, deadline=None)
def test_columns_match_the_record_oracle(text, window):
    """Parse plus build by columns gives the record oracle's teams, games, schedule arrays, warnings and errors."""
    log, error, warned = _outcome(lambda: parse_games(text, season_window=window))
    records, want_error, want_warned = _outcome(lambda: reference.parse_records(text, season_window=window))
    assert (error, warned) == (want_error, want_warned)
    if error:
        return
    assert log == records and list(log) == records and len(log) == len(records)
    for season in (2023, 2024):
        got = _outcome(lambda: _season_parts(build_season(log.take(log.season == season), season)))
        want = _outcome(lambda: reference.build_records([g for g in records if g.season == season], season))
        assert got[1:] == want[1:]
        if got[1] is None:
            _same_season(got[0], (*want[0], reference.schedule_arrays(*want[0])))
            # records built in code take the same path, and a season holding another's game is refused alike
            backwards = list(reversed(records))
            again = _outcome(lambda: _season_parts(build_season(backwards, season)))
            assert again[1:] == _outcome(lambda: reference.build_records(backwards, season))[1:]


@given(st.lists(game_records(), min_size=1, max_size=12), st.data())
@settings(max_examples=100, deadline=None)
def test_records_built_in_code_match_the_oracle(games, data):
    """A list of GameRecords, some broken, some repeated, builds as the record oracle builds it."""
    games = games + data.draw(st.lists(st.sampled_from(games), max_size=3))
    k = data.draw(st.integers(0, len(games) - 1))
    breaks = [{}, {"home_score": -1}, {"away_team": " Yale"}, {"season": 2023}, {"neutral_site": 1}]
    change = data.draw(st.sampled_from(breaks))
    games[k] = dataclasses.replace(games[k], **change)
    got = _outcome(lambda: _season_parts(build_season(games, 2024)))
    want = _outcome(lambda: reference.build_records(games, 2024))
    assert got[1:] == want[1:]
    if got[1] is None:
        _same_season(got[0], (*want[0], reference.schedule_arrays(*want[0])))
