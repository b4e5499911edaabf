import csv
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqmine import (
    GeneratorConfig,
    InvalidConfigError,
    SINGAPORE_SHAPE,
    bms_shape,
    generate_synthetic,
    parse_checkins,
    serialize_checkins,
)
from seqmine.checkins import CSV_HEADER, CheckIn
from seqmine.synth import (
    _CATEGORY_CUM_WEIGHTS,
    _GENDER_CUM_WEIGHTS,
    _HOUR_CUM_WEIGHTS,
    DEFAULT_CATEGORIES,
    DEFAULT_ORIGINS,
    GENDERS,
    LAT_RANGE,
    LON_RANGE,
    MAX_TRIP_DAYS,
    N_DAYS,
    START_DATE,
    UTC_OFFSET_MINUTES,
)

SMALL = GeneratorConfig(n_users=60)


class TestDeterminism:
    def test_same_seed_same_output(self):
        assert generate_synthetic(SMALL, 7) == generate_synthetic(SMALL, 7)

    def test_different_seeds_differ(self):
        assert generate_synthetic(SMALL, 7) != generate_synthetic(SMALL, 8)

    def test_zero_users(self):
        assert generate_synthetic(GeneratorConfig(n_users=0), 1) == []


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SINGAPORE_SHAPE, seed=42)


class TestTouristShape:
    def test_population(self, corpus):
        per_user = Counter(c.user_id for c in corpus)
        assert len(per_user) == 1057
        assert 8 * 1057 <= len(corpus) <= 10 * 1057
        assert all(8 <= n <= 10 for n in per_user.values())

    def test_ids_unique_and_timestamps_ordered(self, corpus):
        assert len({c.checkin_id for c in corpus}) == len(corpus)
        previous = {}
        for c in corpus:
            if c.user_id in previous:
                assert c.timestamp >= previous[c.user_id]
            previous[c.user_id] = c.timestamp

    def test_minute_resolution_utc(self, corpus):
        assert all(c.timestamp.tzinfo == timezone.utc for c in corpus)
        assert all(
            c.timestamp.second == 0 and c.timestamp.microsecond == 0
            for c in corpus
        )

    def test_category_marginals_track_weights(self, corpus):
        weights = {cat: w for cat, _, w in DEFAULT_CATEGORIES}
        total_w = sum(weights.values())
        counts = Counter(c.category for c in corpus)
        assert counts.most_common(1)[0][0] == "Changi Airport"
        for cat, w in weights.items():
            observed = counts[cat] / len(corpus)
            assert abs(observed - w / total_w) < 0.02

    def test_gender_marginals(self, corpus):
        by_user = {c.user_id: c.gender for c in corpus}
        counts = Counter(by_user.values())
        n = len(by_user)
        assert abs(counts["female"] / n - 3830 / 7614) < 0.05
        assert abs(counts["male"] / n - 3577 / 7614) < 0.05
        assert counts["undisclosed"] > 0

    def test_coordinates_in_bounding_box(self, corpus):
        lat_lo, lat_hi = LAT_RANGE
        lon_lo, lon_hi = LON_RANGE
        assert all(lat_lo <= c.lat <= lat_hi for c in corpus)
        assert all(lon_lo <= c.lon <= lon_hi for c in corpus)

    def test_waking_hours_dominate(self, corpus):
        offset = timedelta(minutes=UTC_OFFSET_MINUTES)
        hours = Counter((c.timestamp + offset).hour for c in corpus)
        night = sum(hours[h] for h in range(0, 6))
        assert night / len(corpus) < 0.02


class TestClickStreamShape:
    def test_sequence_length_distribution(self):
        cfg = bms_shape()
        corpus = generate_synthetic(cfg, seed=1)
        per_user = Counter(c.user_id for c in corpus)
        assert len(per_user) == 30000
        mean = len(corpus) / len(per_user)
        assert 2.3 * 0.95 <= mean <= 2.3 * 1.05
        assert max(per_user.values()) <= 12
        assert min(per_user.values()) >= 1

    def test_custom_size(self):
        corpus = generate_synthetic(bms_shape(500), seed=3)
        assert len({c.user_id for c in corpus}) == 500


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_users": -1},
        {"checkins_min": 0},
        {"checkins_min": 5, "checkins_max": 4},
        {"length_weights": ()},
        {"length_weights": ((0, 1.0),)},
        {"length_weights": ((2, -1.0),)},
        # The venue, hour, date, demographic and coordinate tables are module
        # constants: GeneratorConfig refuses them as unknown keywords.
        {"categories": ()},
        {"categories": (("X", "Y", 0.0),)},
        {"hour_weights": (1.0,) * 23},
        {"hour_weights": (0.0,) * 24},
        {"gender_weights": (1.0, 2.0)},
        {"origins": ()},
        {"n_days": 0},
        {"lat_range": (80.0, 95.0)},
        {"lon_range": (10.0, -10.0)},
    ])
    def test_rejected(self, kwargs):
        known = kwargs.keys() <= {f.name for f in fields(GeneratorConfig)}
        with pytest.raises(InvalidConfigError if known else TypeError):
            GeneratorConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        # values generate_synthetic cannot use, or would use wrongly
        ({"n_users": 2.0}, "n_users"),
        ({"n_users": True}, "n_users"),
        ({"checkins_min": 2.0, "checkins_max": 3.0}, "checkins_min"),
        ({"checkins_max": 10.0}, "checkins_max"),
        ({"checkins_min": True}, "checkins_min"),
        ({"length_weights": ((2.5, 1.0),)}, "length_weights"),
        ({"length_weights": ((True, 1.0),)}, "length_weights"),
        ({"length_weights": ((1, 1.0), (2, float("nan")))}, "length_weights"),
        ({"length_weights": ((1, float("inf")),)}, "length_weights"),
        ({"length_weights": ((1, 1e308), (2, 1e308))}, "length_weights"),
        ({"length_weights": ((1, 10**400),)}, "length_weights"),
        ({"length_weights": ((1, Decimal(1)),)}, "length_weights"),
        ({"length_weights": ((1, "1.0"),)}, "length_weights"),
        ({"length_weights": ((1, 2.0, 3.0), (2, 1.0))}, "length_weights"),
        ({"length_weights": (1, 2)}, "length_weights"),
    ])
    def test_rejected_unusable_values(self, kwargs, field):
        with pytest.raises(InvalidConfigError, match=field):
            GeneratorConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"checkins_min": 0},
        {"checkins_min": 2.5},
        {"checkins_max": "x"},
        {"checkins_min": 5, "checkins_max": 4},
    ])
    def test_unused_lengths_still_checked(self, kwargs):
        # length_weights makes checkins_min/checkins_max unused, not unchecked
        with pytest.raises(InvalidConfigError, match="checkins_min"):
            replace(bms_shape(10), **kwargs)

    @pytest.mark.parametrize("weights", [
        ((1, 1), (3, 2)),
        ((1, Fraction(1, 3)), (2, 0.5)),
        ((1, 5e-324), (2, 5e-324)),
    ])
    def test_accepted_weights_generate(self, weights):
        cfg = GeneratorConfig(n_users=20, length_weights=weights)
        counts = Counter(c.user_id for c in generate_synthetic(cfg, 1))
        assert set(counts.values()) <= {k for k, _ in weights}


class TestSerializationRoundTrip:
    def test_csv(self):
        corpus = generate_synthetic(SMALL, seed=5)
        buf = io.StringIO()
        serialize_checkins(corpus, buf)
        result = parse_checkins(io.StringIO(buf.getvalue()))
        assert not result.rejects
        assert list(result) == corpus

    def test_jsonl(self):
        corpus = generate_synthetic(SMALL, seed=5)
        buf = io.StringIO()
        serialize_checkins(corpus, buf, format="jsonl")
        result = parse_checkins(io.StringIO(buf.getvalue()), format="jsonl")
        assert not result.rejects
        assert list(result) == corpus

    def test_byte_identical_reruns(self):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            serialize_checkins(generate_synthetic(SMALL, seed=9), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_pinned_digests(self):
        # Any change to a table, a draw or the order of draws changes these.
        for cfg, seed, fmt, digest in [
            (SMALL, 5, "csv",
             "f4fa9e3629c41173cc8567ff5cd93be9f54bdc68ae32f81c87190b4a1a161356"),
            (bms_shape(300), 3, "jsonl",
             "0503b95a053a4ba7c41443d96c9382c038e235f0cd31ae29df0994eab6a4342c"),
        ]:
            buf = io.StringIO()
            serialize_checkins(generate_synthetic(cfg, seed), buf, format=fmt)
            assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize_checkins([], io.StringIO(), format="xml")


def _generate_synthetic_reference(cfg, seed):
    """generate_synthetic as it was before it took its draws from the
    generator's random and getrandbits directly: through random.Random's
    choices, choice, randint, randrange and uniform."""
    rng = random.Random(seed)
    if cfg.length_weights is not None:
        length_values = [k for k, _ in cfg.length_weights]
        length_cum_weights = list(accumulate(w for _, w in cfg.length_weights))
    offset = timedelta(minutes=UTC_OFFSET_MINUTES)
    base = datetime.combine(START_DATE, datetime.min.time())
    out = []
    counter = 0
    for u in range(cfg.n_users):
        user_id = f"u{u:05d}"
        gender = rng.choices(GENDERS, cum_weights=_GENDER_CUM_WEIGHTS)[0]
        origin = rng.choice(DEFAULT_ORIGINS)
        if cfg.length_weights is None:
            n = rng.randint(cfg.checkins_min, cfg.checkins_max)
        else:
            n = rng.choices(length_values, cum_weights=length_cum_weights)[0]
        first_day = rng.randrange(N_DAYS)
        trip_days = rng.randint(1, MAX_TRIP_DAYS)
        stamps = []
        for _ in range(n):
            day = first_day + rng.randrange(trip_days)
            hour = rng.choices(range(24), cum_weights=_HOUR_CUM_WEIGHTS)[0]
            minute = rng.randrange(60)
            stamps.append(base + timedelta(days=day, hours=hour, minutes=minute))
        stamps.sort()
        for local in stamps:
            counter += 1
            category, subcategory, _ = rng.choices(
                DEFAULT_CATEGORIES, cum_weights=_CATEGORY_CUM_WEIGHTS
            )[0]
            lat = round(rng.uniform(*LAT_RANGE), 6)
            lon = round(rng.uniform(*LON_RANGE), 6)
            out.append(
                CheckIn(
                    checkin_id=f"c{counter:07d}",
                    user_id=user_id,
                    timestamp=(local - offset).replace(tzinfo=timezone.utc),
                    lat=lat,
                    lon=lon,
                    category=category,
                    subcategory=subcategory,
                    gender=gender,
                    origin=origin,
                )
            )
    return out


def _serialize_checkins_reference(checkins, fp, format="csv"):
    """serialize_checkins as it was before JSONL lines were filled into one
    template: json.dumps of each row as a dict."""
    as_csv = format == "csv"
    if as_csv:
        writer = csv.writer(fp)
        writer.writerow(CSV_HEADER)
    for c in checkins:
        coords = (
            (f"{c.lat:.6f}", f"{c.lon:.6f}") if as_csv
            else (round(c.lat, 6), round(c.lon, 6))
        )
        ts = c.timestamp.astimezone(timezone.utc).isoformat()
        row = [c.checkin_id, c.user_id, ts, *coords,
               c.category, c.subcategory, c.gender, c.origin]
        if as_csv:
            writer.writerow(row)
        else:
            fp.write(json.dumps(dict(zip(CSV_HEADER, row))) + "\n")


def _written(serialize, rows, fmt):
    buf = io.StringIO()
    serialize(rows, buf, fmt)
    return buf.getvalue()


# Positive weights, with subnormal ones: there random() * total can round up
# to the total, which only the hi = n - 1 bound of random.choices handles.
_weights = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, exclude_min=True),
    st.integers(1, 10**6),
    st.sampled_from((5e-324, 1e-323, 2.5e-323)),
)


@st.composite
def _generator_configs(draw):
    n_users = draw(st.integers(0, 30))
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.integers(1, 12), min_size=2, max_size=2)))
        return GeneratorConfig(n_users=n_users, checkins_min=lo, checkins_max=hi)
    pairs = draw(st.lists(st.tuples(st.integers(1, 12), _weights), min_size=1, max_size=6))
    return GeneratorConfig(n_users=n_users, length_weights=tuple(pairs))


_odd_chars = st.sampled_from('"\\/\x00\x1f\x7f\t\n \ud800é中😀')
_texts = st.text(st.one_of(st.characters(), _odd_chars), max_size=8)
# values of other types in text fields, equal to each other as dict keys
_not_text = st.sampled_from((None, 0, 1, 1.0, True, False, 0.0, -0.0, 10**20))
_coords = st.one_of(
    st.floats(),
    st.integers(-10**30, 10**30),
    st.sampled_from((0.0, -0.0, float("nan"), float("inf"), -float("inf"),
                     1e308, -1.7976931348623157e308, 5e-324, 1.2345675, 103.8)),
)
_zones = st.one_of(
    st.just(timezone.utc),
    st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                                      max_value=timedelta(hours=23, minutes=59))),
)
_timestamps = st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                           timezones=_zones)


@st.composite
def _hand_built(draw):
    """A few check-ins drawing their text from one small pool, so values repeat."""
    pool = draw(st.lists(st.one_of(_texts, _not_text), min_size=1, max_size=4))
    shared = st.one_of(st.sampled_from(pool), _texts, _not_text)
    return [
        CheckIn(
            checkin_id=draw(st.one_of(_texts, st.integers(), st.sampled_from(pool))),
            user_id=draw(shared),
            timestamp=draw(_timestamps),
            lat=draw(_coords),
            lon=draw(_coords),
            category=draw(shared),
            subcategory=draw(st.one_of(st.just(""), shared)),
            gender=draw(st.one_of(st.none(), st.just(""), shared)),
            origin=draw(st.one_of(st.none(), st.just(""), shared)),
        )
        for _ in range(draw(st.integers(0, 5)))
    ]


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(cfg=_generator_configs(), seed=st.integers(-2**70, 2**70))
    @example(cfg=GeneratorConfig(n_users=20, length_weights=((1, 5e-324), (2, 5e-324))),
             seed=0)
    @example(cfg=GeneratorConfig(n_users=30, checkins_min=1, checkins_max=1), seed=1)
    def test_generator(self, cfg, seed):
        rows = generate_synthetic(cfg, seed)
        expected = _generate_synthetic_reference(cfg, seed)
        assert all(type(c) is CheckIn for c in rows)
        assert [repr(c) for c in rows] == [repr(c) for c in expected]
        for fmt in ("csv", "jsonl"):
            assert (_written(serialize_checkins, rows, fmt)
                    == _written(_serialize_checkins_reference, expected, fmt))

    @settings(max_examples=300, deadline=None)
    @given(rows=_hand_built())
    @example(rows=[CheckIn("c1", 1, datetime(2023, 5, 1, 8, 0, 0, 5, timezone.utc), 1.3, 103.8,
                           True, 1.0, 0.0, -0.0)])
    def test_jsonl_writer(self, rows):
        # JSON's own ASCII output: equal text is equal bytes
        expected = "".join(json.dumps(dict(zip(CSV_HEADER, [
            c.checkin_id, c.user_id, c.timestamp.astimezone(timezone.utc).isoformat(),
            round(c.lat, 6), round(c.lon, 6), c.category, c.subcategory, c.gender, c.origin,
        ]))) + "\n" for c in rows)
        assert _written(serialize_checkins, rows, "jsonl") == expected
        assert _written(_serialize_checkins_reference, rows, "jsonl") == expected
