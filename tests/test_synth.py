import hashlib
import io
from collections import Counter
from dataclasses import fields
from datetime import timedelta, timezone

import pytest

from seqmine import (
    GeneratorConfig,
    InvalidConfigError,
    SINGAPORE_SHAPE,
    bms_shape,
    generate_synthetic,
    parse_checkins,
    serialize_checkins,
)
from seqmine.synth import DEFAULT_CATEGORIES, LAT_RANGE, LON_RANGE, UTC_OFFSET_MINUTES

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
