"""Deterministic synthetic check-in generation.

Two built-in shapes: the default tourist corpus (1057 users, 8-10 check-ins
each, categories weighted toward transit hubs, food and shopping, timestamps
concentrated in waking hours of a +08:00 day) and a click-stream shape
(tens of thousands of short sequences, geometric length, mean about 2.3
elements) for miner benchmarking.  All randomness flows from one seeded
generator, so a (config, seed) pair fully determines the output.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import accumulate
from typing import IO, Iterable

from .checkins import CSV_HEADER, CheckIn
from .errors import InvalidConfigError

GENDERS = ("female", "male", "undisclosed")

DEFAULT_GENDER_WEIGHTS = (3830.0, 3577.0, 207.0)

DEFAULT_ORIGINS = (
    "Indonesia",
    "Malaysia",
    "China",
    "India",
    "Australia",
    "Japan",
    "South Korea",
    "Philippines",
    "Thailand",
    "Vietnam",
    "United Kingdom",
    "United States",
    "Germany",
    "France",
)

#: (category, subcategory, weight); transit hubs lead, food/shopping close.
DEFAULT_CATEGORIES = (
    ("Changi Airport", "Airport", 6.5),
    ("Airport Terminal", "Airport", 2.5),
    ("Airport-Gate", "Airport", 1.8),
    ("Asian Restaurant", "Food", 5.5),
    ("Seafood Restaurant", "Food", 2.5),
    ("Food Court", "Food", 3.2),
    ("Hawker Centre", "Food", 3.4),
    ("Ramen Restaurant", "Food", 1.2),
    ("Coffee Shop", "Food", 3.0),
    ("Juice Bar", "Food", 0.8),
    ("Dessert Shop", "Food", 1.1),
    ("Bubble Tea Shop", "Food", 1.4),
    ("Shopping Mall", "Shop & Service", 6.0),
    ("Department Store", "Shop & Service", 1.8),
    ("Boutique", "Shop & Service", 1.2),
    ("Electronics Store", "Shop & Service", 0.9),
    ("Night Market", "Shop & Service", 1.6),
    ("Wet Market", "Shop & Service", 0.5),
    ("Flea Market", "Shop & Service", 0.4),
    ("Botanical Garden", "Outdoors", 2.8),
    ("Nature Reserve", "Outdoors", 1.4),
    ("Bird Sanctuary", "Outdoors", 0.6),
    ("Nature Trail", "Outdoors", 1.0),
    ("Park", "Outdoors", 4.2),
    ("Hiking Trail", "Outdoors", 1.0),
    ("Mountain Trail", "Outdoors", 0.4),
    ("Promenade", "Outdoors", 1.8),
    ("Boardwalk", "Outdoors", 0.8),
    ("Riverside Walk", "Outdoors", 0.7),
    ("Scenic Lookout", "Outdoors", 1.7),
    ("Observation Deck", "Arts & Entertainment", 1.3),
    ("Campground", "Outdoors", 0.3),
    ("Outdoor Plaza", "Outdoors", 0.6),
    ("Buddhist Temple", "Spiritual", 1.5),
    ("Hindu Temple", "Spiritual", 0.8),
    ("Mosque", "Spiritual", 0.7),
    ("Church", "Spiritual", 0.6),
    ("Theme Park", "Arts & Entertainment", 3.3),
    ("Cinema", "Arts & Entertainment", 1.2),
    ("Night Club", "Nightlife", 1.4),
    ("Concert Hall", "Arts & Entertainment", 0.6),
    ("Casino", "Arts & Entertainment", 1.3),
    ("Video Arcade", "Arts & Entertainment", 0.6),
    ("Museum", "Arts & Entertainment", 2.2),
    ("Art Gallery", "Arts & Entertainment", 1.0),
    ("Convention Center", "Professional", 0.7),
    ("National Archives", "Professional", 0.3),
    ("Library", "Professional", 0.4),
    ("Heritage Site", "Arts & Entertainment", 1.5),
    ("Historic Site", "Arts & Entertainment", 1.1),
    ("Stadium", "Arts & Entertainment", 0.8),
    ("Sports Club", "Recreation", 0.5),
    ("Gym", "Recreation", 0.6),
    ("Fitness Center", "Recreation", 0.4),
    ("Playing Field", "Recreation", 0.5),
    ("Open Field", "Recreation", 0.3),
    ("Spa", "Recreation", 0.9),
    ("Beach", "Outdoors", 2.6),
    ("Recreation Center", "Recreation", 0.5),
    ("Water Park", "Recreation", 0.9),
    ("Hotel", "Travel & Transport", 5.0),
    ("Hostel", "Travel & Transport", 1.2),
    ("Resort", "Travel & Transport", 1.1),
    ("Train Station", "Travel & Transport", 2.4),
    ("MRT Station", "Travel & Transport", 3.0),
    ("Bus Terminal", "Travel & Transport", 1.4),
    ("Cruise Terminal", "Travel & Transport", 0.7),
    ("Tour Agency", "Travel & Transport", 0.5),
    ("Office Building", "Professional", 0.3),
    ("University Campus", "Education", 0.3),
)

#: Relative likelihood of a check-in per local hour (0..23).
DEFAULT_HOUR_WEIGHTS = (
    0.2, 0.1, 0.1, 0.1, 0.1, 0.3, 0.8,
    2.0, 3.0, 4.0, 5.0, 5.5, 5.5, 5.0,
    4.5, 4.0, 4.0, 4.5, 5.0, 5.5, 5.0, 4.0,
    2.5, 1.0,
)

#: Trips start on one of N_DAYS days from START_DATE and last up to
#: MAX_TRIP_DAYS days; check-ins fall in the LAT_RANGE x LON_RANGE box, with
#: local times at UTC_OFFSET_MINUTES.
START_DATE = date(2017, 3, 1)
N_DAYS = 120
MAX_TRIP_DAYS = 3
LAT_RANGE = (1.24, 1.46)
LON_RANGE = (103.60, 104.04)
UTC_OFFSET_MINUTES = 480

# Cumulative weights give random.choices the same draws as the weights
# themselves, without summing the table again on every draw.
_GENDER_CUM_WEIGHTS = tuple(accumulate(DEFAULT_GENDER_WEIGHTS))
_HOUR_CUM_WEIGHTS = tuple(accumulate(DEFAULT_HOUR_WEIGHTS))
_CATEGORY_CUM_WEIGHTS = tuple(accumulate(w for _, _, w in DEFAULT_CATEGORIES))


@dataclass(frozen=True)
class GeneratorConfig:
    """Corpus size and trip lengths; defaults give the tourist shape."""

    n_users: int = 1057
    checkins_min: int = 8
    checkins_max: int = 10
    length_weights: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.n_users < 0:
            raise InvalidConfigError("n_users must be >= 0")
        if self.length_weights is None:
            if not 1 <= self.checkins_min <= self.checkins_max:
                raise InvalidConfigError(
                    "need 1 <= checkins_min <= checkins_max, got "
                    f"{self.checkins_min} and {self.checkins_max}"
                )
        else:
            if not self.length_weights or any(
                k < 1 or w <= 0 for k, w in self.length_weights
            ):
                raise InvalidConfigError(
                    "length_weights needs positive counts and weights"
                )


SINGAPORE_SHAPE = GeneratorConfig()


def bms_shape(n_sequences: int = 30000) -> GeneratorConfig:
    """Click-stream shape: many short sequences, geometric length, mean ~2.3.

    Length k gets weight q^(k-1) with q chosen so the untruncated mean is
    2.3; truncation at 12 shifts the realized mean by well under 1%.
    """
    q = 1.0 - 1.0 / 2.3
    weights = tuple((k, q ** (k - 1)) for k in range(1, 13))
    return GeneratorConfig(n_users=n_sequences, length_weights=weights)


def generate_synthetic(cfg: GeneratorConfig, seed: int) -> list[CheckIn]:
    """The full check-in list for (cfg, seed); same inputs, same output."""
    rng = random.Random(seed)
    if cfg.length_weights is not None:
        length_values = [k for k, _ in cfg.length_weights]
        length_cum_weights = list(accumulate(w for _, w in cfg.length_weights))
    offset = timedelta(minutes=UTC_OFFSET_MINUTES)
    base = datetime.combine(START_DATE, datetime.min.time())
    out: list[CheckIn] = []
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


def serialize_checkins(
    checkins: Iterable[CheckIn], fp: IO[str], format: str = "csv"
) -> None:
    """Write check-ins in the exact on-disk format parse_checkins reads."""
    if format not in ("csv", "jsonl"):
        raise InvalidConfigError("format must be 'csv' or 'jsonl'")
    as_csv = format == "csv"
    if as_csv:
        writer = csv.writer(fp)
        writer.writerow(CSV_HEADER)
    for c in checkins:
        # CSV writes coordinates as 6-decimal text and None as "", JSONL
        # writes them as numbers rounded to 6 places and None as null
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
