"""Deterministic synthetic check-in generation.

Two built-in shapes: the default tourist corpus (1057 users, 8-10 check-ins
each, categories weighted toward transit hubs, food and shopping, timestamps
concentrated in waking hours of a +08:00 day) and a click-stream shape
(tens of thousands of short sequences, geometric length, mean about 2.3
elements) for miner benchmarking.  All randomness flows from one seeded
generator, so a (config, seed) pair fully determines the output.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from itertools import accumulate
from math import isfinite
from numbers import Real
from typing import Iterator

# serialize_checkins is re-exported: the writer lives beside its reader
from .checkins import CheckIn, _Draft, serialize_checkins
from .core import _is_count
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

# Cumulative weights, bisected as random.choices bisects them, and each
# table's total as random.choices computes it.
_GENDER_CUM_WEIGHTS = tuple(accumulate(DEFAULT_GENDER_WEIGHTS))
_HOUR_CUM_WEIGHTS = tuple(accumulate(DEFAULT_HOUR_WEIGHTS))
_CATEGORY_CUM_WEIGHTS = tuple(accumulate(w for _, _, w in DEFAULT_CATEGORIES))
_CATEGORY_PAIRS = tuple((category, sub) for category, sub, _ in DEFAULT_CATEGORIES)
_GENDER_TOTAL = _GENDER_CUM_WEIGHTS[-1] + 0.0
_HOUR_TOTAL = _HOUR_CUM_WEIGHTS[-1] + 0.0
_CATEGORY_TOTAL = _CATEGORY_CUM_WEIGHTS[-1] + 0.0
_CATEGORY_HI = len(_CATEGORY_PAIRS) - 1

# Local midnight of START_DATE as a UTC instant: a generated timestamp is this
# plus a whole number of minutes.
_BASE = (datetime.combine(START_DATE, time(), timezone.utc)
         - timedelta(minutes=UTC_OFFSET_MINUTES))
_MINUTE = timedelta(minutes=1)


@dataclass(frozen=True)
class GeneratorConfig:
    """Corpus size and trip lengths; defaults give the tourist shape.

    Every field is checked, used or not: counts are ints (not bools) and
    weights finite positive reals, so every accepted config can be generated."""

    n_users: int = 1057
    checkins_min: int = 8
    checkins_max: int = 10
    length_weights: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if not _is_count(self.n_users, 0):
            raise InvalidConfigError(f"n_users must be an int >= 0, got {self.n_users!r}")
        lo, hi = self.checkins_min, self.checkins_max
        if not (_is_count(lo, 1) and _is_count(hi, lo)):
            raise InvalidConfigError(
                "need ints with 1 <= checkins_min <= checkins_max, got "
                f"{lo!r} and {hi!r}"
            )
        if self.length_weights is None:
            return
        try:  # unpacked as generate_synthetic unpacks them
            counts = [k for k, _ in self.length_weights]
            weights = [w for _, w in self.length_weights]
        except (TypeError, ValueError):
            counts = weights = []
        if not counts or not all(_is_count(k, 1) for k in counts) or not all(
            isinstance(w, Real) and w > 0 for w in weights
        ):
            raise InvalidConfigError(
                "length_weights needs (count, weight) pairs with int counts >= 1 "
                "and positive weights"
            )
        try:  # the total as random.choices computes it
            finite = isfinite(list(accumulate(weights))[-1] + 0.0)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidConfigError("length_weights must have a finite total")


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
    """The full check-in list for (cfg, seed), as _generate yields it; same
    inputs, same output."""
    return list(_generate(cfg, seed))


def _generate(cfg: GeneratorConfig, seed: int) -> Iterator[CheckIn]:
    """generate_synthetic's records one at a time, each made as it is drawn.

    Per user the draws are, in order: gender, origin, trip length, first
    day and trip days; then day, hour and minute of each check-in; then,
    with the timestamps sorted, the category, latitude and longitude of
    each.  They are the draws ``random.Random(seed)``'s ``choices``,
    ``choice``, ``randint``, ``randrange`` and ``uniform`` would make, taken
    from its ``random`` and ``getrandbits`` directly, because those wrappers
    cost several times the draws underneath them.  What keeps the numbers
    identical: a weighted draw is ``bisect(cum, random() * total, 0, n - 1)``
    with ``total = cum[-1] + 0.0``, as in ``choices``; a draw below n is
    ``Random._randbelow_with_getrandbits``'s ``getrandbits(n.bit_length())``
    loop, the same in Python 3.10 to 3.13; and ``uniform(a, b)`` is
    ``a + (b - a) * random()``.  Timestamps are whole minutes from a UTC base
    until sorted, and records are filled by slot stores as parse_checkins
    fills them.
    """
    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    weighted = cfg.length_weights is not None
    if weighted:
        length_values = [k for k, _ in cfg.length_weights]
        length_cum = list(accumulate(w for _, w in cfg.length_weights))
        length_total, length_hi = length_cum[-1] + 0.0, len(length_cum) - 1
    else:
        fewest, spread = cfg.checkins_min, cfg.checkins_max - cfg.checkins_min + 1
    lat_lo, lat_span = LAT_RANGE[0], LAT_RANGE[1] - LAT_RANGE[0]
    lon_lo, lon_span = LON_RANGE[0], LON_RANGE[1] - LON_RANGE[0]
    counter = 0
    for u in range(cfg.n_users):
        user_id = f"u{u:05d}"
        gender = GENDERS[bisect(_GENDER_CUM_WEIGHTS, rand() * _GENDER_TOTAL, 0, 2)]
        origin = DEFAULT_ORIGINS[below(len(DEFAULT_ORIGINS))]
        if weighted:
            n = length_values[bisect(length_cum, rand() * length_total, 0, length_hi)]
        else:
            n = fewest + below(spread)
        first_day = below(N_DAYS)
        trip_days = 1 + below(MAX_TRIP_DAYS)
        # operands evaluate left to right: day, then hour, then minute
        stamps = [
            (first_day + below(trip_days)) * 1440
            + 60 * bisect(_HOUR_CUM_WEIGHTS, rand() * _HOUR_TOTAL, 0, 23)
            + below(60)
            for _ in range(n)
        ]
        stamps.sort()
        for m in stamps:
            counter += 1
            category, subcategory = _CATEGORY_PAIRS[
                bisect(_CATEGORY_CUM_WEIGHTS, rand() * _CATEGORY_TOTAL, 0, _CATEGORY_HI)
            ]
            record = _Draft(
                f"c{counter:07d}", user_id, _BASE + _MINUTE * m,
                round(lat_lo + lat_span * rand(), 6),
                round(lon_lo + lon_span * rand(), 6),
                category, subcategory, gender, origin,
            )
            record.__class__ = CheckIn
            yield record
