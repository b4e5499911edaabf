"""Sequential pattern mining over itemset sequences, with a check-in pipeline.

Core object model (dictionaries, sequences, prefix/suffix algebra) lives in
:mod:`seqmine.core`; the two miners in :mod:`seqmine.prefixspan` and
:mod:`seqmine.spam`; rule statistics in :mod:`seqmine.rules`; check-in
ingestion, window segmentation and synthetic data in :mod:`seqmine.checkins`
and :mod:`seqmine.synth`.
"""

from .core import (
    EMPTY_SUFFIX,
    Element,
    Item,
    ItemDictionary,
    Sequence,
    SequenceDatabase,
    Suffix,
    canonicalize,
    concat,
    contains_subsequence,
    is_prefix,
    render_elements,
    suffix,
)
from .errors import (
    CapacityExceededError,
    EmptyElementError,
    FormatError,
    InvalidConfigError,
    MinerMismatchError,
    SeqmineError,
    UndefinedConfidenceError,
    UnknownLabelError,
)
from .prefixspan import (
    Extension,
    I_EXTENSION,
    MinerConfig,
    Pattern,
    PatternSet,
    ProjectedDatabase,
    ProjectionEntry,
    S_EXTENSION,
    frequent_extensions,
    frequent_items,
    mine,
    project,
    projection_table,
)
from .spam import VerticalBitmapIndex, build_bitmaps, i_step, mine_spam, s_step
from .rules import (
    RuleRow,
    build_report,
    count_minimal_occurrences,
    pattern_frequency,
    pattern_support,
    rule_confidence,
    write_report_csv,
    write_report_jsonl,
)
from .checkins import (
    ActivityMap,
    ActivityRule,
    CheckIn,
    DEFAULT_WINDOWS,
    ParseResult,
    PipelineResult,
    TagResult,
    WindowSpec,
    apply_activity_map,
    build_sequences,
    default_config,
    group_by_user,
    load_config,
    parse_checkins,
    parse_config,
    resolve_timezone,
    run_pipeline,
    segment_windows,
    serialize_checkins,
)
from .synth import GeneratorConfig, SINGAPORE_SHAPE, bms_shape, generate_synthetic
from .bench import BenchResult, dataset_stats, format_table, run_bench, write_bench_csv

__version__ = "0.1.0"
