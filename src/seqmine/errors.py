"""Exception types shared across the package."""


class SeqmineError(Exception):
    """Base class for all seqmine errors."""


class UnknownLabelError(SeqmineError, KeyError):
    """An item label is not present in the dictionary."""


class EmptyElementError(SeqmineError, ValueError):
    """A sequence element (itemset) is empty."""


class InvalidConfigError(SeqmineError, ValueError):
    """A miner or generator configuration value is out of range."""


class CapacityExceededError(SeqmineError, ValueError):
    """A sequence is longer than the largest configured bitmap lane."""


class UndefinedConfidenceError(SeqmineError, ValueError):
    """Rule confidence requested for a pattern whose antecedent never occurs."""


class FormatError(SeqmineError, ValueError):
    """An input file cannot be parsed at all (bad header / wrong format)."""


class MinerMismatchError(SeqmineError, RuntimeError):
    """The two miners returned different pattern sets or supports on the same input."""
