"""Exception types shared across the package.

Everything raised on bad *data* derives from :class:`SetvecError`, so callers
(and the CLI) can distinguish data problems from genuine bugs.
"""


class SetvecError(Exception):
    """Base class for all domain errors raised by setvec."""


class VocabularyMismatchError(SetvecError):
    """Two operands are bound to different Vocabulary objects (``sparse._require_same_vocab``)."""


class ZeroNormError(SetvecError):
    """An operation that divides by a vector norm received a zero vector."""


class CptDomainError(SetvecError):
    """Negative weights fed into the pseudo-term expansion (sqrt domain)."""


class NonFiniteError(SetvecError):
    """A composed weight or a retrieval score overflows to inf or nan."""


class DuplicateDocError(SetvecError):
    """The same document name was ingested twice while building an index."""


class IndexFormatError(SetvecError):
    """A persisted index file is corrupt, truncated, or has a bad version."""


class FormatError(SetvecError):
    """A text input file (JSONL, TREC, logit grid) failed to parse."""


class UndefinedMetricError(SetvecError):
    """A metric is undefined for a query (e.g. no positively judged docs)."""
