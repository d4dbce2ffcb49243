"""Exception types shared across the toolkit.

Every error raised on a contract violation is a subclass of
:class:`FedkitError` so callers can catch toolkit failures without
swallowing unrelated bugs.  Transport code additionally reuses the
builtin ``ConnectionRefusedError`` / ``OSError`` for socket-level
failures.
"""


class FedkitError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# parameter sets / serialization

class ShapeMismatch(FedkitError):
    """Two parameter sets disagree on names, order, shapes or dtypes."""


class LengthMismatch(FedkitError):
    """A length field disagrees with the data actually present."""


class NameTooLong(FedkitError):
    """A tensor name does not fit the 16-bit length field."""


class Truncated(FedkitError):
    """A byte stream ended before the declared content was read."""


class BadDtypeTag(FedkitError):
    """Unknown dtype tag in a serialized stream."""


class BadName(FedkitError):
    """A tensor name in a serialized stream is not valid UTF-8."""


class TrailingBytes(FedkitError):
    """Bytes remain after the declared content was fully read."""


# ---------------------------------------------------------------------------
# datasets / models

class EmptyDataset(FedkitError):
    pass


class DimMismatch(FedkitError):
    """Model, parameter, or feature dimensions are inconsistent."""


class InfeasiblePartition(FedkitError):
    """A requested dataset partition cannot satisfy its constraints."""


# ---------------------------------------------------------------------------
# aggregation / scheduling

class EmptyUpdateList(FedkitError):
    pass


class NegativeStaleness(FedkitError):
    """An update claims a base epoch newer than the server epoch."""


class DuplicateUpdate(FedkitError):
    """A client submitted twice within one synchronous round."""


class InvalidBounds(FedkitError):
    """Scheduler step bounds are empty or inverted, or a buffer size is not positive."""


class UnknownClient(FedkitError):
    pass


# ---------------------------------------------------------------------------
# privacy

class NotClipped(FedkitError):
    """Noise was requested for an update whose norm exceeds the clip bound."""


# ---------------------------------------------------------------------------
# compression

class NonFiniteValue(FedkitError):
    """NaN or Inf encountered where finite values are required."""


class CorruptBlob(FedkitError):
    """A compressed blob is structurally invalid."""


class ChecksumMismatch(FedkitError):
    """Stored checksum does not match the recomputed one."""


# ---------------------------------------------------------------------------
# wire protocol / transport

class BadMagic(FedkitError):
    pass


class UnsupportedVersion(FedkitError):
    pass


class OversizedPayload(FedkitError):
    pass


class Unauthenticated(FedkitError):
    pass


class UnknownConnector(FedkitError):
    pass


class MissingKey(FedkitError):
    pass


class ProtocolError(FedkitError):
    """Peer sent a frame that is valid on the wire but invalid in context."""


# ---------------------------------------------------------------------------
# configuration

class ConfigError(FedkitError):
    pass


class ParseError(ConfigError):
    pass


class UnknownKey(ConfigError):
    pass


class MissingRequired(ConfigError):
    pass


class UnknownStrategyName(ConfigError):
    pass


class NonTerminating(FedkitError):
    """Simulation exceeded its event budget without finishing."""


# ---------------------------------------------------------------------------
# topologies

class InvalidTopology(FedkitError):
    """Tree or graph shape violates a structural requirement."""


class MissingLeafUpdate(FedkitError):
    pass


class DisconnectedNodeWarning(UserWarning):
    """A decentralized node has no neighbors and keeps its own model."""
