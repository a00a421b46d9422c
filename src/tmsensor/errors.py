"""Exception types shared across the sensor pipeline."""


class SensorError(Exception):
    """Base class for all errors raised by this package."""


# --- capture parsing ---

class BadMagic(SensorError):
    """Input does not start with a recognized file magic."""


class PcapngUnsupported(BadMagic):
    """Input is a pcapng file, which this sensor does not read."""


class UnsupportedLinkType(SensorError):
    """Capture uses a link type the parser cannot dissect."""


# --- anonymization ---

class EntropyUnavailable(SensorError):
    """The OS randomness source could not be read."""


class KeyFileError(SensorError):
    """Key file is malformed or has an unknown version. A missing key file
    raises FileNotFoundError."""


# --- traffic matrices ---

class KeyMismatch(SensorError):
    """Matrices built under different anonymization keys were merged or
    written to one file."""


class WindowSizeMismatch(SensorError):
    """Matrices built with different window sizes were merged or written to
    one file."""


# --- matrix file codec ---

class UnknownVersion(SensorError):
    """Matrix file declares a format version this reader does not know."""


class UnknownScheme(SensorError):
    """Matrix file declares an unknown anonymization scheme."""


class CorruptPayload(SensorError):
    """Matrix file block is structurally invalid (deflate or varint failure)."""


class InvariantViolation(SensorError):
    """Decoded data is structurally valid but semantically inconsistent."""


# --- synthetic traffic ---

class InvalidSynthSpec(SensorError):
    """Synthetic workload parameters are out of range."""


# --- CLI / daemon ---

class ConfigError(SensorError):
    """Sensor configuration file is missing required keys or has bad values."""


class JournalError(SensorError):
    """Watch-mode journal file cannot be parsed."""
