"""archforge: blueprint extraction and synchronization for annotated proofs."""

__version__ = "0.2.0"

from .errors import (
    BlueprintError,
    ConfigError,
    ConversionError,
    LockError,
    NotFoundError,
    ParseError,
    RenderError,
    ResolutionError,
    StaleSourceError,
    StoreError,
)
from .names import LabelRef, Name, SourceSpan

__all__ = [
    "__version__",
    "BlueprintError",
    "ConfigError",
    "ConversionError",
    "LockError",
    "Name",
    "LabelRef",
    "NotFoundError",
    "ParseError",
    "RenderError",
    "ResolutionError",
    "SourceSpan",
    "StaleSourceError",
    "StoreError",
]
