"""Exceptions shared across modules, and the finiteness check of configs."""

import math
from dataclasses import fields


class ConfigError(ValueError):
    """A scenario, link budget, or campaign configuration is invalid."""


def require_finite(config: object, prefix: str = "") -> None:
    """Reject the first float field of dataclass `config` that is NaN or
    infinite, naming it (after `prefix`): every comparison with NaN is
    false, so range checks alone let it through."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value}")
