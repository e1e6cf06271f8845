"""Exceptions shared across modules, and the checks that raise them."""

import math
from contextlib import contextmanager
from dataclasses import fields


class ConfigError(ValueError):
    """A scenario, link budget, or campaign configuration is invalid.

    `fields` names the fields the error is about, as seen from the object
    that raised it; `campaign.parse_config` maps them back to the keys that
    set them.  The message starts with the first of them.
    """

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def require(ok: bool, name: str, value: object, rule: str, *others: str) -> None:
    """Raise a ConfigError "<name> <value> must <rule>" about field `name`
    and the `others` fields the rule compares it with, unless `ok`."""
    if not ok:
        raise ConfigError(f"{name} {value!r} must {rule}", name, *others)


@contextmanager
def within(prefix: str):
    """Name the fields of a ConfigError raised by a part held under
    `prefix` (e.g. "routing.") from the object that holds it."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(prefix + str(exc), *(prefix + f for f in exc.fields)) from None


def require_fields(config: object, prefix: str = "") -> None:
    """Reject the first field of dataclass `config`, naming it after `prefix`,
    that is a NaN or infinite float, which range checks let through, or is
    annotated `int` and holds a non-int or a bool, which `range` and `struct`
    refuse and a limit compared with counts rounds up (2.5 acts as 3)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value}", prefix + f.name)
        if f.type in ("int", int):
            require(isinstance(value, int) and not isinstance(value, bool), prefix + f.name,
                    value, "be an int")
