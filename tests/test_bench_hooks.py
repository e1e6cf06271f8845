"""The benchmark's tracer wraps library names in place; each must exist.

`perfbench/tracer.py` replaces `owner.__dict__[name]` for every entry of
`HOOKS`, so a name the library no longer binds there raises `KeyError` in
`Tracer.install` and stops every traced benchmark pass.  The module is
compiled from its source and nothing is installed, so this writes nothing.
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_hooked_name_is_bound_where_it_is_hooked():
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    missing = [
        f"{key}: {getattr(owner, '__name__', owner)}.{name}"
        for key, owner, name, _ in tracer.HOOKS
        if name not in owner.__dict__
    ]
    assert tracer.HOOKS and not missing
