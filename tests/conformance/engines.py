"""The kernel-configuration registry the conformance suite runs over.

Each :class:`EngineConfig` builds a fresh :class:`Environment` wired to
one queueing variant of the single dispatch loop.
"""

import os
from contextlib import contextmanager

from repro.sim import Environment


@contextmanager
def _env_var(name, value="1"):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


class EngineConfig:
    """One buildable kernel configuration."""

    def __init__(self, name, build):
        self.name = name
        self._build = build

    def build(self) -> Environment:
        return self._build()

    def __repr__(self):
        return f"<EngineConfig {self.name}>"


def _plain(use_wheel):
    return lambda: Environment(use_wheel=use_wheel)


def _with_env_var(var):
    def build():
        with _env_var(var):
            return Environment()
    return build


#: Every kernel configuration. The first entry is the reference
#: implementation the rest are diffed against.
ENGINE_CONFIGS = [
    EngineConfig("heap", _plain(use_wheel=False)),
    EngineConfig("wheel", _plain(use_wheel=True)),
    EngineConfig("no-wheel-env", _with_env_var("REPRO_NO_TIMER_WHEEL")),
    # REPRO_LEGACY_TICKS only affects the hw/cpu tick loop, never the
    # kernel; it rides along so the whole escape-hatch matrix is pinned
    # kernel-equivalent from one place.
    EngineConfig("legacy-ticks-env", _with_env_var("REPRO_LEGACY_TICKS")),
]

REFERENCE = ENGINE_CONFIGS[0]
