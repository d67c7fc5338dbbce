"""Generated Python shared by the execution engines.

The bytecode interpreter and the FPGA simulator both turn a compiled
artifact into Python source once, ``exec`` it, and keep the resulting
function next to the artifact it came from. This module holds what they
share: building a named function from source, a thread-safe build-once
cache slot on the artifact object, and dropping that slot when the
artifact is pickled.

The cached function lives in the artifact's instance ``__dict__`` under
a private name that is not a dataclass field, so dataclass equality and
the canonical artifact digest never see it; the artifact's
``__getstate__`` drops it, so pickled payloads (the artifact cache,
checkpoints) never carry generated code.
"""

from __future__ import annotations

import threading

_BUILD_LOCK = threading.Lock()


def build_function(source: str, entry: str, label: str, namespace: dict):
    """Compile ``source``, run it in ``namespace`` and return the
    function it defines as ``entry``, renamed to ``label``.

    ``label`` is also the code's filename, so profilers and tracebacks
    show it."""
    code = compile(source, label, "exec")
    exec(code, namespace)
    fn = namespace[entry]
    names = {"co_name": label}
    if hasattr(fn.__code__, "co_qualname"):  # Python >= 3.11
        names["co_qualname"] = label
    fn.__code__ = fn.__code__.replace(**names)
    fn.__name__ = fn.__qualname__ = label
    return fn


def cached(owner, slot: str, build):
    """Return ``owner``'s generated function in ``slot``, building it
    with ``build(owner)`` on first use.

    Readers take no lock; the first builder publishes under a lock with
    one attribute store, so concurrent first calls build exactly once."""
    fn = owner.__dict__.get(slot)
    if fn is None:
        with _BUILD_LOCK:
            fn = owner.__dict__.get(slot)
            if fn is None:
                fn = build(owner)
                owner.__dict__[slot] = fn
    return fn


def without(state: dict, slot: str) -> dict:
    """A pickling state with the cached function in ``slot`` removed."""
    if slot in state:
        state = dict(state)
        del state[slot]
    return state
