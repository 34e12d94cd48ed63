"""Count the Python frames a piece of code enters: the deterministic cost of
a path.

``sys.setprofile`` sees one ``call`` event per Python frame entered,
generator resumes included, and on one interpreter the count repeats
exactly, so a budget test can gate on it where a wall-clock number cannot.
The collector is held off while counting: ``gc.callbacks`` hooks (the test
runner installs one) are Python frames too, two per collection, and when
collections fall depends on what ran before.  ``count_frames_by_layer``
buckets the same count by the ``src/repro/<layer>/`` package each frame's
code lives in, so a budget can say which layer paid.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from types import CodeType, FrameType
from typing import Callable, Optional, Tuple, TypeVar

import repro

T = TypeVar("T")
#: ``src/repro``, as code objects name their files.
PACKAGE = Path(repro.__file__).resolve().parent


def count_frames(
    body: Callable[[], T],
    *,
    within: Optional[CodeType] = None,
    skip: Optional[CodeType] = None,
    on_call: Optional[Callable[[FrameType], None]] = None,
) -> Tuple[T, int]:
    """``(body(), frames it entered)``.

    ``within`` counts only the frames of calls to that code object and of
    everything they enter; ``skip`` leaves exactly those out.  ``on_call``
    sees every counted frame.
    """
    assert within is None or skip is None, "count within one code object or skip one"
    marked = within if within is not None else skip
    frames = 0
    depth = 0  # open frames of ``marked`` calls and what they entered

    def profile(frame: FrameType, event: str, _arg: object) -> None:
        nonlocal frames, depth
        if event == "call":
            if depth or frame.f_code is marked:
                depth += 1
            if (depth > 0) is (within is not None):
                frames += 1
                if on_call is not None:
                    on_call(frame)
        elif event == "return" and depth:
            depth -= 1

    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = body()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return result, frames


@lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The ``src/repro/<layer>/`` package a code object's file is in:
    ``repro`` for a module at the top of the package, ``other`` outside it
    (the standard library, the tests)."""
    path = Path(filename).resolve()
    if PACKAGE not in path.parents:
        return "other"
    parts = path.relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else "repro"


def count_frames_by_layer(body: Callable[[], T]) -> Tuple[T, Counter]:
    """``(body(), frames it entered per layer of :func:`layer_of`)``."""
    by_layer: Counter = Counter()

    def tally(frame: FrameType) -> None:
        by_layer[layer_of(frame.f_code.co_filename)] += 1

    result, _frames = count_frames(body, on_call=tally)
    return result, by_layer
