"""The frame-counting helper the budget tests gate on counts what it says."""

from __future__ import annotations

import gc

import pytest
from frame_count import count_frames, count_frames_by_layer

from repro.engine.cost import CostModel


def leaf() -> int:
    return 1


def branch() -> int:
    return leaf() + leaf()


def body() -> int:
    return branch() + leaf()


def test_every_python_frame_entered_counts_once():
    # body, branch, leaf x 3; builtins are no Python frames.
    assert count_frames(body) == (3, 5)


def test_a_generator_resume_is_a_frame():
    def numbers():
        yield 1
        yield 2

    # The lambda, then the generator's start, one resume per value and the
    # resume that finishes it.
    assert count_frames(lambda: list(numbers())) == ([1, 2], 4)


def test_within_counts_only_calls_of_one_code_object_and_what_they_enter():
    assert count_frames(body, within=branch.__code__) == (3, 3)
    assert count_frames(body, within=leaf.__code__) == (3, 3)


def test_skip_leaves_out_exactly_those_calls():
    assert count_frames(body, skip=branch.__code__) == (3, 2)
    assert count_frames(body, skip=leaf.__code__) == (3, 2)


def test_on_call_sees_every_counted_frame():
    seen = []
    count_frames(body, within=branch.__code__, on_call=lambda frame: seen.append(frame.f_code))
    assert seen == [branch.__code__, leaf.__code__, leaf.__code__]


def test_the_collector_is_held_off_and_given_back():
    assert gc.isenabled()
    assert count_frames(gc.isenabled) == (False, 0)
    assert gc.isenabled()
    with pytest.raises(ZeroDivisionError):
        count_frames(lambda: 1 / 0)
    assert gc.isenabled()


def test_frames_are_bucketed_by_the_package_layer_they_run_in():
    # ``run`` and ``body``'s five frames are the tests' own, and so is the
    # dataclass ``__init__``, generated from a string; ``__post_init__`` and
    # ``scan_time`` are ``engine``'s.
    def run() -> int:
        model = CostModel()
        return body() + int(model.scan_time(0))

    result, layers = count_frames_by_layer(run)
    assert result == 3
    assert layers == {"other": 7, "engine": 2}
    assert count_frames(run)[1] == sum(layers.values())
