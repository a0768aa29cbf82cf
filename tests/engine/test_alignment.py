"""``Alignment``: the one wait for a barrier token on every input."""

import sys

sys.path.insert(0, "tests")
from helpers import build_keyed_job  # noqa: E402


def _instance():
    """``agg[0]`` of the keyed test job: two regular input channels."""
    instance = build_keyed_job().instances("agg")[0]
    assert len(instance.input_channels) == 2
    return instance


def test_two_tokens_on_one_channel_do_not_release_each_other():
    instance = _instance()
    first, second = instance.input_channels
    checkpoint = instance.alignment(("ckpt", 1))
    scale = instance.alignment(("scale", (1, 0)))
    assert not checkpoint.arrive(first)
    assert not scale.arrive(first)
    assert scale.arrive(second)
    scale.release()
    assert first.block_tokens == {("ckpt", 1)}
    assert not second.blocked
    assert checkpoint.arrive(second)
    checkpoint.release()
    assert not first.blocked and not second.blocked


def test_an_auxiliary_lane_is_never_waited_on():
    instance = _instance()
    first, second = instance.input_channels
    lane = instance.add_input_channel("lane")
    lane.is_auxiliary = True
    alignment = instance.alignment(("ckpt", 1))
    assert not alignment.arrive(first)
    assert alignment.arrive(second)
    assert not lane.blocked


def test_a_token_without_a_channel_aligns_at_once():
    instance = _instance()
    assert instance.alignment(("ckpt", 1)).arrive(None)
    assert not any(ch.blocked for ch in instance.input_channels)


def test_a_counting_alignment_never_blocks():
    instance = _instance()
    first, second = instance.input_channels
    alignment = instance.alignment(("eos",), blocking=False)
    assert not alignment.arrive(first)
    assert not first.blocked
    assert alignment.arrive(second)
    assert not second.blocked

