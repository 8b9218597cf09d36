"""One probe per layer: the tracer and the lineage tracker share a hook.

Attaching both observers through one fan-out probe must give each of
them exactly what it records when attached alone.
"""

import pytest

from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.obs.breakdown import lineage_report
from repro.obs.lineage import LineageTracker
from repro.obs.probe import HOOKS, FanOut, Probe, combine
from repro.obs.tracer import Tracer
from repro.tam.messages import MsgKind


class TestCombine:
    def test_nothing_attached_is_none(self):
        assert combine() is None
        assert combine(None, None) is None

    def test_single_observer_is_itself(self):
        tracer = Tracer()
        assert combine(tracer, None) is tracer
        lineage = LineageTracker()
        assert combine(None, lineage) is lineage

    def test_two_observers_fan_out_in_order(self):
        tracer, lineage = Tracer(), LineageTracker()
        probe = combine(tracer, lineage)
        assert isinstance(probe, FanOut)
        assert probe.probes == (tracer, lineage)
        # A transition only one observer records goes straight to it.
        assert probe.on_eject == tracer.on_eject
        assert probe.on_serialize_start == lineage.on_serialize_start

    def test_fan_out_forwards_every_hook(self):
        # The handle pair is covered below: it carries per-probe tokens.
        forwarded = [name for name in HOOKS if not name.endswith("_handle")]

        class Recorder(Probe):
            def __init__(self):
                self.calls = []

        for name in forwarded:
            setattr(
                Recorder,
                name,
                lambda self, *args, _name=name: self.calls.append((_name, args)),
            )
        first, second = Recorder(), Recorder()
        fan = FanOut(first, second)
        for name in forwarded:
            getattr(fan, name)(name)
        assert first.calls == second.calls == [(name, (name,)) for name in forwarded]

    def test_handle_tokens_return_to_their_probe(self):
        message = (MsgKind.SEND, 1)
        lineage = LineageTracker()
        lineage.tam_post(message, MsgKind.SEND, 1, 1)
        fan = FanOut(Probe(), lineage)
        token = fan.tam_begin_handle(message, MsgKind.SEND, 1, 2)
        assert token == [None, lineage.records[0]]
        fan.tam_end_handle(token)
        assert lineage.records[0].state == "done"


@pytest.fixture(scope="module")
def hotspot_three_ways():
    params = hotspot_params(EvalOptions())
    tracer_only = Tracer(capacity=None)
    run_hotspot(params, tracer=tracer_only)
    lineage_only = LineageTracker(origin="hotspot")
    run_hotspot(params, lineage=lineage_only)
    tracer_both = Tracer(capacity=None)
    lineage_both = LineageTracker(origin="hotspot")
    run_hotspot(params, tracer=tracer_both, lineage=lineage_both)
    return tracer_only, lineage_only, tracer_both, lineage_both


def test_fan_out_tracer_sees_what_it_sees_alone(hotspot_three_ways):
    tracer_only, _, tracer_both, _ = hotspot_three_ways
    assert tracer_both.counts == tracer_only.counts
    assert list(tracer_both) == list(tracer_only)
    assert tracer_both.emitted == tracer_only.emitted > 0


def test_fan_out_lineage_sees_what_it_sees_alone(hotspot_three_ways):
    _, lineage_only, _, lineage_both = hotspot_three_ways
    assert lineage_report(lineage_both) == lineage_report(lineage_only)
    assert len(lineage_both.records) == len(lineage_only.records) > 0
