"""Property-based tests: the interface against a reference model.

A pure-Python reference (two unbounded-ish lists plus a current slot)
shadows the architectural :class:`NetworkInterface` through random
operation sequences; at every step both must agree on what is visible,
and no message may ever be duplicated or lost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.messages import Message, pack_destination

CAPACITY = 4

#: Almost-full thresholds below CAPACITY, so iafull/oafull toggle.
THRESHOLD = 2

EXCEPTION_NAMES = (
    "exc_input_error",
    "exc_output_overflow",
    "exc_pin_mismatch",
    "exc_privileged",
)


def msg(tag: int) -> Message:
    return Message(2, (pack_destination(0), tag, 0, 0, 0))


def mtype_of(tag: int) -> int:
    """A tag's message type for the STATUS checks: any of 2..15."""
    return 2 + tag % 14


def typed_msg(tag: int) -> Message:
    return Message(mtype_of(tag), (pack_destination(0), tag, 0, 0, 0))


operations = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("next"), st.just(0)),
        st.tuples(st.just("send"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("transmit"), st.just(0)),
    ),
    max_size=60,
)


class Reference:
    """The obvious model of the interface's queueing behaviour."""

    def __init__(self) -> None:
        self.current = None
        self.input = []
        self.output = []

    def deliver(self, tag):
        if self.current is None:
            self.current = tag
            return True
        if len(self.input) >= CAPACITY:
            return False
        self.input.append(tag)
        return True

    def next(self):
        self.current = self.input.pop(0) if self.input else None

    def send(self, tag):
        if len(self.output) >= CAPACITY:
            return False
        self.output.append(tag)
        return True

    def transmit(self):
        return self.output.pop(0) if self.output else None


def apply(ni: NetworkInterface, op: str, tag: int) -> None:
    """One operation, outcome ignored."""
    if op == "deliver":
        ni.deliver(typed_msg(tag))
    elif op == "next":
        ni.next()
    elif op == "send":
        ni.write_output(1, tag)
        ni.send(2)
    else:
        ni.transmit()


class TestAgainstReference:
    @settings(max_examples=200)
    @given(ops=operations)
    def test_visible_state_always_agrees(self, ops):
        ni = NetworkInterface(input_capacity=CAPACITY, output_capacity=CAPACITY)
        ni.control["iq_threshold"] = THRESHOLD
        ni.control["oq_threshold"] = THRESHOLD
        ref = Reference()
        delivered = sent = consumed = transmitted = 0
        for op, tag in ops:
            if op == "deliver":
                accepted = ni.deliver(typed_msg(tag))
                assert accepted == ref.deliver(tag)
                delivered += int(accepted)
            elif op == "next":
                if ref.current is not None:
                    consumed += 1
                ni.next()
                ref.next()
            elif op == "send":
                ni.write_output(1, tag)
                result = ni.send(2)
                ok = ref.send(tag)
                assert (result is SendResult.SENT) == ok
                sent += int(ok)
            else:
                got = ni.transmit()
                expected = ref.transmit()
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got.word(1) == expected
                    transmitted += 1
            # Visible state agrees after every operation.
            assert ni.msg_valid == (ref.current is not None)
            if ref.current is not None:
                assert ni.read_input(1) == ref.current
            assert ni.input_queue.depth == len(ref.input)
            assert ni.output_queue.depth == len(ref.output)
            assert ni.status["msg_valid"] == int(ref.current is not None)
            assert ni.status["msg_type"] == (
                mtype_of(ref.current) if ref.current is not None else 0
            )
            assert ni.status["iq_len"] == len(ref.input)
            assert ni.status["oq_len"] == len(ref.output)
            assert ni.status["iafull"] == int(len(ref.input) > THRESHOLD)
            assert ni.status["oafull"] == int(len(ref.output) > THRESHOLD)
            assert ni.status.pending_exceptions() == ()
        # Conservation: everything delivered is either consumed, current,
        # or still queued; everything sent is transmitted or queued.
        in_flight = (1 if ref.current is not None else 0) + len(ref.input)
        assert delivered == consumed + in_flight
        assert sent == transmitted + len(ref.output)

    @settings(max_examples=100)
    @given(tags=st.lists(st.integers(min_value=0, max_value=999), max_size=10))
    def test_fifo_end_to_end(self, tags):
        ni = NetworkInterface(input_capacity=len(tags) + 1)
        for tag in tags:
            assert ni.deliver(msg(tag))
        seen = []
        while ni.msg_valid:
            seen.append(ni.read_input(1))
            ni.next()
        assert seen == tags

    @settings(max_examples=100)
    @given(ops=operations)
    def test_msg_ip_consistent_with_state(self, ops):
        from repro.nic.dispatch import decode_table_address

        ni = NetworkInterface(input_capacity=CAPACITY, output_capacity=CAPACITY)
        ni.ip_base = 0x8000
        for op, tag in ops:
            if op == "deliver":
                ni.deliver(msg(tag))
            elif op == "next":
                ni.next()
            elif op == "send":
                ni.send(2)
            else:
                ni.transmit()
            handler, iafull, oafull = decode_table_address(ni.msg_ip)
            if ni.msg_valid:
                assert handler == 2
            else:
                assert handler == 0
            assert iafull == ni.input_queue.almost_full
            assert oafull == ni.output_queue.almost_full

    @settings(max_examples=100)
    @given(
        name=st.sampled_from(EXCEPTION_NAMES),
        ops=operations.filter(bool),
    )
    def test_exception_bits_survive_status_refresh(self, name, ops):
        """Refreshing the hardware fields never clears a raised exception."""
        ni = NetworkInterface(input_capacity=CAPACITY, output_capacity=CAPACITY)
        ni.status.raise_exception(name)
        for op, tag in ops:
            apply(ni, op, tag)
            assert name in ni.status.pending_exceptions()
            assert ni.status.has_exception
            assert ni.status["msg_valid"] == int(ni.msg_valid)
            assert ni.status["iq_len"] == ni.input_queue.depth
            assert ni.status["oq_len"] == ni.output_queue.depth
        ni.status.clear_exceptions()
        assert ni.status.pending_exceptions() == ()
        assert ni.status["iq_len"] == ni.input_queue.depth
