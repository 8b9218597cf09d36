"""Property-based tests for the fabric: conservation and delivery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import Fabric
from repro.network.routing import EscapeVC
from repro.network.topology import Hypercube, Mesh2D, Torus2D
from repro.nic.messages import pack_destination

topologies = st.sampled_from(
    [Mesh2D(3, 3), Mesh2D(4, 2), Torus2D(3, 3), Hypercube(3)]
)


@st.composite
def traffic(draw):
    topology = draw(topologies)
    n = topology.n_nodes
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    return topology, sends


def assert_occupancy_counters(fabric):
    """Every router's held-message counter matches its buffers, and
    ``in_flight`` is their sum."""
    total = 0
    for router in fabric.routers:
        held = len(router.injection) + sum(len(b) for b in router.in_buffers.values())
        assert router.occupancy == held
        total += held
    assert fabric.in_flight() == total


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(data=traffic())
    def test_every_message_delivered_exactly_once(self, data):
        topology, sends = data
        fabric = Fabric(topology, serialization_cycles=1)
        tagged = []
        for tag, (source, dest) in enumerate(sends):
            ni = fabric.interface(source)
            ni.write_output(0, pack_destination(dest))
            ni.write_output(1, tag)
            ni.send(2)
            tagged.append((tag, dest))
        # Drain, consuming at every endpoint so nothing backs up.
        received = []
        for _ in range(5000):
            fabric.step()
            assert_occupancy_counters(fabric)
            for node in range(topology.n_nodes):
                ni = fabric.interface(node)
                while ni.msg_valid:
                    received.append((ni.read_input(1), node))
                    ni.next()
            if len(received) == len(tagged) and fabric.pending() == 0:
                break
        assert sorted(received) == sorted(tagged)

    @settings(max_examples=40, deadline=None)
    @given(data=traffic())
    def test_hop_counts_match_topology_routes(self, data):
        topology, sends = data
        fabric = Fabric(topology, serialization_cycles=1)
        expected_hops = 0
        for tag, (source, dest) in enumerate(sends):
            ni = fabric.interface(source)
            ni.write_output(0, pack_destination(dest))
            ni.send(2)
            # Deterministic routing: distance + 1 ejection hop... the
            # router counts each accept_from as a hop; ejection is not a
            # hop, injection is not a hop.
            expected_hops += topology.distance(source, dest)
        for _ in range(5000):
            fabric.step()
            assert_occupancy_counters(fabric)
            for node in range(topology.n_nodes):
                ni = fabric.interface(node)
                while ni.msg_valid:
                    ni.next()
            if fabric.pending() == 0 and fabric.stats.delivered == len(sends):
                break
        assert fabric.stats.delivered == len(sends)
        assert fabric.stats.total_hops == expected_hops

    @settings(max_examples=40, deadline=None)
    @given(data=traffic(), stalled=st.integers(min_value=0, max_value=40))
    def test_occupancy_counters_under_backpressure(self, data, stalled):
        """Receivers stall for a while, so buffers fill and moves block;
        escape routing puts several virtual channels on every link."""
        topology, sends = data
        fabric = Fabric(
            topology,
            link_buffer_depth=1,
            serialization_cycles=1,
            routing=EscapeVC(seed=3),
        )
        for source, dest in sends:
            ni = fabric.interface(source)
            ni.write_output(0, pack_destination(dest))
            ni.send(2)
        for cycle in range(5000):
            fabric.step()
            assert_occupancy_counters(fabric)
            if cycle >= stalled:
                for node in range(topology.n_nodes):
                    ni = fabric.interface(node)
                    while ni.msg_valid:
                        ni.next()
            if fabric.pending() == 0 and fabric.stats.delivered == len(sends):
                break
        assert fabric.stats.delivered == len(sends)
        assert all(router.occupancy == 0 for router in fabric.routers)
