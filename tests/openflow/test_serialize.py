"""Round-trip tests for pipeline JSON serialization."""

import random

import pytest
from hypothesis import given, settings

import strategies as sts

from repro.openflow import serialize
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline
from repro.usecases import firewall, gateway, l3, loadbalancer


def equivalent(a: Pipeline, b: Pipeline, packets) -> bool:
    return all(
        a.process(p.copy()).summary() == b.process(p.copy()).summary()
        for p in packets
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            firewall.build_single_stage,
            firewall.build_multi_stage,
            lambda: loadbalancer.build_single_table(5),
            lambda: l3.build(40)[0],
            lambda: gateway.build(n_ce=2, users_per_ce=2, n_prefixes=30)[0],
        ],
    )
    def test_usecase_pipelines(self, factory):
        original = factory()
        restored = serialize.loads(serialize.dumps(original))
        assert len(restored) == len(original)
        rng = random.Random(1)
        packets = [sts.random_packet(rng) for _ in range(60)]
        assert equivalent(original, restored, packets)

    def test_structural_stability(self):
        """dump(load(dump(p))) == dump(p): the format is a fixpoint."""
        text = serialize.dumps(firewall.build_single_stage())
        assert serialize.dumps(serialize.loads(text)) == text

    @settings(max_examples=40, deadline=None)
    @given(sts.pipelines(max_tables=3), sts.packets())
    def test_random_pipelines(self, pipeline, pkt):
        restored = serialize.loads(serialize.dumps(pipeline))
        assert (restored.process(pkt.copy()).summary()
                == pipeline.process(pkt.copy()).summary())

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "pipeline.json"
        serialize.save(firewall.build_single_stage(), str(path))
        restored = serialize.load(str(path))
        assert len(restored.table(0)) == 3


class TestHumanSpellings:
    def test_addresses_pretty_printed(self):
        text = serialize.dumps(firewall.build_single_stage())
        assert "192.0.2.1" in text

    def test_prefixes_pretty_printed(self):
        p, _fib = l3.build(5)
        text = serialize.dumps(p)
        assert "/" in text

    def test_load_accepts_strings_and_ints(self):
        doc = """
        {"tables": [{"id": 0, "entries": [
          {"priority": 5,
           "match": {"ipv4_dst": "10.0.0.0/8", "eth_dst": "02:00:00:00:00:01",
                     "tcp_dst": 80},
           "apply": [{"output": 1}, "dec_ttl"],
           "goto": 1},
          {"priority": 0, "match": {}, "apply": ["drop"]}
        ]}, {"id": 1, "miss": "controller", "entries": []}]}
        """
        pipeline = serialize.loads(doc)
        entry = pipeline.table(0).entries[0]
        assert entry.match.mask_of("ipv4_dst") == 0xFF000000
        assert entry.goto_table == 1
        assert pipeline.table(1).miss_policy.value == "controller"

    def test_masked_match_object(self):
        doc = ('{"tables": [{"id": 0, "entries": [{"priority": 1, '
               '"match": {"ipv4_src": {"value": 0, "mask": 2147483648}}, '
               '"apply": [{"output": 1}]}]}]}')
        pipeline = serialize.loads(doc)
        assert pipeline.table(0).entries[0].match.mask_of("ipv4_src") == 1 << 31


class TestErrors:
    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            "{}",
            '{"tables": [{"entries": []}]}',  # missing id
            '{"tables": [{"id": 0, "entries": [{"match": {"bogus": 1}}]}]}',
            '{"tables": [{"id": 0, "entries": [{"match": {}, "apply": ["zap"]}]}]}',
            '{"tables": [{"id": 0, "entries": [{"match": {}, '
            '"apply": [{"set": {"eth_type": 5}}]}]}]}',  # unwritable field
            '{"tables": [{"id": 0, "entries": [{"match": {}, '
            '"apply": [{"set": {"tcp_dst": true}}]}]}]}',  # bool value
            '{"tables": [{"id": 0, "entries": [{"match": {}, '
            '"apply": [{"push_vlan": 5}]}]}]}',
            '{"tables": [{"id": 0, "entries": [{"match": {}, '
            '"apply": [{"output": "x"}]}]}]}',
            '{"tables": [{"id": 0, "miss": "bogus", "entries": []}]}',
            '{"tables": [{"id": 0, "entries": [{"match": {}, "priority": "hi"}]}]}',
            '{"tables": [{"id": 0, "entries": [{"match": {}, '
            '"metadata": {"mask": 1}}]}]}',
            '{"tables": [5]}',
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(serialize.SerializationError):
            serialize.loads(doc)

    def test_errors_name_the_table_and_entry(self):
        doc = ('{"tables": [{"id": 3, "entries": [{"match": {}}, '
               '{"match": {}, "priority": "hi"}]}]}')
        with pytest.raises(serialize.SerializationError, match="table 3 entry 1"):
            serialize.loads(doc)

    @pytest.mark.parametrize("value", [70000, -1, True])
    def test_masked_value_out_of_range_rejected(self, value):
        # Loaded as 0x1170 / 0xffff / 0x1 before the range check.
        with pytest.raises(serialize.SerializationError):
            serialize.match_from_obj({"tcp_dst": {"value": value, "mask": 0xFFFF}})

    def test_match_value_spellings(self):
        m = serialize.match_from_obj({"ipv4_dst": "192.0.2.0/24"})
        assert m == Match(ipv4_dst="192.0.2.0/24")


class TestIpv6Serialization:
    def test_v6_match_round_trip(self):
        import ipaddress

        from repro.openflow.flow_entry import FlowEntry
        from repro.openflow.flow_table import FlowTable
        from repro.openflow.actions import Output

        v6 = int(ipaddress.IPv6Address("2001:db8::1"))
        t = FlowTable(0)
        t.add(FlowEntry(Match(ipv6_dst=v6), priority=2, actions=[Output(1)]))
        t.add(FlowEntry(Match(ipv6_dst=(v6, ((1 << 64) - 1) << 64)), priority=1,
                        actions=[Output(2)]))
        text = serialize.dumps(Pipeline([t]))
        restored = serialize.loads(text)
        entries = restored.table(0).entries
        assert entries[0].match.value_of("ipv6_dst") == v6
        assert entries[1].match.mask_of("ipv6_dst") == ((1 << 64) - 1) << 64


class TestGroupSerialization:
    def test_group_pipeline_round_trip(self):
        from repro.openflow.actions import Output
        from repro.openflow.flow_entry import FlowEntry
        from repro.openflow.flow_table import FlowTable
        from repro.openflow.groups import Bucket, Group, GroupAction, GroupType
        from repro.packet import PacketBuilder

        pipeline = Pipeline()
        pipeline.groups.add(Group(7, GroupType.SELECT, [
            Bucket([Output(1)], weight=2), Bucket([Output(2)]),
        ]))
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1,
                        actions=[GroupAction(pipeline.groups, 7)]))
        pipeline.add_table(t)

        restored = serialize.loads(serialize.dumps(pipeline))
        assert len(restored.groups) == 1
        assert restored.groups.get(7).buckets[0].weight == 2
        pkt = PacketBuilder().eth().ipv4().tcp(dst_port=80, src_port=999).build()
        assert (restored.process(pkt.copy()).summary()
                == pipeline.process(pkt.copy()).summary())

    def test_group_action_without_groups_section_rejected(self):
        doc = ('{"tables": [{"id": 0, "entries": [{"priority": 1, "match": {}, '
               '"apply": [{"group": 3}]}]}]}')
        # The group table exists (empty) but the reference dangles only at
        # execution time, matching OpenFlow's late-binding semantics; the
        # document itself loads.
        pipeline = serialize.loads(doc)
        from repro.openflow.groups import GroupError
        from repro.packet import PacketBuilder

        with pytest.raises(GroupError):
            pipeline.process(PacketBuilder().eth().build())


class TestMeterAndTimeoutSerialization:
    def test_meter_round_trip(self):
        from repro.openflow.actions import Output
        from repro.openflow.flow_entry import FlowEntry
        from repro.openflow.flow_table import FlowTable
        from repro.openflow.instructions import ApplyActions
        from repro.openflow.meters import MeterInstruction
        from repro.packet import PacketBuilder

        pipeline = Pipeline()
        pipeline.meters.add(3, rate_pps=5.0, burst=2.0)
        t = FlowTable(0)
        t.add(FlowEntry(
            Match(tcp_dst=80), priority=1,
            instructions=(MeterInstruction(pipeline.meters, 3),
                          ApplyActions([Output(1)])),
            idle_timeout=30, hard_timeout=120,
        ))
        pipeline.add_table(t)

        restored = serialize.loads(serialize.dumps(pipeline))
        entry = restored.table(0).entries[0]
        assert entry.idle_timeout == 30 and entry.hard_timeout == 120
        assert restored.meters.get(3).rate_pps == 5.0

        # The restored pipeline rate-limits just like the original.
        pkt = PacketBuilder().eth().ipv4().tcp(dst_port=80).build()
        forwarded = sum(restored.process(pkt.copy()).forwarded for _ in range(5))
        assert forwarded == 2  # the burst

    def test_meter_instruction_without_table_rejected(self):
        doc = ('{"tables": [{"id": 0, "entries": [{"priority": 1, "match": {}, '
               '"meter": 1, "apply": [{"output": 1}]}]}]}')
        # The document declares no meter; the reference dangles at runtime.
        pipeline = serialize.loads(doc)
        from repro.openflow.meters import MeterError
        from repro.packet import PacketBuilder

        with pytest.raises(MeterError):
            pipeline.process(PacketBuilder().eth().build())
