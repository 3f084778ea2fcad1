"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import main, parse_packet_spec
from repro.openflow import serialize
from repro.usecases import firewall, loadbalancer


@pytest.fixture()
def firewall_file(tmp_path):
    path = tmp_path / "fw.json"
    serialize.save(firewall.build_single_stage(), str(path))
    return str(path)


@pytest.fixture()
def lb_file(tmp_path):
    path = tmp_path / "lb.json"
    serialize.save(loadbalancer.build_single_table(6), str(path))
    return str(path)


class TestPacketSpec:
    def test_full_spec(self):
        pkt = parse_packet_spec(
            "in_port=2,ipv4_src=10.0.0.1,ipv4_dst=192.0.2.1,ip_proto=6,tcp_dst=80"
        )
        assert pkt.in_port == 2
        from repro.openflow.fields import field_by_name
        from repro.packet.parser import parse

        view = parse(pkt)
        assert field_by_name("tcp_dst").extract(view) == 80
        assert field_by_name("ipv4_dst").extract(view) == 0xC0000201

    def test_l2_only(self):
        pkt = parse_packet_spec("in_port=1,eth_dst=02:00:00:00:00:05")
        from repro.packet.parser import parse, PROTO_IPV4

        assert not parse(pkt).has(PROTO_IPV4)

    def test_vlan_and_udp(self):
        pkt = parse_packet_spec("vlan_vid=100,ip_proto=17,udp_dst=53")
        from repro.openflow.fields import field_by_name
        from repro.packet.parser import parse

        view = parse(pkt)
        assert field_by_name("vlan_vid").extract(view) == 100
        assert field_by_name("udp_dst").extract(view) == 53

    def test_bad_key_rejected(self):
        with pytest.raises(SystemExit):
            parse_packet_spec("bogus=1")

    def test_bad_proto_rejected(self):
        with pytest.raises(SystemExit):
            parse_packet_spec("ip_proto=132")

    def test_private_keys_are_gone(self):
        for spec in ("proto=tcp", "dport=80", "sport=80", "vlan=5", "ttl=3"):
            with pytest.raises(SystemExit):
                parse_packet_spec(spec)

    def test_values_read_as_in_a_match(self):
        from repro.openflow.fields import field_by_name
        from repro.packet.parser import parse

        view = parse(parse_packet_spec(
            "eth_src=02:00:00:00:00:0a,arp_op=2,arp_spa=10.0.0.1,arp_tha=0x0a0b"))
        assert field_by_name("eth_src").extract(view) == 0x02000000000A
        assert field_by_name("arp_spa").extract(view) == 0x0A000001
        assert field_by_name("arp_tha").extract(view) == 0x0A0B

    def test_a_key_no_header_carries_is_an_error(self):
        for spec in ("arp_op=2,tcp_dst=80", "ip_proto=6,udp_dst=53",
                     "eth_type=0x0800,ipv6_dst=2001:db8::1", "ipv6_dst=::1,icmpv4_type=8",
                     "sctp_dst=1"):
            with pytest.raises(SystemExit):
                parse_packet_spec(spec)


class TestCommands:
    def test_show(self, firewall_file, capsys):
        assert main(["show", firewall_file]) == 0
        out = capsys.readouterr().out
        assert "table 0" in out and "entries" in out

    def test_compile(self, firewall_file, capsys):
        assert main(["compile", firewall_file, "--sources"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out
        assert "action templates; called)" in out  # direct code is called
        assert "core.codegen.compile_calls." in out
        assert "def _match" in out

    def test_compile_lb_decomposition_toggle(self, lb_file, capsys):
        main(["compile", lb_file])
        with_decomp = capsys.readouterr().out
        main(["compile", lb_file, "--no-decompose"])
        without = capsys.readouterr().out
        assert "decomposed[" in with_decomp
        assert "; 9 inlined)" in with_decomp  # a group inlines all it links
        assert "linked_list" in without

    def test_run_agreement(self, firewall_file, capsys):
        rc = main([
            "run", firewall_file,
            "--pkt", "in_port=1,ipv4_dst=192.0.2.1,ip_proto=6,tcp_dst=80",
            "--pkt", "in_port=1,ipv4_dst=192.0.2.1,ip_proto=6,tcp_dst=22",
            "--pkt", "in_port=2,ipv4_src=192.0.2.1,ip_proto=6,tcp_src=80",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DISAGREE" not in out
        assert out.count("eswitch:") == 3

    def test_module_docstring_example_runs(self, firewall_file, capsys):
        import repro.cli

        (spec,) = re.findall(r"--pkt (\S+)", repro.cli.__doc__)
        assert "tcp_dst=80" in spec
        assert main(["run", firewall_file, "--pkt", spec]) == 0
        assert "DISAGREE" not in capsys.readouterr().out

    def test_model(self, firewall_file, capsys):
        assert main(["model", firewall_file]) == 0
        out = capsys.readouterr().out
        assert "model-ub" in out and "cycles/packet" in out

    def test_bench(self, firewall_file, capsys):
        assert main(["bench", firewall_file, "--flows", "50",
                     "--packets", "500"]) == 0
        out = capsys.readouterr().out
        assert "ESWITCH" in out and "OVS" in out and "Mpps" in out

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["show", "/no/such/file.json"])

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(SystemExit):
            main(["show", str(bad)])

    def test_malformed_entry_is_an_error_not_a_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tables": [{"id": 0, "entries": '
                       '[{"match": {}, "apply": [{"push_vlan": 5}]}]}]}')
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "show", str(bad)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode != 0
        assert "error: table 0 entry 0:" in done.stderr
        assert "Traceback" not in done.stderr

    def test_malformed_fuzz_replay_is_an_error_not_a_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pipeline": {"tables": []}, "events": [{}]}')
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "--replay", str(bad)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode != 0
        assert "error:" in done.stderr and "event 0" in done.stderr
        assert "Traceback" not in done.stderr


class TestIpv6Spec:
    def test_v6_packet_spec(self):
        import ipaddress

        from repro.openflow.fields import field_by_name
        from repro.packet.parser import parse

        pkt = parse_packet_spec("ipv6_dst=2001:db8::7,ip_proto=6,tcp_dst=443")
        view = parse(pkt)
        assert field_by_name("ipv6_dst").extract(view) == int(
            ipaddress.IPv6Address("2001:db8::7")
        )
        assert field_by_name("tcp_dst").extract(view) == 443

    def test_icmpv6_spec(self):
        from repro.openflow.fields import field_by_name
        from repro.packet.parser import parse

        pkt = parse_packet_spec("ip_proto=58")
        assert field_by_name("icmpv6_type").extract(parse(pkt)) == 128
