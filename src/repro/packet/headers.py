"""Wire constants shared by the parser, the VLAN actions and the packet
builder.

A header is nothing more than its layout, as in P4's parse graph or POF's
``{offset, length}``: there are no header objects. :mod:`repro.packet.parser`
is the one decoder (each layer's offset and protocol bit; the layout rows
of :mod:`repro.openflow.fields` read fields at those offsets), and
:class:`~repro.packet.builder.PacketBuilder` is the one frame encoder. The
builder never reads those rows, so it is the independent encoder
``tests/openflow/test_field_layout.py`` pins every row against.
"""

ETH_TYPE_IPV4 = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_VLAN = 0x8100
ETH_TYPE_IPV6 = 0x86DD

IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17
IP_PROTO_ICMPV6 = 58

#: IPv6 extension headers the parser walks through to find L4.
IPV6_EXT_HEADERS = frozenset({0, 43, 44, 60, 51})
IPV6_HEADER_LEN = 40

ETH_HEADER_LEN = 14
VLAN_TAG_LEN = 4
IPV4_MIN_HEADER_LEN = 20
TCP_MIN_HEADER_LEN = 20
UDP_HEADER_LEN = 8
ICMP_HEADER_LEN = 4
ARP_IPV4_LEN = 28
#: htype 1, ptype 0x0800, hlen 6, plen 4: the only ARP the parser reads.
ARP_ETH_IPV4 = bytes((0, 1, 8, 0, 6, 4))
