"""repro — a full reproduction of ESWITCH (SIGCOMM 2016).

ESWITCH ("Dataplane Specialization for High-performance OpenFlow Software
Switching", Molnar et al., SIGCOMM 2016) compiles an OpenFlow pipeline into a
specialized fast path using template-based code generation, instead of the
flow-caching architecture of Open vSwitch.

This package contains:

* :mod:`repro.core` — the ESWITCH compiler and runtime (the paper's
  contribution): parser/matcher/table/action templates, flow-table analysis,
  table decomposition, template specialization, linking, and transactional
  datapath updates.
* :mod:`repro.ovs` — a behaviorally faithful Open vSwitch baseline
  (microflow cache, megaflow cache with tuple space search, vswitchd).
* :mod:`repro.openflow` — the OpenFlow 1.3 substrate: match fields, flow
  tables, pipelines, actions, instructions, and controller messages.
* :mod:`repro.packet` / :mod:`repro.net` — packet headers, parsing, and
  address utilities.
* :mod:`repro.dpdk` — simulated DPDK substrate: DIR-24-8 LPM, collision-free
  hash, ports, and the l2fwd platform benchmark.
* :mod:`repro.simcpu` — the performance model: platform specs, a cache
  hierarchy simulator, per-template cycle cost atoms, and the analytic
  bounds of the paper's Section 4.4.
* :mod:`repro.traffic` / :mod:`repro.usecases` — workload generators and the
  four evaluation use cases (L2, L3, load balancer, access gateway).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
