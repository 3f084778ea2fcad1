"""Seeded scenario generation: rung-targeted pipelines, boundary-biased
traffic, and mid-stream flow-mod schedules.

``generate(seed)`` is a pure function of its arguments — same seed,
same scenario, byte for byte — which is what makes ``repro fuzz --seed``
replayable and the CI smoke leg a fixed corpus in disguise.

Pipelines are generated *per template rung*: every table aims at one
rung of the ESWITCH lattice (direct / hash / LPM / linked list /
decomposable), so a short fuzz run still visits every code generator.
Traffic is biased toward match/miss boundaries (off-by-one values,
in-mask and off-mask bit flips near installed rules) plus a tail of
malformed frames; flow-mod batches land between bursts, including
batches built to be *rejected* by admission control.

Three structured presets (``generate_large``, ``generate_churn``,
``generate_fabric_outage``) are short bodies over one cohort vocabulary.
"""

from __future__ import annotations

import random

from repro.fuzz import domain
from repro.fuzz.scenario import Scenario, packet_to_obj
from repro.openflow.flow_table import TableMissPolicy
from repro.openflow.groups import GroupType

RUNGS = ("direct", "hash", "lpm", "linked_list", "decompose")

_MISS_POLICIES = [p.value for p in TableMissPolicy]
_GROUP_TYPES = [g.value for g in GroupType]


class GenerationError(RuntimeError):
    """The generator could not produce a valid scenario for a seed."""


def _match_obj(fields: dict) -> dict:
    out = {}
    for name, (value, mask) in fields.items():
        if mask == domain.full_mask(name):
            out[name] = value
        else:
            out[name] = {"value": value, "mask": mask}
    return out


def _prefix(field: str, value: int, plen: int) -> dict:
    full = domain.full_mask(field)
    mask = (full << (32 - plen)) & full
    return {field: (value & mask, mask)}


def _actions(rng, group_ids) -> list:
    acts: list = []
    n = 1 + (rng.random() < 0.3)
    for _ in range(n):
        roll = rng.random()
        if roll < 0.55:
            acts.append({"output": rng.randint(1, 4)})
        elif roll < 0.65:
            acts.append("drop")
        elif roll < 0.72:
            acts.append("controller")
        elif roll < 0.82:
            field = rng.choice(["eth_dst", "ipv4_dst", "tcp_dst"])
            acts.append({"set": {field: domain.domain_value(rng, field)}})
        elif roll < 0.87:
            acts.append("dec_ttl")
        elif roll < 0.90:
            acts.append("pop_vlan")
        elif roll < 0.93:
            acts.append({"push_vlan": {"vid": rng.randint(1, 4094)}})
        elif group_ids and roll < 0.97:
            acts.append({"group": rng.choice(group_ids)})
        else:
            acts.append("flood")
    return acts


def _entry_obj(rng, fields, priority, later_ids, group_ids, meter_ids) -> dict:
    obj: dict = {
        "priority": priority,
        "match": _match_obj(fields),
        "apply": _actions(rng, group_ids),
    }
    if rng.random() < 0.15:
        obj["write"] = _actions(rng, group_ids)[:1]
    if rng.random() < 0.05:
        obj["clear"] = True
    if later_ids and rng.random() < 0.3:
        obj["goto"] = rng.choice(later_ids)
    if meter_ids and rng.random() < 0.25:
        obj["meter"] = rng.choice(meter_ids)
    return obj


# -- per-rung table builders -------------------------------------------------
#
# Each returns (table_obj, profiles): the serialize-dialect table document
# plus the field-constraint maps of its entries, which the traffic
# generator later aims packets at.


def _build_direct(rng, tid, later, groups, meters):
    profiles = [domain.random_fields(rng) for _ in range(rng.randint(1, 4))]
    entries = [
        _entry_obj(rng, f, rng.randint(0, 7), later, groups, meters)
        for f in profiles
    ]
    return entries, profiles


def _build_hash(rng, tid, later, groups, meters):
    profile = rng.choice(["l2", "v4", "v4tcp", "v4udp", "v6"])
    names = rng.sample(
        list(domain.PROFILES[profile]), rng.randint(1, 2)
    )
    mask_of = {n: domain.random_mask(rng, n) for n in names}
    entries, profiles, seen = [], [], set()
    for _ in range(rng.randint(5, 10)):
        fields = {
            n: (domain.domain_value(rng, n) & mask_of[n], mask_of[n])
            for n in names
        }
        key = tuple(sorted(fields.items()))
        if key in seen:
            continue  # CollisionFreeHash needs distinct keys
        seen.add(key)
        entries.append(
            _entry_obj(rng, fields, rng.randint(1, 7), later, groups, meters)
        )
        profiles.append(fields)
    if rng.random() < 0.3:
        # Split-off catch-all: lowest priority, strictly or level with the
        # lowest rules — seated last either way, as it is installed last.
        lowest = min(entry["priority"] for entry in entries)
        entries.append(
            _entry_obj(rng, {}, rng.choice((0, lowest)), later, groups, meters)
        )
    return entries, profiles


def _build_lpm(rng, tid, later, groups, meters):
    field = rng.choice(["ipv4_src", "ipv4_dst"])
    entries, profiles, seen = [], [], set()
    for _ in range(rng.randint(5, 10)):
        plen = rng.choice([8, 16, 24, 32, rng.randint(1, 32)])
        fields = _prefix(field, domain.domain_value(rng, field), plen)
        if fields[field] in seen:
            continue
        seen.add(fields[field])
        # LPM consistency: priority must equal prefix length.
        entries.append(_entry_obj(rng, fields, plen, later, groups, meters))
        profiles.append(fields)
    if rng.random() < 0.4:
        entries.append(_entry_obj(rng, {}, 0, later, groups, meters))
    return entries, profiles


def _build_linked_list(rng, tid, later, groups, meters):
    entries, profiles = [], []
    for _ in range(rng.randint(5, 10)):
        fields = domain.random_fields(rng)
        entries.append(
            _entry_obj(rng, fields, rng.choice([3, 3, 5, 5, rng.randint(0, 9)]),
                       later, groups, meters)
        )
        profiles.append(fields)
    # Defeat decomposition: one column, two different masks.
    for mask in (0xFFFFFF00, 0xFFFF0000):
        fields = {"ipv4_src": (domain.domain_value(rng, "ipv4_src") & mask, mask)}
        entries.append(_entry_obj(rng, fields, 3, later, groups, meters))
        profiles.append(fields)
    return entries, profiles


def _build_decompose(rng, tid, later, groups, meters):
    profile = rng.choice(["v4", "v4tcp", "v4udp"])
    names = list(domain.PROFILES[profile])
    mask_of = {n: domain.random_mask(rng, n) for n in names}
    entries, profiles = [], []
    for _ in range(rng.randint(5, 9)):
        k = rng.randint(1, min(3, len(names)))
        chosen = rng.sample(names, k)
        fields = {
            n: (domain.domain_value(rng, n) & mask_of[n], mask_of[n])
            for n in chosen
        }
        priority = rng.randint(0, 7)
        if profiles and rng.random() < 0.4:
            # Shadowed row: an earlier match repeated or narrowed, at or
            # below its priority. Set pruning must find it unreachable.
            above = rng.randrange(len(profiles))
            fields.update(profiles[above])
            priority = rng.randint(0, entries[above]["priority"])
        if "ip_proto" in fields:
            if any(f.startswith("tcp_") for f in fields):
                fields["ip_proto"] = (6, domain.full_mask("ip_proto"))
            elif any(f.startswith("udp_") for f in fields):
                fields["ip_proto"] = (17, domain.full_mask("ip_proto"))
        entries.append(_entry_obj(rng, fields, priority, later, groups, meters))
        profiles.append(fields)
    if rng.random() < 0.3:  # a catch-all mid-table: rules under it are dead
        entries.append(
            _entry_obj(rng, {}, rng.randint(0, 4), later, groups, meters)
        )
    return entries, profiles


_BUILDERS = {
    "direct": _build_direct,
    "hash": _build_hash,
    "lpm": _build_lpm,
    "linked_list": _build_linked_list,
    "decompose": _build_decompose,
}


# -- traffic and flow-mod schedules ------------------------------------------


def _burst(rng, profiles, size) -> list:
    out = []
    for _ in range(size):
        roll = rng.random()
        if profiles and roll < 0.70:
            fields = dict(rng.choice(profiles))
            if rng.random() < 0.5:
                fields = domain.perturb_fields(rng, fields)
            pkt = domain.packet_for_fields(rng, fields)
        elif roll > 0.85:
            pkt = domain.malformed_packet(rng)
        else:
            pkt = domain.packet_for_fields(rng, domain.random_fields(rng))
        out.append(packet_to_obj(pkt))
    return out


def _mods_batch(rng, tids, profiles, group_ids, meter_ids, quarantine, level) -> list:
    """``level``: per table holding a catch-all, its rules' field maps and
    the catch-all's priority."""
    batch = []
    for _ in range(rng.randint(1, 3)):
        # Bias toward quarantined tables: a clean rebuild heals them, and
        # post-heal parity is exactly what the fuzzer is hunting.
        tid = (rng.choice(list(quarantine))
               if quarantine and rng.random() < 0.4 else rng.choice(tids))
        later = [t for t in tids if t > tid]
        if profiles and rng.random() < 0.35:
            fields = dict(rng.choice(profiles))
            obj = {
                "cmd": "delete",
                "table": tid,
                "match": _match_obj(fields),
                "priority": rng.randint(0, 9),
                "strict": rng.random() < 0.5,
            }
        else:
            fields = domain.random_fields(rng)
            priority = rng.randint(0, 9)
            if tid in level and rng.random() < 0.4:
                # One of the table's own shapes, level with its catch-all:
                # installed behind it, the catch-all shadows the new rule.
                shapes, priority = level[tid]
                fields = {
                    name: (domain.domain_value(rng, name) & mask, mask)
                    for name, (_value, mask) in rng.choice(shapes).items()
                }
            obj = _entry_obj(rng, fields, priority, later, group_ids, meter_ids)
            obj["cmd"] = rng.choice(["add", "add", "modify"])
            obj["table"] = tid
            profiles.append(fields)
        batch.append(obj)
    if rng.random() < 0.25:
        # A poison mod: admission must reject the whole batch, leaving
        # every backend bit-identical to the no-op.
        poison = rng.randrange(3)
        obj = {
            "cmd": "add",
            "table": rng.choice(tids),
            "match": {},
            "priority": 1,
            "apply": [{"output": 1}],
        }
        if poison == 0:
            obj["table"] = 300  # beyond the 255-table id space
        elif poison == 1:
            obj["goto"] = 250  # resolvable id space, nonexistent table
        else:
            obj["priority"] = 0x10000  # out of OpenFlow's 16-bit range
        batch.insert(rng.randrange(len(batch) + 1), obj)
    return batch


# -- the generator -----------------------------------------------------------


def generate(seed: int, *, max_tables: int = 4,
             force_rungs: "tuple | None" = None) -> Scenario:
    """One scenario, deterministically, from ``seed``.

    ``force_rungs`` pins the per-table template targets (cycled when
    shorter than the table count) — how the corpus curation script gets
    one scenario per lattice rung.
    """
    for attempt in range(10):
        scenario = _generate_once(
            random.Random(f"{seed}/{attempt}"), seed, max_tables, force_rungs
        )
        if _sane(scenario):
            return scenario
    raise GenerationError(f"seed {seed}: no valid scenario in 10 attempts")


def _generate_once(rng, seed, max_tables, force_rungs) -> Scenario:
    n_tables = (len(force_rungs) if force_rungs
                else rng.randint(1, max_tables))
    rungs = [
        force_rungs[i % len(force_rungs)] if force_rungs
        else rng.choice(RUNGS)
        for i in range(n_tables)
    ]

    group_ids: list = []
    groups_obj = []
    if rng.random() < 0.3:
        for gid in range(1, rng.randint(2, 3)):
            gtype = rng.choice(_GROUP_TYPES)
            n_buckets = 1 if gtype == "indirect" else rng.randint(1, 3)
            buckets = [
                {"weight": rng.randint(1, 4),
                 "actions": [{"output": rng.randint(1, 4)}]}
                for _ in range(n_buckets)
            ]
            groups_obj.append({"id": gid, "type": gtype, "buckets": buckets})
            group_ids.append(gid)

    meter_ids: list = []
    meters_obj = []
    tight_meter = False
    if rng.random() < 0.25:
        tight_meter = rng.random() < 0.3
        meters_obj.append({"id": 1, "rate_pps": 1000.0, "burst": 1})
        meter_ids.append(1)

    tables_obj, profiles, level = [], [], {}
    tids = list(range(n_tables))
    for tid, rung in zip(tids, rungs):
        later = [t for t in tids if t > tid]
        entries, table_profiles = _BUILDERS[rung](
            rng, tid, later, group_ids, meter_ids
        )
        tables_obj.append({
            "id": tid,
            "name": f"t{tid}-{rung}",
            "miss": rng.choice(_MISS_POLICIES),
            "entries": entries,
        })
        profiles.extend(table_profiles)
        catch_alls = [e["priority"] for e in entries if not e["match"]]
        if catch_alls and table_profiles:
            level[tid] = (table_profiles, catch_alls[-1])

    quarantine: tuple = ()
    if rng.random() < 0.2:
        quarantine = (rng.choice(tids),)
    degrade_fuse = rng.random() < 0.15

    events: list = []
    for i in range(rng.randint(1, 4)):
        if i and rng.random() < 0.5:
            events.append({"mods": _mods_batch(
                rng, tids, profiles, group_ids, meter_ids, quarantine, level
            )})
        events.append({"burst": _burst(rng, profiles, rng.randint(2, 12))})

    scenario = Scenario(
        pipeline_obj={
            **({"groups": groups_obj} if groups_obj else {}),
            **({"meters": meters_obj} if meters_obj else {}),
            "tables": tables_obj,
        },
        events=events,
        seed=seed,
        quarantine=quarantine,
        degrade_fuse=degrade_fuse,
        tight_meter=tight_meter,
    )
    if meters_obj and not tight_meter:
        # A meter that can never fire: rate-limit state stays identical
        # across sharded replicas, keeping workers>1 comparable.
        meters_obj[0]["burst"] = scenario.total_packets() + 16
    return scenario


# -- the structured classes, over one cohort vocabulary -----------------------
#
# Tagged MAC cohorts, IPv4 prefixes, rules and strict deletes, aimed
# probes, a chain of drop-on-miss tables.


def _mac(tag: int, i: int) -> dict:
    """Exact ``eth_dst`` map: cohort ``tag``, member ``i``."""
    return {"eth_dst": ((0x02 << 40) | (tag << 32) | i,
                        domain.full_mask("eth_dst"))}


def _rule(fields: dict, priority: int, action, goto=None) -> dict:
    """An entry object; an int ``action`` is an output port."""
    obj = {"priority": priority, "match": _match_obj(fields),
           "apply": [{"output": action} if isinstance(action, int) else action]}
    return obj if goto is None else {**obj, "goto": goto}


def _add(table: int, fields: dict, priority: int, action, goto=None) -> dict:
    return {"cmd": "add", "table": table, **_rule(fields, priority, action, goto)}


def _delete(table: int, fields: dict, priority: int) -> dict:
    return {"cmd": "delete", "table": table, "priority": priority,
            "match": _match_obj(fields), "strict": True}


def _pair(tag: int, index: int) -> tuple:
    """Round ``index``'s MAC and /24."""
    return _mac(tag, index), _prefix("ipv4_dst", (172 << 24) | (index << 8), 24)


def _pair_batch(tag: int, index: int, lpm_goto) -> list:
    """One MAC into table 0 and one /24 into table 1; odd rounds also
    strict-delete the previous round's pair: sustained churn."""
    mac, pfx = _pair(tag, index)
    batch = [_add(0, mac, 1, 4, goto=1), _add(1, pfx, 24, 4, goto=lpm_goto)]
    if index % 2:
        prev_mac, prev_pfx = _pair(tag, index - 1)
        batch += [_delete(0, prev_mac, 1), _delete(1, prev_pfx, 24)]
    return batch


def _aimed(rng, picks, perturb: float = 0.0) -> dict:
    """One probe packet over the merged field maps of ``picks``: a dict is
    taken as is, a list is drawn from. ``perturb`` is the chance of a
    boundary perturbation of the merged map."""
    fields: dict = {}
    for pick in picks:
        fields.update(pick if isinstance(pick, dict) else rng.choice(pick))
    if perturb and rng.random() < perturb:
        fields = domain.perturb_fields(rng, fields)
    return packet_to_obj(domain.packet_for_fields(rng, fields))


def _tables(*specs) -> dict:
    """The pipeline document of ``(name, entries)`` tables, ids in order."""
    return {"tables": [
        {"id": tid, "name": f"t{tid}-{name}", "miss": "drop", "entries": entries}
        for tid, (name, entries) in enumerate(specs)
    ]}


def _lpm(n: int, value_of, goto=None) -> tuple:
    """``n`` nested ``ipv4_dst`` prefixes, a /16 every fourth and /24s
    between (``value_of(i, plen)``), priority = prefix length (LPM
    consistency): ``(profiles, entries)``."""
    profiles, entries = [], []
    for i in range(n):
        plen = 16 if i % 4 == 0 else 24
        profiles.append(_prefix("ipv4_dst", value_of(i, plen), plen))
        entries.append(_rule(profiles[-1], plen, 1 + (i & 3), goto))
    return profiles, entries


def generate_large(seed: int, n_entries: int = 96) -> Scenario:
    """The large-cardinality scenario class, scaled by argument.

    Three chained tables at ``n_entries`` entries each cover the scale
    rungs ``tests/core/test_churn_at_scale.py`` counts at 1e5, differentially:

    * **hash** — exact ``eth_dst`` keys (the incremental perfect-hash
      store, grown further by the churn schedule);
    * **LPM** — nested /16 + /24 ``ipv4_dst`` prefixes (tbl8 allocation
      and the depth-consistency prerequisite);
    * **direct** — a raised ``direct_threshold`` pins the last,
      half-sized table onto the direct-code rung, keys in code.

    Between bursts, ADD/strict-DELETE batches churn the hash and LPM
    tables — the incremental update paths (hash-store inserts, slot
    recycling, shape-stability skips) run under the oracle, not just
    under the scale tests. CI keeps ``n_entries`` small; the class scales
    to 10⁴–10⁵ by argument, not by new code.
    """
    if n_entries < 40:
        raise ValueError("generate_large needs n_entries >= 40")
    # ``direct_threshold`` is a global knob: it must sit *between* the
    # direct table's size and the hash/LPM tables' sizes, or every table
    # would land on the direct rung.
    n_direct = n_entries // 2
    rng = random.Random(f"large/{seed}")
    macs = [_mac(0xAB, i) for i in range(n_entries)]
    prefixes, lpm_entries = _lpm(n_entries, lambda i, plen: (
        (10 << 24) | ((i & 0xFF) << 16) if plen == 16
        else (10 << 24) | ((i >> 8) << 16) | ((i & 0xFF) << 8)), goto=2)
    sources = [_prefix("ipv4_src", (192 << 24) | (168 << 16) | i, 32)
               for i in range(n_direct)]
    pipeline = _tables(
        ("hash-large", [_rule(f, 1, 1 + (i & 3), goto=1)
                        for i, f in enumerate(macs)] + [_rule({}, 0, 1, goto=1)]),
        ("lpm-large", lpm_entries + [_rule({}, 0, 2, goto=2)]),
        ("direct", [_rule(f, 2, 1 + (i & 3)) for i, f in enumerate(sources)]
         + [_rule({}, 0, "drop")]),
    )

    def probes(size: int) -> dict:
        picks = (macs, prefixes, sources)
        return {"burst": [_aimed(rng, picks, 0.3) for _ in range(size)]}

    events: list = [probes(8)]
    for index in range(4):
        events.append({"mods": _pair_batch(0xCD, index, lpm_goto=2)})
        mac, pfx = _pair(0xCD, index)  # the churned pair draws probes too
        macs.append(mac)
        prefixes.append(pfx)
        events.append(probes(6))

    return Scenario(
        pipeline_obj=pipeline,
        events=events,
        seed=seed,
        name=f"large-{n_entries}",
        note="large-cardinality class: hash growth, LPM growth, "
             "direct rung under a raised threshold",
        direct_threshold=n_direct + 8,
    )


def generate_churn(seed: int, n_entries: int = 160) -> Scenario:
    """The churn-wall scenario class: tombstones, compaction, expiry.

    A hash-rung table whose flow population is stressed exactly the way
    the entry store's bug class manifests, differentially:

    * **idle expiry** — one cohort gets traffic only before the first
      clock tick and idle-expires at the second;
    * **activity refresh** — a keep-alive cohort is fed every inter-tick
      window, so its idle deadlines keep moving and it must survive;
    * **hard-beats-idle** — a cohort carrying *both* timeouts stays
      active right up to its hard deadline and must expire ``"hard"``;
    * **tombstone storm** — a single strict-delete batch kills a cohort
      larger than ``COMPACT_MIN_DEAD``, driving the dead fraction over
      the amortized-compaction threshold mid-batch, with aimed traffic
      before and after the compaction;
    * **no-op deletes** — strict deletes re-targeting already-expired
      rules remove nothing and must bump nothing anywhere.

    Every backend runs its own :class:`ExpiryManager` against the shared
    event clock, so expiry decisions are themselves an oracle output.
    """
    if n_entries < 160:
        # The storm cohort (2/5 of the population) must cross the
        # compaction floor (COMPACT_MIN_DEAD = 64) in one batch.
        raise ValueError("generate_churn needs n_entries >= 160")
    rng = random.Random(f"churn/{seed}")

    n5 = n_entries // 5
    idle_victims = range(0, n5)                   # expire idle at t=6
    keepalive = range(n5, 2 * n5)                 # fed every window
    hard_both = range(2 * n5, 2 * n5 + n5 // 2)   # active to the end: hard
    hard_solo = range(2 * n5 + n5 // 2, 3 * n5)   # no idle, no traffic
    storm = range(3 * n5, n_entries)              # strict-delete storm

    macs = [_mac(0xEE, i) for i in range(n_entries)]
    hash_entries = []
    for i, mac in enumerate(macs):
        obj = _rule(mac, 1, 1 + (i & 3), goto=1)
        if i in idle_victims or i in keepalive or i in hard_both:
            obj["idle_timeout"] = 4.0
        if i in hard_both or i in hard_solo:
            obj["hard_timeout"] = 12.0
        hash_entries.append(obj)
    prefixes, lpm_entries = _lpm(16, lambda i, plen: (
        (10 << 24) | (i << 16) if plen == 16
        else (10 << 24) | ((i & 3) << 16) | (i << 8)))

    def probes(indices) -> dict:
        return {"burst": [_aimed(rng, (macs[i], prefixes)) for i in indices]}

    def deletes(indices) -> dict:
        return {"mods": [_delete(0, macs[i], 1) for i in indices]}

    fed = list(keepalive) + list(hard_both)
    events: list = [
        probes(list(idle_victims)[:8] + fed),
        {"tick": 1.0},   # first observe: timed cohorts start tracking
        {"mods": _pair_batch(0xDD, 0, lpm_goto=None)},
        {"mods": _pair_batch(0xDD, 1, lpm_goto=None)},
        probes(fed),
        {"tick": 6.0},   # idle victims (quiet since before t=1) expire
        # Re-deleting rules the t=6 tick already expired: pure no-ops.
        deletes(list(idle_victims)[:4]),
        {"mods": _pair_batch(0xDD, 2, lpm_goto=None)},
        probes(fed),
        deletes(storm),  # tombstones cross the compaction threshold
        probes(list(keepalive)[:12]),
        {"tick": 14.0},  # hard deadlines due; refreshed idle flows survive
        probes(list(keepalive)[:8] + list(storm)[:4]),
    ]

    return Scenario(
        pipeline_obj=_tables(
            ("hash-churn", hash_entries + [_rule({}, 0, 1, goto=1)]),
            ("lpm-churn", lpm_entries + [_rule({}, 0, "drop")]),
        ),
        events=events,
        seed=seed,
        name=f"churn-{n_entries}",
        note="churn-wall class: tombstone storms, amortized compaction, "
             "idle+hard expiry ticks, no-op strict deletes",
    )


def generate_fabric_outage(seed: int, n_cohorts: int = 12) -> Scenario:
    """The fabric-outage scenario class: blackout mid flow-mod storm.

    The control session goes dark in the middle of a sustained flow-mod
    storm, reconnects, the controller re-delivers what was lost (the
    resync), and after convergence the table state — and therefore every
    verdict — must be indistinguishable from a run that never
    disconnected. That is exactly the invariant the fabric supervisor's
    recovery path leans on, pinned here differentially:

    * the **storm**: ``n_cohorts`` flow-mod batches; batch *i* admits
      cohort *i* (4 MAC rules into the hash table, 1 prefix into the
      LPM table) and strict-deletes cohort *i - 2* — sustained add +
      delete churn, the worst case for replaying out of order;
    * the **outage window** (``scenario.outage``): the middle third of
      the storm. The parity harness submits those batches against a
      DOWN session (typed ``CHANNEL_DOWN`` rejects, nothing applied)
      and re-delivers them, in order, after the evidence-based resync;
    * aimed **probe bursts** between batches keep the caches hot across
      the window, and a final all-cohort probe is the convergence
      oracle both runs must agree on.

    The differential matrix runs the same scenario with every batch
    delivered — the never-disconnected baseline — so the corpus entry
    also keeps every backend of the matrix (:mod:`repro.fuzz.diff`)
    honest about the storm itself.
    """
    if n_cohorts < 6:
        raise ValueError("generate_fabric_outage needs n_cohorts >= 6")
    rng = random.Random(f"fabric-outage/{seed}")

    def macs(cohort: int) -> list:
        return [_mac(0xFA, (cohort << 8) | i) for i in range(4)]

    def prefix(cohort: int) -> dict:
        return _prefix("ipv4_dst", (192 << 24) | (cohort << 8), 24)

    # A small steady population so the pipeline is never empty: cohort
    # numbering starts after it and never collides.
    steady = list(range(n_cohorts, n_cohorts + 8))
    steady_prefixes = [prefix(c) for c in steady]

    def storm_batch(cohort: int) -> list:
        batch = [_add(0, mac, 1, 1 + ((cohort + i) & 3), goto=1)
                 for i, mac in enumerate(macs(cohort))]
        batch.append(_add(1, prefix(cohort), 24, 1 + (cohort & 3)))
        if cohort >= 2:  # sustained churn: evict the -2 cohort
            batch += [_delete(0, mac, 1) for mac in macs(cohort - 2)]
            batch.append(_delete(1, prefix(cohort - 2), 24))
        return batch

    def probes(cohorts) -> dict:
        return {"burst": [_aimed(rng, (macs(c), steady_prefixes))
                          for c in cohorts]}

    begin, end = n_cohorts // 3, (2 * n_cohorts) // 3
    events: list = [probes(steady)]
    for cohort in range(n_cohorts):
        events.append({"mods": storm_batch(cohort)})
        # Probes aimed at the latest cohort and at one the storm already
        # evicted: both the add and the delete side stay observable.
        events.append(probes([cohort, max(0, cohort - 2)]))
    # The convergence oracle: every cohort ever admitted, the survivors
    # (last two) forwarding, everything evicted punting at the miss rule.
    events.append(probes(list(range(n_cohorts)) + steady))

    return Scenario(
        pipeline_obj=_tables(
            ("hash-fabric", [_rule(macs(c)[0], 1, 1 + (c & 3), goto=1)
                             for c in steady] + [_rule({}, 0, "controller")]),
            ("lpm-fabric", [_rule(f, 24, 1 + (c & 3))
                            for c, f in zip(steady, steady_prefixes)]
             + [_rule({}, 0, "drop")]),
        ),
        events=events,
        seed=seed,
        name=f"fabric-outage-{n_cohorts}",
        note="fabric-outage class: session blackout + resync during a "
             "flow-mod storm; verdict parity with the never-disconnected "
             "run after convergence",
        outage=(begin, end),
    )


def _sane(scenario: Scenario) -> bool:
    """Load-check, then dry-run the reference interpreter: a scenario
    whose *reference* crashes is a generator bug, not a differential
    finding."""
    try:
        scenario.check()
        pipeline = scenario.build_pipeline()
        for event in scenario.events:
            for pkt in scenario.build_packets(event.get("burst", ())):
                pipeline.process(pkt)
        return True
    except Exception:
        return False
