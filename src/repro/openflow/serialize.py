"""JSON (de)serialization of pipelines.

A pipeline is a plain declarative artifact — "OpenFlow as a declarative
language to program the dataplane" — so it serializes naturally. The
format is stable and human-writable; the CLI (``python -m repro``)
compiles pipelines straight from these files.

Schema (all numbers accept the usual Match value spellings — ints,
dotted quads, ``addr/prefix`` strings, MAC strings)::

    {
      "tables": [
        {
          "id": 0,
          "name": "acl",
          "miss": "drop" | "controller",
          "entries": [
            {
              "priority": 10,
              "match": {"ipv4_dst": "192.0.2.0/24", "tcp_dst": 80},
              "apply": [{"output": 2}, {"set": {"ipv4_dst": "10.0.0.1"}}],
              "write": [...],           // optional write-actions
              "clear": true,            // optional clear-actions
              "metadata": {"value": 1, "mask": 255},   // optional
              "goto": 1                 // optional goto_table
            }
          ]
        }
      ]
    }

Action objects: ``{"output": port}``, ``{"set": {field: value}}``,
``"drop"``, ``"controller"``, ``"flood"``, ``"dec_ttl"``, ``"pop_vlan"``,
``{"push_vlan": {"vid": 100, "pcp": 0}}``, ``{"group": 7}``.

Group tables serialize alongside the flow tables::

    {
      "groups": [
        {"id": 7, "type": "select",
         "buckets": [{"weight": 2, "actions": [{"output": 1}]},
                     {"actions": [{"output": 2}]}]}
      ],
      "tables": [...]
    }
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator

from repro.net.addresses import int_to_ip, int_to_mac
from repro.openflow.actions import (
    Action,
    Controller,
    DecTtl,
    Drop,
    Flood,
    Output,
    PopVlan,
    PushVlan,
    SetField,
)
from repro.openflow.fields import field_by_name
from repro.openflow.groups import Bucket, Group, GroupAction, GroupTable, GroupType
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    Instruction,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.meters import MeterInstruction, MeterTable
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline, PipelineError


class SerializationError(ValueError):
    """Raised on malformed pipeline documents."""


@contextmanager
def _located(where: str = "") -> Iterator[None]:
    """Raise whatever a malformed value trips on inside the block — a bad
    type, a missing key, an out-of-range number — as a SerializationError,
    prefixed with ``where`` in the document when given."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, PipelineError) as exc:
        if isinstance(exc, SerializationError) and not where:
            raise
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise SerializationError(f"{where}: {detail}" if where else detail) from exc


# -- actions ---------------------------------------------------------------

_SIMPLE_ACTIONS = {
    "drop": Drop,
    "controller": Controller,
    "flood": Flood,
    "dec_ttl": DecTtl,
    "pop_vlan": PopVlan,
}
_SIMPLE_NAMES = {cls: name for name, cls in _SIMPLE_ACTIONS.items()}


def action_to_obj(action: Action) -> Any:
    if type(action) in _SIMPLE_NAMES:
        return _SIMPLE_NAMES[type(action)]
    if isinstance(action, Output):
        return {"output": action.port}
    if isinstance(action, SetField):
        return {"set": {action.field: action.value}}
    if isinstance(action, PushVlan):
        return {"push_vlan": {"vid": action.vid, "pcp": action.pcp}}
    if isinstance(action, GroupAction):
        return {"group": action.group_id}
    raise SerializationError(f"cannot serialize action {action!r}")


def action_from_obj(obj: Any, groups: "GroupTable | None" = None) -> Action:
    if isinstance(obj, str):
        cls = _SIMPLE_ACTIONS.get(obj)
        if cls is None:
            raise SerializationError(f"unknown action {obj!r}")
        return cls()
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SerializationError(f"malformed action object {obj!r}")
    (kind, value), = obj.items()
    with _located(f"action {obj!r}"):
        if kind == "output":
            return Output(int(value))
        if kind == "set":
            if not isinstance(value, dict) or len(value) != 1:
                raise SerializationError("malformed set action")
            (field, fvalue), = value.items()
            return SetField(field, _field_value(field, fvalue))
        if kind == "push_vlan":
            return PushVlan(vid=int(value.get("vid", 0)), pcp=int(value.get("pcp", 0)))
        if kind == "group":
            if groups is None:
                raise SerializationError(
                    "group action outside a pipeline document with groups"
                )
            return GroupAction(groups, int(value))
    raise SerializationError(f"unknown action {kind!r}")


def _field_value(field: str, value: Any) -> int:
    if isinstance(value, int):
        return value
    from repro.openflow.match import _to_int

    return _to_int(field_by_name(field), value)


# -- matches ------------------------------------------------------------------

def match_to_obj(match: Match) -> dict:
    out: dict[str, Any] = {}
    for name, (value, mask) in match.items():
        fdef = field_by_name(name)
        if mask == fdef.max_value:
            if name in ("ipv4_src", "ipv4_dst", "arp_spa", "arp_tpa"):
                out[name] = int_to_ip(value)
            elif name in ("eth_src", "eth_dst", "arp_sha", "arp_tha"):
                out[name] = int_to_mac(value)
            else:
                out[name] = value
        else:
            try:
                plen = mask.bit_count() if match.is_prefix(name) else None
            except Exception:
                plen = None
            if plen is not None and name in ("ipv4_src", "ipv4_dst", "arp_spa",
                                             "arp_tpa"):
                out[name] = f"{int_to_ip(value)}/{plen}"
            else:
                out[name] = {"value": value, "mask": mask}
    return out


def match_from_obj(obj: dict) -> Match:
    if not isinstance(obj, dict):
        raise SerializationError(f"match must be an object, got {obj!r}")
    spec: dict[str, Any] = {}
    for name, value in obj.items():
        if isinstance(value, dict):
            if set(value) != {"value", "mask"}:
                raise SerializationError(f"malformed masked match {value!r}")
            spec[name] = (value["value"], value["mask"])
        else:
            spec[name] = value
    try:
        return Match(**spec)
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"invalid match {obj!r}: {exc}") from exc


# -- entries / tables / pipelines ------------------------------------------------

def entry_to_obj(entry: FlowEntry) -> dict:
    out: dict[str, Any] = {
        "priority": entry.priority,
        "match": match_to_obj(entry.match),
    }
    for instr in entry.instructions:
        if isinstance(instr, ApplyActions):
            out["apply"] = [action_to_obj(a) for a in instr.actions]
        elif isinstance(instr, WriteActions):
            out["write"] = [action_to_obj(a) for a in instr.actions]
        elif isinstance(instr, ClearActions):
            out["clear"] = True
        elif isinstance(instr, WriteMetadata):
            out["metadata"] = {"value": instr.value, "mask": instr.mask}
        elif isinstance(instr, GotoTable):
            out["goto"] = instr.table_id
        elif isinstance(instr, MeterInstruction):
            out["meter"] = instr.meter_id
        else:
            raise SerializationError(f"cannot serialize instruction {instr!r}")
    if entry.cookie:
        out["cookie"] = entry.cookie
    if entry.idle_timeout:
        out["idle_timeout"] = entry.idle_timeout
    if entry.hard_timeout:
        out["hard_timeout"] = entry.hard_timeout
    return out


def entry_from_obj(
    obj: dict,
    groups: "GroupTable | None" = None,
    meters: "MeterTable | None" = None,
) -> FlowEntry:
    if not isinstance(obj, dict):
        raise SerializationError(f"entry must be an object, got {obj!r}")
    instructions: list = []
    with _located():
        if "meter" in obj:
            if meters is None:
                raise SerializationError("meter instruction without a meter table")
            instructions.append(MeterInstruction(meters, int(obj["meter"])))
        if obj.get("clear"):
            instructions.append(ClearActions())
        if "apply" in obj:
            instructions.append(
                ApplyActions([action_from_obj(a, groups) for a in obj["apply"]])
            )
        if "write" in obj:
            instructions.append(
                WriteActions([action_from_obj(a, groups) for a in obj["write"]])
            )
        if "metadata" in obj:
            md = obj["metadata"]
            instructions.append(
                WriteMetadata(value=int(md["value"]),
                              mask=int(md.get("mask", (1 << 64) - 1)))
            )
        if "goto" in obj:
            instructions.append(GotoTable(int(obj["goto"])))
        return FlowEntry(
            match=match_from_obj(obj.get("match", {})),
            priority=int(obj.get("priority", 0)),
            instructions=tuple(instructions),
            cookie=int(obj.get("cookie", 0)),
            idle_timeout=float(obj.get("idle_timeout", 0.0)),
            hard_timeout=float(obj.get("hard_timeout", 0.0)),
        )


def table_to_obj(table: FlowTable) -> dict:
    return {
        "id": table.table_id,
        "name": table.name,
        "miss": table.miss_policy.value,
        "entries": [entry_to_obj(e) for e in table],
    }


def table_from_obj(
    obj: dict,
    groups: "GroupTable | None" = None,
    meters: "MeterTable | None" = None,
) -> FlowTable:
    if not isinstance(obj, dict) or "id" not in obj:
        raise SerializationError(f"table object needs an 'id', got {obj!r}")
    with _located(f"table {obj['id']!r}"):
        table = FlowTable(
            int(obj["id"]),
            name=str(obj.get("name", "")),
            miss_policy=TableMissPolicy(obj.get("miss", "drop")),
        )
        entries = list(obj.get("entries", []))
    for index, entry_obj in enumerate(entries):
        with _located(f"table {table.table_id} entry {index}"):
            table.add(entry_from_obj(entry_obj, groups, meters))
    return table


def group_to_obj(group: Group) -> dict:
    return {
        "id": group.group_id,
        "type": group.group_type.value,
        "buckets": [
            {"weight": b.weight, "actions": [action_to_obj(a) for a in b.actions]}
            for b in group.buckets
        ],
    }


def group_from_obj(obj: dict, groups: GroupTable) -> Group:
    with _located(f"invalid group {obj!r}"):
        buckets = [
            Bucket(
                [action_from_obj(a, groups) for a in b.get("actions", [])],
                weight=int(b.get("weight", 1)),
            )
            for b in obj["buckets"]
        ]
        return Group(int(obj["id"]), GroupType(obj.get("type", "indirect")), buckets)


def pipeline_to_obj(pipeline: Pipeline) -> dict:
    out: dict[str, Any] = {}
    group_objs = [
        group_to_obj(pipeline.groups.get(gid))
        for gid in sorted(pipeline.groups._groups)
    ]
    if group_objs:
        out["groups"] = group_objs
    meter_objs = [
        {
            "id": mid,
            "rate_pps": pipeline.meters.get(mid).rate_pps,
            "burst": pipeline.meters.get(mid).burst,
        }
        for mid in sorted(pipeline.meters._meters)
    ]
    if meter_objs:
        out["meters"] = meter_objs
    out["tables"] = [table_to_obj(t) for t in pipeline]
    return out


def pipeline_from_obj(obj: dict) -> Pipeline:
    if not isinstance(obj, dict) or not isinstance(obj.get("tables"), list):
        raise SerializationError("pipeline document needs a 'tables' list")
    pipeline = Pipeline()
    for group_obj in obj.get("groups", []):
        group = group_from_obj(group_obj, pipeline.groups)
        with _located(f"group {group.group_id}"):
            pipeline.groups.add(group)
    for meter_obj in obj.get("meters", []):
        with _located(f"invalid meter {meter_obj!r}"):
            pipeline.meters.add(
                int(meter_obj["id"]),
                rate_pps=float(meter_obj["rate_pps"]),
                burst=float(meter_obj.get("burst", 0.0)),
            )
    for table_obj in obj["tables"]:
        table = table_from_obj(table_obj, pipeline.groups, pipeline.meters)
        with _located(f"table {table.table_id}"):
            pipeline.add_table(table)
    return pipeline


def dumps(pipeline: Pipeline, indent: int = 2) -> str:
    return json.dumps(pipeline_to_obj(pipeline), indent=indent)


def loads(text: str) -> Pipeline:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return pipeline_from_obj(obj)


def save(pipeline: Pipeline, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(pipeline) + "\n")


def load(path: str) -> Pipeline:
    with open(path) as fh:
        return loads(fh.read())
