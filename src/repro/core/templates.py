"""The template loader: key-free source text → cached code object → function.

The paper's templates are *pre-compiled* object code whose constants —
flow keys, jump targets — are patched in at link time (Section 3.3). Here
a template is the source text an emitter assembles with every flow key
left out: :func:`load` maps that text to its code object through one
process-wide, size-bounded cache, and :meth:`Template.bind` specialises it
— ``code.replace(co_consts=…)`` where the text holds key slots, then a
function object over the caller's own namespace. Keys stay ``LOAD_CONST``
operands, so a packet executes the bytecode a fresh ``compile()`` of the
rendered source (:func:`render`) would give it; only the builds differ:
the first of a shape compiles, every later one — the leaves of one fabric,
a shard replica, a rebuild in which only keys moved — patches.

This is the only module under ``repro.core`` that calls the builtin
``compile``. A load that raises caches nothing, so a failure is retried by
whoever asks next and a hit never resurrects one.

A key slot is an integer literal no field value can take (the widest
field is 128 bits): :func:`key_slot` writes slot *i* for a flow key,
:func:`id_slot` for a table id (the same slot numbering; the id renders in
decimal, as an emitter would have written it), and :func:`shift_slots`
renumbers a text's slots when a linker splices it into a larger one. A
slot may sit inside a tuple the compiler folded into one constant.
"""

from __future__ import annotations

import linecache
import re
import sys
import threading
import weakref
from hashlib import blake2b
from time import perf_counter
from types import CodeType, FunctionType

#: slot *i* is the literal ``_SLOT0 + i`` (a flow key, rendered in hex) or
#: ``_ID_SLOT0 + i`` (a table id, rendered in decimal): 41 hex digits.
_SLOT0 = 1 << 160
_ID_SLOT0 = 2 << 160
_INDEX = _SLOT0 - 1
_SLOT = re.compile(r"0x[12][0-9a-f]{40}\b")

#: bound on the resident templates' estimated bytes (text + code objects,
#: a driver's code being about twice its text); the least recently loaded
#: go first. A four-leaf gateway fabric passes through 33 texts, 0.45 MB,
#: while its tenants arrive: the bound holds that several times over.
MAX_BYTES = 4 << 20


def key_slot(index: int) -> str:
    """The placeholder literal of key slot ``index``."""
    return f"{_SLOT0 + index:#x}"


def id_slot(index: int) -> str:
    """The placeholder literal of slot ``index`` holding a table id."""
    return f"{_ID_SLOT0 + index:#x}"


def shift_slots(text: str, offset: int) -> str:
    """``text`` with every slot moved up by ``offset``."""
    return _SLOT.sub(lambda m: f"{int(m.group(), 16) + offset:#x}", text)


def render(text: str, keys) -> str:
    """The source ``text`` stands for once ``keys[slot]`` fills each slot:
    what an emitter with the keys folded in would have written."""

    def fill(match: "re.Match[str]") -> str:
        literal = int(match.group(), 16)
        key = keys[literal & _INDEX]
        return f"{key:#x}" if literal < _ID_SLOT0 else f"{key}"

    return _SLOT.sub(fill, text)


def _holes(const):
    """``const``'s slot: its index for a slot literal, the tuple itself for
    a folded tuple holding one, else None."""
    if type(const) is int:
        return const & _INDEX if const >= _SLOT0 else None
    if type(const) is tuple and any(_holes(c) is not None for c in const):
        return const
    return None


def _fill(hole, keys):
    if type(hole) is int:
        return keys[hole]
    return tuple(c if (h := _holes(c)) is None else _fill(h, keys) for c in hole)


def _code_bytes(code: CodeType) -> int:
    """Estimated resident bytes of a code object and the ones nested in it."""
    return (
        sys.getsizeof(code) + len(code.co_code) + len(code.co_linetable)
        + sys.getsizeof(code.co_consts) + sys.getsizeof(code.co_names)
        + sum(_code_bytes(c) for c in code.co_consts if isinstance(c, CodeType))
    )


class Template:
    """One compiled template text: its top-level functions' code objects
    and, per function, where each key slot landed in ``co_consts``."""

    __slots__ = ("filename", "functions", "bytes", "_patched")

    def __init__(self, text: str, filename: str, module: CodeType):
        self.filename = filename
        #: name -> (code, ((co_consts index, hole), ...)) with each hole
        #: as :func:`_holes` gives it. A slot the text names and no
        #: function holds sat in code the compiler dropped as unreachable
        #: (rules behind a catch-all).
        self.functions: dict[str, tuple[CodeType, tuple]] = {}
        for code in module.co_consts:
            if not isinstance(code, CodeType):
                continue
            holes = tuple(
                (index, hole)
                for index, hole in enumerate(map(_holes, code.co_consts))
                if hole is not None
            )
            self.functions[code.co_name] = (code, holes)
        self.bytes = len(text) + _code_bytes(module)
        #: ``(name, filled constants) -> patched code`` while some function
        #: runs it: tables that patch in equal keys (one table id on every
        #: leaf of a fabric) share one code object.
        self._patched: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def bind(self, namespace: dict, keys=()) -> None:
        """Define the template's functions in ``namespace`` (their
        globals), each key slot holding ``keys[slot]``."""
        patched = False
        for name, (code, holes) in self.functions.items():
            if holes:
                values = tuple(_fill(hole, keys) for _index, hole in holes)
                with _lock:
                    shared = self._patched.get((name, values))
                if shared is None:
                    consts = list(code.co_consts)
                    for (index, _hole), value in zip(holes, values):
                        consts[index] = value
                    shared = code.replace(co_consts=tuple(consts))
                    with _lock:
                        self._patched[name, values] = shared
                code = shared
                patched = True
            namespace[name] = FunctionType(code, namespace, name)
        if patched:
            with _lock:
                _counts["patches"] += 1


_lock = threading.Lock()
#: text -> Template, least recently loaded first.
_cache: dict[str, Template] = {}
_counts = {"compile_calls": 0, "template_hits": 0, "patches": 0,
           "compile_s": 0.0, "bytes": 0}
#: emitter label -> ``compile()`` calls it caused.
_compiles_by_label: dict[str, int] = {}


def load(text: str, label: str) -> Template:
    """The :class:`Template` of a key-free source ``text``, compiled on
    first sight and shared from then on. ``label`` names the emitter in
    the code object's filename; the rest of the name is a digest of the
    text, so it carries the shape and nothing of the instance."""
    with _lock:
        template = _cache.pop(text, None)
        if template is not None:
            _cache[text] = template  # most recently loaded
            _counts["template_hits"] += 1
            return template
    digest = blake2b(text.encode(), digest_size=6).hexdigest()
    # No "<…>" around the name: linecache resolves a lazy entry only for
    # names it could have stat'ed, and the lazy entry is what keeps the
    # text resident once, not once more as a list of lines.
    filename = f"eswitch:{label}:{digest}"
    begun = perf_counter()
    template = Template(text, filename, compile(text, filename, "exec"))
    spent = perf_counter() - begun
    with _lock:
        _counts["compile_calls"] += 1
        _counts["compile_s"] += spent
        _compiles_by_label[label] = _compiles_by_label.get(label, 0) + 1
        if text not in _cache:  # two threads may have compiled one shape
            _cache[text] = template
            _counts["bytes"] += template.bytes
            linecache.cache[filename] = (lambda: text,)
            while _counts["bytes"] > MAX_BYTES and len(_cache) > 1:
                _evict(next(iter(_cache)))
    return template


def _evict(text: str) -> None:
    template = _cache.pop(text)
    _counts["bytes"] -= template.bytes
    linecache.cache.pop(template.filename, None)


def stats() -> dict:
    """The loader's counters since the process started (``compile_calls``
    also split by emitter label: ``fused``, ``direct``, ``hash``, …), and
    what is resident now. Process-wide: every switch reads the same
    numbers."""
    with _lock:
        return {**_counts, "compiles_by_label": dict(_compiles_by_label),
                "templates": len(_cache)}


def clear() -> None:
    """Drop every resident template (tests: the next load of any shape
    is cold). Counters keep counting."""
    with _lock:
        for text in list(_cache):
            _evict(text)
