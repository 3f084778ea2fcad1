"""ESWITCH — the paper's contribution: a compiler from OpenFlow to fast paths.

Pipeline compilation proceeds exactly as Section 3 describes:

1. **flow table analysis** (:mod:`repro.core.analysis`) decomposes the
   pipeline into templates, picking for each table the most efficient
   applicable table template (direct code → compound hash → LPM → linked
   list, Fig. 4), optionally after **flow table decomposition**
   (:mod:`repro.core.decompose`, Fig. 6) rewrites template-unfriendly
   tables into template-friendly multi-table pipelines;
2. **template specialization** (:mod:`repro.core.codegen`) assembles a
   key-free template text per table, loads its code object once per
   shape (:mod:`repro.core.templates`) and patches the flow keys into
   its constants — the analogue of patching keys into pre-compiled
   object code;
3. **linking** resolves jump pointers: within-table jumps become Python
   control flow, ``goto_table`` jumps go through a trampoline
   (:mod:`repro.core.datapath`) so a rebuilt table can be swapped in
   atomically (Section 3.3/3.4).

:class:`repro.core.eswitch.ESwitch` is the user-facing switch.
"""

from repro.core.analysis import CompileConfig, TemplateKind, select_template
from repro.core.decompose import decompose_table
from repro.core.eswitch import ESwitch, SwitchHealth

__all__ = [
    "CompileConfig",
    "TemplateKind",
    "select_template",
    "decompose_table",
    "ESwitch",
    "SwitchHealth",
]
