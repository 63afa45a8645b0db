"""Policy compilation: static analysis graphs → O(1) decision tables.

The pipeline (§3.2's policy bases made cheap to enforce):

1. :mod:`repro.compile.pathdfa` — every policy's resource reach merged
   into one path-class DFA (lazy subset construction, eagerly explored
   over a witness alphabet);
2. :mod:`repro.compile.profiles` — subjects quotiented into
   credential-profile classes by their policy-qualification bitmask;
3. :mod:`repro.compile.table` — the flat decision table keyed by
   (path class, action, profile), filled by the interpreter's own
   conflict-resolution code;
4. :mod:`repro.compile.verify` — the static equivalence proof: every
   compiled cell replayed through the interpreter on its witness, with
   analysis findings explaining (never masking) disagreements;
5. :mod:`repro.compile.xmltable` — the Author-X analogue: per-profile
   label automata over tag chains, verified against the document
   labeller on spine documents.

The table serves through :class:`~repro.gateway.engine.EpochalShardRouter`:
every publication carries one :class:`CompiledPolicy` per shard, and a
change recompiles only the shards it routes to, so a read never checks
freshness.
"""

from repro.compile.pathdfa import (
    MergedPathDfa,
    OTHER_SEGMENT,
    PatternNfa,
    glob_witnesses,
    nfa_for_policy,
)
from repro.compile.profiles import CredentialProfileIndex, ProfileClass
from repro.compile.table import (
    CompiledPolicy,
    CompileStats,
    compile_policy_base,
)
from repro.compile.verify import (
    CellDisagreement,
    CompileVerification,
    verify_compiled,
)
from repro.compile.xmltable import (
    CompiledLabelTable,
    LabelVerification,
    XmlCompileStats,
    compile_xml_policy_base,
    verify_label_table,
    xpath_nfa,
)

__all__ = [
    "MergedPathDfa",
    "OTHER_SEGMENT",
    "PatternNfa",
    "glob_witnesses",
    "nfa_for_policy",
    "CredentialProfileIndex",
    "ProfileClass",
    "CompiledPolicy",
    "CompileStats",
    "compile_policy_base",
    "CellDisagreement",
    "CompileVerification",
    "verify_compiled",
    "CompiledLabelTable",
    "LabelVerification",
    "XmlCompileStats",
    "compile_xml_policy_base",
    "verify_label_table",
    "xpath_nfa",
]
