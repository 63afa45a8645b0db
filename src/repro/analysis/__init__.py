"""Static security-policy analysis and custom code lint.

The pre-deployment half of the paper's enforcement story: every check
the runtime performs per request — ⊕/⊖ conflict resolution, recursive
revocation, inference control, MLS label dominance — has a whole-policy-
base analogue here that runs without executing a single query.  See
``python -m repro.analysis --rules`` for the catalog.
"""

from repro.analysis.channels import PrivacyAnalysis, analyze_privacy
from repro.analysis.codelint import lint_paths, lint_source
from repro.analysis.corepolicy import (
    CorePolicyAnalysis,
    analyze_core_policies,
    dedupe_findings,
    patterns_overlap,
)
from repro.analysis.findings import (
    Finding,
    REGISTRY,
    Report,
    Rule,
    RuleRegistry,
    Severity,
)
from repro.analysis.grants import (
    analyze_grants,
    escalation_paths,
    grant_option_cycles,
    unsupported_grants,
)
from repro.analysis.mlsrdf import analyze_rdf
from repro.analysis.probes import default_probe_subjects, probe_mask
from repro.analysis.selfcheck import run_self_check
from repro.analysis.xmlpolicy import (
    DtdGraph,
    XmlPolicyAnalysis,
    analyze_xml_policies,
    attachment_tags,
    propagation_region,
)
# The compiler's rules (COMPILE-DIVERGE, COMPILE-RESIDUAL, XML-DYNPRED)
# register when their modules load: import them so the catalog is whole.
import repro.compile.verify  # noqa: F401  (rule registration)
import repro.compile.xmltable  # noqa: F401  (rule registration)

__all__ = [
    "CorePolicyAnalysis", "DtdGraph", "Finding", "PrivacyAnalysis",
    "REGISTRY", "Report", "Rule", "RuleRegistry", "Severity",
    "XmlPolicyAnalysis", "analyze_core_policies", "analyze_grants",
    "analyze_privacy", "analyze_rdf", "analyze_xml_policies",
    "attachment_tags", "dedupe_findings", "default_probe_subjects",
    "escalation_paths", "grant_option_cycles", "lint_paths",
    "lint_source", "patterns_overlap", "probe_mask",
    "propagation_region", "run_self_check", "unsupported_grants",
]
